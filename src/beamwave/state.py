"""Complexified state V = (Z, W), Z = (z, zbar), W = (w, wbar).

This module is the one place the complexification is written.  Per pair,
with D = <D> for the beam (y) and D = <D>^{1/2} for the wave (theta),

    z = (D y + i D^{-1} y_t) / sqrt2,     zbar = (D y - i D^{-1} y_t) / sqrt2,
    y = D^{-1} (z + zbar) / sqrt2,        y_t = D (z - zbar) / (i sqrt2).

``stacked_from_real`` and ``real_from_stacked`` apply this map to
coefficient arrays.  They write zbar with its own formula instead of
conjugating z, so they stay valid off the conjugate-pair subspace (analytic
continuation), where the paralinearization evaluates the nonlinearities.

Stacked coefficient layout: (z, zbar, w, wbar), each of length n, so a
stacked vector has length 4n; ``conjugate_pair`` builds it from z and w.

The parity change p = (z + zbar)/sqrt2 = D u, m = (z - zbar)/sqrt2 =
i D^{-1} u_t per pair gives halves of length 2n over (beam, wave); it is
orthogonal, mode by mode, and keeps every H^s norm.  A symmetric pair
[[A, B], [B, A]] acts as A + B on p and A - B on m (even halves); -iE times
it maps m -> p by -i(A - B) and p -> m by -i(A + B) (odd halves pm, mp).

Block inner products follow

    (Z1, Z2)_{L2xL2} = Re (z1, z2)_{L2},   <V1, V2> = (Z1, Z2) + (W1, W2),

which on stacked conjugate pairs is (1/2) sum over components of the scalar
Parseval pairing.
"""

import numpy as np

from .grid import SpectralFunction

_RT2 = np.sqrt(2.0)


def complex_weights(grid):
    """The weights D of the beam pair and of the wave pair: (<j>, <j>^{1/2})."""
    br = grid.brackets
    return br, np.sqrt(br)


def stacked_from_real(grid, y, y_t, theta, theta_t, out=None):
    """Coefficient arrays (y, y_t, theta, theta_t) of shape (..., n) -> stacked
    (z, zbar, w, wbar) of shape (..., 4n), written into ``out`` if given, which
    may hold the inputs in the same slots.  numpy divides a complex by a real as
    a product with the reciprocal, so these products give the quotients' bits."""
    shape = np.broadcast_shapes((grid.n,), *map(np.shape, (y, y_t, theta, theta_t)))
    out = np.empty(shape[:-1] + (4 * grid.n,), dtype=complex) if out is None else out
    slots = out.reshape(shape[:-1] + (4, grid.n))
    for i, (D, u, u_t) in enumerate(zip(complex_weights(grid), (y, theta), (y_t, theta_t))):
        a, b, pair = D * u, u_t * (1j / D), slots[..., 2 * i:2 * i + 2, :]
        np.add(a, b, out=pair[..., 0, :])
        np.subtract(a, b, out=pair[..., 1, :])
        pair *= 1.0 / _RT2
    return out


def real_from_stacked(grid, vec):
    """Stacked (z, zbar, w, wbar) of shape (..., 4n) -> coefficient arrays
    (y, y_t, theta, theta_t) of shape (..., n)."""
    z, zb, w, wb = np.moveaxis(np.reshape(vec, np.shape(vec)[:-1] + (4, grid.n)), -2, 0)
    out = []
    for D, a, b in zip(complex_weights(grid), (z, w), (zb, wb)):
        out += [(a + b) / (_RT2 * D), D * (a - b) / (1j * _RT2)]
    return tuple(out)


def parity_split(vec):
    """Stacked (..., 4n) -> the parity halves p, m, each (..., 2n) over (beam, wave)."""
    z, zb, w, wb = np.split(np.asarray(vec), 4, axis=-1)
    return (np.concatenate([z + zb, w + wb], axis=-1) / _RT2,
            np.concatenate([z - zb, w - wb], axis=-1) / _RT2)


def parity_join(p, m):
    """The inverse of ``parity_split``: halves p, m (..., 2n) -> stacked (..., 4n)."""
    (p_b, p_w), (m_b, m_w) = np.split(p, 2, axis=-1), np.split(m, 2, axis=-1)
    return np.concatenate([p_b + m_b, p_b - m_b, p_w + m_w, p_w - m_w], axis=-1) / _RT2


def conjugate_pair(grid, z, w):
    """Stacked (z, zbar, w, wbar) of shape (..., 4n) from coefficient arrays z
    and w of shape (..., n), with zbar(j) = conj(z(-j))."""
    r = grid.reflect
    return np.concatenate([z, np.conj(z[..., r]), w, np.conj(w[..., r])], axis=-1)


class StateVector:
    """V with components z (beam) and w (wave); conjugates implicit."""

    def __init__(self, z, w):
        if z.grid != w.grid:
            raise ValueError("z and w must share a grid")
        self.grid = z.grid
        self.z = z
        self.w = w

    @classmethod
    def from_stacked(cls, grid, vec):
        vec = np.asarray(vec, dtype=complex)
        n = grid.n
        if vec.shape != (4 * n,):
            raise ValueError("stacked state must have length 4n")
        return cls(
            SpectralFunction(grid, vec[:n], is_real=False),
            SpectralFunction(grid, vec[2 * n : 3 * n], is_real=False),
        )

    def stacked(self):
        return conjugate_pair(self.grid, self.z.coeffs, self.w.coeffs)


def stacked_norm(grid, vec, s):
    """H^s norm sqrt((1/2) sum_c ||v_c||^2_{H^s}) of stacked vectors (..., 4n):
    a float for one vector, an array over the leading axes otherwise."""
    v = np.reshape(vec, np.shape(vec)[:-1] + (4, grid.n))
    per_component = np.sum((v.real**2 + v.imag**2) * grid.bracket_power(s) ** 2, axis=-1)
    # the components summed one by one, in order, as for a single vector, so
    # a batch gives each vector's norm bit for bit
    norm = np.sqrt(sum(np.moveaxis(0.5 * per_component, -1, 0)))
    return float(norm) if v.ndim == 2 else norm


def real_norm_weights(grid, s):
    """Weights w (4, n) with sum(w |u|^2) = stacked_norm(stacked_from_real(u), s)^2 up to
    round-off, as |z|^2 + |zbar|^2 = |D y|^2 + |D^{-1} y_t|^2 per mode, y and y_t complex."""
    w = 0.5 * grid.bracket_power(s) ** 2
    return np.array([w * D**p for D in complex_weights(grid) for p in (2, -2)])


def stacked_inner(grid, u, v, s=0.0):
    """<U, V> block pairing on stacked vectors (..., 4n) (real for conjugate pairs)."""
    w = grid.bracket_power(s) ** 2
    shape = np.shape(u)[:-1] + (4, grid.n)
    per_component = np.sum(np.reshape(u, shape) * np.conj(np.reshape(v, shape)) * w, axis=-1)
    return sum(np.moveaxis(0.5 * per_component, -1, 0)).real


def is_conjugate_pair(grid, vec, tol=1e-10):
    """Check that slots 1, 3 are the conjugate functions of slots 0, 2."""
    n = grid.n
    pair = conjugate_pair(grid, vec[:n], vec[2 * n : 3 * n])
    return bool(np.max(np.abs(vec - pair)) <= tol)


def complexify(y, y_t, theta, theta_t):
    """(y, y_t, theta, theta_t) real SpectralFunctions -> StateVector."""
    grid = y.grid
    for u in (y, y_t, theta, theta_t):
        if not u.is_real:
            raise ValueError("complexify expects real fields")
    vec = stacked_from_real(grid, y.coeffs, y_t.coeffs, theta.coeffs, theta_t.coeffs)
    return StateVector.from_stacked(grid, vec)


def realify(V):
    """StateVector -> (y, y_t, theta, theta_t) real SpectralFunctions."""
    parts = real_from_stacked(V.grid, V.stacked())
    return tuple(SpectralFunction(V.grid, u, is_real=True) for u in parts)
