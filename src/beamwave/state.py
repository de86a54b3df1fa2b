"""Complexified state V = (Z, W), Z = (z, zbar), W = (w, wbar).

This module is the one place the complexification is written.  Per pair,
with D = <D> for the beam (y) and D = <D>^{1/2} for the wave (theta),

    z = (D y + i D^{-1} y_t) / sqrt2,     zbar = (D y - i D^{-1} y_t) / sqrt2,
    y = D^{-1} (z + zbar) / sqrt2,        y_t = D (z - zbar) / (i sqrt2).

``stacked_from_real`` and ``real_from_stacked`` apply this map to
coefficient arrays.  They write zbar with its own formula instead of
conjugating z, so they stay valid off the conjugate-pair subspace (analytic
continuation), where the paralinearization evaluates the nonlinearities.

The solvers march, store and norm the real state u = (y, y_t, theta,
theta_t) by its j >= 0 half (4, ..., n//2 + 1), normed by ``real_norm_weights``.  The
stacked V is the paper's operand: the initial data of ``kato_solve``,
``RunResult.final``, the g-functions of the parametrix and energy
diagnostics, and the dense test references.

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

_RT2 = np.sqrt(2.0)


def complex_weights(grid):
    """The weights D of the beam pair and of the wave pair: (<j>, <j>^{1/2})."""
    br = grid.brackets
    return br, np.sqrt(br)


def stacked_from_real(grid, y, y_t, theta, theta_t):
    """Coefficient arrays (y, y_t, theta, theta_t) of shape (..., n) -> stacked
    (z, zbar, w, wbar) of shape (..., 4n)."""
    out = []
    for D, u, u_t in zip(complex_weights(grid), (y, theta), (y_t, theta_t)):
        a, b = D * u, u_t * (1j / D)
        out += [(a + b) * (1.0 / _RT2), (a - b) * (1.0 / _RT2)]
    return np.concatenate(np.broadcast_arrays(*out), axis=-1)


def real_from_stacked(grid, vec):
    """Stacked (z, zbar, w, wbar) of shape (..., 4n) -> coefficient arrays
    (y, y_t, theta, theta_t) of shape (..., n)."""
    z, zb, w, wb = np.moveaxis(np.reshape(vec, np.shape(vec)[:-1] + (4, grid.n)), -2, 0)
    out = []
    for D, a, b in zip(complex_weights(grid), (z, w), (zb, wb)):
        out += [(a + b) / (_RT2 * D), D * (a - b) / (1j * _RT2)]
    return tuple(out)


def conjugate_pair(grid, z, w):
    """Stacked (z, zbar, w, wbar) of shape (..., 4n) from coefficient arrays z
    and w of shape (..., n), with zbar(j) = conj(z(-j))."""
    r = grid.reflect
    return np.concatenate([z, np.conj(z[..., r]), w, np.conj(w[..., r])], axis=-1)


class StateVector:
    """V by the coefficient arrays z (beam) and w (wave); conjugates implicit."""

    def __init__(self, grid, z, w):
        self.grid = grid
        self.z = z
        self.w = w

    def stacked(self):
        return conjugate_pair(self.grid, self.z, self.w)


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


def is_conjugate_pair(grid, vec, tol):
    """Check that slots 1, 3 are the conjugate functions of slots 0, 2, to ``tol``."""
    n = grid.n
    pair = conjugate_pair(grid, vec[:n], vec[2 * n : 3 * n])
    return bool(np.max(np.abs(vec - pair)) <= tol)


def complexify(y, y_t, theta, theta_t):
    """(y, y_t, theta, theta_t) real SpectralFunctions -> StateVector."""
    grid = y.grid
    for u in (y, y_t, theta, theta_t):
        if not u.is_real:
            raise ValueError("complexify expects real fields")
    z, _, w, _ = np.split(stacked_from_real(grid, y.coeffs, y_t.coeffs, theta.coeffs,
                                            theta_t.coeffs), 4)
    return StateVector(grid, z, w)

