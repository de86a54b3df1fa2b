"""Complexified state V = (Z, W), Z = (z, zbar), W = (w, wbar).

This module is the one place the complexification is written.  Per pair,
with D = <D> for the beam (y) and D = <D>^{1/2} for the wave (theta),

    z = (D y + i D^{-1} y_t) / sqrt2,     zbar = (D y - i D^{-1} y_t) / sqrt2,
    y = D^{-1} (z + zbar) / sqrt2,        y_t = D (z - zbar) / (i sqrt2).

``stacked_from_real`` and ``real_from_stacked`` apply this map to
coefficient arrays.  They write zbar with its own formula instead of
conjugating z, so they stay valid off the conjugate-pair subspace (analytic
continuation), where the paralinearization evaluates the nonlinearities.

Stacked coefficient layout: (z, zbar, w, wbar), each of length n, so block
operators act on vectors of length 4n; ``conjugate_pair`` builds it from z
and w.  Block inner products follow

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


def stacked_from_real(grid, y, y_t, theta, theta_t):
    """Coefficient arrays (y, y_t, theta, theta_t) -> stacked (z, zbar, w, wbar)."""
    out = []
    for D, u, u_t in zip(complex_weights(grid), (y, theta), (y_t, theta_t)):
        out += [(D * u + 1j * u_t / D) / _RT2, (D * u - 1j * u_t / D) / _RT2]
    return np.concatenate(out)


def real_from_stacked(grid, vec):
    """Stacked (z, zbar, w, wbar) -> coefficient arrays (y, y_t, theta, theta_t)."""
    z, zb, w, wb = np.reshape(vec, (4, grid.n))
    out = []
    for D, a, b in zip(complex_weights(grid), (z, w), (zb, wb)):
        out += [(a + b) / (_RT2 * D), D * (a - b) / (1j * _RT2)]
    return tuple(out)


def conjugate_pair(grid, z, w):
    """Stacked (z, zbar, w, wbar) from coefficient arrays z and w, with
    zbar(j) = conj(z(-j))."""
    r = grid.reflect
    return np.concatenate([z, np.conj(z[r]), w, np.conj(w[r])])


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
    """H^s norm of a stacked 4n vector: sqrt((1/2) sum_c ||v_c||^2_{H^s})."""
    n = grid.n
    w = grid.bracket_power(s) ** 2
    total = 0.0
    for c in range(4):
        total += 0.5 * float(np.sum(np.abs(vec[c * n : (c + 1) * n]) ** 2 * w))
    return float(np.sqrt(total))


def stacked_inner(grid, u, v, s=0.0):
    """<U, V> block pairing on stacked vectors (real for conjugate pairs)."""
    n = grid.n
    w = grid.bracket_power(s) ** 2
    acc = 0.0 + 0.0j
    for c in range(4):
        acc += 0.5 * np.sum(u[c * n : (c + 1) * n] * np.conj(v[c * n : (c + 1) * n]) * w)
    return acc.real


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
