"""Complexified state V = (Z, W), Z = (z, zbar), W = (w, wbar).

The real unknowns are recovered through

    y = sqrt(2) <D>^{-1} Re z,        y_t = sqrt(2) <D> Im z,
    theta = sqrt(2) <D>^{-1/2} Re w,  theta_t = sqrt(2) <D>^{1/2} Im w.

Stacked coefficient layout: (z, zbar, w, wbar), each of length n, so block
operators act on vectors of length 4n.  Block inner products follow

    (Z1, Z2)_{L2xL2} = Re (z1, z2)_{L2},   <V1, V2> = (Z1, Z2) + (W1, W2),

which on stacked conjugate pairs is (1/2) sum over components of the scalar
Parseval pairing.
"""

import numpy as np

from .grid import SpectralFunction, sobolev_norm


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
        zb = self.z.conj()
        wb = self.w.conj()
        return np.concatenate([self.z.coeffs, zb.coeffs, self.w.coeffs, wb.coeffs])

    def norm(self, s):
        return float(np.sqrt(sobolev_norm(self.z, s) ** 2 + sobolev_norm(self.w, s) ** 2))

    def __add__(self, other):
        return StateVector(self.z + other.z, self.w + other.w)

    def __sub__(self, other):
        return StateVector(self.z - other.z, self.w - other.w)

    def __mul__(self, scalar):
        return StateVector(self.z * scalar, self.w * scalar)

    __rmul__ = __mul__


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
    idx = (-np.arange(n)) % n
    for c in (0, 2):
        a = vec[c * n : (c + 1) * n]
        b = vec[(c + 1) * n : (c + 2) * n]
        if np.max(np.abs(b - np.conj(a[idx]))) > tol:
            return False
    return True


def complexify(y, y_t, theta, theta_t):
    """(y, y_t, theta, theta_t) real SpectralFunctions -> StateVector."""
    grid = y.grid
    for u in (y, y_t, theta, theta_t):
        if not u.is_real:
            raise ValueError("complexify expects real fields")
    br = grid.brackets
    rt2 = np.sqrt(2.0)
    z = SpectralFunction(grid, (br * y.coeffs + 1j * y_t.coeffs / br) / rt2, is_real=False)
    w = SpectralFunction(
        grid,
        (np.sqrt(br) * theta.coeffs + 1j * theta_t.coeffs / np.sqrt(br)) / rt2,
        is_real=False,
    )
    return StateVector(z, w)


def realify(V):
    """StateVector -> (y, y_t, theta, theta_t) real SpectralFunctions."""
    grid = V.grid
    br = grid.brackets
    rt2 = np.sqrt(2.0)
    zb = V.z.conj().coeffs
    wb = V.w.conj().coeffs
    y = SpectralFunction(grid, rt2 * (V.z.coeffs + zb) / (2.0 * br), is_real=True)
    y_t = SpectralFunction(grid, rt2 * br * (V.z.coeffs - zb) / 2j, is_real=True)
    theta = SpectralFunction(grid, rt2 * (V.w.coeffs + wb) / (2.0 * np.sqrt(br)), is_real=True)
    theta_t = SpectralFunction(
        grid, rt2 * np.sqrt(br) * (V.w.coeffs - wb) / 2j, is_real=True
    )
    return y, y_t, theta, theta_t
