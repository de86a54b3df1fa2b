"""Weyl and Bony-Weyl quantization as dense matrices on Fourier coefficients.

The Weyl matrix of a symbol a(x, xi) is

    M[j, k] = ahat(j - k, (j + k)/2),

the spatial transform evaluated at the frequency midpoint.  The Bony-Weyl
(paradifferential) matrix multiplies each entry by chi_eps(|j-k| / <j+k>),
restricting the symbol's spatial frequencies below the function's.
Every operator is a plain complex array; a matrix of side c*n acts on c
components, component i on coefficient slots [i*n, (i+1)*n): c = 2 for a
parity half (beam, wave) of ``state``, c = 4 for a stacked vector.
Operator norms between Sobolev spaces are the largest singular value of the
bracket-weighted matrix.
"""

import numpy as np

from .symbols import cutoff_chi, sharp_rho


def _mode_lattice(grid):
    """(j - k, j + k) over all pairs of modes."""
    J = grid.modes
    return J[:, None] - J[None, :], J[:, None] + J[None, :]


def _chi_mask(grid):
    D, S = _mode_lattice(grid)
    return cutoff_chi(np.abs(D) / np.sqrt(1.0 + S.astype(float) ** 2))


def weyl_gather_index(grid):
    """(j - k) mod n: the slot of fhat(j - k) in a coefficient array."""
    return _mode_lattice(grid)[0] % grid.n


def weyl_table(grid, g, bony_weyl=False):
    """T[j, k] = g((j + k)/2), zero where j - k leaves [-n/2, n/2), times the
    Bony-Weyl mask chi_eps(|j-k|/<j+k>) if ``bony_weyl``.  The Weyl matrix of
    f(x) g(xi) is the gather f.coeffs[weyl_gather_index(grid)] * T."""
    n = grid.n
    D, S = _mode_lattice(grid)
    half_lattice = np.arange(-n, n - 1) / 2.0  # all values of (j+k)/2
    gv = np.asarray(g(half_lattice), dtype=complex)[S + n]
    T = np.where((D >= -(n // 2)) & (D < n // 2), gv, 0.0)
    return T * _chi_mask(grid) if bony_weyl else T


_op_cache = {}  # never filled; the benchmark's tracer binds this name at install()


def weyl_quantize(sym):
    """Op^W of a SeparableSymbol as a dense n x n array."""
    grid = sym.grid
    idx = weyl_gather_index(grid)
    M = np.zeros((grid.n, grid.n), dtype=complex)
    for f, g in sym.terms:
        M += f.coeffs[idx] * weyl_table(grid, g)
    return M


def bony_weyl_quantize(sym):
    """Op^BW: the Weyl matrix entrywise multiplied by chi_eps(|j-k|/<j+k>)."""
    return weyl_quantize(sym) * _chi_mask(sym.grid)


def _components(grid, M):
    """Number of stacked components of the square array M."""
    c = M.shape[0] // grid.n
    if c < 1 or M.shape != (c * grid.n, c * grid.n):
        raise ValueError("matrix shape %r is not a stack of components on %r" % (M.shape, grid))
    return c


def _component_weights(grid, s, c):
    if np.isscalar(s):
        s = [s] * c
    if len(s) != c:
        raise ValueError("need one Sobolev index per component")
    return np.concatenate([grid.bracket_power(si) for si in s])


def weighted_matrix(grid, M, s_in, s_out, band=None):
    """diag(<j>^{s_out}) M diag(<k>^{-s_in}); its largest singular value is
    the H^{s_in} -> H^{s_out} operator norm.  The component count is
    M.shape[0] // grid.n.

    With ``band="resolved"`` the matrix is restricted to rows and columns
    with |mode| <= n // 3 (per component).  Rows near |j| = n/2 of operator
    products carry lattice-truncation artifacts -- the intermediate mode sum
    is cut at the band edge -- so residual diagnostics are measured on the
    resolved band, consistent with the 2/3 de-aliasing of the states.
    """
    M = np.asarray(M, dtype=complex)
    c = _components(grid, M)
    W = M * _component_weights(grid, s_out, c)[:, None] / _component_weights(grid, s_in, c)[None, :]
    if band is None:
        return W
    if band != "resolved":
        raise ValueError("band must be None or 'resolved'")
    mask = np.tile(np.abs(grid.modes) <= grid.dealias_cut, c)
    return W[np.ix_(mask, mask)]


def exact_operator_norm(grid, M, s_in, s_out, band=None):
    """H^{s_in} -> H^{s_out} norm of M by dense SVD."""
    return float(np.linalg.svd(weighted_matrix(grid, M, s_in, s_out, band), compute_uv=False)[0])


def remainder_bw_minus_weyl(sym):
    """R = Op^W(a) - Op^BW(a); smoothing of order rho in tests."""
    return weyl_quantize(sym) - bony_weyl_quantize(sym)


def composition_residual(a, b, rho):
    """Op^BW(a) Op^BW(b) - Op^BW(a #_rho b)."""
    return bony_weyl_quantize(a) @ bony_weyl_quantize(b) - bony_weyl_quantize(sharp_rho(a, b, rho))
