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

from .symbols import sharp_rho


def weyl_table(grid, g, bony_weyl=False):
    """T[j, k] = g((j + k)/2), zero where j - k leaves [-n/2, n/2), times the
    Bony-Weyl mask chi_eps(|j-k|/<j+k>) if ``bony_weyl``.  The Weyl matrix of
    f(x) g(xi) is the gather f.coeffs[grid.gather_index] * T."""
    n = grid.n
    D, S = grid.mode_lattice
    half_lattice = np.arange(-n, n - 1) / 2.0  # all values of (j+k)/2
    gv = np.asarray(g(half_lattice), dtype=complex)[S + n]
    T = np.where((D >= -(n // 2)) & (D < n // 2), gv, 0.0)
    return T * grid.chi_mask if bony_weyl else T


_op_cache = {}  # never filled; the benchmark's tracer binds this name at install()


def weyl_quantize(sym):
    """Op^W of a SeparableSymbol as a dense n x n array."""
    grid = sym.grid
    idx = grid.gather_index
    M = np.zeros((grid.n, grid.n), dtype=complex)
    for f, g in sym.terms:
        M += f.coeffs[idx] * weyl_table(grid, g)
    return M


def bony_weyl_quantize(sym):
    """Op^BW: the Weyl matrix entrywise multiplied by chi_eps(|j-k|/<j+k>)."""
    return weyl_quantize(sym) * sym.grid.chi_mask


def _components(grid, M, side):
    """Number of stacked components of side ``side`` of the square array M."""
    c = M.shape[0] // side
    if c < 1 or M.shape != (c * side, c * side):
        raise ValueError("matrix shape %r is not a stack of components on %r" % (M.shape, grid))
    return c


def _component_weights(grid, s, c, slots):
    if np.isscalar(s):
        s = [s] * c
    if len(s) != c:
        raise ValueError("need one Sobolev index per component")
    return np.concatenate([grid.bracket_power(si)[slots] for si in s])


def weighted_matrix(grid, M, s_in, s_out, band=None):
    """diag(<j>^{s_out}) M diag(<k>^{-s_in}); its largest singular value is
    the H^{s_in} -> H^{s_out} operator norm.

    ``band`` says which slots of each component M acts on:

    * None: all n, so the component count is M.shape[0] // grid.n;
    * "resolved": all n, and M is first restricted to the rows and columns
      with |mode| <= n // 3 (per component), then weighted;
    * "restricted": M is already on those rows and columns, as formed by a
      caller that builds only them.

    Rows near |j| = n/2 of operator products carry lattice-truncation
    artifacts -- the intermediate mode sum is cut at the band edge -- so
    residual diagnostics are measured on the resolved band, consistent with
    the 2/3 de-aliasing of the states.
    """
    if band not in (None, "resolved", "restricted"):
        raise ValueError("band must be None, 'resolved' or 'restricted'")
    M = np.asarray(M, dtype=complex)
    slots = grid.dealias_mask if band else slice(None)
    if band == "resolved":
        keep = np.tile(slots, _components(grid, M, grid.n))
        M = M[np.ix_(keep, keep)]
    c = _components(grid, M, grid.n if band is None else np.count_nonzero(slots))
    return (M * _component_weights(grid, s_out, c, slots)[:, None]
            / _component_weights(grid, s_in, c, slots)[None, :])


def exact_operator_norm(grid, M, s_in, s_out, band=None):
    """H^{s_in} -> H^{s_out} norm of M by dense SVD."""
    return float(np.linalg.svd(weighted_matrix(grid, M, s_in, s_out, band), compute_uv=False)[0])


def remainder_bw_minus_weyl(sym):
    """R = Op^W(a) - Op^BW(a); smoothing of order rho in tests."""
    return weyl_quantize(sym) - bony_weyl_quantize(sym)


def composition_residual(a, b, rho):
    """Op^BW(a) Op^BW(b) - Op^BW(a #_rho b)."""
    return bony_weyl_quantize(a) @ bony_weyl_quantize(b) - bony_weyl_quantize(sharp_rho(a, b, rho))
