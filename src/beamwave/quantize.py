"""Weyl and Bony-Weyl quantization as dense matrices on Fourier coefficients.

The Weyl matrix of a symbol a(x, xi) is

    M[j, k] = ahat(j - k, (j + k)/2),

the spatial transform evaluated at the frequency midpoint.  The Bony-Weyl
(paradifferential) matrix multiplies each entry by chi_eps(|j-k| / <j+k>),
restricting the symbol's spatial frequencies below the function's.  A
separable symbol sum_i f_i(x) g_i(xi) has the Weyl matrix
sum_i fhat_i(j - k) g_i((j + k)/2): each term is the grid's Toeplitz view of
fhat_i (``TorusGrid.toeplitz``) times a table of g_i (``weyl_table``); a
block is formed in its own buffer by row blocks (``grid.row_blocks``), with no
n x n scratch, and chi multiplies it in place.
A symbol whose x-coefficients are all constant has an exactly diagonal
Bony-Weyl matrix (the Toeplitz views are fhat_i(0) I, chi_eps(0) = 1, the
Nyquist slot included): ``bony_weyl_quantize`` returns it as its diagonal
(n,), and every caller must expect either form.  ``combine`` and
``as_matrix`` are the one rule that forms a diagonal as its matrix beside a
dense block, where numpy would broadcast the pair into a wrong array;
``subtract_into`` forms a difference in the dense block its caller gives up.
Every operator is a plain complex array; a matrix of side c*n acts on c
components, component i on coefficient slots [i*n, (i+1)*n), c = 4 for a
stacked vector.  A parity half (beam, wave) of ``state`` is held by its
2 x 2 blocks of side n instead.

Operator norms between Sobolev spaces are the largest singular value of the
bracket-weighted matrix W of a block formed on the resolved band |j| <= n/3
alone (``exact_operator_norm``): rows near |j| = n/2 of operator products
carry lattice-truncation artifacts, their intermediate mode sum cut at the
band edge, consistent with the 2/3 de-aliasing of the states.

The band is symmetric and holds no Nyquist mode, so the norm is taken in the
cosine-sine basis of each component: the unitary Q pairing each mode j with
-j into cos jx, sin jx (and keeping j = 0), applied in place to pairs of rows
and of columns; the weights are even in j, so they commute with Q.  An
operator from a real symbol maps real functions to real functions, M[-j, -k]
= conj M[j, k] (no product's inner sum runs through the unpaired mode -n/2,
which ``TorusGrid.chi_mask`` keeps diagonal), so X = Q W Q^H is real times a
global phase (1 for the parametrix products, -i for the generator
residuals): the SVD is taken of Re X when max|Im X| <= 1e-8 max|Re X|, of
Im X the other way round, and of the complex W otherwise -- a matrix not
real in this basis to that tolerance (the operators suite's Op^W - Op^BW at
N = 128: 5e-8 of round-off from ``transform`` weighted by <j>^4).
"""

import operator

import numpy as np

from .grid import row_blocks
from .symbols import FrequencyMultiplier, sharp_rho


def weyl_table(grid, g, rows):
    """The rows ``rows`` (a slice) of the real n x n table T[j, k] = g((j + k)/2),
    zero where j - k leaves [-n/2, n/2).  The Weyl matrix of
    f(x) g(xi) is grid.toeplitz(f.coeffs) * T, its Bony-Weyl matrix that times
    chi_eps(|j-k|/<j+k>) (``grid.chi_mask``)."""
    n, J = grid.n, grid.modes
    T = g(np.arange(-n, n - 1) / 2.0)[np.add.outer(J[rows], J + n)]  # g at each (j + k)/2
    T[~grid.in_range[rows]] = 0.0
    return T


_op_cache = {}  # never filled; the benchmark's tracer binds this name at install()
_ONE = FrequencyMultiplier.one().terms


def weyl_quantize(sym):
    """Op^W of a SeparableSymbol as a dense n x n array, formed by row blocks
    (``row_blocks``): each term's product, its Toeplitz view times its table,
    is added to the sum so far, first 0.0 (-0.0 to +0.0).  The multiplier 1
    takes no table: its table is the grid's in-range mask."""
    grid, n = sym.grid, sym.grid.n
    if not sym.terms:
        return np.zeros((n, n), dtype=complex)
    M = np.empty((n, n), dtype=complex)
    terms = [(grid.toeplitz(f.coeffs), g.terms == _ONE, g) for f, g in sym.terms]
    for r in row_blocks(n):
        for i, (F, one, g) in enumerate(terms):  # the first term's product is formed in M
            t = np.multiply(F[r], grid.in_range[r] if one else weyl_table(grid, g, r),
                            out=None if i else M[r])
            np.add(t, M[r] if i else 0.0, out=M[r])
    return M


def bony_weyl_quantize(sym):
    """Op^BW: the Weyl matrix entrywise multiplied by chi_eps(|j-k|/<j+k>); if
    every x-coefficient is constant, its diagonal 0.0 + sum_i fhat_i(0) g_i(j)
    (n,), summed in term order as ``weyl_quantize`` sums, so bit for bit the
    matrix's: zeros for a symbol of no terms."""
    grid = sym.grid
    if any(f.coeffs[1:].any() for f, _ in sym.terms):
        M = weyl_quantize(sym)
        return np.multiply(M, grid.chi_mask, out=M)
    return sum((f.coeffs[0] * g(grid.modes) for f, g in sym.terms), np.zeros(grid.n, complex))


def as_matrix(b):
    """A block as an array of its side: a diagonal (n,) as its diagonal matrix."""
    return np.diag(b) if b.ndim == 1 else b


def combine(op, A, B):
    """op(A, B), a sum or difference of two blocks; a diagonal beside a dense
    block is formed as its matrix.  op is ``operator.add`` or ``operator.sub``,
    not the ufunc: numpy may then write the result over a temporary operand."""
    return op(A, B) if A.ndim == B.ndim else op(as_matrix(A), as_matrix(B))


def subtract_into(A, B):
    """A - B, as ``combine`` forms it, written over B when B is a dense block:
    the caller gives B up.  A diagonal A is then subtracted on B's diagonal,
    with 0.0 - B off it, as its matrix's zeros would be."""
    if B.ndim == 1:
        return combine(operator.sub, A, B)
    if A.ndim == 2:
        return np.subtract(A, B, out=B)
    d = A - B.diagonal()
    np.subtract(0.0, B, out=B)
    np.fill_diagonal(B, d)
    return B


_PHASE_TOL = 1e-8  # the part of X dropped against the part kept, relatively


def _to_cosine_sine(grid, W):
    """W -> Q W Q^H in place, for W on the resolved band of each of its
    components: the rows of modes j and -j (0 < j <= n/3) become
    (W[j] + W[-j])/sqrt2 and -i(W[j] - W[-j])/sqrt2, then the columns
    likewise with the phase +i.  In fft order a component's band holds the
    modes 0, 1..n/3, -n/3..-1, so mode -j sits at position m - j."""
    m, cut = 2 * grid.dealias_cut + 1, grid.dealias_cut
    h = np.sqrt(0.5)
    for half, phase in ((W, -1j), (W.T, 1j)):  # rows, then columns
        for o in range(0, W.shape[0], m):
            p, q = half[o + 1:o + cut + 1], half[o + m - 1:o + cut:-1]
            d = p - q
            p += q
            p *= h
            np.multiply(d, phase * h, out=q)
    return W


def _abs_max(a):
    return max(a.max(), -a.min())


def exact_operator_norm(grid, M, s_in, s_out):
    """H^{s_in} -> H^{s_out} norm of a block M on the resolved band R (|j| <=
    n/3): the largest singular value of W = diag(<j>^{s_out}) M diag(<k>^{-s_in}),
    by the SVD of the real matrix of the cosine-sine basis when W is real there
    up to a global phase and ``_PHASE_TOL``, of the complex W otherwise.

    M is an |R| x |R| block, its diagonal (|R|,), normed by its largest
    weighted entry with no SVD, or a square tuple of tuples of such blocks, one
    row and column per component, None for a zero block.  If every off-diagonal
    block is None, the norm is the largest of its diagonal blocks' norms, each
    taken alone; otherwise the blocks are assembled."""
    c = 1
    if isinstance(M, tuple):
        c = len(M)
        if all(M[i][k] is None for i in range(c) for k in range(c) if i != k):
            return float(np.max([exact_operator_norm(grid, M[i][i], s_in, s_out)
                                 for i in range(c) if M[i][i] is not None], initial=0.0))
        side = next(b.shape[0] for row in M for b in row if b is not None)
        M = np.block([[np.zeros((side, side)) if b is None else as_matrix(b) for b in row]
                      for row in M])
    w_out, w_in = (np.tile(grid.bracket_power(s)[grid.dealias_mask], c) for s in (s_out, s_in))
    if np.ndim(M) == 1:
        return float(np.max(np.abs(M * w_out / w_in), initial=0.0))

    def weighted():
        W = np.asarray(M, dtype=complex) * w_out[:, None]
        W /= w_in
        return W

    X = weighted()
    if not X.any():
        return 0.0
    _to_cosine_sine(grid, X)
    re, im = _abs_max(X.real), _abs_max(X.imag)
    if im <= _PHASE_TOL * re:
        X = X.real
    elif re <= _PHASE_TOL * im:
        X = X.imag
    else:  # not real in this basis: W weighted again, not copied before the change of basis
        X = weighted()
    return float(np.linalg.svd(X, compute_uv=False)[0])


def remainder_bw_minus_weyl(sym):
    """R = Op^W(a) - Op^BW(a); smoothing of order rho in tests."""
    return subtract_into(weyl_quantize(sym), bony_weyl_quantize(sym))


def composition_residual(a, b, rho):
    """Op^BW(a) Op^BW(b) - Op^BW(a #_rho b)."""
    A, B = (as_matrix(bony_weyl_quantize(s)) for s in (a, b))
    return subtract_into(A @ B, bony_weyl_quantize(sharp_rho(a, b, rho)))
