"""Weyl and Bony-Weyl quantization as dense matrices on Fourier coefficients.

The Weyl matrix of a symbol a(x, xi) is

    M[j, k] = ahat(j - k, (j + k)/2),

the spatial transform evaluated at the frequency midpoint.  The Bony-Weyl
(paradifferential) matrix multiplies each entry by chi_eps(|j-k| / <j+k>),
restricting the symbol's spatial frequencies below the function's.  A
separable symbol sum_i f_i(x) g_i(xi) has the Weyl matrix
sum_i fhat_i(j - k) g_i((j + k)/2): each term is the grid's Toeplitz view of
fhat_i (``TorusGrid.toeplitz``) times a table of g_i (``weyl_table``); a
block is summed into its first term's product, which chi multiplies in place.
A symbol whose x-coefficients are all constant has an exactly diagonal
Bony-Weyl matrix (the Toeplitz views are fhat_i(0) I, chi_eps(0) = 1, the
Nyquist slot included): ``bony_weyl_quantize`` returns it as its diagonal
(n,), and every caller must expect either form.  ``combine`` and
``as_matrix`` are the one rule that forms a diagonal as its matrix beside a
dense block, where numpy would broadcast the pair into a wrong array.
Every operator is a plain complex array; a matrix of side c*n acts on c
components, component i on coefficient slots [i*n, (i+1)*n), c = 4 for a
stacked vector.  A parity half (beam, wave) of ``state`` is held by its
2 x 2 blocks of side n instead.
Operator norms between Sobolev spaces are the largest singular value of the
bracket-weighted matrix W.

On the resolved band |j| <= n/3, which is symmetric and holds no Nyquist
mode, the norm is taken in the cosine-sine basis of each component: the
unitary Q pairing each mode j with -j into cos jx, sin jx (and keeping
j = 0), applied in place to pairs of rows and of columns; the weights are
even in j, so they commute with Q.  An operator from a real symbol maps
real functions to real functions, M[-j, -k] = conj M[j, k] (no product's
inner sum runs through the unpaired mode -n/2, which ``TorusGrid.chi_mask``
keeps diagonal), so X = Q W Q^H is real times a global phase (1 for the
parametrix products, -i for the generator residuals): the SVD is taken of
Re X when max|Im X| <= 1e-8 max|Re X|, of Im X the other way round, and of
the complex W otherwise -- a matrix not real in this basis to that tolerance
(the operators suite's Op^W - Op^BW at N = 128: 5e-8 of round-off from
``transform`` weighted by <j>^4), and every norm on all n modes.
"""

import operator

import numpy as np

from .symbols import FrequencyMultiplier, sharp_rho


def weyl_table(grid, g, rows=None):
    """The real n x n table T[j, k] = g((j + k)/2), zero where j - k leaves
    [-n/2, n/2), or its first ``rows`` rows alone.  The Weyl matrix of f(x) g(xi)
    is grid.toeplitz(f.coeffs) * T, its Bony-Weyl matrix that times
    chi_eps(|j-k|/<j+k>) (``grid.chi_mask``)."""
    n, J = grid.n, grid.modes
    T = g(np.arange(-n, n - 1) / 2.0)[np.add.outer(J[:rows], J + n)]  # g at each (j + k)/2
    T[~grid.in_range[:rows]] = 0.0
    return T


_op_cache = {}  # never filled; the benchmark's tracer binds this name at install()
_ONE = FrequencyMultiplier.one().terms


def weyl_quantize(sym):
    """Op^W of a SeparableSymbol as a dense n x n array.  The multiplier 1
    takes no table: its table is the grid's in-range mask."""
    grid, M = sym.grid, 0.0  # each term's product takes the sum so far, first 0.0: -0.0 to +0.0
    for f, g in sym.terms:
        t = grid.toeplitz(f.coeffs) * (grid.in_range if g.terms == _ONE else weyl_table(grid, g))
        M = np.add(t, M, out=t)
    return M if sym.terms else np.zeros((grid.n, grid.n), dtype=complex)


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
    W = M * _component_weights(grid, s_out, c, slots)[:, None]
    W /= _component_weights(grid, s_in, c, slots)[None, :]
    return W


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


def exact_operator_norm(grid, M, s_in, s_out, band=None):
    """H^{s_in} -> H^{s_out} norm of M by dense SVD: of the real matrix of the
    cosine-sine basis on the resolved band when M is real there up to a
    global phase and ``_PHASE_TOL``, of the complex weighted matrix otherwise.

    M may be given by its component blocks, a square tuple of tuples with
    None for a zero block, and a diagonal block by its diagonal.  If every
    off-diagonal block is None, M is block-diagonal, and its norm is the
    largest of its diagonal blocks' norms, each taken alone; otherwise the
    blocks are assembled.  A diagonal M of one component, given by its
    diagonal d, has the norm max_j |d_j| <j>^{s_out} / <j>^{s_in}, with no SVD."""
    if isinstance(M, tuple):
        c = len(M)
        s_in, s_out = ([v] * c if np.isscalar(v) else v for v in (s_in, s_out))
        if all(M[i][k] is None for i in range(c) for k in range(c) if i != k):
            return float(np.max([exact_operator_norm(grid, M[i][i], s_in[i], s_out[i], band)
                                 for i in range(c) if M[i][i] is not None], initial=0.0))
        side = next(b.shape[0] for row in M for b in row if b is not None)
        M = np.block([[np.zeros((side, side)) if b is None else as_matrix(b) for b in row]
                      for row in M])
    if np.ndim(M) == 1:  # weighted as weighted_matrix weights its diagonal
        slots = grid.dealias_mask if band else slice(None)
        d = M[slots] if band == "resolved" else M
        w_out, w_in = (grid.bracket_power(v)[slots] for v in (s_out, s_in))
        return float(np.max(np.abs(d * w_out / w_in), initial=0.0))
    X = weighted_matrix(grid, M, s_in, s_out, band)
    if not X.any():
        return 0.0
    if band is not None:
        _to_cosine_sine(grid, X)
        re, im = _abs_max(X.real), _abs_max(X.imag)
        if im <= _PHASE_TOL * re:
            X = X.real
        elif re <= _PHASE_TOL * im:
            X = X.imag
        else:  # not real in this basis
            X = weighted_matrix(grid, M, s_in, s_out, band)
    return float(np.linalg.svd(X, compute_uv=False)[0])


def remainder_bw_minus_weyl(sym):
    """R = Op^W(a) - Op^BW(a); smoothing of order rho in tests."""
    return combine(operator.sub, weyl_quantize(sym), bony_weyl_quantize(sym))


def composition_residual(a, b, rho):
    """Op^BW(a) Op^BW(b) - Op^BW(a #_rho b)."""
    A, B = (as_matrix(bony_weyl_quantize(s)) for s in (a, b))
    return combine(operator.sub, A @ B, bony_weyl_quantize(sharp_rho(a, b, rho)))
