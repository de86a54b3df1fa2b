"""Weyl and Bony-Weyl quantization as dense matrices on Fourier coefficients.

The Weyl matrix of a symbol a(x, xi) is

    M[j, k] = ahat(j - k, (j + k)/2),

the spatial transform evaluated at the frequency midpoint.  The Bony-Weyl
(paradifferential) matrix multiplies each entry by chi_eps(|j-k| / <j+k>),
restricting the symbol's spatial frequencies below the function's.
Operator norms between Sobolev spaces are estimated by power iteration on
the bracket-weighted matrix.
"""

import hashlib

import numpy as np

from .symbols import DEFAULT_EPS_PARA, MatrixSymbol, SeparableSymbol, cutoff_chi


class SpectralOperator:
    """Dense operator on truncated Fourier coefficients.

    ``block`` is the number of scalar components (1, 2 or 4); component c
    occupies coefficient slots [c*n, (c+1)*n).
    """

    def __init__(self, grid, matrix, order=0.0, block=1):
        matrix = np.asarray(matrix, dtype=complex)
        n = grid.n * block
        if matrix.shape != (n, n):
            raise ValueError("matrix shape %r does not match block %d on %r" % (matrix.shape, block, grid))
        self.grid = grid
        self.matrix = matrix
        self.order = float(order)
        self.block = int(block)

    @classmethod
    def identity(cls, grid, block=1):
        return cls(grid, np.eye(grid.n * block), 0.0, block)

    @classmethod
    def zero(cls, grid, block=1, order=0.0):
        return cls(grid, np.zeros((grid.n * block, grid.n * block)), order, block)

    @classmethod
    def from_multiplier_diag(cls, grid, diag_values, order=0.0, block=1):
        """Diagonal operator; ``diag_values`` is per-component or shared."""
        d = np.asarray(diag_values, dtype=complex)
        if d.size == grid.n and block > 1:
            d = np.tile(d, block)
        return cls(grid, np.diag(d), order, block)

    def apply(self, vec):
        return self.matrix @ np.asarray(vec, dtype=complex)

    def __matmul__(self, other):
        if isinstance(other, SpectralOperator):
            if other.block != self.block:
                raise ValueError("block mismatch in composition")
            return SpectralOperator(
                self.grid, self.matrix @ other.matrix, self.order + other.order, self.block
            )
        return self.apply(other)

    def __add__(self, other):
        self._check(other)
        return SpectralOperator(
            self.grid, self.matrix + other.matrix, max(self.order, other.order), self.block
        )

    def __sub__(self, other):
        self._check(other)
        return SpectralOperator(
            self.grid, self.matrix - other.matrix, max(self.order, other.order), self.block
        )

    def __mul__(self, scalar):
        return SpectralOperator(self.grid, self.matrix * scalar, self.order, self.block)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralOperator(self.grid, -self.matrix, self.order, self.block)

    def _check(self, other):
        if other.block != self.block or other.grid != self.grid:
            raise ValueError("operator layout mismatch")

    def component_block(self, i, j):
        """The (i, j) scalar sub-block as an n x n array."""
        n = self.grid.n
        return self.matrix[i * n : (i + 1) * n, j * n : (j + 1) * n]


def _mode_lattice(grid):
    """(j - k, j + k) over all pairs of modes."""
    J = grid.modes
    return J[:, None] - J[None, :], J[:, None] + J[None, :]


def _chi_mask(grid, eps_para):
    D, S = _mode_lattice(grid)
    return cutoff_chi(np.abs(D) / np.sqrt(1.0 + S.astype(float) ** 2), eps_para)


def weyl_gather_index(grid):
    """(j - k) mod n: the slot of fhat(j - k) in a coefficient array."""
    return _mode_lattice(grid)[0] % grid.n


def weyl_table(grid, g, eps_para=None):
    """T[j, k] = g((j + k)/2), zero where j - k leaves [-n/2, n/2), times the
    Bony-Weyl mask chi_eps(|j-k|/<j+k>) when ``eps_para`` is given.  The Weyl
    matrix of f(x) g(xi) is the gather f.coeffs[weyl_gather_index(grid)] * T."""
    n = grid.n
    D, S = _mode_lattice(grid)
    half_lattice = np.arange(-n, n - 1) / 2.0  # all values of (j+k)/2
    gv = np.asarray(g(half_lattice), dtype=complex)[S + n]
    T = np.where((D >= -(n // 2)) & (D < n // 2), gv, 0.0)
    return T if eps_para is None else T * _chi_mask(grid, eps_para)


def _scalar_weyl_matrix(sym, mask=None):
    grid = sym.grid
    idx = weyl_gather_index(grid)
    M = np.zeros((grid.n, grid.n), dtype=complex)
    for f, g in sym.terms:
        M += f.coeffs[idx] * weyl_table(grid, g)
    return M if mask is None else M * mask


_op_cache = {}


def weyl_quantize(sym):
    """Op^W of a SeparableSymbol or MatrixSymbol as a SpectralOperator."""
    return _quantize(sym, eps_para=None)


def bony_weyl_quantize(sym, eps_para=DEFAULT_EPS_PARA):
    """Op^BW: Weyl matrix entrywise multiplied by chi_eps(|j-k|/<j+k>)."""
    return _quantize(sym, eps_para=eps_para)


def _quantize(sym, eps_para):
    key = (sym.fingerprint(), sym.grid.n, eps_para)
    hit = _op_cache.get(key)
    if hit is not None:
        return hit
    mask = None if eps_para is None else _chi_mask(sym.grid, eps_para)
    if isinstance(sym, MatrixSymbol):
        n = sym.grid.n
        dim = sym.dim
        M = np.zeros((dim * n, dim * n), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                M[i * n : (i + 1) * n, j * n : (j + 1) * n] = _scalar_weyl_matrix(
                    sym.entries[i, j], mask
                )
        op = SpectralOperator(sym.grid, M, sym.order, block=dim)
    elif isinstance(sym, SeparableSymbol):
        op = SpectralOperator(sym.grid, _scalar_weyl_matrix(sym, mask), sym.order, block=1)
    else:
        raise TypeError("cannot quantize %r" % type(sym))
    if len(_op_cache) > 256:
        _op_cache.clear()
    _op_cache[key] = op
    return op


def _component_weights(grid, s, block):
    if np.isscalar(s):
        s = [s] * block
    if len(s) != block:
        raise ValueError("need one Sobolev index per component")
    return np.concatenate([grid.bracket_power(si) for si in s])


def weighted_matrix(op, s_in, s_out, band=None):
    """diag(<j>^{s_out}) M diag(<k>^{-s_in}); its largest singular value is
    the H^{s_in} -> H^{s_out} operator norm.

    With ``band="resolved"`` the matrix is restricted to rows and columns
    with |mode| <= n // 3 (per component).  Rows near |j| = n/2 of operator
    products carry lattice-truncation artifacts -- the intermediate mode sum
    is cut at the band edge -- so residual diagnostics are measured on the
    resolved band, consistent with the 2/3 de-aliasing of the states.
    """
    w_out = _component_weights(op.grid, s_out, op.block)
    w_in = _component_weights(op.grid, s_in, op.block)
    W = op.matrix * w_out[:, None] / w_in[None, :]
    if band is None:
        return W
    if band != "resolved":
        raise ValueError("band must be None or 'resolved'")
    g = op.grid
    mask = np.tile(np.abs(g.modes) <= g.dealias_cut, op.block)
    return W[np.ix_(mask, mask)]


def estimate_operator_norm(op, s_in, s_out, tol=1e-8, max_iter=5000, seed=0, band=None):
    """H^{s_in} -> H^{s_out} norm via power iteration on W^H W."""
    W = weighted_matrix(op, s_in, s_out, band)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(W.shape[1]) + 1j * rng.standard_normal(W.shape[1])
    v /= np.linalg.norm(v)
    WH = W.conj().T
    sigma = 0.0
    for _ in range(max_iter):
        u = W @ v
        sigma_new = np.linalg.norm(u)
        if sigma_new == 0.0:
            return 0.0
        v = WH @ u
        v /= np.linalg.norm(v)
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return float(sigma_new)
        sigma = sigma_new
    raise RuntimeError(
        "operator-norm power iteration did not converge (last sigma %.6e)" % sigma
    )


def exact_operator_norm(op, s_in, s_out, band=None):
    """Dense SVD evaluation; independent cross-check for the power iteration."""
    return float(np.linalg.svd(weighted_matrix(op, s_in, s_out, band), compute_uv=False)[0])


def remainder_bw_minus_weyl(sym, eps_para=DEFAULT_EPS_PARA):
    """R = Op^W(a) - Op^BW(a); smoothing of order rho in tests."""
    w = weyl_quantize(sym)
    bw = bony_weyl_quantize(sym, eps_para)
    return SpectralOperator(w.grid, w.matrix - bw.matrix, w.order, w.block)


def composition_residual(a, b, rho, eps_para=DEFAULT_EPS_PARA):
    """Op^BW(a) Op^BW(b) - Op^BW(a #_rho b)."""
    from .symbols import sharp_rho

    oa = bony_weyl_quantize(a, eps_para)
    ob = bony_weyl_quantize(b, eps_para)
    oc = bony_weyl_quantize(sharp_rho(a, b, rho), eps_para)
    return SpectralOperator(
        oa.grid, oa.matrix @ ob.matrix - oc.matrix, a.order + b.order - rho, oa.block
    )


def save_operator(op, path, symbol_fingerprint=""):
    """Binary matrix dump plus plain-text header for offline inspection."""
    np.save(str(path) + ".npy", op.matrix)
    digest = hashlib.sha256(op.matrix.tobytes()).hexdigest()[:16]
    with open(str(path) + ".txt", "w") as fh:
        fh.write("grid_n: %d\n" % op.grid.n)
        fh.write("block: %d\n" % op.block)
        fh.write("declared_order: %g\n" % op.order)
        fh.write("matrix_sha256_16: %s\n" % digest)
        fh.write("symbol_fingerprint: %s\n" % symbol_fingerprint)
