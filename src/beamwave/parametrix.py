"""Diagonalizing parametrix and modified energy.

The paralinearized generator frakA + frakB is conjugated to the diagonal
model Lambda = diag(-iE Op^BW(lam_b xi^2), -iE Op^BW(lam_w |xi|)) by an
approximately invertible pair

    Phi = diag(D_b, D_w) (1 + antidiag(T_1, T_2)),
    Psi = (1 - antidiag(T_1, T_2)) diag(D~_b, D~_w),

in three beam-side steps: a pointwise similarity S_b removing the
off-diagonal principal term, a smoothing corrector M_{-1} removing the
off-diagonal subprincipal term, and a multiplicative gauge k removing the
first-order diagonal term.  The subprincipal matrix left by the
S_b-conjugation is computed in closed form,

    N(x) xi = i [3 S^{-1}EUa_x S - 2 S^{-1}S_x E lam - E lam_x] xi
            = i [ mu(x) E + 2 lam_x(x) (EX-part) ] xi,

which fixes m(x, xi) = i (lam_x/lam) psi(xi)/xi and the periodic gauge
k = exp(antiderivative(mu / (2 lam))).  The correctors T_1, T_2 of order
-3/2 decouple the beam-wave coupling blocks at principal order.

The modified energy is |V|^2_{V~,s} = <L_{2s} Phi V, Phi V> with
L_{2s} = diag(Op^BW(lam_b^s |xi|^{2s}), Op^BW(lam_w^{2s} |xi|^{2s})).
All residual diagnostics are measured on the resolved band (|j| <= n/3).

Every operator is held by its parity halves (``state``), each a 2 x 2
tuple of n x n (beam, wave) blocks ((bb, bw), (wb, ww)), None for a block
that is zero by structure: D, D~, T, Phi, Psi are even (+ on p, - on m),
the generator and Lambda odd (pm, mp).  The change keeps the Sobolev
weights and the resolved band, so a residual's norm is the larger of its
halves' norms.  No 2n x 2n array is formed.

A parametrix (``Parametrix``) holds only symbols of n values each: lam,
s_1, s_2 of both diagonalizers, the beam's k, k^{-1} and M_{-1}'s
coefficient m, and T's t_b, t_w.  Every n x n block is formed by the call
that applies it, and freed on its return: ``energy_operators`` forms Phi+-
and L_{2s} once for the energy report, its samples and its Garding scan;
``residual_operators`` forms Phi+-, Psi+- (D and D~ among their blocks), T
and Lambda for the conjugation residual, all but the wave blocks S_1 +- S_2
of D~_w, of which the residual forms only the rows or columns R that each
product reads, with one of S_1, S_2 whole at a time (``_wave_cut``).

A block quantized from constant x-coefficients comes back from
``bony_weyl_quantize`` as its diagonal (n,): for constant b, S_b^{+-1},
K^{+-1}, M_{-1}, D_b, D~_b, Lambda_b and L_{2s}'s beam block, the wave's
where a_w = d + g_1w is constant, and T and the generator's blocks where
their g-function is (at V = 0, for one).  A diagonal multiplies entrywise or
scales rows or columns (``_mul``, ``_apply``), stays one, by its values at
the resolved slots, at a restricted take (``_cut``), and is formed as a
matrix only beside a dense block in a sum (``quantize.combine``,
``_product``); a residual block that stays diagonal is normed by its
largest weighted entry, with no SVD.

Beam and wave couple only through T and the generator's coupling blocks.
Where F has no coupling slot (``ParalinearizedSystem.coupled``), neither is
formed, and every product skips them (``_product``).

L_{2s} is one block on z and z-bar (beam) and one on w and w-bar (wave),
so the energy is a sum of quadratic forms, one per parity half h and
component c,

    <L_{2s} Phi V, Phi V> = (1/2) sum_{h = p, m} sum_{c = b, w}
                            <L_c (Phi_h v_h)_c, (Phi_h v_h)_c>,

each on one n-wide component block (``_energy``); no stacked 4n vector
is formed.
"""

import operator
from functools import reduce

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError
from .grid import SpectralFunction, row_blocks, transform
from .quantize import as_matrix, bony_weyl_quantize, combine, exact_operator_norm
from .symbols import FrequencyMultiplier, SeparableSymbol


def _dx_values(grid, values):
    """Spectral x-derivative of a real grid-value array."""
    return transform(grid, values).deriv().values().real


def _periodic_antiderivative(grid, values):
    """Mean-zero periodic primitive; the input must have zero mean to 1e-10."""
    coeffs = transform(grid, values).coeffs
    if abs(coeffs[0]) > 1e-10:
        raise NumericalError(
            "gauge integrand has nonzero mean %.3e; no periodic primitive" % abs(coeffs[0])
        )
    out = np.zeros_like(coeffs)
    nz = grid.modes != 0
    out[nz] = coeffs[nz] / (1j * grid.modes[nz])
    return SpectralFunction(grid, out, is_real=True).values().real


def _op(f, mult=None):
    """Op^BW(f(x) mult(xi)) (mult = 1 by default): its diagonal (n,) for a constant f."""
    return bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult))


def _similarity(s1, s2):
    """The even halves (S_1 + S_2, S_1 - S_2) of Op^BW(S), S = [[s1, s2], [s2, s1]];
    S^{-1} = [[s1, -s2], [-s2, s1]] has them swapped.  Formed in the buffers of
    S_1 and S_2, a row block at a time (``row_blocks``)."""
    S1, S2 = _op(s1), _op(s2)
    if S1.ndim != S2.ndim:
        return combine(operator.add, S1, S2), combine(operator.sub, S1, S2)
    for r in row_blocks(len(S1)):
        d = S1[r] - S2[r]
        S1[r] += S2[r]
        S2[r] = d
    return S1, S2


def _apply(b, u):
    """A block applied to vectors u (..., n): u @ b.T, or u b for a diagonal."""
    return u * b if b.ndim == 1 else u @ b.T


def _cut(b, r, axis):
    """The rows (axis 0) or columns (axis 1) r of a block; a diagonal stays
    one, restricted to its values at r."""
    return b[r] if b.ndim == 1 or axis == 0 else b[:, r]


def _mul(A, B, r=None):
    """A @ B, or None when a factor is zero by structure (None); a diagonal
    factor scales the other's rows (on the left) or columns (on the right).
    A diagonal restricted to the slots r (``_cut``) reads the other factor's
    rows (on the left) or columns (on the right) r."""
    if A is None or B is None:
        return None
    if r is not None and A.shape[-1] > B.shape[0]:
        A = A[..., r]
    elif r is not None and A.shape[-1] < B.shape[0]:
        B = B[r]
    if B.ndim == 1:
        return A * B
    return A[:, None] * B if A.ndim == 1 else A @ B


def _product(X, Y, r):
    """The 2 x 2 block product XY over (beam, wave), forming only the block
    products that can be nonzero; a block with no such term is None.  Blocks
    taken at the slots r (``_cut``) are multiplied as such (``_mul``); a
    diagonal term at the rows r beside the rows r of a dense one is formed as
    those rows of its matrix."""
    def block(i, k):
        terms = [t for t in (_mul(X[i][j], Y[j][k], r) for j in (0, 1)) if t is not None]
        wide = [t.shape[1] for t in terms if t.ndim == 2 and t.shape[0] < t.shape[1]]
        terms = [(np.arange(wide[0]) == r[:, None]) * t[:, None] if wide and t.ndim == 1 else t
                 for t in terms]
        return reduce(lambda a, b: combine(operator.add, a, b), terms) if terms else None

    return tuple(tuple(block(i, k) for k in (0, 1)) for i in (0, 1))


def _minus_diagonal(X, b, w):
    """X - blockdiag(b, w) for 2 x 2 blocks X whose diagonal blocks are formed,
    as ``combine`` forms it, written over X's dense diagonal blocks: the caller
    gives X up.  A diagonal is subtracted on a dense block's diagonal, as
    x - 0.0 is x off it."""
    def minus(A, B):
        if A.ndim == 1:
            return combine(operator.sub, A, B)
        if B.ndim == 1:
            A.flat[::A.shape[1] + 1] -= B
        else:
            A -= B
        return A

    (bb, bw), (wb, ww) = X
    return ((minus(bb, b), bw), (wb, minus(ww, w)))


class _Diagonalizer:
    """The pointwise similarity S = [[s1, s2], [s2, s1]] with S^{-1}E(1 + U a)S
    = E lam, lam = sqrt(1 + 2a), of a background a(x) that keeps 1 + 2a > 0.
    ``lam``, ``s1`` and ``s2`` are held transformed; a subclass adds its own
    symbols from their grid values (``_build``)."""

    refusal = None  # the PreconditionError message, formatted with min(1 + 2a)

    def __init__(self, a, grid):
        self.grid = grid
        av = a.values().real
        ell = np.min(1.0 + 2.0 * av)
        if ell <= 0.0:
            raise PreconditionError(self.refusal % ell)
        lam = np.sqrt(1.0 + 2.0 * av)
        den = np.sqrt(2.0 * lam * (1.0 + av + lam))
        s1 = (1.0 + av + lam) / den
        s2 = -av / den
        self.lam, self.s1, self.s2 = (transform(grid, v) for v in (lam, s1, s2))
        self._build(av, lam, s1, s2)

    def _build(self, av, lam, s1, s2):
        """No symbol beyond lam, s1 and s2."""

    def pointwise_identity_defect(self):
        """max over grid points of |S^{-1}E(1+Ua)S - E lam| (exact algebra)."""
        s1, s2, lam = (u.values().real for u in (self.s1, self.s2, self.lam))
        a = (lam**2 - 1.0) / 2.0
        E = np.diag([1.0, -1.0])
        S, Si = (np.moveaxis(np.array([[s1, t], [t, s1]]), -1, 0) for t in (s2, -s2))
        A = E @ (np.eye(2) + a[:, None, None])  # one 2 x 2 matrix per grid point
        return float(np.max(np.abs(Si @ A @ S - E * lam[:, None, None])))


class BeamDiagonalizer(_Diagonalizer):
    """D_b = Op^BW(k^{-1})(1+M_{-1})Op^BW(S_b^{-1}) and its right inverse.

    The conjugation D_b (E Op^BW(A_b)) D~_b equals E Op^BW(lam_b xi^2) plus
    an order-zero residual, uniformly in the truncation.  With M_{-1} =
    [[0, O_m], [O_m, 0]], D_b's even halves are K^{-1}(1 +- O_m)(S_1 -+ S_2)
    (``halves``) and D~_b's (S_1 +- S_2)(1 -+ O_m) K (``right_inverse``).
    Only the symbols are held: k, k^{-1} and M_{-1}'s coefficient m beside
    lam, s1 and s2; each block is formed on each call.
    """

    refusal = "beam ellipticity fails: min(1 + 2a) = %.6g <= 0"

    def _build(self, av, lam, s1, s2):
        grid = self.grid
        ax = _dx_values(grid, av)
        lamx = _dx_values(grid, lam)
        s1x = _dx_values(grid, s1)
        s2x = _dx_values(grid, s2)
        # diagonal (E-type) and off-diagonal first-order coefficients of the
        # S_b-conjugated symbol: N = i(mu E + offdiag(n12, -n12))
        self.mu = 3.0 * ax * (s1 + s2) ** 2 - 2.0 * lam * (s1 * s1x - s2 * s2x) - lamx
        self.n12 = 3.0 * ax * (s1 + s2) ** 2 + 2.0 * lam * (s1 * s2x - s2 * s1x)

        phi = _periodic_antiderivative(grid, self.mu / (2.0 * lam))
        self.k, self.k_inv = (transform(grid, np.exp(v)) for v in (phi, -phi))
        self.m = transform(grid, self.n12 / (2.0 * lam))

    def M_minus1(self):
        """O_m = Op^BW(i m psi(xi)/xi), M_{-1}'s block, formed on each call."""
        return _op(1j * self.m, FrequencyMultiplier.psi_over_xi())

    def halves(self, O_m):
        """D_b's halves, formed on each call from M_{-1}'s block (``M_minus1``)."""
        S_p, S_m = _similarity(self.s1, self.s2)
        K_inv = _op(self.k_inv)
        one = np.ones(self.grid.n)
        return (_mul(_mul(K_inv, combine(operator.add, one, O_m)), S_m),
                _mul(_mul(K_inv, combine(operator.sub, one, O_m)), S_p))

    def right_inverse(self, O_m):
        """D~_b's halves, formed on each call from M_{-1}'s block: only Psi and
        the bare coupling blocks of the conjugation residual apply them."""
        (S_p, S_m), K = _similarity(self.s1, self.s2), _op(self.k)
        one = np.ones(self.grid.n)
        return (_mul(_mul(S_p, combine(operator.sub, one, O_m)), K),
                _mul(_mul(S_m, combine(operator.add, one, O_m)), K))


class WaveDiagonalizer(_Diagonalizer):
    """D_w = Op^BW(S_w^{-1}), D~_w = Op^BW(S_w) (even halves); first order
    is principal for the half-wave so no smoothing corrector or gauge is
    needed.  D_w's halves are D~_w's swapped: D_w+- = D~_w-+."""

    refusal = "wave smallness condition fails: min(1 + 2a_w) = %.6g <= 0"

    def right_inverse(self):
        """D~_w's halves (S_1 + S_2, S_1 - S_2), formed on each call."""
        return _similarity(self.s1, self.s2)


def build_T_correctors(a, g_12b, g_12w):
    """Scalar symbols t_b, t_w of order -3/2 decoupling the beam-wave
    coupling blocks, from the g-functions a, g_12b, g_12w.

    The decoupling conditions L_b T_1 - T_1 L_w = C_b and
    L_w T_2 - T_2 L_b = C_w are solved at principal order by

        T_1 =  U t_b,      t_b = psi <xi>^{-3/2} g_12b / (1 + 2a),
        T_2 = -E U E t_w,  t_w = psi <xi>^{-3/2} g_12w / (1 + 2a),

    so Op^BW(T_1) has the even halves (2 Op^BW(t_b), 0) and Op^BW(T_2) has
    (0, -2 Op^BW(t_w)).
    """
    grid = a.grid
    av = a.values().real
    mult = FrequencyMultiplier.psi() * FrequencyMultiplier.bracket(-1.5)
    return tuple(
        SeparableSymbol(grid, [(transform(grid, g.values().real / (1.0 + 2.0 * av)), mult)])
        for g in (g_12b, g_12w)
    )


class Parametrix:
    """Phi and L_{2s} at a frozen background V, held by their symbols.

    Building one checks the ellipticity of both diagonalizers and keeps
    their symbols and T's, t_b and t_w, None where F has no coupling slot
    (``coupled``): t_b (t_w) is then zero by structure, and neither it nor
    the coupling block of the halves it enters is formed.  No block is held:
    T's (``T``), L_{2s}'s (``L2s``) and Phi's halves are formed by the call
    that applies them, ``energy_operators`` or ``residual_operators``.
    """

    def __init__(self, para, V, s):
        grid = para.grid
        self.grid = grid
        self.s = float(s)

        a, d, g_1w, g_12b, g_12w = para.g_functions(V)
        self.beam = BeamDiagonalizer(a, grid)
        self.wave = WaveDiagonalizer(d + g_1w, grid)
        self.t = tuple(t if live else None
                       for t, live in zip(build_T_correctors(a, g_12b, g_12w), para.coupled()))

    def T(self):
        """T's blocks (2 Op^BW(t_b), -2 Op^BW(t_w)), None for a zero one."""
        return tuple(None if t is None else c * bony_weyl_quantize(t)
                     for t, c in zip(self.t, (2.0, -2.0)))

    def L2s(self):
        """L_{2s}'s beam and wave blocks."""
        s2 = 2.0 * self.s
        mult = FrequencyMultiplier.abs_xi_power(s2)
        lam_b, lam_w = self.beam.lam.values().real, self.wave.lam.values().real
        return (_op(transform(self.grid, lam_b ** self.s), mult),
                _op(transform(self.grid, lam_w ** s2), mult))


def build_parametrix(para, V, s):
    return Parametrix(para, V, s)


def energy_operators(P):
    """(Phi+-, L_{2s}) of a parametrix, formed anew on each call: only the
    energy report applies them, so P holds none.  Phi's halves are
    blockdiag(D_b+-, D_w+-), D_w+- = D~_w-+, plus one coupling block each,
    D_b+ T_bw and D_w- T_wb (T+ = [[0, T_bw], [0, 0]], T- = [[0, 0], [T_wb, 0]])."""
    (Db_p, Db_m), (Dw_m, Dw_p) = P.beam.halves(P.beam.M_minus1()), P.wave.right_inverse()
    T_bw, T_wb = P.T()
    Phi = (((Db_p, _mul(Db_p, T_bw)), (None, Dw_p)),
           ((Db_m, None), (_mul(Dw_m, T_wb), Dw_m)))
    return Phi, P.L2s()


def residual_operators(P):
    """(Phi+-, Psi+-, (Lambda_b, Lambda_w)) of a parametrix for the
    conjugation residual, formed anew on each call with M_{-1} and T once
    for all, Psi = (1 - T)D~ in the block layout of Phi, but with each wave
    block, S_1 +- S_2 of D~_w, left None: the residual forms only the rows or
    columns of those it reads (``_wave_cut``).  D~_w+ is formed whole only for
    the coupling blocks D_w- T_wb and -T_bw D~_w+ where T has a block, and
    freed on return.  Only the conjugation residual applies them, so P holds
    none."""
    beam, T = P.beam, P.T()
    O_m = beam.M_minus1()
    (Db_p, Db_m), Dt_b = beam.halves(O_m), beam.right_inverse(O_m)
    A = P.wave.right_inverse()[0] if any(t is not None for t in T) else None  # D~_w+ = D_w-
    T_bw, T_wb = T
    Phi = (((Db_p, _mul(Db_p, T_bw)), (None, None)),
           ((Db_m, None), (_mul(A, T_wb), None)))
    T_bw, T_wb = (None if t is None else -t for t in T)
    Psi = (((Dt_b[0], _mul(T_bw, A)), (None, None)),
           ((Dt_b[1], None), (_mul(T_wb, Dt_b[1]), None)))
    Lam = (_op(beam.lam, FrequencyMultiplier.xi_power(2)),
           _op(P.wave.lam, FrequencyMultiplier.abs_xi()))
    return Phi, Psi, Lam


def _wave_cut(wave, op, r, axis):
    """The rows (axis 0) or columns (axis 1) r of D~_w's half op(S_1, S_2), op
    ``np.add`` (D~_w+ = D_w-) or ``np.subtract`` (D~_w- = D_w+), bit for
    bit those of ``_similarity``'s halves, but with one of S_1, S_2 formed
    whole at a time: S_1's rows or columns r are held, and S_2's are added to
    or subtracted from them a row block at a time.  A diagonal stays one,
    restricted to r, unless the other is dense (``combine``)."""
    S = _op(wave.s1)
    cut = S if S.ndim == 1 else _cut(S, r, axis)
    del S
    S = _op(wave.s2)
    if cut.ndim == S.ndim == 1:
        return op(cut, S)[r]
    if cut.ndim == 1:
        cut = _cut(as_matrix(cut), r, axis)
    if S.ndim == 1:
        return op(cut, _cut(as_matrix(S), r, axis))
    for b in row_blocks(len(S)):
        op(cut[b], S[r[b]] if axis == 0 else S[b][:, r], out=cut[b])
    return cut


def conjugation_residual(P, para, V):
    """Measured norms of the conjugation and inverse identities.

    All operator norms are resolved-band H^s -> H^s (or H^s -> H^{s+2})
    norms; ``offdiag_without_T`` is the negative control obtained by
    dropping the T correctors.  Each residual is formed on its halves: the
    odd X L Y - Lambda as X+ L_pm Y- - Lambda_pm and X- L_mp Y+ - Lambda_mp,
    Lambda_pm = Lambda_mp = -i blockdiag(Lambda_b, Lambda_w).  Only the
    resolved rows and columns R of each product are formed: X[R, :] L Y[:, R].
    Every product, L_pm = -i diag(j^2, |j|) by its two diagonal blocks
    included, is taken over the 2 x 2 (beam, wave) blocks (``_product``),
    forming no block product through a coupling block that is zero by
    structure: T's and L_mp's where F has no coupling slot
    (``ParalinearizedSystem.coupled``), L_pm's always.
    Without coupling every residual half is block-diagonal, and its norm the
    larger of its two diagonal blocks' (``exact_operator_norm``).  Phi, Psi,
    D, D~ and Lambda[R, R] are formed once for the call (``residual_operators``),
    all but their wave blocks, of which only the rows or columns R are formed,
    each as a product reads it (``_wave_cut``).
    """
    grid = P.grid
    s = P.s
    r = np.flatnonzero(grid.dealias_mask)  # R in one component
    Phi, Psi, lam = residual_operators(P)
    lam = [-1j * (b[r] if b.ndim == 1 else b[np.ix_(r, r)]) for b in lam]
    D_m = ((Phi[1][0][0], None), (None, None))  # blockdiag(D_b-, D_w-), as Phi- its wave block
    Dt_p = ((Psi[0][0][0], None), (None, None))  # blockdiag(D~_b+, D~_w+)
    B_mp = para.frak_B(V)[1]  # frakB's pm half is zero
    (_, bw), (wb, _) = B_mp
    one = np.ones(r.size)

    def norm(blocks, s_out=s):
        return max((exact_operator_norm(grid, b, s, s_out) for b in blocks), default=0.0)

    def offdiag(halves):
        return (b for (_, bw), (wb, _) in halves for b in (bw, wb) if b is not None)

    def wave(op, axis):  # the rows or columns R of D~_w+ (add) or D~_w- (subtract)
        return _wave_cut(P.wave, op, r, axis)

    def take(X, cut, axis=0):  # the rows or columns R of a half, its wave block ``cut``
        (bb, bw), (wb, _) = X
        bb, bw, wb = (None if b is None else _cut(b, r, axis) for b in (bb, bw, wb))
        return (bb, bw), (wb, cut)

    # Each wave block is formed as the rows or columns R that one product
    # reads, when it reads them, and freed once read for the last time; each
    # residual half is normed and freed before the next cut is formed.  So at
    # most two cuts are held at once, and frakA(V)'s wave block beside only
    # one.  D~_w+ = D_w- enters X- L_mp Y+ and the bare coupling blocks
    # D_b- L_bw D~_w+, D_w- L_wb D~_b+ of the mp half of D L D~ - Lambda (those
    # of the pm half are zero), D~_w- = D_w+ enters X+ L_pm Y-, and both enter
    # Psi+- Phi+- - 1
    A_r = wave(np.add, 0)
    pm, ((bb, _), (_, ww)) = para.frak_A(V)  # frakA's pm half is -i diag(j^2, |j|)
    XL = _product(take(Phi[1], A_r), ((bb, bw), (wb, ww)), r)
    DB = _product(take(D_m, A_r), B_mp, r)
    del bb, ww, A_r
    A_c = wave(np.add, 1)
    bare = _product(DB, take(Dt_p, A_c, 1), r)
    X = _minus_diagonal(_product(XL, take(Psi[0], A_c, 1), r), *lam)
    del XL, DB
    conj = [(norm([X]), norm(offdiag([X])))]
    del X
    B_r = wave(np.subtract, 0)
    X = _minus_diagonal(_product(take(Psi[1], B_r), take(Phi[1], A_c, 1), r), one, one)
    del A_c
    inv = norm([X], s + 2.0)
    del X
    pm_b, pm_w = np.split(pm, 2)
    XL = _product(take(Phi[0], B_r), ((pm_b, None), (None, pm_w)), r)
    del B_r
    B_c = wave(np.subtract, 1)
    X = _minus_diagonal(_product(XL, take(Psi[1], B_c, 1), r), *lam)
    del XL, lam
    conj.append((norm([X]), norm(offdiag([X]))))
    del X
    A_r = wave(np.add, 0)
    X = _minus_diagonal(_product(take(Psi[0], A_r), take(Phi[0], B_c, 1), r), one, one)
    del A_r, B_c
    inv = max(inv, norm([X], s + 2.0))

    # a block-antidiagonal matrix's top singular value is its larger block's
    return {
        "s": s,
        "n": grid.n,
        "conjugation_norm": max(c for c, _ in conj),
        "inverse_defect_norm": inv,
        "offdiag_norm": max(o for _, o in conj),
        "offdiag_without_T": norm(offdiag([bare])),
        "beam_pointwise_defect": P.beam.pointwise_identity_defect(),
        "wave_pointwise_defect": P.wave.pointwise_identity_defect(),
    }


def _energy(L2s, images):
    """(1/2) sum of Re <L_c y, y> over Phi-images y (..., n) of parity halves,
    each listed by its row components c = (beam, wave), None where zero."""
    return 0.5 * sum(np.sum(_apply(L, y) * y.conj(), axis=-1).real
                     for image in images for L, y in zip(L2s, image) if y is not None)


def _mode_energies(grid, Phi, L2s):
    """<L_{2s} Phi V, Phi V> of the single-mode beam states (z = e_k), then of
    the wave states (w = e_k), 0 < k <= n/3.  Such a state is p = (e_k +
    e_-k)/sqrt2, m = (e_k - e_-k)/sqrt2 on its component, so its Phi-image
    is two columns of each block of each half."""
    k = np.arange(1, grid.dealias_cut + 1)
    refl, rt2 = grid.reflect[k], np.sqrt(2.0)

    def image(b, op):  # (|k|, n) of a block X: op(X[:, k], X[:, -k]) / sqrt2
        if b.ndim == 2:
            y = b[:, k]
            op(y, b[:, refl], out=y)
        else:  # a diagonal's columns: op(b_k, 0) at k, op(0, b_-k) at -k
            y, i = np.zeros((b.size, k.size), b.dtype), np.arange(k.size)
            y[k, i], y[refl, i] = op(b[k], 0.0), op(0.0, b[refl])
        y /= rt2
        return y.T

    def images(c):  # per row component of each half
        return ([None if row[c] is None else image(row[c], op) for row in X]
                for X, op in zip(Phi, (np.add, np.subtract)))

    return np.concatenate([_energy(L2s, images(c)) for c in (0, 1)])


def modified_energy(Phi, L2s, halves):
    """|V|^2_{V~,s} = <L_{2s} Phi V, Phi V> of stacked vectors V by their parity
    halves v_p = (z + zbar)/sqrt2, v_m = (z - zbar)/sqrt2 over (beam, wave),
    each (..., 2n), from the component blocks of Phi+ v_p and Phi- v_m."""
    images = ([sum(_apply(b, u) for b, u in zip(row, np.split(v, 2, axis=-1)) if b is not None)
               for row in X] for X, v in zip(Phi, halves))
    return _energy(L2s, images)


def equivalence_and_garding_report(para, V, sigma, sample_count, seed=0):
    """Empirical constants in the norm equivalence and the Garding bound.

    Equivalence:  C^{-1}(||V||_s^2 - ||V||_{-2}^2) <= |V|^2 <= C ||V||_s^2.
    Garding:      <L_{2s} Phi Delta V, Phi V> >= c0 (||Z||_{s+2}^2 + ||W||_{s+1}^2)
                  - C ||V||_s^2, with Delta = diag(dx^4, -dx^2) and c0 = 1/4.

    The main-term fraction c0 < 1 is forced by the quantization: L_{2s} weights
    with |xi|^{2s} while the Sobolev norms use <xi>^s, and the per-mode gap
    (<j>^{2s+4} - j^{2s+4}) / <j>^{2s} grows like j^2, so a unit-coefficient
    defect could not be bounded.  With any fraction below lam_min^s the defect
    is bounded and truncation-stable; 1/4 is used throughout.
    """
    if sample_count < 1:
        raise ConfigError("sample_count must be at least 1, got %r" % (sample_count,))
    grid = para.grid
    n = grid.n
    if grid.dealias_cut < 1:
        # the samples keep only modes 0 < |k| < n/2 and the scan 0 < k <= n/3
        raise PreconditionError("a grid of %d points has no mode 0 < k <= n/3 for the "
                                "equivalence and Garding samples" % n)
    P = build_parametrix(para, V, sigma)
    # smooth random conjugate pairs with zero mean modes, drawn state by state
    # as Re z, Im z, Re w, Im w
    rng = np.random.default_rng(seed)
    z_re, z_im, w_re, w_im = np.moveaxis(rng.standard_normal((sample_count, 4, n)), 1, 0)
    decay = grid.bracket_power(-(sigma + 1.0))
    z, w = (z_re + 1j * z_im) * decay, (w_re + 1j * w_im) * decay
    z[:, [0, n // 2]] = w[:, [0, n // 2]] = 0.0  # the mean and (n even) Nyquist modes
    del z_re, z_im, w_re, w_im  # the draws, before the energy's images
    # ||V||_s^2 = ||z||_s^2 + ||w||_s^2, and V's parity halves over (beam, wave),
    # p = (z + zbar)/sqrt2 and m = (z - zbar)/sqrt2 with zbar(j) = conj(z(-j)),
    # written straight into one array
    power = z.real**2 + z.imag**2 + w.real**2 + w.imag**2
    nsq = power @ grid.bracket_power(sigma) ** 2
    low = np.maximum(nsq - power @ grid.bracket_power(-2.0) ** 2, 1e-300)
    halves = np.empty((2, sample_count, 2 * n), dtype=complex)
    for v, (p, m) in zip((z, w), np.split(halves, 2, axis=-1)):
        v_bar = np.conj(v[:, grid.reflect])
        np.add(v, v_bar, out=p)
        np.subtract(v, v_bar, out=m)
    halves /= np.sqrt(2.0)
    del z, w, v, v_bar
    Phi, L2s = energy_operators(P)  # for the samples and the scan
    energy = modified_energy(Phi, L2s, halves)
    upper = energy / nsq
    lower = energy / low
    # the binding Garding constant lives at low modes; scan the single-mode
    # beam and wave states (z or w = e_k, 0 < k <= n/3) deterministically:
    # Phi(Delta V) = d_k Phi V with d_k = k^4 on the beam and k^2 on the wave
    k = np.arange(1, grid.dealias_cut + 1)
    lhs = np.concatenate([k**4.0, k**2.0]) * _mode_energies(grid, Phi, L2s)
    # the Sobolev norms of e_k: ||Z||_{s+2}^2 of a beam state, ||W||_{s+1}^2
    # of a wave state, ||V||_s^2 of both
    def sq(s_):
        return grid.bracket_power(s_)[k] ** 2

    main = np.concatenate([sq(sigma + 2.0), sq(sigma + 1.0)])
    defects = (lhs - 0.25 * main) / np.tile(sq(sigma), 2)
    return {
        "sigma": sigma,
        "n": n,
        "samples": int(sample_count),
        "ratio_min": float(np.min(upper)),
        "ratio_max": float(np.max(upper)),
        "lower_ratio_min": float(np.min(lower)),
        "lower_ratio_max": float(np.max(lower)),
        "garding_defect_min": float(np.min(defects)),
        "garding_defect_max": float(np.max(defects)),
        "equivalence_constant": float(max(np.max(upper), 1.0 / max(np.min(lower), 1e-300))),
    }
