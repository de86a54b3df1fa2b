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
that applies it, and freed on its return: the energy report forms L_{2s}
once, and one half of Phi at a time (``energy_operators``) for its samples
and its Garding scan; ``residual_operators`` forms Phi+-, Psi+- (D and D~
among their blocks), T and Lambda[R, R] for the conjugation residual, all but
the wave blocks S_1 +- S_2 of D~_w, of which each half of the residual forms
the rows or columns R it reads alone (``bony_weyl_quantize``), one
quantization each, and frees them before the next half.

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

each on one n-wide component block (``_energy``), summed in that order
(p-beam, p-wave, m-beam, m-wave) as each half is formed; no stacked 4n
vector is formed.
"""

import operator
from functools import reduce

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError
from .grid import SpectralFunction, transform
from .quantize import bony_weyl_quantize, combine, exact_operator_norm
from .symbols import FrequencyMultiplier, SeparableSymbol

_SIGNS = (operator.add, operator.sub)  # the sign of each even half, + then -


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


def _op(f, mult=None, rows=None, cols=None):
    """Op^BW(f(x) mult(xi)) (mult = 1 by default), or a cut: a diagonal for a constant f."""
    return bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult), rows, cols)


def _similarity(s1, s2, op, rows=None, cols=None):
    """S_1 + S_2 (op ``operator.add``) or S_1 - S_2 (``operator.sub``), an even
    half of Op^BW(S), S = [[s1, s2], [s2, s1]]; S^{-1} = [[s1, -s2], [-s2, s1]]
    has them swapped.  One quantization (or cut), Op^BW(s1 op s2), as Op^BW is
    linear in its symbol: bit for bit Op^BW(s1) op Op^BW(s2) where s1 and s2
    are constant, to round-off otherwise."""
    return _op(op(s1, s2), None, rows, cols)


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
    (``half``) and D~_b's (S_1 +- S_2)(1 -+ O_m) K (``right_inverse``).
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

    def half(self, O_m, h):
        """D_b's half h (0: +, 1: -), formed on each call from M_{-1}'s block
        (``M_minus1``), one similarity half with it (``_similarity``)."""
        plus, minus = _SIGNS[h], _SIGNS[1 - h]
        return _mul(_mul(_op(self.k_inv), combine(plus, np.ones(self.grid.n), O_m)),
                    _similarity(self.s1, self.s2, minus))

    def right_inverse(self, O_m):
        """D~_b's halves, formed on each call from M_{-1}'s block: only Psi and
        the bare coupling blocks of the conjugation residual apply them."""
        K, one = _op(self.k), np.ones(self.grid.n)
        return tuple(_mul(_mul(_similarity(self.s1, self.s2, plus), combine(minus, one, O_m)), K)
                     for plus, minus in (_SIGNS, _SIGNS[::-1]))


class WaveDiagonalizer(_Diagonalizer):
    """D_w = Op^BW(S_w^{-1}), D~_w = Op^BW(S_w) (even halves); first order
    is principal for the half-wave so no smoothing corrector or gauge is
    needed.  D_w's halves are D~_w's swapped: D_w+- = D~_w-+."""

    refusal = "wave smallness condition fails: min(1 + 2a_w) = %.6g <= 0"

    def right_inverse(self, op):
        """D~_w's half S_1 op S_2 (``_similarity``), formed on each call: D~_w+ =
        D_w- (op ``operator.add``) or D~_w- = D_w+ (``operator.sub``)."""
        return _similarity(self.s1, self.s2, op)


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

    def T(self, h):
        """T's block in its half h: T_bw = 2 Op^BW(t_b) of T+ (h = 0) or T_wb =
        -2 Op^BW(t_w) of T- (h = 1), None for a zero one."""
        return None if self.t[h] is None else (2.0, -2.0)[h] * bony_weyl_quantize(self.t[h])

    def L2s(self):
        """L_{2s}'s beam and wave blocks."""
        s2 = 2.0 * self.s
        mult = FrequencyMultiplier.abs_xi_power(s2)
        lam_b, lam_w = self.beam.lam.values().real, self.wave.lam.values().real
        return (_op(transform(self.grid, lam_b ** self.s), mult),
                _op(transform(self.grid, lam_w ** s2), mult))


def build_parametrix(para, V, s):
    return Parametrix(para, V, s)


def energy_operators(P, h):
    """Phi's half h (0: Phi+, 1: Phi-), formed anew on each call, one at a time
    by the energy report: blockdiag(D_b,h, D_w,h), D_w+- = D~_w-+, plus one
    coupling block, D_b+ T_bw in Phi+ or D_w- T_wb in Phi- (T+ = [[0, T_bw],
    [0, 0]], T- = [[0, 0], [T_wb, 0]])."""
    D_b, D_w, T = P.beam.half(P.beam.M_minus1(), h), P.wave.right_inverse(_SIGNS[1 - h]), P.T(h)
    return ((D_b, _mul(D_b, T)), (None, D_w)) if h == 0 else ((D_b, None), (_mul(D_w, T), D_w))


def residual_operators(P):
    """(Phi+-, Psi+-, (Lambda_b, Lambda_w)) of a parametrix for the
    conjugation residual, formed anew on each call with M_{-1} and T once
    for all, Psi = (1 - T)D~ in the block layout of Phi, Lambda on the resolved
    band R x R, and each wave block, S_1 +- S_2 of D~_w, as the sign of its
    similarity half (add: D~_w+ = D_w-, sub: D~_w- = D_w+), whose rows or
    columns the residual forms.  D~_w+ is formed whole only for the coupling
    blocks D_w- T_wb and -T_bw D~_w+ where T has a block, and freed on
    return.  Only the conjugation residual applies them, so P holds none."""
    beam, T = P.beam, (P.T(0), P.T(1))
    O_m = beam.M_minus1()
    (Db_p, Db_m), Dt_b = (beam.half(O_m, h) for h in (0, 1)), beam.right_inverse(O_m)
    A = P.wave.right_inverse(operator.add) if any(t is not None for t in T) else None  # D_w-
    T_bw, T_wb = T
    Phi = (((Db_p, _mul(Db_p, T_bw)), (None, operator.sub)),
           ((Db_m, None), (_mul(A, T_wb), operator.add)))
    T_bw, T_wb = (None if t is None else -t for t in T)
    Psi = (((Dt_b[0], _mul(T_bw, A)), (None, operator.add)),
           ((Dt_b[1], None), (_mul(T_wb, Dt_b[1]), operator.sub)))
    r = np.flatnonzero(P.grid.dealias_mask)
    Lam = (_op(beam.lam, FrequencyMultiplier.xi_power(2), r, r),
           _op(P.wave.lam, FrequencyMultiplier.abs_xi(), r, r))
    return Phi, Psi, Lam


def conjugation_residual(P, para, V):
    """Measured norms of the conjugation and inverse identities.

    All operator norms are resolved-band H^s -> H^s (or H^s -> H^{s+2})
    norms; ``offdiag_without_T`` is the negative control obtained by
    dropping the T correctors.  Each residual is formed on its halves, in
    this order: the odd X L Y - Lambda as X- L_mp Y+ - Lambda_mp and X+ L_pm
    Y- - Lambda_pm, Lambda_pm = Lambda_mp = -i blockdiag(Lambda_b, Lambda_w),
    and the even Psi Phi - 1 as Psi+ Phi+ - 1 and Psi- Phi- - 1.  Only the
    resolved rows and columns R of each product are formed: X[R, :] L Y[:, R].
    Every product, L_pm = -i diag(j^2, |j|) by its two diagonal blocks
    included, is taken over the 2 x 2 (beam, wave) blocks (``_product``),
    forming no block product through a coupling block that is zero by
    structure: T's and L_mp's where F has no coupling slot
    (``ParalinearizedSystem.coupled``), L_pm's always.
    Without coupling every residual half is block-diagonal, and its norm the
    larger of its two diagonal blocks' (``exact_operator_norm``).  Phi, Psi,
    D, D~ and Lambda[R, R] are formed once for the call (``residual_operators``),
    all but their wave blocks S_1 +- S_2, of which each half forms the rows or
    columns R it reads (``take``) and frees them before the next; frakA(V)'s
    blocks are freed once X- L_mp is formed.  The bare coupling blocks of D L D~
    - Lambda's mp half (the pm half's are zero), D_b- L_bw D~_w+ and D_w- L_wb
    D~_b+, read its cuts: D- is Phi-'s diagonal blocks, D~+ Psi+'s.
    """
    grid, s = P.grid, P.s
    r = np.flatnonzero(grid.dealias_mask)  # R in one component
    Phi, Psi, lam = residual_operators(P)
    lam = [-1j * b for b in lam]
    B_mp = para.frak_B(V)[1]  # frakB's pm half is zero
    (_, bw), (wb, _) = B_mp
    one = np.ones(r.size)

    def norm(blocks, s_out=s):
        return max((exact_operator_norm(grid, b, s, s_out) for b in blocks), default=0.0)

    def offdiag(halves):
        return (b for (_, bw), (wb, _) in halves for b in (bw, wb) if b is not None)

    def blockdiag(X):
        return (X[0][0], None), (None, X[1][1])

    def take(X, axis=0):  # the rows (axis 0) or columns R of a half, its wave block formed as such
        (bb, bw), (wb, op) = X
        bb, bw, wb = (None if b is None else _cut(b, r, axis) for b in (bb, bw, wb))
        return (bb, bw), (wb, _similarity(P.wave.s1, P.wave.s2, op, *((r, None), (None, r))[axis]))

    pm, ((bb, _), (_, ww)) = para.frak_A(V)  # frakA's pm half is -i diag(j^2, |j|)
    X = take(Phi[1])
    XL, DB = _product(X, ((bb, bw), (wb, ww)), r), _product(blockdiag(X), B_mp, r)
    del X, bb, ww
    Y = take(Psi[0], 1)
    X, bare = _minus_diagonal(_product(XL, Y, r), *lam), _product(DB, blockdiag(Y), r)
    del XL, DB, Y
    conj = [(norm([X]), norm(offdiag([X])))]
    del X
    pm_b, pm_w = np.split(pm, 2)
    XL = _product(take(Phi[0]), ((pm_b, None), (None, pm_w)), r)
    X = _minus_diagonal(_product(XL, take(Psi[1], 1), r), *lam)
    del XL, lam
    conj.append((norm([X]), norm(offdiag([X]))))
    del X
    inv = max(norm([_minus_diagonal(_product(take(X), take(Y, 1), r), one, one)], s + 2.0)
              for X, Y in zip(Psi, Phi))

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


def _energy(L2s, image, total):
    """total plus the sum of Re <L_c y, y> over the row components c = (beam,
    wave) of a Phi_h-image y (..., n), None where zero: the share of Phi's half
    h in <L_{2s} Phi V, Phi V>, half the sum of the shares p-beam, p-wave,
    m-beam, m-wave, added in that order."""
    return sum((np.sum(_apply(L, y) * y.conj(), axis=-1).real
                for L, y in zip(L2s, image) if y is not None), total)


def _mode_energies(grid, X, h, L2s, totals):
    """totals plus the shares (``_energy``) of Phi's half X = Phi_h, h = 0 (+)
    or 1 (-), of the beam states z = e_k and of the wave states w = e_k, 0 < k
    <= n/3, a pair of (|k|,) sums.  Such a state's half is (e_k +- e_-k)/sqrt2
    on its component, so its image is two columns of each block of X."""
    k = np.arange(1, grid.dealias_cut + 1)
    refl, rt2, op = grid.reflect[k], np.sqrt(2.0), (np.add, np.subtract)[h]

    def image(b):  # (|k|, n) of a block B: op(B[:, k], B[:, -k]) / sqrt2
        if b.ndim == 2:
            y = b[:, k]
            op(y, b[:, refl], out=y)
        else:  # a diagonal's columns: op(b_k, 0) at k, op(0, b_-k) at -k
            y, i = np.zeros((b.size, k.size), b.dtype), np.arange(k.size)
            y[k, i], y[refl, i] = op(b[k], 0.0), op(0.0, b[refl])
        y /= rt2
        return y.T

    # one state component at a time: its images are freed before the other's
    return [_energy(L2s, [None if row[c] is None else image(row[c]) for row in X], total)
            for c, total in zip((0, 1), totals)]


def modified_energy(X, L2s, v, total):
    """total plus the share (``_energy``) of Phi's half X = Phi_h in |V|^2_{V~,s}
    = <L_{2s} Phi V, Phi V> of stacked vectors V, from their half v_h (..., 2n)
    over (beam, wave), v_p = (z + zbar)/sqrt2 or v_m = (z - zbar)/sqrt2."""
    image = [sum(_apply(b, u) for b, u in zip(row, np.split(v, 2, axis=-1)) if b is not None)
             for row in X]
    return _energy(L2s, image, total)


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
    # the binding Garding constant lives at low modes; scan the single-mode
    # beam and wave states (z or w = e_k, 0 < k <= n/3) deterministically:
    # Phi(Delta V) = d_k Phi V with d_k = k^4 on the beam and k^2 on the wave.
    # Phi's halves are formed one at a time, each freed before the other is
    L2s = P.L2s()
    energy, scan = 0, (0, 0)
    for h, v in enumerate(halves):
        X = energy_operators(P, h)
        energy, scan = modified_energy(X, L2s, v, energy), _mode_energies(grid, X, h, L2s, scan)
        del X
    energy = 0.5 * energy
    upper = energy / nsq
    lower = energy / low
    k = np.arange(1, grid.dealias_cut + 1)
    lhs = np.concatenate([k**4.0, k**2.0]) * (0.5 * np.concatenate(scan))
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
