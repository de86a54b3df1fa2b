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
``Parametrix`` holds these operators in their beam and wave blocks; only
``conjugation_residual`` forms the dense 4n x 4n products, for its SVDs.
"""

import numpy as np

from .errors import NumericalError, PreconditionError
from .grid import SpectralFunction, transform
from .quantize import bony_weyl_quantize, exact_operator_norm, pair
from .state import conjugate_pair, stacked_inner, stacked_norm
from .symbols import FrequencyMultiplier, SeparableSymbol, cutoff_psi


def _dx_values(grid, values):
    """Spectral x-derivative of a real grid-value array."""
    return transform(grid, values).deriv().values().real


def _periodic_antiderivative(grid, values, tol=1e-10):
    """Mean-zero periodic primitive; the input must have (near-)zero mean."""
    coeffs = transform(grid, values).coeffs
    if abs(coeffs[0]) > tol:
        raise NumericalError(
            "gauge integrand has nonzero mean %.3e; no periodic primitive" % abs(coeffs[0])
        )
    out = np.zeros_like(coeffs)
    nz = grid.modes != 0
    out[nz] = coeffs[nz] / (1j * grid.modes[nz])
    return SpectralFunction(grid, out, is_real=True).values().real


def _op(f, mult=None):
    """Op^BW(f(x) mult(xi)) (mult = 1 by default)."""
    return bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult))


def _similarity(grid, s1, s2):
    """Op^BW(S) and Op^BW(S^{-1}) for S = [[s1, s2], [s2, s1]],
    S^{-1} = [[s1, -s2], [-s2, s1]], from grid values of s1, s2."""
    S1, S2 = _op(transform(grid, s1)), _op(transform(grid, s2))
    return pair(S1, S2), pair(S1, -S2)


def _pointwise_identity_defect(s1, s2, lam):
    """max over grid points of |S^{-1}E(1+Ua)S - E lam| (exact algebra)."""
    s1, s2, lam = (u.values().real for u in (s1, s2, lam))
    a = (lam**2 - 1.0) / 2.0
    E = np.diag([1.0, -1.0])
    worst = 0.0
    for p in range(lam.size):
        S = np.array([[s1[p], s2[p]], [s2[p], s1[p]]])
        Si = np.array([[s1[p], -s2[p]], [-s2[p], s1[p]]])
        A = E @ (np.eye(2) + a[p] * np.ones((2, 2)))
        worst = max(worst, np.max(np.abs(Si @ A @ S - E * lam[p])))
    return worst


def _eigenvector_entries(a_values):
    """(lam, s1, s2) grid values diagonalizing E(1 + U a) -> E lam."""
    lam = np.sqrt(1.0 + 2.0 * a_values)
    den = np.sqrt(2.0 * lam * (1.0 + a_values + lam))
    s1 = (1.0 + a_values + lam) / den
    s2 = -a_values / den
    return lam, s1, s2


class BeamDiagonalizer:
    """D_b = Op^BW(k^{-1})(1+M_{-1})Op^BW(S_b^{-1}) and its right inverse.

    The conjugation D_b (E Op^BW(A_b)) D~_b equals E Op^BW(lam_b xi^2) plus
    an order-zero residual, uniformly in the truncation.
    """

    def __init__(self, a, grid):
        self.grid = grid
        av = a.values().real if isinstance(a, SpectralFunction) else np.asarray(a, dtype=float)
        ell = np.min(1.0 + 2.0 * av)
        if ell <= 0.0:
            raise PreconditionError(
                "beam ellipticity fails: min(1 + 2a) = %.6g <= 0" % ell
            )
        lam, s1, s2 = _eigenvector_entries(av)
        self.lam_b = transform(grid, lam)
        self.s1_b = transform(grid, s1)
        self.s2_b = transform(grid, s2)

        ax = _dx_values(grid, av)
        lamx = _dx_values(grid, lam)
        s1x = _dx_values(grid, s1)
        s2x = _dx_values(grid, s2)
        # diagonal (E-type) and off-diagonal first-order coefficients of the
        # S_b-conjugated symbol: N = i(mu E + offdiag(n12, -n12))
        self.mu = 3.0 * ax * (s1 + s2) ** 2 - 2.0 * lam * (s1 * s1x - s2 * s2x) - lamx
        self.n12 = 3.0 * ax * (s1 + s2) ** 2 + 2.0 * lam * (s1 * s2x - s2 * s1x)

        phi = _periodic_antiderivative(grid, self.mu / (2.0 * lam))
        self.k = transform(grid, np.exp(phi))

        m_coef = transform(grid, self.n12 / (2.0 * lam))
        self.M_minus1 = pair(0.0, _op(1j * m_coef, FrequencyMultiplier.psi_over_xi()))

        S_op, Si_op = _similarity(grid, s1, s2)
        k_op = pair(_op(transform(grid, np.exp(phi))), 0.0)
        kinv_op = pair(_op(transform(grid, np.exp(-phi))), 0.0)
        eye = np.eye(2 * grid.n)
        self.D_b = kinv_op @ (eye + self.M_minus1) @ Si_op
        self.D_tilde_b = S_op @ (eye - self.M_minus1) @ k_op

    def subprincipal_offdiagonal(self, xi):
        """Assembled off-diagonal subprincipal symbol after the M_{-1} step:
        i n12 xi (1 - psi(xi)); vanishes identically for |xi| >= 1/2."""
        xi = np.asarray(xi, dtype=float)
        return 1j * self.n12[:, None] * xi[None, :] * (1.0 - cutoff_psi(xi))[None, :]

    def pointwise_identity_defect(self):
        return _pointwise_identity_defect(self.s1_b, self.s2_b, self.lam_b)


class WaveDiagonalizer:
    """D_w = Op^BW(S_w^{-1}), D~_w = Op^BW(S_w); first order is principal
    for the half-wave so no smoothing corrector or gauge is needed."""

    def __init__(self, a_w, grid):
        self.grid = grid
        av = a_w.values().real if isinstance(a_w, SpectralFunction) else np.asarray(a_w, dtype=float)
        ell = np.min(1.0 + 2.0 * av)
        if ell <= 0.0:
            raise PreconditionError(
                "wave smallness condition fails: min(1 + 2a_w) = %.6g <= 0" % ell
            )
        lam, s1, s2 = _eigenvector_entries(av)
        self.lam_w = transform(grid, lam)
        self.s1_w = transform(grid, s1)
        self.s2_w = transform(grid, s2)
        self.D_tilde_w, self.D_w = _similarity(grid, s1, s2)

    def pointwise_identity_defect(self):
        return _pointwise_identity_defect(self.s1_w, self.s2_w, self.lam_w)


def build_T_correctors(a, g_12b, g_12w):
    """Scalar symbols t_b, t_w of order -3/2 decoupling the beam-wave
    coupling blocks, from the g-functions a, g_12b, g_12w.

    The decoupling conditions L_b T_1 - T_1 L_w = C_b and
    L_w T_2 - T_2 L_b = C_w are solved at principal order by

        T_1 =  U t_b,      t_b = psi <xi>^{-3/2} g_12b / (1 + 2a),
        T_2 = -E U E t_w,  t_w = psi <xi>^{-3/2} g_12w / (1 + 2a),

    so Op^BW(T_1) = pair(Op^BW(t_b), Op^BW(t_b)) and
    Op^BW(T_2) = pair(-Op^BW(t_w), Op^BW(t_w)).
    """
    grid = a.grid
    av = a.values().real
    mult = FrequencyMultiplier.psi() * FrequencyMultiplier.bracket(-1.5)
    return tuple(
        SeparableSymbol(grid, [(transform(grid, g.values().real / (1.0 + 2.0 * av)), mult)])
        for g in (g_12b, g_12w)
    )


class Parametrix:
    """Phi, Psi, Lambda and L_{2s} at a frozen background V, held in blocks.

    A stacked vector splits into the beam half z = (z, z-bar) and the wave
    half w = (w, w-bar).  Phi and Psi are held as the 2n x 2n factors D_b,
    D~_b (``beam``), D_w, D~_w (``wave``) and the quantized correctors T1,
    T2; Lambda and L_{2s} as n x n blocks acting on each component.
    """

    def __init__(self, para, V, s):
        grid = para.grid
        self.grid = grid
        self.s = float(s)
        self.frozen_at = None if V is None else np.array(V, dtype=complex)

        a, d, g_1w, g_12b, g_12w = para.g_functions(V)
        self.beam = BeamDiagonalizer(a, grid)
        self.wave = WaveDiagonalizer(d + g_1w, grid)
        t_b, t_w = (bony_weyl_quantize(t) for t in build_T_correctors(a, g_12b, g_12w))
        self.T1, self.T2 = pair(t_b, t_b), pair(-t_w, t_w)

        lam_b, lam_w = self.beam.lam_b, self.wave.lam_w
        self.Lambda_b = _op(lam_b, FrequencyMultiplier.xi_power(2))
        self.Lambda_w = _op(lam_w, FrequencyMultiplier.abs_xi())
        s2 = 2.0 * self.s
        mult = FrequencyMultiplier.abs_xi_power(s2)
        self.L2s_b = _op(transform(grid, lam_b.values().real ** self.s), mult)
        self.L2s_w = _op(transform(grid, lam_w.values().real ** s2), mult)

    def phi(self, vec):
        """Phi V = (D_b (z + T1 w), D_w (w + T2 z))."""
        z, w = np.split(np.asarray(vec, dtype=complex), 2)
        return np.concatenate(
            [self.beam.D_b @ (z + self.T1 @ w), self.wave.D_w @ (w + self.T2 @ z)]
        )

    def l2s(self, vec):
        """L_{2s} V: the beam block on z and z-bar, the wave block on w and w-bar."""
        blocks = (self.L2s_b, self.L2s_b, self.L2s_w, self.L2s_w)
        return np.concatenate([b @ u for b, u in zip(blocks, np.split(np.asarray(vec), 4))])


def dense_operators(P):
    """The 4n x 4n Phi, Psi, D = diag(D_b, D_w), D~ = diag(D~_b, D~_w) and
    Lambda = -iE diag(Lambda_b, Lambda_b, Lambda_w, Lambda_w), for dense SVDs."""
    h = 2 * P.grid.n
    zero = np.zeros((h, h))
    eye = np.eye(2 * h)
    D = np.block([[P.beam.D_b, zero], [zero, P.wave.D_w]])
    Dt = np.block([[P.beam.D_tilde_b, zero], [zero, P.wave.D_tilde_w]])
    T = np.block([[zero, P.T1], [P.T2, zero]])
    Lam = np.kron(np.diag([-1j, 1j, 0, 0]), P.Lambda_b)
    Lam += np.kron(np.diag([0, 0, -1j, 1j]), P.Lambda_w)
    return D @ (eye + T), (eye - T) @ Dt, D, Dt, Lam


def build_parametrix(para, V, s):
    return Parametrix(para, V, s)


def conjugation_residual(P, para, V=None):
    """Measured norms of the conjugation and inverse identities.

    All operator norms are resolved-band H^s -> H^s (or H^s -> H^{s+2})
    norms; ``offdiag_without_T`` is the negative control obtained by
    dropping the T correctors.
    """
    grid = P.grid
    n = grid.n
    s = P.s
    Phi, Psi, D, Dt, Lam = dense_operators(P)
    L = para.frak_A(V) + para.frak_B(V)
    M = Phi @ L @ Psi - Lam

    def norm4(mat, s_in, s_out):
        return exact_operator_norm(grid, mat, s_in, s_out, band="resolved")

    def offdiag(mat):
        out = np.zeros_like(mat)
        out[: 2 * n, 2 * n :] = mat[: 2 * n, 2 * n :]
        out[2 * n :, : 2 * n] = mat[2 * n :, : 2 * n]
        return out

    inv = Psi @ Phi - np.eye(4 * n)
    M_bare = D @ L @ Dt - Lam
    return {
        "s": s,
        "n": n,
        "conjugation_norm": norm4(M, s, s),
        "inverse_defect_norm": norm4(inv, s, s + 2.0),
        "offdiag_norm": norm4(offdiag(M), s, s),
        "offdiag_without_T": norm4(offdiag(M_bare), s, s),
        "beam_pointwise_defect": P.beam.pointwise_identity_defect(),
        "wave_pointwise_defect": P.wave.pointwise_identity_defect(),
    }


def modified_energy(P, vec):
    """|V|^2_{V~,s} = <L_{2s} Phi V, Phi V> on a stacked 4n vector."""
    u = P.phi(vec)
    return float(stacked_inner(P.grid, P.l2s(u), u, 0.0))


def _random_mean_zero_state(grid, sigma, rng):
    """Smooth random conjugate-pair stacked vector with zero mean modes."""
    n = grid.n
    decay = grid.bracket_power(-(sigma + 1.0))
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
    z[0] = 0.0
    w[0] = 0.0
    if n % 2 == 0:
        z[n // 2] = 0.0
        w[n // 2] = 0.0
    return conjugate_pair(grid, z, w)


def equivalence_and_garding_report(para, V, sigma, sample_count=100, seed=0):
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
    grid = para.grid
    n = grid.n
    P = build_parametrix(para, V, sigma)
    rng = np.random.default_rng(seed)
    j4 = grid.modes.astype(float) ** 4
    j2 = grid.modes.astype(float) ** 2
    delta = np.concatenate([j4, j4, j2, j2])

    def garding_defect(vec):
        nsq = stacked_norm(grid, vec, sigma) ** 2
        u = P.phi(vec)
        lhs = float(stacked_inner(grid, P.l2s(P.phi(delta * vec)), u, 0.0))
        zsq = stacked_norm(grid, np.concatenate([vec[: 2 * n], np.zeros(2 * n)]), sigma + 2.0) ** 2
        wsq = stacked_norm(grid, np.concatenate([np.zeros(2 * n), vec[2 * n :]]), sigma + 1.0) ** 2
        return (lhs - 0.25 * (zsq + wsq)) / nsq

    upper = []
    lower = []
    for _ in range(sample_count):
        vec = _random_mean_zero_state(grid, sigma, rng)
        nsq = stacked_norm(grid, vec, sigma) ** 2
        nlow = stacked_norm(grid, vec, -2.0) ** 2
        e = modified_energy(P, vec)
        upper.append(e / nsq)
        lower.append(e / max(nsq - nlow, 1e-300))
    # the binding Garding constant lives at low modes; scan single-mode
    # beam and wave states deterministically over the resolved band
    defects = []
    zero = np.zeros(n, dtype=complex)
    for j in range(1, grid.dealias_cut + 1):
        mode = zero.copy()
        mode[j] = 1.0
        for z, w in ((mode, zero), (zero, mode)):
            defects.append(garding_defect(conjugate_pair(grid, z, w)))
    upper = np.asarray(upper)
    lower = np.asarray(lower)
    defects = np.asarray(defects)
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
