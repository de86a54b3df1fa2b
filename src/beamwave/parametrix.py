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

Every operator is held by its parity halves (``state``), 2n x 2n over
(beam, wave): D, D~, T, Phi, Psi are even (+ on p, - on m), the generator
and Lambda odd (pm, mp).  The change keeps the Sobolev weights and the
resolved band, so a residual's norm is the larger of its halves' norms.
"""

from functools import cached_property

import numpy as np

from .errors import NumericalError, PreconditionError
from .grid import SpectralFunction, transform
from .quantize import bony_weyl_quantize, exact_operator_norm
from .state import conjugate_pair, parity_join, parity_split, stacked_inner, stacked_norm
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
    """The even halves (S_1 + S_2, S_1 - S_2) of Op^BW(S), S = [[s1, s2], [s2, s1]],
    from grid values; S^{-1} = [[s1, -s2], [-s2, s1]] has them swapped."""
    S1, S2 = _op(transform(grid, s1)), _op(transform(grid, s2))
    return S1 + S2, S1 - S2


def _beam_wave(b, w, bw=0.0, wb=0.0):
    """The 2n x 2n half [[b, bw], [wb, w]] over (beam, wave) of n x n blocks."""
    n = b.shape[0]
    M = np.empty((2 * n, 2 * n), dtype=complex)
    M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:] = b, bw, wb, w
    return M


def _pointwise_identity_defect(s1, s2, lam):
    """max over grid points of |S^{-1}E(1+Ua)S - E lam| (exact algebra)."""
    s1, s2, lam = (u.values().real for u in (s1, s2, lam))
    a = (lam**2 - 1.0) / 2.0
    E = np.diag([1.0, -1.0])
    S, Si = (np.moveaxis(np.array([[s1, t], [t, s1]]), -1, 0) for t in (s2, -s2))
    A = E @ (np.eye(2) + a[:, None, None])  # one 2 x 2 matrix per grid point
    return float(np.max(np.abs(Si @ A @ S - E * lam[:, None, None])))


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
    an order-zero residual, uniformly in the truncation.  With M_{-1} =
    [[0, O_m], [O_m, 0]], D_b and D~_b are held as their even halves
    K^{-1}(1 +- O_m)(S_1 -+ S_2) and (S_1 +- S_2)(1 -+ O_m) K.
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
        self.M_minus1 = O_m = _op(1j * m_coef, FrequencyMultiplier.psi_over_xi())

        S_p, S_m = _similarity(grid, s1, s2)
        K, K_inv = _op(self.k), _op(transform(grid, np.exp(-phi)))
        eye = np.eye(grid.n)
        self.D_b = K_inv @ (eye + O_m) @ S_m, K_inv @ (eye - O_m) @ S_p
        self.D_tilde_b = S_p @ (eye - O_m) @ K, S_m @ (eye + O_m) @ K

    def subprincipal_offdiagonal(self, xi):
        """Assembled off-diagonal subprincipal symbol after the M_{-1} step:
        i n12 xi (1 - psi(xi)); vanishes identically for |xi| >= 1/2."""
        xi = np.asarray(xi, dtype=float)
        return 1j * self.n12[:, None] * xi[None, :] * (1.0 - cutoff_psi(xi))[None, :]

    def pointwise_identity_defect(self):
        return _pointwise_identity_defect(self.s1_b, self.s2_b, self.lam_b)


class WaveDiagonalizer:
    """D_w = Op^BW(S_w^{-1}), D~_w = Op^BW(S_w) (even halves); first order
    is principal for the half-wave so no smoothing corrector or gauge is needed."""

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
        self.D_tilde_w = _similarity(grid, s1, s2)
        self.D_w = self.D_tilde_w[::-1]

    def pointwise_identity_defect(self):
        return _pointwise_identity_defect(self.s1_w, self.s2_w, self.lam_w)


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
    """Phi, Psi, Lambda and L_{2s} at a frozen background V, held in halves.

    Phi = D(1 + T) and Psi = (1 - T)D~ are held as their even halves
    Phi+-, Psi+- (2n x 2n over (beam, wave)), with D+- = blockdiag(D_b+-,
    D_w+-), T+ = [[0, 2 t_b], [0, 0]] and T- = [[0, 0], [-2 t_w, 0]], so each
    half is blockdiag(D+-) or blockdiag(D~+-) plus one coupling block;
    Lambda and L_{2s} as n x n blocks acting on each component.
    """

    def __init__(self, para, V, s):
        grid = para.grid
        self.grid = grid
        self.s = float(s)

        a, d, g_1w, g_12b, g_12w = para.g_functions(V)
        self.beam = BeamDiagonalizer(a, grid)
        self.wave = WaveDiagonalizer(d + g_1w, grid)
        self.t_b, self.t_w = (bony_weyl_quantize(t) for t in build_T_correctors(a, g_12b, g_12w))
        (Db_p, Db_m), (Dw_p, Dw_m) = self.beam.D_b, self.wave.D_w
        self.Phi = (_beam_wave(Db_p, Dw_p, bw=Db_p @ (2.0 * self.t_b)),
                    _beam_wave(Db_m, Dw_m, wb=Dw_m @ (-2.0 * self.t_w)))

        lam_b, lam_w = self.beam.lam_b, self.wave.lam_w
        self.Lambda_b = _op(lam_b, FrequencyMultiplier.xi_power(2))
        self.Lambda_w = _op(lam_w, FrequencyMultiplier.abs_xi())
        s2 = 2.0 * self.s
        mult = FrequencyMultiplier.abs_xi_power(s2)
        self.L2s_b = _op(transform(grid, lam_b.values().real ** self.s), mult)
        self.L2s_w = _op(transform(grid, lam_w.values().real ** s2), mult)

    @cached_property
    def Psi(self):
        """Psi+-, built on first use: only the conjugation residuals apply it."""
        (Dtb_p, Dtb_m), (Dtw_p, Dtw_m) = self.beam.D_tilde_b, self.wave.D_tilde_w
        return (_beam_wave(Dtb_p, Dtw_p, bw=(-2.0 * self.t_b) @ Dtw_p),
                _beam_wave(Dtb_m, Dtw_m, wb=(2.0 * self.t_w) @ Dtb_m))

    def phi(self, vec):
        """Phi V on stacked vectors (..., 4n): Phi+ on the p half, Phi- on the m half."""
        return parity_join(*(u @ h.T for h, u in zip(self.Phi, parity_split(vec))))

    def l2s(self, vec):
        """L_{2s} V on stacked vectors (..., 4n): the beam block on z and z-bar,
        the wave block on w and w-bar."""
        blocks = (self.L2s_b, self.L2s_b, self.L2s_w, self.L2s_w)
        v = np.reshape(vec, np.shape(vec)[:-1] + (4, self.grid.n))
        return np.concatenate([v[..., i, :] @ b.T for i, b in enumerate(blocks)], axis=-1)


def build_parametrix(para, V, s):
    return Parametrix(para, V, s)


def conjugation_residual(P, para, V=None):
    """Measured norms of the conjugation and inverse identities.

    All operator norms are resolved-band H^s -> H^s (or H^s -> H^{s+2})
    norms; ``offdiag_without_T`` is the negative control obtained by
    dropping the T correctors.  Each residual is formed on its halves: the
    odd X L Y - Lambda as X+ L_pm Y- - Lambda_pm and X- L_mp Y+ - Lambda_mp,
    Lambda_pm = Lambda_mp = -i blockdiag(Lambda_b, Lambda_w).  Only the
    resolved rows and columns R of each product are formed: X[R, :] L Y[:, R].
    """
    grid = P.grid
    n = grid.n
    s = P.s
    r = np.flatnonzero(grid.dealias_mask)  # R in one component
    m = r.size
    r2 = np.concatenate([r, r + n])  # R in (beam, wave)
    L = [a + b for a, b in zip(para.frak_A(V), para.frak_B(V))]
    Lam = -1j * _beam_wave(*(b[np.ix_(r, r)] for b in (P.Lambda_b, P.Lambda_w)))
    Phi, Psi = P.Phi, P.Psi
    M = [Phi[i][r2] @ L[i] @ Psi[1 - i][:, r2] - Lam for i in (0, 1)]
    inv = [psi[r2] @ phi[:, r2] - np.eye(2 * m) for psi, phi in zip(Psi, Phi)]
    # the coupling blocks D_b+- L_bw D~_w-+, D_w+- L_wb D~_b-+ of D L D~ - Lambda
    (Db_p, Db_m), (Dw_p, Dw_m) = P.beam.D_b, P.wave.D_w
    (Dtb_p, Dtb_m), (Dtw_p, Dtw_m) = P.beam.D_tilde_b, P.wave.D_tilde_w
    bare = (Db_p[r] @ L[0][:n, n:] @ Dtw_m[:, r], Dw_p[r] @ L[0][n:, :n] @ Dtb_m[:, r],
            Db_m[r] @ L[1][:n, n:] @ Dtw_p[:, r], Dw_m[r] @ L[1][n:, :n] @ Dtb_p[:, r])

    def norm(blocks, s_out=s):
        return max(exact_operator_norm(grid, b, s, s_out, band="restricted") for b in blocks)

    # a block-antidiagonal matrix's top singular value is its larger block's
    return {
        "s": s,
        "n": n,
        "conjugation_norm": norm(M),
        "inverse_defect_norm": norm(inv, s + 2.0),
        "offdiag_norm": norm(b for h in M for b in (h[:m, m:], h[m:, :m])),
        "offdiag_without_T": norm(bare),
        "beam_pointwise_defect": P.beam.pointwise_identity_defect(),
        "wave_pointwise_defect": P.wave.pointwise_identity_defect(),
    }


def modified_energy(P, vec):
    """|V|^2_{V~,s} = <L_{2s} Phi V, Phi V> on stacked vectors (..., 4n)."""
    u = P.phi(vec)
    return stacked_inner(P.grid, P.l2s(u), u, 0.0)


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
    # smooth random conjugate pairs with zero mean modes, drawn state by state
    # as Re z, Im z, Re w, Im w
    rng = np.random.default_rng(seed)
    z_re, z_im, w_re, w_im = np.moveaxis(rng.standard_normal((sample_count, 4, n)), 1, 0)
    decay = grid.bracket_power(-(sigma + 1.0))
    z, w = (z_re + 1j * z_im) * decay, (w_re + 1j * w_im) * decay
    z[:, [0, n // 2]] = w[:, [0, n // 2]] = 0.0  # the mean and (n even) Nyquist modes
    samples = conjugate_pair(grid, z, w)
    nsq = stacked_norm(grid, samples, sigma) ** 2
    energy = modified_energy(P, samples)
    upper = energy / nsq
    lower = energy / np.maximum(nsq - stacked_norm(grid, samples, -2.0) ** 2, 1e-300)
    # the binding Garding constant lives at low modes; scan single-mode
    # beam and wave states deterministically over the resolved band
    modes = np.eye(n, dtype=complex)[1:grid.dealias_cut + 1]
    zero = np.zeros_like(modes)
    states = conjugate_pair(grid, np.concatenate([modes, zero]), np.concatenate([zero, modes]))
    j = grid.modes.astype(float)
    delta = np.concatenate([j**4, j**4, j**2, j**2])
    u, du = P.phi(np.stack([states, delta * states]))
    lhs = stacked_inner(grid, P.l2s(du), u, 0.0)
    beam = np.repeat([1.0, 0.0], 2 * n)
    zsq = stacked_norm(grid, states * beam, sigma + 2.0) ** 2
    wsq = stacked_norm(grid, states * (1.0 - beam), sigma + 1.0) ** 2
    defects = (lhs - 0.25 * (zsq + wsq)) / stacked_norm(grid, states, sigma) ** 2
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
