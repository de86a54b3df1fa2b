"""Acceptance criteria: property checks and measured-constant stability.

Each test covers one numbered criterion and emits exactly one PASS/FAIL
line through pytest -v.  Shared expensive runs (the headline comparison at
N = 128) are module-scoped fixtures.
"""

import json

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem
from beamwave.cli import main
from beamwave.errors import PreconditionError
from beamwave.evolve import (
    SolverConfig,
    epsilon_continuation,
    kato_solve,
    oracle_solve,
    trajectory_gap,
)
from beamwave.grid import TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.parametrix import (
    BeamDiagonalizer,
    WaveDiagonalizer,
    build_parametrix,
    conjugation_residual,
    equivalence_and_garding_report,
)
from beamwave.quantize import (
    as_matrix,
    bony_weyl_quantize,
    composition_residual,
    exact_operator_norm,
    remainder_bw_minus_weyl,
    weyl_quantize,
)
from beamwave.state import complexify, is_conjugate_pair, real_from_stacked, stacked_from_real
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol
from test_bridge import VARIABLE
from test_evolve import bona_smith_experiment, decoupled_flow, duhamel_smoothing_ratio
from test_parametrix import subprincipal_offdiagonal
from test_symbols import symbol_order

N_SWEEP = (32, 64, 128, 256)


def make_fields(g, amp=1e-2):
    return tuple(
        transform(g, v)
        for v in (
            amp * np.sin(g.x),
            0.5 * amp * np.cos(g.x),
            amp * np.sin(2 * g.x),
            0.5 * amp * np.cos(2 * g.x),
        )
    )


def headline_system(n):
    g = TorusGrid(n)
    return g, BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 5, 5)])  # theta_xx^2


def mixed_system(n):
    g = TorusGrid(n)
    F1 = [(1.0, 4, 5)]  # theta_x theta_xx
    F2 = [(1.0, 2, 5), (0.5, 5, 5)]
    return g, BridgeSystem(g, 1.0, 1.0, F1=F1, F2=F2)


def coupled_paralin(n, amp=0.05):
    """Variable-b system with beam-wave coupling; stresses the parametrix."""
    g = TorusGrid(n)
    sys = BridgeSystem(g, "cosine:0.2", 1.0, F1=[(1.0, 4, 5)], F2=[(1.0, 2, 5), (0.5, 5, 5)])
    para = ParalinearizedSystem(sys, g)
    V = complexify(*make_fields(g, amp)).stacked()
    return g, para, V


@pytest.fixture(scope="module")
def headline_runs():
    g, sys = headline_system(128)
    y0, y1, th0, th1 = make_fields(g, 1e-2)
    cfg = SolverConfig(T_final=0.1)
    kat = kato_solve(sys, complexify(y0, y1, th0, th1).stacked(), cfg)
    orc = oracle_solve(sys, y0, y1, th0, th1, cfg)
    return g, cfg, kat, orc


def test_criterion_01_quantization_correctness():
    g = TorusGrid(64)
    f = transform(g, 1.0 + 0.3 * np.cos(g.x) + 0.2 * np.sin(3 * g.x))
    op = weyl_quantize(SeparableSymbol.from_xfunc(f))
    u = transform(g, np.sin(5 * g.x) + np.cos(2 * g.x))
    exact = transform(g, f.values().real * u.values().real)
    mult_err = float(np.max(np.abs(op @ u.coeffs - exact.coeffs)))

    dx = weyl_quantize(SeparableSymbol.from_multiplier(g, FrequencyMultiplier.xi_power(1)))
    dx_err = float(np.max(np.abs(1j * (dx @ u.coeffs) - u.deriv().coeffs)))

    a = SeparableSymbol(g, [(transform(g, np.cos(2 * g.x)), FrequencyMultiplier.xi_power(2))])
    diag_err = float(
        np.max(np.abs(np.diag(weyl_quantize(a)) - np.diag(bony_weyl_quantize(a))))
    )
    assert mult_err < 1e-12, "Op^W multiplication error %.3e" % mult_err
    assert dx_err < 1e-12, "Op^W(i xi) vs d/dx error %.3e" % dx_err
    assert diag_err == 0.0, "BW/W diagonal mismatch %.3e" % diag_err


def test_criterion_02_calculus_residuals_stable():
    def symbols_on(g):
        c1 = transform(g, np.cos(g.x))
        s2 = transform(g, np.sin(2 * g.x))
        c3 = transform(g, np.cos(3 * g.x))
        return [
            SeparableSymbol(g, [(c1, FrequencyMultiplier.xi_power(2))]),
            SeparableSymbol(g, [(s2, FrequencyMultiplier.bracket(1.0))]),
            SeparableSymbol(g, [(c3, FrequencyMultiplier.bracket(0.5))]),
        ]

    for idx in range(3):
        rem_norms = []
        comp_norms = []
        for n in N_SWEEP:
            g = TorusGrid(n)
            syms = symbols_on(g)
            a = syms[idx]
            m = symbol_order(a)
            band = np.ix_(g.dealias_mask, g.dealias_mask)
            rem_norms.append(exact_operator_norm(g, remainder_bw_minus_weyl(a)[band], 2.0, 4.0 - m))
            b = syms[(idx + 1) % 3]
            mp = symbol_order(b)
            comp_norms.append(
                exact_operator_norm(g, composition_residual(a, b, 2.0)[band], 2.0, 4.0 - m - mp)
            )
        assert max(rem_norms) / min(rem_norms) < 1.25, "W-BW symbol %d: %r" % (idx, rem_norms)
        assert max(comp_norms) / min(comp_norms) < 1.25, "composition %d: %r" % (idx, comp_norms)


def test_criterion_03_diagonalization_identities():
    g = TorusGrid(64)
    a_vals = 0.2 * np.cos(g.x)
    beam = BeamDiagonalizer(transform(g, a_vals), g)
    wave = WaveDiagonalizer(transform(g, 0.1 * np.cos(2 * g.x)), g)
    assert beam.pointwise_identity_defect() < 1e-10
    assert wave.pointwise_identity_defect() < 1e-10

    xi = np.concatenate([np.linspace(0.5, 10.0, 40), [0.75, 1.5, 5.0]])
    assert np.max(np.abs(subprincipal_offdiagonal(beam, xi))) == 0.0

    # gauge-conjugated first-order diagonal term: the full beam conjugation
    # leaves a measured order-zero residual, stable in the truncation
    res = []
    for n in (64, 128):
        gn = TorusGrid(n)
        b = BeamDiagonalizer(transform(gn, 0.2 * np.cos(gn.x)), gn)
        # A_b = I xi^2 + U (a xi^2 + 2i a_x xi); E Op^BW(A_b) is odd on the
        # parity halves, m -> p by P and p -> m by P + 2Q, and D_b, D~_b are
        # even, so the residual is one n x n product per half
        af = transform(gn, 0.2 * np.cos(gn.x))
        xi2 = FrequencyMultiplier.xi_power(2)
        P = as_matrix(bony_weyl_quantize(SeparableSymbol.from_multiplier(gn, xi2)))
        Q = bony_weyl_quantize(
            SeparableSymbol(gn, [(af, xi2), (2j * af.deriv(), FrequencyMultiplier.xi_power(1))])
        )
        lam = bony_weyl_quantize(SeparableSymbol(gn, [(b.lam, FrequencyMultiplier.xi_power(2))]))
        O_m = b.M_minus1()
        (D_p, D_m), (Dt_p, Dt_m) = (b.half(O_m, h) for h in (0, 1)), b.right_inverse(O_m)
        resid = (D_p @ P @ Dt_m - lam, D_m @ (P + 2.0 * Q) @ Dt_p - lam)
        band = np.ix_(gn.dealias_mask, gn.dealias_mask)
        res.append(max(exact_operator_norm(gn, h[band], 2.0, 2.0) for h in resid))
    assert max(res) / min(res) < 1.25, "beam conjugation residual %r" % (res,)


def test_criterion_04_parametrix_contracts():
    reports = []
    for n in N_SWEEP:
        g, para, V = coupled_paralin(n)
        P = build_parametrix(para, V, 2.5)
        reports.append(conjugation_residual(P, para, V))
    conj = [r["conjugation_norm"] for r in reports]
    inv = [r["inverse_defect_norm"] for r in reports]
    off = [r["offdiag_norm"] for r in reports]
    raw = [r["offdiag_without_T"] for r in reports]
    assert max(inv) / min(inv) < 1.25, "Psi Phi - 1: %r" % (inv,)
    assert max(conj) / min(conj) < 1.25, "conjugation residual: %r" % (conj,)
    assert max(off) / min(off) < 1.25, "off-diagonal with T: %r" % (off,)
    assert raw[-1] > 1.3 * raw[0], "negative control must grow: %r" % (raw,)


def test_criterion_04_beam_side_negative_controls(tmp_path, monkeypatch, capsys):
    # on a variable b (CI's variable document) the beam similarity S_b is not
    # constant, so the gauge k and M_-1's coefficient m do work: the gate of
    # verify --suite parametrix over N = 32, 64, 128 passes as built, and fails
    # with k forced to 1, or m to 0, after the beam diagonalizer's build, where
    # the conjugation norm grows with N (a spread of about 10)
    system = tmp_path / "variable.json"
    system.write_text(json.dumps(VARIABLE))
    build, forced = BeamDiagonalizer._build, None

    def forcing(self, *args):
        build(self, *args)
        if forced == "k":
            self.k = self.k_inv = transform(self.grid, np.ones(self.grid.n))
        elif forced == "m":
            self.m = transform(self.grid, np.zeros(self.grid.n))

    monkeypatch.setattr(BeamDiagonalizer, "_build", forcing)
    for forced in (None, "k", "m"):
        out = tmp_path / str(forced)
        code = main(["verify", "--suite", "parametrix", "--system", str(system),
                     "--outdir", str(out)])
        report, = (json.loads(p.read_text()) for p in out.glob("verify_parametrix_*.json"))
        conj = [r["conjugation_norm"] for r in report["checks"]["residuals"]]
        assert (code, report["passed"]) == ((0, True) if forced is None else (1, False)), conj
        assert (max(conj) / min(conj) < 1.25) == (forced is None), (forced, conj)


def test_criterion_05_equivalence_and_garding():
    consts = []
    gard = []
    for n in (64, 128):
        g, para, V = coupled_paralin(n)
        rep = equivalence_and_garding_report(para, V, 2.5, sample_count=100, seed=0)
        consts.append(rep["equivalence_constant"])
        gard.append(rep["garding_defect_min"])
    assert max(consts) / min(consts) < 1.25, "equivalence constants %r" % (consts,)
    assert abs(gard[0] - gard[1]) < 0.25 * max(1.0, abs(gard[0])), "Garding %r" % (gard,)

    g = TorusGrid(64)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    rep = equivalence_and_garding_report(para, None, 2.5, sample_count=100, seed=0)
    assert rep["ratio_max"] <= 1.0 + 1e-12
    assert rep["ratio_min"] >= np.exp(-4.0) - 1e-12


def test_criterion_06_smoothing_rate_law():
    g = TorusGrid(512)
    eps_b = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = [duhamel_smoothing_ratio(g, e, 0.5, "beam") for e in eps_b]
    slope_b = float(np.polyfit(np.log(eps_b), np.log(vals), 1)[0])
    assert abs(slope_b + 0.5) < 0.05, "beam eps slope %.4f" % slope_b

    eps_w = [1e-1, 1e-2, 1e-3]
    vals = [duhamel_smoothing_ratio(g, e, 1.0, "wave") for e in eps_w]
    slope_w = float(np.polyfit(np.log(eps_w), np.log(vals), 1)[0])
    assert abs(slope_w + 0.25) < 0.05, "wave eps slope %.4f" % slope_w

    ts = [0.25, 0.5, 1.0, 2.0]
    vals = [duhamel_smoothing_ratio(g, 1e-2, t, "wave") for t in ts]
    slope_t = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    assert abs(slope_t - 0.75) < 0.05, "wave t slope %.4f" % slope_t


def test_criterion_07_linear_exactness():
    # constant-coefficient modes: y_j(t) = cos(j^2 t), theta_j(t) = cos(|j| t)
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    y0 = transform(g, np.cos(2 * g.x))
    zero = transform(g, np.zeros(g.n))
    th0 = transform(g, np.cos(3 * g.x))
    cfg = SolverConfig(dt=1e-3, T_final=1.0)
    run = oracle_solve(sys, y0, zero, th0, zero, cfg)
    y, _, th, _ = np.fft.irfft(run.trajectory[-1], g.n, norm="forward")
    beam_err = float(np.max(np.abs(y - np.cos(4.0) * np.cos(2 * g.x))))
    wave_err = float(np.max(np.abs(th - np.cos(3.0) * np.cos(3 * g.x))))
    assert beam_err < 1e-8, "beam mode error %.3e" % beam_err
    assert wave_err < 1e-8, "wave mode error %.3e" % wave_err

    # trivial decoupled flow: H^s isometry, drift < 1e-8 over unit time
    g32 = TorusGrid(32)
    para = ParalinearizedSystem(BridgeSystem(g32, 1.0, 1.0), g32)
    u0 = np.array(real_from_stacked(g32, complexify(*make_fields(g32)).stacked()))[:, :17]
    flow = decoupled_flow(para, u0, SolverConfig(T_final=1.0))
    drift = float(np.max(np.abs(flow.norms["s1"] - flow.norms["s1"][0])))
    assert drift < 1e-8 * flow.norms["s1"][0], "norm drift %.3e" % drift


def test_criterion_08_oracle_equivalence_headline(headline_runs):
    g, cfg, kat, orc = headline_runs
    s1 = cfg.ladder.s1
    rel = trajectory_gap(g, kat, orc, s1) / orc.sup_norm(s1)
    assert rel <= 1e-4, "headline relative discrepancy %.3e" % rel

    g2, sys2 = mixed_system(128)
    y0, y1, th0, th1 = make_fields(g2, 1e-2)
    kat2 = kato_solve(sys2, complexify(y0, y1, th0, th1).stacked(), cfg)
    orc2 = oracle_solve(sys2, y0, y1, th0, th1, cfg)
    rel2 = trajectory_gap(g2, kat2, orc2, s1) / orc2.sup_norm(s1)
    assert rel2 <= 1e-4, "mixed relative discrepancy %.3e" % rel2


def test_criterion_09_kato_contraction(headline_runs):
    g, cfg, kat, orc = headline_runs
    ratios = kat.increment_ratios()
    assert ratios, "no increment ratios recorded"
    assert max(ratios) <= 0.5, "increment ratios %r" % (ratios,)

    g0 = TorusGrid(32)
    triv = kato_solve(
        BridgeSystem(g0, 1.0, 1.0), complexify(*make_fields(g0)).stacked(), SolverConfig(T_final=0.05)
    )
    assert len(triv.increments) == 1 and triv.increments[0] < 1e-14, (
        "trivial system increments %r" % (triv.increments,)
    )


def test_criterion_10_epsilon_continuation():
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    cfg = SolverConfig(T_final=0.05)
    rep = epsilon_continuation(sys, V0, [1e-2, 1e-3, 1e-4], cfg)
    assert abs(rep["slope"] - 1.0) < 0.1, "eps slope %.4f" % rep["slope"]

    rep0 = epsilon_continuation(sys, V0, [1e-6, 0.0], cfg)
    gap = rep0["gaps"][0][2]
    assert gap <= 1e-5, "eps=0 vs 1e-6 gap %.3e" % gap


def test_criterion_11_bona_smith_and_continuity():
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    rep = bona_smith_experiment(
        sys,
        V0,
        [4, 6, 10],
        SolverConfig(T_final=0.05),
        perturbation_sizes=(1e-3, 1e-4, 1e-5),
    )
    assert rep["monotone"], "Bona-Smith gaps %r" % (rep["gaps"],)
    moduli = [float(v) for v in rep["perturbation_moduli"].values()]
    # perturbation 1e-4 -> solution perturbation <= 1e-2 means modulus <= 100;
    # linear response: moduli agree across three sizes
    assert max(moduli) <= 100.0, "moduli %r" % (moduli,)
    assert max(moduli) / min(moduli) < 1.25, "moduli not linear-response %r" % (moduli,)


def test_criterion_12_structure_preservation(marched):
    # reality over the full horizon, on the marched halves: their slots 0 and
    # n/2, where a half could hold a non-real value, are real
    g, sys = headline_system(64)
    kato_solve(sys, complexify(*make_fields(g)).stacked(), SolverConfig(T_final=0.1))
    for u in marched[-1]:
        assert np.max(np.abs(u[:, [0, g.n // 2]].imag)) <= 1e-10
        assert is_conjugate_pair(g, stacked_from_real(g, *g.full(u)), tol=1e-10)

    # parity: odd data for a parity-passing coupling stays odd
    gp = TorusGrid(32)
    sysp = BridgeSystem(gp, 1.0, 1.0, F2=[(1.0, 0, 4)])
    assert sysp.check_parity()
    amp = 1e-2
    odd = tuple(
        transform(gp, v)
        for v in (
            amp * np.sin(gp.x),
            0.5 * amp * np.sin(2 * gp.x),
            amp * np.sin(2 * gp.x),
            0.5 * amp * np.sin(gp.x),
        )
    )
    runp = kato_solve(sysp, complexify(*odd).stacked(), SolverConfig(T_final=0.05))
    idx = (-np.arange(gp.n)) % gp.n
    y, _, th, _ = gp.full(runp.trajectory[-1])
    for u in (y, th):
        assert float(np.max(np.abs(u[idx] + u))) < 1e-10

    # damped run: monotone decreasing energy envelope
    gd = TorusGrid(32)
    sysd = BridgeSystem(gd, 1.0, 1.0, alpha=-0.5, beta=-0.5)
    rund = kato_solve(sysd, complexify(*make_fields(gd)).stacked(), SolverConfig(T_final=2.0))
    norms = rund.norms["s1"]
    half = len(norms) // 2
    assert norms[-1] < norms[0]
    assert float(np.max(norms[half:])) < float(np.max(norms[:half])), "envelope not decreasing"
