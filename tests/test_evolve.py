"""Time integration: CFL, heat factors, linear flow, Kato, experiments."""

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem, QuadraticNonlinearity
from beamwave.errors import NumericalError, PreconditionError
from beamwave.evolve import (
    SolverConfig,
    bona_smith_experiment,
    duhamel_smoothing_ratio,
    epsilon_continuation,
    heat_factor,
    kato_solve,
    linear_solve,
    oracle_solve,
    trajectory_gap,
)
from beamwave.grid import TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.state import complexify, is_conjugate_pair, stacked_norm


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
    F2 = QuadraticNonlinearity(g, [(1.0, 5, 5)])
    return g, BridgeSystem(g, 1.0, 1.0, F2=F2)


def test_solver_config_validation():
    with pytest.raises(PreconditionError):
        SolverConfig(T_final=0.0)
    with pytest.raises(PreconditionError):
        SolverConfig(eps=-1.0)
    with pytest.raises(PreconditionError):
        SolverConfig(cfl_safety=1.5)


def test_resolve_dt_integer_steps_and_cfl():
    g = TorusGrid(32)
    cfg = SolverConfig(T_final=0.1)
    dt, steps = cfg.resolve_dt(g, 1.0)
    assert abs(dt * steps - 0.1) < 1e-15
    assert dt <= cfg.max_stable_dt(g, 1.0) * (1 + 1e-12)
    with pytest.raises(PreconditionError):
        SolverConfig(dt=1.0, T_final=0.1).resolve_dt(g, 1.0)


def test_heat_factor_layout():
    g = TorusGrid(8)
    h = heat_factor(g, 0.1, 0.5)
    j = g.modes.astype(float)
    assert np.allclose(h[:8], np.exp(-0.05 * j**4))
    assert np.allclose(h[16:24], np.exp(-0.05 * j**2))
    with pytest.raises(PreconditionError):
        heat_factor(g, -1.0, 0.1)


def test_duhamel_ratio_eps_zero_is_linear_in_t():
    g = TorusGrid(64)
    r = duhamel_smoothing_ratio(g, 0.0, 0.5, "beam")
    # rate = 0 everywhere: integral = t, gain max = <n/2>^2
    assert abs(r - 0.5 * (1.0 + (g.n // 2) ** 2)) < 1e-9


def test_decoupled_linear_flow_is_isometry():
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    V0 = complexify(*make_fields(g)).stacked()
    cfg = SolverConfig(T_final=0.1)
    run = linear_solve(para, None, V0, None, cfg, include_R=False)
    drift = np.max(np.abs(run.norms["s1"] - run.norms["s1"][0]))
    assert drift < 1e-10 * run.norms["s1"][0]


def test_linear_solve_background_shape_checks():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    V0 = complexify(*make_fields(g)).stacked()
    cfg = SolverConfig(T_final=0.01)
    with pytest.raises(PreconditionError):
        linear_solve(para, np.zeros((3, 4 * g.n)), V0, None, cfg)
    with pytest.raises(PreconditionError):
        linear_solve(para, None, V0[: g.n], None, cfg)
    with pytest.raises(PreconditionError):
        linear_solve(para, None, V0, np.zeros((3, 4 * g.n)), cfg)


def test_blow_up_guard_stops_both_solvers():
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    fields = make_fields(g)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    steps = cfg.resolve_dt(g, 1.0)[1]
    forcing = np.zeros((steps + 1, 4 * g.n), dtype=complex)
    forcing[steps // 2, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        linear_solve(para, None, complexify(*fields).stacked(), forcing, cfg)
    forced = BridgeSystem(g, 1.0, 1.0, gamma=1.0, f_b=lambda t: np.nan)
    with pytest.raises(NumericalError, match="non-finite"):
        oracle_solve(forced, *fields, cfg)


def test_trivial_kato_one_sweep_exact():
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0)
    V0 = complexify(*make_fields(g)).stacked()
    run = kato_solve(sys, V0, SolverConfig(T_final=0.05))
    assert run.termination == "converged"
    assert len(run.increments) == 1
    assert run.increments[0] < 1e-15


def test_kato_matches_oracle_small():
    g, sys = headline_system(32)
    y0, y1, th0, th1 = make_fields(g)
    cfg = SolverConfig(T_final=0.05)
    kat = kato_solve(sys, complexify(y0, y1, th0, th1).stacked(), cfg)
    orc = oracle_solve(sys, y0, y1, th0, th1, cfg)
    gap = trajectory_gap(g, kat, orc, cfg.ladder.s1)
    assert gap < 1e-6 * orc.sup_norm(cfg.ladder.s1)


def test_kato_preserves_reality():
    g, sys = headline_system(32)
    run = kato_solve(sys, complexify(*make_fields(g)).stacked(), SolverConfig(T_final=0.05))
    for vec in run.trajectory[:: max(1, len(run.trajectory) // 5)]:
        assert is_conjugate_pair(g, vec, tol=1e-10)


def test_oracle_trivial_exact_phases():
    # constant coefficients, no nonlinearity: y_j(t) = cos(j^2 t) y_j(0)
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    y0 = transform(g, np.cos(2 * g.x))
    zero = transform(g, np.zeros(g.n))
    th0 = transform(g, np.cos(3 * g.x))
    cfg = SolverConfig(dt=1e-3, T_final=0.5)
    run = oracle_solve(sys, y0, zero, th0, zero, cfg)
    from beamwave.state import StateVector, realify

    y, yt, th, tht = realify(run.final_state())
    assert np.max(np.abs(y.values().real - np.cos(4.0 * 0.5) * np.cos(2 * g.x))) < 1e-8
    assert np.max(np.abs(th.values().real - np.cos(3.0 * 0.5) * np.cos(3 * g.x))) < 1e-8


def test_epsilon_continuation_linear_slope():
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    rep = epsilon_continuation(sys, V0, [1e-2, 1e-3, 1e-4], SolverConfig(T_final=0.05))
    assert abs(rep["slope"] - 1.0) < 0.1


def test_bona_smith_monotone():
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    rep = bona_smith_experiment(
        sys, V0, [4, 6, 10], SolverConfig(T_final=0.05), perturbation_sizes=(1e-3, 1e-4)
    )
    assert rep["monotone"]
    moduli = [float(v) for v in rep["perturbation_moduli"].values()]
    assert max(moduli) < 10.0


def test_run_result_csv_and_manifest(tmp_path):
    g, sys = headline_system(32)
    cfg = SolverConfig(T_final=0.02)
    run = kato_solve(sys, complexify(*make_fields(g)).stacked(), cfg)
    csv_path = tmp_path / "run.csv"
    run.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,norm_Hs0,norm_Hs1"
    assert len(lines) == len(run.times) + 1
    man_path = tmp_path / "run.json"
    run.write_manifest(man_path, cfg, extra={"tag": "x"})
    import json

    doc = json.loads(man_path.read_text())
    assert doc["termination"] == "converged" and doc["tag"] == "x"
    assert doc["config"]["T_final"] == 0.02


@pytest.mark.parametrize(
    "forcing", [{"gamma": 0.5, "f_b": np.cos}, {"delta": 0.5, "f_w": np.cos}]
)
def test_forced_kato_matches_oracle(forcing):
    # the Kato forcing carries G(t) exactly once
    g = TorusGrid(32)
    F2 = QuadraticNonlinearity(g, [(1.0, 5, 5)])
    sys = BridgeSystem(g, 1.0, 1.0, F2=F2, **forcing)
    y0, y1, th0, th1 = make_fields(g)
    cfg = SolverConfig(T_final=0.02)
    kat = kato_solve(sys, complexify(y0, y1, th0, th1).stacked(), cfg)
    orc = oracle_solve(sys, y0, y1, th0, th1, cfg)
    s1 = cfg.ladder.s1
    rel = trajectory_gap(g, kat, orc, s1) / orc.sup_norm(s1)
    assert rel <= 1e-4, "forced relative discrepancy %.3e" % rel


def test_kato_assembles_symbols_independently_of_step_count(monkeypatch):
    # symbol assembly, frequency multipliers and quantization stay off the
    # time-stepping path: their call counts do not grow with the steps
    from beamwave import paralin, quantize, symbols

    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        paralin.ParalinearizedSystem,
        "assemble_symbols",
        counting("assemble", paralin.ParalinearizedSystem.assemble_symbols),
    )
    monkeypatch.setattr(
        symbols.FrequencyMultiplier,
        "bracket",
        classmethod(counting("bracket", symbols.FrequencyMultiplier.bracket.__func__)),
    )
    monkeypatch.setattr(paralin, "bony_weyl_quantize", counting("bw", quantize.bony_weyl_quantize))
    # the time-stepping path applies the frozen generator and forms no
    # 4n x 4n frakA / frakB matrix per background
    for name in ("frak_A", "frak_B"):
        fn = getattr(paralin.ParalinearizedSystem, name)
        monkeypatch.setattr(paralin.ParalinearizedSystem, name, counting(name, fn))
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    per_run = []
    for T in (0.01, 0.04):
        counts.clear()
        kato_solve(sys, V0, SolverConfig(T_final=T))
        per_run.append(dict(counts))
    assert per_run[0] == per_run[1]
    assert all(c <= 2 for c in per_run[0].values()), per_run
    assert per_run[0]["frak_A"] >= 1 and per_run[0].get("frak_B", 0) == 0, per_run
