"""Time integration: CFL, heat factors, linear flow, Kato, experiments."""

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem, QuadraticNonlinearity
from beamwave.errors import NumericalError, PreconditionError
from beamwave.evolve import (
    KATO_OPERATORS,
    KATO_TRAJECTORIES,
    _full,
    _rk4,
    RunResult,
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
from beamwave.cli import PRESETS, build_preset
from beamwave.state import (
    complexify,
    is_conjugate_pair,
    real_from_stacked,
    real_norm_weights,
    stacked_from_real,
    stacked_norm,
)


def real_state(fields):
    """The real state (4, n) of coefficient arrays of (y, y_t, theta, theta_t)."""
    return np.array([u.coeffs for u in fields], dtype=complex)


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


def test_rk4_step_is_the_textbook_combination_bit_for_bit():
    # the step accumulates k1 + 2 k2 + 2 k3 + k4 in place; on a linear f with
    # a per-stage shift its result is u + (dt/6)(k1 + 2k2 + 2k3 + k4), evaluated
    # in that order, to the last bit
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    shifts = rng.standard_normal((3, 4, 16))
    dt = 0.037

    def f(v, a):
        return M @ v + a

    k1 = f(u, shifts[0])
    k2 = f(u + 0.5 * dt * k1, shifts[1])
    k3 = f(u + 0.5 * dt * k2, shifts[1])
    k4 = f(u + dt * k3, shifts[2])
    expect = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u_before = u.copy()
    assert np.array_equal(_rk4(f, u, dt, shifts), expect)
    assert np.array_equal(u, u_before)


def test_kato_peak_memory_is_within_the_counted_trajectories():
    # the step-count guard refuses a run whose KATO_TRAJECTORIES trajectories
    # exceed memory; a long small-N Kato solve of the mixed preset (every
    # background block and both nonlinearities) stays within that count
    import tracemalloc

    g = TorusGrid(16)
    sysm, fields = build_preset("mixed", g)
    cfg = SolverConfig(T_final=7.5)
    steps = cfg.resolve_dt(g, float(np.max(sysm.b.values())))[1]
    assert steps > 150
    V0 = complexify(*fields).stacked()
    tracemalloc.start()
    try:
        run = kato_solve(sysm, V0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.termination == "converged"
    assert peak <= KATO_TRAJECTORIES * run.trajectory.nbytes


def test_kato_peak_memory_at_large_n_is_within_the_counted_operators():
    # a short solve at large N holds more in its n x n operators (the grid's
    # lattices, frakA(0), the Weyl tables and the background blocks) than in
    # its trajectories; the guard counts KATO_OPERATORS of them on top
    import tracemalloc

    g = TorusGrid(256)
    sysm, fields = build_preset("mixed", g)
    V0 = complexify(*fields).stacked()
    tracemalloc.start()
    try:
        run = kato_solve(sysm, V0, SolverConfig(T_final=0.004))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > KATO_TRAJECTORIES * run.trajectory.nbytes
    assert peak <= KATO_TRAJECTORIES * run.trajectory.nbytes + KATO_OPERATORS * g.n**2 * 16


def test_heat_factor_layout():
    g = TorusGrid(8)
    h = heat_factor(g, 0.1, 0.5)
    j = g.modes.astype(float)
    assert h.shape == (4, 8)
    assert np.allclose(h[:2], np.exp(-0.05 * j**4))
    assert np.allclose(h[2:], np.exp(-0.05 * j**2))
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
    u0 = real_state(make_fields(g))
    cfg = SolverConfig(T_final=0.1)
    run = linear_solve(para, None, u0, None, cfg, include_R=False)
    drift = np.max(np.abs(run.norms["s1"] - run.norms["s1"][0]))
    assert drift < 1e-10 * run.norms["s1"][0]


def test_linear_solve_background_shape_checks():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    u0 = real_state(make_fields(g))
    cfg = SolverConfig(T_final=0.01)
    steps = cfg.resolve_dt(g, 1.0)[1]
    with pytest.raises(PreconditionError, match="background"):
        linear_solve(para, np.zeros((3, 4 * g.n)), u0, None, cfg)
    with pytest.raises(PreconditionError, match="initial state"):
        linear_solve(para, None, u0.reshape(4 * g.n), None, cfg)
    with pytest.raises(PreconditionError, match="forcing"):
        linear_solve(para, None, u0, np.zeros((steps + 1, 4 * g.n)), cfg)


def test_blow_up_guard_stops_both_solvers():
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    fields = make_fields(g)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    steps = cfg.resolve_dt(g, 1.0)[1]
    forcing = np.zeros((steps + 1, 4, g.n), dtype=complex)
    forcing[steps // 2, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        linear_solve(para, None, real_state(fields), forcing, cfg)
    forced = BridgeSystem(g, 1.0, 1.0, gamma=1.0, f_b=lambda t: np.nan)
    with pytest.raises(NumericalError, match="non-finite"):
        oracle_solve(forced, *fields, cfg)


def test_blow_up_guard_trips_above_1e6_times_the_initial_norm():
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    para = ParalinearizedSystem(BridgeSystem(g, 1.0, 1.0), g)
    steps = cfg.resolve_dt(g, 1.0)[1]
    forcing = np.zeros((steps + 1, 4, g.n), dtype=complex)
    forcing[steps // 2, 1, 1] = 1e12  # finite, in the acceleration of one beam mode
    with pytest.raises(NumericalError, match="blow-up guard"):
        linear_solve(para, None, real_state(make_fields(g)), forcing, cfg)


@pytest.mark.parametrize("solver", ["oracle", "kato"])
def test_march_stores_the_real_nodes_and_their_norms(solver, marched):
    # the nodes are stored by the j >= 0 half of each marched real state
    # (4, n): node 0 is the half of the input coefficients bit for bit
    # (kato_solve's input is its stacked data, turned real once), and each
    # stored norm, taken from the real coordinates of the marched node, is
    # stacked_norm of its complexification to round-off
    g, sys = headline_system(32)
    fields = make_fields(g)
    cfg = SolverConfig(T_final=0.1)
    if solver == "oracle":
        run, u0 = oracle_solve(sys, *fields, cfg), real_state(fields)
    else:
        V0 = complexify(*fields).stacked()
        run, u0 = kato_solve(sys, V0, cfg), np.array(real_from_stacked(g, V0))
    assert run.trajectory.shape == (12, 4, g.n // 2 + 1)
    assert np.array_equal(run.trajectory[0], u0[:, : g.n // 2 + 1])
    assert len(marched[-1]) == 12
    for key in ("s0", "s1"):
        s = getattr(cfg.ladder, key)
        for u, norm in zip(marched[-1], run.norms[key]):
            expect = stacked_norm(g, stacked_from_real(g, *u), s)
            assert abs(norm - expect) <= 1e-14 * expect
    assert np.array_equal(run.final, stacked_from_real(g, *_full(g, run.trajectory[-1])))


@pytest.mark.parametrize("solver", ["oracle", "kato", "linear"])
def test_each_solver_stores_the_j_ge_0_half_of_its_marched_states(solver, marched):
    # modes 0..n/2 of every marched node, bit for bit, the Nyquist mode as marched
    g = TorusGrid(32)
    sysm, fields = build_preset("mixed", g)
    cfg = SolverConfig(T_final=0.05, eps=1e-3 if solver == "linear" else 0.0)
    if solver == "oracle":
        run = oracle_solve(sysm, *fields, cfg)
    elif solver == "kato":
        run = kato_solve(sysm, complexify(*fields).stacked(), cfg)
        assert len(marched) == len(run.increments) + 1  # the last march is the result
    else:
        para = ParalinearizedSystem(sysm, g)
        u0 = real_state(fields)
        steps = cfg.resolve_dt(g, 1.0)[1]
        nodes = np.repeat(u0[:, None], steps + 1, axis=1)
        run = linear_solve(para, para.prepass(nodes)[1], u0, np.moveaxis(
            para.kato_forcing(nodes, np.zeros(steps + 1)), 0, 1), cfg)
    full = np.array(marched[-1])
    assert full.shape == (len(run.times), 4, g.n)
    assert np.array_equal(run.trajectory, full[..., : g.n // 2 + 1])


@pytest.mark.parametrize("preset", ["headline", "mixed", "parity"])
def test_final_is_an_exact_conjugate_pair(preset):
    g = TorusGrid(32)
    sysm, fields = build_preset(preset, g)
    cfg = SolverConfig(T_final=0.05)
    for run in (oracle_solve(sysm, *fields, cfg),
                kato_solve(sysm, complexify(*fields).stacked(), cfg)):
        assert is_conjugate_pair(g, run.final, tol=0.0)
        z = run.final[: g.n]
        assert np.array_equal(run.final[g.n : 2 * g.n], np.conj(z[g.reflect]))


@pytest.mark.parametrize("preset", PRESETS)
def test_gap_and_sup_norm_from_halves_match_the_full_states(preset):
    # the Hermitian weights on the stored halves against the full states
    # (4, n) rebuilt here, normed with the full weights
    g = TorusGrid(64)
    sysm, fields = build_preset(preset, g)
    cfg = SolverConfig(T_final=0.02)
    kat = kato_solve(sysm, complexify(*fields).stacked(), cfg)
    orc = oracle_solve(sysm, *fields, cfg)

    def full_states(run):
        half = run.trajectory
        return np.concatenate([half, np.conj(half[..., g.n // 2 - 1 : 0 : -1])], axis=-1)

    for s in (cfg.ladder.s0, cfg.ladder.s1):
        w = real_norm_weights(g, s)

        def norms(u):
            return np.sqrt(np.sum(w * np.abs(u) ** 2, axis=(-2, -1)))

        ref_gap = np.max(norms(full_states(kat) - full_states(orc)))
        assert abs(trajectory_gap(g, kat, orc, s) - ref_gap) <= 1e-13 * ref_gap
        for run in (kat, orc):
            ref_sup = np.max(norms(full_states(run)))
            assert abs(run.sup_norm(s) - ref_sup) <= 1e-13 * ref_sup


def test_run_result_refuses_a_trajectory_that_is_not_a_half():
    g = TorusGrid(16)
    for nodes in (np.zeros((2, 4, g.n)), np.zeros((2, 4, g.n // 2)), np.zeros((2, 4 * g.n))):
        with pytest.raises(PreconditionError, match="j >= 0 half"):
            RunResult(g, [0.0, 0.1], nodes, {}, "completed")
    RunResult(g, [0.0, 0.1], np.zeros((2, 4, g.n // 2 + 1)), {}, "completed")


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


def test_kato_preserves_reality(marched):
    # on the marched nodes: the stored halves are real states by construction
    g, sys = headline_system(32)
    kato_solve(sys, complexify(*make_fields(g)).stacked(), SolverConfig(T_final=0.05))
    nodes = marched[-1]
    for u in nodes[:: max(1, len(nodes) // 5)]:
        assert is_conjugate_pair(g, stacked_from_real(g, *u), tol=1e-10)


def test_oracle_trivial_exact_phases():
    # constant coefficients, no nonlinearity: y_j(t) = cos(j^2 t) y_j(0)
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    y0 = transform(g, np.cos(2 * g.x))
    zero = transform(g, np.zeros(g.n))
    th0 = transform(g, np.cos(3 * g.x))
    cfg = SolverConfig(dt=1e-3, T_final=0.5)
    run = oracle_solve(sys, y0, zero, th0, zero, cfg)
    y, _, th, _ = np.fft.irfft(run.trajectory[-1], g.n, norm="forward")
    assert np.max(np.abs(y.real - np.cos(4.0 * 0.5) * np.cos(2 * g.x))) < 1e-8
    assert np.max(np.abs(th.real - np.cos(3.0 * 0.5) * np.cos(3 * g.x))) < 1e-8


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
    # the time-stepping path applies the real-form generator: the linear part
    # by FFT plus gathered blocks, with no frakA / frakB matrix; the one frakA
    # call is the constructor's quantization of frakA(0)
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
    assert per_run[0]["frak_A"] == 1 and "frak_B" not in per_run[0], per_run


def test_kato_sweep_leaving_the_smallness_radius_is_refused():
    # F2 = theta theta_xx, so c + dF2/d(theta_xx) = 1 + theta; the forcing
    # delta sin t drives theta below -1 by T = 1.  The data start well inside
    # the radius and the check at t = 0 passes; the trajectory of sweep 1
    # leaves the radius, so sweep 2 is refused
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=QuadraticNonlinearity(g, [(1.0, 3, 5)]), delta=-10.0)
    fields = make_fields(g)
    config = SolverConfig(T_final=1.0)
    assert sys.check_radius_condition(0.25) > 0.5
    with pytest.raises(PreconditionError, match="sweep 2 .* smallness radius"):
        kato_solve(sys, complexify(*fields).stacked(), config)
    # the refusal is genuine: on the oracle's trajectory 1 + theta turns negative
    theta = np.fft.irfft(oracle_solve(sys, *fields, config).trajectory[-1, 2], g.n, norm="forward")
    assert np.min(1.0 + theta.real) < 0.0


def test_kato_checks_the_exact_margin_not_the_speeds():
    # delta = -1000 drives |theta_t| to about 5 by T = 0.1, which a radius
    # over jets and speeds would feed into the box bound (c3 = -4); the
    # hypothesis involves the jet only, and 1 + theta stays above 0.8, so
    # every sweep runs and the result matches the oracle
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=QuadraticNonlinearity(g, [(1.0, 3, 5)]), delta=-1000.0)
    fields = make_fields(g)
    config = SolverConfig(T_final=0.1)
    kat = kato_solve(sys, complexify(*fields).stacked(), config)
    assert kat.termination == "converged"
    orc = oracle_solve(sys, *fields, config)
    theta = np.fft.irfft(orc.trajectory[:, 2], g.n, norm="forward")
    assert np.min(1.0 + theta) > 0.8
    s1 = config.ladder.s1
    assert trajectory_gap(g, kat, orc, s1) <= 1e-4 * orc.sup_norm(s1)


def test_kato_radius_at_t0_takes_every_jet_slot():
    # F2 = theta_xx^2 reads theta_xx only, and the data leave it zero; the
    # beam jet of size 1 still sets the radius, 1 - 2 * 2R < 0, so the solve
    # is refused (exit code 3) as when the jet was taken over all six slots
    g, sys = headline_system(32)
    zero = transform(g, 0.0 * g.x)
    V0 = complexify(transform(g, np.cos(g.x)), zero, zero, zero).stacked()
    with pytest.raises(PreconditionError, match="smallness radius"):
        kato_solve(sys, V0, SolverConfig(T_final=0.01))
    assert sys.check_radius_condition(1e-12) > 0  # the read slot alone would pass


def test_kato_refuses_initial_data_that_is_not_a_conjugate_pair():
    g, sys = headline_system(32)
    V0 = complexify(*make_fields(g)).stacked()
    bad = V0.copy()
    bad[g.n + 1] += 1e-9 * np.max(np.abs(V0))  # the zbar slot no longer conj(z(-j))
    with pytest.raises(PreconditionError, match="conjugate pair"):
        kato_solve(sys, bad, SolverConfig(T_final=0.01))


@pytest.mark.parametrize("preset", PRESETS)
def test_kato_accepts_every_preset_data(preset):
    g = TorusGrid(32)
    sysm, fields = build_preset(preset, g)
    run = kato_solve(sysm, complexify(*fields).stacked(), SolverConfig(T_final=0.01))
    assert run.termination == "converged"
