"""Time integration: CFL, heat factors, linear flow, Kato, experiments."""

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem, QuadraticNonlinearity
from beamwave.errors import NumericalError, PreconditionError
from beamwave.evolve import (
    KATO_OPERATORS,
    KATO_TRAJECTORIES,
    _full,
    _march,
    _rk4,
    _time_grid,
    RunResult,
    SolverConfig,
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
    conjugate_pair,
    is_conjugate_pair,
    real_from_stacked,
    real_norm_weights,
    stacked_from_real,
    stacked_norm,
)
from test_paralin import odd_stacked_matrix


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


def duhamel_smoothing_ratio(grid, eps, t, kind="beam"):
    """Sharp constant of the Duhamel heat bound: the H^{sigma} norm of
    int_0^t e^{-eps(t-t') D} f dt' per unit sup-norm of f in the stated
    weaker space (H^{sigma-2} beam, H^{sigma-1/2} wave), maximized over
    single modes.  Scales as t^{1/2} eps^{-1/2} (beam), t^{3/4} eps^{-1/4}
    (wave) once the saturating mode is resolved."""
    j = np.abs(grid.modes.astype(float))
    br = grid.brackets
    if kind == "beam":
        rate = eps * j**4
        gain = br**2
    elif kind == "wave":
        rate = eps * j**2
        gain = br**0.5
    else:
        raise ValueError("kind must be 'beam' or 'wave'")
    with np.errstate(divide="ignore", invalid="ignore"):
        integral = np.where(rate > 0, (1.0 - np.exp(-rate * t)) / np.where(rate > 0, rate, 1.0), t)
    return float(np.max(integral * gain))


def test_duhamel_ratio_eps_zero_is_linear_in_t():
    g = TorusGrid(64)
    r = duhamel_smoothing_ratio(g, 0.0, 0.5, "beam")
    # rate = 0 everywhere: integral = t, gain max = <n/2>^2
    assert abs(r - 0.5 * (1.0 + (g.n // 2) ** 2)) < 1e-9


def decoupled_flow(para, u0, config):
    """The decoupled model flow d_t u = frakA(0) u, the linear part without
    the order-zero coupling R, unforced, marched by the solvers' RK4 step and
    march: its H^s norms are exact isometries.  frakA(0) acts as its dense
    stacked matrix, carried through the complexification."""
    g = para.grid
    dt, steps = _time_grid(para.source, config)
    A0 = odd_stacked_matrix(g, *para.frak_A(None))

    def A(u, _):
        return np.array(real_from_stacked(g, A0 @ stacked_from_real(g, *u)))

    return _march(g, config.ladder, dt, steps, u0, lambda k, u: _rk4(A, u, dt, (None,) * 3))


def test_decoupled_linear_flow_is_isometry():
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    u0 = real_state(make_fields(g))
    cfg = SolverConfig(T_final=0.1)
    run = decoupled_flow(para, u0, cfg)
    drift = np.max(np.abs(run.norms["s1"] - run.norms["s1"][0]))
    assert drift < 1e-10 * run.norms["s1"][0]


def test_linear_solve_background_shape_checks():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    u0 = real_state(make_fields(g))
    cfg = SolverConfig(T_final=0.01)
    with pytest.raises(PreconditionError, match="background"):
        linear_solve(para, np.zeros((3, 4 * g.n)), u0, cfg)
    with pytest.raises(PreconditionError, match="initial state"):
        linear_solve(para, None, u0.reshape(4 * g.n), cfg)
    # a frozen trajectory is read on the same time grid
    frozen = linear_solve(para, None, u0, cfg)
    with pytest.raises(PreconditionError, match="frozen trajectory"):
        linear_solve(para, frozen, u0, SolverConfig(T_final=0.1))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_linear_solve_is_forced_by_the_system(n):
    # a linear system with constant coefficients: at the zero background the
    # frozen flow is the system's own, and linear_solve takes its forcing G
    # from the system at the nodes, the midpoint's as their average; for an
    # affine f_b, f_w that average is the midpoint value, so it marches the
    # oracle's RK4 steps to round-off
    g = TorusGrid(n)
    sys = BridgeSystem(g, 1.0, 1.0, gamma=0.5, delta=-0.3,
                       f_b=lambda t: 2.0 + 30.0 * t, f_w=lambda t: -1.0 + 50.0 * t)
    fields = make_fields(g)
    cfg = SolverConfig(T_final=0.05)
    run = linear_solve(ParalinearizedSystem(sys, g), None, real_state(fields), cfg)
    orc = oracle_solve(sys, *fields, cfg)
    scale = np.max(np.abs(orc.trajectory))
    assert np.max(np.abs(run.trajectory - orc.trajectory)) <= 1e-13 * scale
    assert abs(orc.trajectory[-1, 1, 0]) > 1e-2  # the forcing moved the zero mode


def test_blow_up_guard_stops_both_solvers():
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    fields = make_fields(g)
    forced = BridgeSystem(g, 1.0, 1.0, gamma=1.0, f_b=lambda t: np.nan)
    with pytest.raises(NumericalError, match="non-finite"):
        linear_solve(ParalinearizedSystem(forced, g), None, real_state(fields), cfg)
    with pytest.raises(NumericalError, match="non-finite"):
        oracle_solve(forced, *fields, cfg)


def test_blow_up_guard_trips_above_1e6_times_the_initial_norm():
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    # finite, in the acceleration of the beam's zero mode, from T/2 on
    forced = BridgeSystem(g, 1.0, 1.0, gamma=1.0, f_b=lambda t: 1e12 if t >= 0.005 else 0.0)
    para = ParalinearizedSystem(forced, g)
    with pytest.raises(NumericalError, match="blow-up guard"):
        linear_solve(para, None, real_state(make_fields(g)), cfg)


@pytest.mark.parametrize("solver", ["oracle", "kato"])
def test_march_stores_the_real_nodes_and_their_norms(solver, marched):
    # the nodes are stored by the j >= 0 half of each marched real state
    # (4, n), or as the oracle marches them, (4, n//2 + 1): node 0 is the half
    # of the input coefficients bit for bit (kato_solve's input is its stacked
    # data, turned real once), and each stored norm, taken from the real
    # coordinates of the marched node, is stacked_norm of its
    # complexification to round-off
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
            u = _full(g, u) if solver == "oracle" else u
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
        run = linear_solve(para, para.prepass(nodes)[1], u0, cfg)
    full = np.array(marched[-1])
    width = g.n // 2 + 1 if solver == "oracle" else g.n  # the oracle marches the half
    assert full.shape == (len(run.times), 4, width)
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


def test_node_path_steps_are_frozen_at_their_midpoint_blocks():
    # each step applies Q_k + Q_{k+1}, the halves of its two nodes' blocks,
    # each formed once into one of two alternating buffers; a test-local march
    # applies the block at the midpoint g-functions (g_k + g_{k+1}) / 2 as the
    # sum's reference (g is linear), along a background that changes at every
    # node, forced by the system's G(t): the two agree to round-off at every node
    g = TorusGrid(32)
    sysm, fields = build_preset("mixed", g)
    sysm.gamma, sysm.delta, sysm.f_b = 0.5, -0.3, np.cos
    para = ParalinearizedSystem(sysm, g)
    u0 = real_state(fields)
    cfg = SolverConfig(T_final=0.1)
    dt, steps = cfg.resolve_dt(g, float(np.max(sysm.b.values().real)))
    nodes = u0[:, None] * (1.0 + np.sin(np.arange(steps + 1)))[:, None]
    bg = para.prepass(nodes)[1]
    forcing = np.moveaxis(para.forcing_G(dt * np.arange(steps + 1)), 0, 1)
    run = linear_solve(para, bg, u0, cfg)
    u = u0
    for k in range(steps):
        mid = para.frozen_node(0.5 * (bg[:, k] + bg[:, k + 1]))
        A = para.real_generator([(out, inp, Q + Q) for out, inp, Q in mid])
        u = _rk4(A, u, dt, (forcing[k], 0.5 * (forcing[k] + forcing[k + 1]), forcing[k + 1]))
        err = np.max(np.abs(run.trajectory[k + 1] - u[:, : g.n // 2 + 1]))
        assert err <= 1e-13 * np.max(np.abs(u)), (k, err)


def march_node_paths(para, g, u0, forcing, config):
    """The frozen flow along node paths, at eps = 0: the g-functions g
    (3, steps + 1, n) and forcing (steps + 1, 4, n) at the nodes; step k
    applies the sum Q_k + Q_{k+1} of the halves ``frozen_node`` forms at its
    two nodes and the forcing at its ends and their average."""
    dt, steps = _time_grid(para.source, config)

    def step(k, u):
        now, nxt = para.frozen_node(g[:, k]), para.frozen_node(g[:, k + 1])
        A = para.real_generator([(out, inp, Q0 + Q1)
                                 for (out, inp, Q0), (_, _, Q1) in zip(now, nxt)])
        f0, f1 = forcing[k], forcing[k + 1]
        return _rk4(A, u, dt, (f0, 0.5 * (f0 + f1), f1))

    return _march(para.grid, config.ladder, dt, steps, u0, step)


def kato_with_prepass(sys, V0, config):
    """The Kato iteration with each sweep's pre-pass over the whole trajectory
    it freezes (a reference for the streamed sweep): prepass, the wave margin
    node by node, kato_forcing, then a march along the node paths."""
    grid = sys.grid
    para = ParalinearizedSystem(sys, grid)
    u0 = np.array(real_from_stacked(grid, V0))
    dt, steps = _time_grid(sys, config)
    times = dt * np.arange(steps + 1)
    result = linear_solve(para, None, u0, config)
    increments = []
    while not increments or increments[-1] >= config.kato_tol:
        y, theta = _full(grid, np.moveaxis(result.trajectory[:, ::2], 1, 0))
        u = (y, None, theta, None)
        _, g, margin = para.prepass(u)
        assert np.all(margin > 0.0)
        forcing = np.moveaxis(para.kato_forcing(u, times), 0, 1)
        nxt = march_node_paths(para, g, u0, forcing, config)
        increments.append(trajectory_gap(grid, nxt, result, config.ladder.s1))
        result = nxt
    return result, increments


@pytest.mark.parametrize("preset", ["headline", "mixed", "damped", "arioli_gazzola"])
@pytest.mark.parametrize("n, steps", [(32, 12), (64, 16), (64, 1)])
def test_streamed_kato_sweeps_match_the_prepass_reference(preset, n, steps):
    # the march reads each frozen trajectory max(8, n // 8) nodes at a time:
    # 13 and 17 nodes are no multiple of that chunk, and a single step (2
    # nodes) is shorter than one; the norms agree to the last bit, the
    # trajectories and increments to round-off (measured: identical on every
    # case here)
    g = TorusGrid(n)
    sysm, fields = build_preset(preset, g)
    V0 = complexify(*fields).stacked()
    limit = SolverConfig().max_stable_dt(g, float(np.max(sysm.b.values().real)))
    cfg = SolverConfig(T_final=steps * limit * (1.0 - 1e-9))
    assert cfg.resolve_dt(g, float(np.max(sysm.b.values().real)))[1] == steps
    assert (steps + 1) % max(8, n // 8) != 0
    run = kato_solve(sysm, V0, cfg)
    ref, increments = kato_with_prepass(sysm, V0, cfg)
    for key in ("s0", "s1"):
        assert np.array_equal(run.norms[key], ref.norms[key])
    scale = np.max(np.abs(ref.trajectory))
    assert np.max(np.abs(run.trajectory - ref.trajectory)) <= 1e-15 * scale
    assert len(run.increments) == len(increments)
    for got, want in zip(run.increments, increments):
        assert abs(got - want) <= 1e-12 * want + 1e-30


def test_kato_preserves_reality(marched):
    # on the marched nodes: the stored halves are real states by construction
    g, sys = headline_system(32)
    kato_solve(sys, complexify(*make_fields(g)).stacked(), SolverConfig(T_final=0.05))
    nodes = marched[-1]
    for u in nodes[:: max(1, len(nodes) // 5)]:
        assert is_conjugate_pair(g, stacked_from_real(g, *u), tol=1e-10)


@pytest.mark.parametrize("preset, n, T", [("mixed", 16, 7.5), ("headline", 64, 0.1)])
def test_kato_keeps_the_unpaired_nyquist_mode_at_zero(preset, n, T, marched):
    # no background block reaches the mode -n/2 off its diagonal, so the slot
    # n//2 of every node stays exactly 0, as marched and as stored; mixed at
    # N = 16, T = 7.5 is a long run, in which such entries would reach 1e-6
    g = TorusGrid(n)
    sysm, fields = build_preset(preset, g)
    run = kato_solve(sysm, complexify(*fields).stacked(), SolverConfig(T_final=T))
    assert not np.any(run.trajectory[:, :, n // 2])
    assert not any(np.any(u[:, n // 2]) for nodes in marched for u in nodes)


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


def _project_stacked(grid, vec, N):
    """Zero all modes with |j| > N in each component."""
    n = grid.n
    keep = np.abs(grid.modes) <= N
    out = vec.copy().reshape(4, n)
    out[:, ~keep] = 0.0
    return out.reshape(4 * n)


def bona_smith_experiment(sys, V0, N_list, config, perturbation_sizes=()):
    """Kato runs from frequency-truncated data Pi_N V0, compared against the
    finest truncation; optionally perturbed-data runs for the continuity
    modulus of the solution map."""
    grid = sys.grid
    V0 = np.asarray(V0, dtype=complex)
    N_list = sorted(N_list)
    s = config.ladder.s1
    runs = {N: kato_solve(sys, _project_stacked(grid, V0, N), config) for N in N_list}
    ref = runs[N_list[-1]]
    gaps = {N: trajectory_gap(grid, runs[N], ref, s) for N in N_list[:-1]}
    report = {
        "N_list": list(N_list),
        "gaps": {str(N): float(g) for N, g in gaps.items()},
        "monotone": all(
            gaps[N_list[i]] >= gaps[N_list[i + 1]] - 1e-12 for i in range(len(N_list) - 2)
        ),
    }
    if perturbation_sizes:
        base = kato_solve(sys, V0, config)
        direction = _random_direction(grid, seed=7)
        moduli = {}
        for delta in perturbation_sizes:
            pert = kato_solve(sys, V0 + delta * direction, config)
            moduli[delta] = trajectory_gap(grid, pert, base, s) / delta
        report["perturbation_moduli"] = {("%g" % d): float(m) for d, m in moduli.items()}
    return report


def _random_direction(grid, seed=0):
    """Unit-H^{s} smooth conjugate-pair direction for perturbation studies."""
    rng = np.random.default_rng(seed)
    n = grid.n
    decay = grid.bracket_power(-6.0)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
    if n % 2 == 0:
        z[n // 2] = 0.0
        w[n // 2] = 0.0
    vec = conjugate_pair(grid, z, w)
    return vec / stacked_norm(grid, vec, 2.5)


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
    doc = run.to_json_dict(cfg)
    assert doc["termination"] == "converged"
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
    # by FFT plus the background blocks, with no frakA / frakB matrix; the one frakA
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
    # leaves the radius, so sweep 2 is refused at the first node outside it
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=QuadraticNonlinearity(g, [(1.0, 3, 5)]), delta=-10.0)
    fields = make_fields(g)
    config = SolverConfig(T_final=1.0)
    assert sys.check_radius_condition(0.25) > 0.5
    # sweep 1 as kato_solve marches it, and its first node outside the margin
    V0 = complexify(*fields).stacked()
    para = ParalinearizedSystem(sys, g)
    dt, steps = config.resolve_dt(g, 1.0)
    times = dt * np.arange(steps + 1)
    sweep1 = linear_solve(para, None, np.array(real_from_stacked(g, V0)), config)
    first = None
    for k, half in enumerate(sweep1.trajectory):
        y, _, theta, _ = _full(g, half)
        if sys.wave_margin(sys.F2.partial_values(5, sys.jets(y, theta))) <= 0.0:
            first = k
            break
    assert first is not None and 0 < first < steps
    with pytest.raises(PreconditionError, match="sweep 2 .* smallness radius") as err:
        kato_solve(sys, V0, config)
    assert "at node %d (t = %.6g)" % (first, times[first]) in str(err.value)
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
