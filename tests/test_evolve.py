"""Time integration: CFL, heat factors, linear flow, Kato, experiments."""

import copy

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem, bridge_system_from_json
import beamwave.evolve as evolve
from beamwave.errors import ConfigError, NumericalError, PreconditionError
from beamwave.evolve import (
    PLAN_FIXED,
    PLAN_ROW,
    _half_norm,
    _march,
    _paired_rk4,
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
from test_bridge import VARIABLE, fft_calls_of  # noqa: F401 (a fixture)
from test_paralin import odd_stacked_matrix


def real_state(fields):
    """The real state's half (4, n//2 + 1) of the fields (y, y_t, theta, theta_t)."""
    return np.array([u.coeffs[: u.grid.n // 2 + 1] for u in fields])


def no_plan(steps):
    """A memory plan of no bytes: ``resolve_dt``'s step count alone."""
    return 0


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
    return g, BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 5, 5)])


def test_solver_config_validation():
    with pytest.raises(PreconditionError):
        SolverConfig(T_final=0.0)
    with pytest.raises(PreconditionError):
        SolverConfig(eps=-1.0)
    with pytest.raises(PreconditionError):
        SolverConfig(cfl_safety=1.5)


def test_a_horizon_whose_square_underflows_is_refused():
    # the fitted growth squares the node times: below sqrt(tiny) they underflow
    # and np.polyfit raised LinAlgError from the manifest, after the solve
    tiny = float(np.sqrt(np.finfo(float).tiny))
    for T in (1e-170, 0.999 * tiny):
        with pytest.raises(ConfigError, match="T_final must be at least"):
            SolverConfig(T_final=T)
    g, sysm = headline_system(16)
    run = oracle_solve(sysm, *make_fields(g), SolverConfig(T_final=1.01 * tiny))
    assert np.isfinite(run.to_json_dict(SolverConfig())["fitted_growth"])


def test_resolve_dt_integer_steps_and_cfl():
    g = TorusGrid(32)
    cfg = SolverConfig(T_final=0.1)
    dt, steps = cfg.resolve_dt(g, 1.0, no_plan)
    assert abs(dt * steps - 0.1) < 1e-15
    assert dt <= cfg.max_stable_dt(g, 1.0) * (1 + 1e-12)
    with pytest.raises(PreconditionError):
        SolverConfig(dt=1.0, T_final=0.1).resolve_dt(g, 1.0, no_plan)


def textbook_rk4(f, u, dt, args):
    """One classical RK4 step of du/dt = f(u, a), a = args[0], args[1], args[2]
    at the start, midpoint and end of the step, four stages in the textbook's
    order: u + (dt/6)(k1 + 2 k2 + 2 k3 + k4)."""
    k1 = f(u, args[0])
    k2 = f(u + 0.5 * dt * k1, args[1])
    k3 = f(u + 0.5 * dt * k2, args[1])
    k4 = f(u + dt * k3, args[2])
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_paired_rk4_step_is_the_textbook_combination_to_round_off():
    # a random linear second-order system x'' = M x + D x' + g with damping D
    # and a forcing g of its own at the start, midpoint and end of the step:
    # the paired step, two calls of the position part on a pair of stages each,
    # is the textbook's four stages, reassociated, to round-off; it leaves u as
    # it is and calls the force on (2, 2, n//2 + 1) pairs only
    rng = np.random.default_rng(11)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    damping = rng.standard_normal((2, 1))
    u = rng.standard_normal((4, 17)) + 1j * rng.standard_normal((4, 17))
    forcing = rng.standard_normal((3, 2, 17)) + 1j * rng.standard_normal((3, 2, 17))
    dt = 0.037
    shapes = []

    def force(x):
        shapes.append(x.shape)
        return np.einsum("ab,b...->a...", M, x)

    def rhs(D):
        def f(w, g):
            dw = np.empty_like(w)
            dw[0::2] = w[1::2]
            dw[1::2] = M @ w[0::2] + D * w[1::2] + g
            return dw

        return f

    u_before = u.copy()
    # damped and forced; then undamped and unforced (no forcing is g = 0)
    for D, g in ((damping, forcing), (0.0 * damping, None)):
        expect = textbook_rk4(rhs(D), u, dt, np.zeros(3) if g is None else g)
        got = _paired_rk4(force, D, u, dt, g)
        assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))
    assert np.array_equal(u, u_before) and shapes == [(2, 2, 17)] * 4


def test_a_headline_oracle_step_transforms_each_pair_of_stages_once(fft_calls_of, monkeypatch):
    # the oracle marches by the paired step: two calls of the force a step, each
    # on a pair of stage positions, whose jets (the one slot theta_xx) take one
    # irfft and whose F2 takes one rfft, each on two rows
    g = TorusGrid(64)
    sysm, fields = build_preset("headline", g)
    u = real_state(fields)
    step = (sysm.force, sysm.damping, u, 1e-3, None)
    assert fft_calls_of(_paired_rk4, *step) == [("irfft", 2), ("rfft", 2)] * 2
    shapes, force = [], BridgeSystem.force

    def recording(self, x):
        shapes.append(x.shape)
        return force(self, x)

    monkeypatch.setattr(BridgeSystem, "force", recording)
    run = oracle_solve(sysm, *fields, SolverConfig(T_final=0.01))
    assert shapes == [(2, 2, g.n // 2 + 1)] * 2 * (len(run.times) - 1)


def test_a_kato_step_makes_one_product_per_block_and_stage_pair(monkeypatch):
    # mixed, all three background blocks: each step of a sweep that freezes a
    # background applies each block once to each of its two pairs of stages, a
    # (2 x n) @ (n x (n/2 + 1)) product and nothing else, and each node's forcing
    # takes one vecdot per block on one vector
    g = TorusGrid(32)
    n, h = g.n, g.n // 2 + 1
    sysm, fields = build_preset("mixed", g)
    calls, vecdots = [], []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append((ufunc.__name__, [np.shape(a) for a in inputs]))
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    generator, vecdot = ParalinearizedSystem.real_generator, np.vecdot

    def recording(self, blocks):
        return generator(self, [(out, inp, P.view(Recorded)) for out, inp, P in blocks])

    def counting(a, b, *args, **kwargs):
        vecdots.append((np.shape(a), np.shape(b)))
        return vecdot(a, b, *args, **kwargs)

    monkeypatch.setattr(ParalinearizedSystem, "real_generator", recording)
    monkeypatch.setattr(np, "vecdot", counting)
    run = kato_solve(sysm, complexify(*fields).stacked(), SolverConfig(T_final=0.02))
    steps, frozen = len(run.times) - 1, len(run.increments)  # sweep 1 freezes nothing
    assert calls == [("matmul", [(2, n), (n, h)])] * (3 * 2 * steps * frozen)
    assert vecdots == [((n,), (h, n))] * (3 * (steps + 1) * frozen)


def solve_steps(solver, preset, n, steps):
    """(grid, system, run) of one solve of ``steps`` steps from the preset's data,
    or of a system document with the data the CLI gives a system file."""
    g = TorusGrid(n)
    if isinstance(preset, dict):
        sysm, fields = bridge_system_from_json(preset, g), build_preset("linear", g)[1]
    else:
        sysm, fields = build_preset(preset, g)
    limit = SolverConfig().max_stable_dt(g, float(np.max(sysm.b.values().real)))
    cfg = SolverConfig(T_final=steps * limit * (1.0 - 1e-9))
    if solver == "oracle":
        return g, sysm, oracle_solve(sysm, *fields, cfg)
    return g, sysm, kato_solve(sysm, complexify(*fields).stacked(), cfg)


@pytest.fixture(scope="module")
def warm_interpreter():
    # the first solves of a process fill interpreter and numpy caches, which
    # tracemalloc would count as the traced solve's; the dense-frakA(0) set-up
    # (b and c profiles) fills its own, about 1 KB past its plan's slack
    for solver in ("kato", "oracle"):
        solve_steps(solver, "mixed", 16, 3)
    solve_steps("kato", {"b": "cosine:0.3", "c": "cosine:0.2"}, 16, 1)


def traced_plan(solver, preset, n, steps):
    """(grid, traced peak, plan) of one solve, grid and system built while traced."""
    import tracemalloc

    tracemalloc.start()
    try:
        g, sysm, run = solve_steps(solver, preset, n, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.times) == steps + 1
    if solver == "oracle":
        return g, peak, evolve._oracle_plan(g, steps)
    return g, peak, evolve._kato_plan(ParalinearizedSystem(sysm, g), steps)


@pytest.mark.parametrize("steps", [1, 100], ids=["one_step", "long"])
@pytest.mark.parametrize("n", [16, 32, 64, 256])
@pytest.mark.parametrize("preset", ["headline", "mixed", "damped", "arioli_gazzola"])
@pytest.mark.parametrize("solver", ["kato", "oracle"])
def test_each_solvers_peak_memory_is_within_its_plan(solver, preset, n, steps, warm_interpreter):
    # the memory refusal checks each solver's plan (evolve.py): the arrays it
    # allocates, by their sizes, plus its bookkeeping, PLAN_FIXED + PLAN_ROW n.
    # The traced peak, grid and system built while traced, stays within the
    # plan, and the plan exceeds it by less than 10% beyond the bookkeeping:
    # a Kato solve holding a second trajectory (long: +0.83 MB at mixed,
    # N = 256, where the plan's slack is 0.23 MB), full n x n node blocks
    # (one step and long, mixed, N = 32-256) or the grid's chi formed on the
    # whole lattice fails here, and so does an oracle holding its trajectory
    # (long, N = 256: 0.83 MB against a plan of 0.33 MB).  Measured plan /
    # peak: Kato 1.03-1.13 at N = 256, up to 2.78 at N = 16; the oracle
    # 1.87-5.28, its plan its bookkeeping, one node and three floats a node
    g, peak, plan = traced_plan(solver, preset, n, steps)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n


@pytest.mark.parametrize("steps", [1, 100], ids=["one_step", "long"])
@pytest.mark.parametrize("preset", ["headline", "mixed", "damped", "arioli_gazzola"])
def test_the_oracles_peak_memory_at_n512_is_within_its_plan(preset, steps, warm_interpreter):
    # the oracle's plan at N = 512, where its march is the benchmark's: the
    # buffers its system holds for a pair of stages (the jets, F's values and
    # hat) are PLAN_ROW's pair's jets, eight complex rows of n and 32 bytes
    n = 512
    g, peak, plan = traced_plan("oracle", preset, n, steps)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n
    jets, buffers = build_preset(preset, g)[0]._held
    assert jets.nbytes + sum(b.nbytes for b in buffers) == 8 * 16 * n + 32


@pytest.mark.parametrize("steps", [1, 64], ids=["one_step", "two_chunks"])
@pytest.mark.parametrize("preset", ["headline", "mixed"])
def test_a_kato_solves_peak_memory_at_n512_is_within_its_plan(preset, steps, warm_interpreter):
    # the Kato plan at N = 512, the largest set-up that the tests reach: its
    # real-form tables, formed by their rows 0..n/2 and every column
    # (``weyl_table``), and its march in chunks of 64 nodes, one step or 64
    # (65 nodes: a full chunk and a short second one)
    n = 512
    assert evolve._chunk_nodes(n) == 64
    g, peak, plan = traced_plan("kato", preset, n, steps)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n


@pytest.mark.parametrize("steps", [1, 100], ids=["one_step", "long"])
def test_a_dense_frakA0_with_no_table_is_planned_at_its_set_up(steps, warm_interpreter):
    # b and c profiles and no F: frakA(0)'s blocks are dense, so set-up forms
    # chi, though no table or node block exists.  The plan has no set-up term:
    # frakA(0)'s arrays beside the march's chi and mask cover the set-up
    # (plan / peak 1.006 at one step, 1.091 at 100).  The traced peak is
    # within the plan test's bound
    n, doc = 256, {"b": "cosine:0.3", "c": "cosine:0.2"}
    g, peak, plan = traced_plan("kato", doc, n, steps)
    para = ParalinearizedSystem(bridge_system_from_json(doc, g), g)
    assert para._real_blocks == [] and para._A0[1][0][0].shape == (n, n)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n


def test_a_run_of_one_chunk_is_planned_at_its_one_chunk_peak(warm_interpreter):
    # mixed at N = 256, 27 steps: 28 nodes in one chunk of max(8, n/8) = 32,
    # so the prepass runs before any node block exists and no chunk's forcing
    # is held beside the next one's.  Planned at the multi-chunk peak, its
    # slack was about four trajectories (0.23 MB each); planned at its own
    # peak, the slack is less than one, so a solve holding a second
    # trajectory exceeds its plan
    n, steps = 256, 27
    assert steps + 1 < evolve._chunk_nodes(n)
    g, peak, plan = traced_plan("kato", "mixed", n, steps)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n
    assert plan - peak < evolve._trajectory_bytes(g, steps)


@pytest.mark.parametrize("preset, steps", [("headline", 40), ("arioli_gazzola", 27)])
def test_a_short_second_chunk_and_a_first_prepass_are_planned(preset, steps, warm_interpreter):
    # N = 256, chunks of 32 nodes.  headline, 40 steps: a second chunk of 9
    # nodes, planned at the full chunk on both sides of the change of chunk,
    # read plan / peak 1.31.  arioli_gazzola, 27 steps: one chunk, no table,
    # so no node block absorbs the first chunk's prepass, which a plan of
    # the march alone missed (plan / peak 0.85)
    n = 256
    g, peak, plan = traced_plan("kato", preset, n, steps)
    assert peak <= plan < 1.1 * peak + PLAN_FIXED + PLAN_ROW * n


def test_memory_refusal_admits_and_refuses_by_each_solvers_plan(monkeypatch, marched):
    # physical memory exactly a plan admits its step count; one step more is
    # refused, with ConfigError before any march, so before any trajectory
    g = TorusGrid(32)
    sysm, fields = build_preset("mixed", g)
    V0 = complexify(*fields).stacked()
    limit = SolverConfig().max_stable_dt(g, float(np.max(sysm.b.values().real)))

    def config(steps):
        return SolverConfig(T_final=steps * limit * (1.0 - 1e-9))

    memory = []
    monkeypatch.setattr(evolve, "physical_memory_bytes", lambda: memory[-1])
    kato_plan = evolve._kato_plan(ParalinearizedSystem(sysm, g), 100)
    oracle_plan = evolve._oracle_plan(g, 100)
    # the former budget, four trajectories and 18 n x n operators, refused this run
    assert (4 * (100 + 2) * 4 * (g.n // 2 + 1) + 18 * g.n**2) * 16 > 2 * kato_plan
    memory.append(kato_plan)
    assert kato_solve(sysm, V0, config(100)).termination == "converged"
    marched.clear()
    with pytest.raises(ConfigError, match="physical memory"):
        kato_solve(sysm, V0, config(101))
    assert marched == []
    # the oracle is judged by its own plan: the Kato solve's refuses its run
    memory.append(oracle_plan)
    assert oracle_plan < kato_plan
    assert len(oracle_solve(sysm, *fields, config(100)).times) == 101
    marched.clear()
    for refused in (lambda: oracle_solve(sysm, *fields, config(101)),
                    lambda: kato_solve(sysm, V0, config(100))):
        with pytest.raises(ConfigError, match="physical memory"):
            refused()
    assert marched == []


def test_an_oracle_solve_holds_no_trajectory(warm_interpreter):
    # headline, N = 256, T = 0.1: 651 steps, whose stored trajectory is 5.38 MB.
    # The march keeps its norms and its last node (measured peak 0.10 MB)
    import tracemalloc

    g = TorusGrid(256)
    sysm, fields = build_preset("headline", g)
    tracemalloc.start()
    try:
        run = oracle_solve(sysm, *fields, SolverConfig(T_final=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.times) == 652
    assert peak < evolve._trajectory_bytes(g, 651) / 4


@pytest.mark.parametrize("preset", PRESETS + ("variable",))
def test_an_oracle_trajectory_read_is_its_marched_nodes_bit_for_bit(preset, marched):
    # the trajectory is re-marched on its first read, once: the nodes, final,
    # sup norms and the gap to a Kato run are those of the march, bit for bit
    g = TorusGrid(64)
    if preset == "variable":
        sysm, fields = bridge_system_from_json(VARIABLE, g), build_preset("headline", g)[1]
    else:
        sysm, fields = build_preset(preset, g)
    cfg = SolverConfig(T_final=0.05)
    kat = kato_solve(sysm, complexify(*fields).stacked(), cfg)
    marched.clear()
    run = oracle_solve(sysm, *fields, cfg)
    nodes = np.array(marched[0])
    stored = RunResult(g, run.times, nodes, run.norms, run.termination, run.increments)
    final = run.final
    assert len(marched) == 1 and final.tobytes() == stored.final.tobytes()
    s1 = cfg.ladder.s1
    gap = trajectory_gap(g, kat, run, s1)
    assert len(marched) == 2
    assert run.trajectory.tobytes() == nodes.tobytes()
    assert gap == trajectory_gap(g, kat, stored, s1)
    for s in (cfg.ladder.s0, s1):
        assert run.sup_norm(s) == stored.sup_norm(s)
    assert run.final.tobytes() == final.tobytes()
    assert len(marched) == 2


def test_an_oracle_trajectory_too_large_for_memory_is_refused_on_read(monkeypatch, marched):
    # physical memory at the oracle's plan admits its march; its trajectory,
    # more than four times the plan, is refused on read before any array or step
    import tracemalloc

    g, sysm = headline_system(16)
    fields = make_fields(g)
    limit = SolverConfig().max_stable_dt(g, 1.0)
    steps = 2000
    cfg = SolverConfig(T_final=steps * limit * (1.0 - 1e-9))
    plan = evolve._oracle_plan(g, steps)
    assert evolve._trajectory_bytes(g, steps) > 4 * plan
    monkeypatch.setattr(evolve, "physical_memory_bytes", lambda: plan)
    run = oracle_solve(sysm, *fields, cfg)
    assert len(run.times) == steps + 1 and len(marched) == 1
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="physical memory"):
            run.trajectory
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(marched) == 1 and peak < plan
    assert np.array_equal(run.final, stacked_from_real(g, *g.full(marched[0][-1])))
    monkeypatch.setattr(evolve, "physical_memory_bytes", lambda: 2**40)
    assert np.array_equal(run.trajectory, np.array(marched[0]))


def test_heat_factor_layout():
    g = TorusGrid(8)
    h = heat_factor(g, 0.1, 0.5)
    j = np.arange(5.0)
    assert h.shape == (4, 5)
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
    the order-zero coupling R, unforced, marched by the textbook RK4 step
    (its position rows are not the velocities) and the solvers' march: its
    H^s norms are exact isometries.  frakA(0) acts on real states'
    halves as its dense stacked matrix, carried through the complexification."""
    g = para.grid
    dt, steps = _time_grid(para.source, config, no_plan)
    A0 = odd_stacked_matrix(g, *para.frak_A(None))

    def A(u, _):
        v = A0 @ stacked_from_real(g, *g.full(u))
        return np.array(real_from_stacked(g, v))[:, : g.n // 2 + 1]

    return _march(g, config.ladder, dt, steps, u0,
                  lambda k, u: textbook_rk4(A, u, dt, (None,) * 3))


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
    for bad in (u0.reshape(-1), g.full(u0)):  # the half of a real state only
        with pytest.raises(PreconditionError, match="initial state"):
            linear_solve(para, None, bad, cfg)
    # a frozen trajectory is read on the same time grid
    frozen = linear_solve(para, None, u0, cfg)
    with pytest.raises(PreconditionError, match="frozen trajectory"):
        linear_solve(para, frozen, u0, SolverConfig(T_final=0.1))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_linear_solve_is_forced_by_the_system(n, monkeypatch):
    # a linear system with constant coefficients: at the zero background the
    # frozen flow is the system's own, and linear_solve takes its forcing G
    # from the system at the nodes, the midpoint's as their average; for a
    # forcing affine in t (patched in for delta sin t, which both solvers read
    # from BridgeSystem.forcing) that average is the midpoint value, so it
    # marches the oracle's RK4 steps to round-off
    g = TorusGrid(n)
    sys = BridgeSystem(g, 1.0, 1.0, delta=1.0)
    monkeypatch.setattr(sys, "forcing", lambda t: 2.0 + 30.0 * np.asarray(t))
    fields = make_fields(g)
    cfg = SolverConfig(T_final=0.05)
    run = linear_solve(ParalinearizedSystem(sys, g), None, real_state(fields), cfg)
    orc = oracle_solve(sys, *fields, cfg)
    scale = np.max(np.abs(orc.trajectory))
    assert np.max(np.abs(run.trajectory - orc.trajectory)) <= 1e-13 * scale
    assert abs(orc.trajectory[-1, 3, 0]) > 1e-2  # the forcing moved the zero mode


@pytest.mark.parametrize("row", ["out", "in"])
def test_linear_solve_refuses_a_block_outside_the_second_order_form(row, marched):
    # the paired step takes x' = v: a background block that wrote a position row,
    # or read a velocity row, would break it, and is refused before the march
    g = TorusGrid(16)
    sysm, fields = build_preset("mixed", g)
    para = ParalinearizedSystem(sysm, g)
    i, out, inp, mult = para._specs[0]
    para._specs[0] = (i, out - 1, inp, mult) if row == "out" else (i, out, inp + 1, mult)
    with pytest.raises(PreconditionError, match="x'' = force"):
        linear_solve(para, None, real_state(fields), SolverConfig(T_final=0.01))
    assert marched == []


def test_blow_up_guard_stops_both_solvers(monkeypatch):
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    fields = make_fields(g)
    forced = BridgeSystem(g, 1.0, 1.0, delta=1.0)
    monkeypatch.setattr(forced, "forcing", lambda t: np.full(np.shape(t), np.nan))
    with pytest.raises(NumericalError, match="non-finite"):
        linear_solve(ParalinearizedSystem(forced, g), None, real_state(fields), cfg)
    with pytest.raises(NumericalError, match="non-finite"):
        oracle_solve(forced, *fields, cfg)


def test_blow_up_guard_trips_above_1e6_times_the_initial_norm(monkeypatch):
    g = TorusGrid(16)
    cfg = SolverConfig(T_final=0.01)
    # finite, in the acceleration of the wave's zero mode, from T/2 on
    forced = BridgeSystem(g, 1.0, 1.0, delta=1.0)
    monkeypatch.setattr(forced, "forcing", lambda t: np.where(np.asarray(t) >= 0.005, 1e12, 0.0))
    para = ParalinearizedSystem(forced, g)
    with pytest.raises(NumericalError, match="blow-up guard"):
        linear_solve(para, None, real_state(make_fields(g)), cfg)


@pytest.mark.parametrize("solver", ["oracle", "kato"])
def test_march_stores_the_real_nodes_and_their_norms(solver, marched):
    # the nodes are stored as each solver marches them, by the j >= 0 half
    # (4, n//2 + 1) of the real state: node 0 is the half of the input
    # coefficients bit for bit (kato_solve's input is its stacked data, turned
    # real once), and each stored norm, taken from the real coordinates of the
    # marched node, is stacked_norm of its complexification to round-off
    g, sys = headline_system(32)
    fields = make_fields(g)
    cfg = SolverConfig(T_final=0.1)
    if solver == "oracle":
        run, u0 = oracle_solve(sys, *fields, cfg), real_state(fields)
    else:
        V0 = complexify(*fields).stacked()
        run, u0 = kato_solve(sys, V0, cfg), np.array(real_from_stacked(g, V0))[:, : g.n // 2 + 1]
    assert run.trajectory.shape == (12, 4, g.n // 2 + 1)
    assert np.array_equal(run.trajectory[0], u0)
    assert len(marched[-1]) == 12
    for key in ("s0", "s1"):
        s = getattr(cfg.ladder, key)
        for u, norm in zip(marched[-1], run.norms[key]):
            expect = stacked_norm(g, stacked_from_real(g, *g.full(u)), s)
            assert abs(norm - expect) <= 1e-14 * expect
    assert np.array_equal(run.final, stacked_from_real(g, *g.full(run.trajectory[-1])))


@pytest.mark.parametrize("solver", ["oracle", "kato", "linear"])
def test_each_solver_stores_the_j_ge_0_half_of_its_marched_states(solver, marched):
    # every marched node as it is, bit for bit: each solver marches the half
    # (4, n//2 + 1), modes 0..n/2, the Nyquist mode as marched
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
        steps = cfg.resolve_dt(g, 1.0, no_plan)[1]
        nodes = np.repeat(u0[:, None], steps + 1, axis=1)
        run = linear_solve(para, para.prepass(nodes)[1], u0, cfg)
    nodes = np.array(marched[-1])
    assert nodes.shape == (len(run.times), 4, g.n // 2 + 1)
    assert np.array_equal(run.trajectory, nodes)


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


@pytest.mark.parametrize("preset", PRESETS)
def test_sup_norm_is_the_largest_of_the_marched_norms_bit_for_bit(preset, marched):
    # sup_norm reads the norm series the march took: the node-by-node maximum
    # over the stored trajectory, bit for bit, and an oracle result answers it
    # with no re-march of its trajectory.  Any other s has no series
    g = TorusGrid(64)
    sysm, fields = build_preset(preset, g)
    cfg = SolverConfig(T_final=0.05)
    keys = (cfg.ladder.s0, cfg.ladder.s1)
    for solve in (lambda: kato_solve(sysm, complexify(*fields).stacked(), cfg),
                  lambda: oracle_solve(sysm, *fields, cfg)):
        marched.clear()
        run = solve()
        marches = len(marched)
        sups = [run.sup_norm(s) for s in keys]
        assert len(marched) == marches
        assert sups == [max(map(_half_norm(g, s), run.trajectory)) for s in keys]
        with pytest.raises(ConfigError, match="H\\^s0 and H\\^s1"):
            run.sup_norm(cfg.ladder.s2)


def test_run_result_refuses_a_trajectory_that_is_not_a_half():
    g = TorusGrid(16)
    for nodes in (np.zeros((2, 4, g.n)), np.zeros((2, 4, g.n // 2)), np.zeros((2, 4 * g.n))):
        with pytest.raises(PreconditionError, match="j >= 0 half"):
            RunResult(g, [0.0, 0.1], nodes, {}, "completed", [])
    RunResult(g, [0.0, 0.1], np.zeros((2, 4, g.n // 2 + 1)), {}, "completed", [])


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
    sysm.delta = -0.3
    para = ParalinearizedSystem(sysm, g)
    u0 = real_state(fields)
    cfg = SolverConfig(T_final=0.1)
    dt, steps = cfg.resolve_dt(g, float(np.max(sysm.b.values().real)), no_plan)
    nodes = u0[:, None] * (1.0 + np.sin(np.arange(steps + 1)))[:, None]
    bg = para.prepass(nodes)[1]
    forcing = np.moveaxis(para.forcing_G(dt * np.arange(steps + 1))[1::2], 0, 1)
    run = linear_solve(para, bg, u0, cfg)
    u = u0
    for k in range(steps):
        mid = para.frozen_node(0.5 * (bg[:, k] + bg[:, k + 1]), None, None)
        force = para.real_generator([(out, inp, Q + Q) for out, inp, Q in mid])
        u = _paired_rk4(force, sysm.damping, u, dt,
                        (forcing[k], 0.5 * (forcing[k] + forcing[k + 1]), forcing[k + 1]))
        err = np.max(np.abs(run.trajectory[k + 1] - u))
        assert err <= 1e-13 * np.max(np.abs(u)), (k, err)


def march_node_paths(para, g, u0, forcing, config):
    """The frozen flow along node paths, at eps = 0: the g-functions g
    (3, steps + 1, n//2 + 1) and forcing (steps + 1, 4, n//2 + 1) at the nodes; step k
    applies the sum Q_k + Q_{k+1} of the halves ``frozen_node`` forms at its
    two nodes and the forcing's accelerations (rows 1 and 3) at its ends and
    their average."""
    dt, steps = _time_grid(para.source, config, no_plan)

    def step(k, u):
        now, nxt = (para.frozen_node(g[:, i], None, None) for i in (k, k + 1))
        force = para.real_generator([(out, inp, Q0 + Q1)
                                     for (out, inp, Q0), (_, _, Q1) in zip(now, nxt)])
        f0, f1 = forcing[k, 1::2], forcing[k + 1, 1::2]
        return _paired_rk4(force, para.source.damping, u, dt, (f0, 0.5 * (f0 + f1), f1))

    return _march(para.grid, config.ladder, dt, steps, u0, step)


def kato_with_prepass(sys, V0, config):
    """The Kato iteration with each sweep's pre-pass over the whole trajectory
    it freezes (a reference for the streamed sweep): prepass, the wave margin
    node by node, kato_forcing, then a march along the node paths."""
    grid = sys.grid
    para = ParalinearizedSystem(sys, grid)
    u0 = np.array(real_from_stacked(grid, V0))[:, : grid.n // 2 + 1]
    dt, steps = _time_grid(sys, config, no_plan)
    times = dt * np.arange(steps + 1)
    result = linear_solve(para, None, u0, config)
    increments = []
    while not increments or increments[-1] >= config.kato_tol:
        y, theta = np.moveaxis(result.trajectory[:, ::2], 1, 0)
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
    assert cfg.resolve_dt(g, float(np.max(sysm.b.values().real)), no_plan)[1] == steps
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
    # the marched halves hold real states: their slots 0 and n/2, where a half
    # could hold a non-real value (the full coefficients drop its imaginary
    # part), are real
    g, sys = headline_system(32)
    kato_solve(sys, complexify(*make_fields(g)).stacked(), SolverConfig(T_final=0.05))
    nodes = marched[-1]
    for u in nodes[:: max(1, len(nodes) // 5)]:
        assert np.max(np.abs(u[:, [0, g.n // 2]].imag)) <= 1e-10
        assert is_conjugate_pair(g, stacked_from_real(g, *g.full(u)), tol=1e-10)


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


def test_epsilon_continuation_holds_two_runs(warm_interpreter):
    # each run is dropped once its gap to the next is taken, so six eps values
    # peak where two do: one run held beside the solve of the next.  Six runs
    # held at once read 0.49 MiB against 0.34 MiB for two
    import tracemalloc

    g, sys = headline_system(64)
    V0 = complexify(*make_fields(g)).stacked()
    cfg = SolverConfig(T_final=0.05)
    peaks = []
    for eps_list in ([1e-2, 1e-3], [3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4]):
        tracemalloc.start()
        try:
            rep = epsilon_continuation(sys, V0, eps_list, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert sorted(rep) == ["eps_list", "gaps", "slope"] and len(rep["gaps"]) == 5


def continuation_plan(g, sys, cfg):
    """(one Kato solve's plan, the plan of a continuation's solve after the
    first: that plus the trajectory of the run it keeps)."""
    steps = _time_grid(sys, cfg, no_plan)[1]
    plan = evolve._kato_plan(ParalinearizedSystem(sys, g), steps)
    return plan, plan + evolve._trajectory_bytes(g, steps)


def test_epsilon_continuation_peaks_within_the_plan_of_a_solve_beside_a_run(warm_interpreter):
    # six eps values, each solve after the first beside the run it keeps:
    # the traced peak is within the plan that admits those solves (at
    # headline, N = 256, T = 0.1 one solve's plan read 9.41 MB against the
    # continuation's 14.5 MB)
    import tracemalloc

    g, sys = headline_system(64)
    V0 = complexify(*make_fields(g)).stacked()
    cfg = SolverConfig(T_final=0.05)
    tracemalloc.start()
    try:
        epsilon_continuation(sys, V0, [3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= continuation_plan(g, sys, cfg)[1]


def test_epsilon_continuation_beyond_memory_is_refused_before_its_second_solve(
        monkeypatch, marched, tmp_path):
    # physical memory one byte short of a solve's plan beside the kept run:
    # a lone solve is admitted, the continuation's second solve is refused
    # with ConfigError before it marches, and the CLI exits 2
    from beamwave.cli import main

    g = TorusGrid(64)
    sys, fields = build_preset("headline", g)
    V0 = complexify(*fields).stacked()
    cfg = SolverConfig(T_final=0.05)
    plan, beside = continuation_plan(g, sys, cfg)
    monkeypatch.setattr(evolve, "physical_memory_bytes", lambda: beside - 1)
    lone = copy.copy(cfg)
    lone.eps = 1e-2
    kato_solve(sys, V0, lone)
    sweeps = len(marched)
    marched.clear()
    with pytest.raises(ConfigError, match="physical memory"):
        epsilon_continuation(sys, V0, [1e-2, 1e-3], cfg)
    assert len(marched) == sweeps and len(marched[-1]) == _time_grid(sys, cfg, no_plan)[1] + 1
    argv = ["sweep", "--axis", "eps", "--values", "1e-2,1e-3", "--n", "64", "--T", "0.05",
            "--outdir", str(tmp_path)]
    assert main(argv) == 2 and not list(tmp_path.glob("sweep_*"))


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


def test_forced_kato_matches_oracle():
    # the Kato forcing carries G(t) = delta sin t exactly once
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 5, 5)], delta=0.5)
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
    # call is the constructor's quantization of frakA(0), whose two blocks
    # I p + U q each quantize p and q once
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
    assert per_run[0] == per_run[1] == {"assemble": 1, "bw": 4, "frak_A": 1}, per_run


def test_kato_sweep_leaving_the_smallness_radius_is_refused(monkeypatch):
    # F2 = theta theta_xx, so c + dF2/d(theta_xx) = 1 + theta; the forcing
    # delta sin t drives theta below -1 by T = 1.  The data start well inside
    # the radius and the check at t = 0 passes; the trajectory of sweep 1
    # leaves the radius, so sweep 2 is refused at the first node outside it
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 3, 5)], delta=-10.0)
    fields = make_fields(g)
    config = SolverConfig(T_final=1.0)
    assert sys.check_radius_condition(0.25) > 0.5
    # sweep 1 as kato_solve marches it, and its first node outside the margin
    V0 = complexify(*fields).stacked()
    para = ParalinearizedSystem(sys, g)
    dt, steps = config.resolve_dt(g, 1.0, no_plan)
    times = dt * np.arange(steps + 1)
    sweep1 = linear_solve(para, None, np.array(real_from_stacked(g, V0))[:, : g.n // 2 + 1],
                          config)
    first = None
    for k, (y, _, theta, _) in enumerate(sweep1.trajectory):
        if sys.wave_margin(sys.F2.partial_values(5, sys.jets(y, theta), np.zeros(g.n))) <= 0.0:
            first = k
            break
    assert first is not None and 0 < first < steps
    made, solve = [], evolve.linear_solve

    def recording(*args):
        made.append(solve(*args))
        return made[-1]

    monkeypatch.setattr(evolve, "linear_solve", recording)
    with pytest.raises(PreconditionError, match="sweep 2 .* smallness radius") as err:
        kato_solve(sys, V0, config)
    assert "at node %d (t = %.6g)" % (first, times[first]) in str(err.value)
    # sweep 2 wrote its nodes over sweep 1's up to the refused chunk: the run it
    # froze gave up that buffer, so no RunResult is left that reads it
    assert len(made) == 1 and not hasattr(made[0], "trajectory")
    with pytest.raises(PreconditionError, match="smallness radius"):
        solve(para, sweep1, sweep1.trajectory[0], config)
    for stale in (lambda: sweep1.trajectory, lambda: sweep1.final):
        with pytest.raises(AttributeError):
            stale()
    # its summaries read its own norm series, which it kept
    assert sweep1.sup_norm(config.ladder.s1) == np.max(sweep1.norms["s1"])
    # the refusal is genuine: on the oracle's trajectory 1 + theta turns negative
    theta = np.fft.irfft(oracle_solve(sys, *fields, config).trajectory[-1, 2], g.n, norm="forward")
    assert np.min(1.0 + theta.real) < 0.0


def test_kato_checks_the_exact_margin_not_the_speeds():
    # delta = -1000 drives |theta_t| to about 5 by T = 0.1, which a radius
    # over jets and speeds would feed into the box bound (c3 = -4); the
    # hypothesis involves the jet only, and 1 + theta stays above 0.8, so
    # every sweep runs and the result matches the oracle
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 3, 5)], delta=-1000.0)
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
