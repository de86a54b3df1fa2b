"""Time evolution: oracle, regularized linear flow, Kato iteration.

Three solvers share one time grid and CFL rule (``_time_grid``), one RK4 step
(``_rk4``, summed in place) and one march (``_march``) of the real state (y,
y_t, theta, theta_t) by the j >= 0 half (4, n//2 + 1) of its coefficients in
``np.fft.rfft``'s layout (u_{-j} = conj u_j), stored as marched.  A Kato state's
slot n//2 stays exactly 0, as no background block reaches the unpaired mode
-n/2 off its diagonal (``TorusGrid.chi_mask``).  The stacked V = (z, zbar, w,
wbar) appears only where ``kato_solve`` converts its initial data and
``RunResult.final`` the last node:

* ``oracle_solve`` -- direct method-of-lines RK4 on the real system's half,
  by ``BridgeSystem.real_rhs`` (pseudo-spectral derivatives, de-aliased
  pointwise nonlinearities); it never touches the paradifferential machinery
  and serves as the independent validator.
* ``linear_solve`` -- Strang splitting for the regularized frozen-coefficient
  system d_t V = (frakA + frakB + R)(V~) V + forcing - eps Delta V: exact
  half-step heat factors (skipped at eps = 0) around an RK4 step of the frozen
  paradifferential part, in its real form, forced by the system's G(t); a
  background is given by its g-functions at the nodes, or, for a Kato sweep,
  read from the frozen trajectory itself, which adds its remainder to G.
* ``kato_solve`` -- the iteration (P)_n: sweep 1 solves the linear system at
  the zero background with G(t) at the nodes; sweep n solves it with
  coefficients frozen along V_{n-1} and inhomogeneity
  remainder(V_{n-1}) + G(t) = kato_forcing(V_{n-1}), stopping when the
  L^inf H^{s1} Cauchy increment falls below tolerance.  The V-independent
  order-zero part R is kept inside the frozen generator, so for a trivial
  (linear, constant-coefficient) system sweep one already solves the full
  problem and the first increment vanishes identically.

Frozen backgrounds and forcing are evaluated at step midpoints (the average
of the two enclosing nodes), making the coefficient freezing second-order
accurate.  Each step applies ``real_generator``: the linear part (diagonal
for constant coefficients) plus one block per g-function F can make nonzero,
by the rows 0..n/2 a half reads, the sum Q_k + Q_{k+1} of the halves of its two
nodes' blocks (g is linear in V).  A sweep is one pass over the background it
freezes: its march reads V_{n-1} a chunk of nodes at a time, takes their jets,
g-functions and exact margin c + dF2/d(theta_xx) in one ``prepass``, their F
and G, and forms each node's blocks once, for the node's Kato forcing and the
two steps that meet there.  Once node k is read, the march writes V_n(t_k) over
V_{n-1}(t_k) and takes ||V_n(t_k) - V_{n-1}(t_k)||_{H^{s1}} into the sweep's
increment, a running maximum: a Kato solve holds one trajectory.  An oracle
solve holds none: its march keeps the norms and the last node, and its
trajectory is re-marched, bit for bit, when it is first read.  Each solver is
refused, before its march, by a plan of the arrays it allocates.

One paper experiment runs on top of them, ``epsilon_continuation`` (the
``sweep --axis eps`` of the CLI): the gap between Kato runs at decreasing
regularization eps.
"""

import copy
import csv

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError
from .grid import RegularityLadder, physical_memory_bytes
from .paralin import ParalinearizedSystem
from .state import is_conjugate_pair, real_from_stacked, real_norm_weights, stacked_from_real

RK4_IMAG_LIMIT = 2.8  # stability interval of classical RK4 on the imaginary axis
# Each solver's plan (``_kato_plan``, ``_oracle_plan``) counts the bytes it holds at its
# peak from the arrays it allocates; ``resolve_dt`` checks it against physical memory
# before the march allocates any.  Five terms are the largest tracemalloc peaks beyond
# the arrays counted by their size, over headline, mixed, damped and arioli_gazzola at
# N = 16-256, 1 and 100 steps, and mixed at N = 256 in one chunk (tests/test_evolve.py),
# checked once at N = 512 and, for headline, mixed and arioli_gazzola at N = 256 and
# 512, at 13-200 steps, short last chunks included.  No term counts the set-up: the march
# holds chi and its mask (9 bytes an entry) beside frakA(0)'s arrays, which covers it
# (a dense frakA(0) and no table, b and c profiles with no F: plan / peak 1.006-1.091 at
# N = 256-2048, 1 and 100 steps)
PLAN_FIXED = 64 * 1024  # Python objects and the interpreter's caches
PLAN_BUFFER = 8192 * 16  # numpy's ufunc buffer: 8192 complex, or an n x n array's
PLAN_ROW = 64 * 16  # per grid point: data, RK4 stages, one state's jets (64 complex rows)
PLAN_CHUNK_NODE = 17 * 8  # per grid point and node of a chunk's prepass: jets, g, F, forcing
PLAN_MARCH_NODE = 4 * 16  # per grid point and node of the chunk marched: its g and forcing


class SolverConfig:
    """Time-stepping and iteration parameters."""

    def __init__(
        self,
        dt=None,
        T_final=0.1,
        eps=0.0,
        cfl_safety=0.9,
        kato_tol=1e-10,
        kato_max_iter=25,
    ):
        for name, value in (("T_final", T_final), ("dt", dt), ("eps", eps),
                            ("cfl_safety", cfl_safety)):
            if value is not None and not np.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (name, value))
        if not (np.isfinite(kato_tol) and kato_tol > 0):
            raise ConfigError("kato_tol must be finite and positive, got %r" % (kato_tol,))
        if T_final <= 0:
            raise PreconditionError("T_final must be positive")
        if T_final * T_final < np.finfo(float).tiny:  # the growth fit squares the times
            raise ConfigError("T_final must be at least %r, got %r"
                              % (float(np.sqrt(np.finfo(float).tiny)), T_final))
        if eps < 0:
            raise PreconditionError("eps must be nonnegative")
        if not (0.0 < cfl_safety <= 1.0):
            raise PreconditionError("cfl_safety must lie in (0, 1]")
        if dt is not None and dt <= 0:
            raise PreconditionError("dt must be positive")
        if kato_max_iter < 1:
            raise ConfigError("kato_max_iter must be at least 1")
        self.dt = dt
        self.T_final = float(T_final)
        self.eps = float(eps)
        self.cfl_safety = float(cfl_safety)
        self.kato_tol = float(kato_tol)
        self.kato_max_iter = int(kato_max_iter)
        self.ladder = RegularityLadder()

    def max_stable_dt(self, grid, b_max):
        """dt <= cfl_safety * 2.8 / (sqrt(max b) j_max^2)."""
        j_max = grid.n // 2
        return self.cfl_safety * RK4_IMAG_LIMIT / (np.sqrt(b_max) * j_max**2)

    def resolve_dt(self, grid, b_max, plan):
        """The actual step: validated config dt, or the largest stable step
        dividing T_final into an integer number of steps.  A step count whose
        ``plan`` (a solver's, steps -> the bytes its march holds at its peak)
        exceeds physical memory is refused, before any array."""
        limit = self.max_stable_dt(grid, b_max)
        if self.dt is not None:
            if self.dt > limit * (1.0 + 1e-12):
                raise PreconditionError(
                    "CFL violation: dt = %.3e exceeds stable limit %.3e" % (self.dt, limit)
                )
            dt = self.dt
        else:
            dt = limit
        steps = max(1.0, float(np.ceil(self.T_final / dt - 1e-12)))
        if plan(steps) > physical_memory_bytes():
            raise ConfigError(
                "dt = %.3e needs %.3g steps, whose march exceeds physical memory" % (dt, steps)
            )
        return self.T_final / steps, int(steps)

    def to_json_dict(self):
        return {
            "dt": self.dt,
            "T_final": self.T_final,
            "eps": self.eps,
            "cfl_safety": self.cfl_safety,
            "kato_tol": self.kato_tol,
            "kato_max_iter": self.kato_max_iter,
            "ladder": {
                "s0": self.ladder.s0,
                "s1": self.ladder.s1,
                "s2": self.ladder.s2,
                "s": self.ladder.s,
            },
        }


class RunResult:
    """Real trajectory of (y, y_t, theta, theta_t), stored by its j >= 0 half
    (nodes, 4, n//2 + 1) in ``np.fft.rfft``'s layout (modes 0..n/2), norm time
    series, iteration record (a Kato solve's increments; one sweep's
    increment over the trajectory it overwrote), termination cause.

    ``trajectory`` is the stored nodes, or a function that re-marches them:
    the result of a march that kept only its last node (``_march``), whose
    trajectory is formed on its first read and held from then on."""

    def __init__(self, grid, times, trajectory, norms, termination, increments):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        if callable(trajectory):
            self._replay = trajectory
        else:
            self.trajectory = np.asarray(trajectory, dtype=complex)
            if self.trajectory.shape[1:] != (4, grid.n // 2 + 1):
                raise PreconditionError("trajectory must hold real states by their j >= 0 "
                                        "half, of shape (nodes, 4, n//2 + 1)")
        self.norms = {k: np.asarray(v, dtype=float) for k, v in norms.items()}
        self.termination = termination
        self.increments = list(increments)

    def __getattr__(self, name):
        # a trajectory not yet formed: re-marched, refused before any array
        # where it exceeds physical memory; a given-up one is not re-marched
        replay = vars(self).get("_replay") if name == "trajectory" else None
        if replay is None:
            raise AttributeError(name)
        steps = len(self.times) - 1
        if _trajectory_bytes(self.grid, steps) > physical_memory_bytes():
            raise ConfigError("the trajectory of %d steps at n = %d exceeds physical memory"
                              % (steps, self.grid.n))
        self.trajectory = replay()
        del self._replay
        return self.trajectory

    @property
    def final(self):
        """The last node as a stacked (z, zbar, w, wbar), 4n."""
        last = self._last if "_replay" in vars(self) else self.trajectory[-1]
        return stacked_from_real(self.grid, *self.grid.full(last))

    def sup_norm(self, s):
        return max(map(_half_norm(self.grid, s), self.trajectory))

    def fitted_growth(self):
        """Least-squares slope of log ||V(t)|| (the first norm by key); the growth constant."""
        vals = self.norms[sorted(self.norms)[0]]
        mask = vals > 0
        if np.sum(mask) < 2:
            return 0.0
        return float(np.polyfit(self.times[mask], np.log(vals[mask]), 1)[0])

    def increment_ratios(self):
        inc = [x for x in self.increments if x > 0]
        return [inc[i + 1] / inc[i] for i in range(len(inc) - 1)]

    def to_json_dict(self, config):
        return {
            "n": self.grid.n,
            "steps": len(self.times) - 1,
            "T_final": float(self.times[-1]) if len(self.times) else 0.0,
            "termination": self.termination,
            "increments": [float(x) for x in self.increments],
            "increment_ratios": [float(r) for r in self.increment_ratios()],
            "final_norms": {k: float(v[-1]) for k, v in self.norms.items()},
            "fitted_growth": self.fitted_growth(),
            "config": config.to_json_dict(),
        }

    def write_csv(self, path):
        """Time series: one row per node, columns t then each recorded norm."""
        keys = sorted(self.norms)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + ["norm_H%s" % k for k in keys])
            for i, t in enumerate(self.times):
                w.writerow(["%.12g" % t] + ["%.12g" % self.norms[k][i] for k in keys])


def heat_factor(grid, eps, tau):
    """Diagonal heat multipliers (4, n//2 + 1) on the real state's half:
    e^{-eps tau j^4} on (y, y_t), e^{-eps tau j^2} on (theta, theta_t).  Each
    pair shares its factor, so it acts on the stacked pairs the same way."""
    if eps < 0 or tau < 0:
        raise PreconditionError("heat factor requires eps, tau >= 0")
    j = np.arange(grid.n // 2 + 1.0)
    beam = np.exp(-eps * tau * j**4)
    wave = np.exp(-eps * tau * j**2)
    return np.array([beam, beam, wave, wave])


def _time_grid(sys, config, plan):
    """(dt, steps) for ``sys`` under a solver's ``plan``: the CFL limit uses the
    largest beam coefficient."""
    return config.resolve_dt(sys.grid, float(np.max(sys.b.values().real)), plan)


def _trajectory_bytes(grid, steps):
    """A stored trajectory: (steps + 1) x 4 x (n//2 + 1) complex."""
    return (steps + 1) * 4 * (grid.n // 2 + 1) * 16


def _chunk_nodes(n):
    """Nodes a frozen background is read by at a time (``_frozen_nodes``)."""
    return max(8, n // 8)


def _kato_plan(para, steps):
    """The plan of a Kato solve, which each ``linear_solve`` checks: frakA(0)'s
    arrays, bookkeeping and numpy's buffer, plus the march: chi and the
    in-range mask (9 n^2 bytes), per live g-function its table and two
    (n//2 + 1) x n complex node blocks, the chunk and the one trajectory.  The
    chunk is the largest of the first chunk's prepass, before any node block, a
    chunk marched beside the node blocks, and the second chunk's prepass (it
    may be short) beside them and the first chunk's forcing, which the march
    still reads.  Only a table or a dense block of frakA(0) forms chi; without
    one, no n x n array is formed, and neither chi nor the buffer is counted."""
    grid = para.grid
    n, h = grid.n, grid.n // 2 + 1
    pm, ((bb, _), (_, ww)) = para._A0
    nodes, size = steps + 1, _chunk_nodes(n)
    chi = bool(para._specs) or bb.ndim == 2 or ww.ndim == 2
    first, blocks = min(size, nodes), len(para._specs) * 2 * h * n * 16
    chunk = max(PLAN_CHUNK_NODE * first * n, blocks + PLAN_MARCH_NODE * first * n)
    if nodes > size:  # the second chunk's prepass beside the first's forcing, 4 rows of h
        chunk = max(chunk, blocks + 4 * h * 16 * size
                    + PLAN_CHUNK_NODE * min(size, nodes - size) * n)
    march = (9 * n * n * chi + len(para._specs) * h * n * 16 + chunk
             + _trajectory_bytes(grid, steps))
    return (PLAN_FIXED + PLAN_ROW * n + min(PLAN_BUFFER, 16 * n * n) * chi + pm.nbytes
            + bb.nbytes + ww.nbytes + march)


def _oracle_plan(grid, steps):
    """The oracle's plan: its bookkeeping, RK4 stages and one node, and its
    times and two norm series, one float each per node; no trajectory."""
    return PLAN_FIXED + PLAN_ROW * grid.n + 3 * 8 * (steps + 1)


def _rk4(f, u, dt, args):
    """One classical RK4 step of du/dt = f(u, a), with a = args[0], args[1],
    args[2] at the start, midpoint and end of the step (the times, or the
    forcing there).  f returns a new array, which the step may overwrite:
    k1 + 2 k2 + 2 k3 + k4 accumulates in k1's buffer, in that order."""
    acc = f(u, args[0])
    k = f(u + 0.5 * dt * acc, args[1])
    acc += 2.0 * k
    k = f(u + 0.5 * dt * k, args[1])
    acc += 2.0 * k
    acc += f(u + dt * k, args[2])
    acc *= dt / 6.0
    acc += u
    return acc


def _half_norm(grid, s):
    """h -> the H^s norm of a real state from its stored half (4, n//2 + 1), by
    the Hermitian weights w_0, 2 w_j (0 < j < n/2), w_{n/2}."""
    w = real_norm_weights(grid, s)[:, : grid.n // 2 + 1].astype(complex)
    w[:, 1:-1] *= 2.0
    return lambda h: float(np.sqrt(np.vdot(h, w * h).real))


def _march(grid, ladder, dt, steps, u0, step, over=None):
    """Trajectory u_{k+1} = step(k, u_k) of real states' halves (4, n//2 + 1)
    from u0, with its H^{s0}, H^{s1} norms, taken node by node.  ``over`` says
    where the nodes go.  None: stored as marched, (steps + 1, 4, n//2 + 1).
    A trajectory of that shape: each node is stored into its slot once the
    H^{s1} norm of the node minus the slot's old value has entered a running
    maximum, the result's one increment sup_t ||u - over||_{H^{s1}}:
    ``step(k, u_k)`` must have read every slot up to k + 1 it needs.  A
    function re-marching the trajectory: nowhere; the march keeps the last
    node, and the result's trajectory is formed by the function on first read.

    The blow-up guard runs at every node: a non-finite state, or an H^{s1}
    norm above 1e6 times the initial one, raises ``NumericalError``."""
    replay = over if callable(over) else None
    traj = None if replay else over
    if over is None:
        traj = np.empty((steps + 1, 4, grid.n // 2 + 1), dtype=complex)
    norms = {"s0": np.empty(steps + 1), "s1": np.empty(steps + 1)}
    norm_of = {key: _half_norm(grid, getattr(ladder, key)) for key in norms}
    increment = 0.0
    u = u0
    for k in range(steps + 1):
        if k:
            u = step(k - 1, u)
        if traj is not None:
            if over is not None:
                increment = max(increment, norm_of["s1"](u - traj[k]))
            traj[k] = u
        for key, norm in norm_of.items():
            norms[key][k] = norm(u)
        if not norms["s1"][k] <= 1e6 * max(norms["s1"][0], 1e-300):
            if not np.all(np.isfinite(u)):
                raise NumericalError("non-finite state encountered")
            raise NumericalError("blow-up guard: norm exceeded 1e6 x initial")
    times = dt * np.arange(steps + 1)
    if replay:
        run = RunResult(grid, times, replay, norms, "completed", [])
        run._last = u
        return run
    return RunResult(grid, times, traj, norms, "completed", [] if over is None else [increment])


def _frozen_nodes(para, times, g_path, frozen):
    """Yield, for each node k of ``times``, the blocks [(out, in, Q_k)] of
    ``linear_solve``'s background there (none for a zero background; the
    halves of its g-functions ``g_path``, or a frozen trajectory's stored
    halves ``frozen``) and the forcing f_k (4, n//2 + 1): the system's G, plus
    the remainder of a frozen trajectory (read by its y and theta rows and its
    wave margin checked).  All are taken max(8, n // 8) nodes at a time: about 7
    complex rows of n per node (the real jets, the halves of g and of f), so
    that a chunk fits in one n x n operator, and at least 8, so that below
    n = 64 the per-chunk calls do not outweigh the per-node work.  Q_k is
    formed once, into the buffers of node k - 2, which the march no longer
    reads.  Node k of ``frozen`` is read (its chunk's prepass, its forcing
    product) by the time node k is yielded."""
    grid = para.grid
    size = _chunk_nodes(grid.n)
    ring = [None, None]
    for lo in range(0, len(times), size):
        t = times[lo : lo + size]
        g = None
        if frozen is not None:
            y, theta = np.moveaxis(frozen[lo : lo + size, ::2], 1, 0)
            jets, g, margin = para.prepass((y, None, theta, None))
            bad = np.flatnonzero(margin <= 0.0)
            if bad.size:
                k = lo + int(bad[0])
                raise PreconditionError(
                    "background outside the smallness radius at node %d (t = %.6g): "
                    "c(x) + dF2/d(theta_xx) reaches %g" % (k, times[k], margin[bad[0]]))
        elif g_path is not None:
            g = g_path[:, lo : lo + size]
        f = para.forcing_G(t)  # after the prepass's temporaries are freed
        if frozen is not None:
            para.source.add_nonlinearity_hats(jets, f)
            del jets
        for i, k in enumerate(range(lo, lo + len(t))):
            blocks = ()
            if g is not None:  # a frozen trajectory's forcing loses P_k u_k here
                u = (y[i], None, theta[i], None) if frozen is not None else None
                blocks = para.frozen_node(g[:, i], u, None if u is None else f[:, i], ring[k % 2])
                ring[k % 2] = [Q for *_, Q in blocks]
            yield blocks, f[:, i]


def linear_solve(para, background, u0, config):
    """Strang splitting for the frozen-coefficient regularized linear system,
    from the real state's half u0 (4, n//2 + 1), forced by the system's G(t).

    ``background``: None (zero background), the halves of the g-functions of
    the background at the nodes, shape (3, steps + 1, n//2 + 1), as from
    ``ParalinearizedSystem.prepass``, or a ``RunResult`` V_{n-1} on the same
    time grid: the Kato step (P)_n, frozen along it, whose forcing adds
    remainder(V_{n-1}) to G, refused at the first node outside the wave margin.
    It and G are read a chunk of nodes at a time (``_frozen_nodes``).  Step k is
    frozen at its midpoint: the background block Q_k + Q_{k+1} (Q = P / 2,
    each node's formed once) and the forcing (f_k + f_{k+1}) / 2.

    A frozen ``RunResult`` gives up its trajectory to the call, which has no
    other: the march writes V_n(t_k) over V_{n-1}(t_k) once node k is read,
    and the result records sup_t ||V_n - V_{n-1}||_{H^{s1}} as its one
    increment.  A refused sweep leaves that buffer holding nodes of both, in
    no ``RunResult``: the frozen one has no ``trajectory`` left to read."""
    grid = para.grid
    dt, steps = _time_grid(para.source, config, lambda steps: _kato_plan(para, steps))
    h = grid.n // 2 + 1

    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (4, h):
        raise PreconditionError("initial state must be the half of a real state (y, y_t, "
                                "theta, theta_t), of shape (4, n//2 + 1)")
    frozen = None
    if isinstance(background, RunResult):
        if len(background.times) != steps + 1:
            raise PreconditionError("a frozen trajectory must have %d nodes" % (steps + 1))
        frozen = background.trajectory
        del background.trajectory  # the march overwrites it node by node
        background = None
    elif background is not None and np.shape(background) != (3, steps + 1, h):
        raise PreconditionError("background path must have %d node values" % (steps + 1))

    half = heat_factor(grid, config.eps, dt / 2.0)
    nodes = _frozen_nodes(para, dt * np.arange(steps + 1), background, frozen)
    node = next(nodes)

    def step(k, u):
        nonlocal node
        (now, f0), node = node, next(nodes)
        nxt, f1 = node
        # Q_k is dead after this step: its buffer takes the midpoint block
        A = para.real_generator([(out, inp, np.add(Q0, Q1, out=Q0))
                                 for (out, inp, Q0), (_, _, Q1) in zip(now, nxt)])
        # at eps = 0 the heat factors are all ones, and skipped
        u = _rk4(A, half * u if config.eps else u, dt, (f0, 0.5 * (f0 + f1), f1))
        return half * u if config.eps else u

    return _march(grid, config.ladder, dt, steps, u0, step, frozen)


def kato_solve(sys, V0, config):
    """The iteration (P)_n on the paralinearized complex system from a stacked
    conjugate pair V0 (any other V0 is refused: the half of its real state would
    drop what is not real), marched from that half (4, n//2 + 1).  Sweep 1 solves the
    linear system at the zero background with forcing G at the nodes; sweep n
    freezes the coefficients along V_{n-1} and adds its quadratic remainder as
    inhomogeneity, both read from V_{n-1} a chunk of nodes at a time inside
    its march, which writes V_n over V_{n-1} and takes their increment as it
    goes; a node outside the wave margin stops it there.  Stops when the
    L^inf H^{s1} increment drops below ``kato_tol``."""
    grid = sys.grid
    V0 = np.asarray(V0, dtype=complex)
    if V0.shape != (4 * grid.n,) or not is_conjugate_pair(
            grid, V0, tol=1e-12 * float(np.max(np.abs(V0)))):
        raise PreconditionError("initial state must be a stacked conjugate pair "
                                "(z, zbar, w, wbar) of length 4n")
    u0 = np.array([u[: grid.n // 2 + 1] for u in real_from_stacked(grid, V0)])
    sys.check_ellipticity()
    radius = float(np.max(np.abs(sys.jets(u0[0], u0[2], slots=range(6)))))
    sys.check_radius_condition(2.0 * max(radius, 1e-12))
    para = ParalinearizedSystem(sys, grid)

    result = linear_solve(para, None, u0, config)
    increments = []
    prev_inc = None
    for sweep in range(2, config.kato_max_iter + 2):
        try:  # sweep n overwrites V_{n-1}: one trajectory per solve
            result = linear_solve(para, result, u0, config)
        except PreconditionError as err:
            raise PreconditionError("Kato sweep %d freezes a %s" % (sweep, err)) from None
        inc, = result.increments
        increments.append(inc)
        if inc < config.kato_tol:
            result.termination, result.increments = "converged", increments
            return result
        if prev_inc is not None and inc > 1.2 * prev_inc and inc > 10.0 * config.kato_tol:
            raise NumericalError(
                "Kato iteration diverging: increment %.3e after %.3e" % (inc, prev_inc)
            )
        prev_inc = inc
    raise NumericalError(
        "Kato iteration did not converge in %d sweeps (last increment %.3e)"
        % (config.kato_max_iter, increments[-1] if increments else float("nan"))
    )


def oracle_solve(sys, y0, y1, theta0, theta1, config):
    """Direct RK4 on the real system; the independent validator.

    State (y, y_t, theta, theta_t) as the j >= 0 half (4, n//2 + 1) of its
    Fourier coefficients in ``np.fft.rfft``'s layout, marched as it is;
    spectral derivatives and de-aliased pointwise nonlinearities through
    ``sys.real_rhs``, which maps halves to halves.  The march keeps the norms
    and the last node; the trajectory is re-marched, the same step from the
    same initial half, when it is first read.
    """
    grid = sys.grid
    sys.check_ellipticity()
    dt, steps = _time_grid(sys, config, lambda steps: _oracle_plan(grid, steps))
    state = np.array([u.coeffs[: grid.n // 2 + 1] for u in (y0, y1, theta0, theta1)])

    def step(k, state):
        t = k * dt
        return _rk4(sys.real_rhs, state, dt, (t, t + 0.5 * dt, t + dt))

    def replay():
        return _march(grid, config.ladder, dt, steps, state, step).trajectory

    return _march(grid, config.ladder, dt, steps, state, step, replay)


def trajectory_gap(grid, run_a, run_b, s):
    """sup_t ||V_a(t) - V_b(t)||_{H^s} on the common time grid."""
    if len(run_a.times) != len(run_b.times):
        raise PreconditionError("runs must share a time grid")
    norm = _half_norm(grid, s)
    return max(norm(a - b) for a, b in zip(run_a.trajectory, run_b.trajectory))


def loglog_slope(points):
    """Least-squares slope of log y against log x over the points (x, y) whose
    x and y are both positive and finite; None with fewer than two such points."""
    pos = [(x, y) for x, y in points if 0 < x < np.inf and 0 < y < np.inf]
    if len(pos) < 2:
        return None
    return float(np.polyfit(np.log([x for x, _ in pos]), np.log([y for _, y in pos]), 1)[0])


def epsilon_continuation(sys, V0, eps_list, config):
    """Kato runs at decreasing regularization strengths; pairwise trajectory
    gaps in H^{s1} decay linearly in eps for band-limited data."""
    # each run's config is a copy with eps set, which SolverConfig does not re-check
    if not all(np.isfinite(e) for e in eps_list):
        raise ConfigError("eps values must be finite, got %r" % (list(eps_list),))
    if any(e < 0 for e in eps_list):
        raise PreconditionError("eps values must be nonnegative")
    eps_list = sorted(eps_list, reverse=True)
    grid = sys.grid
    s = config.ladder.s1
    runs = []
    for eps in eps_list:
        cfg = copy.copy(config)
        cfg.eps = float(eps)
        runs.append((eps, kato_solve(sys, V0, cfg)))
    gaps = []
    for (ea, ra), (eb, rb) in zip(runs[:-1], runs[1:]):
        gaps.append((ea, eb, trajectory_gap(grid, ra, rb, s)))
    return {
        "eps_list": list(eps_list),
        "gaps": [(float(a), float(b), float(g)) for a, b, g in gaps],
        "slope": loglog_slope((ea, gap) for ea, _, gap in gaps),
        "runs": runs,
    }
