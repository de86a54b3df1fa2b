"""Time evolution: oracle, regularized linear flow, Kato iteration.

Three solvers share one time grid and CFL rule (``_time_grid``), one RK4 step
(``_rk4``) and one march (``_march``) of the real coefficients (4, n) of
(y, y_t, theta, theta_t); it stores each node complexified, with its norms:

* ``oracle_solve`` -- direct method-of-lines RK4 on the real system using
  pseudo-spectral derivatives and de-aliased pointwise nonlinearities; it
  never touches the paradifferential machinery and serves as the
  independent validator.
* ``linear_solve`` -- Strang splitting for the regularized frozen-coefficient
  system d_t V = (frakA + frakB + R)(V~) V + forcing - eps Delta V: exact
  half-step heat factors around an explicit RK4 step of the frozen
  paradifferential part, in its real form; backgrounds (as g-functions) and
  forcing are given at the nodes.
* ``kato_solve`` -- the iteration (P)_n: sweep 1 solves the linear system at
  the zero background with G(t) at the nodes; sweep n solves it with
  coefficients frozen along V_{n-1} and inhomogeneity
  remainder(V_{n-1}) + G(t) = kato_forcing(V_{n-1}), stopping when the
  L^inf H^{s1} Cauchy increment falls below tolerance.  The V-independent
  order-zero part R is kept inside the frozen generator, so for a trivial
  (linear, constant-coefficient) system sweep one already solves the full
  problem and the first increment vanishes identically.

Frozen backgrounds and forcing are evaluated at step midpoints (average of
the two enclosing nodes; g is linear in V), making the coefficient freezing
second-order accurate.  Each step applies ``real_generator``: the linear part
by FFT plus one gathered n x n block per g-function F can make nonzero.  Each
sweep's pre-pass takes the jets of the whole trajectory it freezes in one
call, and from them its g-functions, Kato forcing and the exact margin
c + dF2/d(theta_xx) of the smallness hypothesis.
"""

import copy
import csv
import json

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError
from .grid import RegularityLadder, physical_memory_bytes
from .paralin import ParalinearizedSystem
from .state import (
    StateVector,
    conjugate_pair,
    is_conjugate_pair,
    real_from_stacked,
    stacked_from_real,
    stacked_norm,
)

RK4_IMAG_LIMIT = 2.8  # stability interval of classical RK4 on the imaginary axis


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
        ladder=None,
    ):
        for name, value in (("T_final", T_final), ("dt", dt), ("eps", eps),
                            ("cfl_safety", cfl_safety)):
            if value is not None and not np.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (name, value))
        if not (np.isfinite(kato_tol) and kato_tol > 0):
            raise ConfigError("kato_tol must be finite and positive, got %r" % (kato_tol,))
        if T_final <= 0:
            raise PreconditionError("T_final must be positive")
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
        self.ladder = ladder if ladder is not None else RegularityLadder()

    def max_stable_dt(self, grid, b_max):
        """dt <= cfl_safety * 2.8 / (sqrt(max b) j_max^2)."""
        j_max = grid.n // 2
        return self.cfl_safety * RK4_IMAG_LIMIT / (np.sqrt(b_max) * j_max**2)

    def resolve_dt(self, grid, b_max):
        """The actual step: validated config dt, or the largest stable step
        dividing T_final into an integer number of steps.  A step count whose
        trajectories (a Kato solve holds about four of (steps + 1) x 4n
        complex128 at once) would not fit in physical memory is refused."""
        limit = self.max_stable_dt(grid, b_max)
        if self.dt is not None:
            if self.dt > limit * (1.0 + 1e-12):
                raise PreconditionError(
                    "CFL violation: dt = %.3e exceeds stable limit %.3e" % (self.dt, limit)
                )
            dt = self.dt
        else:
            dt = limit
        ratio = self.T_final / dt
        need = 4.0 * (ratio + 2.0) * 4 * grid.n * 16
        if need > physical_memory_bytes():
            raise ConfigError(
                "dt = %.3e needs %.3g steps, whose trajectories exceed physical memory"
                % (dt, ratio)
            )
        steps = max(1, int(np.ceil(ratio - 1e-12)))
        return self.T_final / steps, steps

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
    """Trajectory, norm time series, iteration record, termination cause."""

    def __init__(self, grid, times, trajectory, norms, termination, increments=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.trajectory = np.asarray(trajectory, dtype=complex)
        self.norms = {k: np.asarray(v, dtype=float) for k, v in norms.items()}
        self.termination = termination
        self.increments = list(increments) if increments is not None else []

    @property
    def final(self):
        return self.trajectory[-1]

    def final_state(self):
        return StateVector.from_stacked(self.grid, self.trajectory[-1])

    def sup_norm(self, s):
        return float(np.max(stacked_norm(self.grid, self.trajectory, s)))

    def fitted_growth(self, key=None):
        """Least-squares slope of log ||V(t)||; the measured growth constant."""
        key = key if key is not None else sorted(self.norms)[0]
        vals = self.norms[key]
        mask = vals > 0
        if np.sum(mask) < 2:
            return 0.0
        return float(np.polyfit(self.times[mask], np.log(vals[mask]), 1)[0])

    def increment_ratios(self):
        inc = [x for x in self.increments if x > 0]
        return [inc[i + 1] / inc[i] for i in range(len(inc) - 1)]

    def to_json_dict(self, config=None):
        out = {
            "n": self.grid.n,
            "steps": len(self.times) - 1,
            "T_final": float(self.times[-1]) if len(self.times) else 0.0,
            "termination": self.termination,
            "increments": [float(x) for x in self.increments],
            "increment_ratios": [float(r) for r in self.increment_ratios()],
            "final_norms": {k: float(v[-1]) for k, v in self.norms.items()},
            "fitted_growth": self.fitted_growth(),
        }
        if config is not None:
            out["config"] = config.to_json_dict()
        return out

    def write_csv(self, path):
        """Time series: one row per node, columns t then each recorded norm."""
        keys = sorted(self.norms)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + ["norm_H%s" % k for k in keys])
            for i, t in enumerate(self.times):
                w.writerow(["%.12g" % t] + ["%.12g" % self.norms[k][i] for k in keys])

    def write_manifest(self, path, config=None, extra=None):
        doc = self.to_json_dict(config)
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def heat_factor(grid, eps, tau):
    """Diagonal heat multipliers on the stacked state: e^{-eps tau j^4} on the
    beam pair, e^{-eps tau j^2} on the wave pair."""
    if eps < 0 or tau < 0:
        raise PreconditionError("heat factor requires eps, tau >= 0")
    j = grid.modes.astype(float)
    beam = np.exp(-eps * tau * j**4)
    wave = np.exp(-eps * tau * j**2)
    return np.concatenate([beam, beam, wave, wave])


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


def _time_grid(sys, config):
    """(dt, steps) for ``sys``: the CFL limit uses the largest beam coefficient."""
    return config.resolve_dt(sys.grid, float(np.max(sys.b.values().real)))


def _rk4(f, u, dt):
    """One classical RK4 step of du/dt = f(stage, u); stage 0, 1, 2 is the
    start, midpoint and end of the step."""
    k1 = f(0, u)
    k2 = f(1, u + 0.5 * dt * k1)
    k3 = f(1, u + 0.5 * dt * k2)
    k4 = f(2, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(grid, ladder, dt, steps, u0, step):
    """Trajectory u_{k+1} = step(k, u_k) of real states (4, n) from u0, stored
    in stacked form with its H^{s0}, H^{s1} norms.

    The blow-up guard runs at every node: a non-finite state, or an H^{s1}
    norm above 1e6 times the initial one, raises ``NumericalError``."""
    traj = np.empty((steps + 1, 4 * grid.n), dtype=complex)
    norms = {"s0": [], "s1": []}
    u = u0
    for k in range(steps + 1):
        if k:
            u = step(k - 1, u)
        V = traj[k] = stacked_from_real(grid, *u)
        if not np.all(np.isfinite(V)):
            raise NumericalError("non-finite state encountered")
        for key, vals in norms.items():
            vals.append(stacked_norm(grid, V, getattr(ladder, key)))
        if norms["s1"][-1] > 1e6 * max(norms["s1"][0], 1e-300):
            raise NumericalError("blow-up guard: norm exceeded 1e6 x initial")
    return RunResult(grid, [k * dt for k in range(steps + 1)], traj, norms, "completed")


def linear_solve(para, background_path, V0, forcing_path, config, include_R=True):
    """Strang splitting for the frozen-coefficient regularized linear system.

    ``background_path``: None (zero background) or the g-functions of the
    background at the nodes, shape (3, steps + 1, n), as from
    ``ParalinearizedSystem.prepass``.  ``forcing_path``: None or stacked node
    values (steps + 1, 4n).  Both are averaged at step midpoints.  With
    ``include_R=False`` the order-zero coupling R is dropped, leaving the
    decoupled model flow whose H^s norms are exact isometries.
    """
    grid = para.grid
    dt, steps = _time_grid(para.source, config)
    n = grid.n

    V0 = np.asarray(V0, dtype=complex)
    if V0.shape != (4 * n,):
        raise PreconditionError("initial state must be a stacked 4n vector")
    paths = []
    for name, path, shape in (("background", background_path, (3, steps + 1, n)),
                              ("forcing", forcing_path, (steps + 1, 4 * n))):
        if path is not None and np.shape(path) != shape:
            raise PreconditionError("%s path must have %d node values" % (name, steps + 1))
        paths.append(path)
    bg, f = paths
    if f is not None:
        f = np.stack(real_from_stacked(grid, np.asarray(f, dtype=complex)), axis=1)

    half = heat_factor(grid, config.eps, dt / 2.0).reshape(4, n)
    linear_part = para.real_linear_part(include_R)

    def step(k, u):
        A = para.real_generator(linear_part, None if bg is None else 0.5 * (bg[:, k] + bg[:, k + 1]))
        fk = (0.0,) * 3 if f is None else (f[k], 0.5 * (f[k] + f[k + 1]), f[k + 1])
        return half * _rk4(lambda stage, u: A(u) + fk[stage], half * u, dt)

    return _march(grid, config.ladder, dt, steps, np.array(real_from_stacked(grid, V0)), step)


def kato_solve(sys, V0, config):
    """The iteration (P)_n on the paralinearized complex system from a stacked
    conjugate pair V0 (any other V0 is refused: the real-form march would
    continue it analytically).  Sweep 1 solves the linear system at the zero
    background with forcing G at the nodes; sweep n freezes the coefficients
    along V_{n-1} and adds its quadratic remainder as inhomogeneity.  Stops
    when the L^inf H^{s1} increment drops below ``kato_tol``."""
    grid = sys.grid
    V0 = np.asarray(V0, dtype=complex)
    if V0.shape != (4 * grid.n,) or not is_conjugate_pair(
            grid, V0, tol=1e-12 * float(np.max(np.abs(V0)))):
        raise PreconditionError("initial state must be a stacked conjugate pair "
                                "(z, zbar, w, wbar) of length 4n")
    sys.check_ellipticity()
    radius = float(np.max(np.abs(sys.jets(*real_from_stacked(grid, V0)[::2]))))  # F reads the jet only
    sys.check_radius_condition(2.0 * max(radius, 1e-12))
    dt, steps = _time_grid(sys, config)
    para = ParalinearizedSystem(sys, grid)
    times = dt * np.arange(steps + 1)

    result = linear_solve(para, None, V0, para.forcing_G(times), config)
    increments = []
    prev_inc = None
    for sweep in range(2, config.kato_max_iter + 2):
        jets, g = prepass = para.prepass(result.trajectory)  # the whole of V_{n-1}
        sys.check_wave_margin(jets, "Kato sweep %d freezes a background outside the "
                                    "smallness radius: " % sweep)
        forcing = para.kato_forcing(result.trajectory, times, prepass)
        del jets, prepass
        nxt = linear_solve(para, g, V0, forcing, config)
        del g, forcing
        inc = trajectory_gap(grid, nxt, result, config.ladder.s1)
        increments.append(inc)
        result = nxt
        if inc < config.kato_tol:
            return RunResult(
                grid, result.times, result.trajectory, result.norms, "converged", increments
            )
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

    State (y, y_t, theta, theta_t) as one (4, n) array of Fourier
    coefficients; spectral derivatives and de-aliased pointwise
    nonlinearities through ``sys.real_rhs``.  Snapshots are stored
    complexified so they compare directly with the paradifferential solvers.
    """
    grid = sys.grid
    sys.check_ellipticity()
    dt, steps = _time_grid(sys, config)
    state = np.array([u.coeffs for u in (y0, y1, theta0, theta1)], dtype=complex)

    def rhs(u, t):
        yc, ytc, thc, thtc = u
        ytt, thtt = sys.real_rhs(yc, ytc, thc, thtc, t)
        return np.array([ytc, ytt, thtc, thtt])

    def step(k, state):
        t = k * dt
        return _rk4(lambda stage, u: rhs(u, t + 0.5 * stage * dt), state, dt)

    return _march(grid, config.ladder, dt, steps, state, step)


def trajectory_gap(grid, run_a, run_b, s):
    """sup_t ||V_a(t) - V_b(t)||_{H^s} on the common time grid."""
    if len(run_a.times) != len(run_b.times):
        raise PreconditionError("runs must share a time grid")
    return float(np.max(stacked_norm(grid, run_a.trajectory - run_b.trajectory, s)))


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
    pos = [(ea, gap) for ea, eb, gap in gaps if gap > 0 and ea > 0]
    slope = float("nan")
    if len(pos) >= 2:
        xs = np.log([p[0] for p in pos])
        ys = np.log([p[1] for p in pos])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {
        "eps_list": list(eps_list),
        "gaps": [(float(a), float(b), float(g)) for a, b, g in gaps],
        "slope": slope,
        "runs": runs,
    }
