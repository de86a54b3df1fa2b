"""Command-line front end: presets, simulation, verification suites, sweeps.

Exit codes: 0 success, 1 failed verification assertion, 2 configuration
error, 3 mathematical precondition failure, 4 numerical failure.  All
artifacts carry the hash of the resolved configuration; runs are
deterministic for a fixed configuration.
"""

import argparse
import hashlib
import json
import os
import sys as _sys

import numpy as np

from .bridge import bridge_system_from_json
from .errors import ConfigError, NumericalError, PreconditionError
from .grid import TorusGrid, transform
from .paralin import ParalinearizedSystem
from .parametrix import (
    build_parametrix,
    conjugation_residual,
    equivalence_and_garding_report,
)
from .quantize import (
    composition_residual,
    exact_operator_norm,
    remainder_bw_minus_weyl,
    weyl_quantize,
)
from .state import complexify
from .symbols import FrequencyMultiplier, SeparableSymbol
from .evolve import (
    SolverConfig,
    epsilon_continuation,
    kato_solve,
    loglog_slope,
    oracle_solve,
    trajectory_gap,
)

# each preset as its system document, the --system format
PRESET_SYSTEMS = {
    "linear": {},
    "headline": {"F2": [[1.0, 5, 5]]},  # theta_xx^2
    "mixed": {"F1": [[1.0, 4, 5]],  # theta_x theta_xx
              "F2": [[1.0, 2, 5], [0.5, 5, 5]]},  # y_xx theta_xx + theta_xx^2/2
    "parity": {"F2": [[1.0, 0, 4]]},  # y theta_x, parity-passing
    "damped": {"F2": [[1.0, 5, 5]], "alpha": -0.5, "beta": -0.5},
    # the fish-bone bridge of masses M = 10, m = 1, EI = GK = ell = H0 = 1 and a
    # constant hanger profile xi = 1, with cable tension tau = 2 H0/xi^2:
    # b = EI/(M + 2m xi), c = (3GK/ell^2 + 3 tau)/(M + 6m xi), B = tau/(M + 2m xi) d_x^2;
    # the d_x terms of B and C, tau'/(M + 2m xi) and 3 tau'/(M + 6m xi), vanish
    "arioli_gazzola": {"b": 1 / 12, "c": 9 / 16, "B_terms": [[1 / 6, 2]]},
}
PRESETS = tuple(PRESET_SYSTEMS)


def _initial_data(grid, amplitude, odd=False):
    """(y0, y1, theta0, theta1) of the given amplitude: the generic data, or
    the odd (Dirichlet) data of the parity preset."""
    if not np.isfinite(amplitude):
        raise ConfigError("amplitude must be finite, got %r" % (amplitude,))
    a, x = amplitude, grid.x
    if odd:
        values = (a * np.sin(x), 0.5 * a * np.sin(2 * x), a * np.sin(2 * x), 0.5 * a * np.sin(x))
    else:
        values = (a * np.sin(x), 0.5 * a * np.cos(x), a * np.sin(2 * x), 0.5 * a * np.cos(2 * x))
    return tuple(transform(grid, v) for v in values)


def build_preset(name, grid, amplitude=1e-2):
    """(BridgeSystem, (y0, y1, theta0, theta1)) for a named preset."""
    data = _initial_data(grid, amplitude, odd=name == "parity")
    if name not in PRESET_SYSTEMS:
        raise ConfigError("unknown preset %r (choose from %s)" % (name, ", ".join(PRESETS)))
    return bridge_system_from_json(PRESET_SYSTEMS[name], grid), data


def _config_hash(doc):
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _request(args, config, **fields):
    """The resolved request of a command, whose hash names its artifacts: the
    command's own ``fields``, the system (the --system document, not its
    path), grid and data, and the solver config."""
    return dict(fields, command=args.command, preset=args.preset, system=args.document,
                n=args.n, amplitude=args.amplitude, config=config.to_json_dict())


def _write_json(path, doc):
    """Every JSON artifact: sorted keys, indented, numpy scalars as floats."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _outdir(args):
    root = args.outdir or os.environ.get("BEAMWAVE_OUT", ".")
    os.makedirs(root, exist_ok=True)
    return root


# the solver flags' destinations, SolverConfig's parameters; a flag the user
# does not set is absent from the parsed arguments, and SolverConfig's default holds
SOLVER_FLAGS = ("dt", "T_final", "eps", "cfl_safety", "kato_tol", "kato_max_iter")


def _solver_config(args):
    return SolverConfig(**{k: v for k, v in vars(args).items() if k in SOLVER_FLAGS})


def _system_document(path):
    """The --system file's JSON object, read once per command."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read system file %r: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("system file %r is not a JSON object" % path)
    return doc


def _problem(args, n=None, amplitude=None):
    """(grid, system, data) of a command: its --system document or preset on n
    points (default --n), with initial data of ``amplitude`` (default --amplitude)."""
    grid = TorusGrid(args.n if n is None else n)
    amplitude = args.amplitude if amplitude is None else amplitude
    doc = args.document
    if doc is None:
        return (grid,) + build_preset(args.preset, grid, amplitude)
    if doc.get("n", grid.n) != grid.n:
        raise ConfigError("system file %r has n = %r but the grid has n = %d"
                          % (args.system, doc["n"], grid.n))
    return grid, bridge_system_from_json(doc, grid), _initial_data(grid, amplitude)


def _kato(system, data, config, eps_list=None):
    """The Kato solve from real data (y0, y1, theta0, theta1), or with
    ``eps_list`` its epsilon continuation: the CLI's one conversion to a stacked V0."""
    V0 = complexify(*data).stacked()
    if eps_list is None:
        return kato_solve(system, V0, config)
    return epsilon_continuation(system, V0, eps_list, config)


def cmd_simulate(args):
    _, sysm, data = _problem(args)
    config = _solver_config(args)
    doc = _request(args, config, solver=args.solver)
    tag = _config_hash(doc)
    if args.solver == "oracle":
        result = oracle_solve(sysm, *data, config)
    else:
        result = _kato(sysm, data, config)
    out = _outdir(args)
    base = os.path.join(out, "run_%s" % tag)
    result.write_csv(base + ".csv")
    _write_json(base + ".json", dict(result.to_json_dict(config), config_hash=tag, request=doc))
    print("run %s: %s, %d nodes, final |V|_s1 = %.6e" % (
        tag, result.termination, len(result.times), result.norms["s1"][-1]))
    return 0


def _suite_operators(args):
    checks = {}
    grid = TorusGrid(64)
    f = transform(grid, np.cos(grid.x))
    op = weyl_quantize(SeparableSymbol.from_xfunc(f))
    u = transform(grid, np.sin(3 * grid.x))
    exact = transform(grid, np.cos(grid.x) * np.sin(3 * grid.x))
    checks["multiplication_exact"] = float(np.max(np.abs((op @ u.coeffs) - exact.coeffs)))
    dx = weyl_quantize(SeparableSymbol.from_multiplier(grid, FrequencyMultiplier.xi_power(1)))
    checks["i_xi_is_ddx"] = float(np.max(np.abs(1j * (dx @ u.coeffs) - u.deriv().coeffs)))
    norms = []
    comp = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
        band = np.ix_(g.dealias_mask, g.dealias_mask)
        norms.append(exact_operator_norm(g, remainder_bw_minus_weyl(a)[band], 2.0, 4.0))
        a0 = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
        comp.append(exact_operator_norm(g, composition_residual(a0, a, 2.0)[band], 2.0, 2.0))
    checks["bw_minus_weyl_norms"] = norms
    checks["composition_residual_norms"] = comp
    ok = (
        checks["multiplication_exact"] < 1e-12
        and checks["i_xi_is_ddx"] < 1e-12
        and _spread(norms) < 1.25
        and _spread(comp) < 1.25
    )
    return checks, ok


def _paralinearized(args, n):
    grid, sysm, data = _problem(args, n)
    return ParalinearizedSystem(sysm, grid), complexify(*data).stacked()


def _residual(args, n):
    """The conjugation residual report of the parametrix at s = 2.5 on n points."""
    para, V = _paralinearized(args, n)
    return conjugation_residual(build_parametrix(para, V, 2.5), para, V)


def _spread(norms):
    """max/min of measured norms; a norm that is 0 or negative counts as unbounded."""
    lo = min(norms)
    return max(norms) / lo if lo > 0 else float("inf")


def _suite_parametrix(args):
    checks = {}
    reports = [_residual(args, n) for n in (32, 64, 128)]
    checks["residuals"] = reports
    conj = [r["conjugation_norm"] for r in reports]
    inv = [r["inverse_defect_norm"] for r in reports]
    checks["pointwise_defect"] = max(
        max(r["beam_pointwise_defect"], r["wave_pointwise_defect"]) for r in reports
    )
    ok = checks["pointwise_defect"] < 1e-10 and _spread(conj) < 1.25 and _spread(inv) < 1.25
    return checks, ok


def _suite_energy(args):
    checks = {}
    reps = []
    for n in (64, 128):
        para, V = _paralinearized(args, n)
        reps.append(equivalence_and_garding_report(para, V, 2.5, sample_count=50, seed=args.seed))
    checks["reports"] = reps
    cs = [r["equivalence_constant"] for r in reps]
    gd = [r["garding_defect_min"] for r in reps]
    ok = _spread(cs) < 1.25 and abs(gd[0] - gd[1]) < 0.25 * max(1.0, abs(gd[0]))
    return checks, ok


def _suite_oracle(args):
    grid, sysm, data = _problem(args)
    config = _solver_config(args)
    kat = _kato(sysm, data, config)
    orc = oracle_solve(sysm, *data, config)
    s1 = config.ladder.s1
    gap = trajectory_gap(grid, kat, orc, s1)
    rel = gap / max(orc.sup_norm(s1), 1e-300)
    checks = {
        "relative_discrepancy": rel,
        "kato_sweeps": len(kat.increments) + 1,  # the first sweep leaves no increment
        "increment_ratios": kat.increment_ratios(),
    }
    return checks, rel <= 1e-4


SUITES = {
    "operators": _suite_operators,
    "parametrix": _suite_parametrix,
    "energy": _suite_energy,
    "oracle": _suite_oracle,
}


def cmd_verify(args):
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer, got %d" % args.seed)
    tag = _config_hash(_request(args, _solver_config(args), suite=args.suite, seed=args.seed))
    out = _outdir(args)
    path = os.path.join(out, "verify_%s_%s.json" % (args.suite, tag))
    try:
        checks, ok = SUITES[args.suite](args)
    except PreconditionError as exc:
        _write_json(path, {"suite": args.suite, "config_hash": tag, "passed": False,
                           "precondition_failure": str(exc)})
        print("verify %s: precondition failure: %s" % (args.suite, exc))
        return 3
    _write_json(path, {"suite": args.suite, "config_hash": tag, "passed": bool(ok),
                       "checks": checks})
    print("verify %s: %s (%s)" % (args.suite, "pass" if ok else "FAIL", path))
    return 0 if ok else 1


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError("cannot parse sweep values %r" % args.values) from None
    if len(values) < 2:
        raise PreconditionError("sweep needs at least 2 values")
    config = _solver_config(args)
    tag = _config_hash(_request(args, config, axis=args.axis, values=values))
    out = _outdir(args)
    rows = []
    failures = {}

    if args.axis == "N":
        bad = [v for v in values if not (np.isfinite(v) and v == int(v))]
        if bad:
            raise ConfigError("sweep values of N must be integers, got %r" % bad[0])
        for n in map(int, values):
            try:
                rows.append((n, _residual(args, n)["conjugation_norm"]))
            except (PreconditionError, NumericalError) as exc:  # flagged per value
                failures[str(n)] = str(exc)
        vals = [m for _, m in rows]
        bounded = bool(vals) and _spread(vals) < 1.25
        extra = {"bounded": bounded}
    elif args.axis == "eps":
        _, sysm, data = _problem(args)
        rep = _kato(sysm, data, config, eps_list=values)
        rows = [(a, g) for a, _, g in rep["gaps"]]
        extra = {"slope": rep["slope"]}
    else:  # amplitude
        for v in values:
            try:
                _, sysm, data = _problem(args, amplitude=v)
                rows.append((v, _kato(sysm, data, config).sup_norm(config.ladder.s1)))
            except (PreconditionError, NumericalError) as exc:
                failures[str(v)] = str(exc)
        extra = {"slope": loglog_slope(rows)}

    csv_path = os.path.join(out, "sweep_%s_%s.csv" % (args.axis, tag))
    with open(csv_path, "w") as fh:
        fh.write("value,metric\n")
        for v, m in rows:
            fh.write("%.12g,%.12g\n" % (v, m))
    report = {"axis": args.axis, "config_hash": tag, "rows": rows, "failures": failures}
    report.update(extra)
    _write_json(os.path.join(out, "sweep_%s_%s.json" % (args.axis, tag)), report)
    slope = extra.get("slope")
    print("sweep %s: %d values, %d failures%s" % (
        args.axis, len(values), len(failures),
        (", slope %.4f" % slope) if slope is not None else ""))
    return 0


def cmd_preset(args):
    for name in PRESETS:  # argparse admits the action "list" only
        print(name)
    return 0


def _add_common(p):
    p.add_argument("--preset", default="headline", help="named system preset")
    p.add_argument("--system", default=None, help="JSON system description path")
    p.add_argument("--n", type=int, default=128, help="grid size (modes)")
    p.add_argument("--amplitude", type=float, default=1e-2, help="initial data amplitude")
    solver = p.add_argument_group("solver", argument_default=argparse.SUPPRESS)
    solver.add_argument("--T", dest="T_final", metavar="T", type=float, help="time horizon")
    solver.add_argument("--dt", type=float, help="time step (default: CFL limit)")
    solver.add_argument("--eps", type=float, help="parabolic regularization")
    solver.add_argument("--cfl-safety", dest="cfl_safety", type=float)
    solver.add_argument("--kato-tol", dest="kato_tol", type=float)
    solver.add_argument("--kato-max-iter", dest="kato_max_iter", type=int)
    p.add_argument("--outdir", default=None, help="output directory (default $BEAMWAVE_OUT or .)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed of verify --suite energy")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamwave",
        description="Paradifferential beam-wave solver on the 1-D torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a solver, write manifest + CSV")
    _add_common(p)
    p.add_argument("--solver", choices=("kato", "oracle"), default="kato")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep N, eps or amplitude")
    _add_common(p)
    p.add_argument("--axis", choices=("N", "eps", "amplitude"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="preset utilities")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.document = _system_document(args.system) if getattr(args, "system", None) else None
        return args.func(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=_sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition failure: %s" % exc, file=_sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
