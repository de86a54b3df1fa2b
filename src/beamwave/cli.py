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

from .bridge import (
    BridgeSystem,
    QuadraticNonlinearity,
    arioli_gazzola_preset,
    bridge_system_from_json,
)
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
    oracle_solve,
    trajectory_gap,
)

PRESETS = ("linear", "headline", "mixed", "parity", "damped", "arioli_gazzola")


def build_preset(name, grid, amplitude=1e-2):
    """(BridgeSystem, (y0, y1, theta0, theta1)) for a named preset."""
    if not np.isfinite(amplitude):
        raise ConfigError("amplitude must be finite, got %r" % (amplitude,))
    a = amplitude
    x = grid.x

    def fields(y0, y1, t0, t1):
        return tuple(transform(grid, v) for v in (y0, y1, t0, t1))

    generic = fields(a * np.sin(x), 0.5 * a * np.cos(x), a * np.sin(2 * x), 0.5 * a * np.cos(2 * x))
    odd = fields(a * np.sin(x), 0.5 * a * np.sin(2 * x), a * np.sin(2 * x), 0.5 * a * np.sin(x))

    if name == "linear":
        return BridgeSystem(grid, 1.0, 1.0), generic
    if name == "headline":
        F2 = QuadraticNonlinearity(grid, [(1.0, 5, 5)])  # theta_xx^2
        return BridgeSystem(grid, 1.0, 1.0, F2=F2), generic
    if name == "mixed":
        F1 = QuadraticNonlinearity(grid, [(1.0, 4, 5)])  # theta_x theta_xx
        F2 = QuadraticNonlinearity(grid, [(1.0, 2, 5), (0.5, 5, 5)])  # y_xx theta_xx + theta_xx^2/2
        return BridgeSystem(grid, 1.0, 1.0, F1=F1, F2=F2), generic
    if name == "parity":
        F2 = QuadraticNonlinearity(grid, [(1.0, 0, 4)])  # y theta_x, parity-passing
        return BridgeSystem(grid, 1.0, 1.0, F2=F2), odd
    if name == "damped":
        F2 = QuadraticNonlinearity(grid, [(1.0, 5, 5)])
        return BridgeSystem(grid, 1.0, 1.0, F2=F2, alpha=-0.5, beta=-0.5), generic
    if name == "arioli_gazzola":
        return arioli_gazzola_preset(grid), generic
    raise ConfigError("unknown preset %r (choose from %s)" % (name, ", ".join(PRESETS)))


def _config_hash(doc):
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _outdir(args):
    root = args.outdir or os.environ.get("BEAMWAVE_OUT", ".")
    os.makedirs(root, exist_ok=True)
    return root


def _solver_config(args):
    return SolverConfig(
        dt=args.dt,
        T_final=args.T,
        eps=args.eps,
        cfl_safety=args.cfl_safety,
        kato_tol=args.kato_tol,
        kato_max_iter=args.kato_max_iter,
    )


def _load_system(args, grid):
    if args.system:
        try:
            with open(args.system) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read system file %r: %s" % (args.system, exc)) from None
        if not isinstance(doc, dict):
            raise ConfigError("system file %r is not a JSON object" % args.system)
        if doc.get("n", grid.n) != grid.n:
            raise ConfigError("system file %r has n = %r but the grid has n = %d"
                              % (args.system, doc["n"], grid.n))
        sysm = bridge_system_from_json(doc, grid)
        _, data = build_preset("linear", grid, args.amplitude)
        return sysm, data
    return build_preset(args.preset, grid, args.amplitude)


def cmd_simulate(args):
    grid = TorusGrid(args.n)
    sysm, (y0, y1, t0, t1) = _load_system(args, grid)
    config = _solver_config(args)
    doc = {
        "command": "simulate",
        "preset": args.preset,
        "system": args.system,
        "n": args.n,
        "amplitude": args.amplitude,
        "solver": args.solver,
        "config": config.to_json_dict(),
    }
    tag = _config_hash(doc)
    if args.solver == "oracle":
        result = oracle_solve(sysm, y0, y1, t0, t1, config)
    else:
        V0 = complexify(y0, y1, t0, t1).stacked()
        result = kato_solve(sysm, V0, config)
    out = _outdir(args)
    base = os.path.join(out, "run_%s" % tag)
    result.write_csv(base + ".csv")
    result.write_manifest(base + ".json", config, extra={"config_hash": tag, "request": doc})
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
        norms.append(exact_operator_norm(g, remainder_bw_minus_weyl(a), 2.0, 4.0, band="resolved"))
        a0 = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
        comp.append(
            exact_operator_norm(g, composition_residual(a0, a, 2.0), 2.0, 2.0, band="resolved")
        )
    checks["bw_minus_weyl_norms"] = norms
    checks["composition_residual_norms"] = comp
    ok = (
        checks["multiplication_exact"] < 1e-12
        and checks["i_xi_is_ddx"] < 1e-12
        and max(norms) / min(norms) < 1.25
        and max(comp) / min(comp) < 1.25
    )
    return checks, ok


def _paralinearized(args, n):
    grid = TorusGrid(n)
    sysm, (y0, y1, t0, t1) = _load_system(args, grid)
    para = ParalinearizedSystem(sysm, grid)
    V = complexify(y0, y1, t0, t1).stacked()
    return para, V


def _spread(norms):
    """max/min of measured norms; a norm that is 0 or negative counts as unbounded."""
    lo = min(norms)
    return max(norms) / lo if lo > 0 else float("inf")


def _suite_parametrix(args):
    checks = {}
    reports = []
    for n in (32, 64, 128):
        para, V = _paralinearized(args, n)
        P = build_parametrix(para, V, 2.5)
        reports.append(conjugation_residual(P, para, V))
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
    grid = TorusGrid(args.n)
    sysm, (y0, y1, t0, t1) = _load_system(args, grid)
    config = _solver_config(args)
    kat = kato_solve(sysm, complexify(y0, y1, t0, t1).stacked(), config)
    orc = oracle_solve(sysm, y0, y1, t0, t1, config)
    s1 = config.ladder.s1
    gap = trajectory_gap(grid, kat, orc, s1)
    rel = gap / max(orc.sup_norm(s1), 1e-300)
    checks = {
        "relative_discrepancy": rel,
        "kato_sweeps": len(kat.increments),
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
    doc = {"command": "verify", "suite": args.suite, "n": args.n, "preset": args.preset,
           "system": args.system, "seed": args.seed}
    tag = _config_hash(doc)
    out = _outdir(args)
    path = os.path.join(out, "verify_%s_%s.json" % (args.suite, tag))
    try:
        checks, ok = SUITES[args.suite](args)
    except PreconditionError as exc:
        report = {"suite": args.suite, "config_hash": tag, "passed": False,
                  "precondition_failure": str(exc)}
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        print("verify %s: precondition failure: %s" % (args.suite, exc))
        return 3
    report = {"suite": args.suite, "config_hash": tag, "passed": bool(ok), "checks": checks}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print("verify %s: %s (%s)" % (args.suite, "pass" if ok else "FAIL", path))
    return 0 if ok else 1


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError("cannot parse sweep values %r" % args.values) from None
    if len(values) < 2:
        raise PreconditionError("sweep needs at least 2 values")
    doc = {"command": "sweep", "axis": args.axis, "values": values, "preset": args.preset,
           "n": args.n}
    tag = _config_hash(doc)
    out = _outdir(args)
    rows = []
    failures = {}
    slope = None

    if args.axis == "N":
        bad = [v for v in values if not (np.isfinite(v) and v == int(v))]
        if bad:
            raise ConfigError("sweep values of N must be integers, got %r" % bad[0])
        for n in map(int, values):
            try:
                para, V = _paralinearized(args, n)
                P = build_parametrix(para, V, 2.5)
                rep = conjugation_residual(P, para, V)
                rows.append((n, rep["conjugation_norm"]))
            except (PreconditionError, NumericalError) as exc:  # flagged per value
                failures[str(n)] = str(exc)
        vals = [m for _, m in rows]
        bounded = bool(vals) and _spread(vals) < 1.25
        extra = {"bounded": bounded}
    elif args.axis == "eps":
        grid = TorusGrid(args.n)
        sysm, (y0, y1, t0, t1) = _load_system(args, grid)
        config = _solver_config(args)
        rep = epsilon_continuation(sysm, complexify(y0, y1, t0, t1).stacked(), values, config)
        rows = [(a, g) for a, _, g in rep["gaps"]]
        slope = rep["slope"]
        extra = {"slope": slope}
    elif args.axis == "amplitude":
        grid = TorusGrid(args.n)
        config = _solver_config(args)
        for v in values:
            try:
                sysm, (y0, y1, t0, t1) = build_preset(args.preset, grid, v)
                run = kato_solve(sysm, complexify(y0, y1, t0, t1).stacked(), config)
                rows.append((v, run.sup_norm(config.ladder.s1)))
            except (PreconditionError, NumericalError) as exc:
                failures[str(v)] = str(exc)
        good = [(v, m) for v, m in rows if m > 0]
        if len(good) >= 2:
            slope = float(np.polyfit(np.log([v for v, _ in good]), np.log([m for _, m in good]), 1)[0])
        extra = {"slope": slope}
    else:
        raise ConfigError("unknown sweep axis %r" % args.axis)

    csv_path = os.path.join(out, "sweep_%s_%s.csv" % (args.axis, tag))
    with open(csv_path, "w") as fh:
        fh.write("value,metric\n")
        for v, m in rows:
            fh.write("%.12g,%.12g\n" % (v, m))
    report = {"axis": args.axis, "config_hash": tag, "rows": rows, "failures": failures}
    report.update(extra)
    with open(os.path.join(out, "sweep_%s_%s.json" % (args.axis, tag)), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print("sweep %s: %d values, %d failures%s" % (
        args.axis, len(values), len(failures),
        (", slope %.4f" % slope) if slope is not None else ""))
    return 0


def cmd_preset(args):
    if args.action == "list":
        for name in PRESETS:
            print(name)
        return 0
    raise ConfigError("unknown preset action %r" % args.action)


def _add_common(p):
    p.add_argument("--preset", default="headline", help="named system preset")
    p.add_argument("--system", default=None, help="JSON system description path")
    p.add_argument("--n", type=int, default=128, help="grid size (modes)")
    p.add_argument("--amplitude", type=float, default=1e-2, help="initial data amplitude")
    p.add_argument("--T", type=float, default=0.1, help="time horizon")
    p.add_argument("--dt", type=float, default=None, help="time step (default: CFL limit)")
    p.add_argument("--eps", type=float, default=0.0, help="parabolic regularization")
    p.add_argument("--cfl-safety", dest="cfl_safety", type=float, default=0.9)
    p.add_argument("--kato-tol", dest="kato_tol", type=float, default=1e-10)
    p.add_argument("--kato-max-iter", dest="kato_max_iter", type=int, default=25)
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
