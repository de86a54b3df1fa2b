"""One cold benchmark process: set up, time one workload run, gate it.

Started by ``run.py``, one process per sample, because every ``beamwave``
CLI call starts a fresh interpreter and the package keeps module-level
caches (``quantize._op_cache``, ``FrequencyMultiplier._lambdified``) that a
second in-process run would find warm.  Prints one JSON object.

    python3 perfbench/child.py --workload kato-headline --seed 1 \\
        --spawned-at <time.monotonic() of the parent> [--trace] [--setup-only]

With ``--trace`` the raw spans go to
``.perfbench_out/spans-<workload>-seed<n>.json``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment():
    import numpy
    import sympy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "beamwave": os.path.relpath(Path(workloads.evolve.__file__).resolve().parent),
    }


def traced_run(run, inp):
    from tracer import Tracer, per_layer_values

    from beamwave.symbols import FrequencyMultiplier

    tracer = Tracer()
    lambdified = len(FrequencyMultiplier._lambdified)
    with tracer:
        start = time.perf_counter()
        out = run(inp)
        wall = time.perf_counter() - start
    layers = per_layer_values(tracer, len(FrequencyMultiplier._lambdified) - lambdified, wall)
    return out, wall, layers, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, run, gate, fingerprint = workloads.WORKLOADS[args.workload]
    inp = setup(args.seed)
    report = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    report["env"] = environment()
    try:
        if args.trace:
            out, wall, report["per_layer"], spans = traced_run(run, inp)
            OUT.mkdir(exist_ok=True)
            path = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
            with open(path, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
            report["spans_file"] = os.path.relpath(path)
        else:
            cpu = time.process_time()
            start = time.perf_counter()
            out = run(inp)
            wall = time.perf_counter() - start
            report["cpu_s"] = time.process_time() - cpu
    except Exception:  # a failed solve is a result: counted in error_rate
        report.update(ok=False, error=traceback.format_exc())
        print(json.dumps(report))
        return 0
    report["wall_s"] = wall
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        checks = gate(inp, out)
        report["fingerprint"] = fingerprint(inp, out)
    except Exception:
        checks = {"ok": False, "error": traceback.format_exc()}
    report["gate"] = checks
    report["ok"] = bool(checks["ok"])
    print(json.dumps(report, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
