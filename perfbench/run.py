"""beamwave benchmark: cold-process runs of one workload, measured and gated.

    python3 perfbench/run.py --workload kato-headline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every sample is a fresh interpreter
(``child.py``) with BLAS threads fixed at min(2, nproc).  Samples are taken
until ``--seconds`` have passed (at least one), and set-up is repeated in
set-up-only processes until there are nine set-up samples.  Prints one line
per metric, a detail line, and, last, the result as one JSON object.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` runs one untraced and one traced sample and reports the
per-layer metrics of the traced one; ``trace.overhead_s`` is the traced
minus the untraced ``wall_s``.  ``--workload all`` runs every workload in
turn and prints a table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("kato-headline", "parametrix-ladder", "oracle-n512")
MIN_SETUPS = 9
BUDGET_S = 170.0  # no child is started or left running past this


def git_commit():
    """The checked-out commit from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    def __init__(self, workload, seed, env, deadline):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.deadline = deadline

    def spawn(self, *flags):
        """One cold child; its report, or a failure record."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"ok": False, "error": "benchmark time budget exhausted"}
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed)]
        spawned = time.monotonic()
        cmd += ["--spawned-at", repr(spawned)] + list(flags)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": "child exceeded the time budget"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "error": "child exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:])}
        report = json.loads(lines[-1])
        report["elapsed_s"] = time.monotonic() - spawned
        return report


def timed_samples(runner, seconds):
    samples = []
    start = time.monotonic()
    while True:
        samples.append(runner.spawn())
        now = time.monotonic()
        longest = max(s.get("elapsed_s", 0.0) for s in samples)
        if now - start >= seconds or now + longest > runner.deadline:
            return samples


def median(samples, key):
    return statistics.median(s[key] for s in samples if key in s)


def measure(runner, seconds):
    """(result, detail) of an untraced run."""
    samples = timed_samples(runner, seconds)
    setups = [s["setup_s"] for s in samples if "setup_s" in s]
    while len(setups) < MIN_SETUPS:
        extra = runner.spawn("--setup-only")
        if "setup_s" not in extra:
            break
        setups.append(extra["setup_s"])
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        raise SystemExit("perfbench: no sample completed: %s" % samples[0].get("error"))
    failed = sum(not s["ok"] for s in samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median(timed, "wall_s"), "s"),
        "peak_rss_mb": (median(timed, "peak_rss_mb"), "MB"),
    }
    extra = {"error_rate": (failed / len(samples), "1")}
    gaps = [s["gate"]["oracle_gap_rel"] for s in samples if "oracle_gap_rel" in s.get("gate", {})]
    if gaps:
        extra["oracle_gap_rel"] = (max(gaps), "1")
    detail = {"samples": samples, "setup_samples_s": setups, "informational": extra}
    return _result(samples, failed, metrics), detail


def measure_traced(runner):
    """(result, detail) of one untraced and one traced sample."""
    plain = runner.spawn()
    traced = runner.spawn("--trace")
    samples = [plain, traced]
    if "per_layer" not in traced or "wall_s" not in plain:
        raise SystemExit("perfbench: traced run failed: %s" % (
            traced.get("error") or plain.get("error")))
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    failed = sum(not s["ok"] for s in samples)
    detail = {"samples": samples, "spans_file": traced.get("spans_file")}
    return _result(samples, failed, metrics), detail


def _result(samples, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(workload, args, env):
    runner = Runner(workload, args.seed, env, time.monotonic() + BUDGET_S)
    if args.trace:
        result, detail = measure_traced(runner)
    else:
        result, detail = measure(runner, args.seconds)
    detail.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  git_commit=git_commit(), nproc=len(os.sched_getaffinity(0)),
                  blas_threads_requested=int(env["OPENBLAS_NUM_THREADS"]),
                  result=result)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))
    path.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    shown = dict(result["metrics"])
    for name, (value, unit) in detail.get("informational", {}).items():
        shown[name] = {"value": value, "unit": unit}
    for name, m in shown.items():
        print("%-18s %-46s %14.6g %s" % (workload, name, m["value"], m["unit"]))
    print("%-18s correct=%s attempted=%d failed=%d detail=%s" % (
        workload, result["correct"], result["attempted"], result["failed"], path))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beamwave" / "evolve.py").is_file():
        print("perfbench: no beamwave sources at %s; run from a checkout" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    env = child_env(min(2, len(os.sched_getaffinity(0))))
    if args.workload == "all":
        results = {w: run_one(w, args, env) for w in WORKLOADS}
        print(json.dumps(results))
    else:
        print(json.dumps(run_one(args.workload, args, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
