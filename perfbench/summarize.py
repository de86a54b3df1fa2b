"""Summarize the detail files that run.py left in .perfbench_out/.

    python3 perfbench/summarize.py                      # print the table
    python3 perfbench/summarize.py --out perfbench/baseline.json

For each workload and end-to-end metric: the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, over every seed found.  The JSON also keeps each seed's
numeric fingerprint, gate values and the environment of the runs, and the
per-layer metrics of the traced run of the lowest seed, if there is one.
"""

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def collect(directory, trace):
    runs = {}
    for path in sorted(directory.glob("*-trace%d.json" % trace)):
        detail = json.loads(path.read_text())
        runs.setdefault(detail["workload"], []).append(detail)
    for details in runs.values():
        details.sort(key=lambda d: d["seed"])
    return runs


def summarize(runs, traced):
    out = {}
    for workload, details in sorted(runs.items()):
        metrics = {}
        for name in details[0]["result"]["metrics"]:
            metrics[name] = stats([d["result"]["metrics"][name]["value"] for d in details])
        for name in details[0].get("informational", {}):
            metrics[name] = stats([d["informational"][name][0] for d in details])
        first = details[0]["samples"][0]
        out[workload] = {
            "seeds": [d["seed"] for d in details],
            "seconds": details[0]["seconds"],
            "attempted": sum(d["result"]["attempted"] for d in details),
            "failed": sum(d["result"]["failed"] for d in details),
            "metrics": metrics,
            "per_seed": {str(d["seed"]): {"fingerprint": d["samples"][0].get("fingerprint"),
                                          "gate": d["samples"][0].get("gate")} for d in details},
            "environment": dict(first.get("env", {}), git_commit=details[0]["git_commit"],
                                nproc=details[0]["nproc"],
                                blas_threads_requested=details[0]["blas_threads_requested"]),
        }
        if workload in traced:
            first = traced[workload][0]
            out[workload]["per_layer"] = {
                "seed": first["seed"],
                "metrics": {k: m["value"] for k, m in first["result"]["metrics"].items()},
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    summary = summarize(collect(OUT, 0), collect(OUT, 1))
    for workload, entry in summary.items():
        print("%s: %d seeds, %d attempted, %d failed" % (
            workload, len(entry["seeds"]), entry["attempted"], entry["failed"]))
        for name, s in entry["metrics"].items():
            spread = "n/a" if s["spread"] is None else "%.4f" % s["spread"]
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s" % (
                name, s["median"], s["q1"], s["q3"], spread))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
