"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/sweep.py --workload small-n [--first-seed 10] [--trace 1] [--save]

For every metric: the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
Runs are sequential, one per seed for ten seeds from ``--first-seed``; each
is a plain ``run.py`` invocation with BENCHMARK.json's ``run_seconds``.
With ``--save`` the summary is merged into ``baseline.json`` under the
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"
SEEDS = 10


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", action="store_true", help="merge the summary into baseline.json")
    args = ap.parse_args()

    results = []
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    for seed in seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
        result = json.loads(lines[-1])
        results.append(result)
        line = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) if not args.trace else ""
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}  {line}", flush=True)

    names = list(results[0]["metrics"])
    summary = {
        "env": env,
        "seconds": spec["run_seconds"],
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: dict(unit=results[0]["metrics"][n]["unit"],
                            **summarise([r["metrics"][n]["value"] for r in results])) for n in names},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for n, s in summary["metrics"].items():
        bound = f"  bound {bounds[n]}" if n in bounds else ""
        print(f"{n:46s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}{bound}")

    if args.save:
        baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
        kind = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(kind, {})[args.workload] = summary
        BASELINE_PATH.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
