"""perminv's benchmark: cold time-to-verdict of a workload, one fresh process
per pass, and with ``--trace 1`` a per-layer split from one traced pass.

    python3 perfbench/run.py --workload operator-n6 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed or built).  A run starts fresh workload
processes one after another (a closed loop, one client) until ``--seconds``
would be exceeded, at least one, with set-up-only processes before and
after them.  With ``--trace 1`` a traced pass follows the untraced ones
instead of the set-up-only processes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``).  Lines before it are for
people: per-pass values, sample counts, verdicts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_PROCESSES = 24  # half before the passes, half after
RUN_DEADLINE_S = 170.0  # every process of a run ends within this


class BenchError(RuntimeError):
    pass


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def child(self, mode: str) -> dict:
        """Start one fresh process; returns its record plus ``setup_s``."""
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"{mode} process exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from exc
        wall = time.monotonic() - launched
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record["first_call"] - launched
        record["wall_s"] = wall
        return record


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def run(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    runner = Runner(workload, seed)
    # Set-up time drifts with host load over seconds, so the set-up-only
    # processes are split around the passes rather than run in one block.
    setup_batch = 0 if trace else SETUP_ONLY_PROCESSES // 2
    setups = [runner.child("setup")["setup_s"] for _ in range(setup_batch)]
    passes: list[dict] = []
    measuring = time.monotonic()
    while True:
        passes.append(runner.child("untraced"))
        elapsed = time.monotonic() - measuring
        if elapsed + statistics.median([p["wall_s"] for p in passes]) > seconds:
            break
    setups += [runner.child("setup")["setup_s"] for _ in range(setup_batch)]
    traced = runner.child("traced") if trace else None

    records = passes + ([traced] if traced else [])
    verdicts = [v for r in records for v in r["verdicts"]]
    failed = sum(1 for v in verdicts if v["problems"])
    setups += [p["setup_s"] for p in passes]
    verdict_s = [p["verdict_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"closed loop, one client: {len(passes)} untraced pass(es), each a fresh process"
          + (", then 1 traced pass" if trace else ""))
    env = records[0]["env"]
    env["git_sha"] = _git_sha(ROOT)
    if trace:
        env["build_m_pool_threads"] = traced["trace"]["build_m_pool_threads"]
    print("env " + json.dumps(env, sort_keys=True))
    for v in verdicts:
        print(f"verdict {'FAIL' if v['problems'] else 'ok  '} exit={v['exit']} {v['call']}"
              + (f"  -- {'; '.join(v['problems'])}" if v["problems"] else ""))

    attempted = len(verdicts)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdict_s),
        "peak_rss_mb": statistics.median(rss),
        "pass_rate": (attempted - failed) / attempted,
    }
    print(f"setup_s      {values['setup_s']:.4f} s   median of {len(setups)} {_fmt(setups)}")
    print(f"verdict_s    {values['verdict_s']:.4f} s   median of {len(verdict_s)} {_fmt(verdict_s)}")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.2f} MB  median of {len(rss)} {_fmt(rss)}")
    print(f"fail_rate    {failed / attempted:.4f}     {failed} of {attempted} verdicts failed")

    if trace:
        t = traced["trace"]
        print(f"traced pass: {t['spans']} spans; per function, sorted by busy time "
              "(self_s excludes time covered by child spans on any thread; busy_s sums threads):")
        print(f"  {'function':44s} {'calls':>8s} {'errors':>6s} {'self_s':>9s} {'busy_s':>9s} {'wall_s':>9s}")
        for name, row in sorted(t["functions"].items(), key=lambda kv: -kv[1]["busy_s"]):
            print(f"  {name:44s} {row['calls']:8d} {row['errors']:6d} {row['self_s']:9.4f} "
                  f"{row['busy_s']:9.4f} {row['wall_s']:9.4f}")
        values = layers.per_layer_values(t, traced["cpu_s"], traced["verdict_s"], values["verdict_s"])
        kind = "per_layer"
    else:
        kind = "end_to_end"

    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise BenchError(f"BENCHMARK.json names {m['name']}, which the benchmark does not compute")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if trace:
            print(f"{m['name']:46s} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "perminv" / "cli.py").is_file():
        print(f"error: {ROOT} holds no perminv source tree (src/perminv)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
