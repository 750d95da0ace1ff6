"""One fresh process of a workload: import perminv, run its calls, report.

Run by ``run.py`` with ``src/`` of the checkout on PYTHONPATH, so every
in-process ``functools.cache`` starts empty as in a user's CLI run.  Prints
one JSON line.  The ``first_call`` timestamp is CLOCK_MONOTONIC, which Linux
shares across processes; ``run.py`` subtracts its own launch timestamp to get
the set-up time.

    python3 perfbench/child.py --workload NAME --seed N --mode untraced|traced|setup
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_calls(calls, tracer):
    """Run each command line through cli.main; returns per-call results with
    the number of traced spans that raised during the call."""
    from perminv import cli

    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        first_span = len(tracer.spans) if tracer else 0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            error = None
        except Exception as exc:  # a raising suite is a failed verdict, not a crash
            rc, error = None, repr(exc)
        raised = sum(s.error for s in tracer.spans[first_span:]) if tracer else 0
        results.append((argv, rc, out.getvalue(), error, raised))
    return results


def _check(results, seed, reference) -> list[dict]:
    import workloads

    verdicts = []
    for (argv, rc, out, error, raised), expected in zip(results, reference, strict=True):
        if error is not None:
            problems = [f"raised {error}"]
        else:
            problems = workloads.verdict_problems(argv, rc, out, seed, expected)
        if raised:
            problems.append(f"{raised} traced calls raised")
        verdicts.append({"call": " ".join(argv), "exit": rc, "problems": problems})
    return verdicts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    args = ap.parse_args()

    import numpy  # noqa: F401  -- part of a CLI user's start-up
    import perminv.cli  # noqa: F401

    tracer = None
    if args.mode == "traced":
        import importlib

        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install({name: importlib.import_module(f"perminv.{name}") for name in tracing.PACKAGE_MODULES})

    import workloads

    calls = workloads.commands(args.workload, args.seed)
    cpu0 = _cpu_s()
    first_call = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"first_call": first_call}))
        return 0
    results = run_calls(calls, tracer)
    last_verdict = time.monotonic()
    cpu_s = _cpu_s() - cpu0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "first_call": first_call,
        "verdict_s": last_verdict - first_call,
        "peak_rss_mb": peak_rss_kb / 1024,
        "cpu_s": cpu_s,
        "verdicts": _check(results, args.seed, workloads.load_reference()[args.workload]),
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = {
            "functions": tracer.summary(),
            "counters": dict(tracer.counters),
            "cache_misses": {
                name: tracer.cache_misses(name)
                for name in ("regrep.subspace_a", "regrep.subspace_a_y", "regrep.high_projection")
            },
            "spans": len(tracer.spans),
            "build_m_pool_threads": tracer.pool_threads("regrep.build_m"),
        }
    record["env"] = environment(workloads.BUILD_M_N.get(args.workload))
    print(json.dumps(record))
    return 0


def environment(build_m_n: int | None) -> dict:
    """The machine and the program defaults the workload runs with.

    ``build_m_threads`` is the pool size ``regrep.build_m`` picks when called
    without ``threads``, min(n, cpu_count), for the n the workload builds;
    None when the workload never builds M.  A traced pass also records the
    pool threads it observed (``build_m_pool_threads``).
    """
    import numpy

    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "build_m_threads": min(build_m_n, os.cpu_count() or 1) if build_m_n else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


if __name__ == "__main__":
    sys.exit(main())
