"""Regenerate ``reference.json``, the exact fields every verdict is checked
against, from the program in ``src/``.

    python3 perfbench/make_reference.py

Seed-dependent fields are stored for seed 0.  Each workload is also run at
seed 1 to confirm that the fields stored as seed-independent really are.
Regenerate only when a change is meant to alter an exact field, and say so
in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from child import run_calls  # noqa: E402


def _fields(workload: str, seed: int) -> list[dict]:
    entries = []
    for argv, rc, out, error, _ in run_calls(workloads.commands(workload, seed), None):
        call = " ".join(argv)
        if error is not None or rc != 0:
            raise SystemExit(f"{call}: exit {rc}, {error}")
        fixed, seeded, problems = workloads.exact_fields(argv, out)
        if problems:
            raise SystemExit(f"{call}: {problems}")
        entries.append({"call": call, "fixed": fixed, "seed0": seeded})
    return entries


def main() -> None:
    reference = {}
    for workload in workloads.WORKLOADS:
        entries = _fields(workload, 0)
        other = _fields(workload, 1)
        if [e["fixed"] for e in entries] != [e["fixed"] for e in other]:
            raise SystemExit(f"{workload}: 'fixed' fields differ between seeds 0 and 1")
        reference[workload] = entries
        print(f"{workload}: {len(entries)} calls", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
