"""Workload definitions and the exact-field verdict checks.

A workload is a list of ``perminv`` command lines run one after another in
one fresh process (a closed loop with one client).  Seeded suites take the
benchmark's ``--seed``.  Each call's verdict is checked against the exact
fields stored in ``reference.json``: fields that do not depend on the seed
are checked on every seed, the seed-dependent ones on seed 0 only.
"""

from __future__ import annotations

import csv
import io
import json
from math import ceil, log2
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = {
    "operator-n6": [
        "spectrum --n 6",
        "decomp-check --n 6 --seed {seed}",
        "avgbound --n 6 --k 3 --seed {seed}",
    ],
    "small-n": [
        "young identities --max-n 30",
        "decomp-check --n 5 --seed {seed}",
        "lemma-check --n 5 --p 1 --t 2 --w 8 --programs 20 --seed {seed}",
        "altgame --n 4 --t 1 --g 3 --seed {seed}",
        "grover --grid",
    ],
    "hellman-n20": [
        "hellman --log-n 20 --t 64 --t 1024 --trials 1 --sample 131072 --seed {seed}",
    ],
}

# The largest n for which a workload's calls build the operator M.
BUILD_M_N = {"operator-n6": 6, "small-n": 5}


def commands(workload: str, seed: int) -> list[list[str]]:
    return [line.format(seed=seed).split() for line in WORKLOADS[workload]]


def _hellman_fields(out: str) -> tuple[dict, dict, list[str]]:
    rows = list(csv.DictReader(io.StringIO(out)))
    problems = []
    for r in rows:
        n, t = int(r["n"]), int(r["t"])
        s, t_max = int(r["s_entries"]), int(r["t_max"])
        if float(r["success"]) != 1.0:
            problems.append(f"t={t}: success {r['success']}")
        if t_max > 2 * t + 2:
            problems.append(f"t={t}: t_max {t_max} > 2t+2")
        if int(r["st_product"]) != s * t_max:
            problems.append(f"t={t}: st_product != s_entries * t_max")
        if int(r["s_bits"]) != s * 2 * ceil(log2(max(n, 2))):
            problems.append(f"t={t}: s_bits != 2 ceil(log2 n) s_entries")
    fixed = {"rows": [[r["n"], r["t"], r["success"]] for r in rows]}
    return fixed, {"csv_rows": rows}, problems


def exact_fields(argv: list[str], out: str) -> tuple[dict, dict, list[str]]:
    """Split one call's output into (seed-independent fields, seed-dependent
    fields, internal-consistency problems)."""
    command = argv[0]
    if command == "hellman":
        return _hellman_fields(out)
    doc = json.loads(out)
    rep = doc["report"]
    problems = [] if doc["pass"] is True else ["pass is not true"]
    if command == "spectrum":
        fixed = {"blocks": [[b["lambda"], b["e_predicted"], b["mult_observed"]] for b in rep["blocks"]]}
        return fixed, {}, problems
    if command == "decomp-check":
        d = rep["decomposition"]
        fixed = {"a_dims": d["a_dims"], "high_ranks": d["high_ranks"], "low_ranks": d["low_ranks"]}
        return fixed, {}, problems
    if command == "avgbound":
        return {"predicted_max": rep["predicted_max"], "bound": rep["bound"]}, {}, problems
    if command == "lemma-check":
        counts = [[r["inequalities"]["checked"], r["inequalities"]["vacuous"]] for r in rep["runs"]]
        return {"checked_vacuous": counts}, {}, problems
    if command == "young":
        fixed = {"ratio_checked": rep["ratio_checked"], "eigenvalue_checked": rep["eigenvalue_checked"]}
        return fixed, {}, problems
    if command == "altgame":
        return {"games": len(rep["games"])}, {}, problems
    if command == "grover":
        return {"grid": [[r["n"], r["t"]] for r in rep["grid"]]}, {}, problems
    raise KeyError(f"no exact fields defined for {command}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def verdict_problems(argv, rc, out, seed, expected) -> list[str]:
    """Every reason this call's verdict fails; empty when it passes.

    ``expected`` is the call's entry in the reference: ``{"fixed": ...,
    "seed0": ...}``.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        fixed, seeded, problems = exact_fields(argv, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if fixed != expected["fixed"]:
        problems.append("seed-independent exact fields differ from the reference")
    if seed == 0 and seeded != expected["seed0"]:
        problems.append("seed-0 exact fields differ from the reference")
    return problems
