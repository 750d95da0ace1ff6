"""Per-layer metrics derived from one traced pass.

Names follow ``<module>.<function>[.t<spacing>].<quantity>``.  A function
that a workload never calls reads 0 on that workload.
"""

from __future__ import annotations

SPACINGS = (64, 1024)  # the hellman-n20 sweep

SELF_S = (
    "young.identities_report",
    "regrep.high_projection",
    "regrep.low_projection",
    "regrep.a_projector",
    "regrep.isotypic_projector",
    "regrep.spectrum",
    "regrep.decomposition_report",
    "regrep.change_of_challenge_check",
    "regrep.avg_bound_check",
    "querysim.random_program",
    "querysim.random_unitary",
    "querysim.apply_oracle",
    "querysim.apply_unitary",
    "querysim.support_residual",
    "querysim.check_progress_inequalities",
    "querysim.run_bit_fixing",
    "querysim.alternating_game",
    "querysim.random_query_adversary",
    "attacks.random_permutation",
) + tuple(f"attacks.{fn}.t{t}" for t in SPACINGS for fn in ("build_table", "measure_all"))

CALLS = (
    "young.character",
    "regrep.exact_rank",
    "regrep.high_projection",
    "querysim.apply_oracle",
    "querysim.apply_unitary",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_values(trace: dict, cpu_s: float, traced_verdict_s: float, untraced_verdict_s: float) -> dict:
    fns, counters, misses = trace["functions"], trace["counters"], trace["cache_misses"]

    def get(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    v: dict[str, float] = {}
    # Time in cli.main outside the suites: parsing, handlers, to_dict, output.
    v["cli.main.self_s"] = sum(row["self_s"] for name, row in fns.items() if name.startswith("cli."))
    for name in SELF_S:
        v[f"{name}.self_s"] = get(name, "self_s")
    for name in CALLS:
        v[f"{name}.calls"] = get(name, "calls")

    rank_busy = get("regrep.exact_rank", "busy_s")
    work = counters.get("regrep.exact_rank.work_d3", 0)
    v["regrep.exact_rank.busy_s"] = rank_busy
    v["regrep.exact_rank.work_d3"] = work
    v["regrep.exact_rank.work_rate"] = _ratio(work, rank_busy)
    v["regrep.subspace.builds"] = misses["regrep.subspace_a"] + misses["regrep.subspace_a_y"]
    v["regrep.subspace.self_s"] = get("regrep.subspace_a", "self_s") + get("regrep.subspace_a_y", "self_s")
    v["regrep.high_projection.builds"] = misses["regrep.high_projection"]
    build_wall = get("regrep.build_m", "wall_s")
    v["regrep.build_m.wall_s"] = build_wall
    v["regrep.build_m.parallelism"] = _ratio(get("regrep.build_m", "child_s"), build_wall)

    for t in SPACINGS:
        queries = counters.get(f"attacks.measure_all.t{t}.queries", 0)
        v[f"attacks.table.t{t}.s_entries"] = counters.get(f"attacks.table.t{t}.s_entries", 0)
        v[f"attacks.measure_all.t{t}.queries"] = queries
        v[f"attacks.measure_all.t{t}.queries_per_s"] = _ratio(queries, get(f"attacks.measure_all.t{t}", "busy_s"))

    v["process.cpu_s"] = cpu_s
    v["process.cpu_per_wall"] = _ratio(cpu_s, traced_verdict_s)
    v["trace.verdict_s"] = traced_verdict_s
    v["trace.overhead"] = _ratio(traced_verdict_s, untraced_verdict_s) - 1.0
    v["trace.errors"] = sum(row["errors"] for row in fns.values())
    v["trace.spans"] = trace["spans"]
    return v
