"""Hellman-style time-memory tradeoff specialized to permutations.

Preprocessing decomposes the permutation into cycles and, on every cycle
longer than the spacing t, drops checkpoints every t steps; each checkpoint
is stored with the point t steps before it on the cycle.  Online inversion
walks forward from the challenge until it returns to the challenge (short
cycle) or hits a checkpoint, jumps back t steps through the table, and
walks forward to the predecessor.  For permutations this succeeds on every
challenge with at most 2t + 2 forward queries, so the advice size S and
worst-case query count T trade off as S * T = Theta(N).

Advice is reported both in entries (pairs of point indices) and in bits
(2 * ceil(log2 N) per entry) for comparability with bit-counted advice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np


class InversionError(RuntimeError):
    """Walk guard tripped: the table does not belong to this oracle."""


def _as_permutation(perm) -> np.ndarray:
    """perm as an int64 array; ValueError unless it permutes range(len(perm))."""
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    ok = perm.ndim == 1 and (n == 0 or (perm.min() >= 0 and perm.max() < n))
    if ok:
        hit = np.zeros(n, dtype=bool)
        hit[perm] = True
        ok = bool(hit.all())
    if not ok:
        raise ValueError("not a permutation table")
    return perm


class OracleCounter:
    """Forward-evaluation oracle with exact query accounting."""

    def __init__(self, table):
        self.table = _as_permutation(table)
        self.queries = 0

    def query(self, x: int) -> int:
        self.queries += 1
        return int(self.table[x])


@dataclass
class HellmanTable:
    """Per-cycle checkpoint map: checkpoint -> point t steps earlier."""

    n: int
    t: int
    entries: dict[int, int]
    cycle_count: int
    long_cycles: int  # cycles longer than t (the ones that got checkpoints)

    @property
    def s_entries(self) -> int:
        return len(self.entries)

    @property
    def s_bits(self) -> int:
        return len(self.entries) * 2 * ceil(log2(max(self.n, 2)))


def build_table(perm, t: int) -> HellmanTable:
    """Preprocess a permutation into a checkpoint table with spacing t.

    Cycles of length <= t contribute no entries; they are inverted online by
    a full walk.  On longer cycles the checkpoints sit at offsets 0, t, 2t,
    ... from the cycle's minimum element, so consecutive checkpoints are at
    most t apart (the wrap gap is the short one).
    """
    if t < 1:
        raise ValueError("spacing t must be >= 1")
    perm = _as_permutation(perm)
    n = len(perm)
    entries: dict[int, int] = {}
    seen = np.zeros(n, dtype=bool)
    cycles = 0
    long_cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        z = int(perm[start])
        while z != start:
            seen[z] = True
            cycle.append(z)
            z = int(perm[z])
        cycles += 1
        ell = len(cycle)
        if ell <= t:
            continue
        long_cycles += 1
        for pos in range(0, ell, t):
            entries[cycle[pos]] = cycle[(pos - t) % ell]
    return HellmanTable(n=n, t=t, entries=entries, cycle_count=cycles, long_cycles=long_cycles)


def invert(table: HellmanTable, oracle: OracleCounter, y: int) -> int:
    """Return x with pi(x) = y using at most 2t + 2 counted queries."""
    t = table.t
    cap = 2 * t + 2
    entries = table.entries

    def walk_to_target(x: int, budget: int) -> int:
        for _ in range(budget):
            fx = oracle.query(x)
            if fx == y:
                return x
            x = fx
        raise InversionError(f"no preimage of {y} within the query cap")

    if y in entries:
        return walk_to_target(entries[y], cap)
    z = y
    for used in range(cap):
        fz = oracle.query(z)
        if fz == y:
            return z
        if fz in entries:
            return walk_to_target(entries[fz], cap - used - 1)
        z = fz
    raise InversionError(f"no preimage of {y} within the query cap")


@dataclass
class AttackStats:
    n: int
    t: int
    s_entries: int
    s_bits: int
    t_max: int
    t_avg: float
    success_rate: float
    st_product: int


def measure_all(perm, table: HellmanTable, targets=None) -> AttackStats:
    """Invert every target with a batch walk; returns aggregated stats.

    Semantically identical to calling :func:`invert` per challenge (the unit
    tests pin that equivalence).  The walks step in lockstep, and only the
    live ones are kept: at step s every live walk makes exactly one query, so
    a walk that finds its target at step s used s queries, and a walk still
    live after the cap of 2t + 2 steps used the cap and fails.  Every answer
    is verified with one uncounted evaluation; for a permutation the success
    rate is 1.0.  ValueError unless the table has the permutation's size and
    the targets are a non-empty 1-D integer array of points in range(n).
    """
    perm = _as_permutation(perm)
    n = len(perm)
    if table.n != n:
        raise ValueError(f"table for {table.n} points walked on a permutation of {n}")
    ys = np.arange(n) if targets is None else np.asarray(targets)
    if ys.ndim != 1 or not ys.size or not (
        np.issubdtype(ys.dtype, np.integer) and 0 <= ys.min() and ys.max() < n
    ):
        raise ValueError(f"targets must be a non-empty 1-D array of integers in range({n})")
    ys = ys.astype(np.int64, copy=False)
    m = len(ys)
    t = table.t
    cap = 2 * t + 2

    entries = table.entries
    checkpoint = np.zeros(n, dtype=bool)
    checkpoint[list(entries)] = True

    def back(points: np.ndarray) -> list[int]:
        return [entries[c] for c in points.tolist()]

    queries = np.full(m, cap, dtype=np.int64)
    answer = np.full(m, -1, dtype=np.int64)
    # A live walk is its index into the targets (slot), its target y, its
    # position cur and whether it is still in phase A (in_a): walking forward
    # from y until it returns to y or hits a checkpoint, whose entry takes it
    # t steps back.  Challenges that are themselves checkpoints jump at once.
    slot = np.arange(m)
    y = ys
    in_a = ~checkpoint[ys]
    cur = ys.copy()
    cur[~in_a] = back(ys[~in_a])
    for s in range(1, cap + 1):
        if not slot.size:
            break
        f = perm[cur]
        done = f == y
        if done.any():
            answer[slot[done]] = cur[done]
            queries[slot[done]] = s
            live = ~done
            slot, y, f, in_a = slot[live], y[live], f[live], in_a[live]
        hit = in_a & checkpoint[f]
        if hit.any():
            f[hit] = back(f[hit])
            in_a &= ~hit
        cur = f

    found = answer >= 0
    correct = np.zeros(m, dtype=bool)
    correct[found] = perm[answer[found]] == ys[found]  # uncounted verification
    t_max = int(queries.max())
    return AttackStats(
        n=n,
        t=t,
        s_entries=table.s_entries,
        s_bits=table.s_bits,
        t_max=t_max,
        t_avg=float(queries.mean()),
        success_rate=float(correct.mean()),
        st_product=table.s_entries * t_max,
    )


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(n)


def tradeoff_sweep(
    n: int,
    t_values,
    trials: int = 3,
    seed: int = 0,
    sample_targets: int | None = None,
) -> list[AttackStats]:
    """Build tables for seeded random permutations at each spacing and invert
    every challenge (or a seeded sample for very large n), aggregating the
    worst case across trials."""
    if n > 1 << 20:
        raise ValueError("n capped at 2^20 for sweeps")
    rows: list[AttackStats] = []
    for t in t_values:
        per_trial: list[AttackStats] = []
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            perm = random_permutation(n, rng)
            table = build_table(perm, t)
            targets = None
            if sample_targets is not None and sample_targets < n:
                targets = rng.choice(n, size=sample_targets, replace=False)
            per_trial.append(measure_all(perm, table, targets=targets))
        s_max = max(st.s_entries for st in per_trial)
        t_max = max(st.t_max for st in per_trial)
        rows.append(
            AttackStats(
                n=n,
                t=t,
                s_entries=s_max,
                s_bits=max(st.s_bits for st in per_trial),
                t_max=t_max,
                t_avg=float(np.mean([st.t_avg for st in per_trial])),
                success_rate=min(st.success_rate for st in per_trial),
                st_product=s_max * t_max,
            )
        )
    return rows

