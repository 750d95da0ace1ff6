"""Hellman-style time-memory tradeoff specialized to permutations.

Preprocessing finds the permutation's cycles once (:func:`find_cycles`) and
derives the table for each spacing t from them: on every cycle longer than
t, checkpoints sit every t steps, each stored with the point t steps before
it on the cycle.  Online inversion walks forward from the challenge until it
returns to the challenge (short cycle) or hits a checkpoint, jumps back t
steps through the table, and walks forward to the predecessor.  For
permutations this succeeds on every challenge with exactly min(t, length of
its cycle) forward queries, never more than the cap of 2t + 2, so the advice
size S and worst-case query count T trade off as S * T = Theta(N).
:func:`measure_all` walks all challenges in lockstep, one int32 gather per
query from a copy of the permutation whose bit 31 marks checkpoint values,
with the challenges split across the CPUs the process may use, and checks
each count against the cycle type.  Points are int32 from the draw to the
walk: every permutation is checked into int32, so N is below 2^31, and
:func:`tradeoff_sweep` shuffles an int32 arange.

Advice is reported both in entries (pairs of point indices) and in bits
(2 * ceil(log2 N) per entry) for comparability with bit-counted advice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np


class InversionError(RuntimeError):
    """Walk guard tripped: the table does not belong to this oracle."""


def _as_permutation(perm) -> np.ndarray:
    """perm as an int32 array; ValueError unless it is a 1-D integer array
    that permutes range(len(perm)), with fewer than 2^31 points."""
    perm = np.asarray(perm)
    n = perm.size
    if n >= 1 << 31:
        raise ValueError(f"points are int32; {n} points are too many")
    ok = perm.ndim == 1 and (
        n == 0 or (np.issubdtype(perm.dtype, np.integer) and perm.min() >= 0 and perm.max() < n)
    )
    if ok:
        perm = perm.astype(np.int32, copy=False)
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


_RULER = 64  # find_cycles walks from every _RULER-th point


@dataclass(frozen=True, eq=False)
class Cycles:
    """A permutation's cycles laid end to end: cycle i is
    ``order[starts[i] : starts[i] + lens[i]]`` in walking order from its
    minimum, and the cycles come in the order :func:`_chain` numbers them."""

    order: np.ndarray
    starts: np.ndarray
    lens: np.ndarray

    def describe(self, perm: np.ndarray) -> bool:
        """Whether these are the cycles of perm."""
        if self.order.size != perm.size:
            return False
        # perm must take each point to the next one in order, and the last
        # point of each cycle to the cycle's first.  The gathered array is
        # patched in place rather than compared with a rolled copy of
        # order, which would add 4 MB to the peak at N = 2^20.
        order, ends = self.order, self.starts + self.lens - 1
        succ = perm[order]
        if not np.array_equal(succ[ends], order[self.starts]):
            return False
        succ[ends[:-1]] = order[ends[:-1] + 1]
        return bool(np.array_equal(succ[:-1], order[1:]))

    def length_of(self, points: np.ndarray) -> np.ndarray:
        """The length of the cycle through each of points."""
        length = np.empty(self.order.size, dtype=self.lens.dtype)
        length[self.order] = np.repeat(self.lens, self.lens)
        return length[points]


def find_cycles(perm) -> Cycles:
    """Decompose a permutation into its cycles.

    Every _RULER-th point is a ruler.  Walks from all rulers step forward in
    lockstep, each until it reaches the next ruler, so each point of a cycle
    through a ruler is passed by exactly one walk.  The points of cycles
    that no ruler lies on all become rulers of a second round, whose walks
    take one step each.  :func:`_chain` then joins these segments into
    cycles.  Working arrays are int32, and besides perm at most three of
    them have N entries at once.  The arrays over the segments, N / 64 of
    them plus one per point of the second round, and over that round's
    points come on top; on a random permutation they are small.
    """
    perm = _as_permutation(perm)
    n = perm.size
    seg = np.full(n, -1, dtype=np.int32)  # the segment that passes each point
    step = np.empty(n, dtype=np.int32)  # and the point's offset in it
    after, size = [], []  # per segment: the next segment on its cycle, its length
    rulers = np.arange(0, n, _RULER, dtype=np.int32)
    base = 0
    for _ in range(2):
        k = rulers.size
        seg[rulers] = np.arange(base, base + k, dtype=np.int32)
        step[rulers] = 0
        after.append(np.empty(k, dtype=np.int32))
        size.append(np.empty(k, dtype=np.int32))
        live = np.arange(k, dtype=np.int32)
        cur = perm[rulers]
        del rulers
        s = 1
        while live.size:
            at = seg[cur]
            end = at >= 0  # only rulers are marked before a walk reaches them
            after[-1][live[end]] = at[end]
            size[-1][live[end]] = s
            live, cur = live[~end], cur[~end]
            seg[cur] = live + base
            step[cur] = s
            cur = perm[cur]
            s += 1
        base += k
        # Round two: every point of a cycle that no ruler lies on.
        rulers = np.flatnonzero(seg < 0).astype(np.int32)
    after, size = np.concatenate(after), np.concatenate(size)
    cycle, offset, lens = _chain(after, size)
    del after, size

    # Each point's cycle and position from its cycle's least segment; rotate
    # each cycle to its least point and lay the cycles out in turn.
    pos = step  # computed in place
    pos += offset[seg]
    cyc = cycle[seg]
    del seg, cycle, offset
    least = np.full(lens.size, n, dtype=np.int32)
    np.minimum.at(least, cyc, np.arange(n, dtype=np.int32))
    pos -= pos[least][cyc]
    pos %= lens[cyc]
    starts = np.zeros(lens.size, dtype=np.int32)
    np.cumsum(lens[:-1], out=starts[1:])
    pos += starts[cyc]
    del cyc
    order = np.empty(n, dtype=np.int32)
    order[pos] = np.arange(n, dtype=np.int32)
    return Cycles(order=order, starts=starts, lens=lens)


def _chain(after: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join segments into cycles: segment i has size[i] points and is
    followed on its cycle by segment after[i].  Returns each segment's cycle,
    numbered by the cycle's least segment, the number of points from that
    segment's start to its own, and the number of points on each cycle.

    Pointer doubling: after r rounds, each segment knows the least segment
    among itself and the 2^r - 1 that follow it, and how many points lie
    before that one.  Once a round finds no less segment, every window
    holds its cycle's least segment, so about log2 of the longest cycle's
    segment count rounds are made, each on all the segments.
    """
    k, total = after.size, int(size.sum())
    least = np.arange(k, dtype=np.int32)
    ahead = np.zeros(k, dtype=np.int32)  # the points from the segment to least
    span = size.copy()  # the points in the window, capped at total
    jump = after.copy()  # the segment 2^r on
    while True:
        further = least[jump]
        less = further < least
        if not less.any():
            break
        ahead[less] = span[less] + ahead[jump[less]]
        least[less] = further[less]
        # Only a window that has not yet wrapped round its cycle reads its
        # span, and such a span is below total; capping every span at total
        # keeps it exact where it is read and keeps it in int32.
        span += np.minimum(span[jump], total - span)
        jump = jump[jump]
    heads = np.flatnonzero(least == np.arange(k))
    lens = size[heads] + ahead[after[heads]]
    cycle = np.empty(k, dtype=np.int32)
    cycle[heads] = np.arange(heads.size, dtype=np.int32)
    cycle = cycle[least]
    offset = lens[cycle] - ahead
    offset[heads] = 0
    return cycle, offset, lens


@dataclass
class HellmanTable:
    """Per-cycle checkpoint map: checkpoint -> point t steps earlier."""

    n: int
    t: int
    entries: dict[int, int]
    cycle_count: int
    long_cycles: int  # cycles longer than t (the ones that got checkpoints)
    # The decomposition the table was derived from; measure_all predicts
    # each walk's query count from it.
    cycles: Cycles | None = field(default=None, compare=False, repr=False)

    @property
    def s_entries(self) -> int:
        return len(self.entries)

    @property
    def s_bits(self) -> int:
        return len(self.entries) * 2 * ceil(log2(max(self.n, 2)))


def build_table(perm, t: int) -> HellmanTable:
    """Preprocess a permutation into a checkpoint table with spacing t.

    The table is derived from perm's decomposition by :func:`find_cycles`.
    Cycles of length <= t contribute no entries; they are inverted online
    by a full walk.  On longer cycles the checkpoints sit at offsets 0, t,
    2t, ... from the cycle's minimum element, so consecutive checkpoints are
    at most t apart (the wrap gap is the short one).
    """
    if t < 1:
        raise ValueError("spacing t must be >= 1")
    return _derive_table(t, find_cycles(perm))


def _derive_table(t: int, cycles: Cycles) -> HellmanTable:
    """build_table's table for a checked spacing t >= 1 and a permutation's
    decomposition."""
    order, long = cycles.order, cycles.lens > t
    entries: dict[int, int] = {}
    for s, ell in zip(cycles.starts[long].tolist(), cycles.lens[long].tolist()):
        pos = np.arange(0, ell, t)
        entries.update(zip(order[s + pos].tolist(), order[s + (pos - t) % ell].tolist()))
    return HellmanTable(
        n=order.size,
        t=t,
        entries=entries,
        cycle_count=cycles.lens.size,
        long_cycles=int(long.sum()),
        cycles=cycles,
    )


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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_VALUE = 0x7FFFFFFF  # the low 31 bits of an oracle word: perm's value
_MARK = np.int32(-(1 << 31))  # bit 31: that value is a checkpoint
# The fewest targets a part of the walk gets.  Below about 2^16 targets per
# part the numpy calls are too short for the threads to overlap, and two
# parts were up to 25% slower than one on the 2-core machine.
_MIN_PART = 1 << 16


def measure_all(perm, table: HellmanTable, targets=None) -> AttackStats:
    """Invert every target with a batch walk; returns aggregated stats.

    Semantically identical to calling :func:`invert` per challenge (the unit
    tests pin that equivalence).  The walks step in lockstep: at step s
    every live walk makes exactly one query, so a walk that finds its target
    at step s used s queries, and a walk still live after the cap of 2t + 2
    steps used the cap and fails.  Every answer is verified with one
    uncounted evaluation; for a permutation the success rate is 1.0.
    ValueError unless the table has the permutation's size, the permutation
    has fewer than 2^31 points and the targets are a non-empty 1-D integer
    array of points in range(n).

    A query is one gather from an int32 copy of perm (the oracle) whose
    bit 31 marks the values that are checkpoints.  The targets are split
    into contiguous parts, one per CPU the process may use, but never so
    many that a part gets fewer than 2^16 targets (one part below 2^17).
    The first part is walked on the calling thread and the others on
    worker threads (numpy releases the GIL in the gathers and comparisons).
    Each part writes only its own targets' results, so the stats do not
    depend on the split.

    When the table was derived from this permutation's cycles, each walk
    must spend exactly min(t, length of the target's cycle) queries, and
    any other count raises ArithmeticError.  A table from another
    permutation is held to the cap alone.
    """
    perm = _as_permutation(perm)
    n = len(perm)
    if table.n != n:
        raise ValueError(f"table for {table.n} points walked on a permutation of {n}")
    ys = _as_targets(targets, n)
    # The lengths are taken before the oracle is built, so that the N-sized
    # arrays of describe and length_of never coexist with it.
    lengths = None
    if table.cycles is not None and table.cycles.describe(perm):
        lengths = table.cycles.length_of(ys)
    return _walk_all(perm, table, ys, lengths)


def _as_targets(targets, n: int) -> np.ndarray:
    """The targets as int32, every point of range(n) when None; ValueError
    unless they are a non-empty 1-D integer array in range(n)."""
    ys = np.arange(n, dtype=np.int32) if targets is None else np.asarray(targets)
    if ys.ndim != 1 or not ys.size or not (
        np.issubdtype(ys.dtype, np.integer) and 0 <= ys.min() and ys.max() < n
    ):
        raise ValueError(f"targets must be a non-empty 1-D array of integers in range({n})")
    return ys.astype(np.int32, copy=False)


def _walk_all(perm: np.ndarray, table: HellmanTable, ys: np.ndarray, lengths) -> AttackStats:
    """measure_all's walk, on a checked permutation, a table of its size and
    checked targets ys.  lengths is the length of the cycle through each
    target, which every walk's query count is held to, or None for a table
    from another permutation, which is held to the cap alone."""
    n, m = len(perm), len(ys)
    t = table.t
    cap = 2 * t + 2
    predicted = None if lengths is None else np.minimum(t, lengths)

    entries = table.entries
    checkpoint = np.zeros(n, dtype=bool)
    checkpoint[list(entries)] = True
    oracle = perm.copy()
    np.bitwise_or(oracle, _MARK, out=oracle, where=checkpoint[perm])

    def back(points: np.ndarray) -> list[int]:
        return [entries[c] for c in points.tolist()]

    # A walk that never finds its target spent the cap; no walk runs 2^31
    # steps, so the int32 cap below is only ever read when it is exact.
    queries = np.full(m, min(cap, _VALUE), dtype=np.int32)
    answer = np.full(m, -1, dtype=np.int32)
    # A walk is in phase A while it walks forward from its target y until it
    # returns to y or hits a checkpoint, whose entry takes it t steps back.
    # Challenges that are themselves checkpoints jump at once.  Positions
    # are intp: np.take copies an index array of any other type.
    in_a = ~checkpoint[ys]
    del checkpoint
    start = ys.astype(np.intp)
    start[~in_a] = back(ys[~in_a])

    # The per-step arrays: each walk's oracle word, whether it is a
    # checkpoint, whether the walk finds its target at this step, and whether
    # it is still live.  They are allocated here, on the calling thread, and
    # each part writes its own slices through out=, so a worker thread
    # allocates no array per step and keeps no malloc arena of its own.
    steps = (np.empty(m, np.int32), np.empty(m, bool), np.empty(m, bool), np.ones(m, bool))

    def walk(lo: int, hi: int) -> None:
        # Walk i has its target y[i], its position cur[i], whether it is in
        # phase A (a[i]) and whether it is still live; a walk that found its
        # target steps on but records nothing.
        y, cur, a = ys[lo:hi], start[lo:hi], in_a[lo:hi]
        f, hit, done, live = (x[lo:hi] for x in steps)
        for s in range(1, cap + 1):
            np.take(oracle, cur, out=f, mode="clip")  # "raise" copies f
            np.less(f, 0, out=hit)
            f &= _VALUE
            np.equal(f, y, out=done)
            done &= live
            if done.any():
                np.copyto(answer[lo:hi], cur, where=done)
                np.copyto(queries[lo:hi], s, where=done)
                live ^= done
                if not live.any():
                    break
                a &= live
            hit &= a
            if hit.any():
                f[hit] = back(f[hit])
                a ^= hit
            np.copyto(cur, f)

    # Imported here, not at the top: it adds about 10 ms to the start-up of
    # every command, and only this walk uses it.
    from concurrent.futures import ThreadPoolExecutor

    parts = max(1, min(_usable_cpus(), m // _MIN_PART))
    edges = [m * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(max(parts - 1, 1)) as pool:
        rest = [pool.submit(walk, lo, hi) for lo, hi in zip(edges[1:], edges[2:])]
        walk(edges[0], edges[1])
        for job in rest:
            job.result()
    del steps, start, in_a

    if predicted is not None:
        wrong = np.flatnonzero(queries != predicted)
        if wrong.size:
            i = wrong[0]
            raise ArithmeticError(
                f"walk to {ys[i]} spent {queries[i]} queries, its cycle type predicts {predicted[i]}"
            )

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


def tradeoff_sweep(
    n: int,
    t_values,
    trials: int = 3,
    seed: int = 0,
    sample_targets: int | None = None,
) -> list[AttackStats]:
    """Build tables for seeded random permutations at each spacing and invert
    every challenge (or a seeded sample for very large n), aggregating the
    worst case across trials.  Each trial's permutation is checked and
    decomposed into cycles once, and the tables at every spacing are derived
    from that; the cycle length through each target is also taken once, and
    every walk is held to it as in :func:`measure_all`."""
    if n > 1 << 20:
        raise ValueError("n capped at 2^20 for sweeps")
    t_values = list(t_values)
    if not t_values:
        raise ValueError("t_values must name at least one spacing")
    if any(t < 1 for t in t_values):
        raise ValueError("spacing t must be >= 1")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_t: list[list[AttackStats]] = [[] for _ in t_values]
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        # rng.permutation(n) shuffles an int64 arange(n): the same draw,
        # and the same state of rng after it, at half the size.
        perm = np.arange(n, dtype=np.int32)
        rng.shuffle(perm)
        targets = None
        if sample_targets is not None and sample_targets < n:
            targets = rng.choice(n, size=sample_targets, replace=False)
        # find_cycles checks that perm is a permutation.
        cycles = find_cycles(perm)
        if not cycles.describe(perm):
            raise ArithmeticError("find_cycles returned cycles that are not the permutation's")
        ys = _as_targets(targets, n)
        lengths = cycles.length_of(ys)
        for t, per_trial in zip(t_values, per_t):
            per_trial.append(_walk_all(perm, _derive_table(t, cycles), ys, lengths))
    rows: list[AttackStats] = []
    for t, per_trial in zip(t_values, per_t):
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
