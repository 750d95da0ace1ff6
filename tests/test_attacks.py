"""Hellman table construction, inversion correctness, and tradeoff shape."""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perminv import attacks as at
from perminv import cli


def single_cycle(n: int) -> np.ndarray:
    return np.roll(np.arange(n), -1)  # i -> i+1 mod n


def from_cycles(order: np.ndarray, lengths) -> np.ndarray:
    """The permutation whose cycles are consecutive runs of `order`."""
    perm = np.empty(len(order), dtype=np.int64)
    start = 0
    for ell in lengths:
        cycle = order[start : start + ell]
        perm[cycle] = np.roll(cycle, -1)
        start += ell
    return perm


@st.composite
def structured_permutations(draw):
    """(perm, t): the identity, one N-cycle, an involution, cycles of length
    exactly t and t + 1 (the checkpoint boundary), or a random permutation."""
    t = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["identity", "n-cycle", "involution", "t and t+1", "random"]))
    if kind == "t and t+1":
        lengths = draw(st.lists(st.sampled_from([t, t + 1]), min_size=1, max_size=6))
        n = sum(lengths)
    else:
        n = draw(st.integers(1, 40))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    if kind == "identity":
        lengths = [1] * n
    elif kind == "n-cycle":
        lengths = [n]
    elif kind == "involution":
        pairs = draw(st.integers(0, n // 2))
        lengths = [2] * pairs + [1] * (n - 2 * pairs)
    elif kind == "random":
        return order, t
    return from_cycles(order, lengths), t


def build_table_reference(perm, t: int) -> at.HellmanTable:
    """The per-point loop that built tables before cycles were found in
    lockstep: walk each cycle from its minimum, checkpoints every t steps."""
    perm = np.asarray(perm)
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
    return at.HellmanTable(n=n, t=t, entries=entries, cycle_count=cycles, long_cycles=long_cycles)


def scalar_stats(perm, table, targets) -> tuple[int, float, float]:
    """(t_max, t_avg, success rate) of one :func:`at.invert` per target, each
    with a fresh counted oracle; a walk that gives up has spent the cap."""
    queries = []
    solved = 0
    for y in targets:
        oracle = at.OracleCounter(perm)
        try:
            x = at.invert(table, oracle, int(y))
        except at.InversionError:
            pass
        else:
            assert perm[x] == y
            solved += 1
        queries.append(oracle.queries)
    return max(queries), float(np.mean(queries)), solved / len(queries)


@settings(max_examples=150, deadline=None)
@given(case=structured_permutations(), ruler=st.sampled_from([1, 4, 64]))
def test_table_matches_reference_on_structured_permutations(case, ruler):
    # Rulers every 4th point put rulers on most cycles of these small
    # permutations; every 64th leaves most cycles to the second round.
    perm, t = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(at, "_RULER", ruler)
        assert at.build_table(perm, t) == build_table_reference(perm, t)


def _ruler_free_cycle(n: int) -> np.ndarray:
    """One cycle through every point but the rulers, which form another."""
    rulers = np.arange(0, n, at._RULER)
    rest = np.setdiff1d(np.arange(n), rulers)
    return from_cycles(np.concatenate([rest, rulers]), [len(rest), len(rulers)])


@pytest.mark.parametrize(
    "perm",
    [
        np.arange(300),
        np.arange(300)[::-1],
        np.arange(300) ^ 1,
        single_cycle(300),
        _ruler_free_cycle(300),
        *(np.random.default_rng(seed).permutation(2000 + 37 * seed) for seed in range(4)),
    ],
    ids=["identity", "reversal", "pairs", "n-cycle", "ruler-free cycle", *(f"random{s}" for s in range(4))],
)
@pytest.mark.parametrize("t", [1, 2, 7, 64, 600])
def test_table_matches_reference(perm, t):
    assert at.build_table(perm, t) == build_table_reference(perm, t)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_integer_types_give_the_same_tables_and_walks(dtype):
    # Every permutation is checked into int32, whatever integer type it
    # arrives in.
    rng = np.random.default_rng(5)
    perm = rng.permutation(3000)
    given = perm.astype(dtype)
    cycles, other = at.find_cycles(perm), at.find_cycles(given)
    assert other.order.dtype == np.int32
    assert all(np.array_equal(getattr(cycles, k), getattr(other, k)) for k in ("order", "starts", "lens"))
    for t in (1, 16, 128):
        table = at.build_table(perm, t)
        assert at.build_table(given, t) == table
        assert at.measure_all(given, table) == at.measure_all(perm, table)
        sample = rng.choice(3000, size=100, replace=False)
        assert at.measure_all(given, table, sample.astype(dtype)) == at.measure_all(perm, table, sample)


@pytest.mark.parametrize(
    "perm", [[0.0, 1.0], [True, False], np.broadcast_to(np.int32(0), (1 << 31,))], ids=["float", "bool", "2^31"]
)
def test_only_int32_permutations_accepted(perm):
    # The 2^31 points are one zero-stride view, refused before any check
    # reads them.
    with pytest.raises(ValueError):
        at.find_cycles(perm)


def test_cycles_start_at_their_minima_in_order():
    perm = np.random.default_rng(4).permutation(3000)
    cycles = at.find_cycles(perm)
    for s, ell in zip(cycles.starts, cycles.lens):
        cycle = cycles.order[s : s + ell]
        assert cycle[0] == cycle.min()
        assert np.array_equal(perm[cycle], np.roll(cycle, -1))


def test_identity_has_no_entries():
    table = at.build_table(np.arange(10), 3)
    assert table.s_entries == 0
    assert table.cycle_count == 10
    assert table.long_cycles == 0


def test_identity_inverts_in_one_query():
    table = at.build_table(np.arange(10), 3)
    for y in range(10):
        oracle = at.OracleCounter(np.arange(10))
        assert at.invert(table, oracle, y) == y
        assert oracle.queries == 1


def test_single_cycle_checkpoint_count():
    n, t = 256, 16
    table = at.build_table(single_cycle(n), t)
    assert table.s_entries == 16  # ceil(n / t)
    assert table.long_cycles == 1


def test_entries_point_t_steps_back():
    rng = np.random.default_rng(0)
    perm = rng.permutation(200)
    t = 7
    table = at.build_table(perm, t)
    for checkpoint, back in table.entries.items():
        z = back
        for _ in range(t):
            z = int(perm[z])
        assert z == checkpoint


def test_invert_exhaustive_single_cycle():
    n, t = 144, 12
    perm = single_cycle(n)
    table = at.build_table(perm, t)
    worst = 0
    for y in range(n):
        oracle = at.OracleCounter(perm)
        x = at.invert(table, oracle, y)
        assert perm[x] == y
        worst = max(worst, oracle.queries)
    assert worst <= 2 * t + 2


def test_invert_random_permutation_full_sweep():
    rng = np.random.default_rng(5)
    n, t = 1 << 12, 64
    perm = rng.permutation(n)
    table = at.build_table(perm, t)
    stats = at.measure_all(perm, table)
    assert stats.success_rate == 1.0
    assert stats.t_max <= 2 * t + 2


def test_scalar_and_batch_agree_exactly():
    rng = np.random.default_rng(3)
    perm = rng.permutation(512)
    table = at.build_table(perm, 32)
    queries = []
    for y in range(512):
        oracle = at.OracleCounter(perm)
        x = at.invert(table, oracle, y)
        assert perm[x] == y
        queries.append(oracle.queries)
    stats = at.measure_all(perm, table)
    assert stats.t_max == max(queries)
    assert abs(stats.t_avg - float(np.mean(queries))) < 1e-12
    assert stats.success_rate == 1.0


@settings(max_examples=150, deadline=None)
@given(case=structured_permutations(), data=st.data())
def test_batch_walk_matches_scalar_on_structured_permutations(case, data):
    perm, t = case
    n = len(perm)
    table = at.build_table(perm, t)
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    for targets in (None, np.array(picks + picks[:1])):  # with a repeat
        stats = at.measure_all(perm, table, targets=targets)
        expect = scalar_stats(perm, table, range(n) if targets is None else targets)
        assert (stats.t_max, stats.t_avg, stats.success_rate) == expect
        assert stats.success_rate == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_batch_walk_matches_scalar_on_a_foreign_table(seed):
    # A table built from perm_a walked on perm_b: some walks give up at the
    # cap, and the batch walk must fail on exactly the same challenges.
    rng = np.random.default_rng(seed)
    n, t = 64, 4
    perm_a, perm_b = rng.permutation(n), rng.permutation(n)
    table = at.build_table(perm_a, t)
    for targets in (None, rng.integers(0, n, size=100)):
        stats = at.measure_all(perm_b, table, targets=targets)
        expect = scalar_stats(perm_b, table, range(n) if targets is None else targets)
        assert (stats.t_max, stats.t_avg, stats.success_rate) == expect
        assert 0 < stats.success_rate < 1
        assert stats.t_max == 2 * t + 2


def _with_repeats(points: np.ndarray, k: int) -> np.ndarray:
    """The first k - 1 of points and then the first again (k = 1: just it)."""
    return points[np.arange(k) % max(k - 1, 1)]


# None keeps the CPU count of the host; the others force that many parts.
CPU_COUNTS = [1, 2, 3, None]


def force_parts(monkeypatch, cpus: int | None) -> int:
    """Split even the smallest walk into one part per CPU, with that many
    CPUs unless cpus is None; returns the number of parts."""
    monkeypatch.setattr(at, "_MIN_PART", 1)
    if cpus is not None:
        monkeypatch.setattr(at, "_usable_cpus", lambda: cpus)
    return at._usable_cpus()


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("foreign", [False, True], ids=["own", "foreign"])
def test_split_walk_matches_scalar(cpus, foreign, monkeypatch):
    # Target counts below, at and above the number of parts: each part
    # writes only its own slots, repeated targets included.
    parts = force_parts(monkeypatch, cpus)
    rng = np.random.default_rng(11)
    n, t = 64, 4
    perm = rng.permutation(n)
    table = at.build_table(rng.permutation(n) if foreign else perm, t)
    points = rng.permutation(n)
    for k in (1, 2, 3, 2 * parts + 1):
        targets = _with_repeats(points, k)
        stats = at.measure_all(perm, table, targets=targets)
        assert (stats.t_max, stats.t_avg, stats.success_rate) == scalar_stats(perm, table, targets)


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_walks_that_end_early_match_scalar(cpus, monkeypatch):
    # Most challenges are fixed points, done at step 1; most of the rest lie
    # on 3-cycles, done at step 3; the walks on the 40-cycles go on.  The
    # finished walks step on beside the live ones without recording again,
    # with the same stats as invert.
    force_parts(monkeypatch, cpus)
    rng = np.random.default_rng(13)
    lengths = [1] * 300 + [3] * 60 + [40] * 2
    order = rng.permutation(sum(lengths))
    perm = from_cycles(order, lengths)
    targets = rng.permutation(len(perm))
    for table in (at.build_table(perm, 50), at.build_table(perm, 8)):
        stats = at.measure_all(perm, table, targets=targets)
        assert (stats.t_max, stats.t_avg, stats.success_rate) == scalar_stats(perm, table, targets)


@pytest.mark.parametrize("foreign", [False, True], ids=["own", "foreign"])
def test_one_part_walk_gives_identical_stats(foreign, monkeypatch):
    # More parts than cores and a short switch interval, so that the
    # parts' writes to the shared results interleave.
    rng = np.random.default_rng(12)
    n = 1 << 12
    perm = rng.permutation(n)
    table = at.build_table(rng.permutation(n) if foreign else perm, 64)
    sample = rng.choice(n, size=1001, replace=False)
    force_parts(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = [at.measure_all(perm, table, targets) for targets in (None, sample)]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(at, "_usable_cpus", lambda: 1)
    assert [at.measure_all(perm, table, targets) for targets in (None, sample)] == split


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_walk_off_the_cycle_type_raises_in_the_last_part(cpus, monkeypatch):
    # Only challenges 1..8 pass through the bad entry below, and the one
    # given here comes last, so the last part alone sees the mismatch.
    force_parts(monkeypatch, cpus)
    perm = single_cycle(64)
    table = at.build_table(perm, 8)
    table.entries[8] = 63
    targets = np.r_[np.arange(9, 64), 5]
    with pytest.raises(ArithmeticError, match="walk to 5 spent 9 queries, its cycle type predicts 8"):
        at.measure_all(perm, table, targets=targets)


def test_walk_off_the_cycle_type_raises():
    # A checkpoint stored t + 1 steps back still inverts every challenge
    # within the cap, but the walks through it spend t + 1 queries where the
    # cycle type predicts t.
    perm = single_cycle(64)
    table = at.build_table(perm, 8)
    table.entries[8] = 63
    with pytest.raises(ArithmeticError, match="spent 9 queries, its cycle type predicts 8"):
        at.measure_all(perm, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wrong_prediction_fails_the_hellman_verdict(fmt, capsys, monkeypatch):
    # Every cycle of a 1024-point permutation is at most t = 1024 long, so
    # an off-by-one cycle length mispredicts every walk.
    length_of = at.Cycles.length_of
    monkeypatch.setattr(at.Cycles, "length_of", lambda self, points: length_of(self, points) + 1)
    code = cli.main(["hellman", "--log-n", "10", "--t", "1024", "--trials", "1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    reason = "ArithmeticError: walk to 0 spent"
    if fmt == "csv":
        assert captured.out == ""
        assert captured.err.startswith(f"fail: {reason}")
    else:
        payload = json.loads(captured.out)
        assert payload["pass"] is False
        assert payload["report"]["reason"].startswith(reason)


def test_mismatched_table_raises():
    rng = np.random.default_rng(1)
    perm_a = rng.permutation(64)
    perm_b = rng.permutation(64)
    table = at.build_table(perm_a, 4)
    tripped = False
    for y in range(64):
        oracle = at.OracleCounter(perm_b)
        try:
            x = at.invert(table, oracle, y)
        except at.InversionError:
            tripped = True
            continue
        if perm_b[x] != y:
            tripped = True
    assert tripped


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        at.OracleCounter([0, 0, 1])
    with pytest.raises(ValueError):
        at.build_table(np.arange(8), 0)


@pytest.mark.parametrize("perm", [[1, 1, 2], [0, 5, 1]])
def test_non_permutation_rejected(perm):
    with pytest.raises(ValueError, match="not a permutation table"):
        at.build_table(perm, 1)
    with pytest.raises(ValueError, match="not a permutation table"):
        at.measure_all(perm, at.build_table(np.arange(3), 1))


@pytest.mark.parametrize("targets", [[-1, 3], [64], [[1, 2]], [1.0, 2.0], []])
def test_targets_outside_range_rejected(targets):
    # -1 used to wrap to the last point and count as a failed challenge, 64
    # to end in an IndexError, and no targets to report a vacuous pass.
    perm = np.random.default_rng(2).permutation(64)
    with pytest.raises(ValueError, match="targets must be"):
        at.measure_all(perm, at.build_table(perm, 4), targets=targets)


def test_table_of_another_size_rejected():
    # A 64-point table walked on a 16-point permutation used to end in an
    # IndexError.
    rng = np.random.default_rng(3)
    table = at.build_table(rng.permutation(64), 4)
    with pytest.raises(ValueError, match="table for 64 points"):
        at.measure_all(rng.permutation(16), table)


def test_bits_accounting():
    n, t = 1 << 10, 16
    rng = np.random.default_rng(2)
    perm = rng.permutation(n)
    table = at.build_table(perm, t)
    assert table.s_bits == table.s_entries * 2 * 10


def test_advice_free_regime_large_t():
    n = 512
    rng = np.random.default_rng(9)
    perm = rng.permutation(n)
    table = at.build_table(perm, n)  # t >= n: no cycle is longer than t
    assert table.s_entries == 0
    stats = at.measure_all(perm, table)
    assert stats.success_rate == 1.0
    assert stats.t_max <= 2 * n + 2


def test_sweep_entries_track_n_over_t():
    n = 1 << 12
    rows = at.tradeoff_sweep(n, [16, 64, 256], trials=2, seed=0)
    for r in rows:
        assert r.success_rate == 1.0
        # S is about n/t up to the count of long cycles (roughly ln n).
        assert r.s_entries >= n // r.t // 2
        assert r.s_entries <= n // r.t + 40


def test_sweep_loglog_slope_is_minus_one():
    n = 1 << 12
    t_values = [64, 128, 256, 512, 1024]  # sqrt(n) .. n/4
    rows = at.tradeoff_sweep(n, t_values, trials=2, seed=1)
    xs = np.log([r.s_entries for r in rows])
    ys = np.log([r.t_max for r in rows])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_sweep_product_bounds():
    n = 1 << 12
    rows = at.tradeoff_sweep(n, [64, 256, 1024], trials=2, seed=0)
    for r in rows:
        assert n / 8 <= r.st_product <= 8 * n


def test_csv_format(capsys):
    code = cli.main(["hellman", "--log-n", "10", "--t", "32", "--trials", "1", "--seed", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,t,s_entries,s_bits,t_max,t_avg,success,st_product"
    assert len(lines) == 2
    assert lines[1].startswith("1024,32,")


def test_sweep_finds_each_permutation_cycles_once(monkeypatch):
    calls = []
    find_cycles = at.find_cycles

    def counted(perm):
        calls.append(len(perm))
        return find_cycles(perm)

    monkeypatch.setattr(at, "find_cycles", counted)
    rows = at.tradeoff_sweep(256, [4, 16, 4], trials=2, seed=0)
    assert calls == [256, 256]
    assert [r.t for r in rows] == [4, 16, 4]
    assert rows[0] == rows[2]


def test_sweep_checks_each_permutation_and_targets_once(monkeypatch):
    # Per trial, not per spacing: the permutation check, the check that the
    # decomposition describes the permutation and the targets' cycle lengths.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(at, "_as_permutation", counted("check", at._as_permutation))
    monkeypatch.setattr(at.Cycles, "describe", counted("describe", at.Cycles.describe))
    monkeypatch.setattr(at.Cycles, "length_of", counted("length_of", at.Cycles.length_of))
    at.tradeoff_sweep(256, [4, 16, 64], trials=2, seed=0, sample_targets=100)
    assert calls == ["check", "describe", "length_of"] * 2


def test_build_table_checks_the_permutation_once(monkeypatch):
    calls = []
    check = at._as_permutation

    def counted(perm):
        calls.append(len(perm))
        return check(perm)

    monkeypatch.setattr(at, "_as_permutation", counted)
    table = at.build_table(np.random.default_rng(0).permutation(256), 16)
    assert calls == [256] and table.n == 256
    with pytest.raises(ValueError, match="not a permutation table"):
        at.build_table([0, 0, 1], 2)


def test_sweep_refuses_cycles_of_another_permutation(monkeypatch):
    find_cycles = at.find_cycles
    monkeypatch.setattr(at, "find_cycles", lambda perm: find_cycles(np.roll(perm, 1)))
    with pytest.raises(ArithmeticError, match="not the permutation's"):
        at.tradeoff_sweep(256, [4, 16], trials=1, seed=0)


@pytest.mark.parametrize(
    ("t_values", "trials", "name"), [([], 3, "t_values"), ([4], 0, "trials"), ([4, 0], 1, "spacing t")]
)
def test_vacuous_sweep_refused(t_values, trials, name):
    # No spacing used to return no rows and no trials to fail inside max().
    with pytest.raises(ValueError, match=name):
        at.tradeoff_sweep(16, t_values, trials=trials)


def test_sampled_targets():
    n = 1 << 12
    rows = at.tradeoff_sweep(n, [64], trials=1, seed=0, sample_targets=500)
    assert rows[0].success_rate == 1.0


@pytest.mark.parametrize("n", [1, 2, 1000, 1 << 16])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sweep_draws_rng_permutation_in_int32(n, seed, monkeypatch):
    # The sweep shuffles an int32 arange(n) in place: the permutation that
    # rng.permutation(n) draws, and the rng left in the same state, so that
    # the sampled targets drawn after it are the same too.  Both of
    # choice's paths are met: Floyd's at n = 1000, a tail shuffle at 2^16.
    drawn = []
    find_cycles, as_targets = at.find_cycles, at._as_targets
    monkeypatch.setattr(at, "find_cycles", lambda perm: drawn.append(perm.copy()) or find_cycles(perm))
    monkeypatch.setattr(at, "_as_targets", lambda ys, n: drawn.append(ys) or as_targets(ys, n))
    sample = n // 8 if n > 1000 else n // 2 or None
    at.tradeoff_sweep(n, [4], trials=1, seed=seed, sample_targets=sample)
    rng = np.random.default_rng(seed)
    perm, targets = drawn
    assert perm.dtype == np.int32
    assert np.array_equal(perm, rng.permutation(n))
    if sample is None:
        assert targets is None
    else:
        assert np.array_equal(targets, rng.choice(n, size=sample, replace=False))


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_peak_memory_in_int32_arrays(cpus, monkeypatch):
    # Traced peak of a sampled sweep, in units of one int32 array of N
    # entries.  find_cycles holds at most three besides the permutation,
    # and the walk the permutation, the cycles' order, the marked oracle and
    # two bool arrays; the targets, the walk's arrays and the table's dict
    # add about one more.  An int64 draw beside find_cycles' int32 copy
    # peaked at 7.7.
    parts = force_parts(monkeypatch, cpus)
    assert parts == cpus
    n = 1 << 18
    at.tradeoff_sweep(1 << 10, [4], trials=1, sample_targets=1 << 8)  # lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        at.tradeoff_sweep(n, [64, 1024], trials=1, sample_targets=1 << 15)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 4 * n
