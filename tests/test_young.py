"""Exact combinatorics: examples pinned by independent oracles.

The oracles here are deliberately written against different algorithms than
the library: partition counts come from Euler's pentagonal recurrence,
dimensions from counting standard fillings by corner removal, characters
from the Frobenius symmetric-function formula.
"""

import gc
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perminv import regrep, young


# ---------------------------------------------------------------------------
# Oracles.


@lru_cache(maxsize=None)
def partition_count_pentagonal(n: int) -> int:
    """p(n) by Euler's pentagonal number theorem."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count_pentagonal(n - g1) + partition_count_pentagonal(n - g2))
        k += 1
    return total


def removable_by_pop(lam):
    """Corner removal row by row on a list, dropping a row that empties."""
    out = []
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] > below:
            parts = list(lam)
            parts[i] -= 1
            if parts[i] == 0:
                parts.pop(i)
            out.append(tuple(parts))
    return out


@lru_cache(maxsize=None)
def syt_count(lam: tuple[int, ...]) -> int:
    """Standard fillings counted by removing corners one box at a time."""
    if not lam:
        return 1
    return sum(syt_count(mu) for mu in removable_by_pop(lam))


def frobenius_character(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Character as the coefficient of x^(lam + delta) in a_delta * prod p_j.

    Exponents only grow as factors are multiplied in, so a monomial with an
    exponent above the target's can never reach it and is dropped."""
    r = max(len(lam), 1)
    delta = tuple(range(r - 1, -1, -1))
    target = tuple((lam[i] if i < len(lam) else 0) + delta[i] for i in range(r))
    poly: dict[tuple[int, ...], int] = {}
    for sigma in permutations(range(r)):
        inversions = sum(
            1 for a in range(r) for b in range(a + 1, r) if sigma[a] > sigma[b]
        )
        expo = tuple(delta[sigma[i]] for i in range(r))
        if all(e <= g for e, g in zip(expo, target)):
            poly[expo] = poly.get(expo, 0) + (-1) ** inversions
    for j in cycles:
        nxt: dict[tuple[int, ...], int] = {}
        for expo, coeff in poly.items():
            for i in range(r):
                if expo[i] + j > target[i]:
                    continue
                e = list(expo)
                e[i] += j
                key = tuple(e)
                nxt[key] = nxt.get(key, 0) + coeff
        poly = nxt
    return poly.get(target, 0)


# ---------------------------------------------------------------------------
# Partitions.


def partitions_recursive(max_n: int) -> list[tuple[tuple[int, ...], ...]]:
    """partitions(n) for n = 0..max_n by the recursive definition: each
    first part from n down to 1, then the partitions of the rest with parts
    at most it.  The memo lives for one call."""

    @lru_cache(maxsize=None)
    def bounded(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
        if n == 0:
            return ((),)
        return tuple(
            (first,) + rest for first in range(min(n, max_part), 0, -1) for rest in bounded(n - first, first)
        )

    return [bounded(n, n) for n in range(max_n + 1)]


def test_partitions_follow_the_recursive_definition():
    # Every golden digest reads this order.
    for n, want in enumerate(partitions_recursive(40)):
        assert young.partitions(n) == want, n


def test_partitions_of_four_reverse_lex():
    assert young.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_zero():
    assert young.partitions(0) == ((),)


def test_partition_counts_against_pentagonal_recurrence():
    for n in range(0, 26):
        assert len(young.partitions(n)) == partition_count_pentagonal(n)
    assert len(young.partitions(7)) == 15


def test_partitions_unique_and_valid():
    for n in range(0, 12):
        parts = young.partitions(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert young.check_partition(lam) == lam
            assert sum(lam) == n


def is_partition_two_pass(parts) -> bool:
    parts = tuple(parts)
    if any((not isinstance(p, int)) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


@settings(deadline=None)
@given(parts=st.lists(st.one_of(st.integers(-2, 6), st.booleans(), st.floats(0, 6), st.just("1"))))
def test_check_partition_accepts_what_a_two_pass_check_accepts(parts):
    for given in (parts, iter(parts)):
        if is_partition_two_pass(parts):
            assert young.check_partition(given) == tuple(parts)
        else:
            with pytest.raises(ValueError, match="not a partition"):
                young.check_partition(given)


def test_partitions_negative_raises():
    with pytest.raises(ValueError):
        young.partitions(-1)


# ---------------------------------------------------------------------------
# Hooks and dimensions.


def transpose(lam):
    """Conjugate diagram: column lengths become row lengths."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def hook_length(lam, i: int, j: int) -> int:
    """Hook length of box (i, j), 1-indexed: arm + leg + 1, box by box."""
    if i < 1 or i > len(lam) or j < 1 or j > lam[i - 1]:
        raise ValueError(f"box ({i}, {j}) is not in {lam}")
    leg = sum(1 for p in lam if p >= j)  # column length of column j
    return (lam[i - 1] - j) + (leg - i) + 1


def test_hook_lengths_5_3_2_full_grid():
    expected = {1: [7, 6, 4, 2, 1], 2: [4, 3, 1], 3: [2, 1]}
    for i, row in expected.items():
        for j, h in enumerate(row, start=1):
            assert hook_length((5, 3, 2), i, j) == h


def test_hook_length_single_box():
    assert hook_length((1,), 1, 1) == 1


def test_hook_length_outside_diagram_raises():
    with pytest.raises(ValueError):
        hook_length((5, 3, 2), 4, 1)
    with pytest.raises(ValueError):
        hook_length((5, 3, 2), 2, 4)


def test_hook_product_is_the_product_of_box_hooks():
    # The box-by-box product is the one construction of the hook product
    # that does not go through the first-column hooks.
    for n in range(0, 19):
        for lam in young.partitions(n):
            boxes = [(i, j) for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]
            assert young.hook_product(lam) == prod(hook_length(lam, i, j) for i, j in boxes), lam


def test_dim_small_cases():
    assert young.dim((3,)) == 1
    assert young.dim((2, 1)) == 2
    assert young.dim((1, 1, 1)) == 1
    for n in range(1, 12):
        assert young.dim((n,)) == 1


def test_dim_5_3_2_is_450():
    # 10! / (7*6*4*2*1 * 4*3*1 * 2*1) = 3628800 / 8064
    assert young.hook_product((5, 3, 2)) == 8064
    assert young.dim((5, 3, 2)) == 450
    assert syt_count((5, 3, 2)) == 450


def test_dim_matches_syt_count_everywhere():
    for n in range(0, 9):
        for lam in young.partitions(n):
            assert young.dim(lam) == syt_count(lam)


def test_dim_empty():
    assert young.dim(()) == 1


def test_dimension_table_is_dim_in_partitions_order():
    for n in range(0, 16):
        table = young.dimension_table(n)
        assert tuple(table) == young.partitions(n)
        assert list(table.values()) == [young.dim(lam) for lam in table]


# ---------------------------------------------------------------------------
# Branching, transpose, level.


def test_removable_matches_list_and_pop_in_order():
    # regrep._high_branches reads this order.
    for n in range(0, 15):
        for lam in young.partitions(n):
            want = removable_by_pop(lam)
            assert young.removable(lam) == want, lam
            assert young.removable(list(lam)) == want, lam


def test_removable_6_3_1():
    assert young.removable((6, 3, 1)) == [(5, 3, 1), (6, 2, 1), (6, 3)]


def test_removable_edge_cases():
    assert young.removable((1,)) == [()]
    assert young.removable((2, 2)) == [(2, 1)]


def test_removable_count_is_distinct_part_values():
    for n in range(1, 10):
        for lam in young.partitions(n):
            assert len(young.removable(lam)) == len(set(lam))


def test_branching_identity_small():
    for n in range(1, 12):
        for lam in young.partitions(n):
            assert young.dim(lam) == sum(young.dim(mu) for mu in young.removable(lam))


@st.composite
def nonempty_partitions(draw, max_size: int = 40):
    """Arbitrary partitions of 1..max_size, drawn part by part."""
    remaining = draw(st.integers(1, max_size))
    parts: list[int] = []
    while remaining:
        part = draw(st.integers(1, min(remaining, parts[-1] if parts else remaining)))
        parts.append(part)
        remaining -= part
    return tuple(parts)


@settings(deadline=None)
@given(lam=nonempty_partitions())
def test_dim_branching_and_hook_formula_property(lam):
    d = young.dim(lam)
    assert d == sum(young.dim(mu) for mu in young.removable(lam))
    assert d == factorial(young.size(lam)) // young.hook_product(lam)
    assert young.dim(list(lam)) == d


def test_transpose_involution_and_examples():
    assert transpose((5, 3, 2)) == (3, 3, 2, 1, 1)
    assert transpose(()) == ()
    for n in range(0, 10):
        for lam in young.partitions(n):
            assert transpose(transpose(lam)) == lam


def test_level():
    assert young.level((4, 1)) == 1
    assert young.level((7,)) == 0
    assert young.level((2, 2, 1)) == 3
    with pytest.raises(ValueError):
        young.level(())


# ---------------------------------------------------------------------------
# The paper's theta labels (Rosmanis 2022), kept here as the reference the
# diagram labels are pinned against: theta of size k names the diagram
# bar(theta, n) = (n - k, theta), and bar_star(theta, n) = (n - k - 1, theta).


def _has_bar(theta, n):
    k = sum(theta)
    return k <= n and n - k >= (theta[0] if theta else 0)


def _bar(theta, n):
    assert _has_bar(theta, n), (theta, n)
    return (n - sum(theta),) + tuple(theta) if n > sum(theta) else ()


def _bar_star(theta, n):
    return _bar(theta, n - 1) if _has_bar(theta, n - 1) else None


def _valid_thetas(n):
    """Every theta with a diagram bar(theta, n), by increasing size."""
    return [t for k in range(n) for t in young.partitions(k) if _has_bar(t, n)]


def test_valid_thetas_are_the_diagrams_without_their_first_row():
    for n in range(1, 31):
        thetas = _valid_thetas(n)
        assert thetas == [lam[1:] for lam in young.partitions(n)], n
        assert [_bar(t, n) for t in thetas] == list(young.partitions(n)), n


def test_bar_star_is_trim_first_row():
    for n in range(1, 31):
        for lam in young.partitions(n):
            assert _bar_star(lam[1:], n) == young.trim_first_row(lam), lam


def test_high_branches_are_the_removable_diagrams_but_the_trimmed_one():
    # The high projector's branches bar(rho, n - 1), rho in removable(theta),
    # are removable(lam) without trim_first_row(lam), in the same order.
    for n in range(1, 31):
        for lam in young.partitions(n):
            theta = lam[1:]
            high = [mu for mu in young.removable(lam) if mu != young.trim_first_row(lam)]
            assert [_bar(rho, n - 1) for rho in young.removable(theta)] == high, lam


def test_predictions_match_the_theta_formulas():
    for n in range(1, 13):
        thetas = _valid_thetas(n)
        d = {t: young.dim(_bar(t, n)) for t in thetas}
        high = sum(d[t] * young.dim(_bar(r, n - 1)) for t in thetas for r in young.removable(t))
        low = sum(d[t] * young.dim(_bar_star(t, n)) for t in thetas if _bar_star(t, n) is not None)
        assert regrep.predicted_high_rank(n) == high, n
        assert regrep.predicted_low_rank(n) == low, n
        for k in range(n):
            small = [t for t in thetas if sum(t) <= k]
            assert regrep.predicted_a_dim(n, k) == sum(d[t] ** 2 for t in small), (n, k)
            top = max(young.eigenvalue_m(_bar(t, n)) for t in small)
            assert regrep.max_level_eigenvalue(n, k) == top, (n, k)


def test_bar_example_n12():
    # theta = (3, 2) at n = 12: bar is the diagram (7, 3, 2) itself, and
    # bar_star its trimmed first row.
    lam = (7, 3, 2)
    assert lam[1:] == (3, 2) and _bar((3, 2), 12) == lam
    assert young.trim_first_row(lam) == (6, 3, 2)


def test_bar_trivial_and_absent():
    assert young.trim_first_row((5,)) == (4,)  # theta = ()
    assert young.trim_first_row((2, 2)) is None  # theta = (2,) has no bar_star at n = 4


def test_bar_invalid_raises():
    # A theta whose first row would not fit names no diagram of size n:
    # bar((3,), 4) would be (1, 3), which is not a partition.
    assert (3,) not in [lam[1:] for lam in young.partitions(4)]
    assert (2, 1) not in [lam[1:] for lam in young.partitions(2)]  # size exceeds n
    with pytest.raises(ValueError, match="not a partition"):
        young.check_partition((1, 3))


def test_level_of_bar_is_theta_size():
    for n in range(1, 12):
        for lam in young.partitions(n):
            assert young.level(lam) == sum(lam[1:])


def test_trim_first_row():
    assert young.trim_first_row((3,)) == (2,)
    assert young.trim_first_row((2, 1)) == (1, 1)
    assert young.trim_first_row((1, 1, 1)) is None
    assert young.trim_first_row((2, 2)) is None
    assert young.trim_first_row((1,)) == ()


# ---------------------------------------------------------------------------
# Eigenvalue formula and the dimension-ratio bound.


def test_eigenvalue_n3():
    assert young.eigenvalue_m((3,)) == 0
    assert young.eigenvalue_m((2, 1)) == Fraction(3, 2)
    assert young.eigenvalue_m((1, 1, 1)) == 3


def test_eigenvalue_trivial_rep_is_zero():
    for n in range(1, 15):
        assert young.eigenvalue_m((n,)) == 0


def test_eigenvalue_n4():
    assert young.eigenvalue_m((3, 1)) == Fraction(4, 3)
    assert young.eigenvalue_m((2, 1, 1)) == Fraction(8, 3)
    assert young.eigenvalue_m((2, 2)) == 4
    assert young.eigenvalue_m((1, 1, 1, 1)) == 4


def test_eigenvalue_bound_all_valid_bars():
    # Every diagram is a valid bar shape.
    for n in range(1, 16):
        for lam in young.partitions(n):
            assert young.eigenvalue_m(lam) <= 2 * young.level(lam)


def test_ratio_bound_trivial():
    ratio, bound, holds = young.ratio_bound_check((5,))
    assert ratio == 1 and bound == 1 and holds


def test_ratio_bound_examples():
    ratio, bound, holds = young.ratio_bound_check((3, 1))
    assert ratio == Fraction(2, 3) and bound == Fraction(1, 2) and holds
    _, _, holds = young.ratio_bound_check((7, 2, 1))
    assert holds


def test_ratio_bound_refuses_diagrams_outside_its_regime():
    with pytest.raises(ValueError, match="level"):
        young.ratio_bound_check((1, 1, 1))  # level 2 > 3/2
    with pytest.raises(ValueError, match="not a valid diagram"):
        young.ratio_bound_check((2, 2))  # first row cannot be trimmed


def test_ratio_bound_sweep_small():
    for n in range(1, 16):
        for lam in young.partitions(n):
            if 2 * young.level(lam) <= n and young.trim_first_row(lam) is not None:
                _, _, holds = young.ratio_bound_check(lam)
                assert holds, lam


def test_burnside_identity_small():
    for n in range(1, 12):
        assert sum(young.dim(l) ** 2 for l in young.partitions(n)) == factorial(n)


# ---------------------------------------------------------------------------
# Characters.


def test_character_identity_class_is_dimension():
    for n in range(1, 7):
        ident = tuple([1] * n)
        for lam in young.partitions(n):
            assert young.character(lam, ident) == young.dim(lam)


def test_character_two_one_on_three_cycle():
    assert young.character((2, 1), (3,)) == -1


def test_character_trivial_rep_is_one():
    for n in range(1, 8):
        for c in young.partitions(n):
            assert young.character((n,), c) == 1


def test_character_sign_rep_is_parity():
    for n in range(1, 8):
        sign = tuple([1] * n)
        for c in young.partitions(n):
            parity = (-1) ** (n - len(c))
            assert young.character(sign, c) == parity


def test_characters_match_frobenius_formula():
    for n in (3, 4, 5):
        for lam in young.partitions(n):
            for c in young.partitions(n):
                assert young.character(lam, c) == frobenius_character(lam, c), (lam, c)


@st.composite
def shapes_and_cycle_types(draw, max_size: int = 12, max_parts: int = 6):
    """A partition lam of some n <= max_size with at most max_parts parts,
    and a cycle type of n, each drawn part by part."""
    remaining = draw(st.integers(1, max_size))
    lam: list[int] = []
    while remaining and len(lam) < max_parts:
        lam.append(draw(st.integers(1, remaining)))
        remaining -= lam[-1]
    remaining = sum(lam)
    cycles: list[int] = []
    while remaining:
        cycles.append(draw(st.integers(1, remaining)))
        remaining -= cycles[-1]
    return tuple(sorted(lam, reverse=True)), tuple(sorted(cycles, reverse=True))


@settings(deadline=None)
@given(case=shapes_and_cycle_types())
def test_characters_match_frobenius_formula_for_arbitrary_shapes(case):
    lam, cycles = case
    assert young.character(lam, cycles) == frobenius_character(lam, cycles)


def test_character_orthogonality_exact():
    for n in range(1, 7):
        classes = young.partitions(n)
        sizes = {c: young.conjugacy_class_size(c) for c in classes}
        assert sum(sizes.values()) == factorial(n)
        for lam in classes:
            for mu in classes:
                inner = sum(
                    sizes[c] * young.character(lam, c) * young.character(mu, c)
                    for c in classes
                )
                assert inner == (factorial(n) if lam == mu else 0)


@pytest.mark.parametrize("n", range(9))
def test_character_table_is_the_characters_in_partition_order(n):
    # Row a, column c is chi of the a-th diagram on the c-th cycle type, the
    # last column is the dimensions, and the columns are orthogonal:
    # sum over lam of chi_lam(c) chi_lam(c') = delta_cc' n! / |c|.  S_0 has
    # the one entry 1.
    classes = young.partitions(n)
    table = young.character_table(n)
    assert n or table == ((1,),)
    assert table == tuple(tuple(young.character(lam, c) for c in classes) for lam in classes)
    assert [row[-1] for row in table] == [young.dim(lam) for lam in classes]
    for i, c in enumerate(classes):
        for j in range(len(classes)):
            column_product = sum(row[i] * row[j] for row in table)
            assert column_product == (factorial(n) // young.conjugacy_class_size(c) if i == j else 0), (c, j)


def test_character_size_mismatch_raises():
    with pytest.raises(ValueError):
        young.character((2, 1), (2, 2))


def test_cycle_type():
    assert young.cycle_type((0, 1, 2)) == (1, 1, 1)
    assert young.cycle_type((1, 2, 0)) == (3,)
    assert young.cycle_type((1, 0, 3, 2)) == (2, 2)


@pytest.mark.parametrize("max_n", [0, -3])
def test_identities_report_without_sizes_is_refused(max_n):
    # It used to check nothing and report pass True.
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        young.identities_report(max_n)


def test_identities_fail_on_a_wrong_hook_product(monkeypatch):
    # Acceptance criterion 5 can fail: doubling the hook product of (3, 1)
    # makes its dimension 1, not 3, which breaks its own branching sum, those
    # of the three diagrams it is removable from, and Burnside at n = 4.
    true_hook_product = young.hook_product
    monkeypatch.setattr(young, "hook_product", lambda lam: true_hook_product(lam) * (2 if lam == (3, 1) else 1))
    report = young.identities_report(6)
    assert not report["pass"]
    assert report["branching_failures"] == [
        {"n": 4, "lambda": [3, 1]},
        {"n": 5, "lambda": [4, 1]},
        {"n": 5, "lambda": [3, 2]},
        {"n": 5, "lambda": [3, 1, 1]},
    ]
    assert report["burnside_failures"] == [{"n": 4, "sum": 16}]
    # (4, 1) trims to (3, 1): ratio 1/4 < 3/5 and e = 15/4 > 2, named by theta.
    assert report["ratio_failures"] == report["eigenvalue_failures"] == [{"n": 5, "theta": [1]}]


def test_identities_fail_on_a_wrong_eigenvalue(monkeypatch):
    # The sweep checks the core of young.eigenvalue_m, the function regrep
    # reads: e = 1 on the trivial diagram of n = 4 (d = d_trimmed = 1, the
    # only one of n = 4), level 0, breaks e <= 2k there.
    true_eigenvalue = young._eigenvalue
    monkeypatch.setattr(
        young, "_eigenvalue", lambda n, d, d_trimmed: true_eigenvalue(n, d, d_trimmed) + (n == 4 and d == d_trimmed)
    )
    assert young.eigenvalue_m((4,)) == 1
    report = young.identities_report(6)
    assert not report["pass"]
    assert report["eigenvalue_failures"] == [{"n": 4, "theta": []}]
    assert report["ratio_failures"] == report["branching_failures"] == report["burnside_failures"] == []
    assert report["orthogonality_failures"] == []


def test_identities_fail_on_a_wrong_ratio_verdict(monkeypatch):
    # The sweep takes holds from the core of young.ratio_bound_check; (3, 1)
    # is the one diagram of n = 4 at level 1.
    true_holds = young._ratio_holds
    monkeypatch.setattr(
        young, "_ratio_holds", lambda n, k, d, d_trimmed: true_holds(n, k, d, d_trimmed) and (n, k) != (4, 1)
    )
    assert young.ratio_bound_check((3, 1))[2] is False
    report = young.identities_report(6)
    assert not report["pass"]
    assert report["ratio_failures"] == [{"n": 4, "theta": [1]}]
    assert report["eigenvalue_failures"] == report["branching_failures"] == report["burnside_failures"] == []
    assert report["orthogonality_failures"] == []


def test_identities_report_small():
    report = young.identities_report(10)
    assert report["pass"]
    assert report["ratio_checked"] > 0
    assert not report["branching_failures"]


def _count_hook_products(monkeypatch) -> list[int]:
    """Patch young.hook_product to count its calls in the returned cell."""
    calls = [0]
    true_hook_product = young.hook_product

    def counted(lam):
        calls[0] += 1
        return true_hook_product(lam)

    monkeypatch.setattr(young, "hook_product", counted)
    return calls


def test_identities_take_one_hook_product_per_diagram_and_keep_none(monkeypatch):
    # Every dimension of the sweep comes from the hook formula once: the sum
    # of p(n) over n = 0..30 hook products, and a sweep that rebuilt a table
    # would take more.  Past the call it keeps no diagram: about 1,000
    # allocated blocks stay (the report and the character memo), where the
    # old partition and dimension caches kept 115,000 (9.9 MB traced).  A
    # full collection empties the interpreter's free lists, which keep freed
    # tuples.  The blocks are counted, not traced: a traced 30-sweep takes
    # eight times as long.
    calls = _count_hook_products(monkeypatch)
    gc.collect()
    before = sys.getallocatedblocks()
    report = young.identities_report(30)
    gc.collect()
    retained = sys.getallocatedblocks() - before
    assert report["pass"]
    assert calls[0] == sum(partition_count_pentagonal(n) for n in range(31)) == 28629
    assert retained < 5000, retained


def test_identities_neither_validate_nor_measure_a_diagram_again(monkeypatch):
    # The sweep reads its own dimension tables through the integer cores, so
    # none of the per-diagram public functions is called.
    def broken(*args):
        raise AssertionError(args)

    for name in ("check_partition", "dim", "eigenvalue_m", "ratio_bound_check"):
        monkeypatch.setattr(young, name, broken)
    report = young.identities_report(12)
    assert report["pass"]
    assert report["eigenvalue_checked"] == sum(partition_count_pentagonal(n) for n in range(1, 13))


@pytest.mark.parametrize("lam", [(40,), (9, 8, 7, 6, 5, 3, 1, 1)])
def test_dim_outside_the_sweep_takes_one_hook_product(lam, monkeypatch):
    # No table is built for one dimension, where p(40) = 37338 diagrams.
    true_hook_product = young.hook_product
    calls = _count_hook_products(monkeypatch)
    assert young.dim(lam) == factorial(40) // true_hook_product(lam)
    assert calls[0] == 1
