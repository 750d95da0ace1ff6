"""Exact Young-diagram combinatorics for the symmetric group.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. Everything here is exact: counts are
Python ints, ratios are ``fractions.Fraction``. No floating point enters
this module, so every identity it checks holds with zero slack.

Every irrep is named by its diagram lam alone.  The paper's notation, after
Rosmanis (2022), reads off it: theta = lam[1:], theta-bar = lam, and
theta-bar-star = trim_first_row(lam), which drives ``eigenvalue_m``.

No diagram is cached past a call: ``partitions`` generates its diagrams
afresh, ``dim`` takes one hook product, and ``dimension_table`` one per
diagram of its size, held by its caller.  ``identities_report`` checks
its diagrams against its own two tables through ``_eigenvalue`` and
``_ratio_holds``, the integer cores of ``eigenvalue_m`` and
``ratio_bound_check``.  Only the character memo ``_mn`` lives as long as
the process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, starmap
from math import factorial, prod
from operator import sub

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """*parts*, any iterable, as a tuple; ValueError unless it is a weakly
    decreasing sequence of positive ints."""
    parts = tuple(parts)
    prev = None
    for p in parts:
        if not isinstance(p, int) or p < 1 or (prev is not None and p > prev):
            raise ValueError(f"not a partition: {parts!r}")
        prev = p
    return parts


def size(lam: Partition) -> int:
    return sum(lam)


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    Each comes from the one before it (algorithm ZS1 of Zoghbi and
    Stojmenovic, 1998): the last part above 1 loses a box, and that box and
    the trailing 1s are refilled as parts of its new size and one
    remainder.  Nothing is cached, so a sweep holds only the sizes it is on.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    x = [n] + [1] * (n - 1)  # x[:m] is the partition, 1s past it
    m, h = 1, 0  # h indexes the last part > 1
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the box taken off x[h] and the trailing 1s
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def hook_product(lam: Partition) -> int:
    """Product of the hook lengths of all boxes of lam.

    With r rows, the first box of row i (0-indexed) has hook
    h_i = lam_i + r - 1 - i, and the hooks along row i are 1..h_i without
    the h_i - h_j for j > i.  So the product is
    prod_i h_i! / prod_{i<j} (h_i - h_j), with no per-box loop.
    """
    r = len(lam)
    h = [p + r - 1 - i for i, p in enumerate(lam)]
    return prod(map(factorial, h)) // prod(starmap(sub, combinations(h, 2)))


def dim(lam: Partition) -> int:
    """Dimension of the irreducible S_n module for lam, n = size(lam).

    Hook length formula: n! divided by the product of all hook lengths (any
    sequence of parts is accepted).  dim(()) == 1.
    """
    lam = tuple(lam)
    return factorial(size(lam)) // hook_product(lam)


def dimension_table(n: int) -> dict[Partition, int]:
    """Every diagram of n, in partitions(n) order, and its dimension, one
    hook product each."""
    f = factorial(n)
    return {lam: f // hook_product(lam) for lam in partitions(n)}


def removable(lam: Partition) -> list[Partition]:
    """All partitions obtained from lam by deleting one corner box, top
    row first."""
    lam = tuple(lam)
    return [
        lam[:i] + ((p - 1,) if p > 1 else ()) + lam[i + 1 :]
        for i, (p, below) in enumerate(zip(lam, lam[1:] + (0,)))
        if p > below
    ]


def level(lam: Partition) -> int:
    """Number of boxes below the first row."""
    if not lam:
        raise ValueError("level of the empty partition is undefined")
    return size(lam) - lam[0]


def trim_first_row(lam: Partition) -> Partition | None:
    """lam with the last box of its first row removed; None if invalid."""
    if not lam:
        return None
    first = lam[0] - 1
    second = lam[1] if len(lam) > 1 else 0
    if first < second:
        return None
    if first == 0:
        return ()
    return (first,) + lam[1:]


def eigenvalue_m(lam: Partition) -> Fraction:
    """Eigenvalue of the challenge-averaged operator on the lam block.

    n * (1 - dim(trim_first_row(lam)) / dim(lam)) for n = size(lam), or
    exactly n when the trimmed diagram does not exist.  Exact rational output.
    """
    lam = check_partition(lam)
    trimmed = trim_first_row(lam)
    return _eigenvalue(size(lam), dim(lam), 0 if trimmed is None else dim(trimmed))


def _eigenvalue(n: int, d: int, d_trimmed: int) -> Fraction:
    """n (1 - d_trimmed / d): n itself when no trimmed diagram exists
    (d_trimmed = 0)."""
    return Fraction(n * (d - d_trimmed), d)


def ratio_bound_check(lam: Partition) -> tuple[Fraction, Fraction, bool]:
    """Exact check of dim(trim_first_row(lam))/dim(lam) >= (n - 2k)/n for
    n = size(lam) and k = level(lam).

    Returns (ratio, bound, holds).  Requires k <= n/2 and a valid trimmed
    diagram, which pins the regime where the bound is claimed.
    """
    n, k = size(lam), level(lam)
    if 2 * k > n:
        raise ValueError(f"need level({lam}) <= n/2, got {k} > {n}/2")
    trimmed = trim_first_row(lam)
    if trimmed is None:
        raise ValueError(f"trim_first_row({lam}) is not a valid diagram")
    d_trimmed, d = dim(trimmed), dim(lam)
    return Fraction(d_trimmed, d), Fraction(n - 2 * k, n), _ratio_holds(n, k, d, d_trimmed)


def _ratio_holds(n: int, k: int, d: int, d_trimmed: int) -> bool:
    """d_trimmed / d >= (n - 2k) / n, in integers."""
    return n * d_trimmed >= (n - 2 * k) * d


# ---------------------------------------------------------------------------
# Characters via the Murnaghan-Nakayama recursion on beta-sets.


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation of range(n), as a partition of n."""
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        m, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            m += 1
        lens.append(m)
    return tuple(sorted(lens, reverse=True))


def conjugacy_class_size(cycles: Partition) -> int:
    """Number of permutations of the given cycle type."""
    n = size(cycles)
    z = 1
    mult: dict[int, int] = {}
    for c in cycles:
        mult[c] = mult.get(c, 0) + 1
    for c, m in mult.items():
        z *= c**m * factorial(m)
    return factorial(n) // z


def character(lam: Partition, cycles: Partition) -> int:
    """Irreducible character of S_n at the class with the given cycle type."""
    lam, cycles = check_partition(lam), check_partition(cycles)
    if size(lam) != size(cycles):
        raise ValueError(f"size mismatch: {lam} vs {cycles}")
    return _mn(lam, cycles)


def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_n: row a holds the character of the a-th
    diagram of partitions(n), column c its value on the c-th cycle type of
    partitions(n), so the last column, the identity's, holds the
    dimensions.  ((1,),) at n = 0."""
    classes = partitions(n)
    return tuple(tuple(_mn(lam, c) for c in classes) for lam in classes)


def identities_report(max_n: int) -> dict:
    """Exhaustive exact identity sweep up to max_n.

    Checks, with zero tolerance: the branching sum for every diagram, the
    sum of squared dimensions against n!, the dimension-ratio lower bound
    (n - 2k)/n for every diagram of level k <= n/2 whose first row can be
    trimmed, the eigenvalue bound e <= 2k for every diagram of level k, and
    character orthogonality up to n = 8; the first four in one pass over the
    diagrams of each n.  Ratio and eigenvalue failures name lam by
    theta = lam[1:].

    Every dimension comes from the hook formula afresh, once per diagram:
    the tables of sizes n - 1 and n are held while n is checked, and the
    checks read them through the integer cores of eigenvalue_m and
    ratio_bound_check, so no diagram is validated or measured twice.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    branching_failures = []
    burnside_failures = []
    ratio_failures = []
    eig_failures = []
    ratio_checked = 0
    eig_checked = 0
    table = dimension_table(0)
    for n in range(1, max_n + 1):
        below = table  # size n - 1; size n - 2 is dropped here
        table = dimension_table(n)
        total = 0
        for lam, d in table.items():
            total += d * d
            if d != sum(below[mu] for mu in removable(lam)):
                branching_failures.append({"n": n, "lambda": list(lam)})
            k = level(lam)
            trimmed = trim_first_row(lam)
            d_trimmed = 0 if trimmed is None else below[trimmed]
            if 2 * k <= n and trimmed is not None:
                ratio_checked += 1
                if not _ratio_holds(n, k, d, d_trimmed):
                    ratio_failures.append({"n": n, "theta": list(lam[1:])})
            eig_checked += 1
            if _eigenvalue(n, d, d_trimmed) > 2 * k:
                eig_failures.append({"n": n, "theta": list(lam[1:])})
        if total != factorial(n):
            burnside_failures.append({"n": n, "sum": total})
    char_max_n = 8
    orth_failures = []
    for n in range(1, char_max_n + 1):
        classes = partitions(n)
        sizes = [conjugacy_class_size(c) for c in classes]
        table = character_table(n)
        for i, lam in enumerate(classes):
            for j in range(i, len(classes)):
                inner = sum(map(prod, zip(sizes, table[i], table[j])))
                if inner != (factorial(n) if i == j else 0):
                    orth_failures.append({"n": n, "lambda": list(lam), "mu": list(classes[j])})
    passed = not (
        branching_failures or burnside_failures or ratio_failures or eig_failures or orth_failures
    )
    return {
        "max_n": max_n,
        "char_max_n": char_max_n,
        "ratio_checked": ratio_checked,
        "eigenvalue_checked": eig_checked,
        "branching_failures": branching_failures,
        "burnside_failures": burnside_failures,
        "ratio_failures": ratio_failures,
        "eigenvalue_failures": eig_failures,
        "orthogonality_failures": orth_failures,
        "pass": passed,
    }


@cache
def _mn(lam: Partition, cycles: Partition) -> int:
    # Rim hooks of length t correspond to beta-numbers b with b - t >= 0 and
    # b - t free; the sign is (-1)^(number of beta-numbers jumped over).
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for b in beta:
        low = b - t
        if low < 0 or low in bset:
            continue
        crossed = sum(1 for c in beta if low < c < b)
        new_beta = sorted((bset - {b}) | {low}, reverse=True)
        parts = [new_beta[i] - (r - 1 - i) for i in range(r)]
        while parts and parts[-1] == 0:
            parts.pop()
        total += (-1) ** crossed * _mn(tuple(parts), rest)
    return total
