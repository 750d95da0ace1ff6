"""The regular representation of S_N, for small N.

Everything lives in the N!-dimensional group algebra with basis vectors
indexed by the lexicographic enumeration of S_N.  The module builds the
partial-assignment subspaces A_k and A_k^y, the per-challenge high/low
projectors, their sum M over all challenges, and the projectors onto A_k,
then verifies the predicted decompositions by brute force and the spectrum
of M against one exact central element.

Everything up to the eigenvalue readouts is exact integer arithmetic.  The
dimensions of A_k and A_k^y are counted from characters, not read off a
matrix.  Left and right multiplication make C[S_N] the sum of the
V_lam (x) V_lam*, each once, and restricting the left side to Stab(y)
keeps it multiplicity-free by the branching rule (Okounkov and Vershik,
1996).  A_k and A_k^y are each spanned by the orbit of one indicator, so
each is the sum of the components that indicator does not vanish on, and
each such test is an exact integer sum of characters.  The tests pin every
count to an exact elimination of the Gram matrix of the whole spanning set
at N <= 6.

Every projector is one construction from characters, scaled by N! to an
integer operator: N! P_{A_k}, N! P_y and N! L_y.  The Stab(y) character sum
of a high or low projector comes out as (N-1)! times that, and the
division by (N-1)! is exact or raises.  Each commutes with right
multiplication, so it is kept as its column 0, N! integers whose entry at
the identity is the rank, and S[i, j] is the column's entry at
pi_i pi_j^-1, read through one cached quotient table.  Every operator is
read through one gather of that table, _gather, a block of _BLOCK rows (or
columns) at a time, in float: an exact product S w from the column cast
to float64, and then only on the columns of S where w is nonzero, and the
average bound's samples and the query simulator's projections from the
column over N!.  No N! x N! matrix is formed, integer or float.
Each is certified exactly against the counted dimensions, on its column
where it can be: symmetric, idempotent, of the counted trace, fixing the
subspace it must hold, and commuting with left multiplication by S_N, or by
Stab(y).  The subspace is read on the same indicator its dimension is
counted from: an operator that commutes with multiplication on both sides
fixes the whole two-sided orbit of a vector, the spanning set, iff it
fixes that vector.  Only the challenge-0 high and low projectors are
built; the column of each other one is its conjugate by a range
transposition, which carries Stab(0) onto Stab(y).  So certificate (e) of
the challenge-0 projectors proves every challenge relabeling, and
change_of_challenge_check is (e) with G = S_N on the column of M.  Every
product runs in float64, and raises unless a bound checked beforehand
keeps every partial sum below 2^53, where each is an exact integer.

The eigenvalues of M and of P_{A_k} M P_{A_k} are read off their Fourier
blocks, one d_lam x d_lam matrix per irrep lam (d_lam <= 16 at N = 6), in
Young's orthogonal form: a representation built from the adjacent
transpositions by axial distances alone, certified against the Coxeter
relations, and independent of the characters everything else is built
from.  No N! x N! matrix is gathered or solved for a spectrum.

The size cap is N = 6 (dimension 720), set by the cached N!^2 int16
quotient table alone, which takes 1 MB at N = 6 and 51 MB at N = 7.  A
block of the table and the float operator gathered from it take at most
_BLOCK N! entries each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from perminv import young
from perminv.young import Partition

_MAX_N = 6  # the cached N!^2 int16 quotient table: 1 MB at N = 6, 51 MB at N = 7
_BLOCK = 128  # rows (or columns) of an operator read at once; one block at N <= 5


class CapacityError(ValueError):
    """Requested N is past the size cap of the quotient table."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > _MAX_N:
        raise CapacityError(f"n = {n} exceeds the cap {_MAX_N} of the N!^2 int16 quotient table, 51 MB at N = 7")


def _check_level(n: int, k: int) -> None:
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")


def _check_challenge(n: int, y: int) -> None:
    _check_n(n)
    if not 0 <= y < n:
        raise ValueError(f"challenge {y} not in range({n})")


# ---------------------------------------------------------------------------
# Group enumeration and composition.

Perm = tuple[int, ...]


@cache
def enumerate_group(n: int) -> tuple[Perm, ...]:
    """All permutations of range(n) in lexicographic one-line order."""
    _check_n(n)
    return tuple(permutations(range(n)))


@cache
def perms_matrix(n: int) -> np.ndarray:
    arr = np.array(enumerate_group(n), dtype=np.intp)
    arr.setflags(write=False)
    return arr


@cache
def _index_table(n: int) -> np.ndarray:
    """table[p @ n**arange(n)] = index of p in perms_matrix(n), -1 off S_n:
    the base-n number of a row of digits below n is unique.  int16 holds
    every index, N! <= 720, and the table has n**n entries (93 KB at N = 6)."""
    perms = perms_matrix(n)
    table = np.full(n**n, -1, dtype=np.int16)
    table[perms @ n ** np.arange(n)] = np.arange(len(perms))
    table.setflags(write=False)
    return table


def perm_index(p) -> np.ndarray:
    """Lexicographic index of each permutation along the last axis of p;
    ValueError on a row that is not a permutation of range(n)."""
    p = np.asarray(p)
    n = p.shape[-1]
    if p.size and not 0 <= p.min() <= p.max() < n:
        raise ValueError(f"not a permutation of range({n}): entries outside it")
    idx = _index_table(n)[p @ n ** np.arange(n)]
    if (idx < 0).any():
        raise ValueError(f"not a permutation of range({n}): a repeated entry")
    return idx


@cache
def _quotient_table(n: int) -> np.ndarray:
    """quot[i, j] = index of pi_i pi_j^-1, read-only: the one index every
    gathered operator reads.  int16 holds every index, N! <= 720, so it
    takes 1 MB at N = 6.

    The code of pi_i pi_j^-1 in _index_table is sum_x pi_i(pi_j^-1(x)) n^x
    = sum_y pi_i(y) n^(pi_j(y)), so the codes of a block of rows are the
    one integer product perms[rows] @ (n ** perms).T, in int32: every code
    is below n**n, which int32 holds for n <= 9, and an int32 index array is
    read without the intp copy that take would make.  The table is filled
    one block of _BLOCK rows at a time, so at most _BLOCK N! codes are held.
    ArithmeticError if a code is not a permutation's, which only a row of
    perms that is not one can cause; a code past either end of the table is
    clipped to its end, all 0s or all n-1s, which is -1 for n >= 2."""
    perms = perms_matrix(n).astype(np.int32)
    powers = (n**perms).T
    quot = np.empty((len(perms), len(perms)), dtype=np.int16)
    for rows in _blocks(n):
        codes = perms[rows] @ powers
        quot[rows] = _index_table(n)[codes.clip(0, n**n - 1, out=codes)]
        if (quot[rows] < 0).any():
            raise ArithmeticError(f"quotient table of S_{n}: a product is not a permutation")
    quot.setflags(write=False)
    return quot


def _inverses(n: int) -> np.ndarray:
    """Index of pi^-1 for each pi in enumeration order: row 0 of the
    quotient table, pi_0 being the identity."""
    return _quotient_table(n)[0]


def _conjugation(n: int, a) -> np.ndarray:
    """Index of a . pi . a^-1 for each pi in enumeration order."""
    a = np.asarray(a)
    return perm_index(a[perms_matrix(n)[:, np.argsort(a)]])


def _transposition(n: int, y: int) -> np.ndarray:
    """The range transposition (0 y) in one-line form; the identity at y = 0."""
    tau = np.arange(n)
    tau[[0, y]] = y, 0
    return tau


def _generators(n: int, y: int | None = None) -> list[np.ndarray]:
    """A transposition and a cycle on the points other than y, in one-line
    form: together they generate S_N, or Stab(y) when y is given."""
    others = np.array([x for x in range(n) if x != y], dtype=np.intp)
    swap, cycle = np.arange(n), np.arange(n)
    swap[others[:2]] = others[:2][::-1]
    cycle[others] = np.roll(others, -1)
    return [swap, cycle]


# ---------------------------------------------------------------------------
# Exact integer products.


def _max_abs(a: np.ndarray) -> int:
    """max |a| of an array of integers, 0 when empty, without an abs copy."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _check_exact(bound: int) -> None:
    """ArithmeticError unless bound, a bound on the magnitude of every
    partial sum of an integer product, is below 2^53."""
    if not bound < 2**53:
        raise ArithmeticError(f"integer product bound {float(bound):.3e} is not below 2^53")


def _blocks(n: int) -> list[slice]:
    """The row (or column) blocks an operator is read in: _BLOCK at a time
    over range(N!), the last one shorter."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, factorial(n), _BLOCK)]


def _gather(n: int, column: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """The N! x N! matrix with entry [i, j] = column[index of pi_i pi_j^-1],
    or its block [rows, cols]: one gather through the cached quotient
    table, in the dtype of column.  Every caller in the package reads a
    block of _blocks(n) at a time (_row_products, _apply_right).

    Any matrix that commutes with right multiplication has this form, with
    its own column 0 as column; so has a class function of pi_i^-1 pi_j,
    which is conjugate to the inverse of pi_i pi_j^-1.  Every entry of the
    matrix is an entry of the column, and every entry of the column is one
    in column 0, so a max over the matrix is the max over its column.
    Conjugating the column by a, column[index of a pi a^-1], gathers
    A^-1 S A for A the left multiplication by a."""
    return column[_quotient_table(n)[rows, cols]]


def _row_products(n: int, column: np.ndarray, x: np.ndarray, cols=slice(None)):
    """(rows, S[rows, cols] x) for S = _gather(n, column) and each row
    block rows of _blocks(n), one block gathered at a time."""
    for rows in _blocks(n):
        yield rows, _gather(n, column, rows, cols) @ x


def _apply_right(n: int, x: np.ndarray, column: np.ndarray) -> np.ndarray:
    """x S for S = _gather(n, column) and x a float matrix of N! columns,
    each column block of _blocks(n) multiplied straight into its slice of
    the result: one draw-sized array beyond x."""
    out = np.empty_like(x)
    for cols in _blocks(n):
        np.matmul(x, _gather(n, column, cols=cols), out=out[:, cols])
    return out


def _product(n: int, col: np.ndarray, w: np.ndarray) -> np.ndarray:
    """S w for S = _gather(n, col), col an integer column and w an integer
    vector or matrix of N! rows, exact, as int64: the one exact product of
    an operator.  Every partial sum is an integer of magnitude at most
    N! max|col| max|w|, which _check_exact holds below 2^53 before any
    block is gathered.  Every such integer is a float64, so each product
    and partial sum is exact and any summation order gives the same bits
    (Dumas, Giorgi and Pernet, ACM TOMS 2008), at any block height: the
    column is cast to float64, and every vector of w is multiplied in one
    matrix product per row block (_row_products), filling the int64 result.
    Only the columns of S on the rows where w is nonzero are gathered: for
    an indicator of K_I, (S v)[i] is the sum of col[index of pi_i pi_j^-1]
    over the pi_j in K_I."""
    _check_exact(factorial(n) * _max_abs(col) * _max_abs(w))
    support = np.flatnonzero(w if w.ndim == 1 else w.any(axis=1))
    cols = slice(None) if support.size == len(w) else support
    out = np.empty(w.shape, dtype=np.int64)
    for rows, block in _row_products(n, col.astype(np.float64), w[cols].astype(np.float64), cols):
        out[rows] = block
    return out


# ---------------------------------------------------------------------------
# Characters on S_N and on Stab(y).


@cache
def _class_data(n: int) -> np.ndarray:
    """The class of each element in enumeration order, read-only int8: the
    index of its cycle type in young.partitions(n) (15 classes at N = 7)."""
    where = {ct: c for c, ct in enumerate(young.partitions(n))}
    elem_class = np.array([where[young.cycle_type(p)] for p in enumerate_group(n)], dtype=np.int8)
    elem_class.setflags(write=False)
    return elem_class


@cache
def _character_table(n: int) -> np.ndarray:
    """young.character_table(n) as a read-only int64 array: row a is the
    character of the a-th diagram of young.partitions(n) on each class of
    _class_data, and the last column, the identity's, the dimensions."""
    table = np.array(young.character_table(n), dtype=np.int64)
    table.setflags(write=False)
    return table


@cache
def _stab_classes(n: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    """(cls, sub_class) over the elements g_s of Stab(y) in enumeration
    order, read-only int8 like _class_data: cls[i, s] is the class of
    pi_i^-1 g_s in S_N (_class_data), read off the quotient table as that of
    pi_i g_s^-1, its inverse's conjugate; sub_class[s] is the index in
    young.partitions(n - 1) of the cycle type of g_s off y, its class in
    Stab(y) = S_{N-1}.  Parts are in descending order, so that cycle type
    is the one of g_s without its last part, the 1-cycle of y."""
    elem_class, types, sub_types = _class_data(n), young.partitions(n), young.partitions(n - 1)
    stab = np.flatnonzero(perms_matrix(n)[:, y] == y)
    sub_class = np.array([sub_types.index(types[c][:-1]) for c in elem_class[stab]], dtype=np.int8)
    cls = elem_class[_quotient_table(n)[:, stab]]
    cls.setflags(write=False)
    sub_class.setflags(write=False)
    return cls, sub_class


# ---------------------------------------------------------------------------
# Dimensions of A_k and A_k^y, counted from characters.
#
# Let v be the indicator of one k-assignment and I its image set.  Left and
# right multiplication act transitively on the k-assignments, and Stab(y)
# on the left with S_N on the right on those with y in the image, so A_k
# (or A_k^y, y in I) is the span of the two-sided orbit of v: by the
# multiplicity-free decompositions of the module docstring, the sum of the
# components that v does not vanish on.  Each component's projector E is a
# positive multiple of some S = _gather(n, c), and v^T S v = (N-k)! times
# the sum of c over the pointwise stabilizer K_I of I, as pi_i pi_j^-1 over
# the support of v runs over K_I, (N-k)! times each.  v^T E v = |E v|^2, so
# E v != 0 iff that integer sum is nonzero.  The v of _indicator fixes I
# pointwise, so its support is K_I itself, and the certificates read the
# same v.


def _fixing(n: int, points) -> np.ndarray:
    """The indices of the permutations that fix each of points: K_I."""
    points = list(points)
    return np.flatnonzero((perms_matrix(n)[:, points] == points).all(axis=1))


def _indicator(n: int, k: int, y: int | None = None) -> np.ndarray:
    """The int8 indicator of {(v_0, v_0), ..., (v_{k-1}, v_{k-1})} for
    v = 0, 1, ..., or v = y, 0, 1, ... without the second y when y is given:
    the one vector A_k, or A_k^y, is counted from and certified on.  It
    fixes I = {v_0, ..., v_{k-1}} pointwise, so its support is K_I
    (_fixing); at y = 0 it is the vector of A_k."""
    image = list(range(k)) if y is None else [y, *(x for x in range(n) if x != y)][:k]
    v = np.zeros(factorial(n), dtype=np.int8)
    v[_fixing(n, image)] = 1
    return v


def _spanned_dim(sums: np.ndarray, n: int, m: int) -> int:
    """The sum of d_a d_b over the entries sums[a, b] != 0, a the a-th
    diagram of size n and b the b-th of size m: the dimensions of the
    components V_a (x) V_b that v does not vanish on."""
    return int(_character_table(n)[:, -1] @ (sums != 0) @ _character_table(m)[:, -1])


@cache
def subspace_a(n: int, k: int) -> int:
    """dim A_k: the sum of d_lam^2 over every lam of size n with
    Pi_lam v != 0, for v = _indicator(n, k).  N! Pi_lam gathers
    d_lam chi_lam, so the test is the sum of chi_lam over the support of v,
    the pointwise stabilizer of {0, ..., k-1}."""
    _check_level(n, k)
    fixed = _class_data(n)[np.flatnonzero(_indicator(n, k))]
    return _spanned_dim(np.diag(_character_table(n)[:, fixed].sum(axis=1)), n, n)


@cache
def subspace_a_y(n: int, k: int, y: int) -> int:
    """dim A_k^y: the sum of d_lam d_mu over every lam of size n and mu of
    size n - 1 with Pi_lam R_mu^y v != 0 (see _branch_sum), for
    v = _indicator(n, k, y), whose image set I holds y.  The test reads the
    K_I entries of the _branch_sum column of (lam, mu), K_I the support of
    v.  A_0^y = {0}."""
    _check_level(n, k)
    _check_challenge(n, y)
    if not k:
        return 0
    cls, sub_class = _stab_classes(n, y)
    rows = cls[np.flatnonzero(_indicator(n, k, y))]
    lam_sums = np.array([chi[rows].sum(axis=0) for chi in _character_table(n)])
    return _spanned_dim(lam_sums @ _character_table(n - 1)[:, sub_class].T, n, n - 1)


# ---------------------------------------------------------------------------
# Projectors from characters, as certified integer columns.


def _unfixed(n: int, col: np.ndarray, perms) -> int:
    """max |col[index of g pi g^-1] - col[pi]| over the one-line g in perms:
    0 exactly when _gather(n, col) commutes with left multiplication by
    each g (see _gather), and so by the group they generate."""
    return max(_max_abs(col[_conjugation(n, g)] - col) for g in perms)


def _certify(name: str, n: int, col: np.ndarray, rank: int, y: int | None = None, fixed=()) -> None:
    """Raise ArithmeticError unless S / N!, S = _gather(n, col) for an
    integer column col, is the orthogonal projector of rank `rank` that
    commutes with left multiplication by G = S_N, or G = Stab(y) when y is
    given, and whose range holds each vector in fixed.  Five exact checks:
    (a) col[index of pi^-1] == col, so S is symmetric; (b) S col == N! col:
    S^2 and N! S both commute with right multiplication, so they are equal
    iff their columns 0 are, and S / N! is an orthogonal projector;
    (c) tr S = N! col[0] == N! rank, so it has that rank; (d) S w == N! w
    for every w in fixed; (e) col is fixed by conjugation by the two
    _generators of G, so S commutes with left multiplication by G as it
    does with right multiplication.  By (d) and (e), S fixes the whole
    two-sided orbit of each w, G on the left and S_N on the right.  (b) and
    (d) are one exact _product, S [col, *fixed], which refuses past its
    bound before either is read.  Once those orbits span a space of
    dimension `rank`, (a)-(e) make S / N! its projector.  name labels the
    operator in the error, which a failing verdict's reason quotes."""
    f = factorial(n)
    if not np.array_equal(col[_inverses(n)], col):
        raise ArithmeticError(f"{name}: (a) not symmetric")
    w = np.column_stack([col, *fixed])
    moved = _product(n, col, w) - f * w
    if _max_abs(moved[:, 0]):
        raise ArithmeticError(f"{name}: (b) its square is not {f} times itself")
    trace = f * int(col[0])
    if trace != f * rank:
        raise ArithmeticError(f"{name}: (c) trace {trace} is not {f} * rank {rank}")
    if _max_abs(moved[:, 1:]):
        raise ArithmeticError(f"{name}: (d) moves a vector its range must hold")
    if _unfixed(n, col, _generators(n, y)):
        group = f"S_{n}" if y is None else f"Stab({y})"
        raise ArithmeticError(f"{name}: (e) does not commute with left multiplication by {group}")


def _up_to_level(n: int, k: int) -> list[Partition]:
    """The diagrams of size n with at most k boxes below the first row."""
    return [lam for lam in young.partitions(n) if young.level(lam) <= k]


def _high_branches(n: int) -> list[tuple[Partition, list[Partition]]]:
    """(lam, mus) for each lam of size n with a high branch: the mus are the
    diagrams of removable(lam) other than its low branch trim_first_row(lam).
    Only lam = (n,) has none."""
    return [
        (lam, [mu for mu in young.removable(lam) if mu != young.trim_first_row(lam)])
        for lam in young.partitions(n)
        if young.level(lam)
    ]


def _low_branches(n: int) -> list[tuple[Partition, list[Partition]]]:
    """(lam, [trim_first_row(lam)]) for each lam of size n whose first row can
    be trimmed.  With _high_branches these are all of removable(lam) for every
    lam, which is why P_y + L_y = I: the branching rule."""
    lams = [lam for lam in young.partitions(n) if young.trim_first_row(lam) is not None]
    return [(lam, [young.trim_first_row(lam)]) for lam in lams]


@cache
def _scaled_a(n: int, k: int) -> np.ndarray:
    """The column of N! P_{A_k} = sum of d_lam X_lam over the lam of level
    <= k, with X_lam[i, j] = chi_lam(pi_i^-1 pi_j): integer class values,
    certified with G = S_N on the indicator of A_k, and on that of A_{k-1}
    for the chain A_{k-1} < A_k.  The two-sided orbit of each indicator is
    the whole spanning set of its subspace."""
    lams, table = young.partitions(n), _character_table(n)
    rows = table[[lams.index(lam) for lam in _up_to_level(n, k)]]
    col = (rows[:, -1] @ rows)[_class_data(n)]
    fixed = [_indicator(n, j) for j in range(max(k - 1, 0), k + 1)]
    _certify(f"a_projector({n}, {k})", n, col, subspace_a(n, k), fixed=fixed)
    col.setflags(write=False)
    return col


def _branch_sum(n: int, y: int, branches) -> np.ndarray:
    """The column of N! * sum of Pi_lam R_mu^y over the (lam, mus) in
    branches and each mu in mus: Pi_lam = d_lam X_lam / N! is the isotypic
    projector of lam and R_mu^y = d_mu Y_mu^y / (N-1)! the mu-isotypic
    projector of Stab(y) acting by left multiplication (on the range side),
    Y_mu^y = sum over g in Stab(y) of chi_mu(g) |g pi> <pi|.

    X_lam is central and Y_mu^y is a sum of left multiplications, so both
    commute with right multiplication and the sum is the _gather of its
    column 0, whose entry i is sum over g in Stab(y) of d_lam d_mu chi_mu(g)
    chi_lam(pi_i^-1 g), with chi_mu read on the cycles of g off y, divided
    by (N-1)!.  For the high and low branches that division is exact;
    any remainder raises ArithmeticError, naming the challenge."""
    lams, sub_types = young.partitions(n), young.partitions(n - 1)
    table, sub_table = _character_table(n), _character_table(n - 1)
    cls, sub_class = _stab_classes(n, y)
    column = np.zeros(factorial(n), dtype=np.int64)
    for lam, mus in branches:
        chi = table[lams.index(lam)]
        rows = sub_table[[sub_types.index(mu) for mu in mus]]
        column += chi[-1] * (chi[cls] @ (rows[:, -1] @ rows)[sub_class])
    m = factorial(n - 1)
    column, remainder = np.divmod(column, m)
    if remainder.any():
        raise ArithmeticError(f"branch sum over Stab({y}): not a multiple of ({n}-1)! = {m}")
    return column


def _high_increments(n: int) -> np.ndarray:
    """The increments of the constructive high subspace for challenge 0, the
    sum over i = 1..n-1 of A_i^0 with A_{i-1} projected out: the rows
    N! v - (N! P_{A_{i-1}}) v of an int64 (n - 1) x N! array, for
    v = _indicator(n, i, 0), one per level, each product reading only the
    columns of N! P_{A_{i-1}} on the support of v (_product).  The map
    v -> N! v - (N! P_{A_{i-1}}) v commutes with multiplication on both
    sides, so the two-sided orbit of the i-th increment, Stab(0) on the
    left, is the increments of the whole spanning set of A_i^0.  Each v lies
    in A_i, so given the chain A_{i-1} < A_i, the i-th increment lies in A_i
    minus A_{i-1}: the increments of different levels are orthogonal, and
    the orbit of the i-th spans at least dim A_i^0 - dim A_{i-1} dimensions,
    with equality only when A_{i-1} lies in A_i^0."""
    f = np.int64(factorial(n))
    increments = np.empty((n - 1, f), dtype=np.int64)
    for i in range(1, n):
        v = _indicator(n, i, 0)  # int8, cast only by the product
        increments[i - 1] = f * v - _product(n, _scaled_a(n, i - 1), v)
    return increments


def _high_rank(n: int, y: int) -> int:
    return sum(subspace_a_y(n, i, y) - subspace_a(n, i - 1) for i in range(1, n))


def _low_rank(n: int, y: int) -> int:
    return sum(subspace_a(n, i) - subspace_a_y(n, i, y) for i in range(n))


@cache
def _scaled_high_0(n: int) -> np.ndarray:
    """The column of N! P_0, the one high projector that is built and kept:
    the branch sum over _high_branches, certified by (a)-(e) with
    G = Stab(0) against the n - 1 vectors of _high_increments(n).  By (d)
    and (e) its range holds the increments of every spanning vector; with
    the certified trace that forces each level to its least dimension, so
    A_{i-1} < A_i^0 < A_i, and P_0 is the projector onto their sum."""
    col = _branch_sum(n, 0, _high_branches(n))
    _certify(f"high_projection({n}, 0)", n, col, _high_rank(n, 0), 0, _high_increments(n))
    col.setflags(write=False)
    return col


@cache
def _scaled_low_0(n: int) -> np.ndarray:
    """The column of N! L_0, the one low projector that is built and kept:
    the branch sum over _low_branches, certified by (a)-(c) against the rank
    sum of dim A_i - dim A_i^0, and by (e) with G = Stab(0)."""
    col = _branch_sum(n, 0, _low_branches(n))
    _certify(f"low_projection({n}, 0)", n, col, _low_rank(n, 0), 0)
    col.setflags(write=False)
    return col


def _relabeled(n: int, col: np.ndarray, y: int) -> np.ndarray:
    """The column of a challenge-0 operator moved to challenge y: col
    conjugated by the range transposition tau = (0 y), which maps A_k^0
    onto A_k^y and fixes A_k, so N! P_y = T (N! P_0) T, and so for L_y, with
    T the left multiplication by tau, T^-1 = T."""
    _check_challenge(n, y)
    return col[_conjugation(n, _transposition(n, y))]


@cache
def _scaled_m(n: int) -> np.ndarray:
    """The column of N! M, the sum of the columns of N! P_y over all
    challenges."""
    _check_n(n)
    dm = sum(_relabeled(n, _scaled_high_0(n), y) for y in range(n))
    dm.setflags(write=False)
    return dm


def _central_element(n: int) -> np.ndarray:
    """The column of N! C_f: C_f[i, j] = f(pi_i^-1 pi_j), convolution by the
    class function f = sum_lam e_lam d_lam chi_lam / N!, which is
    sum_lam e_lam Pi_lam.

    N! f = sum_lam e_lam d_lam chi_lam is summed exactly as a Fraction on
    each class.  e_lam d_lam = N (d_lam - d'_lam) makes it an integer, which
    float64 holds exactly; a wrong e_lam may leave a fraction, which then
    cannot equal the integer N! M."""
    table = _character_table(n)
    weights = [young.eigenvalue_m(lam) * int(d) for lam, d in zip(young.partitions(n), table[:, -1])]
    return (np.array(weights) @ table.astype(object)).astype(np.float64)[_class_data(n)]


# ---------------------------------------------------------------------------
# Predicted dimensions from the combinatorics.


def predicted_a_dim(n: int, k: int) -> int:
    return sum(young.dim(lam) ** 2 for lam in _up_to_level(n, k))


def predicted_high_rank(n: int) -> int:
    return sum(young.dim(lam) * young.dim(mu) for lam, mus in _high_branches(n) for mu in mus)


def predicted_low_rank(n: int) -> int:
    return sum(young.dim(lam) * young.dim(mu) for lam, mus in _low_branches(n) for mu in mus)


# ---------------------------------------------------------------------------
# Fourier blocks in Young's orthogonal form.
#
# Every operator here is a left convolution, S = sum_g c(g) L_g for c its
# column (see _gather), and the left regular representation is the sum of
# d_lam copies of each irrep rho_lam.  So S is the sum of d_lam copies of its
# Fourier block F_lam = sum_g c(g) rho_lam(g), a d_lam x d_lam matrix, and
# the eigenvalues of S are those of the blocks, each d_lam times.  rho_lam
# is built from the adjacent transpositions alone, by axial distances, with
# no character: the blocks are a construction independent of everything the
# characters above give.  Its basis, the standard tableaux, is adapted to
# S_{n-1} = Stab(n-1) (Okounkov and Vershik, 1996).

_FORM_TOL = 1e-12  # Coxeter and orthogonality residual of the generators


@cache
def _tableaux(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """The standard tableaux of shape lam, each as the contents col - row of
    the boxes that hold 0, 1, ..., n-1, which fix the tableau: ordered by the
    corner that holds n-1, top row first."""
    if not lam:
        return ((),)
    tabs: list[tuple[int, ...]] = []
    for r, (p, below) in enumerate(zip(lam, lam[1:] + (0,))):
        if p > below:
            mu = lam[:r] + ((p - 1,) if p > 1 else ()) + lam[r + 1 :]
            tabs += [t + (p - 1 - r,) for t in _tableaux(mu)]
    return tuple(tabs)


def _coxeter_residual(gens: np.ndarray) -> float:
    """max |(s_i s_j)^m_ij - I| over every i, j, with m_ii = 1, m_ij = 3
    for |i - j| = 1 and 2 otherwise, and max |s_i s_i^T - I|: 0 up to
    rounding iff the matrices are orthogonal and satisfy the Coxeter
    presentation of S_n, so that s_i -> gens[i] extends to an orthogonal
    representation."""
    eye = np.eye(gens.shape[-1])
    pairs = gens[:, None] @ gens[None, :]
    squares = pairs @ pairs
    i, j = np.indices(pairs.shape[:2])[..., None, None]
    powers = np.where(i == j, pairs, np.where(abs(i - j) == 1, squares @ pairs, squares))
    orthogonal = gens @ gens.transpose(0, 2, 1)
    return max(np.abs(powers - eye).max(initial=0), np.abs(orthogonal - eye).max(initial=0))


@cache
def _orthogonal_form(lam: Partition) -> np.ndarray:
    """rho_lam(s_i) for the adjacent transpositions s_i = (i i+1), i < n-1,
    stacked (n-1) x d_lam x d_lam, read-only, in Young's orthogonal form: on
    the tableau T with axial distance r = c_T(i+1) - c_T(i), s_i is 1/r times
    T plus sqrt(1 - 1/r^2) times T with i and i+1 swapped, a standard
    tableau iff |r| > 1.  ArithmeticError unless _coxeter_residual is within
    _FORM_TOL."""
    tabs = _tableaux(lam)
    where = {t: a for a, t in enumerate(tabs)}
    n = len(tabs[0])
    gens = np.zeros((n - 1, len(tabs), len(tabs)))
    for i in range(n - 1):
        for a, t in enumerate(tabs):
            r = t[i + 1] - t[i]
            gens[i, a, a] = 1 / r
            if abs(r) > 1:
                gens[i, where[t[:i] + (t[i + 1], t[i]) + t[i + 2 :]], a] = np.sqrt(1 - 1 / r**2)
    residual = _coxeter_residual(gens)
    if not residual <= _FORM_TOL:
        raise ArithmeticError(f"orthogonal form of {lam}: Coxeter residual {residual:.3e} > {_FORM_TOL:.0e}")
    gens.setflags(write=False)
    return gens


@cache
def _cayley_levels(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The breadth-first levels of the Cayley graph of S_n on the adjacent
    transpositions, after the identity's: per level, (nodes, parents, via)
    with the element nodes[a] = s_via[a] g for g the parents[a]-th node of
    the level before, each element once.  s_i g swaps the values i and i+1
    in the one-line row of g, so each level is one perm_index call."""
    perms, i = perms_matrix(n), np.arange(n - 1)[:, None, None]
    seen = np.zeros(factorial(n), dtype=bool)
    seen[0] = True
    nodes, levels = np.zeros(1, dtype=np.intp), []
    while True:
        g = perms[nodes]
        reached, first = np.unique(perm_index(g + (g == i) - (g == i + 1)), return_index=True)
        new = ~seen[reached]
        if not new.any():
            return tuple(levels)
        via, parents = np.divmod(first[new], len(nodes))
        nodes = reached[new]
        seen[nodes] = True
        levels.append((nodes, parents, via))


def _fourier_blocks(n: int, col: np.ndarray) -> dict[Partition, np.ndarray]:
    """F_lam = sum_g col[g] rho_lam(g) for every lam of size n: rho_lam of
    each level of _cayley_levels is rho_lam(s_i) rho_lam(g) of the level
    before, one batched product per level, and only one level is held."""
    blocks = {}
    for lam in young.partitions(n):
        gens = _orthogonal_form(lam)
        rho = np.eye(gens.shape[-1])[None]
        block = col[0] * rho[0]
        for nodes, parents, via in _cayley_levels(n):
            rho = gens[via] @ rho[parents]
            block += (col[nodes] @ rho.reshape(len(nodes), -1)).reshape(block.shape)
        blocks[lam] = block
    return blocks


def _block_eigenvalues(n: int, col: np.ndarray) -> np.ndarray:
    """The eigenvalues of _gather(n, col), col a float column of a symmetric
    operator (col[index of pi^-1] == col, so each F_lam is symmetric): the
    eigenvalues of each Fourier block, repeated d_lam times, unsorted.  No
    N! x N! matrix is formed."""
    return np.concatenate([np.repeat(np.linalg.eigvalsh(f), len(f)) for f in _fourier_blocks(n, col).values()])


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class SpectrumBlock:
    lam: Partition
    e_predicted: Fraction
    e_observed: float | None
    mult_predicted: int
    mult_observed: int
    ok: bool


@dataclass
class SpectrumReport:
    n: int
    blocks: list[SpectrumBlock]
    central_residual: float
    passed: bool


def spectrum(n: int) -> SpectrumReport:
    """Read M's eigenvalues off its Fourier blocks against each predicted
    block eigenvalue e_lam and multiplicity, then check the integer N! M
    against N! C_f, N! times the central element C_f = sum_lam e_lam Pi_lam.

    The eigenvalues are those of the blocks F_lam of the column of M, in
    Young's orthogonal form (_block_eigenvalues), each d_lam times: no
    N! x N! matrix is gathered or solved.  Each e_lam claims the eigenvalues
    within 1e-6 of it; the block is ok when their count equals the summed
    d_mu^2 over every mu with e_mu = e_lam, so blocks sharing an eigenvalue
    read the same claim.  Distinct predictions lie at least 4/15 apart at
    N <= 6, so no eigenvalue is claimed twice.  Readout failures are
    reported, not raised.  The run passes only if every eigenvalue is
    claimed, every block is ok and N! M == N! C_f exactly, read on their
    columns; central_residual is max|N! M - N! C_f| / N!, 0.0 exactly when
    they are equal.  M = C_f then acts as e_lam on each isotypic block and
    has no part between two blocks, exactly, and the block readout, which
    shares no character with C_f, is an independent float check of the same
    identity.
    """
    eigs = np.sort(_block_eigenvalues(n, _scaled_m(n) / factorial(n)))
    lams = young.partitions(n)
    e = {lam: young.eigenvalue_m(lam) for lam in lams}
    claimed = np.zeros(eigs.size, dtype=bool)
    blocks: list[SpectrumBlock] = []
    for lam in lams:
        near = np.abs(eigs - float(e[lam])) <= 1e-6
        claimed |= near
        count = int(near.sum())
        mult = sum(young.dim(mu) ** 2 for mu in lams if e[mu] == e[lam])
        mean = float(eigs[near].mean()) if count else None
        blocks.append(SpectrumBlock(lam, e[lam], mean, young.dim(lam) ** 2, count, count == mult))

    central_res = float(np.abs(_scaled_m(n) - _central_element(n)).max()) / factorial(n)
    passed = bool(claimed.all()) and all(b.ok for b in blocks) and central_res == 0
    return SpectrumReport(n, blocks, central_res, passed)


@dataclass
class AvgBoundReport:
    n: int
    k: int
    samples: int
    seed: int
    exact_max: float
    predicted_max: Fraction
    bound: Fraction
    sample_max: float
    sample_slack: float
    passed: bool


def max_level_eigenvalue(n: int, k: int) -> Fraction:
    """max of the block eigenvalue over diagrams with at most k boxes below
    the first row."""
    return max((young.eigenvalue_m(lam) for lam in _up_to_level(n, k)), default=Fraction(0))


def avg_bound_check(n: int, k: int, samples: int = 100, seed: int = 0) -> AvgBoundReport:
    """Check that challenge-averaged high-subspace mass on A_k is <= 2k/n.

    The exact maximum is the top eigenvalue of P_{A_k} M P_{A_k} divided by
    n; it must match max_{level <= k} e / n and respect the 2k/n bound.
    Both operators commute with right multiplication, so (N!)^3 P M P is
    the _gather of one exact integer column, S (T c) for c the column of
    S = N! P_{A_k} and T = N! M: two _products of a column, which refuse
    past their bound, and no product of two N! x N! matrices.  Its top
    eigenvalue is read off the Fourier blocks of that column over (N!)^3
    (_block_eigenvalues), the check's independent float readout, with no
    dense gather.  Seeded random vectors P_{A_k} g / |P_{A_k} g|, g complex
    Gaussian, sample the bound's slack.
    """
    _check_level(n, k)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    f, col_p = factorial(n), _scaled_a(n, k)
    pmp = _product(n, col_p, _product(n, _scaled_m(n), col_p))
    exact_max = float(_block_eigenvalues(n, pmp / f**3).max()) / n
    predicted = max_level_eigenvalue(n, k) / n
    bound = Fraction(2 * k, n)

    # Sample s is x = P g / |P g| for g = g[2s] + i g[2s + 1]; M is real
    # symmetric, so x^H M x sums the real and imaginary parts' forms.  The
    # draw is the (samples, 2, N!) stream in the same order, flattened, so
    # each operator is one matrix product over all 2 * samples rows per
    # column block of the column over N! (_apply_right), and the draw is
    # freed before M's pass.
    g = _apply_right(n, np.random.default_rng(seed).standard_normal((2 * samples, f)), col_p / f)
    gm = _apply_right(n, g, _scaled_m(n) / f).reshape(samples, 2, -1)
    g = g.reshape(samples, 2, -1)
    mass = np.einsum("sij,sij->s", g, gm) / np.einsum("sij,sij->s", g, g)
    worst = max(0.0, float(mass.max()) / n)
    passed = (
        abs(exact_max - float(predicted)) <= 1e-6
        and exact_max <= float(bound) + 1e-9
        and worst <= float(bound) + 1e-9
    )
    return AvgBoundReport(
        n=n,
        k=k,
        samples=samples,
        seed=seed,
        exact_max=exact_max,
        predicted_max=predicted,
        bound=bound,
        sample_max=worst,
        sample_slack=float(bound) - worst,
        passed=passed,
    )


@dataclass
class ChangeChallengeReport:
    n: int
    max_commutation_residual: float
    passed: bool


def change_of_challenge_check(n: int) -> ChangeChallengeReport:
    """Conjugating the high projector by the two-sided action relabels the
    challenge by the range-side permutation, and M commutes with the action.

    The action U |pi> = |pi_r pi pi_d^-1> multiplies on the right by pi_d^-1,
    which every operator here commutes with, so pi_d drops out: U S U^-1
    has the column of S conjugated by pi_r^-1 (see _gather).  The relabeling
    U P_y U^-1 = P_{pi_r(y)} for every (pi_r, y) holds iff the column of
    N! P_0 is fixed by conjugation by Stab(0): each N! P_y is its conjugate
    by (0 y), which carries Stab(0) onto Stab(y).  That is certificate (e)
    of N! P_0, which _scaled_m runs before this reads anything, and whose
    failure is an ArithmeticError.  What is left is certificate (e) with
    G = S_N on the column of N! M: two exact conjugations, by the
    generators of S_N, prove U M U^-1 = M for every two-sided action.
    Every entry of a gathered matrix is an entry of its column, so the
    residual is the max over the whole matrices; it is an exact integer
    over N!, and the check passes only when it is 0.
    """
    residual = _unfixed(n, _scaled_m(n), _generators(n)) / factorial(n)
    return ChangeChallengeReport(n, residual, residual == 0)


@dataclass
class DecompReport:
    n: int
    a_dims: list[dict]
    high_ranks: list[dict]
    low_ranks: list[dict]
    complement_residual: float | None
    passed: bool


def decomposition_report(n: int) -> DecompReport:
    """Exact dimension identities for A_k and the high/low projector ranks.

    A_k dimensions are checked for any n within the cap.  Up to n = 5, one
    row per challenge y checks the ranks counted at y against the
    prediction and against the trace c[0] of the certified column c of
    N! P_y, and of N! L_y.  The relabeling by (0 y) fixes the identity, so
    the trace is that of N! P_0, or N! L_0, at every y.  N! P_0 + N! L_0 ==
    N! I is read once, on the columns against N! e_0 (complement_residual,
    an exact integer residual over N! that must be 0); the relabeling
    carries it to every y.  The containments A_{i-1} < A_i^y < A_i need no
    read of their own: certificates (d) and (e) of N! P_0 prove them at
    y = 0, and the relabeling, which maps A_i^0 onto A_i^y and fixes A_i,
    at every y.
    """
    _check_n(n)
    a_dims = []
    ok = True
    for k in range(n):
        computed = subspace_a(n, k)
        pred = predicted_a_dim(n, k)
        good = computed == pred
        ok &= good
        a_dims.append({"k": k, "dim": computed, "predicted": pred, "ok": good})

    high_rows: list[dict] = []
    low_rows: list[dict] = []
    comp_res: float | None = None
    if n <= 5:
        f = factorial(n)
        high, low = _scaled_high_0(n), _scaled_low_0(n)
        rest = high + low
        rest[0] -= f  # the column of N! P_0 + N! L_0 - N! I
        comp_res = _max_abs(rest) / f
        ok &= comp_res == 0
        for rows, col, rank, pred in (
            (high_rows, high, _high_rank, predicted_high_rank(n)),
            (low_rows, low, _low_rank, predicted_low_rank(n)),
        ):
            trace = int(col[0])
            for y in range(n):
                exact = rank(n, y)
                good = exact == pred == trace
                ok &= good
                rows.append({"y": y, "rank": exact, "trace": trace, "predicted": pred, "ok": good})
    return DecompReport(n, a_dims, high_rows, low_rows, comp_res, ok)
