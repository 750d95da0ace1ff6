"""The regular representation of S_N, for small N.

Everything lives in the N!-dimensional group algebra with basis vectors
indexed by the lexicographic enumeration of S_N.  The module builds the
partial-assignment subspaces A_k and A_k^y, the per-challenge high/low
projectors, their sum M over all challenges, and the projectors onto A_k,
then verifies the predicted decompositions by brute force and the spectrum
of M against one exact central element.

Everything up to the eigensolves is exact integer arithmetic.  Ranks of
spanning sets (unnormalized assignment vectors are 0/1 integer vectors) are
decided by one path at every N: the rank of the integer Gram matrix modulo
one prime bounds the rank over Q from below, and an integer kernel witness,
checked exactly, bounds it from above.  Every projector is one construction
from characters, scaled to an integer operator: N! P_{A_k}, D P_y and D L_y
with D = N! (N-1)!.  Each commutes with right multiplication, so it is kept
as its column 0, N! integers, and the dense matrix is gathered from that
column only where a product or an eigensolve needs one.  Each is certified
exactly against the certified ranks, on its column where it can be:
symmetric, idempotent, of the certified trace, and fixing the subspace it
must hold.  That last check reads one indicator per image set.  Right
multiplication by b maps the indicator of {(x_i, v_i)} to that of
{(b^-1 x_i, v_i)}, so the right translates of the rows {(0, v_1), ...,
(k-1, v_k)}, one per k-set v_1 < ... < v_k, are all the k-assignment
vectors, and an operator that commutes with right multiplication fixes
them all iff it fixes these C(N, k) rows.  Only the challenge-0 high
projector is built; the column of each other one is its conjugate by a
range transposition, and the challenge relabelings of
change_of_challenge_check are conjugations of columns too.  Products and
Gram sums run in float32 while a bound checked beforehand keeps every
partial sum below 2^24, and in float64 below 2^53.  Floats enter at the
public readers, which divide by the scale, and at the eigensolves.

The size cap is N = 6 (dimension 720); at N = 7 each dense 5040^2 float
matrix would cost ~200 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial

import numpy as np

from perminv import young
from perminv.young import Partition

_MAX_N = 6  # dense N! x N! matrices
_RANK_PRIME = 1_000_003
_RANK_BLOCK = 32  # panel width of the blocked prime-field elimination
_GRAM_ROWS = 512  # lines of the longer side per float chunk of a Gram matrix


class CapacityError(ValueError):
    """Requested N needs dense matrices beyond the size cap."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > _MAX_N:
        raise CapacityError(f"n = {n} exceeds the cap {_MAX_N} on dense N! x N! matrices")


def _check_level(n: int, k: int) -> None:
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")


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
def composition_table(n: int) -> np.ndarray:
    """comp[a, b] = index of compose(perms[a], perms[b])."""
    perms = perms_matrix(n)
    comp = np.empty((len(perms),) * 2, dtype=np.int32)
    for a, p in enumerate(perms):
        comp[a] = perm_index(p[perms])
    comp.setflags(write=False)
    return comp


def _inverses(n: int) -> np.ndarray:
    """Index of pi^-1 for each pi in enumeration order."""
    return perm_index(np.argsort(perms_matrix(n), axis=1))


def _conjugation(n: int, a) -> np.ndarray:
    """Index of a . pi . a^-1 for each pi in enumeration order."""
    a = np.asarray(a)
    return perm_index(a[perms_matrix(n)[:, np.argsort(a)]])


def _transposition(n: int, y: int) -> np.ndarray:
    """The range transposition (0 y) in one-line form; the identity at y = 0."""
    tau = np.arange(n)
    tau[[0, y]] = y, 0
    return tau


# ---------------------------------------------------------------------------
# Partial assignments and their spanning vectors.


@cache
def assignments(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All k-partial assignments as tuples of (input, output) pairs.

    Deterministic lexicographic order: domains in combination order, images
    in permutation order.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    out = []
    for dom in combinations(range(n), k):
        for img in permutations(range(n), k):
            out.append(tuple(zip(dom, img)))
    return tuple(out)


@cache
def assignments_with_image(n: int, k: int, y: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    if not 0 <= y < n:
        raise ValueError(f"challenge {y} not in range({n})")
    return tuple(a for a in assignments(n, k) if any(v == y for _, v in a))


def _indicator_rows(n: int, alphas) -> np.ndarray:
    """Row i marks the permutations compatible with alphas[i]; all alphas
    have the same size k, so the mask is k gathers of (alphas, perms)."""
    perms = perms_matrix(n)
    hit = perms.T[:, None, :] == np.arange(n)[:, None]  # hit[x, v, j]: perms[j][x] == v
    k = len(alphas[0]) if len(alphas) else 0
    pairs = np.array(alphas, dtype=np.intp).reshape(len(alphas), k, 2)
    mask = np.ones((len(alphas), len(perms)), dtype=bool)
    for x, v in pairs.transpose(1, 2, 0):
        mask &= hit[x, v]
    return mask.astype(np.int8)


def _image_set_rows(n: int, k: int, y: int | None = None) -> np.ndarray:
    """The int8 indicator rows of the assignments {(0, v_1), ..., (k-1, v_k)},
    one per k-set v_1 < ... < v_k of range(n), or per k-set holding y when y
    is given.  Right multiplication by b maps the indicator of {(x_i, v_i)}
    to that of {(b^-1 x_i, v_i)}, so the right translates of these C(n, k),
    or C(n-1, k-1), rows are the whole spanning set of A_k, or of A_k^y."""
    images = [v for v in combinations(range(n), k) if y is None or y in v]
    return _indicator_rows(n, [tuple(enumerate(v)) for v in images])


# ---------------------------------------------------------------------------
# Exact ranks: one prime field for the lower bound, an integer kernel witness
# for the upper bound.


def _max_abs(a: np.ndarray) -> int:
    """max |a| of an array of integers, 0 when empty, without an abs copy."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_float(bound: int) -> type:
    """The float type for an integer product or sum whose partial sums are
    bounded by bound in magnitude: float32 below 2^24, float64 otherwise.
    Every integer below 2^24 is a float32, so each product and partial sum
    is exact and any summation order gives the same bits (Dumas, Giorgi and
    Pernet, ACM TOMS 2008); the callers check the float64 range."""
    return np.float32 if bound < 2**24 else np.float64


def _gram_int(rows: np.ndarray) -> np.ndarray:
    """Exact integer Gram matrix of an integer row matrix, on the smaller side.

    The longer side is summed over float copies of _GRAM_ROWS of its lines
    at a time, so the rows never exist in float whole.  The float type comes
    from one bound read before the sum: the largest diagonal entry of G,
    the largest squared column norm of the lines.  By Cauchy-Schwarz it
    bounds every product and every partial sum of every entry, so the sums
    run in float32 while it is below 2^24 (_exact_float; at N <= 6 it is at
    most N! = 720 for the 0/1 rows of the spanning sets) and in float64
    below 2^52, and any chunking gives the same bits; from 2^52 on they are
    refused.  The diagonal itself is summed in float64: its partial sums
    are nonnegative and at most the total, so it is exact while the total
    is below 2^53 and at least 2^52 otherwise.
    """
    m, d = rows.shape
    lines = rows if m > d else rows.T
    bound = np.einsum("ij,ij->j", lines, lines, dtype=np.float64).max(initial=0)
    if bound >= 2**52:
        raise OverflowError("Gram entries too large for exact float accumulation")
    dtype = _exact_float(int(bound))
    g = np.zeros((lines.shape[1],) * 2, dtype=dtype)
    for start in range(0, lines.shape[0], _GRAM_ROWS):
        chunk = lines[start : start + _GRAM_ROWS].astype(dtype)
        g += chunk.T @ chunk
    return g.astype(np.int64)


def _reduce_mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """The balanced residue of x mod p, of magnitude at most p/2, in place,
    for float64 integers of magnitude below 2^50.  x * (1/p) is within
    |x/p| 2^-52 < 1/(2p) of x/p, so the rounded quotient q has
    |x - q p| < (p + 1)/2, and q p and x - q p are exact."""
    q = x * (1 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _diagonal_pivots_mod_p(block: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivots P of a symmetric block of residues, taken on its diagonal, and
    block[P, P]^-1 mod p, by one Gauss-Jordan pass over [block | I].

    Column c is a pivot iff its Schur diagonal (its entry after the pivot
    rows left of it are eliminated) is nonzero mod p.  Otherwise its whole
    Schur row in the block must vanish, else ArithmeticError: a symmetric
    Schur complement then has a nonzero column that no diagonal pivot can
    take.  Row ops only combine pivot rows, so the identity half of the
    pivot rows ends as block[P, P]^-1 on the columns P."""
    b = block.shape[0]
    w = np.hstack([block, np.eye(b)])
    pivots: list[int] = []
    for c in range(b):
        if not w[c, c]:
            if w[c, :b].any():
                raise ArithmeticError(f"zero diagonal pivot over a nonzero column mod {p}")
            continue
        w[c] = _reduce_mod_p(w[c] * pow(int(w[c, c]) % p, p - 2, p), p)
        mult = w[:, c].copy()
        mult[c] = 0
        if mult.any():
            w = _reduce_mod_p(w - np.outer(mult, w[c]), p)
        pivots.append(c)
    return pivots, w[np.ix_(pivots, [b + c for c in pivots])]


def _rank_mod_p(mat: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Rank mod p and the pivot columns of a symmetric integer matrix, by
    blocked symmetric elimination with float64 matmul updates.

    Pivots are taken on the diagonal of the Schur complement, so pivot rows
    are pivot columns and no row is searched or reordered.  For each panel
    of _RANK_BLOCK columns, with diagonal block B, rows below C and trailing
    block T, the column loop runs on B alone and gives its pivots P and
    B[P, P]^-1; then X = C[:, P] B[P, P]^-1, the other columns must vanish
    below the block, C[:, F] - X B[P, F] == 0, and T takes one update
    T - X C[:, P]^T in place, skipped when X is zero.  A zero Schur diagonal
    over a nonzero column raises ArithmeticError; in a positive semidefinite
    matrix such as a Gram matrix a zero diagonal entry has a zero column, so
    that happens only when p divides a nonzero Schur pivot.  Whenever it
    returns, each non-pivot column's Schur column is zero inside its block
    and below it, so it depends on the pivots left of it: every column is a
    pivot iff it is independent mod p of all the columns left of it, as in
    row-pivoted elimination.  Residues have magnitude below p (reduced ones
    at most p/2), so each product sums at most _RANK_BLOCK + 1 terms of
    magnitude below p^2 and needs one reduction: it is exact in float64,
    and within the range _reduce_mod_p takes, while (_RANK_BLOCK + 1) *
    (p - 1)^2 < 2^50 (Dumas, Giorgi and Pernet, ACM TOMS 2008).
    """
    if (_RANK_BLOCK + 1) * (p - 1) ** 2 >= 2**50:
        raise ArithmeticError(f"prime {p} too large for exact float64 blocks of {_RANK_BLOCK}")
    a = (mat % p).astype(np.float64)
    pivots: list[int] = []
    for s in range(0, a.shape[0], _RANK_BLOCK):
        e = s + _RANK_BLOCK
        block, below, trailing = a[s:e, s:e], a[e:, s:e], a[e:, e:]
        piv, inv = _diagonal_pivots_mod_p(block, p)
        free = [c for c in range(block.shape[0]) if c not in piv]
        below_piv = below[:, piv]
        x = _reduce_mod_p(below_piv @ inv, p)
        if free and _reduce_mod_p(below[:, free] - x @ block[np.ix_(piv, free)], p).any():
            raise ArithmeticError(f"zero diagonal pivot over a nonzero column mod {p}")
        if x.any():
            trailing -= x @ below_piv.T
            _reduce_mod_p(trailing, p)
        pivots += [s + c for c in piv]
    return len(pivots), pivots


def _kernel_witness(gram: np.ndarray, pivots: list[int]) -> np.ndarray:
    """d x (d - r) float64 matrix K of integers, of rank d - r by its identity
    block on the non-pivot rows F, with -rint(G[J, J]^-1 G[J, F]) on the
    pivot rows J; at full rank K is empty and nothing is solved."""
    free = np.setdiff1d(np.arange(gram.shape[0]), pivots)
    if not free.size:
        return np.zeros((gram.shape[0], 0))
    try:
        x = np.linalg.solve(gram[np.ix_(pivots, pivots)], gram[np.ix_(pivots, free)])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"singular pivot block for rank {len(pivots)}") from exc
    k = np.zeros((gram.shape[0], free.size))
    k[free, np.arange(free.size)] = 1
    k[pivots] = -np.rint(x)
    return k


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer matrices, as int64.  Every partial sum is an integer
    of magnitude at most d * max|a| * max|b|, d the inner dimension, so the
    product is exact in float32 while that bound is below 2^24 and in
    float64 while it is below 2^53; above that it raises."""
    bound = a.shape[1] * _max_abs(a) * _max_abs(b)
    if not bound < 2**53:
        raise ArithmeticError(f"integer product bound {float(bound):.3e} is not below 2^53")
    dtype = _exact_float(bound)
    return (np.asarray(a, dtype=dtype) @ np.asarray(b, dtype=dtype)).astype(np.int64)


def _check_kernel_witness(gram: np.ndarray, k: np.ndarray) -> None:
    """Raise unless gram @ k == 0 exactly."""
    resid = int(np.abs(_exact_matmul(gram, k)).max(initial=0))
    if resid:
        r = gram.shape[0] - k.shape[1]
        raise ArithmeticError(f"no integer kernel witness for rank {r}: max |G @ K| = {resid}")


def exact_rank(gram: np.ndarray) -> int:
    """Rank over Q of an integer matrix, proven on its d x d integer Gram
    matrix G (from _gram_int) by one path at every N (a certificate after
    Kaltofen, Nehring and Saunders, ISSAC 2011).  The rank r mod _RANK_PRIME
    is a lower bound, as a minor nonzero mod p is nonzero; the witness K of
    rank d - r with G @ K == 0 exactly is an upper bound.  G must be
    symmetric, as the elimination pivots on its diagonal.  An unlucky prime
    under-reports r or, dividing a nonzero Schur pivot, stops the
    elimination, and a dependent column with fractional coefficients has no
    integral K: all raise ArithmeticError.  A rank over-reported by a faulty
    elimination fails the trace check of the projector certified against
    it.  The rank is that of the whole spanning set of a subspace; the
    projector then reads only its image-set rows, whose right translates
    are that set (_image_set_rows)."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"exact_rank takes a square Gram matrix, got shape {gram.shape}")
    if not np.array_equal(gram, gram.T):
        raise ValueError("exact_rank takes a symmetric Gram matrix")
    r, pivots = _rank_mod_p(gram, _RANK_PRIME)
    _check_kernel_witness(gram, _kernel_witness(gram, pivots))
    return r


# ---------------------------------------------------------------------------
# Certified dimensions of A_k and A_k^y.


@cache
def subspace_a(n: int, k: int) -> int:
    """dim A_k, the exact rank of all k-partial-assignment vectors."""
    _check_level(n, k)
    return exact_rank(_gram_int(_indicator_rows(n, assignments(n, k))))


@cache
def subspace_a_y(n: int, k: int, y: int) -> int:
    """dim A_k^y, the exact rank of the k-assignment vectors with y in the
    image; A_0^y = {0}."""
    _check_level(n, k)
    return exact_rank(_gram_int(_indicator_rows(n, assignments_with_image(n, k, y))))


# ---------------------------------------------------------------------------
# Projectors from characters, as certified integer matrices.


def _scale(n: int) -> int:
    """D = N! (N-1)!, which makes every high and low projector integral."""
    return factorial(n) * factorial(n - 1)


@cache
def _class_data(n: int) -> tuple[np.ndarray, tuple[Partition, ...]]:
    """Per-element conjugacy class index and the list of cycle types."""
    types: dict[Partition, int] = {}
    elem_class = np.empty(factorial(n), dtype=np.int64)
    for i, p in enumerate(enumerate_group(n)):
        ct = young.cycle_type(p)
        elem_class[i] = types.setdefault(ct, len(types))
    elem_class.setflags(write=False)
    return elem_class, tuple(types)


def _characters(lam: Partition, types) -> np.ndarray:
    return np.array([young.character(lam, t) for t in types], dtype=np.int64)


def _gather(n: int, column: np.ndarray) -> np.ndarray:
    """The N! x N! matrix with entry [i, j] = column[index of pi_i pi_j^-1].

    Any matrix that commutes with right multiplication has this form, with
    its own column 0 as column; so has a class function of pi_i^-1 pi_j,
    which is conjugate to the inverse of pi_i pi_j^-1.  Every entry of the
    matrix is an entry of the column, and every entry of the column is one
    in column 0, so a max over the matrix is the max over its column.
    Conjugating the column by a, column[index of a pi a^-1], gathers
    A^-1 S A for A the left multiplication by a."""
    return column[composition_table(n)[:, _inverses(n)]]


def _divided(n: int, column: np.ndarray, scale: int) -> np.ndarray:
    """The float matrix gathered from column / scale, read-only: the public
    readers' one way from an integer column to a dense operator."""
    p = _gather(n, column / scale)
    p.setflags(write=False)
    return p


def _moved(sp: np.ndarray, scale: int, vectors: np.ndarray) -> float:
    """max |sp w / scale - w| over the integer columns w of vectors, from an
    exact integer product: 0.0 exactly when sp / scale fixes every one."""
    diff = _exact_matmul(sp, vectors) - np.int64(scale) * vectors
    return float(np.abs(diff).max(initial=0)) / scale


def _certify(name: str, n: int, col: np.ndarray, scale: int, rank: int, fixed=()) -> None:
    """Raise ArithmeticError unless S / scale, S = _gather(n, col) for an
    integer column col, is the orthogonal projector of the certified rank
    whose range holds the columns of each matrix in fixed and all their
    right translates.  Four exact checks: (a) col[index of pi^-1] == col, so
    S is symmetric; (b) S col == scale * col, one exact matrix-vector
    product: S^2 and scale S both commute with right multiplication, so they
    are equal iff their columns 0 are, and S / scale is an orthogonal
    projector; (c) tr S = N! col[0] == scale * rank, so it has that rank;
    (d) S w == scale w for every column w of fixed.  S commutes with right
    multiplication, so (d) holds for every right translate of w as well.
    Each product is exact under the bound _exact_matmul checks.  Once those
    translates span a space of the certified rank, (a)-(d) make S / scale
    its projector."""
    if not np.array_equal(col[_inverses(n)], col):
        raise ArithmeticError(f"{name}: (a) not symmetric")
    sp = _gather(n, col)
    if not np.array_equal(_exact_matmul(sp, col), scale * col):
        raise ArithmeticError(f"{name}: (b) its square is not {scale} times itself")
    trace = factorial(n) * int(col[0])
    if trace != scale * rank:
        raise ArithmeticError(f"{name}: (c) trace {trace} is not {scale} * rank {rank}")
    for w in fixed:
        if _moved(sp, scale, w):
            raise ArithmeticError(f"{name}: (d) moves a vector its range must hold")


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
    certified on the image-set rows of A_k, and of A_{k-1} for the chain
    A_{k-1} < A_k.  It commutes with right multiplication, so fixing those
    rows fixes their right translates, the whole spanning sets."""
    elem_class, types = _class_data(n)
    values = sum(young.dim(lam) * _characters(lam, types) for lam in _up_to_level(n, k))
    col = values[elem_class]
    fixed = [_image_set_rows(n, j).T for j in range(max(k - 1, 0), k + 1)]
    _certify(f"a_projector({n}, {k})", n, col, factorial(n), subspace_a(n, k), fixed)
    col.setflags(write=False)
    return col


def a_projector(n: int, k: int) -> np.ndarray:
    """Orthogonal projector onto A_k, divided out of N! P_{A_k}."""
    return _divided(n, _scaled_a(n, k), factorial(n))


def _drop_fixed_point(ct: Partition) -> Partition:
    """Cycle type on the complement of one fixed point: remove a 1-cycle."""
    parts = list(ct)
    parts.remove(1)
    return tuple(parts)


def _branch_sum(n: int, y: int, branches) -> np.ndarray:
    """The column of D * sum of Pi_lam R_mu^y over the (lam, mus) in branches
    and each mu in mus, an integer operator: Pi_lam = d_lam X_lam / N! is
    the isotypic projector of lam and R_mu^y = d_mu Y_mu^y / (N-1)! the
    mu-isotypic projector of Stab(y) acting by left multiplication (on the
    range side), Y_mu^y = sum over g in Stab(y) of chi_mu(g) |g pi> <pi|.

    X_lam is central and Y_mu^y is a sum of left multiplications, so both
    commute with right multiplication and the sum is the _gather of its
    column 0, whose entry i is sum over g in Stab(y) of d_lam d_mu chi_mu(g)
    chi_lam(pi_i^-1 g), with chi_mu read on the cycles of g off y."""
    elem_class, types = _class_data(n)
    stab = np.flatnonzero(perms_matrix(n)[:, y] == y)
    sub_types = young.partitions(n - 1)
    sub_class = [sub_types.index(_drop_fixed_point(types[elem_class[g]])) for g in stab]
    cls = elem_class[composition_table(n)[np.ix_(_inverses(n), stab)]]
    column = np.zeros(factorial(n), dtype=np.int64)
    for lam, mus in branches:
        weight = sum(young.dim(mu) * _characters(mu, sub_types) for mu in mus)
        column += young.dim(lam) * (_characters(lam, types)[cls] @ weight[sub_class])
    return column


def _high_increments(n: int, y: int) -> tuple[float, list[np.ndarray]]:
    """(outside, increments) of the constructive high subspace for challenge
    y, the sum over i = 1..n-1 of A_i^y with A_{i-1} projected out.

    Both read the image-set rows v of each A_i^y (_image_set_rows).  outside
    is the largest exact residual max|P_{A_i} v - v| over them, 0.0 exactly
    when every A_i^y lies in A_i.  increments[i - 1] has the integer columns
    N! v - (N! P_{A_{i-1}}) v.  The map v -> N! v - (N! P_{A_{i-1}}) v and
    P_{A_i} commute with right multiplication, so the right translates of
    these columns are the residuals and increments of the whole spanning
    set of A_i^y, and an operator that commutes with right multiplication
    fixes all of them iff it fixes these.  Given the chain A_{i-1} < A_i,
    the i-th increment then lies in A_i minus A_{i-1}, so the increments are
    mutually orthogonal and their translates span at least
    dim A_i^y - dim A_{i-1} dimensions, with equality only when A_{i-1}
    lies in A_i^y."""
    f = factorial(n)
    outside, increments = 0.0, []
    below = _gather(n, _scaled_a(n, 0))
    for i in range(1, n):
        v = _image_set_rows(n, i, y).T  # int8, cast only by the products
        level = _gather(n, _scaled_a(n, i))
        outside = max(outside, _moved(level, f, v))
        increments.append(np.int64(f) * v - _exact_matmul(below, v))
        below = level
    return outside, increments


def _high_rank(n: int, y: int) -> int:
    return sum(subspace_a_y(n, i, y) - subspace_a(n, i - 1) for i in range(1, n))


def _low_rank(n: int, y: int) -> int:
    return sum(subspace_a(n, i) - subspace_a_y(n, i, y) for i in range(n))


@cache
def _scaled_high_0(n: int) -> np.ndarray:
    """The column of D P_0, the one high projector that is built and kept:
    the branch sum over _high_branches, certified by (a)-(d) against the
    increments of _high_increments, one per image set of each level.  D P_0
    commutes with right multiplication, so (d) holds for their right
    translates, the increments of every spanning vector.  With the certified
    trace, (d) forces each increment to its least dimension, so
    A_{i-1} < A_i^0 < A_i, and P_0 is the projector onto their sum."""
    dq = _branch_sum(n, 0, _high_branches(n))
    outside, increments = _high_increments(n, 0)
    if outside:
        raise ArithmeticError(f"high_projection({n}, 0): some A_i^0 is not inside A_i")
    _certify(f"high_projection({n}, 0)", n, dq, _scale(n), _high_rank(n, 0), increments)
    dq.setflags(write=False)
    return dq


def _check_challenge(n: int, y: int) -> None:
    _check_n(n)
    if not 0 <= y < n:
        raise ValueError(f"challenge {y} not in range({n})")


def _scaled_high(n: int, y: int) -> np.ndarray:
    """The column of D P_y: the column of D P_0 conjugated by the range
    transposition tau = (0 y), which maps A_k^0 onto A_k^y and fixes A_k, so
    D P_y = T (D P_0) T for T the left multiplication by tau, T^-1 = T."""
    _check_challenge(n, y)
    return _scaled_high_0(n)[_conjugation(n, _transposition(n, y))]


def high_projection(n: int, y: int) -> np.ndarray:
    """Orthogonal projector onto the high subspace for challenge y, divided
    out of D P_y."""
    return _divided(n, _scaled_high(n, y), _scale(n))


def _scaled_low(n: int, y: int) -> np.ndarray:
    """The column of D L_y, the branch sum over _low_branches, built directly
    for each y and certified by (a)-(c) against the rank sum of
    dim A_i - dim A_i^y."""
    _check_challenge(n, y)
    dl = _branch_sum(n, y, _low_branches(n))
    _certify(f"low_projection({n}, {y})", n, dl, _scale(n), _low_rank(n, y))
    return dl


def low_projection(n: int, y: int) -> np.ndarray:
    """Orthogonal projector onto the low subspace for challenge y."""
    return _divided(n, _scaled_low(n, y), _scale(n))


@cache
def _scaled_m(n: int) -> np.ndarray:
    """The column of D M, the sum of the columns of D P_y over all challenges."""
    _check_n(n)
    dm = sum(_scaled_high(n, y) for y in range(n))
    dm.setflags(write=False)
    return dm


def build_m(n: int) -> np.ndarray:
    """Sum of the high projectors over all challenges: symmetric PSD, not
    idempotent.  Gathered from the kept column of D M on each call."""
    return _divided(n, _scaled_m(n), _scale(n))


def _central_element(n: int) -> np.ndarray:
    """The column of D C_f: C_f[i, j] = f(pi_i^-1 pi_j), convolution by the
    class function f = sum_lam e_lam d_lam chi_lam / N!, which is
    sum_lam e_lam Pi_lam.

    D f = (N-1)! sum_lam e_lam d_lam chi_lam is summed exactly as a Fraction
    on each class.  e_lam d_lam = N (d_lam - d'_lam) makes it an integer,
    which float64 holds exactly; a wrong e_lam may leave a fraction, which
    then cannot equal the integer D M."""
    elem_class, types = _class_data(n)
    lams = young.partitions(n)
    values = [
        float(
            factorial(n - 1)
            * sum(young.eigenvalue_m(lam) * young.dim(lam) * young.character(lam, ct) for lam in lams)
        )
        for ct in types
    ]
    return np.array(values)[elem_class]


# ---------------------------------------------------------------------------
# Predicted dimensions from the combinatorics.


def predicted_a_dim(n: int, k: int) -> int:
    return sum(young.dim(lam) ** 2 for lam in _up_to_level(n, k))


def predicted_high_rank(n: int) -> int:
    return sum(young.dim(lam) * young.dim(mu) for lam, mus in _high_branches(n) for mu in mus)


def predicted_low_rank(n: int) -> int:
    return sum(young.dim(lam) * young.dim(mu) for lam, mus in _low_branches(n) for mu in mus)


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
    """Read M's sorted eigenvalues against each predicted block eigenvalue
    e_lam and multiplicity, then check the integer D M against D C_f, D
    times the central element C_f = sum_lam e_lam Pi_lam.

    Each e_lam claims the eigenvalues within 1e-6 of it; the block is ok
    when their count equals the summed d_mu^2 over every mu with e_mu =
    e_lam, so blocks sharing an eigenvalue read the same claim.  Distinct
    predictions lie at least 4/15 apart at N <= 6, so no eigenvalue is
    claimed twice.  Readout failures are reported, not raised.  The run
    passes only if every eigenvalue is claimed, every block is ok and
    D M == D C_f exactly, read on their columns; central_residual is
    max|D M - D C_f| / D, 0.0 exactly when they are equal.  M = C_f then
    acts as e_lam on each isotypic block and has no part between two
    blocks, exactly, and the eigenvalue readout is an independent float
    check of the same identity.
    """
    eigs = np.sort(np.linalg.eigvalsh(build_m(n)))
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

    central_res = float(np.abs(_scaled_m(n) - _central_element(n)).max()) / _scale(n)
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
    Seeded random vectors P_{A_k} g / |P_{A_k} g|, g complex Gaussian, sample
    the bound's slack.
    """
    _check_level(n, k)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = a_projector(n, k)
    m = build_m(n)
    exact_max = float(np.linalg.eigvalsh(p @ m @ p)[-1]) / n
    predicted = max_level_eigenvalue(n, k) / n
    bound = Fraction(2 * k, n)

    # Sample s is x = P g / |P g| for g = g[s, 0] + i g[s, 1]; M is real
    # symmetric, so x^H M x sums the real and imaginary parts' forms.
    g = np.random.default_rng(seed).standard_normal((samples, 2, p.shape[0])) @ p
    mass = np.einsum("sij,sij->s", g, g @ m) / np.einsum("sij,sij->s", g, g)
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
    trials: int
    seed: int
    max_conjugation_residual: float
    max_commutation_residual: float
    passed: bool


def change_of_challenge_check(n: int, trials: int = 20, seed: int = 0) -> ChangeChallengeReport:
    """Conjugating the high projector by the two-sided action relabels the
    challenge by the range-side permutation, and M commutes with the action.

    The action U |pi> = |pi_r pi pi_d^-1> multiplies on the right by pi_d^-1,
    which every operator here commutes with, so pi_d drops out: U S U^-1
    has the column of S conjugated by pi_r^-1 (see _gather).  P_y and P_z,
    z = pi_r(y), are P_0 conjugated by the range transpositions tau_y = (0 y)
    and tau_z, each its own inverse.  So U P_y U^-1 is P_z exactly when the
    column c0 of D P_0 is fixed by conjugation by a = tau_y pi_r^-1 tau_z,
    which fixes 0: the conjugation residual is max|c0[conj_a] - c0|, and the
    commutation residual max|m[conj_{pi_r^-1}] - m| over the column m of D M.
    Every entry of a gathered matrix is an entry of its column, so these are
    the max residuals over the whole matrices.  Both are exact integers over
    D, and the check passes only when both are 0.
    """
    _check_n(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    dq, dm = _scaled_high_0(n), _scaled_m(n)
    conj_res = 0.0
    comm_res = 0.0
    for _ in range(trials):
        rng.permutation(n)  # pi_d, drawn to keep the seeded sequence
        pi_r = rng.permutation(n)
        y = int(rng.integers(n))
        r_inv = np.argsort(pi_r)
        a = _transposition(n, y)[r_inv][_transposition(n, pi_r[y])]
        conj_res = max(conj_res, float(np.abs(dq[_conjugation(n, a)] - dq).max()) / _scale(n))
        comm_res = max(comm_res, float(np.abs(dm[_conjugation(n, r_inv)] - dm).max()) / _scale(n))
    passed = conj_res == 0 and comm_res == 0
    return ChangeChallengeReport(n, trials, seed, conj_res, comm_res, passed)


@dataclass
class DecompReport:
    n: int
    a_dims: list[dict]
    high_ranks: list[dict]
    low_ranks: list[dict]
    chain_residual: float | None
    complement_residual: float | None
    passed: bool


def decomposition_report(n: int) -> DecompReport:
    """Exact dimension identities for A_k and the high/low projector ranks.

    A_k dimensions are checked for any n within the cap.  Up to n = 5, one
    pass per challenge y checks the high/low ranks against the exact
    projector traces N! c[0], c the operator's column; the containments
    A_{i-1} < A_i^y < A_i (chain_residual: A_i^y inside A_i under the
    certified P_{A_i}, and D P_y fixing the increments of _high_increments,
    which with the trace forces A_{i-1} into A_i^y); and D P_y + D L_y ==
    D I (complement_residual, read on the columns against D e_0).  The chain
    reads one image-set row per k-set holding y: D P_y, the conjugate of
    D P_0 by a left multiplication, commutes with right multiplication like
    P_{A_i}, so the residuals of those rows are the largest over their right
    translates, the whole spanning sets.  Both residuals are exact integer
    residuals over their scale and must be 0.
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
    chain_res: float | None = None
    comp_res: float | None = None
    if n <= 5:
        pred_high = predicted_high_rank(n)
        pred_low = predicted_low_rank(n)
        d, f = _scale(n), factorial(n)
        chain_res = comp_res = 0.0
        for y in range(n):
            dq, dl = _scaled_high(n, y), _scaled_low(n, y)
            outside, increments = _high_increments(n, y)
            sp = _gather(n, dq)
            chain_res = max(chain_res, outside, *(_moved(sp, d, w) for w in increments))
            rest = dq + dl
            rest[0] -= d  # the column of D P_y + D L_y - D I
            comp_res = max(comp_res, float(np.abs(rest).max()) / d)
            exact_high, exact_low = _high_rank(n, y), _low_rank(n, y)
            tr_high, rem_high = divmod(f * int(dq[0]), d)
            tr_low, rem_low = divmod(f * int(dl[0]), d)
            good_h = not rem_high and exact_high == pred_high == tr_high
            good_l = not rem_low and exact_low == pred_low == tr_low
            ok &= good_h and good_l
            high_rows.append(
                {"y": y, "rank": exact_high, "trace": tr_high, "predicted": pred_high, "ok": good_h}
            )
            low_rows.append(
                {"y": y, "rank": exact_low, "trace": tr_low, "predicted": pred_low, "ok": good_l}
            )
        ok &= chain_res == 0 and comp_res == 0
    return DecompReport(n, a_dims, high_rows, low_rows, chain_res, comp_res, ok)
