"""The regular representation of S_N as dense matrices, for small N.

Everything lives in the N!-dimensional group algebra with basis vectors
indexed by the lexicographic enumeration of S_N.  The module builds the
partial-assignment subspaces A_k and A_k^y, the per-challenge high/low
projectors, their sum M over all challenges, and the isotypic projectors of
the two-sided action, then verifies the predicted decompositions by brute
force and the spectrum of M against one exact central element.

Two arithmetic flavors coexist.  Ranks of spanning sets are decided with
exact integer arithmetic (unnormalized assignment vectors are 0/1 integer
vectors), by one path at every N: the rank of the integer Gram matrix modulo
one prime bounds the rank over Q from below, and an integer kernel witness,
checked exactly, bounds it from above.  Orthonormal bases, projectors and
eigensolves are double precision, with the exact ranks pinning every rank
decision the float side makes; a basis is built only once its float Gram
spectrum confirms the rank with a wide gap.  Each subspace's Gram matrix is
formed once and read by both.  Only the challenge-0 high projector is built
constructively and kept; the others are its relabelings by range
transpositions, gathered on each call.

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


# ---------------------------------------------------------------------------
# Group enumeration and composition.

Perm = tuple[int, ...]


@cache
def enumerate_group(n: int) -> tuple[Perm, ...]:
    """All permutations of range(n) in lexicographic one-line order."""
    _check_n(n)
    return tuple(permutations(range(n)))


@cache
def perm_index_map(n: int) -> dict[Perm, int]:
    return {p: i for i, p in enumerate(enumerate_group(n))}


@cache
def perms_matrix(n: int) -> np.ndarray:
    arr = np.array(enumerate_group(n), dtype=np.intp)
    arr.setflags(write=False)
    return arr


def perm_inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@cache
def composition_table(n: int) -> np.ndarray:
    """comp[a, b] = index of compose(perms[a], perms[b])."""
    perms = perms_matrix(n)
    f = len(perms)
    weights = n ** np.arange(n, dtype=np.int64)
    lut = np.full(n**n, -1, dtype=np.int64)
    lut[perms @ weights] = np.arange(f)
    comp = np.empty((f, f), dtype=np.int32)
    for a in range(f):
        comp[a] = lut[perms[a][perms] @ weights]
    comp.setflags(write=False)
    return comp


@cache
def inverse_indices(n: int) -> np.ndarray:
    idx = perm_index_map(n)
    arr = np.array([idx[perm_inverse(p)] for p in enumerate_group(n)], dtype=np.int64)
    arr.setflags(write=False)
    return arr


def act_index_map(n: int, pi_d: Perm, pi_r: Perm) -> np.ndarray:
    """Index map of the two-sided action |pi> -> |pi_r . pi . pi_d^{-1}>."""
    idx = perm_index_map(n)
    comp = composition_table(n)
    right = comp[:, idx[perm_inverse(tuple(pi_d))]]  # pi . pi_d^{-1}
    return comp[idx[tuple(pi_r)], right].astype(np.int64)


def act(pi_d: Perm, pi_r: Perm, v: np.ndarray) -> np.ndarray:
    """Apply the two-sided action to an amplitude vector over S_n."""
    n = len(pi_d)
    if len(pi_r) != n or v.shape != (factorial(n),):
        raise ValueError("dimension mismatch")
    out = np.empty_like(v)
    out[act_index_map(n, pi_d, pi_r)] = v
    return out


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


# ---------------------------------------------------------------------------
# Exact ranks: one prime field for the lower bound, an integer kernel witness
# for the upper bound.


def _gram_int(rows: np.ndarray) -> np.ndarray:
    """Exact integer Gram matrix of an integer row matrix, on the smaller side.

    The longer side is summed over float copies of _GRAM_ROWS of its lines
    at a time, so the rows never exist in float whole.  Each entry is a sum
    of L = max(m, d) products of magnitude at most c^2, c the largest entry,
    and so is every partial sum.  While L c^2 < 2^24 (5400 for 0/1 rows at
    N = 6) every partial sum is an integer float32 holds exactly; above
    that, float64 holds them exactly while the largest entry of G, which
    bounds every partial sum by Cauchy-Schwarz, is below 2^52.  Either way
    any chunking gives the same bits.
    """
    m, d = rows.shape
    lines = rows if m > d else rows.T
    c = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    dtype = np.float32 if max(m, d) * c * c < 2**24 else np.float64
    g = np.zeros((lines.shape[1],) * 2, dtype=dtype)
    for start in range(0, lines.shape[0], _GRAM_ROWS):
        chunk = lines[start : start + _GRAM_ROWS].astype(dtype)
        g += chunk.T @ chunk
    if g.size and np.abs(g).max() >= 2**52:
        raise OverflowError("Gram entries too large for exact float accumulation")
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


def _check_kernel_witness(gram: np.ndarray, k: np.ndarray) -> None:
    """Raise unless gram @ k == 0 exactly: every partial sum is an integer of
    magnitude at most d * max|G| * max|K|, exact in float64 below 2^53."""
    d = gram.shape[0]
    bound = d * float(np.abs(gram).max(initial=0)) * float(np.abs(k).max(initial=0))
    if not bound < 2**53:
        raise ArithmeticError(f"kernel witness product bound {bound:.3e} is not below 2^53")
    resid = float(np.abs(gram @ k).max(initial=0))
    if resid:
        r = d - k.shape[1]
        raise ArithmeticError(f"no integer kernel witness for rank {r}: max |G @ K| = {resid:.0f}")


def _check_spectral_gap(w: np.ndarray, r: int) -> None:
    """Raise unless the ascending float spectrum w confirms rank r with a
    wide gap: the r-th largest value must exceed 1e6 times both the next
    value and 1e-14 of the largest; rank 0 needs every value below 1e-6."""
    if r == 0:
        kept, dropped = 0.0, (w[-1] if w.size else 0.0)
        ok = dropped < 1e-6
    else:
        kept, dropped = w[-r], (w[-r - 1] if r < w.size else 0.0)
        ok = kept > 1e6 * max(dropped, w[-1] * 1e-14)
    if not ok:
        raise ArithmeticError(f"ambiguous spectral gap for rank {r}: {kept:.3e} vs {dropped:.3e}")


def exact_rank(gram: np.ndarray) -> int:
    """Rank over Q of an integer matrix, proven on its d x d integer Gram
    matrix G (from _gram_int) by one path at every N (a certificate after
    Kaltofen, Nehring and Saunders, ISSAC 2011).  The rank r mod _RANK_PRIME
    is a lower bound; the witness K of rank d - r with G @ K == 0 exactly is
    an upper bound.  G must be symmetric, as the elimination pivots on its
    diagonal.  An unlucky prime under-reports r or, dividing a nonzero
    Schur pivot, stops the elimination, and a dependent column with
    fractional coefficients has no integral K: all raise ArithmeticError.
    The float spectral gap confirmed by _orthonormal_basis on the same G
    guards against an elimination that over-reports r."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"exact_rank takes a square Gram matrix, got shape {gram.shape}")
    if not np.array_equal(gram, gram.T):
        raise ValueError("exact_rank takes a symmetric Gram matrix")
    r, pivots = _rank_mod_p(gram, _RANK_PRIME)
    _check_kernel_witness(gram, _kernel_witness(gram, pivots))
    return r


# ---------------------------------------------------------------------------
# Orthonormal bases and subspaces.


def _orthonormal_basis(
    rows: np.ndarray, expected_rank: int, gram: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal basis (columns) of the row space, with known exact rank.

    The rank decision is made elsewhere in exact arithmetic; here we only
    insist that the float Gram spectrum confirms it with a wide gap.  An
    integer row matrix may pass its exact Gram matrix from _gram_int: it
    holds the very values the float product of the rows would, and on the
    tall side the rows are then never converted to float.
    """
    m, d = rows.shape
    if expected_rank == 0:
        return np.zeros((d, 0))
    small_side = m <= d
    if gram is None:
        v = rows.astype(np.float64)
        gram = v @ v.T if small_side else v.T @ v
    w, u = np.linalg.eigh(np.asarray(gram, dtype=np.float64))
    _check_spectral_gap(w, expected_rank)
    uk = u[:, -expected_rank:]
    basis = (rows.astype(np.float64).T @ uk) / np.sqrt(w[-expected_rank:]) if small_side else uk
    q, _ = np.linalg.qr(basis)  # one polish pass to machine orthonormality
    return q


@dataclass(eq=False)
class Subspace:
    """A subspace of the group algebra with an exactly certified dimension."""

    dim: int
    basis: np.ndarray  # shape (n!, dim), orthonormal columns, read-only


def _make_subspace(n: int, alphas) -> Subspace:
    rows = _indicator_rows(n, alphas)
    gram = _gram_int(rows)
    r = exact_rank(gram)
    q = _orthonormal_basis(rows, r, gram)
    q.setflags(write=False)
    return Subspace(dim=r, basis=q)


@cache
def subspace_a(n: int, k: int) -> Subspace:
    """A_k: span of all k-partial-assignment vectors, exact rank attached."""
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")
    return _make_subspace(n, assignments(n, k))


@cache
def subspace_a_y(n: int, k: int, y: int) -> Subspace:
    """A_k^y: span of k-assignment vectors with y in the image; A_0^y = {0}."""
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")
    return _make_subspace(n, assignments_with_image(n, k, y))


@cache
def a_projector(n: int, k: int) -> np.ndarray:
    q = subspace_a(n, k).basis
    p = q @ q.T
    p.setflags(write=False)
    return p


def _assert_projector(p: np.ndarray, name: str) -> None:
    sym = np.abs(p - p.T).max()
    if sym > 1e-12:
        raise ArithmeticError(f"{name}: symmetry residual {sym:.3e} > 1e-12")
    idem = np.abs(p @ p - p).max()
    if idem > 1e-8:
        raise ArithmeticError(f"{name}: idempotence residual {idem:.3e} > 1e-8")


def _telescope(n: int, pairs, name: str) -> np.ndarray:
    """Orthogonal sum over (larger, smaller) subspace pairs, smaller inside
    larger, of larger with smaller projected out; the containment makes each
    increment's dimension an exact difference of certified ranks."""
    f = factorial(n)
    p = np.zeros((f, f))
    for big, small in pairs:
        expected = big.dim - small.dim
        if expected == 0:
            continue
        resid = big.basis - small.basis @ (small.basis.T @ big.basis)
        b = _orthonormal_basis(resid.T, expected_rank=expected)
        p += b @ b.T
    _assert_projector(p, name)
    p.setflags(write=False)
    return p


def _build_high_projection(n: int, y: int) -> np.ndarray:
    """Constructive high projector for challenge y: A_i^y over A_{i-1}."""
    pairs = ((subspace_a_y(n, i, y), subspace_a(n, i - 1)) for i in range(1, n))
    return _telescope(n, pairs, f"high_projection({n}, {y})")


@cache
def _high_projection_0(n: int) -> np.ndarray:
    """P_0, the one high projector that is built constructively and kept."""
    return _build_high_projection(n, 0)


def high_projection(n: int, y: int) -> np.ndarray:
    """Orthogonal projector onto the high subspace for challenge y.

    Only P_0 is built constructively, so each rank is certified once per k.
    The range transposition tau = (0 y) maps A_k^0 onto A_k^y and fixes A_k
    (the relabeling change_of_challenge_check verifies), so P_y is P_0 with
    rows and columns permuted by |pi> -> |tau . pi>, gathered anew on each
    call rather than kept.
    """
    _check_n(n)
    if not 0 <= y < n:
        raise ValueError(f"challenge {y} not in range({n})")
    if y == 0:
        return _high_projection_0(n)
    perm = _challenge_relabeling(n, y)
    p = _high_projection_0(n)[np.ix_(perm, perm)]
    p.setflags(write=False)
    return p


def _challenge_relabeling(n: int, y: int) -> np.ndarray:
    """Index map of |pi> -> |tau . pi> for the range transposition tau = (0 y)."""
    tau = list(range(n))
    tau[0], tau[y] = y, 0
    return composition_table(n)[perm_index_map(n)[tuple(tau)], :]


@cache
def low_projection(n: int, y: int) -> np.ndarray:
    """Orthogonal projector onto the low subspace for challenge y: A_i over
    A_i^y, built constructively for every y."""
    _check_n(n)
    if not 0 <= y < n:
        raise ValueError(f"challenge {y} not in range({n})")
    pairs = ((subspace_a(n, i), subspace_a_y(n, i, y)) for i in range(n))
    return _telescope(n, pairs, f"low_projection({n}, {y})")


@cache
def build_m(n: int) -> np.ndarray:
    """Sum of the high projectors over all challenges: symmetric PSD, not
    idempotent."""
    _check_n(n)
    m = sum(high_projection(n, y) for y in range(n))
    m.setflags(write=False)
    return m


# ---------------------------------------------------------------------------
# Isotypic projectors and the central element of M, from characters.


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


def _character_sum(n: int, terms, scale: float, name: str) -> np.ndarray:
    """scale * sum of c times the permutation matrix sending column j to row
    rows[j], over the (rows, c) terms."""
    f = factorial(n)
    cols = np.arange(f)
    p = np.zeros((f, f))
    for rows, c in terms:
        if c != 0:
            p[rows, cols] += c
    p *= scale
    _assert_projector(p, name)
    p.setflags(write=False)
    return p


def _central_element(n: int) -> np.ndarray:
    """C_f[i, j] = f(pi_i^-1 pi_j), convolution by the class function
    f = sum_lam e_lam d_lam chi_lam / N!, which is sum_lam e_lam Pi_lam.

    f's value on each conjugacy class is summed exactly as a Fraction and
    converted to float once; the matrix is one gather of those values.
    """
    elem_class, types = _class_data(n)
    lams = young.partitions(n)
    values = [
        float(
            sum(young.eigenvalue_m(lam, n) * young.dim(lam) * young.character(lam, ct) for lam in lams)
            / factorial(n)
        )
        for ct in types
    ]
    return np.array(values)[elem_class[composition_table(n)[inverse_indices(n)]]]


def isotypic_projector(n: int, lam: Partition) -> np.ndarray:
    """Projector onto the isotypic component of lam in the group algebra.

    Character sum over the left action |pi> -> |pi . g^{-1}>: the two-sided
    isotypic component coincides with the one-sided one, so this is the
    block projector with rank dim(lam)^2.  Built on each call, not kept.
    """
    _check_n(n)
    lam = young.check_partition(lam) if lam else ()
    if young.size(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    f = factorial(n)
    elem_class, types = _class_data(n)
    chars = [young.character(lam, ct) for ct in types]
    comp = composition_table(n)
    inv_idx = inverse_indices(n)
    terms = ((comp[:, inv_idx[gi]], chars[elem_class[gi]]) for gi in range(f))
    return _character_sum(n, terms, young.dim(lam) / f, f"isotypic_projector({n}, {lam})")


@cache
def stabilizer_indices(n: int, y: int) -> tuple[int, ...]:
    return tuple(i for i, p in enumerate(enumerate_group(n)) if p[y] == y)


def _drop_fixed_point(ct: Partition) -> Partition:
    """Cycle type on the complement of one fixed point: remove a 1-cycle."""
    parts = list(ct)
    parts.remove(1)
    return tuple(parts)


@cache
def range_restricted_projector(n: int, mu: Partition, y: int) -> np.ndarray:
    """Projector onto the mu-isotypic part of the right action of the
    stabilizer of y (mu a partition of n - 1, acting on the range side)."""
    _check_n(n)
    mu = young.check_partition(mu) if mu else ()
    if young.size(mu) != n - 1:
        raise ValueError(f"{mu} is not a partition of {n - 1}")
    perms = enumerate_group(n)
    comp = composition_table(n)
    terms = (
        (comp[gi, :], young.character(mu, _drop_fixed_point(young.cycle_type(perms[gi]))))
        for gi in stabilizer_indices(n, y)
    )
    scale = young.dim(mu) / factorial(n - 1)
    return _character_sum(n, terms, scale, f"range_restricted_projector({n}, {mu}, {y})")


def block_branch_projector(n: int, theta: Partition, rho: Partition, y: int) -> np.ndarray:
    """Projector onto the (bar(theta), bar(rho)_y) sub-isotypic block."""
    lam = young.bar(theta, n)
    mu = young.bar(rho, n - 1)
    return isotypic_projector(n, lam) @ range_restricted_projector(n, mu, y)


# ---------------------------------------------------------------------------
# Predicted dimensions from the combinatorics.


def predicted_a_dim(n: int, k: int) -> int:
    thetas = young.valid_thetas(n)
    return sum(young.dim(young.bar(t, n)) ** 2 for t in thetas if young.size(t) <= k)


def predicted_high_rank(n: int) -> int:
    total = 0
    for theta in young.valid_thetas(n):
        d_bar = young.dim(young.bar(theta, n))
        for rho in young.removable(theta):
            total += d_bar * young.dim(young.bar(rho, n - 1))
    return total


def predicted_low_rank(n: int) -> int:
    total = 0
    for theta in young.valid_thetas(n):
        star = young.bar_star(theta, n)
        if star is not None:
            total += young.dim(young.bar(theta, n)) * young.dim(star)
    return total


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
    e_lam and multiplicity, then check M entrywise against the central
    element C_f = sum_lam e_lam Pi_lam.

    Each e_lam claims the eigenvalues within 1e-6 of it; the block is ok
    when their count equals the summed d_mu^2 over every mu with e_mu =
    e_lam, so blocks sharing an eigenvalue read the same claim.  Distinct
    predictions lie at least 4/15 apart at N <= 6, so no eigenvalue is
    claimed twice.  Readout failures are reported, not raised.  The run
    passes only if every eigenvalue is claimed, every block is ok and
    max|M - C_f| <= 1e-8 / N!.  With X = M - C_f, every projector pair has
    max|Pi X Pi'| <= ||X||_2 <= N! max|X| <= 1e-8, which bounds M's block
    residuals (M - e_lam) Pi_lam = X Pi_lam and off-block residuals
    Pi_lam M Pi_mu = Pi_lam X Pi_mu, and by Weyl's inequality puts every
    eigenvalue of M within 1e-8 of a predicted e_lam.
    """
    m = build_m(n)
    eigs = np.sort(np.linalg.eigvalsh(m))
    lams = young.partitions(n)
    e = {lam: young.eigenvalue_m(lam, n) for lam in lams}
    claimed = np.zeros(eigs.size, dtype=bool)
    blocks: list[SpectrumBlock] = []
    for lam in lams:
        near = np.abs(eigs - float(e[lam])) <= 1e-6
        claimed |= near
        count = int(near.sum())
        mult = sum(young.dim(mu) ** 2 for mu in lams if e[mu] == e[lam])
        mean = float(eigs[near].mean()) if count else None
        blocks.append(SpectrumBlock(lam, e[lam], mean, young.dim(lam) ** 2, count, count == mult))

    central_res = float(np.abs(m - _central_element(n)).max())
    passed = bool(claimed.all()) and all(b.ok for b in blocks)
    passed = passed and central_res <= 1e-8 / factorial(n)
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
    the first row (equivalently over valid bar shapes of size <= k)."""
    thetas = (t for t in young.valid_thetas(n) if young.size(t) <= k)
    levels = (young.eigenvalue_m(young.bar(t, n), n) for t in thetas)
    return max(levels, default=Fraction(0))


def avg_bound_check(n: int, k: int, samples: int = 100, seed: int = 0) -> AvgBoundReport:
    """Check that challenge-averaged high-subspace mass on A_k is <= 2k/n.

    The exact maximum is the top eigenvalue of M restricted to A_k divided
    by n; it must match max_{level <= k} e / n and respect the 2k/n bound.
    Seeded random unit vectors in A_k sample the bound's slack.
    """
    _check_n(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sub = subspace_a(n, k)
    m = build_m(n)
    b = sub.basis.T @ m @ sub.basis
    exact_max = float(np.linalg.eigvalsh(b)[-1]) / n
    predicted = max_level_eigenvalue(n, k) / n
    bound = Fraction(2 * k, n)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        c = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
        c /= np.linalg.norm(c)
        val = float(np.real(np.conj(c) @ (b @ c))) / n
        worst = max(worst, val)
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


def _relabeling_residual(a: np.ndarray, idx: np.ndarray) -> float:
    """max |a[idx][:, idx] - a|, from one gathered copy of a."""
    d = a[np.ix_(idx, idx)]
    d -= a
    return float(np.abs(d, out=d).max())


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

    P_y and P_z, z = pi_r(y), are P_0 relabeled by the range transpositions
    (0 y) and (0 z), each its own inverse.  So P_y conjugated by the action
    is P_z exactly when P_0 is fixed by the composed relabeling, and the
    residual over the same entries is read from one gather of P_0.
    """
    _check_n(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = build_m(n)
    conj_res = 0.0
    comm_res = 0.0
    for _ in range(trials):
        pi_d = tuple(int(v) for v in rng.permutation(n))
        pi_r = tuple(int(v) for v in rng.permutation(n))
        y = int(rng.integers(n))
        inv = np.argsort(act_index_map(n, pi_d, pi_r))
        g = _challenge_relabeling(n, y)[inv][_challenge_relabeling(n, pi_r[y])]
        conj_res = max(conj_res, _relabeling_residual(_high_projection_0(n), g))
        comm_res = max(comm_res, _relabeling_residual(m, inv))
    passed = conj_res <= 1e-8 and comm_res <= 1e-8
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

    A_k dimensions are checked for any n within the cap.  Up to n = 5, where
    the exact-rank telescoping applies at reasonable cost, one pass per
    challenge y checks the high/low ranks against the projector traces, the
    containments A_{i-1} < A_i^y < A_i (chain_residual, the spectral norm of
    each part left outside) and P_y + L_y = I (complement_residual).
    """
    _check_n(n)
    a_dims = []
    ok = True
    for k in range(n):
        computed = subspace_a(n, k).dim
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
        eye = np.eye(factorial(n))
        chain_res = comp_res = 0.0
        for y in range(n):
            exact_high = exact_low = 0
            for i in range(n):
                a_i, a_iy = subspace_a(n, i), subspace_a_y(n, i, y)
                exact_low += a_i.dim - a_iy.dim
                if i == 0:
                    continue
                a_prev = subspace_a(n, i - 1)
                exact_high += a_iy.dim - a_prev.dim
                for small, big in ((a_prev, a_iy), (a_iy, a_i)):
                    r = small.basis - big.basis @ (big.basis.T @ small.basis)
                    if r.size:
                        chain_res = max(chain_res, float(np.linalg.norm(r, ord=2)))
            p_y, l_y = high_projection(n, y), low_projection(n, y)
            tr_high = int(round(float(np.trace(p_y))))
            tr_low = int(round(float(np.trace(l_y))))
            comp_res = max(comp_res, float(np.abs(p_y + l_y - eye).max()))
            good_h = exact_high == pred_high == tr_high
            good_l = exact_low == pred_low == tr_low
            ok &= good_h and good_l
            high_rows.append(
                {"y": y, "rank": exact_high, "trace": tr_high, "predicted": pred_high, "ok": good_h}
            )
            low_rows.append(
                {"y": y, "rank": exact_low, "trace": tr_low, "predicted": pred_low, "ok": good_l}
            )
        ok &= chain_res <= 1e-8 and comp_res <= 1e-8
    return DecompReport(n, a_dims, high_rows, low_rows, chain_res, comp_res, ok)


def branch_projector_residuals(n: int, y: int) -> tuple[float, float]:
    """(orthogonality residual, reconstruction residual) for the sub-isotypic
    blocks of the high projector at challenge y.

    Orthogonality: the bar(theta) isotypic projector absorbs its own branch
    blocks and annihilates those of any other theta.  Reconstruction: the
    branch blocks sum to the high projector.
    """
    thetas = [t for t in young.valid_thetas(n) if t]
    orth = 0.0
    total = np.zeros((factorial(n), factorial(n)))
    blocks: dict[Partition, list[np.ndarray]] = {}
    for theta in thetas:
        blocks[theta] = [
            block_branch_projector(n, theta, rho, y) for rho in young.removable(theta)
        ]
    for theta in thetas:
        p_iso = isotypic_projector(n, young.bar(theta, n))
        for block in blocks[theta]:
            orth = max(orth, float(np.abs(p_iso @ block - block).max()))
            total += block
        for other in thetas:
            if other == theta:
                continue
            for block in blocks[other]:
                orth = max(orth, float(np.abs(p_iso @ block).max()))
    recon = float(np.abs(total - high_projection(n, y)).max())
    return orth, recon
