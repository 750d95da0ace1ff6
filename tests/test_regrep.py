"""Regular-representation machinery against exact predictions.

Rank oracles: plain Fraction Gaussian elimination and per-column
prime-field eliminations, row-pivoted and symmetric (all test-local),
versus the library's blocked symmetric prime-field rank and its integer
kernel witness, plus numpy's SVD-based matrix_rank as a third opinion.
Each rank check is also shown able to fail: an unlucky prime, a prime that
divides a Schur pivot, a perturbed witness and an over-reported rank.
Projector references: the direct Stab(y) character sum against the
conjugated column of D P_0, a test-local SVD projector of the constructive
increments, the dense certificates (a)-(c) against the column ones, and the
dense two-sided action against the column residuals of the change of
challenge; each exact projector check is shown able to fail on its own.
The image-set rows the projectors are certified on are checked against the
whole spanning sets by their right translates, and every gathered column
against right multiplication.
Character cross-check: traces of the one-sided action restricted to an
isotypic block, from a test-local float isotypic projector.
"""

import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from perminv import regrep, young


def fraction_rank(mat) -> int:
    """Row reduction over Q with Fraction arithmetic; the reference rank."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_mod_p_reference(mat, p: int) -> tuple[int, list[int]]:
    """Per-column Gaussian elimination mod p: (rank, pivot columns), the
    reference for the blocked elimination in regrep._rank_mod_p."""
    a = (np.asarray(mat) % p).astype(np.int64)
    nrows, ncols = a.shape
    rank = 0
    pivots = []
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        below = a[rank + 1 :]
        if below.size:
            below -= below[:, c : c + 1] * a[rank]
            below %= p
        rank += 1
        pivots.append(c)
    return rank, pivots


def symmetric_rank_mod_p_reference(mat, p: int) -> tuple[int, list[int]]:
    """Per-column symmetric elimination mod p, pivoting on the diagonal:
    (rank, pivot columns), or ArithmeticError where a zero diagonal entry
    sits over a nonzero column.  The reference for when the blocked
    elimination in regrep._rank_mod_p must refuse."""
    a = (np.asarray(mat) % p).astype(np.int64)
    pivots = []
    for c in range(a.shape[0]):
        if a[c, c] == 0:
            if a[:, c].any():
                raise ArithmeticError(f"zero diagonal over a nonzero column {c}")
            continue
        row = a[c] * pow(int(a[c, c]), p - 2, p) % p
        a = (a - np.outer(a[:, c], row)) % p  # clears row and column c
        pivots.append(c)
    return len(pivots), pivots


def perm_compose(p, q):
    """p after q: compose(p, q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def act_index_map(n: int, pi_d, pi_r) -> np.ndarray:
    """Index map of the two-sided action |pi> -> |pi_r . pi . pi_d^{-1}>,
    from the composition table: the dense reference for the conjugations of
    columns in regrep."""
    comp = regrep.composition_table(n)
    right = comp[:, regrep.perm_index(np.argsort(pi_d))]  # pi . pi_d^{-1}
    return comp[regrep.perm_index(pi_r), right].astype(np.int64)


def act(pi_d, pi_r, v: np.ndarray) -> np.ndarray:
    """Apply the two-sided action |pi> -> |pi_r . pi . pi_d^{-1}> to an
    amplitude vector over S_n."""
    n = len(pi_d)
    if len(pi_r) != n or v.shape != (factorial(n),):
        raise ValueError("dimension mismatch")
    out = np.empty_like(v)
    out[act_index_map(n, pi_d, pi_r)] = v
    return out


def assignment_indicator(n: int, alpha) -> np.ndarray:
    """0/1 vector marking the permutations compatible with alpha (exact)."""
    alpha = tuple(alpha)
    xs = [x for x, _ in alpha]
    vs = [v for _, v in alpha]
    if len(set(xs)) != len(xs) or len(set(vs)) != len(vs):
        raise ValueError(f"assignment not injective: {alpha}")
    return regrep._indicator_rows(n, [alpha])[0]


def assignment_vector(n: int, alpha) -> np.ndarray:
    """Unit-norm uniform superposition over permutations compatible with alpha."""
    ind = assignment_indicator(n, alpha).astype(np.float64)
    return ind / np.sqrt(factorial(n - len(tuple(alpha))))


# ---------------------------------------------------------------------------
# Group enumeration and the two-sided action.


def test_enumerate_group_lex_order_n3():
    assert regrep.enumerate_group(3) == (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    )


def test_enumerate_group_sizes():
    assert regrep.enumerate_group(1) == ((0,),)
    assert len(regrep.enumerate_group(5)) == 120


def test_index_roundtrip():
    for i, p in enumerate(regrep.enumerate_group(4)):
        assert regrep.perm_index(p) == i


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_index_of_the_enumeration_is_arange(n):
    idx = regrep.perm_index(regrep.perms_matrix(n))
    assert np.array_equal(idx, np.arange(factorial(n)))


@pytest.mark.parametrize("n", range(1, 5))
def test_perm_index_matches_compose_and_argsort_inverse(n):
    perms = regrep.enumerate_group(n)
    comp = regrep.composition_table(n)
    for a, p in enumerate(perms):
        inv = perms[regrep.perm_index(np.argsort(p))]
        assert perm_compose(p, inv) == perm_compose(inv, p) == tuple(range(n))
        for b, q in enumerate(perms):
            pq = perm_compose(p, q)
            assert regrep.perm_index(pq) == comp[a, b] == perms.index(pq)


@pytest.mark.parametrize("bad", [(0, 0, 1), (3, 0, 1), (3, 1, 1)], ids=["repeat", "outside", "aliases-a-permutation"])
def test_perm_index_refuses_a_non_permutation(bad):
    # 3 + 1 * 3 + 1 * 9 = 15 is also the base-3 number of (0, 2, 1), so the
    # range check, not the table, must refuse (3, 1, 1).
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)"):
        regrep.perm_index(bad)
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)"):
        regrep.perm_index([(0, 1, 2), bad])


def test_cap_enforced():
    with pytest.raises(regrep.CapacityError):
        regrep.enumerate_group(8)
    with pytest.raises(regrep.CapacityError):
        regrep.subspace_a(7, 1)


def test_compose_and_inverse():
    p, q = (1, 2, 0), (0, 2, 1)
    assert perm_compose(p, q) == (1, 0, 2)
    perms = regrep.enumerate_group(4)
    for g in perms:
        assert perm_compose(g, perms[regrep.perm_index(np.argsort(g))]) == (0, 1, 2, 3)


def test_act_identity_and_right_action():
    n = 3
    f = factorial(n)
    ident = (0, 1, 2)
    v = np.arange(f, dtype=float)
    assert np.array_equal(act(ident, ident, v), v)
    sigma = (1, 2, 0)
    for pi in regrep.enumerate_group(n):
        e = np.zeros(f)
        e[regrep.perm_index(pi)] = 1.0
        out = act(ident, sigma, e)
        assert out[regrep.perm_index(perm_compose(sigma, pi))] == 1.0


def test_act_homomorphism_random():
    rng = np.random.default_rng(0)
    n = 4
    v = rng.standard_normal(factorial(n))
    for _ in range(10):
        g = tuple(int(x) for x in rng.permutation(n))
        h = tuple(int(x) for x in rng.permutation(n))
        g2 = tuple(int(x) for x in rng.permutation(n))
        h2 = tuple(int(x) for x in rng.permutation(n))
        lhs = act(g, h, act(g2, h2, v))
        rhs = act(perm_compose(g, g2), perm_compose(h, h2), v)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.isclose(np.linalg.norm(act(g, h, v)), np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Assignment vectors.


def test_assignment_vector_empty_is_uniform():
    v = assignment_vector(3, ())
    assert np.allclose(v, np.full(6, 1 / np.sqrt(6)))


def test_assignment_vector_full_is_basis_vector():
    alpha = ((0, 2), (1, 0), (2, 1))
    v = assignment_vector(3, alpha)
    assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.count_nonzero(v) == 1
    assert v[regrep.perm_index((2, 0, 1))] == 1.0


def test_assignment_vector_single_pair():
    v = assignment_vector(3, ((0, 1),))
    support = np.nonzero(v)[0]
    assert len(support) == 2
    assert np.allclose(v[support], 1 / np.sqrt(2))


def test_assignment_indicator_counts():
    for n in range(2, 6):
        for k in range(n + 1):
            alpha = tuple((i, i) for i in range(k))
            ind = assignment_indicator(n, alpha)
            assert int(ind.sum()) == factorial(n - k)


def test_indicator_rows_match_per_permutation_loop():
    # The vectorised mask against the definition, one permutation at a time.
    for n in range(1, 6):
        perms = regrep.enumerate_group(n)
        for k in range(n + 1):
            alphas = regrep.assignments(n, k)
            expect = [[all(p[x] == v for x, v in a) for p in perms] for a in alphas]
            rows = regrep._indicator_rows(n, alphas)
            assert rows.dtype == np.int8
            assert np.array_equal(rows, np.array(expect, dtype=np.int8))


def test_assignment_rejects_non_injective():
    with pytest.raises(ValueError):
        assignment_indicator(4, ((0, 1), (1, 1)))


def test_assignment_counts():
    assert len(regrep.assignments(4, 1)) == 16
    assert len(regrep.assignments(4, 2)) == 72
    assert len(regrep.assignments_with_image(4, 1, 0)) == 4


def test_chain_refinement_integer_identity():
    # Each (k-1)-assignment vector is an exact rational combination of the
    # k-assignment vectors extending it; on indicators, summing over all
    # one-pair extensions overcounts each compatible permutation by the
    # number of free inputs.  This is the nesting A_{k-1} <= A_k^y when the
    # extensions are restricted to output y, checked in exact arithmetic.
    n = 5
    rng = np.random.default_rng(7)
    for k in range(1, n):
        alphas = regrep.assignments(n, k - 1)
        for _ in range(5):
            alpha = alphas[rng.integers(len(alphas))]
            dom = {x for x, _ in alpha}
            img = {v for _, v in alpha}
            base = assignment_indicator(n, alpha).astype(int)
            for y in range(n):
                if y in img:
                    continue
                ext = sum(
                    assignment_indicator(n, alpha + ((x, y),)).astype(int)
                    for x in range(n)
                    if x not in dom
                )
                assert np.array_equal(ext, base)


# ---------------------------------------------------------------------------
# Exact rank machinery.


def test_modp_rank_and_witness_match_fraction_elimination():
    rng = np.random.default_rng(1)
    for trial in range(20):
        m = rng.integers(0, 2, size=(8, 6))
        if trial % 3 == 0:  # force rank deficiency
            m[3] = m[0] ^ m[1] if trial % 2 else m[0]
        ref = fraction_rank(m)
        assert regrep._rank_mod_p(regrep._gram_int(m), regrep._RANK_PRIME)[0] == ref
        assert regrep.exact_rank(regrep._gram_int(m)) == ref


def test_unlucky_prime_has_no_witness():
    # Rank 2 over Q but 1 mod the prime: the lower bound under-reports, so
    # no kernel witness of width d - 1 exists and the check fails loudly.
    rows = np.array([[regrep._RANK_PRIME, 0], [0, 1]])
    assert fraction_rank(rows) == 2
    assert regrep._rank_mod_p(regrep._gram_int(rows), regrep._RANK_PRIME)[0] == 1
    with pytest.raises(ArithmeticError, match="no integer kernel witness for rank 1"):
        regrep.exact_rank(regrep._gram_int(rows))


def test_fractional_dependency_is_refused_not_guessed():
    # Row 0 is twice row 1, so the second Gram column is half the first: the
    # rank is 1, but no integer witness with an identity block exists.
    rows = np.array([[2, 4], [1, 2]])
    assert fraction_rank(rows) == 1
    with pytest.raises(ArithmeticError, match="no integer kernel witness for rank 1"):
        regrep.exact_rank(regrep._gram_int(rows))


def test_perturbed_witness_fails_the_exact_check():
    rows = regrep._indicator_rows(4, regrep.assignments_with_image(4, 2, 0))
    gram = regrep._gram_int(rows)
    r, pivots = regrep._rank_mod_p(gram, regrep._RANK_PRIME)
    k = regrep._kernel_witness(gram, pivots)
    assert k.shape == (24, 24 - r) and r == fraction_rank(rows)
    regrep._check_kernel_witness(gram, k)
    # Every single-entry change breaks G @ K == 0: no Gram column is zero.
    for i, j in np.ndindex(k.shape):
        bad = k.copy()
        bad[i, j] += 1
        with pytest.raises(ArithmeticError, match=f"no integer kernel witness for rank {r}"):
            regrep._check_kernel_witness(gram, bad)
    with pytest.raises(ArithmeticError, match="not below 2"):
        regrep._check_kernel_witness(gram, k * 2.0**50)


def _certified_grams():
    """Every Gram matrix the operator build certifies for n <= 6: A_k for all
    k and A_k^0 for k >= 1."""
    for n in range(2, 7):
        for k in range(n):
            yield f"A_{k}(n={n})", regrep._gram_int(regrep._indicator_rows(n, regrep.assignments(n, k)))
            if k:
                rows = regrep._indicator_rows(n, regrep.assignments_with_image(n, k, 0))
                yield f"A_{k}^0(n={n})", regrep._gram_int(rows)


def kernel_witness_reference(gram, pivots) -> np.ndarray:
    """The witness with its identity block cut from a dense identity."""
    free = np.setdiff1d(np.arange(gram.shape[0]), pivots)
    k = np.eye(gram.shape[0])[:, free]
    if free.size:
        k[pivots] = -np.rint(np.linalg.solve(gram[np.ix_(pivots, pivots)], gram[np.ix_(pivots, free)]))
    return k


def test_blocked_modp_matches_reference_on_certified_grams():
    # Rank and pivot columns, and the kernel witness built from them.
    p = regrep._RANK_PRIME
    seen = 0
    for name, gram in _certified_grams():
        r, pivots = regrep._rank_mod_p(gram, p)
        assert (r, pivots) == rank_mod_p_reference(gram, p), name
        assert np.array_equal(regrep._kernel_witness(gram, pivots), kernel_witness_reference(gram, pivots)), name
        seen += 1
    assert seen == sum(2 * n - 1 for n in range(2, 7))


def _assert_matches_references(mat, p) -> bool:
    """The blocked elimination refuses exactly where the per-column symmetric
    one does, and otherwise agrees with row-pivoted elimination; returns
    whether it refused."""
    try:
        expect = symmetric_rank_mod_p_reference(mat, p)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="zero diagonal pivot over a nonzero column"):
            regrep._rank_mod_p(mat, p)
        return True
    assert regrep._rank_mod_p(mat, p) == expect == rank_mod_p_reference(mat, p)
    return False


def test_blocked_modp_matches_reference_on_random_matrices(monkeypatch):
    # Seeded Gram matrices A^T A.  A block much smaller than the matrices
    # gives several panels per matrix; zeroed leading columns give a panel
    # with no pivot, and low rank or a repeated column gives panels with
    # fewer pivots than columns.
    monkeypatch.setattr(regrep, "_RANK_BLOCK", 4)
    rng = np.random.default_rng(3)
    refused = {regrep._RANK_PRIME: 0, 7: 0}
    for trial in range(60):
        n = int(rng.integers(5, 30))
        r = int(rng.integers(0, n + 1))
        a = rng.integers(-9, 10, size=(r, n))
        if trial % 3 == 0:
            a[:, :4] = 0
        if trial % 3 == 1:
            a[:, 1] = a[:, 0]
        # The small prime divides a nonzero Schur pivot far more often.
        for p in refused:
            refused[p] += _assert_matches_references(a.T @ a, p)
    assert refused[regrep._RANK_PRIME] == 0 and 0 < refused[7] < 60, refused


@pytest.mark.parametrize("block", [4, 32])
def test_balanced_residues_match_reference_at_their_edges(block, monkeypatch):
    # Symmetric matrices with entries at 0, +-(p - 1)/2, +-(p + 1)/2 and
    # p - 1, where a balanced residue sits at its edge or just past it.  In
    # every other one, rows and columns repeat four distinct ones, so every
    # panel has fewer pivots than columns; at p = 7 most of the others are
    # refused, as a random Schur diagonal vanishes with chance 1/7.
    monkeypatch.setattr(regrep, "_RANK_BLOCK", block)
    rng = np.random.default_rng(14)
    for p in (regrep._RANK_PRIME, 7):
        edges = np.array([0, (p - 1) // 2, -(p - 1) // 2, (p + 1) // 2, -(p + 1) // 2, p - 1])
        outcomes = []
        for trial in range(12):
            n = int(rng.integers(block + 1, 3 * block))
            mat = np.triu(rng.choice(edges, size=(n, n)))
            mat += np.triu(mat, 1).T
            if trial % 2:
                idx = rng.integers(0, 4, size=n)
                mat = mat[np.ix_(idx, idx)]
            outcomes.append(_assert_matches_references(mat, p))
        assert set(outcomes) == {False, True}, (p, outcomes)


def test_exact_rank_needs_a_symmetric_gram():
    with pytest.raises(ValueError, match="symmetric Gram matrix"):
        regrep.exact_rank(np.array([[1, 0], [1, 1]], dtype=np.int64))


def test_prime_dividing_a_schur_pivot_is_refused():
    # [[p, 1], [1, 1]] is positive definite of rank 2, and row pivoting finds
    # rank 2 mod p; its diagonal entry p vanishes mod p over a nonzero column.
    p = regrep._RANK_PRIME
    gram = np.array([[p, 1], [1, 1]], dtype=np.int64)
    assert fraction_rank(gram) == rank_mod_p_reference(gram, p)[0] == 2
    with pytest.raises(ArithmeticError, match="zero diagonal pivot over a nonzero column"):
        regrep.exact_rank(gram)


def test_diagonal_gram_skips_every_trailing_update(monkeypatch):
    # A_{n-1} at n = 4 has Gram 4I: each panel's multipliers are zero, so no
    # trailing update runs and no reduced array is wider than the augmented
    # pivot block.  A_2 at n = 4 is the control that does update.
    monkeypatch.setattr(regrep, "_RANK_BLOCK", 4)
    widths: list[int] = []
    reduce_mod_p = regrep._reduce_mod_p

    def spy(x, p):
        widths.append(x.shape[-1])
        return reduce_mod_p(x, p)

    monkeypatch.setattr(regrep, "_reduce_mod_p", spy)
    p = regrep._RANK_PRIME
    diag = regrep._gram_int(regrep._indicator_rows(4, regrep.assignments(4, 3)))
    assert np.array_equal(diag, 4 * np.eye(24, dtype=np.int64))
    assert regrep._rank_mod_p(diag, p) == rank_mod_p_reference(diag, p) == (24, list(range(24)))
    assert max(widths) <= 2 * regrep._RANK_BLOCK
    widths.clear()
    dense = regrep._gram_int(regrep._indicator_rows(4, regrep.assignments(4, 2)))
    assert regrep._rank_mod_p(dense, p) == rank_mod_p_reference(dense, p)
    assert max(widths) > 2 * regrep._RANK_BLOCK


def test_full_rank_witness_is_empty():
    gram = 5 * np.eye(7, dtype=np.int64)
    k = regrep._kernel_witness(gram, list(range(7)))
    assert k.shape == (7, 0)
    regrep._check_kernel_witness(gram, k)


def _subspace_rows(n: int):
    """(k, y, indicator rows) of A_k (y None) and of A_k^y for k >= 1."""
    for k in range(n):
        yield k, None, regrep._indicator_rows(n, regrep.assignments(n, k))
        for y in range(n) if k else ():
            yield k, y, regrep._indicator_rows(n, regrep.assignments_with_image(n, k, y))


def _perm_gram(n: int, k: int, y) -> np.ndarray:
    """V^T V from the permutations alone: pi and sigma share C(agree, k)
    k-assignments, and C(agree - 1, k - 1) with y in the image when
    pi^-1(y) == sigma^-1(y), else none."""
    perms = regrep.perms_matrix(n)
    agree = (perms[:, None, :] == perms[None, :, :]).sum(axis=2)
    if y is None:
        return np.array([comb(a, k) for a in range(n + 1)])[agree]
    pre = np.argmax(perms == y, axis=1)
    same = pre[:, None] == pre[None, :]
    return np.where(same, np.array([comb(max(a - 1, 0), k - 1) for a in range(n + 1)])[agree], 0)


def _assignment_gram(n: int, alphas) -> np.ndarray:
    """V V^T from the assignments alone: alpha and beta share (n - |alpha u
    beta|)! permutations when their union is injective, else none."""
    out = np.zeros((len(alphas), len(alphas)), dtype=np.int64)
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            union = dict(a)
            ok = all(union.setdefault(x, v) == v for x, v in b)
            if ok and len(set(union.values())) == len(union):
                out[i, j] = factorial(n - len(union))
    return out


def test_chunked_gram_matches_closed_forms(monkeypatch):
    # Chunks of 7 rows: many chunks per tall matrix, most ending short.
    monkeypatch.setattr(regrep, "_GRAM_ROWS", 7)
    tall = short = 0
    for n in range(1, 6):
        for k, y, rows in _subspace_rows(n):
            gram = regrep._gram_int(rows)
            if rows.shape[0] > rows.shape[1]:
                tall += 1
                assert np.array_equal(gram, _perm_gram(n, k, y)), (n, k, y)
            else:
                short += 1
                alphas = regrep.assignments(n, k) if y is None else regrep.assignments_with_image(n, k, y)
                assert np.array_equal(gram, _assignment_gram(n, alphas)), (n, k, y)
    assert (tall, short) == (29, 26)  # tall: 1, 5, 10 and 13 at n = 2..5


def test_float32_gram_is_exact_on_the_tall_n6_sets():
    # The six tall N = 6 spanning sets, A_3..A_5 and A_3^0..A_5^0: 0/1 rows
    # whose Gram diagonal is at most C(6, 3) = 20, so every sum runs in float32.
    n = 6
    for k in (3, 4, 5):
        for y in (None, 0):
            alphas = regrep.assignments(n, k) if y is None else regrep.assignments_with_image(n, k, y)
            rows = regrep._indicator_rows(n, alphas)
            assert rows.shape[0] > rows.shape[1]
            assert np.array_equal(regrep._gram_int(rows), _perm_gram(n, k, y)), (k, y)


@pytest.mark.parametrize("chunk", [1, 512])
def test_gram_past_the_float32_range_is_exact_or_refused(chunk, monkeypatch):
    # 4096^2 + 1 = 2^24 + 1 has no float32; its Gram must not round to 2^24.
    monkeypatch.setattr(regrep, "_GRAM_ROWS", chunk)
    tall = np.array([[4096], [1]])
    assert regrep._gram_int(tall).tolist() == [[2**24 + 1]]
    assert regrep._gram_int(tall.T).tolist() == [[2**24 + 1]]
    wide = np.array([[4096, 1, 0], [4095, 0, 3]])
    assert regrep._gram_int(wide).tolist() == [[2**24 + 1, 4096**2 - 4096], [4096**2 - 4096, 4095**2 + 9]]
    with pytest.raises(OverflowError, match="too large for exact float"):
        regrep._gram_int(np.array([[2**26]]))


def test_exact_matmul_just_below_2_24_runs_in_float32_and_is_exact(monkeypatch):
    # d max|a| max|b| = 256 * 255^2 = 2^24 - 2^17 + 2^8: float32, and
    # the all-255 row and column reach that bound in one entry.
    chosen = []
    exact_float = regrep._exact_float

    def recording(bound):
        chosen.append(exact_float(bound))
        return chosen[-1]

    monkeypatch.setattr(regrep, "_exact_float", recording)
    rng = np.random.default_rng(0)
    a = rng.integers(-255, 256, size=(300, 256)).astype(np.int16)
    b = rng.integers(-255, 256, size=(256, 200)).astype(np.int16)
    a[0], b[:, 0] = 255, 255
    prod = regrep._exact_matmul(a, b)
    assert chosen == [np.float32]
    assert prod.dtype == np.int64 and prod[0, 0] == 256 * 255**2
    assert np.array_equal(prod, a.astype(np.int64) @ b.astype(np.int64))


def test_exact_matmul_past_the_float32_range_is_exact(monkeypatch):
    # 4096^2 + 1 = 2^24 + 1 has no float32; the product must not round to 2^24.
    a = np.array([[4096, 1], [4095, 3]])
    b = np.array([[4096, 0], [1, 3]])
    expected = [[2**24 + 1, 3], [4095 * 4096 + 3, 9]]
    assert regrep._exact_matmul(a, b).tolist() == expected
    # A float32 product, whatever the bound, rounds 2^24 + 1 and is caught.
    monkeypatch.setattr(regrep, "_exact_float", lambda bound: np.float32)
    assert regrep._exact_matmul(a, b).tolist() != expected


@pytest.mark.parametrize("n", [4, 5])
def test_dim_from_shared_gram_is_the_row_rank(n):
    # The certified dimension, read off the Gram matrix on the smaller side,
    # is the rank of the rows, with both sides in use.
    tall = short = 0
    for k, y, rows in _subspace_rows(n):
        dim = regrep.subspace_a(n, k) if y is None else regrep.subspace_a_y(n, k, y)
        assert dim == np.linalg.matrix_rank(rows.astype(float)), (k, y)
        tall += rows.shape[0] > rows.shape[1]
        short += rows.shape[0] <= rows.shape[1]
    assert tall and short


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_right_translates_of_image_set_rows_are_the_spanning_set(n):
    # Row r moved by b, r[index of pi b] for each pi, for every b: as a set
    # of rows, the indicator rows of every k-assignment of A_k or A_k^y.
    comp = regrep.composition_table(n)
    for k, y, rows in _subspace_rows(n):
        base = regrep._image_set_rows(n, k, y)
        assert len(base) == (comb(n, k) if y is None else comb(n - 1, k - 1)), (k, y)
        translates = {row[comp[:, b]].tobytes() for row in base for b in range(factorial(n))}
        assert translates == {row.tobytes() for row in rows}, (k, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gather_commutes_with_right_multiplication(n):
    # S = _gather(n, c) of a column with no symmetry: S[r_b][:, r_b] == S
    # for every b, r_b[i] the index of pi_i b, so S R_b = R_b S.
    comp = regrep.composition_table(n)
    col = np.random.default_rng(n).integers(-9, 10, size=factorial(n))
    sp = regrep._gather(n, col)
    for b in range(factorial(n)):
        r_b = comp[:, b]
        assert np.array_equal(sp[r_b][:, r_b], sp), b


def test_exact_rank_needs_a_square_gram():
    with pytest.raises(ValueError, match="square Gram matrix"):
        regrep.exact_rank(np.ones((3, 2), dtype=np.int64))


def test_rank_claimed_one_too_high_fails_the_trace_check(fresh_caches, monkeypatch):
    # A rank claimed one too high must still be caught: certificate (c)
    # compares the trace of N! P_{A_1} with N! times the claimed rank 27.
    true_rank = regrep.exact_rank

    def over(gram):
        return true_rank(gram) + 1

    monkeypatch.setattr(regrep, "exact_rank", over)
    with pytest.raises(ArithmeticError, match=r"a_projector\(6, 1\): \(c\) trace 18720 is not 720 \* rank 27"):
        regrep.a_projector(6, 1)


def test_exact_rank_matches_numpy_on_spanning_sets():
    for n in (3, 4):
        for k in range(n):
            rows = regrep._indicator_rows(n, regrep.assignments(n, k))
            assert regrep.exact_rank(regrep._gram_int(rows)) == np.linalg.matrix_rank(rows.astype(float))


# ---------------------------------------------------------------------------
# Subspaces and projectors.


def test_subspace_dims_n4():
    assert regrep.subspace_a(4, 0) == 1
    assert regrep.subspace_a(4, 1) == 10  # 1 + (4-1)^2
    assert regrep.subspace_a(4, 2) == 23  # 1 + 9 + 4 + 9


def test_subspace_dims_match_prediction():
    for n in range(2, 6):
        for k in range(n):
            assert regrep.subspace_a(n, k) == regrep.predicted_a_dim(n, k)


def test_subspace_a_y_zero():
    assert regrep.subspace_a_y(4, 0, 2) == 0
    assert regrep._image_set_rows(4, 0, 2).shape == (0, 24)


@pytest.mark.parametrize("k", [0, 1])
def test_subspace_a_y_checks_the_challenge(k):
    with pytest.raises(ValueError, match="challenge 99 not in range"):
        regrep.subspace_a_y(4, k, 99)


def test_high_projection_rank_and_contract():
    for y in range(4):
        p = regrep.high_projection(4, y)
        assert abs(np.trace(p) - 14) < 1e-8
        assert np.abs(p - p.T).max() <= 1e-12
        assert np.abs(p @ p - p).max() <= 1e-8


@pytest.mark.parametrize("n, ys", [(3, range(3)), (4, range(4)), (5, range(5)), (6, range(6))])
def test_derived_high_projection_matches_constructive_build(n, ys):
    # The column of D P_y for y != 0 is the column of D P_0 conjugated by
    # (0 y); the direct build from the Stab(y) character sums must give the
    # very same integers, which keeps the conjugation check of
    # change_of_challenge_check from being a tautology.
    branches = regrep._high_branches(n)
    for y in ys:
        assert np.array_equal(regrep._branch_sum(n, y, branches), regrep._scaled_high(n, y)), y


def _row_space_projector(vectors) -> np.ndarray:
    """Float projector onto the span of the rows, by SVD."""
    u, s, _ = np.linalg.svd(np.asarray(vectors, dtype=float).T, full_matrices=False)
    q = u[:, s > 1e-9 * s.max(initial=0)]
    return q @ q.T


@pytest.mark.parametrize("n", [3, 4, 5])
def test_high_projection_matches_an_svd_of_the_constructive_increments(n):
    # The float reference, test-side only: the increments A_i^0 with A_{i-1}
    # projected out, each made orthonormal by SVD, and their projectors summed.
    f = factorial(n)
    total = np.zeros((f, f))
    for i in range(1, n):
        prev = _row_space_projector(regrep._indicator_rows(n, regrep.assignments(n, i - 1)))
        rows = regrep._indicator_rows(n, regrep.assignments_with_image(n, i, 0))
        total += _row_space_projector(rows @ (np.eye(f) - prev))
    assert np.abs(regrep.high_projection(n, 0) - total).max() <= 1e-12


def test_high_projection_kills_uniform_vector():
    v = assignment_vector(4, ())
    for y in range(4):
        assert np.linalg.norm(regrep.high_projection(4, y) @ v) <= 1e-12


def test_low_projection_rank_and_complement():
    for y in range(4):
        low = regrep.low_projection(4, y)
        assert abs(np.trace(low) - 10) < 1e-8
        total = regrep.high_projection(4, y) + low
        assert np.abs(total - np.eye(24)).max() <= 1e-10


def test_projector_ranks_match_branch_prediction():
    for n in (3, 4, 5):
        ph = regrep.predicted_high_rank(n)
        pl = regrep.predicted_low_rank(n)
        assert ph + pl == factorial(n)
        for y in range(n):
            assert round(float(np.trace(regrep.high_projection(n, y)))) == ph
            assert round(float(np.trace(regrep.low_projection(n, y)))) == pl


def test_build_m_n3_eigenvalues():
    m = regrep.build_m(3)
    w = np.sort(np.linalg.eigvalsh(m))
    assert np.allclose(w, [0.0, 1.5, 1.5, 1.5, 1.5, 3.0], atol=1e-10)


def test_build_m_n4_trace_and_psd():
    m = regrep.build_m(4)
    assert abs(np.trace(m) - 56) < 1e-8
    assert np.linalg.eigvalsh(m)[0] >= -1e-9


def isotypic_projector(n: int, lam) -> np.ndarray:
    """Float projector onto the isotypic component of lam: d_lam / N! times
    the character sum over the right action |pi> -> |pi g^-1>.  The
    two-sided isotypic component coincides with the one-sided one, so it has
    rank d_lam^2.  The float reference for the central element."""
    f = factorial(n)
    elem_class, types = regrep._class_data(n)
    chars = np.array([young.character(lam, ct) for ct in types], dtype=float)
    comp = regrep.composition_table(n)
    inv = regrep.perm_index(np.argsort(regrep.perms_matrix(n), axis=1))
    p = np.zeros((f, f))
    cols = np.arange(f)
    for g in range(f):
        p[comp[:, inv[g]], cols] += chars[elem_class[g]]
    return p * (young.dim(lam) / f)


def test_isotypic_projector_trivial_block():
    p = isotypic_projector(4, (4,))
    v = assignment_vector(4, ())
    assert abs(np.trace(p) - 1) < 1e-8
    assert np.allclose(p @ v, v, atol=1e-10)


def test_isotypic_ranks_n3():
    ranks = [round(float(np.trace(isotypic_projector(3, lam)))) for lam in young.partitions(3)]
    assert ranks == [1, 4, 1]


def test_isotypic_orthogonality_and_resolution():
    n = 4
    lams = young.partitions(n)
    projs = [isotypic_projector(n, lam) for lam in lams]
    total = sum(projs)
    assert np.abs(total - np.eye(24)).max() <= 1e-10
    for i, p in enumerate(projs):
        assert round(float(np.trace(p))) == young.dim(lams[i]) ** 2
        for q in projs[i + 1 :]:
            assert np.abs(p @ q).max() <= 1e-8


def test_character_from_isotypic_block_trace():
    # Trace of the range-side action restricted to an isotypic block equals
    # the block dimension times the character.
    n = 4
    comp = regrep.composition_table(n)
    f = factorial(n)
    cols = np.arange(f)
    for lam in young.partitions(n):
        p = isotypic_projector(n, lam)
        d = young.dim(lam)
        for g in [(1, 0, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0), (0, 1, 2, 3)]:
            rg = np.zeros((f, f))
            rg[comp[regrep.perm_index(g), :], cols] = 1.0
            got = np.trace(p @ rg) / d
            assert abs(got - young.character(lam, young.cycle_type(g))) < 1e-8


def test_restriction_of_a_k_touches_only_low_levels():
    n = 4
    for k in range(n):
        pa = regrep.a_projector(n, k)
        for lam in young.partitions(n):
            mass = float(np.trace(isotypic_projector(n, lam) @ pa))
            if young.level(lam) <= k:
                assert abs(mass - young.dim(lam) ** 2) < 1e-6
            else:
                assert abs(mass) < 1e-8


def _moved_pair(n: int, col: np.ndarray) -> np.ndarray:
    """col with its entry at the transposition (0 1), which is its own
    inverse, moved by 1: the least change of a column that keeps its gather
    an integer symmetric matrix of the same trace, moved on the pairs of
    off-diagonal entries [i, j] with pi_i pi_j^-1 = (0 1).  No permutation
    fixes (0 1) under conjugation unless it maps {0, 1} onto itself, so a
    residual of the change of challenge can see it."""
    b = col.copy()
    b[regrep.perm_index([1, 0, *range(2, n)])] += 1
    b.setflags(write=False)
    return b


def test_each_certificate_check_can_fail():
    # 6 P_{A_1} at n = 3 has rank 1 + 2^2 = 5 and holds A_1, not A_2 (all of C^6).
    p = regrep._scaled_a(3, 1)
    regrep._certify("P", 3, p, 6, 5, [regrep._image_set_rows(3, 1).T])
    inv = regrep._inverses(3)
    skew = p.copy()
    skew[np.flatnonzero(inv != np.arange(6))[0]] += 1
    with pytest.raises(ArithmeticError, match=r"P: \(a\) not symmetric"):
        regrep._certify("P", 3, skew, 6, 5)
    with pytest.raises(ArithmeticError, match=r"P: \(b\) its square is not 6 times itself"):
        regrep._certify("P", 3, 2 * p, 6, 5)
    with pytest.raises(ArithmeticError, match=r"P: \(c\) trace 30 is not 6 \* rank 4"):
        regrep._certify("P", 3, p, 6, 4)
    with pytest.raises(ArithmeticError, match=r"P: \(d\) moves a vector its range must hold"):
        regrep._certify("P", 3, p, 6, 5, [regrep._image_set_rows(3, 2).T])
    with pytest.raises(ArithmeticError, match="integer product bound .* is not below 2"):
        regrep._certify("P", 3, p, 6, 5, [np.full((6, 1), 2**50)])


def dense_verdict(n: int, col: np.ndarray, scale: int, rank: int) -> str | None:
    """The first of the dense certificates that S = _gather(n, col) fails,
    or None: (a) S == S.T, (b) S^2 == scale S by the exact Gram sum
    _gram_int(S), which is S^2 once S is symmetric, (c) tr S == scale rank.
    The reference for the column certificates of regrep._certify."""
    sp = regrep._gather(n, col)
    if not np.array_equal(sp, sp.T):
        return "a"
    if not np.array_equal(regrep._gram_int(sp), scale * sp):
        return "b"
    if np.trace(sp) != scale * rank:
        return "c"
    return None


def column_verdict(n: int, col: np.ndarray, scale: int, rank: int) -> str | None:
    """The certificate regrep._certify refuses col by, or None."""
    try:
        regrep._certify("S", n, col, scale, rank)
    except ArithmeticError as exc:
        return re.match(r"S: \((\w)\)", str(exc)).group(1)
    return None


def _certified_columns(n: int):
    """(name, column, scale, rank) of every certified operator at n; at
    n = 6, of challenge 0 only, the ones the CLI builds there (D L_y for
    y != 0 would certify five more sets of A_i^y ranks)."""
    f, d = factorial(n), regrep._scale(n)
    for k in range(n):
        yield f"N! P_A{k}", regrep._scaled_a(n, k), f, regrep.predicted_a_dim(n, k)
    for y in range(n if n <= 5 else 1):
        yield f"D P_{y}", regrep._scaled_high(n, y), d, regrep.predicted_high_rank(n)
        yield f"D L_{y}", regrep._scaled_low(n, y), d, regrep.predicted_low_rank(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_column_certificates_match_the_dense_ones(n):
    # Every certified column passes both; up to n = 5, a column mutant for
    # each of (a), (b) and (c) fails both at the same check.
    inv = regrep._inverses(n)
    k = int(np.flatnonzero(inv != np.arange(inv.size))[0])
    for name, col, scale, rank in _certified_columns(n):
        assert col.shape == (factorial(n),), name
        assert dense_verdict(n, col, scale, rank) is None is column_verdict(n, col, scale, rank), name
        if n == 6:
            continue
        skew = col.copy()
        skew[k] += 1
        for mutant, r, check in ((skew, rank, "a"), (2 * col, rank, "b"), (col, rank + 1, "c")):
            assert dense_verdict(n, mutant, scale, r) == check == column_verdict(n, mutant, scale, r), name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certified_projectors_to_n6(n):
    # Every certified operator is kept as a column of N! integers whose
    # trace N! c[0] is the predicted rank times the scale, the column of
    # D P_0 + D L_0 is that of D I, and the entries of D P_0 and D M stay
    # within their known bounds.
    d, f = regrep._scale(n), factorial(n)
    dq = regrep._scaled_high(n, 0)
    assert regrep._scaled_high_0(n).shape == regrep._scaled_m(n).shape == dq.shape == (f,)
    assert f * dq[0] == np.trace(regrep._gather(n, dq)) == d * regrep.predicted_high_rank(n)
    for k in range(n):
        col = regrep._scaled_a(n, k)
        assert col.shape == (f,) and f * col[0] == f * regrep.predicted_a_dim(n, k)
    assert np.abs(dq).max() <= {3: 6, 4: 84, 5: 1800, 6: 56280}[n]
    assert np.abs(regrep._scaled_m(n)).max() <= {3: 18, 4: 336, 5: 9000, 6: 337680}[n]
    dl = regrep._scaled_low(n, 0)  # certified by (a)-(c) as it is built
    assert dl.shape == (f,)
    assert np.array_equal(dq + dl, d * (np.arange(f) == 0))


# ---------------------------------------------------------------------------
# Spectrum, average bound, change of challenge.


def test_spectrum_n3_matches_displayed_diagonal():
    rep = regrep.spectrum(3)
    assert rep.passed
    by_e = {str(b.e_predicted): (b.e_observed, b.mult_observed) for b in rep.blocks}
    assert abs(by_e["0"][0]) < 1e-6 and by_e["0"][1] == 1
    assert abs(by_e["3/2"][0] - 1.5) < 1e-6 and by_e["3/2"][1] == 4
    assert abs(by_e["3"][0] - 3.0) < 1e-6 and by_e["3"][1] == 1


def test_spectrum_n4_merges_equal_eigenvalues():
    rep = regrep.spectrum(4)
    assert rep.passed
    merged = [b for b in rep.blocks if b.e_predicted == 4]
    assert {b.lam for b in merged} == {(2, 2), (1, 1, 1, 1)}
    assert all(b.mult_observed == 5 for b in merged)  # 2^2 + 1^2 merged


def test_spectrum_n5_passes():
    rep = regrep.spectrum(5)
    assert rep.passed
    assert rep.central_residual == 0


@pytest.mark.parametrize("n", [3, 4])
def test_central_element_is_the_weighted_sum_of_isotypic_projectors(n):
    # Second construction of C_f: sum_lam e_lam Pi_lam from the character
    # sums of isotypic_projector, not from the class-function gather.
    total = sum(
        float(young.eigenvalue_m(lam)) * isotypic_projector(n, lam)
        for lam in young.partitions(n)
    )
    assert np.abs(regrep._gather(n, regrep._central_element(n)) / regrep._scale(n) - total).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dense_block_residuals_stay_within_the_old_tolerances(n):
    # The check spectrum made before the central element: M acts as e_lam on
    # each isotypic block and has no part between two blocks.  The central
    # residual bound implies both tolerances; this recomputes them directly.
    m = regrep.build_m(n)
    lams = young.partitions(n)
    projs = {lam: isotypic_projector(n, lam) for lam in lams}
    block = max(
        np.abs(m @ projs[lam] - float(young.eigenvalue_m(lam)) * projs[lam]).max()
        for lam in lams
    )
    off_block = max(
        np.abs(projs[lam] @ m @ projs[mu]).max() for lam in lams for mu in lams if mu != lam
    )
    assert block <= 1e-7
    assert off_block <= 1e-8
    assert regrep.spectrum(n).central_residual == 0


def test_spectrum_fails_on_a_relabeled_m_with_the_same_eigenvalues(monkeypatch):
    # The column sgn(pi) m gathers to S M S, S = diag(sgn(pi)): M with each
    # basis vector |pi> relabeled as sgn(pi) |pi>.  That keeps every
    # eigenvalue and multiplicity (it swaps the blocks of lam and its
    # transpose, of the same dimension), so each block still matches; only
    # D M == D C_f can see it.
    n = 4
    dm = regrep._scaled_m(n)
    sgn = np.array([(-1) ** (n - len(young.cycle_type(p))) for p in regrep.enumerate_group(n)])
    monkeypatch.setattr(regrep, "_scaled_m", lambda n: sgn * dm)
    rep = regrep.spectrum(n)
    assert all(b.ok for b in rep.blocks)
    assert rep.central_residual > 0.1
    assert not rep.passed


def test_spectrum_fails_on_a_shifted_eigenvalue_prediction(monkeypatch):
    n = 4
    exact = young.eigenvalue_m

    def shifted(lam):
        return exact(lam) + (Fraction(1, factorial(n)) if lam == (3, 1) else 0)

    monkeypatch.setattr(young, "eigenvalue_m", shifted)
    rep = regrep.spectrum(n)
    assert rep.central_residual > 0
    assert not rep.passed


@pytest.mark.parametrize("shift, passes", [(1e-3, False), (10.0, False), (5e-7, True)])
def test_spectrum_eigenvalue_readout_fails_by_itself(shift, passes, monkeypatch):
    # M and C_f are untouched, so only the eigvalsh readout sees M's top
    # eigenvalue (e = 4, the merged (2, 2) and (1, 1, 1, 1) blocks) move;
    # a move within 1e-6 is still claimed by its prediction.
    n = 4
    exact = np.linalg.eigvalsh

    def moved(a):
        w = exact(a)
        w[-1] += shift
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    rep = regrep.spectrum(n)
    assert rep.central_residual == 0
    assert rep.passed is passes
    top = [b for b in rep.blocks if b.e_predicted == 4]
    assert {b.lam for b in top} == {(2, 2), (1, 1, 1, 1)}
    assert all((b.mult_observed, b.ok) == ((5, True) if passes else (4, False)) for b in top)
    assert all(b.ok for b in rep.blocks if b not in top)


def test_avg_bound_exact_max_n4_k1():
    rep = regrep.avg_bound_check(4, 1, samples=20, seed=0)
    assert rep.passed
    assert abs(rep.exact_max - 1 / 3) < 1e-9
    assert rep.predicted_max == Fraction(4, 3) / 4


def test_avg_bound_k0_is_zero():
    rep = regrep.avg_bound_check(4, 0, samples=5, seed=0)
    assert rep.passed
    assert rep.exact_max < 1e-10
    assert rep.sample_max < 1e-10


def test_avg_bound_n5_k2_sampled():
    rep = regrep.avg_bound_check(5, 2, samples=100, seed=0)
    assert rep.passed
    assert rep.sample_max <= 4 / 5 + 1e-9


@pytest.mark.parametrize("shift", [Fraction(1, 4), Fraction(-1, 4)])
def test_avg_bound_fails_on_a_level_eigenvalue_off_by_one_over_n(shift, monkeypatch):
    # Acceptance criterion 3 can fail: a level eigenvalue off by 1/N moves
    # the predicted maximum by 1/N^2, far past the 1e-6 match.
    true_level = regrep.max_level_eigenvalue
    monkeypatch.setattr(regrep, "max_level_eigenvalue", lambda n, k: true_level(n, k) + shift)
    for k in range(4):
        assert not regrep.avg_bound_check(4, k, samples=5, seed=0).passed, k


def test_change_of_challenge_identity_exact():
    # The identity action fixes every basis vector and conjugates nothing.
    n = 3
    ident = (0, 1, 2)
    assert np.array_equal(act_index_map(n, ident, ident), np.arange(6))
    assert np.array_equal(regrep._conjugation(n, ident), np.arange(6))


def test_change_of_challenge_random():
    rep = regrep.change_of_challenge_check(4, trials=20, seed=0)
    assert rep.passed
    rep3 = regrep.change_of_challenge_check(3, trials=10, seed=1)
    assert rep3.max_commutation_residual == 0


def _permuted(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """U a U^-1 for the permutation matrix U |i> = |idx[i]>."""
    out = np.empty_like(a)
    out[np.ix_(idx, idx)] = a
    return out


def dense_change_of_challenge(n: int, trials: int, seed: int) -> tuple[float, float]:
    """The (conjugation, commutation) residuals of change_of_challenge_check
    from dense matrices and the dense two-sided action U, with the same rng
    draws: max|U P_y U^-1 - P_{pi_r(y)}| and max|U M U^-1 - M|, times D.
    D P_y is the gathered D P_0 relabeled by the left multiplication by
    (0 y); pi_d enters U here, and drops out of the residuals."""
    ident = tuple(range(n))
    d = regrep._scale(n)
    p0 = regrep._gather(n, regrep._scaled_high_0(n))
    dm = regrep._gather(n, regrep._scaled_m(n))

    def high(y):
        tau = list(ident)
        tau[0], tau[y] = y, 0
        return _permuted(p0, act_index_map(n, ident, tau))

    rng = np.random.default_rng(seed)
    conj = comm = 0.0
    for _ in range(trials):
        pi_d = tuple(int(v) for v in rng.permutation(n))
        pi_r = tuple(int(v) for v in rng.permutation(n))
        y = int(rng.integers(n))
        amap = act_index_map(n, pi_d, pi_r)
        conj = max(conj, float(np.abs(_permuted(high(y), amap) - high(pi_r[y])).max()) / d)
        comm = max(comm, float(np.abs(_permuted(dm, amap) - dm).max()) / d)
    return conj, comm


def _column_residuals(n: int, trials: int, seed: int) -> tuple[float, float]:
    rep = regrep.change_of_challenge_check(n, trials=trials, seed=seed)
    return rep.max_conjugation_residual, rep.max_commutation_residual


@pytest.mark.parametrize("n, seeds", [(3, range(4)), (4, range(4)), (5, range(2))], ids=["3", "4", "5"])
def test_change_of_challenge_column_residuals_match_the_dense_action(n, seeds):
    for seed in seeds:
        assert _column_residuals(n, 10, seed) == dense_change_of_challenge(n, 10, seed) == (0.0, 0.0), seed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_change_of_challenge_column_residuals_match_the_dense_action_on_mutants(n, monkeypatch):
    # A moved D P_0 with the true D M, then a moved D M: each residual reads
    # the same nonzero number from the columns as from the dense action.
    regrep._scaled_m(n)  # cached from the true D P_0
    true_high = regrep._scaled_high_0(n)
    monkeypatch.setattr(regrep, "_scaled_high_0", lambda n, col=_moved_pair(n, true_high): col)
    moved_high = _column_residuals(n, 10, 0)
    assert moved_high == dense_change_of_challenge(n, 10, 0)
    assert moved_high[0] > 0 == moved_high[1]
    monkeypatch.setattr(regrep, "_scaled_high_0", lambda n: true_high)
    monkeypatch.setattr(regrep, "_scaled_m", lambda n, col=_moved_pair(n, regrep._scaled_m(n)): col)
    moved_m = _column_residuals(n, 10, 0)
    assert moved_m == dense_change_of_challenge(n, 10, 0)
    assert moved_m[0] == 0 < moved_m[1]


def test_change_of_challenge_fails_on_a_moved_high_projector(monkeypatch):
    n = 4
    regrep._scaled_m(n)  # D M stays the true sum; only D P_0 moves
    moved = _moved_pair(n, regrep._scaled_high_0(n))
    monkeypatch.setattr(regrep, "_scaled_high_0", lambda n: moved)
    rep = regrep.change_of_challenge_check(n, trials=20, seed=0)
    assert rep.max_conjugation_residual == 1 / regrep._scale(n)
    assert rep.max_commutation_residual == 0
    assert not rep.passed


def test_change_of_challenge_fails_on_a_moved_m(monkeypatch):
    n = 4
    moved = _moved_pair(n, regrep._scaled_m(n))
    monkeypatch.setattr(regrep, "_scaled_m", lambda n: moved)
    rep = regrep.change_of_challenge_check(n, trials=20, seed=0)
    assert rep.max_conjugation_residual == 0
    assert rep.max_commutation_residual == 1 / regrep._scale(n)
    assert not rep.passed


@pytest.mark.parametrize(
    "entry, reason",
    [
        (2**26, r"integer product bound .* is not below 2\^53"),
        (2**25, r"\(b\) its square is not 12 times itself"),  # multiplied exactly, then refused
    ],
    ids=["past", "inside"],
)
def test_oversized_high_projector_is_refused_by_the_product_bound(entry, reason, fresh_caches, monkeypatch):
    # At n = 3 certificate (b)'s product S c is exact while 6 max|c|^2 < 2^53,
    # so an entry of 2^26 is refused before any product.
    branch_sum = regrep._branch_sum
    inv = regrep._inverses(3)
    k = int(np.flatnonzero(inv != np.arange(6))[0])

    def grown(n, y, branches):
        dq = branch_sum(n, y, branches)
        dq[[k, inv[k]]] = entry
        return dq

    monkeypatch.setattr(regrep, "_branch_sum", grown)
    with pytest.raises(ArithmeticError, match=reason):
        regrep._scaled_high_0(3)


@pytest.mark.parametrize("trials", [0, -1])
def test_change_of_challenge_without_trials_is_refused(trials):
    # It used to check nothing and report passed=True.
    with pytest.raises(ValueError, match="trials must be >= 1"):
        regrep.change_of_challenge_check(3, trials=trials)


def test_decomposition_report_n4_n5():
    for n in (4, 5):
        rep = regrep.decomposition_report(n)
        assert rep.passed
        assert all(row["ok"] for row in rep.a_dims)
        assert all(row["ok"] for row in rep.high_ranks)
        assert all(row["ok"] for row in rep.low_ranks)
        assert rep.chain_residual == 0
        assert rep.complement_residual == 0
        highs = {row["rank"] for row in rep.high_ranks}
        assert len(highs) == 1  # independent of y
