"""Fourier blocks in Young's orthogonal form against the character table
and the branching rule.

Representation: the generator matrices against the Coxeter presentation
of S_N and orthogonality, checked here relation by relation, their
dimensions against the hook formula and N!, and the trace of rho_lam(g),
multiplied out along a reduced word of g, against young.character on the
cycle type of g, for every g at N <= 6: the one place the independent
construction meets the characters.  The blocks the breadth-first walk
accumulates against the same sum over reduced words.
Block identities (ROADMAP item 2): F_lam(N! M) = N! e_lam I,
F_lam(N! P_{A_k}) = N! I or 0 by level, and F_lam(N! P_{N-1}) = N! times
the diagonal of [box N not in the first row of T], each shown failing on
a mutant: another challenge's projector, sign-flipped axial distances
(which the pooled eigenvalue multiset cannot see) and a dropped branch.
The Coxeter certificate is shown failing on broken generators, and its
failure ending the CLI run as a failing verdict.
"""

import json
from functools import cache
from math import factorial

import numpy as np
import pytest

from perminv import cli, regrep, young

SIZES = range(1, 7)


def reduced_word(p) -> list[int]:
    """The i of a word s_i1 s_i2 ... s_iL (composition, left to right) equal
    to the one-line permutation p, by bubble sort: swapping the entries at
    positions i and i+1 of q gives q s_i, so the swaps that sort p, read
    backwards, multiply out to p."""
    q, swaps = list(p), []
    while (i := next((i for i in range(len(q) - 1) if q[i] > q[i + 1]), None)) is not None:
        q[i], q[i + 1] = q[i + 1], q[i]
        swaps.append(i)
    return swaps[::-1]


@cache
def word_forms(lam) -> np.ndarray:
    """rho_lam(g) for every g of S_N in enumeration order, each the product
    of the generator matrices along reduced_word(g): the test-side
    reference for the breadth-first walk of regrep."""
    gens = regrep._orthogonal_form(lam)
    d = len(regrep._tableaux(lam))
    forms = np.empty((factorial(sum(lam)), d, d))
    for a, p in enumerate(regrep.enumerate_group(sum(lam))):
        forms[a] = np.eye(d)
        for i in reduced_word(p):
            forms[a] = forms[a] @ gens[i]
    return forms


def block_residual(n: int, col: np.ndarray, predicted) -> float:
    """max |F_lam(col) / N! - predicted(lam)| over every lam of size n."""
    f = factorial(n)
    return max(np.abs(block / f - predicted(lam)).max() for lam, block in regrep._fourier_blocks(n, col).items())


def scalar(value):
    """The prediction value * I of every block."""
    return lambda lam: float(value(lam)) * np.eye(len(regrep._tableaux(lam)))


def branching(lam) -> np.ndarray:
    """diag([box N not in the first row of T]) over the tableaux T of lam:
    the corner that holds n-1 in the first row has content lam[0] - 1, and
    every other corner less."""
    return np.diag([float(t[-1] != lam[0] - 1) for t in regrep._tableaux(lam)])


def flipped_axial_distances(form):
    """The orthogonal form with every axial distance r read as -r: each
    diagonal entry 1/r negated, the off-diagonal sqrt(1 - 1/r^2) kept."""

    def flipped(lam):
        gens = form(lam)
        return gens - 2 * gens * np.eye(gens.shape[-1])

    return flipped


# ---------------------------------------------------------------------------
# The representation.


@pytest.mark.parametrize("n", SIZES)
def test_generators_are_orthogonal_and_satisfy_the_coxeter_relations(n):
    for lam in young.partitions(n):
        gens = regrep._orthogonal_form(lam)
        eye = np.eye(len(regrep._tableaux(lam)))
        assert gens.shape == (n - 1, len(eye), len(eye))
        for i, a in enumerate(gens):
            assert np.abs(a @ a.T - eye).max() <= 1e-12, (lam, i)
            assert np.abs(a @ a - eye).max() <= 1e-12, (lam, i)
            for j, b in enumerate(gens[i + 1 :], start=i + 1):
                order = 3 if j == i + 1 else 2
                assert np.abs(np.linalg.matrix_power(a @ b, order) - eye).max() <= 1e-12, (lam, i, j)
        assert regrep._coxeter_residual(gens) <= regrep._FORM_TOL


@pytest.mark.parametrize("n", SIZES)
def test_tableaux_count_the_dimensions_and_their_squares_the_group(n):
    dims = [len(regrep._tableaux(lam)) for lam in young.partitions(n)]
    assert dims == [young.dim(lam) for lam in young.partitions(n)]
    assert sum(d * d for d in dims) == factorial(n)
    for lam in young.partitions(n):
        assert len(set(regrep._tableaux(lam))) == young.dim(lam), lam


@pytest.mark.parametrize("n", SIZES)
def test_traces_are_the_characters(n):
    # The one tie of the orthogonal form to the character table: trace
    # rho_lam(g) == chi_lam(cycle type of g) for every g, to rounding.
    types = [young.cycle_type(p) for p in regrep.enumerate_group(n)]
    for lam in young.partitions(n):
        traces = np.trace(word_forms(lam), axis1=1, axis2=2)
        chars = np.array([young.character(lam, ct) for ct in types])
        assert np.abs(traces - chars).max() <= 1e-9, lam


@pytest.mark.parametrize("n", SIZES)
def test_cayley_levels_hold_each_element_once_by_its_inversions(n):
    levels = regrep._cayley_levels(n)
    nodes = np.concatenate([[0], *(level[0] for level in levels)])
    assert np.array_equal(np.sort(nodes), np.arange(factorial(n)))
    perms = regrep.perms_matrix(n)
    for depth, (level, _, _) in enumerate(levels, start=1):
        assert all(len(reduced_word(perms[g])) == depth for g in level), depth


def test_cayley_levels_need_no_quotient_table(fresh_caches, monkeypatch):
    # Each edge g -> s_i g is read off g's one-line row, so the walk builds
    # the same levels, array for array, with the quotient table refused.
    built = {n: regrep._cayley_levels(n) for n in SIZES}
    regrep._cayley_levels.cache_clear()

    def refused(n):
        raise AssertionError("the Cayley walk read the quotient table")

    monkeypatch.setattr(regrep, "_quotient_table", refused)
    for n in SIZES:
        levels = regrep._cayley_levels(n)
        assert len(levels) == len(built[n]), n
        for level, before in zip(levels, built[n]):
            assert all(np.array_equal(a, b) for a, b in zip(level, before, strict=True)), n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocks_are_the_sums_over_reduced_words(n):
    # The walk reads rho(s_i g) = rho(s_i) rho(g) level by level; the
    # reference multiplies each element's own reduced word.
    col = np.random.default_rng(n).integers(-9, 10, factorial(n)).astype(float)
    for lam, block in regrep._fourier_blocks(n, col).items():
        assert np.abs(block - np.tensordot(col, word_forms(lam), axes=1)).max() <= 1e-9, lam


def test_broken_generators_fail_the_coxeter_certificate():
    gens = regrep._orthogonal_form((3, 1, 1))
    scaled = gens.copy()
    scaled[2] *= 1.01  # no longer orthogonal
    repeated = gens.copy()
    repeated[1] = gens[0]  # (s_1 s_2)^3 = s_0 s_2 != I
    for mutant in (scaled, repeated):
        assert regrep._coxeter_residual(mutant) > 1e-3


def test_a_failed_coxeter_certificate_is_a_failing_verdict(fresh_caches, monkeypatch, capsys):
    monkeypatch.setattr(regrep, "_coxeter_residual", lambda gens: 1.0)
    with pytest.raises(ArithmeticError, match=r"orthogonal form of \(2, 1\): Coxeter residual 1\.000e\+00"):
        regrep._orthogonal_form((2, 1))
    assert cli.main(["spectrum", "--n", "3"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False
    assert out["report"] == {"reason": "ArithmeticError: orthogonal form of (3,): Coxeter residual 1.000e+00 > 1e-12"}


# ---------------------------------------------------------------------------
# Block identities.


@pytest.mark.parametrize("n", SIZES)
def test_blocks_of_m_are_its_block_eigenvalues(n):
    assert block_residual(n, regrep._scaled_m(n), scalar(young.eigenvalue_m)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_blocks_of_a_projectors_select_their_levels(n):
    for k in range(n):
        assert block_residual(n, regrep._scaled_a(n, k), scalar(lambda lam: young.level(lam) <= k)) <= 1e-12, k


@pytest.mark.parametrize("n", SIZES)
def test_blocks_of_the_last_high_projector_follow_the_branching_rule(n):
    # The tableau basis is adapted to S_{N-1} = Stab(N-1), so the blocks of
    # P_{N-1} are diagonal, read off the box that holds N; the direct branch
    # sum at y = N-1 gives the same.
    relabeled = regrep._relabeled(n, regrep._scaled_high_0(n), n - 1)
    direct = regrep._branch_sum(n, n - 1, regrep._high_branches(n))
    assert block_residual(n, relabeled, branching) <= 1e-12
    assert block_residual(n, direct, branching) <= 1e-12


@pytest.mark.parametrize("n", range(3, 7))
def test_another_challenges_high_projector_is_not_diagonal(n):
    for y in range(n - 1):
        assert block_residual(n, regrep._relabeled(n, regrep._scaled_high_0(n), y), branching) > 0.5, y


def test_a_dropped_branch_fails_the_branching_blocks():
    # The first mu of each lam dropped in turn, or the lam with its one mu;
    # at N = 5 three of them leave a remainder and are refused when summed.
    failed = 0
    for n in (4, 5, 6):
        branches = regrep._high_branches(n)
        for i, (lam, mus) in enumerate(branches):
            dropped = branches[:i] + ([(lam, mus[1:])] if len(mus) > 1 else []) + branches[i + 1 :]
            try:
                col = regrep._branch_sum(n, n - 1, dropped)
            except ArithmeticError:
                continue
            assert block_residual(n, col, branching) > 0.5, (n, lam)
            failed += 1
    assert failed == 4 + 3 + 10


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_flipped_axial_distances_fail_the_blocks_not_the_multiset(n, monkeypatch):
    # Negating every axial distance still satisfies the Coxeter relations
    # but builds the transpose's representation under each lam's name.
    # M's eigenvalue multiset is then the same, so spectrum still passes;
    # the per-block identities see the swap.
    f = factorial(n)
    exact = np.sort(regrep._block_eigenvalues(n, regrep._scaled_m(n) / f))
    monkeypatch.setattr(regrep, "_orthogonal_form", flipped_axial_distances(regrep._orthogonal_form))
    assert regrep._coxeter_residual(regrep._orthogonal_form((n - 1, 1))) <= regrep._FORM_TOL
    assert np.abs(np.sort(regrep._block_eigenvalues(n, regrep._scaled_m(n) / f)) - exact).max() <= 1e-9
    assert regrep.spectrum(n).passed
    assert block_residual(n, regrep._scaled_m(n), scalar(young.eigenvalue_m)) > 1
    assert block_residual(n, regrep._scaled_a(n, 0), scalar(lambda lam: young.level(lam) == 0)) > 0.5
    assert block_residual(n, regrep._relabeled(n, regrep._scaled_high_0(n), n - 1), branching) > 0.5
