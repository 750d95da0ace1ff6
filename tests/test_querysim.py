"""Purified-oracle simulator checks: oracle semantics, game transcripts,
support and progress bounds, Grover, and the alternating-measurement game."""

import math
import tracemalloc
from math import asin, factorial, sin

import numpy as np
import pytest

from conftest import dense
from perminv import cli
from perminv import querysim as qs
from perminv import regrep


def identity_program(n: int) -> qs.AlgorithmProgram:
    """The do-nothing program: guesses x = 0 on every challenge."""
    return qs.AlgorithmProgram(offline=(), online=tuple(() for _ in range(n)), p=0, t=0)


def grover_iteration_program(n: int) -> qs.AlgorithmProgram:
    """One exact amplitude-amplification iteration inside the query game.

    Uses two queries: one to load pi(x) into Y, and one (conjugated by Y
    negation) to unload it, with the challenge-dependent phase flip applied
    in between.  Success probability is sin^2(3*asin(1/sqrt(n))) for every
    challenge, matching one bare Grover iteration.
    """
    uniform = np.full((n, n), 1.0 / n, dtype=np.complex128)
    j = np.arange(n)
    fourier = np.exp(2j * np.pi / n) ** np.outer(j, j) / np.sqrt(n)
    diffusion = 2.0 * uniform - np.eye(n)
    negate_y = np.eye(n)[:, (-np.arange(n)) % n]  # |z> -> |-z mod n>
    online = []
    for y in range(n):
        phase = np.eye(n, dtype=np.complex128)
        phase[y, y] = -1.0
        steps = (
            qs.Unitary(fourier, ("x",)),  # X <- uniform
            qs.Query(),  # Y = pi(x)
            qs.Unitary(phase, ("y",)),  # flip the pi(x) = y branch
            qs.Unitary(negate_y, ("y",)),
            qs.Query(),  # Y = -pi(x) + pi(x) ...
            qs.Unitary(negate_y, ("y",)),  # ... negated back to 0
            qs.Unitary(diffusion, ("x",)),
        )
        online.append(steps)
    return qs.AlgorithmProgram(offline=(), online=tuple(online), p=0, t=2)


def basis_state(layout, pi_index, x=0, y=0, w=0, b=0):
    amps = np.zeros(layout.dims, dtype=np.complex128)
    amps[pi_index, x, y, w, b] = 1.0
    return amps


# ---------------------------------------------------------------------------
# Layout and state basics.


def test_layout_dims():
    lay = qs.RegisterLayout(n=3, w=1)
    assert lay.dims == (6, 3, 3, 1, 2)
    assert lay.total_dim == 108
    assert qs.RegisterLayout(n=3, w=2).total_dim == 216


def test_layout_budget():
    # 720 * 6 * 6 * 400 * 2 = 20,736,000 > 2^24: refused before any allocation.
    with pytest.raises(MemoryError, match="exceeds budget 16777216"):
        qs.RegisterLayout(n=6, w=400)


def test_init_state_uniform_overlap():
    lay = qs.RegisterLayout(n=3)
    st = qs.init_state(lay)
    assert st.shape == lay.dims
    assert np.isclose(np.linalg.norm(st), 1.0)
    for i in range(6):
        assert np.isclose(st[i, 0, 0, 0, 0], 1 / np.sqrt(6))
    assert np.count_nonzero(st) == 6


# ---------------------------------------------------------------------------
# Oracle unitary.


def test_oracle_writes_image_to_y():
    lay = qs.RegisterLayout(n=3)
    perms = regrep.enumerate_group(3)
    for pi_index, pi in enumerate(perms):
        for x in range(3):
            st = qs.apply_oracle(basis_state(lay, pi_index, x=x, y=0))
            assert st[pi_index, x, pi[x], 0, 0] == 1.0
            assert np.count_nonzero(st) == 1


def test_oracle_is_additive_mod_n():
    lay = qs.RegisterLayout(n=3)
    pi_index, pi = 3, regrep.enumerate_group(3)[3]
    st = qs.apply_oracle(basis_state(lay, pi_index, x=1, y=2))
    assert st[pi_index, 1, (2 + pi[1]) % 3, 0, 0] == 1.0


def test_oracle_preserves_norm_random():
    lay = qs.RegisterLayout(n=4)
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(lay.dims) + 1j * rng.standard_normal(lay.dims)
    amps /= np.linalg.norm(amps)
    st = qs.apply_oracle(amps.astype(np.complex128))
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12


def take_along_axis_oracle(amps):
    """The query as a gather along Y with one broadcast 5-D index, the
    reference the row gather of apply_oracle is pinned to."""
    src = qs._oracle_gather(amps.shape[1])
    return np.take_along_axis(amps, src[:, :, :, None, None], axis=2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("w", [1, 3])
def test_oracle_row_gather_matches_take_along_axis(n, w):
    lay = qs.RegisterLayout(n=n, w=w)
    rng = np.random.default_rng(10 * n + w)
    amps = rng.standard_normal(lay.dims) + 1j * rng.standard_normal(lay.dims)
    # apply_unitary hands the next step a strided view, not a contiguous copy.
    mixed = qs.apply_unitary(amps, qs.Unitary(qs.random_unitary(n * n * w, rng), ("x", "y", "w")))
    assert not mixed.flags.c_contiguous
    for state in (amps, mixed):
        got, want = qs.apply_oracle(state), take_along_axis_oracle(state)
        assert got.shape == want.shape == lay.dims
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_unitary_validation():
    with pytest.raises(ValueError):
        qs.Unitary(np.ones((2, 2)), ("b",))
    with pytest.raises(ValueError):
        qs.Unitary(np.eye(3), ("z",))
    with pytest.raises(ValueError):
        lay = qs.RegisterLayout(n=3)
        st = qs.init_state(lay)
        qs.apply_unitary(st, qs.Unitary(np.eye(2), ("x",)))  # dim 2 on a 3-dim register


def test_online_steps_may_not_touch_b():
    with pytest.raises(ValueError):
        qs.AlgorithmProgram(
            offline=(),
            online=((qs.Unitary(np.eye(2), ("b",)),),) * 3,
            p=0,
            t=0,
        )


def test_query_count_validation():
    with pytest.raises(ValueError):
        qs.AlgorithmProgram(offline=(qs.Query(),), online=((),) * 3, p=0, t=0)


def test_program_fixes_its_own_layout():
    # The game used to take a layout beside the program: a 4-challenge
    # program played under n = 3 reported 3 challenges and passed.
    tr = qs.run_bit_fixing(identity_program(4))
    assert tr.n == 4 and [row["y"] for row in tr.per_challenge] == [0, 1, 2, 3]
    assert identity_program(4).layout == qs.RegisterLayout(n=4, w=1)
    with pytest.raises(ValueError, match="workspace dimension"):
        qs.AlgorithmProgram(offline=(), online=((),) * 3, p=0, t=0, w=0)
    with pytest.raises(MemoryError, match="exceeds budget"):
        qs.AlgorithmProgram(offline=(), online=((),) * 6, p=0, t=0, w=400)


# ---------------------------------------------------------------------------
# Bit-fixing transcripts.


def test_identity_program_success_is_one_over_n():
    for n in (3, 4):
        tr = qs.run_bit_fixing(identity_program(n))
        for row in tr.per_challenge:
            assert abs(row["p_succ"] - 1 / n) < 1e-12
        assert tr.passed and abs(tr.postselect_prob - 1.0) < 1e-12


def test_query_copied_to_workspace_does_not_help():
    # Query x=0 offline, swap the result into W, never touch it again.
    n, w = 3, 3
    swap = np.zeros((n * w, n * w))
    for yv in range(n):
        for wv in range(w):
            swap[wv * w + yv, yv * w + wv] = 1.0
    program = qs.AlgorithmProgram(
        offline=(qs.Query(), qs.Unitary(swap, ("y", "w"))),
        online=((),) * n,
        p=1,
        t=0,
        w=w,
    )
    tr = qs.run_bit_fixing(program)
    for row in tr.per_challenge:
        assert abs(row["p_succ"] - 1 / n) < 1e-12


def test_grover_iteration_program_matches_closed_form():
    tr3 = qs.run_bit_fixing(grover_iteration_program(3))
    for row in tr3.per_challenge:
        assert abs(row["p_succ"] - 25 / 27) < 1e-12
        assert abs(row["p_succ"] - sin(3 * asin(1 / np.sqrt(3))) ** 2) < 1e-12
    tr4 = qs.run_bit_fixing(grover_iteration_program(4))
    for row in tr4.per_challenge:
        assert abs(row["p_succ"] - 1.0) < 1e-12


def test_postselection_renormalizes():
    # Rotate B so that b=0 keeps only part of the mass.
    n = 3
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    program = qs.AlgorithmProgram(
        offline=(qs.Unitary(rot, ("b",)),),
        online=((),) * n,
        p=0,
        t=0,
    )
    tr = qs.run_bit_fixing(program)
    assert abs(tr.postselect_prob - np.cos(theta) ** 2) < 1e-12
    for row in tr.per_challenge:
        assert abs(row["p_succ"] - 1 / n) < 1e-12


def test_zero_postselection_is_a_contract_error():
    n = 3
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    program = qs.AlgorithmProgram(
        offline=(qs.Unitary(flip, ("b",)),),
        online=((),) * n,
        p=0,
        t=0,
    )
    with pytest.raises(qs.ZeroPostselectionError):
        qs.run_bit_fixing(program)


def test_transcript_fields_and_norms():
    program = qs.random_program(3, 1, 1, seed=11)
    tr = qs.run_bit_fixing(program)
    d = cli._fields(tr)
    assert d["pass"] is tr.passed and "passed" not in d
    assert d["n"] == 3 and d["p"] == 1 and d["t"] == 1
    assert len(d["per_challenge"]) == 3
    assert all(abs(v - 1.0) <= 1e-9 for v in d["step_norms"])
    assert 0.0 < d["postselect_prob"] <= 1.0


def test_success_probability_vs_monte_carlo():
    # Terminal-measurement sampling agrees with the projection value to 3 sigma.
    n, shots = 4, 100_000
    program = qs.random_program(n, 0, 1, seed=3)
    y = 1
    s = qs.init_state(program.layout)
    for step in program.offline:
        s = qs.apply_step(s, step)
    qs.postselect_b0(s)
    for step in program.online[y]:
        s = qs.apply_step(s, step)
    p_exact = qs.success_probability(s, y)
    probs = np.abs(s.reshape(-1)) ** 2
    probs /= probs.sum()
    perms = regrep.perms_matrix(n)
    succ_mask = (perms == y)[
        np.unravel_index(np.arange(probs.size), s.shape)[0],
        np.unravel_index(np.arange(probs.size), s.shape)[1],
    ]
    rng = np.random.default_rng(12)
    draws = rng.choice(probs.size, size=shots, p=probs)
    freq = float(succ_mask[draws].mean())
    sigma = np.sqrt(p_exact * (1 - p_exact) / shots)
    assert abs(freq - p_exact) <= 3 * sigma


# ---------------------------------------------------------------------------
# Support (query-count) checks.


def test_support_residual_zero_before_queries():
    lay = qs.RegisterLayout(n=4)
    st = qs.init_state(lay)
    assert qs.support_residual(st, 0) < 1e-12


def test_support_residual_small_after_queries():
    program = qs.random_program(4, 2, 0, seed=5)
    tr = qs.run_bit_fixing(program)
    assert all(row["residual"] <= 1e-8 for row in tr.lemma_checks)


def test_support_negative_control_wrong_k():
    # After 3 generic queries the state is NOT inside A_2.
    program = qs.random_program(4, 3, 0, seed=9)
    state = qs.init_state(program.layout)
    for step in program.offline:
        state = qs.apply_step(state, step)
    assert qs.support_residual(state, 3) <= 1e-8
    assert qs.support_residual(state, 2) > 1e-3


@pytest.mark.parametrize("block", [7, regrep._BLOCK])
def test_blocked_masses_and_residuals_match_the_dense_projectors(block, monkeypatch):
    # At N = 6, read in row blocks of 7 rows or of the default height, the
    # high masses and support residuals of a state after two generic
    # queries are within 1e-12 of the products with the dense P_y and
    # P_{A_k} of the test-side reference.
    monkeypatch.setattr(regrep, "_BLOCK", block)
    n = 6
    program = qs.random_program(n, 2, 0, seed=5)
    state = qs.init_state(program.layout)
    for step in program.offline:
        state = qs.apply_step(state, step)
    flat = state.reshape(factorial(n), -1)
    for y in range(n):
        mass = np.linalg.norm(dense(n, regrep._relabeled(n, regrep._scaled_high_0(n), y)) @ flat)
        assert abs(qs._high_mass(state, y) - mass) <= 1e-12, y
    residuals = [qs.support_residual(state, k) for k in range(n - 1)]
    for k, residual in enumerate(residuals):
        assert abs(residual - np.linalg.norm(flat - dense(n, regrep._scaled_a(n, k)) @ flat)) <= 1e-12, k
    assert residuals[0] > 1e-3 and residuals[2] <= 1e-8


def test_game_reads_no_high_column(monkeypatch):
    # The high masses read the column of N! P_0; a game without them must
    # not build it.
    def refuse(n):
        raise AssertionError("run_bit_fixing read the column of N! P_0")

    monkeypatch.setattr(regrep, "_scaled_high_0", refuse)
    assert qs.run_bit_fixing(qs.random_program(4, 1, 1, seed=4)).passed
    with pytest.raises(AssertionError, match="read the column"):
        qs.check_progress_inequalities(qs.random_program(4, 1, 1, seed=4))


def test_warm_progress_check_holds_under_one_dense_operator():
    # The masses and residuals read their projectors one row block at a
    # time, and each challenge's final state is dropped before the next
    # play: a warm N = 6 check_progress_inequalities traces less than one
    # dense 720 x 720 float64 operator, 4.15 MB, where dense projectors
    # traced 8.3 MB.
    program = qs.random_program(6, 0, 1, 1)
    qs.check_progress_inequalities(program)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        qs.check_progress_inequalities(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 720**2 * 8, peak


# ---------------------------------------------------------------------------
# Progress inequalities.


def test_inequalities_identity_program_tight_case():
    # No queries at all: sqrt(1/n) <= 0 + 1/sqrt(n) with equality.
    n = 5
    _, rep = qs.check_progress_inequalities(identity_program(n))
    finals = [r for r in rep.rows if r.kind == "final"]
    assert all(r.checked for r in finals)
    assert all(abs(r.slack) < 1e-9 for r in finals)
    assert rep.passed


def test_inequalities_random_programs_n5():
    for seed in range(6):
        program = qs.random_program(5, 0, 1, seed=seed)
        _, rep = qs.check_progress_inequalities(program)
        assert rep.passed
        assert rep.checked > 0


def test_inequalities_vacuous_instances_are_reported():
    program = qs.random_program(4, 1, 1, seed=0)
    _, rep = qs.check_progress_inequalities(program)
    assert rep.vacuous > 0
    assert rep.passed  # nothing checked can fail


def test_online_snapshots_count():
    program = qs.random_program(4, 1, 2, seed=2)
    _, rep = qs.check_progress_inequalities(program)
    for y in range(4):
        kinds = [(r.kind, r.k) for r in rep.rows if r.y == y]
        assert kinds == [("final", 2), ("step", 1), ("step", 2)]


@pytest.mark.parametrize(
    "n, p, t, w",
    [(4, 0, 1, 1), (4, 1, 1, 1), (4, 0, 2, 2), (5, 0, 1, 2), (5, 1, 2, 1), (5, None, 2, 1)],
)
def test_final_rows_use_the_game_success(n, p, t, w):
    # The final row's lhs is sqrt(p_succ) of the game after its last step; it
    # used to be read before the trailing unitaries (0.447 instead of 0.984
    # on the Grover iteration at n = 5, the p = None case).
    if p is None:
        program = grover_iteration_program(n)
    else:
        program = qs.random_program(n, p, t, w=w, seed=n + p + t)
    _, rep = qs.check_progress_inequalities(program)
    tr = qs.run_bit_fixing(program)
    finals = [r for r in rep.rows if r.kind == "final"]
    assert [r.lhs for r in finals] == [math.sqrt(row["p_succ"]) for row in tr.per_challenge]


def test_one_pass_yields_the_game_transcript():
    # The inequality check plays the same game as run_bit_fixing, once.
    program = qs.random_program(4, 1, 2, w=2, seed=9)
    tr, _ = qs.check_progress_inequalities(program)
    assert tr == qs.run_bit_fixing(program)


@pytest.mark.parametrize("challenge", [-1, 3])
def test_challenge_out_of_range_is_refused(challenge, monkeypatch):
    # -1 used to play pi(x) = -1 and pass with p_succ 0; n ended in IndexError.
    monkeypatch.setattr(qs, "init_state", None)  # no simulation may start
    with pytest.raises(ValueError, match=r"challenge must be 'all' or in range\(3\)"):
        qs.run_bit_fixing(identity_program(3), challenge=challenge)


def test_query_first_online_steps():
    # An online step list that opens with a query used to end in IndexError.
    n = 5
    steps = (qs.Query(), qs.Unitary(np.eye(n), ("x",)))
    program = qs.AlgorithmProgram(offline=(), online=(steps,) * n, p=0, t=1)
    _, rep = qs.check_progress_inequalities(program)
    assert len(rep.rows) == 10 and rep.checked == 10
    assert rep.passed


# ---------------------------------------------------------------------------
# Grover.


def test_grover_exact_single_iteration_n4():
    p_sim, p_formula = qs.grover_invert(4, 1)
    assert p_sim == 1.0
    assert abs(p_formula - 1.0) < 1e-12


def test_grover_zero_iterations():
    for n in (2, 5, 100):
        p_sim, p_formula = qs.grover_invert(n, 0)
        assert abs(p_sim - 1 / n) < 1e-12
        assert abs(p_formula - 1 / n) < 1e-12


def test_grover_matches_closed_form_grid():
    for n in (2, 3, 4, 5, 8, 16, 64, 256, 1024):
        for t in (0, 1, 2, 5, 10, 25):
            p_sim, p_formula = qs.grover_invert(n, t)
            assert abs(p_sim - p_formula) <= 1e-9, (n, t)


def test_grover_1024_25():
    p_sim, _ = qs.grover_invert(1024, 25)
    assert abs(p_sim - sin(51 * asin(1 / 32)) ** 2) <= 1e-9


def test_grover_scaling_fit():
    fit = qs.grover_scaling_fit()
    assert fit["r2_loglog"] >= 0.999
    assert 0.9 <= fit["slope"] <= 1.1


# ---------------------------------------------------------------------------
# Alternating-measurement game.


def query_unitary_xl_reference(pi, dim_l):
    """Dense oracle call on X x L: |x, z> -> |x, z + pi(x) mod dim_l>."""
    n = len(pi)
    d = n * dim_l
    u = np.zeros((d, d))
    for x in range(n):
        for z in range(dim_l):
            u[x * dim_l + (z + pi[x]) % dim_l, x * dim_l + z] = 1.0
    return u


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("t", [0, 1, 2])
def test_adversary_oracle_gather_matches_dense_reference(n, t):
    # Each projector must equal want^H V want bit for bit, where want is
    # mixers @ (q @ u) with the dense oracle q and the same seeded mixers,
    # and V fixes X at the preimage of y.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        mixers = [[qs.random_unitary(n * n, rng) for _ in range(t + 1)] for _ in range(n)]
        proj = qs.random_query_adversary(n, t, seed)
        group = regrep.enumerate_group(n)
        assert proj.shape == (len(group), n, n * n, n * n)
        for pi, per_y in zip(group, proj):
            q = query_unitary_xl_reference(pi, n)
            for y, got in enumerate(per_y):
                want = mixers[y][0].copy()
                for i in range(1, t + 1):
                    want = mixers[y][i] @ (q @ want)
                v = np.zeros(n * n)
                v[pi.index(y) * n : (pi.index(y) + 1) * n] = 1.0
                want = want.conj().T @ (v[:, None] * want)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (pi, y, seed)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(4)
    u = qs.random_unitary(7, rng)
    assert np.abs(u.conj().T @ u - np.eye(7)).max() < 1e-10


def test_alternating_game_one_round_is_plain_success():
    n, t = 3, 1
    proj = qs.random_query_adversary(n, t, seed=0)
    rep = qs.alternating_game(proj, g=1, t=t)
    # Independent evaluation of the plain success probability <0|P|0>.
    delta = np.mean(proj[:, :, 0, 0].real)
    assert abs(rep.simulated[0] - delta) < 1e-12
    assert rep.passed


def test_alternating_game_projector_adversary_is_g_independent():
    # If the averaged measurement is itself a projector, every round repeats
    # the same verdict and the game value does not depend on g.
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    proj = np.broadcast_to(np.outer(v, v).astype(np.complex128), (6, 3, 3, 3))
    for g in range(1, 5):
        rep = qs.alternating_game(proj, g=g)
        assert np.allclose(rep.simulated, 0.5, rtol=0, atol=1e-12)
        assert rep.passed


def test_alternating_game_simulation_matches_formula():
    for seed in range(3):
        adv = qs.random_query_adversary(3, 1, seed=seed)
        rep = qs.alternating_game(adv, g=3, t=1, seed=seed)
        assert rep.max_disagreement <= 1e-7
        assert rep.monotone
        assert rep.jensen_ok


def test_alternating_game_jensen_strictness():
    adv = qs.random_query_adversary(3, 0, seed=42)
    rep = qs.alternating_game(adv, g=3)
    for i, val in enumerate(rep.simulated):
        assert val >= rep.simulated[0] ** (i + 1) - 1e-9
