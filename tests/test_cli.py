"""CLI contract: exit codes, schema, determinism, output routing."""

import json
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from perminv import attacks, cli, querysim, regrep, young


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_n3(capsys):
    code, out = run_cli(["spectrum", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["pass"] is True
    assert payload["config"]["n"] == 3
    blocks = payload["report"]["blocks"]
    by_e = {b["e_predicted"]: b for b in blocks}
    assert by_e["0/1"]["mult_observed"] == 1
    assert by_e["3/2"]["mult_observed"] == 4
    assert by_e["3/1"]["mult_observed"] == 1
    assert abs(by_e["3/2"]["e_observed"] - 1.5) <= 1e-6


def test_young_eigenvalues_n4(capsys):
    code, out = run_cli(["young", "eigenvalues", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["lambda"]): r["e"] for r in payload["report"]["eigenvalues"]}
    assert rows[(4,)] == "0/1"
    assert rows[(3, 1)] == "4/3"
    assert rows[(2, 2)] == "4/1"
    assert rows[(2, 1, 1)] == "8/3"
    assert rows[(1, 1, 1, 1)] == "4/1"


def test_young_identities(capsys):
    code, out = run_cli(["young", "identities", "--max-n", "12"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["pass"] is True


@pytest.mark.parametrize(
    "cls, change",
    [((1, 1, 1, 1, 1), lambda v: -v), ((2, 2, 1), lambda v: v + 1)],
    ids=["identity-value", "row-norm"],
)
def test_young_characters_can_fail(cls, change, capsys, monkeypatch):
    # One wrong value in the printed table: a negated dimension keeps the row
    # norm but not chi(identity) = dim; any other shift breaks the norm n!.
    real = young.character

    def patched(lam, cycles):
        value = real(lam, cycles)
        return change(value) if (lam, cycles) == ((3, 2), cls) else value

    monkeypatch.setattr(young, "character", patched)
    code, out = run_cli(["young", "characters", "--n", "5"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_hellman_csv(capsys):
    code, out = run_cli(
        ["hellman", "--log-n", "10", "--t", "16", "--t", "32", "--trials", "2", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,t,s_entries,s_bits,t_max,t_avg,success,st_product"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[6] == "1.0"


def test_determinism_byte_identical(capsys):
    argv = ["game", "--n", "3", "--p", "1", "--t", "1", "--seed", "5"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second
    argv = ["avgbound", "--n", "4", "--k", "1", "--samples", "10", "--seed", "3"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["grover", "--n", "16", "--t", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["pass"] is True
    assert abs(payload["report"]["p_simulated"] - payload["report"]["p_formula"]) <= 1e-9


def test_csv_unavailable_outside_hellman(capsys):
    code = cli.main(["spectrum", "--n", "3", "--format", "csv"])
    capsys.readouterr()
    assert code == 2


def test_csv_refused_before_any_work(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the suite ran before the format check")

    monkeypatch.setattr(regrep, "decomposition_report", must_not_run)
    code = cli.main(["decomp-check", "--n", "5", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: csv output is only available for the hellman subcommand\n"


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_refused_before_any_work(where, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the suite ran before --out was opened")

    monkeypatch.setattr(regrep, "decomposition_report", must_not_run)
    out = tmp_path / where
    code = cli.main(["decomp-check", "--n", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and str(out) in captured.err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_capacity_error_exit_2(capsys):
    code = cli.main(["spectrum", "--n", "9"])
    capsys.readouterr()
    assert code == 2


def test_failing_report_exits_1(capsys):
    class FakeArgs:
        command = "spectrum"
        format = "json"
        out = None

    code = cli._emit(FakeArgs(), {"detail": "bad"}, passed=False)
    capsys.readouterr()
    assert code == 1


def test_text_format(capsys):
    code, out = run_cli(["young", "dims", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert "schema_version: 1" in out
    assert "sum_of_squares: 6" in out


def test_altgame_cli(capsys):
    code, out = run_cli(
        ["altgame", "--n", "3", "--t", "1", "--g", "2", "--adversaries", "2", "--seed", "0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    games = payload["report"]["games"]
    assert len(games) == 2
    assert all(g["pass"] for g in games)


def test_criterion_01_can_fail(capsys, monkeypatch):
    # e on (2, 1) off by 1/N: neither the readout nor D M == D C_f holds.
    real = young.eigenvalue_m
    monkeypatch.setattr(
        young, "eigenvalue_m", lambda lam: real(lam) + (Fraction(1, 3) if lam == (2, 1) else 0)
    )
    code, out = run_cli(["spectrum", "--n", "3"], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["report"]["central_residual"] > 0


def test_criterion_08_can_fail(capsys, monkeypatch):
    # The spectral formula read with squared eigenvalues: p_i^(2 rounds), so
    # one round is raised to rounds + 1.
    real = np.linalg.eigh

    def squared(a):
        w, u = real(a)
        return w**2, u

    monkeypatch.setattr(np.linalg, "eigh", squared)
    code, out = run_cli(["altgame", "--n", "3", "--t", "1", "--g", "3", "--adversaries", "2"], capsys)
    games = json.loads(out)["report"]["games"]
    assert code == 1
    assert all(g["max_disagreement"] > 1e-7 for g in games)


def test_criterion_07_can_fail(capsys, monkeypatch):
    # Final rows read without their guard term: sqrt(p_succ) <= high mass
    # alone, which random programs at n = 5 break by about 0.033.
    real = querysim._inequality_row

    def unguarded(y, kind, k, lhs, base, den, scale):
        return real(y, kind, k, lhs, base, den, 0.0 if kind == "final" else scale)

    monkeypatch.setattr(querysim, "_inequality_row", unguarded)
    _, rep = querysim.check_progress_inequalities(querysim.random_program(5, 0, 1, seed=0))
    finals = [r.slack for r in rep.rows if r.kind == "final"]
    assert rep.passed is False
    assert -0.034 < min(finals) < -0.032
    code, out = run_cli(["lemma-check", "--n", "5", "--p", "0", "--t", "1", "--programs", "1"], capsys)
    assert code == 1 and json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "curve, r2_passes",
    [
        (lambda n, t: (t + 1) / n, False),
        (lambda n, t: 2 * t / n, False),
        (lambda n, t: (2 * t + 1) / n**0.5, True),
    ],
    ids=["(t+1)/n", "2t/n", "sqrt-of-model"],
)
def test_criterion_09_can_fail_on_classical_scaling(curve, r2_passes, capsys, monkeypatch):
    # Simulation and closed form agree on every grid point, so only the fit
    # can fail; the last curve is an exact power law of slope 1/2, which the
    # R^2 gate alone would pass.
    monkeypatch.setattr(querysim, "grover_invert", lambda n, t: (curve(n, t), curve(n, t)))
    code, out = run_cli(["grover", "--grid"], capsys)
    fit = json.loads(out)["report"]["scaling_fit"]
    assert code == 1
    assert (fit["r2_loglog"] >= 0.999) is r2_passes
    assert fit["slope"] < 0.9


def test_lemma_check_cli(capsys):
    code, out = run_cli(
        ["lemma-check", "--n", "4", "--p", "0", "--t", "1", "--programs", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["max_support_residual"] <= 1e-8


def test_lemma_check_plays_each_game_once(capsys, monkeypatch):
    # One postselection per program: the inequality check reuses the game.
    calls = []

    def counting(state):
        calls.append(1)
        return postselect_b0(state)

    postselect_b0 = querysim.postselect_b0
    monkeypatch.setattr(querysim, "postselect_b0", counting)
    code, _ = run_cli(["lemma-check", "--n", "3", "--programs", "3"], capsys)
    assert code == 0
    assert len(calls) == 3


def test_lemma_check_drops_each_program_before_the_next_draw(capsys, monkeypatch):
    # A program at n = 5, w = 8 holds about 15 MB of unitaries; only one may
    # be alive at a time.
    drawn = []

    def tracking(*args, **kwargs):
        assert all(ref() is None for ref in drawn), "the previous program is still alive"
        program = random_program(*args, **kwargs)
        drawn.append(weakref.ref(program))
        return program

    random_program = querysim.random_program
    monkeypatch.setattr(querysim, "random_program", tracking)
    code, _ = run_cli(["lemma-check", "--n", "3", "--programs", "3"], capsys)
    assert code == 0
    assert len(drawn) == 3


@pytest.mark.parametrize("challenge", ["4", "-1"])
def test_game_refuses_an_out_of_range_challenge_before_the_draw(challenge, capsys, monkeypatch):
    # Drawing the program can take seconds; the range is known from --n.
    def refuse(*args, **kwargs):
        raise AssertionError("a program was drawn before the challenge was checked")

    monkeypatch.setattr(querysim, "random_program", refuse)
    code = cli.main(["game", "--n", "4", "--challenge", challenge])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: challenge must be 'all' or in range(4), got {int(challenge)}\n"


def test_altgame_drops_each_adversary_before_the_next_draw(capsys, monkeypatch):
    # An adversary at n = 6 is an (N!, N, N^2, N^2) array of 89.6 MB; only
    # one may be alive at a time.
    drawn = []

    def tracking(*args, **kwargs):
        assert all(ref() is None for ref in drawn), "the previous adversary is still alive"
        proj = random_query_adversary(*args, **kwargs)
        drawn.append(weakref.ref(proj))
        return proj

    random_query_adversary = querysim.random_query_adversary
    monkeypatch.setattr(querysim, "random_query_adversary", tracking)
    code, _ = run_cli(["altgame", "--n", "3", "--t", "1", "--g", "2", "--adversaries", "3"], capsys)
    assert code == 0
    assert len(drawn) == 3


def test_decomp_check_cli(capsys):
    code, out = run_cli(["decomp-check", "--n", "4", "--trials", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["decomposition"]["pass"] is True
    assert payload["report"]["change_of_challenge"]["pass"] is True


def run_decomp_check_n4(capsys) -> dict:
    """decomp-check --n 4 must fail; returns its decomposition report."""
    code, out = run_cli(["decomp-check", "--n", "4"], capsys)
    payload = json.loads(out)
    assert code == 1
    assert payload["pass"] is False
    assert payload["report"]["decomposition"]["pass"] is False
    return payload["report"]["decomposition"]


@pytest.mark.parametrize(
    "name, rows",
    [
        ("predicted_a_dim", "a_dims"),
        ("predicted_high_rank", "high_ranks"),
        ("predicted_low_rank", "low_ranks"),
    ],
)
def test_decomp_check_fails_on_a_wrong_prediction(name, rows, capsys, monkeypatch):
    exact = getattr(regrep, name)
    monkeypatch.setattr(regrep, name, lambda *args: exact(*args) + 1)
    report = run_decomp_check_n4(capsys)
    for key in ("a_dims", "high_ranks", "low_ranks"):
        assert all(row["ok"] is (key != rows) for row in report[key]), key
    assert report["chain_residual"] == 0
    assert report["complement_residual"] == 0


def _with_a_row_of_the_next_level(level: int, challenge: int):
    """regrep._image_set_rows with row 0 of A_level^challenge replaced by
    row 0 of A_{level+1}.  At n = 4 every indicator of A_{level+1} lies
    outside A_level: both spaces are closed under the two-sided action,
    which is transitive on the (level+1)-assignments, so one inside would
    put all of A_{level+1}, the larger space, inside A_level."""
    exact = regrep._image_set_rows

    def replaced(n, k, y=None):
        rows = exact(n, k, y)
        if (k, y) == (level, challenge):
            rows = rows.copy()
            rows[0] = exact(n, k + 1)[0]
        return rows

    return replaced


def test_decomp_check_fails_on_a_wrong_containment(capsys, monkeypatch):
    # D P_0 and every N! P_{A_k} are certified first, so only the chain read
    # sees one image-set row of A_2^1 replaced by e_0, the image-set row of
    # A_3 (all of C^24 at n = 4) for {0, 1, 2}, outside A_2.  Dimensions
    # stay as certified.
    n = 4
    regrep.spectrum(n)
    assert np.array_equal(regrep._image_set_rows(n, 3)[0], np.eye(24, dtype=np.int8)[0])
    monkeypatch.setattr(regrep, "_image_set_rows", _with_a_row_of_the_next_level(2, 1))
    report = run_decomp_check_n4(capsys)
    assert report["chain_residual"] > 0
    assert report["complement_residual"] == 0
    assert all(row["ok"] for key in ("a_dims", "high_ranks", "low_ranks") for row in report[key])


def test_decomp_check_fails_on_an_incomplete_complement(capsys, monkeypatch):
    # The column of D L_2 with the entries of some pi and pi^-1 != pi moved
    # by 1: still symmetric with the same trace, but D P_2 + D L_2 misses D I
    # by 1.
    exact = regrep._scaled_low
    inv = regrep._inverses(4)
    k = int(np.flatnonzero(inv != np.arange(inv.size))[0])

    def nudged(n, y):
        low = exact(n, y)
        if y != 2:
            return low
        low = low.copy()
        low[[k, inv[k]]] += 1
        return low

    monkeypatch.setattr(regrep, "_scaled_low", nudged)
    report = run_decomp_check_n4(capsys)
    assert report["complement_residual"] == 1 / regrep._scale(4)
    assert report["chain_residual"] == 0
    assert all(row["ok"] for key in ("a_dims", "high_ranks", "low_ranks") for row in report[key])


def _wrong_character(monkeypatch):
    real = young.character
    monkeypatch.setattr(
        young, "character", lambda lam, ct: real(lam, ct) + ((lam, ct) == ((3, 1), (2, 1, 1)))
    )


def _dropped_rho(monkeypatch):
    # The first corner of (2, 2, 1) dropped: D P_0 misses its high branch
    # (2, 1, 1), the one of rho = (1, 1) for theta = (2, 1).
    real = young.removable
    monkeypatch.setattr(young, "removable", lambda lam: real(lam)[1:] if lam == (2, 2, 1) else real(lam))


def _wrong_level_set(monkeypatch):
    # (2, 2) counted at level 3: N! P_{A_2} misses its block.
    real = young.level
    monkeypatch.setattr(young, "level", lambda lam: real(lam) + (lam == (2, 2)))


def _vector_of_the_next_level(monkeypatch):
    # One image-set row of A_1^0 replaced by one of A_2, outside A_1.
    monkeypatch.setattr(regrep, "_image_set_rows", _with_a_row_of_the_next_level(1, 0))


@pytest.mark.parametrize(
    "mutate, n, reason",
    [
        (_wrong_character, 4, r"a_projector\(4, 1\): \(b\)"),
        (_dropped_rho, 5, r"high_projection\(5, 0\): \(c\) trace"),
        (_wrong_level_set, 4, r"a_projector\(4, 2\): \(c\) trace"),
        (_vector_of_the_next_level, 4, r"high_projection\(4, 0\): some A_i\^0 is not inside A_i"),
    ],
    ids=["wrong-character", "dropped-rho", "wrong-level-set", "vector-of-the-next-level"],
)
def test_projector_certificate_mutants_are_failing_verdicts(mutate, n, reason, fresh_caches, capsys, monkeypatch):
    mutate(monkeypatch)
    code, out = run_cli(["spectrum", "--n", str(n)], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert re.match("ArithmeticError: " + reason, payload["report"]["reason"]), payload["report"]["reason"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "perminv", "young", "dims", "--n", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["sum_of_squares"] == 24


def test_certification_failure_is_a_failing_verdict(capsys, monkeypatch):
    def refuse(rows):
        raise ArithmeticError("no integer kernel witness for rank 3: max |G @ K| = 1")

    # A fresh cache, so decomp-check --n 3 certifies its ranks in this test
    # even when an earlier test built them; monkeypatch restores both.
    monkeypatch.setattr(regrep, "subspace_a", cache(regrep.subspace_a.__wrapped__))
    monkeypatch.setattr(regrep, "exact_rank", refuse)
    code, out = run_cli(["decomp-check", "--n", "3"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    reason = "ArithmeticError: no integer kernel witness for rank 3: max |G @ K| = 1"
    assert payload["report"]["reason"] == reason


def test_failing_verdict_in_csv_goes_to_stderr(capsys, monkeypatch):
    # A CSV row has no field for the reason; it used to end in a TypeError
    # from sys.stdout.write(None).
    def refuse(*args, **kwargs):
        raise ArithmeticError("walk to 5 spent 9 queries, its cycle type predicts 8")

    monkeypatch.setattr(attacks, "tradeoff_sweep", refuse)
    code = cli.main(["hellman", "--log-n", "8", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "fail: ArithmeticError: walk to 5 spent 9 queries, its cycle type predicts 8\n"


@pytest.mark.parametrize(
    "argv",
    [["game", "--n", "4", "--challenge", "7"], ["altgame", "--n", "3", "--t", "-1"]],
)
def test_bad_input_exit_2(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["hellman", "--log-n", "8", "--sample", "0"], "--sample"),
        (["hellman", "--log-n", "8", "--sample", "-5"], "--sample"),
        (["hellman", "--log-n", "8", "--trials", "0"], "--trials"),
        (["hellman", "--log-n", "-1"], "--log-n"),
        (["hellman", "--log-n", "8", "--t", "64", "--t", "0"], "--t"),
        (["lemma-check", "--n", "3", "--programs", "0"], "--programs"),
        (["young", "identities", "--max-n", "0"], "--max-n"),
        (["altgame", "--n", "3", "--adversaries", "0"], "--adversaries"),
        (["decomp-check", "--n", "3", "--trials", "0"], "--trials"),
        (["young", "dims", "--n", "0"], "--n"),
        (["young", "characters", "--n", "0"], "--n"),
        (["young", "branching", "--n", "0"], "--n"),
        (["young", "eigenvalues", "--n", "0"], "--n"),
        (["altgame", "--n", "3", "--g", "0"], "--g"),
        (["game", "--n", "3", "--p", "-1"], "--p"),
        (["game", "--n", "3", "--t", "-2"], "--t"),
        (["lemma-check", "--n", "3", "--p", "-1"], "--p"),
        (["lemma-check", "--n", "3", "--t", "-2"], "--t"),
    ],
)
def test_empty_or_negative_count_exits_2(argv, flag, capsys, monkeypatch):
    # Each would otherwise check nothing and pass, or crash mid-run; a
    # negative game count used to draw the program first and then fail on
    # a query-count mismatch that named no flag.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a program was drawn before the flag check")

    monkeypatch.setattr(querysim, "random_program", must_not_run)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be >= ")


@pytest.mark.parametrize(
    "argv",
    [["decomp-check", "--n", "0"], ["avgbound", "--n", "0", "--k", "0"]],
)
def test_non_positive_n_is_refused_first(argv, capsys):
    # decomp-check used to crash inside max() and avgbound to blame --k.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: n must be a positive integer, got 0\n"


def test_non_integer_challenge_names_the_flag(capsys):
    # It used to exit 2 with int()'s own message, which names no flag.
    code = cli.main(["game", "--n", "3", "--challenge", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --challenge must be 'all' or an integer, got 'x'\n"


@pytest.mark.parametrize("command", ["lemma-check", "game"])
def test_program_over_budget_is_refused_before_any_draw(command, capsys, monkeypatch):
    # --n 6 --w 100 passes the state budget, but its unitaries hold
    # 207,360,000 complex entries (3.3 GB), which used to be drawn eagerly.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a unitary was drawn before the budget check")

    monkeypatch.setattr(querysim, "random_unitary", must_not_run)
    assert querysim.RegisterLayout(n=6, w=100).total_dim <= querysim.DEFAULT_BUDGET
    code = cli.main([command, "--n", "6", "--w", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: program unitaries hold 207360000 entries, exceeding budget 16777216\n"


def test_grover_search_register_over_budget_is_refused(capsys):
    # --n 4000000000 used to ask for a 32 GB state vector.
    code = cli.main(["grover", "--n", "16777217"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: search register of 16777217 items exceeds budget 16777216\n"


def test_altgame_g_refused_before_any_adversary(capsys, monkeypatch):
    # --g 0 used to build every adversary before alternating_game refused it.
    def must_not_run(*args, **kwargs):
        raise AssertionError("an adversary was built before the --g check")

    monkeypatch.setattr(querysim, "random_query_adversary", must_not_run)
    code = cli.main(["altgame", "--n", "6", "--g", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --g must be >= 1, got 0\n"
