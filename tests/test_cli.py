"""CLI contract: exit codes, schema, determinism, output routing."""

import argparse
import json
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    # character_table reads the Murnaghan-Nakayama recursion _mn directly.
    real = young._mn

    def patched(lam, cycles):
        value = real(lam, cycles)
        return change(value) if (lam, cycles) == ((3, 2), cls) else value

    monkeypatch.setattr(young, "_mn", patched)
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


def test_one_parser_leaks_nothing_between_parses():
    # build_parser is built once per process; each parse starts from its
    # defaults, so an appended --t list or another command's options do not
    # carry over.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["hellman", "--t", "16", "--t", "32"])
    assert first.t == [16, 32]
    assert parser.parse_args(["hellman"]).t is None
    assert parser.parse_args(["hellman", "--t", "8"]).t == [8] and first.t == [16, 32]
    assert not hasattr(parser.parse_args(["spectrum", "--n", "3"]), "t")


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


def test_json_is_written_in_batches_with_the_bytes_of_dumps(capsys):
    # 40,000 rows give the encoder several batches of 2^14 chunks.
    class FakeArgs:
        command = "young"
        format = "json"
        out = None

    report = {"rows": [{"lambda": [i, 1], "e": f"{i}/3"} for i in range(40000)], "none": None}
    assert cli._emit(FakeArgs(), report, passed=True) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["report"] == report and len(out) > 1 << 21
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", ["dims", "branching"])
def test_young_dims_and_branching_read_one_table_per_size(mode, capsys, monkeypatch):
    def broken(lam):
        raise AssertionError(lam)

    monkeypatch.setattr(young, "dim", broken)
    code, out = run_cli(["young", mode, "--n", "7"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_text_format(capsys):
    code, out = run_cli(["young", "dims", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert "schema_version: 1" in out
    assert "sum_of_squares: 6" in out


def test_text_format_renders_an_empty_container_in_place(capsys):
    # decomp-check --n 6 has no rank rows: each empty list reads [] on its
    # key's line, where it used to leave a blank line below it.
    code, out = run_cli(["decomp-check", "--n", "6", "--format", "text"], capsys)
    assert code == 0
    assert "\n    high_ranks: []\n    low_ranks: []\n" in out
    assert "\n\n" not in out
    assert cli._render_text({"a": {}, "b": [[], [1]]}) == "a: {}\nb:\n  - []\n  - - 1"


def test_text_format_marks_each_list_item(capsys):
    # Each item of a list has its own "- ", a nested one with its fields
    # indented under it: the rows of a list of lists, or of a list of
    # dicts, no longer run together.
    code, out = run_cli(["young", "characters", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert "\n  classes:\n    - - 3\n    - - 2\n      - 1\n    - - 1\n      - 1\n      - 1\n" in out
    assert out.count("\n    - lambda:\n") == 3
    assert "\n    - lambda:\n        - 2\n        - 1\n      values:\n        [3]: -1\n" in out
    assert cli._render_text([{"x": [4], "y": 5}, [[2, 3]], 6], 1) == (
        "  - x:\n      - 4\n    y: 5\n  - - - 2\n      - 3\n  - 6"
    )


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
    # e on (2, 1) off by 1/N: neither the readout nor N! M == N! C_f holds.
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
    code, out = run_cli(["decomp-check", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["decomposition"]["pass"] is True
    assert payload["report"]["change_of_challenge"] == {"n": 4, "max_commutation_residual": 0.0, "pass": True}
    assert payload["config"]["seed"] == 0 and "trials" not in payload["config"]
    # The change of challenge is proven, not sampled: it has no trial count.
    with pytest.raises(SystemExit) as exc:
        cli.main(["decomp-check", "--n", "4", "--trials", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err


def test_decomp_check_fails_on_a_high_projector_of_another_challenge(fresh_caches, capsys, monkeypatch):
    # The column of N! P_1 built as N! P_0, with the increments of (d)
    # dropped: it passes (a)-(c), and only (e) with Stab(0), which every
    # challenge relabeling rests on, refuses it.  At n = 6 decomp-check
    # reads N! P_0 first through the change of challenge.
    branch_sum = regrep._branch_sum
    monkeypatch.setattr(regrep, "_branch_sum", lambda n, y, branches: branch_sum(n, y or 1, branches))
    monkeypatch.setattr(regrep, "_high_increments", lambda n: [])
    code, out = run_cli(["decomp-check", "--n", "6"], capsys)
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    reason = "ArithmeticError: high_projection(6, 0): (e) does not commute with left multiplication by Stab(0)"
    assert payload["report"] == {"reason": reason}


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
    assert report["complement_residual"] == 0


def _with_the_vector_of_the_next_level(level: int, challenge: int):
    """regrep._indicator with the vector of A_level^challenge replaced by
    that of A_{level+1}.  At n = 4 every indicator of A_{level+1} lies
    outside A_level: both spaces are closed under the two-sided action,
    which is transitive on the (level+1)-assignments, so one inside would
    put all of A_{level+1}, the larger space, inside A_level."""
    exact = regrep._indicator

    def replaced(n, k, y=None):
        return exact(n, k + 1) if (k, y) == (level, challenge) else exact(n, k, y)

    return replaced


def test_decomp_check_fails_on_an_incomplete_complement(capsys, monkeypatch):
    # The column of N! L_0 with the entries of some pi and pi^-1 != pi moved
    # by 1: still symmetric with the same trace, but N! P_0 + N! L_0 misses
    # N! I by 1, and so every relabeling of it.
    exact = regrep._scaled_low_0(4)
    inv = regrep._inverses(4)
    k = int(np.flatnonzero(inv != np.arange(inv.size))[0])
    nudged = exact.copy()
    nudged[[k, inv[k]]] += 1
    monkeypatch.setattr(regrep, "_scaled_low_0", lambda n: nudged)
    report = run_decomp_check_n4(capsys)
    assert report["complement_residual"] == 1 / 24
    assert all(row["ok"] for key in ("a_dims", "high_ranks", "low_ranks") for row in report[key])


def _wrong_character(monkeypatch):
    # The counts read the characters too: chi_(3, 1) no longer sums to 0
    # over S_4, so A_0 is counted with the block of (3, 1), 1 + 9 = 10.
    # The Stab(0) sum of N! P_0, built first, is then no multiple of 3!.
    real = young._mn
    monkeypatch.setattr(young, "_mn", lambda lam, ct: real(lam, ct) + ((lam, ct) == ((3, 1), (2, 1, 1))))


def _dropped_rho(monkeypatch):
    # The first corner of (2, 2, 1) dropped: N! P_0 misses its high branch
    # (2, 1, 1), the one of rho = (1, 1) for theta = (2, 1), and its Stab(0)
    # sum is no multiple of 4!.
    real = young.removable
    monkeypatch.setattr(young, "removable", lambda lam: real(lam)[1:] if lam == (2, 2, 1) else real(lam))


def _wrong_level_set(monkeypatch):
    # (2, 2) counted at level 3: N! P_{A_2} misses its block.
    real = young.level
    monkeypatch.setattr(young, "level", lambda lam: real(lam) + (lam == (2, 2)))


def _vector_of_the_next_level(monkeypatch):
    # The vector of A_1^0 replaced by that of A_2, outside A_1, after the
    # counts of A_k^0 are taken: only certificate (d) of N! P_0 reads it.
    for k in range(4):
        regrep.subspace_a_y(4, k, 0)
    monkeypatch.setattr(regrep, "_indicator", _with_the_vector_of_the_next_level(1, 0))


def _stabilizer_of_one_more_point(monkeypatch):
    # Each count sums over the pointwise stabilizer of one point too many,
    # so A_0 is counted as A_1.
    real = regrep._fixing

    def fixing(n, points):
        return real(n, [*points, min(set(range(n)) - set(points))])

    monkeypatch.setattr(regrep, "_fixing", fixing)


def _dropped_pair(monkeypatch):
    # The count of every A_k^y skips the pair lam = (3, 1), mu = (2, 1): its
    # entry of the (lam, mu) sums is zeroed.
    real = regrep._spanned_dim
    pair = young.partitions(4).index((3, 1)), young.partitions(3).index((2, 1))

    def dropped(sums, n, m):
        if (n, m) == (4, 3):
            sums = sums.copy()
            sums[pair] = 0
        return real(sums, n, m)

    monkeypatch.setattr(regrep, "_spanned_dim", dropped)


@pytest.mark.parametrize(
    "mutate, n, reason",
    [
        (_wrong_character, 4, r"branch sum over Stab\(0\): not a multiple of \(4-1\)! = 6$"),
        (_dropped_rho, 5, r"branch sum over Stab\(0\): not a multiple of \(5-1\)! = 24$"),
        (_wrong_level_set, 4, r"a_projector\(4, 2\): \(c\) trace"),
        (_vector_of_the_next_level, 4, r"high_projection\(4, 0\): \(d\) moves a vector its range must hold"),
        (_stabilizer_of_one_more_point, 4, r"a_projector\(4, 0\): \(c\) trace 24 is not 24 \* rank 10"),
        (_dropped_pair, 4, r"high_projection\(4, 0\): \(c\) trace"),
    ],
    ids=[
        "wrong-character",
        "dropped-rho",
        "wrong-level-set",
        "vector-of-the-next-level",
        "stabilizer-of-one-more-point",
        "dropped-pair",
    ],
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
    def refuse(*args):
        raise ArithmeticError("dimension count refused")

    # A fresh cache, so decomp-check --n 3 counts its dimensions in this
    # test even when an earlier test counted them; monkeypatch restores both.
    monkeypatch.setattr(regrep, "subspace_a", cache(regrep.subspace_a.__wrapped__))
    monkeypatch.setattr(regrep, "_spanned_dim", refuse)
    code, out = run_cli(["decomp-check", "--n", "3"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    reason = "ArithmeticError: dimension count refused"
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
        (["altgame", "--n", "3", "--t", "-1"], "--t"),
        (["young", "dims", "--n", "0"], "--n"),
        (["young", "characters", "--n", "0"], "--n"),
        (["young", "branching", "--n", "0"], "--n"),
        (["young", "eigenvalues", "--n", "0"], "--n"),
        (["altgame", "--n", "3", "--g", "0"], "--g"),
        (["game", "--n", "3", "--p", "-1"], "--p"),
        (["game", "--n", "3", "--t", "-2"], "--t"),
        (["lemma-check", "--n", "3", "--p", "-1"], "--p"),
        (["lemma-check", "--n", "3", "--t", "-2"], "--t"),
        (["avgbound", "--n", "3", "--k", "1", "--samples", "0"], "--samples"),
        (["grover", "--n", "1"], "--n"),
        (["grover", "--t", "-1"], "--t"),
        (["game", "--n", "3", "--w", "0"], "--w"),
        (["lemma-check", "--n", "3", "--w", "0"], "--w"),
    ],
)
def test_empty_or_negative_count_exits_2(argv, flag, capsys, monkeypatch):
    # Each would otherwise check nothing and pass, or crash mid-run; a
    # negative game count used to draw the program first and then fail on
    # a query-count mismatch that named no flag.  --samples, grover's --n
    # and --t, and --w (inside random_program) were refused by the library
    # in words that name no flag.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a program was drawn before the flag check")

    monkeypatch.setattr(querysim, "random_program", must_not_run)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be >= ")


class _Enumerated(Exception):
    """Raised by a young.partitions patched to stand for the enumeration."""


def _enumeration(n):
    raise _Enumerated(n)


@pytest.mark.parametrize(
    "mode, flag, high",
    [
        ("dims", "--n", 40),
        ("branching", "--n", 40),
        ("eigenvalues", "--n", 40),
        ("identities", "--max-n", 40),
        ("characters", "--n", 20),
    ],
)
def test_young_size_past_its_bound_exits_2(mode, flag, high, capsys, monkeypatch):
    # Past the bound the enumeration would take minutes or run out of
    # memory; it is refused before young.partitions is called.  At the bound
    # the enumeration starts.
    monkeypatch.setattr(young, "partitions", _enumeration)
    code = cli.main(["young", mode, flag, str(high + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be <= {high}, got {high + 1}\n"
    with pytest.raises(_Enumerated):
        cli.main(["young", mode, flag, str(high)])


class _Reached(Exception):
    """Raised by a work function patched to stand for the work."""


@pytest.mark.parametrize(
    "module, work, argv, flag, refused, bound",
    [
        # 2^31 used to exit 1 with an OverflowError from the int32 walk.
        (attacks, "tradeoff_sweep", ["hellman", "--log-n", "4", "--trials", "1", "--t"], "--t", 2**31, 2**31 - 1),
        # the draw holds 2 * samples * N! floats: 2^24 // (2 * 720) at N = 6
        (regrep, "avg_bound_check", ["avgbound", "--n", "6", "--k", "3", "--samples"], "--samples", 11651, 11650),
        # t * max(n, 2048) <= 2^31
        (querysim, "grover_invert", ["grover", "--n", "2", "--t"], "--t", 2**20 + 1, 2**20),
        (querysim, "grover_invert", ["grover", "--n", str(2**24), "--t"], "--t", 129, 128),
        # 1 << 2^63 used to end in a bare MemoryError, "error: " and no more,
        # and 2^21 points in attacks' "n capped at 2^20", which names no flag.
        (attacks, "tradeoff_sweep", ["hellman", "--log-n"], "--log-n", 2**63, 20),
        (attacks, "tradeoff_sweep", ["hellman", "--log-n"], "--log-n", 21, 20),
        # A negative seed used to reach numpy, whose "expected non-negative
        # integer" names no flag.
        (querysim, "random_program", ["lemma-check", "--n", "3", "--seed"], "--seed", -1, 0),
        (querysim, "random_program", ["game", "--n", "3", "--seed"], "--seed", -1, 0),
        (querysim, "random_query_adversary", ["altgame", "--n", "3", "--seed"], "--seed", -1, 0),
        (regrep, "avg_bound_check", ["avgbound", "--n", "3", "--k", "1", "--seed"], "--seed", -1, 0),
        (attacks, "tradeoff_sweep", ["hellman", "--log-n", "4", "--seed"], "--seed", -1, 0),
        # Each count loops over whole runs, so 2^63 used to loop for ever.
        (querysim, "random_program", ["lemma-check", "--n", "3", "--programs"], "--programs", 257, 256),
        (querysim, "random_query_adversary", ["altgame", "--n", "3", "--adversaries"], "--adversaries", 257, 256),
        (attacks, "tradeoff_sweep", ["hellman", "--log-n", "4", "--trials"], "--trials", 101, 100),
        (querysim, "random_query_adversary", ["altgame", "--n", "3", "--t"], "--t", 101, 100),
        # --g 2^63 used to draw the adversary and then fail in numpy's
        # "Maximum allowed dimension exceeded".
        (querysim, "random_query_adversary", ["altgame", "--n", "2", "--g"], "--g", 2**63, 1000),
        (attacks, "tradeoff_sweep", ["hellman", "--log-n", "4", "--sample"], "--sample", 2**20 + 1, 2**20),
        (querysim, "random_program", ["game", "--n", "3", "--w"], "--w", 2**24 + 1, 2**24),
        (querysim, "random_program", ["lemma-check", "--n", "3", "--seed"], "--seed", 2**64, 2**64 - 1),
        # The library refused these in words that name no flag.
        (regrep, "avg_bound_check", ["avgbound", "--n", "4", "--k"], "--k", 9, 3),
        (regrep, "spectrum", ["spectrum", "--n"], "--n", 7, 6),
    ],
    ids=[
        "hellman-t",
        "avgbound-samples",
        "grover-t-small-n",
        "grover-t-largest-n",
        "hellman-log-n-2^63",
        "hellman-log-n-21",
        "lemma-check-seed",
        "game-seed",
        "altgame-seed",
        "avgbound-seed",
        "hellman-seed",
        "lemma-check-programs",
        "altgame-adversaries",
        "hellman-trials",
        "altgame-t",
        "altgame-g-2^63",
        "hellman-sample",
        "game-w",
        "lemma-check-seed-2^64",
        "avgbound-k",
        "spectrum-n",
    ],
)
def test_work_flag_past_its_bound_exits_2(module, work, argv, flag, refused, bound, capsys, monkeypatch):
    # Past the bound the run would overflow, allocate past the budget, loop
    # for minutes or fail with a message that names no flag; it is refused
    # before the work function is called, so this test allocates and loops
    # nothing.  At the bound the work starts.
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(module, work, reached)
    code = cli.main([*argv, str(refused)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    side = "<=" if refused > bound else ">="
    assert captured.err == f"error: {flag} must be {side} {bound}, got {refused}\n"
    with pytest.raises(_Reached):
        cli.main([*argv, str(bound)])


def _subparsers() -> dict:
    """Each subcommand's parser, read off the CLI's own parser."""
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_integer_flag_has_a_declared_range():
    for command, parser in _subparsers().items():
        flags = {a.dest for a in parser._actions if a.type is int}
        assert flags == set(parser.get_default("ranges")), command


_INT_FLAGS = [(c, a) for c, p in _subparsers().items() for a in p._actions if a.type is int]

# Every function that does a subcommand's work, patched to raise: no value
# tried below allocates, draws or loops.
_WORK = [
    (regrep, "spectrum"),
    (regrep, "avg_bound_check"),
    (regrep, "decomposition_report"),
    (querysim, "random_program"),
    (querysim, "random_query_adversary"),
    (querysim, "grover_invert"),
    (attacks, "tradeoff_sweep"),
    (young, "identities_report"),
    (young, "partitions"),
]


@pytest.mark.parametrize("command, action", _INT_FLAGS, ids=[f"{c}{a.option_strings[0]}" for c, a in _INT_FLAGS])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_integer_flag_outside_its_range_exits_2_and_inside_reaches_the_work(command, action, data, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    for module, work in _WORK:
        monkeypatch.setattr(module, work, reached)
    parser = _subparsers()[command]
    ranges = parser.get_default("ranges")
    # A positional choice drawn, every other flag at its default, and a
    # required one at the low end of its range.
    argv = [command]
    for a in parser._actions:
        if not a.option_strings and a.choices:
            argv.append(data.draw(st.sampled_from(a.choices)))
        elif a.required:
            argv += [a.option_strings[0], str(ranges[a.dest][0])]
    flag = action.option_strings[0]
    low, high = ranges[action.dest]
    if callable(high):
        high = high(cli.build_parser().parse_args([*argv, flag, str(low)]))
    drawn = data.draw(st.integers(low - 2, high + 2), label="value")
    for value in (-1, 0, 2**31, 2**63, low - 1, low, high, high + 1, drawn):
        if low <= value <= high:
            with pytest.raises(_Reached):
                cli.main([*argv, flag, str(value)])
            continue
        code = cli.main([*argv, flag, str(value)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        side, bound = (">=", low) if value < low else ("<=", high)
        assert captured.err == f"error: {flag} must be {side} {bound}, got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [["hellman", "--log-n", "99"], ["avgbound", "--n", "4", "--k", "9"]],
)
def test_refused_flag_leaves_an_existing_out_file_unchanged(argv, tmp_path, capsys):
    # --out used to be opened, and so emptied, before the handler refused
    # the flag.
    out = tmp_path / "report"
    out.write_bytes(b"n,t\n4096,64\n")
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {argv[-2]} must be <= ")
    assert out.read_bytes() == b"n,t\n4096,64\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["game", "--n", "3", "--challenge", "7"], "error: challenge must be 'all' or in range(3), got 7"),
        (["game", "--n", "3", "--challenge", "x"], "error: --challenge must be 'all' or an integer, got 'x'"),
        (["lemma-check", "--n", "6", "--w", "100"], "error: program unitaries hold "),
    ],
    ids=["challenge-7", "challenge-x", "budget"],
)
def test_refusal_inside_a_handler_leaves_an_existing_out_file_unchanged(argv, err, tmp_path, capsys):
    # These refusals come from the handlers, after --out is opened.
    out = tmp_path / "report"
    out.write_bytes(b"n,t\n4096,64\n")
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(err)
    assert out.read_bytes() == b"n,t\n4096,64\n"


def test_out_file_is_replaced_by_the_report_or_emptied_by_a_csv_failure(tmp_path, capsys, monkeypatch):
    # The file is opened without truncation; a shorter report must still
    # leave none of the longer file's bytes behind.
    out = tmp_path / "report"
    out.write_bytes(b"x" * 100_000)
    assert cli.main(["grover", "--n", "16", "--t", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True

    def refuse(*args, **kwargs):
        raise ArithmeticError("walk to 5 spent 9 queries, its cycle type predicts 8")

    monkeypatch.setattr(attacks, "tradeoff_sweep", refuse)
    assert cli.main(["hellman", "--log-n", "8", "--trials", "1", "--out", str(out)]) == 1
    assert out.read_bytes() == b""
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["decomp-check", "--n", "0"], ["avgbound", "--n", "0", "--k", "0"]],
)
def test_non_positive_n_is_refused_first(argv, capsys):
    # decomp-check used to crash inside max() and avgbound to blame --k;
    # later the library refused it in words that named no flag.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --n must be >= 1, got 0\n"


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
    assert captured.err == "error: --n must be <= 16777216, got 16777217\n"


def test_altgame_g_refused_before_any_adversary(capsys, monkeypatch):
    # --g 0 used to build every adversary before alternating_game refused it.
    def must_not_run(*args, **kwargs):
        raise AssertionError("an adversary was built before the --g check")

    monkeypatch.setattr(querysim, "random_query_adversary", must_not_run)
    code = cli.main(["altgame", "--n", "6", "--g", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --g must be >= 1, got 0\n"
