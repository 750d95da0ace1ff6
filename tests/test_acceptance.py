"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line once its assertions have gone through, so a
verbose run reads as a criterion-by-criterion checklist.  Several criteria
share the cached N = 6 operator builds; the whole module is expected to
finish in a few minutes.
"""

import json
import time
from fractions import Fraction
from math import factorial

import numpy as np

from perminv import attacks, cli, querysim, regrep, young


def test_criterion_01_spectrum_n3_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["spectrum", "--n", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    observed = {}
    for block in payload["report"]["blocks"]:
        observed[block["e_predicted"]] = (block["e_observed"], block["mult_observed"])
    assert abs(observed["0/1"][0] - 0.0) <= 1e-6 and observed["0/1"][1] == 1
    assert abs(observed["3/2"][0] - 1.5) <= 1e-6 and observed["3/2"][1] == 4
    assert abs(observed["3/1"][0] - 3.0) <= 1e-6 and observed["3/1"][1] == 1
    assert elapsed < 1.0, f"spectrum --n 3 took {elapsed:.2f}s"
    print(f"criterion 1 PASS: n=3 spectrum is {{0 x1, 3/2 x4, 3 x1}} in {elapsed:.2f}s")


def test_criterion_02_spectrum_formula_equality():
    for n in (3, 4, 5, 6):
        rep = regrep.spectrum(n)
        assert rep.passed, f"spectrum mismatch at n={n}"
        assert rep.central_residual == 0
        for block in rep.blocks:
            assert block.ok
            assert abs(block.e_observed - float(block.e_predicted)) <= 1e-6
    print("criterion 2 PASS: spectra match the eigenvalue formula for n = 3..6")


def test_criterion_03_average_bound():
    lines = []
    for n in (4, 5, 6):
        for k in range(0, 4):
            rep = regrep.avg_bound_check(n, k, samples=100, seed=0)
            assert rep.passed, f"average bound failed at n={n}, k={k}"
            assert abs(rep.exact_max - float(rep.predicted_max)) <= 1e-6
            assert rep.exact_max <= 2 * k / n + 1e-9
            assert rep.sample_max <= 2 * k / n + 1e-9
            lines.append(f"n={n} k={k} max={rep.exact_max:.6f} slack={rep.sample_slack:.4f}")
    print("criterion 3 PASS: average bound holds; " + "; ".join(lines))


def test_criterion_04_decomposition_dimensions():
    for n in range(2, 7):
        rep = regrep.decomposition_report(n)
        for row in rep.a_dims:
            assert row["dim"] == row["predicted"], (n, row)
    for n in (3, 4, 5):
        rep = regrep.decomposition_report(n)
        assert rep.passed
        for row in rep.high_ranks:
            assert row["rank"] == row["predicted"] == row["trace"], (n, row)
        for row in rep.low_ranks:
            assert row["rank"] == row["predicted"] == row["trace"], (n, row)
    print("criterion 4 PASS: dim A_k and high/low ranks equal the branching formulas")


def test_criterion_05_exact_identities_to_30():
    start = time.perf_counter()
    report = young.identities_report(30)
    elapsed = time.perf_counter() - start
    assert report["pass"], report
    assert not report["branching_failures"]
    assert not report["burnside_failures"]
    assert not report["ratio_failures"]
    assert not report["eigenvalue_failures"]
    assert not report["orthogonality_failures"]
    assert elapsed < 30.0, f"identity sweep took {elapsed:.1f}s"
    print(
        f"criterion 5 PASS: exact identities to n=30 "
        f"({report['ratio_checked']} ratio checks, {elapsed:.1f}s)"
    )


def test_criterion_06_support_residuals():
    shapes = [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 0), (1, 1)]
    worst = 0.0
    count = 0
    for n in (4, 5):
        for i, (p, t) in enumerate(shapes):
            program = querysim.random_program(n, p, t, seed=100 * n + i)
            transcript = querysim.run_bit_fixing(program)
            assert transcript.lemma_checks, "no queries made"
            for row in transcript.lemma_checks:
                assert row["residual"] <= 1e-8, (n, p, t, row)
                worst = max(worst, row["residual"])
            count += 1
    assert count == 20
    print(f"criterion 6 PASS: support residual <= 1e-8 after every query (worst {worst:.2e})")


def test_criterion_07_progress_inequalities():
    shapes = [(0, 1), (0, 2), (1, 1), (1, 2), (1, 0)]
    checked = 0
    vacuous = 0
    count = 0
    for n in (5, 6):
        for i in range(10):
            p, t = shapes[i % len(shapes)]
            program = querysim.random_program(n, p, t, seed=1000 * n + i)
            _, rep = querysim.check_progress_inequalities(program)
            assert rep.passed, (n, p, t, i)
            for row in rep.rows:
                if row.checked:
                    assert row.slack >= -1e-9
            checked += rep.checked
            vacuous += rep.vacuous
            count += 1
    assert count == 20
    assert checked > 0
    print(
        f"criterion 7 PASS: progress inequalities hold on {checked} instances "
        f"({vacuous} vacuous at these sizes)"
    )


def test_criterion_08_alternating_game():
    worst = 0.0
    for i in range(10):
        t = i % 2
        proj = querysim.random_query_adversary(3, t, seed=i)
        rep = querysim.alternating_game(proj, g=3, t=t, seed=i)
        assert rep.max_disagreement <= 1e-7, (i, rep.max_disagreement)
        assert rep.jensen_ok
        assert rep.monotone
        for g_idx in range(3):
            assert rep.simulated[g_idx] >= rep.simulated[0] ** (g_idx + 1) - 1e-9
        worst = max(worst, rep.max_disagreement)
    print(f"criterion 8 PASS: alternating game matches the spectral formula (worst {worst:.2e})")


def test_criterion_09_grover():
    p_sim, p_formula = querysim.grover_invert(4, 1)
    assert p_sim == 1.0 and abs(p_formula - 1.0) <= 1e-12
    for n in (2, 3, 4, 5, 8, 16, 64, 256, 1024):
        for t in (0, 1, 2, 5, 10, 25):
            s, f = querysim.grover_invert(n, t)
            assert abs(s - f) <= 1e-9, (n, t)
    fit = querysim.grover_scaling_fit()
    assert fit["r2_loglog"] >= 0.999, fit
    assert 0.9 <= fit["slope"] <= 1.1, fit
    print(
        f"criterion 9 PASS: simulation equals the closed form on the grid; "
        f"quadratic-scaling fit slope {fit['slope']:.3f}, R^2 = {fit['r2_loglog']:.5f}"
    )


def test_criterion_10_hellman_sweep():
    n = 1 << 14
    start = time.perf_counter()
    rows = attacks.tradeoff_sweep(n, [64, 128, 256, 512], trials=3, seed=0)
    elapsed = time.perf_counter() - start
    for r in rows:
        assert r.success_rate == 1.0, r
        assert r.t_max <= 2 * r.t + 2, r
        assert n / 8 <= r.st_product <= 8 * n, r
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(
        "criterion 10 PASS: full inversion sweeps at n=2^14; "
        + "; ".join(f"t={r.t} ST={r.st_product}" for r in rows)
        + f" ({elapsed:.1f}s)"
    )
