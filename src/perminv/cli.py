"""Command-line entry point for every verification suite in the package.

Every subcommand prints one structured report (JSON by default, CSV for the
Hellman sweep) carrying a schema version and the fully resolved config,
seed included, so identical invocations produce byte-identical output on
the same machine with the same BLAS thread count.
Exit status: 0 when every assertion in the invoked suite passed, 1 on a
verification failure, 2 on usage errors.  An internal certification failure
(an ArithmeticError from an exact projector certificate, an exact product
past its bound, the Coxeter certificate of the orthogonal form or a Hellman
walk off its predicted query count) is a verification failure: it is
reported with pass false and its reason, and in CSV output, which has no
field for the reason, by the reason on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import factorial

from perminv import __version__, attacks, querysim, regrep, young

SCHEMA_VERSION = "1"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_RENAMES = {"lam": "lambda", "passed": "pass", "success_rate": "success"}


def _plain(value):
    if isinstance(value, Fraction):
        return _frac(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _fields(report) -> dict:
    """Output fields of a report dataclass, nested ones included: keys in
    field order with the _RENAMES applied, Fractions as "p/q", tuples as
    lists."""
    return dataclasses.asdict(
        report, dict_factory=lambda items: {_RENAMES.get(k, k): _plain(v) for k, v in items}
    )


def _nested(value) -> bool:
    """A non-empty dict or list, rendered on the lines below its key; an
    empty one is rendered in place, as [] or {}."""
    return isinstance(value, (dict, list)) and bool(value)


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if _nested(val):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(obj, list):
        # Each item gets its own "- ", a nested one on its first line, with
        # the rest of it indented under that line.
        return "\n".join(
            f"{pad}- {_render_text(v, indent + 1)[len(pad) + 2:]}" if _nested(v) else f"{pad}- {v}"
            for v in obj
        )
    return f"{pad}{obj}"


def _emit(args, report: dict, passed: bool, csv_text: str | None = None) -> int:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "ranges") and v is not None
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": config,
        "report": report,
        "pass": passed,
    }
    if args.format == "csv":
        chunks = iter([csv_text])
        print(f"# config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)
    elif args.format == "text":
        chunks = iter([_render_text(payload) + "\n"])
    else:
        # JSON is written in batches of the encoder's chunks: json.dumps
        # joins a list of every chunk, which took branching --n 40, a 65 MB
        # report, to 526 MB (124 MB in batches).
        chunks = chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), "\n")
    _empty_out(args)
    while batch := "".join(islice(chunks, 1 << 14)):
        sys.stdout.write(batch)
    return 0 if passed else 1


def _empty_out(args) -> None:
    """Empty an --out file that is a regular file, once there is a report to
    write: main opens it without truncation, so that a refusal leaves it as
    it was.  A pipe or a device, which cannot be truncated, is written as it
    comes."""
    if args.out and os.path.isfile(args.out):
        sys.stdout.truncate(0)


# ---------------------------------------------------------------------------
# Subcommand handlers.


def cmd_young(args) -> int:
    mode = args.mode
    if mode == "identities":
        report = young.identities_report(args.max_n)
        return _emit(args, report, report["pass"])
    n = args.n
    if mode == "dims":
        table = young.dimension_table(n)
        rows = [{"lambda": list(l), "dim": d} for l, d in table.items()]
        report = {"n": n, "dims": rows, "sum_of_squares": sum(d * d for d in table.values())}
        return _emit(args, report, report["sum_of_squares"] == young.factorial(n))
    if mode == "branching":
        rows = []
        ok = True
        below = young.dimension_table(n - 1)
        for lam, d in young.dimension_table(n).items():
            parts = [{"mu": list(m), "dim": below[m]} for m in young.removable(lam)]
            total = sum(p["dim"] for p in parts)
            good = total == d
            ok &= good
            rows.append({"lambda": list(lam), "dim": d, "branch_sum": total, "children": parts, "ok": good})
        return _emit(args, {"n": n, "branching": rows}, ok)
    lams = young.partitions(n)
    if mode == "characters":
        # Each printed row must have norm n! (sum over classes of |C| chi^2)
        # and its value at the identity class, the last, must be the
        # hook-formula dim.
        sizes = [young.conjugacy_class_size(c) for c in lams]
        rows = []
        ok = True
        for lam, values in zip(lams, young.character_table(n)):
            norm = sum(s * v**2 for s, v in zip(sizes, values))
            ok &= norm == young.factorial(n) and values[-1] == young.dim(lam)
            rows.append({"lambda": list(lam), "values": {str(list(c)): v for c, v in zip(lams, values)}})
        return _emit(args, {"n": n, "classes": [list(c) for c in lams], "characters": rows}, ok)
    if mode == "eigenvalues":
        values = [young.eigenvalue_m(l) for l in lams]
        rows = [{"lambda": list(l), "e": _frac(e)} for l, e in zip(lams, values)]
        ok = all(e <= 2 * young.level(l) for l, e in zip(lams, values))
        return _emit(args, {"n": n, "eigenvalues": rows}, ok)
    raise AssertionError(f"unhandled mode {mode}")


def cmd_spectrum(args) -> int:
    report = regrep.spectrum(args.n)
    return _emit(args, _fields(report), report.passed)


def cmd_avgbound(args) -> int:
    report = regrep.avg_bound_check(args.n, args.k, samples=args.samples, seed=args.seed)
    return _emit(args, _fields(report), report.passed)


def cmd_decomp_check(args) -> int:
    report = regrep.decomposition_report(args.n)
    cc = regrep.change_of_challenge_check(args.n)
    payload = {"decomposition": _fields(report), "change_of_challenge": _fields(cc)}
    return _emit(args, payload, report.passed and cc.passed)


def cmd_lemma_check(args) -> int:
    runs = []
    ok = True
    worst_support = 0.0
    for i in range(args.programs):
        program = querysim.random_program(args.n, args.p, args.t, w=args.w, seed=args.seed + i)
        transcript, ineq = querysim.check_progress_inequalities(program)
        support = max((row["residual"] for row in transcript.lemma_checks), default=0.0)
        worst_support = max(worst_support, support)
        good = transcript.passed and ineq.passed
        ok &= good
        runs.append(
            {
                "seed": args.seed + i,
                "max_support_residual": support,
                "inequalities": _fields(ineq),
                "ok": good,
            }
        )
        del program  # free its unitaries before the next one is drawn
    report = {
        "n": args.n,
        "p": args.p,
        "t": args.t,
        "programs": args.programs,
        "max_support_residual": worst_support,
        "runs": runs,
    }
    return _emit(args, report, ok)


def cmd_game(args) -> int:
    challenge = args.challenge
    if challenge != "all":
        try:
            challenge = int(challenge)
        except ValueError:
            raise ValueError(f"--challenge must be 'all' or an integer, got {challenge!r}") from None
    querysim.check_challenge(args.n, challenge)  # before the draw, which can take seconds
    program = querysim.random_program(args.n, args.p, args.t, w=args.w, seed=args.seed)
    transcript = querysim.run_bit_fixing(program, challenge=challenge)
    return _emit(args, _fields(transcript), transcript.passed)


def cmd_altgame(args) -> int:
    reports = []
    ok = True
    for i in range(args.adversaries):
        proj = querysim.random_query_adversary(args.n, args.t, seed=args.seed + i)
        rep = querysim.alternating_game(proj, args.g, t=args.t, seed=args.seed + i)
        ok &= rep.passed
        reports.append(_fields(rep))
        del proj  # free its (N!, N, N^2, N^2) array before the next one is drawn
    return _emit(args, {"n": args.n, "t": args.t, "g": args.g, "games": reports}, ok)


def cmd_grover(args) -> int:
    p_sim, p_formula = querysim.grover_invert(args.n, args.t)
    report: dict = {
        "n": args.n,
        "t": args.t,
        "p_simulated": p_sim,
        "p_formula": p_formula,
        "abs_error": abs(p_sim - p_formula),
    }
    ok = abs(p_sim - p_formula) <= 1e-9
    if args.grid:
        grid_rows = []
        for n in (2, 3, 4, 5, 8, 16, 64, 256, 1024):
            for t in (0, 1, 2, 5, 10, 25):
                s, f = querysim.grover_invert(n, t)
                grid_rows.append({"n": n, "t": t, "p_simulated": s, "p_formula": f})
                ok &= abs(s - f) <= 1e-9
        # Quadratic speedup: success grows as (2t + 1)^2 / n, a log-log
        # slope of 1 against that model; classical search has about 1/2.
        fit = querysim.grover_scaling_fit()
        ok &= fit["r2_loglog"] >= 0.999 and 0.9 <= fit["slope"] <= 1.1
        report["grid"] = grid_rows
        report["scaling_fit"] = fit
    return _emit(args, report, ok)


def cmd_hellman(args) -> int:
    t_values = args.t or [64]
    n = 1 << args.log_n
    rows = attacks.tradeoff_sweep(
        n, t_values, trials=args.trials, seed=args.seed, sample_targets=args.sample
    )
    ok = all(r.success_rate == 1.0 and r.t_max <= 2 * r.t + 2 for r in rows)
    fields = [_fields(r) for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(fields)
    return _emit(args, {"n": n, "rows": fields}, ok, csv_text=buf.getvalue())


# ---------------------------------------------------------------------------
# The range of each integer flag, declared per subcommand in check order:
# main refuses a value outside [low, high] before --out is opened and before
# any work.  A callable high reads the flags checked before it.  Each count
# loops over whole runs, so it is held where a run at its bound still ends
# in minutes on a 2-core host.

# The largest sizes the young modes enumerate: each finishes in under 10 s
# and 200 MB on a 2-core host at its bound (branching --n 40: 4.1-4.3 s,
# 124 MB; characters --n 20: 4.2-5.7 s on a loaded host, 137 MB), while
# branching --n 50 takes 30 s and 616 MB and characters --n 24 takes 52 s.
_YOUNG_MAX_N = 40
_CHARACTERS_MAX_N = 20

# grover --t: a round over n items costs about as much as max(n, 2048)
# items, 3-4 ns each on a 2-core host, so t * max(n, 2048) is held to
# 2^31, under 10 s and 300 MB at the bound (--n 2^24 --t 128: 6.7 s,
# 287 MB; --n 2048 --t 2^20: 5.1 s).  --n is held to the search
# register's budget, querysim.DEFAULT_BUDGET items.
_GROVER_WORK = 1 << 31
_GROVER_ROUND = 2048

# One drawn and played program per count: 0.27 s each at
# --n 5 --p 1 --t 2 --w 8, so about 70 s at the bound; 1.4 ms at --n 3.
_MAX_PROGRAMS = 256
# One built and played adversary per count: 0.4 s each at --n 6 --t 1 (the
# default 10 take 4.1 s), so about 100 s at the bound.
_MAX_ADVERSARIES = 256
# altgame --t: oracle calls in each adversary; at --n 6 --t 100 one
# adversary takes 8.4 s and 136 MB.
_ALTGAME_MAX_T = 100
# altgame --g: 16 ms a round at --n 6, 16 s for one adversary at the
# bound, where its survival mass reads about 1e-250; at --n 4 the mass
# underflows near round 2400, and the conditionals stop there.
_MAX_ROUNDS = 1000
# One drawn and walked permutation per trial: 0.7 s each at --log-n 20
# with every target, so about 70 s at the bound.
_MAX_TRIALS = 100
_HELLMAN_MAX_LOG_N = 20  # tradeoff_sweep's cap, checked before 2^log_n is formed

_N = (1, regrep._MAX_N)
# A --p, --t or --w past DEFAULT_BUDGET alone puts a program's unitaries
# past the budget, so random_program's joint check stays the one that binds.
_QUERIES = (0, querysim.DEFAULT_BUDGET)
_WORKSPACE = (1, querysim.DEFAULT_BUDGET)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: every parse starts from its defaults,
    and --t's append list is made anew from its None default."""
    parser = argparse.ArgumentParser(
        prog="perminv",
        description="Verification suites for permutation-inversion tradeoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, ranges, seed=True):
        p.add_argument("--format", choices=("json", "csv", "text"), default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
            ranges = {**ranges, "seed": (0, 2**64 - 1)}
        p.set_defaults(func=func, ranges=ranges)

    p = sub.add_parser("young", help="exact Young-diagram computations and identity sweeps")
    p.add_argument("mode", choices=("dims", "branching", "characters", "eigenvalues", "identities"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    young_n = (1, lambda a: _CHARACTERS_MAX_N if a.mode == "characters" else _YOUNG_MAX_N)
    common(p, cmd_young, {"n": young_n, "max_n": (1, _YOUNG_MAX_N)}, seed=False)

    p = sub.add_parser("spectrum", help="spectrum of the challenge-averaged operator vs. formula")
    p.add_argument("--n", type=int, required=True)
    common(p, cmd_spectrum, {"n": _N}, seed=False)

    p = sub.add_parser("avgbound", help="challenge-averaged mass bound on A_k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    # the draw and its two projections hold 2 * samples * N! floats each
    samples = (1, lambda a: querysim.DEFAULT_BUDGET // (2 * factorial(a.n)))
    common(p, cmd_avgbound, {"n": _N, "k": (0, lambda a: a.n - 1), "samples": samples})

    p = sub.add_parser("decomp-check", help="dimension/rank decompositions and challenge relabeling")
    p.add_argument("--n", type=int, required=True)
    # --seed is echoed in config and read by nothing; perfbench's calls pass it
    common(p, cmd_decomp_check, {"n": _N})

    p = sub.add_parser("lemma-check", help="query-support and progress inequalities on random programs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--w", type=int, default=1)
    p.add_argument("--programs", type=int, default=20)
    program = {"n": _N, "p": _QUERIES, "t": _QUERIES, "w": _WORKSPACE}
    common(p, cmd_lemma_check, {**program, "programs": (1, _MAX_PROGRAMS)})

    p = sub.add_parser("game", help="run one seeded bit-fixing game and report the transcript")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--w", type=int, default=1)
    p.add_argument("--challenge", default="all")
    common(p, cmd_game, program)

    p = sub.add_parser("altgame", help="alternating-measurement game vs. its spectral formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--adversaries", type=int, default=10)
    ranges = {"n": _N, "t": (0, _ALTGAME_MAX_T), "g": (1, _MAX_ROUNDS), "adversaries": (1, _MAX_ADVERSARIES)}
    common(p, cmd_altgame, ranges)

    p = sub.add_parser("grover", help="amplitude amplification vs. the closed form")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--t", type=int, default=10)
    p.add_argument("--grid", action="store_true", help="also run the (n, t) grid and scaling fit")
    rounds = (0, lambda a: _GROVER_WORK // max(a.n, _GROVER_ROUND))
    common(p, cmd_grover, {"n": (2, querysim.DEFAULT_BUDGET), "t": rounds}, seed=False)

    p = sub.add_parser("hellman", help="cycle-walking table build and tradeoff sweep")
    p.add_argument("--log-n", type=int, default=12, dest="log_n")
    p.add_argument("--t", type=int, action="append", help="spacing; repeat for a sweep")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--sample", type=int, default=None, help="invert only this many seeded targets")
    # --t is compared with int32 cycle lengths; a --sample of 2^log_n or
    # more inverts every target.
    ranges = {"log_n": (0, _HELLMAN_MAX_LOG_N), "t": (1, 2**31 - 1), "trials": (1, _MAX_TRIALS)}
    common(p, cmd_hellman, {**ranges, "sample": (1, 1 << _HELLMAN_MAX_LOG_N)})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.command == "hellman" else "json"
    # Usage errors found before any work; --out is opened here, as a shell
    # redirection would be, after every flag is in its range, but emptied
    # only by _empty_out.
    try:
        if args.format == "csv" and args.command != "hellman":
            raise ValueError("csv output is only available for the hellman subcommand")
        for dest, (low, high) in args.ranges.items():
            high = high(args) if callable(high) else high
            value = getattr(args, dest)  # a list for an appended flag
            for v in value if isinstance(value, list) else [value]:
                if v is not None and not low <= v <= high:
                    side, bound = (">=", low) if v < low else ("<=", high)
                    raise ValueError(f"--{dest.replace('_', '-')} must be {side} {bound}, got {v}")
        out = contextlib.nullcontext(sys.stdout)
        if args.out:
            out = open(args.out, "w", opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh, contextlib.redirect_stdout(fh):
        try:
            return args.func(args)
        except (ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ArithmeticError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            if args.format == "csv":  # a CSV row has no field for the reason
                _empty_out(args)
                print(f"fail: {reason}", file=sys.stderr)
                return 1
            return _emit(args, {"reason": reason}, False)


if __name__ == "__main__":
    sys.exit(main())
