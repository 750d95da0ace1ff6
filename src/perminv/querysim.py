"""Statevector simulation of the purified-oracle query game.

The oracle register O holds an amplitude for every permutation of [N]; the
algorithm side A = X x Y x W x B carries the query input, query output, a
workspace of configurable size, and the single restart bit.  A query adds
pi(x) to the Y register modulo N, controlled on the permutation branch, so
the whole game is one big unitary evolution plus a postselection of B on 0
between the offline and online phases.

A game state is a plain complex array of shape ``RegisterLayout.dims``
(oracle, X, Y, W, B); every step takes an array and returns one.  Programs
are explicit: a step is either a query or a dense unitary on named
sub-registers.  A program carries its workspace dimension, and its number
of challenges is N, so it fixes its own layout; the games take the program
alone.  There is no gate compiler; the progress bounds quantify over all
unitaries, so tests drive the simulator with seeded Haar-ish unitaries (QR
of Gaussian matrices) and a few hand-built extremal programs.  A random
program whose unitaries would hold more than DEFAULT_BUDGET entries is
refused before any draw, as is a larger Grover search register.

Grover search runs on a separate bare register of the search dimension;
that exposes the quadratic scaling without the N! blowup of the purified
layout.  The alternating-measurement game lives at the bottom of the file.
It reads one array: the success projector of every challenge against every
permutation, with the adversary starting in |0>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import asin, factorial, hypot, sin, sqrt
from typing import Sequence

import numpy as np

from perminv import regrep

DEFAULT_BUDGET = 1 << 24

REGISTERS = ("x", "y", "w", "b")


class ZeroPostselectionError(RuntimeError):
    """The offline phase left (numerically) no amplitude on b = 0."""


@dataclass(frozen=True)
class RegisterLayout:
    """Shapes of the joint register O x X x Y x W x B."""

    n: int
    w: int = 1

    def __post_init__(self):
        regrep._check_n(self.n)
        if self.w < 1:
            raise ValueError("workspace dimension must be >= 1")
        if self.total_dim > DEFAULT_BUDGET:
            raise MemoryError(
                f"layout dimension {self.total_dim} exceeds budget {DEFAULT_BUDGET}"
            )

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        n = self.n
        return (factorial(n), n, n, self.w, 2)

    @property
    def total_dim(self) -> int:
        return factorial(self.n) * self.n * self.n * self.w * 2

    @property
    def a_dim(self) -> int:
        return self.n * self.n * self.w * 2


@dataclass(frozen=True)
class Query:
    """One call to the purified oracle."""


@dataclass(frozen=True, eq=False)
class Unitary:
    """A dense unitary on a tuple of named sub-registers of A."""

    matrix: np.ndarray
    regs: tuple[str, ...]

    def __post_init__(self):
        if any(r not in REGISTERS for r in self.regs):
            raise ValueError(f"unknown registers in {self.regs}")
        if len(set(self.regs)) != len(self.regs):
            raise ValueError(f"repeated register in {self.regs}")
        u = self.matrix
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("unitary matrix must be square")
        gram = u.conj().T @ u
        gram.flat[:: u.shape[0] + 1] -= 1  # u^H u - I, in place
        err = np.abs(gram).max()
        if err > 1e-10:
            raise ValueError(f"matrix is not unitary (residual {err:.3e})")


Step = Query | Unitary


def _count_queries(steps: Sequence[Step]) -> int:
    return sum(1 for s in steps if isinstance(s, Query))


@dataclass(frozen=True, eq=False)
class AlgorithmProgram:
    """Offline steps plus one online step list per challenge, on a workspace
    of dimension w.

    The declared query counts must match the steps: p offline queries and t
    online queries for every challenge.  Online steps may not touch B.  The
    number of challenges is n, so the program fixes its own layout.
    """

    offline: tuple[Step, ...]
    online: tuple[tuple[Step, ...], ...]  # indexed by challenge y
    p: int
    t: int
    w: int = 1

    @cached_property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(n=len(self.online), w=self.w)

    def __post_init__(self):
        self.layout  # refuses an n or w outside the cap and budget
        if _count_queries(self.offline) != self.p:
            raise ValueError("offline query count does not match declared p")
        for y, steps in enumerate(self.online):
            if _count_queries(steps) != self.t:
                raise ValueError(f"online query count for y={y} does not match declared t")
            for s in steps:
                if isinstance(s, Unitary) and "b" in s.regs:
                    raise ValueError("online steps may not act on the B register")


def init_state(layout: RegisterLayout) -> np.ndarray:
    """Uniform superposition on the oracle register, |0> everywhere else."""
    amps = np.zeros(layout.dims, dtype=np.complex128)
    amps[:, 0, 0, 0, 0] = 1.0 / np.sqrt(factorial(layout.n))
    return amps


@cache
def _oracle_gather(n: int) -> np.ndarray:
    """source[p, x, z'] = (z' - pi_p(x)) mod n, for the Y-register update."""
    perms = regrep.perms_matrix(n)
    zp = np.arange(n)
    src = (zp[None, None, :] - perms[:, :, None]) % n
    src.setflags(write=False)
    return src


@cache
def _oracle_rows(n: int) -> np.ndarray:
    """The query as a row gather of the state reshaped to (n! n n, -1): row
    (p n + x) n + z' reads row (p n + x) n + source[p, x, z']."""
    src = _oracle_gather(n)
    rows = (np.arange(src.shape[0] * n)[:, None] * n + src.reshape(-1, n)).ravel()
    rows.setflags(write=False)
    return rows


def apply_oracle(amps: np.ndarray) -> np.ndarray:
    """One query: z -> z + pi(x) mod n on each permutation branch."""
    rows = _oracle_rows(amps.shape[1])
    return amps.reshape(len(rows), -1)[rows].reshape(amps.shape)


def apply_unitary(amps: np.ndarray, step: Unitary) -> np.ndarray:
    axes = [1 + REGISTERS.index(r) for r in step.regs]
    dim = 1
    for a in axes:
        dim *= amps.shape[a]
    if step.matrix.shape[0] != dim:
        raise ValueError(
            f"unitary of dimension {step.matrix.shape[0]} applied to registers of dimension {dim}"
        )
    moved = np.moveaxis(amps, axes, range(5 - len(axes), 5))
    flat = moved.reshape(-1, dim) @ step.matrix.T
    return np.moveaxis(flat.reshape(moved.shape), range(5 - len(axes), 5), axes)


def apply_step(amps: np.ndarray, step: Step) -> np.ndarray:
    if isinstance(step, Query):
        return apply_oracle(amps)
    return apply_unitary(amps, step)


def postselect_b0(amps: np.ndarray) -> float:
    """Project B on 0 and renormalize in place; returns the pre-measurement mass."""
    mass = float(np.sum(np.abs(amps[..., 0]) ** 2))
    if mass <= 1e-12:
        raise ZeroPostselectionError(
            f"offline phase has b=0 probability {mass:.3e}; the restart loop never halts"
        )
    amps[..., 1] = 0.0
    amps /= np.sqrt(mass)
    return mass


def success_probability(amps: np.ndarray, y: int) -> float:
    """Mass of the success projection for challenge y: branches with pi(x) = y."""
    mask = regrep.perms_matrix(amps.shape[1]) == y  # (n!, n) over (permutation, x)
    weights = np.sum(np.abs(amps) ** 2, axis=(2, 3, 4))
    return float(np.sum(weights[mask]))


@dataclass
class GameTranscript:
    n: int
    p: int
    t: int
    w: int
    postselect_prob: float
    per_challenge: list[dict]
    avg_success: float
    step_norms: list[float]
    lemma_checks: list[dict]
    passed: bool


def _play(
    amps: np.ndarray, steps: Sequence[Step], norms: list, lemma: list, k: int, y=None, masses=None
) -> np.ndarray:
    """Apply steps and return the final state, appending the norm after each
    step and the support residual after each query; k is the number of
    queries made before these steps.  When masses is a list, the high mass
    for y is appended before each query and after the last step."""
    for step in steps:
        if masses is not None and isinstance(step, Query):
            masses.append(_high_mass(amps, y))
        amps = apply_step(amps, step)
        norms.append(float(np.linalg.norm(amps)))
        if isinstance(step, Query):
            k += 1
            residual = support_residual(amps, k)
            phase = "offline" if y is None else "online"
            lemma.append({"phase": phase, "y": y, "k": k, "residual": residual})
    if masses is not None:
        masses.append(_high_mass(amps, y))
    return amps


def _game(
    program: AlgorithmProgram, ys: Sequence[int], high: bool = False
) -> tuple[GameTranscript, list[list[float] | None]]:
    """One pass of the bit-fixing game: the offline phase and its
    postselection once, then each challenge in ys once from a copy.  With
    high, also the high masses of each challenge's online play (see _play);
    otherwise no high projector is read."""
    layout = program.layout
    state = init_state(layout)
    norms = [float(np.linalg.norm(state))]
    lemma: list[dict] = []
    state = _play(state, program.offline, norms, lemma, 0)
    try:
        mass = postselect_b0(state)
    except ZeroPostselectionError as exc:
        raise ZeroPostselectionError(
            f"offline phase of the (p={program.p}, t={program.t}) program on "
            f"n={layout.n} left no b=0 amplitude: {exc}"
        ) from None
    per = []
    highs = []
    for y in ys:
        masses = [] if high else None
        # The final state is read once and dropped before the next play.
        final = _play(state.copy(), program.online[y], norms, lemma, program.p, y, masses)
        per.append({"y": y, "p_succ": success_probability(final, y)})
        del final
        highs.append(masses)
    avg = float(np.mean([row["p_succ"] for row in per]))
    passed = all(abs(v - 1.0) <= 1e-9 for v in norms) and all(
        row["residual"] <= 1e-8 for row in lemma
    )
    transcript = GameTranscript(
        layout.n, program.p, program.t, layout.w, mass, per, avg, norms, lemma, passed
    )
    return transcript, highs


def check_challenge(n: int, challenge: int | str) -> None:
    """ValueError unless challenge is "all" or in range(n); known from n
    alone, so a caller can check it before drawing a program."""
    if challenge != "all" and challenge not in range(n):
        raise ValueError(f"challenge must be 'all' or in range({n}), got {challenge!r}")


def run_bit_fixing(program: AlgorithmProgram, challenge: int | str = "all") -> GameTranscript:
    """Play the bit-fixing game and measure success per challenge.

    The offline restart loop is simulated by postselecting B on 0 (its mass
    must exceed 1e-12).  challenge="all" runs every y and reports the
    average; an integer in range(n) runs that single challenge, and anything
    else is a ValueError.  The transcript records, after every query, the
    residual of the oracle side outside the partial-assignment subspace for
    the current query count.
    """
    n = program.layout.n
    check_challenge(n, challenge)
    ys = range(n) if challenge == "all" else [int(challenge)]
    return _game(program, ys)[0]


def _project(n: int, column: np.ndarray, flat: np.ndarray):
    """(rows, (S flat)[rows] / N!) for S = regrep._gather(n, column), N!
    times a real projector, complex columns flat and each row block rows:
    one real product over the interleaved real and imaginary parts per row
    block of the column over N! (regrep._row_products), so no dense
    projector is gathered or copied to complex, and no whole projection is
    held."""
    real = np.ascontiguousarray(flat, dtype=np.complex128).view(np.float64)
    for rows, block in regrep._row_products(n, column / factorial(n), real):
        yield rows, block.view(np.complex128)


def support_residual(amps: np.ndarray, k: int) -> float:
    """Norm of the oracle-side component outside A_k after k queries: the
    norms of its row blocks, joined by hypot."""
    n = amps.shape[1]
    if k >= n - 1:  # A_{n-1} is already the whole group algebra
        return 0.0
    flat = amps.reshape(factorial(n), -1)
    return hypot(*(np.linalg.norm(flat[rows] - p) for rows, p in _project(n, regrep._scaled_a(n, k), flat)))


# ---------------------------------------------------------------------------
# Query-progress inequalities (success vs. high-subspace mass).


def _high_mass(amps: np.ndarray, y: int) -> float:
    """Norm of the component in the high subspace of challenge y, from the
    column of N! P_y (regrep._relabeled); hypot joins the row blocks."""
    n = amps.shape[1]
    flat = amps.reshape(factorial(n), -1)
    col = regrep._relabeled(n, regrep._scaled_high_0(n), y)
    return hypot(*(np.linalg.norm(p) for _, p in _project(n, col, flat)))


@dataclass
class InequalityRow:
    y: int
    kind: str  # "final" or "step"
    k: int
    lhs: float
    rhs: float | None
    slack: float | None
    checked: bool  # False when the guard term is undefined at these sizes


@dataclass
class InequalityReport:
    n: int
    p: int
    t: int
    rows: list[InequalityRow]
    checked: int
    vacuous: int
    passed: bool


def _inequality_row(y: int, kind: str, k: int, lhs: float, base: float, den: int, scale: float):
    """lhs <= base + scale/sqrt(den), or a vacuous row when den <= 0."""
    if den <= 0:
        return InequalityRow(y, kind, k, lhs, None, None, False)
    rhs = base + scale / np.sqrt(den)
    return InequalityRow(y, kind, k, lhs, rhs, rhs - lhs, True)


def check_progress_inequalities(
    program: AlgorithmProgram,
) -> tuple[GameTranscript, InequalityReport]:
    """Success-vs-high-mass and per-query progress inequalities, per challenge.

    Final: sqrt(p_succ) <= high-mass after all queries + 1/sqrt(n - 2(p+t)).
    Step:  high-mass after k online queries <= mass after k-1 plus
    2*sqrt(2)/sqrt(n - 4(p+k)).  Instances whose guard denominator is not
    positive are reported as vacuous rather than asserted; a checked row
    passes when its slack is >= -1e-9.

    The game is played once, as in run_bit_fixing with challenge="all", and
    its transcript is returned with the report: the high mass is taken
    before every online query and after the last step (masses[k] carries k
    online queries), and p_succ is the transcript's.
    """
    n = program.layout.n
    p, t = program.p, program.t
    transcript, highs = _game(program, range(n), high=True)
    guard = 2.0 * np.sqrt(2.0)
    rows: list[InequalityRow] = []
    for row, masses in zip(transcript.per_challenge, highs):
        y = row["y"]
        lhs = sqrt(row["p_succ"])
        rows.append(_inequality_row(y, "final", t, lhs, masses[t], n - 2 * (p + t), 1.0))
        for k in range(1, t + 1):
            den = n - 4 * (p + k)
            rows.append(_inequality_row(y, "step", k, masses[k], masses[k - 1], den, guard))
    checked = sum(1 for r in rows if r.checked)
    vacuous = len(rows) - checked
    passed = all(r.slack >= -1e-9 for r in rows if r.checked)
    return transcript, InequalityReport(n, p, t, rows, checked, vacuous, passed)


# ---------------------------------------------------------------------------
# Program construction helpers.


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with a fixed phase gauge."""
    # Real parts drawn first, then imaginary: the order fixes the seeded
    # matrices.
    z = np.empty((dim, dim), dtype=np.complex128)
    z.real = rng.standard_normal((dim, dim))
    z.imag = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_program(
    n: int, p: int, t: int, w: int = 1, seed: int = 0
) -> AlgorithmProgram:
    """Seeded random program in the canonical alternating shape.

    Offline: U_0, Q, U_1, ..., Q, U_p on the full A register.  Online, per
    challenge: U_0^y, Q, ..., Q, U_t^y on X,Y,W.  All matrices are drawn
    eagerly so the program is deterministic in (n, p, t, w, seed); a program
    whose matrices would hold more than DEFAULT_BUDGET entries is refused
    before any draw.
    """
    a_dim = RegisterLayout(n=n, w=w).a_dim
    xyw_dim = n * n * w
    entries = (p + 1) * a_dim**2 + n * (t + 1) * xyw_dim**2
    if entries > DEFAULT_BUDGET:
        raise MemoryError(
            f"program unitaries hold {entries} entries, exceeding budget {DEFAULT_BUDGET}"
        )
    rng = np.random.default_rng(seed)
    offline: list[Step] = [Unitary(random_unitary(a_dim, rng), ("x", "y", "w", "b"))]
    for _ in range(p):
        offline.append(Query())
        offline.append(Unitary(random_unitary(a_dim, rng), ("x", "y", "w", "b")))
    online = []
    for _y in range(n):
        steps: list[Step] = [Unitary(random_unitary(xyw_dim, rng), ("x", "y", "w"))]
        for _ in range(t):
            steps.append(Query())
            steps.append(Unitary(random_unitary(xyw_dim, rng), ("x", "y", "w")))
        online.append(tuple(steps))
    return AlgorithmProgram(offline=tuple(offline), online=tuple(online), p=p, t=t, w=w)


# ---------------------------------------------------------------------------
# Grover on a bare search register.


def grover_invert(n_search: int, t: int) -> tuple[float, float]:
    """(simulated, closed-form) success of t amplitude-amplification rounds.

    The marked item is the unique preimage; one phase query per round.  The
    closed form is sin^2((2t+1) * asin(1/sqrt(n_search))).
    """
    if n_search < 2:
        raise ValueError("n_search must be >= 2")
    if t < 0:
        raise ValueError("t must be >= 0")
    if n_search > DEFAULT_BUDGET:
        raise MemoryError(f"search register of {n_search} items exceeds budget {DEFAULT_BUDGET}")
    marked = 0
    state = np.full(n_search, 1.0 / np.sqrt(n_search))
    for _ in range(t):
        state[marked] = -state[marked]
        state = 2.0 * state.mean() - state
    p_sim = float(state[marked] ** 2)
    p_formula = sin((2 * t + 1) * asin(1.0 / np.sqrt(n_search))) ** 2
    return p_sim, p_formula


def grover_scaling_fit() -> dict:
    """Power-law fit of simulated success against the (2t+1)^2 / n model,
    over t = 1..10 rounds on a 1024-item search register.

    Returns the log-log least-squares slope, intercept and R^2 (the standard
    goodness measure for a scaling law), plus the linear-scale R^2 against
    the model values for reference.  At these sizes the largest rotation
    angle is ~0.66 rad, so the raw quadratic model is ~15% off at the top
    of the range while the power law itself is clean.
    """
    n_search = 1024
    ts = list(range(1, 11))
    ps = np.array([grover_invert(n_search, t)[0] for t in ts])
    model = np.array([(2 * t + 1) ** 2 / n_search for t in ts])
    lx, ly = np.log(model), np.log(ps)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2_loglog = 1.0 - ss_res / ss_tot
    ss_res_lin = float(np.sum((ps - model) ** 2))
    ss_tot_lin = float(np.sum((ps - ps.mean()) ** 2))
    r2_linear = 1.0 - ss_res_lin / ss_tot_lin
    return {
        "n": n_search,
        "t_values": ts,
        "p_simulated": [float(p) for p in ps],
        "model": [float(m) for m in model],
        "slope": float(slope),
        "intercept": float(intercept),
        "r2_loglog": r2_loglog,
        "r2_linear_vs_model": r2_linear,
    }


# ---------------------------------------------------------------------------
# Alternating-measurement game.


def random_query_adversary(n: int, t: int, seed: int = 0) -> np.ndarray:
    """Success projectors of an adversary whose per-challenge unitary u
    interleaves t oracle calls with seeded random mixing unitaries on X x L,
    L of dimension n.

    Returns proj of shape (n!, n, n*n, n*n): proj[i, y] = u^H V u for the
    i-th permutation of enumerate_group(n), where V fixes X at the preimage
    of y.  An oracle call |x, z> -> |x, z + pi(x) mod n> permutes basis
    rows, so it is applied as the row gather u[q]: row x*n + z' reads row
    x*n + (z' - pi(x)) mod n.
    """
    rng = np.random.default_rng(seed)
    d = n * n
    # Challenge-dependent mixers are shared across permutations; the oracle
    # calls carry all pi dependence, honoring the t-query budget.
    mixers = [[random_unitary(d, rng) for _ in range(t + 1)] for _ in range(n)]
    gathers = (np.arange(n)[:, None] * n + _oracle_gather(n)).reshape(-1, d)
    preimages = np.argsort(regrep.perms_matrix(n), axis=1)
    proj = np.empty((len(gathers), n, d, d), dtype=np.complex128)
    for i, q in enumerate(gathers):
        for y in range(n):
            u = mixers[y][0].copy()
            for k in range(1, t + 1):
                u = mixers[y][k] @ u[q]
            v = np.zeros(d)
            x = preimages[i, y]
            v[x * n : (x + 1) * n] = 1.0
            proj[i, y] = u.conj().T @ (v[:, None] * u)
    return proj


def _alternating_chain_mass(p_ys: np.ndarray, init: np.ndarray, g: int) -> list[float]:
    """Survival probability after each of g alternating success/rewind
    measurements, in one chain.

    The joint state lives on challenge x adversary registers, stored as a
    matrix c with row y holding the adversary component along |y>.  The
    success test applies the per-challenge projectors; the rewind test
    projects the challenge register back onto the uniform superposition.
    Starting from uniform x init, the survival mass after g alternating
    tests (success first) is exactly sum_i |<phi_i|init>|^2 p_i^g for the
    eigenpairs of the challenge-averaged projector.
    """
    n = len(p_ys)
    c = np.tile(init / np.sqrt(n), (n, 1))
    masses = []
    for round_idx in range(g):
        if round_idx % 2 == 0:  # success measurement
            c = np.stack([p_ys[y] @ c[y] for y in range(n)])
        else:  # rewind to the uniform challenge state
            s = c.sum(axis=0) / n
            c = np.tile(s, (n, 1))
        masses.append(float(np.sum(np.abs(c) ** 2)))
    return masses


@dataclass
class AltGameReport:
    n: int
    t: int
    g: int
    seed: int | None
    simulated: list[float]  # index i-1 holds the i-measurement game value
    formula: list[float]
    max_disagreement: float
    conditionals: list[float]
    monotone: bool
    jensen_ok: bool
    passed: bool


def alternating_game(
    proj: np.ndarray,
    g: int,
    t: int = 0,
    seed: int | None = None,
) -> AltGameReport:
    """Play the g-alternating-measurement game and cross-check the spectral
    formula.

    proj[i, y] is the success projector for challenge y against the i-th
    permutation, on an adversary register whose initial state is |0> (the
    uniform-adversary convention).  For every number of rounds up to g, the
    direct chain simulation must agree with the eigenvalue form: the
    average over permutations of sum_i |alpha_i|^2 p_i^rounds, where p_i
    are eigenvalues of the challenge-averaged success projector and alpha_i
    the overlaps of the initial state.  One round reproduces the plain
    success probability.  The two must agree within 1e-7.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    n = proj.shape[1]
    init = np.zeros(proj.shape[-1], dtype=np.complex128)
    init[0] = 1.0
    sims = np.zeros(g)
    forms = np.zeros(g)
    for p_ys in proj:
        p_avg = sum(p_ys) / n
        w, u = np.linalg.eigh(p_avg)
        w = np.clip(w, 0.0, 1.0)
        overlaps = np.abs(u.conj().T @ init) ** 2
        sims += _alternating_chain_mass(p_ys, init, g)
        forms += [float(overlaps @ w**rounds) for rounds in range(1, g + 1)]
    sims /= len(proj)
    forms /= len(proj)
    disagreement = float(np.abs(sims - forms).max())
    conditionals = [float(forms[0])] + [
        float(forms[i] / forms[i - 1]) for i in range(1, g) if forms[i - 1] > 0
    ]
    monotone = all(
        conditionals[i + 1] >= conditionals[i] - 1e-9 for i in range(len(conditionals) - 1)
    )
    jensen_ok = all(sims[i] >= sims[0] ** (i + 1) - 1e-9 for i in range(g))
    passed = disagreement <= 1e-7 and monotone and jensen_ok
    return AltGameReport(
        n=n,
        t=t,
        g=g,
        seed=seed,
        simulated=[float(v) for v in sims],
        formula=[float(v) for v in forms],
        max_disagreement=disagreement,
        conditionals=conditionals,
        monotone=monotone,
        jensen_ok=jensen_ok,
        passed=passed,
    )
