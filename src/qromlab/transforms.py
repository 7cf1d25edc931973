"""Reprogramming schedules, the puncturing corollary, and truncation.

One measure-and-reprogram engine serves every transform here.
``apply_schedules`` drives the target algorithm under a list of
schedules of (query ordinal, timing) picks, each schedule one start row
of one ``run_query_algorithm`` run: the executor measures each row's
picked queries, the one place a run's rows split, reprograms that row's
table at the measured point (its per-start-row ``reprogram``), records
slot i's point in the row's outcomes under the label i, and returns the
final rows, start-row-major, as one ``StrictRun``. ``_mar_dist`` is the
only loop that averages over every valid schedule, reading the rows,
weights and measured points from the runs themselves; the general and ordered
wrappers differ only in the outcome rule they pass it (the ordered one
is ``_ordered_outcome``, the abort rule the constant-round experiment
also uses). ``_mar_report`` scores either distribution against the
plain run on the reprogrammed table (``_table_masses``), and the
puncturing corollary measures its queries through
``apply_schedules`` too, one schedule per query. Both cut their
schedules into runs with ``_start_chunks``, which caps start rows times
state dimension at ``MAX_STATE_DIM``. The cap counts start rows only: a
measured query splits a row into up to as many rows as its in-register
has values, so a run can end with that many times its start amplitudes
for each slot. Everything here is an exhaustive computation over small
domains; nothing is sampled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    ExpectedAlgorithm,
    Pad,
    QueryAlgorithm,
    StrictRun,
    _calls,
    _row_outputs,
    _start_chunks,
    _table_masses,
    run_query_algorithm,
)
from qromlab.oracle import ClassicalOracle, prefixes


@dataclass(frozen=True)
class MarSchedule:
    """One pick per target slot: (query ordinal, timing) or None.

    Timing 0 reprograms the measured point before answering the query,
    timing 1 answers first and reprograms after. Ordinals are 1-based
    and distinct across slots; None leaves the slot unmeasured.
    """

    picks: tuple[Optional[tuple[int, int]], ...]
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "picks", tuple(self.picks))
        js = [p[0] for p in self.picks if p is not None]
        if len(set(js)) != len(js):
            raise ValueError("two slots target the same query")
        for p in self.picks:
            if p is None:
                continue
            j, b = p
            if not 1 <= j <= self.q or b not in (0, 1):
                raise ValueError(f"invalid pick {p!r} for {self.q} queries")

    @cached_property
    def by_ordinal(self) -> dict[int, tuple[int, int]]:
        """Query ordinal -> (slot index, timing) for every measured slot."""
        return {p[0]: (i, p[1]) for i, p in enumerate(self.picks) if p is not None}


def enumerate_schedules(k: int, q: int) -> tuple[MarSchedule, ...]:
    """Every valid schedule: (2q+1)^k pick tuples minus ordinal collisions."""
    opts: list[Optional[tuple[int, int]]] = [None]
    opts += [(j, b) for j in range(1, q + 1) for b in (0, 1)]
    out = []
    for combo in itertools.product(opts, repeat=k):
        js = [p[0] for p in combo if p is not None]
        if len(set(js)) == len(js):
            out.append(MarSchedule(combo, q))
    return tuple(out)


def _schedule_count(k: int, q: int) -> int:
    """len(enumerate_schedules(k, q)) without building them: choose the i
    measured slots, give them distinct ordinals in order and a timing
    each, sum_i C(k, i) * q!/(q-i)! * 2^i."""
    return sum(math.comb(k, i) * math.perm(q, i) * 2**i for i in range(k + 1))


def apply_schedules(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    schedules: Sequence[MarSchedule],
    y: Sequence[Hashable],
) -> StrictRun:
    """Run one algorithm under a list of schedules as one run: start row
    i runs schedule i, and its final rows come before those of row i + 1.

    Each measured slot i records its collapsed point in the row's
    outcomes as (i, domain position). Every schedule must be built for
    the algorithm's query count, with one value of ``y`` per slot; all
    are checked before the run, and an empty list is refused.
    """
    if not schedules:
        raise ValueError("no schedules")
    q = _queries(alg)
    for schedule in schedules:
        if len(y) != len(schedule.picks):
            raise ValueError("one reprogram value per slot")
        if schedule.q != q:
            raise ValueError(f"schedule built for {schedule.q} queries, not {q}")
    slots = [
        {j: (i, timing, y[i]) for j, (i, timing) in s.by_ordinal.items()}
        for s in schedules
    ]
    return run_query_algorithm(alg, None, [oracle] * len(slots), slots)


def _slot_points(outcomes: tuple, domain: tuple) -> dict[int, Hashable]:
    return {i: domain[o] for i, o in outcomes}


def _queries(alg: QueryAlgorithm) -> int:
    return sum(isinstance(s, CallOracle) for s in alg.steps)


def _alphabet(oracle: ClassicalOracle) -> tuple:
    return tuple(p[0] for p in oracle.domain if len(p) == 1)


def _ordered_outcome(measured: dict[int, tuple], claim: Sequence) -> tuple:
    """The ordered abort rule: (points, output or None). Slot i is its
    measured point or else the claim's (i+1)-prefix; the output is the
    last point when every point is a prefix of it, None on a clash."""
    points = tuple(measured.get(i, tuple(claim[: i + 1])) for i in range(len(claim)))
    last = points[-1]
    return points, (last if all(p == last[: len(p)] for p in points) else None)


@dataclass(frozen=True)
class MarOutcome:
    """One outcome of an ordered reprogramming run.

    ``points`` are the measured-or-backfilled slot prefixes, ``output``
    the last slot's point when every earlier one is a prefix of it and
    None otherwise, ``z`` the side digits read off the claim run.
    """

    points: tuple
    output: tuple | None
    consistent: bool
    z: tuple


def _mar_dist(alg, oracle, y, claim_registers, z_registers, outcome) -> dict:
    """The one schedule-averaging loop: every valid schedule runs with
    uniform weight, and each final (claim digits, z digits) outcome is
    keyed by outcome(measured point per slot, claim digits, z digits).

    The schedules are the start rows of ``apply_schedules`` runs, cut by
    ``_start_chunks``; a run's rows come schedule by schedule, so every
    key's terms are added in schedule order and then row order."""
    k = len(y)
    if len(claim_registers) != k:
        raise ValueError("need one claim register per target slot")
    dom = oracle.domain
    scheds = enumerate_schedules(k, _queries(alg))
    sw = Fraction(1, len(scheds))
    regs = tuple(claim_registers) + tuple(z_registers)
    dist: dict = {}
    for chunk in _start_chunks(alg, scheds):
        run = apply_schedules(alg, oracle, chunk, y)
        pts = [_slot_points(out, dom) for out in run.outcomes]
        for i, digits, w in _row_outputs(run, regs):
            key = outcome(pts[i], digits[:k], digits[k:])
            dist[key] = dist.get(key, 0) + sw * w
    return dist


def mar_general(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    z_registers: Sequence[str] = (),
) -> dict[tuple[tuple, tuple], Fraction | float]:
    """Exact outcome distribution of the schedule-averaged wrapper.

    Keys are (points, z): the measured-or-backfilled point per slot,
    and the side digits. Slots left unmeasured backfill from the claim
    registers, which hold domain positions. The average over valid
    schedules is uniform and exhaustive.
    """
    dom = oracle.domain

    def outcome(pts, claim, z):
        return tuple(pts.get(i, dom[c]) for i, c in enumerate(claim)), z

    return _mar_dist(alg, oracle, y, claim_registers, z_registers, outcome)


def mar_ordered(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    z_registers: Sequence[str] = (),
) -> dict[MarOutcome, Fraction | float]:
    """Ordered variant over a prefix-closed domain, with the abort rule.

    Measured slots may collapse to prefixes of any length; unmeasured
    slots backfill to the claimed transcript's prefixes (claim
    registers hold alphabet positions). An outcome is consistent only
    when every slot point is a prefix of the last one; otherwise its
    output is None.
    """
    alphabet = _alphabet(oracle)

    def outcome(pts, claim, z):
        points, out = _ordered_outcome(pts, tuple(alphabet[d] for d in claim))
        return MarOutcome(points, out, out is not None, z)

    return _mar_dist(alg, oracle, y, claim_registers, z_registers, outcome)


@dataclass(frozen=True)
class MarReport:
    """Both sides of one reprogramming inequality, computed exactly.

    ``lhs`` is the wrapper's win mass at the target, ``rhs`` the plain
    run's win mass against the fully reprogrammed table; ``holds``
    compares lhs >= factor * rhs, exactly when both sides are rational
    and up to float slack otherwise. ``pr_bot`` is the ordered
    variant's abort mass (0 for the general one).
    """

    lhs: float
    rhs: float
    factor: Fraction
    holds: bool
    pr_bot: float
    schedules: int


def _mar_report(
    alg, oracle, scored, xs, targets, y, regs, letters, relation
) -> MarReport:
    """Both sides of one inequality from (output, z, weight) triples, an
    output of None being abort mass. The rhs reruns the algorithm on the
    table reprogrammed to y at every target, decoding claim digits as
    positions in letters."""
    k = len(xs)
    lhs: Fraction | float = 0
    bot: Fraction | float = 0
    for out, z, w in scored:
        if out is None:
            bot += w
        elif out == xs and (relation is None or relation(out, z)):
            lhs += w
    star = oracle
    for t, yi in zip(targets, y):
        star = star.reprogram(t, yi)

    def hit(digits: tuple) -> bool:
        if tuple(letters[i] for i in digits[:k]) != xs:
            return False
        return relation is None or relation(xs, digits[k:])

    (rhs,) = _table_masses(alg, [star], regs, hit)
    q = _queries(alg)
    factor = Fraction(1, (2 * q + 1) ** (2 * k))
    if isinstance(lhs, Rational) and isinstance(rhs, Rational):
        holds = lhs >= factor * rhs
    else:
        holds = float(lhs) >= float(factor) * float(rhs) - 1e-10
    schedules = _schedule_count(k, q)
    return MarReport(float(lhs), float(rhs), factor, holds, float(bot), schedules)


def mar_check_general(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    x_star: Sequence[Hashable],
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    relation: Callable[[tuple, tuple], bool] | None = None,
    z_registers: Sequence[str] = (),
    dist: dict | None = None,
) -> MarReport:
    """Both sides of the general inequality for one target tuple.

    The wrapper distribution may be passed in to amortize it across
    targets; it does not depend on x_star. The reference run reprograms
    the table at every target point.
    """
    xs = tuple(x_star)
    if len(set(xs)) != len(xs):
        raise ValueError("target points must be distinct")
    if dist is None:
        dist = mar_general(alg, oracle, y, claim_registers, z_registers=z_registers)
    scored = ((pts, z, w) for (pts, z), w in dist.items())
    regs = tuple(claim_registers) + tuple(z_registers)
    return _mar_report(
        alg, oracle, scored, xs, xs, y, regs, oracle.domain, relation
    )


def mar_check_ordered(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    x_star: Sequence[Hashable],
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    relation: Callable[[tuple, tuple], bool] | None = None,
    z_registers: Sequence[str] = (),
    dist: dict | None = None,
) -> MarReport:
    """Ordered counterpart: the reference run reprograms every prefix
    of the target transcript, and inconsistent outcomes count as lost
    abort mass."""
    xs = tuple(x_star)
    targets = prefixes(xs)
    if set(targets) - set(oracle.domain):
        raise ValueError("target prefixes outside the table domain")
    if dist is None:
        dist = mar_ordered(alg, oracle, y, claim_registers, z_registers=z_registers)
    scored = ((out.output, out.z, w) for out, w in dist.items())
    regs = tuple(claim_registers) + tuple(z_registers)
    return _mar_report(
        alg, oracle, scored, xs, targets, y, regs, _alphabet(oracle), relation
    )


@dataclass(frozen=True)
class O2HReport:
    """Both sides of the puncturing corollary: sqrt(p_c) vs factor * p_a_fs."""

    p_c: float
    p_a_fs: float
    q: int
    factor: float
    holds: bool


def o2h_corollary_C(
    alg: QueryAlgorithm,
    domain: Sequence[Hashable],
    marked: Sequence[Hashable],
    *,
    output_register: str | None = None,
) -> O2HReport:
    """The measure-a-random-query corollary for one algorithm and set.

    The C side tosses a coin: heads runs the algorithm against the
    all-zero table and takes its output; tails measures one uniformly
    chosen query of that same run and outputs the collapsed point (with
    no queries to choose from, a sentinel outside the set). The other
    side runs the algorithm against the set's indicator table. Both
    sides score membership of the output in the set.
    """
    dom = tuple(domain)
    sset = set(marked)
    if sset - set(dom):
        raise ValueError("marked points outside the domain")
    if output_register is None and not alg.output_registers:
        raise ValueError(f"{alg.name} has no output register to score")
    out_reg = (output_register or alg.output_registers[0],)
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    indicator = ClassicalOracle(dom, (0, 1), tuple(int(p in sset) for p in dom))
    q = _queries(alg)

    def in_set(digits: tuple) -> bool:
        return digits[0] < len(dom) and dom[digits[0]] in sset

    masses = _table_masses(alg, [indicator, zero], out_reg, in_set)
    p_a_fs, p_plain = map(float, masses)
    acc = 0.0
    # one schedule per query; reprogramming the measured point of the
    # all-zero table to 0 leaves the table as it is
    scheds = [MarSchedule(((j, 1),), q) for j in range(1, q + 1)]
    for chunk in _start_chunks(alg, scheds):
        run = apply_schedules(alg, zero, chunk, (0,))
        for i, outcomes in enumerate(run.outcomes):
            caught = _slot_points(outcomes, dom)
            if 0 in caught and caught[0] in sset:
                acc += float(run.row_weight(i))
    p_b = acc / q if q else 0.0
    p_c = 0.5 * (p_plain + p_b)
    factor = float(1.0 / (4.0 * np.sqrt(q + 1.0)))
    holds = bool(np.sqrt(p_c) >= factor * p_a_fs - 1e-10)
    return O2HReport(p_c, p_a_fs, q, factor, holds)


def truncate(sim: ExpectedAlgorithm, q: int) -> ExpectedAlgorithm:
    """Cut every strict branch at its q-th invocation.

    Requires expected invocations at most q/2. Short branches pass
    through; longer ones keep exactly the steps before their (q+1)-th
    invocation, so a cut run ends in whatever state it reached there. A
    cut inside a ``Pad`` keeps its whole pairs as a shorter ``Pad``, and
    a forward ``CallVerifier`` when an odd number of its calls is left.
    """
    if sim.expected_invocations > Fraction(q, 2):
        raise ValueError(
            f"expected invocations {sim.expected_invocations} exceed {q}/2"
        )
    out = []
    for w, alg in sim.branches:
        if alg.invocations <= q:
            out.append((w, alg))
            continue
        steps = []
        left = q
        for s in alg.steps:
            if _calls(s) > left:
                if isinstance(s, Pad):
                    if left >= 2:
                        steps.append(Pad(left // 2))
                    if left % 2:
                        steps.append(CallVerifier())
                break
            left -= _calls(s)
            steps.append(s)
        out.append(
            (
                w,
                QueryAlgorithm(
                    f"{alg.name}-cut{q}",
                    tuple(steps),
                    q,
                    alg.work_registers,
                    alg.output_registers,
                ),
            )
        )
    return ExpectedAlgorithm(f"{sim.name}-trunc{q}", tuple(out), q)
