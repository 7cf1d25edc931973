"""Reprogramming schedules, the puncturing corollary, and truncation.

The reprogramming transforms enumerate every valid schedule of
(query ordinal, timing) picks, drive the target algorithm once per
schedule with collapses and table updates injected at the picked
queries, and average the exact branch weights. Everything here is an
exhaustive computation over small domains; nothing is sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    ExpectedAlgorithm,
    QueryAlgorithm,
    RunBranch,
    answer_query,
    measure_query_register,
    output_distribution,
    run_query_algorithm,
    set_branch_oracle,
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


def apply_schedule(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    schedule: MarSchedule,
    y: Sequence[Hashable],
    name: str = "h",
) -> list[RunBranch]:
    """Run one algorithm under one schedule, returning the final branches.

    Collapsed query points are recorded in branch outcomes under the
    marker registers ``mar-slot-i`` as domain positions.
    """
    if len(y) != len(schedule.picks):
        raise ValueError("one reprogram value per slot")
    slots = schedule.by_ordinal

    def on_query(branch: RunBranch, call: CallOracle, ordinal: int):
        if call.name != name or ordinal not in slots:
            return None
        i, timing = slots[ordinal]
        out = []
        for point, cb in measure_query_register(branch, call):
            pos = cb.oracle(name).domain.index(point)
            if timing == 0:
                cb = set_branch_oracle(cb, name, cb.oracle(name).reprogram(point, y[i]))
                cb = answer_query(cb, call)
            else:
                cb = answer_query(cb, call)
                cb = set_branch_oracle(cb, name, cb.oracle(name).reprogram(point, y[i]))
            out.append(replace(cb, outcomes=cb.outcomes + ((f"mar-slot-{i}", pos),)))
        return out

    return run_query_algorithm(alg, oracles={name: oracle}, on_query=on_query)


def _slot_points(branch: RunBranch, domain: tuple) -> dict[int, Hashable]:
    pts = {}
    for reg, o in branch.outcomes:
        if reg.startswith("mar-slot-"):
            pts[int(reg.rsplit("-", 1)[1])] = domain[o]
    return pts


def _named_queries(alg: QueryAlgorithm, name: str) -> int:
    return sum(
        1 for s in alg.steps if isinstance(s, CallOracle) and s.name == name
    )


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


def mar_general(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    z_registers: Sequence[str] = (),
    name: str = "h",
) -> dict[tuple[tuple, tuple], Fraction | float]:
    """Exact outcome distribution of the schedule-averaged wrapper.

    Keys are (points, z): the measured-or-backfilled point per slot,
    and the side digits. Slots left unmeasured backfill from the claim
    registers, which hold domain positions. The average over valid
    schedules is uniform and exhaustive.
    """
    k = len(y)
    if len(claim_registers) != k:
        raise ValueError("need one claim register per target slot")
    dom = oracle.domain
    q = _named_queries(alg, name)
    scheds = enumerate_schedules(k, q)
    sw = Fraction(1, len(scheds))
    regs = tuple(claim_registers) + tuple(z_registers)
    dist: dict[tuple[tuple, tuple], Fraction | float] = {}
    for sched in scheds:
        for br in apply_schedule(alg, oracle, sched, y, name):
            pts = _slot_points(br, dom)
            for digits, w in output_distribution([br], regs).items():
                xp = tuple(
                    pts.get(i, dom[digits[i]]) for i in range(k)
                )
                key = (xp, digits[k:])
                dist[key] = dist.get(key, 0) + sw * w
    return dist


def mar_ordered(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    z_registers: Sequence[str] = (),
    name: str = "h",
) -> dict[MarOutcome, Fraction | float]:
    """Ordered variant over a prefix-closed domain, with the abort rule.

    Measured slots may collapse to prefixes of any length; unmeasured
    slots backfill to the claimed transcript's prefixes (claim
    registers hold alphabet positions). An outcome is consistent only
    when every slot point is a prefix of the last one; otherwise its
    output is None.
    """
    k = len(y)
    if len(claim_registers) != k:
        raise ValueError("need one claim register per target slot")
    dom = oracle.domain
    alphabet = tuple(p[0] for p in dom if len(p) == 1)
    q = _named_queries(alg, name)
    scheds = enumerate_schedules(k, q)
    sw = Fraction(1, len(scheds))
    regs = tuple(claim_registers) + tuple(z_registers)
    dist: dict[MarOutcome, Fraction | float] = {}
    for sched in scheds:
        for br in apply_schedule(alg, oracle, sched, y, name):
            pts = _slot_points(br, dom)
            for digits, w in output_distribution([br], regs).items():
                msgs = tuple(alphabet[d] for d in digits[:k])
                xs = tuple(pts.get(i, msgs[: i + 1]) for i in range(k))
                last = xs[-1]
                ok = all(xs[i] == last[: len(xs[i])] for i in range(k))
                out = MarOutcome(xs, last if ok else None, ok, digits[k:])
                dist[out] = dist.get(out, 0) + sw * w
    return dist


@dataclass(frozen=True)
class MarReport:
    """Both sides of one reprogramming inequality, computed exactly.

    ``lhs`` is the wrapper's win mass at the target, ``rhs`` the plain
    run's win mass against the fully reprogrammed table; ``holds``
    compares lhs >= factor * rhs up to float slack. ``pr_bot`` is the
    ordered variant's abort mass (0 for the general one).
    """

    lhs: float
    rhs: float
    factor: Fraction
    holds: bool
    pr_bot: float
    schedules: int


def _claim_mass(
    alg: QueryAlgorithm,
    table: ClassicalOracle,
    x_star: tuple,
    decode: Callable[[tuple], tuple],
    regs: tuple[str, ...],
    k: int,
    relation: Callable[[tuple, tuple], bool] | None,
    name: str,
) -> Fraction | float:
    total: Fraction | float = 0
    for br in run_query_algorithm(alg, oracles={name: table}):
        for digits, w in output_distribution([br], regs).items():
            if decode(digits[:k]) != x_star:
                continue
            if relation is not None and not relation(x_star, digits[k:]):
                continue
            total += w
    return total


def mar_check_general(
    alg: QueryAlgorithm,
    oracle: ClassicalOracle,
    x_star: Sequence[Hashable],
    y: Sequence[Hashable],
    claim_registers: Sequence[str],
    *,
    relation: Callable[[tuple, tuple], bool] | None = None,
    z_registers: Sequence[str] = (),
    name: str = "h",
    dist: dict | None = None,
) -> MarReport:
    """Both sides of the general inequality for one target tuple.

    The wrapper distribution may be passed in to amortize it across
    targets; it does not depend on x_star. The reference run reprograms
    the table at every target point.
    """
    xs = tuple(x_star)
    k = len(xs)
    if len(set(xs)) != k:
        raise ValueError("target points must be distinct")
    if dist is None:
        dist = mar_general(
            alg, oracle, y, claim_registers, z_registers=z_registers, name=name
        )
    lhs: Fraction | float = 0
    for (pts, z), w in dist.items():
        if pts != xs:
            continue
        if relation is not None and not relation(pts, z):
            continue
        lhs += w
    star = oracle
    for xi, yi in zip(xs, y):
        star = star.reprogram(xi, yi)
    dom = oracle.domain
    regs = tuple(claim_registers) + tuple(z_registers)
    rhs = _claim_mass(
        alg, star, xs, lambda d: tuple(dom[i] for i in d), regs, k, relation, name
    )
    q = _named_queries(alg, name)
    factor = Fraction(1, (2 * q + 1) ** (2 * k))
    holds = float(lhs) >= float(factor) * float(rhs) - 1e-10
    return MarReport(
        float(lhs), float(rhs), factor, holds, 0.0, len(enumerate_schedules(k, q))
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
    name: str = "h",
    dist: dict | None = None,
) -> MarReport:
    """Ordered counterpart: the reference run reprograms every prefix
    of the target transcript, and inconsistent outcomes count as lost
    abort mass."""
    xs = tuple(x_star)
    k = len(xs)
    targets = prefixes(xs)
    if set(targets) - set(oracle.domain):
        raise ValueError("target prefixes outside the table domain")
    if dist is None:
        dist = mar_ordered(
            alg, oracle, y, claim_registers, z_registers=z_registers, name=name
        )
    lhs: Fraction | float = 0
    bot: Fraction | float = 0
    for out, w in dist.items():
        if not out.consistent:
            bot += w
            continue
        if out.output != xs:
            continue
        if relation is not None and not relation(out.output, out.z):
            continue
        lhs += w
    star = oracle
    for pre, yi in zip(targets, y):
        star = star.reprogram(pre, yi)
    alphabet = tuple(p[0] for p in oracle.domain if len(p) == 1)
    regs = tuple(claim_registers) + tuple(z_registers)
    rhs = _claim_mass(
        alg,
        star,
        xs,
        lambda d: tuple(alphabet[i] for i in d),
        regs,
        k,
        relation,
        name,
    )
    q = _named_queries(alg, name)
    factor = Fraction(1, (2 * q + 1) ** (2 * k))
    holds = float(lhs) >= float(factor) * float(rhs) - 1e-10
    return MarReport(
        float(lhs),
        float(rhs),
        factor,
        holds,
        float(bot),
        len(enumerate_schedules(k, q)),
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
    name: str = "h",
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
    out_reg = output_register or alg.output_registers[0]
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    indicator = ClassicalOracle(dom, (0, 1), tuple(int(p in sset) for p in dom))
    q = _named_queries(alg, name)

    def output_mass(table: ClassicalOracle) -> float:
        total = 0.0
        for br in run_query_algorithm(alg, oracles={name: table}):
            for digits, w in output_distribution([br], (out_reg,)).items():
                if digits[0] < len(dom) and dom[digits[0]] in sset:
                    total += float(w)
        return total

    p_a_fs = output_mass(indicator)
    p_plain = output_mass(zero)
    if q == 0:
        p_b = 0.0
    else:
        acc = 0.0
        for j in range(1, q + 1):

            def on_query(branch, call, ordinal, _j=j):
                if call.name != name or ordinal != _j:
                    return None
                out = []
                for point, cb in measure_query_register(branch, call):
                    pos = cb.oracle(name).domain.index(point)
                    cb = answer_query(cb, call)
                    out.append(
                        replace(cb, outcomes=cb.outcomes + (("o2h-catch", pos),))
                    )
                return out

            for br in run_query_algorithm(alg, oracles={name: zero}, on_query=on_query):
                caught = [o for reg, o in br.outcomes if reg == "o2h-catch"]
                if caught and dom[caught[0]] in sset:
                    acc += float(br.weight)
        p_b = acc / q
    p_c = 0.5 * (p_plain + p_b)
    factor = float(1.0 / (4.0 * np.sqrt(q + 1.0)))
    holds = bool(np.sqrt(p_c) >= factor * p_a_fs - 1e-10)
    return O2HReport(p_c, p_a_fs, q, factor, holds)


def truncate(sim: ExpectedAlgorithm, q: int) -> ExpectedAlgorithm:
    """Cut every strict branch at its q-th invocation.

    Requires expected invocations at most q/2. Short branches pass
    through; longer ones keep exactly the steps before their (q+1)-th
    invocation, so a cut run ends in whatever state it reached there.
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
        used = 0
        for s in alg.steps:
            if isinstance(s, (CallVerifier, CallOracle)):
                if used == q:
                    break
                used += 1
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
