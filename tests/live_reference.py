"""The classical experiments' replays, one per (randomness, schedule) pair.

These are the bodies the counting walk ``walk._walk`` replaced. The
driver is the former ``pipeline._replay`` (one scheduled, query-counting
replay) with ``pipeline._fork`` (a replay forked over every lazily
sampled assignment) and its ``_NeedValue``. On top of it:
``live_runs`` is the former ``pipeline._live_runs``, which replays the
trace once per randomness and built schedule; ``extraction_prover_value``
is the former per-pair scoring of both predicates on those replays;
``hypothesis_runs`` is the per-r ``_fork`` body of the former
``pipeline._sparse_hypothesis``; and ``hash_value``, ``fs_game_value``
and ``single_slot_extraction`` are the former public-coin and
three-round bodies, one replay per (randomness, schedule, challenge
table branch). They serve as the reference the walk's multiplicities
and values are tested against. ``masses`` reads the walk's integer
weights as these runs' masses, and ``walk_counts`` flattens the walk's
merged paths into the same counters.
"""

import functools
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from fold_reference import challenge_structure
from qromlab.protocol import ConfigError
from qromlab.transforms import MarSchedule, _ordered_outcome, _schedule_count
from qromlab.walk import _walk


def _memoized(spec):
    """The spec with ``next_message`` and ``decide`` memoized for one walk."""
    return replace(spec, next_message=functools.cache(spec.next_message),
                   decide=functools.cache(spec.decide))


class NeedValue(Exception):
    """A replay hit an oracle point outside its partial assignment."""

    def __init__(self, point):
        super().__init__(f"unassigned point {point!r}")
        self.point = point


def replay(trace, ask_f, assignment, schedule: Optional[MarSchedule] = None,
           y=1, default=None):
    """One deterministic replay of a classical trace against the
    scheduled, query-counting oracle.

    The oracle serves reprogrammed values first, then the partial
    assignment, then the default; with no default a miss raises
    NeedValue so ``fork`` can branch. Slots of the schedule record
    the queried point and reprogram it to y with the slot's timing.
    ``ask_f(p)`` raises ValueError unless p's flag, as the oracle would
    answer it now, is set and the trace's last read of p did not see it
    clear at a read-then-reprogram slot: the trace contract
    ``simulator_trace`` states.

    Returns:
        (slots, output, queries): measured point per slot index, the
        trace output, and the number of oracle queries made.
    """
    patch: dict = {}
    seen_clear: set = set()  # answered clear at a read-then-reprogram slot
    slots: dict[int, tuple] = {}
    slot_of = {} if schedule is None else schedule.by_ordinal
    count = 0

    def read(point):
        if point in patch:
            if seen_clear:  # a later read of the point sees y
                seen_clear.discard(point)
            return patch[point]
        if point in assignment:
            return assignment[point]
        if default is None:
            raise NeedValue(point)
        return default

    def ask_h(point, drop=False):  # the true answer, dropped or not
        nonlocal count
        count += 1
        point = tuple(point)
        hit = slot_of.get(count)
        if hit is None:
            return read(point)
        i, b = hit
        slots[i] = point
        if b == 0:
            seen_clear.discard(point)
            patch[point] = y
            return y
        value = read(point)
        if not value:
            seen_clear.add(point)
        patch[point] = y
        return value

    def checked_f(point):
        flag = tuple(point)
        if flag in seen_clear or not patch.get(flag, assignment.get(flag, default)):
            raise ValueError(f"trace reads the response at {flag!r}, whose flag is clear")
        return ask_f(point)

    out = trace(ask_h, None if ask_f is None else checked_f)
    return slots, out, count


def fork(run, values):
    """Every completed run under lazily sampled oracle values.

    run(assignment) is deterministic and returns a result or raises
    NeedValue; each miss forks the run over the (value, weight) pairs,
    whose weights are rational. Returns (weight, assignment, result)
    per completed branch.
    """
    done = []
    stack: list[tuple[Fraction, dict]] = [(Fraction(1), {})]
    while stack:
        weight, asg = stack.pop()
        try:
            result = run(asg)
        except NeedValue as miss:
            for value, w in values:
                stack.append((weight * w, {**asg, miss.point: value}))
        else:
            done.append((weight, asg, result))
    return done


def live_runs(spec, x, trace, scheds):
    """(r, slots, output) of the live scheduled replay per randomness
    and schedule: flags start clear, measured points are reprogrammed
    to 1, and responses come from the verifier at r. Every replay must
    make exactly the schedule's q flag queries."""
    for r in spec.randomness:
        def ask_f(p):
            return spec.next_message(x, r, tuple(p))

        for sched in scheds:
            slots, out, n = replay(trace, ask_f, {}, sched, default=0)
            if n != sched.q:
                raise ConfigError(f"trace makes {n} flag queries, scheduled for {sched.q}")
            yield r, slots, out


def pair_scores(spec, x, r, slots, out) -> tuple[bool, bool]:
    """(extraction prover wins, decision scores) on one live replay."""
    _, got = _ordered_outcome(slots, out)
    decided = got is not None and len(got) == spec.rounds and spec.decide(x, r, got)
    won = all(p == out[: len(p)] for p in slots.values()) and spec.decide(x, r, out)
    return won, decided


def extraction_prover_value(spec, x, trace, scheds) -> tuple[Fraction, Fraction]:
    """(extraction value, decision value) over the per-pair replays."""
    walk = _memoized(spec)
    extracted = decided = 0
    for r, slots, out in live_runs(walk, x, trace, scheds):
        won, scored = pair_scores(walk, x, r, slots, out)
        extracted += won
        decided += scored
    total = len(spec.randomness) * len(scheds)
    return Fraction(extracted, total), Fraction(decided, total)


def live_counts(spec, x, trace, scheds) -> Counter:
    """Replays per (r, slots, assignment, output); the assignment is empty."""
    return Counter(
        (r, frozenset(slots.items()), frozenset(), out)
        for r, slots, out in live_runs(spec, x, trace, scheds)
    )


def hypothesis_runs(spec, x, trace, eps):
    """(r, weight, assignment, output) of the plain run per randomness
    over the lazily forked eps-sparse flag table."""
    eps = Fraction(eps)
    values = ((1, eps), (0, 1 - eps))
    for r in spec.randomness:
        def ask_f(p):
            return spec.next_message(x, r, tuple(p))

        for weight, asg, (_, out, _) in fork(lambda a: replay(trace, ask_f, a), values):
            yield r, weight, asg, out


def sparse_hypothesis(spec, x, trace, eps) -> Fraction:
    k = spec.rounds
    total = Fraction(0)
    for r, weight, asg, out in hypothesis_runs(spec, x, trace, eps):
        if spec.decide(x, r, out) and all(
            asg.get(tuple(out[:i]), 0) == 1 for i in range(1, k + 1)
        ):
            total += weight
    return total / len(spec.randomness)


def hypothesis_counts(spec, x, trace, eps) -> Counter:
    """Fork weight per (r, slots, assignment, output); no slot is measured."""
    counts: Counter = Counter()
    for r, weight, asg, out in hypothesis_runs(spec, x, trace, eps):
        counts[r, frozenset(), frozenset(asg.items()), out] += weight
    return counts


def named_value(spec, x, runs, labels, randomness_of) -> Fraction:
    """Pr over forked runs that the output is accepted at the randomness
    its own first-message entry names, randomness_of(label); an entry
    the run never queried is averaged over the labels."""
    total = Fraction(0)
    for weight, asg, (_, out, _) in runs:
        label = asg.get(out[:1])
        named = labels if label is None else (label,)
        hits = sum(1 for c in named if spec.decide(x, randomness_of(c), out))
        total += weight * Fraction(hits, len(named))
    return total


def hash_value(spec, x, trace) -> tuple[Fraction, int]:
    """(Pr over the lazy hash table that the output is accepted at the
    randomness its own hashed challenge names, hash queries billed on
    one replay that answers every query with the first challenge)."""
    challenges, chart = challenge_structure(spec, x)
    _, _, counted = replay(trace, None, {}, default=challenges[0])
    values = [(c, Fraction(1, len(challenges))) for c in challenges]
    runs = fork(lambda a: replay(trace, None, a), values)
    return named_value(spec, x, runs, challenges, lambda c: chart[(c,)]), counted


def uniform_labels(spec):
    """(label, weight) of a lazy challenge table's uniform randomness labels."""
    rs = spec.randomness
    return [(r, Fraction(1, len(rs))) for r in rs]


def response_runs(spec, x, trace, sched, r_true, values):
    """Branches of one scheduled run over the lazy challenge table.

    The table assigns a label from ``values`` to each queried point and
    the answer is that label's response: the trace runs under ``replay``
    with labels as oracle values, so a slot reprograms its point to
    r_true. Returns (weight, assignment, (slots, output, queries)) per
    branch.
    """

    def labeled(ask_h, ask_f):
        return tuple(trace(lambda p: spec.next_message(x, ask_h(p), tuple(p))))

    return fork(lambda a: replay(labeled, None, a, sched, r_true), values)


def fs_game_value(spec, x, trace) -> Fraction:
    """Pr over the lazy challenge table that the simulator's output is
    accepted at the randomness its own first-message entry names."""
    runs = response_runs(spec, x, trace, None, None, uniform_labels(spec))
    return named_value(spec, x, runs, spec.randomness, lambda r: r)


def single_slot_extraction(spec, x, trace, scheds) -> tuple[Fraction, Fraction]:
    """(forwarding prover's value, extraction value) over one replay per
    randomness, schedule and challenge-table branch."""
    walk = _memoized(spec)
    values = uniform_labels(spec)
    forwarded = extracted = Fraction(0)
    for r in spec.randomness:
        for sched in scheds:
            for weight, _, (slots, out, _) in response_runs(walk, x, trace, sched, r, values):
                measured = slots.get(0)
                claim = out[:1] if measured is None else measured
                if len(claim) == 1 and walk.decide(x, r, (claim[0], out[1])):
                    extracted += weight
                if measured in (None, out[:1]) and walk.decide(x, r, out):
                    forwarded += weight
    total = len(spec.randomness) * len(scheds)
    return forwarded / total, extracted / total


def response_counts(spec, x, trace, scheds) -> Counter:
    """Fork weight per (r, slots, assignment, output) of the scheduled
    runs over the lazy challenge table."""
    values = uniform_labels(spec)
    counts: Counter = Counter()
    for r in spec.randomness:
        for sched in scheds:
            for weight, asg, (slots, out, _) in response_runs(spec, x, trace, sched, r, values):
                counts[r, frozenset(slots.items()), frozenset(asg.items()), out] += weight
    return counts


def masses(walked, runs) -> list:
    """A walk's leaves, each weight rescaled from the walk's total to
    ``runs`` (|R| times the schedule count): the mass these replays
    give the leaf."""
    total, leaves = walked
    return [(Fraction(weight * runs, total), *leaf) for weight, *leaf in leaves]


def leaf_counts(walked, runs) -> Counter:
    """A walk's mass per (r, slots, assignment, output), summed over
    its merged paths."""
    counts: Counter = Counter()
    for weight, group, slots, out, asg, *_ in masses(walked, runs):
        for r in group:
            counts[r, frozenset(slots), asg, out] += weight
    return counts


def walk_counts(spec, x, trace, k=0, q=0, values=None, live=False) -> Counter:
    runs = len(spec.randomness) * _schedule_count(k, q)
    return leaf_counts(_walk(spec, x, trace, k, q, values, live), runs)
