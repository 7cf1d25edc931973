"""The constant-round live replays, one per (randomness, schedule) pair.

These are the bodies the counting walk ``walk._walk`` replaced:
``live_runs`` is the former ``pipeline._live_runs``, which replays the
trace once per randomness and built schedule; ``extraction_prover_value``
is the former per-pair scoring of both predicates on those replays; and
``hypothesis_runs`` is the per-r ``_fork`` body of the former
``pipeline._sparse_hypothesis``. They serve as the reference the walk's
multiplicities and values are tested against. ``walk_counts`` flattens
the walk's merged paths into the same counters.
"""

from collections import Counter
from fractions import Fraction

from qromlab.pipeline import _fork, _memoized, _replay
from qromlab.protocol import ConfigError
from qromlab.transforms import _ordered_outcome
from qromlab.walk import _walk


def live_runs(spec, x, trace, scheds):
    """(r, slots, output) of the live scheduled replay per randomness
    and schedule: flags start clear, measured points are reprogrammed
    to 1, and responses come from the verifier at r. Every replay must
    make exactly the schedule's q flag queries."""
    for r in spec.randomness:
        def ask_f(p):
            return spec.next_message(x, r, tuple(p))

        for sched in scheds:
            slots, out, n = _replay(trace, ask_f, {}, sched, default=0)
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
    """Replays per (r, slots, output)."""
    return Counter(
        (r, frozenset(slots.items()), out)
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

        for weight, asg, (_, out, _) in _fork(
            lambda a: _replay(trace, ask_f, a), values
        ):
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
    """Fork weight per (r, assignment, output)."""
    counts: Counter = Counter()
    for r, weight, asg, out in hypothesis_runs(spec, x, trace, eps):
        counts[r, frozenset(asg.items()), out] += weight
    return counts


def walk_counts(spec, x, trace, k=0, q=None, values=None) -> Counter:
    """The walk's weight per (r, slots, output), or per (r, assignment,
    output) when it forks a flag table, summed over its merged paths."""
    counts: Counter = Counter()
    for weight, group, slots, out, asg in _walk(spec, x, trace, k, q, values):
        for r in group:
            counts[r, frozenset(asg if values else slots), out] += weight
    return counts
