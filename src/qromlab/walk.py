"""The counting walk: the one driver of every classical query trace.

``_walk`` runs a trace, as ``pipeline`` builds them, under every
verifier randomness, every ordered measure-and-reprogram schedule and
every lazily sampled oracle table at once, and returns merged paths
with their weights (integer schedule counts times rational fork
weights) in place of one replay per (randomness, schedule, table). The
trace is a plain callable, so the walk replays it under scripted answers
(``_next_event``) once per leaf of its answer tree; everything else is
bookkeeping over small hashable states.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from qromlab.protocol import ProtocolSpec
from qromlab.transforms import _schedule_count


def _next_event(trace, answers: tuple, node, expand: Callable) -> tuple:
    """One replay of a trace from the start: the scripted answers first,
    then ``expand(node, kind, point)`` gives each further query's child
    nodes by answer, kind "h" for an oracle query and "f" for a response
    read. At a query with more than one child the replay goes on down
    the last child, and the others are set aside to replay later: the
    child a stack of all of them would pop first, so the walk meets its
    leaves in depth-first order.

    Returns:
        (output, node, forks): the trace's output and the node it ended
        in, and the children set aside, as (answers, node), in the order
        their queries were met and each query's children in answer order.
    """
    script = iter(answers)
    end = object()
    at = [answers, node]
    forks: list = []

    def asker(kind):
        def ask(point):
            answer = next(script, end)
            if answer is not end:
                return answer
            *rest, (answer, at[1]) = expand(at[1], kind, tuple(point)).items()
            forks.extend((at[0] + (a,), child) for a, child in rest)
            at[0] += (answer,)
            return answer

        return ask

    out = trace(asker("h"), asker("f"))
    return out, at[1], forks


def _walk(spec: ProtocolSpec, x, trace, k: int = 0, q: int = 0, values=None,
          live: bool = False) -> list:
    """Every run of a trace over the randomness, each ordered schedule of
    k slots in q oracle queries and the lazily sampled oracle table, as
    merged weighted paths.

    The oracle ``trace(ask_h, ask_f)`` queries starts unset: an unset
    point answers 0, or with ``values`` ((value, weight) pairs) is
    assigned each value on first query with probability its weight over
    the weights' sum, and keeps it. A
    slot measures the query at its ordinal and reprograms the point to 1,
    or with ``live`` to the verifier randomness r, before (timing 0) or
    after (timing 1) answering; a later query of the point answers the
    reprogrammed value. ``ask_f(p)`` is the verifier's response at p
    under r; it must follow a set read of p (the contract
    ``pipeline.simulator_trace`` states): p's flag, as the oracle would
    answer it now, is set, and the trace's last read of p did not see it
    clear at a read-then-reprogram slot.

    A trace is deterministic given its answers, so the walk goes depth
    first down its answer tree, and each leaf costs one replay
    (``_next_event``): a replay follows one child of every branching
    query it meets and leaves the others to replays of their own. A node
    holds every path that reached it, merged: paths with the same (patch,
    seen-clear set, slots, assignment, randomness group) add their
    weights, a weight being a schedule count times the weights of the
    sampled values;
    with integer value weights the walk counts in integers and divides
    each leaf by the weights' sum once per assigned point. A
    response read splits each path's group by the response
    ``next_message`` gives, instead of forking over every r, and so does
    an answered live value. Each query is one ordinal: no slot fires, or
    one unused slot fires with timing 0 or 1 while the ordinal is at most
    q, and each answer this gives leads to one child node. Patch and
    seen-clear sets are bit masks over the points in the order the walk
    first meets them.

    Raises:
        ValueError: a path reads the response of a clear flag.

    Returns:
        (weight, randomness group, slots, output, assignment, made) per
        merged completed path; the group is a frozenset, slots a tuple of
        (slot, point) sorted by slot, the assignment a frozenset of
        (point, value) items and made the path's query count. A path that
        made fewer than q queries weighs in the schedules whose unused
        slots sit past its last query. Each r of a group has the path's
        weight, and the weights sum to |R| times the schedule count, or
        the walk raises.
    """
    rs = frozenset(spec.randomness)
    bits: dict = {}  # point -> its mask bit
    lives: dict = {}  # group -> (r, {r}) per r: a live group's reprogrammed reads
    splits: dict = {}  # (group, point) -> {response: subgroup}

    def expand(node, kind, point):
        made, paths = node
        children: dict = {}
        if kind == "h":
            bit = bits.setdefault(point, 1 << len(bits))
            free = k if made < q else 0
            # a lone path's read that no slot can measure, of an unpatched
            # point it has a value for, keeps its state: most public-coin reads
            if len(paths) == 1:
                ((patch, _, slots, asg, _),) = paths
                flags = dict(asg)
                if len(slots) >= free and not patch & bit and (
                        values is None or point in flags):
                    return {flags.get(point, 0): (made + 1, paths)}
            for path, weight in paths.items():
                group = path[4]
                if not live:
                    ys: tuple = ((1, group),)
                elif group in lives:
                    ys = lives[group]
                else:
                    ys = lives[group] = tuple((r, frozenset((r,))) for r in group)
                for answer, step, w in _flag_steps(point, bit, path, values, free, ys):
                    merged = children.setdefault(answer, {})
                    merged[step] = merged.get(step, 0) + weight * w
            return {a: (made + 1, merged) for a, merged in children.items()}
        bit = bits.get(point, 0)
        for path, weight in paths.items():
            patch, seen, slots, asg, group = path
            if seen & bit or not (patch & bit or dict(asg).get(point)):
                raise ValueError(
                    f"trace reads the response at {point!r}, whose flag is clear"
                )
            if (group, point) not in splits:
                split: dict = {}
                for r in group:
                    split.setdefault(spec.next_message(x, r, point), set()).add(r)
                splits[group, point] = {c: frozenset(g) for c, g in split.items()}
            for c, g in splits[group, point].items():
                merged = children.setdefault(c, {})
                step = (patch, seen, slots, asg, g)
                merged[step] = merged.get(step, 0) + weight
        return {c: (made, merged) for c, merged in children.items()}

    done: dict = {}
    stack = [((), (0, {(0, 0, (), frozenset(), rs): 1}))]
    while stack:
        answers, node = stack.pop()
        out, (made, paths), forks = _next_event(trace, answers, node, expand)
        stack += forks
        for (_, _, slots, asg, group), weight in paths.items():
            leaf = (group, slots, out, asg, made)
            done[leaf] = done.get(leaf, 0) + weight
    for leaf in done:  # weigh in the never-fired schedules
        _, slots, _, _, made = leaf
        done[leaf] *= _schedule_count(k - len(slots), max(q - made, 0))
    scale = sum(w for _, w in values) if values else 1
    depth = max(len(asg) for _, _, _, asg, _ in done)
    total = sum(w * len(group) * scale ** (depth - len(asg))
                for (group, _, _, asg, _), w in done.items())
    if total != len(rs) * _schedule_count(k, q) * scale**depth:
        raise RuntimeError(f"walk multiplicities sum to {total}")
    return [(Fraction(w, scale ** len(leaf[3])) if leaf[3] else w, *leaf)
            for leaf, w in done.items()]


def _flag_steps(point, bit, path, values, k, ys):
    """(answer, path, weight) of each way one query at ``point`` (mask
    ``bit``) takes a path (patch, seen-clear set, slots, assignment,
    group): unmeasured, then measured by each of the k slots not yet
    used, reprogramming before (timing 0) or after (timing 1) the
    answer. ``ys`` lists the (answer, group) pairs of a read of the
    reprogrammed value: (1, group), or (r, {r}) per r of a live group."""
    # plain loops, not comprehensions: each comprehension costs a frame,
    # and this runs once per path at every query
    patch, seen, slots, asg, group = path
    cleared = seen & ~bit
    if patch & bit:  # a later read of the point sees y
        reads: list = []
        for y, g in ys:
            reads.append((y, cleared, asg, g, 1))
    elif values is None:
        reads = [(0, seen, asg, group, 1)]
    else:
        flags = dict(asg)
        if point in flags:
            reads = [(flags[point], seen, asg, group, 1)]
        else:
            reads = [(v, seen, asg | {(point, v)}, group, w) for v, w in values]
    steps = []
    for a, s, g, gr, w in reads:
        steps.append((a, (patch, s, slots, g, gr), w))
    if len(slots) < k:
        used = [i for i, _ in slots]
        marked = patch | bit
        for i in range(k):
            if i in used:
                continue
            measured = tuple(sorted(slots + ((i, point),)))
            for y, g in ys:
                steps.append((y, (marked, cleared, measured, asg, g), 1))
            for a, s, g, gr, w in reads:
                steps.append((a, (marked, s if a else s | bit, measured, g, gr), w))
    return steps
