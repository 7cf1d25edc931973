"""The counting walk in two earlier forms: the mask walk, as it was
before its path lost the patch and seen-clear masks, and the tuple walk,
as it was before its path was packed into an int.

Its path is (patch, seen-clear set, slots, assignment, group): the patch
mask holds the points its slots reprogrammed, and the seen-clear mask
the points whose last read answered 0 at a read-then-reprogram slot.
``_walk`` checks the response contract per path at each response read,
and a lone path's unmeasurable read of a point it has a value for keeps
its state without a ``_flag_steps`` call.

The tuple walk, ``tuple_walk``, keeps each path as a (slots,
assignment, group) tuple, checks the contract on the replay, and steps
every path once per read through ``_tuple_flag_steps``. ``walk._walk``
packs that path into an int and steps a run of reads of one point at
once and keeps each fired slot's schedule class on its leaves, which
``unkeyed`` drops; its leaves and refusals are tested against both
walks here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from qromlab.protocol import ProtocolSpec
from qromlab.transforms import _schedule_count


def unkeyed(walked) -> tuple:
    """``walk._walk``'s (total, leaves) with each leaf's schedule class
    dropped and the leaves that differed only in it merged: the leaves
    of the walks here, which keep no classes."""
    total, leaves = walked
    merged: dict = {}
    for weight, *leaf, _ in leaves:
        merged[tuple(leaf)] = merged.get(tuple(leaf), 0) + weight
    return total, [(weight, *leaf) for leaf, weight in merged.items()]


def _next_event(trace, answers: tuple, node, expand: Callable) -> tuple:
    """One replay of a trace from the start: the scripted answers first,
    then ``expand(node, kind, point)`` gives each further query's child
    nodes by answer, kind "h" for an oracle query and "f" for a response
    read. At a query with more than one child the replay goes on down
    the last child, and the others are set aside to replay later: the
    child a stack of all of them would pop first, so the walk meets its
    leaves in depth-first order.

    A read the trace drops, ``ask(point, drop=True)``, has one child:
    its children's paths merged, under the answer None, which the read
    returns. The trace must not use it; since a trace is deterministic
    given the answers it reads, every child would replay the same
    continuation, and each path state records all the read did.

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
        def ask(point, drop=False):
            answer = next(script, end)
            if answer is not end:
                return answer
            children = expand(at[1], kind, tuple(point))
            if drop:
                answer, at[1] = None, _merged(children)
            else:
                *rest, (answer, at[1]) = children.items()
                forks.extend((at[0] + (a,), child) for a, child in rest)
            at[0] += (answer,)
            return answer

        return ask

    out = trace(asker("h"), asker("f"))
    return out, at[1], forks


def _merged(children: dict) -> tuple:
    """The one node of a dropped read: its children's paths, with the
    weights of equal paths added. A lone child passes through as it is;
    with two or more, ``expand`` built each child's path dict afresh, so
    the first one takes in the rest."""
    (made, paths), *rest = children.values()
    for _, more in rest:
        for path, weight in more.items():
            paths[path] = paths.get(path, 0) + weight
    return made, paths


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
    query it meets and leaves the others to replays of their own. A read
    the trace drops has one child, all its answers' paths merged, and
    answers None. A node
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
                if not (live and k):  # r singletons only where a slot can fire
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


# ---------------------------------------------------------------------------
# The tuple walk.


def _tuple_next_event(trace, answers: tuple, node, expand: Callable) -> tuple:
    """One replay of a trace from the start: the scripted answers first,
    then ``expand(node, kind, point)`` gives each further query's child
    nodes by answer, kind "h" for an oracle query and "f" for a response
    read. At a query with more than one child the replay goes on down
    the last child, and the others are set aside to replay later: the
    child a stack of all of them would pop first, so the walk meets its
    leaves in depth-first order.

    A read the trace drops, ``ask(point, drop=True)``, has one child:
    its children's paths merged, under the answer None, which the read
    returns. The trace must not use it; since a trace is deterministic
    given the answers it reads, every child would replay the same
    continuation, and each path state records all the read did.

    The replay checks the response contract: a response read at p
    raises unless the trace's last kept read of p answered set. Every
    path at the node saw that answer, so this raises iff some path
    reads a clear flag: a flag read set stays set, as a slot reprograms
    to 1, and after a kept clear read of p, or none, the path no slot
    measured at p has it clear (a sampled flag walk draws 0 too).

    Raises:
        ValueError: the trace reads the response of a clear flag.

    Returns:
        (output, node, forks): the trace's output and the node it ended
        in, and the children set aside, as (answers, node), in the order
        their queries were met and each query's children in answer order.
    """
    script = iter(answers)
    end = object()
    at = [answers, node]
    forks: list = []
    last: dict = {}  # point -> answer of the trace's last kept read of it

    def asker(kind):
        def ask(point, drop=False):
            point = tuple(point)
            if kind == "f" and not last.get(point):
                raise ValueError(
                    f"trace reads the response at {point!r}, whose flag is clear"
                )
            answer = next(script, end)
            if answer is end:
                children = expand(at[1], kind, point)
                if drop:
                    answer, at[1] = None, _merged(children)
                else:
                    *rest, (answer, at[1]) = children.items()
                    forks.extend((at[0] + (a,), child) for a, child in rest)
                at[0] += (answer,)
            if kind == "h" and not drop:
                last[point] = answer
            return answer

        return ask

    out = trace(asker("h"), asker("f"))
    return out, at[1], forks


def tuple_walk(spec: ProtocolSpec, x, trace, k: int = 0, q: int = 0, values=None,
                live: bool = False, fixed=None) -> tuple:
    """Every run of a trace over the randomness, each ordered schedule of
    k slots in q oracle queries and the lazily sampled oracle table, as
    merged counted paths. With ``fixed``, an (ordinal, timing) pair and
    k = 1, the walk takes the one schedule whose slot fires at the query
    after ``ordinal`` queries with that timing, or never if the run makes
    no such query; merged leaves do not record the timing, so a caller
    that scores schedules apart walks each this way.

    The oracle ``trace(ask_h, ask_f)`` queries starts unset: an unset
    point answers 0, or with ``values`` (a tuple of equally likely
    values) is assigned each value on first query, and keeps it. A
    slot measures the query at its ordinal and reprograms the point to 1,
    or with ``live`` to the verifier randomness r, before (timing 0) or
    after (timing 1) answering; a later query of the point answers the
    reprogrammed value. ``ask_f(p)`` is the verifier's response at p
    under r; it must follow a set read of p (the contract
    ``pipeline.simulator_trace`` states), which each replay checks
    (``_tuple_next_event``).

    A trace is deterministic given its answers, so the walk goes depth
    first down its answer tree, and each leaf costs one replay
    (``_tuple_next_event``): a replay follows one child of every branching
    query it meets and leaves the others to replays of their own. A read
    the trace drops has one child, all its answers' paths merged, and
    answers None. A node
    holds every path that reached it, merged: paths with the same (slots,
    assignment, randomness group) add their counts of runs; the points
    a path's slots measured are the ones it reprogrammed. A
    response read splits each path's group by the response
    ``next_message`` gives, instead of forking over every r, and so does
    an answered live value. Each query is one ordinal: no slot fires, or
    one unused slot fires with timing 0 or 1 while the ordinal is at most
    q, and each answer this gives leads to one child node.

    Raises:
        ValueError: the trace reads the response of a clear flag.

    Returns:
        (total, leaves): per merged completed path, (weight, randomness
        group, slots, output, assignment, made); the group is a
        frozenset, slots a tuple of (slot, point) sorted by slot, the
        assignment a frozenset of (point, value) items and made the
        path's query count. Each r of a group has the path's int weight
        out of ``total`` = |R| · schedule count · |values|**depth, depth
        the most points a path assigned, counting the schedules whose
        unused slots sit past its last query and every value of its
        unassigned points; the walk raises unless they sum to ``total``.
        A fixed schedule counts 1.
    """
    rs = frozenset(spec.randomness)
    lives: dict = {}  # group -> (r, {r}) per r: a live group's reprogrammed reads
    splits: dict = {}  # (group, point) -> {response: subgroup}

    def expand(node, kind, point):
        made, paths = node
        children: dict = {}
        if kind == "h":
            ways, free = _tuple_flag_steps, (k if made < q else 0)
            if fixed is not None:  # the one slot fires at this query or not at all
                ways, free = (_tuple_fired, fixed[1]) if made == fixed[0] else (_tuple_flag_steps, 0)
            for path, weight in paths.items():
                group = path[2]
                if not (live and k):  # r singletons only where a slot can fire
                    ys: tuple = ((1, group),)
                elif group in lives:
                    ys = lives[group]
                else:
                    ys = lives[group] = tuple((r, frozenset((r,))) for r in group)
                for answer, step in ways(point, path, values, free, ys):
                    merged = children.setdefault(answer, {})
                    merged[step] = merged.get(step, 0) + weight
            return {a: (made + 1, merged) for a, merged in children.items()}
        for (slots, asg, group), weight in paths.items():
            if (group, point) not in splits:
                split: dict = {}
                for r in group:
                    split.setdefault(spec.next_message(x, r, point), set()).add(r)
                splits[group, point] = {c: frozenset(g) for c, g in split.items()}
            for c, g in splits[group, point].items():
                merged = children.setdefault(c, {})
                step = (slots, asg, g)
                merged[step] = merged.get(step, 0) + weight
        return {c: (made, merged) for c, merged in children.items()}

    done: dict = {}
    stack = [((), (0, {((), frozenset(), rs): 1}))]
    while stack:
        answers, node = stack.pop()
        out, (made, paths), forks = _tuple_next_event(trace, answers, node, expand)
        stack += forks
        for (slots, asg, group), weight in paths.items():
            leaf = (group, slots, out, asg, made)
            done[leaf] = done.get(leaf, 0) + weight
    base = len(values) if values else 1
    depth = max(len(asg) for _, _, _, asg, _ in done)
    # weigh in the never-fired schedules (none past a fixed one) and the
    # unassigned points
    unfired = _schedule_count if fixed is None else lambda k, q: 1
    for leaf in done:
        _, slots, _, asg, made = leaf
        done[leaf] *= (unfired(k - len(slots), max(q - made, 0))
                       * base ** (depth - len(asg)))
    total = len(rs) * unfired(k, q) * base**depth
    counted = sum(w * len(group) for (group, *_), w in done.items())
    if counted != total:
        raise RuntimeError(f"walk multiplicities sum to {counted}")
    return total, [(w, *leaf) for leaf, w in done.items()]


def _tuple_fired(point, path, values, timing, ys):
    """(answer, path) of each way the one slot of a fixed schedule takes
    an unmeasured path at ``point``: it measures the point and answers
    the reprogrammed value's reads ``ys`` (timing 0) or the plain read's
    answers (timing 1), as ``_tuple_flag_steps`` has a slot fire."""
    measured = ((0, point),)
    if timing == 0:
        return [(y, (measured, path[1], g)) for y, g in ys]
    return [(a, (measured, asg, g))
            for a, (_, asg, g) in _tuple_flag_steps(point, path, values, 0, ys)]


def _tuple_flag_steps(point, path, values, k, ys):
    """(answer, path) of each way one query at ``point`` takes a path
    (slots, assignment, group): unmeasured, then measured by each of the
    k slots not yet used, reprogramming before (timing 0) or after
    (timing 1) the answer. A point some slot measured answers its
    reprogrammed value. ``ys`` lists the (answer, group) pairs of a read
    of the reprogrammed value: (1, group), or (r, {r}) per r of a live
    group."""
    # plain loops, not comprehensions: each comprehension costs a frame,
    # and this runs once per path at every query
    slots, asg, group = path
    reads: list = []
    for _, measured in slots:
        if measured == point:  # a later read of the point sees y
            for y, g in ys:
                reads.append((y, asg, g))
            break
    else:
        if values is None:
            reads.append((0, asg, group))
        else:
            flags = dict(asg)
            if point in flags:
                reads.append((flags[point], asg, group))
            else:
                for v in values:
                    reads.append((v, asg | {(point, v)}, group))
    steps = []
    for a, g, gr in reads:
        steps.append((a, (slots, g, gr)))
    if len(slots) < k:
        used = [i for i, _ in slots]
        for i in range(k):
            if i in used:
                continue
            measured = tuple(sorted(slots + ((i, point),)))
            for y, g in ys:
                steps.append((y, (measured, asg, g)))
            for a, g, gr in reads:
                steps.append((a, (measured, g, gr)))
    return steps
