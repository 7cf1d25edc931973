"""The constant-round counting walk over a classical flag trace.

``_walk`` runs a trace, as ``pipeline.simulator_trace`` builds it, under
every verifier randomness and every ordered measure-and-reprogram
schedule at once, with ``pipeline._replay``'s rules, and returns merged
paths with integer schedule counts (or rational fork weights) in place
of one replay per (randomness, schedule) pair. The trace is a plain
callable, so the walk replays it once per node of its answer tree under
scripted answers (``_next_event``); everything else is bookkeeping over
small hashable states.
"""

from __future__ import annotations

from typing import Optional

from qromlab.protocol import ConfigError, ProtocolSpec
from qromlab.transforms import _schedule_count


class _Pause(Exception):
    """A scripted replay ran out of answers at a query; args[0] is the
    query as (oracle, point)."""


def _next_event(trace, answers: tuple) -> tuple:
    """What a trace does after the scripted answers, in order across
    both oracles: ("h", point) or ("f", point) for its next query, or
    ("out", output) when it returns. One partial replay."""
    script = iter(answers)
    end = object()

    def asker(kind):
        def ask(point):
            answer = next(script, end)
            if answer is end:
                raise _Pause((kind, tuple(point)))
            return answer

        return ask

    try:
        return ("out", trace(asker("h"), asker("f")))
    except _Pause as pause:
        return pause.args[0]


def _walk(spec: ProtocolSpec, x, trace, k: int = 0, q: Optional[int] = None,
          values=None) -> list:
    """Every run of a trace over the randomness and each ordered
    schedule of k slots in q flag queries, as merged counted paths.

    The live replay of ``pipeline._replay`` (flags start clear, a slot
    reprograms its point to 1 with its timing) under all (randomness,
    schedule) pairs at once, or, with ``values`` and no slots, its lazy
    flag table forked as ``pipeline._fork`` forks it. A trace is
    deterministic given its answers, so the walk goes depth first down
    its answer tree, and each node costs one partial replay
    (``_next_event``). A node holds every path that reached it, merged:
    paths with the same (patch, seen-clear set, slots, assignment) add
    their weights, a weight being a schedule count times the fork
    weights of the lazily sampled flags. The node's answers fix its
    randomness group: a response read splits the live randomness by the
    response ``next_message`` returns there, instead of forking over
    every r. Each flag query is one ordinal: no slot fires, or one
    unused slot fires with timing 0 or 1, and each answer this gives
    leads to one child node. Patch and seen-clear sets are bit masks
    over the points in the order the walk first meets them.

    Raises:
        ValueError: a path reads the response of a clear flag, as in
            ``_replay``.
        ConfigError: with q given, a path makes other than q flag
            queries.

    Returns:
        (weight, randomness group, slots, output, assignment) per merged
        completed path; slots is a tuple of (slot, point) sorted by slot,
        and the assignment a frozenset of (point, value) items.
        Each r of a group has the path's weight, and the weights sum to
        |R| times the schedule count, or the walk raises.
    """
    rs = tuple(spec.randomness)
    bits: dict = {}  # point -> its mask bit
    done: dict = {}
    # (answers, flag queries made, randomness group, paths at the node)
    stack = [((), 0, rs, {(0, 0, (), frozenset()): 1})]
    while stack:
        answers, made, group, paths = stack.pop()
        kind, what = _next_event(trace, answers)
        if kind == "h":
            bit = bits.setdefault(what, 1 << len(bits))
            children: dict = {}
            for path, weight in paths.items():
                for answer, step, w in _flag_steps(what, bit, path, values, k):
                    merged = children.setdefault(answer, {})
                    merged[step] = merged.get(step, 0) + weight * w
            stack += [(answers + (a,), made + 1, group, merged)
                      for a, merged in children.items()]
        elif kind == "f":
            bit = bits.get(what, 0)
            for patch, seen, _, asg in paths:
                if seen & bit or not (patch & bit or dict(asg).get(what)):
                    raise ValueError(
                        f"trace reads the response at {what!r}, whose flag is clear"
                    )
            split: dict = {}
            for r in group:
                split.setdefault(spec.next_message(x, r, what), []).append(r)
            stack += [(answers + (c,), made, tuple(g), paths) for c, g in split.items()]
        else:
            if q is not None and made != q:
                raise ConfigError(f"trace makes {made} flag queries, scheduled for {q}")
            for (_, _, slots, asg), weight in paths.items():
                leaf = (group, slots, what, asg)
                done[leaf] = done.get(leaf, 0) + weight
    total = sum(w * len(group) for (group, *_), w in done.items())
    if total != len(rs) * _schedule_count(k, 0 if q is None else q):
        raise RuntimeError(f"walk multiplicities sum to {total}")
    return [(w, *leaf) for leaf, w in done.items()]


def _flag_steps(point, bit, path, values, k):
    """(answer, path, weight) of each way one flag query at ``point``
    (mask ``bit``) takes a path (patch, seen-clear set, slots,
    assignment): unmeasured, then measured by each of the k slots not
    yet used, reprogramming before (timing 0) or after (timing 1) the
    answer, with ``_replay``'s rules."""
    patch, seen, slots, asg = path
    cleared = seen & ~bit
    if patch & bit:  # a later read of the point sees y
        reads: tuple = ((1, cleared, asg, 1),)
    elif values is None:
        reads = ((0, seen, asg, 1),)
    else:
        flags = dict(asg)
        if point in flags:
            reads = ((flags[point], seen, asg, 1),)
        else:
            reads = tuple((v, seen, asg | {(point, v)}, w) for v, w in values)
    steps = [(a, (patch, s, slots, g), w) for a, s, g, w in reads]
    if len(slots) < k:
        used = {i for i, _ in slots}
        marked = patch | bit
        for i in range(k):
            if i in used:
                continue
            measured = tuple(sorted(slots + ((i, point),)))
            steps.append((1, (marked, cleared, measured, asg), 1))
            steps += [(a, (marked, s if a else s | bit, measured, g), w)
                      for a, s, g, w in reads]
    return steps
