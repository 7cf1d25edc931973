"""The counting walk: the one driver of every classical query trace.

``_walk`` runs a trace, as ``pipeline`` builds them, under every
verifier randomness, every ordered measure-and-reprogram schedule and
every lazily sampled oracle table at once, and returns merged paths
counted in integers over one total. The trace is a plain callable, so
the walk replays it under scripted answers (``_next_event``) once per
leaf of its answer tree. A path, (slots, assignment, randomness group),
is one int (``_FIELD``). A read whose answer the trace drops
(``ask_h(point, drop=True)``) costs no replay, and the dropped reads of
one point with the kept read that may end them are one step
(``_run_steps``). A slot reprograms its point to 1, or to the live
randomness: ``pipeline._label_walk`` runs both hashed-challenge
experiments' response traces over a table of randomness labels that
way, a challenge being its label's response. Paths keep each fired
slot's schedule class, from which the pipeline's scorers value any count
of parallel repetitions of the walked one-repetition game.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Callable

from qromlab.protocol import MAX_STRATEGY_WORK, ConfigError, ProtocolSpec
from qromlab.transforms import _schedule_count

# A path's low _FIELD bits hold its group's index in the walk's table of
# groups, and the bits above them its core: the used-slot mask (k bits),
# each slot's point index in the walk's point table and its schedule
# class (_FIELD bits each a slot), and its assignment's index in the
# walk's assignment table. No table a walk can hold in memory outgrows a
# field.
_FIELD = 32
_LOW = (1 << _FIELD) - 1


def _next_event(trace, answers: tuple, node, expand: Callable) -> tuple:
    """One replay of a trace from the start: the scripted answers first,
    then ``expand(node, kind, point, reads, kept)`` walks each further
    query, kind "h" for an oracle query and "f" for a response read. A
    query with more than one child goes on down the last and sets the
    others aside, in the order a stack pops them depth first.

    A read the trace drops, ``ask(point, drop=True)``, answers None and
    has one child, its children's paths merged: a trace is deterministic
    given the answers it reads, and each path records all the read did.
    Dropped oracle reads of one point in a row wait, and ``expand`` walks
    them as one run of ``reads`` reads, with the kept read of the point
    that ends them (``kept``: children by answer) or alone (one node).

    A response read at p raises unless the trace's last kept read of p
    answered set (the response contract): every path at the node saw
    that answer, and a flag read set stays set, so this raises iff some
    path reads a clear flag.

    Returns:
        (output, node, forks): the trace's output, the node it ended in,
        and the children set aside as (answers, node).
    """
    script = iter(answers)
    end = object()
    at = [answers, node]
    forks: list = []
    last: dict = {}  # point -> answer of the trace's last kept read of it
    run = [None, 0]  # the point of the dropped reads not yet walked, and their count

    def flush():
        if run[1]:
            at[1] = expand(at[1], "h", run[0], run[1], False)
            run[1] = 0

    def asker(kind):
        def ask(point, drop=False):
            point = tuple(point)
            if kind == "f" and not last.get(point):
                raise ValueError(
                    f"trace reads the response at {point!r}, whose flag is clear"
                )
            answer = next(script, end)
            if answer is end:
                if kind == "f" or point != run[0]:
                    flush()
                if drop and kind == "h":
                    run[0] = point
                    run[1] += 1
                    answer = None
                elif drop:
                    answer, at[1] = None, expand(at[1], kind, point, 1, False)
                else:
                    reads, run[1] = run[1] + 1, 0
                    *rest, (answer, at[1]) = expand(at[1], kind, point, reads, True).items()
                    forks.extend((at[0] + (a,), child) for a, child in rest)
                at[0] += (answer,)
            if kind == "h" and not drop:
                last[point] = answer
            return answer

        return ask

    out = trace(asker("h"), asker("f"))
    flush()
    return out, at[1], forks


def _walk(spec: ProtocolSpec, x, trace, k: int = 0, q: int = 0, values=None,
          live: bool = False) -> tuple:
    """Every run of a trace over the randomness, each ordered schedule of
    k slots in q oracle queries and the lazily sampled oracle table, as
    merged counted paths. The paths of distinct schedule classes stay
    apart: a slot's class is the ordinal at which the run of reads it
    fired in starts, with its kind (``_ways``), so the schedules of one
    class take every run alike.

    The oracle ``trace(ask_h, ask_f)`` queries starts unset: an unset
    point answers 0, or with ``values`` (a tuple of equally likely
    values) is assigned each value on first query, and keeps it. A slot
    measures the query at its ordinal and reprograms the point to 1, or
    with ``live`` to the verifier randomness r, before (timing 0) or
    after (timing 1) answering; a later query of the point answers the
    reprogrammed value. ``ask_f(p)`` is the verifier's response at p
    under r; it must follow a set read of p (the contract
    ``pipeline.simulator_trace`` states), which each replay checks.

    A node holds every path that reached it, merged: paths with the same
    (slots, assignment, randomness group) add their counts of runs. Each
    query is one ordinal: no slot fires, or one unused slot fires with
    timing 0 or 1 while the ordinal is at most q. A run of reads of one
    point is one step, counted by ``_run_steps`` once per walk for every
    core with the same used slots, measured point and plain read, and
    kept in a table on the point, the run and the core, which paths of
    every group share. A response read splits each path's group by the
    response ``next_message`` gives, instead of forking over every r, and
    so does a live value.

    Raises:
        ConfigError: the randomness has more than ``MAX_STRATEGY_WORK``
            elements; nothing is built first.
        ValueError: the trace reads the response of a clear flag.

    Returns:
        (total, leaves): per merged completed path, (weight, randomness
        group, slots, output, assignment, made, class); the group is a
        frozenset, slots a tuple of (slot, point) sorted by slot, the
        assignment a frozenset of (point, value) items, made the path's
        query count and the class a (slot, start ordinal, kind) triple
        per slot of ``slots``. Each r of a group has the path's
        int weight out of ``total`` = |R| · schedule count ·
        |values|**depth, depth the most points a path assigned, counting
        the schedules whose unused slots sit past its last query and
        every value of its unassigned points; the walk raises unless
        they sum to ``total``.
    """
    if len(spec.randomness) > MAX_STRATEGY_WORK:
        raise ConfigError("the randomness exceeds the enumeration cap")
    rs = frozenset(spec.randomness)
    values = None if values is None else tuple(values)
    points: dict = {}  # point -> its index in ``table``
    table: list = []
    groups: list = [rs]
    indices: dict = {rs: 0}  # group -> its index in ``groups``
    assignments: list = [(frozenset(), {})]  # index -> (items, {point index: value})
    assigned: dict = {frozenset(): 0}  # items -> their index in ``assignments``
    lives: dict = {}  # group index -> (r, index of {r}) per r of the group
    splits: dict = {}  # (group index, point) -> (response, subgroup index) pairs
    moves: dict = {}  # (point index, run, kept) -> {core: its ``_run_steps``}
    computed: dict = {}  # ``_run_steps`` arguments -> its steps
    at_class = k * _FIELD  # from a slot's point field to its class field
    at_assignment = k + 2 * at_class
    slot_bits = (1 << k) - 1
    unclassed = ~(((1 << at_class) - 1) << (k + at_class))  # steps ignore the classes

    def group_index(group) -> int:
        if group not in indices:
            indices[group] = len(groups)
            groups.append(group)
        return indices[group]

    def plain_read(core: int, index: int) -> tuple:
        """(answer, change) of each way an unreprogrammed read of a point
        goes: 0 if unset, its value, or each value assigned, the change
        XORing the new assignment's index into the core."""
        if values is None:
            return ((0, 0),)
        a = core >> at_assignment
        items, held = assignments[a]
        if index in held:
            return ((held[index], 0),)
        reads = []
        for v in values:
            more = items | {(table[index], v)}
            if more not in assigned:
                assigned[more] = len(assignments)
                assignments.append((more, {**held, index: v}))
            reads.append((v, (a ^ assigned[more]) << at_assignment))
        return tuple(reads)

    def stepped(core: int, index: int, run: tuple, kept: bool) -> tuple:
        used = core & slot_bits
        measured = False
        for i in range(k):
            if used >> i & 1 and core >> (k + i * _FIELD) & _LOW == index:
                measured = True
        plain = () if measured else plain_read(core, index)
        args = (run, k, used, measured, plain, kept, bool(live and k))
        if len(plain) > 1:  # a fresh assignment per core: nothing to share
            return _run_steps(*args)
        ways = computed.get(args)
        if ways is None:
            ways = computed[args] = _run_steps(*args)
        return ways

    def advance(paths: dict, index: int, run: tuple, kept: bool, fresh: bool,
                made: int) -> dict:
        """The paths after a run that starts at ordinal ``made``: by answer
        when ``kept``, else merged. At a ``fresh`` point of a walk without
        values, a path's steps follow from its used slots alone."""
        known, mask = ({}, slot_bits) if fresh and values is None else (
            moves.get((index, run, kept)), unclassed)
        if known is None:
            known = moves[index, run, kept] = {}
        at = index | made << (at_class + 2)  # a firing slot's point and start
        children: dict = {}
        for path, weight in paths.items():
            core = path >> _FIELD
            ways = known.get(core & mask)
            if ways is None:
                ways = known[core & mask] = stepped(core, index, run, kept)
            plain, ys = ways
            if kept:
                for answer, steps in plain.items():
                    merged = children.get(answer)
                    if merged is None:
                        merged = children[answer] = {}
                    for (change, spread), count in steps.items():
                        step = path ^ (change | at * spread)
                        merged[step] = merged.get(step, 0) + weight * count
            else:
                for (change, spread), count in plain.items():
                    step = path ^ (change | at * spread)
                    children[step] = children.get(step, 0) + weight * count
            if ys:  # a live read: the answer r takes the group to {r}
                g = path & _LOW
                if g not in lives:
                    lives[g] = tuple((r, group_index(frozenset((r,)))) for r in groups[g])
                for r, single in lives[g]:
                    merged = children.get(r) if kept else children
                    if merged is None:
                        merged = children[r] = {}
                    for (change, spread), count in ys.items():
                        step = path ^ (change | at * spread) ^ g | single
                        merged[step] = merged.get(step, 0) + weight * count
        return children

    def expand(node, kind, point, reads, kept):
        made, paths = node
        if kind == "f":
            children: dict = {}
            for path, weight in paths.items():
                g = path & _LOW
                if (g, point) not in splits:
                    split: dict = {}
                    for r in groups[g]:
                        split.setdefault(spec.next_message(x, r, point), set()).add(r)
                    splits[g, point] = tuple(
                        (c, group_index(frozenset(sub))) for c, sub in split.items())
                for c, gc in splits[g, point]:
                    merged = children.setdefault(c, {})
                    merged[path ^ g | gc] = merged.get(path ^ g | gc, 0) + weight
            nodes = {c: (made, merged) for c, merged in children.items()}
            return nodes if kept else _merged(nodes)
        fresh = point not in points
        if fresh:
            points[point] = len(table)
            table.append(point)
        index = points[point]
        fire = max(0, min(reads, q - made)) if k else 0
        children = advance(paths, index, (fire, fire == reads), kept, fresh, made)
        if kept:
            return {a: (made + reads, merged) for a, merged in children.items()}
        return made + reads, children

    done: dict = {}  # (output, made) -> {path: weight}
    stack = [((), (0, {0: 1}))]  # the root path: no slot, no assignment, all of R
    while stack:
        answers, node = stack.pop()
        out, (made, paths), forks = _next_event(trace, answers, node, expand)
        stack += forks
        ended = done.setdefault((out, made), paths)
        if ended is not paths:
            for path, weight in paths.items():
                ended[path] = ended.get(path, 0) + weight
    base = len(values) if values else 1
    depth = max(len(assignments[a][0]) for a in {
        path >> (_FIELD + at_assignment) for paths in done.values() for path in paths
    }) if values else 0
    # weigh in the never-fired schedules, counted once per (unused slots,
    # queries left), and the unassigned points
    unfired: dict = {(k, q): _schedule_count(k, q)}
    decoded: dict = {}  # made -> {core: (slots, assignment, class, factor)}
    leaves = []
    counted = 0
    for (out, made), paths in done.items():
        known = decoded.get(made)
        if known is None:
            known = decoded[made] = {}
        for path, weight in paths.items():
            core = path >> _FIELD
            leaf = known.get(core)
            if leaf is None:
                used = [i for i in range(k) if core >> i & 1]
                slots = tuple([(i, table[core >> (k + i * _FIELD) & _LOW]) for i in used])
                asg = assignments[core >> at_assignment][0]
                left = (k - len(slots), max(q - made, 0))
                if left not in unfired:
                    unfired[left] = _schedule_count(*left)
                key = tuple([(i, *divmod(core >> (k + at_class + i * _FIELD) & _LOW, 4))
                             for i in used])
                leaf = known[core] = slots, asg, key, unfired[left] * base ** (depth - len(asg))
            slots, asg, key, factor = leaf
            group = groups[path & _LOW]
            weight *= factor
            counted += weight * len(group)
            leaves.append((weight, group, slots, out, asg, made, key))
    total = len(rs) * unfired[k, q] * base**depth
    if counted != total:
        raise RuntimeError(f"walk multiplicities sum to {counted}")
    return total, leaves


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


def _run_steps(run: tuple, k: int, used: int, measured: bool, plain: tuple, kept: bool,
               live: bool) -> tuple:
    """(plain, ys): the ways a run of reads of one point takes a path
    whose used-slot mask is ``used``, as {(change, spread): count}: the
    path XORs in the change and the point's index times the spread,
    which writes the index into the fields of the slots that fire.
    ``plain`` in holds the (answer, change) ways of a plain read of the
    point; out, the steps that keep the group, in a dict per answer when
    ``kept``. ``ys`` holds the steps that read the live reprogrammed
    value, whose answer r splits the group. ``_ways`` counts them.

    A firing slot's kind (``_ways``) goes into its class only where the
    kinds' steps differ: none at a measured point,
    where every read answers the reprogrammed value; kind 1 apart from 0
    where the plain read assigns the point; kind 2 apart from 1 at a kept
    read, whose answer it sets."""
    by: dict = {}
    if not run[0] and not measured:  # one plain read, and no slot to count
        for answer, change in plain:
            into = by.setdefault(answer, {}) if kept else by
            into[change << _FIELD, 0] = into.get((change << _FIELD, 0), 0) + 1
        return by, {}
    changes = [change << _FIELD for _, change in plain]

    def placed(steps: dict) -> dict:
        out: dict = {}
        for (read, bits, spread), count in steps.items():
            step = (bits if read is None else bits | changes[read], spread)
            out[step] = out.get(step, 0) + count
        return out

    answers = tuple(answer for answer, _ in plain)
    kinds = (0, 0, 0)  # the class field value of each kind
    if not measured:
        middle = 1 if any(changes) else 0
        kinds = (0, middle, 2 if kept else middle)
    by, ys = _ways(run, k, used, measured, answers, kept, live, kinds)
    if kept:
        return {answer: placed(steps) for answer, steps in by.items()}, placed(ys)
    return placed(by), placed(ys)


@functools.lru_cache(maxsize=1024)
def _ways(run: tuple, k: int, used: int, measured: bool, answers: tuple, kept: bool,
          live: bool, kinds: tuple) -> tuple:
    """``_run_steps`` with each step as (read, bits, spread): ``read`` is
    None where the path keeps its assignment, else the index in
    ``answers`` of the plain read whose assignment it takes. Without
    ``live`` the reprogrammed value reads 1. It depends on the run's
    shape alone, so walks share it.

    ``run`` is (fire, tail): slots may fire at the first ``fire`` reads,
    each with timing 0 or 1, and ``tail`` says the last read is one of
    them. Only the last read is kept. A set S of unused slots fires in
    perm(fire, |S|) · 2**|S| ways. If a slot ``measured`` the point
    before the run, every read answers the reprogrammed value. Otherwise
    the first read is plain and takes the plain read's assignment,
    except in the |S| · perm(fire - 1, |S| - 1) · 2**(|S| - 1) ways a slot
    fires there with timing 0; and the last read answers the plain read
    when no slot fires, or the one slot of S fires there with timing 1.

    Those are the three kinds of the slots firing in the run: 0 where a
    slot fires at the first read with timing 0, 2 where the one slot
    fires at the last with timing 1, and 1 otherwise. ``bits`` writes
    ``kinds[kind]`` into each firing slot's class field, so steps of
    kinds that ``kinds`` tells apart stay apart.
    """
    fire, tail = run
    unused = [i for i in range(k) if not used >> i & 1]
    by: dict = {}
    ys: dict = {}
    for s in range(min(len(unused), fire) + 1):
        every = math.perm(fire, s) * 2**s
        first = s * math.perm(fire - 1, s - 1) * 2 ** (s - 1) if s else 0
        last = 1 if tail and s == 1 else 0
        for chosen in combinations(unused, s):
            bits = sum(1 << i for i in chosen) << _FIELD
            spread = sum(1 << (k + i * _FIELD) for i in chosen) << _FIELD
            # (answer, read, count, kind); the answer None reads the reprogrammed value
            if measured:  # every kind reads the reprogrammed value alike
                counts = [(None, None, every, 0)]
            elif s:
                counts = [(None, None, first, 0)]
                counts += [(None, j, every - first - last, 1) for j in range(len(answers))]
                counts += [(a, j, last, 2) for j, a in enumerate(answers)]
            else:
                counts = [(a, j, 1, 0) for j, a in enumerate(answers)]
            for answer, read, count, kind in counts:
                key = (read, bits | kinds[kind] * (spread << k * _FIELD), spread)
                if count and answer is None and live:
                    ys[key] = ys.get(key, 0) + count
                elif count:
                    into = by.setdefault(1 if answer is None else answer, {}) if kept else by
                    into[key] = into.get(key, 0) + count
    return by, ys
