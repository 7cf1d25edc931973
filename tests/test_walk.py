"""The counting walk on constant-round flag traces against one live
replay per (randomness, schedule) pair.

``walk._walk`` merges every run of a trace into paths counted in
integers over one total; here its mass per (r, slots, flag assignment,
output) must equal a counter over the reference replays of
``live_reference``. Stock traces cover toy-qr at 1 to 4 repetitions and
toy-table under both simulators; the adaptive traces are the
hypothesis-generated ones of ``test_extraction``, which also checks the
walk on the public-coin and three-round traces.
"""

import ast
import inspect
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import live_reference as live
import score_reference
import walk_reference
from executor_reference import assert_same_value
from qromlab import pipeline, transforms, walk
from qromlab.cli import main
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _hash_trace,
    _label_walk,
    _moves,
    _response_trace,
    _sparse_hypothesis,
    decide_constant_round,
    default_config,
    eps_star,
    extraction_prover_value,
    simulator_trace,
)
from fold_reference import folded
from qromlab.protocol import ConfigError, toy_table
from qromlab.transforms import MarSchedule, _schedule_count, enumerate_schedules
from qromlab.walk import _walk
from test_extraction import LETTERS, SPECS, flag_trace

STOCK = {
    **{f"toy-qr-t{reps}": ExperimentConfig(reps=reps) for reps in (1, 2, 3, 4)},
    "toy-table": ExperimentConfig(
        protocol="toy-table", yes_instances=(1, 3), no_instances=(0, 2)
    ),
}


def stock(name):
    """(spec, statement, trace, q) for every statement of a stock config
    under every simulator; q is the trace's flag-query count."""
    for sim in SIMULATORS:
        cfg = replace(STOCK[name], simulator=sim)
        spec = folded(cfg)
        for x in cfg.yes_instances + cfg.no_instances:
            trace = simulator_trace(spec, _moves(cfg, spec, x))
            yield spec, x, trace, 2 * spec.rounds * cfg.q


def check_walk(spec, x, trace, q):
    k = spec.rounds
    scheds = enumerate_schedules(k, q)
    counts = live.walk_counts(spec, x, trace, k, q)
    assert counts == live.live_counts(spec, x, trace, scheds)
    assert sum(counts.values()) == len(spec.randomness) * _schedule_count(k, q)
    assert extraction_prover_value(spec, x, trace, q) == (
        live.extraction_prover_value(spec, x, trace, scheds)
    )


def check_hypothesis(spec, x, trace, eps):
    # the fair walk reweighed by the likelihood ratio of an eps-sparse
    # table is the eps-forked replays
    fair = live.walk_counts(spec, x, trace, values=(1, 0))
    counts = Counter()
    for (r, slots, asg, out), mass in fair.items():
        ones = sum(v for _, v in asg)
        counts[r, slots, asg, out] = (
            mass * (2 * eps) ** ones * (2 - 2 * eps) ** (len(asg) - ones)
        )
    assert counts == live.hypothesis_counts(spec, x, trace, eps)
    assert sum(counts.values()) == len(spec.randomness)
    assert _sparse_hypothesis(spec, x, trace, (eps,)) == (
        live.sparse_hypothesis(spec, x, trace, eps),
    )


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_multiplicities(name):
    for spec, x, trace, q in stock(name):
        check_walk(spec, x, trace, q)
        for eps in (Fraction(1, 4), eps_star(spec.rounds, spec.rounds)):
            check_hypothesis(spec, x, trace, eps)
        densities = (Fraction(1, 4), eps_star(spec.rounds, spec.rounds),
                     Fraction(2, 3), Fraction(1))
        assert _sparse_hypothesis(spec, x, trace, densities) == tuple(
            live.sparse_hypothesis(spec, x, trace, eps) for eps in densities
        )


@pytest.mark.parametrize("name", sorted(STOCK))
def test_the_hypothesis_sums_each_class_once(name):
    # summing each (ones, zeros) class in integers and applying each
    # density's ratio once per class gives the per-leaf value, type too
    for spec, x, trace, _ in stock(name):
        densities = (Fraction(1, 4), eps_star(spec.rounds, spec.rounds),
                     Fraction(2, 3), Fraction(1), Fraction(0))
        got = _sparse_hypothesis(spec, x, trace, densities)
        want = score_reference.leafwise_sparse_hypothesis(spec, x, trace, densities)
        for value, expected in zip(got, want, strict=True):
            assert_same_value(value, expected)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    x=st.sampled_from([1, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 5),
)
def test_adaptive_multiplicities(name, x, seed, queries):
    spec = SPECS[name]
    trace = flag_trace(seed, LETTERS[name], spec.rounds, queries)
    check_walk(spec, x, trace, queries)
    check_hypothesis(spec, x, trace, Fraction(1, 3))


def leaves(weighted):
    """A walk's leaves as a leaf -> weight mapping: the order a walk meets
    its leaves in is not part of its contract."""
    out = {}
    for weight, *leaf in weighted:
        assert tuple(leaf) not in out
        out[tuple(leaf)] = weight
    return out


def check_reference(spec, x, trace, k=0, q=0, values=None):
    # the reference walk forks over (value, weight) pairs and weighs a
    # leaf by its mass; the walk forks uniformly, over one total
    walked = walk_reference.unkeyed(_walk(spec, x, trace, k, q, values))
    runs = len(spec.randomness) * _schedule_count(k, q)
    got = leaves(live.masses(walked, runs))
    pairs = None if values is None else tuple((v, 1) for v in values)
    assert got == leaves(walk_reference._walk(spec, x, trace, k, q, pairs))


def check_integers(walked):
    total, paths = walked
    assert all(type(weight) is int for weight, *_ in paths)
    assert sum(weight * len(group) for weight, group, *_ in paths) == total


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_leaves_match_the_reference_walk(name):
    for spec, x, trace, q in stock(name):
        check_reference(spec, x, trace, spec.rounds, q)
        check_reference(spec, x, trace, 0, 0, (1, 0))


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_walks_count_in_integers_over_their_total(name):
    # every leaf weight is a run count, and the counts over the
    # randomness sum to the total the scorers divide by
    for spec, x, trace, q in stock(name):
        k = spec.rounds
        check_integers(_walk(spec, x, trace, k, q))
        check_integers(_walk(spec, x, trace, values=(1, 0)))
    for sim in SIMULATORS:
        cfg = replace(STOCK[name], simulator=sim)
        spec = folded(cfg)
        for x in cfg.yes_instances + cfg.no_instances:
            move = _moves(cfg, spec, x)
            response = _response_trace(spec, move)
            check_integers(_label_walk(spec, x, response))
            check_integers(_label_walk(spec, x, response, 1, cfg.q))
            if spec.public_coin:
                check_integers(_label_walk(spec, x, _hash_trace(spec, move)))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    x=st.sampled_from([1, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 5),
)
def test_adaptive_leaves_match_the_reference_walk(name, x, seed, queries):
    spec = SPECS[name]
    trace = flag_trace(seed, LETTERS[name], spec.rounds, queries)
    check_reference(spec, x, trace, spec.rounds, queries)
    check_reference(spec, x, trace, 0, 0, (1, 0))


def reckless_trace(seed, letters, k, queries):
    """A flag trace that sometimes reads a response whatever its flag,
    and sometimes drops a read."""

    def trace(ask_h, ask_f):
        seen: list = []
        rng = random.Random(seed)
        for _ in range(queries):
            p = tuple(rng.choice(letters) for _ in range(rng.randint(1, k)))
            if rng.random() < 0.3:
                ask_h(p, drop=True)
            else:
                seen.append(ask_h(p))
            if len(p) < k and rng.random() < 0.3:
                seen.append(ask_f(p))
            rng = random.Random(repr((seed, seen)))
        return tuple(rng.choice(letters) for _ in range(k))

    return trace


def raised(call):
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 4))
def test_the_walk_refuses_a_clear_read_where_a_replay_does(seed, queries):
    spec = toy_table()
    trace = reckless_trace(seed, LETTERS["toy-table"], 2, queries)
    scheds = enumerate_schedules(2, queries)
    old = raised(lambda: live.extraction_prover_value(spec, 1, trace, scheds))
    new = raised(lambda: extraction_prover_value(spec, 1, trace, queries))
    assert (old is None) == (new is None)
    ref = raised(lambda: walk_reference._walk(spec, 1, trace, 2, queries))
    assert ref == raised(lambda: _walk(spec, 1, trace, 2, queries))
    if new is not None:
        assert new.endswith("whose flag is clear")
        check = raised(lambda: _sparse_hypothesis(spec, 1, trace, (Fraction(1, 2),)))
        want = raised(lambda: live.sparse_hypothesis(spec, 1, trace, Fraction(1, 2)))
        assert (check is None) == (want is None)
    else:
        check_walk(spec, 1, trace, queries)


def test_a_slot_reprograms_the_point_it_measures():
    # timing 0 answers y and timing 1 the clear value; either way the
    # measured point is reprogrammed, and a path is (slots, assignment,
    # group): nothing records what the read saw
    spec = toy_table()
    group = frozenset(spec.randomness)
    none = frozenset()
    slot = ((0, (0,)),)

    def reads(n):
        return lambda ask_h, ask_f: tuple(ask_h((0,)) for _ in range(n))

    def walked(trace, **kwargs):
        total, leaves = walk_reference.unkeyed(_walk(spec, 1, trace, **kwargs))
        return total, {tuple(leaf): weight for weight, *leaf in leaves}

    assert walked(reads(1), k=1, q=1) == (6, {
        (group, (), (0,), none, 1): 1,
        (group, slot, (1,), none, 1): 1,
        (group, slot, (0,), none, 1): 1,
    })
    # a later read of the measured point sees y; a slot past q never fires
    assert walked(reads(2), k=1, q=1) == (6, {
        (group, (), (0, 0), none, 2): 1,
        (group, slot, (1, 1), none, 2): 1,
        (group, slot, (0, 1), none, 2): 1,
    })
    # a live slot's y is the randomness: its read splits the group
    live = walked(reads(2), k=1, q=1, live=True)[1]
    split = Counter()
    for r in spec.randomness:
        split[frozenset({r}), slot, (r, r), none, 2] += 1  # timing 0
        split[frozenset({r}), slot, (0, r), none, 2] += 1  # timing 1
    assert {leaf: w for leaf, w in live.items() if leaf[1]} == split
    # an unmeasured read of an unset point samples each value once
    assert walked(reads(2), values=(1, 0)) == (4, {
        (group, (), (v, v), frozenset({((0,), v)}), 2): 1 for v in (1, 0)
    })


def test_a_response_read_checks_the_last_kept_read():
    # the response contract is checked on the replay: a response at p
    # needs the last read of p the trace kept to have answered set, and
    # the walk raises where the reference raises on some path
    spec = toy_table()

    def refused(drops, guarded=False):
        def trace(ask_h, ask_f):
            live = 0
            for drop in drops:
                if drop:
                    ask_h((1,), drop=True)
                else:
                    live = ask_h((1,))
            return (ask_f((1,)) if live or not guarded else 0), 0

        got = raised(lambda: _walk(spec, 1, trace, 1, len(drops)))
        assert got == raised(lambda: walk_reference._walk(spec, 1, trace, 1, len(drops)))
        return got

    clear = "trace reads the response at (1,), whose flag is clear"
    assert refused(()) == clear  # never read
    assert refused((True,)) == clear  # only dropped: some path left it clear
    assert refused((False,)) == clear  # some path read it clear
    assert refused((False, True)) == clear  # a later slot sets it on some paths only
    assert refused((False,), guarded=True) is None
    assert refused((False, True), guarded=True) is None  # read set stays set


@pytest.mark.parametrize("q", [7, 9])
def test_the_query_bill_is_checked(q):
    # the stock toy-qr trace makes 2k * k = 8 flag queries
    spec, x, trace, made = next(stock("toy-qr-t1"))
    assert made == 8
    message = f"trace makes 8 flag queries, scheduled for {q}"
    with pytest.raises(ConfigError, match=message):
        extraction_prover_value(spec, x, trace, q)
    with pytest.raises(ConfigError, match=message):
        live.extraction_prover_value(spec, x, trace, enumerate_schedules(2, q))


def test_multiplicities_that_miss_the_schedule_count_raise(monkeypatch):
    spec, x, trace, q = next(stock("toy-qr-t1"))
    # only the full count is off: a path's unused slots past its last
    # query (none here, as every path makes q queries) still count 1
    monkeypatch.setattr(walk, "_schedule_count", lambda k, q: 258 if q else 1)
    with pytest.raises(RuntimeError, match="walk multiplicities sum to 514"):
        _walk(spec, x, trace, spec.rounds, q)


def test_each_trace_node_is_replayed_once(monkeypatch):
    spec, x, trace, q = next(stock("toy-qr-t4"))
    replayed, leaves = [], []
    next_event = walk._next_event

    def counted(trace, answers, *rest):
        replayed.append(answers)
        return next_event(trace, answers, *rest)

    def recorded(ask_h, ask_f):
        """The trace, logging the answers each run of it got to the end."""
        got = []

        def logged(ask):
            def asked(point, drop=False):
                got.append(ask(point, drop=drop))
                return got[-1]

            return asked

        out = trace(logged(ask_h), logged(ask_f))
        leaves.append(tuple(got))
        return out

    monkeypatch.setattr(walk, "_next_event", counted)
    _walk(spec, x, recorded, spec.rounds, q)
    assert len(replayed) == len(set(replayed))
    # one replay per leaf: every replay runs the trace to its end, down
    # an answer path no other replay takes
    assert len(leaves) == len(set(leaves)) == len(replayed)
    # a query with one answer is answered inside a replay, and a dropped
    # read has one child: 17 replays here
    assert len(replayed) < len(spec.randomness) * _schedule_count(spec.rounds, q) / 8
    assert len(replayed) == 17


@pytest.mark.parametrize("reps, folded", [(None, 54), (4, 102)])
def test_a_dropped_read_costs_no_replay(reps, folded, monkeypatch):
    # the pad, full-transcript and release reads of every statement's
    # walks fork nothing: only the live reads and the responses branch.
    # Every reps walks the one-repetition spec, where walking the folded
    # spec took ``folded`` replays
    replayed = []
    next_event = walk._next_event

    def counted(*args):
        replayed.append(args[1])
        return next_event(*args)

    monkeypatch.setattr(walk, "_next_event", counted)
    cfg = default_config("constant-round")
    decide_constant_round(cfg if reps is None else replace(cfg, reps=reps))
    assert len(replayed) == 18 < folded


@pytest.mark.parametrize("reps, folded",
                         [(None, 72), (4, 88), (8, 568), (10, 2_104)])
def test_each_run_step_is_computed_once(reps, folded, monkeypatch):
    # a run of reads of one point is one step, and a walk computes each
    # step once for every core with the same used slots, measured point
    # and plain read. Every reps walks the one-repetition spec, where
    # walking the folded spec took ``folded`` calls, and stepping every
    # path of it at every read 660, 1,156, 16,036 and 63,652
    counted = []
    run_steps = walk._run_steps

    def counting(*args):
        counted.append(args[0])
        return run_steps(*args)

    monkeypatch.setattr(walk, "_run_steps", counting)
    cfg = default_config("constant-round")
    decide_constant_round(cfg if reps is None else replace(cfg, reps=reps))
    assert len(counted) == 60 < folded


def test_the_never_fired_count_is_taken_once_per_argument(monkeypatch):
    # each walk counts the schedules past a path's last query once per
    # (unused slots, queries left), not once per leaf
    counts: list = []
    schedule_count = walk._schedule_count
    inner = pipeline._walk

    def walked(*args, **kwargs):
        counts.append([])
        return inner(*args, **kwargs)

    def counting(k, q):
        counts[-1].append((k, q))
        return schedule_count(k, q)

    monkeypatch.setattr(pipeline, "_walk", walked)
    monkeypatch.setattr(walk, "_schedule_count", counting)
    decide_constant_round(replace(default_config("constant-round"), reps=4))
    assert len(counts) == 6
    for pairs in counts:
        assert len(pairs) == len(set(pairs))


def test_a_dropped_read_adds_the_weights_of_equal_paths():
    # in the suite's walks the children of one read hold distinct paths,
    # so the merge is checked on its own: a lone child passes through,
    # and equal paths add their weights
    lone = {0: (3, {"p": 1})}
    assert walk._merged(lone) == lone[0]
    assert walk._merged(lone)[1] is lone[0][1]
    children = {0: (3, {"p": 1, "q": 4}), 1: (3, {"q": 2, "s": 5})}
    assert walk._merged(children) == (3, {"p": 1, "q": 6, "s": 5})


def asker_calls(tree):
    """The calls in a syntax tree of every asker name the pipeline's
    traces use: ask_h, a flag or hash-table read, and ask_c, a challenge
    read on the label walk."""
    return sorted((node for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id in ("ask_h", "ask_c")),
                  key=lambda node: node.lineno)


def test_a_trace_drops_exactly_the_reads_it_discards():
    # every asker call of the pipeline whose value is thrown away carries
    # drop=True, so the walk merges its children; and every dropped call
    # is such a statement, so the None it returns is never bound or tested
    tree = ast.parse(inspect.getsource(pipeline))
    calls = asker_calls(tree)
    discarded = {node.value for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    dropped = set()
    for node in calls:
        marked = False
        for mark in node.keywords:
            assert mark.arg == "drop" and isinstance(mark.value, ast.Constant)
            assert mark.value.value is True, ast.unparse(node)
            marked = True
        assert marked == (node in discarded), f"line {node.lineno}: {ast.unparse(node)}"
        if marked:
            dropped.add(node)
    assert len(calls) > len(dropped) > 0  # the live reads stay, the pads are dropped
    # public-coin's uncompute reads are three dropped challenge reads
    (hash_trace,) = (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and node.name == "_hash_trace")
    hashed = asker_calls(hash_trace)
    assert [node.func.id for node in hashed] == ["ask_c"] * 4
    assert sum(node in dropped for node in hashed) == 3


def no_schedules(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(MarSchedule, "__post_init__", unreachable)
    monkeypatch.setattr(transforms, "enumerate_schedules", unreachable)


def test_constant_round_builds_no_schedule(monkeypatch):
    no_schedules(monkeypatch)
    assert decide_constant_round(ExperimentConfig(reps=2)).decision["gap"] is not None


def test_three_round_builds_no_schedule_at_any_budget(monkeypatch, tmp_path, capsys):
    # 200,001 single-slot schedules, counted and never built: the trace
    # makes one query, so every slot past it weighs in without a replay
    no_schedules(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["run", "three-round", "--q", "100000", "--out", str(out)]) == 0
    assert '"q": 100000' in out.read_text()
    assert "[FAIL]" not in capsys.readouterr().out


def test_one_hypothesis_walk_serves_both_densities(monkeypatch):
    forked = []
    inner = pipeline._walk

    def counted(spec, x, trace, k=0, q=0, values=None, live=False):
        forked.append(values is not None)
        return inner(spec, x, trace, k, q, values, live)

    monkeypatch.setattr(pipeline, "_walk", counted)
    cfg = ExperimentConfig()
    decide_constant_round(cfg)
    assert forked.count(True) == len(cfg.yes_instances)
    assert forked.count(False) == len(cfg.yes_instances + cfg.no_instances)
