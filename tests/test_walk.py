"""The counting walk on constant-round flag traces against one live
replay per (randomness, schedule) pair.

``walk._walk`` merges every run of a trace into weighted paths; here
its weight per (r, slots, flag assignment, output) must equal a counter
over the reference replays of ``live_reference``. Stock traces cover
toy-qr at 1 to 4 repetitions and toy-table under both simulators; the
adaptive traces are the hypothesis-generated ones of
``test_extraction``, which also checks the walk on the public-coin and
three-round traces.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import live_reference as live
from qromlab import pipeline, transforms, walk
from qromlab.cli import main
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _moves,
    _sparse_hypothesis,
    build_protocol,
    decide_constant_round,
    eps_star,
    extraction_prover_value,
    simulator_trace,
)
from qromlab.protocol import ConfigError, toy_table
from qromlab.transforms import MarSchedule, _schedule_count, enumerate_schedules
from qromlab.walk import _flag_steps, _walk
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
        spec = build_protocol(cfg)
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
    values = ((1, eps), (0, 1 - eps))
    counts = live.walk_counts(spec, x, trace, values=values)
    assert counts == live.hypothesis_counts(spec, x, trace, eps)
    assert sum(counts.values()) == len(spec.randomness)
    # integer weights are read over their sum: the same table as eps
    whole = ((1, eps.numerator), (0, eps.denominator - eps.numerator))
    assert live.walk_counts(spec, x, trace, values=whole) == counts
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


def reckless_trace(seed, letters, k, queries):
    """A flag trace that sometimes reads a response whatever its flag."""

    def trace(ask_h, ask_f):
        seen: list = []
        rng = random.Random(seed)
        for _ in range(queries):
            p = tuple(rng.choice(letters) for _ in range(rng.randint(1, k)))
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
    if new is not None:
        assert new.endswith("whose flag is clear")
        check = raised(lambda: _sparse_hypothesis(spec, 1, trace, (Fraction(1, 2),)))
        want = raised(lambda: live.sparse_hypothesis(spec, 1, trace, Fraction(1, 2)))
        assert (check is None) == (want is None)
    else:
        check_walk(spec, 1, trace, queries)


def test_a_read_then_reprogram_slot_records_the_clear_read():
    # timing 1 on a clear point answers 0 and marks it seen clear, while
    # the patch holds y; timing 0 answers y and leaves nothing seen
    none = frozenset()
    group = frozenset({0, 1})
    ys = ((1, group),)
    steps = _flag_steps((0,), 1, (0, 0, (), none, group), None, 1, ys)
    assert steps == [
        (0, (0, 0, (), none, group), 1),
        (1, (1, 0, ((0, (0,)),), none, group), 1),
        (0, (1, 1, ((0, (0,)),), none, group), 1),
    ]
    # a later unmeasured read of the patched point sees y and clears it
    (again,) = _flag_steps((0,), 1, (1, 1, ((0, (0,)),), none, group), None, 1, ys)
    assert again == (1, (1, 0, ((0, (0,)),), none, group), 1)
    # a live slot's y is the randomness: its read splits the group
    lives = tuple((r, frozenset({r})) for r in sorted(group))
    split = _flag_steps((0,), 1, (1, 1, ((0, (0,)),), none, group), None, 1, lives)
    assert split == [(r, (1, 0, ((0, (0,)),), none, frozenset({r})), 1) for r in (0, 1)]


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
            def asked(point):
                got.append(ask(point))
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
    # a query with one answer is answered inside a replay: 246 replays here
    assert len(replayed) < len(spec.randomness) * _schedule_count(spec.rounds, q) / 8


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
