"""The decision experiments' counting walks against the old driver
(``live_reference``: one ``replay`` per randomness and schedule, forked
over the lazy table by ``fork``) and against the hand-written forkers and
extraction provers (``extraction_reference``) that driver replaced.

Two sets of traces: the stock honest and give-up simulators of toy-qr
(1 and 2 repetitions) and toy-table, and hypothesis-generated adaptive
traces. The flag traces keep the contract ``simulator_trace`` states.
Response traces that query each point at most once are checked against
both references; those that query a point again after a slot only
against the old driver, because the hand-written three-round routes
forget a reprogrammed value on a repeated query while the driver and the
walk keep it. Public-coin covers toy-qr only: toy-table's response
depends on the prover message, so it has no hashed challenge.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extraction_reference as ref
import live_reference as live
import trace_reference
from fold_reference import challenge_structure, folded
from qromlab import pipeline
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _fs_game_value,
    _hash_trace,
    _label_walk,
    _moves,
    _response_trace,
    _single_slot_extraction,
    _sparse_hypothesis,
    build_protocol,
    decide_public_coin,
    eps_star,
    extraction_prover_value,
    simulator_trace,
)
from qromlab.protocol import toy_qr, toy_table
from qromlab.transforms import MarSchedule, enumerate_schedules
from qromlab.walk import _walk

CONFIGS = {
    "toy-qr-t1": ExperimentConfig(reps=1),
    "toy-qr-t2": ExperimentConfig(reps=2),
    "toy-table": ExperimentConfig(
        protocol="toy-table", yes_instances=(1, 3), no_instances=(0, 2)
    ),
}


def stock(name):
    """(spec, statement, cfg) for every statement of a stock config, per simulator."""
    for sim in SIMULATORS:
        cfg = replace(CONFIGS[name], simulator=sim)
        spec = folded(cfg)
        for x in cfg.yes_instances + cfg.no_instances:
            yield spec, x, cfg


def only(spec, r):
    """The spec with every randomness other than r rejected, so a value
    over the full coin space isolates the runs at r."""
    return replace(spec, decide=lambda x, rr, ms: rr == r and spec.decide(x, rr, ms))


def branches(runs):
    return Counter(
        (w, frozenset(asg.items()), out, measured) for w, out, measured, asg in runs
    )


def new_branches(runs):
    return Counter(
        (w, frozenset(asg.items()), out, slots.get(0))
        for w, asg, (slots, out, _) in runs
    )


def check_constant_round(spec, x, trace, q):
    # the hand-written prover wins exactly where the live replay's
    # predicate says, pair by pair; the walk counts those replays; so
    # the walk's values are the prover's
    scheds = enumerate_schedules(spec.rounds, q)
    pairs = [(r, sched) for r in spec.randomness for sched in scheds]
    for (r, sched), (_, slots, out) in zip(pairs, live.live_runs(spec, x, trace, scheds)):
        won, _ = live.pair_scores(spec, x, r, slots, out)
        assert won == ref.extraction_run(spec, x, trace, sched, r), (r, sched)
    assert live.walk_counts(spec, x, trace, spec.rounds, q) == (
        live.live_counts(spec, x, trace, scheds)
    )
    old = (ref.extraction_prover_value(spec, x, trace, scheds),
           ref.schedule_value(spec, x, trace, scheds))
    assert live.extraction_prover_value(spec, x, trace, scheds) == old
    assert extraction_prover_value(spec, x, trace, q) == old


def check_walk_three_round(spec, x, trace, q):
    # the walk against the old driver: weight per (r, slot, labels,
    # output), and both values and the challenge game exactly
    scheds = enumerate_schedules(1, q)
    runs = len(spec.randomness) * len(scheds)
    assert live.leaf_counts(_label_walk(spec, x, trace, 1, q), runs) == (
        live.response_counts(spec, x, trace, scheds)
    )
    assert _single_slot_extraction(spec, x, trace, q) == (
        live.single_slot_extraction(spec, x, trace, scheds)
    )
    assert _fs_game_value(spec, x, trace)[0] == live.fs_game_value(spec, x, trace)


def check_three_round(spec, x, trace, q):
    # the old driver against the hand-written forker, per (r, schedule);
    # the walk against the hand-written values per r; then the walk
    # against the old driver
    scheds = enumerate_schedules(1, q)
    rs = spec.randomness
    values = [(r, Fraction(1, len(rs))) for r in rs]
    for r in rs:
        masked = only(spec, r)
        for sched in scheds:
            old = ref.response_runs(spec, x, trace, sched, r, values)
            new = live.response_runs(spec, x, trace, sched, r, values)
            assert new_branches(new) == branches(old)
            assert live.single_slot_extraction(masked, x, trace, (sched,)) == (
                ref.single_slot_extraction(masked, x, trace, (sched,)),
                ref.single_slot_value(masked, x, trace, (sched,)),
            ), (r, sched)
        assert _single_slot_extraction(masked, x, trace, q) == (
            ref.single_slot_extraction(masked, x, trace, scheds),
            ref.single_slot_value(masked, x, trace, scheds),
        ), r
    assert live.fs_game_value(spec, x, trace) == ref.fs_game_value(spec, x, trace)
    check_walk_three_round(spec, x, trace, q)


def on_table(trace):
    """A one-asker hash trace run against the hash table itself, as the
    hash-table routes run it: the table is its asker."""
    return lambda ask_h, ask_f: trace(ask_h)


def check_public_coin(spec, x, trace):
    # the challenge game on the label walk against both hash-table
    # routes, which map each hashed challenge back through the chart
    total, counted = _fs_game_value(spec, x, trace)
    assert total == live.hash_value(spec, x, on_table(trace))[0]
    assert total == ref.hash_total(spec, x, on_table(trace))
    return counted


class TestStockTraces:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_constant_round(self, name):
        for spec, x, cfg in stock(name):
            k = spec.rounds
            trace = simulator_trace(spec, _moves(cfg, spec, x))
            check_constant_round(spec, x, trace, 2 * k * k)
            densities = (Fraction(1, 4), eps_star(k, k))
            assert _sparse_hypothesis(spec, x, trace, densities) == tuple(
                ref.sparse_hypothesis(spec, x, trace, eps) for eps in densities
            )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_three_round(self, name):
        for spec, x, cfg in stock(name):
            trace = _response_trace(spec, _moves(cfg, spec, x))
            for q in (1, 2, 3):
                check_three_round(spec, x, trace, q)

    @pytest.mark.parametrize("name", ["toy-qr-t1", "toy-qr-t2"])
    def test_public_coin(self, name):
        for spec, x, cfg in stock(name):
            trace = _hash_trace(spec, _moves(cfg, spec, x))
            counted = check_public_coin(spec, x, trace)
            assert counted == 2 * (spec.rounds - 1) * cfg.q == (
                live.hash_value(spec, x, on_table(trace))[1]
            )

    @pytest.mark.parametrize("reps", [1, 2, 3])
    def test_public_coin_against_the_hash_table_route(self, reps):
        # the label walk's challenge game on the pipeline's trace against
        # both hash-table routes on the reference trace as first written,
        # which asks the hash table and never drops a read
        for sim in SIMULATORS:
            cfg = ExperimentConfig(reps=reps, eps=Fraction(1, 2), simulator=sim)
            spec = folded(cfg)
            for x in (4, 16, 5, 20, 0, 7):
                total, counted = _fs_game_value(
                    spec, x, _hash_trace(spec, _moves(cfg, spec, x)))
                old = trace_reference.hash_trace(cfg, spec, x)
                assert (total, counted) == live.hash_value(spec, x, old), (sim, x)
                assert total == ref.hash_total(spec, x, old)
                assert type(total) is Fraction and type(counted) is int

    def test_public_coin_makes_each_honest_move_once(self):
        # the first move once per trace, the final one once per challenge
        cfg = ExperimentConfig(reps=2, eps=Fraction(1, 2))
        spec = folded(cfg)
        calls = []

        def counted(*args):
            calls.append(args)
            return spec.honest_prover(*args)

        counting = replace(spec, honest_prover=counted)
        _fs_game_value(counting, 4, _hash_trace(counting, _moves(cfg, counting, 4)))
        assert len(calls) == len(set(calls)) == 1 + len(spec.randomness)


def flag_trace(seed, letters, k, queries, respond=True):
    """An adaptive flag trace that keeps the contract: a response is read
    only on a proper prefix whose flag was just read as set, and the
    output is a full k-message transcript, often extending a queried
    point so that measured points and output can agree. About three
    reads in ten are dropped, ``ask_h(p, drop=True)``: their answer is
    not seen, so no response read follows and the rng is not reseeded."""

    def trace(ask_h, ask_f):
        seen: list = []
        asked: list = [()]
        rng = random.Random(seed)
        for _ in range(queries):
            p = tuple(rng.choice(letters) for _ in range(rng.randint(1, k)))
            asked.append(p)
            if rng.random() < 0.3:
                ask_h(p, drop=True)
                continue
            seen.append(ask_h(p))
            if respond and seen[-1] and len(p) < k and rng.random() < 0.8:
                seen.append(ask_f(p))
            rng = random.Random(repr((seed, seen)))
        base = rng.choice(asked)
        return base + tuple(rng.choice(letters) for _ in range(k - len(base)))

    return trace


def response_trace(seed, letters, queries, repeat=False):
    """An adaptive challenge-oracle trace over distinct points of length
    1 or 2; with few letters its output often repeats a queried point.
    With ``repeat``, every query after the first asks a point queried
    before at even odds, so a slot's point is often queried again."""
    points = [(a,) for a in letters] + [(a, b) for a in letters for b in letters]

    def trace(ask_c):
        seen: list = []
        asked: list = []
        rng = random.Random(seed)
        left = list(points)
        for _ in range(queries):
            if repeat and asked and rng.random() < 0.5:
                p = rng.choice(asked)
            else:
                p = left.pop(rng.randrange(len(left)))
            asked.append(p)
            seen.append(ask_c(p))
            rng = random.Random(repr((seed, seen)))
        return (rng.choice(letters), rng.choice(letters))

    return trace


SPECS = {"toy-qr-t1": toy_qr(), "toy-table": toy_table()}
LETTERS = {
    "toy-qr-t1": [(0,), (1,), (2,), (4,)],  # honest messages of x = 4 and 16 plus bottom
    "toy-table": [0, 1],
}


class TestRandomTraces:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPECS)),
        x=st.sampled_from([1, 4, 5]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(1, 5),
    )
    def test_constant_round(self, name, x, seed, queries):
        spec = SPECS[name]
        trace = flag_trace(seed, LETTERS[name], spec.rounds, queries)
        check_constant_round(spec, x, trace, queries)
        assert _sparse_hypothesis(spec, x, trace, (Fraction(1, 3),)) == (
            ref.sparse_hypothesis(spec, x, trace, Fraction(1, 3)),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.sampled_from([4, 5, 16]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(0, 3),
    )
    def test_public_coin(self, x, seed, queries):
        spec = SPECS["toy-qr-t1"]
        trace = flag_trace(seed, LETTERS["toy-qr-t1"], 2, queries, respond=False)
        assert check_public_coin(spec, x, lambda ask_c: trace(ask_c, None)) == queries

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPECS)),
        x=st.sampled_from([1, 4, 5]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(0, 3),
    )
    def test_three_round(self, name, x, seed, queries):
        spec = SPECS[name]
        trace = response_trace(seed, LETTERS[name], queries)
        check_three_round(spec, x, trace, max(queries, 1))

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPECS)),
        x=st.sampled_from([1, 4, 5]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(2, 4),
        spare=st.integers(-1, 1),
    )
    def test_three_round_requeries(self, name, x, seed, queries, spare):
        # q one below, at or one above the trace's query count: a slot
        # may sit past the last query, and a requeried point answers the
        # live randomness its slot reprogrammed
        spec = SPECS[name]
        trace = response_trace(seed, LETTERS[name], queries, repeat=True)
        check_walk_three_round(spec, x, trace, queries + spare)


def test_a_requeried_slot_point_answers_the_live_randomness():
    # the second query of the measured first message answers the live r
    # under both timings, so the honest final move is made for r; the
    # hand-written reference forgets the reprogrammed value here
    cfg = ExperimentConfig(reps=1, q=2, eps=Fraction(1, 2))
    spec, _ = build_protocol(cfg)
    move = _moves(cfg, spec, 4)
    honest = _response_trace(spec, move)
    m1 = move(())

    def trace(ask_c):
        ask_c((m1,))
        return honest(ask_c)

    check_walk_three_round(spec, 4, trace, 2)
    forwarded, _ = _single_slot_extraction(spec, 4, trace, 2)
    assert forwarded != ref.single_slot_extraction(spec, 4, trace, enumerate_schedules(1, 2))

def test_the_response_contract_is_load_bearing():
    # reading the response of a clear flag breaks the contract: the
    # forwarding prover has sent nothing and sees the bottom message,
    # while the live replay would answer with the verifier's real
    # response, so the replay refuses the read
    spec = toy_table()

    def trace(ask_h, ask_f):
        ask_h((0,))
        return (0, ask_f((0,)))

    blank = (MarSchedule((None, None), 1),)
    assert ref.extraction_prover_value(spec, 1, trace, blank) == Fraction(1, 2)
    with pytest.raises(ValueError, match="flag is clear"):
        extraction_prover_value(spec, 1, trace, 1)


def test_a_contract_keeping_trace_replays():
    # the same trace reading the response only on a set flag
    spec = toy_table()

    def trace(ask_h, ask_f):
        live = ask_h((0,))
        return (0, ask_f((0,)) if live else 0)

    scheds = enumerate_schedules(spec.rounds, 1)
    want = ref.extraction_prover_value(spec, 1, trace, scheds)
    assert live.extraction_prover_value(spec, 1, trace, scheds)[0] == want
    assert extraction_prover_value(spec, 1, trace, 1)[0] == want
    assert 0 < want < 1


def test_a_contract_keeping_trace_walks():
    # the walk's twin: its weight per (r, slots, output) is the replays'
    spec = toy_table()

    def trace(ask_h, ask_f):
        live = ask_h((0,))
        return (0, ask_f((0,)) if live else 0)

    scheds = enumerate_schedules(spec.rounds, 1)
    assert live.walk_counts(spec, 1, trace, spec.rounds, 1) == (
        live.live_counts(spec, 1, trace, scheds)
    )


def test_a_read_then_reprogram_slot_keeps_the_clear_read():
    # the trace reads the response right after seeing the flag clear; a
    # slot that answers first and reprograms after leaves y in the patch,
    # but the trace's read was clear, so the replay refuses
    def trace(ask_h, ask_f):
        seen = ask_h((0,))
        return seen, ask_f((0,))

    def reread(ask_h, ask_f):
        # a later read of the point sees y, which keeps the contract
        ask_h((0,))
        return ask_h((0,)), ask_f((0,))

    scheds = enumerate_schedules(2, 1)
    assert len(scheds) == 5
    for sched in scheds:
        timings = [p[1] for p in sched.picks if p is not None]
        if timings == [0]:
            _, out, _ = live.replay(trace, lambda p: "response", {}, sched, default=0)
            assert out == (1, "response")
            continue
        with pytest.raises(ValueError, match="flag is clear"):
            live.replay(trace, lambda p: "response", {}, sched, default=0)
        if timings == [1]:
            _, out, _ = live.replay(reread, lambda p: "response", {}, sched, default=0)
            assert out == (1, "response")


def test_a_read_then_reprogram_slot_keeps_the_clear_read_on_the_walk():
    # the walk's twin: it refuses the clear read wherever a replay does,
    # and a later read that sees y lifts the refusal, so a trace that
    # reads the response only then walks to the replays' weights
    spec = toy_table()

    def trace(ask_h, ask_f):
        seen = ask_h((0,))
        return seen, ask_f((0,))

    def reread(ask_h, ask_f):
        ask_h((0,))
        again = ask_h((0,))
        return again, (ask_f((0,)) if again else 0)

    with pytest.raises(ValueError, match="flag is clear"):
        _walk(spec, 1, trace, 2, 1)
    counts = live.walk_counts(spec, 1, reread, 2, 2)
    assert counts == live.live_counts(spec, 1, reread, enumerate_schedules(2, 2))
    # timing 1 at the first read: clear, then y, then the response
    read_then_reprogram = MarSchedule(((1, 1), None), 2)
    for r in spec.randomness:
        _, out, _ = live.replay(reread, lambda p: spec.next_message(1, r, p), {},
                                read_then_reprogram, default=0)
        assert out == (1, spec.next_message(1, r, (0,)))
        assert counts[r, frozenset({(0, (0,))}), frozenset(), out] >= 1


def adaptive_hash_trace(when_first):
    """A stock hash trace builder whose traces ask a fifth hash query
    only when their challenge is (or, with when_first False, is not) the
    first one. toy-qr's challenges do not depend on the statement, so
    statement 4's first challenge serves every statement."""
    stock_trace = pipeline._hash_trace

    def build(spec, move):
        honest = stock_trace(spec, move)
        first = challenge_structure(spec, 4)[0][0]

        def trace(ask_c):
            got = []

            def ask(p, drop=False):
                got.append(ask_c(p, drop=drop))
                return got[-1]

            out = honest(ask)
            if (got[0] == first) == when_first:
                ask_c(out[:1])
            return out

        return trace

    return build


@pytest.mark.parametrize("when_first", [False, True])
def test_an_adaptive_hash_query_is_billed(when_first, monkeypatch):
    # billing one replay that answers the first challenge everywhere saw
    # 4 queries for the trace that asks its fifth on any other challenge
    adaptive = adaptive_hash_trace(when_first)
    cfg = ExperimentConfig(reps=1, eps=Fraction(1, 2))
    spec, _ = build_protocol(cfg)
    trace = adaptive(spec, _moves(cfg, spec, 4))
    assert live.hash_value(spec, 4, on_table(trace))[1] == (5 if when_first else 4)
    assert check_public_coin(spec, 4, trace) == 5
    monkeypatch.setattr(pipeline, "_hash_trace", adaptive)
    billed = [c for c in decide_public_coin(cfg).checks if c.name == "hash-budget"]
    assert len(billed) == 4
    assert all((c.lhs, c.rhs, c.passed) == (5, 4, False) for c in billed)
