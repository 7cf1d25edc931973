"""The decision experiments' ``_fork`` over ``_replay`` and the
constant-round counting walk against the hand-written forkers and
extraction provers they replaced.

Two sets of traces: the stock honest and give-up simulators of toy-qr
(1 and 2 repetitions) and toy-table, and hypothesis-generated adaptive
traces. The flag traces keep the contract ``simulator_trace`` states; the
response traces query each point at most once, because the reference
three-round routes forget a reprogrammed value on a repeated query while
``_replay`` keeps it.
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
from qromlab.pipeline import (
    ExperimentConfig,
    _decision_trace,
    _fs_game_value,
    _hash_trace,
    _hash_value,
    _replay,
    _response_runs,
    _response_trace,
    _single_slot_extraction,
    _sparse_hypothesis,
    build_protocol,
    eps_star,
    extraction_prover_value,
)
from qromlab.protocol import toy_qr, toy_table
from qromlab.transforms import MarSchedule, enumerate_schedules

CONFIGS = {
    "toy-qr-t1": ExperimentConfig(reps=1),
    "toy-qr-t2": ExperimentConfig(reps=2),
    "toy-table": ExperimentConfig(
        protocol="toy-table", yes_instances=(1, 3), no_instances=(0, 2)
    ),
}
SIMS = ("honest-wrapper", "give-up")


def stock(name):
    """(spec, statement, cfg) for every statement of a stock config, per simulator."""
    for sim in SIMS:
        cfg = replace(CONFIGS[name], simulator=sim)
        spec = build_protocol(cfg)
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


def check_three_round(spec, x, trace, scheds):
    rs = spec.randomness
    values = [(r, Fraction(1, len(rs))) for r in rs]
    for r in rs:
        masked = only(spec, r)
        for sched in scheds:
            old = ref.response_runs(spec, x, trace, sched, r, values)
            new = _response_runs(spec, x, trace, sched, r, values)
            assert new_branches(new) == branches(old)
            assert _single_slot_extraction(masked, x, trace, (sched,)) == (
                ref.single_slot_extraction(masked, x, trace, (sched,)),
                ref.single_slot_value(masked, x, trace, (sched,)),
            ), (r, sched)
    assert _single_slot_extraction(spec, x, trace, scheds) == (
        ref.single_slot_extraction(spec, x, trace, scheds),
        ref.single_slot_value(spec, x, trace, scheds),
    )
    assert _fs_game_value(spec, x, trace) == ref.fs_game_value(spec, x, trace)


class TestStockTraces:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_constant_round(self, name):
        for spec, x, cfg in stock(name):
            k = spec.rounds
            trace = _decision_trace(cfg, spec, x)
            check_constant_round(spec, x, trace, 2 * k * k)
            densities = (Fraction(1, 4), eps_star(k, k))
            assert _sparse_hypothesis(spec, x, trace, densities) == tuple(
                ref.sparse_hypothesis(spec, x, trace, eps) for eps in densities
            )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_three_round(self, name):
        for spec, x, cfg in stock(name):
            trace = _response_trace(cfg, spec, x)
            for q in (1, 2):
                check_three_round(spec, x, trace, enumerate_schedules(1, q))

    @pytest.mark.parametrize("name", ["toy-qr-t1", "toy-qr-t2"])
    def test_public_coin(self, name):
        for spec, x, cfg in stock(name):
            trace = _hash_trace(cfg, spec, x)
            total, counted = _hash_value(spec, x, trace)
            assert total == ref.hash_total(spec, x, trace)
            assert counted == 2 * (spec.rounds - 1) * cfg.q


def flag_trace(seed, letters, k, queries, respond=True):
    """An adaptive flag trace that keeps the contract: a response is read
    only on a proper prefix whose flag was just read as set, and the
    output is a full k-message transcript, often extending a queried
    point so that measured points and output can agree."""

    def trace(ask_h, ask_f):
        seen: list = []
        asked: list = [()]
        rng = random.Random(seed)
        for _ in range(queries):
            p = tuple(rng.choice(letters) for _ in range(rng.randint(1, k)))
            asked.append(p)
            seen.append(ask_h(p))
            if respond and seen[-1] and len(p) < k and rng.random() < 0.8:
                seen.append(ask_f(p))
            rng = random.Random(repr((seed, seen)))
        base = rng.choice(asked)
        return base + tuple(rng.choice(letters) for _ in range(k - len(base)))

    return trace


def response_trace(seed, letters, queries):
    """An adaptive challenge-oracle trace over distinct points of length
    1 or 2; with few letters its output often repeats a queried point."""
    points = [(a,) for a in letters] + [(a, b) for a in letters for b in letters]

    def trace(ask_c):
        seen: list = []
        rng = random.Random(seed)
        left = list(points)
        for _ in range(queries):
            seen.append(ask_c(left.pop(rng.randrange(len(left)))))
            rng = random.Random(repr((seed, seen)))
        return (rng.choice(letters), rng.choice(letters))

    return trace


SPECS = {"toy-qr-t1": toy_qr(1), "toy-table": toy_table()}
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
        total, counted = _hash_value(spec, x, trace)
        assert total == ref.hash_total(spec, x, trace) and counted == queries

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
        check_three_round(spec, x, trace, enumerate_schedules(1, max(queries, 1)))


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
    assert extraction_prover_value(spec, 1, trace, 1)[0] == want
    assert 0 < want < 1


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
            _, out, _ = _replay(trace, lambda p: "response", {}, sched, default=0)
            assert out == (1, "response")
            continue
        with pytest.raises(ValueError, match="flag is clear"):
            _replay(trace, lambda p: "response", {}, sched, default=0)
        if timings == [1]:
            _, out, _ = _replay(reread, lambda p: "response", {}, sched, default=0)
            assert out == (1, "response")
