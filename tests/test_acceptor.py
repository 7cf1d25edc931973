"""``pipeline._acceptor``, the one reader of accepting randomness under
the four decision scorers, against the per-r scorers it replaced
(``score_reference``) and against brute force.

It sums over each group's r. The experiments score repetitions as a
count on the one-repetition spec (``pipeline._mixture``), so they never
count a repeated transcript. The differential tests run the stock
simulators of toy-qr folded by ``fold_reference`` at 1 to 5 repetitions
and the adaptive traces of ``test_extraction`` at 1 and 2. The work
counts pin the ``decide`` calls a run makes, and the grinding trace pins
values where the challenge game is not trivial.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference
import score_reference as ref
from fold_reference import folded
from qromlab import pipeline
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _acceptor,
    _fs_game_value,
    _hash_trace,
    _moves,
    _response_trace,
    _single_slot_extraction,
    _sparse_hypothesis,
    default_config,
    eps_star,
    extraction_prover_value,
    fs_forgery_exact,
    run_experiment,
    simulator_trace,
)
from qromlab.protocol import soundness_exact, toy_qr, toy_table
from test_extraction import flag_trace, response_trace

STATEMENTS = (4, 16, 5, 20, 0, 7)
NEW = (_sparse_hypothesis, extraction_prover_value, _fs_game_value, _single_slot_extraction)
OLD = (ref.sparse_hypothesis, ref.extraction_prover_value, ref.fs_game_value,
       ref.single_slot_extraction)


def scores(scorers, spec, x, cfg):
    """Every scorer's value on the three experiments' traces of the
    configured simulator at one statement, as each experiment calls it."""
    sparse, extraction, game, single = scorers
    move = _moves(cfg, spec, x)
    k = spec.rounds
    flags = simulator_trace(spec, move)
    response = _response_trace(spec, move)
    return (
        sparse(spec, x, flags, (cfg.eps, eps_star(k, k))),
        extraction(spec, x, flags, 2 * k * k),
        single(spec, x, response, cfg.q),
        game(spec, x, response),
        game(spec, x, _hash_trace(spec, move)),
    )


@pytest.mark.parametrize("sim", sorted(SIMULATORS))
@pytest.mark.parametrize("reps", [1, 2, 3, 4, 5])
def test_stock_scores_match_the_per_r_scorers(reps, sim):
    cfg = ExperimentConfig(reps=reps, simulator=sim)
    spec = folded(cfg)
    for x in STATEMENTS:
        assert scores(NEW, spec, x, cfg) == scores(OLD, spec, x, cfg), x


SPECS = {1: toy_qr(), 2: fold_reference.fold(toy_qr(), 2, "toy-qr-t2")}
LETTERS = {1: [(0,), (1,), (2,), (4,)]}  # honest messages of x = 4 and 16 plus bottom
LETTERS[2] = [a + b for a in LETTERS[1] for b in LETTERS[1]]


class TestAdaptiveTraces:
    @settings(max_examples=30, deadline=None)
    @given(
        reps=st.sampled_from([1, 2]),
        x=st.sampled_from([4, 5, 16]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(1, 4),
    )
    def test_flag_traces(self, reps, x, seed, queries):
        spec = SPECS[reps]
        trace = flag_trace(seed, LETTERS[reps], spec.rounds, queries)
        assert extraction_prover_value(spec, x, trace, queries) == (
            ref.extraction_prover_value(spec, x, trace, queries)
        )
        densities = (Fraction(1, 3), Fraction(1, 4))
        assert _sparse_hypothesis(spec, x, trace, densities) == (
            ref.sparse_hypothesis(spec, x, trace, densities)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        reps=st.sampled_from([1, 2]),
        x=st.sampled_from([4, 5, 16]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(0, 3),
        repeat=st.booleans(),
    )
    def test_response_traces(self, reps, x, seed, queries, repeat):
        spec = SPECS[reps]
        trace = response_trace(seed, LETTERS[reps], queries, repeat)
        q = max(queries, 1)
        assert _single_slot_extraction(spec, x, trace, q) == (
            ref.single_slot_extraction(spec, x, trace, q)
        )
        assert _fs_game_value(spec, x, trace) == ref.fs_game_value(spec, x, trace)


BASE = toy_qr().alphabet
COORDINATE = st.one_of(st.sampled_from(LETTERS[1]), st.sampled_from(BASE))


FOLDS = {reps: fold_reference.fold(toy_qr(), reps, f"toy-qr-t{reps}") for reps in (1, 2, 3, 4)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), reps=st.integers(1, 4), x=st.sampled_from(STATEMENTS))
def test_a_full_group_counts_its_accepting_randomness(data, reps, x):
    spec = FOLDS[reps]
    out = tuple(sum(data.draw(st.lists(COORDINATE, min_size=reps, max_size=reps)), ())
                for _ in range(spec.rounds))
    brute = sum(1 for r in spec.randomness if spec.decide(x, r, out))
    count = _acceptor(spec, x)
    assert count(frozenset(spec.randomness), out) == brute
    assert count(spec.randomness, out) == brute


def counted(spec):
    """The spec with a counter on its decide calls."""
    calls = [0]

    def decide(x, r, ms):
        calls[0] += 1
        return spec.decide(x, r, ms)

    return replace(spec, decide=decide), calls


class TestRoutes:
    def test_a_folded_spec_is_counted_on_its_base(self, monkeypatch):
        # every decision experiment builds its acceptor on the
        # one-repetition spec, whatever the reps
        built = []
        acceptor = pipeline._acceptor

        def recorded(spec, x):
            built.append(spec.name)
            return acceptor(spec, x)

        monkeypatch.setattr(pipeline, "_acceptor", recorded)
        for theorem in ("constant-round", "public-coin", "three-round"):
            run_experiment(theorem, replace(default_config(theorem), reps=3))
        assert len(built) == 16 and set(built) == {"toy-qr-t1"}

    def test_an_unfolded_spec_sums_over_r(self):
        spec, calls = counted(toy_table())
        count = _acceptor(spec, 1)
        group = frozenset(spec.randomness)
        for out in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert count(group, out) == sum(
                1 for r in spec.randomness if spec.decide(1, r, out))
        assert calls[0] == 2 * 4 * len(group)

    def test_a_copy_sums_over_r(self):
        # a fold is a spec like any other: a full group is read by its own
        # decide, once per r, and a copy with another decide reads that
        copy, calls = counted(FOLDS[3])
        out = ((1, 1, 1), (1, 1, 1))
        assert _acceptor(copy, 4)(frozenset(copy.randomness), out) == 1
        assert calls[0] == len(copy.randomness)
        first = copy.randomness[0]
        other = replace(FOLDS[3], decide=lambda x, r, ms: r == first)
        bottom = ((0, 0, 0), (0, 0, 0))
        assert _acceptor(other, 4)(frozenset(other.randomness), bottom) == 1
        assert _acceptor(FOLDS[3], 4)(frozenset(other.randomness), bottom) == 0


def test_three_round_at_seven_repetitions_pins_its_decide_calls(monkeypatch):
    # at the per-r scorers on the fold: 65,536 distinct folded decide
    # calls and 109,388 one-repetition ones; counting a full group per
    # column, at most 512 and 4,000. Seven repetitions as a count make
    # 584 calls of the one-repetition decide
    base, calls = counted(toy_qr())
    monkeypatch.setattr(pipeline, "build_protocol", lambda cfg: (base, cfg.reps))
    report = run_experiment("three-round", replace(default_config("three-round"), reps=7))
    assert all(c.passed for c in report.checks)
    assert report.config["protocol"] == "toy-qr-t7"
    assert calls[0] == 584


def grinding_trace(spec, x, probes=4):
    """A response trace that grinds: it queries the ``probes`` first
    messages of largest answerable mass in turn, ties in alphabet order,
    and outputs the first whose challenge some second message answers,
    with the first such second message; if every probe misses, it
    outputs the next first message with the second message that answers
    the most randomness. Challenges name randomness (toy-qr is
    public-coin), so the trace reads each back to its r."""
    alphabet, rs = list(spec.alphabet), list(spec.randomness)
    named = {spec.next_message(x, r, (alphabet[0],)): r for r in rs}

    def answer(m1, r):
        return next((m2 for m2 in alphabet if spec.decide(x, r, (m1, m2))), None)

    mass = {m1: sum(1 for r in rs if answer(m1, r) is not None) for m1 in alphabet}
    order = sorted(alphabet, key=lambda m1: -mass[m1])

    def trace(ask_c):
        for m1 in order[:probes]:
            m2 = answer(m1, named[ask_c((m1,))])
            if m2 is not None:
                return (m1, m2)
        m1 = order[probes]
        return (m1, max(alphabet, key=lambda m2: sum(
            1 for r in rs if spec.decide(x, r, (m1, m2)))))

    return trace


GRINDING = {
    (1, 5): (Fraction(43, 96), Fraction(11, 24)),
    (1, 20): (Fraction(43, 96), Fraction(131, 288)),
    (2, 5): (Fraction(593, 3072), Fraction(79, 384)),
    (2, 20): (Fraction(593, 3072), Fraction(629, 3072)),
}


@pytest.mark.parametrize("reps, x", sorted(GRINDING))
def test_a_grinding_trace_keeps_its_values(reps, x):
    # extraction dominance (pstar >= value) fails on this trace, so it
    # is not asserted
    spec = SPECS[reps]
    trace = grinding_trace(spec, x)
    game = _fs_game_value(spec, x, trace)
    assert game == (fs_forgery_exact(spec, x, 4), 4) == ref.fs_game_value(spec, x, trace)
    assert game[0] == {1: Fraction(31, 32), 2: Fraction(781, 1024)}[reps]
    pstar, value = _single_slot_extraction(spec, x, trace, 4)
    assert (pstar, value) == GRINDING[reps, x] == ref.single_slot_extraction(spec, x, trace, 4)
    sound = soundness_exact(spec, x)
    assert pstar <= sound and value <= sound
