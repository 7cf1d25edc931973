"""Protocol specs: completeness, exact soundness, acceptance sets."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference
import soundness_reference as ref
from qromlab.pipeline import ExperimentConfig, build_protocol
from qromlab.protocol import (
    UNITS_21,
    ConfigError,
    ProtocolSpec,
    soundness_exact,
    toy_guess,
    toy_qr,
    toy_table,
)
from prover_reference import Transcript, acceptance_set, honest_execution
from test_packed_walk import challenges_spec

RESIDUES_21 = (1, 4, 16)  # toy-qr's statements: the squares of the units mod 21


def brute_two_move(spec: ProtocolSpec, x) -> Fraction:
    """Best deterministic cheating prover, by raw strategy enumeration.

    Picks m1, observes the challenge, then picks the best m2 per
    challenge group. Independent of the backward-induction order used
    by soundness_exact.
    """
    assert spec.rounds == 2
    n_r = len(spec.randomness)
    best = Fraction(0)
    for m1 in spec.alphabet:
        groups: dict = {}
        for r in spec.randomness:
            groups.setdefault(spec.next_message(x, r, (m1,)), []).append(r)
        win = 0
        for rs in groups.values():
            win += max(
                sum(1 for r in rs if spec.decide(x, r, (m1, m2)))
                for m2 in spec.alphabet
            )
        best = max(best, Fraction(win, n_r))
    return best


def brute_one_move(spec: ProtocolSpec, x) -> Fraction:
    assert spec.rounds == 1
    n_r = len(spec.randomness)
    return max(
        Fraction(sum(1 for r in spec.randomness if spec.decide(x, r, (m,))), n_r)
        for m in spec.alphabet
    )


class TestToyQrStructure:
    def test_spaces(self):
        spec = toy_qr()
        assert spec.rounds == 2
        assert spec.public_coin
        assert len(spec.alphabet) == 13  # {0} + units mod 21
        assert spec.randomness == ((0,), (1,))
        assert len(spec.prover_randomness) == 12
        assert spec.name == "toy-qr-t1"

    def test_folding_metadata(self):
        # repetitions are a count on the one-repetition spec
        spec, reps = build_protocol(ExperimentConfig())
        assert (spec.name, len(spec.alphabet), reps) == ("toy-qr-t1", 13, 3)
        assert len(fold_reference.fold(spec, reps, "toy-qr-t3").alphabet) == 13**3

    def test_language_and_witnesses(self):
        spec = toy_qr()
        assert {x for x in range(21) if spec.witness_map(x)} == set(RESIDUES_21)
        for x in RESIDUES_21:
            ws = spec.witness_map(x)
            assert len(ws) == 4
            assert all((w * w) % 21 == x for w in ws)
        assert spec.witness_map(5) == ()

    def test_rep_count_checked(self):
        with pytest.raises(ValueError, match="need at least one repetition"):
            build_protocol(ExperimentConfig(reps=0))


class TestCompleteness:
    def test_toy_qr_all_coins(self):
        spec = toy_qr()
        for x in RESIDUES_21:
            for w in spec.witness_map(x):
                for r in spec.randomness:
                    for u in spec.prover_randomness:
                        tr, ok = honest_execution(spec, x, w, r, u)
                        assert ok
                        assert tr.verifier_messages == (r,)

    def test_toy_qr_folded(self):
        # one scalar witness serves every repetition
        spec = fold_reference.fold(toy_qr(), 2, "toy-qr-t2")
        x, w, u = 4, 2, (8, 10)
        for r in spec.randomness:
            _, ok = honest_execution(spec, x, w, r, u)
            assert ok

    def test_toy_table_echo(self):
        spec = toy_table()
        for x in (0, 1, 2, 3):
            for r in spec.randomness:
                for u in spec.prover_randomness:
                    _, ok = honest_execution(spec, x, (x,), r, u)
                    assert ok

    def test_toy_guess_is_blind(self):
        # the honest prover never sees r, so it wins on one coin only
        spec = toy_guess()
        wins = sum(
            honest_execution(spec, 1, (1,), r, 0)[1] for r in spec.randomness
        )
        assert wins == 1


class TestSoundness:
    def test_toy_qr_frozen_values(self):
        spec = toy_qr()
        assert soundness_exact(spec, 5) == Fraction(1, 2)
        assert soundness_exact(spec, 0) == Fraction(1, 2)
        for x in RESIDUES_21:
            assert soundness_exact(spec, x) == 1

    def test_folded_power(self):
        assert soundness_exact(toy_qr(), 5) ** 3 == Fraction(1, 8)

    def test_toy_table_trivially_sound(self):
        assert soundness_exact(toy_table(), 0) == 1

    def test_toy_guess(self):
        assert soundness_exact(toy_guess(), 0) == Fraction(1, 2)

    def test_against_strategy_enumeration(self):
        qr = toy_qr()
        for x in (0, 2, 5, 4, 16):
            assert soundness_exact(qr, x) == brute_two_move(qr, x)
        tab = toy_table()
        for x in (0, 1, 2, 3):
            assert soundness_exact(tab, x) == brute_two_move(tab, x)
        guess = toy_guess()
        for x in (0, 1):
            assert soundness_exact(guess, x) == brute_one_move(guess, x)

    def test_enumeration_cap(self):
        spec = fold_reference.fold(toy_qr(), 3, "toy-qr-t3")
        with pytest.raises(ValueError):
            soundness_exact(spec, 5)


def counting(spec: ProtocolSpec):
    """A ``replace`` copy of ``spec`` that counts its ``decide`` and
    ``next_message`` calls."""
    calls = {"decide": 0, "next_message": 0}

    def decide(x, r, ms):
        calls["decide"] += 1
        return spec.decide(x, r, ms)

    def next_message(x, r, ms):
        calls["next_message"] += 1
        return spec.next_message(x, r, ms)

    return replace(spec, decide=decide, next_message=next_message), calls


# (id, spec, statement, reps): the one-repetition spec and the
# materialised two-repetition one are walked whole; three repetitions of
# 13 messages are a 13**6 * 8 tree, over the enumeration cap, so those
# rows score the one-repetition tree to the reps, as the library does
REFERENCE_CASES = (
    [(f"toy-qr-t{t}-{x}", spec, x, reps)
     for t, spec, reps in ((1, toy_qr(), 1), (2, fold_reference.toy_qr(2), 1),
                           (3, toy_qr(), 3))
     for x in (0, 1, 2, 4, 5, 16, 20)]
    + [(f"toy-table-{x}", toy_table(), x, 1) for x in range(4)]
    + [(f"toy-guess-{x}", toy_guess(), x, 1) for x in range(2)]
    + [(f"toy-qr-t2-copy-{x}", replace(fold_reference.fold(toy_qr(), 2, "toy-qr-t2")), x, 1)
       for x in (4, 5)]
    + [(f"toy-qr-2c-{x}", challenges_spec(2), x, 1) for x in (4, 5, 16, 20)]
    + [(f"toy-qr-3c-{x}", challenges_spec(3), x, 1) for x in (4, 5)]
)


@st.composite
def table_specs(draw):
    """Two- and three-move specs over random next-message and decision
    tables: up to 3 messages, 4 randomness values and 3 verifier
    replies."""
    k = draw(st.integers(2, 3))
    alphabet = tuple(range(draw(st.integers(1, 3))))
    randomness = tuple(range(draw(st.integers(1, 4))))
    prefixes = [ms for n in range(1, k)
                for ms in itertools.product(alphabet, repeat=n)]
    replies = draw(st.integers(1, 3))
    nm = {(r, ms): draw(st.integers(0, replies - 1))
          for r in randomness for ms in prefixes}
    dec = {(r, ms): draw(st.booleans())
           for r in randomness for ms in itertools.product(alphabet, repeat=k)}
    return ProtocolSpec(
        name="table", alphabet=alphabet, rounds=k, randomness=randomness,
        prover_randomness=(0,),
        witness_map=lambda x: (),
        next_message=lambda x, r, ms: nm[(r, ms)],
        decide=lambda x, r, ms: dec[(r, ms)],
        honest_prover=lambda x, w, u, received: 0,
    )


class TestPrunedTree:
    """The tree that stops at a message accepting its whole randomness
    set, against ``soundness_reference``, which scans every message."""

    @pytest.mark.parametrize("spec, x, reps", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_against_reference(self, spec, x, reps):
        got = soundness_exact(spec, x)
        assert type(got) is Fraction
        assert got**reps == ref.soundness_exact(spec, x) ** reps
        new, new_calls = counting(spec)
        old, old_calls = counting(spec)
        assert soundness_exact(new, x) == ref.soundness_exact(old, x) == got
        assert new_calls["decide"] <= old_calls["decide"]

    @settings(max_examples=200, deadline=None)
    @given(table_specs())
    def test_against_reference_on_random_tables(self, spec):
        new, new_calls = counting(spec)
        old, old_calls = counting(spec)
        assert soundness_exact(new, 0) == ref.soundness_exact(old, 0)
        assert new_calls["decide"] <= old_calls["decide"]

    @pytest.mark.parametrize("x, calls", [(4, 31), (16, 32), (5, 278), (20, 278)])
    def test_decide_calls_at_the_stock_statements(self, x, calls):
        # a yes statement's first accepting message ends the scan of the
        # 13 first messages; the reference makes all 13 * 13 * 2 calls
        new, new_calls = counting(toy_qr())
        old, old_calls = counting(toy_qr())
        soundness_exact(new, x)
        ref.soundness_exact(old, x)
        assert (new_calls["decide"], old_calls["decide"]) == (calls, 338)

    def test_cap_refuses_before_any_call(self):
        spec, calls = counting(fold_reference.fold(toy_qr(), 3, "toy-qr-t3"))
        with pytest.raises(ConfigError):
            soundness_exact(spec, 5)
        assert calls == {"decide": 0, "next_message": 0}


class TestAcceptanceSet:
    def test_toy_qr_one_per_final_answer(self):
        spec = toy_qr()
        acc = acceptance_set(spec, 4, (1,))
        assert len(acc) == 12
        for m1, m2 in acc:
            assert spec.decide(4, (1,), (m1, m2))
        for ms in itertools.product(spec.alphabet, repeat=2):
            assert (ms in acc) == spec.decide(4, (1,), ms)

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            acceptance_set(fold_reference.fold(toy_qr(), 3, "toy-qr-t3"), 4, (1, 1, 1))


class TestTranscript:
    def test_trailing_rule(self):
        Transcript((1,), (1,))
        Transcript((1, 2), (1,))
        with pytest.raises(ValueError):
            Transcript((1, 2), ())


class TestToyTablePlugs:
    def test_units_are_units(self):
        assert all((u * pow(u, -1, 21)) % 21 == 1 for u in UNITS_21)
        assert set(RESIDUES_21) == {(u * u) % 21 for u in UNITS_21}
