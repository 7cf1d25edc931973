"""Protocol specs: completeness, exact soundness, acceptance sets."""

import itertools
from fractions import Fraction

import pytest

from qromlab.protocol import (
    RESIDUES_21,
    UNITS_21,
    ProtocolSpec,
    soundness_exact,
    toy_guess,
    toy_qr,
    toy_table,
)
from prover_reference import Transcript, acceptance_set, honest_execution


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
        spec = toy_qr(1)
        assert spec.rounds == 2
        assert spec.public_coin
        assert len(spec.alphabet) == 13  # {0} + units mod 21
        assert spec.randomness == ((0,), (1,))
        assert len(spec.prover_randomness) == 12
        assert spec.fold_base is None

    def test_folding_metadata(self):
        spec = toy_qr(3)
        assert len(spec.alphabet) == 13**3
        assert spec.fold_reps == 3
        assert spec.fold_base.name == "toy-qr-t1"

    def test_language_and_witnesses(self):
        spec = toy_qr(1)
        assert {x for x in range(21) if spec.language(x)} == set(RESIDUES_21)
        for x in RESIDUES_21:
            ws = spec.witness_map(x)
            assert len(ws) == 4
            assert all((w * w) % 21 == x for w in ws)
        assert spec.witness_map(5) == ()

    def test_rep_count_checked(self):
        with pytest.raises(ValueError):
            toy_qr(0)


class TestCompleteness:
    def test_toy_qr_all_coins(self):
        spec = toy_qr(1)
        for x in RESIDUES_21:
            for w in spec.witness_map(x):
                for r in spec.randomness:
                    for u in spec.prover_randomness:
                        tr, ok = honest_execution(spec, x, w, r, u)
                        assert ok
                        assert tr.verifier_messages == (r,)

    def test_toy_qr_folded(self):
        # one scalar witness serves every repetition
        spec = toy_qr(2)
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
        spec = toy_qr(1)
        assert soundness_exact(spec, 5) == Fraction(1, 2)
        assert soundness_exact(spec, 0) == Fraction(1, 2)
        for x in RESIDUES_21:
            assert soundness_exact(spec, x) == 1

    def test_folded_power(self):
        assert soundness_exact(toy_qr(3), 5) == Fraction(1, 8)

    def test_toy_table_trivially_sound(self):
        assert soundness_exact(toy_table(), 0) == 1

    def test_toy_guess(self):
        assert soundness_exact(toy_guess(), 0) == Fraction(1, 2)

    def test_against_strategy_enumeration(self):
        qr = toy_qr(1)
        for x in (0, 2, 5, 4, 16):
            assert soundness_exact(qr, x) == brute_two_move(qr, x)
        tab = toy_table()
        for x in (0, 1, 2, 3):
            assert soundness_exact(tab, x) == brute_two_move(tab, x)
        guess = toy_guess()
        for x in (0, 1):
            assert soundness_exact(guess, x) == brute_one_move(guess, x)

    def test_enumeration_cap(self):
        spec = toy_qr(3)
        object.__setattr__(spec, "fold_base", None)
        with pytest.raises(ValueError):
            soundness_exact(spec, 5)


class TestAcceptanceSet:
    def test_toy_qr_one_per_final_answer(self):
        spec = toy_qr(1)
        acc = acceptance_set(spec, 4, (1,))
        assert len(acc) == 12
        for m1, m2 in acc:
            assert spec.decide(4, (1,), (m1, m2))
        for ms in itertools.product(spec.alphabet, repeat=2):
            assert (ms in acc) == spec.decide(4, (1,), ms)

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            acceptance_set(toy_qr(3), 4, (1, 1, 1))


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
