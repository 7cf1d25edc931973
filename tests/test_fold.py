"""Folded specs against the materialised route they replaced.

``protocol.fold`` builds parallel repetitions over lazy ``ProductSpace``
sequences, ``challenge_structure`` lifts a folded chart from its base,
and the forgery optimum takes the k best product masses from a heap.
Each is checked here for exact equality with ``fold_reference`` on small
repetition counts, the two primitives by property tests, and the lazy
route by counting the base calls and the spaces it enumerates.
"""

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fold_reference as ref
from qromlab import pipeline
from qromlab.adversary import challenge_structure
from qromlab.pipeline import (
    _forgery_masses,
    _top_products,
    fs_forgery_exact,
    run_experiment,
)
from qromlab.protocol import (
    ConfigError,
    ProductSpace,
    acceptance_set,
    fold,
    soundness_exact,
    toy_qr,
)

STATEMENTS = (0, 4, 5, 16, 20)
REPS = (1, 2, 3)


@pytest.fixture(scope="module", params=REPS)
def pair(request):
    """(new spec, materialised reference spec) at one repetition count."""
    return toy_qr(request.param), ref.toy_qr(request.param)


class TestAgainstMaterialised:
    def test_spaces_and_metadata(self, pair):
        new, old = pair
        assert (new.name, new.rounds, new.public_coin) == (old.name, old.rounds, True)
        assert new.fold_reps == old.fold_reps
        assert (new.fold_base is None) == (old.fold_base is None)
        for field in ("alphabet", "randomness", "prover_randomness"):
            got, want = getattr(new, field), getattr(old, field)
            assert len(got) == len(want)
            assert tuple(got) == want, field

    def test_callables(self, pair):
        new, old = pair
        rng = random.Random(len(old.alphabet))
        firsts = old.alphabet if len(old.alphabet) <= 169 else rng.sample(old.alphabet, 60)
        seconds = rng.sample(old.alphabet, min(len(old.alphabet), 40))
        us = old.prover_randomness if len(old.prover_randomness) <= 144 else (
            rng.sample(old.prover_randomness, 40))
        for x in STATEMENTS:
            w = (old.witness_map(x) or (2,))[0]
            assert new.witness_map(x) == old.witness_map(x)
            assert new.language(x) == old.language(x)
            for r in old.randomness:
                for m1 in firsts:
                    assert new.next_message(x, r, (m1,)) == old.next_message(x, r, (m1,))
                    for m2 in seconds:
                        ms = (m1, m2)
                        assert new.decide(x, r, ms) == old.decide(x, r, ms), (x, r, ms)
            for u in us:
                m1 = old.honest_prover(x, w, u, ())
                assert new.honest_prover(x, w, u, ()) == m1
                for r in old.randomness:
                    assert new.honest_prover(x, w, u, (r,)) == old.honest_prover(x, w, u, (r,))
                    m2 = old.honest_prover(x, w, u, (r,))
                    assert new.decide(x, r, (m1, m2)) == old.decide(x, r, (m1, m2))

    def test_challenge_chart(self, pair):
        new, old = pair
        for x in STATEMENTS:
            challenges, chart = challenge_structure(new, x)
            want_challenges, want_chart = ref.challenge_structure(old, x)
            assert challenges == want_challenges
            assert list(chart.items()) == list(want_chart.items())

    def test_masses_and_forgery(self, pair):
        new, old = pair
        for x in STATEMENTS:
            masses = ref.forgery_masses(old, x)
            for n in (1, 2, 5, 9, 40):
                assert _forgery_masses(new, x, n) == masses[:n]
            for q in range(7):
                assert fs_forgery_exact(new, x, q) == ref.fs_forgery_exact(old, x, q)

    def test_soundness(self, pair):
        new, old = pair
        for x in STATEMENTS:
            assert soundness_exact(new, x) == soundness_exact(old, x)

    @pytest.mark.parametrize("reps, xs", [(1, STATEMENTS), (2, (5,))])
    def test_soundness_by_strategy_tree(self, reps, xs):
        # the product route against backward induction over the whole
        # folded strategy tree, walking the lazy spaces of a copy, which
        # carries no fold record
        whole = replace(toy_qr(reps))
        assert whole.fold_base is None
        for x in xs:
            assert soundness_exact(toy_qr(reps), x) == soundness_exact(whole, x)

    def test_exhaustive_masses_on_the_lazy_spaces(self):
        # every folded first message scored directly, against the heap
        whole = replace(toy_qr(2))
        assert _forgery_masses(whole, 5, 169) == _forgery_masses(toy_qr(2), 5, 169)


def product_cases():
    width = st.integers(1, 2)
    return width.flatmap(lambda w: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 4)] * w), min_size=1, max_size=5,
                 unique=True),
        st.integers(1, 3),
    ))


class TestProductSpace:
    @settings(max_examples=150, deadline=None)
    @given(product_cases())
    def test_against_itertools_product(self, case):
        base, reps = case
        space = ProductSpace(base, reps)
        want = tuple(sum(parts, ()) for parts in itertools.product(base, repeat=reps))
        assert len(space) == len(want)
        assert tuple(space) == want
        for i, elem in enumerate(want):
            assert space[i] == elem
            assert space[i - len(want)] == elem
            assert space.index(elem) == i
            assert elem in space
            assert space.split(elem) == tuple(
                elem[j:j + len(base[0])] for j in range(0, len(elem), len(base[0])))
        with pytest.raises(IndexError):
            space[len(want)]
        with pytest.raises(IndexError):
            space[-len(want) - 1]
        too_long = want[0] + base[0]
        foreign = want[-1][:-1] + (99,)
        for bad in (too_long, want[0][:-1], foreign, list(want[0]), 7):
            assert bad not in space
            with pytest.raises(ValueError):
                space.index(bad)

    def test_base_shape_checked(self):
        with pytest.raises(ValueError):
            ProductSpace(((0,), (1, 2)), 2)
        with pytest.raises(ValueError):
            ProductSpace((0, 1), 2)
        with pytest.raises(ValueError):
            ProductSpace(((0,), (0,)), 2)

    def test_length_without_enumeration(self):
        # 13**16 elements: len, indexing and membership never enumerate
        space = toy_qr(16).alphabet
        assert len(space) == 13**16
        assert space[-1] == (20,) * 16
        assert space.index((20,) * 16) == 13**16 - 1
        assert (20,) * 15 + (3,) not in space


masses = st.lists(
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                     Fraction(2, 3), Fraction(1)]),
    min_size=1, max_size=6,
)


class TestTopProducts:
    @settings(max_examples=300, deadline=None)
    @given(masses, st.integers(1, 3), st.integers(1, 250))
    def test_against_sorting_every_product(self, ms, reps, n):
        ms = sorted(ms, reverse=True)
        every = sorted((math.prod(c) for c in itertools.product(ms, repeat=reps)),
                       reverse=True)
        got = _top_products(ms, reps, n)
        assert got == every[:n]
        assert all(isinstance(p, (Fraction, int)) for p in got)

    def test_empty_masses(self):
        assert _top_products([], 2, 3) == []


def counted_base():
    """toy_qr(1) with a counter on its next-message calls."""
    base = toy_qr(1)
    calls = [0]

    def next_message(x, r, ms):
        calls[0] += 1
        return base.next_message(x, r, ms)

    return replace(base, next_message=next_message), calls


class TestLazyRoute:
    def test_lifted_chart_checks_the_base_once(self):
        base, calls = counted_base()
        spec = fold(base, 4, "toy-qr-t4")
        challenges, chart = challenge_structure(spec, 5)
        pairs = len(base.alphabet) * len(base.randomness)
        assert calls[0] == len(base.randomness) + pairs
        assert len(challenges) == len(chart) == 16
        fs_forgery_exact(spec, 5, 4)
        assert calls[0] == 2 * (len(base.randomness) + pairs)

    def test_a_copy_drops_the_fold_record(self):
        # a copy with other callables is not the fold of the base, so the
        # factored routes must not answer for it
        never = replace(toy_qr(2), decide=lambda x, r, ms: False)
        assert (never.fold_base, never.fold_reps) == (None, 1)
        assert soundness_exact(never, 5) == 0
        leaky = replace(toy_qr(2), next_message=lambda x, r, ms: (
            r if ms[0] == (0, 0) else ms[0]))
        with pytest.raises(ValueError, match="depends on the prover message"):
            challenge_structure(leaky, 5)
        with pytest.raises(ValueError, match="init=False"):
            replace(toy_qr(2), fold_base=toy_qr(1))

    def test_lift_keeps_the_base_check(self):
        # a base whose response reads the prover message fails, folded too
        base = toy_qr(1)
        leaky = replace(base, next_message=lambda x, r, ms: ms[0] if ms[0] != (0,) else r)
        with pytest.raises(ValueError, match="depends on the prover message"):
            challenge_structure(fold(leaky, 3, "leaky"), 5)

    @pytest.mark.parametrize("theorem", ["constant-round", "public-coin", "three-round"])
    def test_experiments_never_enumerate_a_folded_alphabet(self, theorem, monkeypatch):
        base, calls = counted_base()
        enumerated = []
        iterate = ProductSpace.__iter__

        def watched(self):
            enumerated.append(len(self))
            return iterate(self)

        monkeypatch.setattr(ProductSpace, "__iter__", watched)
        monkeypatch.setattr(pipeline, "build_protocol",
                            lambda cfg: fold(base, cfg.reps, f"toy-qr-t{cfg.reps}"))
        cfg = pipeline.default_config(theorem)
        report = run_experiment(theorem, replace(cfg, reps=4))
        assert all(c.passed for c in report.checks)
        # at most the 16-element randomness is walked, never the 13**4 alphabet
        assert max(enumerated, default=0) <= 16
        # the materialised chart alone made 13**4 * 16 + 16 = 456,992 calls
        assert calls[0] < 2_000, calls[0]


class TestTypedCaps:
    def test_strategy_caps_read_the_length(self):
        whole = replace(toy_qr(6))
        with pytest.raises(ConfigError):
            soundness_exact(whole, 5)
        with pytest.raises(ConfigError):
            acceptance_set(whole, 5, whole.randomness[0])

    def test_sparse_domain_cap_reads_the_length(self):
        from qromlab.oracle import SparseOracleDist

        class Unbuilt(Sequence):
            def __len__(self):
                return 25

            def __getitem__(self, i):
                raise AssertionError("the domain was built before the cap")

        with pytest.raises(ConfigError):
            SparseOracleDist(Unbuilt(), Fraction(1, 2))

    def test_adjuster_caps(self):
        from qromlab.hashfam import (
            TableFamily,
            TwoQWiseFamily,
            build_efficient_adjuster,
            build_exact_adjuster,
        )
        from qromlab.oracle import SparseOracleDist, prefix_domain

        dist = SparseOracleDist(prefix_domain((0, 1), 3), Fraction(1, 2))
        with pytest.raises(ConfigError):
            build_exact_adjuster((0, 1, 0), dist)
        fam = TwoQWiseFamily(TableFamily(prefix_domain((0, 1), 2), 4), 1, 2)
        with pytest.raises(ConfigError):
            build_efficient_adjuster((0, 1), fam)

