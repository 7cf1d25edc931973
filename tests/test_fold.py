"""Folded specs against the materialised route they replaced.

``protocol.fold`` builds parallel repetitions over lazy ``ProductSpace``
sequences, ``pipeline._check_public_coin`` checks a folded spec on its
base, and the forgery optimum takes the k best product masses from a
heap.
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
import live_reference as live
from prover_reference import acceptance_set
from qromlab import pipeline
from qromlab.pipeline import (
    _check_public_coin,
    _forgery_masses,
    _top_products,
    fs_forgery_exact,
    run_experiment,
)
from qromlab.protocol import (
    MAX_REPS,
    ConfigError,
    ProductSpace,
    fold,
    soundness_exact,
    toy_qr,
)
from qromlab.transforms import enumerate_schedules

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
        # the base-only check passes where the exhaustive one does, and the
        # chart lifted from the base, which the hash-table references read,
        # is the exhaustive chart
        new, old = pair
        for x in STATEMENTS:
            assert _check_public_coin(new, x) is None
            challenges, chart = ref.lifted_challenge_structure(new, x)
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.integers(1, 3), st.integers(1, 250))
    def test_int_counts_are_scaled_masses(self, counts, reps, n):
        # products of counts over d are the products of the masses over d**reps
        counts = sorted(counts, reverse=True)
        d = 6
        got = _top_products(counts, reps, n)
        assert all(type(p) is int for p in got)
        want = _top_products([Fraction(c, d) for c in counts], reps, n)
        assert [Fraction(p, d**reps) for p in got] == want


@pytest.mark.parametrize("reps", [1, 2, 3, 4])
def test_integer_masses_against_materialised(reps):
    # the int-counted masses, divided once, against every first message
    # of the materialised fold scored in Fractions
    new, old = toy_qr(reps), ref.toy_qr(reps)
    for x in (4, 5, 16, 20):
        want = ref.forgery_masses(old, x)
        for n in (1, 3, 5, 13, 169):
            got = _forgery_masses(new, x, n)
            assert got == want[:n]
            assert all(type(p) is Fraction for p in got)


def test_forgery_refuses_a_negative_query_count():
    assert fs_forgery_exact(toy_qr(1), 5, 0) == Fraction(1, 2)
    with pytest.raises(ValueError, match="query count must be nonnegative"):
        fs_forgery_exact(toy_qr(1), 5, -1)


def counted_base():
    """toy_qr(1) with a counter on its next-message calls."""
    base = toy_qr(1)
    calls = [0]

    def next_message(x, r, ms):
        calls[0] += 1
        return base.next_message(x, r, ms)

    return replace(base, next_message=next_message), calls


class TestLazyRoute:
    @pytest.mark.parametrize("reps", [4, 12])
    def test_a_folded_spec_is_checked_on_its_base_once(self, reps):
        # one base call per randomness and per (first message, randomness);
        # a call of the folded next message would cost one per repetition
        base, calls = counted_base()
        spec = fold(base, reps, f"toy-qr-t{reps}")
        assert _check_public_coin(spec, 5) is None
        pairs = len(base.alphabet) * len(base.randomness)
        assert calls[0] == len(base.randomness) + pairs
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
            _check_public_coin(leaky, 5)
        with pytest.raises(ValueError, match="init=False"):
            replace(toy_qr(2), fold_base=toy_qr(1))

    def test_lift_keeps_the_base_check(self):
        # a base whose response reads the prover message fails, folded too
        base = toy_qr(1)
        leaky = replace(base, next_message=lambda x, r, ms: ms[0] if ms[0] != (0,) else r)
        with pytest.raises(ValueError, match="depends on the prover message"):
            _check_public_coin(fold(leaky, 3, "leaky"), 5)

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



# base (no slot, timing-0 slot, timing-1 slot) values of the q = 1
# single-slot game per simulator and side: a folded schedule class
# scores its base value to the n
SLOT_BASES = {
    ("honest-wrapper", True): (1, Fraction(1, 2), Fraction(1, 2)),
    ("honest-wrapper", False): (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    ("give-up", True): (0, 0, 0),
    ("give-up", False): (0, 0, 0),
}


@pytest.mark.parametrize("sim", sorted(pipeline.SIMULATORS))
@pytest.mark.parametrize("x", [4, 16, 5, 20])
def test_folded_label_games_are_powers_of_the_base_game(sim, x):
    # the label walk on a folded trace, at several depths, against the
    # parallel-repetition rule: each coordinate plays the base game
    def traces(reps):
        cfg = pipeline.ExperimentConfig(reps=reps, simulator=sim)
        spec = pipeline.build_protocol(cfg)
        move = pipeline._moves(cfg, spec, x)
        return spec, pipeline._response_trace(spec, move), pipeline._hash_trace(spec, move)

    base, response, hashed = traces(1)
    games = [pipeline._fs_game_value(base, x, t)[0] for t in (response, hashed)]
    bases = SLOT_BASES[sim, base.language(x)]
    for n in range(1, 7):
        spec, response, hashed = traces(n)
        assert [pipeline._fs_game_value(spec, x, t)[0] for t in (response, hashed)] == [
            game**n for game in games
        ]
        want = sum(Fraction(v) ** n for v in bases) / 3
        assert pipeline._single_slot_extraction(spec, x, response, 1) == (want, want)
    if sim == "honest-wrapper":
        assert want == (Fraction(11, 32) if base.language(x) else Fraction(11, 2048))


# ---------------------------------------------------------------------------
# Fold traces: every decision experiment walks its trace on the fold's
# base and scores the repetitions as a mixture of the base walk's classes
# (``pipeline._mixture``). Each test below compares that route with the
# plain walk of the folded spec under the folded moves, which a scorer
# takes at one repetition.

DENSITIES = (Fraction(1, 4), Fraction(1, 3))


def scorer_values(spec, x, move, qs, reps=1, flags=True):
    """Every decision scorer's value on the traces of ``move``: the
    response and hash traces, and with ``flags`` the constant-round flag
    trace."""
    response = pipeline._response_trace(spec, move)
    values = (
        pipeline._fs_game_value(spec, x, response, reps),
        pipeline._fs_game_value(spec, x, pipeline._hash_trace(spec, move), reps),
        *(pipeline._single_slot_extraction(spec, x, response, q, reps) for q in qs),
    )
    if flags:
        k = spec.rounds
        trace = pipeline.simulator_trace(spec, move)
        values += (pipeline.extraction_prover_value(spec, x, trace, 2 * k * k, reps),
                   pipeline._sparse_hypothesis(spec, x, trace, DENSITIES, reps))
    return values


def both_routes(spec, x, base_move, qs, flags=True):
    """The scorers on the fold base at the spec's reps, and on the folded
    spec at one repetition under ``base_move`` made in every coordinate."""
    base, reps = pipeline._fold_parts(spec)

    def folded(got):
        cols = zip(*map(spec.alphabet.split, got)) if got else [()] * reps
        return sum((base_move(col) for col in cols), ())

    move = base_move if spec is base else folded
    return (scorer_values(base, x, base_move, qs, reps, flags),
            scorer_values(spec, x, move, qs, flags=flags))


@pytest.mark.parametrize("sim", sorted(pipeline.SIMULATORS))
@pytest.mark.parametrize("reps", range(1, 11))
def test_fold_traces_score_as_the_folded_walk(reps, sim):
    # q = 1 is three-round's stock budget, q = 3 its --q 3; the folded
    # row's own moves are the base moves in every coordinate. Past 8
    # repetitions only the slot-free games are walked folded: the slot
    # and flag walks of a fold read every r of it per distinct transcript
    # and are left to the closed forms
    cfg = pipeline.ExperimentConfig(reps=reps, simulator=sim)
    spec = pipeline.build_protocol(cfg)
    base, _ = pipeline._fold_parts(spec)
    flags = reps <= 8
    qs = (1, 3) if flags else ()
    for x in (4, 16, 5, 20):
        based, folded = both_routes(spec, x, pipeline._moves(cfg, base, x), qs, flags)
        assert based == folded, x
        own = pipeline._moves(cfg, spec, x)
        assert folded == scorer_values(spec, x, own, qs, flags=flags)
        for value in (based[0][0], based[1][0], *itertools.chain(*based[2:])):
            assert type(value) is Fraction


LETTERS = [(0,), (1,), (2,), (4,)]  # honest messages of x = 4 and 16 plus bottom
letter = st.sampled_from(LETTERS)


@settings(max_examples=40, deadline=None)
@given(st.tuples(letter, letter, letter), st.integers(2, 4),
       st.sampled_from((4, 16, 5, 20)))
def test_drawn_fold_traces_score_as_the_folded_walk(letters, reps, x):
    # a drawn base move, a first message and a final message per
    # challenge, made in every coordinate of a fold
    table = dict(zip([(), ((0,),), ((1,),)], letters))
    based, folded = both_routes(toy_qr(reps), x, lambda got: table[got], (1, 2))
    assert based == folded


@pytest.mark.parametrize("sim", sorted(pipeline.SIMULATORS))
@pytest.mark.parametrize("x", [4, 16, 5, 20])
def test_constant_round_mixes_the_single_schedule_values(sim, x):
    # each of the 257 schedules replayed on its own: the reps value is
    # (1/S)·Σ_s v_sⁿ, which the class mixture must give exactly
    cfg = pipeline.ExperimentConfig(reps=1, simulator=sim)
    base = pipeline.build_protocol(cfg)
    trace = pipeline.simulator_trace(base, pipeline._moves(cfg, base, x))
    scheds = enumerate_schedules(2, 8)
    single = [live.extraction_prover_value(base, x, trace, [s]) for s in scheds]
    for reps in (1, 2, 3, 5, 12, 64):
        want = tuple(sum(v[i] ** reps for v in single) / len(scheds) for i in (0, 1))
        assert pipeline.extraction_prover_value(base, x, trace, 8, reps) == want, reps


@pytest.mark.parametrize("reps", [12, 17, 32, 64])
def test_constant_round_closed_forms(reps):
    # over the 257 schedules of k = 2 slots in 8 queries: yes value
    # (45 + 32·2⁻ⁿ)/257 and pstar (206 + 51·2⁻ⁿ)/257; no value
    # 77·2⁻ⁿ/257 and pstar 2⁻ⁿ; the flag hypothesis is 1/16 at 1/4
    half = Fraction(1, 2**reps)
    yes = ((206 + 51 * half) / 257, (45 + 32 * half) / 257)
    no = (half, 77 * half / 257)
    cfg = replace(pipeline.default_config("constant-round"), reps=reps)
    base, n = pipeline._fold_parts(pipeline.build_protocol(cfg))
    assert n == reps
    for x, want in ((4, yes), (16, yes), (5, no), (20, no)):
        trace = pipeline.simulator_trace(base, pipeline._moves(cfg, base, x))
        assert pipeline.extraction_prover_value(base, x, trace, 8, reps) == want
        if want is yes:
            hyp = pipeline._sparse_hypothesis(base, x, trace, (Fraction(1, 4),), reps)
            assert hyp == (Fraction(1, 16),)
    report = run_experiment("constant-round", cfg)
    assert report.decision["yes"] == [float(yes[1])] * 2
    assert report.decision["no"] == [float(no[1])] * 2
    assert all(c.passed for c in report.checks)


def test_a_class_must_weigh_alike_under_every_randomness():
    # the response moves the second run's start: under r = (1,) the two
    # reads of the full transcript are one run from ordinal 1, under
    # r = (0,) the first is a run of its own, so no class is shared
    spec = toy_qr(1)

    def trace(ask_h, ask_f):
        first = ((1,),)
        c = ask_f(first) if ask_h(first) else (0,)
        full = ((1,), (2,))  # accepted at r = (1,)
        ask_h(full, drop=True)
        if c == (0,):
            ask_h(first, drop=True)
        ask_h(full, drop=True)
        if c != (0,):
            ask_h(first, drop=True)
        return full

    want = live.extraction_prover_value(spec, 4, trace, enumerate_schedules(2, 4))
    assert pipeline.extraction_prover_value(spec, 4, trace, 4) == want
    with pytest.raises(RuntimeError, match="weighs unequally over the randomness"):
        pipeline.extraction_prover_value(spec, 4, trace, 4, 2)


@pytest.mark.parametrize("reps", [21, 40, 64])
def test_the_walk_refuses_a_folded_randomness_before_building_it(reps, monkeypatch):
    # a scorer called on the fold itself walks its randomness: over the
    # cap, or too long to count, it is refused before any is listed
    def unlisted(self):
        raise AssertionError("a product space was enumerated")

    monkeypatch.setattr(ProductSpace, "__iter__", unlisted)
    spec = toy_qr(reps)
    full = ((1,) * reps, (1,) * reps)

    def plain(ask_h, ask_f):
        return full

    def labels(ask_c):
        return full

    message = "enumeration cap" if reps < 64 else "too long to index"
    for score in (lambda: pipeline.extraction_prover_value(spec, 4, plain, 0),
                  lambda: pipeline._sparse_hypothesis(spec, 4, plain, DENSITIES),
                  lambda: pipeline._fs_game_value(spec, 4, labels),
                  lambda: pipeline._single_slot_extraction(spec, 4, labels, 1)):
        with pytest.raises(ConfigError, match=message):
            score()


@pytest.fixture
def walked(monkeypatch):
    """The specs ``pipeline._walk`` is called on, in order."""
    specs = []
    walk = pipeline._walk

    def recording(spec, *args, **kwargs):
        specs.append(spec)
        return walk(spec, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_walk", recording)
    return specs


@pytest.mark.parametrize("theorem", ["public-coin", "three-round", "constant-round"])
def test_stock_hashed_challenges_walk_only_base_specs(theorem, walked):
    # so does constant-round: no stock run walks a folded spec
    for sim in sorted(pipeline.SIMULATORS):
        for reps in range(2, 11):
            cfg = replace(pipeline.default_config(theorem), reps=reps, simulator=sim)
            run_experiment(theorem, cfg)
    assert walked and all(spec.fold_base is None for spec in walked)


def test_a_grinding_trace_takes_the_folded_walk(walked):
    # the grinder is written against the folded spec, and a scorer at one
    # repetition walks the spec it is given; the grinder probes several
    # first messages, so its coordinates are not independent base runs,
    # and its reps-2 value 781/1024 is not (31/32)**2
    from test_acceptor import grinding_trace

    spec = toy_qr(2)
    trace = grinding_trace(spec, 5)
    assert pipeline._fs_game_value(spec, 5, trace)[0] == Fraction(781, 1024)
    pipeline._single_slot_extraction(spec, 5, trace, 4)
    assert walked == [spec, spec]


@pytest.mark.parametrize("reps", [12, 17, 32, 64])
def test_closed_forms_past_the_index_cap(reps):
    # three-round: yes (1 + 2**(1 - n)) / 3 and no 2**-n times yes, from
    # the base values (1, 1/2, 1/2) and (1/2, 1/4, 1/4) of the q = 1
    # schedule classes; public-coin: no 2**-n
    yes = (1 + Fraction(2) ** (1 - reps)) / 3
    no = yes / 2**reps
    cfg = replace(pipeline.default_config("three-round"), reps=reps)
    base, _ = pipeline._fold_parts(pipeline.build_protocol(cfg))
    for x, want in ((4, yes), (16, yes), (5, no), (20, no)):
        trace = pipeline._response_trace(base, pipeline._moves(cfg, base, x))
        assert pipeline._single_slot_extraction(base, x, trace, 1, reps) == (want, want)
    report = run_experiment("three-round", cfg)
    assert report.decision["yes"] == [float(yes)] * 2
    assert report.decision["no"] == [float(no)] * 2

    cfg = replace(pipeline.default_config("public-coin"), reps=reps)
    base, _ = pipeline._fold_parts(pipeline.build_protocol(cfg))
    for x, want in ((4, 1), (16, 1), (5, Fraction(1, 2**reps)), (20, Fraction(1, 2**reps))):
        trace = pipeline._hash_trace(base, pipeline._moves(cfg, base, x))
        assert pipeline._fs_game_value(base, x, trace, reps) == (want, 4)
    report = run_experiment("public-coin", cfg)
    assert report.decision["yes"] == [1.0, 1.0]
    assert report.decision["no"] == [float(Fraction(1, 2**reps))] * 2
    assert all(c.passed for c in report.checks)


@pytest.mark.parametrize("x", [1, 2, 4, 5, 16, 20])
def test_soundness_is_the_best_first_message_mass(x):
    # an unbounded prover of a public-coin two-move spec sends the first
    # message of largest answerable mass; folded, replaced or neither
    for reps in range(1, 6):
        spec = toy_qr(reps)
        assert soundness_exact(spec, x) == _forgery_masses(spec, x, 1)[0], reps
    for reps in (1, 2):
        copy = replace(toy_qr(reps))
        assert copy.fold_base is None
        assert soundness_exact(copy, x) == _forgery_masses(copy, x, 1)[0], reps


class TestPastTheIndexCap:
    def test_a_fold_too_long_to_index_is_built(self):
        spec = toy_qr(18)
        space = spec.alphabet
        for read in (lambda: len(space), lambda: space[0]):
            with pytest.raises(ConfigError, match=r"a product of 13\*\*18 elements"):
                read()
        assert (20,) * 18 in space and (3,) * 18 not in space
        assert space.split((1,) * 18) == ((1,),) * 18
        assert soundness_exact(spec, 5) == Fraction(1, 2**18)

    def test_the_reps_cap_is_checked_before_anything_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a space was built past the repetition cap")

        monkeypatch.setattr(ProductSpace, "__init__", unbuilt)
        for build in (lambda: toy_qr(MAX_REPS + 1), lambda: fold(None, MAX_REPS + 1, "")):
            with pytest.raises(ConfigError, match=f"at most {MAX_REPS} repetitions"):
                build()
