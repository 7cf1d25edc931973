"""The count route against the folded spec it replaced.

The library keeps repetitions as a count: ``pipeline.build_protocol``
returns the one-repetition spec with its reps, soundness is the spec's
value to the reps, the forgery optimum takes the k best product masses
from a heap, and each decision scorer mixes its one-repetition walk's
classes at the reps. Each is checked here for exact equality with
``fold_reference``: the materialised spec and the lazily folded one on
small repetition counts, the heap by property tests, and the count
route's work by counting the calls it makes.
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
import soundness_reference
from prover_reference import acceptance_set
from qromlab import pipeline
from qromlab.pipeline import (
    MAX_REPS,
    ExperimentConfig,
    _check_public_coin,
    _forgery_masses,
    _top_products,
    build_protocol,
    fs_forgery_exact,
    run_experiment,
)
from qromlab.protocol import ConfigError, soundness_exact, toy_qr
from qromlab.transforms import enumerate_schedules

STATEMENTS = (0, 4, 5, 16, 20)
REPS = (1, 2, 3)


@pytest.fixture(scope="module", params=REPS)
def pair(request):
    """(reps, the lazy reference fold, the materialised reference spec)
    at one repetition count."""
    reps = request.param
    return reps, ref.fold(toy_qr(), reps, f"toy-qr-t{reps}"), ref.toy_qr(reps)


def materialised_masses(reps, x):
    """Every first message's mass over ``reps`` repetitions, largest
    first: scored on the materialised spec's own chart up to 2 reps; at
    3 the 13**6 * 8 decide calls that costs are out of reach, and each of
    the 2,197 first messages is listed with its product of masses."""
    if reps <= 2:
        return ref.forgery_masses(ref.toy_qr(reps), x)
    return ref.forgery_masses(toy_qr(), x, reps)


class TestAgainstMaterialised:
    def test_spaces_and_metadata(self, pair):
        reps, new, old = pair
        assert (new.name, new.rounds, new.public_coin) == (old.name, old.rounds, True)
        spec, n = build_protocol(ExperimentConfig(reps=reps))
        assert (spec.name, n) == ("toy-qr-t1", reps)
        for field in ("alphabet", "randomness", "prover_randomness"):
            got, want = getattr(new, field), getattr(old, field)
            assert len(got) == len(want)
            assert tuple(got) == want, field

    def test_callables(self, pair):
        _, new, old = pair
        rng = random.Random(len(old.alphabet))
        firsts = old.alphabet if len(old.alphabet) <= 169 else rng.sample(old.alphabet, 60)
        seconds = rng.sample(old.alphabet, min(len(old.alphabet), 40))
        us = old.prover_randomness if len(old.prover_randomness) <= 144 else (
            rng.sample(old.prover_randomness, 40))
        for x in STATEMENTS:
            w = (old.witness_map(x) or (2,))[0]
            assert new.witness_map(x) == old.witness_map(x)
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
        # the one-repetition check passes where the exhaustive one passes
        # on both folded specs, and their charts agree
        _, new, old = pair
        for x in STATEMENTS:
            assert _check_public_coin(toy_qr(), x) is None
            challenges, chart = ref.challenge_structure(new, x)
            want_challenges, want_chart = ref.challenge_structure(old, x)
            assert challenges == want_challenges
            assert list(chart.items()) == list(want_chart.items())

    def test_masses_and_forgery(self, pair):
        reps, _, _ = pair
        for x in STATEMENTS:
            masses = materialised_masses(reps, x)
            for n in (1, 2, 5, 9, 40):
                assert _forgery_masses(toy_qr(), x, n, reps) == masses[:n]
            for q in range(7):
                miss = math.prod(1 - p for p in masses[:q + 1])
                assert fs_forgery_exact(toy_qr(), x, q, reps) == 1 - miss

    def test_soundness(self, pair):
        # up to 2 reps against the whole strategy tree of the materialised
        # spec; at 3 that tree is over the enumeration cap, and soundness
        # is the best first message's mass over the listed first messages
        reps, _, old = pair
        for x in STATEMENTS:
            got = soundness_exact(toy_qr(), x) ** reps
            if reps <= 2:
                assert got == soundness_reference.soundness_exact(old, x)
            else:
                assert got == materialised_masses(reps, x)[0]

    @pytest.mark.parametrize("reps, xs", [(1, STATEMENTS), (2, (5,))])
    def test_soundness_by_strategy_tree(self, reps, xs):
        # the count route against the pruned tree walking the lazy
        # spaces of the reference fold
        whole = ref.fold(toy_qr(), reps, f"toy-qr-t{reps}")
        for x in xs:
            assert soundness_exact(toy_qr(), x) ** reps == soundness_exact(whole, x)

    def test_exhaustive_masses_on_the_lazy_spaces(self):
        # every folded first message scored directly, against the heap
        whole = ref.fold(toy_qr(), 2, "toy-qr-t2")
        assert _forgery_masses(whole, 5, 169) == _forgery_masses(toy_qr(), 5, 169, 2)


def product_cases():
    width = st.integers(1, 2)
    return width.flatmap(lambda w: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 4)] * w), min_size=1, max_size=5,
                 unique=True),
        st.integers(1, 3),
    ))


class TestProductSpace:
    """The reference fold's lazy spaces."""

    @settings(max_examples=150, deadline=None)
    @given(product_cases())
    def test_against_itertools_product(self, case):
        base, reps = case
        space = ref.ProductSpace(base, reps)
        want = tuple(sum(parts, ()) for parts in itertools.product(base, repeat=reps))
        assert len(space) == len(want)
        assert tuple(space) == want
        for i, elem in enumerate(want):
            assert space[i] == elem
            assert space.split(elem) == tuple(
                elem[j:j + len(base[0])] for j in range(0, len(elem), len(base[0])))
        with pytest.raises(IndexError):
            space[len(want)]

    def test_length_without_enumeration(self):
        # 13**16 elements: len and indexing never enumerate
        space = ref.fold(toy_qr(), 16, "toy-qr-t16").alphabet
        assert len(space) == 13**16
        assert space[0] == (0,) * 16
        assert space[13**16 - 1] == (20,) * 16


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
    # of the fold listed with its product of masses in Fractions
    for x in (4, 5, 16, 20):
        want = ref.forgery_masses(toy_qr(), x, reps)
        for n in (1, 3, 5, 13, 169):
            got = _forgery_masses(toy_qr(), x, n, reps)
            assert got == want[:n]
            assert all(type(p) is Fraction for p in got)


def test_forgery_refuses_a_negative_query_count():
    assert fs_forgery_exact(toy_qr(), 5, 0) == Fraction(1, 2)
    with pytest.raises(ValueError, match="query count must be nonnegative"):
        fs_forgery_exact(toy_qr(), 5, -1)


def counted_base():
    """toy_qr() with a counter on its next-message calls."""
    base = toy_qr()
    calls = [0]

    def next_message(x, r, ms):
        calls[0] += 1
        return base.next_message(x, r, ms)

    return replace(base, next_message=next_message), calls


class TestLazyRoute:
    @pytest.mark.parametrize("reps", [4, 12])
    def test_a_folded_spec_is_checked_on_its_base_once(self, reps):
        # one call per randomness and per (first message, randomness) at
        # any reps; a folded next message would cost one per repetition
        base, calls = counted_base()
        assert _check_public_coin(base, 5) is None
        pairs = len(base.alphabet) * len(base.randomness)
        assert calls[0] == len(base.randomness) + pairs
        fs_forgery_exact(base, 5, 4, reps)
        assert calls[0] == 2 * (len(base.randomness) + pairs)

    def test_lift_keeps_the_base_check(self):
        # a spec whose response reads the prover message fails, and so
        # does the forgery cap over its repetitions
        leaky = replace(toy_qr(), next_message=lambda x, r, ms: ms[0] if ms[0] != (0,) else r)
        with pytest.raises(ValueError, match="depends on the prover message"):
            _check_public_coin(leaky, 5)
        with pytest.raises(ValueError, match="depends on the prover message"):
            fs_forgery_exact(leaky, 5, 4, 3)

    @pytest.mark.parametrize("theorem", ["constant-round", "public-coin", "three-round"])
    def test_experiments_never_enumerate_a_folded_alphabet(self, theorem, monkeypatch):
        # at reps 4 every walk and every check reads the one-repetition
        # spec's 13 messages and 2 coins, never the 13**4 and 16 of a fold
        base, calls = counted_base()
        walked = []
        walk = pipeline._walk

        def recording(spec, *args, **kwargs):
            walked.append(spec)
            return walk(spec, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_walk", recording)
        monkeypatch.setattr(pipeline, "build_protocol", lambda cfg: (base, cfg.reps))
        cfg = pipeline.default_config(theorem)
        report = run_experiment(theorem, replace(cfg, reps=4))
        assert all(c.passed for c in report.checks)
        assert walked and all(spec is base for spec in walked)
        # the materialised chart alone made 13**4 * 16 + 16 = 456,992 calls
        assert calls[0] < 2_000, calls[0]


class TestTypedCaps:
    def test_strategy_caps_read_the_length(self):
        whole = ref.fold(toy_qr(), 6, "toy-qr-t6")
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
        spec = ref.folded(cfg)
        move = pipeline._moves(cfg, spec, x)
        return spec, pipeline._response_trace(spec, move), pipeline._hash_trace(spec, move)

    base, response, hashed = traces(1)
    games = [pipeline._fs_game_value(base, x, t)[0] for t in (response, hashed)]
    member = bool(base.witness_map(x))
    bases = SLOT_BASES[sim, member]
    for n in range(1, 7):
        spec, response, hashed = traces(n)
        assert [pipeline._fs_game_value(spec, x, t)[0] for t in (response, hashed)] == [
            game**n for game in games
        ]
        want = sum(Fraction(v) ** n for v in bases) / 3
        assert pipeline._single_slot_extraction(spec, x, response, 1) == (want, want)
    if sim == "honest-wrapper":
        assert want == (Fraction(11, 32) if member else Fraction(11, 2048))


# ---------------------------------------------------------------------------
# Fold traces: every decision experiment walks its trace on the
# one-repetition spec and scores the reps as a mixture of the walk's
# classes (``pipeline._mixture``). Each test below compares that route
# with the plain walk of the reference fold under the folded moves,
# which a scorer takes at one repetition.

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


def both_routes(base, spec, reps, x, base_move, qs, flags=True):
    """The scorers on ``base`` at the reps, and on ``spec``, its reference
    fold, at one repetition under ``base_move`` made in every coordinate."""

    def folded(got):
        cols = zip(*map(spec.alphabet.split, got)) if got else [()] * reps
        return sum((base_move(col) for col in cols), ())

    move = base_move if reps == 1 else folded
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
    base, _ = build_protocol(cfg)
    spec = ref.folded(cfg)
    flags = reps <= 8
    qs = (1, 3) if flags else ()
    for x in (4, 16, 5, 20):
        move = pipeline._moves(cfg, base, x)
        based, folded = both_routes(base, spec, reps, x, move, qs, flags)
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
    spec = ref.fold(toy_qr(), reps, f"toy-qr-t{reps}")
    based, folded = both_routes(toy_qr(), spec, reps, x, lambda got: table[got], (1, 2))
    assert based == folded


@pytest.mark.parametrize("sim", sorted(pipeline.SIMULATORS))
@pytest.mark.parametrize("x", [4, 16, 5, 20])
def test_constant_round_mixes_the_single_schedule_values(sim, x):
    # each of the 257 schedules replayed on its own: the reps value is
    # (1/S)·Σ_s v_sⁿ, which the class mixture must give exactly
    cfg = pipeline.ExperimentConfig(reps=1, simulator=sim)
    base, _ = build_protocol(cfg)
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
    base, n = build_protocol(cfg)
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
    spec = toy_qr()

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


@pytest.mark.parametrize("reps", [21, 40])
def test_the_walk_refuses_a_folded_randomness_before_building_it(reps, monkeypatch):
    # a scorer called on a fold walks its randomness: over the cap it is
    # refused before any is listed
    def unlisted(self):
        raise AssertionError("a product space was enumerated")

    monkeypatch.setattr(ref.ProductSpace, "__iter__", unlisted)
    spec = ref.fold(toy_qr(), reps, f"toy-qr-t{reps}")
    full = ((1,) * reps, (1,) * reps)

    def plain(ask_h, ask_f):
        return full

    def labels(ask_c):
        return full

    for score in (lambda: pipeline.extraction_prover_value(spec, 4, plain, 0),
                  lambda: pipeline._sparse_hypothesis(spec, 4, plain, DENSITIES),
                  lambda: pipeline._fs_game_value(spec, 4, labels),
                  lambda: pipeline._single_slot_extraction(spec, 4, labels, 1)):
        with pytest.raises(ConfigError, match="enumeration cap"):
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
    # so does constant-round: every run walks the one-repetition spec
    for sim in sorted(pipeline.SIMULATORS):
        for reps in range(2, 11):
            cfg = replace(pipeline.default_config(theorem), reps=reps, simulator=sim)
            run_experiment(theorem, cfg)
    assert walked and all(spec.name == "toy-qr-t1" for spec in walked)


def test_a_grinding_trace_takes_the_folded_walk(walked):
    # the grinder is written against the folded spec, and a scorer at one
    # repetition walks the spec it is given; the grinder probes several
    # first messages, so its coordinates are not independent base runs,
    # and its reps-2 value 781/1024 is not (31/32)**2
    from test_acceptor import grinding_trace

    spec = ref.fold(toy_qr(), 2, "toy-qr-t2")
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
    base, _ = build_protocol(cfg)
    for x, want in ((4, yes), (16, yes), (5, no), (20, no)):
        trace = pipeline._response_trace(base, pipeline._moves(cfg, base, x))
        assert pipeline._single_slot_extraction(base, x, trace, 1, reps) == (want, want)
    report = run_experiment("three-round", cfg)
    assert report.decision["yes"] == [float(yes)] * 2
    assert report.decision["no"] == [float(no)] * 2

    cfg = replace(pipeline.default_config("public-coin"), reps=reps)
    base, _ = build_protocol(cfg)
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
    # message of largest answerable mass: over the count route, and on
    # the reference fold walked as any spec
    for reps in range(1, 6):
        assert soundness_exact(toy_qr(), x) ** reps == _forgery_masses(
            toy_qr(), x, 1, reps)[0], reps
    for reps in (1, 2):
        whole = ref.fold(toy_qr(), reps, f"toy-qr-t{reps}")
        assert soundness_exact(whole, x) == _forgery_masses(whole, x, 1)[0], reps


class TestPastTheIndexCap:
    def test_the_reps_cap_is_checked_before_anything_is_built(self, monkeypatch):
        def unbuilt():
            raise AssertionError("a spec was built past the repetition cap")

        monkeypatch.setattr(pipeline, "toy_qr", unbuilt)
        with pytest.raises(ConfigError, match=f"at most {MAX_REPS} repetitions"):
            build_protocol(ExperimentConfig(reps=MAX_REPS + 1))
