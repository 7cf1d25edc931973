"""The packed counting walk against the tuple walk it replaced.

``walk._walk`` packs each path into an int and steps a run of reads of
one point at once; ``walk_reference.tuple_walk`` keeps each path as a
(slots, assignment, group) tuple and steps every path at every read.
Both return (total, leaves), and here the leaves must be the same
mapping, each (group, slots, output, assignment, made) with the same
weight, and so must their mass per (r, slots, output, assignment, made).

The packed walk, its leaves' schedule classes dropped and merged
(``walk_reference.unkeyed``), must be the tuple walk; and its classes,
mixed at n repetitions (``pipeline._mixture``), must give (1/S)·Σ_s v_sⁿ
over the tuple walk's single-slot schedules, or be refused.

The traces: stock constant-round flag traces at 1 to 4 repetitions
(slot walk and hypothesis walk), the label walks of both hashed
experiments under both simulators at 1 to 6 repetitions, the
hypothesis-drawn adaptive traces of ``test_extraction``, traces drawn to
read in runs, and the constant-round trace on a k = 3 and k = 4 spec. On
traces that break the response contract the packed walk raises exactly
where the tuple walk does.
"""

import functools
import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_reference
from fold_reference import fold, folded
from walk_reference import unkeyed
from qromlab import pipeline
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _hash_trace,
    _label_walk,
    _moves,
    _response_trace,
    default_config,
    simulator_trace,
)
from qromlab.protocol import (
    UNITS_21,
    ProtocolSpec,
    soundness_exact,
    toy_table,
)
from qromlab.walk import _walk
from test_extraction import LETTERS, SPECS, flag_trace
from test_walk import raised, reckless_trace, stock


def challenges_spec(n: int) -> ProtocolSpec:
    """Quadratic residuosity mod 21 with one commitment and n challenge
    bits, so k = n + 1 prover messages: r = (c1, ..., cn), the verifier
    sends c_i after the i-th message, and accepts iff every response
    answers its challenge against the one commitment. No row of
    ``PROTOCOLS`` builds it."""
    units = set(UNITS_21)

    def next_message(x, r, ms):
        return (r[len(ms) - 1],)

    def decide(x, r, ms):
        (a,), *zs = ms
        return all(z in units and (z * z) % 21 == (a * pow(x, c, 21)) % 21
                   for c, (z,) in zip(r, zs))

    def honest_prover(x, w, u, received):
        (uj,) = u
        if not received:
            return ((uj * uj) % 21,)
        (c,) = received[-1]
        return ((uj * pow(w, c, 21)) % 21,)

    return ProtocolSpec(
        name=f"toy-qr-{n}c",
        alphabet=tuple((e,) for e in (0,) + UNITS_21),
        rounds=n + 1,
        randomness=tuple(itertools.product((0, 1), repeat=n)),
        prover_randomness=tuple((u,) for u in UNITS_21),
        witness_map=lambda x: tuple(w for w in UNITS_21 if (w * w) % 21 == x % 21),
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=True,
    )


def mapping(walked):
    """(total, leaf -> weight) of a walk: the order a walk meets its
    leaves in is not part of its contract."""
    total, leaves = walked
    out = {}
    for weight, *leaf in leaves:
        assert tuple(leaf) not in out
        out[tuple(leaf)] = weight
    return total, out


def per_r(walked):
    """A walk's run count per (r, slots, output, assignment, made) and
    its total."""
    total, leaves = walked
    counts: Counter = Counter()
    for weight, group, slots, out, asg, made in leaves:
        for r in group:
            counts[r, slots, out, asg, made] += weight
    return total, counts


def check(spec, x, trace, *args, **kwargs):
    got = unkeyed(_walk(spec, x, trace, *args, **kwargs))
    want = walk_reference.tuple_walk(spec, x, trace, *args, **kwargs)
    assert mapping(got) == mapping(want)
    assert per_r(got) == per_r(want)


def check_classes(spec, x, trace, q, label=False):
    """The single-slot classes of a walk in q queries against the
    tuple walk of each of the 2q + 1 schedules alone: mixed at n
    repetitions, the share of runs whose output is accepted must be
    (1/S)·Σ_s v_sⁿ, unless the mixture refuses classes that weigh
    unequally over the randomness."""
    def accepted(leaves):
        return [(weight * sum(1 for r in group if spec.decide(x, r, out)), weight, group, rest)
                for weight, group, _, out, *rest in leaves]

    def walk(walker):
        if not label:
            return walker(spec, x, trace, 1, q)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(pipeline, "_walk", walker)
            return _label_walk(spec, x, trace, 1, q)

    classes: dict = {}
    labels = None
    for hits, weight, group, (asg, _, key) in accepted(walk(_walk)[1]):
        if label:  # each coordinate draws its own labels
            labels = asg, len(spec.randomness)
        pipeline._tally(classes, key, weight, group, hits, labels=labels)
    values = []  # per schedule; (-1, 0) fires at no ordinal
    for fixed in [(-1, 0), *itertools.product(range(q), (0, 1))]:
        total, leaves = walk(functools.partial(walk_reference.tuple_walk, fixed=fixed))
        values.append(Fraction(sum(hits for hits, *_ in accepted(leaves)), total))
    for n in (1, 2, 3):
        try:
            mixed = pipeline._mixture(classes, len(spec.randomness), n)
        except RuntimeError:
            assert n > 1
            continue
        assert mixed == (sum(v**n for v in values) / len(values),), n


@pytest.mark.parametrize("name", [f"toy-qr-t{reps}" for reps in (1, 2, 3, 4)] + ["toy-table"])
def test_stock_flag_walks_match_the_tuple_walk(name):
    for spec, x, trace, q in stock(name):
        check(spec, x, trace, spec.rounds, q)
        check(spec, x, trace, values=(1, 0))


def label_walks(spec, x, trace, q):
    """Every label walk the hashed experiments take of a response trace
    in q queries: no slot, and every single-slot schedule."""
    yield _label_walk(spec, x, trace)
    yield _label_walk(spec, x, trace, 1, q)


@pytest.mark.parametrize("reps", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("sim", sorted(SIMULATORS))
def test_label_walks_match_the_tuple_walk(reps, sim, monkeypatch):
    cfg = replace(default_config("three-round"), reps=reps, simulator=sim)
    spec = folded(cfg)
    for x in cfg.yes_instances + cfg.no_instances:
        move = _moves(cfg, spec, x)
        for trace in (_response_trace(spec, move), _hash_trace(spec, move)):
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "_walk", walk_reference.tuple_walk)
                want = [mapping(w) for w in label_walks(spec, x, trace, cfg.q)]
            assert [mapping(unkeyed(w)) for w in label_walks(spec, x, trace, cfg.q)] == want


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    x=st.sampled_from([1, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 5),
)
def test_adaptive_walks_match_the_tuple_walk(name, x, seed, queries):
    spec = SPECS[name]
    trace = flag_trace(seed, LETTERS[name], spec.rounds, queries)
    check(spec, x, trace, spec.rounds, queries)
    check(spec, x, trace, values=(1, 0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 4))
def test_the_packed_walk_refuses_where_the_tuple_walk_does(seed, queries):
    spec = toy_table()
    trace = reckless_trace(seed, LETTERS["toy-table"], 2, queries)
    want = raised(lambda: walk_reference.tuple_walk(spec, 1, trace, 2, queries))
    assert raised(lambda: _walk(spec, 1, trace, 2, queries)) == want
    if want is None:
        check(spec, 1, trace, 2, queries)


def run_trace(seed, letters, k, runs):
    """A flag trace that reads in runs, as ``simulator_trace`` pads its
    live reads: up to three dropped reads of one point, most often ended
    by a kept read of it. It keeps the response contract, and reads its
    points in an order its kept answers choose."""

    def trace(ask_h, ask_f):
        seen: list = []
        rng = random.Random(seed)
        for _ in range(runs):
            p = tuple(rng.choice(letters) for _ in range(rng.randint(1, k)))
            for _ in range(rng.randint(0, 3)):
                ask_h(p, drop=True)
            if rng.random() < 0.7:
                seen.append(ask_h(p))
                if seen[-1] == 1 and len(p) < k and rng.random() < 0.8:
                    seen.append(ask_f(p))
                rng = random.Random(repr((seed, seen)))
        return tuple(rng.choice(letters) for _ in range(k))

    return trace


def label_run_trace(seed, letters, runs):
    """A response trace ``trace(ask_c)`` for ``_label_walk`` that reads
    its challenges in runs of dropped reads, most often ended by a kept
    one."""

    def trace(ask_c):
        seen: list = []
        rng = random.Random(seed)
        for _ in range(runs):
            p = (rng.choice(letters),)
            for _ in range(rng.randint(0, 3)):
                ask_c(p, drop=True)
            if rng.random() < 0.7:
                seen.append(ask_c(p))
                rng = random.Random(repr((seed, seen)))
        return (rng.choice(letters), rng.choice(letters))

    return trace


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    x=st.sampled_from([1, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 4),
    q=st.integers(0, 9),
)
def test_runs_of_reads_match_the_tuple_walk(name, x, seed, runs, q):
    # a run's slots fire only at its reads before the q-th query
    spec = SPECS[name]
    trace = run_trace(seed, LETTERS[name], spec.rounds, runs)
    check(spec, x, trace, spec.rounds, q)
    check(spec, x, trace, spec.rounds, q, (1, 0))
    check(spec, x, trace, values=(1, 0))
    check_classes(spec, x, trace, q)
    labels = label_run_trace(seed, LETTERS[name], runs)
    for k in (0, 1):
        check_label(spec, x, labels, k, q)
    check_classes(spec, x, labels, q, label=True)


def check_label(spec, x, trace, k, q):
    got = unkeyed(_label_walk(spec, x, trace, k, q))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(pipeline, "_walk", walk_reference.tuple_walk)
        want = _label_walk(spec, x, trace, k, q)
    assert mapping(got) == mapping(want)


ROUNDS = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@pytest.mark.parametrize("k, reps", ROUNDS)
def test_more_rounds_match_the_tuple_walk(k, reps):
    base = challenges_spec(k - 1)
    spec = base if reps == 1 else fold(base, reps, f"{base.name}-t{reps}")
    cfg = ExperimentConfig(q=k, yes_instances=(4,), no_instances=(5,))
    for sim in SIMULATORS:
        for x in (4, 5):
            trace = simulator_trace(spec, _moves(replace(cfg, simulator=sim), spec, x))
            check(spec, x, trace, k, 2 * k * k)


def test_the_challenges_spec_is_a_qr_argument():
    # the honest prover convinces on 4, a residue; on 5, a non-residue,
    # a commitment answers one challenge bit, so the best prover wins
    # only on one challenge vector of the 2**n
    for n in (1, 2):
        spec = challenges_spec(n)
        assert soundness_exact(spec, 5) == Fraction(1, 2**n)
        w = spec.witness_map(4)[0]
        for u in spec.prover_randomness:
            for r in spec.randomness:
                ms: tuple = ()
                for _ in range(spec.rounds):
                    got = tuple(spec.next_message(4, r, ms[: i + 1]) for i in range(len(ms)))
                    ms += (spec.honest_prover(4, w, u, got),)
                assert spec.decide(4, r, ms)
