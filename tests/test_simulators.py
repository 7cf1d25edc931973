"""The simulator table's traces against the builders as first written.

``pipeline`` writes each experiment's query plan once against a
simulator's moves, ``SIMULATORS[name](spec, x, cfg)``; the reference
builders of ``trace_reference`` test the name and write the plan once per
simulator. Flag and hash traces must ask the same points in the same
order and return the same output under any answers, so the counting walk
sees the same leaves. The give-up response trace now asks one challenge
at the bottom first message where the reference asks none; the exact
three-round values must not move, on toy-qr and on a copy whose
``decide`` accepts the bottom transcript at some randomness.
"""

import itertools
import random
from dataclasses import replace

import pytest

import trace_reference as ref
from qromlab.adversary import challenge_structure
from qromlab.pipeline import (
    SIMULATORS,
    ExperimentConfig,
    _fs_game_value,
    _hash_trace,
    _moves,
    _response_trace,
    _single_slot_extraction,
    build_protocol,
    simulator_trace,
)
from qromlab.walk import _walk

CONFIGS = {
    **{f"toy-qr-t{reps}": ExperimentConfig(reps=reps) for reps in (1, 2, 3)},
    "toy-table": ExperimentConfig(
        protocol="toy-table", yes_instances=(1, 3), no_instances=(0, 2)
    ),
}
QR = ["toy-qr-t1", "toy-qr-t2", "toy-qr-t3"]


def stock(name):
    """(cfg, spec, statement) for every statement of a config, under
    every simulator."""
    for sim in SIMULATORS:
        cfg = replace(CONFIGS[name], simulator=sim)
        spec = build_protocol(cfg)
        for x in cfg.yes_instances + cfg.no_instances:
            yield cfg, spec, x


def answerers(values):
    """Makers of fresh oracle answer functions over ``values``: each
    constant one, one that cycles through them call by call, and lazily
    sampled tables under three seeds."""
    makers = [lambda v=v: (lambda p: v) for v in values]

    def cycling():
        count = itertools.count()
        return lambda p: values[next(count) % len(values)]

    def sampled(seed):
        rng, table = random.Random(seed), {}
        return lambda p: table.setdefault(p, rng.choice(values))

    return makers + [cycling] + [lambda s=s: sampled(s) for s in range(3)]


def asked(trace, ask_h, ask_f):
    """The (kind, point) log of one run of a trace, and its output."""
    log = []

    def logged(kind, ask):
        def run(p):
            log.append((kind, tuple(p)))
            return ask(p)

        return run

    out = trace(logged("h", ask_h), logged("f", ask_f))
    return log, out


def same_runs(new, old, values, responders):
    """Both traces ask the same points and return the same output under
    every answer function over ``values`` and every responder."""
    for make in answerers(values):
        for respond in responders:
            assert asked(new, make(), respond) == asked(old, make(), respond)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flag_traces_match_the_reference(name):
    for cfg, spec, x in stock(name):
        new = simulator_trace(spec, _moves(cfg, spec, x))
        old = ref.decision_trace(cfg, spec, x)
        responders = [lambda p, r=r: spec.next_message(x, r, p) for r in spec.randomness]
        same_runs(new, old, (0, 1), responders)
        k = spec.rounds
        assert _walk(spec, x, new, k, 2 * k * k) == _walk(spec, x, old, k, 2 * k * k)
        flags = ((1, 1), (0, 1))
        assert _walk(spec, x, new, values=flags) == _walk(spec, x, old, values=flags)


@pytest.mark.parametrize("name", QR)
def test_hash_traces_match_the_reference(name):
    for cfg, spec, x in stock(name):
        new = _hash_trace(spec, _moves(cfg, spec, x))
        old = ref.hash_trace(cfg, spec, x)
        challenges, _ = challenge_structure(spec, x)
        same_runs(new, old, challenges, [lambda p: None])
        values = [(c, 1) for c in challenges]
        assert _walk(spec, x, new, values=values) == _walk(spec, x, old, values=values)


def accepts_bottom(spec):
    """The spec, also accepting the all-bottom transcript at every third
    randomness."""
    bottom = (spec.alphabet[0],) * spec.rounds
    some = set(tuple(spec.randomness)[::3])
    return replace(spec, decide=lambda x, r, ms: (ms == bottom and r in some)
                   or spec.decide(x, r, ms))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_three_round_values_match_the_reference(name):
    scored = 0
    for cfg, stock_spec, x in stock(name):
        for spec in (stock_spec, accepts_bottom(stock_spec)):
            new = _response_trace(spec, _moves(cfg, spec, x))
            old = ref.response_trace(cfg, spec, x)
            assert _fs_game_value(spec, x, new) == _fs_game_value(spec, x, old)
            for q in (1, 2, 3):
                values = _single_slot_extraction(spec, x, new, q)
                assert values == _single_slot_extraction(spec, x, old, q)
                scored += cfg.simulator == "give-up" and any(values)
    assert scored  # the give-up comparison is not all zeros


def test_give_up_response_trace_asks_the_bottom_challenge():
    # the one plan that changed: the new trace asks one challenge at
    # (bottom,), whose answer the output ignores; the reference asks none
    cfg = ExperimentConfig(reps=1, simulator="give-up")
    spec = build_protocol(cfg)
    bottom = spec.alphabet[0]
    new = _response_trace(spec, _moves(cfg, spec, 4))
    old = ref.response_trace(cfg, spec, 4)
    for c in challenge_structure(spec, 4)[0]:
        new_log, old_log = [], []
        assert new(lambda p: new_log.append(p) or c) == (bottom, bottom)
        assert old(lambda p: old_log.append(p) or c) == (bottom, bottom)
        assert (new_log, old_log) == ([(bottom,)], [])
