"""The batched control-assignment route of ``run_simulator`` against one
pinned machine per assignment (``pinned_reference``), branch by branch."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    Measure,
    QueryAlgorithm,
    Unitary,
    build_verifier,
    expected_wrappers,
    honest_wrapper,
    run_simulator,
)
from qromlab.pipeline import build_protocol, default_config, eps_star
from qromlab.protocol import toy_guess, toy_table
from qromlab.transforms import truncate
import pinned_reference
from prover_reference import give_up

EPS4 = Fraction(1, 4)


def assert_same_branches(got, want, atol=None):
    """Equal branch lists: exact, or amplitudes and float weights to atol."""
    assert got.kind == want.kind
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert type(a.weight) is type(b.weight)
        if atol is None or isinstance(b.weight, Fraction):
            assert a.weight == b.weight
        else:
            assert abs(a.weight - b.weight) <= atol
        assert a.outcomes == b.outcomes
        assert a.invocations == b.invocations
        assert a.counts == b.counts
        assert a.oracles == b.oracles
        assert a.state.layout == b.state.layout
        if atol is None:
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
        else:
            assert np.abs(a.state.amplitudes - b.state.amplitudes).max() <= atol


def check(sim, machine, atol=None):
    got = run_simulator(sim, machine)
    assert_same_branches(got, pinned_reference.run_simulator(sim, machine), atol)
    return got


CFG = default_config("expected-time")
SPEC = build_protocol(CFG)


@pytest.mark.parametrize(
    "x,eps",
    [(x, eps) for x in CFG.yes_instances
     for eps in (CFG.eps, eps_star(SPEC.rounds, CFG.q))],
    ids=str,
)
def test_expected_time_machines(x, eps):
    machine = build_verifier("random_aborting", SPEC, x, eps=eps)
    coherent = build_verifier("superposition", SPEC, x, eps=eps)
    w = SPEC.witness_map(x)[0]
    members = expected_wrappers(coherent, w, CFG.q)
    sims = [honest_wrapper(machine, w), give_up(machine), *members]
    sims += [truncate(s, CFG.q) for s in members]
    for sim in sims:
        check(sim, machine)


def _roundtrip(n):
    """A random unitary on a work register and back, then its measurement:
    the off-outcomes carry rounding far below ``PROB_FLOOR``."""
    u = _unitary(n, 7)
    return QueryAlgorithm(
        "roundtrip",
        (CallVerifier(), Unitary(("W",), u), Unitary(("W",), u.conj().T), Measure("W")),
        1,
        (("W", n),),
    )


@pytest.mark.parametrize(
    "machine",
    [
        build_verifier("random_aborting", toy_guess(), 1, eps=1),
        build_verifier("random_aborting", toy_table(), 1, eps=EPS4),
    ],
    ids=lambda m: f"{m.kind}-{m.spec.name}-{m.eps}",
)
def test_other_machines(machine):
    spec, x = machine.spec, machine.x
    sims = [give_up(machine), _roundtrip(3)]
    if spec.language(x):
        honest = honest_wrapper(machine, spec.witness_map(x)[0])
        sims.append(honest)
        sims.append(
            QueryAlgorithm(
                "honest-then-measure", honest.steps + (Measure("M"),), honest.budget
            )
        )
    mix = Unitary(("M",), _unitary(len(spec.alphabet), 3))
    sims.append(
        QueryAlgorithm(
            "mix-then-measure",
            (mix, CallVerifier(), Measure("M"), CallVerifier(inverse=True), Measure("M")),
            2,
        )
    )
    for sim in sims:
        check(sim, machine, atol=1e-12)


def test_roundtrip_drops_the_rounding_outcomes():
    machine = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
    got = check(_roundtrip(3), machine, atol=1e-12)
    assert len(got.branches) == len(machine._control_rows.weights)


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


MACHINES = {
    "aborting": lambda: build_verifier("random_aborting", toy_table(), 1, eps=EPS4),
    "aborting-eps1": lambda: build_verifier("random_aborting", toy_guess(), 1, eps=1),
}
_BUILT = {}


def machine_named(name):
    if name not in _BUILT:
        _BUILT[name] = MACHINES[name]()
    return _BUILT[name]


WORK = (("W1", 2), ("W2", 3))
DIMS = dict(WORK, M=2)


@st.composite
def step_lists(draw, general):
    """Steps over M and two work registers: unitaries on one or two of
    them (permutations, or any unitary when ``general``), verifier calls
    both ways, and measurements of a work register."""
    steps = []
    for _ in range(draw(st.integers(0, 7))):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            regs = tuple(draw(st.lists(st.sampled_from(sorted(DIMS)), min_size=1,
                                       max_size=2, unique=True)))
            d = int(np.prod([DIMS[r] for r in regs]))
            if general and draw(st.booleans()):
                mat = _unitary(d, draw(st.integers(0, 2**16)))
            else:
                mat = np.eye(d)[draw(st.permutations(range(d)))]
            steps.append(Unitary(regs, mat))
        elif pick in (1, 2):
            steps.append(CallVerifier(inverse=pick == 2))
        else:
            steps.append(Measure(draw(st.sampled_from(("W1", "W2")))))
    calls = sum(isinstance(s, CallVerifier) for s in steps)
    return QueryAlgorithm("drawn", tuple(steps), calls, WORK)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)), alg=step_lists(general=False))
def test_drawn_permutation_steps_match_exactly(name, alg):
    check(alg, machine_named(name))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)), alg=step_lists(general=True))
def test_drawn_general_steps_match_to_1e12(name, alg):
    check(alg, machine_named(name), atol=1e-12)


def _budget_zero():
    alg = QueryAlgorithm("over", (CallVerifier(),), 1)
    object.__setattr__(alg, "budget", 0)
    return alg


BAD = {
    "oracle-call": lambda: QueryAlgorithm("q", (CallOracle("h", "M", "B"),), 1),
    "hidden-unitary": lambda: QueryAlgorithm("u", (Unitary(("Count",), np.eye(2)),), 0),
    "hidden-measure": lambda: QueryAlgorithm("m", (Measure("B"),), 0),
    "unknown-register": lambda: QueryAlgorithm("u", (Unitary(("Z",), np.eye(2)),), 0),
    "shadowing-work": lambda: QueryAlgorithm("w", (), 0, (("Count", 2),)),
    "hidden-output": lambda: QueryAlgorithm("o", (), 0, (), ("B",)),
    "wrong-shape": lambda: QueryAlgorithm("s", (Unitary(("M",), np.eye(3)),), 0),
    "repeated-target": lambda: QueryAlgorithm(
        "r", (Unitary(("M", "M"), np.eye(4)),), 0
    ),
    "unknown-step": lambda: QueryAlgorithm("x", ("bogus",), 0),
    "over-budget": _budget_zero,
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_both_routes_raise_the_same_error(case):
    machine = machine_named("aborting")
    alg = BAD[case]()
    with pytest.raises(Exception) as want:
        pinned_reference.run_simulator(alg, machine)
    with pytest.raises(want.type):
        run_simulator(alg, machine)
