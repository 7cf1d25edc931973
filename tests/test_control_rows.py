"""The batched control-assignment route of ``run_simulator`` against one
pinned machine per assignment (``pinned_reference``), branch by branch.

The reference runs each pinned machine through the per-branch executor
(``executor_reference``). Every comparison is exact: the stacked matmul
gives each row the product a one-row ``tensordot`` gives it."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import adversary
from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    Pad,
    QueryAlgorithm,
    Unitary,
    build_verifier,
    expected_wrappers,
    honest_wrapper,
    run_query_algorithm,
    run_simulator,
)
from qromlab.oracle import ClassicalOracle, SparseOracleDist
from qromlab.pipeline import build_protocol, default_config, eps_star
from qromlab.protocol import toy_guess, toy_table
from qromlab.qsim import PROB_FLOOR
from qromlab.transforms import truncate
import pinned_reference
from executor_reference import Measure, assert_same_branches, deferred, result_branches
from prover_reference import give_up

EPS4 = Fraction(1, 4)


def check(sim, machine):
    """The library's run of sim against the reference's, each ``Measure``
    of sim deferred onto a copy register on both sides."""
    sim = deferred(sim, machine)
    got = run_simulator(sim, machine)
    want = pinned_reference.run_simulator(sim, machine)
    assert_same_branches(result_branches(got), result_branches(want))
    return got


CFG = default_config("expected-time")
SPEC, _ = build_protocol(CFG)


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


DENSITIES = [0, Fraction(1, 4), Fraction(1, 3), Fraction(3, 4), 1, eps_star(2, 8)]


@pytest.mark.parametrize("eps", DENSITIES, ids=str)
def test_control_rows_match_the_table_build(eps):
    for x in CFG.yes_instances + CFG.no_instances:
        machine = build_verifier("random_aborting", SPEC, x, eps=eps)
        got = machine._control_rows
        want = pinned_reference.control_rows(machine)
        assert got.weights == want.weights
        assert all(type(w) is Fraction for w in got.weights)
        assert np.array_equal(got.perms, want.perms)
        assert got.layout == want.layout


@pytest.mark.parametrize("eps", DENSITIES, ids=str)
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_enumerate_weighted_matches_the_product_chain(eps, n):
    dist = SparseOracleDist(tuple(range(n)), eps)
    got = list(dist.enumerate_weighted())
    want = list(pinned_reference.product_chain(dist))
    assert [h for h, _ in got] == [h for h, _ in want]
    assert [w for _, w in got] == [w for _, w in want]
    assert all(type(w) is Fraction for _, w in got)


def _roundtrip(n):
    """A random unitary on a work register and back, then its deferred
    measurement: the off-outcomes carry rounding far below ``PROB_FLOOR``."""
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
    if spec.witness_map(x):
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
        check(sim, machine)


def test_roundtrip_drops_the_rounding_outcomes():
    machine = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
    got = check(_roundtrip(3), machine)
    assert len(result_branches(got)) == len(machine._control_rows.weights)
    (run,) = got
    off = np.take(run.tensor(), [1, 2], axis=1 + run.layout.axis_of("copy-0"))
    assert 0 < np.abs(off).max() ** 2 <= PROB_FLOOR
    assert set(adversary.output_distribution(run, ("copy-0",))) == {(0,)}


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
# each deferred measurement adds a copy register: at most 3 keep the
# state within 27 times its size
MAX_MEASURES = 3


@st.composite
def step_lists(draw, general):
    """Steps over M and two work registers: unitaries on one or two of
    them (permutations, or any unitary when ``general``), verifier calls
    both ways, pads of one to three pairs, and up to ``MAX_MEASURES``
    measurements of a work register, each at any position."""
    steps = []
    for _ in range(draw(st.integers(0, 7))):
        measures = sum(isinstance(s, Measure) for s in steps)
        pick = draw(st.integers(0, 4 if measures < MAX_MEASURES else 3))
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
        elif pick == 3:
            steps.append(Pad(draw(st.integers(1, 3))))
        else:
            steps.append(Measure(draw(st.sampled_from(("W1", "W2")))))
    calls = sum(2 * s.pairs if isinstance(s, Pad) else isinstance(s, CallVerifier)
                for s in steps)
    return QueryAlgorithm("drawn", tuple(steps), calls, WORK)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)), alg=step_lists(general=False))
def test_drawn_permutation_steps_match_exactly(name, alg):
    check(alg, machine_named(name))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)), alg=step_lists(general=True))
def test_drawn_general_steps_match_exactly(name, alg):
    check(alg, machine_named(name))


def _budget_zero():
    alg = QueryAlgorithm("over", (CallVerifier(),), 1)
    object.__setattr__(alg, "budget", 0)
    return alg


BAD = {
    "oracle-call": lambda: QueryAlgorithm("q", (CallOracle("M", "B"),), 1),
    "missing-oracle": lambda: QueryAlgorithm(
        "q", (CallOracle("M", "W"),), 1, (("W", 2),)
    ),
    "hidden-unitary": lambda: QueryAlgorithm("u", (Unitary(("Count",), np.eye(2)),), 0),
    "hidden-decision": lambda: QueryAlgorithm("m", (Unitary(("B",), np.eye(2)),), 0),
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


def _no_step_runs(monkeypatch):
    """Patch every kernel a step runs through to raise, so a run that
    reaches its first step fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("the run began")

    for name in ("_unitary_on_axes", "_permute_rows", "apply_step"):
        monkeypatch.setattr(adversary, name, refuse)


# a bad step of each kind that a verifier run refuses, with its error
LATE_BAD = {
    "oracle-call": (ValueError, lambda: CallOracle("M", "B")),
    "missing-oracle": (KeyError, lambda: CallOracle("M", "W")),
    "hidden-unitary": (ValueError, lambda: Unitary(("Count",), np.eye(2))),
    "hidden-decision": (ValueError, lambda: Unitary(("B",), np.eye(2))),
    "unknown-step": (TypeError, lambda: "bogus"),
    "over-budget": (RuntimeError, CallVerifier),
}
LEADS = {"unitary": lambda: Unitary(("M",), np.eye(2)), "call": CallVerifier}


@pytest.mark.parametrize("lead", sorted(LEADS))
@pytest.mark.parametrize("case", sorted(LATE_BAD))
@pytest.mark.parametrize("kind", ["random_aborting", "superposition"])
def test_a_late_bad_step_is_refused_before_the_first(monkeypatch, kind, case, lead):
    """The library route alone: a bad step after a good one raises before
    the good one runs, against either verifier kind. The over-budget
    list is forged, since a built one cannot exceed its budget."""
    error, bad = LATE_BAD[case]
    alg = QueryAlgorithm("late", (LEADS[lead](), bad()), 2, (("W", 2),))
    if case == "over-budget":
        object.__setattr__(alg, "budget", alg.invocations - 1)
    machine = build_verifier(kind, toy_table(), 1, eps=EPS4)
    _no_step_runs(monkeypatch)
    with pytest.raises(error):
        run_simulator(alg, machine)


TABLE_BAD = {
    "pad-without-verifier": (ValueError, lambda: Pad(1)),
    "call-without-verifier": (ValueError, CallVerifier),
    "query-without-table": (KeyError, lambda: CallOracle("W", "V")),
}


@pytest.mark.parametrize("case", sorted(TABLE_BAD))
def test_a_late_bad_step_is_refused_before_the_first_in_a_table_run(monkeypatch, case):
    """A run with no verifier, one start row with a table and one
    without: a bad step after a ``Unitary`` raises before the ``Unitary``
    runs."""
    error, bad = TABLE_BAD[case]
    alg = QueryAlgorithm(
        "late", (Unitary(("W",), np.eye(2)), bad()), 2, (("W", 2), ("V", 2)))
    table = ClassicalOracle((0, 1), (0, 1), (0, 1))
    _no_step_runs(monkeypatch)
    with pytest.raises(error):
        run_query_algorithm(alg, None, (table, None))


VERIFIERS = {
    "aborting": lambda: machine_named("aborting")._control_rows,
    "coherent": lambda: build_verifier("superposition", toy_table(), 1, eps=EPS4),
}


def refused_before_any_work(monkeypatch, *args):
    """The run raises ``ValueError`` naming its one start row before
    ``_visible_registers``, the run's first step, is reached."""

    def refuse(*args):
        raise AssertionError("the run began")

    with monkeypatch.context() as patch:
        patch.setattr(adversary, "_visible_registers", refuse)
        with pytest.raises(ValueError, match="one start row"):
            run_query_algorithm(*args)


@pytest.mark.parametrize("starts", [0, 2, 3])
def test_control_rows_run_from_one_start_row(monkeypatch, starts):
    """Every control assignment shares the one start row's table, and a
    coherent run is its one row. Any other number of start rows would be
    dealt out across the assignments, so either kind refuses it before a
    row is built."""
    alg = QueryAlgorithm("q", (CallOracle("W", "V"),), 1, (("W", 2), ("V", 2)))
    tables = [ClassicalOracle.constant((0, 1), (0, 1), v % 2) for v in range(starts)]
    table = ClassicalOracle((0, 1), (0, 1), (0, 1))
    for name in sorted(VERIFIERS):
        verifier = VERIFIERS[name]()
        refused_before_any_work(monkeypatch, alg, verifier, tables)
        run = run_query_algorithm(alg, verifier, (table,))
        rows = len(verifier.weights) if name == "aborting" else 1
        assert len(run) == rows
        assert run.oracles == (table,) * rows


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_a_verifier_run_reprograms_no_query(monkeypatch, name):
    """Rows split only at a measured reprogram slot, and only in a run
    with no verifier: a reprogram mapping against either kind is refused
    before a row is built, even for the one start row."""
    alg = QueryAlgorithm("q", (CallOracle("W", "V"),), 1, (("W", 2), ("V", 2)))
    table = ClassicalOracle((0, 1), (0, 1), (0, 1))
    for reprogram in ([{1: (0, 0, 1)}], [{}]):
        refused_before_any_work(monkeypatch, alg, VERIFIERS[name](), (table,), reprogram)


def test_control_rows_divide_each_distinct_weight_once(monkeypatch):
    """A table's weight depends only on its count of ones, so the 64
    toy-table tables share n + 1 = 7 weights: each is divided by |R|
    once, and the rows keep every table's share in mask order."""
    machine = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
    machine._step_perm  # built outside the count
    divided = []
    truediv = Fraction.__truediv__

    def counted(a, b):
        divided.append(a)
        return truediv(a, b)

    monkeypatch.setattr(Fraction, "__truediv__", counted)
    rows = machine._control_rows
    monkeypatch.undo()
    assert len(divided) <= len(machine._prefix_points) + 1 == 7
    nr = len(machine.spec.randomness)
    tables = SparseOracleDist(machine._prefix_points, machine.eps)._weighted_masks()
    shares = [w / nr for _, w in tables]
    assert len(shares) == 64
    assert list(rows.weights) == [w for _ in range(nr) for w in shares]
