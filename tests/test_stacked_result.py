"""The stacked simulation result and its one-call-per-run readers against
the flat branch lists and per-branch readers of ``result_reference``.

Every comparison is exact: Fractions equal and still Fractions, floats
equal by ``float.hex``, amplitudes and reduced states by
``np.array_equal``, and branches in the same order."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import adversary
from qromlab.adversary import (
    CallVerifier,
    ExpectedAlgorithm,
    Measure,
    QueryAlgorithm,
    StrictRun,
    Unitary,
    build_verifier,
    cont_density,
    expected_wrappers,
    honest_wrapper,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_simulator,
)
from qromlab.pipeline import build_protocol, default_config, eps_star
from qromlab.protocol import toy_table
from qromlab.qsim import RegisterLayout
from qromlab.transforms import truncate
import result_reference as ref
from executor_reference import (
    RunBranch,
    assert_same_value,
    result_branches,
    result_of,
    run_branches,
)
from prover_reference import give_up

CFG = default_config("expected-time")
SPEC = build_protocol(CFG)
KINDS = ("random_aborting", "superposition")
DENSITIES = [Fraction(1, 4), Fraction(1, 3), Fraction(3, 4), Fraction(1),
             eps_star(2, 8), eps_star(2, 16)]
BUDGETS = range(12)


def assert_same_result(got, want_branches):
    """One stacked result against the reference's branch list."""
    got_branches = result_branches(got)
    assert len(got_branches) == len(want_branches)
    for a, b in zip(got_branches, want_branches):
        assert_same_value(a.weight, b.weight)
        assert a.state.layout == b.state.layout
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
        assert (a.oracles, a.outcomes) == (b.oracles, b.outcomes)
        assert (a.invocations, a.counts) == (b.invocations, b.counts)
    assert_same_value(pr_register(got), ref.pr_register(want_branches))
    for q in BUDGETS:
        assert_same_value(pr_budget(got, q), ref.pr_budget(want_branches, q))
        assert_same_value(pr_joint_budget(got, q), ref.pr_joint_budget(want_branches, q))
    if got.kind == "superposition":
        den, rho = cont_density(got)
        want_den, want_rho = ref.cont_density(want_branches)
        assert_same_value(den, want_den)
        assert (rho is None) == (want_rho is None)
        if rho is not None:
            assert np.array_equal(rho.matrix, want_rho.matrix)


def check(sim, machine):
    got = run_simulator(sim, machine)
    assert_same_result(got, ref.run_simulator(sim, machine))
    return got


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("eps", DENSITIES, ids=str)
@pytest.mark.parametrize("x", CFG.yes_instances + CFG.no_instances)
def test_expected_time_statements(x, eps, kind):
    machine = build_verifier(kind, SPEC, x, eps=eps)
    w = SPEC.witness_map(x)[0]
    members = expected_wrappers(machine, w, CFG.q)
    sims = [honest_wrapper(machine, w), give_up(machine), *members]
    sims += [truncate(s, CFG.q) for s in members]
    for sim in sims:
        got = check(sim, machine)
        strict = sim.branches if isinstance(sim, ExpectedAlgorithm) else ((1, sim),)
        assert [run.weight for run in got.runs] == [w for w, _ in strict]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_float_rows_add_in_row_order(kind, seed):
    """Measurements between the calls leave many float-weight rows with B
    split between 0 and 1, so the sum depends on the order of its terms."""
    u = [Unitary(("M",), _unitary(2, 10 * seed + i)) for i in range(3)]
    alg = QueryAlgorithm(
        "measured-calls",
        (u[0], Measure("M"), CallVerifier(), u[1], Measure("M"), CallVerifier(), u[2],
         Measure("M")),
        2,
    )
    pad = QueryAlgorithm("padded", (CallVerifier(), CallVerifier(inverse=True)) + alg.steps, 4)
    mixed = ExpectedAlgorithm("mixed", ((Fraction(2, 3), alg), (Fraction(1, 3), pad)), 8)
    machine = machine_of(kind, Fraction(1, 3))
    for sim in (alg, mixed):
        got = check(sim, machine)
        assert any(isinstance(br.weight, float) for br in result_branches(got))


def test_from_branches_round_trips():
    """The readers give the same values when each row is a run of its own."""
    machine = build_verifier("superposition", SPEC, 1, eps=Fraction(1, 4))
    sim = expected_wrappers(machine, SPEC.witness_map(1)[0], CFG.q)[-1]
    got = run_simulator(sim, machine)
    rows = result_branches(got)
    back = result_of(got.kind, rows)
    assert len(back.runs) == len(rows)
    assert_same_result(back, rows)


LAYOUT = RegisterLayout((("B", 2), ("W", 3)))


def _row_run(amps):
    n = len(amps)
    return StrictRun(1, (Fraction(1, n),) * n, LAYOUT, amps, ((),) * n, ((),) * n, 0, ())


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.5, 1 + 1e-6, float("nan"), 0.0])
def test_a_row_off_the_unit_sphere_is_refused(row, bad):
    amps = np.zeros((3, 6), dtype=complex)
    amps[:, 0] = 1.0
    amps[row, 0] = np.sqrt(bad)
    with pytest.raises(ValueError, match=f"not normalized.*row {row}"):
        _row_run(amps)


def test_rows_within_the_tolerance_pass_and_freeze():
    amps = np.zeros((3, 6), dtype=complex)
    amps[:, 0] = 1.0
    amps[1, 0] = np.sqrt(1 + 5e-9)
    run = _row_run(amps)
    assert not run.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="row amplitudes"):
        _row_run(amps[:, :5])
    assert len(run) == 3
    assert isinstance(run_branches(run)[0], RunBranch)


@pytest.mark.parametrize("kind", KINDS)
def test_a_non_normalised_row_reaching_the_result_is_refused(monkeypatch, kind):
    """A row the executor leaves off the unit sphere stops the run."""
    real = adversary._unitary_on_axes

    def leaky(t, layout, registers, u):
        out = real(t, layout, registers, u)
        out[-1] *= 1.001
        return out

    monkeypatch.setattr(adversary, "_unitary_on_axes", leaky)
    machine = build_verifier(kind, SPEC, 1, eps=Fraction(1, 4))
    alg = QueryAlgorithm("tilt", (Unitary(("M",), np.eye(2)),), 0)
    rows = len(machine._control_rows.weights) if kind == "random_aborting" else 1
    with pytest.raises(ValueError, match=f"not normalized.*row {rows - 1}"):
        run_simulator(alg, machine)


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


WORK = (("W1", 2), ("W2", 3))
DIMS = dict(WORK, M=2)
MACHINES = {}


def machine_of(kind, eps):
    if (kind, eps) not in MACHINES:
        MACHINES[kind, eps] = build_verifier(kind, toy_table(), 1, eps=eps)
    return MACHINES[kind, eps]


@st.composite
def step_lists(draw):
    """A strict list over M and two work registers: general unitaries on
    one or two of them, verifier calls both ways, and measurements of any
    of them, so row weights turn to floats after a split."""
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            regs = tuple(draw(st.lists(st.sampled_from(sorted(DIMS)), min_size=1,
                                       max_size=2, unique=True)))
            d = int(np.prod([DIMS[r] for r in regs]))
            steps.append(Unitary(regs, _unitary(d, draw(st.integers(0, 2**16)))))
        elif pick in (1, 2):
            steps.append(CallVerifier(inverse=pick == 2))
        else:
            steps.append(Measure(draw(st.sampled_from(sorted(DIMS)))))
    calls = sum(isinstance(s, CallVerifier) for s in steps)
    return QueryAlgorithm("drawn", tuple(steps), calls, WORK)


@st.composite
def expected_sims(draw):
    """One to three drawn strict lists mixed with drawn rational weights."""
    algs = draw(st.lists(step_lists(), min_size=1, max_size=3))
    parts = draw(st.lists(st.integers(1, 5), min_size=len(algs), max_size=len(algs)))
    weights = [Fraction(p, sum(parts)) for p in parts]
    budget = 2 * max(alg.invocations for alg in algs)
    return ExpectedAlgorithm("drawn-mix", tuple(zip(weights, algs)), budget)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    eps=st.sampled_from([Fraction(1, 4), Fraction(1, 3)]),
    sim=st.one_of(step_lists(), expected_sims()),
)
def test_drawn_simulators_with_measurements(kind, eps, sim):
    check(sim, machine_of(kind, eps))
