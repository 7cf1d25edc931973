"""The stacked simulation result and its one-call-per-run readers against
the flat branch lists and per-branch readers of ``result_reference``.

Every comparison is exact: Fractions equal and still Fractions, floats
equal by ``float.hex``, amplitudes and reduced states by
``np.array_equal``, and branches in the same order."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import adversary
from qromlab.adversary import (
    EXPECTED_MEMBERS,
    CallVerifier,
    ExpectedAlgorithm,
    Pad,
    QueryAlgorithm,
    StrictRun,
    Unitary,
    build_verifier,
    cont_density,
    expected_wrapper,
    expected_wrappers,
    honest_wrapper,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_simulator,
)
from qromlab.pipeline import build_protocol, default_config, eps_star
from qromlab.protocol import ConfigError, toy_guess, toy_table
from qromlab.qsim import RegisterLayout
from qromlab.transforms import truncate
import result_reference as ref
from executor_reference import (
    Measure,
    RunBranch,
    assert_same_value,
    deferred,
    result_branches,
    result_of,
    run_branches,
    without_pads,
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
        assert a.invocations == b.invocations
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
    """The library's run of sim against the reference's, each ``Measure``
    of sim deferred onto a copy register on both sides."""
    sim = deferred(sim, machine)
    got = run_simulator(sim, machine)
    assert_same_result(got, ref.run_simulator(sim, machine))
    return got


def step_key(step):
    """A step by value; a ``Unitary`` by its registers and matrix bytes."""
    return (step.registers, step.matrix.tobytes()) if isinstance(step, Unitary) else step


def sim_key(sim):
    strict = sim.branches if isinstance(sim, ExpectedAlgorithm) else ((1, sim),)
    return tuple((w, alg.work_registers, tuple(map(step_key, alg.steps)))
                 for w, alg in strict)


def members_up_to_40(machine, witness):
    """Every member at every budget q up to 40 that admits it, and its
    truncation at q, each once by value."""
    seen = set()
    for q in range(41):
        for name in EXPECTED_MEMBERS:
            try:
                member = expected_wrapper(name, machine, witness, q)
            except ConfigError:
                continue
            for sim in (member, truncate(member, q)):
                if sim_key(sim) not in seen:
                    seen.add(sim_key(sim))
                    yield sim


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("eps", DENSITIES, ids=str)
@pytest.mark.parametrize("x", CFG.yes_instances + CFG.no_instances)
def test_expected_time_statements(x, eps, kind):
    """The differential test of the expected members: every member and
    its truncation at every budget up to 40, each run equal to the
    reference, which applies each ``Pad`` pair by pair."""
    machine = build_verifier(kind, SPEC, x, eps=eps)
    w = SPEC.witness_map(x)[0]
    sims = [honest_wrapper(machine, w), give_up(machine), *members_up_to_40(machine, w)]
    for sim in sims:
        got = check(sim, machine)
        strict = sim.branches if isinstance(sim, ExpectedAlgorithm) else ((1, sim),)
        assert [run.weight for run in got.runs] == [w for w, _ in strict]
    assert len(sims) > 20  # lazy pads 0 to 18 pairs


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_float_rows_add_in_row_order(kind, seed):
    """Deferred measurements between the calls leave B split between 0
    and 1 in many rows, so their terms are floats and the sum over the
    aborting kind's rows depends on the order of its terms."""
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
        assert isinstance(pr_register(got), float)


def run_counting_calls(sim, machine):
    """The result of sim vs machine, and how many verifier calls the
    executor applied: each is one ``_permute_rows``, on the rows of the
    aborting kind or inside ``apply_step`` for the coherent kind."""
    calls = []
    real = adversary._permute_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "_permute_rows", counted)
        got = run_simulator(sim, machine)
    return got, len(calls)


def check_applied(sim, machine, applied):
    sim = deferred(sim, machine)
    got, calls = run_counting_calls(sim, machine)
    assert_same_result(got, ref.run_simulator(sim, machine))
    assert calls == applied
    return got


PAIR = (CallVerifier(), CallVerifier(inverse=True))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("q, applied", [(13, 4), (14, 2), (21, 3)])
def test_a_cut_inside_the_pads_applies_what_is_left(kind, q, applied):
    """Pads of 6 and 12 pairs ahead of the honest steps, cut at q.

    At q 13 the 12-pair list keeps ``Pad(6)`` and one forward call, which
    is applied (1), the 6-pair list keeps its pad and U, CV, U (1), and
    the honest list makes its 2. At q 14 the long list keeps ``Pad(7)``
    and nothing else (0), and the 6-pair list is not cut, so it shares
    the honest run (2). At q 21 the long list again ends on one forward
    call after ``Pad(10)`` (1), next to the shared honest run (2)."""
    machine = machine_of(kind, Fraction(1, 3))
    base = honest_wrapper(machine, toy_table().witness_map(1)[0])
    mid = QueryAlgorithm("mid", (Pad(6),) + base.steps, 14)
    long = QueryAlgorithm("long", (Pad(12),) + base.steps, 26)
    mix = ExpectedAlgorithm(
        "pads", ((Fraction(3, 4), base), (Fraction(1, 8), mid), (Fraction(1, 8), long)), 40)
    cut = truncate(mix, q)
    assert cut.branches[2][1].steps == (Pad(q // 2),) + (CallVerifier(),) * (q % 2)
    assert cut.branches[2][1].invocations == q
    check_applied(cut, machine, applied)


@pytest.mark.parametrize("kind", KINDS)
def test_a_pair_after_another_step_is_applied(kind):
    """Explicit forward/inverse pairs are ordinary calls, applied wherever
    they stand, leading the list or not. A ``Pad`` is billed wherever it
    stands and applies nothing."""
    machine = machine_of(kind, Fraction(1, 4))
    u = Unitary(("M",), _unitary(2, 5))
    for lead in (u, Measure("M")):
        alg = QueryAlgorithm("late-pairs", (lead,) + PAIR * 2 + (CallVerifier(),), 5)
        check_applied(alg, machine, 5)
        alg = QueryAlgorithm("both", PAIR * 3 + (lead,) + PAIR + (CallVerifier(),), 9)
        check_applied(alg, machine, 9)
        alg = QueryAlgorithm("late-pad", (lead, Pad(2), CallVerifier()), 5)
        got = check_applied(alg, machine, 1)
        assert {run.invocations for run in got.runs} == {5}


@pytest.mark.parametrize("eps", DENSITIES, ids=str)
def test_one_round_coherent_pads_are_applied(eps):
    """At k = 1 a forward call leaves Count at 0, so the adjuster and its
    adjoint rotate the live block and round off: explicit pairs are
    applied call by call. A ``Pad`` moves no row, so expected-geometric's
    5 lists share one run of the honest steps, and every padded branch's
    rows equal the honest branch's rows exactly; the reference, which
    applies each pad pair by pair, is then matched by the list without
    its pads."""
    spec = toy_guess()
    machine = build_verifier("superposition", spec, 1, eps=eps)
    w = spec.witness_map(1)[0]
    honest = honest_wrapper(machine, w)
    check_applied(QueryAlgorithm("pairs", PAIR * 2 + honest.steps, 5), machine, 5)
    geometric = expected_wrapper("expected-geometric", machine, w, 40)
    got, calls = check_rows_without_pads(geometric, machine)
    assert calls == 1
    want = run_simulator(honest, machine).runs[0]
    for run in got.runs:
        assert np.array_equal(run.amplitudes, want.amplitudes)
        assert run.weights == want.weights
    for sim in members_up_to_40(machine, w):
        check_rows_without_pads(sim, machine)


def check_rows_without_pads(sim, machine):
    """Each strict branch's run against the reference run of its list
    without its pads, billed as the list itself is. Returns the result
    and how many verifier calls the executor applied."""
    got, calls = run_counting_calls(sim, machine)
    strict = sim.branches if isinstance(sim, ExpectedAlgorithm) else ((1, sim),)
    assert len(got.runs) == len(strict)
    for run, (w, alg) in zip(got.runs, strict):
        want = ref.run_simulator(without_pads(alg), machine)
        rows = run_branches(replace(run, weight=1))
        assert len(rows) == len(want)
        for a, b in zip(rows, want):
            assert_same_value(a.weight, b.weight)
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
            assert (a.oracles, a.outcomes) == (b.oracles, b.outcomes)
        assert run.weight == w
        assert run.invocations == alg.invocations
    return got, calls


@pytest.mark.parametrize("kind", KINDS)
def test_shared_steps_in_other_work_registers_are_not_shared(kind):
    """Lists of the same step objects share a run only over the same work
    registers: ``plain`` and ``again`` share one, ``wide`` has its own."""
    machine = machine_of(kind, Fraction(1, 3))
    steps = (Unitary(("M",), _unitary(2, 7)), CallVerifier(), Measure("M"))
    plain = QueryAlgorithm("plain", steps, 1)
    wide = QueryAlgorithm("wide", steps, 1, (("W1", 2),))
    again = QueryAlgorithm("again", steps, 3)
    mix = ExpectedAlgorithm(
        "mix", ((Fraction(1, 2), plain), (Fraction(1, 4), wide), (Fraction(1, 4), again)), 2)
    got = check_applied(mix, machine, 2)
    first, other, shared = got.runs
    assert shared.amplitudes is first.amplitudes
    assert other.layout != first.layout


def test_expected_geometric_runs_each_distinct_list_once(monkeypatch):
    """The stock member's 5 lists pad 0-4 pairs ahead of the same honest
    steps: one run against the coherent kind. Cut at q 8, the 4-pair list
    keeps its pads and one Unitary: two runs against the aborting kind."""
    runs = []
    real = adversary.run_query_algorithm

    def counted(alg, *args, **kwargs):
        runs.append(alg.name)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(adversary, "run_query_algorithm", counted)
    w = SPEC.witness_map(1)[0]
    for kind, sim, want in (
        ("superposition", lambda s: s, ["honest-padded-0"]),
        ("random_aborting", lambda s: truncate(s, CFG.q),
         ["honest-padded-0", "honest-padded-4-cut8"]),
    ):
        runs.clear()
        machine = build_verifier(kind, SPEC, 1, eps=CFG.eps)
        member = sim(expected_wrapper("expected-geometric", machine, w, CFG.q))
        got = run_simulator(member, machine)
        assert runs == want
        assert [run.invocations for run in got.runs] == [
            alg.invocations for _, alg in member.branches]


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
    return StrictRun(1, (Fraction(1, n),) * n, LAYOUT, amps, (None,) * n, ((),) * n, 0)


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.5, 1 + 1e-6, float("nan"), 0.0])
def test_a_row_off_the_unit_sphere_is_refused(row, bad):
    amps = np.zeros((3, 6), dtype=complex)
    amps[:, 0] = 1.0
    amps[row, 0] = np.sqrt(bad)
    with pytest.raises(ValueError, match=f"not normalized.*row {row}"):
        _row_run(amps)


@pytest.mark.parametrize("field", ["oracles", "outcomes"])
def test_a_row_without_its_table_or_outcomes_is_refused(field):
    """A run holds one table, or None, and one outcome tuple per row."""
    amps = np.zeros((3, 6), dtype=complex)
    amps[:, 0] = 1.0
    run = _row_run(amps)
    for cut in (getattr(run, field)[:2], getattr(run, field) * 2):
        with pytest.raises(ValueError, match="one table and one outcome tuple per row"):
            replace(run, **{field: cut})


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


# each deferred measurement adds a copy register: at most 3 keep the
# state within 27 times its size
MAX_MEASURES = 3


def _drawn_unitary(draw):
    """A general unitary on one or two of M and the work registers."""
    regs = tuple(draw(st.lists(st.sampled_from(sorted(DIMS)), min_size=1,
                               max_size=2, unique=True)))
    d = int(np.prod([DIMS[r] for r in regs]))
    return Unitary(regs, _unitary(d, draw(st.integers(0, 2**16))))


@st.composite
def step_lists(draw):
    """A strict list over M and two work registers: general unitaries on
    one or two of them, verifier calls both ways, and up to
    ``MAX_MEASURES`` measurements of any of them."""
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        measures = sum(isinstance(s, Measure) for s in steps)
        pick = draw(st.integers(0, 3 if measures < MAX_MEASURES else 2))
        if pick == 0:
            steps.append(_drawn_unitary(draw))
        elif pick in (1, 2):
            steps.append(CallVerifier(inverse=pick == 2))
        else:
            steps.append(Measure(draw(st.sampled_from(sorted(DIMS)))))
    calls = sum(isinstance(s, CallVerifier) for s in steps)
    return QueryAlgorithm("drawn", tuple(steps), calls, WORK)


@st.composite
def measured_rounds(draw):
    """One to ``MAX_MEASURES`` rounds, each a unitary, a measurement of
    any register, a second unitary and a verifier call, mostly forward:
    a measurement between two unitaries on its register changes what
    the next call sees."""
    steps = []
    for _ in range(draw(st.integers(1, MAX_MEASURES))):
        steps += [_drawn_unitary(draw), Measure(draw(st.sampled_from(sorted(DIMS)))),
                  _drawn_unitary(draw), CallVerifier(inverse=draw(st.integers(0, 3)) == 0)]
    return QueryAlgorithm("rounds", tuple(steps), len(steps) // 4, WORK)


@st.composite
def expected_sims(draw, lists=step_lists()):
    """One to three drawn strict lists mixed with drawn rational weights."""
    algs = draw(st.lists(lists, min_size=1, max_size=3))
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


def assert_close(got, want):
    assert abs(float(got) - float(want)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    eps=st.sampled_from([Fraction(1, 4), Fraction(1, 3)]),
    sim=st.one_of(step_lists(), measured_rounds(), expected_sims(measured_rounds())),
)
def test_deferred_measurement_matches_the_measured_reference(kind, eps, sim):
    """Deferred measurement: the reference measures each ``Measure(R)``,
    splitting its branches, and the library copies R onto a fresh work
    register instead. B's probabilities within every budget and the
    conditional Cont state agree within 1e-12."""
    machine = machine_of(kind, eps)
    got = run_simulator(deferred(sim, machine), machine)
    want = ref.run_simulator(sim, machine)
    assert_close(pr_register(got), ref.pr_register(want))
    for q in BUDGETS:
        assert_close(pr_joint_budget(got, q), ref.pr_joint_budget(want, q))
    if kind == "superposition":
        (den, rho), (want_den, want_rho) = cont_density(got), ref.cont_density(want)
        assert_close(den, want_den)
        assert (rho is None) == (want_rho is None)
        if rho is not None:
            assert np.abs(rho.matrix - want_rho.matrix).max() <= 1e-12
