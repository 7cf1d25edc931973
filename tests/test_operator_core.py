"""qsim's operator core against the dense routes it replaced, and the
check-once rule for unitaries.

The oracle query and the SWAP test's controlled swap move amplitudes by
one index-vector kernel, ``qsim._permute_rows``; ``measure_register`` is
the one-row case of the batched split ``qsim._split_rows``. Each must be
bit-identical to its dense route in ``permutation_reference``, and the
kernel to the along-axis route it replaced there. A query's axes are
built once per layout object and query registers, and a run still
answers every row's query with one ``quantum_query`` call. The
unitary kernel ``qsim._unitary_on_axes`` is one stacked matmul over rows,
and must give every row exactly what a one-row ``np.tensordot`` gives it.
A ``Unitary`` step is checked when it is built, so the executors never
check it again.
"""

import contextlib
import io
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import permutation_reference as ref
from executor_reference import unitary_on_axes
from qromlab import adversary, cli, hashfam, qsim
from qromlab.adversary import (
    CallOracle,
    Unitary,
    _table_masses,
    build_verifier,
    expected_wrappers,
    honest_wrapper,
    oracle_zoo,
    run_query_algorithm,
    run_simulator,
)
from qromlab.oracle import ClassicalOracle, prefix_domain, quantum_query
from qromlab.protocol import toy_table
from qromlab.qsim import (
    PROB_FLOOR,
    DensityOnRegister,
    RegisterLayout,
    StateVector,
    measure_register,
    swap_test_circuit,
)


def random_state(layout: RegisterLayout, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, v / np.linalg.norm(v))


@st.composite
def query_cases(draw):
    """(state, table): the query registers Q and A, at least as large as
    the domain and the range, in any order among up to two extra ones."""
    n_dom = draw(st.integers(1, 4))
    n_rng = draw(st.integers(2, 4))
    regs = [("Q", n_dom + draw(st.integers(0, 2))), ("A", n_rng + draw(st.integers(0, 2)))]
    extra = draw(st.lists(st.integers(1, 3), max_size=2))
    regs += [(f"X{i}", d) for i, d in enumerate(extra)]
    layout = RegisterLayout(tuple(draw(st.permutations(regs))))
    rng_values = tuple(draw(st.permutations(range(n_rng))))
    values = draw(st.lists(st.sampled_from(rng_values), min_size=n_dom, max_size=n_dom))
    table = ClassicalOracle(tuple("abcd"[:n_dom]), rng_values, tuple(values))
    return random_state(layout, draw(st.integers(0, 2**32 - 1))), table


@settings(max_examples=150, deadline=None)
@given(case=query_cases(), swap=st.booleans())
def test_query_matches_the_dense_matrix(case, swap):
    state, table = case
    regs = ("A", "Q") if swap else ("Q", "A")
    assume(len(table.domain) <= state.layout.dim_of(regs[0]))
    assume(len(table.range_values) <= state.layout.dim_of(regs[1]))
    got = quantum_query(state, table, *regs)
    want = ref.quantum_query(state, table, *regs)
    assert np.array_equal(got.amplitudes, want.amplitudes)


def test_query_refuses_one_register_for_both_roles():
    state = StateVector.basis(RegisterLayout((("Q", 2),)))
    with pytest.raises(ValueError, match="repeated target register"):
        quantum_query(state, ClassicalOracle.constant((0, 1), (0, 1)), "Q", "Q")


class LoggedAxes(dict):
    """A layout's query axes that log the key of every entry they store."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def counted_queries(monkeypatch) -> list:
    """Log every query the executor makes, by the rows' state layout."""
    calls = []
    real = adversary.quantum_query

    def counted(state, *args):
        calls.append(state.layout)
        return real(state, *args)

    monkeypatch.setattr(adversary, "quantum_query", counted)
    return calls


@pytest.mark.parametrize("name", [a.name for a in oracle_zoo(prefix_domain((0, 1), 2))])
def test_query_axes_are_built_once_per_layout_object(monkeypatch, name):
    """64 tables as the start rows of one ``_table_masses`` run: one query
    call per row and query step, all on the algorithm's one layout, whose
    axes are built once per query register pair. An equal layout built
    anew builds its own."""
    dom = prefix_domain((0, 1), 2)
    alg = {a.name: a for a in oracle_zoo(dom)}[name]
    lay = alg._work_start.layout
    built = lay.__dict__["_query_axes"] = LoggedAxes()
    calls = counted_queries(monkeypatch)
    tables = [ClassicalOracle(dom, (0, 1), bits)
              for bits in itertools.product((0, 1), repeat=len(dom))]
    masses = _table_masses(alg, tables, alg.output_registers, lambda digits: True)
    assert len(masses) == 64
    queries = [s for s in alg.steps if isinstance(s, CallOracle)]
    assert len(calls) == 64 * len(queries)
    assert all(layout is lay for layout in calls)
    pairs = {(s.in_register, s.out_register) for s in queries}
    assert len(built.stored) == len(set(built.stored)) == len(pairs)
    if queries:
        twin = RegisterLayout(lay.registers)
        assert twin == lay and twin is not lay
        quantum_query(StateVector.basis(twin), tables[1], *pairs.pop())
        assert len(built.stored) == len(pairs) + 1
        (key,) = twin._query_axes
        assert all(a is not b for a, b in zip(twin._query_axes[key], built[key]))


def test_a_demo_pass_makes_its_372_queries(monkeypatch):
    """Every lemma demo at seed 1, as one pass of the ``lemma-sweep``
    workload runs them: the executor still answers each row's query with
    its own ``quantum_query`` call."""
    calls = counted_queries(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["verify-lemma", n, "--seed", "1"]) for n in sorted(cli.LEMMAS)]
    assert codes == [0] * len(cli.LEMMAS)
    assert len(calls) == 372


@st.composite
def permutation_cases(draw):
    """(rows, perms): 1-5 rows of 1-3 work columns over dimension 1-12,
    moved by one permutation or one per row; the rows may be a strided
    view."""
    n, work, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    count = draw(st.sampled_from([1, n]))
    perms = np.array([draw(st.permutations(range(dim))) for _ in range(count)], dtype=np.intp)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, work, dim)) + 1j * rng.normal(size=(n, work, dim))
    if draw(st.booleans()):  # the same rows as a strided view
        rows = np.repeat(rows, 2, axis=2)[..., ::2]
    return rows, perms


@settings(max_examples=200, deadline=None)
@given(case=permutation_cases(), inverse=st.booleans())
def test_permutation_kernel_matches_the_along_axis_route(case, inverse):
    rows, perms = case
    got = qsim._permute_rows(rows, perms, inverse)
    assert np.array_equal(got, ref.permute_rows(rows, perms, inverse))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_controlled_swap_matches_the_dense_matrix(dim, monkeypatch):
    # every amplitude array the SWAP circuit permutes, against the
    # dense controlled swap on the same input
    layout = RegisterLayout((("anc", 2), ("a", dim), ("b", dim)))
    kernel = qsim._permute_rows
    seen = []

    def spy(rows, perms, inverse):
        out = kernel(rows, perms, inverse)
        seen.append((rows.reshape(-1), out.reshape(-1)))
        return out

    monkeypatch.setattr(qsim, "_permute_rows", spy)
    rng = np.random.default_rng(dim)
    mats = []
    for _ in range(2):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        mats.append(DensityOnRegister("r", rho / np.trace(rho).real))
    swap_test_circuit(*mats)
    assert seen
    for before, after in seen:
        dense = qsim.apply_unitary(
            StateVector(layout, before), ["anc", "a", "b"], ref.cswap_matrix(dim)
        )
        assert np.array_equal(after, dense.amplitudes)


@st.composite
def measured_states(draw):
    """A random state with one outcome of one register pushed below
    ``PROB_FLOOR`` (or to exactly zero)."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    layout = RegisterLayout(tuple((f"R{i}", d) for i, d in enumerate(dims)))
    amps = random_state(layout, draw(st.integers(0, 2**32 - 1))).tensor().copy()
    axis = draw(st.integers(0, len(dims) - 1))
    sl = [slice(None)] * len(dims)
    if dims[::-1][axis] > 1:  # a lone outcome keeps its weight
        sl[axis] = draw(st.integers(0, dims[::-1][axis] - 1))
        amps[tuple(sl)] *= draw(st.sampled_from([1.0, 1e-8, 1e-7, 0.0]))
    v = amps.reshape(-1)
    return StateVector(layout, v / np.linalg.norm(v))


@settings(max_examples=150, deadline=None)
@given(state=measured_states())
def test_measurement_matches_the_slicing_route(state):
    for name in state.layout.names:
        got = measure_register(state, name)
        want = ref.measure_register(state, name)
        assert [(o, p) for o, _, p in got] == [(o, p) for o, _, p in want]
        for (_, a, _), (_, b, _) in zip(got, want):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert all(p > PROB_FLOOR for _, _, p in got)


def _haar(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


KERNEL_LAYOUT = RegisterLayout((("Q", 6), ("A", 2), ("W", 8)))


@pytest.mark.parametrize("rows", [1, 4, 64])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_unitary_kernel_rows_are_independent(width, rows):
    """Haar unitaries on every ordered choice of ``width`` registers: each
    row of the stacked product equals the per-row ``np.tensordot``, bit
    for bit. The identity depends on the BLAS build, so a BLAS that breaks
    it fails here instead of moving a report."""
    lay = KERNEL_LAYOUT
    rng = np.random.default_rng(100 * width + rows)
    shape = (rows,) + lay.dims[::-1]
    for regs in itertools.permutations(lay.names, width):
        u = _haar(int(np.prod([lay.dim_of(r) for r in regs])), rng)
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = qsim._unitary_on_axes(t, lay, regs, u)
        for i in range(rows):
            assert np.array_equal(got[i], unitary_on_axes(t[i], lay, regs, u))


@pytest.mark.parametrize(
    "matrix", [np.ones((2, 2)), np.eye(3)[:2]], ids=["not-unitary", "not-square"]
)
def test_unitary_steps_are_checked_at_construction(matrix):
    with pytest.raises(ValueError, match="not unitary|not square"):
        Unitary(("M",), matrix)


def test_executors_never_check_a_built_step_again(monkeypatch):
    spec = toy_table()
    witness = spec.witness_map(1)[0]
    machines = [
        build_verifier(kind, spec, 1, eps=Fraction(1, 4))
        for kind in ("random_aborting", "superposition")
    ]
    sims = [
        (m, [honest_wrapper(m, witness), *expected_wrappers(m, witness, 8)])
        for m in machines
    ]
    zoo = oracle_zoo((0, 1, 2))
    table = ClassicalOracle((0, 1, 2), (0, 1), (0, 1, 1))
    for m in machines:
        m._adjusters  # the coherent kind's rotations are built, and checked, here

    def refuse(u):
        raise AssertionError("an executor re-checked a built operator")

    for module in (qsim, adversary, hashfam):
        monkeypatch.setattr(module, "_check_unitary", refuse, raising=False)
    for alg in zoo:
        assert run_query_algorithm(alg, oracles=(table,))
    for machine, members in sims:
        for sim in members:
            assert run_simulator(sim, machine)
