"""The row executor against the per-branch executor it replaced
(``executor_reference``), branch by branch and exactly.

A plain run, a run against a machine and a measure-and-reprogram run
are each one row of ``adversary.run_query_algorithm``, returned as one
``StrictRun`` and read back one branch per row; a list of schedules is
one start row each, and reads back as each schedule's run in turn.
Amplitudes must match with ``np.array_equal``, weights with ``==`` and
the same type, and outcomes, call counts and tables exactly. On every plain
and scheduled run, the run's row reader and ``output_distribution`` must
equal the per-branch reduction: the same rows and keys in the same
order, Fractions equal and still Fractions, floats equal by
``float.hex``. So must the row reader equal the per-term loop it
replaced (``executor_reference.row_outputs``) on every run the table
masses of the zoo and the measure-and-reprogram demos read.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import executor_reference as ref
from conftest import accept_all_zero
from executor_reference import assert_same_branches, assert_same_value
from qromlab import adversary, cli, transforms
from qromlab.adversary import (
    CallOracle,
    _row_outputs,
    build_verifier,
    expected_wrappers,
    honest_wrapper,
    oracle_zoo,
    ordered_zoo,
    output_distribution,
    run_query_algorithm,
)
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.protocol import toy_guess, toy_table
from qromlab.transforms import apply_schedules, enumerate_schedules, truncate

DOM6 = prefix_domain((0, 1), 2)
DOMAINS = {"dom2": (0, 1), "dom3": (0, 1, 2), "dom6": DOM6}
ZOOS = {name: oracle_zoo(dom) for name, dom in DOMAINS.items()}
ZOOS["ordered"] = ordered_zoo((0, 1))
DOMAINS["ordered"] = DOM6


def tables(domain):
    """Every binary table on the domain."""
    for vals in itertools.product((0, 1), repeat=len(domain)):
        yield ClassicalOracle(tuple(domain), (0, 1), vals)


def register_sets(alg):
    """The output registers both ways round, each work register, and all
    work registers together."""
    work = tuple(nm for nm, _ in alg.work_registers)
    out = tuple(alg.output_registers)
    sets = [out, out[::-1], *((nm,) for nm in work), work]
    return list(dict.fromkeys(sets))


def assert_same_outputs(run, want, registers):
    """The run's row reader and ``output_distribution`` on ``registers``
    against the per-branch reduction of ``want``."""
    rows = list(_row_outputs(run, registers))
    want_rows = [
        (i, key, w)
        for i, br in enumerate(want)
        for key, w in ref.output_distribution([br], registers).items()
    ]
    assert [r[:2] for r in rows] == [r[:2] for r in want_rows]
    for (_, _, w), (_, _, v) in zip(rows, want_rows):
        assert_same_value(w, v)
    dist = output_distribution(run, registers)
    want_dist = ref.output_distribution(want, registers)
    assert list(dist) == list(want_dist)
    for key, w in dist.items():
        assert_same_value(w, want_dist[key])


def assert_same_run(got, want, alg):
    assert len(got) == len(want)
    assert_same_branches(ref.run_branches(got), want)
    for registers in register_sets(alg):
        assert_same_outputs(got, want, registers)


@pytest.mark.parametrize("zoo", sorted(ZOOS))
def test_plain_runs_on_every_table(zoo):
    for alg in ZOOS[zoo]:
        for table in tables(DOMAINS[zoo]):
            got = run_query_algorithm(alg, oracles=(table,))
            want = ref.run_query_algorithm(alg, oracles={ref.TABLE: table})
            assert_same_run(got, want, alg)


def _queries(alg):
    return sum(isinstance(s, CallOracle) for s in alg.steps)


def _schedule_lists(scheds):
    """Each schedule alone, the list cut into runs of three (the slices a
    cap of three start rows cuts), and the whole list forward and
    reversed: lists whose rows are measured and left alone at the same
    query, under both timings."""
    lists = [(s,) for s in scheds]
    lists += [scheds[lo:lo + 3] for lo in range(0, len(scheds), 3)]
    lists += [scheds, scheds[::-1]]
    return list(dict.fromkeys(map(tuple, lists)))


def _scheduled(zoo, table_list):
    for alg in ZOOS[zoo]:
        q = _queries(alg)
        for k in (1, 2):
            for scheds in _schedule_lists(enumerate_schedules(k, q)):
                for y in itertools.product((0, 1), repeat=k):
                    for table in table_list:
                        yield alg, table, scheds, y


@pytest.mark.parametrize("zoo", sorted(ZOOS))
def test_every_schedule_at_k_one_and_two(zoo):
    """The schedule lists of ``_schedule_lists`` at k = 1 and 2, under
    every y, each as one run of ``apply_schedules``: its rows are the
    per-branch runs of each schedule alone, concatenated in list order.
    Every table on the 2-point domain; the all-zero table and one mixed
    table elsewhere."""
    dom = DOMAINS[zoo]
    if zoo == "dom2":
        table_list = list(tables(dom))
    else:
        mixed = tuple(i % 2 for i in range(len(dom)))
        table_list = [
            ClassicalOracle.constant(dom, (0, 1), 0), ClassicalOracle(dom, (0, 1), mixed)
        ]
    runs = lists = 0
    for alg, table, scheds, y in _scheduled(zoo, table_list):
        got = apply_schedules(alg, table, scheds, y)
        want = [br for sched in scheds
                for br in ref.apply_schedule(alg, table, sched, y)]
        assert_same_run(got, want, alg)
        runs += 1
        lists += len(scheds) > 1
    assert runs > 0 and lists > 0


def _machine_sims(machine):
    spec, x = machine.spec, machine.x
    w = spec.witness_map(x)[0]
    members = expected_wrappers(machine, w, 8)
    strict = [honest_wrapper(machine, w)]
    for member in members + tuple(truncate(m, 8) for m in members):
        strict += [alg for _, alg in member.branches]
    return strict


@pytest.mark.parametrize("kind", ["random_aborting", "superposition"])
@pytest.mark.parametrize("spec", [toy_table(), toy_guess()], ids=lambda s: s.name)
def test_machine_runs(kind, spec):
    """One dense row on the kind's aux state, verifier calls through
    ``apply_step``: the honest wrapper, the three expected members and
    their truncations at q = 8.

    The reference runs a ``Pad`` pair by pair. At k = 2, and against
    the aborting kind, that leaves the rows bit for bit. At k = 1 on the
    coherent kind a forward call leaves Count at 0, so the adjuster and
    its adjoint rotate the live block and round off; there a padded
    list's rows must equal the rows of the same list without its pads
    exactly, billed as the pairs are."""
    machine = build_verifier(kind, spec, 1, eps=Fraction(1, 4))
    rounds_off = kind == "superposition" and spec.rounds == 1
    padded = 0
    for alg in _machine_sims(machine):
        got = ref.run_branches(run_query_algorithm(alg, verifier=machine))
        want = ref.run_query_algorithm(alg, machine=machine)
        if rounds_off and alg.steps != ref.without_pads(alg).steps:
            bare = ref.run_query_algorithm(ref.without_pads(alg), machine=machine)
            assert len(bare) == len(want)
            for b, w in zip(bare, want):
                assert np.allclose(b.state.amplitudes, w.state.amplitudes, atol=1e-12)
            want = [replace(b, invocations=w.invocations)
                    for b, w in zip(bare, want)]
            padded += 1
        assert_same_branches(got, want)
    # lazy's padded list and geometric's four, as built and cut at q = 8
    assert padded == (10 if rounds_off else 0)


def logged_row_reads(monkeypatch) -> list:
    """Log (run, registers) of every read of ``_row_outputs``, rebinding it
    in each module that binds it."""
    reads = []
    real = adversary._row_outputs

    def logged(run, registers):
        reads.append((run, tuple(registers)))
        return real(run, registers)

    for module in (adversary, transforms):
        monkeypatch.setattr(module, "_row_outputs", logged)
    return reads


def assert_same_terms(reads):
    for run, registers in reads:
        got = list(_row_outputs(run, registers))
        want = list(ref.row_outputs(run, registers))
        assert [r[:2] for r in got] == [r[:2] for r in want]
        for (_, _, w), (_, _, v) in zip(got, want):
            assert_same_value(w, v)


@pytest.mark.parametrize("zoo", ["dom2", "dom3"])
def test_row_reader_matches_the_per_term_loop_on_table_masses(monkeypatch, zoo):
    reads = logged_row_reads(monkeypatch)
    for alg in ZOOS[zoo]:
        accept_all_zero(alg)(list(tables(DOMAINS[zoo])))
    monkeypatch.undo()
    assert len(reads) == len(ZOOS[zoo])
    assert_same_terms(reads)


@pytest.mark.parametrize("demo", ["mar", "mar-ordered"])
def test_row_reader_matches_the_per_term_loop_on_demo_schedules(monkeypatch, demo):
    reads = logged_row_reads(monkeypatch)
    ok, _ = cli.LEMMAS[demo](np.random.default_rng(1))
    monkeypatch.undo()
    assert ok
    assert any(any(run.outcomes) for run, _ in reads)  # measured schedule runs
    assert_same_terms(reads)
