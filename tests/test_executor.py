"""The row executor against the per-branch executor it replaced
(``executor_reference``), branch by branch and exactly.

A plain run, a run against a machine and a measure-and-reprogram run
are each one row of ``adversary._run_rows``. Amplitudes must match with
``np.array_equal``, weights with ``==`` and the same type, and outcomes,
counts and tables exactly.
"""

import itertools
from fractions import Fraction

import pytest

import executor_reference as ref
from executor_reference import assert_same_branches
from qromlab.adversary import (
    build_verifier,
    expected_wrappers,
    honest_wrapper,
    oracle_zoo,
    ordered_zoo,
    run_query_algorithm,
)
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.protocol import toy_guess, toy_table
from qromlab.transforms import apply_schedule, enumerate_schedules, truncate

DOM6 = prefix_domain((0, 1), 2)
DOMAINS = {"dom2": (0, 1), "dom3": (0, 1, 2), "dom6": DOM6}
ZOOS = {name: oracle_zoo(dom) for name, dom in DOMAINS.items()}
ZOOS["ordered"] = ordered_zoo((0, 1))
DOMAINS["ordered"] = DOM6


def tables(domain):
    """Every binary table on the domain."""
    for vals in itertools.product((0, 1), repeat=len(domain)):
        yield ClassicalOracle(tuple(domain), (0, 1), vals)


@pytest.mark.parametrize("zoo", sorted(ZOOS))
def test_plain_runs_on_every_table(zoo):
    for alg in ZOOS[zoo]:
        for table in tables(DOMAINS[zoo]):
            got = run_query_algorithm(alg, oracles={"h": table})
            want = ref.run_query_algorithm(alg, oracles={"h": table})
            assert_same_branches(got, want)


def _named_queries(alg):
    return sum(getattr(s, "name", None) == "h" for s in alg.steps)


def _scheduled(zoo, table_list):
    for alg in ZOOS[zoo]:
        q = _named_queries(alg)
        for k in (1, 2):
            for sched in enumerate_schedules(k, q):
                for y in itertools.product((0, 1), repeat=k):
                    for table in table_list:
                        yield alg, table, sched, y


@pytest.mark.parametrize("zoo", sorted(ZOOS))
def test_every_schedule_at_k_one_and_two(zoo):
    """Every table on the 2-point domain; the all-zero table and one mixed
    table elsewhere."""
    dom = DOMAINS[zoo]
    if zoo == "dom2":
        table_list = list(tables(dom))
    else:
        mixed = tuple(i % 2 for i in range(len(dom)))
        table_list = [
            ClassicalOracle.constant(dom, (0, 1), 0), ClassicalOracle(dom, (0, 1), mixed)
        ]
    runs = 0
    for alg, table, sched, y in _scheduled(zoo, table_list):
        got = apply_schedule(alg, table, sched, y)
        want = ref.apply_schedule(alg, table, sched, y)
        assert_same_branches(got, want)
        runs += 1
    assert runs > 0


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
    their truncations at q = 8."""
    machine = build_verifier(kind, spec, 1, eps=Fraction(1, 4))
    for alg in _machine_sims(machine):
        got = run_query_algorithm(alg, machine=machine)
        want = ref.run_query_algorithm(alg, machine=machine)
        assert_same_branches(got, want)

