"""The table-averaging checks against their per-key loops, and batched
acceptance against one run per table.

``family_exactness_check``, ``random_function_vs_family`` and
``sparse_advantage`` call ``accept`` once, on every distinct table in
first-use order, and reuse each value for every key or weight giving that
table. Every sum keeps its enumeration order, so each returned value is
``==`` the plain loop's in ``family_reference``, whose accept runs one
table at a time (``conftest.one_table``).

``cli._accept_all_zero`` answers its tables as the start rows of as few
runs as ``MAX_STATE_DIM`` allows. Each table's value is ``==`` the value
it gets in a run of its own, and of the same type.
"""

import itertools
from fractions import Fraction

import pytest

import family_reference as ref
from conftest import accept_all_zero, accept_register_one, counting_runs, one_table
from qromlab import adversary
from qromlab.adversary import oracle_zoo
from qromlab.hashfam import (
    PolynomialFamily,
    TableFamily,
    TwoQWiseFamily,
    family_exactness_check,
    random_function_vs_family,
)
from qromlab.oracle import (
    ClassicalOracle,
    SparseOracleDist,
    prefix_domain,
    sparse_advantage,
)

DOM6 = prefix_domain((0, 1), 2)
SMALL = (0, 1)
DOMAINS = (SMALL, (0, 1, 2), DOM6)

# the zhandry demo's families, then acceptance criterion 1's TableFamily cases
BASE_CASES = [(PolynomialFamily(SMALL, 2, 1, 2), alg) for alg in oracle_zoo(SMALL)] + [
    (TableFamily(dom, 2), alg) for dom in ((0, 1), (0, 1, 2)) for alg in oracle_zoo(dom)
]
FAMILY_CASES = [
    (TwoQWiseFamily(PolynomialFamily(DOM6, 7, 1, 7), 2, 2), alg)
    for alg in oracle_zoo(DOM6)
] + [
    (TwoQWiseFamily(TableFamily(prefix_domain(SMALL, k), 2), 1, k), alg)
    for k in (1, 2)
    for alg in oracle_zoo(prefix_domain(SMALL, k))
]
EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 256))


def _case_id(case) -> str:
    fam, alg = case
    return f"{type(fam).__name__}-{len(fam.domain)}-{alg.name}"


def same(got, want) -> bool:
    """Equal by ``==`` and by type, entry by entry."""
    return len(got) == len(want) and all(
        a == b and type(a) is type(b) for a, b in zip(got, want)
    )


def counting(accept):
    """``accept``, logging the values of the tables of each call."""
    calls = []

    def counted(tables):
        calls.append([t.values for t in tables])
        return accept(tables)

    return counted, calls


def one_by_one(accept):
    """``accept`` on one table at a time, each run alone, logging the
    tables in the order the plain loop uses them."""
    used = []

    def scalar(table):
        used.append(table.values)
        return one_table(accept)(table)

    return scalar, used


def first_use(used) -> list:
    return list(dict.fromkeys(used))


@pytest.mark.parametrize("case", BASE_CASES, ids=map(_case_id, BASE_CASES))
def test_random_function_vs_family_matches_the_loop(case):
    fam, alg = case
    counted, calls = counting(accept_all_zero(alg))
    scalar, used = one_by_one(accept_all_zero(alg))
    assert same(random_function_vs_family(fam, counted),
                ref.random_function_vs_family(fam, scalar))
    assert calls == [first_use(used)]
    assert len(calls[0]) == fam.a ** len(fam.domain)


@pytest.mark.parametrize("case", FAMILY_CASES, ids=map(_case_id, FAMILY_CASES))
def test_family_exactness_check_matches_the_loop(case):
    fam, alg = case
    counted, calls = counting(accept_all_zero(alg))
    scalar, used = one_by_one(accept_all_zero(alg))
    assert same(family_exactness_check(fam, counted),
                ref.family_exactness_check(fam, scalar))
    # the sparse side's tables cover the family side's: one call for both
    assert calls == [first_use(used)]
    assert len(calls[0]) == 2 ** len(fam.domain)


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_sparse_advantage_matches_the_loop(eps):
    dom = (0, 1, 2)
    dist = SparseOracleDist(dom, eps)
    accepts = [accept_all_zero(alg) for alg in oracle_zoo(dom)]
    classical = {a.name: a for a in oracle_zoo(dom)}["oq-classical"]
    accepts.append(accept_register_one(classical, "A"))
    for accept in accepts:
        counted, calls = counting(accept)
        scalar, used = one_by_one(accept)
        assert same(sparse_advantage(counted, dist), ref.sparse_advantage(scalar, dist))
        # the zero table is one of the weighted tables
        assert calls == [first_use(used)]
        assert len(calls[0]) == 2 ** len(dom)


def test_sparse_advantage_at_the_ends():
    # at epsilon 0 and 1 one table carries all the weight
    for eps, tables in ((Fraction(0), 1), (Fraction(1), 2)):
        dist = SparseOracleDist((0, 1, 2), eps)
        alg = {a.name: a for a in oracle_zoo((0, 1, 2))}["oq-classical"]
        counted, calls = counting(accept_register_one(alg, "A"))
        got = sparse_advantage(counted, dist)
        scalar = one_table(accept_register_one(alg, "A"))
        assert same(got, ref.sparse_advantage(scalar, dist))
        assert got[2] == eps and len(calls) == 1 and len(calls[0]) == tables


def test_accept_must_answer_every_table():
    dist = SparseOracleDist((0, 1), Fraction(1, 2))
    with pytest.raises(ValueError, match="accept gave 3 values for 4 tables"):
        sparse_advantage(lambda tables: [0] * (len(tables) - 1), dist)


def every_table(dom, rng):
    return [ClassicalOracle(dom, rng, v)
            for v in itertools.product(rng, repeat=len(dom))]


# (start rows a run, MAX_STATE_DIM in rows of state); a cap of 3 rows
# puts a chunk seam inside every batch, and a cap below one row still
# runs one table a run
CAPS = {"one-run": (None, None), "seams-of-3": (3, 3), "no-room": (1, 0.5)}


@pytest.mark.parametrize("cap", CAPS.values(), ids=CAPS)
@pytest.mark.parametrize("dom", DOMAINS, ids=map(len, DOMAINS))
def test_a_batch_equals_each_table_alone(monkeypatch, dom, cap):
    # 2**len(dom) binary tables and the one table of the one-value range
    tables = every_table(dom, (0, 1)) + every_table(dom, (0,))
    per_run, room = cap
    per_run = per_run or len(tables)
    for alg in oracle_zoo(dom):
        accept = accept_all_zero(alg)
        alone = [one_table(accept)(t) for t in tables]
        if room is not None:
            dim = alg._work_start.layout.total_dim
            monkeypatch.setattr(adversary, "MAX_STATE_DIM", int(room * dim))
        runs = counting_runs(monkeypatch)
        assert same(accept(tables), alone), alg.name
        assert runs == [min(per_run, len(tables) - lo)
                        for lo in range(0, len(tables), per_run)]
        monkeypatch.undo()


def test_repeated_tables_run_once_and_answer_each_place(monkeypatch):
    alg = {a.name: a for a in oracle_zoo((0, 1, 2))}["oq-uniform"]
    tables = every_table((0, 1, 2), (0, 1))
    twice = tables[::-1] + tables
    accept = accept_all_zero(alg)
    alone = [one_table(accept)(t) for t in twice]
    runs = counting_runs(monkeypatch)
    assert same(accept(twice), alone)
    assert runs == [len(tables)]
