"""The table-averaging checks against their per-key loops.

``family_exactness_check``, ``random_function_vs_family`` and
``sparse_advantage`` run ``accept`` once per distinct table and reuse the
value for every key or weight giving that table. Every sum keeps its
enumeration order, so each returned value is ``==`` the plain loop's in
``family_reference``.
"""

from fractions import Fraction

import pytest

import family_reference as ref
from conftest import accept_all_zero, accept_register_one
from qromlab.adversary import oracle_zoo
from qromlab.hashfam import (
    PolynomialFamily,
    TableFamily,
    TwoQWiseFamily,
    family_exactness_check,
    random_function_vs_family,
)
from qromlab.oracle import SparseOracleDist, prefix_domain, sparse_advantage

DOM6 = prefix_domain((0, 1), 2)
SMALL = (0, 1)

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


def counting(accept):
    """``accept`` that logs the values of every table it is called on."""
    seen = []

    def counted(table):
        seen.append(table.values)
        return accept(table)

    return counted, seen


@pytest.mark.parametrize("case", BASE_CASES, ids=map(_case_id, BASE_CASES))
def test_random_function_vs_family_matches_the_loop(case):
    fam, alg = case
    counted, seen = counting(accept_all_zero(alg))
    assert random_function_vs_family(fam, counted) == ref.random_function_vs_family(
        fam, accept_all_zero(alg)
    )
    assert len(seen) == len(set(seen)) == fam.a ** len(fam.domain)


@pytest.mark.parametrize("case", FAMILY_CASES, ids=map(_case_id, FAMILY_CASES))
def test_family_exactness_check_matches_the_loop(case):
    fam, alg = case
    counted, seen = counting(accept_all_zero(alg))
    assert family_exactness_check(fam, counted) == ref.family_exactness_check(
        fam, accept_all_zero(alg)
    )
    # the sparse side's tables cover the family side's: one memo for both
    assert len(seen) == len(set(seen)) == 2 ** len(fam.domain)


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_sparse_advantage_matches_the_loop(eps):
    dom = (0, 1, 2)
    dist = SparseOracleDist(dom, eps)
    accepts = [accept_all_zero(alg) for alg in oracle_zoo(dom)]
    classical = {a.name: a for a in oracle_zoo(dom)}["oq-classical"]
    accepts.append(accept_register_one(classical, "A"))
    for accept in accepts:
        counted, seen = counting(accept)
        assert sparse_advantage(counted, dist) == ref.sparse_advantage(accept, dist)
        # the zero table is one of the weighted tables
        assert len(seen) == len(set(seen)) == 2 ** len(dom)


def test_sparse_advantage_at_the_ends():
    # at epsilon 0 and 1 one table carries all the weight
    for eps, calls in ((Fraction(0), 1), (Fraction(1), 2)):
        dist = SparseOracleDist((0, 1, 2), eps)
        alg = {a.name: a for a in oracle_zoo((0, 1, 2))}["oq-classical"]
        counted, seen = counting(accept_register_one(alg, "A"))
        got = sparse_advantage(counted, dist)
        assert got == ref.sparse_advantage(accept_register_one(alg, "A"), dist)
        assert got[2] == eps and len(seen) == calls
