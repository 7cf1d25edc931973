"""The expected-time readers read each shared run once.

``run_simulator`` gives the strict branches whose non-``Pad`` steps are
the same one run's rows, each branch a ``replace`` of one ``StrictRun``
with its own stopping weight: they share one read-only ``amplitudes``
array. ``pr_joint_budget`` (so ``pr_register``) and ``cont_density``
reduce, split and trace each distinct array once and fold in each
branch's weight in branch and row order. Every value is checked against
``result_reference``'s per-branch readers exactly: Fractions equal and
still Fractions (or ints), floats by ``float.hex``.
"""

import dataclasses
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import adversary, pipeline
from qromlab.adversary import (
    StrictRun,
    build_verifier,
    cont_density,
    expected_wrapper,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_simulator,
)
from qromlab.qsim import RegisterLayout
from qromlab.transforms import truncate
import result_reference as ref
from executor_reference import assert_same_value, result_branches

CFG = pipeline.default_config("expected-time")
SPEC, _ = pipeline.build_protocol(CFG)
LAYOUT = RegisterLayout((("W", 3), ("B", 2), ("Cont", 2)))
BUDGETS = range(7)


def counting(monkeypatch, *names):
    """Count the calls ``adversary`` makes to each named binding."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(adversary, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(adversary, name, counted)
    return calls


@pytest.mark.parametrize("member, branches", [("expected-geometric", 5), ("expected-lazy", 2)])
def test_equal_lists_share_one_array_and_one_read(monkeypatch, member, branches):
    """Every branch of the member shares the one coherent run's array,
    and each reader reduces it once, not once per branch."""
    machine = build_verifier("superposition", SPEC, 1, eps=CFG.eps)
    sim = expected_wrapper(member, machine, SPEC.witness_map(1)[0], CFG.q)
    runs = run_simulator(sim, machine)
    assert len(runs) == branches
    assert len({id(run.amplitudes) for run in runs}) == 1
    want = result_branches(runs)
    calls = counting(monkeypatch, "_register_probs", "_split_rows", "partial_trace")
    assert_same_value(pr_register(runs), ref.pr_register(want))
    assert calls == {"_register_probs": 1, "_split_rows": 0, "partial_trace": 0}
    (den, rho), (want_den, want_rho) = cont_density(runs), ref.cont_density(want)
    assert_same_value(den, want_den)
    assert np.array_equal(rho.matrix, want_rho.matrix)
    assert calls == {"_register_probs": 1, "_split_rows": 1, "partial_trace": 1}


def test_a_stock_geometric_run_reads_each_distinct_run_once(monkeypatch):
    """Per statement and density, the coherent member's 5 branches are
    one run, and its truncation against the aborting kind two: a stock
    ``expected-geometric`` run splits and traces 4 runs and reduces 12
    (the per-branch readers made 20, 20 and 36 calls)."""
    calls = counting(monkeypatch, "_split_rows", "partial_trace", "_register_probs")
    pipeline.expected_time_pipeline(dataclasses.replace(CFG, simulator="expected-geometric"))
    assert len(CFG.yes_instances) == 2
    assert calls == {"_split_rows": 4, "partial_trace": 4, "_register_probs": 12}


def test_the_truncated_member_shares_two_arrays_on_the_aborting_kind(monkeypatch):
    """Cut at q, the 4-pair list keeps its pads and one ``Unitary``: its
    own run next to the other four lists' shared one, each reduced once
    over its 128 stacked rows."""
    machine = build_verifier("random_aborting", SPEC, 1, eps=CFG.eps)
    sim = expected_wrapper("expected-geometric", machine, SPEC.witness_map(1)[0], CFG.q)
    runs = run_simulator(truncate(sim, CFG.q), machine)
    assert len(runs) == 5
    assert len({id(run.amplitudes) for run in runs}) == 2
    want = ref.pr_register(result_branches(runs))
    calls = counting(monkeypatch, "_register_probs")
    assert_same_value(pr_register(runs), want)
    assert calls == {"_register_probs": 2}


# ---------------------------------------------------------------------------
# Drawn mixtures of shared and unshared runs against the per-branch readers.


def _row(rng, kind):
    """One normalised row over ``LAYOUT``: B reads 1, 0 or either."""
    amps = rng.normal(size=LAYOUT.total_dim) + 1j * rng.normal(size=LAYOUT.total_dim)
    t = amps.reshape(LAYOUT.dims[::-1])
    b = LAYOUT.axis_of("B")
    if kind != "split":
        np.moveaxis(t, b, 0)[1 if kind == "zero" else 0] = 0
    return amps / np.linalg.norm(amps)


EXACT = st.one_of(st.integers(0, 2), st.fractions(0, 1, max_denominator=12))
WEIGHTS = st.one_of(EXACT, st.floats(0, 1, allow_nan=False))


@st.composite
def stacked_runs(draw):
    """A run of one to four rows, each B = 1, B = 0 or split, with exact
    or float row weights."""
    kinds = draw(st.lists(st.sampled_from(["one", "zero", "split"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    amps = np.array([_row(rng, kind) for kind in kinds])
    weights = tuple(draw(st.lists(WEIGHTS, min_size=len(kinds), max_size=len(kinds))))
    n = len(kinds)
    return StrictRun(1, weights, LAYOUT, amps, (None,) * n, ((),) * n, 0)


@st.composite
def mixtures(draw):
    """Branches over one to three drawn runs: a run drawn more than once
    is shared, each branch a ``replace`` with its own stopping weight
    and call count."""
    bases = draw(st.lists(stacked_runs(), min_size=1, max_size=3))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(bases) - 1), WEIGHTS, st.integers(0, 6)),
        min_size=1, max_size=6))
    return tuple(replace(bases[j], weight=w, invocations=c) for j, w, c in picks)


def assert_same_readers(runs):
    want = result_branches(runs)
    assert_same_value(pr_register(runs), ref.pr_register(want))
    for q in BUDGETS:
        assert_same_value(pr_budget(runs, q), ref.pr_budget(want, q))
        assert_same_value(pr_joint_budget(runs, q), ref.pr_joint_budget(want, q))
    (den, rho), (want_den, want_rho) = cont_density(runs), ref.cont_density(want)
    assert_same_value(den, want_den)
    assert (rho is None) == (want_rho is None)
    if rho is not None:
        assert np.array_equal(rho.matrix, want_rho.matrix)


@settings(max_examples=200, deadline=None)
@given(runs=mixtures())
def test_drawn_mixtures_read_as_the_per_branch_reference(runs):
    assert_same_readers(runs)


def _fixed(kinds, weights, seed=0):
    rng = np.random.default_rng(seed)
    n = len(kinds)
    amps = np.array([_row(rng, kind) for kind in kinds])
    return StrictRun(1, tuple(weights), LAYOUT, amps, (None,) * n, ((),) * n, 0)


EXACT_RUN = _fixed(["one", "zero", "one"], [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)])
FLOAT_RUN = _fixed(["split", "one"], [Fraction(1, 4), Fraction(3, 4)], seed=1)
NO_ONE_RUN = _fixed(["zero", "zero"], [Fraction(1, 2), Fraction(1, 2)], seed=2)


def mix(*branches):
    return tuple(replace(run, weight=w, invocations=c) for run, w, c in branches)


@pytest.mark.parametrize("runs, want_type", [
    # exact shared runs alone, with an int and a Fraction stopping weight
    (mix((EXACT_RUN, 1, 0), (EXACT_RUN, Fraction(1, 7), 2)), Fraction),
    # a float term first: every later exact term adds to a float
    (mix((FLOAT_RUN, Fraction(1, 2), 0), (EXACT_RUN, Fraction(1, 3), 1),
         (EXACT_RUN, Fraction(1, 6), 2)), float),
    # a float stopping weight after an exact term: 2/15 + 0.1 * 1/3 +
    # 0.1 * 3/5, row by row, rounds apart from 2/15 + 0.1 * 14/15
    (mix((EXACT_RUN, Fraction(1, 7), 1), (EXACT_RUN, 0.1, 3),
         (FLOAT_RUN, Fraction(1, 2), 0)), float),
    # runs with no B = 1 row and runs over the budget add nothing
    (mix((NO_ONE_RUN, Fraction(1, 2), 0), (EXACT_RUN, 2, 9), (NO_ONE_RUN, 1, 1)), int),
])
def test_exact_and_float_terms_in_either_order(runs, want_type):
    assert_same_readers(runs)
    assert type(pr_joint_budget(runs, 6)) is want_type


def test_a_run_with_no_b1_row_leaves_an_int_zero():
    runs = mix((NO_ONE_RUN, Fraction(1, 3), 0), (NO_ONE_RUN, Fraction(2, 3), 0))
    assert pr_register(runs) == 0 and type(pr_register(runs)) is int
    assert pr_joint_budget(runs, math.inf) == 0
    assert cont_density(runs) == (0.0, None)
