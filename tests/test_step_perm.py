"""The vectorized verifier step permutation against the per-index reference,
and the per-assignment rows the simulator slices out of it.

A pinned machine (``pinned_reference.pinned_machine``) is checked with
its classical control values passed to the reference explicitly."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab.adversary import VERIFIER_KINDS, build_verifier
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.pipeline import build_protocol, default_config, eps_star
from qromlab.protocol import ProtocolSpec, toy_guess, toy_table
from pinned_reference import assignments, pinned_machine
from step_reference import decode, fstar_oracle, reference_step_perm

EPS4 = Fraction(1, 4)
PDOM = prefix_domain((0, 1), 2)


def _pinned(spec, x, fixed):
    return pinned_machine(build_verifier("random_aborting", spec, x, eps=EPS4), fixed)


def stock_machines():
    """(machine, pinned control values) pairs."""
    flags = ClassicalOracle(PDOM, (0, 1), (1, 0, 1, 1, 0, 1))
    pins = [
        (toy_table(), 3, {"R": 1}),
        (toy_table(), 3, {"H": flags}),
        (toy_table(), 1, {"R": 0, "H": flags}),
        (toy_guess(), 1, {"R": 1, "H": ClassicalOracle(((0,), (1,)), (0, 1), (0, 1))}),
    ]
    return [
        (build_verifier("random_aborting", toy_table(), 1, eps=EPS4), {}),
        (build_verifier("random_aborting", toy_guess(), 1, eps=EPS4), {}),
        (build_verifier("superposition", toy_table(), 3, eps=EPS4), {}),
        (build_verifier("superposition", toy_guess(), 1, eps=EPS4), {}),
    ] + [(_pinned(spec, x, fixed), fixed) for spec, x, fixed in pins]


def _label(case):
    m, fixed = case
    return m.kind + ("-pinned-" + "".join(sorted(fixed)) if fixed else "")


@pytest.mark.parametrize("case", stock_machines(), ids=_label)
def test_vectorized_matches_reference(case):
    machine, fixed = case
    want = reference_step_perm(machine, fixed.get("R"), fixed.get("H"))
    assert np.array_equal(machine._step_perm, want)


def _controls(machine, fixed, digits):
    """(r, h) held by the control registers of one basis index, or pinned.
    The Cont = 0 block of a coherent kind never aborts, so it reads as
    the all-ones flag table."""
    spec = machine.spec
    dom = prefix_domain(spec.alphabet, machine.k)
    dg = dict(zip(machine.layout.names, digits))
    r = spec.randomness[dg["R"]] if "R" in dg else fixed.get("R")
    h = fixed.get("H")
    if "H" in dg:
        h = ClassicalOracle(dom, (0, 1), tuple((dg["H"] // 2**i) % 2 for i in range(len(dom))))
    if dg.get("Cont") == 0:
        h = ClassicalOracle.constant(dom, (0, 1), 1)
    return r, h


@pytest.mark.parametrize("case", stock_machines(), ids=_label)
def test_step_perm_matches_fstar_oracle(case):
    """At every basis index the call swaps M into the counted slot, then
    adds round j's response into M or, at round k, XORs the acceptance
    bit into B, as the spec-level next-step function says."""
    machine, fixed = case
    lay, spec, k = machine.layout, machine.spec, machine.k
    n = len(spec.alphabet)
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    pos = {nm: i for i, nm in enumerate(lay.names)}
    slots = [pos[f"M{i}"] for i in range(1, k + 1)]
    ctrl = pos["Count"]  # control registers lead the layout
    tables: dict = {}
    for flat in range(lay.total_dim):
        dg = list(decode(lay, flat))
        j = dg[pos["Count"]]
        key = (tuple(dg[:ctrl]), j)
        if key not in tables:
            r, h = _controls(machine, fixed, dg)
            tables[key] = fstar_oracle(machine, j + 1, r=r, h=h)
        want = list(dg)
        want[pos["Count"]] = (j + 1) % k
        old, want[slots[j]] = dg[slots[j]], dg[pos["M"]]
        f = tables[key](tuple(spec.alphabet[want[i]] for i in slots[: j + 1]))
        if j == k - 1:
            want[pos["M"]] = old
            want[pos["B"]] ^= f
        else:
            want[pos["M"]] = (old + aidx[f]) % n
        assert machine._step_perm[flat] == lay.encode(want)


@st.composite
def small_specs(draw):
    """A random table-driven spec small enough for the per-index loop.

    With public_coin the round-1 response is an injective function of the
    randomness only, as ``pipeline._check_public_coin`` requires.
    """
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 3)) if k == 1 else 2
    public = k == 2 and draw(st.booleans())
    alphabet = tuple(range(n))
    rs = tuple(range(draw(st.integers(1, n if public else 3))))
    letters = st.sampled_from(alphabet)
    if public:
        chal = draw(st.permutations(alphabet))[: len(rs)]
        nm_tab = {(r, p): chal[r] for r in rs for p in prefix_domain(alphabet, k - 1)}
    else:
        nm_tab = {
            (r, p): draw(letters) for r in rs for p in prefix_domain(alphabet, k - 1)
        }
    dec_tab = {
        (r, t): draw(st.booleans())
        for r in rs
        for t in itertools.product(alphabet, repeat=k)
    }
    return ProtocolSpec(
        name="random-table",
        alphabet=alphabet,
        rounds=k,
        randomness=rs,
        prover_randomness=alphabet,
        witness_map=lambda x: (x,),
        next_message=lambda x, r, ms: nm_tab[(r, tuple(ms))],
        decide=lambda x, r, ms: dec_tab[(r, tuple(ms))],
        honest_prover=lambda x, w, u, received: u,
        public_coin=public,
    )


def _random_pin(draw, spec):
    """Classical values for a random subset of the aborting kind's control
    roles."""
    fixed = {}
    if draw(st.booleans()):
        fixed["R"] = draw(st.sampled_from(spec.randomness))
    if draw(st.booleans()):
        pts = prefix_domain(spec.alphabet, spec.rounds)
        vals = tuple(draw(st.sampled_from((0, 1))) for _ in pts)
        fixed["H"] = ClassicalOracle(pts, (0, 1), vals)
    return fixed


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(), data=st.data())
def test_random_specs_match_reference(spec, data):
    """Both kinds at two densities of one (spec, x), all four read from
    the statement's one pair of permutations."""
    pin = _random_pin(data.draw, spec)
    for kind, eps in itertools.product(VERIFIER_KINDS, (EPS4, Fraction(1))):
        fixed = pin if kind == "random_aborting" else {}
        machine = build_verifier(kind, spec, 0, eps=eps)
        if fixed:
            machine = pinned_machine(machine, fixed)
        want = reference_step_perm(machine, fixed.get("R"), fixed.get("H"))
        assert np.array_equal(machine._step_perm, want)


def _assert_slices_match_direct_builds(machine):
    """Each row is its assignment's weight and the per-index permutation of
    the machine pinned to it, on the control-free layout."""
    rows = machine._control_rows
    assert sum(rows.weights) == 1
    pins = assignments(machine)
    assert [w for _, w in pins] == list(rows.weights)
    assert len(pins) == len(rows.perms)
    for (fixed, _), perm in zip(pins, rows.perms):
        pinned = pinned_machine(machine, fixed)
        assert rows.layout == pinned.layout
        assert np.array_equal(perm, reference_step_perm(pinned, fixed["R"], fixed["H"]))


def test_expected_time_slices_match_direct_builds():
    cfg = default_config("expected-time")
    spec, _ = build_protocol(cfg)
    for x in cfg.yes_instances:
        for eps in (cfg.eps, eps_star(spec.rounds, cfg.q)):
            machine = build_verifier("random_aborting", spec, x, eps=eps)
            rows = machine._control_rows
            assert len(rows.weights) == len(spec.randomness) * 2 ** len(PDOM)
            _assert_slices_match_direct_builds(machine)


@pytest.mark.parametrize(
    "machine",
    [build_verifier("random_aborting", toy_guess(), 1, eps=1)],
    ids=lambda m: m.kind,
)
def test_other_kinds_slices_match_direct_builds(machine):
    _assert_slices_match_direct_builds(machine)


def test_assignment_order_is_randomness_outer_tables_inner():
    machine = build_verifier("random_aborting", toy_guess(), 1, eps=EPS4)
    rows = machine._control_rows
    pins = [fixed for fixed, _ in assignments(machine)]
    assert [f["R"] for f in pins] == [0] * 4 + [1] * 4
    assert [f["H"].values for f in pins[:4]] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    _assert_slices_match_direct_builds(machine)
    weights = list(rows.weights[:4])
    assert weights == [Fraction(9, 32), Fraction(3, 32), Fraction(3, 32), Fraction(1, 32)]
