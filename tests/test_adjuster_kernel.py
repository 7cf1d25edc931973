"""The coherent kind's table rotation against the full einsum it replaced.

``VerifierMachine._apply_adjusters`` rotates only the columns of the
Count = 0, Cont = 0 block that hold a nonzero amplitude and writes
exact zeros to the rest. ``step_reference.apply_adjusters`` runs one
einsum over the whole block. Every comparison is bit for bit: the
arrays must be ``np.array_equal`` and carry the same sign bits in both
parts, so a zero column written as -0.0, or a reordered sum, fails.
"""

from fractions import Fraction

import numpy as np
import pytest

import step_reference as ref
from qromlab import pipeline
from qromlab.adversary import VerifierMachine, build_verifier
from qromlab.pipeline import build_protocol, default_config, eps_star

CFG = default_config("expected-time")
SPEC = build_protocol(CFG)
DENSITIES = (CFG.eps, eps_star(SPEC.rounds, CFG.q), Fraction(1, 3), Fraction(1))


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def block_of(machine, rows):
    """The Count = 0, Cont = 0 block as (row, M·B, transcript, H, R)."""
    n, k = len(machine.spec.alphabet), machine.k
    t = rows.reshape(rows.shape[0], 2 * n, n**k, k, machine.layout.dim_of("H"), -1)
    return t[:, :, :, 0, :, ::2]


def signed_zeros(rng, shape):
    return (np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            + 1j * np.where(rng.random(shape) < 0.5, -0.0, 0.0))


def random_rows(machine, rng, fill):
    """Rows whose block is dense, partly zero or all zero; zero entries
    carry random sign bits."""
    shape = (int(rng.integers(1, 4)), machine.layout.total_dim)
    rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block = block_of(machine, rows)
    if fill == "zero":
        block[...] = signed_zeros(rng, block.shape)
    elif fill == "partly":
        cols = rng.random(block.shape[:3] + block.shape[4:]) < 0.7
        entries = rng.random(block.shape) < 0.2
        gone = entries | cols[:, :, :, None, :]
        block[gone] = signed_zeros(rng, block.shape)[gone]
    return rows


def machines():
    for x in CFG.yes_instances:
        for eps in DENSITIES:
            yield build_verifier("superposition", SPEC, x, eps=eps)


def with_complex_stack(machine, rng):
    """The machine with a random complex unitary per transcript."""
    stack = machine._adjusters
    z = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    q, _ = np.linalg.qr(z)
    twin = VerifierMachine(**{f: getattr(machine, f) for f in (
        "kind", "spec", "x", "layout", "output_register", "eps")})
    vars(twin)["_adjusters"] = q
    return twin


@pytest.mark.parametrize("fill", ["dense", "partly", "zero"])
@pytest.mark.parametrize("forward", [True, False])
def test_random_blocks_match_the_full_einsum(fill, forward):
    rng = np.random.default_rng(15)
    for machine in machines():
        for m in (machine, with_complex_stack(machine, rng)):
            for _ in range(3):
                rows = random_rows(m, rng, fill)
                got = m._apply_adjusters(rows.copy(), forward)
                want = ref.apply_adjusters(m, rows.copy(), forward)
                assert_same_bits(got, want)


def test_an_aborting_machine_is_left_alone():
    machine = build_verifier("random_aborting", SPEC, 1, eps=CFG.eps)
    rows = np.ones((2, machine.layout.total_dim), dtype=complex)
    assert machine._apply_adjusters(rows, True) is rows


@pytest.fixture(scope="module")
def stock_calls():
    """(rows in, forward, rows out) of every adjuster call of a stock
    expected-geometric run."""
    calls = []
    kernel = VerifierMachine._apply_adjusters

    def record(self, rows, forward):
        before = rows.copy()
        out = kernel(self, rows, forward)
        calls.append((self, before, forward, out.copy()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VerifierMachine, "_apply_adjusters", record)
        pipeline.expected_time_pipeline(CFG)
    return calls


def test_every_stock_call_matches_the_full_einsum(stock_calls):
    assert stock_calls
    for machine, rows, forward, got in stock_calls:
        assert_same_bits(got, ref.apply_adjusters(machine, rows.copy(), forward))


def test_a_stock_run_rotates_few_columns(stock_calls):
    """Half the stock calls hand the kernel an all-zero block, and the
    rest a block with 2 of its 32 columns nonzero.

    The stock run simulates expected-geometric against the coherent kind
    at 2 statements × 2 densities. Its 5 strict branches pad 0-4 call
    pairs ahead of the same honest steps, so the pads are counted, not
    applied, and the 5 branches share one run of the 2 honest calls: 4
    runs of 2 calls. A first call moves Count from 0 to 1 and leaves the
    Count = 0 block empty; a second finishes the transcript there."""
    nonzero = []
    for machine, rows, _, _ in stock_calls:
        block = block_of(machine, rows)
        assert block[0].shape[:2] + block[0].shape[3:] == (4, 4, 2)
        nonzero.append(int((block != 0).any(axis=3).sum()))
    assert len(nonzero) == 8
    assert nonzero.count(0) == 4
    assert nonzero.count(2) == 4
