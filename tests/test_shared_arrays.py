"""The arrays no verifier kind or density changes, built once per spec.

A statement's step permutations depend only on (spec, x), and the
coherent kind's adjuster stack only on (spec, eps). Both kinds, at every
density, read one pair of Cont-free permutations per statement, and
every statement at one density reads one adjuster stack. The memo holds
them only while the spec lives.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qromlab import adversary, pipeline
from qromlab.adversary import MAX_STATE_DIM, build_verifier
from qromlab.protocol import ConfigError, toy_table
from step_reference import reference_step_perm

EPS4 = Fraction(1, 4)
DENSITIES = (EPS4, Fraction(1, 3))


def test_kinds_and_densities_share_one_statement_arrays():
    spec = toy_table()
    aborting = [build_verifier("random_aborting", spec, 1, eps=e) for e in DENSITIES]
    coherent = [build_verifier("superposition", spec, 1, eps=e) for e in DENSITIES]
    gated = aborting[0]._step_perm
    assert aborting[1]._step_perm is gated
    assert not gated.flags.writeable
    for machine in coherent:
        perm = machine._step_perm
        assert not perm.flags.writeable
        assert np.array_equal((perm[1::2] - 1) // 2, gated)  # the Cont = 1 block
    other = build_verifier("random_aborting", spec, 2, eps=EPS4)._step_perm
    assert other is not gated and not np.array_equal(other, gated)

    stack = coherent[0]._adjusters
    assert not stack.flags.writeable
    assert build_verifier("superposition", spec, 3, eps=EPS4)._adjusters is stack
    assert coherent[1]._adjusters is not stack


def test_a_stock_run_builds_one_pair_per_statement_and_one_stack_per_density(monkeypatch):
    built = {"_step_perms": 0, "_adjuster_stack": 0}
    for name in built:
        real = getattr(adversary, name)

        def counted(*args, _real=real, _name=name):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(adversary, name, counted)
    cfg = pipeline.default_config("expected-time")
    pipeline.expected_time_pipeline(cfg)
    assert len(cfg.yes_instances) == 2
    assert built == {"_step_perms": 2, "_adjuster_stack": 2}


def test_the_memo_holds_nothing_once_its_spec_is_gone():
    gc.collect()
    before = len(adversary._SHARED)
    spec = toy_table()
    for kind in ("random_aborting", "superposition"):
        build_verifier(kind, spec, 1, eps=EPS4)._adjusters
        build_verifier(kind, spec, 1, eps=EPS4)._step_perm
    held = [
        weakref.ref(a)
        for value in adversary._SHARED[spec].values()
        for a in (value if isinstance(value, tuple) else (value,))
    ]
    assert len(adversary._SHARED) == before + 1 and len(held) == 3
    del spec
    gc.collect()
    assert len(adversary._SHARED) == before
    assert [ref() for ref in held] == [None] * 3


def test_an_aborting_machine_at_the_cap_builds_and_its_coherent_twin_is_refused(monkeypatch):
    spec = replace(toy_table(), randomness=tuple(range(64)))
    machine = build_verifier("random_aborting", spec, 1, eps=EPS4)
    assert machine.layout.total_dim == MAX_STATE_DIM
    flats = np.random.default_rng(34).choice(MAX_STATE_DIM, 256, replace=False)
    assert np.array_equal(machine._step_perm[flats],
                          reference_step_perm(machine, flats=flats))

    def refused(*args):
        raise AssertionError("a refused machine built its permutations")

    monkeypatch.setattr(adversary, "_step_perms", refused)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceeds the dense cap"):
            build_verifier("superposition", spec, 1, eps=EPS4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_STATE_DIM  # bytes: one int64 index per basis state is 8x that
