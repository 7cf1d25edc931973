"""Pinned machines: the enumerated simulator route as it was before
control assignments became rows of one amplitude array.

A pinned machine holds some of the aborting kind's control roles
("R", "H") at classical values. It is a ``VerifierMachine`` on the layout
without those registers, seeded with its slice of the unpinned machine's
permutation: the step never writes a control register, so the indices
whose control digits read the pinned values map among themselves.
``run_simulator`` runs each strict branch once per fully pinned machine
through the per-branch executor of ``executor_reference``, and returns
its branches as a result of one-row runs (``executor_reference.result_of``).
It is the reference the batched route in ``adversary.run_simulator`` is
tested against, branch by branch. A machine's pinned machines are built
once, and each distinct strict step list (by value) runs through them
once; both are kept on the machine object, so they live as long as it.

``control_rows`` is how ``VerifierMachine._control_rows`` was first
built: one ``ClassicalOracle`` per table from ``enumerate_weighted``,
read back into its H digit by ``little_endian``. ``product_chain`` is
``SparseOracleDist.enumerate_weighted`` as it was first written, each
weight a ``Fraction`` product taken point by point.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from qromlab.adversary import ExpectedAlgorithm, Unitary, _ControlRows
from qromlab.oracle import ClassicalOracle, SparseOracleDist
from qromlab.qsim import RegisterLayout

import executor_reference


def little_endian(digits, base):
    """Register digit of a table whose point i holds digit i (point 0 fastest)."""
    return sum(int(d) * base**i for i, d in enumerate(digits))


def product_chain(dist):
    """Every nonzero-weight table of ``dist`` once, with its weight."""
    n = len(dist.domain)
    eps = dist.epsilon
    free = [i for i in range(n)] if 0 < eps < 1 else []
    base = 1 if eps == 1 else 0
    for mask in range(2 ** len(free)):
        vals = [base] * n
        w = Fraction(1)
        for bit, i in enumerate(free):
            if (mask >> bit) & 1:
                vals[i] = 1
                w *= eps
            else:
                vals[i] = 0
                w *= 1 - eps
        yield ClassicalOracle(dist.domain, (0, 1), tuple(vals)), w


def control_rows(machine):
    """Every (R, H) assignment of the aborting kind as one row of a batch."""
    rs = machine.spec.randomness
    dist = SparseOracleDist(machine._prefix_points, machine.eps)
    cs, weights = zip(*(
        (ri + len(rs) * little_endian(h.values, 2), w / len(rs))
        for ri in range(len(rs))
        for h, w in dist.enumerate_weighted()
    ))
    layout = RegisterLayout(machine.layout.registers[machine.layout.index("Count"):])
    ctrl = machine.layout.total_dim // layout.total_dim
    cs = np.array(cs)
    full = machine._step_perm.reshape(layout.total_dim, ctrl)
    perms = (full[:, cs].T - cs[:, None]) // ctrl
    return _ControlRows(weights, perms, layout)


def assignments(machine):
    """Every (R, H) assignment of the aborting kind as ({"R": r, "H": h},
    weight), randomness outer and tables inner."""
    rs = machine.spec.randomness
    dist = SparseOracleDist(machine._prefix_points, machine.eps)
    return tuple(
        ({"R": r, "H": h}, w / len(rs)) for r in rs for h, w in dist.enumerate_weighted()
    )


def pinned_machine(machine, fixed):
    """The machine with the control roles in ``fixed`` held classical."""
    lay = machine.layout
    digit = {}
    if "R" in fixed:
        digit["R"] = machine.spec.randomness.index(fixed["R"])
    if "H" in fixed:
        digit["H"] = little_endian(fixed["H"].values, 2)
    keep = RegisterLayout(tuple(r for r in lay.registers if r[0] not in fixed))
    flat = np.arange(lay.total_dim)
    mask = np.ones(lay.total_dim, dtype=bool)
    for role, d in digit.items():
        i = lay.index(role)
        mask &= flat // lay.strides[i] % lay.dims[i] == d
    image = machine._step_perm[mask]
    perm = sum(
        image // lay.strides[lay.index(nm)] % d * s
        for nm, d, s in zip(keep.names, keep.dims, keep.strides)
    )
    pinned = replace(machine, layout=keep)
    vars(pinned)["_step_perm"] = perm
    return pinned


def _kept(machine, name, build):
    """``build()``, made once per machine object and kept on it."""
    memo = vars(machine)
    if name not in memo:
        memo[name] = build()
    return memo[name]


def pinned_machines(machine):
    """Every (R, H) assignment of the aborting kind as (pinned machine, weight)."""
    return _kept(machine, "_pinned_reference", lambda: tuple(
        (pinned_machine(machine, fx), w) for fx, w in assignments(machine)
    ))


def _list_key(alg):
    """A strict step list by value; a ``Unitary`` by its registers and
    matrix bytes."""
    steps = tuple(
        (s.registers, s.matrix.tobytes()) if isinstance(s, Unitary) else s
        for s in alg.steps
    )
    return alg.budget, alg.work_registers, alg.output_registers, steps


def _pinned_branches(sim, machine):
    """Every final branch of one strict list, one per-branch run per
    pinned machine; each distinct list runs once per machine."""
    runs = _kept(machine, "_pinned_runs", dict)
    key = _list_key(sim)
    if key not in runs:
        allb = []
        for pinned, w in pinned_machines(machine):
            for b in executor_reference.run_query_algorithm(sim, machine=pinned):
                allb.append(replace(b, weight=w * b.weight))
        runs[key] = tuple(allb)
    return runs[key]


def run_simulator(sim, machine, force_dense=False):
    """Exhaustive simulation with one per-branch run per pinned machine.
    ``force_dense`` runs the unpinned machine as one dense run on its
    canonical aux state, as the coherent kind always runs."""
    if isinstance(sim, ExpectedAlgorithm):
        allb = []
        for w, alg in sim.branches:
            sub = run_simulator(alg, machine, force_dense=force_dense)
            allb.extend(
                replace(b, weight=w * b.weight)
                for b in executor_reference.result_branches(sub)
            )
        return executor_reference.result_of(allb)
    kind = machine.kind
    if force_dense or kind == "superposition":
        branches = executor_reference.run_query_algorithm(sim, machine=machine)
        return executor_reference.result_of(branches)
    return executor_reference.result_of(_pinned_branches(sim, machine))
