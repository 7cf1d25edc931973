"""Pinned machines: the enumerated simulator route as it was before
control assignments became rows of one amplitude array.

A pinned machine holds some of the aborting kind's control roles
("R", "H") at classical values. It is a ``VerifierMachine`` on the layout
without those registers, seeded with its slice of the unpinned machine's
permutation: the step never writes a control register, so the indices
whose control digits read the pinned values map among themselves.
``run_simulator`` runs each strict branch once per fully pinned machine
through the per-branch executor of ``executor_reference``. It is the
reference the batched route in ``adversary.run_simulator`` is tested
against, branch by branch.
"""

from dataclasses import replace

import numpy as np

from qromlab.adversary import ExpectedAlgorithm, SimulationResult, _little_endian
from qromlab.oracle import SparseOracleDist
from qromlab.qsim import RegisterLayout

import executor_reference


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
        digit["H"] = _little_endian(fixed["H"].values, 2)
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


def pinned_machines(machine):
    """Every (R, H) assignment of the aborting kind as (pinned machine, weight)."""
    return tuple(
        (pinned_machine(machine, fx), w) for fx, w in assignments(machine)
    )


def run_simulator(sim, machine, force_dense=False):
    """Exhaustive simulation with one per-branch run per pinned machine.
    ``force_dense`` runs the unpinned machine as one dense run on its
    canonical aux state, as the coherent kind always runs."""
    if isinstance(sim, ExpectedAlgorithm):
        allb = []
        for w, alg in sim.branches:
            sub = run_simulator(alg, machine, force_dense=force_dense)
            allb.extend(replace(b, weight=w * b.weight) for b in sub.branches)
        return SimulationResult(machine.kind, tuple(allb))
    kind = machine.kind
    if force_dense or kind == "superposition":
        branches = executor_reference.run_query_algorithm(sim, machine=machine)
        return SimulationResult(kind, tuple(branches))
    allb = []
    for pinned, w in pinned_machines(machine):
        for b in executor_reference.run_query_algorithm(sim, machine=pinned):
            allb.append(replace(b, weight=w * b.weight))
    return SimulationResult(kind, tuple(allb))
