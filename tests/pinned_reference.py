"""The enumerated simulator route as it was before control assignments
became rows of one amplitude array.

Each classical control assignment is its own machine, built by
``build_verifier(..., fixed=...)`` and seeded with its strided slice of
the unpinned permutation, and each strict branch runs once per pinned
machine through ``run_query_algorithm``. It is the reference the batched
route in ``adversary.run_simulator`` is tested against, branch by branch.
"""

from dataclasses import replace

from qromlab.adversary import (
    ExpectedAlgorithm,
    SimulationResult,
    _little_endian,
    build_verifier,
    run_query_algorithm,
)
from qromlab.oracle import SparseOracleDist


def pinned_machines(machine):
    """Every (R, H) assignment of the aborting kind as (pinned machine, weight)."""
    spec, pts = machine.spec, machine._prefix_points
    assignments = []
    dist = SparseOracleDist(pts, machine.eps)
    nr = len(spec.randomness)
    for ri, r in enumerate(spec.randomness):
        for h, w in dist.enumerate_weighted():
            c = ri + nr * _little_endian(h.values, 2)
            assignments.append(({"R": r, "H": h}, c, w / nr))
    full = machine._step_perm
    out = []
    for fx, c, w in assignments:
        pinned = build_verifier(machine.kind, spec, machine.x, eps=machine.eps, fixed=fx)
        ctrl = machine.layout.total_dim // pinned.layout.total_dim
        vars(pinned)["_step_perm"] = (full[c::ctrl] - c) // ctrl
        out.append((pinned, w))
    return tuple(out)


def run_simulator(sim, machine, force_dense=False):
    """Exhaustive simulation with one ``run_query_algorithm`` call per
    pinned machine. ``force_dense`` runs an unpinned machine as one dense
    run on its canonical aux state, as the coherent kind always runs."""
    if isinstance(sim, ExpectedAlgorithm):
        allb = []
        for w, alg in sim.branches:
            sub = run_simulator(alg, machine, force_dense=force_dense)
            allb.extend(replace(b, weight=w * b.weight) for b in sub.branches)
        return SimulationResult(machine.kind, tuple(allb))
    kind = machine.kind
    if force_dense or kind == "superposition" or machine.fixed:
        branches = run_query_algorithm(sim, machine=machine)
        return SimulationResult(kind, tuple(branches))
    allb = []
    for pinned, w in pinned_machines(machine):
        for b in run_query_algorithm(sim, machine=pinned):
            allb.append(replace(b, weight=w * b.weight))
    return SimulationResult(kind, tuple(allb))
