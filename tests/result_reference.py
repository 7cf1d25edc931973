"""Simulation results as flat branch lists, as they were before a strict
run's rows became one stacked ``StrictRun``.

``run_simulator`` merges an expected-mode simulator's strict branches
branch by branch: each strict run's branches, from the per-branch
executor of ``pinned_reference``, are re-weighted by the stopping weight
with ``dataclasses.replace``. The readers reduce each branch on its own:
``pr_joint_budget`` makes one ``_register_probs`` call per branch, and
``cont_density`` one ``measure_register`` per branch. It is the
reference the stacked result and its one-call-per-run readers are tested
against, exactly.
"""

import math
from dataclasses import replace

import numpy as np

from qromlab.adversary import ExpectedAlgorithm, _EXACT_TOL, _scale
from qromlab.qsim import (
    PROB_FLOOR,
    DensityOnRegister,
    _register_probs,
    measure_register,
    partial_trace,
)

import pinned_reference
from executor_reference import result_branches


def run_simulator(sim, machine):
    """Every final branch of sim vs machine, expected-mode branches merged
    with their stopping weights one branch at a time."""
    if isinstance(sim, ExpectedAlgorithm):
        allb = []
        for w, alg in sim.branches:
            sub = run_simulator(alg, machine)
            allb.extend(replace(b, weight=w * b.weight) for b in sub)
        return tuple(allb)
    return result_branches(pinned_reference.run_simulator(sim, machine))


def pr_register(branches):
    return pr_joint_budget(branches, math.inf)


def pr_budget(branches, q):
    return sum((br.weight for br in branches if br.invocations <= q), start=0)


def pr_joint_budget(branches, q):
    total = 0
    for br in branches:
        if br.invocations > q:
            continue
        axis = br.state.layout.axis_of("B")
        p = float(_register_probs(br.state.tensor(), [axis])[1])
        if p <= _EXACT_TOL:
            continue
        total = total + _scale(br.weight, p)
    return total


def cont_density(branches):
    num = np.zeros((2, 2), dtype=complex)
    den = 0.0
    for br in branches:
        for o, post, p in measure_register(br.state, "B"):
            if o != 1:
                continue
            w = float(br.weight) * p
            num += w * partial_trace(post, "Cont").matrix
            den += w
    if den <= PROB_FLOOR:
        return 0.0, None
    return den, DensityOnRegister("Cont", num / den)
