"""The per-branch executor as it was before the row executor
``adversary.run_query_algorithm`` became the only one, and the
per-branch results it returned.

``run_query_algorithm`` runs a step list branch by branch: a ``Unitary``
is one ``np.tensordot`` on one branch's state, a measurement returns one
branch per outcome, and a query goes through ``answer_query`` unless the
``on_query`` interceptor answers it. ``measure_query_register`` and
``set_branch_oracle`` are the interceptor's tools. The registers a step
may touch are checked by the library's own ``_visible_registers`` and
``_check_visible``, and a ``Measure`` by ``check_visible``. A ``Pad``
runs as its explicit forward/inverse call pairs, one call at a time
(``explicit_pairs``). It is the reference the one-row and the batched
runs of the row executor are tested against, branch by branch, with
``assert_same_branches``.

``Measure`` is the measurement step the library had before its rows
split only at measured reprogram slots. ``deferred`` rewrites a list's
measurements as copies onto fresh work registers, the form the library
runs: by deferred measurement the two give the same statistics on every
other register.

A branch is a ``RunBranch``, as every run's result was before a
``StrictRun`` became the only one. ``run_branches`` and ``result_branches``
read a stacked run or simulation result as one branch per row,
``result_of`` builds a result of one one-row run per branch, and
``output_distribution`` reduces each branch on its own, one
``_register_probs`` call per branch, as the library's did.

The reference keeps its name-keyed tables and per-name call counts: a
branch's one table sits under the fixed name ``TABLE``, every query is
to it, and its ordinals count that name's queries. A run's row without
a table reads back as a branch without tables. ``apply_schedule`` keeps
its ``mar-slot-i`` outcome labels and the measured query register's
outcome, and returns what the library records: (i, position) per slot.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    ExpectedAlgorithm,
    Pad,
    QueryAlgorithm,
    SimulationResult,
    StrictRun,
    Unitary,
    _check_visible,
    _scale,
    _visible_registers,
    apply_step,
    initial_state,
)
from qromlab.oracle import ClassicalOracle, quantum_query
from qromlab.qsim import (
    PROB_FLOOR,
    RegisterLayout,
    StateVector,
    _register_probs,
    measure_register,
)

TABLE = "h"


@dataclass(frozen=True)
class Measure:
    """Computational-basis measurement of one visible register."""

    register: str


def check_visible(step, visible):
    """The library's ``_check_visible``, and a ``Measure`` on a register
    the steps cannot see refused as it refused one."""
    _check_visible(step, visible)
    if isinstance(step, Measure) and step.register not in visible:
        raise ValueError(f"step touches verifier-internal registers {[step.register]}")


def copy_step(register, dim, fresh):
    """A ``Unitary`` adding the digit of ``register`` onto ``fresh`` mod dim."""
    old = np.arange(dim * dim)
    digit, into = old % dim, old // dim  # the first register listed is fastest
    m = np.zeros((dim * dim, dim * dim))
    m[digit + dim * ((into + digit) % dim), old] = 1.0
    return Unitary((register, fresh), m)


def deferred(sim, machine):
    """``sim`` with its n-th ``Measure(R)`` replaced by a copy of R onto a
    fresh work register ``copy-n`` of R's dimension, in every strict list.
    One ``Measure`` object at the same ordinal becomes one copy object, so
    lists that shared steps still share them."""
    copies = {}

    def strict(alg):
        dims = dict(machine.layout.registers + alg.work_registers)
        steps, work = [], list(alg.work_registers)
        for step in alg.steps:
            if isinstance(step, Measure):
                fresh = f"copy-{len(work) - len(alg.work_registers)}"
                key = (id(step), fresh)
                if key not in copies:
                    copies[key] = copy_step(step.register, dims[step.register], fresh)
                steps.append(copies[key])
                work.append((fresh, dims[step.register]))
            else:
                steps.append(step)
        return QueryAlgorithm(alg.name, tuple(steps), alg.budget, tuple(work),
                              alg.output_registers)

    if isinstance(sim, ExpectedAlgorithm):
        return ExpectedAlgorithm(
            sim.name, tuple((w, strict(alg)) for w, alg in sim.branches), sim.budget)
    return strict(sim)


@dataclass(frozen=True)
class RunBranch:
    """One execution branch: weight, joint state, live tables, outcomes."""

    weight: object
    state: StateVector
    oracles: tuple[tuple[str, ClassicalOracle], ...] = ()
    outcomes: tuple[tuple[str, int], ...] = ()
    invocations: int = 0
    counts: tuple[tuple[str, int], ...] = ()


def run_branches(run):
    """A run's rows as one branch each, in row order."""
    return tuple(
        RunBranch(
            run.row_weight(i),
            StateVector(run.layout, run.amplitudes[i]),
            () if run.oracles[i] is None else ((TABLE, run.oracles[i]),),
            run.outcomes[i],
            run.invocations,
        )
        for i in range(len(run))
    )


def result_branches(result):
    """A simulation result as one branch per row, runs in order."""
    return tuple(br for run in result.runs for br in run_branches(run))


def result_of(kind, branch_list):
    """The result whose rows are ``branch_list``, one one-row run each."""
    return SimulationResult(kind, tuple(
        StrictRun(
            1, (br.weight,), br.state.layout, br.state.amplitudes[None],
            (dict(br.oracles).get(TABLE),), (br.outcomes,), br.invocations,
        )
        for br in branch_list
    ))


def output_distribution(branch_list, registers):
    """Joint digit distribution of named registers over final branches."""
    out = {}
    for br in branch_list:
        lay = br.state.layout
        marg = _register_probs(br.state.tensor(), [lay.axis_of(r) for r in registers])
        for idx in np.argwhere(marg > PROB_FLOOR):
            key = tuple(int(v) for v in idx)
            out[key] = out.get(key, 0) + _scale(br.weight, float(marg[tuple(idx)]))
    return out


def unitary_on_axes(t, layout, target_registers, u):
    """``u`` on the named registers of one state tensor shaped ``dims[::-1]``,
    as one ``np.tensordot``."""
    targets = list(target_registers)
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target register")
    dims_t = [layout.dim_of(n) for n in targets]
    block = int(np.prod(dims_t))
    if u.shape != (block, block):
        raise ValueError(f"unitary shape {u.shape} != ({block}, {block})")
    m = len(targets)
    u_t = u.reshape(tuple(dims_t[::-1]) * 2)
    axes = [layout.axis_of(n) for n in reversed(targets)]
    t = np.tensordot(u_t, t, axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(t, list(range(m)), axes)


def branch_oracle(branch, name):
    for nm, tab in branch.oracles:
        if nm == name:
            return tab
    raise KeyError(f"no oracle named {name!r}")


def branch_count(branch, name):
    return dict(branch.counts).get(name, 0)


def _bump(branch, name):
    d = dict(branch.counts)
    d[name] = d.get(name, 0) + 1
    return replace(
        branch, invocations=branch.invocations + 1, counts=tuple(sorted(d.items()))
    )


def set_branch_oracle(branch, name, table):
    """Branch copy whose named table is replaced (reprogramming)."""
    if name not in dict(branch.oracles):
        raise KeyError(f"no oracle named {name!r}")
    return replace(
        branch,
        oracles=tuple((nm, table if nm == name else t) for nm, t in branch.oracles),
    )


def answer_query(branch, call):
    """Answer one query from the branch's table, bumping counts."""
    tab = branch_oracle(branch, TABLE)
    st = quantum_query(branch.state, tab, call.in_register, call.out_register)
    return replace(_bump(branch, TABLE), state=st)


def measure_query_register(branch, call):
    """Collapse the query register, as (domain point, collapsed branch) pairs;
    the invocation count is not bumped."""
    tab = branch_oracle(branch, TABLE)
    out = []
    for o, post, p in measure_register(branch.state, call.in_register):
        if o >= len(tab.domain):
            raise ValueError("measured a query outside the table domain")
        out.append(
            (
                tab.domain[o],
                replace(
                    branch,
                    state=post,
                    weight=_scale(branch.weight, p),
                    outcomes=branch.outcomes + ((call.in_register, o),),
                ),
            )
        )
    return out


def explicit_pairs(steps):
    """The steps with each ``Pad`` written out as its call pairs."""
    out = []
    for step in steps:
        if isinstance(step, Pad):
            out += [CallVerifier(), CallVerifier(inverse=True)] * step.pairs
        else:
            out.append(step)
    return out


def without_pads(alg):
    """The list with its ``Pad`` steps dropped, under the same budget."""
    return replace(alg, steps=tuple(s for s in alg.steps if not isinstance(s, Pad)))


def run_query_algorithm(alg, *, machine=None, oracles=None, on_query=None):
    """Execute a step list exhaustively, branch by branch.

    ``on_query(branch, call, ordinal)`` returns replacement branches
    (already answered) or None for the default answer; ordinals count
    per oracle name from 1.
    """
    work = tuple(alg.work_registers)
    visible = _visible_registers(alg, None if machine is None else machine.layout)
    if machine is not None:
        state = initial_state(machine, work)
    else:
        state = StateVector.basis(RegisterLayout(work))
    tables = tuple(sorted((oracles or {}).items()))
    branches = [RunBranch(Fraction(1), state, tables)]
    for step in explicit_pairs(alg.steps):
        check_visible(step, visible)
        nxt = []
        for br in branches:
            if isinstance(step, Unitary):
                lay = br.state.layout
                t = unitary_on_axes(br.state.tensor(), lay, step.registers, step.matrix)
                nxt.append(replace(br, state=StateVector(lay, t.reshape(-1))))
            elif isinstance(step, Measure):
                for o, post, p in measure_register(br.state, step.register):
                    nxt.append(
                        replace(
                            br,
                            state=post,
                            weight=_scale(br.weight, p),
                            outcomes=br.outcomes + ((step.register, o),),
                        )
                    )
            elif isinstance(step, CallVerifier):
                if machine is None:
                    raise ValueError("no verifier attached to this run")
                if br.invocations + 1 > alg.budget:
                    raise RuntimeError("budget violation in strict mode")
                st = apply_step(machine, br.state, inverse=step.inverse)
                nxt.append(replace(_bump(br, "verifier"), state=st))
            elif isinstance(step, CallOracle):
                if br.invocations + 1 > alg.budget:
                    raise RuntimeError("budget violation in strict mode")
                res = None
                if on_query is not None:
                    res = on_query(br, step, branch_count(br, TABLE) + 1)
                if res is None:
                    nxt.append(answer_query(br, step))
                else:
                    nxt.extend(res)
            else:
                raise TypeError(f"unknown step {step!r}")
        branches = nxt
    return branches


def assert_same_value(got, want):
    """Equal and of the same type: floats by ``float.hex``, the rest by ``==``."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


def assert_same_branches(got, want):
    """Equal branch lists: weights of the same type, and everything exact."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a.weight) is type(b.weight)
        assert a.weight == b.weight
        assert a.outcomes == b.outcomes
        assert a.invocations == b.invocations
        assert a.oracles == b.oracles
        assert a.state.layout == b.state.layout
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def apply_schedule(alg, oracle, schedule, y):
    """One schedule through the ``on_query`` interceptor: the one-schedule
    form of ``transforms.apply_schedules``, as the library once ran it."""
    if len(y) != len(schedule.picks):
        raise ValueError("one reprogram value per slot")
    slots = schedule.by_ordinal

    def on_query(branch, call, ordinal):
        if ordinal not in slots:
            return None
        i, timing = slots[ordinal]
        out = []
        for point, cb in measure_query_register(branch, call):
            tab = branch_oracle(cb, TABLE)
            pos = tab.domain.index(point)
            if timing == 0:
                cb = set_branch_oracle(cb, TABLE, tab.reprogram(point, y[i]))
                cb = answer_query(cb, call)
            else:
                cb = answer_query(cb, call)
                cb = set_branch_oracle(
                    cb, TABLE, branch_oracle(cb, TABLE).reprogram(point, y[i])
                )
            out.append(replace(cb, outcomes=cb.outcomes + ((f"mar-slot-{i}", pos),)))
        return out

    return [
        replace(br, outcomes=tuple(
            (int(reg.rsplit("-", 1)[1]), pos)
            for reg, pos in br.outcomes if reg.startswith("mar-slot-")))
        for br in run_query_algorithm(alg, oracles={TABLE: oracle}, on_query=on_query)
    ]
