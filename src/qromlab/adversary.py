"""Adversarial verifier machines and black-box query algorithms.

A machine packages one of two verifier kinds as an explicit step unitary
over named registers: ``random_aborting``, which aborts on a zero bit of
a classical flag table, and ``superposition``, which holds that table
coherently. Each call is a basis permutation doing the
count/swap/respond bookkeeping, followed for the coherent kind by
transcript-controlled adjusting rotations on the table register. The
permutation is one vectorized numpy computation over per-register digit
arrays, made once per statement and shared by both kinds at every
density, since neither enters it: the aborting kind's step is the
coherent kind's Cont = 1 block. The rotations are made once per density
and shared by every statement; both are kept while the spec lives
(``_shared``). (The paper's hash-challenge and response-oracle verifiers
run as response traces on ``pipeline``'s label walk, where a challenge
is its randomness label.) Simulators are step lists that may call the
machine forward or inverted and query one classical table in
superposition. They measure nothing themselves: by deferred
measurement, copying a register onto a fresh work register gives the
statistics measuring it would. One executor, ``run_query_algorithm``,
runs every one of them, and every table average and schedule list,
under strict invocation budgets over the rows of one amplitude array,
each row with its own weight, outcomes and table: a ``Unitary`` step,
checked when built, is one stacked matmul over every row. Rows split in
one place only, a measured query at a measure-and-reprogram slot, and
only in a run with no verifier: the slot belongs to a start row, splits
that start row's rows on the query register with ``qsim``'s one split,
and reprograms each one's table at the measured point. A plain run is
one row, or one start row per table when several tables are averaged
over (``_table_masses``), or per schedule when schedules are
(``transforms.apply_schedules``), each row keeping its own. A run
against a verifier has one start row, and its rows never change. The
aborting kind's control registers stay classical, so it is simulated by
enumerating every control assignment exactly and mixing the resulting
branches with rational weights: each assignment is a row, and its
verifier call is the strided slice of the machine's permutation, moved
for every row by ``qsim``'s one permutation kernel. A ``Pad`` step,
which the expected-budget wrappers put ahead of the honest steps, stands
for its forward/inverse call pairs: it is billed as two calls a pair and
moves no row, and strict branches whose other steps are the same share
one run.

The executor settles a run before its first step: every refusal, the
bill and each start row's weight. A run's final rows stay stacked as
one ``StrictRun``, the only form a run's result takes:
``run_query_algorithm`` returns one, and ``run_simulator`` one per
strict branch, with its stopping weight. ``output_distribution`` reads
all of a run's rows with one reduction. Branches that share a run share
its rows, so ``pr_register``, ``pr_joint_budget`` and ``cont_density``
read each shared run once, with one reduction or one split, and fold in
each branch's stopping weight.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from qromlab.hashfam import _householder_to, build_exact_adjuster, table_superposition
from qromlab.oracle import (
    ClassicalOracle,
    SparseOracleDist,
    prefix_domain,
    quantum_query,
)
from qromlab.protocol import ConfigError, ProtocolSpec
# apply_unitary stays bound here: perfbench's span test checks every binding
from qromlab.qsim import (  # noqa: F401
    ATOL_STATE,
    PROB_FLOOR,
    DensityOnRegister,
    RegisterLayout,
    StateVector,
    _check_unitary,
    _permute_rows,
    _register_probs,
    _split_rows,
    _unitary_on_axes,
    apply_unitary,
    partial_trace,
)

VERIFIER_KINDS = ("random_aborting", "superposition")
MAX_STATE_DIM = 2**17
_EXACT_TOL = 1e-12


class _ControlRows(NamedTuple):
    """The classical control assignments of one machine, row by row."""

    weights: tuple[Fraction, ...]
    perms: np.ndarray  # (rows, dim): each row's step permutation
    layout: RegisterLayout  # the machine layout without control registers


@dataclass(frozen=True)
class VerifierMachine:
    """One verifier kind bound to a statement, as an explicit step unitary.

    The layout orders control registers first (Cont, R, then the flag
    table H), the count/transcript/decision block next, and the message
    register M last. A machine is cheap: its statement's one step
    permutation pair serves both kinds at every density, and its
    density's one adjuster stack serves every statement.
    """

    kind: str
    spec: ProtocolSpec
    x: Hashable
    layout: RegisterLayout
    eps: Fraction

    @property
    def k(self) -> int:
        return self.spec.rounds

    @cached_property
    def _prefix_points(self) -> tuple[tuple, ...]:
        return prefix_domain(self.spec.alphabet, self.k)

    @cached_property
    def _step_perm(self) -> np.ndarray:
        """Basis permutation of one call: count, swap, respond, decide.

        Read-only. Both kinds read the statement's one pair of
        Cont-free permutations (``_step_perms``), whatever the density:
        the aborting kind's step is the gated one, and the coherent kind
        interleaves the two on its leading Cont digit, the Cont = 0
        block ungated and the Cont = 1 block gated.
        """
        gated, ungated = _shared(_step_perms, self.spec, self.x)
        if self.kind == "random_aborting":
            return gated
        perm = np.stack((2 * ungated, 2 * gated + 1), axis=1).ravel()
        perm.setflags(write=False)
        return perm

    @cached_property
    def _control_rows(self) -> _ControlRows:
        """Every (R, H) assignment of the aborting kind as one row of a batch.

        R and H lead the layout and the step never writes them, so the
        permutation of control index c is the strided slice
        ``(full[c::ctrl] - c) // ctrl`` of this machine's permutation. A
        table's H digit is its bit mask. The rows share this layout with
        its control registers dropped.
        """
        nr = len(self.spec.randomness)
        tables = list(SparseOracleDist(self._prefix_points, self.eps)._weighted_masks())
        # a table's weight is set by its count of ones, and an int key
        # hashes faster than a Fraction: one division per count
        by_ones = {mask.bit_count(): w for mask, w in tables}
        shares = {ones: w / nr for ones, w in by_ones.items()}
        cs, weights = zip(*(
            (ri + nr * mask, shares[mask.bit_count()]) for ri in range(nr) for mask, _ in tables
        ))
        layout = RegisterLayout(self.layout.registers[self.layout.index("Count"):])
        ctrl = self.layout.total_dim // layout.total_dim
        cs = np.array(cs)
        full = self._step_perm.reshape(layout.total_dim, ctrl)
        perms = (full[:, cs].T - cs[:, None]) // ctrl
        perms.setflags(write=False)
        return _ControlRows(weights, perms, layout)

    @cached_property
    def _adjusters(self) -> Optional[np.ndarray]:
        """The coherent kind's table rotations (``_adjuster_stack``), one
        stack per density that every statement shares."""
        if self.kind != "superposition":
            return None
        return _shared(_adjuster_stack, self.spec, self.eps)

    def _apply_adjusters(self, rows: np.ndarray, forward: bool) -> np.ndarray:
        """Rotate the table axis of each just-finished Cont=0 block, in place.

        Each row is one machine state, registers first fastest, so it
        reshapes to (M·B, transcript, Count, H, R·Cont) and the blocks the
        rotations act on are the Count = 0, Cont = 0 slice. A column of
        that block is its table axis at one (row, M·B, transcript, R).
        Only the columns holding a nonzero amplitude are rotated, each by
        its transcript's matrix in one einsum that sums the table axis in
        order, as the full einsum over the block does; the others take
        exact zeros, which is what that einsum writes there. A BLAS
        product (``matmul``, ``tensordot``) would move report digits.
        """
        u = self._adjusters
        if u is None:
            return rows
        if not forward:
            u = u.conj().transpose(0, 2, 1)
        n, k = len(self.spec.alphabet), self.k
        t = rows.reshape(rows.shape[0], 2 * n, n**k, k, self.layout.dim_of("H"), -1)
        block = t[:, :, :, 0, :, ::2]
        w, s, f, i = np.nonzero((block != 0).any(axis=3))
        cols = np.einsum("cab,cb->ca", u[f], block[w, s, f, :, i])
        block[...] = 0
        block[w, s, f, :, i] = cols
        return t.reshape(rows.shape[0], -1)


def build_verifier(
    kind: str,
    spec: ProtocolSpec,
    x: Hashable,
    *,
    eps=None,
) -> VerifierMachine:
    """Construct one verifier kind for a statement.

    Args:
        kind: one of VERIFIER_KINDS. ``random_aborting`` holds its
            randomness R and flag table H as classical controls;
            ``superposition`` holds them coherently, next to the control
            qubit Cont whose 0 block never aborts.
        eps: predicate density of the flag table (rational).
    """
    if kind not in VERIFIER_KINDS:
        raise ValueError(f"unknown verifier kind {kind!r}")
    if eps is None:
        raise ValueError(f"the {kind} kind needs a predicate density")
    eps = Fraction(eps)

    regs: tuple[tuple[str, int], ...] = ()
    if kind == "superposition":
        if not 0 < eps <= 1:
            raise ValueError("the adjusting rotation needs a density in (0, 1]")
        regs = (("Cont", 2),)
    elif not 0 <= eps <= 1:
        raise ValueError("predicate density outside [0, 1]")
    layout = RegisterLayout(regs + _step_registers(spec))
    if layout.total_dim > MAX_STATE_DIM:
        raise ConfigError(
            f"machine dimension {layout.total_dim} exceeds the dense cap"
        )
    return VerifierMachine(kind, spec, x, layout, eps)


def _step_registers(spec: ProtocolSpec) -> tuple[tuple[str, int], ...]:
    """The Cont-free machine registers: R, the flag table H, Count, the
    transcript M1..Mk, B and M. They are the aborting kind's layout, and
    the coherent kind's after its leading Cont."""
    n, k = len(spec.alphabet), spec.rounds
    msgs = tuple((f"M{i}", n) for i in range(1, k + 1))
    return (("R", len(spec.randomness)), ("H", _table_dim(2, _prefix_count(n, k))),
            ("Count", k), *msgs, ("B", 2), ("M", n))


# spec -> {(_step_perms, x): (gated, ungated), (_adjuster_stack, eps): stack},
# the arrays no verifier kind or density changes; an entry goes with its spec
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared(build, spec: ProtocolSpec, arg):
    """``build(spec, arg)``, made once and kept while the spec lives."""
    memo = _SHARED.setdefault(spec, {})
    if (build, arg) not in memo:
        memo[build, arg] = build(spec, arg)
    return memo[build, arg]


def _step_perms(spec: ProtocolSpec, x: Hashable) -> tuple[np.ndarray, np.ndarray]:
    """(gated, ungated) basis permutations of one call on the Cont-free
    layout (``_step_registers``): count, swap, respond, decide.

    One numpy computation over a digit array per register serves both.
    In the gated one a zero flag silences the response and the
    acceptance bit, the flag of table position p being bit p of the H
    digit; the ungated one reads no flag. Both are read-only.
    """
    lay = RegisterLayout(_step_registers(spec))
    k, n = spec.rounds, len(spec.alphabet)
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    flat = np.arange(lay.total_dim, dtype=np.int64)
    dg = dict(zip(lay.names, lay._digits))

    # count and swap: the counted slot takes M, and M takes the slot
    j = dg["Count"]
    msgs = np.stack([dg[f"M{i}"] for i in range(1, k + 1)])
    m = msgs[j, flat]
    msgs[j, flat] = dg["M"]

    # table position of each prefix (shortest first)
    points = prefix_domain(spec.alphabet, k)
    code, offset, pf = np.zeros_like(flat), 0, []
    for i in range(k):
        code = code * n + msgs[i]
        pf.append(offset + code)
        offset += n ** (i + 1)
    pf = np.stack(pf)

    live = (dg["H"] >> pf) & 1 == 1
    # the response digit below round k, the acceptance bit at round k
    out = np.array([
        [
            aidx[spec.next_message(x, r, p)] if len(p) < k
            else int(bool(spec.decide(x, r, p)))
            for p in points
        ]
        for r in spec.randomness
    ])
    val = out[dg["R"], pf[j, flat]]

    # every register but M and B moves the same way in both
    final = j == k - 1
    new = dict(dg, Count=(j + 1) % k)
    new.update((f"M{i}", msgs[i - 1]) for i in range(1, k + 1))
    stride = dict(zip(lay.names, lay.strides))
    rest = sum(new[nm] * stride[nm] for nm in lay.names if nm not in ("M", "B"))

    def perm(resp, acc):
        moved = (rest
                 + np.where(final, m, (m + resp) % n) * stride["M"]
                 + np.where(final, dg["B"] ^ acc, dg["B"]) * stride["B"])
        moved.setflags(write=False)
        return moved

    gated = perm(np.where(live[j, flat], val, 0), val & live.all(axis=0))
    return gated, perm(val, val)


def _adjuster_stack(spec: ProtocolSpec, eps: Fraction) -> np.ndarray:
    """The coherent kind's table rotation of each transcript at density
    eps, stacked as (n**k, |H|, |H|) with transcript digit M1 fastest,
    read-only. The stack is complex, like the rows, so the einsum stays
    complex x complex."""
    dist = SparseOracleDist(prefix_domain(spec.alphabet, spec.rounds), eps)
    stack = np.stack([
        build_exact_adjuster(t[::-1], dist).matrix
        for t in itertools.product(spec.alphabet, repeat=spec.rounds)
    ], dtype=complex)
    stack.setflags(write=False)
    return stack


def _prefix_count(n: int, depth: int) -> int:
    """Number of message prefixes of length 1..depth over n letters."""
    return sum(n**i for i in range(1, depth + 1))


def _table_dim(base: int, points: int) -> int:
    """Dimension base**points of a control table register.

    The cap is checked in log space first, so a table too large to build
    is refused without ever forming the integer.
    """
    if base > 1 and points * math.log2(base) > math.log2(MAX_STATE_DIM):
        raise ConfigError(
            f"control table of {base}**{points} basis states exceeds the dense cap"
            f" {MAX_STATE_DIM}"
        )
    return base**points


def apply_step(
    machine: VerifierMachine, state: StateVector, inverse: bool = False
) -> StateVector:
    """One verifier call (or its inverse) on a state led by machine registers."""
    lay = state.layout
    mreg = machine.layout.registers
    if lay.registers[: len(mreg)] != mreg:
        raise ValueError("machine registers must lead the combined layout")
    rows = state.amplitudes.reshape(1, -1, machine.layout.total_dim)
    if inverse:
        rows = machine._apply_adjusters(rows[0].copy(), forward=False)[None]
    rows = _permute_rows(rows, machine._step_perm[None], inverse)[0]
    if not inverse:
        rows = machine._apply_adjusters(rows, forward=True)
    return StateVector(lay, rows.reshape(-1))


def build_aux(machine: VerifierMachine) -> dict[str, tuple[complex, ...]]:
    """The kind's canonical auxiliary state over its control registers, as
    one amplitude factor per control register."""
    factors = {}
    for reg, dim in machine.layout.registers:
        if reg == "Cont":
            factors[reg] = (1 / np.sqrt(2), 1 / np.sqrt(2))
        elif reg == "R":
            factors[reg] = (1 / np.sqrt(dim),) * dim
        elif reg == "H":
            vec = table_superposition(
                SparseOracleDist(machine._prefix_points, machine.eps)
            )
            factors[reg] = tuple(complex(v) for v in vec)
    return factors


def initial_state(
    machine: VerifierMachine, work: Sequence[tuple[str, int]] = ()
) -> StateVector:
    """The kind's canonical aux state on the control registers, zeros on the
    rest of the machine and on the work registers."""
    layout = RegisterLayout(machine.layout.registers + tuple(work))
    fax = build_aux(machine)
    factors = {}
    for reg, dim in layout.registers:
        if reg in fax:
            factors[reg] = fax[reg]
        else:
            e0 = np.zeros(dim, dtype=complex)
            e0[0] = 1.0
            factors[reg] = e0
    return StateVector.from_product(layout, factors)


def _prover_move_matrices(spec: ProtocolSpec, x, witness, u) -> list[np.ndarray]:
    """The honest moves as message-register permutations (two moves max)."""
    if spec.rounds > 2:
        raise ValueError("dense interaction supports at most two prover moves")
    n = len(spec.alphabet)
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    mats = [_swap0(n, aidx[spec.honest_prover(x, witness, u, ())])]
    if spec.rounds == 2:
        targets = [aidx[spec.honest_prover(x, witness, u, (a,))] for a in spec.alphabet]
        if len(set(targets)) != n:
            raise ValueError("honest second move is not a message permutation")
        second = np.zeros((n, n))
        second[targets, range(n)] = 1.0
        mats.append(second)
    return mats


def final_cont_state(spec: ProtocolSpec, x, witness, eps, u):
    """Exact accept statistics of the coherent kind without the dense state,
    against the honest prover on coins ``u``.

    Works branch by classical branch over r, tracking only the two
    predicate bits the interaction can reach; every other table point
    stays in the same product state in both control blocks and factors
    out. Two-move specs only, which keeps the reachable set at two.

    Returns:
        (Pr[B=1], reduced Cont state given B=1, Pr[Cont=1 | B=1]).
    """
    if spec.rounds != 2:
        raise ValueError("the reduced routine needs exactly two prover moves")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("the adjusting rotation needs a density in (0, 1]")
    se, sne = np.sqrt(float(eps)), np.sqrt(float(1 - eps))
    s2 = np.sqrt(2.0)
    weight = 1.0 / len(spec.randomness)
    total = 0.0
    rho = np.zeros((2, 2), dtype=complex)
    m1 = spec.honest_prover(x, witness, u, ())
    m2_ab = spec.honest_prover(x, witness, u, (spec.alphabet[0],))
    for r in spec.randomness:
        c = spec.next_message(x, r, (m1,))
        m2 = spec.honest_prover(x, witness, u, (c,))
        acc = int(bool(spec.decide(x, r, (m1, m2))))
        dist = SparseOracleDist(((m1,), (m1, m2)), eps)
        adj = build_exact_adjuster((m1, m2), dist).matrix @ table_superposition(dist)
        # amplitude per (Cont, bit at (m1,), bit at (m1, m2), second message, B)
        amps: dict[tuple, float] = {}
        for hflat in range(4):
            h1, h2 = hflat & 1, (hflat >> 1) & 1
            key = (0, h1, h2, m2, acc)
            amps[key] = amps.get(key, 0.0) + adj[hflat] / s2
            alpha = (se if h1 else sne) * (se if h2 else sne) / s2
            if h1:
                key = (1, 1, h2, m2, h2 & acc)
            else:
                key = (1, 0, h2, m2_ab, 0)
            amps[key] = amps.get(key, 0.0) + alpha
        rests: dict[tuple, list] = {}
        for (cont, h1, h2, mm, b), a in amps.items():
            if b != 1:
                continue
            rests.setdefault((h1, h2, mm), [0.0, 0.0])[cont] += a
        for pair in rests.values():
            vec = np.array(pair, dtype=complex)
            rho += weight * np.outer(vec, vec.conj())
            total += weight * float((vec.conj() @ vec).real)
    if total <= PROB_FLOOR:
        return 0.0, None, 0.0
    rho /= total
    return total, DensityOnRegister("Cont", rho), float(rho[1, 1].real)


@dataclass(frozen=True)
class Unitary:
    """Free unitary on visible registers (first listed fastest), checked when built."""

    registers: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "registers", tuple(self.registers))
        m = _check_unitary(np.array(self.matrix, dtype=complex))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CallVerifier:
    """One verifier invocation; inverse applies the conjugate step."""

    inverse: bool = False


@dataclass(frozen=True)
class Pad:
    """``pairs`` forward/inverse verifier call pairs as one step, billed as
    2·pairs calls. Each pair composes to the identity, so no row moves."""

    pairs: int

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, int) or self.pairs < 1:
            raise ValueError(f"a pad holds a whole number of call pairs, at least"
                             f" one, not {self.pairs!r}")


@dataclass(frozen=True)
class CallOracle:
    """One superposed query to the run's classical table."""

    in_register: str
    out_register: str


Step = Union[Unitary, CallVerifier, Pad, CallOracle]


@dataclass(frozen=True)
class QueryAlgorithm:
    """A fixed step list under a strict invocation budget."""

    name: str
    steps: tuple[Step, ...]
    budget: int
    work_registers: tuple[tuple[str, int], ...] = ()
    output_registers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "work_registers", tuple(self.work_registers))
        object.__setattr__(self, "output_registers", tuple(self.output_registers))
        if self.budget < 0:
            raise ValueError("budgets are nonnegative")
        if self.invocations > self.budget:
            raise ValueError(
                f"budget violation in strict mode: {self.invocations} calls"
                f" against budget {self.budget}"
            )

    @property
    def invocations(self) -> int:
        return sum(map(_calls, self.steps))

    @cached_property
    def _work_start(self) -> StateVector:
        """The start of a run without a machine: the work registers' basis
        state 0, built once per algorithm."""
        return StateVector.basis(RegisterLayout(self.work_registers))


@dataclass(frozen=True)
class ExpectedAlgorithm:
    """A stopping-rule mixture of strict lists; the budget holds on average.

    Expected invocations over half the budget raise ``ConfigError``: the
    budget is the experiment's configured q.
    """

    name: str
    branches: tuple[tuple[Fraction, QueryAlgorithm], ...]
    budget: int

    def __post_init__(self) -> None:
        br = tuple((Fraction(w), alg) for w, alg in self.branches)
        if not br or any(w <= 0 for w, _ in br):
            raise ValueError("branch weights must be positive")
        if sum(w for w, _ in br) != 1:
            raise ValueError("branch weights must sum to 1")
        object.__setattr__(self, "branches", br)
        if self.expected_invocations > Fraction(self.budget, 2):
            raise ConfigError(
                f"{self.name}: expected invocations {self.expected_invocations}"
                f" exceed half the budget {self.budget}"
            )

    @property
    def expected_invocations(self) -> Fraction:
        return sum(w * alg.invocations for w, alg in self.branches)


@dataclass(frozen=True)
class StrictRun:
    """The final rows of one strict ``run_query_algorithm`` run, stacked.

    ``weight`` is the run's stopping weight in an expected-mode mixture
    (1 for a strict simulator), and row i weighs ``weight * weights[i]``
    in the mixture. ``amplitudes`` is (rows, dim) over ``layout``; every
    row's squared norm is checked within ``ATOL_STATE`` in one pass when
    the run is built. Row i keeps its table ``oracles[i]`` (None in a
    run without one) and ``outcomes[i]``, a (label, domain position)
    pair per measured reprogram slot; the call count is its algorithm's bill.
    ``len(run)`` is the row count. The branches ``run_simulator`` makes
    with ``replace`` share one read-only amplitudes array.
    """

    weight: object
    weights: tuple
    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)
    oracles: tuple[Optional[ClassicalOracle], ...]
    outcomes: tuple[tuple[tuple[Hashable, int], ...], ...]
    invocations: int

    def __post_init__(self) -> None:
        if not len(self.oracles) == len(self.outcomes) == len(self.weights):
            raise ValueError("a run holds one table and one outcome tuple per row")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        shape = (len(self.weights), self.layout.total_dim)
        if amps.shape != shape:
            raise ValueError(f"row amplitudes {amps.shape} != {shape}")
        parts = amps.view(float)  # each row's real and imaginary parts
        off = np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0)
        if not off.max(initial=0.0) <= ATOL_STATE:  # NaN fails too
            i = int(np.flatnonzero(~(off <= ATOL_STATE))[0])
            n2 = float(np.vdot(amps[i], amps[i]).real)
            raise ValueError(f"state not normalized: squared norm {n2} in row {i}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __len__(self) -> int:
        return len(self.weights)

    def tensor(self) -> np.ndarray:
        """Read-only view shaped (rows, *dims[::-1])."""
        return self.amplitudes.reshape((len(self),) + self.layout.dims[::-1])

    def row_weight(self, i: int):
        """Row i's mixture weight, ``weight * weights[i]``."""
        return self.weight * self.weights[i]


def _calls(step: Step) -> int:
    """How many invocations a step is billed."""
    if isinstance(step, Pad):
        return 2 * step.pairs
    return int(isinstance(step, (CallVerifier, CallOracle)))


def _scale(weight, p: float):
    """Multiply a branch weight by a probability, keeping exact 0/1 exact."""
    if abs(p - 1.0) <= _EXACT_TOL:
        return weight
    return float(weight) * p


def _visible_registers(
    alg: QueryAlgorithm, machine_layout: RegisterLayout | None
) -> set[str]:
    """The registers an algorithm's steps may touch: its work registers,
    plus M when it runs against a machine of the given layout."""
    work = {nm for nm, _ in alg.work_registers}
    if machine_layout is None:
        if not work:
            raise ValueError("an algorithm without a machine needs work registers")
        visible = work
    else:
        clash = work & set(machine_layout.names)
        if clash:
            raise ValueError(f"work registers {sorted(clash)} shadow the machine")
        visible = work | {"M"}
    bad_out = set(alg.output_registers) - visible
    if bad_out:
        raise ValueError(f"output registers {sorted(bad_out)} are not visible")
    return visible


def _check_visible(step: Step, visible: set[str]) -> None:
    """Reject a unitary or a query on a register the steps cannot see."""
    if isinstance(step, Unitary):
        hidden = set(step.registers) - visible
    elif isinstance(step, CallOracle):
        hidden = {step.in_register, step.out_register} - visible
    else:
        return
    if hidden:
        raise ValueError(f"step touches verifier-internal registers {sorted(hidden)}")


def _row_outputs(run: StrictRun, registers: Sequence[str]):
    """(row, digits, weight) for every row of a run and every joint digit
    tuple of the named registers above ``PROB_FLOOR``, row-major and in
    digit order: one ``_register_probs`` call and one weight read per row."""
    axes = [1 + run.layout.axis_of(r) for r in registers]
    probs = _register_probs(run.tensor(), [0, *axes])
    hit = probs > PROB_FLOOR
    weights = [run.row_weight(i) for i in range(len(run))]
    for idx, p in zip(np.argwhere(hit).tolist(), probs[hit].tolist()):
        yield idx[0], tuple(idx[1:]), _scale(weights[idx[0]], p)


def output_distribution(run: StrictRun, registers: Sequence[str], key=None):
    """Joint digit distribution of named registers over a run's final rows,
    each key's terms added in row order. With ``key``, a term of row i and
    digits d is keyed ``key(i, d)`` instead, and dropped when that is None."""
    out: dict = {}
    for i, digits, w in _row_outputs(run, registers):
        k = digits if key is None else key(i, digits)
        if k is not None:
            out[k] = out.get(k, 0) + w
    return out


def _start_chunks(alg: QueryAlgorithm, items: Sequence) -> list:
    """``items`` cut into the start rows of successive runs of ``alg``
    against no verifier: as many to a run as keep start rows times state
    dimension within ``MAX_STATE_DIM``, and at least one. The cut is
    fixed before any run and counts start rows only: a row that a
    measured query splits ends as several."""
    per_run = max(1, MAX_STATE_DIM // alg._work_start.layout.total_dim)
    return [items[lo:lo + per_run] for lo in range(0, len(items), per_run)]


def _table_masses(alg: QueryAlgorithm, tables: Sequence[ClassicalOracle],
                  registers: Sequence[str], hit) -> list:
    """For each table of ``tables``, the mass of the plain run of ``alg``
    against that table whose digits on ``registers`` satisfy
    ``hit(digits)``: each table's terms added in row order, from 0.

    The distinct tables are the start rows of ``run_query_algorithm``
    runs, cut by ``_start_chunks``, and each final row's terms count for
    the table it kept, ``run.oracles``.
    """
    masses: dict = {}
    for chunk in _start_chunks(alg, list(dict.fromkeys(tables))):
        run = run_query_algorithm(alg, None, chunk)
        masses.update(output_distribution(
            run, registers, lambda i, digits: run.oracles[i] if hit(digits) else None))
    return [masses.get(t, 0) for t in tables]


def pr_register(runs: Sequence[StrictRun]):
    """Mixture probability that the decision register B reads 1 at the end.

    Exact (a Fraction) whenever every branch is classical in B; a float
    as soon as genuine amplitude splitting occurred. It is
    ``pr_joint_budget`` with no budget cut.
    """
    return pr_joint_budget(runs, math.inf)


def pr_budget(runs: Sequence[StrictRun], q: int):
    """Mixture probability of finishing within q invocations."""
    return sum(
        (run.row_weight(i) for run in runs if run.invocations <= q
         for i in range(len(run))),
        start=0,
    )


def _exact(value) -> bool:
    """Whether a weight is an int or a Fraction, so sums of it stay exact."""
    return isinstance(value, (int, Fraction))


def _per_array(runs: Sequence[StrictRun], read):
    """(run, ``read(run)``) for each run in order, ``read`` made once per
    distinct row array: the branches ``run_simulator`` makes with
    ``replace`` share their amplitudes, weights and layout, so they share
    one read. Keying on ids is safe within one call, since ``runs`` keeps
    every array alive, and the arrays are read-only."""
    memo: dict = {}
    for run in runs:
        key = (id(run.amplitudes), id(run.weights), id(run.layout))
        if key not in memo:
            memo[key] = read(run)
        yield run, memo[key]


def _b_ones(run: StrictRun):
    """The rows of a run where B reads 1 above ``_EXACT_TOL``, as (row, p)
    in row order from one reduction over the stacked rows, and the exact
    sum of their weights when there is one and each of them reads 1 with
    certainty and weighs an int or Fraction (else None)."""
    axis = 1 + run.layout.axis_of("B")
    ones = _register_probs(run.tensor(), [0, axis])[:, 1].tolist()
    hits = [(i, p) for i, p in enumerate(ones) if p > _EXACT_TOL]
    if hits and all(abs(p - 1.0) <= _EXACT_TOL and _exact(run.weights[i]) for i, p in hits):
        return hits, sum((run.weights[i] for i, _ in hits), start=0)
    return hits, None


def pr_joint_budget(runs: Sequence[StrictRun], q: float):
    """Mixture probability of {within q invocations and B = 1}.

    B's probabilities come from one reduction per distinct row array;
    the rows' terms are added in branch and row order, each row's weight
    kept exact when B reads 1 with certainty. While the total is exact,
    a branch whose B = 1 rows are all exact adds its stopping weight
    times their exact sum, which is the same Fraction (or int).
    """
    total = 0
    for run, (hits, inner) in _per_array([r for r in runs if r.invocations <= q], _b_ones):
        if inner is not None and _exact(total) and _exact(run.weight):
            total = total + run.weight * inner
            continue
        for i, p in hits:
            total = total + _scale(run.row_weight(i), p)
    return total


def _b_one_states(run: StrictRun):
    """(row, p, reduced Cont matrix) for each row of a run where B reads 1,
    in row order: one split of the stacked rows on B."""
    rows, outs, probs, posts = _split_rows(run.tensor(), run.layout.axis_of("B"))
    return [
        (i, p, partial_trace(StateVector(run.layout, post), "Cont").matrix)
        for i, o, p, post in zip(rows.tolist(), outs.tolist(), probs.tolist(), posts)
        if o == 1
    ]


def cont_density(runs: Sequence[StrictRun]):
    """(Pr[B = 1], reduced Cont state given B = 1) across all branches,
    each distinct row array split and traced once."""
    num = np.zeros((2, 2), dtype=complex)
    den = 0.0
    for run, states in _per_array(runs, _b_one_states):
        for i, p, rho in states:
            w = float(run.row_weight(i)) * p
            num += w * rho
            den += w
    if den <= PROB_FLOOR:
        return 0.0, None
    return den, DensityOnRegister("Cont", num / den)


def run_simulator(
    sim: Union[QueryAlgorithm, ExpectedAlgorithm],
    machine: VerifierMachine,
) -> tuple[StrictRun, ...]:
    """Exhaustive simulation: the exact output mixture of sim vs machine,
    started on the kind's canonical aux state, as one ``StrictRun`` per
    strict branch of sim, in its order, each with its stopping weight.

    The aborting kind's control registers commute with every
    simulator-visible action, so it is enumerated: every (R, H)
    assignment of its aux state is one row of an amplitude array that
    each strict branch runs once, and the rows are mixed with exact
    weights. The coherent kind runs as one dense row. A ``Pad`` moves no
    row, so branches whose other steps are the same step objects, over
    the same work and output registers, share one run: each gets its
    own ``StrictRun`` with its own weight and call count over the shared
    rows, tables and outcomes.
    """

    verifier = machine if machine.kind == "superposition" else machine._control_rows
    strict = sim.branches if isinstance(sim, ExpectedAlgorithm) else ((1, sim),)
    shared: dict[tuple, StrictRun] = {}
    runs = []
    for w, alg in strict:
        # steps compare by identity: a Unitary holds an array and has no hash
        moves = tuple(id(s) for s in alg.steps if not isinstance(s, Pad))
        key = (moves, alg.work_registers, alg.output_registers)
        if key in shared:
            run = replace(shared[key], weight=w, invocations=alg.invocations)
        else:
            run = shared[key] = run_query_algorithm(alg, verifier, weight=w)
        runs.append(run)
    return tuple(runs)


def run_query_algorithm(
    alg: QueryAlgorithm,
    verifier: VerifierMachine | _ControlRows | None = None,
    oracles: Sequence[ClassicalOracle | None] = (None,),
    reprogram: Sequence[Mapping[int, tuple[Hashable, int, Hashable]]] | None = None,
    weight=1,
) -> StrictRun:
    """One strict run of a step list over the rows of one amplitude array,
    returned as one ``StrictRun``: the one executor that every simulator
    run, table average and schedule run goes through.

    ``oracles`` holds one table, or None for a run without one, per
    start row, and at least one entry. Against no verifier each start
    row starts on the work registers' basis state 0. A run against a
    verifier takes one start row and no ``reprogram``, and only M among
    the machine's registers is visible to its steps. Against a machine
    the row starts on the kind's canonical aux state (``initial_state``),
    and a call is one ``apply_step``. Against the aborting kind's
    ``_ControlRows`` each control assignment is a row starting on basis
    state 0 of the layout without control registers, with the
    assignment's weight and the start row's table, and a call moves
    every row by its own permutation at once. Each row keeps its own
    weight, outcomes and table; a query is one ``quantum_query`` call per
    row, each on the run's one layout, which keeps the query's index
    arrays for every row. A ``Pad`` moves no row. The run's call count is
    ``alg.invocations``, and ``weight`` is its stopping weight.
    Every refusal but a measured point outside the table domain comes
    before any row is allocated, in step order.

    ``reprogram`` holds one mapping {ordinal: (label, timing, value)} per
    start row; ordinals count the run's queries from 1. This is the one
    place rows split. At a query, only the rows whose start row has a
    slot at its ordinal are measured on the query's in-register, each
    split in place into its outcomes above ``PROB_FLOOR``, in outcome
    order. Each is reprogrammed to its own slot's ``value`` at the
    measured point, before the answer (timing 0) or after it (timing 1),
    and records the point's domain position in its outcomes under
    ``label``. The other rows are answered plainly and keep their place.
    So the rows stay start-row-major, and each start row's rows come in
    the order of its run alone. Without ``reprogram`` no row looks up a
    slot.
    """
    if isinstance(oracles, (Mapping, ClassicalOracle)) or not all(
            t is None or isinstance(t, ClassicalOracle) for t in oracles):
        raise TypeError("oracles is a sequence of tables, one per start row,"
                        " each a ClassicalOracle or None")
    tables = list(oracles)
    slots = () if reprogram is None else tuple(reprogram)
    if not tables:
        raise ValueError("a run needs at least one start row")
    if reprogram is not None and len(slots) != len(tables):
        raise ValueError("one reprogram mapping per start row")
    if verifier is not None and (len(tables) != 1 or reprogram is not None):
        raise ValueError("a run against a verifier takes one start row and no"
                         " reprogram mapping")
    if alg.invocations > alg.budget:  # only a forged algorithm gets here
        raise RuntimeError("budget violation in strict mode")
    visible = _visible_registers(alg, None if verifier is None else verifier.layout)
    tableless = any(t is None for t in tables)
    for step in alg.steps:
        _check_visible(step, visible)
        if not isinstance(step, Step):
            raise TypeError(f"unknown step {step!r}")
        if verifier is None and isinstance(step, (CallVerifier, Pad)):
            raise ValueError("no verifier attached to this run")
        if tableless and isinstance(step, CallOracle):
            raise KeyError("a query in a run without a table")

    weights: list = [Fraction(1)] * len(tables)
    if verifier is None:
        start = alg._work_start
    elif isinstance(verifier, _ControlRows):  # the assignments share one table
        start = StateVector.basis(
            RegisterLayout(verifier.layout.registers + alg.work_registers))
        weights = list(verifier.weights)
        tables *= len(weights)
    else:
        start = initial_state(verifier, alg.work_registers)
    layout = start.layout
    shape = layout.dims[::-1]
    row = np.arange(len(weights))
    amps = np.repeat(start.amplitudes[None], row.size, axis=0)
    outcomes: list[tuple] = [()] * row.size
    queries = 0

    def collapse(t: np.ndarray, register: str, chosen: np.ndarray):
        """Split each row where the mask ``chosen`` is set into its outcomes
        on ``register``; a row not chosen keeps its place as one part of
        outcome -1 and probability 1."""
        nonlocal row, weights, outcomes, tables
        if chosen.all():
            b, o, p, t = _split_rows(t, layout.axis_of(register))
        else:
            # a chosen row has at least one outcome above the floor
            sb, so, sp, post = _split_rows(t[chosen], layout.axis_of(register))
            parts = np.ones(row.size, dtype=int)
            parts[chosen] = np.bincount(sb)
            b = np.repeat(np.arange(row.size), parts)
            split = chosen[b]
            t = t[b]
            t[split] = post
            o = np.full(b.size, -1)
            o[split] = so
            p = np.ones(b.size)
            p[split] = sp
        weights = [_scale(weights[i], float(pi)) for i, pi in zip(b, p)]
        outcomes = [outcomes[i] for i in b]
        tables = [tables[i] for i in b]
        row = row[b]
        return b, o, t

    def answer(t: np.ndarray, call: CallOracle) -> np.ndarray:
        return np.stack([
            quantum_query(
                StateVector(layout, a), tab, call.in_register, call.out_register
            ).amplitudes
            for a, tab in zip(t.reshape(row.size, -1), tables)
        ])

    def reprogram_rows(hits, when: int) -> None:
        for i, (_, timing, value), o in hits:
            if timing != when:
                continue
            tab = tables[i]
            if o >= len(tab.domain):
                raise ValueError("measured a query outside the table domain")
            tables[i] = tab.reprogram(tab.domain[o], value)

    for step in alg.steps:
        if isinstance(step, Pad):
            continue  # the pairs compose to the identity
        t = amps.reshape((row.size,) + shape)
        if isinstance(step, Unitary):
            t = _unitary_on_axes(t, layout, step.registers, step.matrix)
        elif isinstance(step, CallVerifier):
            if isinstance(verifier, _ControlRows):
                rows = t.reshape(row.size, -1, verifier.layout.total_dim)
                t = _permute_rows(rows, verifier.perms, step.inverse)
            else:  # the one row
                state = StateVector(layout, t.reshape(-1))
                t = apply_step(verifier, state, step.inverse).amplitudes
        elif not slots:
            t = answer(t, step)
        else:
            queries += 1
            here = [slots[r].get(queries) for r in row.tolist()]
            chosen = np.array([slot is not None for slot in here])
            hits = []  # (row, its slot, outcome) for every measured row
            if chosen.any():
                b, o, t = collapse(t, step.in_register, chosen)
                hits = [(n, here[i], oi) for n, (i, oi)
                        in enumerate(zip(b.tolist(), o.tolist())) if oi >= 0]
            reprogram_rows(hits, 0)
            t = answer(t, step)
            reprogram_rows(hits, 1)
            for n, (label, _, _), oi in hits:
                outcomes[n] += ((label, oi),)
        amps = np.ascontiguousarray(t).reshape(row.size, -1)
    return StrictRun(weight, tuple(weights), layout, amps, tuple(tables),
                     tuple(outcomes), alg.invocations)


def _swap0(n: int, i: int) -> np.ndarray:
    m = np.eye(n)
    if i:
        m[[0, i]] = m[[i, 0]]
    return m


def honest_wrapper(machine: VerifierMachine, witness) -> QueryAlgorithm:
    """The honest prover, on its first coins, as a strict k-call simulator."""
    spec = machine.spec
    u = spec.prover_randomness[0]
    steps: list[Step] = []
    for mat in _prover_move_matrices(spec, machine.x, witness, u):
        steps.append(Unitary(("M",), mat))
        steps.append(CallVerifier())
    return QueryAlgorithm("honest-wrapper", tuple(steps), budget=spec.rounds)


EXPECTED_MEMBERS = ("expected-honest", "expected-lazy", "expected-geometric")


def expected_wrapper(
    name: str, machine: VerifierMachine, witness, q: int
) -> ExpectedAlgorithm:
    """The named expected-budget honest variant at budget q.

    Each member's strict lists put one ``Pad(i)`` of i forward/inverse
    call pairs ahead of the honest wrapper's own step objects (none when
    i is 0), so the interaction statistics are untouched while the
    invocation count distribution becomes nontrivial. A pad moves no
    row, so the lists share one run of the honest steps, and a padded
    list is 2k + 1 steps at any q. Only the named member is built.
    Expected-lazy pads (q - 2k)/2 pairs, none below q = 2k. An unknown
    name and expected invocations over q/2 raise ``ConfigError``.
    """
    if name not in EXPECTED_MEMBERS:
        raise ConfigError(f"unknown expected-mode simulator {name!r}")
    base = honest_wrapper(machine, witness)
    k = machine.spec.rounds

    def padded(i: int) -> QueryAlgorithm:
        pads = (Pad(i),) if i else ()
        return QueryAlgorithm(f"honest-padded-{i}", pads + base.steps, budget=k + 2 * i)

    if name == "expected-honest":
        branches = ((Fraction(1), base),)
    elif name == "expected-lazy":
        spare = max(0, (q - 2 * k) // 2)
        branches = ((Fraction(1, 2), base), (Fraction(1, 2), padded(spare)))
    else:
        weights = [Fraction(1, 2 ** (i + 1)) for i in range(4)] + [Fraction(1, 16)]
        branches = tuple((w, padded(i)) for i, w in enumerate(weights))
    return ExpectedAlgorithm(name, branches, q)


def expected_wrappers(machine: VerifierMachine, witness, q: int) -> tuple[ExpectedAlgorithm, ...]:
    """``expected_wrapper`` of every name in ``EXPECTED_MEMBERS``, in that
    order. Below q = 2k expected-honest fails the budget check first."""
    return tuple(expected_wrapper(name, machine, witness, q) for name in EXPECTED_MEMBERS)


def oracle_zoo(domain: Sequence[Hashable]) -> tuple[QueryAlgorithm, ...]:
    """Strict algorithms against one binary table.

    Covers the shapes the reprogramming and puncturing arguments care
    about: no queries, classical point queries (plain, second-point,
    and adaptive), one uniform superposed query, and a two-query phase
    circuit whose output is sensitive to when answers change.
    """
    big = len(domain)
    s = 1 / np.sqrt(big)
    s2 = 1 / np.sqrt(2)
    uni = _householder_to([s] * big)
    minus = np.array([[s2, s2], [-s2, s2]])
    diff = 2.0 * np.full((big, big), 1.0 / big) - np.eye(big)
    q, a = ("Q", big), ("A", 2)
    q2, a2 = ("Q2", big), ("A2", 2)
    members = [
        QueryAlgorithm(
            "oq-none", (Unitary(("Q",), np.eye(big)),), 0, (q,), ("Q",)
        ),
        QueryAlgorithm(
            "oq-classical", (CallOracle("Q", "A"),), 1, (q, a), ("Q", "A")
        ),
        QueryAlgorithm(
            "oq-classical-second",
            (Unitary(("Q",), _swap0(big, min(1, big - 1))), CallOracle("Q", "A")),
            1,
            (q, a),
            ("Q", "A"),
        ),
        QueryAlgorithm(
            "oq-uniform",
            (Unitary(("Q",), uni), CallOracle("Q", "A")),
            1,
            (q, a),
            ("Q",),
        ),
        QueryAlgorithm(
            "oq-phase",
            (
                Unitary(("A",), minus),
                Unitary(("Q",), uni),
                CallOracle("Q", "A"),
                Unitary(("Q",), diff),
                CallOracle("Q", "A"),
                Unitary(("A",), minus.conj().T),
            ),
            2,
            (q, a),
            ("Q",),
        ),
    ]
    if big >= 3:
        hop = np.zeros((2 * big, 2 * big))
        for bit in range(2):
            perm = _swap0(big, (1 + bit) % big)
            for col in range(big):
                row = int(np.argmax(perm[:, col]))
                hop[bit + 2 * row, bit + 2 * col] = 1.0
        members.append(
            QueryAlgorithm(
                "oq-adaptive",
                (
                    CallOracle("Q", "A"),
                    Unitary(("A", "Q2"), hop),
                    CallOracle("Q2", "A2"),
                ),
                2,
                (q, a, q2, a2),
                ("Q2", "A2"),
            )
        )
    return tuple(members)


def ordered_zoo(alphabet: Sequence[Hashable]) -> tuple[QueryAlgorithm, ...]:
    """Query algorithms over a prefix-closed two-round domain.

    The inconsistent member queries a singleton prefix and then a pair
    that does not extend it, so any schedule measuring both slots
    produces prefix-inconsistent outcomes by construction.
    """
    if len(alphabet) < 2:
        raise ValueError("need at least two letters")
    dom = prefix_domain(alphabet, 2)
    big, n = len(dom), len(alphabet)
    pidx = {p: i for i, p in enumerate(dom)}
    s = 1 / np.sqrt(big)
    uni = _householder_to([s] * big)
    q1, a1 = ("Q1", big), ("A1", 2)
    q2, a2 = ("Q2", big), ("A2", 2)
    o1, o2 = ("O1", n), ("O2", n)

    def prep(reg, i):
        return Unitary((reg,), _swap0(n if reg.startswith("O") else big, i))

    consistent = QueryAlgorithm(
        "ord-classical",
        (
            prep("Q1", pidx[(alphabet[0],)]),
            CallOracle("Q1", "A1"),
            prep("Q2", pidx[(alphabet[0], alphabet[1])]),
            CallOracle("Q2", "A2"),
            prep("O2", 1),
        ),
        2,
        (q1, a1, q2, a2, o1, o2),
        ("O1", "O2"),
    )
    inconsistent = QueryAlgorithm(
        "ord-inconsistent",
        (
            prep("Q1", pidx[(alphabet[0],)]),
            CallOracle("Q1", "A1"),
            prep("Q2", pidx[(alphabet[1], alphabet[0])]),
            CallOracle("Q2", "A2"),
            prep("O1", 1),
        ),
        2,
        (q1, a1, q2, a2, o1, o2),
        ("O1", "O2"),
    )
    superposed = QueryAlgorithm(
        "ord-superposition",
        (
            Unitary(("Q1",), uni),
            CallOracle("Q1", "A1"),
            prep("O2", 1),
        ),
        1,
        (q1, a1, o1, o2),
        ("O1", "O2"),
    )
    silent = QueryAlgorithm(
        "ord-none", (prep("O2", 1),), 0, (o1, o2), ("O1", "O2")
    )
    return (consistent, inconsistent, superposed, silent)
