"""Adversarial verifier machines and black-box query algorithms.

A machine packages one of two verifier kinds as an explicit step unitary
over named registers: ``random_aborting``, which aborts on a zero bit of
a classical flag table, and ``superposition``, which holds that table
coherently. Each call is a basis permutation doing the
count/swap/respond bookkeeping, followed for the coherent kind by
transcript-controlled adjusting rotations on the table register. The
permutation is one vectorized numpy computation over per-register digit
arrays. (The paper's hash-challenge and response-oracle verifiers run as
classical query traces in ``pipeline``.) Simulators are step lists that
may call the machine forward or inverted, query named classical tables
in superposition, and measure visible registers; an executor runs them
branch by branch under strict invocation budgets and can hand single
queries to an interceptor. It applies ``Unitary`` steps, checked when
built, and ``qsim``'s one permutation kernel and one measurement split.
The aborting kind's control registers stay classical, so it is
simulated by enumerating every control assignment exactly and mixing
the resulting branches with rational weights. The
assignments are the rows of one amplitude array, so a strict branch
runs once for all of them: each row's permutation is a strided slice of
the unpinned machine's, a unitary is one tensordot over every row and a
measurement splits every row by outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from qromlab.hashfam import build_exact_adjuster, table_superposition
from qromlab.oracle import (
    ClassicalOracle,
    SparseOracleDist,
    prefix_domain,
    quantum_query,
)
from qromlab.protocol import ConfigError, ProductSpace, ProtocolSpec
# apply_unitary stays bound here: perfbench's span test checks every binding
from qromlab.qsim import (  # noqa: F401
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
    measure_register,
    partial_trace,
)

VERIFIER_KINDS = ("random_aborting", "superposition")
MAX_STATE_DIM = 2**17
_EXACT_TOL = 1e-12


def challenge_structure(spec: ProtocolSpec, x: Hashable):
    """Challenge alphabet and challenge-to-randomness chart of a spec.

    Verifies the public-coin structure directly rather than trusting
    the flag: the round-1 response may depend on the randomness only,
    and distinct randomness must yield distinct challenges. Only
    two-move specs are supported.

    A spec built by ``protocol.fold`` is checked exhaustively on its base
    and then lifted, without enumerating its own |A|·|R| pairs. Its
    next-message function is the base's applied coordinate by coordinate
    by construction, so the lift proves what the exhaustive check would:
    a product of injective charts is injective, and a product of
    message-blind responses is message-blind. Challenges come in the
    folded randomness order, as the exhaustive walk lists them.

    Returns:
        (challenges, chart) with challenges in first-appearance order
        and chart mapping each challenge tuple to its randomness label.
    """
    if spec.rounds != 2:
        raise ValueError("challenge extraction needs exactly two prover moves")
    if spec.fold_base is not None:
        # the base lists its i-th challenge for its i-th randomness, so the
        # i-th product challenge belongs to the i-th folded randomness
        base_cs, _ = challenge_structure(spec.fold_base, x)
        order = tuple(ProductSpace(base_cs, spec.fold_reps))
        return order, {(c,): r for c, r in zip(order, spec.randomness)}
    a0 = spec.alphabet[0]
    alpha = set(spec.alphabet)
    by_r: dict[Hashable, Hashable] = {}
    chart: dict[tuple, Hashable] = {}
    order: list[Hashable] = []
    for r in spec.randomness:
        c = spec.next_message(x, r, (a0,))
        if c not in alpha:
            raise ValueError(f"challenge {c!r} leaves the message alphabet")
        if (c,) in chart:
            raise ValueError("randomness does not map injectively onto challenges")
        by_r[r] = c
        chart[(c,)] = r
        order.append(c)
    for m1 in spec.alphabet:
        for r in spec.randomness:
            if spec.next_message(x, r, (m1,)) != by_r[r]:
                raise ValueError("round-1 response depends on the prover message")
    return tuple(order), chart


class _ControlRows(NamedTuple):
    """The classical control assignments of one machine, row by row."""

    fixed: tuple[dict, ...]  # the pinned control values of each row
    weights: tuple[Fraction, ...]
    perms: np.ndarray  # (rows, dim): each row's step permutation
    layout: RegisterLayout  # the machine layout without control registers


@dataclass(frozen=True)
class VerifierMachine:
    """One verifier kind bound to a statement, as an explicit step unitary.

    The layout orders control registers first (Cont, R, then the flag
    table H), the count/transcript/decision block next, and the message
    register M last. ``fixed`` pins control roles to classical values;
    pinned registers are dropped from the layout.

    The step never writes a control register, so the unpinned machine's
    permutation holds every pinned one: for the control index c among
    ctrl control values, the pinned permutation is
    ``(full[c::ctrl] - c) // ctrl``.
    """

    kind: str
    spec: ProtocolSpec
    x: Hashable
    layout: RegisterLayout
    output_register: tuple[str, ...]
    eps: Fraction
    fixed: tuple[tuple[str, object], ...] = ()

    @property
    def k(self) -> int:
        return self.spec.rounds

    def fixed_value(self, role: str):
        for name, value in self.fixed:
            if name == role:
                return value
        return None

    @cached_property
    def _prefix_points(self) -> tuple[tuple, ...]:
        return prefix_domain(self.spec.alphabet, self.k)

    @cached_property
    def _step_perm(self) -> np.ndarray:
        """Basis permutation of one call: count, swap, respond, decide.

        One numpy computation over a digit array per register. The flag
        of table position p is bit p of the H digit; a pinned table is
        read point by point.
        """
        lay, spec, x, k = self.layout, self.spec, self.x, self.k
        n = len(spec.alphabet)
        aidx = {a: i for i, a in enumerate(spec.alphabet)}
        flat = np.arange(lay.total_dim, dtype=np.int64)
        dg = {nm: (flat // s) % d for nm, d, s in zip(lay.names, lay.dims, lay.strides)}
        zero = np.zeros_like(flat)

        # count and swap: the counted slot takes M, and M takes the slot
        j = dg["Count"]
        msgs = np.stack([dg[f"M{i}"] for i in range(1, k + 1)])
        m = msgs[j, flat]
        msgs[j, flat] = dg["M"]

        # table position of each prefix (shortest first)
        points = self._prefix_points
        code, offset, pf = zero, 0, []
        for i in range(k):
            code = code * n + msgs[i]
            pf.append(offset + code)
            offset += n ** (i + 1)
        pf = np.stack(pf)

        rs = spec.randomness if "R" in dg else (self.fixed_value("R"),)
        if "H" in dg:
            live = (dg["H"] >> pf) & 1 == 1
        else:
            h = self.fixed_value("H")
            live = np.array([int(h(p)) for p in points])[pf] == 1
        if "Cont" in dg:  # only the Cont = 1 block aborts on a zero flag
            live |= dg["Cont"] != 1
        # the response digit below round k, the acceptance bit at round k
        out = np.array([
            [
                aidx[spec.next_message(x, r, p)] if len(p) < k
                else int(bool(spec.decide(x, r, p)))
                for p in points
            ]
            for r in rs
        ])
        val = out[dg.get("R", zero), pf[j, flat]]
        resp = np.where(live[j, flat], val, 0)
        acc = val & live.all(axis=0)

        final = j == k - 1
        new = dict(dg, Count=(j + 1) % k, M=np.where(final, m, (m + resp) % n))
        new["B"] = np.where(final, dg["B"] ^ acc, dg["B"])
        new.update((f"M{i}", msgs[i - 1]) for i in range(1, k + 1))
        return sum(new[nm] * s for nm, s in zip(lay.names, lay.strides))

    @cached_property
    def _control_rows(self) -> _ControlRows:
        """Every (R, H) assignment of the aborting kind as one row of a batch.

        R and H lead the layout and the step never writes them, so the
        permutation of control index c is the strided slice
        ``(full[c::ctrl] - c) // ctrl`` of this machine's permutation. The
        rows share this layout with its control registers dropped.
        """
        rs = self.spec.randomness
        dist = SparseOracleDist(self._prefix_points, self.eps)
        fixed, cs, weights = zip(*(
            ({"R": r, "H": h}, ri + len(rs) * _little_endian(h.values, 2), w / len(rs))
            for ri, r in enumerate(rs)
            for h, w in dist.enumerate_weighted()
        ))
        layout = RegisterLayout(self.layout.registers[self.layout.index("Count"):])
        ctrl = self.layout.total_dim // layout.total_dim
        cs = np.array(cs)
        full = self._step_perm.reshape(layout.total_dim, ctrl)
        perms = (full[:, cs].T - cs[:, None]) // ctrl
        perms.setflags(write=False)
        return _ControlRows(fixed, weights, perms, layout)

    @cached_property
    def _adjusters(self) -> Optional[np.ndarray]:
        """The coherent kind's table rotation of each transcript, stacked
        as (n**k, |H|, |H|) with transcript digit M1 fastest."""
        if self.kind != "superposition":
            return None
        dist = SparseOracleDist(self._prefix_points, self.eps)
        stack = np.stack([
            build_exact_adjuster(t[::-1], dist).matrix
            for t in itertools.product(self.spec.alphabet, repeat=self.k)
        ])
        stack.setflags(write=False)
        return stack

    def _apply_adjusters(self, rows: np.ndarray, forward: bool) -> np.ndarray:
        """Rotate the table axis of each just-finished Cont=0 block, in place.

        Each row is one machine state, registers first fastest, so it
        reshapes to (M·B, transcript, Count, H, R·Cont) and the blocks the
        rotations act on are the Count = 0, Cont = 0 slice.
        """
        u = self._adjusters
        if u is None:
            return rows
        if not forward:
            u = u.conj().transpose(0, 2, 1)
        n, k = len(self.spec.alphabet), self.k
        t = rows.reshape(rows.shape[0], 2 * n, n**k, k, self.layout.dim_of("H"), -1)
        block = t[:, :, :, 0, :, ::2]
        block[...] = np.einsum("fab,wsfbi->wsfai", u, block)
        return t.reshape(rows.shape[0], -1)


def build_verifier(
    kind: str,
    spec: ProtocolSpec,
    x: Hashable,
    *,
    eps=None,
    fixed: Mapping[str, object] | None = None,
) -> VerifierMachine:
    """Construct one verifier kind for a statement.

    Args:
        kind: one of VERIFIER_KINDS. ``random_aborting`` holds its
            randomness R and flag table H as classical controls;
            ``superposition`` holds them coherently, next to the control
            qubit Cont whose 0 block never aborts.
        eps: predicate density of the flag table (rational).
        fixed: classical values for the aborting kind's control roles
            ("R", "H"); pinned registers are dropped from the layout. The
            exhaustive simulator's per-assignment rows (``_control_rows``)
            equal these builds without making them.
    """
    if kind not in VERIFIER_KINDS:
        raise ValueError(f"unknown verifier kind {kind!r}")
    n, k = len(spec.alphabet), spec.rounds
    fx = dict(fixed or {})
    pins = {"R", "H"} if kind == "random_aborting" else set()
    if set(fx) - pins:
        raise ValueError(f"kind {kind} cannot pin {sorted(set(fx) - pins)}")
    if eps is None:
        raise ValueError(f"the {kind} kind needs a predicate density")
    eps = Fraction(eps)

    regs: list[tuple[str, int]] = []
    if kind == "superposition":
        if not 0 < eps <= 1:
            raise ValueError("the adjusting rotation needs a density in (0, 1]")
        regs.append(("Cont", 2))
    elif not 0 <= eps <= 1:
        raise ValueError("predicate density outside [0, 1]")
    if "R" not in fx:
        regs.append(("R", len(spec.randomness)))
    elif fx["R"] not in spec.randomness:
        raise ValueError("pinned randomness outside the protocol's coin space")
    if "H" not in fx:
        regs.append(("H", _table_dim(2, _prefix_count(n, k))))
    else:
        _check_table(fx["H"], prefix_domain(spec.alphabet, k), (0, 1))

    regs.append(("Count", k))
    regs += [(f"M{i}", n) for i in range(1, k + 1)]
    regs += [("B", 2), ("M", n)]
    layout = RegisterLayout(tuple(regs))
    if layout.total_dim > MAX_STATE_DIM:
        raise ConfigError(
            f"machine dimension {layout.total_dim} exceeds the dense cap"
        )
    out = ("Cont", "B") if kind == "superposition" else ("B",)
    fixed_items = tuple(sorted(fx.items(), key=lambda kv: kv[0]))
    return VerifierMachine(kind, spec, x, layout, out, eps, fixed_items)


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


def _little_endian(digits: Sequence[int], base: int) -> int:
    """Register digit of a table whose point i holds digit i (point 0 fastest)."""
    return sum(int(d) * base**i for i, d in enumerate(digits))


def _check_table(table: ClassicalOracle, domain, range_values) -> None:
    if not isinstance(table, ClassicalOracle):
        raise TypeError("pinned tables must be classical oracles")
    if table.domain != tuple(domain):
        raise ValueError("pinned table domain mismatch")
    if set(table.values) - set(range_values):
        raise ValueError("pinned table values outside the expected range")


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


@dataclass(frozen=True)
class AuxState:
    """A named auxiliary input: one amplitude factor per control register."""

    name: str
    factors: tuple[tuple[str, tuple[complex, ...]], ...]


_CANONICAL_AUX = {"random_aborting": "psi_eps", "superposition": "psi_tilde_eps"}


def build_aux(machine: VerifierMachine) -> AuxState:
    """The kind's canonical auxiliary state over its control registers."""
    factors = []
    for reg, dim in machine.layout.registers:
        if reg == "Cont":
            factors.append((reg, (1 / np.sqrt(2), 1 / np.sqrt(2))))
        elif reg == "R":
            factors.append((reg, (1 / np.sqrt(dim),) * dim))
        elif reg == "H":
            vec = table_superposition(
                SparseOracleDist(machine._prefix_points, machine.eps)
            )
            factors.append((reg, tuple(complex(v) for v in vec)))
    return AuxState(_CANONICAL_AUX[machine.kind], tuple(factors))


def initial_state(
    machine: VerifierMachine, work: Sequence[tuple[str, int]] = ()
) -> StateVector:
    """The kind's canonical aux state on the control registers, zeros on the
    rest of the machine and on the work registers."""
    layout = RegisterLayout(machine.layout.registers + tuple(work))
    fax = dict(build_aux(machine).factors)
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
    first = np.eye(n)
    i1 = aidx[spec.honest_prover(x, witness, u, ())]
    if i1:
        first[[0, i1]] = first[[i1, 0]]
    mats = [first]
    if spec.rounds == 2:
        targets = [aidx[spec.honest_prover(x, witness, u, (a,))] for a in spec.alphabet]
        if len(set(targets)) != n:
            raise ValueError("honest second move is not a message permutation")
        second = np.zeros((n, n))
        second[targets, range(n)] = 1.0
        mats.append(second)
    return mats


def final_cont_state(spec: ProtocolSpec, x, witness, eps, u=None):
    """Exact accept statistics of the coherent kind without the dense state.

    Works branch by classical branch over (r, u), tracking only the two
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
    us = list(spec.prover_randomness) if u is None else [u]
    se, sne = np.sqrt(float(eps)), np.sqrt(float(1 - eps))
    s2 = np.sqrt(2.0)
    weight = 1.0 / (len(spec.randomness) * len(us))
    total = 0.0
    rho = np.zeros((2, 2), dtype=complex)
    for r in spec.randomness:
        for uu in us:
            m1 = spec.honest_prover(x, witness, uu, ())
            c = spec.next_message(x, r, (m1,))
            m2 = spec.honest_prover(x, witness, uu, (c,))
            m2_ab = spec.honest_prover(x, witness, uu, (spec.alphabet[0],))
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
class CallOracle:
    """One superposed query to a named classical table."""

    name: str
    in_register: str
    out_register: str


@dataclass(frozen=True)
class Measure:
    """Computational-basis measurement of one visible register."""

    register: str


Step = Union[Unitary, CallVerifier, CallOracle, Measure]


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
        return sum(isinstance(s, (CallVerifier, CallOracle)) for s in self.steps)


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
class RunBranch:
    """One execution branch: weight, joint state, live tables, outcomes."""

    weight: object
    state: StateVector
    oracles: tuple[tuple[str, ClassicalOracle], ...] = ()
    outcomes: tuple[tuple[str, int], ...] = ()
    invocations: int = 0
    counts: tuple[tuple[str, int], ...] = ()

    def oracle(self, name: str) -> ClassicalOracle:
        for nm, tab in self.oracles:
            if nm == name:
                return tab
        raise KeyError(f"no oracle named {name!r}")

    def count(self, name: str) -> int:
        for nm, c in self.counts:
            if nm == name:
                return c
        return 0


def _scale(weight, p: float):
    """Multiply a branch weight by a probability, keeping exact 0/1 exact."""
    if abs(p - 1.0) <= _EXACT_TOL:
        return weight
    return float(weight) * p


def _bump(branch: RunBranch, name: str) -> RunBranch:
    d = dict(branch.counts)
    d[name] = d.get(name, 0) + 1
    return replace(
        branch, invocations=branch.invocations + 1, counts=tuple(sorted(d.items()))
    )


def set_branch_oracle(branch: RunBranch, name: str, table: ClassicalOracle) -> RunBranch:
    """Branch copy whose named table is replaced (reprogramming)."""
    if name not in dict(branch.oracles):
        raise KeyError(f"no oracle named {name!r}")
    return replace(
        branch,
        oracles=tuple((nm, table if nm == name else t) for nm, t in branch.oracles),
    )


def answer_query(branch: RunBranch, call: CallOracle) -> RunBranch:
    """Answer one query from the branch's table, bumping counts."""
    tab = branch.oracle(call.name)
    st = quantum_query(branch.state, tab, call.in_register, call.out_register)
    return replace(_bump(branch, call.name), state=st)


def measure_query_register(branch: RunBranch, call: CallOracle):
    """Collapse the query register, as (domain point, collapsed branch) pairs.

    The invocation count is not bumped; callers answer the query
    afterwards. Outcomes outside the table's domain encoding error out.
    """
    tab = branch.oracle(call.name)
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
    """Reject a unitary or a measurement on a register the steps cannot see."""
    if isinstance(step, Unitary):
        hidden = set(step.registers) - visible
        if hidden:
            raise ValueError(f"step touches verifier-internal registers {sorted(hidden)}")
    elif isinstance(step, Measure) and step.register not in visible:
        raise ValueError(
            f"measurement touches verifier-internal register {step.register!r}"
        )


def run_query_algorithm(
    alg: QueryAlgorithm,
    *,
    machine: VerifierMachine | None = None,
    oracles: Mapping[str, ClassicalOracle] | None = None,
    on_query: Callable[[RunBranch, CallOracle, int], Optional[list]] | None = None,
) -> list[RunBranch]:
    """Execute a step list exhaustively, returning every final branch.

    Args:
        alg: the algorithm (strict budget).
        machine: optional verifier; its registers lead the joint layout,
            its control registers start in the kind's canonical aux state
            (``initial_state``), and only M among them is visible to the
            algorithm's steps.
        oracles: named classical tables serving CallOracle steps.
        on_query: interceptor f(branch, call, ordinal) returning
            replacement branches (already answered) or None for the
            default answer; ordinals count per oracle name from 1.

    Returns:
        Final branches; weights stay exact fractions until some
        measurement splits amplitude, and are floats after.
    """
    work = tuple(alg.work_registers)
    visible = _visible_registers(alg, None if machine is None else machine.layout)
    if machine is not None:
        state = initial_state(machine, work)
    else:
        state = StateVector.basis(RegisterLayout(work))
    tables = tuple(sorted((oracles or {}).items()))
    branches = [RunBranch(Fraction(1), state, tables)]
    for step in alg.steps:
        _check_visible(step, visible)
        nxt: list[RunBranch] = []
        for br in branches:
            if isinstance(step, Unitary):
                lay = br.state.layout
                t = _unitary_on_axes(br.state.tensor(), lay, step.registers, step.matrix)
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
                    res = on_query(br, step, br.count(step.name) + 1)
                if res is None:
                    nxt.append(answer_query(br, step))
                else:
                    nxt.extend(res)
            else:
                raise TypeError(f"unknown step {step!r}")
        branches = nxt
    return branches


def output_distribution(branches: Sequence[RunBranch], registers: Sequence[str]):
    """Joint digit distribution of named registers over final branches."""
    out: dict[tuple[int, ...], object] = {}
    for br in branches:
        lay = br.state.layout
        marg = _register_probs(br.state.tensor(), [lay.axis_of(r) for r in registers])
        for idx in np.argwhere(marg > PROB_FLOOR):
            key = tuple(int(v) for v in idx)
            out[key] = out.get(key, 0) + _scale(br.weight, float(marg[tuple(idx)]))
    return out


@dataclass(frozen=True)
class SimulationResult:
    """All branches of one exhaustive simulator run."""

    kind: str
    branches: tuple[RunBranch, ...]


def pr_register(result: SimulationResult):
    """Mixture probability that the decision register B reads 1 at the end.

    Exact (a Fraction) whenever every branch is classical in B; a float
    as soon as genuine amplitude splitting occurred. It is
    ``pr_joint_budget`` with no budget cut.
    """
    return pr_joint_budget(result, math.inf)


def pr_budget(result: SimulationResult, q: int):
    """Mixture probability of finishing within q invocations."""
    return sum((br.weight for br in result.branches if br.invocations <= q), start=0)


def pr_joint_budget(result: SimulationResult, q: float):
    """Mixture probability of {within q invocations and B = 1}."""
    total = 0
    for br in result.branches:
        if br.invocations > q:
            continue
        axis = br.state.layout.axis_of("B")
        p = float(_register_probs(br.state.tensor(), [axis])[1])
        if p <= _EXACT_TOL:
            continue
        total = total + _scale(br.weight, p)
    return total


def cont_density(result: SimulationResult):
    """(Pr[B = 1], reduced Cont state given B = 1) across all branches."""
    num = np.zeros((2, 2), dtype=complex)
    den = 0.0
    for br in result.branches:
        for o, post, p in measure_register(br.state, "B"):
            if o != 1:
                continue
            w = float(br.weight) * p
            num += w * partial_trace(post, "Cont").matrix
            den += w
    if den <= PROB_FLOOR:
        return 0.0, None
    return den, DensityOnRegister("Cont", num / den)


def run_simulator(
    sim: Union[QueryAlgorithm, ExpectedAlgorithm],
    machine: VerifierMachine,
) -> SimulationResult:
    """Exhaustive simulation: the exact output mixture of sim vs machine,
    started on the kind's canonical aux state.

    The aborting kind's control registers commute with every
    simulator-visible action, so it is enumerated: every (R, H)
    assignment of its aux state is one row of an amplitude array that
    each strict branch runs once, and the rows are mixed with exact
    weights. The coherent kind and pinned machines run fully dense.
    Expected-mode simulators contribute each strict branch with its
    stopping weight.
    """
    if isinstance(sim, ExpectedAlgorithm):
        allb: list[RunBranch] = []
        for w, alg in sim.branches:
            sub = run_simulator(alg, machine)
            allb.extend(replace(b, weight=w * b.weight) for b in sub.branches)
        return SimulationResult(machine.kind, tuple(allb))
    kind = machine.kind
    if kind == "superposition" or machine.fixed:
        branches = run_query_algorithm(sim, machine=machine)
        return SimulationResult(kind, tuple(branches))
    return SimulationResult(kind, tuple(_run_rows(sim, machine._control_rows)))


def _run_rows(alg: QueryAlgorithm, table: _ControlRows) -> list[RunBranch]:
    """One strict run of every control assignment, as rows of one array.

    The rows start in the all-zero state, as a machine pinned to their
    assignment starts. A measurement splits each row into its outcomes
    above ``PROB_FLOOR``, in place and in outcome order, so the rows stay
    assignment-major and each assignment's branches come in the order
    ``run_query_algorithm`` lists them; each keeps its own weight, times
    the assignment's weight at the end.
    """
    visible = _visible_registers(alg, table.layout)
    layout = RegisterLayout(table.layout.registers + tuple(alg.work_registers))
    shape = layout.dims[::-1]
    row = np.arange(len(table.weights))
    amps = np.zeros((row.size, layout.total_dim), dtype=complex)
    amps[:, 0] = 1.0
    weights: list = [Fraction(1)] * row.size
    outcomes: list[tuple] = [()] * row.size
    calls = 0
    for step in alg.steps:
        _check_visible(step, visible)
        t = amps.reshape((row.size,) + shape)
        if isinstance(step, Unitary):
            t = _unitary_on_axes(t, layout, step.registers, step.matrix, lead=1)
        elif isinstance(step, Measure):
            b, o, p, t = _split_rows(t, layout.axis_of(step.register))
            weights = [_scale(weights[i], float(pi)) for i, pi in zip(b, p)]
            outcomes = [outcomes[i] + ((step.register, int(oi)),) for i, oi in zip(b, o)]
            row = row[b]
        elif isinstance(step, (CallVerifier, CallOracle)):
            if calls + 1 > alg.budget:
                raise RuntimeError("budget violation in strict mode")
            if isinstance(step, CallOracle):
                raise KeyError(f"no oracle named {step.name!r}")
            calls += 1
            rows = t.reshape(row.size, -1, table.layout.total_dim)
            t = _permute_rows(rows, table.perms[row], step.inverse)
        else:
            raise TypeError(f"unknown step {step!r}")
        amps = np.ascontiguousarray(t).reshape(row.size, -1)
    counts = (("verifier", calls),) if calls else ()
    return [
        RunBranch(
            table.weights[row[i]] * weights[i],
            StateVector(layout, amps[i]),
            (),
            outcomes[i],
            calls,
            counts,
        )
        for i in range(row.size)
    ]


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


def _expected_branches(
    machine: VerifierMachine, witness, q: int
) -> dict[str, tuple[tuple[Fraction, QueryAlgorithm], ...]]:
    """Strict branches of every expected-mode member, by member name."""
    base = honest_wrapper(machine, witness)
    k = machine.spec.rounds

    def padded(i: int) -> QueryAlgorithm:
        pads = (CallVerifier(), CallVerifier(inverse=True)) * i
        return QueryAlgorithm(f"honest-padded-{i}", pads + base.steps, budget=k + 2 * i)

    members = {"expected-honest": ((Fraction(1), base),)}
    spare = (q - 2 * k) // 2
    if spare >= 0:
        members["expected-lazy"] = (
            (Fraction(1, 2), base),
            (Fraction(1, 2), padded(spare)),
        )
    weights = [Fraction(1, 2 ** (i + 1)) for i in range(4)] + [Fraction(1, 16)]
    members["expected-geometric"] = tuple(
        (w, padded(i)) for i, w in enumerate(weights)
    )
    return members


def expected_wrappers(
    machine: VerifierMachine, witness, q: int
) -> tuple[ExpectedAlgorithm, ...]:
    """Expected-budget honest variants; padded call pairs cancel exactly.

    Each member's strict lists prepend i forward/inverse call pairs to
    the honest wrapper, so the interaction statistics are untouched
    while the invocation count distribution becomes nontrivial.
    """
    return tuple(
        ExpectedAlgorithm(name, branches, q)
        for name, branches in _expected_branches(machine, witness, q).items()
    )


def _prep_column(dim: int, vec) -> np.ndarray:
    """A real reflection sending basis state 0 to the given unit vector."""
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    e0 = np.zeros(dim)
    e0[0] = 1.0
    u = e0 - v
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        return np.eye(dim)
    u = u / nrm
    return np.eye(dim) - 2.0 * np.outer(u, u)


def oracle_zoo(domain: Sequence[Hashable], name: str = "h") -> tuple[QueryAlgorithm, ...]:
    """Strict algorithms against one named binary table.

    Covers the shapes the reprogramming and puncturing arguments care
    about: no queries, classical point queries (plain, second-point,
    and adaptive), one uniform superposed query, and a two-query phase
    circuit whose output is sensitive to when answers change.
    """
    big = len(domain)
    s = 1 / np.sqrt(big)
    s2 = 1 / np.sqrt(2)
    uni = _prep_column(big, [s] * big)
    minus = np.array([[s2, s2], [-s2, s2]])
    diff = 2.0 * np.full((big, big), 1.0 / big) - np.eye(big)
    q, a = ("Q", big), ("A", 2)
    q2, a2 = ("Q2", big), ("A2", 2)
    members = [
        QueryAlgorithm(
            "oq-none", (Unitary(("Q",), np.eye(big)),), 0, (q,), ("Q",)
        ),
        QueryAlgorithm(
            "oq-classical", (CallOracle(name, "Q", "A"),), 1, (q, a), ("Q", "A")
        ),
        QueryAlgorithm(
            "oq-classical-second",
            (Unitary(("Q",), _swap0(big, min(1, big - 1))), CallOracle(name, "Q", "A")),
            1,
            (q, a),
            ("Q", "A"),
        ),
        QueryAlgorithm(
            "oq-uniform",
            (Unitary(("Q",), uni), CallOracle(name, "Q", "A")),
            1,
            (q, a),
            ("Q",),
        ),
        QueryAlgorithm(
            "oq-phase",
            (
                Unitary(("A",), minus),
                Unitary(("Q",), uni),
                CallOracle(name, "Q", "A"),
                Unitary(("Q",), diff),
                CallOracle(name, "Q", "A"),
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
                    CallOracle(name, "Q", "A"),
                    Unitary(("A", "Q2"), hop),
                    CallOracle(name, "Q2", "A2"),
                ),
                2,
                (q, a, q2, a2),
                ("Q2", "A2"),
            )
        )
    return tuple(members)


def ordered_zoo(alphabet: Sequence[Hashable], name: str = "h") -> tuple[QueryAlgorithm, ...]:
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
    uni = _prep_column(big, [s] * big)
    q1, a1 = ("Q1", big), ("A1", 2)
    q2, a2 = ("Q2", big), ("A2", 2)
    o1, o2 = ("O1", n), ("O2", n)

    def prep(reg, i):
        return Unitary((reg,), _swap0(n if reg.startswith("O") else big, i))

    consistent = QueryAlgorithm(
        "ord-classical",
        (
            prep("Q1", pidx[(alphabet[0],)]),
            CallOracle(name, "Q1", "A1"),
            prep("Q2", pidx[(alphabet[0], alphabet[1])]),
            CallOracle(name, "Q2", "A2"),
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
            CallOracle(name, "Q1", "A1"),
            prep("Q2", pidx[(alphabet[1], alphabet[0])]),
            CallOracle(name, "Q2", "A2"),
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
            CallOracle(name, "Q1", "A1"),
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
