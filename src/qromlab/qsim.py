"""Dense state-vector core: named registers, unitaries, measurement, SWAP test.

Register convention: a layout is an ordered tuple of (name, dimension)
registers and basis indices are mixed-radix little-endian: register 0
varies fastest. numpy stores C-order tensors with the *last* axis
fastest, so internally a state reshapes to ``dims[::-1]`` and register
``i`` lives on tensor axis ``n-1-i``. All public operations return new
values; amplitude buffers are frozen on construction.

Measurement is exhaustive: it returns every branch with its exact
probability, and nothing is sampled. Branches below ``PROB_FLOOR`` are
treated as numerically zero. One kernel moves amplitudes by a basis
permutation given as an index vector (``_permute_rows``), one split
measures (``_split_rows``), and ``_check_unitary`` checks each general
unitary once: when it is built, or when ``apply_unitary`` is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Mapping, Sequence, Union

import numpy as np

ATOL_UNITARY = 1e-9
ATOL_STATE = 1e-8
PROB_FLOOR = 1e-14
RANK1_FTOL = 1e-12
_RANK1_ROWS = 32  # rows per block of the rank-1 residual

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers defining one basis-index space."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        regs = tuple((str(n), int(d)) for n, d in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        if any(d < 1 for _, d in regs):
            raise ValueError("register dimensions must be >= 1")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.registers)

    @cached_property
    def total_dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # little-endian: stride of register 0 is 1
        out, acc = [], 1
        for d in self.dims:
            out.append(acc)
            acc *= d
        return tuple(out)

    @cached_property
    def _digits(self) -> tuple[np.ndarray, ...]:
        """Each register's digit of every flat basis index, in register
        order, built once per layout and read-only."""
        flat = np.arange(self.total_dim)
        out = tuple(flat // s % d for d, s in zip(self.dims, self.strides))
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def _query_axes(self) -> dict:
        """``oracle.quantum_query``'s index arrays on this layout object (not
        an equal one), by registers and table shape, built on first use."""
        return {}

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no register named {name!r}") from None

    def dim_of(self, name: str) -> int:
        return self.dims[self.index(name)]

    def axis_of(self, name: str) -> int:
        """Tensor axis of a register in the reversed-dims reshape."""
        return len(self.registers) - 1 - self.index(name)

    def encode(self, digits: Union[Mapping[str, int], Sequence[int]]) -> int:
        """Flat basis index of an assignment (unnamed registers read 0)."""
        if isinstance(digits, Mapping):
            unknown = set(digits) - set(self.names)
            if unknown:
                raise KeyError(f"unknown registers {sorted(unknown)}")
            digits = [digits.get(n, 0) for n in self.names]
        flat = 0
        for val, dim, stride in zip(digits, self.dims, self.strides, strict=True):
            if not 0 <= val < dim:
                raise ValueError(f"digit {val} out of range for dimension {dim}")
            flat += val * stride
        return flat


@dataclass(frozen=True)
class StateVector:
    """Immutable normalized amplitude vector over a RegisterLayout."""

    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude length {amps.size} != layout dimension {self.layout.total_dim}"
            )
        n2 = float(np.vdot(amps, amps).real)
        if not abs(n2 - 1.0) <= ATOL_STATE:  # NaN fails too
            raise ValueError(f"state not normalized: squared norm {n2}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(
        cls, layout: RegisterLayout, digits: Union[Mapping[str, int], Sequence[int], int] = 0
    ) -> "StateVector":
        flat = digits if isinstance(digits, int) else layout.encode(digits)
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[flat] = 1.0
        return cls(layout, amps)

    @classmethod
    def from_product(
        cls, layout: RegisterLayout, factors: Mapping[str, Sequence[complex]]
    ) -> "StateVector":
        """Tensor product of one normalized factor per register."""
        if set(factors) != set(layout.names):
            raise KeyError("factors must cover every register exactly")
        arrs = []
        for name in reversed(layout.names):
            a = np.asarray(factors[name], dtype=complex)
            if a.shape != (layout.dim_of(name),):
                raise ValueError(f"factor for {name!r} has wrong length")
            arrs.append(a)
        tensor = reduce(np.multiply.outer, arrs) if len(arrs) > 1 else arrs[0]
        return cls(layout, np.asarray(tensor).reshape(-1))

    def tensor(self) -> np.ndarray:
        """Read-only view shaped dims[::-1] (register i on axis n-1-i)."""
        return self.amplitudes.reshape(self.layout.dims[::-1])


@dataclass(frozen=True)
class DensityOnRegister:
    """Density matrix attributed to a single named register.

    Validation: finite entries, square, Hermitian within 1e-10, unit
    trace within 1e-9, and no eigenvalue below -1e-10. A square matrix
    first gets the rank-1 certificate: with j the largest diagonal entry,
    0 < m_jj <= 2 and v = m[:, j] / sqrt(m_jj), it holds when
    ||m - v v^H||_F <= RANK1_FTOL, summed over blocks of rows with no
    d x d temporary. The computed v v^H is Hermitian to rounding
    (< 1e-15), so m is Hermitian within 3 * RANK1_FTOL, and by Weyl's
    inequality no eigenvalue is below -sqrt(2) * RANK1_FTOL: both far
    inside 1e-10. (A larger m_jj fails the trace check anyway.) A NaN or
    infinite entry makes the residual NaN or infinite, so a certified m
    is finite too. A certified m thus runs only the trace check; any
    other input runs every check in the order above, each rejection
    with its own message. The certified v is kept as the factor
    ``trace_distance`` reads; any other input keeps none.
    """

    register: str
    matrix: np.ndarray = field(repr=False)
    _factor: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        square = m.ndim == 2 and m.shape[0] == m.shape[1]
        factor = _rank1_factor(m) if square else None
        if factor is None:
            if not np.isfinite(m).all():
                raise ValueError("density matrix has a non-finite entry")
            if not square:
                raise ValueError("density matrix must be square")
            if np.abs(m - m.conj().T).max(initial=0.0) > 1e-10:
                raise ValueError("density matrix not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError(f"density trace {np.trace(m).real} not 1")
        if factor is None and np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix has eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _rank1_factor(m: np.ndarray) -> np.ndarray | None:
    """v with ||m - v v^H||_F <= RANK1_FTOL, or None when there is none.

    The squared residual is summed over blocks of ``_RANK1_ROWS`` rows in
    one reused buffer, and the scan stops at the first block that takes
    it past RANK1_FTOL**2 (a NaN fails the same comparison).
    """
    d = len(m)
    if d == 0:
        return None
    diag = m.diagonal().real
    j = int(np.argmax(diag))
    if not 0 < diag[j] <= 2:
        return None
    buf = np.empty((min(_RANK1_ROWS, d), d), dtype=complex)
    acc = 0.0
    # a non-finite m is rejected by a NaN or infinite residual, silently
    with np.errstate(invalid="ignore", over="ignore"):
        v = m[:, j] / np.sqrt(diag[j])
        vh = v.conj()
        for i in range(0, d, _RANK1_ROWS):
            rows = v[i : i + _RANK1_ROWS]
            b = buf[: len(rows)]
            np.multiply.outer(rows, vh, out=b)
            np.subtract(m[i : i + len(rows)], b, out=b)
            acc += np.vdot(b, b).real
            if not acc <= RANK1_FTOL**2:
                return None
    v.setflags(write=False)
    return v


def _unitary_defect(u: np.ndarray) -> float:
    """max |U†U - I|, entrywise."""
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())


def _check_unitary(u, dtype=complex) -> np.ndarray:
    """``u`` as a ``dtype`` matrix (None keeps its own), checked unitary within 1e-9."""
    u = np.asarray(u, dtype=dtype)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary shape {u.shape} is not square")
    if _unitary_defect(u) > ATOL_UNITARY:
        raise ValueError("matrix is not unitary within 1e-9")
    return u


def apply_unitary(
    state: StateVector, target_registers: Sequence[str], u: np.ndarray
) -> StateVector:
    """Apply ``u`` to the named registers (identity elsewhere).

    Args:
        state: input state.
        target_registers: register names, first name fastest-varying in
            ``u``'s basis ordering (same little-endian convention as the
            layout itself).
        u: square matrix over the product of the target dimensions;
            checked unitary to 1e-9.

    Returns:
        The transformed state on the same layout.
    """
    u = _check_unitary(u)
    t = _unitary_on_axes(state.tensor()[None], state.layout, target_registers, u)[0]
    return StateVector(state.layout, np.ascontiguousarray(t).reshape(-1))


def _unitary_on_axes(
    t: np.ndarray,
    layout: RegisterLayout,
    target_registers: Sequence[str],
    u: np.ndarray,
) -> np.ndarray:
    """``u``, a complex matrix already checked unitary, on the named registers
    of every row of ``t``, shaped (rows, *dims[::-1]).

    One stacked ``np.matmul``: each row's target axes move to the front
    and the row becomes the (block, rest) matrix a one-row
    ``np.tensordot`` hands to BLAS, so no row depends on the others.
    """
    targets = list(target_registers)
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target register")
    dims_t = [layout.dim_of(n) for n in targets]
    block = 1
    for d in dims_t:
        block *= d
    if u.shape != (block, block):
        raise ValueError(f"unitary shape {u.shape} != ({block}, {block})")

    # u's basis runs over the targets last-listed slowest, as the axes do
    axes = [1 + layout.axis_of(n) for n in reversed(targets)]
    rest = [a for a in range(1, t.ndim) if a not in axes]
    order = [0, *axes, *rest]
    moved = t.transpose(order)
    out = np.matmul(u, moved.reshape(t.shape[0], block, -1)).reshape(moved.shape)
    return out.transpose(sorted(range(t.ndim), key=order.__getitem__))


def _register_probs(t: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Joint outcome probabilities of the registers on some axes of a state
    tensor, one result axis per entry of ``axes`` in the order given."""
    sum_axes = tuple(a for a in range(t.ndim) if a not in axes)
    probs = np.abs(t) ** 2
    probs = probs.sum(axis=sum_axes) if sum_axes else probs
    return np.transpose(probs, [sorted(axes).index(a) for a in axes])


def _split_rows(t: np.ndarray, axis: int):
    """Each row's outcomes above ``PROB_FLOOR`` on tensor axis ``axis`` of a
    row, row-major and in outcome order, as (rows, outcomes, probabilities,
    normalised post-states); ``t`` is (rows, *dims[::-1]). The outcome
    probabilities of every row are one ``_register_probs`` reduction."""
    probs = _register_probs(t, [0, axis + 1])
    b, o = np.nonzero(probs > PROB_FLOOR)
    p = probs[b, o]
    lead = (slice(None),) * axis
    post = np.zeros((b.size,) + t.shape[1:], dtype=complex)
    scale = np.sqrt(p).reshape((-1,) + (1,) * (t.ndim - 2))
    post[(np.arange(b.size),) + lead + (o,)] = t[(b,) + lead + (o,)] / scale
    return b, o, p, post


def measure_register(state: StateVector, register: str):
    """Projective measurement of one register in the computational basis.

    Returns every branch as a list of (outcome, post_state, probability)
    with probabilities summing to 1; outcomes at or below
    ``PROB_FLOOR`` are dropped.
    """
    layout = state.layout
    _, outs, probs, posts = _split_rows(state.tensor()[None], layout.axis_of(register))
    return [
        (int(o), StateVector(layout, post.reshape(-1)), float(p))
        for o, p, post in zip(outs, probs, posts)
    ]


def _permute_rows(rows: np.ndarray, perms: np.ndarray, inverse: bool) -> np.ndarray:
    """Move amplitudes by a basis permutation: ``rows`` is (rows, work, dim)
    and ``perms`` (rows, dim), or (1, dim) for one permutation of every
    row. A forward call scatters amplitude i of a row to ``perm[i]``, an
    inverse call gathers it back. One permutation indexes the last axis,
    and one per row a flat index of every amplitude."""
    if len(perms) == 1:
        if inverse:
            return rows.take(perms[0], axis=2)
        out = np.empty(rows.shape, rows.dtype)
        out[..., perms[0]] = rows
        return out
    idx = perms[:, None] + np.arange(0, rows.size, rows.shape[2]).reshape(*rows.shape[:2], 1)
    if inverse:
        return rows.reshape(-1).take(idx)
    out = np.empty(rows.shape, rows.dtype)
    out.reshape(-1)[idx] = rows
    return out


def partial_trace(state: StateVector, keep: str) -> DensityOnRegister:
    """Reduced density matrix of one register, tracing out the rest."""
    layout = state.layout
    axis = layout.axis_of(keep)
    t = np.moveaxis(state.tensor(), axis, 0)
    m = t.reshape(layout.dim_of(keep), -1)
    return DensityOnRegister(keep, m @ m.conj().T)


def trace_distance(a: DensityOnRegister, b: DensityOnRegister) -> float:
    """(1/2) sum of absolute eigenvalues of (a - b).

    For two rank-1 factors v, w at d > 2, a - b lives on span{v, w}:
    with [v w] = QR, its nonzero eigenvalues are those of the 2x2 matrix
    r1 r1^H - r2 r2^H. At d <= 2 the dense route is already that small.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    if a.dim > 2 and a._factor is not None and b._factor is not None:
        r = np.linalg.qr(np.column_stack((a._factor, b._factor)), mode="r")
        diff = np.outer(r[:, 0], r[:, 0].conj()) - np.outer(r[:, 1], r[:, 1].conj())
    else:
        diff = a.matrix - b.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def swap_test(rho: DensityOnRegister, sigma: DensityOnRegister) -> float:
    """Acceptance probability (1 + Tr(rho sigma)) / 2, computed directly."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch {rho.dim} != {sigma.dim}")
    return float((1.0 + np.trace(rho.matrix @ sigma.matrix).real) / 2.0)


def swap_test_circuit(rho: DensityOnRegister, sigma: DensityOnRegister) -> float:
    """SWAP-test acceptance via the explicit ancilla circuit.

    Pure inputs run through Hadamard / controlled-SWAP / Hadamard and
    exhaustive ancilla measurement; mixed inputs are eigendecomposed and
    the pure-state circuit is averaged over the product mixture.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch {rho.dim} != {sigma.dim}")
    dim = rho.dim
    layout = RegisterLayout((("anc", 2), ("a", dim), ("b", dim)))
    flat = np.arange(layout.total_dim)
    anc, ia, ib = layout._digits
    cswap = np.where(anc == 1, 1 + 2 * ib + 2 * dim * ia, flat)[None]

    def pure_accept(u: np.ndarray, v: np.ndarray) -> float:
        st = StateVector.from_product(layout, {"anc": [1, 0], "a": u, "b": v})
        st = apply_unitary(st, ["anc"], _HADAMARD)
        amps = _permute_rows(st.amplitudes.reshape(1, 1, -1), cswap, False)
        st = StateVector(layout, amps.reshape(-1))
        st = apply_unitary(st, ["anc"], _HADAMARD)
        branches = measure_register(st, "anc")
        return sum(p for o, _, p in branches if o == 0)

    pr, ur = np.linalg.eigh(rho.matrix)
    ps, us = np.linalg.eigh(sigma.matrix)
    accept = 0.0
    for i, pi in enumerate(pr):
        if pi <= PROB_FLOOR:
            continue
        for j, qj in enumerate(ps):
            if qj <= PROB_FLOOR:
                continue
            accept += float(pi) * float(qj) * pure_accept(ur[:, i], us[:, j])
    return accept
