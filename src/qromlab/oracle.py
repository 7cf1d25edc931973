"""Finite classical function tables with quantum access and sparse enumeration.

Tables are value types: reprogramming returns a new oracle, so
interleaved experiment branches never alias. Quantum access embeds a
table as the permutation |x, y> -> |x, y + f(x)> where x indexes the
domain tuple by position, y indexes the range tuple, and + is addition
mod |range| (XOR when the range is binary). Basis states beyond the
encoded domain/range act as identity, keeping the embedding unitary on
oversized registers. A query is one index vector over the whole state,
applied by ``qsim``'s permutation kernel; its digit arrays are kept on
the register layout and its shift vector on the table.

Probability weights for the sparse distribution are exact rationals;
only per-table acceptance probabilities are floats. That keeps
epsilon-polynomials (which can sit near 1e-18 at the theoretical
epsilon) from underflowing inside an average.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from qromlab.protocol import ConfigError
# apply_unitary stays bound here: perfbench's span test checks every binding
from qromlab.qsim import StateVector, _permute_rows, apply_unitary  # noqa: F401

MAX_SPARSE_DOMAIN = 24


def prefix_domain(alphabet: Sequence[Hashable], k: int) -> tuple[tuple, ...]:
    """All message prefixes (m_1..m_i) for 1 <= i <= k, shortest first.

    This ordering is the one canonical encoding of predicate-table
    domains; every module indexing H-bits by domain position relies on it.
    """
    out: list[tuple] = []
    for i in range(1, k + 1):
        out.extend(itertools.product(alphabet, repeat=i))
    return tuple(out)


def prefixes(m: Sequence[Hashable]) -> tuple[tuple, ...]:
    """The nonempty prefixes of a transcript, shortest first."""
    return tuple(tuple(m[:i]) for i in range(1, len(m) + 1))


@dataclass(frozen=True)
class ClassicalOracle:
    """Total function table over an ordered finite domain."""

    domain: tuple[Hashable, ...]
    range_values: tuple[Hashable, ...]
    values: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain points must be distinct")
        if len(set(self.range_values)) != len(self.range_values):
            raise ValueError("range values must be distinct")
        if len(self.values) != len(self.domain):
            raise ValueError("values must cover the domain exactly")
        bad = [v for v in self.values if v not in self.range_values]
        if bad:
            raise ValueError(f"values {bad} outside the range")

    @classmethod
    def constant(
        cls,
        domain: Sequence[Hashable],
        range_values: Sequence[Hashable],
        value: Hashable | None = None,
    ) -> "ClassicalOracle":
        """Table sending every point to ``value`` (default: first range value)."""
        rng = tuple(range_values)
        v = rng[0] if value is None else value
        return cls(tuple(domain), rng, (v,) * len(domain))

    @cached_property
    def _pos(self) -> dict[Hashable, int]:
        return {p: i for i, p in enumerate(self.domain)}

    @cached_property
    def _rpos(self) -> dict[Hashable, int]:
        return {v: i for i, v in enumerate(self.range_values)}

    @cached_property
    def _shift(self) -> np.ndarray:
        """Range index of f(p) for each domain point p, in domain order:
        the addend of quantum_query, built once per table."""
        shift = np.array([self.value_index(p) for p in self.domain], dtype=np.intp)
        shift.setflags(write=False)
        return shift

    def __call__(self, point: Hashable) -> Hashable:
        return self.values[self._pos[point]]

    def value_index(self, point: Hashable) -> int:
        """Range index of f(point), as seen by quantum_query."""
        return self._rpos[self.values[self._pos[point]]]

    def reprogram(self, point: Hashable, new_value: Hashable) -> "ClassicalOracle":
        """New table differing from this one at exactly ``point``."""
        if point not in self._pos:
            raise KeyError(f"point {point!r} outside the domain")
        if new_value not in self._rpos:
            raise ValueError(f"value {new_value!r} outside the range")
        vals = list(self.values)
        vals[self._pos[point]] = new_value
        return ClassicalOracle(self.domain, self.range_values, tuple(vals))


def quantum_query(
    state: StateVector,
    oracle: ClassicalOracle,
    in_register: str,
    out_register: str,
) -> StateVector:
    """Apply |x, y> -> |x, y + f(x) mod |range|> in superposition.

    The in/out registers must be at least as large as the domain/range
    encodings; surplus basis states pass through untouched. Self-inverse
    whenever |range| = 2 (XOR).
    """
    lay = state.layout
    d_in, d_out = lay.dim_of(in_register), lay.dim_of(out_register)
    n_dom, n_rng = len(oracle.domain), len(oracle.range_values)
    if d_in < n_dom or d_out < n_rng:
        raise ValueError(
            f"encoding overflow: registers ({d_in}, {d_out}) cannot hold "
            f"a table of shape ({n_dom}, {n_rng})"
        )
    if in_register == out_register:
        raise ValueError("repeated target register")
    i_in, i_out = lay.index(in_register), lay.index(out_register)
    x, y = lay._digits[i_in], lay._digits[i_out]
    shift = np.zeros(d_in, dtype=np.intp)
    shift[:n_dom] = oracle._shift
    jy = np.where(y < n_rng, (y + shift[x]) % n_rng, y)
    perm = np.arange(lay.total_dim) + (jy - y) * lay.strides[i_out]
    amps = _permute_rows(state.amplitudes.reshape(1, 1, -1), perm[None], False)
    return StateVector(lay, amps.reshape(-1))


@dataclass(frozen=True)
class SparseOracleDist:
    """Product distribution over binary tables: each point is 1 w.p. epsilon."""

    domain: tuple[Hashable, ...]
    epsilon: Fraction

    def __post_init__(self) -> None:
        if len(self.domain) > MAX_SPARSE_DOMAIN:
            raise ConfigError(f"domain of {len(self.domain)} points exceeds the cap")
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "domain", tuple(self.domain))
        if not 0 <= eps <= 1:
            raise ValueError(f"epsilon {eps} outside [0, 1]")

    def zero_oracle(self) -> ClassicalOracle:
        return ClassicalOracle.constant(self.domain, (0, 1), 0)

    def enumerate_weighted(self) -> Iterator[tuple[ClassicalOracle, Fraction]]:
        """Every nonzero-weight table exactly once, weights summing to 1:
        the table whose point i holds bit i of each mask of
        ``_weighted_masks``, in its order."""
        n = len(self.domain)
        for mask, w in self._weighted_masks():
            vals = tuple((mask >> i) & 1 for i in range(n))
            yield ClassicalOracle(self.domain, (0, 1), vals), w

    def _weighted_masks(self) -> Iterator[tuple[int, Fraction]]:
        """(bit mask, weight) of every nonzero-weight table, masks
        ascending: all 2**n at 0 < eps < 1, else the one constant table.
        With eps = a/d, a table of j ones weighs a**j (d-a)**(n-j) / d**n."""
        n = len(self.domain)
        eps = self.epsilon
        if eps in (0, 1):
            yield (2**n - 1) * int(eps), Fraction(1)
            return
        a, d = eps.numerator, eps.denominator
        by_ones = [Fraction(a**j * (d - a) ** (n - j), d**n) for j in range(n + 1)]
        for mask in range(2**n):
            yield mask, by_ones[mask.bit_count()]


def sparse_vs_zero_bound(q: int, epsilon):
    """The advantage bound 8 q^2 epsilon for q-query distinguishers."""
    if q < 0:
        raise ValueError("query count must be nonnegative")
    return 8 * q * q * epsilon


def sparse_advantage(
    accept: Callable[[list[ClassicalOracle]], Sequence], dist: SparseOracleDist
):
    """Exact advantage of an acceptance functional between H_eps and H_0.

    Args:
        accept: maps a list of tables to the algorithm's acceptance
            probability on each (float or Fraction), in the same order.
            Each value must be a function of its table alone: ``accept``
            is called once, on every distinct table in first-use order.
        dist: the sparse distribution to average over.

    Returns:
        (p_eps, p_zero, advantage) with p_eps the weighted average over
        enumerate_weighted and advantage = |p_eps - p_zero|.
    """
    weighted = [(h.values, w) for h, w in dist.enumerate_weighted()]
    zero = dist.zero_oracle().values
    value = _accepted(accept, dist.domain, (0, 1), [*(v for v, _ in weighted), zero])
    p_eps = sum(w * value[v] for v, w in weighted)
    p_zero = value[zero]
    return p_eps, p_zero, abs(p_eps - p_zero)


def _accepted(
    accept: Callable[[list[ClassicalOracle]], Sequence],
    domain: tuple,
    range_values: tuple,
    rows: Iterable[tuple],
) -> dict[tuple, Any]:
    """``accept``'s value of each distinct table among ``rows`` (tables by
    their values), keyed by the values: one ``accept`` call on the
    distinct tables in first-use order."""
    distinct = list(dict.fromkeys(rows))
    values = accept([ClassicalOracle(domain, range_values, v) for v in distinct])
    if len(values) != len(distinct):
        raise ValueError(f"accept gave {len(values)} values for {len(distinct)} tables")
    return dict(zip(distinct, values))
