"""Keyed hash families and the adjusting unitaries built from them.

Two base-family realizations of a keyed function H': domain -> [A]:
a table family (uniform over all functions, so exactly independent at
every order, the default for exactness checks) and a polynomial family
(degree-bounded over a prime field, exactly 2Q-wise independent; its
[A]-reduction is exactly uniform only when A divides the field size,
i.e. A in {1, p}).

On top of a base family sits the shifted predicate family: with key
(kappa', a_1..a_k), a length-i prefix is flagged iff
(H'_kappa'(prefix) + a_i) mod A < B. Residues are 0-based, so exactly B
of the A residues pass and the flag marginal is B/A for every point and
any base family.

Adjusting unitaries come in two variants. The exact one acts on a
predicate-table register (one qubit per domain point, bit i = value at
domain[i], point 0 least significant) and rotates the sparse product
superposition onto the tables flagging every prefix of a transcript.
The efficient one acts on the key register and maps the uniform key
superposition onto the keys whose predicate flags every prefix. Both
are real maps kron(block, I) with permuted rows, certified unitary by a
check at block size and a permutation check on the rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from numbers import Rational
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from qromlab.oracle import ClassicalOracle, SparseOracleDist, _accepted, prefixes
from qromlab.protocol import ConfigError
from qromlab.qsim import _check_unitary

MAX_EXACT_DOMAIN = 8
MAX_KEY_DIM = 2**14


@dataclass(frozen=True)
class TableFamily:
    """Uniform over all functions domain -> {0..a-1}; independent at every order."""

    domain: tuple[Hashable, ...]
    a: int

    exactly_uniform = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.a < 1:
            raise ValueError("range size must be positive")

    @property
    def key_count(self) -> int:
        return self.a ** len(self.domain)

    def eval(self, key: int, point: Hashable) -> int:
        pos = self.domain.index(point)
        return (key // self.a**pos) % self.a


@dataclass(frozen=True)
class PolynomialFamily:
    """Degree-bounded polynomials over GF(p), outputs reduced mod a.

    A key encodes degree+1 coefficients base p; points map to distinct
    field elements by domain position. On any set of at most degree+1
    distinct points the field values are exactly jointly uniform, so the
    family is 2Q-wise independent for degree = 2Q-1. The mod-a reduction
    keeps that only when a divides p.
    """

    domain: tuple[Hashable, ...]
    prime: int
    degree: int
    a: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        p = self.prime
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        if len(self.domain) > p:
            raise ValueError("domain larger than the field")
        if not 1 <= self.a <= p:
            raise ValueError("range size must lie in [1, p]")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    @property
    def exactly_uniform(self) -> bool:
        return self.prime % self.a == 0

    @property
    def key_count(self) -> int:
        return self.prime ** (self.degree + 1)

    def eval(self, key: int, point: Hashable) -> int:
        x = self.domain.index(point)
        acc, p = 0, self.prime
        for _ in range(self.degree + 1):
            # Horner from the highest stored coefficient downward
            acc = (acc * x + key % p) % p
            key //= p
        return acc % self.a


BaseFamily = TableFamily | PolynomialFamily


@dataclass(frozen=True)
class TwoQWiseFamily:
    """Shifted predicate family over prefixes: flag iff (H' + a_i) mod A < B."""

    base: BaseFamily
    b: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.b <= self.base.a:
            raise ValueError("need 1 <= B <= A")
        if self.k < 1:
            raise ValueError("rounds must be positive")
        lengths = {len(p) for p in self.base.domain}
        if not lengths <= set(range(1, self.k + 1)):
            raise ValueError("base domain must hold prefixes of length 1..k")

    @property
    def a(self) -> int:
        return self.base.a

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.b, self.a)

    @property
    def domain(self) -> tuple[Hashable, ...]:
        return self.base.domain

    @property
    def key_count(self) -> int:
        return self.base.key_count * self.a**self.k

    def flag_table(self) -> np.ndarray:
        """Every key's predicate table: row ``key``, column = domain position.

        Keys put the base key least significant, so row
        off * |base keys| + kp flags p iff (H'_kp(p) + a_|p|) mod A < B,
        with a_i the i-th base-A digit of off.
        """
        rounds = [len(p) - 1 for p in self.domain]
        shifts = _offset_digits(self.a, self.k)[:, rounds]
        flags = (_base_values(self.base)[None] + shifts[:, None]) % self.a < self.b
        return flags.reshape(-1, len(self.domain)).astype(int)

    def flagged_keys(self, m: Sequence[Hashable]) -> list[int]:
        """Keys whose predicate flags every prefix of transcript ``m``."""
        cols = [self.domain.index(p) for p in prefixes(m)]
        return np.flatnonzero(self.flag_table()[:, cols].all(axis=1)).tolist()


def family_exactness_check(
    fam: TwoQWiseFamily, accept: Callable[[list[ClassicalOracle]], Sequence]
) -> tuple[Any, Any]:
    """Acceptance under the sparse table distribution vs. under uniform keys.

    Both sides are exact enumerations; with an exactly independent base
    family of high enough order they agree to rounding. ``accept`` maps a
    list of binary predicate tables to the algorithm's acceptance
    probability on each, in order. Each value must be a function of its
    table alone: ``accept`` is called once, on the distinct tables of
    both sides in first-use order, at most 2^|domain| of them.
    """
    if not fam.base.exactly_uniform:
        raise ValueError("exactness check needs an exactly uniform base family")
    dist = SparseOracleDist(fam.domain, fam.epsilon)
    weighted = [(h.values, w) for h, w in dist.enumerate_weighted()]
    keyed = list(map(tuple, fam.flag_table().tolist()))
    value = _accepted(accept, fam.domain, (0, 1), [*(v for v, _ in weighted), *keyed])
    p_random = sum(w * value[v] for v, w in weighted)
    p_family = _keyed_sum(value, keyed) / fam.key_count
    return p_random, p_family


def random_function_vs_family(
    fam: BaseFamily, accept: Callable[[list[ClassicalOracle]], Sequence]
) -> tuple[Any, Any]:
    """Acceptance under a uniform function vs. under the keyed family.

    Enumerates all a^|domain| tables on the left and all keys on the
    right; used to confirm that bounded-query behavior on the family
    matches the truly random function. ``accept`` maps a list of tables
    to the acceptance probability on each, in order, and is called once,
    on the distinct tables in first-use order.
    """
    n, a = len(fam.domain), fam.a
    # point 0 the fastest digit
    every = [vals[::-1] for vals in itertools.product(range(a), repeat=n)]
    keyed = list(map(tuple, _base_values(fam).tolist()))
    value = _accepted(accept, fam.domain, tuple(range(a)), [*every, *keyed])
    acc = 0
    for vals in every:
        acc += value[vals]
    p_random = acc / a**n
    p_family = _keyed_sum(value, keyed) / fam.key_count
    return p_random, p_family


def _keyed_sum(value: dict, keyed: list):
    """The sum of ``value[v]`` over every key's table ``v``. When every
    value is exact, each distinct table's value times its key count: the
    same number of the same type. Otherwise one term a key, in key order,
    so a float sum rounds as it always has."""
    counts = Counter(keyed)
    if all(isinstance(value[v], Rational) for v in counts):
        return sum(value[v] * c for v, c in counts.items())
    return sum(map(value.__getitem__, keyed))


def _offset_digits(a: int, k: int) -> np.ndarray:
    """Row ``off``: the per-round shifts a_1..a_k, the base-A digits of off."""
    return np.arange(a**k)[:, None] // a ** np.arange(k) % a


def _base_values(fam: BaseFamily) -> np.ndarray:
    """Every base value: row = key, column = domain position.

    ``fam.eval`` on every key and point at once, in int64; a point reads
    its first position in the domain, as ``eval`` does.
    """
    keys = np.arange(fam.key_count, dtype=np.int64)[:, None]
    x = np.array([fam.domain.index(p) for p in fam.domain], dtype=np.int64)
    if isinstance(fam, TableFamily):
        return keys // fam.a**x % fam.a
    acc, p = np.zeros((len(keys), len(x)), dtype=np.int64), fam.prime
    for _ in range(fam.degree + 1):
        # Horner from the highest stored coefficient downward
        acc = (acc * x + keys % p) % p
        keys = keys // p
    return acc % fam.a


@dataclass(frozen=True)
class AdjustingUnitary:
    """A transcript's adjusting rotation, exact or efficient variant.

    ``matrix`` = kron(block, I_rest)[rows], in the block's dtype, is built
    only after ``block`` is checked unitary at its own size and ``rows`` a
    permutation of range(d); then U^H U = (block^H block) (x) I.
    """

    target_transcript: tuple[Hashable, ...]
    variant: str
    block: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    rest: int
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        block = _check_unitary(self.block, dtype=None)
        rows = np.asarray(self.rows)
        d = len(block) * self.rest
        ok = rows.shape == (d,) and rows.dtype.kind in "iu" and rows.min() >= 0
        if not (ok and (np.bincount(rows, minlength=d) == 1).all()):
            raise ValueError(f"row order is not a permutation of range({d})")
        # row a * rest + s of kron(block, I_rest) is block row a on the
        # columns s::rest, so each row is written once, in its place
        m = np.zeros((d, len(block), self.rest), dtype=block.dtype)
        m[np.arange(d), :, rows % self.rest] = block[rows // self.rest]
        m = m.reshape(d, d)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def table_superposition(dist: SparseOracleDist) -> np.ndarray:
    """Amplitudes of the sparse product state over predicate tables.

    Basis index bits are table values by domain position (point 0 least
    significant); each qubit carries sqrt(1-eps)|0> + sqrt(eps)|1>.
    """
    eps = float(dist.epsilon)
    qubit = np.array([np.sqrt(1 - eps), np.sqrt(eps)])
    out = np.array([1.0])
    for _ in dist.domain:
        out = np.multiply.outer(qubit, out).reshape(-1)  # new point most significant
    return out


def flagged_table_superposition(
    m: Sequence[Hashable], dist: SparseOracleDist
) -> np.ndarray:
    """The sparse state conditioned on flagging every prefix of ``m``."""
    eps = float(dist.epsilon)
    if eps == 0:
        raise ValueError("conditioning on flags is empty at epsilon 0")
    qubit = np.array([np.sqrt(1 - eps), np.sqrt(eps)])
    one = np.array([0.0, 1.0])
    pres = set(prefixes(m))
    out = np.array([1.0])
    for point in dist.domain:
        out = np.multiply.outer(one if point in pres else qubit, out).reshape(-1)
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product: entry
    (i*rb + k, j*cb + l) is the single product a[i, j] * b[k, l]."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def build_exact_adjuster(
    m: Sequence[Hashable], dist: SparseOracleDist
) -> AdjustingUnitary:
    """Per-prefix 2x2 rotations sending the sparse state onto the flagged one.

    Each prefix qubit gets the inverse of the rotation whose second
    column is (sqrt(1-eps), sqrt(eps)); all other qubits are untouched.
    """
    if len(dist.domain) > MAX_EXACT_DOMAIN:
        raise ConfigError("predicate domain exceeds the exact-adjuster cap")
    eps = float(dist.epsilon)
    if dist.epsilon == 0:
        raise ValueError("epsilon 0 leaves the rotation undefined")
    pres = set(prefixes(m))
    missing = pres - set(dist.domain)
    if missing:
        raise ValueError(f"prefixes {sorted(missing)} outside the predicate domain")
    u_inv = np.array([[np.sqrt(eps), -np.sqrt(1 - eps)], [np.sqrt(1 - eps), np.sqrt(eps)]])
    mats = [u_inv if point in pres else np.eye(2) for point in dist.domain]
    full = reduce(_kron, reversed(mats))  # point 0 least significant
    return AdjustingUnitary(tuple(m), "exact", full, np.arange(len(full)), 1)


def _householder_to(vec) -> np.ndarray:
    """A real reflection sending basis state 0 to the given vector,
    normalised; the identity when that is basis state 0."""
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    e0 = np.zeros(v.size)
    e0[0] = 1.0
    u = e0 - v
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        return np.eye(v.size)
    u = u / nrm
    return np.eye(v.size) - 2.0 * np.outer(u, u)


def build_efficient_adjuster(
    m: Sequence[Hashable], fam: TwoQWiseFamily
) -> AdjustingUnitary:
    """Key-register unitary sending uniform keys onto the flagged-key set.

    Composition (inverse shifts) (uniform-over-[B]^k expander)
    (uniform-over-[A]^k collapser): the collapser folds the uniform
    offset block to zero, the expander refills it over offsets whose
    shifted residues pass, and undoing the shifts lands exactly on the
    keys flagging every prefix of ``m``. Holds for any base family.

    The offsets are the slow key digits, so expander after collapser is
    (w_b (x) I)(w_a (x) I)^T = (w_b w_a^T) (x) I, where w_a and w_b are
    A^k x A^k Householder maps and I spans the base keys. The inverse
    shift is a row permutation: row ``key`` of the result is row
    ``shift[key]`` of that Kronecker product, where ``shift[key]`` adds
    the base values of ``m``'s prefixes to the key's offsets. Only the
    A^k x A^k product is multiplied out and checked; no d x d product is
    formed.
    """
    if fam.key_count > MAX_KEY_DIM:
        raise ConfigError("key register exceeds the efficient-adjuster cap")
    a, nk = fam.a, fam.base.key_count
    digits = _offset_digits(a, fam.k)

    def householder(limit: int) -> np.ndarray:  # onto offsets with digits < limit
        amp = (digits < limit).all(axis=1).astype(float)
        return _householder_to(amp)

    # new[off, kp]: off's digits plus base key kp's prefix values, per round
    cols = [fam.domain.index(p) for p in prefixes(m)]
    new = np.repeat(digits[:, None], nk, axis=1)
    new[:, :, : len(cols)] += _base_values(fam.base)[:, cols]
    shift = (new % a @ a ** np.arange(fam.k)) * nk + np.arange(nk)
    block = householder(fam.b) @ householder(a).T
    return AdjustingUnitary(tuple(m), "efficient", block, shift.reshape(-1), nk)
