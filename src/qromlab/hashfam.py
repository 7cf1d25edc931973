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
superposition onto the keys whose predicate flags every prefix. Each is
checked unitary once, when built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from qromlab.oracle import ClassicalOracle, SparseOracleDist, prefixes
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

    def split_key(self, key: int) -> tuple[int, tuple[int, ...]]:
        """(base key, per-round shifts); base key least significant."""
        kp = key % self.base.key_count
        key //= self.base.key_count
        shifts = []
        for _ in range(self.k):
            shifts.append(key % self.a)
            key //= self.a
        return kp, tuple(shifts)

    def join_key(self, kp: int, shifts: Sequence[int]) -> int:
        key = 0
        for s in reversed(shifts):
            key = key * self.a + s
        return key * self.base.key_count + kp

    def predicate(self, key: int, point: Sequence[Hashable]) -> int:
        kp, shifts = self.split_key(key)
        val = (self.base.eval(kp, tuple(point)) + shifts[len(point) - 1]) % self.a
        return 1 if val < self.b else 0

    def tilted_oracle(self, key: int) -> ClassicalOracle:
        vals = tuple(self.predicate(key, p) for p in self.domain)
        return ClassicalOracle(self.domain, (0, 1), vals)

    def flagged_keys(self, m: Sequence[Hashable]) -> list[int]:
        """Keys whose predicate flags every prefix of transcript ``m``."""
        pres = prefixes(m)
        return [
            key
            for key in range(self.key_count)
            if all(self.predicate(key, p) for p in pres)
        ]


def family_exactness_check(
    fam: TwoQWiseFamily, accept: Callable[[ClassicalOracle], Any]
) -> tuple[Any, Any]:
    """Acceptance under the sparse table distribution vs. under uniform keys.

    Both sides are exact enumerations; with an exactly independent base
    family of high enough order they agree to rounding. ``accept`` maps a
    binary predicate table to the algorithm's acceptance probability.
    """
    if not fam.base.exactly_uniform:
        raise ValueError("exactness check needs an exactly uniform base family")
    dist = SparseOracleDist(fam.domain, fam.epsilon)
    p_random = sum(w * accept(h) for h, w in dist.enumerate_weighted())
    p_family = (
        sum(accept(fam.tilted_oracle(key)) for key in range(fam.key_count))
        / fam.key_count
    )
    return p_random, p_family


def random_function_vs_family(
    fam: BaseFamily, accept: Callable[[ClassicalOracle], Any]
) -> tuple[Any, Any]:
    """Acceptance under a uniform function vs. under the keyed family.

    Enumerates all a^|domain| tables on the left and all keys on the
    right; used to confirm that bounded-query behavior on the family
    matches the truly random function.
    """
    n, a = len(fam.domain), fam.a
    rng = tuple(range(a))
    total = a**n
    acc = 0
    for idx in range(total):
        vals, rest = [], idx
        for _ in range(n):
            vals.append(rest % a)
            rest //= a
        acc += accept(ClassicalOracle(fam.domain, rng, tuple(vals)))
    p_random = acc / total
    p_family = (
        sum(
            accept(
                ClassicalOracle(
                    fam.domain, rng, tuple(fam.eval(key, p) for p in fam.domain)
                )
            )
            for key in range(fam.key_count)
        )
        / fam.key_count
    )
    return p_random, p_family


@dataclass(frozen=True)
class AdjustingUnitary:
    """A transcript's adjusting rotation, exact or efficient variant."""

    target_transcript: tuple[Hashable, ...]
    variant: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = _check_unitary(np.array(self.matrix, dtype=complex))
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
    u_prime = np.array(
        [[np.sqrt(eps), np.sqrt(1 - eps)], [-np.sqrt(1 - eps), np.sqrt(eps)]]
    )
    mats = [
        u_prime.conj().T if point in pres else np.eye(2)
        for point in dist.domain
    ]
    full = reduce(np.kron, reversed(mats))  # point 0 least significant
    return AdjustingUnitary(tuple(m), "exact", full)


def _householder_to(target: np.ndarray) -> np.ndarray:
    """Real unitary whose first column is the given unit vector."""
    d = target.size
    e0 = np.zeros(d)
    e0[0] = 1.0
    v = e0 - target
    n2 = float(v @ v)
    if n2 < 1e-30:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / n2


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
    A^k x A^k product is multiplied out; no d x d product is formed.
    """
    kdim = fam.key_count
    if kdim > MAX_KEY_DIM:
        raise ConfigError("key register exceeds the efficient-adjuster cap")
    a, b, k = fam.a, fam.b, fam.k
    nk, off_dim = fam.base.key_count, a**k

    def offset_block(limit: int) -> np.ndarray:
        amp = np.zeros(off_dim)
        for flat in range(off_dim):
            digits, rest = [], flat
            for _ in range(k):
                digits.append(rest % a)
                rest //= a
            if all(d < limit for d in digits):
                amp[flat] = 1.0
        return amp / np.sqrt(amp.sum())

    w_a = _householder_to(offset_block(a))
    w_b = _householder_to(offset_block(b))

    shift = np.empty(kdim, dtype=np.intp)
    pres = prefixes(m)
    for key in range(kdim):
        kp, shifts = fam.split_key(key)
        new = list(shifts)
        for i, pre in enumerate(pres):
            new[i] = (new[i] + fam.base.eval(kp, pre)) % a
        shift[key] = fam.join_key(kp, new)

    u = np.kron(w_b @ w_a.T, np.eye(nk))[shift]
    return AdjustingUnitary(tuple(m), "efficient", u)
