"""Reference enumerations for the keyed hash families.

``joint_is_uniform`` enumerates every key and counts the tuples of base
values it gives on a set of points; the tests use it to pin down the
independence order of the table and polynomial families.

``base_values`` tabulates ``eval`` one key and one point at a time: the
reference for the vectorised ``hashfam._base_values``.

``split_key`` and ``join_key`` read a ``TwoQWiseFamily`` key as (base
key, per-round shifts), one key at a time. ``predicate`` is one key's
flag at one point, from ``split_key`` and one ``base.eval``: the
reference that ``TwoQWiseFamily.flag_table`` and ``flagged_keys`` are
checked against.

``family_exactness_check``, ``random_function_vs_family`` and
``sparse_advantage`` are the plain per-key and per-weight loops: they
build one table and call a one-table ``accept`` once for every key or
weight, in enumeration order. The library versions call a list-taking
``accept`` once, on the distinct tables; the tests hand these loops the
same functional one table at a time (``conftest.one_table``) and compare
the two with ``==``.
"""

from typing import Any, Callable, Hashable, Sequence

import numpy as np

from qromlab.hashfam import BaseFamily, TwoQWiseFamily
from qromlab.oracle import ClassicalOracle, SparseOracleDist


def joint_is_uniform(fam: BaseFamily, points: Sequence[Hashable]) -> bool:
    """Exact counting check that base values on ``points`` are jointly uniform."""
    counts: dict[tuple[int, ...], int] = {}
    for key in range(fam.key_count):
        vals = tuple(fam.eval(key, p) for p in points)
        counts[vals] = counts.get(vals, 0) + 1
    want, rem = divmod(fam.key_count, fam.a ** len(points))
    if rem:
        return False
    return len(counts) == fam.a ** len(points) and set(counts.values()) == {want}


def base_values(fam: BaseFamily) -> np.ndarray:
    """Every base value: row = key, column = domain position."""
    return np.array(
        [[fam.eval(key, p) for p in fam.domain] for key in range(fam.key_count)]
    )


def split_key(fam: TwoQWiseFamily, key: int) -> tuple[int, tuple[int, ...]]:
    """(base key, per-round shifts); base key least significant."""
    kp = key % fam.base.key_count
    key //= fam.base.key_count
    shifts = []
    for _ in range(fam.k):
        shifts.append(key % fam.a)
        key //= fam.a
    return kp, tuple(shifts)


def join_key(fam: TwoQWiseFamily, kp: int, shifts: Sequence[int]) -> int:
    key = 0
    for s in reversed(shifts):
        key = key * fam.a + s
    return key * fam.base.key_count + kp


def predicate(fam: TwoQWiseFamily, key: int, point: Sequence[Hashable]) -> int:
    """Whether the key flags the point: (H'(point) + a_|point|) mod A < B."""
    kp, shifts = split_key(fam, key)
    val = (fam.base.eval(kp, tuple(point)) + shifts[len(point) - 1]) % fam.a
    return 1 if val < fam.b else 0


def tilted_oracle(fam: TwoQWiseFamily, key: int) -> ClassicalOracle:
    """One key's predicate table, point by point."""
    vals = tuple(predicate(fam, key, p) for p in fam.domain)
    return ClassicalOracle(fam.domain, (0, 1), vals)


def family_exactness_check(
    fam: TwoQWiseFamily, accept: Callable[[ClassicalOracle], Any]
) -> tuple[Any, Any]:
    """Sparse-table average vs. uniform-key average, one run per key."""
    if not fam.base.exactly_uniform:
        raise ValueError("exactness check needs an exactly uniform base family")
    dist = SparseOracleDist(fam.domain, fam.epsilon)
    p_random = sum(w * accept(h) for h, w in dist.enumerate_weighted())
    p_family = (
        sum(accept(tilted_oracle(fam, key)) for key in range(fam.key_count))
        / fam.key_count
    )
    return p_random, p_family


def random_function_vs_family(
    fam: BaseFamily, accept: Callable[[ClassicalOracle], Any]
) -> tuple[Any, Any]:
    """Uniform-function average vs. keyed-family average, one run per
    table and per key."""
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


def sparse_advantage(
    accept: Callable[[ClassicalOracle], Any], dist: SparseOracleDist
):
    """(p_eps, p_zero, |p_eps - p_zero|), one run per weighted table."""
    p_eps = sum(w * accept(h) for h, w in dist.enumerate_weighted())
    p_zero = accept(dist.zero_oracle())
    return p_eps, p_zero, abs(p_eps - p_zero)
