"""Exact counting check of a base hash family's joint uniformity.

``joint_is_uniform`` enumerates every key and counts the tuples of base
values it gives on a set of points; the tests use it to pin down the
independence order of the table and polynomial families.
"""

from typing import Hashable, Sequence

from qromlab.hashfam import BaseFamily


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
