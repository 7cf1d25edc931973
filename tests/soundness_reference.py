"""Exact soundness by the strategy tree, scanning every message.

``soundness_exact`` is the backward induction ``protocol.soundness_exact``
ran before a node stopped scanning its messages at the first one that
accepts its whole randomness set: every node sums each message's value
with generator ``sum``s and keeps the largest. It is the reference the
pruned tree is tested against, by value and by ``decide`` calls.
"""

from fractions import Fraction
from typing import Hashable

from qromlab.protocol import MAX_STRATEGY_WORK, ConfigError, ProtocolSpec


def soundness_exact(spec: ProtocolSpec, x: Hashable) -> Fraction:
    """Max over deterministic adaptive prover strategies of Pr_r[accept],
    over the whole tree of the spec it is given."""
    n_m, n_r, k = len(spec.alphabet), len(spec.randomness), spec.rounds
    if n_m**k * n_r > MAX_STRATEGY_WORK:
        raise ConfigError("strategy space exceeds the enumeration cap")

    def best(ms: tuple, rset: tuple) -> int:  # accepting randomness, counted
        out = 0
        for m in spec.alphabet:
            ms2 = ms + (m,)
            if len(ms2) == k:
                val = sum(1 for r in rset if spec.decide(x, r, ms2))
            else:
                parts: dict = {}
                for r in rset:
                    parts.setdefault(spec.next_message(x, r, ms2), []).append(r)
                val = sum(best(ms2, tuple(p)) for p in parts.values())
            if val > out:
                out = val
        return out

    return Fraction(best((), spec.randomness), n_r)
