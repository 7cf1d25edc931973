"""Finite classical interactive arguments and two toy instances.

A (2k-1)-round protocol alternates k prover messages with k-1 verifier
responses computed by a deterministic next-message function of the
verifier randomness and the prover-message prefix; after the k-th
prover message the verifier decides. Prover randomness is explicit, so
transcripts are deterministic given (x, w, r, u).

Parallel repetition is a count, not a spec: ``toy_qr()`` is one
repetition, and ``pipeline.build_protocol`` pairs it with the reps a
config runs. Every route that scores t repetitions takes the count and
works on the one-repetition spec: soundness is its value to the t
(Goldreich's rule for parallel repetition), and the decision scorers and
the forgery cap take ``reps`` themselves.

toy_qr: quadratic residuosity mod 21, one repetition over 1-tuples.
Perfectly complete, public-coin, exact soundness 1/2 (2^-t over t
repetitions). Message entries range over {0} plus the units mod 21, so
challenge tuples (bits) are themselves valid messages.

toy_table: a tiny lookup-table argument over 2-bit statements with
pluggable next-message and decision tables, used where experiments need
small dense register dimensions rather than soundness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable

MAX_STRATEGY_WORK = 2**20

UNITS_21 = (1, 2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20)


class ConfigError(ValueError):
    """An experiment configuration the library does not run: an unknown
    name, an out-of-range parameter, or a size over a dense cap."""


@dataclass(frozen=True)
class ProtocolSpec:
    """A finite interactive argument with explicit enumerable spaces. A
    statement is in the language iff ``witness_map`` gives it a witness."""

    name: str
    alphabet: Sequence[Hashable]
    rounds: int
    randomness: Sequence[Hashable]
    prover_randomness: Sequence[Hashable]
    witness_map: Callable[[Hashable], tuple]
    next_message: Callable[[Hashable, Hashable, tuple], Hashable]
    decide: Callable[[Hashable, Hashable, tuple], bool]
    honest_prover: Callable[[Hashable, Hashable, Hashable, tuple], Hashable]
    public_coin: bool = False


def soundness_exact(spec: ProtocolSpec, x: Hashable) -> Fraction:
    """Max over deterministic adaptive prover strategies of Pr_r[accept].

    Computed by backward induction over prover information sets (the
    verifier messages observed so far partition the consistent
    randomness). Parallel repetitions with componentwise decisions and
    product randomness factor exactly, so t of them score this value to
    the t.

    A node stops scanning messages at one that accepts its whole
    randomness set: every value counts members of that set, so no later
    message can beat it, and the exit is exact.
    """
    n_m, n_r, k = len(spec.alphabet), len(spec.randomness), spec.rounds
    if n_m**k * n_r > MAX_STRATEGY_WORK:
        raise ConfigError("strategy space exceeds the enumeration cap")

    def best(ms: tuple, rset: tuple) -> int:  # accepting randomness, counted
        out = 0
        for m in spec.alphabet:
            ms2 = ms + (m,)
            val = 0
            if len(ms2) == k:
                for r in rset:
                    if spec.decide(x, r, ms2):
                        val += 1
            else:
                parts: dict = {}
                for r in rset:
                    parts.setdefault(spec.next_message(x, r, ms2), []).append(r)
                for p in parts.values():
                    val += best(ms2, tuple(p))
            if val > out:
                out = val
                if out == len(rset):
                    break
        return out

    return Fraction(best((), spec.randomness), n_r)


def toy_qr() -> ProtocolSpec:
    """Quadratic residuosity mod 21, one challenge per round.

    Messages are 1-tuples over {0} + units; the verifier's single
    message is the challenge bit tuple (equal to its randomness, so the
    protocol is public-coin). A no-instance prover can answer exactly
    one challenge bit, giving soundness 1/2, and 2^-t over t parallel
    repetitions.
    """
    units = set(UNITS_21)
    def witness_map(x: int) -> tuple[int, ...]:
        return tuple(w for w in UNITS_21 if (w * w) % 21 == x % 21)

    def next_message(x: int, r: tuple, ms: tuple) -> tuple:
        return r

    def decide(x: int, r: tuple, ms: tuple) -> bool:
        (c,), ((a,), (z,)) = r, ms
        return z in units and (z * z) % 21 == (a * pow(x, c, 21)) % 21

    def honest_prover(x: int, w: int, u: tuple, received: tuple) -> tuple:
        (uj,) = u
        if not received:
            return ((uj * uj) % 21,)
        (c,) = received[0]
        return ((uj * pow(w, c, 21)) % 21,)

    return ProtocolSpec(
        name="toy-qr-t1",
        alphabet=tuple((e,) for e in (0,) + UNITS_21),
        rounds=2,
        randomness=((0,), (1,)),
        prover_randomness=tuple((u,) for u in UNITS_21),
        witness_map=witness_map,
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=True,
    )


def toy_guess() -> ProtocolSpec:
    """One-round guess-the-cell argument used for k=1 query mechanics.

    The verifier accepts iff the single prover message hits the cell
    selected by statement and randomness; statement 1 is the only member.
    The honest prover never sees r, so completeness is only 1/|R|; the
    point is the shape of the message space, not the language.
    """
    alphabet = (0, 1)

    def decide(x, r, ms):
        return ms[0] == alphabet[(r + int(x)) % 2]

    return ProtocolSpec(
        name="toy-guess",
        alphabet=alphabet,
        rounds=1,
        randomness=(0, 1),
        prover_randomness=alphabet,
        witness_map=lambda x: (x,) if x == 1 else (),
        next_message=lambda x, r, ms: alphabet[0],
        decide=decide,
        honest_prover=lambda x, w, u, received: u,
        public_coin=False,
    )


def toy_table() -> ProtocolSpec:
    """Small 3-round echo argument over 2-bit statements.

    The verifier's message is a table lookup mixing statement,
    randomness, and the first prover message; the decision accepts iff
    the second prover message echoes it. Statements 1 and 3 are members.
    Perfectly complete (trivially sound), intended for state-vector
    mechanics where the register dimensions, not the language, are the
    point. The lookup depends on the first message, so the spec is not
    public-coin.
    """
    alphabet = (0, 1)

    def next_message(x, r, ms):
        return alphabet[(ms[0] + r + int(x)) % 2]

    def decide(x, r, ms):
        return ms[1] == next_message(x, r, ms[:1])

    def honest_prover(x, w, u, received):
        return u if not received else received[-1]

    return ProtocolSpec(
        name="toy-table",
        alphabet=alphabet,
        rounds=2,
        randomness=(0, 1),
        prover_randomness=alphabet,
        witness_map=lambda x: (x,) if x in (1, 3) else (),
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=False,
    )
