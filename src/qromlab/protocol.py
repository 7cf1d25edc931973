"""Finite classical interactive arguments and two toy instances.

A (2k-1)-round protocol alternates k prover messages with k-1 verifier
responses computed by a deterministic next-message function of the
verifier randomness and the prover-message prefix; after the k-th
prover message the verifier decides. Prover randomness is explicit, so
transcripts are deterministic given (x, w, r, u).

toy_qr: quadratic residuosity mod 21 with t parallel repetitions folded
into single tuple-valued messages. Perfectly complete, public-coin,
exact soundness 2^-t. Message entries range over {0} plus the units mod
21, so challenge tuples (bits) are themselves valid messages.

toy_table: a tiny lookup-table argument over 2-bit statements with
pluggable next-message and decision tables, used where experiments need
small dense register dimensions rather than soundness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Optional, Sequence

MAX_STRATEGY_WORK = 2**20

UNITS_21 = (1, 2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20)
RESIDUES_21 = (1, 4, 16)


class ConfigError(ValueError):
    """An experiment configuration the library does not run: an unknown
    name, an out-of-range parameter, or a size over a dense cap."""


@dataclass(frozen=True)
class ProtocolSpec:
    """A finite interactive argument with explicit enumerable spaces."""

    name: str
    alphabet: tuple[Hashable, ...]
    rounds: int
    randomness: tuple[Hashable, ...]
    prover_randomness: tuple[Hashable, ...]
    language: Callable[[Hashable], bool]
    witness_map: Callable[[Hashable], tuple]
    next_message: Callable[[Hashable, Hashable, tuple], Hashable]
    decide: Callable[[Hashable, Hashable, tuple], bool]
    honest_prover: Callable[[Hashable, Hashable, Hashable, tuple], Hashable]
    public_coin: bool = False
    fold_base: Optional["ProtocolSpec"] = None
    fold_reps: int = 1

    @property
    def k(self) -> int:
        return self.rounds


@dataclass(frozen=True)
class Transcript:
    prover_messages: tuple
    verifier_messages: tuple

    def __post_init__(self) -> None:
        if len(self.verifier_messages) not in (
            len(self.prover_messages),
            len(self.prover_messages) - 1,
        ):
            raise ValueError("verifier messages must trail prover messages by <= 1")


def honest_execution(
    spec: ProtocolSpec,
    x: Hashable,
    w: Hashable,
    r: Hashable,
    u: Hashable | None = None,
) -> tuple[Transcript, bool]:
    """Run the honest prover against the honest verifier.

    ``u`` is the prover randomness (default: first element of its
    space); the transcript is deterministic given (x, w, r, u).
    """
    if u is None:
        u = spec.prover_randomness[0]
    ms: list = []
    vs: list = []
    for i in range(spec.rounds):
        ms.append(spec.honest_prover(x, w, u, tuple(vs)))
        if i < spec.rounds - 1:
            vs.append(spec.next_message(x, r, tuple(ms)))
    transcript = Transcript(tuple(ms), tuple(vs))
    return transcript, bool(spec.decide(x, r, tuple(ms)))


def acceptance_set(spec: ProtocolSpec, x: Hashable, r: Hashable) -> frozenset:
    """All accepting prover-message tuples; materialized, so small specs only."""
    if len(spec.alphabet) ** spec.rounds > MAX_STRATEGY_WORK:
        raise ValueError("message space too large to materialize")
    return frozenset(
        m
        for m in itertools.product(spec.alphabet, repeat=spec.rounds)
        if spec.decide(x, r, m)
    )


def soundness_exact(spec: ProtocolSpec, x: Hashable) -> Fraction:
    """Max over deterministic adaptive prover strategies of Pr_r[accept].

    Computed by backward induction over prover information sets (the
    verifier messages observed so far partition the consistent
    randomness). Folded parallel repetitions with componentwise
    decisions and product randomness factor exactly, so those use the
    base value raised to the repetition count.
    """
    if spec.fold_base is not None:
        return soundness_exact(spec.fold_base, x) ** spec.fold_reps

    n_m, n_r, k = len(spec.alphabet), len(spec.randomness), spec.rounds
    if n_m**k * n_r > MAX_STRATEGY_WORK:
        raise ValueError("strategy space exceeds the enumeration cap")

    def best(ms: tuple, rset: tuple) -> Fraction:
        out = Fraction(0)
        for m in spec.alphabet:
            ms2 = ms + (m,)
            if len(ms2) == k:
                val = Fraction(
                    sum(1 for r in rset if spec.decide(x, r, ms2)), n_r
                )
            else:
                parts: dict = {}
                for r in rset:
                    parts.setdefault(spec.next_message(x, r, ms2), []).append(r)
                val = sum(
                    (best(ms2, tuple(p)) for p in parts.values()), Fraction(0)
                )
            if val > out:
                out = val
        return out

    return best((), spec.randomness)


def _toy_qr_elements() -> tuple[int, ...]:
    return (0,) + UNITS_21


def toy_qr(reps: int = 3) -> ProtocolSpec:
    """Quadratic residuosity mod 21, ``reps`` parallel challenges per round.

    Messages are reps-tuples over {0} + units; the verifier's single
    message is the challenge bit tuple (equal to its randomness, so the
    protocol is public-coin). A no-instance prover can answer exactly
    one challenge bit per repetition, giving soundness 2^-reps.
    """
    if reps < 1:
        raise ConfigError("need at least one repetition")
    elems = _toy_qr_elements()
    alphabet = tuple(itertools.product(elems, repeat=reps))
    randomness = tuple(itertools.product((0, 1), repeat=reps))
    prover_rand = tuple(itertools.product(UNITS_21, repeat=reps))
    residues = set(RESIDUES_21)

    def language(x: int) -> bool:
        return x in residues

    def witness_map(x: int) -> tuple[int, ...]:
        return tuple(w for w in UNITS_21 if (w * w) % 21 == x % 21)

    def next_message(x: int, r: tuple, ms: tuple) -> tuple:
        return r

    def decide(x: int, r: tuple, ms: tuple) -> bool:
        m1, m2 = ms
        for c, a, z in zip(r, m1, m2):
            if z not in UNITS_21:
                return False
            if (z * z) % 21 != (a * pow(x, c, 21)) % 21:
                return False
        return True

    def honest_prover(x: int, w: int, u: tuple, received: tuple):
        if not received:
            return tuple((uj * uj) % 21 for uj in u)
        c = received[0]
        return tuple((uj * pow(w, cj, 21)) % 21 for uj, cj in zip(u, c))

    return ProtocolSpec(
        name=f"toy-qr-t{reps}",
        alphabet=alphabet,
        rounds=2,
        randomness=randomness,
        prover_randomness=prover_rand,
        language=language,
        witness_map=witness_map,
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=True,
        fold_base=toy_qr(1) if reps > 1 else None,
        fold_reps=reps,
    )


def toy_guess(
    alphabet: tuple = (0, 1),
    randomness: tuple = (0, 1),
    members: tuple = (1,),
) -> ProtocolSpec:
    """One-round guess-the-cell argument used for k=1 query mechanics.

    The verifier accepts iff the single prover message hits the cell
    selected by statement and randomness. The honest prover never sees
    r, so completeness is only 1/|R|; the point is the shape of the
    message space, not the language.
    """
    n = len(alphabet)
    rpos = {r: i for i, r in enumerate(randomness)}

    def decide(x, r, ms):
        return ms[0] == alphabet[(rpos[r] + int(x)) % n]

    return ProtocolSpec(
        name="toy-guess",
        alphabet=tuple(alphabet),
        rounds=1,
        randomness=tuple(randomness),
        prover_randomness=tuple(alphabet),
        language=lambda x: x in set(members),
        witness_map=lambda x: (x,) if x in set(members) else (),
        next_message=lambda x, r, ms: alphabet[0],
        decide=decide,
        honest_prover=lambda x, w, u, received: u,
        public_coin=False,
    )


def toy_table(
    alphabet: tuple = (0, 1),
    randomness: tuple = (0, 1),
    members: tuple = (1, 3),
    next_message: Callable[[Hashable, Hashable, tuple], Hashable] | None = None,
    decide: Callable[[Hashable, Hashable, tuple], bool] | None = None,
    public_coin: bool = False,
) -> ProtocolSpec:
    """Small 3-round echo argument over 2-bit statements, fully pluggable.

    Default behavior: the verifier's message is a table lookup mixing
    statement, randomness, and the first prover message; the decision
    accepts iff the second prover message echoes it. Perfectly complete
    (trivially sound), intended for state-vector mechanics where the
    register dimensions, not the language, are the point. Callers that
    override next_message with a randomness-only lookup should flag
    public_coin; the default lookup is not.
    """
    n = len(alphabet)
    pos = {a: i for i, a in enumerate(alphabet)}
    rpos = {r: i for i, r in enumerate(randomness)}

    def default_next(x, r, ms):
        return alphabet[(pos[ms[0]] + rpos[r] + int(x)) % n]

    def default_decide(x, r, ms):
        return ms[1] == nm(x, r, ms[:1])

    nm = next_message or default_next
    dec = decide or default_decide

    def honest_prover(x, w, u, received):
        return u if not received else received[-1]

    return ProtocolSpec(
        name="toy-table",
        alphabet=tuple(alphabet),
        rounds=2,
        randomness=tuple(randomness),
        prover_randomness=tuple(alphabet),
        language=lambda x: x in set(members),
        witness_map=lambda x: (x,) if x in set(members) else (),
        next_message=nm,
        decide=dec,
        honest_prover=honest_prover,
        public_coin=public_coin,
    )
