"""Parallel repetition as a spec: the folded route the library replaced
by a count.

The library keeps repetitions as a count: ``pipeline.build_protocol``
returns the one-repetition spec with its reps, and every scorer takes
the reps. This module keeps the spec of t repetitions, the reference that
count route is tested against:

- ``fold(base, reps, name)`` builds the spec whose messages, randomness
  and prover randomness are concatenations of ``reps`` base elements
  (lazy ``ProductSpace`` sequences) and whose callables apply the base's
  coordinate by coordinate, each base call memoized per column;
  ``folded(cfg)`` is the fold a config runs, named as its report echoes;
- ``toy_qr(reps)`` writes the same spec out in full, over materialised
  tuples and callables over whole tuples;
- ``challenge_structure`` checks a spec's public-coin structure over all
  |A|·|R| pairs, and ``forgery_masses`` scores every first message of a
  spec's ``reps``-fold.
"""

import functools
import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from typing import Hashable

from qromlab.pipeline import build_protocol
from qromlab.protocol import UNITS_21, ConfigError, ProtocolSpec


class ProductSpace(Sequence):
    """The ``reps``-fold product of a base space of equal-width tuples,
    in ``itertools.product(base, repeat=reps)`` order, each element the
    concatenation of its ``reps`` base elements; never materialised."""

    def __init__(self, base: Sequence, reps: int) -> None:
        self.base = tuple(base)
        self.reps = reps
        width = len(self.base[0])
        self._slices = [slice(i, i + width) for i in range(0, width * reps, width)]

    def __len__(self) -> int:
        return len(self.base) ** self.reps

    def __getitem__(self, i: int) -> tuple:
        if not 0 <= i < len(self):
            raise IndexError("product space index out of range")
        parts = []
        for _ in range(self.reps):
            i, d = divmod(i, len(self.base))
            parts.append(self.base[d])
        return sum(reversed(parts), ())

    def __iter__(self):
        for parts in itertools.product(self.base, repeat=self.reps):
            yield sum(parts, ())

    def split(self, elem: tuple) -> tuple:
        """The base coordinates of a product element, unchecked."""
        return tuple([elem[s] for s in self._slices])


def fold(base: ProtocolSpec, reps: int, name: str) -> ProtocolSpec:
    """``reps`` parallel repetitions of ``base`` as one spec.

    A verifier message is split by the alphabet's width like a prover
    message. The verifier's next message and the honest prover's move
    concatenate the base's per coordinate, and the verifier accepts iff
    it accepts every coordinate. Both read each (r, column) of the base
    once: ``decide`` looks r up in the randomness that accepts every
    column of the transcript, built once per transcript, so a walk that
    counts a transcript's whole group of r reads no column twice. The
    statements and witnesses are the base's: one witness serves every
    repetition.
    """
    alphabet = ProductSpace(base.alphabet, reps)
    randomness = ProductSpace(base.randomness, reps)
    prover_rand = ProductSpace(base.prover_randomness, reps)
    base_next = functools.cache(base.next_message)
    base_decide = functools.cache(base.decide)

    def columns(msgs: tuple):
        if not msgs:
            return itertools.repeat((), reps)
        return zip(*map(alphabet.split, msgs))

    @functools.cache
    def next_message(x, r, ms):
        return sum((base_next(x, rj, col)
                    for rj, col in zip(randomness.split(r), columns(ms))), ())

    @functools.cache
    def accepting(x, ms) -> frozenset:
        per_column = [[rj for rj in base.randomness if base_decide(x, rj, col)]
                      for col in columns(ms)]
        return frozenset(sum(rs, ()) for rs in itertools.product(*per_column))

    def decide(x, r, ms):
        return r in accepting(x, ms)

    def honest_prover(x, w, u, received):
        return sum((base.honest_prover(x, w, uj, col)
                    for uj, col in zip(prover_rand.split(u), columns(received))), ())

    return ProtocolSpec(
        name=name,
        alphabet=alphabet,
        rounds=base.rounds,
        randomness=randomness,
        prover_randomness=prover_rand,
        witness_map=base.witness_map,
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=base.public_coin,
    )


def folded(cfg) -> ProtocolSpec:
    """The spec a config's repetitions form: ``build_protocol``'s spec
    at one repetition, else its fold, named as the report echoes it."""
    spec, reps = build_protocol(cfg)
    return spec if reps == 1 else fold(spec, reps, f"{cfg.protocol}-t{reps}")


def toy_qr(reps: int = 3) -> ProtocolSpec:
    """Quadratic residuosity mod 21, ``reps`` parallel challenges per round.

    Messages are reps-tuples over {0} + units; the verifier's single
    message is the challenge bit tuple (equal to its randomness, so the
    protocol is public-coin). A no-instance prover can answer exactly
    one challenge bit per repetition, giving soundness 2^-reps.
    """
    if reps < 1:
        raise ConfigError("need at least one repetition")
    alphabet = tuple(itertools.product((0,) + UNITS_21, repeat=reps))
    randomness = tuple(itertools.product((0, 1), repeat=reps))
    prover_rand = tuple(itertools.product(UNITS_21, repeat=reps))
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
        witness_map=witness_map,
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=True,
    )


def challenge_structure(spec: ProtocolSpec, x: Hashable):
    """Challenge alphabet and challenge-to-randomness chart of a spec.

    Verifies the public-coin structure directly rather than trusting
    the flag: the round-1 response may depend on the randomness only,
    and distinct randomness must yield distinct challenges. Only
    two-move specs are supported.

    Returns:
        (challenges, chart) with challenges in first-appearance order
        and chart mapping each challenge tuple to its randomness label.
    """
    if spec.rounds != 2:
        raise ValueError("challenge extraction needs exactly two prover moves")
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


def forgery_masses(spec: ProtocolSpec, x, reps: int = 1) -> list[Fraction]:
    """Every first message's answerable challenge mass over ``reps``
    parallel repetitions of ``spec``, largest first: each of the spec's
    first messages scored over its whole chart, and every reps-tuple of
    them listed with the product of its masses."""
    cs, ch = challenge_structure(spec, x)
    mass = {
        m1: Fraction(sum(1 for c in cs if any(
            spec.decide(x, ch[(c,)], (m1, m2)) for m2 in spec.alphabet)), len(cs))
        for m1 in spec.alphabet
    }
    masses = [math.prod(mass[m1] for m1 in firsts)
              for firsts in itertools.product(spec.alphabet, repeat=reps)]
    masses.sort(reverse=True)
    return masses

