"""Finite classical interactive arguments and two toy instances.

A (2k-1)-round protocol alternates k prover messages with k-1 verifier
responses computed by a deterministic next-message function of the
verifier randomness and the prover-message prefix; after the k-th
prover message the verifier decides. Prover randomness is explicit, so
transcripts are deterministic given (x, w, r, u).

Parallel repetition happens by construction: ``fold(base, reps, name)``
builds the spec whose messages, randomness and prover randomness are
concatenations of ``reps`` base elements and whose callables apply the
base's coordinate by coordinate. Its spaces are lazy ``ProductSpace``
sequences, so a folded spec is never materialised unless a caller
enumerates it. ``fold`` is the only code that sets ``fold_base`` and
``fold_reps``; they are a record of how a spec was built, and routes
that factor through the base (``soundness_exact`` here, the challenge
chart and the forgery optimum elsewhere) rely on that record. A copy
made with ``dataclasses.replace`` may carry other callables, so it
drops the record and those routes enumerate it like any other spec.

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
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Optional

MAX_STRATEGY_WORK = 2**20

UNITS_21 = (1, 2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20)
RESIDUES_21 = (1, 4, 16)


class ConfigError(ValueError):
    """An experiment configuration the library does not run: an unknown
    name, an out-of-range parameter, or a size over a dense cap."""


class ProductSpace(Sequence):
    """The ``reps``-fold product of a base space, never materialised.

    Elements follow ``itertools.product(base, repeat=reps)`` order, each
    the concatenation of its ``reps`` base elements; base elements are
    tuples of one common width, so a product element splits back into
    its coordinates by slicing.
    """

    def __init__(self, base: Sequence, reps: int) -> None:
        if len(base) ** reps > sys.maxsize:
            raise ConfigError(
                f"a product of {len(base)}**{reps} elements is too long to index"
            )
        self.base = tuple(base)
        self.reps = reps
        widths = {len(b) if isinstance(b, tuple) else None for b in self.base}
        if len(widths) != 1 or None in widths:
            raise ValueError("base elements must be tuples of one width")
        self.width = widths.pop()
        self._slices = [slice(i, i + self.width)
                        for i in range(0, self.width * reps, self.width)]
        self._pos = {b: i for i, b in enumerate(self.base)}
        if len(self._pos) != len(self.base):
            raise ValueError("base elements must be distinct")

    def __len__(self) -> int:
        return len(self.base) ** self.reps

    def __getitem__(self, i: int) -> tuple:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("product space index out of range")
        parts = []
        for _ in range(self.reps):
            i, d = divmod(i, len(self.base))
            parts.append(self.base[d])
        return _join(reversed(parts))

    def __iter__(self) -> Iterator[tuple]:
        for parts in itertools.product(self.base, repeat=self.reps):
            yield _join(parts)

    def split(self, elem: tuple) -> tuple:
        """The base coordinates of a product element, unchecked."""
        return tuple([elem[s] for s in self._slices])

    def __contains__(self, elem) -> bool:
        if not isinstance(elem, tuple) or len(elem) != self.width * self.reps:
            return False
        return all(part in self._pos for part in self.split(elem))

    def index(self, elem) -> int:
        if elem not in self:
            raise ValueError(f"{elem!r} is not in the product space")
        i = 0
        for part in self.split(elem):
            i = i * len(self.base) + self._pos[part]
        return i


def _join(parts) -> tuple:
    return sum(parts, ())


@dataclass(frozen=True)
class ProtocolSpec:
    """A finite interactive argument with explicit enumerable spaces.

    ``alphabet``, ``randomness`` and ``prover_randomness`` are tuples, or
    ``ProductSpace`` sequences on a spec built by ``fold``. ``fold_base``
    and ``fold_reps`` are not constructor arguments: only ``fold`` sets
    them, and ``dataclasses.replace`` resets them.
    """

    name: str
    alphabet: Sequence[Hashable]
    rounds: int
    randomness: Sequence[Hashable]
    prover_randomness: Sequence[Hashable]
    language: Callable[[Hashable], bool]
    witness_map: Callable[[Hashable], tuple]
    next_message: Callable[[Hashable, Hashable, tuple], Hashable]
    decide: Callable[[Hashable, Hashable, tuple], bool]
    honest_prover: Callable[[Hashable, Hashable, Hashable, tuple], Hashable]
    public_coin: bool = False
    fold_base: Optional["ProtocolSpec"] = field(default=None, init=False)
    fold_reps: int = field(default=1, init=False)

    @property
    def k(self) -> int:
        return self.rounds


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
        raise ConfigError("strategy space exceeds the enumeration cap")

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


def fold(base: ProtocolSpec, reps: int, name: str) -> ProtocolSpec:
    """``reps`` parallel repetitions of ``base`` as one spec.

    Every message, randomness and prover randomness is the concatenation
    of ``reps`` base elements (lazy ``ProductSpace`` sequences, so each
    base space must hold tuples of one width), and a verifier message is
    split by the alphabet's width like a prover message. The verifier's
    next message and the honest prover's move concatenate the base's
    per coordinate, and the verifier accepts iff it accepts every
    coordinate. The statement, language and witnesses are the base's:
    one witness serves every repetition.
    """
    if reps < 1:
        raise ConfigError("need at least one repetition")
    alphabet = ProductSpace(base.alphabet, reps)
    randomness = ProductSpace(base.randomness, reps)
    prover_rand = ProductSpace(base.prover_randomness, reps)

    def columns(msgs: tuple):
        if not msgs:
            return itertools.repeat((), reps)
        return zip(*map(alphabet.split, msgs))

    def next_message(x, r, ms):
        return _join(
            base.next_message(x, rj, col)
            for rj, col in zip(randomness.split(r), columns(ms))
        )

    def decide(x, r, ms):
        return all(
            base.decide(x, rj, col)
            for rj, col in zip(randomness.split(r), columns(ms))
        )

    def honest_prover(x, w, u, received):
        return _join(
            base.honest_prover(x, w, uj, col)
            for uj, col in zip(prover_rand.split(u), columns(received))
        )

    spec = ProtocolSpec(
        name=name,
        alphabet=alphabet,
        rounds=base.rounds,
        randomness=randomness,
        prover_randomness=prover_rand,
        language=base.language,
        witness_map=base.witness_map,
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=base.public_coin,
    )
    object.__setattr__(spec, "fold_base", base)
    object.__setattr__(spec, "fold_reps", reps)
    return spec


def toy_qr(reps: int = 3) -> ProtocolSpec:
    """Quadratic residuosity mod 21, ``reps`` parallel challenges per round.

    Messages are reps-tuples over {0} + units; the verifier's single
    message is the challenge bit tuple (equal to its randomness, so the
    protocol is public-coin). A no-instance prover can answer exactly
    one challenge bit per repetition, giving soundness 2^-reps. One
    repetition is written out over 1-tuples; more are
    ``fold(toy_qr(1), reps, ...)``.
    """
    if reps < 1:
        raise ConfigError("need at least one repetition")
    if reps > 1:
        return fold(toy_qr(1), reps, f"toy-qr-t{reps}")
    units = set(UNITS_21)
    residues = set(RESIDUES_21)

    def language(x: int) -> bool:
        return x in residues

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
        language=language,
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
        language=lambda x: x == 1,
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
        language=lambda x: x in (1, 3),
        witness_map=lambda x: (x,) if x in (1, 3) else (),
        next_message=next_message,
        decide=decide,
        honest_prover=honest_prover,
        public_coin=False,
    )
