"""The materialised classical route, as it was before specs were folded.

``toy_qr`` builds every repetition count's alphabet, randomness and
prover randomness as full tuples and writes its callables over whole
tuples; ``challenge_structure`` checks a spec over all |A|·|R| pairs,
folded or not; ``fs_forgery_exact`` scores every first message of a
folded spec and sorts the products of its base masses. They are the
reference the lazy product spaces, the base-only public-coin check and
the k-best forgery masses are tested against, for small repetition
counts. ``forgery_masses`` is ``fs_forgery_exact``'s sorted mass list,
split out so the masses themselves can be compared.

``lifted_challenge_structure`` is the challenge chart the library once
kept, lifted from a folded spec's base: the hash-table routes of
``live_reference`` and ``extraction_reference`` read a folded spec's
chart from it without the |A|·|R| walk.
"""

import itertools
from fractions import Fraction
from typing import Hashable

from qromlab.protocol import (
    RESIDUES_21,
    UNITS_21,
    ConfigError,
    ProductSpace,
    ProtocolSpec,
)


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

    spec = ProtocolSpec(
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
    )
    if reps > 1:
        # set as the library set them then, as constructor arguments
        object.__setattr__(spec, "fold_base", toy_qr(1))
        object.__setattr__(spec, "fold_reps", reps)
    return spec


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


def lifted_challenge_structure(spec: ProtocolSpec, x: Hashable):
    """Challenge alphabet and challenge-to-randomness chart of a spec.

    Verifies the public-coin structure directly rather than trusting
    the flag: the round-1 response may depend on the randomness only,
    and distinct randomness must yield distinct challenges. Only
    two-move specs are supported.

    A spec built by ``protocol.fold`` is checked exhaustively on its base
    and then lifted, without enumerating its own |A|·|R| pairs. Its
    next-message function is the base's applied coordinate by coordinate
    by construction, so the lift proves what the exhaustive check would:
    a product of injective charts is injective, and a product of
    message-blind responses is message-blind. Challenges come in the
    folded randomness order, as the exhaustive walk lists them.

    Returns:
        (challenges, chart) with challenges in first-appearance order
        and chart mapping each challenge tuple to its randomness label.
    """
    if spec.rounds != 2:
        raise ValueError("challenge extraction needs exactly two prover moves")
    if spec.fold_base is not None:
        # the base lists its i-th challenge for its i-th randomness, so the
        # i-th product challenge belongs to the i-th folded randomness
        base_cs, _ = challenge_structure(spec.fold_base, x)
        order = tuple(ProductSpace(base_cs, spec.fold_reps))
        return order, {(c,): r for c, r in zip(order, spec.randomness)}
    return challenge_structure(spec, x)


def forgery_masses(spec: ProtocolSpec, x) -> list[Fraction]:
    """Every first message's answerable challenge mass, largest first.
    Folded specs score per repetition and multiply."""
    challenge_structure(spec, x)

    def mass_table(sp):
        cs, ch = challenge_structure(sp, x)
        table = {}
        for m1 in sp.alphabet:
            good = sum(
                1 for c in cs
                if any(sp.decide(x, ch[(c,)], (m1, m2)) for m2 in sp.alphabet)
            )
            table[m1] = Fraction(good, len(cs))
        return table

    if spec.fold_base is not None:
        base_mass = mass_table(spec.fold_base)
        masses = []
        for m1 in spec.alphabet:
            p = Fraction(1)
            for a in m1:
                p *= base_mass[(a,)]
            masses.append(p)
    else:
        masses = list(mass_table(spec).values())
    masses.sort(reverse=True)
    return masses


def fs_forgery_exact(spec: ProtocolSpec, x, q: int) -> Fraction:
    """Exact optimum of a q-query challenge-grinding forger.

    Hash values at distinct points are independent, so grinding the q
    points of largest answerable challenge mass and outputting on the
    first hit, or at one unqueried point when every probe misses, is
    optimal; the value is one minus the miss product over the q+1
    largest masses.
    """
    miss = Fraction(1)
    for p in forgery_masses(spec, x)[: q + 1]:
        miss *= 1 - p
    return 1 - miss
