"""Reference provers: the honest execution of a protocol and a prover
that ignores every response.

``honest_execution`` runs the honest prover against the honest verifier
one move at a time, and ``acceptance_set`` materialises every accepting
message tuple of one randomness. ``give_up`` is a strict simulator that
sends a fixed transcript through a verifier machine and never adapts.
The library's experiments need none of them; the tests check the toy
protocols and the simulator routes against them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from qromlab.adversary import (
    CallVerifier,
    QueryAlgorithm,
    Step,
    Unitary,
    VerifierMachine,
    _swap0,
)
from qromlab.protocol import MAX_STRATEGY_WORK, ConfigError, ProtocolSpec


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
        raise ConfigError("message space too large to materialize")
    return frozenset(
        m
        for m in itertools.product(spec.alphabet, repeat=spec.rounds)
        if spec.decide(x, r, m)
    )


def give_up(machine: VerifierMachine, transcript: tuple | None = None) -> QueryAlgorithm:
    """Sends a fixed transcript and never adapts to any response."""
    spec = machine.spec
    n, k = len(spec.alphabet), spec.rounds
    if k > 2:
        raise ValueError("the fixed-transcript sender supports at most two moves")
    ms = tuple(transcript) if transcript is not None else (spec.alphabet[0],) * k
    if len(ms) != k:
        raise ValueError(f"transcript length {len(ms)} != {k}")
    aidx = {a: i for i, a in enumerate(spec.alphabet)}
    steps: list[Step] = [Unitary(("M",), _swap0(n, aidx[ms[0]])), CallVerifier()]
    work: tuple[tuple[str, int], ...] = ()
    if k == 2:
        shelve = np.zeros((n * n, n * n))
        for m in range(n):
            for w in range(n):
                shelve[w + n * m, m + n * w] = 1.0
        steps += [
            Unitary(("M", "W1"), shelve),
            Unitary(("M",), _swap0(n, aidx[ms[1]])),
            CallVerifier(),
        ]
        work = (("W1", n),)
    return QueryAlgorithm("give-up", tuple(steps), budget=k, work_registers=work)
