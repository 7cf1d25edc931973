"""The decision experiments' trace builders as first written.

Each builder here tests the simulator name itself and writes its query
plan once per simulator: ``simulator_trace`` takes the witness and
prover randomness, or a fixed give-up transcript, and ``decision_trace``,
``hash_trace`` and ``response_trace`` are the former
``pipeline._decision_trace``, ``_hash_trace`` and ``_response_trace``.
The pipeline now looks a name up once in ``pipeline.SIMULATORS`` and
writes each plan once against the simulator's moves; these builders
serve as the reference its traces are tested against. The one planned
difference: the give-up response trace here makes no challenge query,
where the pipeline's asks one at the bottom first message.
"""

from typing import Callable

from qromlab.pipeline import ExperimentConfig, _statement_witness
from qromlab.protocol import ConfigError, ProtocolSpec


def simulator_trace(spec: ProtocolSpec, x, witness, u, transcript=None) -> Callable:
    """Flag-oracle query trace of the wrapped simulator on a statement.

    Each of the first k-1 verifier calls pads the call's prefix 2k
    times and then reads its flag live, keeping the flag register held
    across later calls; the response oracle is consulted only on a set
    flag and a cleared flag yields the bottom message. The final call
    reads and releases the full transcript's flag, then releases the
    held prefixes in reverse order (2k queries in total, so the trace
    makes 2k per call). Every pad sits ahead of the live read, which
    maximizes the reprogramming slots that can raise the flag in time.
    A fixed transcript replaces the witness strategy and ignores every
    response, which is the give-up behavior. The honest moves are
    memoized per trace, keyed by the responses received so far: they
    are pure, and ``_walk`` replays the trace once per branching node of
    its answer tree, while the responses take few values.

    Every trace replayed here keeps one contract: it reads a response
    ``ask_f(p)`` only for a proper prefix p whose flag it has just read
    as set, and it returns a full k-message transcript. Flags start
    clear in the live replay, so a set flag there marks a measured
    point, which the extraction prover has already forwarded to the
    verifier; ``extraction_prover_value`` is exact because of this.
    ``_walk`` refuses a response read that breaks the contract.
    """
    k = spec.rounds
    bottom = spec.alphabet[0]
    moves: dict = {}

    def move(i, got):
        if transcript is not None:
            return transcript[i]
        if got not in moves:
            moves[got] = spec.honest_prover(x, witness, u, got)
        return moves[got]

    def trace(ask_h, ask_f):
        ms: list = []
        got: tuple = ()
        for i in range(k - 1):
            ms.append(move(i, got))
            p = tuple(ms)
            for _ in range(2 * k):
                ask_h(p)  # padding block, all ahead of the live read
            live = ask_h(p)
            got = got + ((ask_f(p) if live else bottom),)
        ms.append(move(k - 1, got))
        full = tuple(ms)
        ask_h(full)
        ask_h(full)
        for i in range(k - 1, 0, -1):
            ask_h(tuple(ms[:i]))  # release the held prefix flags
        return full

    return trace


def decision_trace(cfg: ExperimentConfig, spec: ProtocolSpec, x) -> Callable:
    u = spec.prover_randomness[0]
    if cfg.simulator == "honest-wrapper":
        return simulator_trace(spec, x, _statement_witness(spec, x, cfg), u)
    if cfg.simulator == "give-up":
        fixed = (spec.alphabet[0],) * spec.rounds
        return simulator_trace(spec, x, None, u, transcript=fixed)
    raise ConfigError(f"unknown simulator {cfg.simulator!r}")


def hash_trace(cfg: ExperimentConfig, spec: ProtocolSpec, x) -> Callable:
    """Hash-query trace of the challenge-from-hash simulator. Each
    verifier call bills two hash queries on the first message: compute
    and uncompute around the move, then again around the decision. The
    moves are pure, so the first is made once and the final one once
    per challenge."""
    u = spec.prover_randomness[0]
    bottom = spec.alphabet[0]
    if cfg.simulator == "honest-wrapper":
        witness = _statement_witness(spec, x, cfg)
        m1 = spec.honest_prover(x, witness, u, ())
        finals: dict = {}

        def trace(ask_h, ask_f):
            c = ask_h((m1,))
            ask_h((m1,))
            if c not in finals:
                finals[c] = spec.honest_prover(x, witness, u, (c,))
            ask_h((m1,))
            ask_h((m1,))
            return (m1, finals[c])

        return trace
    if cfg.simulator == "give-up":

        def trace(ask_h, ask_f):
            for _ in range(4):
                ask_h((bottom,))
            return (bottom, bottom)

        return trace
    raise ConfigError(f"unknown simulator {cfg.simulator!r}")


def response_trace(cfg: ExperimentConfig, spec: ProtocolSpec, x) -> Callable:
    """Response-oracle trace of the unwrapped simulator: one classical
    challenge query at the first message, then the final move. The
    moves are pure, so the first is made once and the final one once
    per challenge."""
    u = spec.prover_randomness[0]
    bottom = spec.alphabet[0]
    if cfg.simulator == "honest-wrapper":
        witness = _statement_witness(spec, x, cfg)
        m1 = spec.honest_prover(x, witness, u, ())
        finals: dict = {}

        def trace(ask_c):
            c = ask_c((m1,))
            if c not in finals:
                finals[c] = spec.honest_prover(x, witness, u, (c,))
            return (m1, finals[c])

        return trace
    if cfg.simulator == "give-up":

        def trace(ask_c):
            return (bottom, bottom)

        return trace
    raise ConfigError(f"unknown simulator {cfg.simulator!r}")
