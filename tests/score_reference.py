"""The four decision scorers as they were before ``pipeline._acceptor``.

Each counts a walk leaf's accepting randomness with a per-r loop of
``spec.decide`` calls over the leaf's group, so an unmeasured leaf of a
folded spec costs one folded ``decide`` per r of the whole product
randomness. The bodies are otherwise the pipeline's: the same walks,
the same weights, read as masses (``live_reference.masses``), and the
same exact sums. The pipeline's scorers read the count from
``_acceptor`` instead, and are tested against these for exact
``Fraction`` equality.

``leafwise_sparse_hypothesis`` is ``pipeline._sparse_hypothesis`` as it
was before it summed each (ones, zeros) class in integers: it reads the
count from ``_acceptor`` and applies each density's likelihood ratio
once per kept leaf.
"""

from fractions import Fraction

from live_reference import masses
from qromlab.pipeline import _acceptor, _label_walk
from qromlab.protocol import ConfigError, ProtocolSpec
from qromlab.transforms import _ordered_outcome, _schedule_count
from qromlab.walk import _walk


def sparse_hypothesis(spec: ProtocolSpec, x, trace, densities) -> tuple[Fraction, ...]:
    """``pipeline._sparse_hypothesis``, per-r."""
    densities = tuple(Fraction(eps) for eps in densities)
    k = spec.rounds
    totals = [Fraction(0)] * len(densities)
    walked = _walk(spec, x, trace, values=(1, 0))
    for weight, group, _, out, asg, *_ in masses(walked, len(spec.randomness)):
        flags = dict(asg)
        if not all(flags.get(tuple(out[:i]), 0) == 1 for i in range(1, k + 1)):
            continue
        accepted = sum(1 for r in group if spec.decide(x, r, out))
        ones = sum(flags.values())
        runs = weight * 2 ** len(flags)
        for j, eps in enumerate(densities):
            totals[j] += runs * eps**ones * (1 - eps) ** (len(flags) - ones) * accepted
    return tuple(t / len(spec.randomness) for t in totals)


def leafwise_sparse_hypothesis(spec: ProtocolSpec, x, trace, densities) -> tuple[Fraction, ...]:
    """``pipeline._sparse_hypothesis``, one ratio product per kept leaf."""
    ratios = [(2 * Fraction(eps), 2 - 2 * Fraction(eps)) for eps in densities]
    k = spec.rounds
    count = _acceptor(spec, x)
    totals = [Fraction(0)] * len(ratios)
    total, leaves = _walk(spec, x, trace, values=(1, 0))
    for weight, group, _, out, asg, *_ in leaves:
        flags = dict(asg)
        if not all(flags.get(tuple(out[:i]), 0) == 1 for i in range(1, k + 1)):
            continue
        accepted = weight * count(group, out)
        ones = sum(flags.values())
        for j, (one, zero) in enumerate(ratios):
            totals[j] += one**ones * zero ** (len(flags) - ones) * accepted
    return tuple(t / total for t in totals)


def extraction_prover_value(spec: ProtocolSpec, x, trace, q: int) -> tuple[Fraction, Fraction]:
    """``pipeline.extraction_prover_value``, per-r."""
    k = spec.rounds
    extracted = decided = 0
    total = len(spec.randomness) * _schedule_count(k, q)
    for weight, group, slots, out, _, made, _ in masses(_walk(spec, x, trace, k, q), total):
        if made != q:
            raise ConfigError(f"trace makes {made} flag queries, scheduled for {q}")
        measured = dict(slots)
        _, got = _ordered_outcome(measured, out)
        full = got is not None and len(got) == k
        prefixes = all(p == out[: len(p)] for p in measured.values())
        for r in group:
            if full and spec.decide(x, r, got):
                decided += weight
            if prefixes and spec.decide(x, r, out):
                extracted += weight
    return Fraction(extracted, total), Fraction(decided, total)


def fs_game_value(spec: ProtocolSpec, x, trace) -> tuple[Fraction, int]:
    """``pipeline._fs_game_value``, per-r."""
    total = Fraction(0)
    leaves = masses(_label_walk(spec, x, trace), len(spec.randomness))
    for weight, group, _, out, asg, *_ in leaves:
        label = dict(asg).get(out[:1])
        named = spec.randomness if label is None else (label,)
        hits = sum(1 for r in named if spec.decide(x, r, out))
        if hits:
            total += weight * Fraction(hits * len(group), len(named))
    return total / len(spec.randomness), max(made for *_, made, _ in leaves)


def single_slot_extraction(spec: ProtocolSpec, x, trace, q: int) -> tuple[Fraction, Fraction]:
    """``pipeline._single_slot_extraction``, per-r."""
    forwarded = extracted = Fraction(0)
    total = len(spec.randomness) * _schedule_count(1, q)
    for weight, group, slots, out, *_ in masses(_label_walk(spec, x, trace, 1, q), total):
        measured = slots[0][1] if slots else None
        claim = out[:1] if measured is None else measured
        if len(claim) == 1:
            composed = (claim[0], out[1])
            extracted += weight * sum(1 for r in group if spec.decide(x, r, composed))
        if measured in (None, out[:1]):
            forwarded += weight * sum(1 for r in group if spec.decide(x, r, out))
    return forwarded / total, extracted / total
