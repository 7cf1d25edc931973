"""Measure-and-reprogram as first written: one hand-written copy per variant.

The general and ordered wrappers each carry their own schedule loop,
the two checks each score their own distribution and run their own
reference table, the puncturing corollary hand-codes its query
interceptor, and the constant-round experiment keeps its own copy of
the ordered abort rule. They are the bodies of the former
``transforms.mar_general``, ``mar_ordered``, ``_claim_mass``,
``mar_check_general``, ``mar_check_ordered``, ``o2h_corollary_C`` and
``pipeline._ordered_outcome``, and serve as the reference that the one
engine in ``transforms`` is tested against. ``ordered_rule`` is the
abort rule as it stood inline in ``mar_ordered``. Every run goes through
the per-branch executor of ``executor_reference``.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from executor_reference import (
    TABLE,
    answer_query,
    apply_schedule,
    branch_oracle,
    measure_query_register,
    output_distribution,
    run_query_algorithm,
)
from qromlab.oracle import ClassicalOracle, prefixes
from qromlab.transforms import (
    MarOutcome,
    MarReport,
    O2HReport,
    _queries,
    _slot_points,
    enumerate_schedules,
)


def mar_general(alg, oracle, y, claim_registers, *, z_registers=()):
    k = len(y)
    if len(claim_registers) != k:
        raise ValueError("need one claim register per target slot")
    dom = oracle.domain
    q = _queries(alg)
    scheds = enumerate_schedules(k, q)
    sw = Fraction(1, len(scheds))
    regs = tuple(claim_registers) + tuple(z_registers)
    dist = {}
    for sched in scheds:
        for br in apply_schedule(alg, oracle, sched, y):
            pts = _slot_points(br.outcomes, dom)
            for digits, w in output_distribution([br], regs).items():
                xp = tuple(
                    pts.get(i, dom[digits[i]]) for i in range(k)
                )
                key = (xp, digits[k:])
                dist[key] = dist.get(key, 0) + sw * w
    return dist


def ordered_rule(pts, msgs):
    """(points, output or None, consistent) as ``mar_ordered`` computed it."""
    k = len(msgs)
    xs = tuple(pts.get(i, msgs[: i + 1]) for i in range(k))
    last = xs[-1]
    ok = all(xs[i] == last[: len(xs[i])] for i in range(k))
    return xs, (last if ok else None), ok


def mar_ordered(alg, oracle, y, claim_registers, *, z_registers=()):
    k = len(y)
    if len(claim_registers) != k:
        raise ValueError("need one claim register per target slot")
    dom = oracle.domain
    alphabet = tuple(p[0] for p in dom if len(p) == 1)
    q = _queries(alg)
    scheds = enumerate_schedules(k, q)
    sw = Fraction(1, len(scheds))
    regs = tuple(claim_registers) + tuple(z_registers)
    dist = {}
    for sched in scheds:
        for br in apply_schedule(alg, oracle, sched, y):
            pts = _slot_points(br.outcomes, dom)
            for digits, w in output_distribution([br], regs).items():
                msgs = tuple(alphabet[d] for d in digits[:k])
                xs, output, ok = ordered_rule(pts, msgs)
                out = MarOutcome(xs, output, ok, digits[k:])
                dist[out] = dist.get(out, 0) + sw * w
    return dist


def claim_mass(alg, table, x_star, decode, regs, k, relation):
    total = 0
    for br in run_query_algorithm(alg, oracles={TABLE: table}):
        for digits, w in output_distribution([br], regs).items():
            if decode(digits[:k]) != x_star:
                continue
            if relation is not None and not relation(x_star, digits[k:]):
                continue
            total += w
    return total


def mar_check_general(
    alg, oracle, x_star, y, claim_registers, *,
    relation=None, z_registers=(), dist=None,
):
    xs = tuple(x_star)
    k = len(xs)
    if len(set(xs)) != k:
        raise ValueError("target points must be distinct")
    if dist is None:
        dist = mar_general(
            alg, oracle, y, claim_registers, z_registers=z_registers
        )
    lhs = 0
    for (pts, z), w in dist.items():
        if pts != xs:
            continue
        if relation is not None and not relation(pts, z):
            continue
        lhs += w
    star = oracle
    for xi, yi in zip(xs, y):
        star = star.reprogram(xi, yi)
    dom = oracle.domain
    regs = tuple(claim_registers) + tuple(z_registers)
    rhs = claim_mass(
        alg, star, xs, lambda d: tuple(dom[i] for i in d), regs, k, relation
    )
    q = _queries(alg)
    factor = Fraction(1, (2 * q + 1) ** (2 * k))
    holds = float(lhs) >= float(factor) * float(rhs) - 1e-10
    return MarReport(
        float(lhs), float(rhs), factor, holds, 0.0, len(enumerate_schedules(k, q))
    )


def mar_check_ordered(
    alg, oracle, x_star, y, claim_registers, *,
    relation=None, z_registers=(), dist=None,
):
    xs = tuple(x_star)
    k = len(xs)
    targets = prefixes(xs)
    if set(targets) - set(oracle.domain):
        raise ValueError("target prefixes outside the table domain")
    if dist is None:
        dist = mar_ordered(
            alg, oracle, y, claim_registers, z_registers=z_registers
        )
    lhs = 0
    bot = 0
    for out, w in dist.items():
        if not out.consistent:
            bot += w
            continue
        if out.output != xs:
            continue
        if relation is not None and not relation(out.output, out.z):
            continue
        lhs += w
    star = oracle
    for pre, yi in zip(targets, y):
        star = star.reprogram(pre, yi)
    alphabet = tuple(p[0] for p in oracle.domain if len(p) == 1)
    regs = tuple(claim_registers) + tuple(z_registers)
    rhs = claim_mass(
        alg, star, xs, lambda d: tuple(alphabet[i] for i in d), regs, k,
        relation,
    )
    q = _queries(alg)
    factor = Fraction(1, (2 * q + 1) ** (2 * k))
    holds = float(lhs) >= float(factor) * float(rhs) - 1e-10
    return MarReport(
        float(lhs), float(rhs), factor, holds, float(bot),
        len(enumerate_schedules(k, q)),
    )


def o2h_corollary_C(alg, domain, marked, *, output_register=None):
    dom = tuple(domain)
    sset = set(marked)
    if sset - set(dom):
        raise ValueError("marked points outside the domain")
    out_reg = output_register or alg.output_registers[0]
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    indicator = ClassicalOracle(dom, (0, 1), tuple(int(p in sset) for p in dom))
    q = _queries(alg)

    def output_mass(table):
        total = 0.0
        for br in run_query_algorithm(alg, oracles={TABLE: table}):
            for digits, w in output_distribution([br], (out_reg,)).items():
                if digits[0] < len(dom) and dom[digits[0]] in sset:
                    total += float(w)
        return total

    p_a_fs = output_mass(indicator)
    p_plain = output_mass(zero)
    if q == 0:
        p_b = 0.0
    else:
        acc = 0.0
        for j in range(1, q + 1):

            def on_query(branch, call, ordinal, _j=j):
                if ordinal != _j:
                    return None
                out = []
                for point, cb in measure_query_register(branch, call):
                    pos = branch_oracle(cb, TABLE).domain.index(point)
                    cb = answer_query(cb, call)
                    out.append(
                        replace(cb, outcomes=cb.outcomes + (("o2h-catch", pos),))
                    )
                return out

            for br in run_query_algorithm(alg, oracles={TABLE: zero}, on_query=on_query):
                caught = [o for reg, o in br.outcomes if reg == "o2h-catch"]
                if caught and dom[caught[0]] in sset:
                    acc += float(br.weight)
        p_b = acc / q
    p_c = 0.5 * (p_plain + p_b)
    factor = float(1.0 / (4.0 * np.sqrt(q + 1.0)))
    holds = bool(np.sqrt(p_c) >= factor * p_a_fs - 1e-10)
    return O2HReport(p_c, p_a_fs, q, factor, holds)


def pipeline_ordered_outcome(slots, out, k):
    """Extracted transcript of one scheduled run, or None on a clash."""
    xs = [slots.get(i, tuple(out[: i + 1])) for i in range(k)]
    last = xs[-1]
    if len(last) == k and all(xs[i] == last[: len(xs[i])] for i in range(k)):
        return last
    return None
