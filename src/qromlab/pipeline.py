"""Theorem-scale decision experiments over the toy protocol batteries.

Every experiment is an exact computation. Oracles are enumerated or
lazily forked with rational weights, reprogramming schedules are
averaged with rational weights, and each reported number is the float
of an exact fraction. A report is a flat list of checks, one audited
inequality per line with both sides spelled out, plus the decision
value per statement and the yes/no gap; serialization is canonical,
so identical configurations produce identical bytes.

The decision experiments share one simulator model: a classical query
trace that asks an oracle on transcript prefixes (flags, hashed
challenges or labelled challenges) and a response oracle, wrapped by
the ordered measure-and-reprogram schedules from ``transforms``. One
driver runs all of them: ``walk._walk``, the counting walk, runs a trace
under every randomness, ordered schedule and lazily sampled oracle
table at once, replaying each branching node of the trace's answer tree
once and merging runs into weighted paths. The extraction provers are
predicates on those paths. The expected-time experiment instead drives
the dense verifier machines from ``adversary`` and checks budget,
acceptance, and conditional-state facts on the exact output mixture.
Each kind of name has one table: ``EXPERIMENTS`` (verifier kind, stock
config, runner), ``PROTOCOLS`` (builder, stand-in statements) and
``SIMULATORS`` (a decision simulator's moves, which each experiment's
one query plan asks). A row looks its function up by this module's name
for it each time it calls.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from qromlab.adversary import (
    build_verifier,
    challenge_structure,
    cont_density,
    expected_wrapper,
    final_cont_state,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_simulator,
)
from qromlab.protocol import (
    ConfigError,
    ProtocolSpec,
    soundness_exact,
    toy_guess,
    toy_qr,
    toy_table,
)
from qromlab.qsim import DensityOnRegister, swap_test, trace_distance
from qromlab.transforms import _ordered_outcome, _schedule_count, truncate
from qromlab.walk import _walk

SLACK = 1e-9  # subtracted from every lower bound before comparing
TOLERANCE = 1e-10  # added to exact upper bounds


def eps_star(k: int, q: int) -> Fraction:
    """Calibrated flag density: small enough that the reprogramming
    slack stays under half the hypothesis floor after composition."""
    if k < 1 or q < 1:
        raise ValueError("rounds and budget must be positive")
    return Fraction(1, 256 * k * k * q * q * (4 * k * q + 1) ** (2 * k))


class Protocol(NamedTuple):
    """A protocol: its builder of reps, whether reps is settable, its stand-ins."""

    build: Callable[[int], ProtocolSpec]
    repeats: bool
    yes: tuple
    no: tuple


PROTOCOLS = {
    "toy-qr": Protocol(lambda reps: toy_qr(reps), True, (4, 16), (5, 20)),
    "toy-table": Protocol(lambda reps: toy_table(), False, (1, 3), ()),
    "toy-guess": Protocol(lambda reps: toy_guess(), False, (1,), (0,)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run; everything downstream is derived.

    q is the simulator's invocation budget for the experiment at hand:
    verifier calls for the decision experiments, total calls for the
    expected-time one. eps is the flag density as a rational. The default
    statements are toy-qr's in ``PROTOCOLS``; the verifier flavor
    (``EXPERIMENTS``), ``SLACK`` and ``TOLERANCE`` are fixed and only echoed.
    """

    protocol: str = "toy-qr"
    reps: int = 3
    q: int = 2
    eps: Fraction = Fraction(1, 4)
    simulator: str = "honest-wrapper"
    yes_instances: tuple = PROTOCOLS["toy-qr"].yes
    no_instances: tuple = PROTOCOLS["toy-qr"].no

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "yes_instances", tuple(self.yes_instances))
        object.__setattr__(self, "no_instances", tuple(self.no_instances))
        if not 0 < self.eps <= 1:
            raise ConfigError("the flag density must lie in (0, 1]")
        if self.q < 1:
            raise ConfigError("the budget must be positive")
        if not self.yes_instances:
            raise ConfigError("at least one yes statement is needed")
        if set(self.yes_instances) & set(self.no_instances):
            raise ConfigError("yes and no statements overlap")


def build_protocol(cfg: ExperimentConfig) -> ProtocolSpec:
    """The protocol battery a configuration names."""
    row = PROTOCOLS.get(cfg.protocol)
    if row is None:
        raise ConfigError(f"unknown protocol {cfg.protocol!r}")
    if not row.repeats and cfg.reps != ExperimentConfig.reps:
        raise ConfigError(f"protocol {cfg.protocol!r} has no repetitions to set")
    return row.build(cfg.reps)


# experiment name -> (verifier flavor echoed into its report, stock config, runner)
EXPERIMENTS = {
    "constant-round": ("random_aborting", ExperimentConfig(),
                       lambda cfg: decide_constant_round(cfg)),
    "expected-time": ("superposition", ExperimentConfig(
        protocol="toy-table", q=8, simulator="expected-geometric",
        yes_instances=PROTOCOLS["toy-table"].yes, no_instances=PROTOCOLS["toy-table"].no,
    ), lambda cfg: expected_time_pipeline(cfg)),
    "public-coin": ("hash-challenge", ExperimentConfig(eps=Fraction(1, 2)),
                    lambda cfg: decide_public_coin(cfg)),
    "three-round": ("response-oracle", ExperimentConfig(q=1, eps=Fraction(1, 2)),
                    lambda cfg: decide_three_round(cfg)),
}
THEOREMS = tuple(EXPERIMENTS)


def default_config(theorem: str) -> ExperimentConfig:
    """The stock configuration each experiment is calibrated on."""
    if theorem not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {theorem!r}")
    return EXPERIMENTS[theorem][1]


@dataclass(frozen=True)
class Check:
    """One audited inequality; lhs and rhs are floats of exact values."""

    statement: str
    name: str
    anchor: str
    lhs: float
    rhs: float
    relation: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    """Checks plus per-statement decision values for one run."""

    theorem: str
    config: dict
    checks: tuple[Check, ...]
    decision: dict
    runtime_ms: int = 0  # pinned so identical runs serialize identically


def _check(statement, name, anchor, lhs, rhs, relation, note="") -> Check:
    lhs, rhs = float(lhs), float(rhs)
    ok = {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[relation]
    return Check(str(statement), name, anchor, lhs, rhs, relation, ok, note)


def _report(theorem: str, cfg: ExperimentConfig, spec: ProtocolSpec,
            checks: list[Check], yes_vals: Sequence,
            no_vals: Sequence) -> ExperimentReport:
    """The report of one run: its checks, then the decision gap's check
    when both sides have values, the config echo and the decision."""
    yes = [float(v) for v in yes_vals]
    no = [float(v) for v in no_vals]
    gap = min(yes) - max(no) if yes and no else None
    if gap is not None:
        checks.append(_check("*", "decision-gap", "decision separation", gap, 0.1, ">="))
    echo = {
        "protocol": spec.name,
        "k": spec.rounds,
        "reps": cfg.reps,
        "q": cfg.q,
        "eps": str(cfg.eps),
        "eps_star": str(eps_star(spec.rounds, cfg.q)),
        "kind": EXPERIMENTS[theorem][0],
        "simulator": cfg.simulator,
        "yes": [str(x) for x in cfg.yes_instances],
        "no": [str(x) for x in cfg.no_instances],
        "slack": SLACK,
        "tolerance": TOLERANCE,
    }
    decision = {"yes": yes, "no": no, "gap": gap}
    return ExperimentReport(theorem, echo, tuple(checks), decision)


def _extraction_checks(spec: ProtocolSpec, x, pstar, value) -> list[Check]:
    """A no-statement's extraction prover against its decision value and
    exact soundness, and the decision value against soundness."""
    cap = float(soundness_exact(spec, x)) + TOLERANCE
    return [
        _check(x, "extraction-dominance", "inline extraction dominance",
               pstar, value, ">="),
        _check(x, "extraction-soundness", "strategy-tree soundness cap",
               pstar, cap, "<="),
        _check(x, "no-decision", "strategy-tree soundness cap", value, cap, "<="),
    ]


def report_as_dict(report: ExperimentReport) -> dict:
    """Plain-dict form of a report with a fixed key order."""
    return {
        "theorem": report.theorem,
        "config": report.config,
        "checks": [
            {
                "statement": c.statement,
                "name": c.name,
                "anchor": c.anchor,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "relation": c.relation,
                "pass": c.passed,
                "note": c.note,
            }
            for c in report.checks
        ],
        "decision": report.decision,
        "runtime_ms": report.runtime_ms,
    }


def report_json(report: ExperimentReport) -> str:
    return json.dumps(report_as_dict(report), indent=2) + "\n"


def report_csv(report: ExperimentReport) -> str:
    """One row per check, floats in repr form."""
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")
    rows.writerow(
        ("statement", "check", "anchor", "lhs", "rhs", "relation", "pass", "note")
    )
    for c in report.checks:
        rows.writerow(
            (c.statement, c.name, c.anchor, repr(c.lhs), repr(c.rhs), c.relation,
             int(c.passed), c.note)
        )
    return buf.getvalue()


def write_report(report: ExperimentReport, json_path=None, csv_path=None) -> None:
    if json_path is not None:
        with open(json_path, "w") as fh:
            fh.write(report_json(report))
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(report_csv(report))


# ---------------------------------------------------------------------------
# Classical trace machinery.


def _named_value(spec: ProtocolSpec, x, leaves, labels, randomness_of) -> Fraction:
    """Pr over a walk's leaves that the output is accepted at the
    randomness its own first-message entry names, randomness_of(label);
    an entry the run never queried is averaged over the labels."""
    total = Fraction(0)
    for weight, group, _, out, asg, _ in leaves:
        label = dict(asg).get(out[:1])
        named = labels if label is None else (label,)
        hits = sum(1 for c in named if spec.decide(x, randomness_of(c), out))
        if hits:
            total += weight * Fraction(hits * len(group), len(named))
    return total / len(spec.randomness)


def simulator_trace(spec: ProtocolSpec, move: Callable) -> Callable:
    """Flag-oracle query trace of a simulator whose next message after
    the responses ``got`` is ``move(got)``, as ``_moves`` builds it.

    Each of the first k-1 verifier calls pads the call's prefix 2k
    times and then reads its flag live, keeping the flag register held
    across later calls; the response oracle is consulted only on a set
    flag and a cleared flag yields the bottom message. The final call
    reads and releases the full transcript's flag, then releases the
    held prefixes in reverse order (2k queries in total, so the trace
    makes 2k per call). Every pad sits ahead of the live read, which
    maximizes the reprogramming slots that can raise the flag in time.

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

    def trace(ask_h, ask_f):
        ms: list = []
        got: tuple = ()
        for _ in range(k - 1):
            ms.append(move(got))
            p = tuple(ms)
            for _ in range(2 * k):
                ask_h(p)  # padding block, all ahead of the live read
            live = ask_h(p)
            got = got + ((ask_f(p) if live else bottom),)
        ms.append(move(got))
        full = tuple(ms)
        ask_h(full)
        ask_h(full)
        for i in range(k - 1, 0, -1):
            ask_h(tuple(ms[:i]))  # release the held prefix flags
        return full

    return trace


def _statement_witness(spec: ProtocolSpec, x, cfg: ExperimentConfig):
    """The statement's first witness, or a yes-instance stand-in when
    the statement has none; off-language runs keep a concrete prover."""
    ws = spec.witness_map(x)
    if ws:
        return ws[0]
    stand_in = spec.witness_map(cfg.yes_instances[0])
    if not stand_in:
        raise ValueError("no witness available for the stand-in statement")
    return stand_in[0]


def _honest_moves(spec: ProtocolSpec, x, cfg: ExperimentConfig) -> Callable:
    """The honest prover's moves on a statement, at its first witness
    and prover randomness. They are pure, and ``_walk`` replays a trace
    once per branching node of its answer tree while the responses take
    few values, so each move is made once per statement."""
    witness = _statement_witness(spec, x, cfg)
    u = spec.prover_randomness[0]
    return functools.cache(lambda got: spec.honest_prover(x, witness, u, got))


# decision simulator name -> its moves on a statement: (spec, x, cfg) -> move,
# where move(got) is the next message after the responses got
SIMULATORS = {
    "honest-wrapper": lambda spec, x, cfg: _honest_moves(spec, x, cfg),
    "give-up": lambda spec, x, cfg: lambda got: spec.alphabet[0],
}


def _moves(cfg: ExperimentConfig, spec: ProtocolSpec, x) -> Callable:
    """The moves of the configured decision simulator on a statement."""
    row = SIMULATORS.get(cfg.simulator)
    if row is None:
        raise ConfigError(f"unknown simulator {cfg.simulator!r}")
    return row(spec, x, cfg)


# ---------------------------------------------------------------------------
# Constant-round decision experiment.


def _sparse_hypothesis(spec: ProtocolSpec, x, trace, densities) -> tuple[Fraction, ...]:
    """Pr over randomness and an eps-sparse flag table that the plain
    run outputs an accepted transcript with every prefix flagged, for
    each eps of ``densities``.

    One walk serves every density: it forks each flag fairly, so a
    merged path weighs its count of runs over 2**|assignment|, and its
    weight at eps is that count times eps**ones (1-eps)**zeros.
    """
    densities = tuple(Fraction(eps) for eps in densities)
    k = spec.rounds
    totals = [Fraction(0)] * len(densities)
    for weight, group, _, out, asg, _ in _walk(spec, x, trace,
                                               values=((1, 1), (0, 1))):
        flags = dict(asg)
        if not all(flags.get(tuple(out[:i]), 0) == 1 for i in range(1, k + 1)):
            continue
        accepted = sum(1 for r in group if spec.decide(x, r, out))
        ones = sum(flags.values())
        runs = weight * 2 ** len(flags)
        for j, eps in enumerate(densities):
            totals[j] += runs * eps**ones * (1 - eps) ** (len(flags) - ones) * accepted
    return tuple(t / len(spec.randomness) for t in totals)


def extraction_prover_value(spec: ProtocolSpec, x, trace, q: int) -> tuple[Fraction, Fraction]:
    """Exact win rate of the extraction prover over randomness and every
    ordered schedule of (k, q), with the schedule-averaged decision
    value it dominates; one counting walk (``walk._walk``) of the live
    replays scores both, and no schedule is built.

    The prover forwards each measured point's fresh messages to the
    live verifier and answers response queries with what it received.
    Until two measured points clash, its run is the live scheduled
    replay: under the trace contract a response is read only on a
    flagged point, and only a measurement flags one. It therefore wins
    iff every measured point is a prefix of the output and the output
    is accepted; a clash breaks the first condition, and loses. The
    decision value scores a run when its measured points, backfilled by
    the output's prefixes, assemble into a full accepted transcript
    under the ordered abort rule.

    Raises:
        ConfigError: a path makes other than q flag queries.

    Returns:
        (extraction value, decision value), exact.
    """
    k = spec.rounds
    extracted = decided = 0
    for weight, group, slots, out, _, made in _walk(spec, x, trace, k, q):
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
    total = len(spec.randomness) * _schedule_count(k, q)
    return Fraction(extracted, total), Fraction(decided, total)


def decide_constant_round(cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Decision experiment for strict constant-budget simulators.

    For each statement the wrapped simulator's flag-oracle trace is
    averaged exactly over the verifier randomness and all ordered
    reprogramming schedules; a run scores when the measured points
    assemble into a full accepted transcript. Yes-statements must
    clear the composed floor whenever the measured sparse-flag
    hypothesis holds at the calibrated density (the display density is
    audited alongside); on no-statements the extraction prover built
    from the same trace must dominate the decision value while staying
    under exact soundness.
    """
    cfg = default_config("constant-round") if cfg is None else cfg
    spec = build_protocol(cfg)
    k = spec.rounds
    if k > 2:
        raise ConfigError("the trace layout covers one- and two-move specs")
    if cfg.q != k:
        raise ConfigError(
            f"the flag trace makes {k} verifier calls, so the budget q must be"
            f" {k}, not {cfg.q}"
        )
    q_h = 2 * k * cfg.q
    factor = (2 * q_h + 1) ** (2 * k)
    bound = Fraction(1, 8 * factor)
    es = eps_star(k, cfg.q)
    checks: list[Check] = []
    yes_vals: list[Fraction] = []
    no_vals: list[Fraction] = []
    for x in cfg.yes_instances + cfg.no_instances:
        trace = simulator_trace(spec, _moves(cfg, spec, x))
        pstar, value = extraction_prover_value(spec, x, trace, q_h)
        if x in cfg.yes_instances:
            met = True
            hyps = _sparse_hypothesis(spec, x, trace, (cfg.eps, es))
            for tag, eps, hyp in zip(("", "-calibrated"), (cfg.eps, es), hyps):
                floor = eps ** k / 4
                c = _check(
                    x, "flag-hypothesis" + tag, "sparse-flag acceptance floor",
                    hyp, float(floor) - SLACK, ">=",
                )
                met = met and c.passed
                checks.append(c)
            c = _check(
                x, "yes-decision", "schedule-average decision floor",
                value, float(bound) - SLACK, ">=",
                note=f"floor 1/4 of 1/{factor} less slack 1/8 of 1/{factor}",
            )
            if not met:
                c = replace(c, passed=True, note="hypothesis unmet")
            checks.append(c)
            yes_vals.append(value)
        else:
            checks += _extraction_checks(spec, x, pstar, value)
            no_vals.append(value)
    return _report("constant-round", cfg, spec, checks, yes_vals, no_vals)


# ---------------------------------------------------------------------------
# Public-coin decision experiment.


def _hash_trace(spec: ProtocolSpec, move: Callable) -> Callable:
    """Hash-query trace of the challenge-from-hash simulator. Each
    verifier call bills two hash queries on the first message: compute
    and uncompute around the move, then again around the decision."""

    def trace(ask_h, ask_f):
        m1 = move(())
        c = ask_h((m1,))
        ask_h((m1,))
        m2 = move((c,))
        ask_h((m1,))
        ask_h((m1,))
        return (m1, m2)

    return trace


def _hash_value(spec: ProtocolSpec, x, trace) -> tuple[Fraction, int]:
    """(Pr over the lazy hash table that the output is accepted at the
    randomness its own hashed challenge names, hash queries billed): one
    walk over the table, billed at the most queries any run makes."""
    challenges, chart = challenge_structure(spec, x)
    values = [(c, 1) for c in challenges]
    leaves = _walk(spec, x, trace, values=values)
    counted = max(made for *_, made in leaves)
    return _named_value(spec, x, leaves, challenges, lambda c: chart[(c,)]), counted


def _top_products(masses: Sequence[Fraction], reps: int, n: int) -> list[Fraction]:
    """The n largest products of ``reps`` entries of ``masses``, largest
    first, exact. ``masses`` is nonnegative and sorted descending, so a
    product can only fall as any index of its index vector grows: a
    best-first heap from (0, ..., 0) that pushes each popped vector's
    one-step neighbours pops the products in descending order."""
    if not masses:
        return []
    start = (0,) * reps
    heap = [(-math.prod(masses[i] for i in start), start)]
    seen = {start}
    out: list[Fraction] = []
    while heap and len(out) < n:
        neg, idx = heapq.heappop(heap)
        out.append(-neg)
        for j in range(reps):
            if idx[j] + 1 < len(masses):
                nxt = idx[:j] + (idx[j] + 1,) + idx[j + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (-math.prod(masses[i] for i in nxt), nxt))
    return out


def _forgery_masses(spec: ProtocolSpec, x, n: int) -> list[Fraction]:
    """The n largest answerable challenge masses over first messages,
    largest first: the share of challenges some second message answers.

    A spec built by ``protocol.fold`` answers a challenge iff every
    coordinate does, and its challenge coordinates are independent, so
    its masses are the products of base masses; the n largest come from
    ``_top_products`` over the sorted base masses, and the folded
    alphabet is never listed.
    """
    folded = spec.fold_base is not None
    base, reps = (spec.fold_base, spec.fold_reps) if folded else (spec, 1)
    challenges, chart = challenge_structure(base, x)
    masses = []
    for m1 in base.alphabet:
        good = sum(
            1 for c in challenges
            if any(base.decide(x, chart[(c,)], (m1, m2)) for m2 in base.alphabet)
        )
        masses.append(Fraction(good, len(challenges)))
    return _top_products(sorted(masses, reverse=True), reps, n)


def fs_forgery_exact(spec: ProtocolSpec, x, q: int) -> Fraction:
    """Exact optimum of a q-query challenge-grinding forger.

    Hash values at distinct points are independent, so grinding the q
    points of largest answerable challenge mass and outputting on the
    first hit, or at one unqueried point when every probe misses, is
    optimal; the value is one minus the miss product over the q+1
    largest masses, which ``_forgery_masses`` takes from the base of a
    folded spec without building the folded one.
    """
    miss = Fraction(1)
    for p in _forgery_masses(spec, x, q + 1):
        miss *= 1 - p
    return 1 - miss


def decide_public_coin(cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Decision experiment for public-coin protocols with hashed
    challenges.

    The challenge of every prefix is the hash value at that prefix,
    forked lazily and exactly over the challenge alphabet; a run
    scores when the output transcript is accepted at the randomness
    its own hashed challenge names. Yes-statements must clear the
    closeness floor; no-statement values are capped by the exact
    optimum of a hash-grinding forger with the simulator's billed
    query budget, and by exact soundness.
    """
    cfg = default_config("public-coin") if cfg is None else cfg
    spec = build_protocol(cfg)
    if not spec.public_coin:
        raise ConfigError("the hash-challenge experiment needs a public-coin spec")
    if cfg.q != 2:
        raise ConfigError(
            f"the hash-challenge trace makes 2 verifier calls, so the budget q"
            f" must be 2, not {cfg.q}"
        )
    k = spec.rounds
    budget = 2 * (k - 1) * cfg.q
    checks: list[Check] = []
    yes_vals: list[Fraction] = []
    no_vals: list[Fraction] = []
    for x in cfg.yes_instances + cfg.no_instances:
        trace = _hash_trace(spec, _moves(cfg, spec, x))
        total, counted = _hash_value(spec, x, trace)
        checks.append(_check(
            x, "hash-budget", "per-call hash budget", counted, budget, "==",
        ))
        if x in cfg.yes_instances:
            checks.append(_check(
                x, "yes-decision", "hashed-challenge completeness floor",
                total, 1.0 - float(cfg.eps) - SLACK, ">=",
            ))
            yes_vals.append(total)
        else:
            forgery = fs_forgery_exact(spec, x, budget)
            sound = soundness_exact(spec, x)
            checks.append(_check(
                x, "forgery-cap", "hash-grinding forgery cap",
                total, float(forgery) + TOLERANCE, "<=",
                note=f"best {budget + 1} grind points",
            ))
            checks.append(_check(
                x, "no-decision", "strategy-tree soundness cap",
                total, float(sound) + TOLERANCE, "<=",
            ))
            no_vals.append(total)
    return _report("public-coin", cfg, spec, checks, yes_vals, no_vals)


# ---------------------------------------------------------------------------
# Three-round (single-slot) decision experiment.


def _response_trace(spec: ProtocolSpec, move: Callable) -> Callable:
    """Response-oracle trace of the unwrapped simulator: one classical
    challenge query at the first message, then the final move."""

    def trace(ask_c):
        m1 = move(())
        return (m1, move((ask_c((m1,)),)))

    return trace


def _label_walk(spec: ProtocolSpec, x, trace, k: int = 0, q: int = 0) -> list:
    """The walk of a response trace over the lazy challenge table.

    The table assigns each queried point a uniform randomness label and
    the answer is that label's response; a slot reprograms its point to
    the live randomness. Returns ``walk._walk``'s leaves, whose
    assignments hold the labels.
    """
    rs = spec.randomness

    def labeled(ask_h, ask_f):
        return tuple(trace(lambda p: spec.next_message(x, ask_h(p), tuple(p))))

    values = [(r, 1) for r in rs]
    return _walk(spec, x, labeled, k, q, values, live=True)


def _fs_game_value(spec: ProtocolSpec, x, trace) -> Fraction:
    """Pr over the lazy challenge table that the simulator's output is
    accepted at the randomness its own first-message entry names."""
    return _named_value(spec, x, _label_walk(spec, x, trace), spec.randomness,
                        lambda r: r)


def _single_slot_extraction(spec: ProtocolSpec, x, trace, q: int) -> tuple[Fraction, Fraction]:
    """Win rate of the prover that forwards the measured first message
    to the live verifier and answers the query with its response, with
    the single-reprogram extraction value it dominates, over randomness
    and every single-slot schedule in q queries; one walk of the
    scheduled runs scores both, and no schedule is built.

    The forwarding prover's run is the scheduled run unless the
    measured point is not a first message, and then it loses; so it
    wins iff the measured point, if any, is the output's first message
    and the output is accepted. The extraction value composes the
    measured first message (the output's own if none was measured)
    with the simulator's final move.

    Returns:
        (forwarding prover's value, extraction value), exact.
    """
    forwarded = extracted = Fraction(0)
    for weight, group, slots, out, _, _ in _label_walk(spec, x, trace, 1, q):
        measured = slots[0][1] if slots else None
        claim = out[:1] if measured is None else measured
        if len(claim) == 1:
            composed = (claim[0], out[1])
            extracted += weight * sum(1 for r in group if spec.decide(x, r, composed))
        if measured in (None, out[:1]):
            forwarded += weight * sum(1 for r in group if spec.decide(x, r, out))
    total = len(spec.randomness) * _schedule_count(1, q)
    return forwarded / total, extracted / total


def decide_three_round(cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Decision experiment for the single-reprogram three-move case.

    One oracle serves randomness-labeled challenges; the schedule
    measures at most one query and may reprogram it to the live
    randomness before or after answering. Yes-statements must clear
    the composed floor built from the measured challenge-game value,
    degraded by the puncturing factor for one decision query and the
    single-slot reprogramming factor; the forwarding prover must
    dominate every no-statement value without beating exact soundness.
    """
    cfg = default_config("three-round") if cfg is None else cfg
    spec = build_protocol(cfg)
    if spec.rounds != 2:
        raise ConfigError("the single-slot experiment covers two-move specs")
    q_dec = 1  # decision queries billed by the composed reduction
    puncture = 16 * (q_dec + 1)
    slot_factor = (2 * cfg.q + 1) ** 2
    checks: list[Check] = []
    yes_vals: list[Fraction] = []
    no_vals: list[Fraction] = []
    for x in cfg.yes_instances + cfg.no_instances:
        trace = _response_trace(spec, _moves(cfg, spec, x))
        pstar, value = _single_slot_extraction(spec, x, trace, cfg.q)
        if x in cfg.yes_instances:
            game = _fs_game_value(spec, x, trace)
            hyp = _check(
                x, "challenge-game", "challenge-game floor",
                game, 1.0 - float(cfg.eps) - SLACK, ">=",
            )
            checks.append(hyp)
            checks.append(_check(
                x, "decision-queries", "puncturing budget",
                0, q_dec, "<=",
                note="the trace never queries the acceptance oracle",
            ))
            bound = game * game / (puncture * slot_factor)
            c = _check(
                x, "yes-decision", "single-slot composed floor",
                value, float(bound) - SLACK, ">=",
                note=f"puncture 1/{puncture}, reprogram 1/{slot_factor}",
            )
            if not hyp.passed:
                c = replace(c, passed=True, note="hypothesis unmet")
            checks.append(c)
            yes_vals.append(value)
        else:
            checks += _extraction_checks(spec, x, pstar, value)
            no_vals.append(value)
    return _report("three-round", cfg, spec, checks, yes_vals, no_vals)


# ---------------------------------------------------------------------------
# Expected-time experiment on the dense verifier machines.


def _phi(eps, k: int) -> DensityOnRegister:
    """Pure continuation state of an accepted eps-density interaction."""
    a = float(Fraction(eps)) ** (k / 2)
    v = np.array([1.0, a]) / np.sqrt(1.0 + a * a)
    return DensityOnRegister("Cont", np.outer(v, v))


def expected_time_pipeline(cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Budget, acceptance, and conditional-state checks for
    expected-budget simulators against the dense verifier kinds.

    Per yes-statement and density: the coherent kind yields the
    stopping-budget floor, the joint budget-acceptance floor, the
    conditional continuation state with its distance cap, and the
    swap-distinguisher null rates against the real interaction; the
    aborting kind, after truncation at the strict budget, yields the
    truncated acceptance floor. The experiment has no no-side; dense
    machines keep the stock configuration on the small echo argument.
    """
    cfg = default_config("expected-time") if cfg is None else cfg
    spec = build_protocol(cfg)
    k = spec.rounds
    if k != 2:
        raise ConfigError("the expected-time experiment covers two-move specs")
    checks: list[Check] = []
    yes_vals: list[float] = []
    for x in cfg.yes_instances:
        witness = _statement_witness(spec, x, cfg)
        u = spec.prover_randomness[0]
        for tag, eps in (("", cfg.eps), ("-calibrated", eps_star(k, cfg.q))):
            phi = _phi(eps, k)
            coherent = build_verifier("superposition", spec, x, eps=eps)
            sim_obj = expected_wrapper(cfg.simulator, coherent, witness, cfg.q)
            res = run_simulator(sim_obj, coherent)
            accept, rho = cont_density(res)
            halted = pr_budget(res, cfg.q)
            joint = pr_joint_budget(res, cfg.q)
            hyp_lhs = 2 * accept * rho.matrix[0, 0].real if rho is not None else 0.0
            hyp = _check(
                x, "accept-hypothesis" + tag, "honest-branch acceptance floor",
                hyp_lhs, 1.0 - float(eps) - SLACK, ">=",
            )
            checks.append(hyp)
            checks.append(_check(
                x, "stopping-budget" + tag, "stopping-time budget floor",
                halted, 0.5, ">=",
            ))
            joint_check = _check(
                x, "joint-budget" + tag, "budget-acceptance joint floor",
                joint, 0.25 - SLACK, ">=",
            )
            if not hyp.passed:
                joint_check = replace(joint_check, passed=True, note="hypothesis unmet")
            checks.append(joint_check)
            if rho is None:
                checks.append(_check(
                    x, "accept-state-distance" + tag, "accepting-state distance cap",
                    1.0, SLACK, "<=", note="no accepting mass",
                ))
            else:
                checks.append(_check(
                    x, "accept-state-distance" + tag, "accepting-state distance cap",
                    trace_distance(rho, phi), SLACK, "<=",
                ))
                real = final_cont_state(spec, x, witness, eps, u=u)[1]
                checks.append(_check(
                    x, "swap-null-real" + tag, "swap distinguisher null rate",
                    1.0 - swap_test(real, phi), SLACK, "<=",
                ))
                checks.append(_check(
                    x, "swap-null-simulated" + tag, "swap distinguisher null rate",
                    1.0 - swap_test(rho, phi), SLACK, "<=",
                ))
            aborting = build_verifier("random_aborting", spec, x, eps=eps)
            cut = run_simulator(truncate(sim_obj, cfg.q), aborting)
            checks.append(_check(
                x, "truncated-accept" + tag, "truncated acceptance floor",
                pr_register(cut), float(Fraction(eps) ** k / 4) - SLACK, ">=",
            ))
            if not tag:
                yes_vals.append(joint)
    return _report("expected-time", cfg, spec, checks, yes_vals, [])


def run_experiment(theorem: str,
                   cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """One named experiment end to end, on its stock or a given config."""
    if theorem not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {theorem!r}")
    return EXPERIMENTS[theorem][2](cfg)
