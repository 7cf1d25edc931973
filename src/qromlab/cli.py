"""Command-line front end: lemma demos and decision experiments.

``qromlab verify-lemma <name>`` runs one small exact check per named
bound and prints a single pass/fail line; ``qromlab run <theorem>``
executes a decision experiment and serializes its report. Experiment
output is deterministic; only the demos consume ``--seed``.

Exit codes: 0 when every check passes, 1 when a check fails, and 2 for
a rejected config: argparse's usage errors, and a ``ConfigError`` from
the experiment, printed as one ``qromlab: error: <message>`` line. Any
other exception is a defect and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Callable

import numpy as np

from qromlab.adversary import (
    EXPECTED_MEMBERS,
    QueryAlgorithm,
    _table_masses,
    build_verifier,
    expected_wrapper,
    expected_wrappers,
    final_cont_state,
    oracle_zoo,
    ordered_zoo,
    pr_budget,
    pr_register,
    run_simulator,
)
from qromlab.hashfam import (
    PolynomialFamily,
    TableFamily,
    TwoQWiseFamily,
    build_efficient_adjuster,
    build_exact_adjuster,
    family_exactness_check,
    flagged_table_superposition,
    random_function_vs_family,
    table_superposition,
)
from qromlab.oracle import (
    ClassicalOracle,
    SparseOracleDist,
    prefix_domain,
    sparse_advantage,
    sparse_vs_zero_bound,
)
from qromlab.pipeline import (
    PROTOCOLS,
    SIMULATORS,
    THEOREMS,
    ExperimentConfig,
    ExperimentReport,
    _phi,
    default_config,
    run_experiment,
    write_report,
)
from qromlab.protocol import ConfigError, toy_qr, toy_table
from qromlab.qsim import DensityOnRegister, swap_test, swap_test_circuit, trace_distance
from qromlab.qsim import _unitary_defect
from qromlab.transforms import (
    mar_check_general,
    mar_check_ordered,
    o2h_corollary_C,
    truncate,
)

DEMO_TOL = 1e-10


def _accept_all_zero(alg: QueryAlgorithm) -> Callable[[list[ClassicalOracle]], list]:
    """Probability that every output register reads 0, against each of a
    list of tables: the tables are the start rows of one
    ``run_query_algorithm`` run, or of as few as ``MAX_STATE_DIM``
    allows (``_table_masses``)."""
    zeros = (0,) * len(alg.output_registers)

    def accept(tables: list[ClassicalOracle]) -> list:
        return _table_masses(alg, tables, alg.output_registers,
                             lambda digits: digits == zeros)

    return accept


def _demo_zhandry(rng: np.random.Generator) -> tuple[bool, str]:
    pairs = []
    small = (0, 1)
    for alg in oracle_zoo(small):
        if alg.budget > 1:
            continue
        base = PolynomialFamily(small, prime=2, degree=1, a=2)
        pairs.append(random_function_vs_family(base, _accept_all_zero(alg)))
    dom = prefix_domain((0, 1), 2)
    zoo = {alg.name: alg for alg in oracle_zoo(dom)}
    fam = TwoQWiseFamily(PolynomialFamily(dom, prime=7, degree=1, a=7), b=2, k=2)
    for name in ("oq-classical", "oq-uniform"):
        pairs.append(family_exactness_check(fam, _accept_all_zero(zoo[name])))
    dev = max(abs(float(a) - float(b)) for a, b in pairs)
    return dev <= DEMO_TOL, f"max |random - family| = {dev:.3e} over {len(pairs)} runs"


def _demo_hrs(rng: np.random.Generator) -> tuple[bool, str]:
    dom = (0, 1, 2)
    eps = Fraction(1, 4)
    dist = SparseOracleDist(dom, eps)
    ok, lines = True, []
    for alg in oracle_zoo(dom):
        _, _, adv = sparse_advantage(_accept_all_zero(alg), dist)
        bound = sparse_vs_zero_bound(alg.budget, eps)
        ok &= float(adv) <= float(bound) + DEMO_TOL
        if alg.name == "oq-classical":
            ok &= abs(float(adv) - float(eps)) <= DEMO_TOL
        lines.append(f"{alg.name} {float(adv):.6f}<={float(bound):.3f}")
    return ok, "advantage vs 8q^2*eps: " + ", ".join(lines)


def _demo_swap(rng: np.random.Generator) -> tuple[bool, str]:
    dev = 0.0
    for dim in (2, 3, 4):
        for _ in range(2):
            mats = []
            for _ in range(2):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = a @ a.conj().T
                mats.append(DensityOnRegister("a", rho / np.trace(rho).real))
            dev = max(dev, abs(swap_test(*mats) - swap_test_circuit(*mats)))
    return dev <= DEMO_TOL, f"max |formula - circuit| = {dev:.3e} over 6 seeded pairs"


def _demo_o2h(rng: np.random.Generator) -> tuple[bool, str]:
    dom = (0, 1, 2)
    margin, ok = float("inf"), True
    for alg in oracle_zoo(dom):
        for marked in ((), (0,), (1, 2)):
            rep = o2h_corollary_C(alg, dom, marked)
            ok &= rep.holds
            margin = min(margin, np.sqrt(rep.p_c) - rep.factor * rep.p_a_fs)
    return ok, f"min sqrt(p_C) - p_A/(4 sqrt(q+1)) margin = {margin:.6f}"


def _demo_mar(rng: np.random.Generator) -> tuple[bool, str]:
    dom = (0, 1)
    zoo = {alg.name: alg for alg in oracle_zoo(dom)}
    zero = ClassicalOracle.constant(dom, (0, 1), 0)
    one = mar_check_general(zoo["oq-uniform"], zero, (0,), (1,), ("Q",))
    two = mar_check_general(zoo["oq-classical"], zero, (0, 1), (1, 1), ("Q", "A"))
    ok = one.holds and two.holds
    return ok, (
        f"k=1: {one.lhs:.6f} >= {float(one.factor):.6f}*{one.rhs:.6f}; "
        f"k=2: {two.lhs:.6f} >= {float(two.factor):.6f}*{two.rhs:.6f}"
    )


def _demo_mar_ordered(rng: np.random.Generator) -> tuple[bool, str]:
    letters = (0, 1)
    zero = ClassicalOracle.constant(prefix_domain(letters, 2), (0, 1), 0)
    zoo = {alg.name: alg for alg in ordered_zoo(letters)}
    good = mar_check_ordered(zoo["ord-classical"], zero, (0, 1), (1, 1), ("O1", "O2"))
    bad = mar_check_ordered(
        zoo["ord-inconsistent"], zero, (0, 1), (1, 1), ("O1", "O2")
    )
    ok = good.holds and bad.holds and bad.pr_bot > good.pr_bot
    return ok, (
        f"consistent: {good.lhs:.6f} >= {float(good.factor):.6f}*{good.rhs:.6f}"
        f" (bot {good.pr_bot:.3f}); inconsistent bot mass {bad.pr_bot:.3f}"
    )


def _demo_adjuster(rng: np.random.Generator) -> tuple[bool, str]:
    worst_unit, worst_map = 0.0, 0.0
    m = (0, 1)
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        dist = SparseOracleDist(prefix_domain((0, 1), 2), eps)
        adj = build_exact_adjuster(m, dist)
        u = adj.matrix
        worst_unit = max(worst_unit, _unitary_defect(u))
        got = u @ table_superposition(dist)
        worst_map = max(
            worst_map,
            float(np.linalg.norm(got - flagged_table_superposition(m, dist))),
        )
    ok = worst_unit <= 1e-9 and worst_map <= 1e-9
    return ok, f"unitarity defect {worst_unit:.3e}, target-state error {worst_map:.3e}"


def _demo_adjuster_eff(rng: np.random.Generator) -> tuple[bool, str]:
    cases = (
        ((0, 1), TwoQWiseFamily(
            TableFamily(prefix_domain((0, 1), 2), a=2), b=1, k=2)),
        ((0,), TwoQWiseFamily(
            TableFamily(prefix_domain((0, 1), 1), a=4), b=1, k=1)),
    )
    worst_unit, worst_map = 0.0, 0.0
    for m, fam in cases:
        adj = build_efficient_adjuster(m, fam)
        u = adj.matrix
        worst_unit = max(worst_unit, _unitary_defect(u))
        uniform = np.full(fam.key_count, 1.0 / np.sqrt(fam.key_count))
        flagged = fam.flagged_keys(m)
        target = np.zeros(fam.key_count)
        target[flagged] = 1.0 / np.sqrt(len(flagged))
        worst_map = max(worst_map, float(np.linalg.norm(u @ uniform - target)))
    ok = worst_unit <= 1e-9 and worst_map <= 1e-9
    return ok, (
        f"unitarity defect {worst_unit:.3e}, flagged-key state error {worst_map:.3e}"
        f" (eps 1/2 and 1/4)"
    )


def _demo_final_state(rng: np.random.Generator) -> tuple[bool, str]:
    spec = toy_qr(1)
    x = 4
    w = spec.witness_map(x)[0]
    u = spec.prover_randomness[0]
    ok, shown = True, ""
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        pb, rho, pcont = final_cont_state(spec, x, w, eps, u=u)
        want = eps * eps / (1 + eps * eps)
        ok &= abs(pcont - float(want)) <= DEMO_TOL and pb > 0
        ok &= trace_distance(rho, _phi(eps, 2)) <= 1e-9
        if eps == Fraction(1, 4):
            shown = f"Pr[Cont=1 | B=1] = {pcont:.10f} vs eps^2/(1+eps^2) = {float(want):.10f}"
    return ok, shown + " (state matches at eps 1/10, 1/4, 1/2)"


def _demo_markov(rng: np.random.Generator) -> tuple[bool, str]:
    spec = toy_table()
    q = 8
    machine = build_verifier("superposition", spec, 1, eps=Fraction(1, 4))
    ok, lines = True, []
    for sim in expected_wrappers(machine, spec.witness_map(1)[0], q):
        halted = pr_budget(run_simulator(sim, machine), q)
        ok &= halted >= Fraction(1, 2)
        lines.append(f"{sim.name} {halted}")
    return ok, f"Pr[Q <= {q}] per wrapper: " + ", ".join(lines)


def _demo_truncation(rng: np.random.Generator) -> tuple[bool, str]:
    spec = toy_table()
    x, q, eps = 1, 8, Fraction(1, 4)
    w = spec.witness_map(x)[0]
    coherent = build_verifier("superposition", spec, x, eps=eps)
    sim = expected_wrapper("expected-geometric", coherent, w, q)
    aborting = build_verifier("random_aborting", spec, x, eps=eps)
    got = pr_register(run_simulator(truncate(sim, q), aborting))
    floor = eps ** spec.rounds / 4
    ok = got >= floor
    return ok, f"truncated acceptance {got} >= eps^k/4 = {floor}"


LEMMAS: dict[str, Callable[[np.random.Generator], tuple[bool, str]]] = {
    "zhandry": _demo_zhandry,
    "hrs": _demo_hrs,
    "swap": _demo_swap,
    "o2h": _demo_o2h,
    "mar": _demo_mar,
    "mar-ordered": _demo_mar_ordered,
    "adjuster": _demo_adjuster,
    "adjuster-eff": _demo_adjuster_eff,
    "final-state": _demo_final_state,
    "markov": _demo_markov,
    "truncation": _demo_truncation,
}


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"eps must be a fraction B/A, got {text!r}") from exc


def _parse_seed(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = default_config(args.theorem)
    fields: dict = {}
    if args.protocol is not None and args.protocol != cfg.protocol:
        row = PROTOCOLS[args.protocol]  # its stand-ins replace the stock statements
        fields.update(protocol=args.protocol, yes_instances=row.yes, no_instances=row.no)
    if args.reps is not None:
        fields["reps"] = args.reps
    if args.eps is not None:
        fields["eps"] = args.eps
    if args.q is not None:
        fields["q"] = args.q
    if args.sim is not None:
        fields["simulator"] = args.sim
    return replace(cfg, **fields) if fields else cfg


def _print_report(report: ExperimentReport) -> bool:
    cfg = report.config
    print(
        f"{report.theorem}  protocol={cfg['protocol']}  eps={cfg['eps']}"
        f"  q={cfg['q']}  simulator={cfg['simulator']}"
    )
    for c in report.checks:
        verdict = "pass" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(
            f"  [{verdict}] {c.statement} {c.name}: {c.lhs:.10g} {c.relation}"
            f" {c.rhs:.10g}{note}"
        )
    d = report.decision
    gap = "n/a" if d["gap"] is None else f"{d['gap']:.6f}"
    print(f"decision: yes={d['yes']} no={d['no']} gap={gap}")
    return all(c.passed for c in report.checks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qromlab",
        description="Exact desk-scale checks of query-model bounds and "
        "zero-knowledge decision experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lemma = sub.add_parser("verify-lemma", help="run one exact lemma demo")
    lemma.add_argument("name", choices=sorted(LEMMAS))
    lemma.add_argument("--seed", type=_parse_seed, default=0,
                       help="seed for the demo's sampled inputs")

    run = sub.add_parser("run", help="run one decision experiment")
    run.add_argument("theorem", choices=THEOREMS)
    run.add_argument("--protocol", choices=sorted(PROTOCOLS),
                     help="override the experiment's stock protocol")
    run.add_argument("--reps", type=int, help="parallel repetitions (toy-qr)")
    run.add_argument("--eps", type=_parse_eps, metavar="B/A",
                     help="flag density as an exact fraction")
    run.add_argument("--q", type=int, help="query budget")
    run.add_argument("--sim", help=f"simulator name: {', '.join(SIMULATORS)} (decision"
                     f" experiments) or {', '.join(EXPECTED_MEMBERS)} (expected-time)")
    run.add_argument("--out", metavar="report.json", help="write the JSON report")
    run.add_argument("--csv", metavar="table.csv", help="write the check table")
    run.add_argument("--seed", type=_parse_seed, default=0,
                     help="accepted for symmetry; experiments are deterministic")

    args = parser.parse_args(argv)
    if args.command == "verify-lemma":
        ok, detail = LEMMAS[args.name](np.random.default_rng(args.seed))
        print(f"{args.name}: {'pass' if ok else 'FAIL'}  {detail}")
        return 0 if ok else 1

    try:
        report = run_experiment(args.theorem, _experiment_config(args))
    except ConfigError as exc:
        print(f"qromlab: error: {exc}", file=sys.stderr)
        return 2
    ok = _print_report(report)
    write_report(report, json_path=args.out, csv_path=args.csv)
    for path in (args.out, args.csv):
        if path:
            print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
