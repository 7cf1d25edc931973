"""End-to-end acceptance battery: one timed criterion per guarantee.

Each test rebuilds its quantities from the public API, checks the
shipped bound at its stated tolerance, enforces the runtime budget,
and prints a single summary line.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from conftest import accept_all_zero, accept_register_one
from qromlab.adversary import (
    build_verifier,
    expected_wrappers,
    final_cont_state,
    oracle_zoo,
    ordered_zoo,
    pr_budget,
    pr_joint_budget,
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
    THEOREMS,
    decide_constant_round,
    decide_public_coin,
    decide_three_round,
    report_json,
    run_experiment,
)
from qromlab.protocol import toy_qr, toy_table
from qromlab.qsim import DensityOnRegister, swap_test, swap_test_circuit, trace_distance
from qromlab.transforms import (
    mar_check_general,
    mar_check_ordered,
    mar_general,
    mar_ordered,
    o2h_corollary_C,
    truncate,
)

LETTERS = (0, 1)


def pure(register: str, vec: np.ndarray) -> DensityOnRegister:
    return DensityOnRegister(register, np.outer(vec, vec.conj()))


def test_criterion_01_family_replaces_uniform_function():
    start = time.perf_counter()
    deviations = []
    for dom in ((0, 1), (0, 1, 2)):
        for alg in oracle_zoo(dom):
            assert alg.budget <= 2
            got = random_function_vs_family(TableFamily(dom, a=2), accept_all_zero(alg))
            deviations.append(abs(float(got[0]) - float(got[1])))
    for k in (1, 2):
        pdom = prefix_domain(LETTERS, k)
        # b/a = 1/2 makes the sparse side the uniform function exactly
        fam = TwoQWiseFamily(TableFamily(pdom, a=2), b=1, k=k)
        for alg in oracle_zoo(pdom):
            assert alg.budget <= 2
            lhs, rhs = family_exactness_check(fam, accept_all_zero(alg))
            deviations.append(abs(float(lhs) - float(rhs)))
    assert max(deviations) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    print(
        f"CRITERION 1: PASS  max |uniform - family| = {max(deviations):.3e}"
        f" over {len(deviations)} algorithm/domain pairs ({elapsed:.2f}s)"
    )


def test_criterion_02_sparse_flag_advantage_capped():
    start = time.perf_counter()
    dom = (0, 1, 2)
    worst = -1.0
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 256)):
        dist = SparseOracleDist(dom, eps)
        for alg in oracle_zoo(dom):
            _, _, adv = sparse_advantage(accept_all_zero(alg), dist)
            bound = sparse_vs_zero_bound(alg.budget, eps)
            assert float(adv) <= float(bound) + 1e-12
            worst = max(worst, float(bound) - float(adv))
        classical = {a.name: a for a in oracle_zoo(dom)}["oq-classical"]
        _, miss, adv = sparse_advantage(accept_register_one(classical, "A"), dist)
        assert miss == 0 and adv == eps  # one classical query reads the density
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    print(
        "CRITERION 2: PASS  advantage <= 8 q^2 eps for 4 densities x 6"
        f" algorithms, classical query exactly eps ({elapsed:.2f}s)"
    )


def test_criterion_03_swap_circuit_matches_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(20):
        dim = 2 + i % 3
        mats = []
        for _ in range(2):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            mats.append(rho / np.trace(rho).real)
        want = (1 + np.trace(mats[0] @ mats[1]).real) / 2
        a, b = (DensityOnRegister("a", m) for m in mats)
        worst = max(
            worst,
            abs(swap_test_circuit(a, b) - want),
            abs(swap_test(a, b) - want),
        )
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 1
    print(
        f"CRITERION 3: PASS  max |accept - (1+Tr(rho sigma))/2| = {worst:.3e}"
        f" on 20 pairs, dim <= 4 ({elapsed:.2f}s)"
    )


def test_criterion_04_reprogramming_factor_and_abort_rule():
    start = time.perf_counter()
    zero = ClassicalOracle.constant(LETTERS, (0, 1), 0)
    count = 0
    for alg in oracle_zoo(LETTERS):
        assert alg.budget <= 2
        names = tuple(r for r, _ in alg.work_registers)
        for k in (1, 2):
            if len(names) < k:
                continue
            regs = names[:k]
            for y in itertools.product((0, 1), repeat=k):
                dist = mar_general(alg, zero, y, regs)
                for x_star in itertools.permutations(LETTERS, k):
                    rep = mar_check_general(alg, zero, x_star, y, regs, dist=dist)
                    assert rep.holds and rep.pr_bot == 0
                    assert rep.factor == Fraction(1, (2 * alg.budget + 1) ** (2 * k))
                    count += 1
    odom = prefix_domain(LETTERS, 2)
    ozero = ClassicalOracle.constant(odom, (0, 1), 0)
    for alg in ordered_zoo(LETTERS):
        assert alg.budget <= 2
        for y in itertools.product((0, 1), repeat=2):
            dist = mar_ordered(alg, ozero, y, ("O1", "O2"))
            for out in dist:  # bottom exactly on prefix-inconsistent traces
                last = out.points[-1]
                ok = all(p == last[: len(p)] for p in out.points)
                assert out.consistent == ok
                assert out.output == (last if ok else None)
            for x_star in itertools.product(LETTERS, repeat=2):
                rep = mar_check_ordered(alg, ozero, x_star, y, ("O1", "O2"), dist=dist)
                assert rep.holds
                assert rep.factor == Fraction(1, (2 * alg.budget + 1) ** 4)
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60
    print(
        f"CRITERION 4: PASS  factor 1/(2q+1)^2k held on {count} targets,"
        f" ordered aborts exactly off-prefix ({elapsed:.2f}s)"
    )


def test_criterion_05_adjusters_unitary_and_on_target():
    start = time.perf_counter()
    transcripts = tuple(itertools.product(LETTERS, repeat=2))
    pdom = prefix_domain(LETTERS, 2)
    worst_unit, worst_td = 0.0, 0.0
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        dist = SparseOracleDist(pdom, eps)
        for m in transcripts:
            u = build_exact_adjuster(m, dist).matrix
            worst_unit = max(worst_unit, np.abs(u.conj().T @ u - np.eye(len(u))).max())
            got = u @ table_superposition(dist)
            want = flagged_table_superposition(m, dist)
            worst_td = max(worst_td, trace_distance(pure("T", got), pure("T", want)))
    for b in (1, 2):
        fam = TwoQWiseFamily(PolynomialFamily(pdom, prime=7, degree=1, a=4), b=b, k=2)
        assert fam.key_count == 784
        uniform = np.full(fam.key_count, 1.0 / np.sqrt(fam.key_count))
        for m in transcripts:
            u = build_efficient_adjuster(m, fam).matrix
            worst_unit = max(worst_unit, np.abs(u.conj().T @ u - np.eye(len(u))).max())
            flagged = fam.flagged_keys(m)
            want = np.zeros(fam.key_count)
            want[flagged] = 1.0 / np.sqrt(len(flagged))
            worst_td = max(
                worst_td, trace_distance(pure("K", u @ uniform), pure("K", want))
            )
    assert worst_unit <= 1e-9 and worst_td <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    print(
        f"CRITERION 5: PASS  unitarity defect {worst_unit:.3e}, target-map"
        f" trace distance {worst_td:.3e}, key routes at eps 1/4 and 1/2"
        f" ({elapsed:.2f}s)"
    )


def test_criterion_06_accepting_cont_state_is_phi():
    start = time.perf_counter()
    spec = toy_qr()
    quarter = Fraction(1, 4)

    def phi(eps: Fraction) -> DensityOnRegister:
        amp = np.array([1.0, float(eps)]) / np.sqrt(1 + float(eps) ** 2)
        return pure("Cont", amp)

    worst_td, worst_pc = 0.0, 0.0
    for x in (4, 16):
        w = spec.witness_map(x)[0]
        for u in spec.prover_randomness:
            pb, rho, pcont = final_cont_state(spec, x, w, quarter, u=u)
            assert pb > 0
            worst_pc = max(worst_pc, abs(pcont - float(Fraction(1, 17))))
            worst_td = max(worst_td, trace_distance(rho, phi(quarter)))
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            _, rho, pcont = final_cont_state(spec, x, w, eps, u=spec.prover_randomness[0])
            want = eps * eps / (1 + eps * eps)
            assert abs(pcont - float(want)) <= 1e-10
            worst_td = max(worst_td, trace_distance(rho, phi(eps)))
    assert worst_pc <= 1e-10 and worst_td <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 30
    print(
        f"CRITERION 6: PASS  Pr[Cont=1 | B=1] = 1/17 within {worst_pc:.3e} at"
        f" eps=1/4, state within {worst_td:.3e} of phi at 4 densities"
        f" ({elapsed:.2f}s)"
    )


def test_criterion_07_expected_wrappers_halt_and_accept():
    start = time.perf_counter()
    spec = toy_table()
    q = 8
    lines = []
    for x in (1, 3):
        machine = build_verifier("superposition", spec, x, eps=Fraction(1, 4))
        w = spec.witness_map(x)[0]
        for sim in expected_wrappers(machine, w, q):
            res = run_simulator(sim, machine)
            halted = pr_budget(res, q)
            joint = pr_joint_budget(res, q)
            assert halted >= Fraction(1, 2)
            assert float(joint) >= 0.25 - 1e-9
            if x == 1:
                lines.append(f"{sim.name} {float(joint):.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 60
    print(
        f"CRITERION 7: PASS  Pr[Q<=q] >= 1/2 exactly, joint accept"
        f" {', '.join(lines)} >= 1/4 - 1e-9 ({elapsed:.2f}s)"
    )


def test_criterion_08_truncated_wrapper_keeps_the_floor():
    start = time.perf_counter()
    spec = toy_table()
    x, q, eps = 1, 8, Fraction(1, 4)
    w = spec.witness_map(x)[0]
    coherent = build_verifier("superposition", spec, x, eps=eps)
    honest = {s.name: s for s in expected_wrappers(coherent, w, q)}["expected-honest"]
    aborting = build_verifier("random_aborting", spec, x, eps=eps)
    got = pr_register(run_simulator(truncate(honest, q), aborting))
    floor = float(eps ** spec.rounds / 4)
    assert float(got) >= floor - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 30
    print(
        f"CRITERION 8: PASS  truncated acceptance {float(got):.6f} >="
        f" eps^k/4 = {floor:.6f} ({elapsed:.2f}s)"
    )


def test_criterion_09_measured_query_lands_in_the_set():
    start = time.perf_counter()
    dom = (0, 1, 2)
    margin = float("inf")
    for alg in oracle_zoo(dom):
        for marked in ((), (0,), (1, 2)):
            rep = o2h_corollary_C(alg, dom, marked)
            assert rep.holds
            assert abs(rep.factor - 1 / (4 * np.sqrt(alg.budget + 1))) <= 1e-12
            gap = np.sqrt(rep.p_c) - rep.factor * rep.p_a_fs
            assert gap >= -1e-12
            margin = min(margin, gap)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    print(
        f"CRITERION 9: PASS  sqrt(p_C) - p_A/(4 sqrt(q+1)) >= {margin:.6f}"
        f" over 6 algorithms x 3 sets ({elapsed:.2f}s)"
    )


def test_criterion_10_decision_gaps_separate_the_language():
    start = time.perf_counter()
    details = []
    for rep in (decide_constant_round(), decide_public_coin(), decide_three_round()):
        assert rep.config["protocol"] == "toy-qr-t3"
        assert rep.config["simulator"] == "honest-wrapper"
        gap = min(rep.decision["yes"]) - max(rep.decision["no"])
        assert gap >= 0.1
        assert max(rep.decision["no"]) <= 2**-3 + 1e-9
        details.append(f"{rep.theorem} {gap:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 300
    print(
        f"CRITERION 10: PASS  yes/no gaps {', '.join(details)}, no side"
        f" <= 1/8 + 1e-9 ({elapsed:.2f}s)"
    )


def test_criterion_11_reports_are_reproducible():
    start = time.perf_counter()
    for theorem in THEOREMS:
        first = report_json(run_experiment(theorem)).encode()
        second = report_json(run_experiment(theorem)).encode()
        assert first == second
    elapsed = time.perf_counter() - start
    print(
        f"CRITERION 11: PASS  byte-identical JSON for {len(THEOREMS)}"
        f" repeated experiments ({elapsed:.2f}s)"
    )
