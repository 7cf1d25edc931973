"""Verifier machines, query algorithms, and the exhaustive simulator."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    ExpectedAlgorithm,
    Measure,
    QueryAlgorithm,
    RunBranch,
    Unitary,
    build_aux,
    build_verifier,
    challenge_structure,
    cont_density,
    expected_wrappers,
    final_cont_state,
    honest_wrapper,
    initial_state,
    measure_query_register,
    oracle_zoo,
    ordered_zoo,
    output_distribution,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_query_algorithm,
    run_simulator,
    set_branch_oracle,
)
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.protocol import toy_guess, toy_qr, toy_table
from qromlab.qsim import RegisterLayout, StateVector, trace_distance
import pinned_reference
from prover_reference import give_up
from step_reference import fstar_oracle, is_step_unitary

EPS4 = Fraction(1, 4)
PDOM = prefix_domain((0, 1), 2)


class TestChallengeStructure:
    def test_toy_qr(self):
        challenges, chart = challenge_structure(toy_qr(1), 4)
        assert challenges == ((0,), (1,))
        assert chart == {((0,),): (0,), ((1,),): (1,)}

    def test_rejects_private_coins(self):
        with pytest.raises(ValueError):
            challenge_structure(toy_table(), 1)

    def test_rejects_wrong_round_count(self):
        with pytest.raises(ValueError):
            challenge_structure(toy_guess(), 1)


class TestBuildVerifier:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_verifier("honest", toy_table(), 1)

    @pytest.mark.parametrize(
        "kind", ["public_coin", "three_round", "superposition_efficient"]
    )
    def test_only_the_two_experiment_kinds(self, kind):
        with pytest.raises(ValueError, match="unknown verifier kind"):
            build_verifier(kind, toy_table(), 1, eps=EPS4)

    def test_aborting_needs_density(self):
        with pytest.raises(ValueError):
            build_verifier("random_aborting", toy_table(), 1)
        with pytest.raises(ValueError):
            build_verifier("random_aborting", toy_table(), 1, eps=Fraction(3, 2))

    def test_coherent_rejects_zero_density(self):
        with pytest.raises(ValueError):
            build_verifier("superposition", toy_table(), 1, eps=0)

    def test_pinning_rules(self):
        with pytest.raises(ValueError):
            build_verifier(
                "superposition", toy_table(), 1, eps=EPS4, fixed={"R": 0}
            )
        with pytest.raises(ValueError):
            build_verifier("random_aborting", toy_table(), 1, eps=EPS4, fixed={"R": 7})

    @pytest.mark.parametrize("kind", ["random_aborting", "superposition"])
    def test_table_cap_checked_in_log_space(self, kind):
        spec = toy_qr(3)
        with pytest.raises(ValueError, match="exceeds the dense cap") as info:
            build_verifier(kind, spec, 4, eps=EPS4)
        assert "**" in str(info.value)
        assert len(str(info.value)) < 120

    def test_layouts(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        assert m.layout.names == ("R", "H", "Count", "M1", "M2", "B", "M")
        assert m.layout.dim_of("H") == 2 ** len(PDOM)
        assert m.output_register == ("B",)
        c = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        assert c.layout.names[:3] == ("Cont", "R", "H")
        assert c.output_register == ("Cont", "B")
        pinned = build_verifier(
            "random_aborting",
            toy_table(),
            1,
            eps=EPS4,
            fixed={"R": 0, "H": ClassicalOracle.constant(PDOM, (0, 1), 1)},
        )
        assert pinned.layout.names == ("Count", "M1", "M2", "B", "M")


def all_kind_machines():
    return [
        build_verifier("random_aborting", toy_table(), 1, eps=EPS4),
        build_verifier("superposition", toy_table(), 1, eps=EPS4),
    ]


class TestStepUnitarity:
    @pytest.mark.parametrize("machine", all_kind_machines(), ids=lambda m: m.kind)
    def test_every_kind(self, machine):
        assert is_step_unitary(machine)


class TestFstarOracle:
    def test_pinned_tables(self):
        spec = toy_table()
        live = ClassicalOracle.constant(PDOM, (0, 1), 1)
        m = build_verifier(
            "random_aborting", spec, 1, eps=EPS4, fixed={"R": 0, "H": live}
        )
        f1 = fstar_oracle(m, 1)
        assert f1.domain == ((0,), (1,))
        assert f1((0,)) == spec.next_message(1, 0, (0,))
        f2 = fstar_oracle(m, 2)
        assert f2.range_values == (0, 1)
        assert f2((0, 1)) == int(spec.decide(1, 0, (0, 1)))

    def test_aborted_rounds_emit_marker(self):
        spec = toy_table()
        dead = ClassicalOracle.constant(PDOM, (0, 1), 0)
        m = build_verifier(
            "random_aborting", spec, 1, eps=EPS4, fixed={"R": 0, "H": dead}
        )
        assert set(fstar_oracle(m, 1).values) == {spec.alphabet[0]}
        assert set(fstar_oracle(m, 2).values) == {0}

    def test_needs_controls(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        with pytest.raises(ValueError):
            fstar_oracle(m, 1)
        live = ClassicalOracle.constant(PDOM, (0, 1), 1)
        with pytest.raises(ValueError):
            fstar_oracle(m, 3, r=0, h=live)


class TestAuxAndInitialState:
    def test_canonical_names(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        assert build_aux(m).name == "psi_tilde_eps"

    def test_sparse_table_amplitudes(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        fax = dict(build_aux(m).factors)
        amps = np.array(fax["H"])
        assert np.isclose(np.linalg.norm(amps), 1.0)
        assert np.isclose(amps[0], (3 / 4) ** 3)  # six points, all unflagged

    def test_work_registers_cannot_shadow(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        st = initial_state(m, work=(("W1", 2),))
        assert st.layout.names[-1] == "W1"
        alg = QueryAlgorithm("x", (), 0, (("M", 2),))
        with pytest.raises(ValueError):
            run_query_algorithm(alg, machine=m)


class TestHonestInteraction:
    def test_aborting_accepts_eps_squared(self):
        # the dense route: one run on the whole aux state, no enumeration
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        branches = run_query_algorithm(honest_wrapper(m, (1,)), machine=m)
        accept = output_distribution(branches, ("B",))[(1,)]
        assert abs(accept - 1 / 16) <= 1e-12

    def test_wrapper_matches_interaction(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        res = run_simulator(honest_wrapper(m, (1,)), m)
        assert pr_register(res) == Fraction(1, 16)

    def test_give_up_pays_the_echo_coin(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        res = run_simulator(give_up(m), m)
        assert pr_register(res) == Fraction(1, 32)

    def test_give_up_transcript_length_checked(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        with pytest.raises(ValueError):
            give_up(m, (0,))

    def test_transcripts_echo(self):
        live = ClassicalOracle.constant(PDOM, (0, 1), 1)
        m = build_verifier(
            "random_aborting", toy_table(), 1, eps=EPS4, fixed={"R": 0, "H": live}
        )
        res = run_simulator(honest_wrapper(m, (1,)), m)
        dist = output_distribution(res.branches, ("M1", "M2"))
        spec = toy_table()
        want = (0, spec.alphabet.index(spec.next_message(1, 0, (0,))))
        assert set(dist) == {want}
        assert dist[want] == Fraction(1)


class TestCoherentKind:
    def test_accept_statistics(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        res = run_simulator(honest_wrapper(m, (1,)), m)
        pb = pr_register(res)
        assert abs(pb - 17 / 32) <= 1e-12
        den, rho = cont_density(res)
        assert abs(den - 17 / 32) <= 1e-12
        assert abs(rho.matrix[0, 0].real - 16 / 17) <= 1e-9

    def test_reduced_routine_agrees_with_dense(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        res = run_simulator(honest_wrapper(m, (1,)), m)
        _, rho = cont_density(res)
        pb, rho2, pcont = final_cont_state(toy_table(), 1, (1,), EPS4, u=0)
        assert abs(pb - 17 / 32) <= 1e-9
        assert abs(pcont - 1 / 17) <= 1e-9
        assert trace_distance(rho, rho2) <= 1e-9

    def test_density_one_never_aborts(self):
        pb, _, pcont = final_cont_state(toy_table(), 1, (1,), Fraction(1), u=0)
        assert abs(pb - 1.0) <= 1e-12
        assert abs(pcont - 0.5) <= 1e-12

    def test_reduced_routine_validation(self):
        with pytest.raises(ValueError):
            final_cont_state(toy_guess(), 1, (1,), EPS4)
        with pytest.raises(ValueError):
            final_cont_state(toy_table(), 1, (1,), Fraction(0))

    def test_cont_register_is_private(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        probe = QueryAlgorithm("peek", (Measure("Cont"),), 0)
        with pytest.raises(ValueError):
            run_query_algorithm(probe, machine=m)


class TestExpectedWrappers:
    def frozen(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        return m, expected_wrappers(m, (1,), 8)

    def test_budget_distributions(self):
        _, (honest, lazy, geo) = self.frozen()
        assert honest.name == "expected-honest"
        assert [alg.invocations for _, alg in honest.branches] == [2]
        assert lazy.expected_invocations == 4
        assert [alg.invocations for _, alg in lazy.branches] == [2, 6]
        assert geo.expected_invocations == Fraction(31, 8)
        assert [alg.invocations for _, alg in geo.branches] == [2, 4, 6, 8, 10]
        assert [w for w, _ in geo.branches] == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
            Fraction(1, 16),
        ]

    def test_padding_cancels(self):
        m, members = self.frozen()
        for member in members:
            res = run_simulator(member, m)
            assert abs(pr_register(res) - 17 / 32) <= 1e-9

    def test_markov_style_tail(self):
        m, (honest, lazy, geo) = self.frozen()
        for member, tail, joint in (
            (honest, Fraction(1), 17 / 32),
            (lazy, Fraction(1), 17 / 32),
            (geo, Fraction(15, 16), 255 / 512),
        ):
            res = run_simulator(member, m)
            assert pr_budget(res, 8) == tail
            assert abs(pr_joint_budget(res, 8) - joint) <= 1e-9

    def test_mixture_validation(self):
        base = QueryAlgorithm("noop", (), 0, (("W1", 2),))
        with pytest.raises(ValueError):
            ExpectedAlgorithm("bad", ((Fraction(1, 2), base),), 2)
        with pytest.raises(ValueError):
            ExpectedAlgorithm("bad", ((Fraction(1), base), (Fraction(0), base)), 2)
        two = QueryAlgorithm(
            "pair", (CallVerifier(), CallVerifier(inverse=True)), 2
        )
        with pytest.raises(ValueError):
            ExpectedAlgorithm("tight", ((Fraction(1), two),), 3)


class TestDenseRouteAgreesWithEnumeration:
    """The dense route runs the unpinned machine on its aux state; the
    default route enumerates the control assignments with exact weights."""

    @pytest.mark.parametrize("which", ["honest", "expected-honest", "expected-lazy",
                                       "expected-geometric"])
    def test_aborting_kind(self, which):
        spec = toy_table()
        m = build_verifier("random_aborting", spec, 1, eps=EPS4)
        w = spec.witness_map(1)[0]
        sims = {"honest": honest_wrapper(m, w)}
        sims.update((s.name, s) for s in expected_wrappers(m, w, 8))
        sim = sims[which]
        enum = run_simulator(sim, m)
        dense = pinned_reference.run_simulator(sim, m, force_dense=True)
        assert len(dense.branches) < len(enum.branches)
        for q in (2, 4, 8):
            assert isinstance(pr_budget(enum, q), Fraction)
            assert abs(float(pr_budget(dense, q)) - float(pr_budget(enum, q))) <= 1e-12
        exact = pr_register(enum)
        assert isinstance(exact, Fraction)
        assert exact > 0
        assert abs(float(pr_register(dense)) - float(exact)) <= 1e-12


class TestQueryAlgorithmValidation:
    def test_static_budget(self):
        with pytest.raises(ValueError):
            QueryAlgorithm("x", (CallVerifier(),), budget=0)
        with pytest.raises(ValueError):
            QueryAlgorithm("x", (), budget=-1)

    def test_machineless_runs_need_work(self):
        with pytest.raises(ValueError):
            run_query_algorithm(QueryAlgorithm("x", (), 0))

    def test_output_registers_must_be_visible(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        alg = QueryAlgorithm("x", (), 0, output_registers=("B",))
        with pytest.raises(ValueError):
            run_query_algorithm(alg, machine=m)

    def test_hidden_registers_rejected(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        touch = QueryAlgorithm("x", (Unitary(("B",), np.eye(2)),), 0)
        with pytest.raises(ValueError):
            run_query_algorithm(touch, machine=m)


class TestBranchPlumbing:
    def test_set_branch_oracle(self):
        layout = RegisterLayout((("Q", 2), ("A", 2)))
        tab = ClassicalOracle((0, 1), (0, 1), (0, 0))
        br = RunBranch(Fraction(1), StateVector.basis(layout), (("h", tab),))
        new = tab.reprogram(1, 1)
        assert set_branch_oracle(br, "h", new).oracle("h") == new
        with pytest.raises(KeyError):
            set_branch_oracle(br, "g", new)
        assert br.count("h") == 0

    def test_measured_queries_stay_in_domain(self):
        layout = RegisterLayout((("Q", 3), ("A", 2)))
        tab = ClassicalOracle((0, 1), (0, 1), (0, 0))
        br = RunBranch(
            Fraction(1), StateVector.basis(layout, {"Q": 2}), (("h", tab),)
        )
        with pytest.raises(ValueError):
            measure_query_register(br, CallOracle("h", "Q", "A"))


class TestZoos:
    def test_oracle_zoo_shapes(self):
        zoo = oracle_zoo((0, 1, 2))
        names = [a.name for a in zoo]
        assert names == [
            "oq-none",
            "oq-classical",
            "oq-classical-second",
            "oq-uniform",
            "oq-phase",
            "oq-adaptive",
        ]
        assert [a.budget for a in zoo] == [0, 1, 1, 1, 2, 2]
        assert [a.name for a in oracle_zoo((0, 1))] == names[:-1]

    def test_ordered_zoo_shapes(self):
        zoo = ordered_zoo((0, 1))
        assert [a.name for a in zoo] == [
            "ord-classical",
            "ord-inconsistent",
            "ord-superposition",
            "ord-none",
        ]
        assert [a.budget for a in zoo] == [2, 2, 1, 0]
        assert all(a.output_registers == ("O1", "O2") for a in zoo)
        with pytest.raises(ValueError):
            ordered_zoo((0,))

    def test_output_distributions_are_normalized(self):
        tab = ClassicalOracle(prefix_domain((0, 1), 2), (0, 1), (0, 1) * 3)
        for alg in ordered_zoo((0, 1)):
            branches = run_query_algorithm(alg, oracles={"h": tab})
            dist = output_distribution(branches, alg.output_registers)
            assert abs(sum(dist.values()) - 1) <= 1e-12


class TestSmallCircuitSearch:
    """Tiny circuits on M against a pinned toy-guess verifier: the coin
    is hidden, so no circuit learns which cell it accepts."""

    GATES = (
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2),
        np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2),
    )

    def guess_machine(self):
        return build_verifier(
            "random_aborting",
            toy_guess(),
            0,
            eps=Fraction(1),
            fixed={"H": ClassicalOracle.constant(prefix_domain((0, 1), 1), (0, 1), 1)},
        )

    def test_grover_flavor_shape(self):
        m = self.guess_machine()
        h = self.GATES[2]
        steps = (Unitary(("M",), h), CallVerifier(), Unitary(("M",), h), CallVerifier())
        probe = QueryAlgorithm("grover-flavored", steps, budget=2)
        assert abs(float(pr_register(run_simulator(probe, m))) - 0.5) <= 1e-9

    def test_search_cannot_beat_the_hidden_coin(self):
        # every one-query circuit accepts with exactly 1/2, as each coin
        # accepts one cell; a circuit that never calls never accepts
        m = self.guess_machine()
        for nq in (0, 1):
            for gates in itertools.product(self.GATES, repeat=nq + 1):
                steps = [Unitary(("M",), gates[0])]
                for g in gates[1:]:
                    steps += [CallVerifier(), Unitary(("M",), g)]
                alg = QueryAlgorithm("circuit", tuple(steps), budget=nq)
                p = float(pr_register(run_simulator(alg, m)))
                assert abs(p - 0.5 * nq) <= 1e-9
