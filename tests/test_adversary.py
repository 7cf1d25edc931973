"""Verifier machines, query algorithms, and the exhaustive simulator."""

import itertools
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from qromlab import adversary
from qromlab.adversary import (
    CallOracle,
    CallVerifier,
    ExpectedAlgorithm,
    Pad,
    QueryAlgorithm,
    Unitary,
    _row_outputs,
    build_aux,
    build_verifier,
    cont_density,
    expected_wrapper,
    expected_wrappers,
    final_cont_state,
    honest_wrapper,
    initial_state,
    oracle_zoo,
    ordered_zoo,
    output_distribution,
    pr_budget,
    pr_joint_budget,
    pr_register,
    run_query_algorithm,
    run_simulator,
)
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.pipeline import (
    _check_public_coin,
    _statement_witness,
    build_protocol,
    default_config,
    eps_star,
)
from qromlab.protocol import toy_guess, toy_qr, toy_table
from qromlab.qsim import trace_distance
from qromlab.transforms import truncate
import fold_reference
import pinned_reference
from prover_reference import give_up
from step_reference import fstar_oracle, is_step_unitary

EPS4 = Fraction(1, 4)
PDOM = prefix_domain((0, 1), 2)


class TestChallengeStructure:
    """The public-coin structure the hash-challenge experiment checks
    (``pipeline._check_public_coin``): each challenge is its randomness."""

    def test_toy_qr(self):
        assert _check_public_coin(toy_qr(), 4) is None
        challenges, chart = fold_reference.challenge_structure(toy_qr(), 4)
        assert challenges == ((0,), (1,))
        assert chart == {((0,),): (0,), ((1,),): (1,)}

    def test_rejects_private_coins(self):
        with pytest.raises(ValueError, match="depends on the prover message"):
            _check_public_coin(toy_table(), 1)

    def test_rejects_wrong_round_count(self):
        with pytest.raises(ValueError, match="exactly two prover moves"):
            _check_public_coin(toy_guess(), 1)


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

    @pytest.mark.parametrize("kind", ["random_aborting", "superposition"])
    def test_table_cap_checked_in_log_space(self, kind):
        spec = fold_reference.fold(toy_qr(), 3, "toy-qr-t3")
        with pytest.raises(ValueError, match="exceeds the dense cap") as info:
            build_verifier(kind, spec, 4, eps=EPS4)
        assert "**" in str(info.value)
        assert len(str(info.value)) < 120

    def test_layouts(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        assert m.layout.names == ("R", "H", "Count", "M1", "M2", "B", "M")
        assert m.layout.dim_of("H") == 2 ** len(PDOM)
        c = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        assert c.layout.names[:3] == ("Cont", "R", "H")
        pinned = pinned_reference.pinned_machine(
            m, {"R": 0, "H": ClassicalOracle.constant(PDOM, (0, 1), 1)}
        )
        assert pinned.layout.names == ("Count", "M1", "M2", "B", "M")
        assert m._control_rows.layout == pinned.layout


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
        m = build_verifier("random_aborting", spec, 1, eps=EPS4)
        f1 = fstar_oracle(m, 1, r=0, h=live)
        assert f1.domain == ((0,), (1,))
        assert f1((0,)) == spec.next_message(1, 0, (0,))
        f2 = fstar_oracle(m, 2, r=0, h=live)
        assert f2.range_values == (0, 1)
        assert f2((0, 1)) == int(spec.decide(1, 0, (0, 1)))

    def test_aborted_rounds_emit_marker(self):
        spec = toy_table()
        dead = ClassicalOracle.constant(PDOM, (0, 1), 0)
        m = build_verifier("random_aborting", spec, 1, eps=EPS4)
        assert set(fstar_oracle(m, 1, r=0, h=dead).values) == {spec.alphabet[0]}
        assert set(fstar_oracle(m, 2, r=0, h=dead).values) == {0}

    def test_needs_controls(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        with pytest.raises(ValueError):
            fstar_oracle(m, 1)
        live = ClassicalOracle.constant(PDOM, (0, 1), 1)
        with pytest.raises(ValueError):
            fstar_oracle(m, 3, r=0, h=live)


class TestAuxAndInitialState:
    def test_sparse_table_amplitudes(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        amps = np.array(build_aux(m)["H"])
        assert np.isclose(np.linalg.norm(amps), 1.0)
        assert np.isclose(amps[0], (3 / 4) ** 3)  # six points, all unflagged

    def test_work_registers_cannot_shadow(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        st = initial_state(m, work=(("W1", 2),))
        assert st.layout.names[-1] == "W1"
        alg = QueryAlgorithm("x", (), 0, (("M", 2),))
        with pytest.raises(ValueError):
            run_query_algorithm(alg, verifier=m)


class TestHonestInteraction:
    def test_aborting_accepts_eps_squared(self):
        # the dense route: one run on the whole aux state, no enumeration
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        run = run_query_algorithm(honest_wrapper(m, (1,)), verifier=m)
        accept = output_distribution(run, ("B",))[(1,)]
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
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        m = pinned_reference.pinned_machine(m, {"R": 0, "H": live})
        run = run_query_algorithm(honest_wrapper(m, (1,)), verifier=m)
        dist = output_distribution(run, ("M1", "M2"))
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
            final_cont_state(toy_guess(), 1, (1,), EPS4, u=0)
        with pytest.raises(ValueError):
            final_cont_state(toy_table(), 1, (1,), Fraction(0), u=0)

    def test_cont_register_is_private(self):
        m = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        probe = QueryAlgorithm("peek", (Unitary(("Cont",), np.eye(2)),), 0)
        with pytest.raises(ValueError):
            run_query_algorithm(probe, verifier=m)


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


class TestPad:
    @pytest.mark.parametrize("pairs", [0, -1, 1.5, "2"])
    def test_a_pad_holds_a_whole_number_of_pairs(self, pairs):
        with pytest.raises(ValueError, match="whole number of call pairs"):
            Pad(pairs)

    def test_a_pad_is_billed_two_calls_a_pair(self):
        alg = QueryAlgorithm("p", (Pad(3), CallVerifier()), 7)
        assert alg.invocations == 7
        with pytest.raises(ValueError, match="budget violation"):
            QueryAlgorithm("p", (Pad(3),), 5)

    def test_a_pad_needs_a_verifier(self):
        alg = QueryAlgorithm("p", (Pad(1),), 2, (("W", 2),))
        with pytest.raises(ValueError, match="no verifier attached"):
            run_query_algorithm(alg)


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
        assert sum(map(len, dense)) < sum(map(len, enum))
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

    @pytest.mark.parametrize(
        "oracles",
        [{}, {"h": ClassicalOracle.constant((0, 1), (0, 1), 1)},
         ClassicalOracle.constant((0, 1), (0, 1), 1)],
        ids=["empty", "one-table", "bare-table"],
    )
    def test_one_mapping_as_oracles_is_refused(self, oracles):
        """``oracles`` holds one table per start row: a bare mapping would
        be read as its keys, and a bare table is no sequence of them, so
        either raises before any work."""
        alg = QueryAlgorithm("x", (), 0, (("W", 2),))
        with pytest.raises(TypeError, match="one per start row"):
            run_query_algorithm(alg, oracles=oracles)

    @pytest.mark.parametrize("reprogram", [None, []], ids=["plain", "reprogram"])
    def test_zero_start_rows_are_refused(self, reprogram):
        """A run needs a start row to build its rows from: none is refused
        with its own ``ValueError``, not inside numpy."""
        with pytest.raises(ValueError, match="a run needs at least one start row"):
            run_query_algorithm(oracle_zoo((0, 1))[1], None, [], reprogram)

    def test_a_mapping_per_start_row_is_refused_before_any_work(self, monkeypatch):
        """The old form, one {name: table} mapping per start row, raises
        before a row is built instead of being read as a table."""

        def refuse(*args):
            raise AssertionError("the run began")

        monkeypatch.setattr(adversary, "_visible_registers", refuse)
        tab = ClassicalOracle.constant((0, 1), (0, 1), 1)
        alg = QueryAlgorithm("x", (CallOracle("W", "V"),), 1, (("W", 2), ("V", 2)))
        for oracles in [({"h": tab},), (tab, {"h": tab})]:
            with pytest.raises(TypeError, match="ClassicalOracle or None"):
                run_query_algorithm(alg, oracles=oracles)

    def test_a_call_names_no_table(self):
        assert [f.name for f in fields(CallOracle)] == ["in_register", "out_register"]
        with pytest.raises(TypeError):
            CallOracle("h", "Q", "A")

    @pytest.mark.parametrize(
        "oracles",
        [(None,), (None, None), (ClassicalOracle.constant((0, 1), (0, 1), 1), None)],
        ids=["none", "two-none", "mixed"],
    )
    def test_a_query_without_a_table_raises_key_error(self, oracles):
        alg = QueryAlgorithm("x", (CallOracle("W", "V"),), 1, (("W", 2), ("V", 2)))
        with pytest.raises(KeyError):
            run_query_algorithm(alg, oracles=oracles)
        free = QueryAlgorithm("y", (Unitary(("W",), np.eye(2)),), 0, (("W", 2),))
        assert run_query_algorithm(free, oracles=oracles).oracles == oracles

    def test_machine_is_no_keyword(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        with pytest.raises(TypeError, match="machine"):
            run_query_algorithm(QueryAlgorithm("x", (), 0), machine=m)

    def test_output_registers_must_be_visible(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        alg = QueryAlgorithm("x", (), 0, output_registers=("B",))
        with pytest.raises(ValueError):
            run_query_algorithm(alg, verifier=m)

    def test_hidden_registers_rejected(self):
        m = build_verifier("random_aborting", toy_table(), 1, eps=EPS4)
        touch = QueryAlgorithm("x", (Unitary(("B",), np.eye(2)),), 0)
        with pytest.raises(ValueError):
            run_query_algorithm(touch, verifier=m)


class TestBranchPlumbing:
    def test_measured_queries_stay_in_domain(self):
        tab = ClassicalOracle((0, 1), (0, 1), (0, 0))
        shift = np.eye(3)[:, [2, 0, 1]]  # |0> -> |2>, outside the table domain
        alg = QueryAlgorithm(
            "far", (Unitary(("Q",), shift), CallOracle("Q", "A")), 1,
            (("Q", 3), ("A", 2)),
        )
        with pytest.raises(ValueError, match="outside the table domain"):
            run_query_algorithm(alg, None, (tab,), ({1: ("slot", 0, 1)},))

    @pytest.mark.parametrize("timing", [0, 1])
    def test_reprogram_records_the_point_and_the_table(self, timing):
        """A measured query splits the run by point; each row carries the
        table reprogrammed at its point, answered before or after."""
        tab = ClassicalOracle((0, 1), (0, 1), (0, 0))
        uni = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        alg = QueryAlgorithm(
            "uni", (Unitary(("Q",), uni), CallOracle("Q", "A")), 1,
            (("Q", 2), ("A", 2)),
        )
        run = run_query_algorithm(alg, None, (tab,), ({1: ("slot", timing, 1)},))
        assert list(run.outcomes) == [(("slot", 0),), (("slot", 1),)]
        assert run.invocations == 1
        for point in range(len(run)):
            assert run.row_weight(point) == pytest.approx(0.5)
            assert run.oracles[point] == tab.reprogram(point, 1)
            answer = {d: w for i, d, w in _row_outputs(run, ("A",)) if i == point}
            assert answer == {(1 - timing,): pytest.approx(0.5)}


class TestOracleCallsStayVisible:
    """An oracle call may read and write visible registers only, like every
    other step: the decision register B stays out of reach."""

    def setup_method(self):
        self.machine = build_verifier("superposition", toy_table(), 1, eps=EPS4)
        self.oracles = (ClassicalOracle.constant((0, 1), (0, 1), 1),)

    def test_empty_algorithm_never_accepts(self):
        run = run_query_algorithm(
            QueryAlgorithm("empty", (), 0), verifier=self.machine, oracles=self.oracles
        )
        assert pr_register((run,)) == 0

    @pytest.mark.parametrize(
        "call",
        [CallOracle("M", "B"), CallOracle("Count", "M"), CallOracle("B", "M")],
        ids=["writes-B", "reads-Count", "reads-B"],
    )
    def test_a_hidden_register_is_refused(self, call):
        peek = QueryAlgorithm("peek", (call,), 1)
        with pytest.raises(ValueError, match="verifier-internal"):
            run_query_algorithm(peek, verifier=self.machine, oracles=self.oracles)


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
            run = run_query_algorithm(alg, oracles=(tab,))
            dist = output_distribution(run, alg.output_registers)
            assert abs(sum(dist.values()) - 1) <= 1e-12


class TestSmallCircuitSearch:
    """Tiny circuits on M against the toy-guess verifier at density 1, whose
    every table point is flagged: the coin is hidden, so no circuit learns
    which cell it accepts."""

    GATES = (
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2),
        np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2),
    )

    def guess_machine(self):
        return build_verifier("random_aborting", toy_guess(), 0, eps=Fraction(1))

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


@pytest.mark.parametrize("sim", ["expected-honest", "expected-lazy", "expected-geometric"])
def test_aborting_acceptance_is_twice_the_coherent_joint(sim):
    """The aborting kind's truncated acceptance, an exact ``pr_register``,
    is 2·Pr[Cont = 1, B = 1] of the coherent kind under the same truncated
    simulator, read from ``cont_density``: two routes to one number."""
    cfg = default_config("expected-time")
    spec, _ = build_protocol(cfg)
    densities = (Fraction(1, 4), eps_star(spec.rounds, cfg.q), Fraction(1, 3),
                 Fraction(3, 4), Fraction(1))
    for x in (1, 3):
        witness = _statement_witness(spec, x, cfg)
        for eps in densities:
            coherent = build_verifier("superposition", spec, x, eps=eps)
            cut = truncate(expected_wrapper(sim, coherent, witness, cfg.q), cfg.q)
            aborting = build_verifier("random_aborting", spec, x, eps=eps)
            exact = pr_register(run_simulator(cut, aborting))
            assert isinstance(exact, (int, Fraction))
            accept, rho = cont_density(run_simulator(cut, coherent))
            assert abs(exact - 2 * accept * rho.matrix[1, 1].real) <= 1e-12, (x, eps)
