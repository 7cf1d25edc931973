"""Reprogramming schedules, ordered variant, puncturing, truncation."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import counting_runs
from qromlab.adversary import (
    ExpectedAlgorithm,
    QueryAlgorithm,
    build_verifier,
    expected_wrappers,
    oracle_zoo,
    ordered_zoo,
    output_distribution,
    pr_register,
    run_simulator,
)
from qromlab.oracle import ClassicalOracle, prefix_domain
from qromlab.protocol import toy_table
from qromlab.transforms import (
    MarSchedule,
    _schedule_count,
    apply_schedules,
    enumerate_schedules,
    mar_check_general,
    mar_check_ordered,
    mar_general,
    mar_ordered,
    o2h_corollary_C,
    truncate,
)

ODOM = prefix_domain((0, 1), 2)


def zoo_member(name, domain=(0, 1)):
    return {a.name: a for a in oracle_zoo(domain)}[name]


def ordered_member(name):
    return {a.name: a for a in ordered_zoo((0, 1))}[name]


class TestSchedules:
    @pytest.mark.parametrize(
        "k,q,count",
        [(1, 0, 1), (1, 1, 3), (1, 2, 5), (2, 1, 5), (2, 2, 17), (2, 8, 257)],
    )
    def test_counts(self, k, q, count):
        assert len(enumerate_schedules(k, q)) == count

    @pytest.mark.parametrize("q", [1, 2, 3, 8])
    def test_two_slot_collision_formula(self, q):
        assert len(enumerate_schedules(2, q)) == (2 * q + 1) ** 2 - 4 * q

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_closed_form_count(self, k):
        for q in range(7):
            assert _schedule_count(k, q) == len(enumerate_schedules(k, q)), q

    def test_validation(self):
        with pytest.raises(ValueError):
            MarSchedule(((1, 0), (1, 1)), 2)
        with pytest.raises(ValueError):
            MarSchedule(((3, 0),), 2)
        with pytest.raises(ValueError):
            MarSchedule(((1, 2),), 2)
        MarSchedule((None, (2, 1)), 2)

    def test_timing_semantics(self):
        # timing 0 reprograms before answering, timing 1 after
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        for timing, answer in ((0, 1), (1, 0)):
            run = apply_schedules(
                alg, zero, (MarSchedule(((1, timing),), 1),), (1,)
            )
            dist = output_distribution(run, ("A",))
            assert dist == {(answer,): Fraction(1)}
            assert run.outcomes == (((0, 0),),)

    def test_one_value_per_slot(self):
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        with pytest.raises(ValueError):
            apply_schedules(alg, zero, (MarSchedule(((1, 0),), 1),), (1, 1))

    @pytest.mark.parametrize("q", [0, 2, 3])
    def test_schedule_built_for_another_query_count(self, q):
        """A pick past the algorithm's last query would never fire."""
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        picks = ((q, 0),) if q else (None,)
        with pytest.raises(ValueError, match=f"built for {q} queries, not 1"):
            apply_schedules(alg, zero, (MarSchedule(picks, q),), (1,))

    @pytest.mark.parametrize("bad,message", [
        (MarSchedule(((2, 0),), 2), "built for 2 queries, not 1"),
        (MarSchedule((None, (1, 1)), 1), "one reprogram value per slot"),
        (None, "no schedules"),
    ])
    def test_a_bad_schedule_mid_list_raises_before_any_run(
        self, monkeypatch, bad, message
    ):
        """A bad schedule between two good ones, or no schedule at all."""
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        good = MarSchedule(((1, 0),), 1)
        runs = counting_runs(monkeypatch)
        with pytest.raises(ValueError, match=message):
            apply_schedules(alg, zero, () if bad is None else (good, bad, good), (1,))
        assert runs == []


class TestRunCounts:
    """A reprogramming average is one run of all its schedules, plus the
    plain runs it is scored against."""

    def test_ordered_check_on_the_demo_inputs(self, monkeypatch):
        alg = ordered_member("ord-classical")
        zero = ClassicalOracle.constant(ODOM, (0, 1), 0)
        runs = counting_runs(monkeypatch)
        r = mar_check_ordered(alg, zero, (0, 1), (1, 1), ("O1", "O2"))
        # the 17 schedules as the start rows of one run, then the rhs
        assert runs == [r.schedules, 1] == [17, 1]

    @pytest.mark.parametrize("name", ["oq-classical", "oq-phase", "oq-adaptive"])
    def test_puncturing(self, monkeypatch, name):
        alg = zoo_member(name, (0, 1, 2))
        runs = counting_runs(monkeypatch)
        r = o2h_corollary_C(alg, (0, 1, 2), (0,))
        # the indicator and all-zero tables, then one schedule per query
        assert r.q >= 1
        assert runs == [2, r.q]


class TestGeneralReprogramming:
    def test_uniform_query_frozen_values(self):
        alg = zoo_member("oq-uniform")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        for x_star in ((0,), (1,)):
            r = mar_check_general(alg, zero, x_star, (1,), ("Q",))
            assert abs(r.lhs - 0.5) <= 1e-12
            assert abs(r.rhs - 0.5) <= 1e-12
            assert r.factor == Fraction(1, 9)
            assert r.schedules == 3
            assert r.pr_bot == 0.0
            assert r.holds

    def test_distribution_is_normalized(self):
        alg = zoo_member("oq-phase")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        dist = mar_general(alg, zero, (1,), ("Q",))
        assert abs(float(sum(dist.values())) - 1) <= 1e-12

    def test_targets_must_be_distinct(self):
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        with pytest.raises(ValueError):
            mar_check_general(alg, zero, (0, 0), (1, 1), ("Q", "A"))

    def test_exact_sides_compare_exactly(self):
        # rhs = 1 exactly and factor = 1/9; a float slack of 1e-10 would
        # pass an lhs 1e-12 short of the bound
        alg = zoo_member("oq-classical")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        short = Fraction(1, 9) - Fraction(1, 10**12)
        cases = ((short, False), (Fraction(1, 9), True), (float(short), True))
        for lhs, holds in cases:
            r = mar_check_general(
                alg, zero, (0,), (1,), ("Q",), dist={((0,), ()): lhs}
            )
            assert (r.rhs, r.factor) == (1.0, Fraction(1, 9))
            assert r.holds is holds

    def test_amortized_distribution_reused(self):
        alg = zoo_member("oq-uniform")
        zero = ClassicalOracle.constant((0, 1), (0, 1), 0)
        dist = mar_general(alg, zero, (1,), ("Q",))
        direct = mar_check_general(alg, zero, (0,), (1,), ("Q",))
        shared = mar_check_general(alg, zero, (0,), (1,), ("Q",), dist=dist)
        assert direct == shared


class TestOrderedReprogramming:
    def test_consistent_member_frozen_values(self):
        alg = ordered_member("ord-classical")
        zero = ClassicalOracle.constant(ODOM, (0, 1), 0)
        r = mar_check_ordered(alg, zero, (0, 1), (1, 1), ("O1", "O2"))
        assert abs(r.lhs - 11 / 17) <= 1e-12
        assert abs(r.pr_bot - 4 / 17) <= 1e-12
        assert r.rhs == 1.0
        assert r.schedules == 17
        assert r.holds

    def test_inconsistent_member_aborts(self):
        alg = ordered_member("ord-inconsistent")
        zero = ClassicalOracle.constant(ODOM, (0, 1), 0)
        r = mar_check_ordered(alg, zero, (0, 1), (1, 1), ("O1", "O2"))
        assert r.lhs == 0.0
        assert r.rhs == 0.0
        assert abs(r.pr_bot - 12 / 17) <= 1e-12
        assert r.holds

    @pytest.mark.parametrize(
        "name", ["ord-classical", "ord-inconsistent", "ord-superposition", "ord-none"]
    )
    def test_abort_rule_recomputable_from_points(self, name):
        alg = ordered_member(name)
        zero = ClassicalOracle.constant(ODOM, (0, 1), 0)
        dist = mar_ordered(alg, zero, (1, 1), ("O1", "O2"))
        assert abs(float(sum(dist.values())) - 1) <= 1e-12
        for out in dist:
            last = out.points[-1]
            ok = all(p == last[: len(p)] for p in out.points)
            assert out.consistent == ok
            assert out.output == (last if ok else None)

    def test_target_prefixes_must_live_in_domain(self):
        alg = ordered_member("ord-classical")
        zero = ClassicalOracle.constant(ODOM, (0, 1), 0)
        with pytest.raises(ValueError):
            mar_check_ordered(alg, zero, (0, 1, 0), (1, 1, 1), ("O1", "O2", "O2"))


class TestPuncturing:
    def test_no_query_case_halves(self):
        alg = zoo_member("oq-none", (0, 1, 2))
        r = o2h_corollary_C(alg, (0, 1, 2), (0,))
        assert r.q == 0
        assert r.p_a_fs == 1.0
        assert r.p_c == 0.5  # the coin keeps only the plain-run half
        assert r.holds
        empty = o2h_corollary_C(alg, (0, 1, 2), (1, 2))
        assert empty.p_a_fs == 0.0
        assert empty.p_c == 0.0
        assert empty.holds

    def test_marked_points_checked(self):
        alg = zoo_member("oq-none", (0, 1, 2))
        with pytest.raises(ValueError):
            o2h_corollary_C(alg, (0, 1, 2), (7,))

    def test_a_missing_output_register_raises_before_any_run(self, monkeypatch):
        """With no output register and none named, there is nothing to
        score; naming one scores it as the algorithm's own."""
        alg = zoo_member("oq-classical", (0, 1, 2))
        bare = replace(alg, output_registers=())
        runs = counting_runs(monkeypatch)
        with pytest.raises(ValueError, match="no output register"):
            o2h_corollary_C(bare, (0, 1, 2), (0,))
        assert runs == []
        named = o2h_corollary_C(bare, (0, 1, 2), (0,), output_register=alg.output_registers[0])
        assert named == o2h_corollary_C(alg, (0, 1, 2), (0,))

    @pytest.mark.parametrize("name", ["oq-phase", "oq-adaptive"])
    @pytest.mark.parametrize("marked", [(), (0,), (1, 2)])
    def test_two_query_members_hold(self, name, marked):
        alg = zoo_member(name, (0, 1, 2))
        r = o2h_corollary_C(alg, (0, 1, 2), marked)
        assert r.q == 2
        assert r.holds


class TestTruncation:
    def wrappers(self):
        machine = build_verifier(
            "random_aborting", toy_table(), 1, eps=Fraction(1, 4)
        )
        return machine, expected_wrappers(machine, (1,), 8)

    def test_frozen_accept_masses(self):
        machine, members = self.wrappers()
        want = [Fraction(1, 16), Fraction(1, 16), Fraction(15, 256)]
        for member, value in zip(members, want):
            cut = truncate(member, 8)
            assert pr_register(run_simulator(cut, machine)) == value

    def test_short_branches_pass_through(self):
        _, (honest, _, geo) = self.wrappers()
        cut = truncate(geo, 8)
        assert cut.name == "expected-geometric-trunc8"
        assert cut.branches[0][1] is geo.branches[0][1]
        tail = cut.branches[-1][1]
        assert tail.name.endswith("-cut8")
        assert tail.invocations == 8
        assert truncate(honest, 8).branches[0][1] is honest.branches[0][1]

    def test_budget_hypothesis_required(self):
        base = QueryAlgorithm("noop", (), 0, (("W1", 2),))
        mix = ExpectedAlgorithm("zero", ((Fraction(1), base),), 0)
        truncate(mix, 0)
        _, (_, _, geo) = self.wrappers()
        with pytest.raises(ValueError):
            truncate(geo, 7)  # E = 31/8 > 7/2
