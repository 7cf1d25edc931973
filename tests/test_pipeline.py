"""Decision experiments: frozen values, dominance, reports."""

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import fold_reference
from qromlab import pipeline
from qromlab.adversary import EXPECTED_MEMBERS
from qromlab.pipeline import (
    THEOREMS,
    ExperimentConfig,
    _check_public_coin,
    build_protocol,
    decide_constant_round,
    decide_public_coin,
    decide_three_round,
    default_config,
    eps_star,
    expected_time_pipeline,
    fs_forgery_exact,
    report_csv,
    report_json,
    run_experiment,
    simulator_trace,
    write_report,
)
from qromlab.protocol import ConfigError, toy_qr, toy_table


def grind_forgery(spec, x, q: int) -> Fraction:
    """Optimal hash-grinding forger by subset enumeration.

    Computes each first message's answerable-challenge mass directly
    and maximizes the hit probability over every (q+1)-subset of grind
    points, independent of the sorted-greedy argument."""
    challenges, chart = fold_reference.challenge_structure(spec, x)
    masses = []
    for m1 in spec.alphabet:
        good = sum(
            1
            for c in challenges
            if any(spec.decide(x, chart[(c,)], (m1, m2)) for m2 in spec.alphabet)
        )
        masses.append(Fraction(good, len(challenges)))
    best = Fraction(0)
    for combo in itertools.combinations(masses, q + 1):
        miss = Fraction(1)
        for p in combo:
            miss *= 1 - p
        best = max(best, 1 - miss)
    return best


DECISIONS = ("constant-round", "public-coin", "three-round")


def checks_by_key(report):
    return {(c.statement, c.name): c for c in report.checks}


class TestCalibration:
    @pytest.mark.parametrize("k,q", [(1, 1), (1, 4), (2, 2), (2, 8), (3, 2)])
    def test_density_splits_the_floor(self, k, q):
        # reprogramming slack at the calibrated density eats exactly
        # half of the 1/4 floor over the composed factor
        es = eps_star(k, q)
        big = Fraction((4 * k * q + 1) ** (2 * k))
        assert Fraction(1, 4) / big - 32 * k * k * q * q * es == Fraction(1, 8) / big

    def test_positivity_checked(self):
        with pytest.raises(ValueError):
            eps_star(0, 2)
        with pytest.raises(ValueError):
            eps_star(2, 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eps=Fraction(0))
        with pytest.raises(ValueError):
            ExperimentConfig(q=0)
        with pytest.raises(ValueError):
            ExperimentConfig(yes_instances=())
        with pytest.raises(ValueError):
            ExperimentConfig(yes_instances=(4,), no_instances=(4,))

    def test_defaults_cover_all_experiments(self):
        for theorem in THEOREMS:
            cfg = default_config(theorem)
            build_protocol(cfg)
        echo = run_experiment("three-round").config  # kind and slacks are fixed
        assert echo["kind"] == "response-oracle"
        assert (echo["slack"], echo["tolerance"]) == (1e-9, 1e-10)
        assert default_config("expected-time").simulator == "expected-geometric"
        with pytest.raises(ValueError):
            default_config("simulated-annealing")
        with pytest.raises(ValueError):
            build_protocol(ExperimentConfig(protocol="toy-rsa"))
        with pytest.raises(ValueError):
            run_experiment("simulated-annealing")
        with pytest.raises(ConfigError, match="^unknown experiment 'annealing'$"):
            run_experiment("annealing", ExperimentConfig())

    def test_an_explicit_reps_is_refused_where_nothing_repeats(self):
        # the library refuses what the CLI refuses, the default's 3 included
        for reps in (2, 3):
            cfg = ExperimentConfig(protocol="toy-table", reps=reps, q=1,
                                   yes_instances=(1, 3), no_instances=())
            with pytest.raises(ConfigError,
                               match="^protocol 'toy-table' has no repetitions to set$"):
                run_experiment("three-round", cfg)
        # an unset reps runs and echoes the default
        cfg = ExperimentConfig(protocol="toy-table", q=1, yes_instances=(1, 3),
                               no_instances=())
        assert run_experiment("three-round", cfg).config["reps"] == 3
        spec, reps = build_protocol(cfg)
        assert (spec.name, reps) == ("toy-table", 1)
        spec, reps = build_protocol(ExperimentConfig())
        assert (spec.name, reps) == ("toy-qr-t1", 3)

    def test_tables_reach_rebound_module_names(self, monkeypatch):
        # perfbench's tracer rebinds module attributes to counting wrappers;
        # the tables must call through the rebound names, not compare or
        # keep the original function objects
        calls = {"decide_three_round": 0, "toy_qr": 0, "_honest_moves": 0}

        def counting(name):
            original = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, wrapper)

        counting("decide_three_round")
        counting("toy_qr")
        counting("_honest_moves")
        assert run_experiment("three-round").theorem == "three-round"
        assert calls["decide_three_round"] == 1
        built = calls["toy_qr"]
        assert build_protocol(ExperimentConfig(reps=2))[1] == 2
        assert calls["toy_qr"] == built + 1
        # the honest-wrapper row makes one set of moves per statement
        for theorem in DECISIONS:
            cfg = default_config(theorem)
            before = calls["_honest_moves"]
            assert run_experiment(theorem).theorem == theorem
            assert calls["_honest_moves"] == before + len(
                cfg.yes_instances + cfg.no_instances
            )


def honest_moves(spec, x, witness, u):
    return lambda got: spec.honest_prover(x, witness, u, got)


# (protocol, reps set) -> ((spec name, reps run), (echoed protocol, k,
# echoed reps)), or None where the reps is refused
BUILDS = {
    ("toy-qr", None): (("toy-qr-t1", 3), ("toy-qr-t3", 2, 3)),
    ("toy-qr", 1): (("toy-qr-t1", 1), ("toy-qr-t1", 2, 1)),
    ("toy-qr", 2): (("toy-qr-t1", 2), ("toy-qr-t2", 2, 2)),
    ("toy-qr", 64): (("toy-qr-t1", 64), ("toy-qr-t64", 2, 64)),
    ("toy-table", None): (("toy-table", 1), ("toy-table", 2, 3)),
    ("toy-guess", None): (("toy-guess", 1), ("toy-guess", 1, 3)),
}


@pytest.mark.parametrize("reps", [None, 1, 2, 64], ids=lambda reps: f"reps-{reps}")
@pytest.mark.parametrize("name", sorted(pipeline.PROTOCOLS))
def test_build_protocol_pairs_the_spec_with_its_reps(name, reps):
    # the one-repetition spec with the reps it runs, and the report's
    # echo of the repetitions; a protocol that does not repeat runs one
    # repetition, echoes the default, and refuses any set reps
    row = pipeline.PROTOCOLS[name]
    cfg = ExperimentConfig(protocol=name, reps=reps, yes_instances=row.yes,
                           no_instances=row.no)
    want = BUILDS.get((name, reps))
    if want is None:
        with pytest.raises(ConfigError, match=f"^protocol '{name}' has no repetitions to set$"):
            build_protocol(cfg)
        return
    spec, n = build_protocol(cfg)
    assert (spec.name, n) == want[0]
    echo = run_experiment("constant-round", replace(cfg, q=spec.rounds)).config
    assert (echo["protocol"], echo["k"], echo["reps"]) == want[1]


class TestSimulatorTrace:
    def test_query_bill(self):
        # 2k flag queries per verifier call: k=2 bills 8, k=1 bills 2
        spec = toy_qr()
        trace = simulator_trace(spec, honest_moves(spec, 4, 2, (1,)))
        calls = []
        out = trace(lambda p, drop=False: calls.append(tuple(p)) or 1, lambda p: (1,))
        assert len(calls) == 8
        assert out == ((1,), (2,))  # honest m1 = u^2, m2 = u * w^c at c=(1,)
        guess, _ = build_protocol(ExperimentConfig(protocol="toy-guess", q=1))
        tg = simulator_trace(guess, honest_moves(guess, 1, (1,), 0))
        short = []
        tg(lambda p, drop=False: short.append(p) or 1, lambda p: 0)
        assert len(short) == 2

    def test_give_up_ignores_responses(self):
        spec = toy_qr()
        fixed = (spec.alphabet[0],) * 2
        cfg = ExperimentConfig(reps=1, simulator="give-up")
        trace = simulator_trace(spec, pipeline._moves(cfg, spec, 5))
        outs = {trace(lambda p, drop=False: 1, lambda p: (0,)),
                trace(lambda p, drop=False: 1, lambda p: (1,))}
        assert outs == {fixed}

    def test_cleared_flag_yields_bottom_response(self):
        spec = toy_qr()
        trace = simulator_trace(spec, honest_moves(spec, 4, 2, (1,)))
        seen = []
        trace(lambda p, drop=False: 0, lambda p: seen.append(p))
        assert seen == []  # the response oracle is never consulted


class TestConstantRound:
    def test_stock_run_frozen_values(self):
        rep = decide_constant_round()
        assert rep.theorem == "constant-round"
        assert rep.config["protocol"] == "toy-qr-t3"
        assert all(c.passed for c in rep.checks)
        yes = Fraction(49, 257)
        no = Fraction(77, 2056)
        assert rep.decision["yes"] == [float(yes)] * 2
        assert rep.decision["no"] == [float(no)] * 2
        assert abs(rep.decision["gap"] - float(Fraction(315, 2056))) <= 1e-15
        by = checks_by_key(rep)
        assert by[("5", "extraction-dominance")].lhs == 0.125
        assert by[("5", "extraction-soundness")].rhs == 0.125 + 1e-10
        assert by[("4", "yes-decision")].rhs == float(Fraction(1, 8 * 17**4)) - 1e-9

    def test_single_rep_gap_too_small(self):
        rep = decide_constant_round(ExperimentConfig(reps=1))
        by = checks_by_key(rep)
        assert rep.decision["yes"] == [float(Fraction(61, 257))] * 2
        assert rep.decision["no"] == [float(Fraction(77, 514))] * 2
        assert not by[("*", "decision-gap")].passed
        assert all(
            c.passed for c in rep.checks if c.name != "decision-gap"
        )

    def test_give_up_fails_the_hypothesis_not_the_floor(self):
        rep = decide_constant_round(ExperimentConfig(simulator="give-up"))
        failed = sorted((c.statement, c.name) for c in rep.checks if not c.passed)
        assert failed == [
            ("*", "decision-gap"),
            ("16", "flag-hypothesis"),
            ("4", "flag-hypothesis"),
        ]
        by = checks_by_key(rep)
        for x in ("4", "16"):
            vacuous = by[(x, "yes-decision")]
            assert vacuous.passed and vacuous.note == "hypothesis unmet"
        assert rep.decision["gap"] == 0.0

    def test_extraction_equality_on_blind_guess(self):
        # one-move spec: the forwarding prover replays the simulator
        # exactly, so dominance is equality at 1/2 on both statements
        cfg = ExperimentConfig(
            protocol="toy-guess", q=1, yes_instances=(1,), no_instances=(0,)
        )
        rep = decide_constant_round(cfg)
        by = checks_by_key(rep)
        assert rep.decision["yes"] == [0.5]
        assert rep.decision["no"] == [0.5]
        assert by[("0", "extraction-dominance")].lhs == 0.5
        assert by[("0", "extraction-soundness")].passed
        assert not by[("*", "decision-gap")].passed

    def test_budget_must_match_the_trace_bill(self):
        with pytest.raises(ValueError):
            decide_constant_round(ExperimentConfig(q=3))


class TestPublicCoin:
    def test_stock_run_frozen_values(self):
        rep = decide_public_coin()
        assert all(c.passed for c in rep.checks)
        assert rep.decision["yes"] == [1.0, 1.0]
        assert rep.decision["no"] == [0.125, 0.125]
        assert rep.decision["gap"] == 0.875
        by = checks_by_key(rep)
        assert by[("4", "hash-budget")].lhs == 4.0  # 2 (k-1) q hash calls
        assert by[("5", "forgery-cap")].rhs == float(Fraction(15961, 32768)) + 1e-10

    def test_tighter_density_still_passes(self):
        rep = decide_public_coin(
            ExperimentConfig(eps=Fraction(1, 4))
        )
        assert all(c.passed for c in rep.checks)

    def test_needs_public_coins(self):
        cfg = ExperimentConfig(
            protocol="toy-table",
            yes_instances=(1, 3), no_instances=(0,),
        )
        with pytest.raises(ConfigError):
            decide_public_coin(cfg)


# a copy of toy_qr()'s next message per refusal, and the refusal's message
BAD_CHALLENGES = {
    "leaves the message alphabet": lambda x, r, ms: (99,) if r == (1,) else r,
    "does not map injectively": lambda x, r, ms: (0,),
    "depends on the prover message": lambda x, r, ms: r if ms[0] == (0,) else ms[0],
}


class TestPublicCoinCheck:
    @pytest.mark.parametrize("message", sorted(BAD_CHALLENGES))
    def test_each_refusal(self, message):
        # every reps of a bad spec raises the spec's error
        bad = replace(toy_qr(), next_message=BAD_CHALLENGES[message])
        assert bad.public_coin
        with pytest.raises(ValueError, match=message):
            _check_public_coin(bad, 5)
        for reps in (1, 2, 3):
            with pytest.raises(ValueError, match=message):
                fs_forgery_exact(bad, 5, 4, reps)

    def test_refusal_order(self):
        # the alphabet before injectivity, injectivity before the message
        for respond, message in ((lambda x, r, ms: (99,), "leaves the message alphabet"),
                                 (lambda x, r, ms: ms[0], "does not map injectively")):
            with pytest.raises(ValueError, match=message):
                _check_public_coin(replace(toy_qr(), next_message=respond), 5)
        with pytest.raises(ValueError, match="exactly two prover moves"):
            fs_forgery_exact(replace(toy_qr(), rounds=3), 5, 4)
        with pytest.raises(ValueError, match="depends on the prover message"):
            fs_forgery_exact(toy_table(), 0, 4)

    def test_decide_public_coin_checks_before_any_walk(self, monkeypatch):
        flat = replace(toy_qr(), next_message=BAD_CHALLENGES["does not map injectively"])

        def unreachable(*args, **kwargs):
            raise AssertionError("a walk ran before the public-coin check")

        monkeypatch.setattr(pipeline, "_walk", unreachable)
        monkeypatch.setattr(pipeline, "build_protocol", lambda cfg: (flat, 1))
        with pytest.raises(ValueError, match="does not map injectively"):
            decide_public_coin(ExperimentConfig(reps=1, eps=Fraction(1, 2)))


class TestForgeryOptimum:
    @pytest.mark.parametrize(
        "q,value",
        [(0, Fraction(1, 2)), (1, Fraction(3, 4)), (2, Fraction(7, 8)),
         (4, Fraction(31, 32))],
    )
    def test_single_rep_matches_subset_search(self, q, value):
        spec = toy_qr()
        assert fs_forgery_exact(spec, 5, q) == value
        assert grind_forgery(spec, 5, q) == value

    def test_folded_matches_direct(self):
        # two repetitions as a count, and every first message of the fold
        whole = fold_reference.fold(toy_qr(), 2, "toy-qr-t2")
        assert fs_forgery_exact(toy_qr(), 5, 2, 2) == fs_forgery_exact(whole, 5, 2) == (
            Fraction(37, 64))


class TestThreeRound:
    def test_stock_run_frozen_values(self):
        rep = decide_three_round()
        assert all(c.passed for c in rep.checks)
        assert rep.decision["yes"] == [float(Fraction(5, 12))] * 2
        assert rep.decision["no"] == [float(Fraction(5, 96))] * 2
        assert abs(rep.decision["gap"] - float(Fraction(35, 96))) <= 1e-15
        by = checks_by_key(rep)
        dom = by[("5", "extraction-dominance")]
        assert dom.lhs == dom.rhs == float(Fraction(5, 96))

    def test_two_prover_moves_required(self):
        cfg = ExperimentConfig(
            protocol="toy-guess", q=1,
            yes_instances=(1,), no_instances=(0,),
        )
        with pytest.raises(ConfigError):
            decide_three_round(cfg)


class TestExpectedTime:
    @pytest.mark.parametrize("sim", EXPECTED_MEMBERS)
    def test_all_members_pass(self, sim):
        cfg = replace(default_config("expected-time"), simulator=sim)
        rep = expected_time_pipeline(cfg)
        assert all(c.passed for c in rep.checks)
        joint = Fraction(255, 512) if sim == "expected-geometric" else Fraction(17, 32)
        for got in rep.decision["yes"]:
            assert abs(got - float(joint)) <= 1e-12
        assert len(rep.decision["yes"]) == 2
        assert rep.decision["no"] == []
        assert rep.decision["gap"] is None
        by = checks_by_key(rep)
        half = by[("1", "stopping-budget")]
        assert half.lhs >= 0.5
        cut = Fraction(15, 256) if sim == "expected-geometric" else Fraction(1, 16)
        assert abs(by[("1", "truncated-accept")].lhs - float(cut)) <= 1e-12

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            expected_time_pipeline(
                replace(default_config("expected-time"), simulator="expected-grover")
            )


class TestReports:
    def test_identical_runs_serialize_identically(self):
        a = report_json(decide_three_round())
        b = report_json(decide_three_round())
        assert a == b
        parsed = json.loads(a)
        assert parsed["runtime_ms"] == 0
        assert [c["pass"] for c in parsed["checks"]]

    def test_csv_shape(self):
        rep = decide_three_round()
        lines = report_csv(rep).splitlines()
        assert lines[0] == "statement,check,anchor,lhs,rhs,relation,pass,note"
        assert len(lines) == len(rep.checks) + 1

    def test_write_report_round_trips(self, tmp_path):
        rep = decide_three_round()
        j1, c1 = tmp_path / "a.json", tmp_path / "a.csv"
        j2 = tmp_path / "b.json"
        write_report(rep, json_path=j1, csv_path=c1)
        write_report(decide_three_round(), json_path=j2)
        assert j1.read_bytes() == j2.read_bytes()
        assert json.loads(j1.read_text())["theorem"] == "three-round"
        assert c1.read_text() == report_csv(rep)
