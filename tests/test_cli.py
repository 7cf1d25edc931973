"""Command-line behavior: exit codes, printed verdicts, report files."""

import itertools
import json
import os
import time
from fractions import Fraction

import pytest

import pinned_reference
from qromlab import adversary, cli, pipeline
from qromlab.adversary import EXPECTED_MEMBERS, build_verifier, expected_wrapper
from qromlab.protocol import toy_table
from qromlab.cli import LEMMAS, main
from qromlab.pipeline import MAX_REPS, THEOREMS


class TestVerifyLemma:
    @pytest.mark.parametrize("name", sorted(LEMMAS))
    def test_every_demo_passes(self, name, capsys):
        assert main(["verify-lemma", name]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{name}: pass")

    def test_seed_changes_samples_not_verdict(self, capsys):
        assert main(["verify-lemma", "swap", "--seed", "7"]) == 0
        assert "swap: pass" in capsys.readouterr().out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemma", "grover"])
        assert exc.value.code == 2

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemma", "swap", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qromlab verify-lemma")
        assert "seed must be a nonnegative integer, got '-1'" in err


class TestRun:
    def test_stock_constant_round_passes(self, capsys):
        assert main(["run", "constant-round"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("constant-round  protocol=toy-qr-t3")
        assert "[FAIL]" not in out
        assert "decision: yes=" in out

    @pytest.mark.parametrize("theorem", ["public-coin", "three-round", "expected-time"])
    def test_other_experiments_pass(self, theorem, capsys):
        assert main(["run", theorem]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_single_rep_gap_failure_sets_exit_code(self, capsys):
        assert main(["run", "constant-round", "--reps", "1"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] * decision-gap" in out

    def test_give_up_simulator_reported(self, capsys):
        assert main(["run", "constant-round", "--sim", "give-up"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 3
        assert "hypothesis unmet" in out

    def test_protocol_override_swaps_instances(self, capsys):
        assert main(["run", "constant-round", "--protocol", "toy-guess",
                     "--q", "1"]) == 1
        out = capsys.readouterr().out
        assert "protocol=toy-guess" in out
        assert "[FAIL] * decision-gap" in out
        assert "decision: yes=[0.5] no=[0.5]" in out

    def test_oversized_table_stops_with_the_cap_error(self, capsys):
        # one repetition of toy-qr is built, and its control table refused
        assert main(["run", "expected-time", "--protocol", "toy-qr", "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qromlab: error: ")
        assert "control table of 2**182 basis states exceeds the dense cap" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["constant-round", "--sim", "bogus"], "unknown simulator 'bogus'"),
            (["expected-time", "--sim", "bogus"], "unknown expected-mode simulator"),
            (["constant-round", "--q", "0"], "the budget must be positive"),
            (["public-coin", "--eps", "0"], "the flag density must lie in"),
            (["constant-round", "--reps", "0"], "need at least one repetition"),
            (["expected-time", "--sim", "expected-honest", "--q", "1"],
             "expected invocations 2 exceed half the budget 1"),
            (["expected-time", "--sim", "expected-geometric", "--q", "4"],
             "expected-geometric: expected invocations 31/8 exceed half the budget 4"),
            (["public-coin", "--q", "1"], "the budget q must be 2, not 1"),
            (["public-coin", "--q", "3"], "the budget q must be 2, not 3"),
            (["constant-round", "--reps", str(MAX_REPS + 1)],
             f"at most {MAX_REPS} repetitions are supported, not {MAX_REPS + 1}"),
            (["expected-time", "--reps", "7"],
             "protocol 'toy-table' has no repetitions to set"),
            (["three-round", "--protocol", "toy-table", "--reps", "2"],
             "protocol 'toy-table' has no repetitions to set"),
            (["constant-round", "--protocol", "toy-guess", "--reps", "2"],
             "protocol 'toy-guess' has no repetitions to set"),
            (["expected-time", "--sim", "expected-lazy", "--q", "3"],
             "expected-lazy: expected invocations 2 exceed half the budget 3"),
            # an explicit --reps is refused even at the default 3
            (["expected-time", "--reps", "3"],
             "protocol 'toy-table' has no repetitions to set"),
            (["three-round", "--protocol", "toy-table", "--reps", "3"],
             "protocol 'toy-table' has no repetitions to set"),
            (["constant-round", "--protocol", "toy-guess"],
             "the flag trace makes 1 verifier call, so the budget q must be 1, not 2"),
            (["three-round", "--reps", str(MAX_REPS + 1)],
             f"at most {MAX_REPS} repetitions are supported, not {MAX_REPS + 1}"),
            (["public-coin", "--reps", str(MAX_REPS + 1)],
             f"at most {MAX_REPS} repetitions are supported, not {MAX_REPS + 1}"),
            # refused before any machine is built
            (["expected-time", "--protocol", "toy-qr"],
             "the expected-time experiment runs one repetition, not 3"),
        ],
    )
    def test_config_errors_exit_2(self, argv, message, capsys):
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qromlab: error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("theorem", ["public-coin", "three-round"])
    def test_hashed_challenges_report_past_the_index_cap(self, theorem, capsys):
        # 18 repetitions of 13 messages are 13**18 > sys.maxsize; every
        # experiment scores them from the one-repetition spec
        assert main(["run", theorem, "--reps", "18"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{theorem}  protocol=toy-qr-t18")
        assert "[FAIL]" not in out

    def test_constant_round_reports_at_the_most_repetitions(self, capsys):
        # so does constant-round, up to the repetition cap
        assert main(["run", "constant-round", "--reps", str(MAX_REPS)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"constant-round  protocol=toy-qr-t{MAX_REPS}")
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("theorem", ["constant-round", "public-coin", "three-round"])
    def test_decision_simulator_names(self, theorem, capsys):
        # every SIMULATORS name reports; any other name, an expected-time
        # member included, stops with the one unknown-simulator line
        for sim in pipeline.SIMULATORS:
            assert main(["run", theorem, "--sim", sim]) in (0, 1)
            out = capsys.readouterr().out
            assert out.startswith(f"{theorem}  protocol=") and f"simulator={sim}" in out
        for sim in (*adversary.EXPECTED_MEMBERS, "bogus"):
            assert main(["run", theorem, "--sim", sim]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"qromlab: error: unknown simulator '{sim}'\n"

    @pytest.mark.parametrize("sim", sorted(pipeline.SIMULATORS))
    def test_expected_time_rejects_decision_simulators(self, sim, capsys):
        assert main(["run", "expected-time", "--sim", sim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qromlab: error: unknown expected-mode simulator '{sim}'\n"

    @pytest.mark.parametrize("q", ["3", "400"])
    def test_constant_round_budget_checked_before_any_schedule(self, q, monkeypatch,
                                                               capsys):
        # the flag trace makes k = 2 calls; --q 400 would walk 10,240,001 schedules
        def unreachable(*args):
            raise AssertionError("schedules walked before the budget check")

        monkeypatch.setattr(pipeline, "_walk", unreachable)
        assert main(["run", "constant-round", "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "qromlab: error: the flag trace makes 2 verifier calls, so the budget"
            f" q must be 2, not {q}\n"
        )

    @pytest.mark.parametrize("sim", ["expected-honest", "expected-lazy"])
    def test_only_the_chosen_simulator_meets_the_budget(self, sim, capsys):
        # the geometric member's 31/8 expected invocations exceed 4/2
        assert main(["run", "expected-time", "--sim", sim, "--q", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "[FAIL]" not in captured.out
        assert f"simulator={sim}" in captured.out

    def test_expected_geometric_reports_at_a_huge_budget(self, monkeypatch, capsys):
        # only the named member is built
        def only_geometric(name, *args):
            if name != "expected-geometric":
                raise AssertionError(f"built the unnamed member {name}")
            return expected_wrapper(name, *args)

        monkeypatch.setattr(adversary, "expected_wrapper", only_geometric)
        monkeypatch.setattr(pipeline, "expected_wrapper", only_geometric)
        t0 = time.perf_counter()
        code = main(["run", "expected-time", "--sim", "expected-geometric",
                     "--q", str(10**9)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "simulator=expected-geometric" in captured.out
        assert elapsed < 10.0  # about 0.5 s on a 2-core x86-64 host

    def test_expected_lazy_reports_at_a_huge_budget(self, capsys):
        # (q - 4)/2 pad pairs make one Pad step, billed and not applied
        q = 10**9
        t0 = time.perf_counter()
        code = main(["run", "expected-time", "--sim", "expected-lazy", "--q", str(q)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert f"q={q}  simulator=expected-lazy" in captured.out
        assert "[FAIL]" not in captured.out
        assert elapsed < 2.0  # about 0.03 s on a 2-core x86-64 host

    def test_every_branch_stays_short_at_a_huge_budget(self):
        spec = toy_table()
        machine = build_verifier("superposition", spec, 1, eps=Fraction(1, 4))
        k, q = spec.rounds, 10**9
        for name in EXPECTED_MEMBERS:
            member = expected_wrapper(name, machine, spec.witness_map(1)[0], q)
            assert all(len(alg.steps) <= 2 * k + 1 for _, alg in member.branches)
        (_, base), (_, padded) = expected_wrapper(
            "expected-lazy", machine, spec.witness_map(1)[0], q).branches
        assert padded.invocations == base.invocations + 2 * ((q - 2 * k) // 2)

    @pytest.mark.parametrize("protocol", sorted(pipeline.PROTOCOLS))
    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_every_protocol_override_reports_or_stops(self, theorem, protocol, capsys):
        # a traceback would escape main and fail the test
        code = main(["run", theorem, "--protocol", protocol])
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("qromlab: error: ")
            assert captured.err.count("\n") == 1
        else:
            assert code in (0, 1) and captured.err == ""
            assert captured.out.startswith(f"{theorem}  protocol=")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_an_unwritable_path_stops_before_the_experiment(self, flag, where, tmp_path,
                                                           monkeypatch, capsys):
        """A path whose directory is missing, or that is a directory, exits
        2 with one error line before any work, and writes no file."""
        def unreachable(theorem, cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        path = tmp_path / "gone" / "r.json" if where == "missing-directory" else tmp_path
        other = tmp_path / "other.json"
        keep = "--csv" if flag == "--out" else "--out"
        assert main(["run", "three-round", flag, str(path), keep, str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qromlab: error: cannot write {path}")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alias", ["dot-slash", "symlink", "hardlink"])
    def test_one_file_for_both_reports_stops_before_the_experiment(
            self, alias, tmp_path, monkeypatch, capsys):
        """``--out`` and ``--csv`` naming one file, by another spelling,
        a symlink or a hard link, exit 2 with one error line before any
        work, and touch no file; the CSV would overwrite the JSON."""
        def unreachable(theorem, cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        monkeypatch.chdir(tmp_path)
        other = {"dot-slash": "./same.json", "symlink": "link.json",
                 "hardlink": "hard.json"}[alias]
        if alias == "symlink":
            os.symlink("same.json", "link.json")  # dangling: neither file exists
        elif alias == "hardlink":
            (tmp_path / "same.json").write_text("kept")
            os.link("same.json", "hard.json")
        before = sorted(os.listdir(tmp_path))
        assert main(["run", "three-round", "--out", "same.json", "--csv", other]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"qromlab: error: --out same.json and --csv {other}"
                                " name the same file\n")
        assert sorted(os.listdir(tmp_path)) == before
        if alias == "hardlink":
            assert (tmp_path / "same.json").read_text() == "kept"

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_a_failed_write_is_one_error_line(self, flag, tmp_path, monkeypatch, capsys):
        """An ``OSError`` raised while the report is written exits 2 with
        one error line, not a traceback."""
        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path / "r"))

        monkeypatch.setattr(cli, "write_report", refused)
        assert main(["run", "three-round", flag, str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("three-round  protocol=")
        assert captured.err == (
            f"qromlab: error: [Errno 13] Permission denied: '{tmp_path / 'r'}'\n")

    def test_internal_value_error_keeps_its_traceback(self, monkeypatch):
        def broken(theorem, cfg):
            raise ValueError("matrix is not unitary within 1e-9")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="not unitary"):
            main(["run", "constant-round"])

    def test_eps_override_stays_green(self, capsys):
        assert main(["run", "public-coin", "--eps", "1/4"]) == 0
        assert "eps=1/4" in capsys.readouterr().out

    def test_malformed_eps_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "public-coin", "--eps", "half"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["run", "public-coin", "--eps", "1/0"])

    def test_unknown_theorem_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "grand-unified"])
        assert exc.value.code == 2

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "constant-round", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qromlab run")
        assert "seed must be a nonnegative integer, got '-1'" in err


# Decision and (statement, check, lhs, rhs) of each report at --reps 5, as
# computed by the materialised route before specs were folded.
REPS_5 = {
    "constant-round": (
        {"yes": [0.17898832684824903, 0.17898832684824903],
         "no": [0.00936284046692607, 0.00936284046692607],
         "gap": 0.16962548638132297},
        [
            ("4", "flag-hypothesis", 0.0625, 0.015624999),
            ("4", "flag-hypothesis-calibrated", 8.544540901761356e-18, -9.999999978638649e-10),
            ("4", "yes-decision", 0.17898832684824903, 1.495629590162953e-06),
            ("16", "flag-hypothesis", 0.0625, 0.015624999),
            ("16", "flag-hypothesis-calibrated", 8.544540901761356e-18, -9.999999978638649e-10),
            ("16", "yes-decision", 0.17898832684824903, 1.495629590162953e-06),
            ("5", "extraction-dominance", 0.03125, 0.00936284046692607),
            ("5", "extraction-soundness", 0.03125, 0.0312500001),
            ("5", "no-decision", 0.00936284046692607, 0.0312500001),
            ("20", "extraction-dominance", 0.03125, 0.00936284046692607),
            ("20", "extraction-soundness", 0.03125, 0.0312500001),
            ("20", "no-decision", 0.00936284046692607, 0.0312500001),
            ("*", "decision-gap", 0.16962548638132297, 0.1),
        ],
    ),
    "public-coin": (
        {"yes": [1.0, 1.0], "no": [0.03125, 0.03125], "gap": 0.96875},
        [
            ("4", "hash-budget", 4.0, 4.0),
            ("4", "yes-decision", 1.0, 0.499999999),
            ("16", "hash-budget", 4.0, 4.0),
            ("16", "yes-decision", 1.0, 0.499999999),
            ("5", "hash-budget", 4.0, 4.0),
            ("5", "forgery-cap", 0.03125, 0.14678481231199036),
            ("5", "no-decision", 0.03125, 0.0312500001),
            ("20", "hash-budget", 4.0, 4.0),
            ("20", "forgery-cap", 0.03125, 0.14678481231199036),
            ("20", "no-decision", 0.03125, 0.0312500001),
            ("*", "decision-gap", 0.96875, 0.1),
        ],
    ),
    "three-round": (
        {"yes": [0.3541666666666667, 0.3541666666666667],
         "no": [0.011067708333333334, 0.011067708333333334],
         "gap": 0.34309895833333337},
        [
            ("4", "challenge-game", 1.0, 0.499999999),
            ("4", "decision-queries", 0.0, 1.0),
            ("4", "yes-decision", 0.3541666666666667, 0.003472221222222222),
            ("16", "challenge-game", 1.0, 0.499999999),
            ("16", "decision-queries", 0.0, 1.0),
            ("16", "yes-decision", 0.3541666666666667, 0.003472221222222222),
            ("5", "extraction-dominance", 0.011067708333333334, 0.011067708333333334),
            ("5", "extraction-soundness", 0.011067708333333334, 0.0312500001),
            ("5", "no-decision", 0.011067708333333334, 0.0312500001),
            ("20", "extraction-dominance", 0.011067708333333334, 0.011067708333333334),
            ("20", "extraction-soundness", 0.011067708333333334, 0.0312500001),
            ("20", "no-decision", 0.011067708333333334, 0.0312500001),
            ("*", "decision-gap", 0.34309895833333337, 0.1),
        ],
    ),
}


@pytest.mark.parametrize("theorem", sorted(REPS_5))
def test_five_repetitions_keep_their_values(theorem, tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["run", theorem, "--reps", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    decision, checks = REPS_5[theorem]
    assert report["config"]["protocol"] == "toy-qr-t5"
    assert report["decision"] == decision
    assert [(c["statement"], c["name"], c["lhs"], c["rhs"])
            for c in report["checks"]] == checks
    assert all(c["pass"] for c in report["checks"])


def test_eight_repetitions_of_three_round_keep_their_values(tmp_path, capsys):
    # the values the per-r scorers gave, where a full group's 256 coins
    # are now counted per coordinate
    path = tmp_path / "r.json"
    assert main(["run", "three-round", "--reps", "8", "--out", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["config"]["protocol"] == "toy-qr-t8"
    assert report["decision"] == {
        "yes": [0.3359375, 0.3359375],
        "no": [0.001312255859375, 0.001312255859375],
        "gap": 0.334625244140625,
    }
    assert [(c["statement"], c["name"], c["lhs"], c["rhs"])
            for c in report["checks"]] == [
        ("4", "challenge-game", 1.0, 0.499999999),
        ("4", "decision-queries", 0.0, 1.0),
        ("4", "yes-decision", 0.3359375, 0.003472221222222222),
        ("16", "challenge-game", 1.0, 0.499999999),
        ("16", "decision-queries", 0.0, 1.0),
        ("16", "yes-decision", 0.3359375, 0.003472221222222222),
        ("5", "extraction-dominance", 0.001312255859375, 0.001312255859375),
        ("5", "extraction-soundness", 0.001312255859375, 0.0039062501),
        ("5", "no-decision", 0.001312255859375, 0.0039062501),
        ("20", "extraction-dominance", 0.001312255859375, 0.001312255859375),
        ("20", "extraction-soundness", 0.001312255859375, 0.0039062501),
        ("20", "no-decision", 0.001312255859375, 0.0039062501),
        ("*", "decision-gap", 0.334625244140625, 0.1),
    ]
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize(
    "sim", ["expected-geometric", "expected-honest", "expected-lazy"]
)
def test_expected_time_bytes_match_the_pinned_route(sim, tmp_path, monkeypatch, capsys):
    """The batched control-assignment route writes the report bytes that one
    pinned machine per assignment writes."""

    def report(tag):
        js, csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        argv = ["run", "expected-time", "--sim", sim, "--out", str(js), "--csv", str(csv)]
        assert main(argv) == 0
        return js.read_bytes(), csv.read_bytes()

    batched = report("batched")
    monkeypatch.setattr(pipeline, "run_simulator", pinned_reference.run_simulator)
    pinned = report("pinned")
    capsys.readouterr()
    assert batched == pinned


# Every value of every run flag at small sizes; "-" leaves the flag unset.
GRID_FLAGS = {
    "--reps": ("-", "1", "2"),
    "--q": ("-", "0", "1", "2", "3"),
    "--eps": ("-", "1/2", "1"),
    "--sim": ("-", "give-up", "expected-lazy"),
}


def _flag_rows():
    """All pairs of values of any two flags, in 15 rows: --q index i and
    --reps index j take --eps (i + j) mod 3 and --sim (i + 2j) mod 3. Row
    (0, 0) is the stock run."""
    reps, qs, eps, sims = GRID_FLAGS.values()
    return [
        (reps[j], q, eps[(i + j) % 3], sims[(i + 2 * j) % 3])
        for i, q in enumerate(qs)
        for j in range(len(reps))
    ]


@pytest.mark.parametrize("protocol", ["stock", *sorted(pipeline.PROTOCOLS)])
@pytest.mark.parametrize("theorem", THEOREMS)
def test_flag_grid_reports_or_stops_with_one_line(theorem, protocol, capsys):
    """Every theorem and protocol under a pairwise cover of the other flags:
    a run exits 0 or 1 with a report, or 2 with one stderr line, and
    nothing else (a traceback would escape main and fail the test)."""
    rows = _flag_rows()
    pairs = {
        (a, va, b, vb)
        for row in rows
        for (a, va), (b, vb) in itertools.combinations(zip(GRID_FLAGS, row), 2)
    }
    assert len(pairs) == sum(
        len(va) * len(vb) for va, vb in itertools.combinations(GRID_FLAGS.values(), 2)
    )
    base = ["run", theorem] + ([] if protocol == "stock" else ["--protocol", protocol])
    for row in rows:
        argv = base + [x for flag, v in zip(GRID_FLAGS, row) if v != "-" for x in (flag, v)]
        code = main(argv)
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "", argv
            assert captured.err.startswith("qromlab: error: "), argv
            assert captured.err.count("\n") == 1, argv
        else:
            assert code in (0, 1) and captured.err == "", argv
            assert captured.out.startswith(f"{theorem}  protocol="), argv


class TestReportFiles:
    def test_written_files_announced_and_parse(self, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        code = main(["run", "three-round", "--out", str(out_json),
                     "--csv", str(out_csv)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"wrote {out_json}" in printed
        assert f"wrote {out_csv}" in printed
        report = json.loads(out_json.read_text())
        assert report["theorem"] == "three-round"
        assert all(c["pass"] for c in report["checks"])
        header = out_csv.read_text().splitlines()[0]
        assert header == "statement,check,anchor,lhs,rhs,relation,pass,note"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "constant-round", "--out", str(a)])
        main(["run", "constant-round", "--out", str(b), "--seed", "3"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
