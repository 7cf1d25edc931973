"""Command-line behavior: exit codes, printed verdicts, report files."""

import json

import pytest

from qromlab import cli
from qromlab.cli import LEMMAS, main
from qromlab.pipeline import THEOREMS


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
        assert main(["run", "expected-time", "--protocol", "toy-qr"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qromlab: error: ")
        assert "exceeds the dense cap" in captured.err
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
        ],
    )
    def test_config_errors_exit_2(self, argv, message, capsys):
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qromlab: error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("sim", ["expected-honest", "expected-lazy"])
    def test_only_the_chosen_simulator_meets_the_budget(self, sim, capsys):
        # the geometric member's 31/8 expected invocations exceed 4/2
        assert main(["run", "expected-time", "--sim", sim, "--q", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "[FAIL]" not in captured.out
        assert f"simulator={sim}" in captured.out

    @pytest.mark.parametrize("protocol", sorted(cli.PROTOCOL_INSTANCES))
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
