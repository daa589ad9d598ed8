"""Tests for the command-line interface: reports, round-trips, exit codes."""

import json

import pytest

from kcalc.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestK0Command:
    def test_example_levels(self, capsys):
        report = run_json(capsys, "k0", "--k", "2", "--levels", "1,2,4")
        assert report["schema"] == "kcalc/1"
        assert report["results"]["moduli"] == [1, 3, 15]
        assert report["results"]["multipliers"] == [3, 5]
        assert report["results"]["k1"] == 0

    def test_single_level(self, capsys):
        report = run_json(capsys, "k0", "--k", "3", "--levels", "1")
        assert report["results"]["moduli"] == [2]
        assert report["results"]["multipliers"] == []

    def test_rule_expansion(self, capsys):
        report = run_json(capsys, "k0", "--k", "2", "--rule", "geometric:1,2", "--stages", "3")
        assert report["results"]["levels"] == [1, 2, 4]

    def test_bad_chain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "k0", "--k", "2", "--levels", "2,3")
        assert code == EXIT_USAGE
        assert "divisibility" in err or "divide" in err

    def test_k_below_two_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "k0", "--k", "1", "--levels", "1,2")
        assert code == EXIT_USAGE

    def test_missing_levels_and_rule_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "k0", "--k", "2")
        assert code == EXIT_USAGE
        assert "--levels" in err or "--rule" in err

    def test_malformed_level_list_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "k0", "--k", "2", "--levels", "1,two")
        assert code == EXIT_USAGE


class TestOkCommand:
    def test_base_two_reports_trivial_k0(self, capsys):
        report = run_json(capsys, "ok", "--k", "2", "--depth", "4")
        assert report["results"]["k0"] == "0"
        assert report["results"]["k1"] == 0

    def test_base_five_depth_three(self, capsys):
        report = run_json(capsys, "ok", "--k", "5", "--depth", "3")
        assert report["results"]["k0"] == "Z_4"
        assert report["results"]["unit_class"] == 1
        assert any("Kirchberg-Phillips" in c for c in report["citations"])

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "ok", "--k", "1")
        assert code == EXIT_USAGE

    def test_report_beyond_int_str_limit_exits_2(self, capsys):
        # the stage moduli of this tower print with more than 4300 digits
        code, out, err = run_cli(capsys, "ok", "--k", "10", "--depth", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestMembershipCommand:
    def test_non_member(self, capsys):
        report = run_json(capsys, "membership", "--k", "2", "--n", "2", "--values", "1,0")
        results = report["results"]
        assert results["psi_residue"] == 1
        assert results["psi_modulus"] == 3
        assert not results["member_by_psi"]
        assert not results["member_by_series"]
        assert results["witness"] is None

    def test_member_with_witness(self, capsys):
        report = run_json(capsys, "membership", "--k", "2", "--n", "2", "--values", "1,-1/2")
        results = report["results"]
        assert results["member_by_psi"] and results["member_by_series"]
        assert results["witness"] == ["1", "0"]

    def test_wrong_length_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "membership", "--k", "2", "--n", "3", "--values", "1,0")
        assert code == EXIT_USAGE

    def test_foreign_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "membership", "--k", "2", "--n", "1", "--values", "1/3")
        assert code == EXIT_USAGE
        assert "Z[1/2]" in err


class TestDistinguishCommand:
    def test_distinct(self, capsys):
        report = run_json(capsys, "distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3")
        results = report["results"]
        assert results["verdict"] == "distinct"
        assert results["witness_value"] == 3
        assert results["order_certificate"] == 2

    def test_identical_inconclusive(self, capsys):
        report = run_json(capsys, "distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,2")
        assert report["results"]["verdict"] == "inconclusive"

    def test_six_vs_two(self, capsys):
        report = run_json(capsys, "distinguish", "--k", "2", "--rule-a", "1,6", "--rule-b", "1,2")
        assert report["results"]["verdict"] == "distinct"

    def test_malformed_rule_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "distinguish", "--k", "2", "--rule-a", "1", "--rule-b", "1,2")
        assert code == EXIT_USAGE


class TestWitnessCommand:
    def test_example(self, capsys):
        report = run_json(capsys, "witness", "--k", "2", "--p", "2", "--s", "2")
        assert report["results"]["prime_power"] == 5
        assert report["results"]["order_of_k"] == 4

    def test_budget_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "witness", "--k", "2", "--p", "2", "--s", "4", "--budget-bits", "8"
        )
        assert code == EXIT_BUDGET
        assert "budget" in err


class TestGroupoidCommand:
    def test_certificate_and_counts(self, capsys):
        report = run_json(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2,4,8",
            "--depth", "3", "--max-disp", "2",
        )
        results = report["results"]
        assert results["certificate"]["level"] == 4
        assert results["arrow_count"] == 5 * 4 * 2 ** 5
        assert results["product_arrow_count"] == results["arrow_count"]

    def test_af_block_squares(self, capsys):
        report = run_json(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2,4,8",
            "--depth", "2", "--max-disp", "1", "--af-block", "3",
        )
        results = report["results"]
        assert results["product_arrow_count"] == results["arrow_count"] * 9

    def test_zero_displacement_diagonal(self, capsys):
        report = run_json(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2",
            "--depth", "2", "--max-disp", "0",
        )
        results = report["results"]
        assert results["arrow_count"] == results["certificate"]["level"] * 2 ** 2
        assert all(s["displacement"] == 0 for s in results["sample_arrows"])

    def test_max_disp_beyond_depth_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2,4,8",
            "--depth", "1", "--max-disp", "2",
        )
        assert code == EXIT_USAGE


class TestReportPlumbing:
    def test_json_round_trip_all_commands(self, capsys):
        invocations = [
            ("k0", "--k", "3", "--levels", "1,3"),
            ("ok", "--k", "3", "--depth", "3"),
            ("membership", "--k", "2", "--n", "2", "--values", "1,0"),
            ("distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3"),
            ("witness", "--k", "3", "--p", "2", "--s", "1"),
            ("groupoid", "--k", "2", "--levels", "1,2,4", "--depth", "2", "--max-disp", "1"),
        ]
        for argv in invocations:
            report = run_json(capsys, *argv)
            assert json.loads(json.dumps(report)) == report
            assert report["schema"] == "kcalc/1"
            assert report["citations"]

    def test_deterministic_modulo_timing(self, capsys):
        a = run_json(capsys, "ok", "--k", "4", "--depth", "3")
        b = run_json(capsys, "ok", "--k", "4", "--depth", "3")
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "k0", "--k", "2", "--levels", "1,2", "--table")
        assert code == EXIT_OK
        assert "moduli" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "witness", "--k", "2", "--p", "3", "--s", "1", "--out", str(path)
        )
        assert code == EXIT_OK
        assert json.loads(path.read_text())["results"]["prime_power"] == 7

    def test_out_file_in_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--levels", "1,2", "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_selftest_passes(self, capsys):
        report = run_json(capsys, "selftest")
        assert report["results"]["all_ok"]

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
