"""Tests for the command-line interface: reports, round-trips, exit codes."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcalc
from kcalc import arith, cli
from kcalc.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from kcalc.groupoid import enumerate_arrows
from oracles import full_parser, tensor_route_identification
from test_readme_reports import readme_examples


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

    def test_citations_name_the_closed_form_pivot(self, capsys):
        report = run_json(capsys, "k0", "--k", "2", "--levels", "1,2,4")
        assert report["citations"] == [
            "tower of cyclic groups from the finite-stage residue map: computed",
            "connecting multipliers (geometric sums): computed",
            "K_1 = 0 at every level via the closed-form kernel pivot 1 - k^-n,"
            " numerator k^n - 1 = -1 (mod k): computed",
        ]
        assert report["results"]["kernel_pivots"] == ["1/2", "3/4", "15/16"]

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

    def test_empty_level_list_is_malformed_not_missing(self, capsys):
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--levels", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: malformed level list: ''\n"

    def test_empty_rule_is_malformed_not_missing(self, capsys):
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--rule", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: malformed geometric rule: '' (expected 'c,r')\n"

    @pytest.mark.parametrize("stages", ["1000000", "1000000000000000000"])
    def test_long_rule_refused_before_its_levels_are_formed(self, capsys, stages):
        # stage 10**6 of 1,2 has a level of 2**999999; all 10**6 levels hold about 5*10**11 bits
        start = perf_counter()
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--rule", "1,2", "--stages", stages)
        assert perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: 2^16384 - 1 has more than 4300 digits,"
            " more than a report can print; use a smaller k or level\n"
        )

    @pytest.mark.parametrize("stages", ["0", "-3"])
    def test_no_stages_exits_2(self, capsys, stages):
        code, _, err = run_cli(capsys, "k0", "--k", "2", "--rule", "1,2", "--stages", stages)
        assert code == EXIT_USAGE
        assert err == "error: at least one level is required\n"

    def test_levels_and_rule_together_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--levels", "1,2", "--rule", "1,3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not allowed with" in err

    def test_seed_is_not_an_option_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "k0", "--k", "2", "--levels", "1,2", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "--seed" in err


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

    def test_citations_certify_all_stages_by_one_congruence(self, capsys):
        report = run_json(capsys, "ok", "--k", "7", "--depth", "3")
        assert report["citations"][0] == (
            "stage groups and connecting maps of all stages from one congruence,"
            " cofactor = 1 (mod k-1): exact computation"
        )

    def test_base_three_and_four_towers(self, capsys):
        three = run_json(capsys, "ok", "--k", "3", "--depth", "3")["results"]
        assert three["moduli"] == [2, 26, 19682]
        assert three["cofactors"] == [1, 13, 9841]
        four = run_json(capsys, "ok", "--k", "4", "--depth", "3")["results"]
        assert four["moduli"] == [3, 255, 4294967295]

    def test_tower_matches_k0_rule_and_the_tensor_route(self, capsys):
        # every depth whose moduli print, then the first depth refused: ok's tower is
        # k0's under the rule 1,k and the one the tensor route builds stage by stage
        deepest = {}
        for k in range(2, 13):
            depth = 2
            while True:
                ok = run_cli(capsys, "ok", "--k", str(k), "--depth", str(depth))
                k0 = run_cli(capsys, "k0", "--k", str(k), "--rule", f"1,{k}", "--stages", str(depth))
                if ok[0] != EXIT_OK:
                    break
                tower = json.loads(ok[1])["results"]
                rule = json.loads(k0[1])["results"]
                route = tensor_route_identification(k, depth)
                stages = route["stages"]
                assert tower["levels"] == rule["levels"] == list(route["levels"]), (k, depth)
                assert tower["levels"] == [s["level"] for s in stages] == [k ** i for i in range(depth)]
                assert tower["moduli"] == rule["moduli"] == list(route["moduli"]), (k, depth)
                assert tower["moduli"] == [s["modulus"] for s in stages]
                assert tower["cofactors"] == [s["cofactor"] for s in stages], (k, depth)
                depth += 1
            assert ok == k0 and ok[0] == EXIT_USAGE
            assert ok[2] == (
                f"error: {k}^{k ** (depth - 1)} - 1 has more than 4300 digits,"
                " more than a report can print; use a smaller k or level\n"
            )
            deepest[k] = depth - 1
        assert list(deepest.values()) == [14, 9, 7, 6, 5, 5, 5, 4, 4, 4, 4]

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "ok", "--k", "1")
        assert code == EXIT_USAGE

    def test_no_budget_option(self, capsys):
        # ok factors only k - 1, which the 4300-digit refusal keeps within 11 bits
        report = run_json(capsys, "ok", "--k", "3", "--depth", "3")
        assert report["inputs"] == {"k": 3, "depth": 3}
        code, out, err = run_cli(capsys, "ok", "--k", "3", "--budget-bits", "8")
        assert code == EXIT_USAGE
        assert out == "" and "--budget-bits" in err

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

    def test_level_below_one_exits_2(self, capsys):
        for n, values in (("0", "--values="), ("-1", "--values=1")):
            code, _, err = run_cli(capsys, "membership", "--k", "2", "--n", n, values)
            assert code == EXIT_USAGE
            assert "n must be >= 1" in err

    def test_leading_minus_value_as_separate_word(self, capsys):
        joined = run_json(capsys, "membership", "--k", "2", "--n", "2", "--values=-1/2,1")
        joined.pop("timing_ms")
        assert joined["results"]["member_by_psi"]
        # argparse also takes every prefix of --values from --v on for the option
        for option_ in ("--values", "--value", "--valu", "--val", "--va", "--v"):
            separate = run_json(capsys, "membership", "--k", "2", "--n", "2", option_, "-1/2,1")
            separate.pop("timing_ms")
            assert separate == joined, option_
        for other in ("--", "-v", "--vs", "--values=1", "--valuesx"):
            assert cli._attach_values([other, "-1"]) == [other, "-1"]

    def test_level_4000_answers_in_linear_time(self, capsys):
        # a quadratic series takes minutes at this level
        rng = Random(4000)
        n = 4000
        g = [Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 2)) for _ in range(n)]
        f = [g[x] - g[x - 1] / 2 for x in range(n)]
        start = perf_counter()
        report = run_json(
            capsys, "membership", "--k", "2", "--n", str(n), "--values=" + ",".join(map(str, f))
        )
        assert perf_counter() - start < 2.0
        assert report["results"]["member_by_psi"] and report["results"]["member_by_series"]
        assert report["results"]["witness"] == [str(v) for v in g]

    def test_foreign_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "membership", "--k", "2", "--n", "1", "--values", "1/3")
        assert code == EXIT_USAGE
        assert "Z[1/2]" in err


def zeros(n: int) -> str:
    return "--values=" + ",".join(["0"] * n)


class TestOversizeReports:
    """Reports that would print an integer of more than 4300 digits exit 2 with a kcalc message."""

    def assert_refused(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err
        return err

    def test_membership_boundary(self, capsys):
        report = run_json(capsys, "membership", "--k", "10", "--n", "4300", zeros(4300))
        assert report["results"]["psi_modulus"] == 10 ** 4300 - 1
        err = self.assert_refused(capsys, "membership", "--k", "10", "--n", "4301", zeros(4301))
        assert "10^4301 - 1" in err

    def test_k0_boundary(self, capsys):
        report = run_json(capsys, "k0", "--k", "10", "--levels", "4299")
        assert report["results"]["kernel_pivots"] == [f"{10 ** 4299 - 1}/{10 ** 4299}"]
        err = self.assert_refused(capsys, "k0", "--k", "10", "--levels", "4300")
        assert err == (
            "error: the report holds an integer of more than 4300 digits, more than it can print\n"
        )
        self.assert_refused(capsys, "k0", "--k", "2", "--rule", "1,2", "--stages", "15")
        # the tenth level, 3**9, is the first too long for 2**n
        err = self.assert_refused(capsys, "k0", "--k", "2", "--rule", "1,3", "--stages", "10")
        assert err == (
            "error: 2^19683 - 1 has more than 4300 digits,"
            " more than a report can print; use a smaller k or level\n"
        )
        # the rule is expanded one level at a time, so stage 2's level 10**1000 is refused
        err = self.assert_refused(capsys, "k0", "--k", "2", "--rule", f"1,{10 ** 1000}", "--stages", "6")
        assert err == (
            f"error: 2^{10 ** 1000} - 1 has more than 4300 digits,"
            " more than a report can print; use a smaller k or level\n"
        )

    def test_ok_boundary(self, capsys):
        report = run_json(capsys, "ok", "--k", "10", "--depth", "4")
        assert report["results"]["moduli"][-1] == 10 ** 1000 - 1
        self.assert_refused(capsys, "ok", "--k", "10", "--depth", "5")

    def test_ok_refused_before_the_modulus_is_formed(self, capsys):
        # the last modulus, 1000**(10**9) - 1, has about 10**10 bits
        start = perf_counter()
        self.assert_refused(capsys, "ok", "--k", "1000", "--depth", "4")
        assert perf_counter() - start < 1.0

    def test_long_witness_value_exits_2(self, capsys):
        # g = 2 f at k = 2, n = 1, one digit longer than the 4300-digit input
        self.assert_refused(capsys, "membership", "--k", "2", "--n", "1", "--values", "9" * 4300)

    def test_long_product_count_exits_2(self, capsys):
        argv = ("groupoid", "--k", "2", "--levels", "1,2,4", "--depth", "1", "--max-disp", "0")
        block = str(10 ** 2200)
        self.assert_refused(capsys, *argv, "--af-block", block)
        self.assert_refused(capsys, *argv, "--af-block", block, "--table")


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
        for rule in ("1", "a,b", "1,x", "geometric:1,2,3", "1/2,3"):
            for argv in (
                ("k0", "--k", "2", "--rule", rule),
                ("distinguish", "--k", "2", "--rule-a", rule, "--rule-b", "1,2"),
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == EXIT_USAGE
                assert out == ""
                assert err == f"error: malformed geometric rule: {rule!r} (expected 'c,r')\n"

    def test_budget_bits_guards_the_rule_factorization(self, capsys):
        # rule A's c * r = 3 * 2**100 has 102 bits, over the default guard of 96
        argv = ("distinguish", "--k", "2", "--rule-a", str(2 ** 100) + ",3", "--rule-b", "1,3")
        report = run_json(capsys, *argv, "--budget-bits", "200")
        assert report["results"]["verdict"] == "distinct"
        assert report["results"]["witness_value"] == 3
        code, out, err = run_cli(capsys, *argv, "--budget-bits", "8")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: factorization out of budget: input has 102 bits, guard is 8 bits\n"

    def test_negative_budget_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3", "--budget-bits", "-1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --budget-bits must be non-negative\n"

    def test_deep_witness_refused_before_the_power_is_formed(self, capsys):
        # the witness for 2**41 needs Phi_{2^41}(2), a number of 2**40 + 1 bits
        start = perf_counter()
        code, out, err = run_cli(
            capsys, "distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1099511627776,3"
        )
        assert perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert out == "" and "budget" in err


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

    @pytest.mark.parametrize(
        "budget,code,message",
        [
            ("-5", EXIT_USAGE, "--budget-bits must be non-negative"),
            ("0", EXIT_BUDGET, "factorization out of budget: Phi_{3^1}(2) has more than 0 bits, guard is 0 bits"),
        ],
    )
    def test_negative_budget_exits_2_and_zero_exits_3(self, capsys, budget, code, message):
        done, out, err = run_cli(
            capsys, "witness", "--k", "2", "--p", "3", "--s", "1", "--budget-bits", budget
        )
        assert done == code
        assert out == ""
        assert err == f"error: {message}\n"

    def test_deep_witness_refused_before_the_power_is_formed(self, capsys):
        start = perf_counter()
        code, out, err = run_cli(capsys, "witness", "--k", "2", "--p", "2", "--s", "40")
        assert perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == (
            "error: factorization out of budget: Phi_{2^40}(2) has more than 96 bits,"
            " guard is 96 bits\n"
        )

    @pytest.mark.parametrize(
        "k,p,s,q,r",
        [
            (2, 2, 7, 274177, 1),  # 2**128 - 1 has 128 bits, Phi_128(2) = 2**64 + 1 has 65
            (3, 2, 6, 2, 8),  # 3**64 - 1 has 102 bits, Phi_64(3) = 3**32 + 1 has 51
        ],
    )
    def test_guard_applies_to_the_cyclotomic_quotient(self, capsys, k, p, s, q, r):
        report = run_json(capsys, "witness", "--k", str(k), "--p", str(p), "--s", str(s))
        assert (report["results"]["q"], report["results"]["r"]) == (q, r)
        assert report["results"]["order_of_k"] == p ** s

    @pytest.mark.parametrize("k,p,s", [(2, 3, 5), (2, 5, 3), (2, 11, 2), (2, 13, 2), (2, 2, 10)])
    def test_quotient_over_the_guard_exits_3(self, capsys, k, p, s):
        code, out, err = run_cli(capsys, "witness", "--k", str(k), "--p", str(p), "--s", str(s))
        assert code == EXIT_BUDGET
        assert out == "" and "budget" in err


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

    @pytest.mark.parametrize("sample", ["-1", "-7"])
    def test_negative_sample_exits_2(self, capsys, sample):
        code, out, err = run_cli(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2,4",
            "--depth", "3", "--max-disp", "2", "--sample", sample,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --sample must be non-negative\n"

    def test_sample_beyond_maxsize_lists_every_arrow(self, capsys):
        argv = ("groupoid", "--k", "2", "--levels", "1,2", "--depth", "2", "--max-disp", "1")
        huge = run_json(capsys, *argv, "--sample", str(10 ** 20))
        full = run_json(capsys, *argv, "--sample", "1000")
        assert len(full["results"]["sample_arrows"]) == full["results"]["arrow_count"] == 48
        del huge["timing_ms"], full["timing_ms"]
        assert huge == full

    def test_oversize_shape_refused_before_any_arrow_is_built(self, capsys):
        # 3 * 2 * 2**41 arrow classes, about 1.3e13
        start = perf_counter()
        code, out, err = run_cli(
            capsys,
            "groupoid", "--k", "2", "--levels", "1,2",
            "--depth", "40", "--max-disp", "1",
        )
        assert perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "k,levels,depth,disp,block,sample",
        [
            (2, "1,2,4", 2, 1, 1, 5),
            (2, "1,2,4,8", 3, 2, 3, 0),
            (3, "1,3", 2, 2, 2, 40),
            (3, "2,4", 3, 0, 1, 1000),
            (2, "1", 0, 0, 4, 2),
        ],
    )
    def test_streamed_report_matches_the_listed_arrows(
        self, capsys, k, levels, depth, disp, block, sample
    ):
        results = run_json(
            capsys,
            "groupoid", "--k", str(k), "--levels", levels, "--depth", str(depth),
            "--max-disp", str(disp), "--af-block", str(block), "--sample", str(sample),
        )["results"]
        arrows = list(enumerate_arrows(k, results["vertex_level"], depth, disp))

        def cylinder(c):
            return {"level": c.level, "base": c.base, "word": list(c.word)}

        assert results["arrow_count"] == len(arrows)
        assert results["product_arrow_count"] == len(arrows) * block ** 2
        assert results["sample_arrows"] == [
            {
                "source": cylinder(a.source),
                "target": cylinder(a.target),
                "m": a.m,
                "n": a.n,
                "displacement": a.displacement,
            }
            for a in arrows[:sample]
        ]

    def test_memory_does_not_grow_with_the_arrow_count(self, capsys):
        # 5 * 3 * 2**10 = 15360 arrow classes; a list of them takes several MB
        tracemalloc.start()
        try:
            code = main(
                ["groupoid", "--k", "2", "--levels", "3", "--depth", "8", "--max-disp", "2"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["arrow_count"] == 15360
        assert peak < 2 * 2 ** 20, peak


class TestReportPlumbing:
    def test_json_round_trip_all_commands(self, capsys):
        # --budget-bits and --sample shape the computation but are not report inputs
        invocations = [
            (("k0", "--k", "3", "--levels", "1,3"), {"k": 3, "levels": "1,3", "rule": None, "stages": 4}),
            (("ok", "--k", "3", "--depth", "3"), {"k": 3, "depth": 3}),
            (
                ("membership", "--k", "2", "--n", "2", "--values", "1,0"),
                {"k": 2, "n": 2, "values": "1,0"},
            ),
            (
                ("distinguish", "--k", "2", "--rule-a", "1,2", "--rule-b", "1,3", "--budget-bits", "48"),
                {"k": 2, "rule_a": "1,2", "rule_b": "1,3"},
            ),
            (
                ("witness", "--k", "3", "--p", "2", "--s", "1", "--budget-bits", "48"),
                {"k": 3, "p": 2, "s": 1},
            ),
            (
                ("groupoid", "--k", "2", "--levels", "1,2,4", "--depth", "2", "--max-disp", "1",
                 "--sample", "2", "--af-block", "3"),
                {"k": 2, "levels": "1,2,4", "depth": 2, "max_disp": 1, "af_block": 3},
            ),
            (("selftest", "--seed", "1"), {"seed": 1}),
        ]
        for argv, inputs in invocations:
            report = run_json(capsys, *argv)
            assert json.loads(json.dumps(report)) == report
            assert list(report) == ["schema", "command", "inputs", "results", "citations", "timing_ms"]
            assert report["schema"] == "kcalc/1"
            assert report["command"] == argv[0]
            assert list(report["inputs"].items()) == list(inputs.items()), argv
            assert report["citations"]

    def test_deterministic_modulo_timing(self, capsys):
        a = run_json(capsys, "ok", "--k", "4", "--depth", "3")
        b = run_json(capsys, "ok", "--k", "4", "--depth", "3")
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b

    def test_cold_and_warm_factorization_memo_agree(self, capsys):
        # the first pass starts from the empty memo conftest leaves; the
        # second reads every factorization from it, and must print the same
        # reports and exit codes
        argvs = [shlex.split(line)[1:] for line in readme_examples()] + [
            ["witness", "--k", "3", "--p", "59", "--s", "1"],
            ["witness", "--k", "4", "--p", "7", "--s", "2"],
            ["witness", "--k", "10", "--p", "3", "--s", "2"],
            ["witness", "--k", "10", "--p", "3", "--s", "2", "--budget-bits", "16"],
            ["distinguish", "--k", "4", "--rule-a", "1,7", "--rule-b", "1,2"],
            ["distinguish", "--k", "10", "--rule-a", "2,3", "--rule-b", "1,5"],
            ["k0", "--k", "2", "--rule", "1,3", "--stages", "3"],
            ["k0", "--k", "7", "--rule", "geometric:2,2", "--stages", "4"],
        ]
        timing = re.compile(r'"timing_ms": [-+.0-9e]+')

        def reports():
            return [(code, timing.sub('"timing_ms": _', out), err)
                    for code, out, err in (run_cli(capsys, *argv) for argv in argvs)]

        cold = reports()
        filled = arith._factor_pairs.cache_info()
        warm = reports()
        after = arith._factor_pairs.cache_info()
        assert filled.misses > 0 and after.misses == filled.misses
        assert after.hits > filled.hits
        assert warm == cold
        assert {code for code, _, _ in cold} == {EXIT_OK, EXIT_BUDGET}

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
        report = run_json(capsys, "selftest", "--seed", "3")
        assert report["inputs"] == {"seed": 3}
        assert report["results"]["all_ok"]

    def test_failing_selftest_exits_1_with_its_report(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "identify_cuntz_k_theory", broken)
        code, out, err = run_cli(capsys, "selftest")
        assert code == 1
        assert err == ""
        results = json.loads(out)["results"]
        assert results["all_ok"] is False
        assert results["passed"] == results["total"] - 1
        failed = [c["name"] for c in results["checks"] if not c["ok"]]
        assert failed == ["tower identification at k=3, depth=3"]

    def test_k_below_two_is_reported_before_other_faults(self, capsys):
        for argv in (
            ("distinguish", "--k", "1", "--rule-a", "x", "--rule-b", "1,3"),
            ("groupoid", "--k", "0", "--levels", "1", "--depth", "1", "--max-disp", "0", "--sample", "-1"),
            ("k0", "--k", "1", "--levels", "2,3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == "error: k must be >= 2\n"

    def test_python_dash_m_runs_from_a_checkout(self):
        src = os.path.dirname(os.path.dirname(kcalc.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "kcalc", "selftest", "--table"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].split() == ["command", "selftest"]
        assert "all_ok                       True" in lines

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("membership", "--k", "2", "--n", "2", "--values", "1e100000000,0"),
        ("membership", "--k", "10", "--n", "2", "--values", "1e-200000,0"),
        ("k0", "--k", "2", "--rule", "1,2", "--stages", "1000000"),
        ("ok", "--k", "2", "--depth", "1000000000"),
        ("groupoid", "--k", "2", "--levels", "1,2", "--depth", "40", "--max-disp", "1"),
        ("witness", "--k", "3", "--p", "2", "--s", "30", "--budget-bits", "100000000000"),
    ],
    ids=["huge-exponent", "huge-negative-exponent", "long-rule", "deep-ok", "deep-groupoid", "raised-budget"],
)
def test_short_argv_is_refused_at_once(argv):
    refused_in_a_fresh_interpreter(argv)


def test_deep_ok_stops_where_the_same_rule_under_k0_stops():
    # both expand the levels 2**(i-1) one at a time and stop at stage 15, so neither
    # forms the 14000 levels nor prints the 4215-digit level 2**13999
    ok = refused_in_a_fresh_interpreter(("ok", "--k", "2", "--depth", "14000"))
    k0 = refused_in_a_fresh_interpreter(("k0", "--k", "2", "--rule", "1,2", "--stages", "14000"))
    assert ok == k0 == (
        "error: 2^16384 - 1 has more than 4300 digits, more than a report can print;"
        " use a smaller k or level\n"
    )
    assert len(ok) < 200


def refused_in_a_fresh_interpreter(argv) -> str:
    """The one-line stderr of ``kcalc argv``, which must exit 2 without output."""
    # each would run without bound if it got past its guard; a fresh interpreter
    # under a 1 GiB address-space limit keeps a regression from taking the host down
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(kcalc.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "kcalc", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert done.returncode == EXIT_USAGE, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    return done.stderr


# -- fuzzed argv ---------------------------------------------------------------


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def option(flag, values):
    return values.map(lambda v: (flag, v))


def optional(flag, values):
    """An option that has a default: given or left out."""
    return st.one_of(st.just(()), option(flag, values))


def membership_options(k, n):
    # n values, most of them in Z[1/k]
    value = st.builds("{}/{}".format, st.integers(-9, 9), st.sampled_from([1, k, k * k, 3]))
    values = st.lists(value, min_size=n, max_size=n).map(",".join)
    return st.tuples(
        option("--k", st.just(str(k))), option("--n", st.just(str(n))), option("--values", values)
    )


# level chains whose first level above a displacement of at most 2 is at most 8,
# so that a groupoid shape has at most 5 * 8 * 3**5 = 9720 arrows
CHAINS = st.sampled_from(["1", "2", "8", "1,2", "1,2,4", "1,3", "2,4,8", "3,6", "2,3", "0,1"])
RULES = st.builds(
    "{}{},{}".format, st.sampled_from(["", "geometric:"]), st.integers(1, 12), st.integers(2, 12)
)
# witness and distinguish always carry a budget of at most 48 bits: rho then
# splits every quotient in milliseconds (a 96-bit one can take seconds)
BUDGET = option("--budget-bits", ints(0, 48))

COMMANDS = {
    "k0": st.tuples(
        option("--k", ints(2, 12)),
        st.one_of(
            option("--levels", CHAINS),
            option("--rule", RULES),
            st.tuples(option("--levels", CHAINS), option("--rule", RULES)).map(
                lambda pair: pair[0] + pair[1]
            ),
        ),
        optional("--stages", st.one_of(ints(1, 16), st.just(str(10 ** 18)))),
    ),
    "ok": st.tuples(option("--k", ints(2, 12)), optional("--depth", ints(2, 5))),
    "membership": st.tuples(st.integers(2, 12), st.integers(1, 5)).flatmap(
        lambda kn: membership_options(*kn)
    ),
    "distinguish": st.tuples(
        option("--k", ints(2, 12)), option("--rule-a", RULES), option("--rule-b", RULES), BUDGET
    ),
    "witness": st.tuples(
        option("--k", ints(2, 12)),
        option("--p", st.sampled_from(["2", "3", "4", "5", "7", "11", "13"])),
        option("--s", st.one_of(ints(1, 4), st.just("40"))),
        BUDGET,
    ),
    "groupoid": st.tuples(
        option("--k", ints(2, 3)),
        option("--levels", CHAINS),
        option("--depth", ints(0, 3)),
        option("--max-disp", ints(0, 2)),
        optional("--af-block", ints(0, 4)),
        optional("--sample", ints(0, 3)),
    ),
    "selftest": st.tuples(optional("--seed", ints(0, 3))),
}
FORMATS = st.sampled_from([(), ("--json",), ("--table",), ("--json", "--table")])
# a malformed word (or a bad number) to put in place of one word of the argv
JUNK = st.sampled_from(["x", "", "1.5", "-x", "1/0", "1,,2", "0", "1", "-1", "a,b", "--k"])


def spoil(argv, how):
    """Put the junk word in place of the word at position i (after the subcommand)."""
    if how is None:
        return argv
    i, junk = how
    i = 1 + i % len(argv[1:]) if len(argv) > 1 else 1
    return [*argv[:i], junk, *argv[i + 1 :]]


# option-like words to put before the subcommand; the top-level parser takes
# none of them, so they test which subparser build_parser configures
PREFIX = st.lists(st.sampled_from(["--json", "--table", "-x", "--k", "--", "--values"]), max_size=2)

ARGVS = st.builds(
    lambda prefix, argv: [*prefix, *argv],
    PREFIX,
    st.builds(
        spoil,
        st.sampled_from(sorted(COMMANDS)).flatmap(
            lambda command: st.tuples(COMMANDS[command], FORMATS).map(
                lambda parts: [command, *(w for option_ in parts[0] for w in option_), *parts[1]]
            )
        ),
        st.one_of(st.none(), st.tuples(st.integers(0, 20), JUNK)),
    ),
)


class TestFuzzedArgv:
    @settings(max_examples=150, deadline=None)
    @given(argv=ARGVS)
    def test_fuzzed_argv_ends_in_a_report_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET), (argv, code)
        if code == EXIT_OK:
            assert err == ""
            if "--table" not in argv:
                assert json.loads(out)["schema"] == "kcalc/1"
        else:
            assert out == ""
            assert err.endswith("\n")
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


# -- parser construction -------------------------------------------------------


def parse_outcome(parser, words):
    """The Namespace argparse returns, or the exit code and the text it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(words), None, "", ""
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


# words to put before and after a subcommand: help flags (one abbreviated), end
# of options, options of some subparsers or of none, a second subcommand name,
# and junk
AROUND = st.lists(
    st.sampled_from(
        ["-h", "--help", "--he", "--", "--json", "-x", "--k", "2", "--values", "--val", "-1/2,1", "junk", ""]
        + list(cli._SUBCOMMANDS)
    ),
    max_size=3,
)
PARSER_ARGVS = st.builds(
    lambda before, body, after: [*before, *body, *after],
    AROUND,
    st.one_of(ARGVS, AROUND, st.sampled_from(sorted(cli._SUBCOMMANDS)).map(lambda name: [name])),
    AROUND,
)


class TestParserConstruction:
    def test_only_the_named_subcommand_gets_its_options(self):
        parser = cli.build_parser(["k0", "--k", "2", "--levels", "1,2"])
        parsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert list(parsers) == list(cli._SUBCOMMANDS)
        assert {"-h", "--help", "--k", "--levels", "--rule", "--stages"} <= {
            flag for action in parsers["k0"]._actions for flag in action.option_strings
        }
        for name, parser in parsers.items():
            if name != "k0":
                assert parser._actions == [], name

    @settings(max_examples=300, deadline=None)
    @given(argv=PARSER_ARGVS)
    def test_parses_as_the_full_parser(self, argv):
        words = cli._attach_values(argv)
        assert parse_outcome(cli.build_parser(words), words) == parse_outcome(full_parser(), words)

