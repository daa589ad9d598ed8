"""Tests for colimit prefixes, order invariants, witnesses and the pipeline."""

import json
import os
import re
import subprocess
import sys
from itertools import product
from time import perf_counter

import pytest
from sympy import factorint, primerange

from kcalc.abelian import CyclicElement
from kcalc.arith import FactorizationBudgetError, SupernaturalNumber, valuation
from kcalc.colimit import (
    CyclicColimit,
    DistinguishVerdict,
    Geometric,
    PrimePowerWitness,
    distinguish_colimits,
    identify_cuntz_k_theory,
    order_spectrum,
    prime_power_order_witness,
)
import kcalc
from kcalc.odometer import OdometerSpec, k0_odometer
from oracles import lte_supremum, searched_order_witness, tensor_route_identification


def binary_tower(levels=(1, 2, 4), rule=None):
    return k0_odometer(OdometerSpec(2, levels, rule=rule)).k0


class TestColimitStructure:
    def test_rejects_non_positive_modulus(self):
        with pytest.raises(ValueError, match="at least one stage"):
            CyclicColimit(())
        for moduli in ((0,), (-3,), (3, 0), (1, -2), (3, -15)):
            with pytest.raises(ValueError, match="not positive, each dividing the next"):
                CyclicColimit(moduli)

    def test_rejects_modulus_not_dividing_the_next(self):
        # multiplication by m_{i+1} / m_i is then no injective map Z_{m_i} -> Z_{m_{i+1}}
        for moduli in ((3, 16), (2, 6, 9), (4, 2), (15, 3)):
            with pytest.raises(ValueError, match="not positive, each dividing the next"):
                CyclicColimit(moduli, 1)

    def test_rejects_moduli_that_do_not_follow_the_level_rule(self):
        # 15 + 1 = 4**2, not 4**3: order_spectrum would certify the prefix's 5 as exact
        for moduli, rule in (
            ((3, 15), Geometric(1, 3)),
            ((3, 63), Geometric(1, 2)),
            ((1, 3, 63), Geometric(1, 2)),
            ((3, 15), Geometric(1, 10 ** 12)),
        ):
            with pytest.raises(ValueError, match="do not follow the ratio"):
                CyclicColimit(moduli, level_rule=rule)
        assert CyclicColimit((3, 15, 255), level_rule=Geometric(1, 2)).level_rule.ratio == 2
        assert CyclicColimit((7, 511), level_rule=Geometric(1, 3)).moduli == (7, 511)

    def test_unit_is_stored_reduced(self):
        assert CyclicColimit((3, 15), 4) == CyclicColimit((3, 15), 1)
        assert CyclicColimit((3, 15), -2).unit_thread == (CyclicElement(3, 1), CyclicElement(15, 5))


class TestOrderSpectrum:
    def test_prefix_only_example(self):
        c = binary_tower((1, 2, 4))
        spectrum = order_spectrum(c)
        assert set(spectrum) == {3, 5}
        assert spectrum[3].prefix_max == 1 and not spectrum[3].exact
        assert spectrum[5].prefix_max == 1 and not spectrum[5].exact

    def test_trivial_prefix(self):
        c = binary_tower((1,))
        assert order_spectrum(c) == {}

    def test_certified_with_rule(self):
        c = binary_tower((1, 2, 4, 8, 16), rule=Geometric(1, 2))
        spectrum = order_spectrum(c)
        # 3, 5, 17, 257 all appear once and stay at multiplicity one forever
        for q in (3, 5, 17, 257):
            assert spectrum[q].prefix_max == 1
            assert spectrum[q].exact

    def test_unbounded_prime_not_certified(self):
        # levels 1, 6, 36: the multiplicity of 3 in 2**n - 1 grows with v_3(n)
        tower = k0_odometer(OdometerSpec(2, (1, 6, 36), rule=Geometric(1, 6))).k0
        spectrum = order_spectrum(tower)
        assert spectrum[3].prefix_max == 3  # v_3(2**36 - 1) = 3
        assert not spectrum[3].exact

    def test_even_base_two_valuation_certified(self):
        # odd levels keep v_2(3**n - 1) = v_2(2) = 1
        tower = k0_odometer(OdometerSpec(3, (1, 3, 9), rule=Geometric(1, 3))).k0
        spectrum = order_spectrum(tower)
        assert spectrum[2].prefix_max == 1
        assert spectrum[2].exact

    def test_even_levels_two_valuation_certified(self):
        # even levels: v_2(3**n - 1) = v_2(2) + v_2(4) + v_2(n) - 1 = 3 for these
        tower = k0_odometer(OdometerSpec(3, (2, 6, 18), rule=Geometric(2, 3))).k0
        spectrum = order_spectrum(tower)
        assert spectrum[2].prefix_max == 3
        assert spectrum[2].exact

    def test_ratio_divisible_by_two_not_certified(self):
        tower = k0_odometer(OdometerSpec(3, (1, 2, 4), rule=Geometric(1, 2))).k0
        spectrum = order_spectrum(tower)
        assert spectrum[2].prefix_max == 4  # v_2(3**4 - 1) = v_2(80)
        assert not spectrum[2].exact

    @pytest.mark.parametrize(
        "k,rule",
        [
            (2, Geometric(1, 2)),
            (2, Geometric(1, 3)),
            (2, Geometric(2, 3)),
            (3, Geometric(1, 2)),
            (3, Geometric(1, 3)),
            (3, Geometric(2, 5)),
            (5, Geometric(1, 2)),
            (6, Geometric(1, 5)),
        ],
    )
    def test_certified_suprema_match_deep_prefixes(self, k, rule):
        # every certified value must equal the max over a much deeper prefix,
        # and uncertified primes must actually grow past the short prefix
        short_levels = rule.levels(3)
        deep_levels = rule.levels(7)
        short = k0_odometer(OdometerSpec(k, short_levels, rule=rule)).k0
        spectrum = order_spectrum(short, budget_bits=2048)
        for q, bound in spectrum.items():
            deep_max = max(valuation(k ** n - 1, q) for n in deep_levels)
            if bound.exact:
                assert deep_max == bound.prefix_max, (k, rule, q)
            else:
                assert deep_max >= bound.prefix_max, (k, rule, q)

    def test_grid_matches_stage_factorizations_and_lte_supremum(self):
        # k 2..12, c 1..6, r 2..6, 1..4 stages, last modulus within 64 bits
        towers = 0
        for k, c, r, stages in product(range(2, 13), range(1, 7), range(2, 7), range(1, 5)):
            rule = Geometric(c, r)
            levels = rule.levels(stages)
            if (k ** levels[-1] - 1).bit_length() > 64:
                continue
            towers += 1
            spectrum = order_spectrum(k0_odometer(OdometerSpec(k, levels, rule=rule)).k0)
            per_stage = [factorint(k ** n - 1) for n in levels]
            assert set(spectrum) == set().union(*per_stage), (k, rule, stages)
            for q, bound in spectrum.items():
                assert bound.prefix_max == max(f.get(q, 0) for f in per_stage)
                assert bound.exact == (lte_supremum(k, c, r, q) == bound.prefix_max), (k, rule, q)
        assert towers == 756

    def test_budget_applies_to_the_last_modulus(self):
        tower = k0_odometer(OdometerSpec(2, (1, 2, 4, 8, 16))).k0
        assert set(order_spectrum(tower, budget_bits=16)) == {3, 5, 17, 257}
        with pytest.raises(FactorizationBudgetError):
            order_spectrum(tower, budget_bits=15)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="budget_bits must be non-negative"):
            order_spectrum(binary_tower(), budget_bits=-5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Geometric(1, 2).level(0), "stages are numbered from 1"),
        (lambda: PrimePowerWitness(2, 3, 1, 5, 1), "5 does not divide 2**3 - 1"),
        (lambda: PrimePowerWitness(2, 2, 2, 3, 1), "3 divides 2**2 - 1"),
        (lambda: distinguish_colimits(1, Geometric(1, 2), Geometric(1, 3)), "k must be >= 2"),
        (lambda: identify_cuntz_k_theory(1, 2), "k must be >= 2"),
    ],
    ids=["stage-zero", "order-too-large", "order-too-small", "distinguish-k", "identify-k"],
)
def test_colimit_refuses(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestPrimePowerWitness:
    def test_example_base_two_four(self):
        w = prime_power_order_witness(2, 2, 2)
        assert (w.q, w.r, w.order) == (5, 1, 4)

    def test_example_base_two_cube(self):
        w = prime_power_order_witness(2, 3, 1)
        assert (w.q, w.r, w.order) == (7, 1, 3)

    def test_example_minimal_choice(self):
        w = prime_power_order_witness(3, 2, 1)
        assert (w.q, w.r) == (2, 2)
        assert w.prime_power == 4
        assert w.order == 2

    def test_divisibility_biconditional(self):
        for k, p, s in ((2, 2, 2), (2, 3, 1), (3, 2, 1), (5, 2, 2), (6, 3, 1)):
            w = prime_power_order_witness(k, p, s)
            assert all(w.divisibility_holds(b) for b in range(1, 201))

    def test_budget(self):
        with pytest.raises(FactorizationBudgetError):
            prime_power_order_witness(2, 2, 4, budget_bits=8)

    def test_negative_budget_is_refused_before_the_bound(self):
        with pytest.raises(ValueError, match="budget_bits must be non-negative"):
            prime_power_order_witness(2, 3, 1, budget_bits=-5)
        with pytest.raises(FactorizationBudgetError, match="guard is 0 bits"):
            prime_power_order_witness(2, 3, 1, budget_bits=0)

    def test_grid_matches_full_factorization_search(self):
        # every k 2..12 and prime p < 100 with k**(p**s) - 1 within 96 bits
        inputs = 0
        for k, p in product(range(2, 13), primerange(2, 100)):
            s = 1
            while (k ** (p ** s) - 1).bit_length() <= 96:
                w = prime_power_order_witness(k, p, s)
                assert (w.q, w.r) == searched_order_witness(k, p, s), (k, p, s)
                inputs += 1
                s += 1
        assert inputs == 216

    def test_guard_applies_to_the_cyclotomic_quotient(self):
        # 2**128 - 1 has 128 bits, but only Phi_128(2) = 2**64 + 1 (65 bits) is factorized
        w = prime_power_order_witness(2, 2, 7)
        assert (w.q, w.r) == (274177, 1)
        with pytest.raises(FactorizationBudgetError):
            prime_power_order_witness(2, 2, 7, budget_bits=64)

    def test_size_bound_refuses_only_quotients_over_the_guard(self):
        # the budget is checked on a lower bound before k**(p**s) is formed
        for k, p, s in product(range(2, 13), (2, 3, 5, 7), range(1, 5)):
            big, small = k ** (p ** s) - 1, k ** (p ** (s - 1)) - 1
            bits = (big // small).bit_length()
            for budget in (8, 16, 32, 48, 64):
                if bits > budget:
                    with pytest.raises(FactorizationBudgetError):
                        prime_power_order_witness(k, p, s, budget_bits=budget)
                else:
                    assert prime_power_order_witness(k, p, s, budget_bits=budget).order == p ** s

    def test_huge_exponent_refused_before_the_power_is_formed(self):
        for s in (41, 10 ** 18):
            with pytest.raises(FactorizationBudgetError, match="more than 96 bits"):
                prime_power_order_witness(2, 2, s)

    def test_huge_exponent_under_a_huge_budget_is_refused_at_once(self):
        # s - 1 is compared with the budget's bit length: 3**(s - 1) is not formed
        start = perf_counter()
        with pytest.raises(FactorizationBudgetError, match="guard is 100000000000 bits"):
            prime_power_order_witness(2, 3, 3 * 10 ** 7, budget_bits=10 ** 11)
        assert perf_counter() - start < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            prime_power_order_witness(2, 4, 1)
        with pytest.raises(ValueError):
            prime_power_order_witness(1, 2, 1)

    def test_constructor_refuses_a_composite_p(self):
        # 5 divides 4**4 - 1 but not 4**1 - 1, yet the order of 4 mod 5 is 2, not 4
        for p in (4, 1, 0, -3):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                PrimePowerWitness(4, p, 1, 5, 1)
        assert PrimePowerWitness(4, 2, 1, 5, 1).divisibility_holds(2)

    def test_constructor_refuses_a_composite_q_or_an_exponent_below_one(self):
        # the order of 2 mod 15 is 4 = 2**2, yet 15 is no prime power
        with pytest.raises(ValueError, match="^15 is not prime$"):
            PrimePowerWitness(2, 2, 2, 15, 1)
        for r in (0, -1):
            with pytest.raises(ValueError, match="^r must be >= 1$"):
                PrimePowerWitness(2, 2, 2, 5, r)
        assert PrimePowerWitness(2, 2, 2, 5, 1).prime_power == 5


class TestDistinguish:
    def test_example_ratio_two_vs_three(self):
        verdict = distinguish_colimits(2, Geometric(1, 2), Geometric(1, 3))
        assert verdict.distinct
        assert (verdict.witness.p, verdict.witness.s) == (2, 1)
        assert verdict.witness.prime_power == 3
        assert verdict.witness.order == 2
        assert verdict.first_stage_with_order == 2

    def test_swapped_arguments_find_their_own_witness(self):
        verdict = distinguish_colimits(2, Geometric(1, 3), Geometric(1, 2))
        assert verdict.distinct
        assert (verdict.witness.p, verdict.witness.s) == (3, 1)
        assert verdict.witness.prime_power == 7

    def test_identical_rules_inconclusive(self):
        for rule in (Geometric(1, 2), Geometric(1, 3), Geometric(2, 5)):
            verdict = distinguish_colimits(2, rule, rule)
            assert not verdict.distinct
            assert verdict.witness is None

    def test_cofinal_rules_inconclusive(self):
        # same ratio, shifted start: every prime power reached by one is
        # reached by the other, so no witness exists
        assert not distinguish_colimits(2, Geometric(2, 2), Geometric(1, 2)).distinct
        assert not distinguish_colimits(2, Geometric(1, 2), Geometric(2, 2)).distinct

    def test_example_ratio_six_vs_two(self):
        verdict = distinguish_colimits(2, Geometric(1, 6), Geometric(1, 2))
        assert verdict.distinct
        assert (verdict.witness.p, verdict.witness.s) == (3, 1)
        assert verdict.witness.prime_power == 7
        assert verdict.witness.order == 3

    def test_budget_applies_to_the_rule_factorization(self):
        # c * r = 3 * 2**100 has 102 bits; the caller's guard, not the default, decides
        rule_a, rule_b = Geometric(2 ** 100, 3), Geometric(1, 3)
        verdict = distinguish_colimits(2, rule_a, rule_b, budget_bits=200)
        assert verdict.distinct
        assert (verdict.witness.p, verdict.witness.s) == (2, 1)
        assert verdict.witness.prime_power == 3
        with pytest.raises(FactorizationBudgetError, match="guard is 8 bits"):
            distinguish_colimits(2, rule_a, rule_b, budget_bits=8)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="budget_bits must be non-negative"):
            distinguish_colimits(2, Geometric(1, 2), Geometric(1, 3), budget_bits=-5)

    def test_verdict_holds_a_witness_and_its_stage_or_neither(self):
        witness = PrimePowerWitness(2, 3, 1, 7, 1)
        for args in ((None, 3), (witness, None)):
            with pytest.raises(ValueError, match="both a witness and its first stage, or neither"):
                DistinguishVerdict(*args)
        for stage in (0, -1):
            with pytest.raises(ValueError, match="^stages are numbered from 1$"):
                DistinguishVerdict(witness, stage)
        assert DistinguishVerdict(witness, 1).distinct and not DistinguishVerdict().distinct

    def test_distinct_implies_spectrum_disagreement(self):
        verdict = distinguish_colimits(2, Geometric(1, 2), Geometric(1, 3))
        w = verdict.witness
        stages = max(verdict.first_stage_with_order, 4)
        rule_a, rule_b = Geometric(1, 2), Geometric(1, 3)
        tower_a = k0_odometer(OdometerSpec(2, rule_a.levels(stages), rule=rule_a)).k0
        tower_b = k0_odometer(OdometerSpec(2, rule_b.levels(stages), rule=rule_b)).k0
        spec_a = order_spectrum(tower_a)
        spec_b = order_spectrum(tower_b)
        assert spec_a[w.q].prefix_max >= w.r
        assert w.q not in spec_b or spec_b[w.q].prefix_max < w.r


# every value of the identification that the tensor route computes, fields and properties
# alike; the tower's levels, moduli and cofactors are the ok report's, checked in test_cli
IDENTIFICATION_VALUES = (
    "k", "depth", "supernatural", "induced_multipliers", "k0_order", "unit_class", "k1_trivial",
)
STAGE_VALUES = ("k", "stage", "tensored_modulus", "cofactor_congruences", "unit_image")


class TestCuntzIdentification:
    def test_base_two_collapses_to_trivial_group(self):
        outcome = identify_cuntz_k_theory(2, 4)
        assert outcome.k0_order == 1
        assert all(s.tensored_modulus == 1 for s in outcome.stages)
        assert outcome.unit_class == 0
        assert outcome.k1_trivial

    def test_base_three_depth_three(self):
        outcome = identify_cuntz_k_theory(3, 3)
        assert all(s.tensored_modulus == 2 for s in outcome.stages)
        assert outcome.induced_multipliers == (1, 1)
        assert outcome.unit_class == 1
        assert outcome.k1_trivial

    def test_base_four_depth_three(self):
        outcome = identify_cuntz_k_theory(4, 3)
        assert all(s.tensored_modulus == 3 for s in outcome.stages)
        assert all(residue == 1 for s in outcome.stages for _, residue in s.cofactor_congruences)
        assert outcome.induced_multipliers == (1, 1)
        assert outcome.unit_class == 1

    def test_stage_congruences_name_primes_of_k_minus_one(self):
        outcome = identify_cuntz_k_theory(7, 3)
        for s in outcome.stages:
            assert [p for p, _ in s.cofactor_congruences] == [2, 3]

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            identify_cuntz_k_theory(3, 1)

    def test_factors_k_minus_one_once(self, monkeypatch):
        calls = []
        factorize = kcalc.arith.factorize
        monkeypatch.setattr(kcalc.arith, "factorize", lambda n, **kw: calls.append(n) or factorize(n, **kw))
        outcome = identify_cuntz_k_theory(13, 4)
        assert calls == [12]
        assert outcome.supernatural == SupernaturalNumber.coprime_complement(12)

    def test_citations_mark_classification_as_cited(self):
        outcome = identify_cuntz_k_theory(3, 2)
        assert any("cited, not computed" in c for c in outcome.citations)

    def test_stages_share_one_certificate(self):
        # every level is 1 mod k - 1, so all stages carry the one congruence's record
        for k in (2, 3, 7, 12, 2**61):
            outcome = identify_cuntz_k_theory(k, 5)
            first = outcome.stages[0]
            assert all(
                s.cofactor_congruences is first.cofactor_congruences and s.unit_image == first.unit_image
                for s in outcome.stages
            )
            assert outcome.induced_multipliers == (first.unit_image,) * 4

    def test_every_field_matches_the_tensor_route(self):
        for k in range(2, 14):
            for depth in range(2, 5):
                outcome = identify_cuntz_k_theory(k, depth)
                route = tensor_route_identification(k, depth)
                expected = {name: route[name] for name in IDENTIFICATION_VALUES}
                expected["stages"] = [{name: s[name] for name in STAGE_VALUES} for s in route["stages"]]
                got = {name: getattr(outcome, name) for name in IDENTIFICATION_VALUES}
                got["stages"] = [{name: getattr(s, name) for name in STAGE_VALUES} for s in outcome.stages]
                assert got == expected, (k, depth)

    def test_stage_residue_reduces_the_level_mod_k_minus_one(self):
        # k = 1 + M has order dividing M modulo M**2
        for k in range(2, 41):
            target = k - 1
            square = target * target
            for n in (0, 1, 2, target, k, k + 1, 2 * k - 3, k ** 2, k ** 5 + 7, 10 ** 9 + 9):
                assert pow(k, n % target, square) == pow(k, n, square), (k, n)
            for stage in identify_cuntz_k_theory(k, 4).stages:
                unreduced = (pow(k, k ** (stage.stage - 1), square) - 1) % square // target
                assert stage.unit_image == unreduced, (k, stage.stage)

    def test_huge_bases_answer_within_bounded_memory_and_time(self):
        # the tower route would form (2**61)**(2**61) - 1 and 10**(6 * 10**30) - 1;
        # at depth 10**9 only the stored congruence is read, not the stages
        script = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from kcalc import identify_cuntz_k_theory
out = []
for k, depth in ((2**61, 2), (10**6, 6), (2**61, 20000), (3, 10**9)):
    o = identify_cuntz_k_theory(k, depth)
    row = {
        "k": k,
        "k0_order": o.k0_order,
        "unit_class": o.unit_class,
        "k1_trivial": o.k1_trivial,
        "congruences": o.cofactor_congruences,
    }
    if depth <= 20000:
        row["tensored"] = [s.tensored_modulus for s in o.stages]
        row["induced"] = list(o.induced_multipliers)
    out.append(row)
json.dump(out, sys.stdout)
"""
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(kcalc.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20
        )
        assert done.returncode == 0, done.stderr
        rows = json.loads(done.stdout)
        assert [row["k"] for row in rows] == [2**61, 10**6, 2**61, 3]
        for row in rows:
            k = row["k"]
            assert row["k0_order"] == k - 1
            assert row["unit_class"] == 1
            assert row["k1_trivial"]
            assert row["congruences"] and all(residue == 1 for _, residue in row["congruences"])
            if "tensored" in row:
                assert row["tensored"] and all(t == k - 1 for t in row["tensored"])
                assert row["induced"] and all(u == 1 for u in row["induced"])
