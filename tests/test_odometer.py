"""Tests for odometer dynamics, psi, membership criteria and the tower."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcalc.abelian import CyclicElement, CyclicHom
from kcalc.arith import KPowerRational
from kcalc.odometer import (
    LocallyConstantFn,
    OdometerSpec,
    k0_odometer,
    kernel_certificate,
    kernel_is_trivial,
    membership_psi,
    membership_series,
    psi,
    pv_endomorphism,
    translate,
)
from kcalc.colimit import Geometric
from oracles import (
    dense_kernel_is_trivial,
    double_sum_membership_series,
    eliminated_kernel_pivot,
    kpower_horner_psi,
)


def random_fn(rng, k, n, span=20, max_expo=4):
    return LocallyConstantFn(
        k,
        tuple(
            KPowerRational(k, rng.randint(-span, span), rng.randint(0, max_expo))
            for _ in range(n)
        ),
    )


def tower_stage(k, n):
    """Stage Z_{k**n - 1} of the tower and its unit class."""
    tower = k0_odometer(OdometerSpec(k, (n,))).k0
    return tower.moduli[0], tower.unit_thread[0]


def tower_map(k, n_coarse, n_fine):
    """The tower's connecting map Z_{k**n_coarse - 1} -> Z_{k**n_fine - 1}."""
    return k0_odometer(OdometerSpec(k, (n_coarse, n_fine))).k0.maps[0]


@st.composite
def level_fns(draw, max_level=8):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, max_level))
    entries = draw(
        st.lists(
            st.tuples(st.integers(-30, 30), st.integers(0, 4)),
            min_size=n,
            max_size=n,
        )
    )
    return LocallyConstantFn(k, tuple(KPowerRational(k, a, e) for a, e in entries))


class TestOperatorProperties:
    @given(level_fns())
    @settings(max_examples=150)
    def test_psi_kills_every_image_element(self, g):
        assert psi(g - pv_endomorphism(g)).residue == 0

    @given(level_fns())
    @settings(max_examples=100)
    def test_translate_is_cyclic_of_order_level(self, f):
        g = f
        for _ in range(f.level):
            g = translate(g)
        assert g == f

    @given(level_fns())
    @settings(max_examples=100)
    def test_pv_is_translate_scaled(self, f):
        scaled = pv_endomorphism(f)
        shifted = translate(f)
        assert all(
            a.as_fraction() == Fraction(b.as_fraction(), f.k)
            for a, b in zip(scaled.values, shifted.values)
        )

    @given(level_fns(max_level=6))
    @settings(max_examples=100)
    def test_membership_criteria_agree(self, f):
        assert membership_psi(f) == membership_series(f).member


class TestOdometerSpec:
    def test_valid_chain(self):
        spec = OdometerSpec(2, (1, 2, 4, 8))
        assert len(spec.levels) == 4

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            OdometerSpec(2, (2, 3))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            OdometerSpec(2, (4, 4))

    def test_rule_must_match(self):
        OdometerSpec(2, (1, 2, 4), rule=Geometric(1, 2))
        with pytest.raises(ValueError):
            OdometerSpec(2, (1, 2, 6), rule=Geometric(1, 2))


class TestTranslate:
    def test_delta_moves_forward(self):
        assert translate(LocallyConstantFn.delta(2, 3, 0)) == (
            LocallyConstantFn.delta(2, 3, 1)
        )

    def test_constant_fixed(self):
        c = LocallyConstantFn.from_fractions(3, [7, 7, 7, 7])
        assert translate(c) == c

    def test_full_cycle_is_identity(self):
        rng = Random(0)
        f = random_fn(rng, 2, 5)
        g = f
        for _ in range(5):
            g = translate(g)
        assert g == f


class TestLevelBelowOne:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: LocallyConstantFn.zero(2, 0),
            lambda: LocallyConstantFn.delta(2, 0, 0),
            lambda: LocallyConstantFn.indicator(2, 0, {1}),
            lambda: LocallyConstantFn.delta(2, -1, 0),
        ],
        ids=["zero", "delta", "indicator", "delta-negative"],
    )
    def test_refused_with_one_message(self, build):
        with pytest.raises(ValueError, match="^level must be at least 1$"):
            build()


class TestPvEndomorphism:
    def test_delta_definition(self):
        out = pv_endomorphism(LocallyConstantFn.delta(2, 2, 0))
        assert [v.as_fraction() for v in out.values] == [0, Fraction(1, 2)]

    def test_zero(self):
        z = LocallyConstantFn.zero(3, 4)
        assert pv_endomorphism(z) == z

    def test_k_delta_moves_cleanly(self):
        f = LocallyConstantFn.delta(3, 4, 1)
        scaled = LocallyConstantFn(3, tuple(KPowerRational(3, v.numer * 3, v.expo) for v in f.values))
        assert pv_endomorphism(scaled) == LocallyConstantFn.delta(3, 4, 2)


class TestPsi:
    def test_examples_level_two(self):
        assert psi(LocallyConstantFn.delta(2, 2, 0)) == CyclicElement(3, 1)
        assert psi(LocallyConstantFn.delta(2, 2, 1)) == CyclicElement(3, 2)
        f = LocallyConstantFn.delta(2, 2, 0)
        image_elem = f - pv_endomorphism(f)
        assert psi(image_elem) == CyclicElement(3, 0)

    def test_trivial_modulus(self):
        f = LocallyConstantFn.delta(2, 1, 0)
        assert psi(f) == CyclicElement(1, 0)

    def test_vanishes_on_image_random_sweep(self):
        rng = Random(42)
        for k in (2, 3, 4, 5, 6):
            for n in (1, 2, 3, 5, 8):
                for _ in range(50):
                    g = random_fn(rng, k, n)
                    h = g - pv_endomorphism(g)
                    assert psi(h).residue == 0

    def test_additive(self):
        rng = Random(9)
        for _ in range(100):
            f, g = random_fn(rng, 3, 4), random_fn(rng, 3, 4)
            assert psi(f + g) == psi(f) + psi(g)

    def test_refine_then_psi_is_connecting_map(self):
        rng = Random(10)
        for k in (2, 3, 5):
            for n, n_fine in ((1, 2), (2, 4), (2, 6), (3, 12)):
                eta = tower_map(k, n, n_fine)
                for _ in range(25):
                    f = random_fn(rng, k, n)
                    fine = LocallyConstantFn(k, f.values * (n_fine // n))
                    assert psi(fine) == eta(psi(f))


class TestMembership:
    def test_indicator_not_member(self):
        f = LocallyConstantFn.delta(2, 2, 0)
        assert membership_psi(f) is False
        result = membership_series(f)
        assert result.member is False and result.witness is None

    def test_series_closed_form_value(self):
        # for the residue-0 indicator at k=2, n=2 the candidate preimage has
        # g(0) = 4/3, which is not in Z[1/2]
        f = LocallyConstantFn.delta(2, 2, 0)
        k, n = 2, 2
        scale = Fraction(k ** n, k ** n - 1)
        g0 = scale * sum(
            Fraction(f.values[(0 - j) % n].as_fraction(), k ** j) for j in range(n)
        )
        assert g0 == Fraction(4, 3)

    def test_zero_member(self):
        z = LocallyConstantFn.zero(2, 3)
        result = membership_series(z)
        assert result.member and result.witness == z

    def test_constructed_image_recovers_witness(self):
        f = LocallyConstantFn.delta(2, 2, 0)
        image_elem = f - pv_endomorphism(f)
        result = membership_series(image_elem)
        assert result.member
        assert result.witness == f

    def test_witness_exactness_random(self):
        rng = Random(77)
        for _ in range(200):
            k = rng.choice((2, 3, 4, 5, 6))
            n = rng.randint(1, 10)
            g = random_fn(rng, k, n)
            f = g - pv_endomorphism(g)
            result = membership_series(f)
            assert result.member
            w = result.witness
            assert w - pv_endomorphism(w) == f

    def test_criteria_agree_exhaustive_small(self):
        k, n = 2, 3
        choices = [
            KPowerRational.zero(k),
            KPowerRational.one(k),
            -KPowerRational.one(k),
            KPowerRational(k, 1, 1),
            KPowerRational(k, -1, 1),
        ]
        for combo in product(choices, repeat=n):
            f = LocallyConstantFn(k, combo)
            assert membership_psi(f) == membership_series(f).member

    def test_level_one_image_is_multiples_of_k_minus_one(self):
        # at level 1 the operator is multiplication by (k-1)/k, so the image
        # is (k-1) Z[1/k]; for k=2 that is everything
        assert membership_psi(LocallyConstantFn.from_fractions(2, [7]))
        assert membership_series(LocallyConstantFn.from_fractions(2, [7])).member
        for k in (3, 5):
            member = LocallyConstantFn.from_fractions(k, [k - 1])
            non_member = LocallyConstantFn.from_fractions(k, [1])
            assert membership_psi(member) and membership_series(member).member
            assert not membership_psi(non_member)
            assert not membership_series(non_member).member


def small_exhaustive_fns():
    """Every level 1..4 function at k = 2, 3 over {0, 1, -1, 1/k, -1/k}."""
    for k in (2, 3):
        choices = (
            KPowerRational.zero(k),
            KPowerRational.one(k),
            -KPowerRational.one(k),
            KPowerRational(k, 1, 1),
            KPowerRational(k, -1, 1),
        )
        for n in range(1, 5):
            for combo in product(choices, repeat=n):
                yield LocallyConstantFn(k, combo)


def assert_matches_oracles(f):
    fast = membership_series(f)
    assert fast == double_sum_membership_series(f)
    assert psi(f) == kpower_horner_psi(f)
    assert membership_psi(f) == fast.member
    return fast


class TestFastPathsMatchOracles:
    def test_grid_matches_both_oracles(self):
        rng = Random(2718)
        for k in range(2, 11):
            for n in range(1, 41):
                g = random_fn(rng, k, n, max_expo=3)
                image = g - pv_endomorphism(g)
                result = assert_matches_oracles(image)
                assert result.member and result.witness == g
                bump = LocallyConstantFn.delta(k, n, rng.randrange(n))
                perturbed = image + bump if rng.random() < 0.5 else image - bump
                # psi(+-delta_j) = +-k**j, a unit of Z_{k**n - 1}
                assert assert_matches_oracles(perturbed).member is (k ** n == 2)
        for f in small_exhaustive_fns():
            assert_matches_oracles(f)

    @given(level_fns(max_level=16))
    @settings(max_examples=200)
    def test_random_vectors_match_both_oracles(self, f):
        assert_matches_oracles(f)


class TestKernel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_dense_oracle(self, k, n):
        assert kernel_is_trivial(k, n) is True
        assert dense_kernel_is_trivial(k, n) is True

    def test_certificate_pivot(self):
        assert kernel_certificate(2, 3) == Fraction(7, 8)
        assert kernel_is_trivial(2, 3)

    def test_closed_form_pivot_matches_elimination(self):
        for k in range(2, 7):
            for n in range(1, 65):
                assert kernel_certificate(k, n) == eliminated_kernel_pivot(k, n)
        assert kernel_certificate(2, 4096) == eliminated_kernel_pivot(2, 4096)


class TestFiniteStage:
    def test_example_base_three(self):
        modulus, unit = tower_stage(3, 1)
        assert modulus == 2
        assert unit == CyclicElement(2, 1)
        assert psi(LocallyConstantFn.delta(3, 1, 0)) == CyclicElement(2, 1)

    def test_example_base_two_level_two(self):
        modulus, unit = tower_stage(2, 2)
        assert modulus == 3
        assert unit == CyclicElement(3, 0)

    def test_trivial_stage(self):
        modulus, unit = tower_stage(2, 1)
        assert modulus == 1
        assert unit == CyclicElement(1, 0)

    def test_unit_class_is_psi_of_constant_one(self):
        for k in (2, 3, 4, 6):
            levels = (1, 2, 4, 12)
            units = k0_odometer(OdometerSpec(k, levels)).k0.unit_thread
            for n, unit in zip(levels, units):
                assert psi(LocallyConstantFn.from_fractions(k, [1] * n)) == unit


class TestConnectingMap:
    def test_example_two_to_four(self):
        h = tower_map(2, 2, 4)
        assert (h.source_modulus, h.target_modulus, h.multiplier) == (3, 15, 5)
        assert h(CyclicElement(3, 1)) == CyclicElement(15, 5)

    def test_example_base_three(self):
        h = tower_map(3, 1, 2)
        assert (h.source_modulus, h.target_modulus, h.multiplier) == (2, 8, 4)

    def test_functorial(self):
        for k in (2, 3, 5):
            for a, b, c in ((1, 2, 4), (1, 3, 6), (2, 4, 8), (1, 2, 8)):
                first, second = k0_odometer(OdometerSpec(k, (a, b, c))).k0.maps
                composite = tower_map(k, a, c)
                assert (first.source_modulus, second.target_modulus) == (
                    composite.source_modulus,
                    composite.target_modulus,
                )
                assert (
                    first.multiplier * second.multiplier % composite.target_modulus
                    == composite.multiplier
                )

    def test_maps_unit_to_unit(self):
        for k in (2, 3, 4, 5, 6):
            for a, b in ((1, 2), (2, 4), (1, 3), (3, 12)):
                h = tower_map(k, a, b)
                assert h(tower_stage(k, a)[1]) == tower_stage(k, b)[1]

    def test_injective(self):
        # exhaustive kernel count: only 0 in the source maps to 0
        for k in (2, 3, 6):
            for a, b in ((1, 2), (2, 6), (1, 4)):
                h = tower_map(k, a, b)
                kernel = [x for x in range(h.source_modulus) if x * h.multiplier % h.target_modulus == 0]
                assert kernel == [0]


class TestK0Odometer:
    def test_example_binary_tower(self):
        result = k0_odometer(OdometerSpec(2, (1, 2, 4)))
        assert result.k0.moduli == (1, 3, 15)
        assert [h.target_modulus for h in result.k0.maps] == [3, 15]
        # raw ratios 3 and 5; stored reduced in the homs
        assert result.k0.maps[1].multiplier == 5
        assert result.k1_trivial

    def test_example_base_three(self):
        result = k0_odometer(OdometerSpec(3, (1, 3)))
        assert result.k0.moduli == (2, 26)
        assert result.k0.maps[0].multiplier == 13
        assert [u.residue for u in result.k0.unit_thread] == [1, 13]

    def test_single_level(self):
        result = k0_odometer(OdometerSpec(5, (2,)))
        assert result.k0.moduli == (24,)
        assert result.k0.maps == ()

    def test_kernel_certificates_per_level(self):
        result = k0_odometer(OdometerSpec(3, (1, 2, 4, 8)))
        assert result.kernel_certificates == tuple(1 - Fraction(1, 3 ** n) for n in (1, 2, 4, 8))
        assert all(pivot != 0 for pivot in result.kernel_certificates)

    def test_derived_values_match_the_stored_formulas(self):
        # maps, unit thread and pivots are read off the moduli; each equals its closed form
        chains = ((1,), (2,), (1, 2), (1, 2, 4), (2, 6), (1, 3, 9), (2, 4, 12), (3, 6, 12, 24), (5, 10, 30))
        for k, levels in product(range(2, 11), chains):
            result = k0_odometer(OdometerSpec(k, levels))
            moduli = tuple(k ** n - 1 for n in levels)
            thread = tuple(CyclicElement(m, m // (k - 1)) for m in moduli)
            assert result.k0.moduli == moduli
            assert result.k0.maps == tuple(CyclicHom(a, b, b // a) for a, b in zip(moduli, moduli[1:]))
            assert result.k0.unit_thread == thread
            assert result.kernel_certificates == tuple(1 - Fraction(1, k ** n) for n in levels)
            assert [h(u) for h, u in zip(result.k0.maps, thread)] == list(thread[1:])
