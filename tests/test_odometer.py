"""Tests for odometer dynamics, psi, membership criteria and the tower."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcalc.abelian import CyclicElement
from kcalc.arith import KPowerRational
from kcalc.odometer import (
    LocallyConstantFn,
    OdometerSpec,
    connecting_map,
    finite_stage_k0,
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
from oracles import dense_kernel_is_trivial, eliminated_kernel_pivot


def random_fn(rng, k, n, span=20, max_expo=4):
    return LocallyConstantFn(
        k,
        tuple(
            KPowerRational(k, rng.randint(-span, span), rng.randint(0, max_expo))
            for _ in range(n)
        ),
    )


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
        assert spec.stages == 4

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
        c = LocallyConstantFn.from_integers(3, [7, 7, 7, 7])
        assert translate(c) == c

    def test_full_cycle_is_identity(self):
        rng = Random(0)
        f = random_fn(rng, 2, 5)
        g = f
        for _ in range(5):
            g = translate(g)
        assert g == f


class TestPvEndomorphism:
    def test_delta_definition(self):
        out = pv_endomorphism(LocallyConstantFn.delta(2, 2, 0))
        assert [v.as_fraction() for v in out.values] == [0, Fraction(1, 2)]

    def test_zero(self):
        z = LocallyConstantFn.zero(3, 4)
        assert pv_endomorphism(z) == z

    def test_k_delta_moves_cleanly(self):
        f = LocallyConstantFn.delta(3, 4, 1)
        scaled = LocallyConstantFn(3, tuple(v.times_int(3) for v in f.values))
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
                eta = connecting_map(k, n, n_fine)
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
        assert membership_psi(LocallyConstantFn.from_integers(2, [7]))
        assert membership_series(LocallyConstantFn.from_integers(2, [7])).member
        for k in (3, 5):
            member = LocallyConstantFn.from_integers(k, [k - 1])
            non_member = LocallyConstantFn.from_integers(k, [1])
            assert membership_psi(member) and membership_series(member).member
            assert not membership_psi(non_member)
            assert not membership_series(non_member).member


class TestKernel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_dense_oracle(self, k, n):
        assert kernel_is_trivial(k, n) is True
        assert dense_kernel_is_trivial(k, n) is True

    def test_certificate_pivot(self):
        cert = kernel_certificate(2, 3)
        assert cert.pivot == Fraction(7, 8)
        assert cert.trivial

    def test_closed_form_pivot_matches_elimination(self):
        for k in range(2, 7):
            for n in range(1, 65):
                assert kernel_certificate(k, n).pivot == eliminated_kernel_pivot(k, n)
        assert kernel_certificate(2, 4096).pivot == eliminated_kernel_pivot(2, 4096)


class TestFiniteStage:
    def test_example_base_three(self):
        stage = finite_stage_k0(3, 1)
        assert stage.modulus == 2
        assert stage.unit_class == CyclicElement(2, 1)
        assert stage.psi_generator == CyclicElement(2, 1)

    def test_example_base_two_level_two(self):
        stage = finite_stage_k0(2, 2)
        assert stage.modulus == 3
        assert stage.unit_class == CyclicElement(3, 0)

    def test_trivial_stage(self):
        stage = finite_stage_k0(2, 1)
        assert stage.modulus == 1
        assert stage.unit_class == CyclicElement(1, 0)

    def test_unit_class_is_psi_of_constant_one(self):
        for k in (2, 3, 4, 6):
            for n in (1, 2, 3, 4):
                ones = LocallyConstantFn.from_integers(k, [1] * n)
                assert psi(ones) == finite_stage_k0(k, n).unit_class


class TestConnectingMap:
    def test_example_two_to_four(self):
        h = connecting_map(2, 2, 4)
        assert (h.source_modulus, h.target_modulus, h.multiplier) == (3, 15, 5)
        assert h(CyclicElement(3, 1)) == CyclicElement(15, 5)

    def test_example_base_three(self):
        h = connecting_map(3, 1, 2)
        assert (h.source_modulus, h.target_modulus, h.multiplier) == (2, 8, 4)

    def test_identity_stage_pair(self):
        h = connecting_map(5, 3, 3)
        assert h == connecting_map(5, 3, 3)
        assert h(CyclicElement(124, 7)) == CyclicElement(124, 7)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            connecting_map(2, 2, 5)

    def test_functorial(self):
        for k in (2, 3, 5):
            for a, b, c in ((1, 2, 4), (1, 3, 6), (2, 4, 8), (1, 2, 8)):
                assert connecting_map(k, a, b).then(connecting_map(k, b, c)) == (
                    connecting_map(k, a, c)
                )

    def test_maps_unit_to_unit(self):
        for k in (2, 3, 4, 5, 6):
            for a, b in ((1, 2), (2, 4), (1, 3), (3, 12)):
                h = connecting_map(k, a, b)
                assert h(finite_stage_k0(k, a).unit_class) == (
                    finite_stage_k0(k, b).unit_class
                )

    def test_injective(self):
        for k in (2, 3, 6):
            for a, b in ((1, 2), (2, 6), (1, 4)):
                assert connecting_map(k, a, b).is_injective()


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
        assert [c.level for c in result.kernel_certificates] == [1, 2, 4, 8]
        assert all(c.trivial for c in result.kernel_certificates)
