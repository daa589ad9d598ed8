"""Tests for cyclic groups, localized quotients and tensor reductions."""

import operator
from fractions import Fraction
from random import Random

import pytest

from kcalc.abelian import (
    CyclicElement,
    CyclicHom,
    LocalizedQuotient,
    TensorReduction,
    quotient_localized_by_m,
    tensor_cyclic_with_localized,
)
from kcalc.arith import SupernaturalNumber
from oracles import coset_count, strip_primes

S2 = SupernaturalNumber.from_powers({2: None})
S23 = SupernaturalNumber.from_powers({2: None, 3: None})
S5 = SupernaturalNumber.from_powers({5: None})


class TestCyclicElement:
    def test_reduction_and_trivial_group(self):
        assert CyclicElement(5, 12).residue == 2
        assert CyclicElement(1, 7).residue == 0

    def test_arithmetic(self):
        a = CyclicElement(7, 5)
        b = CyclicElement(7, 4)
        assert (a + b).residue == 2
        assert (a - b).residue == 1
        assert (-a).residue == 2

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_other_operands_are_not_implemented(self, op):
        with pytest.raises(TypeError):
            op(CyclicElement(3, 1), 1)


class TestCyclicHom:
    def test_well_definedness(self):
        CyclicHom(2, 8, 4)
        with pytest.raises(ValueError):
            CyclicHom(2, 8, 3)

    def test_apply_and_identity(self):
        h = CyclicHom(2, 8, 4)
        assert h(CyclicElement(2, 1)) == CyclicElement(8, 4)
        ident = CyclicHom(6, 6, 1)
        assert ident(CyclicElement(6, 5)) == CyclicElement(6, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CyclicElement(0, 1), "modulus must be positive"),
        (lambda: CyclicElement(3, 1) + CyclicElement(4, 1), "mixed moduli"),
        (lambda: CyclicHom(0, 3, 0), "moduli must be positive"),
        (lambda: CyclicHom(3, -3, 0), "moduli must be positive"),
        (lambda: CyclicHom(2, 4, 2)(CyclicElement(3, 1)), "element does not live in the source group"),
    ],
    ids=["element-modulus", "mixed-moduli", "hom-source", "hom-target", "foreign-element"],
)
def test_cyclic_types_refuse(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestLocalizedQuotient:
    def test_example_half_mod_three(self):
        q = quotient_localized_by_m(S2, 3)
        assert q.reduce(Fraction(1, 2)) == CyclicElement(3, 2)

    def test_example_trivial_modulus(self):
        q = quotient_localized_by_m(S23, 1)
        assert q.reduce(Fraction(17, 12)) == CyclicElement(1, 0)

    def test_example_two_thirds_mod_five(self):
        q = quotient_localized_by_m(S23, 5)
        assert q.reduce(Fraction(2, 3)) == CyclicElement(5, 4)

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            quotient_localized_by_m(S2, 6)
        with pytest.raises(ValueError):
            quotient_localized_by_m(SupernaturalNumber.coprime_complement(2), 3)

    def test_constructor_refuses_what_reduce_cannot_invert(self):
        # 2 is invertible in the localized group, so Z_6 is no quotient of it
        with pytest.raises(ValueError, match="^6 shares a prime with"):
            LocalizedQuotient(6, S2)
        for m in (0, -3):
            with pytest.raises(ValueError, match="^m must be positive$"):
                LocalizedQuotient(m, S2)
            with pytest.raises(ValueError, match="^m must be positive$"):
                tensor_cyclic_with_localized(m, S2)
        assert LocalizedQuotient(3, S2) == quotient_localized_by_m(S2, 3)

    def test_rejects_foreign_values(self):
        q = quotient_localized_by_m(S2, 3)
        with pytest.raises(ValueError):
            q.reduce(Fraction(1, 5))

    def test_reduction_is_ring_homomorphism(self):
        rng = Random(3)
        q = quotient_localized_by_m(S2, 9)
        for _ in range(1000):
            x = Fraction(rng.randint(-50, 50), 2 ** rng.randint(0, 6))
            y = Fraction(rng.randint(-50, 50), 2 ** rng.randint(0, 6))
            rx, ry = q.reduce(x), q.reduce(y)
            assert q.reduce(x + y) == rx + ry
            assert q.reduce(x * y).residue == rx.residue * ry.residue % 9

    def test_kernel_is_m_times_group(self):
        q = quotient_localized_by_m(S2, 5)
        # elements of the form 5 * (a / 2**e) reduce to zero, and conversely
        rng = Random(5)
        for _ in range(200):
            a = rng.randint(-40, 40)
            e = rng.randint(0, 5)
            assert q.reduce(Fraction(5 * a, 2 ** e)).residue == 0
            x = Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 5))
            if q.reduce(x).residue == 0:
                assert (x / 5).denominator & (x / 5).denominator - 1 == 0  # power of 2


class TestTensor:
    def test_example_fifteen_against_five_adic(self):
        t = tensor_cyclic_with_localized(15, S5)
        assert t.modulus == 3
        assert t.generator_image == CyclicElement(3, 1)

    def test_example_complement(self):
        t = tensor_cyclic_with_localized(6, SupernaturalNumber.coprime_complement(2))
        assert t.modulus == 2

    def test_example_plain_integers(self):
        t = tensor_cyclic_with_localized(7, SupernaturalNumber.from_powers({}))
        assert t.modulus == 7

    def test_finite_multiplicity_prime_survives(self):
        # a prime with finite nonzero multiplicity does not divide the group
        s = SupernaturalNumber.from_powers({2: 3})
        assert tensor_cyclic_with_localized(8, s).modulus == 8

    def test_record_refuses_a_modulus_that_is_no_quotient(self):
        for source, modulus in ((6, 4), (6, 0), (6, 12), (0, 1)):
            with pytest.raises(ValueError, match="has no quotient"):
                TensorReduction(source, modulus)

    def test_surjection_tracks_unit(self):
        t = tensor_cyclic_with_localized(12, S2)
        assert t.modulus == 3
        assert t.surjection(CyclicElement(12, 5)) == CyclicElement(3, 2)

    def test_against_brute_force_sample(self):
        cases = [
            (15, S5, [5], lambda d: strip_primes(d, (5,)) == 1),
            (12, S2, [2], lambda d: strip_primes(d, (2,)) == 1),
            (
                40,
                SupernaturalNumber.coprime_complement(2),
                [3, 5, 7, 11, 13],
                lambda d: d % 2 == 1,
            ),
        ]
        for m, s, allowed, admit in cases:
            count = coset_count(m, allowed, admit, cap=6)
            assert count == tensor_cyclic_with_localized(m, s).modulus

