"""Tests for cyclic groups, localized quotients and tensor reductions."""

import math
from fractions import Fraction
from random import Random

import pytest

from kcalc.abelian import (
    Comparison,
    CyclicElement,
    CyclicHom,
    LevelMismatchError,
    LocallyConstantProjectionClass,
    compare_projection_classes,
    quotient_localized_by_m,
    refine_level,
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
        assert a.scale(3).residue == 1

    def test_order(self):
        assert CyclicElement(15, 0).order() == 1
        assert CyclicElement(15, 5).order() == 3
        assert CyclicElement(15, 1).order() == 15


class TestCyclicHom:
    def test_well_definedness(self):
        CyclicHom(2, 8, 4)
        with pytest.raises(ValueError):
            CyclicHom(2, 8, 3)

    def test_apply_and_identity(self):
        h = CyclicHom(2, 8, 4)
        assert h(CyclicElement(2, 1)) == CyclicElement(8, 4)
        ident = CyclicHom.identity(6)
        assert ident(CyclicElement(6, 5)) == CyclicElement(6, 5)

    def _random_hom(self, rng, source, target):
        step = target // math.gcd(source, target)
        t = rng.randrange(target // step)
        return CyclicHom(source, target, t * step)

    def test_composition_associative(self):
        rng = Random(7)
        for _ in range(300):
            m1, m2, m3 = (rng.randrange(1, 60) for _ in range(3))
            h1 = self._random_hom(rng, m1, m2)
            h2 = self._random_hom(rng, m2, m3)
            m4 = rng.randrange(1, 60)
            h3 = self._random_hom(rng, m3, m4)
            assert h1.then(h2).then(h3) == h1.then(h2.then(h3))
            e = CyclicElement(m1, rng.randrange(m1))
            assert h1.then(h2)(e) == h2(h1(e))

    def test_injectivity_matches_exhaustive_kernel(self):
        rng = Random(11)
        for _ in range(200):
            source = rng.randrange(1, 1001)
            target = rng.randrange(1, 1001)
            h = self._random_hom(rng, source, target)
            kernel = sum(
                1 for x in range(source) if (x * h.multiplier) % target == 0
            )
            assert kernel == h.kernel_size()
            assert h.is_injective() == (kernel == 1)
            # the closed-form criterion from the kernel count
            assert h.is_injective() == (
                math.gcd(h.multiplier, target) * source == target
            )


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


def _cls(level, values, s=S2):
    return LocallyConstantProjectionClass(level, s, tuple(Fraction(v) for v in values))


class TestProjectionClasses:
    def test_compare_examples(self):
        assert compare_projection_classes(_cls(2, [1, 1]), _cls(2, [1, 2])) is (
            Comparison.LESS_EQUAL
        )
        assert compare_projection_classes(_cls(2, [1, 0]), _cls(2, [0, 1])) is (
            Comparison.INCOMPARABLE
        )
        assert compare_projection_classes(_cls(2, [1, 0]), _cls(2, [1, 0])) is (
            Comparison.EQUAL
        )
        assert compare_projection_classes(_cls(2, [2, 2]), _cls(2, [1, 2])) is (
            Comparison.GREATER_EQUAL
        )

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            compare_projection_classes(_cls(2, [1, 1]), _cls(4, [1, 1, 1, 1]))

    def test_negative_trace_rejected(self):
        with pytest.raises(ValueError):
            _cls(2, [1, -1])

    def test_trace_denominator_must_be_admitted(self):
        with pytest.raises(ValueError):
            _cls(1, ["1/3"])
        assert _cls(1, ["3/3"]).traces == (1,)

    def test_mixed_constraints_rejected(self):
        with pytest.raises(ValueError):
            compare_projection_classes(_cls(2, [1, 1]), _cls(2, [1, 1], S5))

    def test_refine_constant(self):
        f = _cls(1, [1])
        g = refine_level(f, 3)
        assert list(g.traces) == [1, 1, 1]

    def test_refine_pattern(self):
        f = _cls(2, ["1/2", 1])
        g = refine_level(f, 4)
        assert list(g.traces) == [
            Fraction(1, 2),
            1,
            Fraction(1, 2),
            1,
        ]

    def test_refine_functorial(self):
        f = _cls(2, ["1/4", "3/4"])
        assert refine_level(refine_level(f, 4), 12) == refine_level(f, 12)

    def test_refine_invalid(self):
        with pytest.raises(ValueError):
            refine_level(_cls(2, [1, 1]), 3)

    def test_comparison_invariant_under_refinement(self):
        f, g = _cls(2, [1, 0]), _cls(2, [0, 1])
        assert compare_projection_classes(
            refine_level(f, 6), refine_level(g, 6)
        ) is Comparison.INCOMPARABLE
        a, b = _cls(3, [0, 1, 1]), _cls(3, [1, 1, 2])
        assert compare_projection_classes(
            refine_level(a, 6), refine_level(b, 6)
        ) is Comparison.LESS_EQUAL
