"""Tests for the exact-arithmetic foundation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcalc.arith import (
    FactorizationBudgetError,
    KPowerRational,
    SupernaturalNumber,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    radical_divides,
    valuation,
)
from oracles import naive_multiplicative_order, trial_division_factorize


class TestKPowerRational:
    def test_normalize_cancels_base_factor(self):
        v = KPowerRational(2, 6, 1)
        assert (v.numer, v.expo) == (3, 0)

    def test_normalize_zero(self):
        v = KPowerRational(3, 0, 7)
        assert (v.numer, v.expo) == (0, 0)

    def test_normalize_already_reduced(self):
        v = KPowerRational(2, 5, 2)
        assert (v.numer, v.expo) == (5, 2)

    def test_rejects_bad_base_and_exponent(self):
        with pytest.raises(ValueError):
            KPowerRational(1, 3, 0)
        with pytest.raises(ValueError):
            KPowerRational(2, 3, -1)

    def test_mixed_base_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            KPowerRational(2, 1) + KPowerRational(3, 1)

    def test_from_fraction_and_back(self):
        v = KPowerRational.from_fraction(2, Fraction(3, 8))
        assert (v.numer, v.expo) == (3, 3)
        assert v.as_fraction() == Fraction(3, 8)

    def test_from_fraction_rejects_foreign_denominator(self):
        with pytest.raises(ValueError):
            KPowerRational.from_fraction(2, Fraction(1, 3))
        assert not KPowerRational.fraction_in_ring(Fraction(1, 6), 2)
        assert KPowerRational.fraction_in_ring(Fraction(5, 12), 6)

    @given(
        base=st.integers(2, 10),
        a=st.integers(-10 ** 6, 10 ** 6),
        ea=st.integers(0, 10),
        b=st.integers(-10 ** 6, 10 ** 6),
        eb=st.integers(0, 10),
    )
    def test_add_sub_roundtrip_and_normal_form(self, base, a, ea, b, eb):
        x = KPowerRational(base, a, ea)
        y = KPowerRational(base, b, eb)
        back = (x + y) - y
        assert back == x
        for v in (x, y, x + y, x * y, back):
            assert v.expo == 0 or v.numer % base != 0
            assert v.as_fraction() == Fraction(v.numer, base ** v.expo)

    @given(
        base=st.integers(2, 10),
        a=st.integers(-10 ** 4, 10 ** 4),
        ea=st.integers(0, 6),
        b=st.integers(-10 ** 4, 10 ** 4),
        eb=st.integers(0, 6),
    )
    def test_ring_ops_match_fractions(self, base, a, ea, b, eb):
        x = KPowerRational(base, a, ea)
        y = KPowerRational(base, b, eb)
        assert (x + y).as_fraction() == x.as_fraction() + y.as_fraction()
        assert (x - y).as_fraction() == x.as_fraction() - y.as_fraction()
        assert (x * y).as_fraction() == x.as_fraction() * y.as_fraction()
        assert (-x).as_fraction() == -x.as_fraction()

    def test_times_base_power(self):
        v = KPowerRational(2, 3, 2)
        assert v.times_base_power(2).as_fraction() == Fraction(3)
        assert v.times_base_power(-1).as_fraction() == Fraction(3, 8)
        assert v.times_base_power(4).as_fraction() == Fraction(12)


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(12, 5) == 0
        assert valuation(19682, 2) == 1  # 3**9 - 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            valuation(12, 4)

    @given(
        m=st.integers(1, 10 ** 6),
        n=st.integers(1, 10 ** 6),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_multiplicativity(self, m, n, p):
        assert valuation(m * n, p) == valuation(m, p) + valuation(n, p)


class TestFactorize:
    def test_examples(self):
        assert factorize(15) == {3: 1, 5: 1}
        assert factorize(1) == {}
        assert factorize(255) == {3: 1, 5: 1, 17: 1}  # 4**4 - 1

    def test_recomposition_sweep(self):
        for n in range(1, 10 ** 5 + 1):
            powers = factorize(n)
            product = 1
            for p, e in powers.items():
                product *= p ** e
            assert product == n
        # spot-check primality of keys on a thin slice
        for n in range(99_000, 99_100):
            assert all(is_prime(p) for p in factorize(n))

    @pytest.mark.parametrize("k,a", [(2, 16), (3, 9), (5, 8), (6, 16), (10, 10)])
    def test_tower_moduli_recompose(self, k, a):
        n = k ** a - 1
        powers = factorize(n)
        product = 1
        for p, e in powers.items():
            assert is_prime(p)
            product *= p ** e
        assert product == n
        assert powers == trial_division_factorize(n)

    def test_budget_guard(self):
        n = 2 ** 100 + 1
        with pytest.raises(FactorizationBudgetError):
            factorize(n)
        powers = factorize(n, budget_bits=128)
        product = 1
        for p, e in powers.items():
            product *= p ** e
        assert product == n

    def test_deterministic_on_rho_range(self):
        n = (10 ** 7 + 19) * (10 ** 7 + 79)
        assert factorize(n) == factorize(n) == {10 ** 7 + 19: 1, 10 ** 7 + 79: 1}


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(7, 1) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    @pytest.mark.parametrize("k", [2, 3, 5, 6, 10])
    @pytest.mark.parametrize("q_r", [3, 4, 7, 9, 25, 27, 121])
    def test_matches_naive_and_divides_phi(self, k, q_r):
        if k % (q_r if is_prime(q_r) else trial_division_factorize(q_r).popitem()[0]) == 0:
            pytest.skip("not a unit")
        t = multiplicative_order(k, q_r)
        assert t == naive_multiplicative_order(k, q_r)
        assert euler_phi(q_r) % t == 0


class TestSupernatural:
    def test_divides_examples(self):
        assert SupernaturalNumber.from_powers({2: None}).admits(8)
        assert not SupernaturalNumber.from_powers({2: None}).admits(10)
        assert SupernaturalNumber.coprime_complement(2).admits(35)

    def test_multiplicity(self):
        s = SupernaturalNumber.from_powers({2: None, 3: 2})
        assert s.multiplicity(2) is None
        assert s.multiplicity(3) == 2
        assert s.multiplicity(5) == 0
        c = SupernaturalNumber.coprime_complement(6)
        assert c.multiplicity(2) == 0
        assert c.multiplicity(3) == 0
        assert c.multiplicity(5) is None

    def test_finite_multiplicity_caps(self):
        s = SupernaturalNumber.from_powers({2: 3})
        assert s.admits(8)
        assert not s.admits(16)

    def test_complement_radical_normalized(self):
        assert SupernaturalNumber.coprime_complement(4) == (
            SupernaturalNumber.coprime_complement(2)
        )
        assert SupernaturalNumber.coprime_complement(1).admits(10 ** 12)

    def test_coprime_to_all_of(self):
        assert SupernaturalNumber.from_powers({2: None}).coprime_to_all_of(9)
        assert not SupernaturalNumber.from_powers({2: None}).coprime_to_all_of(6)
        assert SupernaturalNumber.coprime_complement(6).coprime_to_all_of(12)
        assert not SupernaturalNumber.coprime_complement(6).coprime_to_all_of(5)

    def test_infinite_powers_of(self):
        s = SupernaturalNumber.infinite_powers_of(10)
        assert s == SupernaturalNumber.from_powers({2: None, 5: None})

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            SupernaturalNumber.from_powers({4: 1})
        with pytest.raises(ValueError):
            SupernaturalNumber.from_powers({2: -1})


class TestRadicalDivides:
    def test_basic(self):
        assert radical_divides(12, 6)
        assert not radical_divides(12, 2)
        assert radical_divides(1, 7)

    @given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
    @settings(max_examples=200)
    def test_matches_definition(self, m, d):
        expected = all(d % p == 0 for p in trial_division_factorize(m))
        assert radical_divides(m, d) == expected
