"""Tests for the exact-arithmetic foundation."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd, log10, prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, prevprime, totient

import kcalc
from kcalc import arith
from kcalc.arith import (
    FactorizationBudgetError,
    KPowerRational,
    SupernaturalNumber,
    factorize,
    is_prime,
    multiplicative_order,
    prime_factors,
    radical_divides,
    valuation,
)
from kcalc.abelian import tensor_cyclic_with_localized
from kcalc.colimit import prime_power_order_witness
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
        for v in (x, y, x + y, back):
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
        assert (-x).as_fraction() == -x.as_fraction()


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

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="budget_bits must be non-negative"):
            factorize(15, budget_bits=-5)
        with pytest.raises(FactorizationBudgetError, match="guard is 0 bits"):
            factorize(15, budget_bits=0)

    def test_prime_factors_refuses_a_negative_budget(self):
        with pytest.raises(ValueError, match="budget_bits must be non-negative"):
            prime_factors(15, budget_bits=-5)

    def test_rho_route_matches_sympy(self):
        # inputs whose primes all lie above the small primes 2..37, so p-1
        # and rho split them: primes 41..10**6 with their squares and cubes,
        # and products of two such primes, also times a prime above 10**6
        rng = Random(41)
        small = [41, 43, 997, 65537, 999983]
        small += [prevprime(rng.randrange(42, 10 ** 6)) for _ in range(20)]
        large = [nextprime(rng.randrange(10 ** 6, 10 ** 7)) for _ in range(5)]
        inputs = [p ** e for p in small for e in (1, 2, 3)]
        for p, q in zip(small, small[1:] + small[:1]):
            inputs += [p * q, p * q * rng.choice(large)]
        # p-1's fallbacks.  1020 and 1032 are both 1024-smooth, so the single
        # gcd is n and the per-prime-power redo splits it.
        assert arith._pollard_pm1(1021 * 1033) in (1021, 1033)
        # 2038 = 2*1019 and 32608 = 2**5*1019: every increasing prefix of
        # stage 1 gives 1 or n; the decreasing redo starts at 1019, the order
        # of 2 mod 2039, and splits 2039 off at once.
        assert arith._pollard_pm1(2039 * 32609) == 2039
        # 1093 is a Wieferich prime (the order of 2 mod 1093**2 is 364, as
        # mod 1093): every prefix in either order gives 1 or n, so rho splits it.
        assert arith._pollard_pm1(1093 ** 2) is None
        # safe primes 2*1031+1 and so on: neither q-1 is 1024-smooth.
        assert arith._pollard_pm1(2063 * 2099) is None
        inputs += [1021 * 1033, 2039 * 32609, 1093 ** 2, 2063 * 2099, 2207 * 2447]
        for n in inputs:
            assert factorize(n) == factorint(n), n

    def test_pm1_route_splits_phi_59_of_3(self, monkeypatch):
        # 14425532687 - 1 = 2*53*59*67*173*199 is 1024-smooth, so p-1
        # splits Phi_59(3) without rho.
        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(arith, "_brent_rho", no_rho)
        expected = {14425532687: 1, 489769993189671059: 1}
        assert factorize((3 ** 59 - 1) // 2) == expected
        assert prime_power_order_witness(3, 59, 1).q == 14425532687

    def test_pm1_decreasing_redo_splits_phi_49_of_4(self, monkeypatch):
        # both primes divide 2**98 - 1 (orders 98 and 49), so every prefix of
        # the increasing redo gives 1 or n; the decreasing one splits at 7**3.
        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(arith, "_brent_rho", no_rho)
        expected = {4363953127297: 1, 4432676798593: 1}
        assert factorize((4 ** 49 - 1) // (4 ** 7 - 1)) == expected
        assert prime_power_order_witness(4, 7, 2).q == 4363953127297

    def test_cyclotomic_sweep_matches_sympy(self):
        # every k**n - 1 within the 96-bit guard, k in 2..12.  factorint takes
        # seconds here; by unique factorization, a product equal to n of keys
        # that sympy calls prime is the same check.
        values = set()
        for k in range(2, 13):
            n = 1
            while (k ** n - 1).bit_length() <= 96:
                values.add(k ** n - 1)
                n += 1
        for n in values:
            powers = factorize(n)
            assert all(isprime(p) for p in powers), n
            assert prod(p ** e for p, e in powers.items()) == n

    def test_deterministic_on_rho_range(self):
        n = (10 ** 7 + 19) * (10 ** 7 + 79)
        assert factorize(n) == factorize(n) == {10 ** 7 + 19: 1, 10 ** 7 + 79: 1}


class TestFactorizationMemo:
    def test_each_call_returns_a_fresh_dict(self):
        n = 2 ** 3 * 3 ** 2 * 1021 * 1033
        first = factorize(n)
        second = factorize(n)
        assert first == second and first is not second
        assert list(first.items()) == [(2, 3), (3, 2), (1021, 1), (1033, 1)]
        first[2] = 99
        del first[3]
        assert factorize(n) == {2: 3, 3: 2, 1021: 1, 1033: 1}

    def test_a_cached_input_is_still_held_to_the_budget(self):
        n = (3 ** 59 - 1) // 2  # 93 bits
        assert factorize(n) == {14425532687: 1, 489769993189671059: 1}
        with pytest.raises(FactorizationBudgetError) as caught:
            factorize(n, budget_bits=92)
        assert str(caught.value) == (
            "factorization out of budget: input has 93 bits, guard is 92 bits"
        )
        with pytest.raises(ValueError) as caught:
            factorize(n, budget_bits=-1)
        assert str(caught.value) == "budget_bits must be non-negative, got -1"
        with pytest.raises(ValueError, match="factorize expects n >= 1"):
            factorize(0)

    def test_a_warm_call_runs_no_split(self, monkeypatch):
        n = (4 ** 49 - 1) // (4 ** 7 - 1)
        expected = factorize(n)

        def no_split(m):
            raise AssertionError(f"split called on {m}")

        monkeypatch.setattr(arith, "_pollard_pm1", no_split)
        monkeypatch.setattr(arith, "_brent_rho", no_split)
        assert factorize(n) == expected
        assert prime_factors(n) == sorted(expected)
        arith._factor_pairs.cache_clear()
        with pytest.raises(AssertionError, match="split called"):
            factorize(n)

    def test_the_memo_holds_at_most_its_bound(self):
        bound = arith._FACTOR_MEMO_SIZE
        for n in range(1, bound + 101):
            factorize(n)
        info = arith._factor_pairs.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
        assert info.misses == bound + 100


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
        if gcd(k, q_r) != 1:
            with pytest.raises(ValueError):
                multiplicative_order(k, q_r)
            return
        t = multiplicative_order(k, q_r)
        assert t == naive_multiplicative_order(k, q_r)
        assert totient(q_r) % t == 0


class TestPrintLimit:
    """``arith._check_printable`` refuses k**n - 1 with more digits than Python prints."""

    def test_bit_bounds_agree_with_the_exact_comparison(self):
        ceiling = 10 ** 4300
        for k in range(2, 70):
            edge = int(4300 / log10(k))
            for n in range(edge - 3, edge + 4):
                try:
                    arith._check_printable(k, n)
                    refused = False
                except ValueError:
                    refused = True
                assert refused is (k ** n - 1 >= ceiling), (k, n)

    def test_the_limit_is_read_at_call_time(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(ValueError, match="^2\\^2200 - 1 has more than 640 digits"):
                arith._check_printable(2, 2200)
            arith._check_printable(2, 2100)  # 633 digits
            sys.set_int_max_str_digits(0)
            arith._check_printable(2, 2200)
            arith._check_printable(2, 10 ** 18)  # refused by nothing, and not formed
        finally:
            sys.set_int_max_str_digits(limit)

    def test_power_minus_one_forms_only_what_prints(self):
        assert arith._power_minus_one(10, 4300) == 10 ** 4300 - 1
        assert arith._power_minus_one(7, 1) == 6
        with pytest.raises(ValueError, match="^10\\^4301 - 1 has more than 4300 digits"):
            arith._power_minus_one(10, 4301)

    def test_a_level_too_long_to_print_is_not_named(self):
        with pytest.raises(ValueError) as refused:
            arith._check_printable(2, 10 ** 4300)
        assert str(refused.value) == (
            "2^n - 1 (a level n of more than 4300 digits) has more than 4300 digits,"
            " more than a report can print; use a smaller k or level"
        )

    def test_library_calls_are_refused_before_the_power_is_formed(self):
        # each ran for seconds, or ran out of memory, when the library formed k**n - 1;
        # a fresh interpreter under a 1 GiB address-space limit keeps a regression contained
        script = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from kcalc import (Geometric, LocallyConstantFn, OdometerSpec, k0_odometer,
                   kernel_certificate, prime_power_order_witness, psi)
from kcalc.cli import _rule_spec
zero = LocallyConstantFn.zero(10**100, 10**5)
probes = [
    lambda: k0_odometer(OdometerSpec(2, (10**12,))),
    lambda: kernel_certificate(2, 10**10),
    lambda: prime_power_order_witness(3, 2, 30, budget_bits=10**11),
    lambda: _rule_spec(2, Geometric(1, 2), 10**18),  # the tower of ok --k 2 --depth 10**18
    lambda: psi(zero),
]
for probe in probes:
    start = time.perf_counter()
    try:
        probe()
        outcome = "returned"
    except ValueError as exc:
        outcome = "refused" if "more than 4300 digits" in str(exc) else repr(exc)
    print(f"{time.perf_counter() - start:.3f} {outcome}")
"""
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(kcalc.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        rows = [line.split(" ", 1) for line in done.stdout.splitlines()]
        assert [outcome for _, outcome in rows] == ["refused"] * 5, done.stdout
        assert all(float(seconds) < 1.0 for seconds, _ in rows), done.stdout


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

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            SupernaturalNumber.from_powers({4: 1})
        with pytest.raises(ValueError, match="^multiplicity must be non-negative or None$"):
            SupernaturalNumber.from_powers({2: -1})

    @pytest.mark.parametrize(
        "powers, rest",
        [
            ([(6, 1)], 0),
            ([(2, -1)], None),
            ([(2, 1.5)], 0),
            ([(3, 1), (3, 2)], 0),
            ([(2, 1)], 1),
        ],
        ids=["non-prime", "negative", "non-integer", "listed-twice", "rest-not-0-or-None"],
    )
    def test_constructor_refuses(self, powers, rest):
        with pytest.raises(ValueError):
            SupernaturalNumber(powers, rest)

    def test_fields_are_the_normal_form(self):
        s = SupernaturalNumber([(3, 2), (5, 0), (2, None)], 0)
        assert (s.powers, s.rest) == (((2, None), (3, 2)), 0)
        c = SupernaturalNumber.coprime_complement(12)
        assert (c.powers, c.rest) == (((2, 0), (3, 0)), None)
        assert SupernaturalNumber([(7, None)], None) == SupernaturalNumber.coprime_complement(1)


    # Each case pairs a number with its multiplicities read off the constructor's argument.
    CASES = st.one_of(
        st.dictionaries(
            st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), st.none() | st.integers(0, 4)
        ).map(lambda powers: (SupernaturalNumber.from_powers(powers), lambda p: powers.get(p, 0))),
        st.integers(1, 10 ** 4).map(
            lambda d: (SupernaturalNumber.coprime_complement(d), lambda p: 0 if d % p == 0 else None)
        ),
    )

    PAIRS = st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.none() | st.integers(0, 3)),
        unique_by=lambda pair: pair[0],
    )

    @given(CASES, PAIRS, st.sampled_from([0, None]), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_one_normal_form(self, case, pairs, rest, rng):
        s = case[0]
        assert s == SupernaturalNumber(s.powers, s.rest)
        for copy_ in (copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert copy_ == s
        a, b = SupernaturalNumber(pairs, rest), SupernaturalNumber(rng.sample(pairs, len(pairs)), rest)
        assert a == b and hash(a) == hash(b)

    @given(CASES, st.integers(1, 10 ** 4))
    @settings(max_examples=300)
    def test_matches_the_valuations_of_m(self, case, m):
        s, multiplicity = case
        valuations = trial_division_factorize(m)
        assert all(s.multiplicity(p) == multiplicity(p) for p in valuations)
        assert s.admits(m) == all(
            multiplicity(p) is None or v <= multiplicity(p) for p, v in valuations.items()
        )
        assert s.coprime_to_all_of(m) == all(multiplicity(p) == 0 for p in valuations)
        finite = prod(p ** v for p, v in valuations.items() if multiplicity(p) is not None)
        assert tensor_cyclic_with_localized(m, s).modulus == finite


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
