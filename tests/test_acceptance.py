"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance (exact arithmetic throughout;
the tolerances are wall-clock budgets).  Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from random import Random
from time import perf_counter

from kcalc.abelian import quotient_localized_by_m, tensor_cyclic_with_localized
from kcalc.arith import KPowerRational, SupernaturalNumber
from kcalc.cli import EXIT_OK, main
from kcalc.colimit import (
    Geometric,
    distinguish_colimits,
    identify_cuntz_k_theory,
    prime_power_order_witness,
)
from kcalc.groupoid import certify_no_isotropy, enumerate_arrows, product_with_af
from kcalc.odometer import (
    LocallyConstantFn,
    OdometerSpec,
    kernel_is_trivial,
    membership_psi,
    membership_series,
    psi,
    pv_endomorphism,
    verify_correspondence_identities,
)
from oracles import coset_count, dense_kernel_is_trivial, pair_scan_arrows, strip_primes


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    elapsed = perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL"
    print(
        f"{verdict} criterion {number:2d} [{elapsed:6.2f}s < {limit_seconds:g}s]:"
        f" {description}"
    )
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.2f}s)"
    )


def run_k0_report(capsys, k: int, levels: tuple[int, ...]) -> dict:
    argv = ["k0", "--k", str(k), "--levels", ",".join(map(str, levels))]
    assert main(argv) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_criterion_01_tower_reproduction(capsys):
    with criterion(1, "tower moduli, multipliers and unit thread (exact)", 1.0):
        for k in range(2, 7):
            for rule in (Geometric(1, k), Geometric(1, 2)):
                for length in range(1, 6):
                    levels = rule.levels(length)
                    report = run_k0_report(capsys, k, levels)
                    results = report["results"]
                    assert results["moduli"] == [k ** n - 1 for n in levels]
                    assert results["multipliers"] == [
                        (k ** b - 1) // (k ** a - 1)
                        for a, b in zip(levels, levels[1:])
                    ]
                    assert results["unit_thread"] == [
                        ((k ** n - 1) // (k - 1)) % (k ** n - 1) for n in levels
                    ]


def test_criterion_02_cuntz_identification():
    with criterion(2, "tensored tower collapses to K-theory of O_k (exact)", 5.0):
        for k in range(2, 8):
            outcome = identify_cuntz_k_theory(k, 4)
            assert len(outcome.stages) == 4
            for stage in outcome.stages:
                assert stage.tensored_modulus == k - 1
                for _, residue in stage.cofactor_congruences:
                    assert residue == 1
            assert all(u == 1 % (k - 1) for u in outcome.induced_multipliers)
            assert outcome.unit_class == 1 % (k - 1)
            assert outcome.k0_order == k - 1
            assert outcome.k1_trivial
            if k == 2:
                assert outcome.k0_order == 1  # K_0 = 0, the O_2 verdict


def test_criterion_03_psi_well_defined():
    with criterion(3, "psi vanishes on the image of id - (1/k)T (60000 samples)", 10.0):
        rng = Random(20240601)
        for k in range(2, 7):
            for n in range(1, 13):
                for _ in range(1000):
                    g = LocallyConstantFn(
                        k,
                        tuple(
                            KPowerRational(k, rng.randint(-20, 20), rng.randint(0, 4))
                            for _ in range(n)
                        ),
                    )
                    h = g - pv_endomorphism(g)
                    assert psi(h).residue == 0


def test_criterion_04_membership_cross_oracle():
    with criterion(4, "residue and series membership criteria agree", 60.0):
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
                    f = LocallyConstantFn(k, combo)
                    by_psi = membership_psi(f)
                    by_series = membership_series(f)
                    assert by_psi == by_series.member
                    if by_series.member:
                        w = by_series.witness
                        assert w - pv_endomorphism(w) == f
        rng = Random(7777)
        for _ in range(1000):
            k = rng.randint(2, 6)
            n = rng.randint(5, 12)
            f = LocallyConstantFn(
                k,
                tuple(
                    KPowerRational(k, rng.randint(-9, 9), rng.randint(0, 3))
                    for _ in range(n)
                ),
            )
            by_psi = membership_psi(f)
            by_series = membership_series(f)
            assert by_psi == by_series.member
            if by_series.member:
                w = by_series.witness
                assert w - pv_endomorphism(w) == f


def test_criterion_05_nonzero_k0_witness():
    with criterion(5, "every proper indicator is a certified non-member", 5.0):
        for k in (2, 3):
            for n in range(2, 7):
                modulus = k ** n - 1
                for bits in range(1, 2 ** n - 1):
                    support = {j for j in range(n) if bits >> j & 1}
                    f = LocallyConstantFn.indicator(k, n, support)
                    total = sum(k ** j for j in support)
                    assert 0 < total < modulus
                    residue = psi(f)
                    assert residue.residue == total
                    assert not membership_psi(f)
                    assert not membership_series(f).member


def test_criterion_06_trivial_kernel_certificates():
    with criterion(6, "id - (1/k)T has trivial kernel (exact solves)", 5.0):
        for k in range(2, 7):
            for n in range(1, 13):
                assert kernel_is_trivial(k, n)
                assert dense_kernel_is_trivial(k, n)


def test_criterion_07_prime_power_witnesses():
    with criterion(7, "order witnesses with verified biconditionals", 30.0):
        prime_powers = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
        for k in range(2, 7):
            for p, s in prime_powers:
                w = prime_power_order_witness(k, p, s)
                assert w.order == p ** s
                assert (k ** (p ** s) - 1) % w.prime_power == 0
                assert (k ** (p ** (s - 1)) - 1) % w.prime_power != 0
                for b in range(1, 201):
                    assert w.divisibility_holds(b)


def test_criterion_08_distinguish_towers():
    with criterion(8, "ratio-2 and ratio-3 towers are distinct; like rules are not", 1.0):
        verdict = distinguish_colimits(2, Geometric(1, 2), Geometric(1, 3))
        assert verdict.distinct
        assert verdict.witness.prime_power == 3
        assert verdict.witness.order == 2
        # identical rules, in either argument order, admit no witness
        for rule in (Geometric(1, 2), Geometric(1, 3)):
            assert not distinguish_colimits(2, rule, rule).distinct
        # the swapped pair is genuinely distinguishable too, by its own witness
        swapped = distinguish_colimits(2, Geometric(1, 3), Geometric(1, 2))
        assert swapped.distinct
        assert swapped.witness.prime_power == 7


def test_criterion_09_quotient_and_tensor_oracles():
    with criterion(9, "quotient/tensor match brute-force coset counts", 30.0):
        coprime_small_primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        cases = [
            (SupernaturalNumber.from_powers({2: None}), [2],
             lambda d: strip_primes(d, (2,)) == 1),
            (SupernaturalNumber.from_powers({3: None}), [3],
             lambda d: strip_primes(d, (3,)) == 1),
            (SupernaturalNumber.from_powers({2: None, 5: None}), [2, 5],
             lambda d: strip_primes(d, (2, 5)) == 1),
            (SupernaturalNumber.coprime_complement(2),
             [p for p in coprime_small_primes if p != 2],
             lambda d: d % 2 == 1),
            (SupernaturalNumber.coprime_complement(6),
             [p for p in coprime_small_primes if p not in (2, 3)],
             lambda d: d % 2 != 0 and d % 3 != 0),
        ]
        rng = Random(99)
        for s, allowed, admit in cases:
            for m in range(1, 41):
                stable = coset_count(m, allowed, admit, cap=5)
                count = coset_count(m, allowed, admit, cap=6)
                assert stable == count, "coset count did not stabilize"
                tensored = tensor_cyclic_with_localized(m, s)
                assert tensored.modulus == count
                assert tensored.generator_image.residue == 1 % count
                if s.coprime_to_all_of(m):
                    q = quotient_localized_by_m(s, m)
                    assert q.modulus == m == count
                    for _ in range(20):
                        den_a = allowed[rng.randrange(len(allowed))] ** rng.randint(0, 3)
                        den_b = allowed[rng.randrange(len(allowed))] ** rng.randint(0, 3)
                        x = Fraction(rng.randint(-60, 60), den_a)
                        y = Fraction(rng.randint(-60, 60), den_b)
                        assert q.reduce(x + y) == q.reduce(x) + q.reduce(y)
                        assert (
                            q.reduce(x * y).residue
                            == q.reduce(x).residue * q.reduce(y).residue % m
                        )


def test_criterion_10_groupoid_truncation():
    with criterion(10, "arrow enumeration matches the pair-scan oracle", 60.0):
        for k in (1, 2, 3):
            for level in range(1, 5):
                for depth in range(1, 5):
                    for disp in range(0, min(2, depth) + 1):
                        arrows = list(enumerate_arrows(k, level, depth, disp))
                        closed_form = (2 * disp + 1) * level * k ** (depth + disp)
                        assert len(arrows) == closed_form
                        keys = {
                            (a.source.base, a.source.word, a.target.base,
                             a.target.word, a.m, a.n)
                            for a in arrows
                        }
                        assert len(keys) == len(arrows)
                        assert keys == pair_scan_arrows(k, level, depth, disp)
                        assert product_with_af(arrows, 3).count == len(arrows) * 9
        # isotropy certificates agree with exhaustive search at certified levels
        for k in (2, 3):
            spec = OdometerSpec(k, (1, 2, 4, 8))
            for bound in (0, 1, 2, 3):
                cert = certify_no_isotropy(spec, bound)
                assert cert.level > bound
                for depth in (2, 3):
                    if bound > depth:
                        continue
                    for a in enumerate_arrows(k, cert.level, depth, bound):
                        if a.source == a.target:
                            assert a.displacement == 0


def test_criterion_11_correspondence_identities():
    with criterion(11, "Hilbert-module identities on exact random samples", 5.0):
        for k in (1, 2, 3):
            for level in range(1, 5):
                report = verify_correspondence_identities(
                    k, level, 100, seed=1000 * k + level
                )
                assert report.samples == 100
                assert report.positivity_checks == 100
                assert report.module_identity_checks == 100
                assert report.rank_one_checks == 100
