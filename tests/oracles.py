"""Independent brute-force oracles.

Each function here re-derives an answer from first principles, without going
through the library code paths it is used to check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def dense_kernel_is_trivial(k: int, n: int) -> bool:
    """Full Gaussian elimination over exact rationals for (id - (1/k)T) f = 0."""
    rows = []
    for x in range(n):
        row = [Fraction(0)] * n
        row[x] += 1
        row[(x - 1) % n] -= Fraction(1, k)
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


def eliminated_kernel_pivot(k: int, n: int) -> Fraction:
    """Closing pivot of forward elimination around the cycle f(x) = (1/k) f(x - 1).

    Substituting each equation into the next carries f(0) once around the
    n-cycle with one division by k per step.
    """
    coeff = Fraction(1)
    for _ in range(1, n):
        coeff /= k
    return 1 - coeff / k


def coset_count(m: int, allowed_primes: list[int], admits_denominator, cap: int) -> int:
    """Cosets of m*H inside H, scanned over a truncated denominator layer.

    The layer is (1/D)Z with D the product of the allowed primes to the
    power cap; the count is the least positive a with a/(m*D) back in H,
    decided by the independent ``admits_denominator`` predicate.
    """
    D = 1
    for p in allowed_primes:
        D *= p ** cap
    a = 1
    while True:
        fr = Fraction(a, m * D)
        if admits_denominator(fr.denominator):
            return a
        a += 1


def strip_primes(n: int, primes: tuple[int, ...]) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def _shift_match(
    level: int,
    base_t: int,
    word_t: tuple[int, ...],
    m: int,
    base_s: int,
    word_s: tuple[int, ...],
    n: int,
) -> bool:
    if (base_t + m) % level != (base_s + n) % level:
        return False
    a, b = word_t[m:], word_s[n:]
    overlap = min(len(a), len(b))
    return a[:overlap] == b[:overlap]


def pair_scan_arrows(k: int, level: int, depth: int, max_disp: int) -> set[tuple]:
    """Scan every cylinder pair and every witness; keep minimal witnesses.

    Returns tuples (source base, source word, target base, target word, m, n).
    """
    alphabet = tuple(range(1, k + 1))
    cylinders = [
        (b, w) for b in range(level) for w in product(alphabet, repeat=depth)
    ]
    found = set()
    for base_s, word_s in cylinders:
        for base_t, word_t in cylinders:
            for m in range(max_disp + 1):
                for n in range(max_disp + 1):
                    if not _shift_match(level, base_t, word_t, m, base_s, word_s, n):
                        continue
                    if (
                        m >= 1
                        and n >= 1
                        and _shift_match(
                            level, base_t, word_t, m - 1, base_s, word_s, n - 1
                        )
                    ):
                        continue
                    found.add((base_s, word_s, base_t, word_t, m, n))
    return found


def naive_order_in_cyclic(residue: int, modulus: int) -> int:
    """Order of a residue by direct iteration."""
    current = residue % modulus
    order = 1
    while current != 0:
        current = (current + residue) % modulus
        order += 1
    return order


def naive_multiplicative_order(k: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    t, acc = 1, k % modulus
    while acc != 1:
        acc = acc * k % modulus
        t += 1
    return t


def trial_division_factorize(n: int) -> dict[int, int]:
    powers: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        powers[n] = powers.get(n, 0) + 1
    return powers


def valuation_by_division(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
