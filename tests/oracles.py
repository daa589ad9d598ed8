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


def residue_scan_isotropy(levels: tuple[int, ...], bound: int) -> tuple[int, int] | None:
    """(stage, level) of the first level where no 0 < |d| <= bound fixes a residue.

    Checks every displacement against every residue; None when each stored
    level has some residue fixed by some displacement in range.
    """
    for stage, level in enumerate(levels, start=1):
        if all(
            (x + d) % level != x and (x - d) % level != x
            for d in range(1, bound + 1)
            for x in range(level)
        ):
            return stage, level
    return None


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


def searched_order_witness(k: int, p: int, s: int) -> tuple[int, int]:
    """(q, r) of the least prime power q**r dividing k**(p**s) - 1 but not k**(p**(s-1)) - 1.

    Scans the full factorization of k**(p**s) - 1 (sympy's ``factorint``)
    for the least prime whose multiplicity exceeds the one in
    k**(p**(s-1)) - 1, and takes r one above that smaller multiplicity.
    """
    from sympy import factorint

    big = k ** (p ** s) - 1
    small = k ** (p ** (s - 1)) - 1
    for q, a in sorted(factorint(big).items()):
        b = valuation_by_division(small, q)
        if a > b:
            return q, b + 1
    raise AssertionError(f"{k}**({p}**{s}) - 1 gains no prime power")


def lte_supremum(k: int, first: int, ratio: int, q: int) -> int | None:
    """Supremum of v_q(k**n - 1) over the levels n = first * ratio**i; None when unbounded.

    Uses the lifted-exponent identities: for odd q with d = ord_q(k) and
    d | n, v_q(k**n - 1) = v_q(k**d - 1) + v_q(n/d); for q = 2 and odd k,
    v_2(k**n - 1) is v_2(k-1) for odd n and v_2(k-1) + v_2(k+1) + v_2(n) - 1
    for even n.  Orders and factorizations come from sympy.
    """
    from sympy import factorint
    from sympy.ntheory import n_order

    c, r, v = first, ratio, valuation_by_division
    if k % q == 0:
        return 0
    if q == 2:
        if r % 2 == 0:
            return None
        if c % 2 == 1:
            return v(k - 1, 2)
        return v(k - 1, 2) + v(k + 1, 2) + v(c, 2) - 1
    d = n_order(k, q)
    for t, e in factorint(d).items():
        if r % t != 0 and v(c, t) < e:
            return 0
    if r % q == 0:
        return None
    return v(k ** d - 1, q) + v(c, q) - v(d, q)


def kpower_horner_psi(f):
    """psi by a Horner pass in Z[1/k], reduced through the localized quotient.

    Each step multiplies a ``KPowerRational`` by k and adds the next value;
    the exact sum is then reduced modulo k**n - 1 as a rational.
    """
    from kcalc.abelian import quotient_localized_by_m
    from kcalc.arith import KPowerRational, SupernaturalNumber

    k, n = f.k, f.level
    acc = KPowerRational.zero(k)
    for j in range(n - 1, -1, -1):
        acc = KPowerRational(k, acc.numer * k, acc.expo) + f.values[j]
    quotient = quotient_localized_by_m(
        SupernaturalNumber.from_powers({p: None for p in trial_division_factorize(k)}), k ** n - 1
    )
    return quotient.reduce(acc.as_fraction())


def double_sum_membership_series(f):
    """Series membership with each g(x) summed over all n shifts: O(n**2) steps.

    g(x) = (k**n / (k**n - 1)) * sum_{j=0}^{n-1} k**-j f(x - j) for every x,
    in exact rational arithmetic.
    """
    from kcalc.arith import KPowerRational
    from kcalc.odometer import LocallyConstantFn, SeriesMembership, pv_endomorphism

    k, n = f.k, f.level
    scale = Fraction(k ** n, k ** n - 1)
    values = [v.as_fraction() for v in f.values]
    g_values = []
    for x in range(n):
        s = sum(Fraction(values[(x - j) % n], k ** j) for j in range(n))
        g_values.append(scale * s)
    if not all(KPowerRational.fraction_in_ring(v, k) for v in g_values):
        return SeriesMembership(None)
    g = LocallyConstantFn.from_fractions(k, g_values)
    recovered = g - pv_endomorphism(g)
    if recovered != f:
        raise RuntimeError("series witness failed to reproduce the input exactly")
    return SeriesMembership(g)


def tensor_route_identification(k: int, depth: int) -> dict:
    """The Cuntz identification the long way: the whole tower, tensored stage by stage.

    Builds every modulus k**n - 1 of the tower for levels k**(i-1) through
    ``k0_odometer``, tensors each stage with the localized group of type
    complement(k - 1), and reads the tensored orders, cofactor residues, unit
    images and induced multipliers off those groups and maps.  K_0 is the last
    tensored stage and K_1 = 0 comes from the per-level kernel certificates.
    Returns the fields and derived values of a ``CuntzIdentification``
    (without its citations and its stored congruence, which each stage
    repeats), each stage as a dict that also holds its level, modulus and
    cofactor.
    """
    from kcalc.abelian import tensor_cyclic_with_localized
    from kcalc.arith import SupernaturalNumber, prime_factors
    from kcalc.colimit import Geometric
    from kcalc.odometer import OdometerSpec, k0_odometer

    target = k - 1
    rule = Geometric(1, k)
    spec = OdometerSpec(k, rule.levels(depth), rule=rule)
    tower = k0_odometer(spec)
    s = SupernaturalNumber.coprime_complement(target)
    primes = prime_factors(target) if target > 1 else []
    stages = []
    for i, (level, m, unit) in enumerate(
        zip(spec.levels, tower.k0.moduli, tower.k0.unit_thread), start=1
    ):
        tensored = tensor_cyclic_with_localized(m, s)
        cofactor = m // target
        stages.append(
            {
                "k": k,
                "stage": i,
                "level": level,
                "modulus": m,
                "tensored_modulus": tensored.modulus,
                "cofactor": cofactor,
                "cofactor_congruences": tuple((p, cofactor % p) for p in primes),
                "unit_image": tensored.surjection(unit).residue,
            }
        )
    return {
        "k": k,
        "depth": depth,
        "supernatural": s,
        "levels": spec.levels,
        "moduli": tower.k0.moduli,
        "stages": stages,
        "induced_multipliers": tuple(h.multiplier % target for h in tower.k0.maps),
        "k0_order": stages[-1]["tensored_modulus"],
        "unit_class": stages[-1]["unit_image"],
        "k1_trivial": tower.k1_trivial,
    }


def graph_homology(k: int, N: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Relations and invariant factors of H_0 of the level-N graph groupoid.

    The level-N graph has k edges from each vertex x to x + 1 (mod N), so
    its adjacency matrix is A = k*P, P the cyclic shift, and its groupoid has
    H_0 = coker(1 - A^T) and H_1 = ker(1 - A^T) (H. Matui, "Homology and
    topological full groups of etale groupoids on totally disconnected
    spaces", Proc. LMS 104, 2012).  Column x of 1 - A^T is e_x - k*e_{x+1}.
    Returns those columns and the absolute diagonal of sympy's Smith normal
    form of 1 - A^T over the integers, in its divisibility order; a 0 among
    them would be a free summand of H_0 and of H_1.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    columns = [
        tuple(int(y == x) - k * int(y == (x + 1) % N) for y in range(N)) for x in range(N)
    ]
    relations = Matrix(N, N, lambda y, x: columns[x][y])
    diagonal = smith_normal_form(relations, domain=ZZ)
    return columns, [abs(int(diagonal[i, i])) for i in range(N)]


def full_parser():
    """The kcalc parser with the options of every subcommand configured.

    This is how the CLI built its parser before ``build_parser`` learned to
    configure only the subcommand its argv names: same program name,
    description and subcommand table, but every subparser gets its options.
    """
    import argparse

    from kcalc.cli import _SUBCOMMANDS

    parser = argparse.ArgumentParser(
        prog="kcalc",
        description="Exact K-theory computations for odometer towers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_, add_options) in _SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_))
    return parser
