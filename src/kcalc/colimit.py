"""Inductive limits of cyclic groups and their isomorphism invariants.

Colimit prefixes (connecting maps and unit thread read off the moduli),
the order spectrum, prime-power order witnesses, non-isomorphism tests for
limits built from geometric level rules, and the pipeline identifying the
UHF-tensored odometer tower with the K-theory of a Cuntz algebra, which
forms no level and no k**n: as k = 1 mod k-1, each stage's cofactor
1 + k + ... + k**(n-1) is n mod k-1, and every level n = k**(i-1) is 1
mod k-1, so the cofactor is 1 mod k-1 at every stage, which leaves nothing
to compute, and K_1 = 0 holds at every level.  The identification stores
only that congruence, and a verdict is distinct exactly when it holds a
witness.  The tower's levels and moduli themselves
come from ``odometer.k0_odometer`` under the level rule Geometric(1, k).
The witness's k**(p**s) - 1 raises ValueError if too long to print.
"""

from __future__ import annotations

from .abelian import CyclicElement, CyclicHom
from .arith import (
    DEFAULT_BUDGET_BITS,
    FactorizationBudgetError,
    SupernaturalNumber,
    _Value,
    _check_budget,
    _power_minus_one,
    factorize,
    is_prime,
    prime_factors,
    valuation,
)

__all__ = [
    "Geometric",
    "CyclicColimit",
    "OrderBound",
    "PrimePowerWitness",
    "DistinguishVerdict",
    "IdentificationStage",
    "CuntzIdentification",
    "order_spectrum",
    "prime_power_order_witness",
    "distinguish_colimits",
    "identify_cuntz_k_theory",
]


class Geometric(_Value):
    """The level rule n_i = first * ratio**(i-1), i >= 1."""

    __slots__ = ("first", "ratio")

    def __init__(self, first: int, ratio: int):
        if first < 1:
            raise ValueError("first level must be positive")
        if ratio < 2:
            raise ValueError("ratio must be >= 2 for strictly increasing levels")
        self._init(first, ratio)

    def level(self, i: int) -> int:
        if i < 1:
            raise ValueError("stages are numbered from 1")
        return self.first * self.ratio ** (i - 1)

    def levels(self, count: int) -> tuple[int, ...]:
        return tuple(self.level(i) for i in range(1, count + 1))


class CyclicColimit(_Value):
    """A finite prefix of an inductive sequence of cyclic groups Z_{m_i}.

    Each modulus divides the next, so multiplication by m_{i+1} / m_i is a
    well-defined injective connecting map; ``unit`` is the unit class in
    Z_{m_1}, or None, and the maps carry it along the unit thread.  Both are
    read off the moduli.  ``level_rule`` declares the prefix to be the tower
    Z_{k**n_i - 1} of an odometer whose levels n_i follow the rule; it lets
    order-spectrum statements be certified over all stages, not the prefix,
    so each m_{i+1} + 1 must be (m_i + 1)**ratio.
    """

    __slots__ = ("moduli", "unit", "level_rule")

    def __init__(
        self,
        moduli: tuple[int, ...],
        unit: int | None = None,
        level_rule: Geometric | None = None,
    ):
        if not moduli:
            raise ValueError("a colimit prefix needs at least one stage")
        if min(moduli) < 1 or any(b % a for a, b in zip(moduli, moduli[1:])):
            raise ValueError(f"moduli {moduli} are not positive, each dividing the next")
        if level_rule is not None:
            r = level_rule.ratio  # (a + 1)**r >= 2**(((a + 1).bit_length() - 1) * r) is not formed
            for a, b in zip(moduli, moduli[1:]):  # when that bound already exceeds b + 1
                if ((a + 1).bit_length() - 1) * r >= (b + 1).bit_length() or (a + 1) ** r != b + 1:
                    raise ValueError(f"moduli {moduli} do not follow the ratio {r} of the level rule")
        if unit is not None:
            unit %= moduli[0]
        self._init(moduli, unit, level_rule)

    @property
    def maps(self) -> tuple[CyclicHom, ...]:
        return tuple(CyclicHom(a, b, b // a) for a, b in zip(self.moduli, self.moduli[1:]))

    @property
    def unit_thread(self) -> tuple[CyclicElement, ...] | None:
        if self.unit is None:
            return None
        return tuple(CyclicElement(m, self.unit * (m // self.moduli[0])) for m in self.moduli)


class OrderBound(_Value):
    """Largest multiplicity of a prime among the prefix moduli.

    ``exact`` is True only when a level rule certifies that the supremum over
    all stages (not just the stored prefix) equals ``prefix_max``.
    """

    __slots__ = ("prefix_max", "exact")

    def __init__(self, prefix_max: int, exact: bool):
        self._init(prefix_max, exact)


def order_spectrum(
    colimit: CyclicColimit, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> dict[int, OrderBound]:
    """Prime-power element orders visible in the prefix.

    Maps each prime dividing some stage modulus to the largest multiplicity
    seen in the prefix.  Each modulus divides the next, so that multiplicity
    is the prime's multiplicity in the last modulus, and one factorization
    serves the whole prefix.

    The flag records whether the level rule certifies that this is the
    supremum over the whole sequence, which holds exactly when q does not
    divide the ratio r.  By lifting the exponent, once q divides k**n - 1 the
    multiplicity v_q(k**n - 1) depends on n only through v_q(n), and grows
    strictly with it: it is v_q(k**d - 1) + v_q(n) for odd q with
    d = ord_q(k) dividing n (q does not divide d, a divisor of q - 1), and
    for q = 2 it is v_2(k - 1) for odd n and v_2(k - 1) + v_2(k + 1) +
    v_2(n) - 1 for even n.  The levels n_i = c * r**(i-1) divide one
    another, so q divides every modulus from
    the first stage where it appears, which lies in the prefix.  When q does
    not divide r, v_q(n_i) = v_q(c) is constant and the multiplicity never
    moves again; when q divides r, v_q(n_i) and the multiplicity grow
    without bound.
    """
    powers = factorize(colimit.moduli[-1], budget_bits=budget_bits)
    rule = colimit.level_rule
    return {
        q: OrderBound(e, exact=rule is not None and rule.ratio % q != 0)
        for q, e in sorted(powers.items())
    }


class PrimePowerWitness(_Value):
    """A prime power q**r with ord_{q**r}(k) = p**s.

    Consequently q**r divides k**b - 1 exactly when p**s divides b, which is
    what makes the witness useful for telling inductive limits apart.
    """

    __slots__ = ("k", "p", "s", "q", "r")

    def __init__(self, k: int, p: int, s: int, q: int, r: int):
        for prime in (p, q):
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        big, small = p ** s, p ** (s - 1)
        qr = q ** r
        if pow(k, big, qr) != 1:
            raise ValueError(f"{qr} does not divide {k}**{big} - 1")
        if pow(k, small, qr) == 1:
            raise ValueError(f"{qr} divides {k}**{small} - 1")
        self._init(k, p, s, q, r)

    @property
    def order(self) -> int:
        return self.p ** self.s  # ord_{q**r}(k): divides p**s, not p**(s-1), as checked

    @property
    def prime_power(self) -> int:
        return self.q ** self.r

    def divisibility_holds(self, b: int) -> bool:
        """Check q**r | k**b - 1 <=> p**s | b for one exponent b."""
        return (pow(self.k, b, self.prime_power) == 1) == (b % self.order == 0)


def prime_power_order_witness(
    k: int, p: int, s: int, *, budget_bits: int = DEFAULT_BUDGET_BITS
) -> PrimePowerWitness:
    """Minimal prime power q**r dividing k**(p**s) - 1 but not k**(p**(s-1)) - 1.

    Minimality: smallest prime q, then the smallest exponent r exceeding the
    multiplicity of q in k**(p**(s-1)) - 1.  The primes whose multiplicity
    grows from k**(p**(s-1)) - 1 to k**(p**s) - 1 are those of the quotient,
    the cyclotomic value Phi_{p**s}(k), so q is its least prime and only the
    quotient is factorized (and held to the budget).  The order of k modulo
    q**r is then exactly p**s, which the returned witness certifies.

    Phi_{p**s}(k) > k**phi(p**s) >= 2**(phi(p**s) * (k.bit_length() - 1)),
    so the budget is checked on that bound before k**(p**s) is formed, and
    on s alone before p**s is formed: phi(p**s) >= 2**(s - 1) > budget_bits
    once s - 1 reaches the budget's bit length; the print limit comes next.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    _check_budget(budget_bits)
    if s - 1 >= budget_bits.bit_length() or p ** (s - 1) * (p - 1) * (k.bit_length() - 1) >= budget_bits:
        raise FactorizationBudgetError(
            f"factorization out of budget: Phi_{{{p}^{s}}}({k}) has more than"
            f" {budget_bits} bits, guard is {budget_bits} bits"
        )
    big = _power_minus_one(k, p ** s)  # the larger first: nothing unprintable is formed
    small = _power_minus_one(k, p ** (s - 1))
    q = min(factorize(big // small, budget_bits=budget_bits))
    return PrimePowerWitness(k, p, s, q, valuation(small, q) + 1)


class DistinguishVerdict(_Value):
    """Outcome of comparing two level rules at base k: a witness and its first stage, or neither."""

    __slots__ = ("witness", "first_stage_with_order")

    def __init__(
        self,
        witness: PrimePowerWitness | None = None,
        first_stage_with_order: int | None = None,
    ):
        if (witness is None) != (first_stage_with_order is None):
            raise ValueError("a verdict holds both a witness and its first stage, or neither")
        if first_stage_with_order is not None and first_stage_with_order < 1:
            raise ValueError("stages are numbered from 1")
        self._init(witness, first_stage_with_order)

    @property
    def distinct(self) -> bool:
        return self.witness is not None

    @property
    def verdict(self) -> str:
        return "distinct" if self.distinct else "inconclusive"


def distinguish_colimits(
    k: int,
    rule_a: Geometric,
    rule_b: Geometric,
    *,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> DistinguishVerdict:
    """Decide whether the two limits of Z_{k**n - 1} towers are non-isomorphic.

    Searches for a prime power p**s dividing some level of rule A but no
    level of rule B; for geometric rules this is a valuation check.  When
    one exists, the returned witness q**r gives an element order present in
    limit A and absent from limit B.  Without a qualifying prime power the
    answer is inconclusive (the limits may or may not be isomorphic).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    for p in prime_factors(rule_a.first * rule_a.ratio, budget_bits=budget_bits):
        if rule_b.ratio % p == 0:
            continue
        reach_b = valuation(rule_b.first, p)
        reach_a = valuation(rule_a.first, p)
        if rule_a.ratio % p != 0 and reach_a <= reach_b:
            continue
        s = reach_b + 1
        witness = prime_power_order_witness(k, p, s, budget_bits=budget_bits)
        if reach_a >= s:
            stage = 1
        else:
            stage = 1 + -(-(s - reach_a) // valuation(rule_a.ratio, p))
        return DistinguishVerdict(witness, stage)
    return DistinguishVerdict()


class IdentificationStage(_Value):
    """One certified stage of the UHF-tensored tower; every value but the fields is formed when read."""

    __slots__ = ("k", "stage", "cofactor_congruences")

    def __init__(self, k: int, stage: int, cofactor_congruences: tuple[tuple[int, int], ...]):
        self._init(k, stage, cofactor_congruences)

    @property
    def tensored_modulus(self) -> int:
        return self.k - 1  # no prime of k - 1 divides the cofactor, so the tensor keeps all of k - 1

    @property
    def unit_image(self) -> int:
        return 1 % (self.k - 1)  # the unit class, the cofactor, is 1 mod k - 1 by the congruence


class CuntzIdentification(_Value):
    """Certified identification of the tensored tower with K-theory of a Cuntz algebra.

    Every stage of the tower for levels n_i = k**(i-1), tensored with the
    localized group whose denominators avoid the primes of k - 1, is cyclic
    of order k - 1; the induced connecting maps are congruent to 1 modulo
    k - 1 (hence isomorphisms); and the unit thread lands on the generator 1.
    The concluding isomorphism of algebras is cited, not computed.  Only the
    congruence that certifies every stage is stored; the rest, the
    supernatural type of the localized group included, is formed when read.
    """

    __slots__ = ("k", "depth", "cofactor_congruences")

    citations = (
        "stage groups and connecting maps of all stages from one congruence,"
        " cofactor = 1 (mod k-1): exact computation",
        "Cuntz algebra K-theory K_0 = Z/(k-1), [1] -> 1, K_1 = 0: cited",
        "Kirchberg-Phillips classification: cited, not computed",
    )
    k1_trivial = True  # pivot 1 - k**-n: k**n - 1 = -1 (mod k) at every level n >= 1, never 0

    def __init__(self, k: int, depth: int, cofactor_congruences: tuple[tuple[int, int], ...]):
        self._init(k, depth, cofactor_congruences)

    @property
    def supernatural(self) -> SupernaturalNumber:
        """complement(k - 1), the localized group's type; the congruences name the primes of k - 1."""
        return SupernaturalNumber([(p, 0) for p, _ in self.cofactor_congruences], None)

    @property
    def k0_order(self) -> int:
        return self.k - 1

    @property
    def unit_class(self) -> int:
        return 1 % (self.k - 1)  # the cofactor c mod k - 1 at every stage, 1 by the congruence

    @property
    def induced_multipliers(self) -> tuple[int, ...]:
        return (self.unit_class,) * (self.depth - 1)  # c_{i+1} / c_i = c / c mod k - 1

    @property
    def stages(self) -> tuple[IdentificationStage, ...]:
        k, shared = self.k, self.cofactor_congruences
        return tuple(IdentificationStage(k, i, shared) for i in range(1, self.depth + 1))


def identify_cuntz_k_theory(k: int, depth: int) -> CuntzIdentification:
    """Certify K_0 = Z_{k-1} (unit at 1) and K_1 = 0 for the tensored tower.

    Stage i has level n = k**(i-1) and modulus k**n - 1 = M * c, M = k - 1,
    with cofactor c = 1 + k + ... + k**(n-1).  The congruence c = 1 (mod M)
    holds at every stage by proof: k = 1 (mod M), so c = n (mod M), and
    n = k**(i-1) = 1 (mod M).  Neither a level nor k**n is formed, and
    nothing is left to check.  The congruence implies the rest: no prime of
    M divides c, so the tensor with the localized group of type
    ``complement(M)`` has order M; c is 1 modulo every prime of M; the unit
    class c maps to 1 mod M; and the induced connecting multiplier
    c_{i+1} / c_i is 1 mod M.  Only that congruence is stored, at any depth.
    K_1 = 0 at every level, as the kernel pivot 1 - k**-n has numerator
    k**n - 1 = -1 (mod k).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return CuntzIdentification(k, depth, tuple((p, 1) for p in prime_factors(k - 1)))
