"""Exact arithmetic foundation.

Elements of Z[1/k] (integers with a distinguished inverted base),
supernatural numbers, p-adic valuations, integer factorization and
multiplicative orders.  Everything
here is integer-exact; the library never touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

__all__ = [
    "DEFAULT_BUDGET_BITS",
    "FactorizationBudgetError",
    "KPowerRational",
    "SupernaturalNumber",
    "is_prime",
    "valuation",
    "factorize",
    "prime_factors",
    "euler_phi",
    "multiplicative_order",
    "radical_divides",
]

DEFAULT_BUDGET_BITS = 96

_TRIAL_LIMIT = 10 ** 6

# Miller-Rabin witnesses; this set is deterministic for n < 3.3e24.  Larger
# inputs (still capped by the factorization size guard) reuse the same bases
# plus a fixed tail, so the test stays deterministic for a given input.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_TAIL = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


class FactorizationBudgetError(Exception):
    """Factorization target exceeds the configured size guard."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test with a fixed witness set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES if n < _MR_PROVEN_BOUND else _MR_BASES + _MR_TAIL
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    """v_p(n): the exact multiplicity of the prime p in n != 0."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def radical_divides(m: int, d: int) -> bool:
    """True iff every prime factor of m also divides d."""
    if m < 1 or d < 1:
        raise ValueError("radical_divides expects positive integers")
    while m > 1:
        g = math.gcd(m, d)
        if g == 1:
            return False
        while m % g == 0:
            m //= g
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, Brent's cycle variant.

    Seeded deterministically from n, so repeated runs factor identically.
    """
    rng = Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_into(n: int, powers: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        powers[n] = powers.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, powers)
    _factor_into(n // d, powers)


def factorize(n: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> dict[int, int]:
    """Prime factorization of n >= 1 as a map prime -> multiplicity.

    Trial division (2-3-5 wheel) up to 10**6, then deterministic-seeded
    Brent rho on the remaining cofactor.  Inputs above 2**budget_bits raise
    FactorizationBudgetError.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if n.bit_length() > budget_bits:
        raise FactorizationBudgetError(
            f"factorization out of budget: input has {n.bit_length()} bits, "
            f"guard is {budget_bits} bits"
        )
    powers: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    p, i = 7, 0
    while p <= _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
        p += _WHEEL[i]
        i = (i + 1) % 8
    if n > 1:
        if p * p > n:
            powers[n] = powers.get(n, 0) + 1
        else:
            _factor_into(n, powers)
    return powers


def prime_factors(n: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    return sorted(factorize(n, budget_bits=budget_bits))


def euler_phi(n: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> int:
    """Euler's totient of n >= 1."""
    phi = 1
    for p, e in factorize(n, budget_bits=budget_bits).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(k: int, modulus: int) -> int:
    """Least t >= 1 with k**t == 1 (mod modulus).

    The trivial modulus 1 has order 1 by convention.  Raises ValueError when
    k is not a unit modulo the modulus.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    if math.gcd(k, modulus) != 1:
        raise ValueError(f"{k} is not a unit modulo {modulus}")
    t = euler_phi(modulus)
    for p in prime_factors(t):
        while t % p == 0 and pow(k, t // p, modulus) == 1:
            t //= p
    return t


class KPowerRational:
    """An element of Z[1/k], stored as numer / base**expo.

    Normal form: expo == 0, or base does not divide numer.  Instances are
    immutable by convention; arithmetic requires equal bases and always
    re-normalizes.
    """

    __slots__ = ("base", "numer", "expo")

    def __init__(self, base: int, numer: int, expo: int = 0):
        if base < 2:
            raise ValueError("base must be >= 2")
        if expo < 0:
            raise ValueError("exponent must be non-negative")
        if numer == 0:
            expo = 0
        else:
            while expo > 0 and numer % base == 0:
                numer //= base
                expo -= 1
        self.base = base
        self.numer = numer
        self.expo = expo

    @classmethod
    def zero(cls, base: int) -> "KPowerRational":
        return cls(base, 0)

    @classmethod
    def one(cls, base: int) -> "KPowerRational":
        return cls(base, 1)

    @classmethod
    def from_fraction(cls, base: int, value: Fraction | int) -> "KPowerRational":
        """Convert an exact rational lying in Z[1/base]; ValueError otherwise."""
        value = Fraction(value)
        den = value.denominator
        if not radical_divides(den, base):
            raise ValueError(f"{value} does not lie in Z[1/{base}]")
        power, e = 1, 0
        while power % den != 0:
            power *= base
            e += 1
        return cls(base, value.numerator * (power // den), e)

    @staticmethod
    def fraction_in_ring(value: Fraction, base: int) -> bool:
        """True iff the exact rational lies in Z[1/base]."""
        return radical_divides(value.denominator, base)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numer, self.base ** self.expo)

    def times_int(self, c: int) -> "KPowerRational":
        return KPowerRational(self.base, self.numer * c, self.expo)

    def times_base_power(self, e: int) -> "KPowerRational":
        """Multiply by base**e; e may be negative."""
        new = self.expo - e
        if new >= 0:
            return KPowerRational(self.base, self.numer, new)
        return KPowerRational(self.base, self.numer * self.base ** (-new), 0)

    @property
    def is_zero(self) -> bool:
        return self.numer == 0

    @property
    def is_integer(self) -> bool:
        return self.expo == 0

    def _check_base(self, other: "KPowerRational") -> None:
        if self.base != other.base:
            raise ValueError(f"mixed bases: {self.base} and {other.base}")

    def __add__(self, other: "KPowerRational") -> "KPowerRational":
        if not isinstance(other, KPowerRational):
            return NotImplemented
        self._check_base(other)
        if self.expo == other.expo:
            return KPowerRational(self.base, self.numer + other.numer, self.expo)
        if self.expo > other.expo:
            hi, lo = self, other
        else:
            hi, lo = other, self
        lifted = lo.numer * self.base ** (hi.expo - lo.expo)
        return KPowerRational(self.base, hi.numer + lifted, hi.expo)

    def __neg__(self) -> "KPowerRational":
        return KPowerRational(self.base, -self.numer, self.expo)

    def __sub__(self, other: "KPowerRational") -> "KPowerRational":
        if not isinstance(other, KPowerRational):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.times_int(other)
        if isinstance(other, KPowerRational):
            self._check_base(other)
            return KPowerRational(
                self.base, self.numer * other.numer, self.expo + other.expo
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPowerRational):
            return NotImplemented
        if self.base == other.base:
            return self.numer == other.numer and self.expo == other.expo
        return self.as_fraction() == other.as_fraction()

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __bool__(self) -> bool:
        return self.numer != 0

    def __repr__(self) -> str:
        if self.expo == 0:
            return f"KPowerRational({self.numer}, base={self.base})"
        return f"KPowerRational({self.numer}/{self.base}^{self.expo})"

    def __str__(self) -> str:
        return str(self.as_fraction())


class SupernaturalNumber:
    """A divisibility type: formal product of primes with multiplicities in N or infinity.

    Two constructors cover everything the toolkit needs:

    * ``from_powers({p: e or None})`` -- an explicit description; ``None``
      means infinite multiplicity, primes not listed have multiplicity 0.
    * ``coprime_complement(d)`` -- every prime not dividing d has infinite
      multiplicity, every prime dividing d has multiplicity 0.
    """

    __slots__ = ("_kind", "_powers", "_coprime_to")

    _FINITE = "finite"
    _COMPLEMENT = "coprime_complement"

    def __init__(self):
        raise TypeError("use SupernaturalNumber.from_powers or .coprime_complement")

    @classmethod
    def _make(cls, kind, powers, coprime_to) -> "SupernaturalNumber":
        self = object.__new__(cls)
        self._kind = kind
        self._powers = powers
        self._coprime_to = coprime_to
        return self

    @classmethod
    def from_powers(cls, powers: dict[int, int | None]) -> "SupernaturalNumber":
        clean: dict[int, int | None] = {}
        for p, e in powers.items():
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e is None:
                clean[p] = None
            elif e < 0:
                raise ValueError("multiplicity must be non-negative or None")
            elif e > 0:
                clean[p] = e
        return cls._make(cls._FINITE, clean, None)

    @classmethod
    def coprime_complement(cls, d: int) -> "SupernaturalNumber":
        if d < 1:
            raise ValueError("d must be positive")
        rad = 1
        for p in prime_factors(d):
            rad *= p
        return cls._make(cls._COMPLEMENT, None, rad)

    @classmethod
    def infinite_powers_of(cls, k: int) -> "SupernaturalNumber":
        """The supernatural number k^infinity (all primes of k, infinitely often)."""
        if k < 2:
            raise ValueError("k must be >= 2")
        return cls.from_powers({p: None for p in prime_factors(k)})

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def finite_powers(self) -> dict[int, int | None]:
        if self._kind != self._FINITE:
            raise ValueError("not a finitely described supernatural number")
        return dict(self._powers)

    @property
    def complement_radical(self) -> int:
        if self._kind != self._COMPLEMENT:
            raise ValueError("not a coprime-complement supernatural number")
        return self._coprime_to

    def multiplicity(self, p: int) -> int | None:
        """v_p of this supernatural number; None encodes infinity."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if self._kind == self._FINITE:
            return self._powers.get(p, 0)
        return 0 if self._coprime_to % p == 0 else None

    def admits(self, m: int) -> bool:
        """True iff every prime p satisfies v_p(m) <= v_p(self)."""
        if m < 1:
            raise ValueError("m must be positive")
        if self._kind == self._COMPLEMENT:
            return math.gcd(m, self._coprime_to) == 1
        rem = m
        for p, mult in self._powers.items():
            if mult is None:
                while rem % p == 0:
                    rem //= p
            else:
                for _ in range(mult):
                    if rem % p:
                        break
                    rem //= p
                if rem % p == 0:
                    return False
        return rem == 1

    def coprime_to_all_of(self, m: int) -> bool:
        """True iff every prime of m has multiplicity 0 here."""
        if m < 1:
            raise ValueError("m must be positive")
        if self._kind == self._FINITE:
            return all(m % p != 0 for p in self._powers)
        return radical_divides(m, self._coprime_to)

    def describe(self) -> str:
        if self._kind == self._COMPLEMENT:
            return f"complement({self._coprime_to})"
        if not self._powers:
            return "1"
        parts = []
        for p in sorted(self._powers):
            e = self._powers[p]
            parts.append(f"{p}^inf" if e is None else f"{p}^{e}")
        return "*".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        if self._kind != other._kind:
            return False
        if self._kind == self._FINITE:
            return self._powers == other._powers
        return self._coprime_to == other._coprime_to

    def __hash__(self) -> int:
        if self._kind == self._FINITE:
            return hash((self._kind, frozenset(self._powers.items())))
        return hash((self._kind, self._coprime_to))

    def __repr__(self) -> str:
        return f"SupernaturalNumber({self.describe()})"
