"""Exact arithmetic foundation.

Elements of Z[1/k] (integers with a distinguished inverted base),
supernatural numbers, p-adic valuations, integer factorization (small
primes, then Pollard p-1 (stage 1, bound B), then Brent rho, behind a size
guard) and multiplicative orders.  Factorizations are memoized per process,
up to a fixed bound of entries; the size guard is checked before the memo is
read.  A CLI run is one process, so only in-process callers reuse them: the
library, repeated ``kcalc.cli.main`` calls and ``selftest``.  Every k**n - 1
formed from a caller's n first passes ``_check_printable``, the print limit.
Everything here is integer-exact; the library never touches floating point.
"""

from __future__ import annotations

import functools
import math
import sys
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
    "multiplicative_order",
    "radical_divides",
]

DEFAULT_BUDGET_BITS = 96

# Miller-Rabin witnesses; this set is deterministic for n < 3.3e24.  Larger
# inputs (still capped by the factorization size guard) reuse the same bases
# plus a fixed tail, so the test stays deterministic for a given input.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_TAIL = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Stage-1 bound B of Pollard's p-1 method.  A prime q of Phi_d(k) not
# dividing d is 1 mod d, so q - 1 is often B-smooth for the small d of a
# tower.  A larger B makes every pass that finds nothing dearer.
_PM1_BOUND = 1024

# Entries kept by the factorization memo, least recently used first out.  A
# towers benchmark round factors about 140 distinct integers of at most 96
# bits, so the memo holds several rounds at a few hundred kilobytes.
_FACTOR_MEMO_SIZE = 1024


class FactorizationBudgetError(Exception):
    """Factorization target exceeds the configured size guard."""


def _check_budget(budget_bits: int) -> None:
    if budget_bits < 0:
        raise ValueError(f"budget_bits must be non-negative, got {budget_bits}")


@functools.lru_cache(maxsize=1)
def _digit_ceiling(limit: int) -> int:
    """10**limit, the least integer with limit + 1 digits (about 0.1 ms to form)."""
    return 10 ** limit


def _check_printable(k: int, n: int) -> None:
    """Refuse k**n - 1 with ValueError, before it is formed, if it cannot be printed.

    Python prints an integer of at most ``sys.get_int_max_str_digits()``
    digits, read at each call (0: no limit), and a result no report can print
    is one nobody can check.  Bit lengths settle every case but a narrow band
    near the limit, where k**n is formed.
    """
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        return
    ceiling = _digit_ceiling(limit)
    bits = ceiling.bit_length()  # 2**(bits - 1) <= ceiling < 2**bits
    b = k.bit_length()  # 2**(b - 1) <= k < 2**b
    if n * b < bits or (n * (b - 1) < bits and k ** n - 1 < ceiling):
        return
    power = f"{k}^{n} - 1" if n < ceiling else f"{k}^n - 1 (a level n of more than {limit} digits)"
    raise ValueError(
        f"{power} has more than {limit} digits, more than a report can print;"
        " use a smaller k or level"
    )


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


def _prime_powers_up_to(bound: int) -> tuple[int, ...]:
    """p**floor(log_p bound) for every prime p <= bound, in increasing p."""
    sieve = bytearray([1]) * (bound + 1)
    powers = []
    for p in range(2, bound + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
            q = p
            while q * p <= bound:
                q *= p
            powers.append(q)
    return tuple(powers)


_PM1_POWERS = _prime_powers_up_to(_PM1_BOUND)
_PM1_EXPONENT = math.prod(_PM1_POWERS)  # lcm(1..B)


def _pollard_pm1(n: int) -> int | None:
    """A proper factor of an odd composite n by one stage-1 p-1 pass, or None.

    Finds q | n whenever the order of 2 mod q divides lcm(1..B), e.g. when
    q - 1 is B-smooth.  A single gcd of 2**lcm(1..B) - 1 with n decides; if
    it is n (every prime of n is caught), the pass is redone one prime power
    at a time in increasing p; if that jumps from 1 to n, it is redone in
    decreasing p from the prime power where it jumped.  The first proper gcd
    is returned.  None means no split.
    """
    g = math.gcd(pow(2, _PM1_EXPONENT, n) - 1, n)
    if g == n:
        a = 2
        for top, q in enumerate(_PM1_POWERS):
            a = pow(a, q, n)
            g = math.gcd(a - 1, n)
            if g > 1:
                break
        if g == n:
            # Every order of 2 mod a prime of n divides the powers up to `top`
            # and is prime to those above it, which would change no gcd.
            a = 2
            for q in reversed(_PM1_POWERS[: top + 1]):
                a = pow(a, q, n)
                g = math.gcd(a - 1, n)
                if g > 1:
                    break
    return g if 1 < g < n else None


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
    d = _pollard_pm1(n) or _brent_rho(n)
    _factor_into(d, powers)
    _factor_into(n // d, powers)


def factorize(n: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> dict[int, int]:
    """Prime factorization of n >= 1 as a map prime -> multiplicity.

    Divides out the small primes 2..37 (the Miller-Rabin bases, which
    is_prime also divides by), then splits each composite cofactor by
    Pollard p-1 (stage 1, bound B = 1024) or, when that finds no proper
    divisor, by deterministic-seeded Brent rho, until is_prime accepts
    every part.  Inputs above 2**budget_bits raise FactorizationBudgetError;
    a negative budget raises ValueError.  These checks come first; then the
    result is read from a per-process memo of the last 1024 distinct inputs,
    or computed and stored there.  Each call returns a fresh dict.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    _check_budget(budget_bits)
    if n.bit_length() > budget_bits:
        raise FactorizationBudgetError(
            f"factorization out of budget: input has {n.bit_length()} bits, "
            f"guard is {budget_bits} bits"
        )
    return dict(_factor_pairs(n))


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, multiplicity) pairs of n >= 1 in the order they are found.

    The primes 2..37 come first, in increasing order.  Rho is seeded from n,
    so a memo hit returns what a recompute would.
    """
    powers: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    _factor_into(n, powers)
    return tuple(powers.items())


def prime_factors(n: int, *, budget_bits: int = DEFAULT_BUDGET_BITS) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    return sorted(factorize(n, budget_bits=budget_bits))


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
    t = 1  # Euler's totient of the modulus, a multiple of the order
    for p, e in factorize(modulus).items():
        t *= (p - 1) * p ** (e - 1)
    for p in prime_factors(t):
        while t % p == 0 and pow(k, t // p, modulus) == 1:
            t //= p
    return t


class _Value:
    """Base of the immutable value types of kcalc.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__`` parameters.  Its ``__init__`` checks the arguments and
    stores each field once, by ``_init`` or, on a hot path, by one call per
    field of that slot's setter, ``Cls.__dict__[name].__set__``, bound once
    at module level.  Equality and hash compare the fields in that order,
    and only between instances of the same class; the repr is
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError.  Copies and pickles pass the fields to ``__init__`` in
    order.  A value that follows from the fields is a property, not a field.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Store the fields, given in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


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


class SupernaturalNumber(_Value):
    """A divisibility type: formal product of primes with multiplicities in N or infinity.

    ``powers`` lists ``(prime, multiplicity)`` pairs sorted by prime, and
    ``rest`` is the multiplicity, 0 or None (infinity), of every prime not
    listed.  The constructor sorts the pairs and drops each whose
    multiplicity equals ``rest``, so equal numbers have equal fields; it
    raises ValueError for a non-prime, a prime listed twice, a multiplicity
    that is neither a non-negative integer nor None, or another ``rest``.
    Two named constructors cover what the toolkit needs:

    * ``from_powers({p: e or None})`` -- an explicit description; ``None``
      means infinite multiplicity, primes not listed have multiplicity 0.
    * ``coprime_complement(d)`` -- every prime not dividing d has infinite
      multiplicity, every prime dividing d has multiplicity 0.
    """

    __slots__ = ("powers", "rest")

    def __init__(self, powers, rest: int | None):
        if rest is not None and (type(rest) is not int or rest != 0):
            raise ValueError("rest must be 0 or None")
        listed: dict[int, int | None] = {}
        for p, e in powers:
            if type(p) is not int or not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e is not None and (type(e) is not int or e < 0):
                raise ValueError("multiplicity must be non-negative or None")
            if p in listed:
                raise ValueError(f"{p} is listed twice")
            listed[p] = e
        self._init(tuple(sorted((p, e) for p, e in listed.items() if e != rest)), rest)

    @classmethod
    def from_powers(cls, powers: dict[int, int | None]) -> "SupernaturalNumber":
        return cls(powers.items(), 0)

    @classmethod
    def coprime_complement(cls, d: int) -> "SupernaturalNumber":
        if d < 1:
            raise ValueError("d must be positive")
        return cls([(p, 0) for p in prime_factors(d)], None)

    def multiplicity(self, p: int) -> int | None:
        """v_p of this supernatural number; None encodes infinity."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return dict(self.powers).get(p, self.rest)

    def _split(self, m: int) -> tuple[list[tuple[int, int, int | None]], int]:
        """(p, v_p(m), multiplicity) for each listed prime p, and the rest of m."""
        if m < 1:
            raise ValueError("m must be positive")
        listed = []
        for p, e in self.powers:
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            listed.append((p, v, e))
        return listed, m

    def admits(self, m: int) -> bool:
        """True iff every prime p satisfies v_p(m) <= v_p(self)."""
        listed, rest = self._split(m)
        return all(e is None or v <= e for _, v, e in listed) and (
            rest == 1 or self.rest is None
        )

    def coprime_to_all_of(self, m: int) -> bool:
        """True iff every prime of m has multiplicity 0 here."""
        listed, rest = self._split(m)
        return all(v == 0 or e == 0 for _, v, e in listed) and (
            rest == 1 or self.rest == 0
        )

    def finite_part(self, m: int) -> int:
        """The part of m at the primes whose multiplicity here is finite."""
        listed, rest = self._split(m)
        part = 1 if self.rest is None else rest
        for p, v, e in listed:
            if e is not None:
                part *= p ** v
        return part

    def describe(self) -> str:
        """``complement(d)`` if rest is None, d the product of the listed primes,
        then ``p^e`` (``p^inf`` for infinity) for each listed p with e > 0."""
        parts = [f"{p}^inf" if e is None else f"{p}^{e}" for p, e in self.powers if e != 0]
        if self.rest is None:
            parts.insert(0, f"complement({math.prod(p for p, _ in self.powers)})")
        return "*".join(parts) or "1"

    def __repr__(self) -> str:
        return f"SupernaturalNumber({self.describe()})"
