"""Cyclic groups, localized-integer groups and the maps between them.

Groups are carried by their invariants (a modulus, or a denominator
constraint), never by element sets: everything in scope is cyclic or a
localization of Z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import SupernaturalNumber, prime_factors, valuation

__all__ = [
    "CyclicElement",
    "CyclicHom",
    "LocalizedQuotient",
    "TensorReduction",
    "Comparison",
    "LevelMismatchError",
    "LocallyConstantProjectionClass",
    "quotient_localized_by_m",
    "tensor_cyclic_with_localized",
    "compare_projection_classes",
    "refine_level",
]


@dataclass(frozen=True)
class CyclicElement:
    """An element of Z_m, stored as a reduced residue (m = 1 is the trivial group)."""

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def _check(self, other: "CyclicElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __add__(self, other: "CyclicElement") -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            return NotImplemented
        self._check(other)
        return CyclicElement(self.modulus, self.residue + other.residue)

    def __neg__(self) -> "CyclicElement":
        return CyclicElement(self.modulus, -self.residue)

    def __sub__(self, other: "CyclicElement") -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int) -> "CyclicElement":
        return CyclicElement(self.modulus, self.residue * c)

    def order(self) -> int:
        """Order of the element: modulus / gcd(residue, modulus)."""
        return self.modulus // math.gcd(self.residue, self.modulus)


@dataclass(frozen=True)
class CyclicHom:
    """The homomorphism Z_m -> Z_m' given by multiplication.

    Well-definedness requires source_modulus * multiplier == 0 in the target.
    """

    source_modulus: int
    target_modulus: int
    multiplier: int

    def __post_init__(self):
        if self.source_modulus < 1 or self.target_modulus < 1:
            raise ValueError("moduli must be positive")
        object.__setattr__(self, "multiplier", self.multiplier % self.target_modulus)
        if (self.source_modulus * self.multiplier) % self.target_modulus != 0:
            raise ValueError(
                f"multiplication by {self.multiplier} is not well defined "
                f"Z_{self.source_modulus} -> Z_{self.target_modulus}"
            )

    @classmethod
    def identity(cls, modulus: int) -> "CyclicHom":
        return cls(modulus, modulus, 1)

    def __call__(self, e: CyclicElement) -> CyclicElement:
        if e.modulus != self.source_modulus:
            raise ValueError("element does not live in the source group")
        return CyclicElement(self.target_modulus, e.residue * self.multiplier)

    def then(self, nxt: "CyclicHom") -> "CyclicHom":
        """Composite self followed by nxt."""
        if nxt.source_modulus != self.target_modulus:
            raise ValueError("homomorphisms do not compose")
        return CyclicHom(
            self.source_modulus,
            nxt.target_modulus,
            self.multiplier * nxt.multiplier,
        )

    def kernel_size(self) -> int:
        g = math.gcd(self.multiplier, self.target_modulus)
        return self.source_modulus * g // self.target_modulus

    def is_injective(self) -> bool:
        return self.kernel_size() == 1


@dataclass(frozen=True)
class LocalizedQuotient:
    """The quotient of a localized-integer group by m, identified with Z_m.

    ``reduce`` sends a/b to a * b^{-1} (mod m); this is a surjective
    homomorphism whose kernel is m times the localized group.
    """

    modulus: int
    constraint: SupernaturalNumber

    def reduce(self, x: Fraction | int) -> CyclicElement:
        fr = Fraction(x)
        if not self.constraint.admits(fr.denominator):
            raise ValueError(
                f"{fr} does not lie in the localized group "
                f"(constraint {self.constraint.describe()})"
            )
        num, den = fr.numerator, fr.denominator
        if self.modulus == 1:
            return CyclicElement(1, 0)
        return CyclicElement(self.modulus, num * pow(den, -1, self.modulus))


def quotient_localized_by_m(s: SupernaturalNumber, m: int) -> LocalizedQuotient:
    """Quotient of the localized group with constraint s by the integer m.

    Requires m coprime to s (every prime of m has multiplicity 0 in s), which
    makes every admissible denominator invertible modulo m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not s.coprime_to_all_of(m):
        raise ValueError(
            f"{m} shares a prime with the supernatural number {s.describe()}"
        )
    return LocalizedQuotient(m, s)


@dataclass(frozen=True)
class TensorReduction:
    """Tensor of Z_m with a localized-integer group, with its surjection data.

    The result is cyclic of order ``modulus`` (the part of m at primes where
    the constraint has finite multiplicity; at infinite-multiplicity primes
    the localized group is divisible and that part of m collapses).
    ``generator_image`` is the image of 1 (x) [unit class].
    """

    source_modulus: int
    modulus: int
    generator_image: CyclicElement
    surjection: CyclicHom


def tensor_cyclic_with_localized(m: int, s: SupernaturalNumber) -> TensorReduction:
    """Identify Z_m tensor (localized group of type s) with a cyclic group.

    The surviving modulus keeps p^{v_p(m)} exactly when v_p(s) is finite;
    primes with infinite multiplicity make the localized group p-divisible
    and are cancelled.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if s.kind == "finite":
        bar = m
        for p, mult in s.finite_powers.items():
            if mult is None:
                while bar % p == 0:
                    bar //= p
    else:
        bar = 1
        for p in prime_factors(s.complement_radical):
            bar *= p ** valuation(m, p) if m % p == 0 else 1
    return TensorReduction(
        source_modulus=m,
        modulus=bar,
        generator_image=CyclicElement(bar, 1),
        surjection=CyclicHom(m, bar, 1),
    )


class Comparison(enum.Enum):
    EQUAL = "equal"
    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    INCOMPARABLE = "incomparable"


class LevelMismatchError(ValueError):
    """Comparison attempted at different levels; refine to a common level first."""


@dataclass(frozen=True)
class LocallyConstantProjectionClass:
    """A level-n locally constant class of projections, recorded by its traces.

    Entry j is the trace value at the residue j of the level-n cyclic
    quotient.  Every trace is non-negative and its denominator is admitted by
    ``constraint``, the supernatural number of the localized group the
    traces live in.
    """

    level: int
    constraint: SupernaturalNumber
    traces: tuple[Fraction, ...]

    def __post_init__(self):
        if self.level < 1 or len(self.traces) != self.level:
            raise ValueError("trace vector length must equal the level")
        for t in self.traces:
            if t < 0:
                raise ValueError("projection traces must be non-negative")
            if not self.constraint.admits(t.denominator):
                raise ValueError(
                    f"trace {t} violates constraint {self.constraint.describe()}"
                )


def compare_projection_classes(
    f: LocallyConstantProjectionClass, g: LocallyConstantProjectionClass
) -> Comparison:
    """Pointwise comparison of trace vectors at a common level."""
    if f.level != g.level:
        raise LevelMismatchError(
            f"levels {f.level} and {g.level} are incomparable representations"
        )
    if f.constraint != g.constraint:
        raise ValueError("mixed denominator constraints")
    le = all(a <= b for a, b in zip(f.traces, g.traces))
    ge = all(a >= b for a, b in zip(f.traces, g.traces))
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LESS_EQUAL
    if ge:
        return Comparison.GREATER_EQUAL
    return Comparison.INCOMPARABLE


def refine_level(
    f: LocallyConstantProjectionClass, finer_level: int
) -> LocallyConstantProjectionClass:
    """Re-express a level-n class at a finer level n' with n | n'.

    The entry at x in Z_{n'} is the entry at x mod n, so comparisons are
    invariant under common refinement.
    """
    if finer_level % f.level != 0:
        raise ValueError(f"{f.level} does not divide {finer_level}")
    return LocallyConstantProjectionClass(
        finer_level,
        f.constraint,
        tuple(f.traces[x % f.level] for x in range(finer_level)),
    )
