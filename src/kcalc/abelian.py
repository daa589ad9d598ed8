"""Cyclic groups, localized-integer groups and the maps between them.

Elements of Z_m, multiplication maps between cyclic groups, the quotient
of a localized group by an integer, and the tensor of Z_m with a localized
group.  Groups are carried by their invariants (a modulus, or a
denominator constraint), never by element sets: everything in scope is
cyclic or a localization of Z.  A tensor reduction stores its two
moduli; its generator image and surjection are formed when read.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import SupernaturalNumber, _Value

__all__ = [
    "CyclicElement",
    "CyclicHom",
    "LocalizedQuotient",
    "TensorReduction",
    "quotient_localized_by_m",
    "tensor_cyclic_with_localized",
]


class CyclicElement(_Value):
    """An element of Z_m, stored as a reduced residue (m = 1 is the trivial group)."""

    __slots__ = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self._init(modulus, residue % modulus)

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


class CyclicHom(_Value):
    """The homomorphism Z_m -> Z_m' given by multiplication.

    Well-definedness requires source_modulus * multiplier == 0 in the target.
    """

    __slots__ = ("source_modulus", "target_modulus", "multiplier")

    def __init__(self, source_modulus: int, target_modulus: int, multiplier: int):
        if source_modulus < 1 or target_modulus < 1:
            raise ValueError("moduli must be positive")
        multiplier %= target_modulus
        if (source_modulus * multiplier) % target_modulus != 0:
            raise ValueError(
                f"multiplication by {multiplier} is not well defined "
                f"Z_{source_modulus} -> Z_{target_modulus}"
            )
        self._init(source_modulus, target_modulus, multiplier)

    def __call__(self, e: CyclicElement) -> CyclicElement:
        if e.modulus != self.source_modulus:
            raise ValueError("element does not live in the source group")
        return CyclicElement(self.target_modulus, e.residue * self.multiplier)


class LocalizedQuotient(_Value):
    """The quotient of a localized-integer group by m, identified with Z_m.

    Requires m >= 1 coprime to the constraint (every prime of m has
    multiplicity 0 in it), which makes every admissible denominator
    invertible modulo m.  ``reduce`` sends a/b to a * b^{-1} (mod m); this
    is a surjective homomorphism whose kernel is m times the localized group.
    """

    __slots__ = ("modulus", "constraint")

    def __init__(self, modulus: int, constraint: SupernaturalNumber):
        if not constraint.coprime_to_all_of(modulus):
            raise ValueError(
                f"{modulus} shares a prime with the supernatural number {constraint.describe()}"
            )
        self._init(modulus, constraint)

    def reduce(self, x: Fraction | int) -> CyclicElement:
        fr = Fraction(x)
        if not self.constraint.admits(fr.denominator):
            raise ValueError(
                f"{fr} does not lie in the localized group "
                f"(constraint {self.constraint.describe()})"
            )
        inverse = pow(fr.denominator, -1, self.modulus)
        return CyclicElement(self.modulus, fr.numerator * inverse)


def quotient_localized_by_m(s: SupernaturalNumber, m: int) -> LocalizedQuotient:
    """Quotient of the localized group with constraint s by the integer m; m must be coprime to s."""
    return LocalizedQuotient(m, s)


class TensorReduction(_Value):
    """Tensor of Z_m with a localized-integer group, with its surjection data.

    The result is cyclic of order ``modulus`` (the part of m at primes where
    the constraint has finite multiplicity; at infinite-multiplicity primes
    the localized group is divisible and that part of m collapses).  The
    generator image of 1 (x) [unit class] and the surjection from Z_m are
    formed when read.
    """

    __slots__ = ("source_modulus", "modulus")

    def __init__(self, source_modulus: int, modulus: int):
        if not 1 <= modulus <= source_modulus or source_modulus % modulus != 0:
            raise ValueError(f"Z_{source_modulus} has no quotient Z_{modulus}")
        self._init(source_modulus, modulus)

    @property
    def generator_image(self) -> CyclicElement:
        return CyclicElement(self.modulus, 1)

    @property
    def surjection(self) -> CyclicHom:
        return CyclicHom(self.source_modulus, self.modulus, 1)


def tensor_cyclic_with_localized(m: int, s: SupernaturalNumber) -> TensorReduction:
    """Identify Z_m tensor (localized group of type s) with a cyclic group.

    The surviving modulus is ``s.finite_part(m)``: it keeps p^{v_p(m)}
    exactly when v_p(s) is finite, and primes with infinite multiplicity
    make the localized group p-divisible and are cancelled.
    """
    return TensorReduction(m, s.finite_part(m))  # finite_part refuses m < 1
