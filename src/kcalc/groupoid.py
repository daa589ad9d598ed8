"""Finite truncations of the path-space groupoid.

The graph at vertex level N has vertices Z_N and edges Z_N x {1..k}, with
source map (x, i) -> x and range map (x, i) -> x + 1.  Infinite paths are
approximated by cylinders (a base residue plus a finite word prefix); the
one-sided shift advances the base and drops the first letter.  An arrow
class is a statement about cylinders: two shift exponents under which the
source and target cylinders agree at the available resolution.  Refining
the word depth splits each class into k copies per extra letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Sequence

from .odometer import OdometerSpec

__all__ = [
    "Cylinder",
    "ArrowClass",
    "ProductArrow",
    "AfProduct",
    "IsotropyCertificate",
    "ResolutionExhaustedError",
    "InsufficientPrefixError",
    "cylinders_comparable",
    "enumerate_arrows",
    "compose_arrows",
    "invert_arrow",
    "refine_arrow",
    "certify_no_isotropy",
    "product_with_af",
    "compose_product_arrows",
]

# Product arrows materialized by ``product_with_af``.
_AF_SAMPLES = 10


class ResolutionExhaustedError(ValueError):
    """A cylinder with an empty word cannot be shifted further."""


class InsufficientPrefixError(ValueError):
    """No stored level is fine enough to certify the requested bound."""


@dataclass(frozen=True)
class Cylinder:
    """Paths whose base projects to ``base`` in Z_level and start with ``word``."""

    level: int
    base: int
    word: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("vertex level must be positive")
        object.__setattr__(self, "base", self.base % self.level)
        object.__setattr__(self, "word", tuple(self.word))

    @property
    def depth(self) -> int:
        return len(self.word)

    def shift(self) -> "Cylinder":
        """Advance the base by one and drop the first letter."""
        if not self.word:
            raise ResolutionExhaustedError("cylinder word is empty; resolution exhausted")
        return Cylinder(self.level, self.base + 1, self.word[1:])

    def shifted(self, times: int) -> "Cylinder":
        c = self
        for _ in range(times):
            c = c.shift()
        return c


def cylinders_comparable(a: Cylinder, b: Cylinder) -> bool:
    """Equality at the available resolution: same base, words agree on the overlap."""
    if a.level != b.level or a.base != b.base:
        return False
    overlap = min(a.depth, b.depth)
    return a.word[:overlap] == b.word[:overlap]


@dataclass(frozen=True)
class ArrowClass:
    """An arrow class (target, m - n, source) at cylinder resolution.

    The witness exponents satisfy shift^m(target) = shift^n(source) at the
    available resolution; the displacement m - n is how far the target runs
    ahead of the source.
    """

    source: Cylinder
    target: Cylinder
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("shift exponents must be non-negative")
        if self.source.level != self.target.level:
            raise ValueError("source and target live at different vertex levels")
        if self.m > self.target.depth or self.n > self.source.depth:
            raise ResolutionExhaustedError("shift exponents exceed the word depth")
        if not cylinders_comparable(self.target.shifted(self.m), self.source.shifted(self.n)):
            raise ValueError("cylinders do not match under the declared shifts")

    @property
    def displacement(self) -> int:
        return self.m - self.n


def enumerate_arrows(
    k: int, vertex_level: int, depth: int, max_displacement: int
) -> list[ArrowClass]:
    """All arrow classes between depth-resolution cylinders, minimal witnesses only.

    Covers |displacement| <= max_displacement with shift exponents
    m, n <= max_displacement; per (source, target, displacement) only the
    least witness is produced (a pair (m, n) is dropped when (m-1, n-1)
    already connects the cylinders).  Requires max_displacement <= depth.

    The count has a closed form: each displacement contributes
    N * k**(depth + max_displacement) classes, independent of the
    displacement.
    """
    if k < 1 or vertex_level < 1 or depth < 0:
        raise ValueError("need k >= 1, vertex_level >= 1 and depth >= 0")
    if max_displacement < 0:
        raise ValueError("max_displacement must be non-negative")
    if max_displacement > depth:
        raise ValueError(
            f"max_displacement {max_displacement} exceeds depth {depth}: "
            "insufficient resolution"
        )
    alphabet = tuple(range(1, k + 1))
    n_vert = vertex_level
    arrows: list[ArrowClass] = []
    for d in range(-max_displacement, max_displacement + 1):
        for t in range(max_displacement - abs(d) + 1):
            m = max(d, 0) + t
            n = max(-d, 0) + t
            overlap = depth - max(m, n)
            free = list(range(m)) + list(range(m + overlap, depth))
            blocked_pos = free.index(m - 1) if t >= 1 else None
            for base_src in range(n_vert):
                base_tgt = (base_src + n - m) % n_vert
                for word_src in product(alphabet, repeat=depth):
                    word_tgt = [0] * depth
                    for j in range(overlap):
                        word_tgt[m + j] = word_src[n + j]
                    blocked = word_src[n - 1] if t >= 1 else None
                    for choice in product(alphabet, repeat=len(free)):
                        if blocked is not None and choice[blocked_pos] == blocked:
                            continue
                        for pos, letter in zip(free, choice):
                            word_tgt[pos] = letter
                        arrows.append(
                            ArrowClass(
                                source=Cylinder(n_vert, base_src, word_src),
                                target=Cylinder(n_vert, base_tgt, tuple(word_tgt)),
                                m=m,
                                n=n,
                            )
                        )
    return arrows


def compose_arrows(first: ArrowClass, second: ArrowClass) -> ArrowClass:
    """Composite of two arrow classes; defined when first.source == second.target.

    Displacements add; the witness exponents add componentwise, which may
    exceed the stored resolution (an error, not a silent truncation).
    """
    if first.source != second.target:
        raise ValueError("arrows are not composable at this resolution")
    return ArrowClass(
        source=second.source,
        target=first.target,
        m=first.m + second.m,
        n=first.n + second.n,
    )


def invert_arrow(a: ArrowClass) -> ArrowClass:
    """Inverse arrow class: swaps source and target, negates the displacement."""
    return ArrowClass(source=a.target, target=a.source, m=a.n, n=a.m)


def refine_arrow(a: ArrowClass, k: int) -> list[ArrowClass]:
    """Split an arrow class at one extra letter of depth: exactly k refinements.

    Extending both words by one letter leaves one letter free and forces the
    other through the shift-matching condition, so each class splits into k.
    """
    if a.source.depth != a.target.depth:
        raise ValueError("refinement expects uniform word depth")
    depth = a.source.depth
    m, n = a.m, a.n
    refined = []
    for letter in range(1, k + 1):
        if m > n:
            src_word = a.source.word + (letter,)
            tgt_word = a.target.word + (a.source.word[depth - (m - n)],)
        elif m < n:
            src_word = a.source.word + (a.target.word[depth - (n - m)],)
            tgt_word = a.target.word + (letter,)
        else:
            src_word = a.source.word + (letter,)
            tgt_word = a.target.word + (letter,)
        refined.append(
            ArrowClass(
                source=Cylinder(a.source.level, a.source.base, src_word),
                target=Cylinder(a.target.level, a.target.base, tgt_word),
                m=m,
                n=n,
            )
        )
    return refined


def certify_no_isotropy(spec: OdometerSpec, max_displacement: int) -> "IsotropyCertificate":
    """Certificate that small nonzero displacements admit no isotropy arrows.

    Finds the least stage whose level exceeds the displacement bound and
    checks, exhaustively over residues, that adding any displacement
    0 < |d| <= bound moves every residue.  At that vertex level (and any
    finer one) an arrow class with source equal to target forces the level
    to divide the displacement, so none exists in the certified range.
    """
    if max_displacement < 0:
        raise ValueError("displacement bound must be non-negative")
    for stage, level in enumerate(spec.levels, start=1):
        if level > max_displacement:
            checked = 0
            for d in range(1, max_displacement + 1):
                for x in range(level):
                    if (x + d) % level == x or (x - d) % level == x:
                        raise RuntimeError(
                            f"displacement {d} fixes residue {x} at level {level}"
                        )
                    checked += 1
            return IsotropyCertificate(
                stage=stage,
                level=level,
                max_displacement=max_displacement,
                residues_checked=checked,
            )
    raise InsufficientPrefixError(
        f"no stored level exceeds the displacement bound {max_displacement}"
    )


@dataclass(frozen=True)
class IsotropyCertificate:
    stage: int
    level: int
    max_displacement: int
    residues_checked: int


@dataclass(frozen=True)
class ProductArrow:
    """An arrow of the product with a full equivalence-relation block."""

    arrow: ArrowClass
    row: int
    col: int


@dataclass(frozen=True)
class AfProduct:
    count: int
    block_size: int
    samples: tuple[ProductArrow, ...]


def product_with_af(arrows: Sequence[ArrowClass], block_size: int) -> AfProduct:
    """Product with the full equivalence relation on a block of the given size.

    The product has exactly len(arrows) * block_size**2 arrows; a deterministic
    sample of them is materialized for inspection and composition tests.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    cells = (
        ProductArrow(a, row, col)
        for a in arrows
        for row in range(block_size)
        for col in range(block_size)
    )
    return AfProduct(
        count=len(arrows) * block_size ** 2,
        block_size=block_size,
        samples=tuple(islice(cells, _AF_SAMPLES)),
    )


def compose_product_arrows(first: ProductArrow, second: ProductArrow) -> ProductArrow:
    """Componentwise composition; defined iff both components compose."""
    if first.col != second.row:
        raise ValueError("block coordinates do not match")
    return ProductArrow(compose_arrows(first.arrow, second.arrow), first.row, second.col)
