"""Finite truncations of the path-space groupoid.

The graph at vertex level N has vertices Z_N and edges Z_N x {1..k}, with
source map (x, i) -> x and range map (x, i) -> x + 1.  Infinite paths are
approximated by cylinders (a base residue plus a finite word prefix); the
one-sided shift advances the base and drops the first letter.  An arrow
class is a statement about cylinders: two shift exponents under which the
source and target cylinders agree at the available resolution.  In closed
form, (target, m, n, source) is an arrow class when

    target.base + m == source.base + n  (mod N)  and
    target.word[m:m+o] == source.word[n:n+o],  o = min(target.depth - m, source.depth - n).

Enumeration runs over the displacement d = m - n, then t = min(m, n), the
source base, the source word, and the free letters of the target word (its
head before the overlap, then its tail after it).  Refining the word depth
splits each class into k copies per extra letter.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import Iterable, Iterator

from .arith import _Value
from .odometer import OdometerSpec

__all__ = [
    "Cylinder",
    "ArrowClass",
    "AfProduct",
    "IsotropyCertificate",
    "ResolutionExhaustedError",
    "InsufficientPrefixError",
    "enumerate_arrows",
    "compose_arrows",
    "invert_arrow",
    "refine_arrow",
    "certify_no_isotropy",
    "product_with_af",
]

# Arrow classes ``enumerate_arrows`` builds at most.
_ARROW_CAP = 2 ** 18


class ResolutionExhaustedError(ValueError):
    """A cylinder with an empty word cannot be shifted further."""


class InsufficientPrefixError(ValueError):
    """No stored level is fine enough to certify the requested bound."""


class Cylinder(_Value):
    """Paths whose base projects to ``base`` in Z_level and start with ``word``."""

    __slots__ = ("level", "base", "word")

    def __init__(self, level: int, base: int, word: tuple[int, ...]):
        if level < 1:
            raise ValueError("vertex level must be positive")
        _set_level(self, level)
        _set_base(self, base % level)
        _set_word(self, tuple(word))

    @property
    def depth(self) -> int:
        return len(self.word)

    def shift(self) -> "Cylinder":
        """Advance the base by one and drop the first letter."""
        if not self.word:
            raise ResolutionExhaustedError("cylinder word is empty; resolution exhausted")
        return Cylinder(self.level, self.base + 1, self.word[1:])


class ArrowClass(_Value):
    """An arrow class (target, m - n, source) at cylinder resolution.

    The witness exponents satisfy shift^m(target) = shift^n(source) at the
    available resolution; the displacement m - n is how far the target runs
    ahead of the source.
    """

    __slots__ = ("source", "target", "m", "n")

    def __init__(self, source: Cylinder, target: Cylinder, m: int, n: int):
        if m < 0 or n < 0:
            raise ValueError("shift exponents must be non-negative")
        level = source.level
        if level != target.level:
            raise ValueError("source and target live at different vertex levels")
        source_word = source.word
        target_word = target.word
        source_rest = len(source_word) - n
        target_rest = len(target_word) - m
        if target_rest < 0 or source_rest < 0:
            raise ResolutionExhaustedError("shift exponents exceed the word depth")
        overlap = target_rest if target_rest < source_rest else source_rest
        if (target.base + m - source.base - n) % level or (
            target_word[m : m + overlap] != source_word[n : n + overlap]
        ):
            raise ValueError("cylinders do not match under the declared shifts")
        _set_source(self, source)
        _set_target(self, target)
        _set_m(self, m)
        _set_n(self, n)

    @property
    def displacement(self) -> int:
        return self.m - self.n


# Every enumerated arrow builds an ArrowClass, and every cylinder of the
# enumeration's rows a Cylinder.  Their constructors store each field through
# its slot's own setter, bound once here: it skips the name lookup and the
# generic call of ``object.__setattr__``.
_set_level, _set_base, _set_word = (
    Cylinder.__dict__[name].__set__ for name in Cylinder.__slots__
)
_set_source, _set_target, _set_m, _set_n = (
    ArrowClass.__dict__[name].__set__ for name in ArrowClass.__slots__
)


def enumerate_arrows(
    k: int, vertex_level: int, depth: int, max_displacement: int
) -> Iterator[ArrowClass]:
    """All arrow classes between depth-resolution cylinders, minimal witnesses only.

    Covers |displacement| <= max_displacement with shift exponents
    m, n <= max_displacement; per (source, target, displacement) only the
    least witness is produced (a pair (m, n) is dropped when (m-1, n-1)
    already connects the cylinders).  Requires max_displacement <= depth.

    Each class is valid by construction.  With overlap o = depth - max(m, n)
    the target base is source.base + n - m (mod N) and the target word is
    head + source.word[n:n+o] + tail, with m free letters in the head and
    max(n - m, 0) in the tail; when t = min(m, n) >= 1 the last head letter
    differs from source.word[n-1], which makes the witness least.  The order
    is d = m - n, then t, the source base, the source word, the head and the
    tail, each word in lexicographic order.  Each Cylinder is built once per
    call: one row per base holds the cylinders of every word in that order,
    and a class with m = n = 0 has its source as its target.  The row index
    of each target depends only on (d, t) and the source's index, so each
    (d, t) block computes the target indices of its classes once, and every
    source base reuses them: its classes come from one ``map`` of the
    ArrowClass constructor, which checks each one, over the two rows.

    The count has a closed form: each displacement contributes
    N * k**(depth + max_displacement) classes, independent of the
    displacement.  The classes are yielded one at a time.  The rows hold
    N * k**depth cylinders, at most a sixth of the count when k >= 2; with
    max_displacement 0 there are no rows, each cylinder is built when it is
    reached, and a caller that counts or samples the classes holds none but
    those it keeps.  The arguments are checked at call time, before the
    first class: a bad argument, or a shape over the bound on time (2**18
    classes, and depth + max_displacement 19 for every k, which bounds a k = 1
    shape's words), raises ValueError here, not at the first next().
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
    # Bounding the exponent first keeps k**exponent short, and each word of k = 1 too.
    exponent = depth + max_displacement
    if exponent > _ARROW_CAP.bit_length() or (
        (2 * max_displacement + 1) * vertex_level * k ** exponent > _ARROW_CAP
    ):
        raise ValueError(
            f"the shape exceeds the enumeration bound: at most {_ARROW_CAP} arrow"
            f" classes, and depth + max_displacement at most {_ARROW_CAP.bit_length()}"
        )
    if max_displacement:
        return chain.from_iterable(_blocks(k, vertex_level, depth, max_displacement))
    # The one block is m = n = 0, where each class pairs a cylinder with itself.
    cylinders = (
        Cylinder(vertex_level, base, word)
        for base in range(vertex_level)
        for word in product(range(1, k + 1), repeat=depth)
    )
    return (ArrowClass(source, source, 0, 0) for source in cylinders)


def _blocks(
    k: int, vertex_level: int, depth: int, max_displacement: int
) -> Iterator[Iterator[ArrowClass]]:
    """The classes of ``enumerate_arrows`` for max_displacement >= 1: one map per block and base."""
    # rows[base] holds the cylinders of every word at that base in product order:
    # letter j of word i is 1 + the j-th of the depth base-k digits of i, leading first.
    words = tuple(product(range(1, k + 1), repeat=depth))
    rows: list = [None] * vertex_level

    def row(base: int) -> list:
        if rows[base] is None:
            rows[base] = [Cylinder(vertex_level, base, word) for word in words]
        return rows[base]

    for d in range(-max_displacement, max_displacement + 1):
        for t in range(max_displacement - abs(d) + 1):
            m = max(d, 0) + t
            n = max(-d, 0) + t
            overlap = depth - max(m, n)
            # A target word is head + source.word[n:n+overlap] + tail, so its index
            # is head * k**(depth - m) + (the overlap's index) * k**tail + tail.
            block, run = k ** (depth - m), k ** (depth - m - overlap)
            below_overlap, overlaps = k ** (depth - n - overlap), k ** overlap
            below_blocked = k ** (depth - n)
            # offsets[b] is head * block + tail over every allowed head and tail:
            # for t >= 1 the last head letter differs from source.word[n-1] = b + 1.
            offsets = [
                [
                    head * block + tail
                    for head in range(k ** m)
                    if not t or head % k != b
                    for tail in range(run)
                ]
                for b in range(k)
            ]
            # The target index of each class in the block, the same at every base;
            # each source has len(offsets[0]) classes, one after another.
            targets: list = []
            for i in range(len(words)):
                start = (i // below_overlap) % overlaps * run
                targets += [start + offset for offset in offsets[(i // below_blocked) % k]]
            per_source = len(offsets[0])
            for base in range(vertex_level):
                yield map(
                    ArrowClass,
                    chain.from_iterable(map(repeat, row(base), repeat(per_source))),
                    map(row((base + n - m) % vertex_level).__getitem__, targets),
                    repeat(m),
                    repeat(n),
                )


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
        if m >= n:
            src_word = a.source.word + (letter,)
            tgt_word = a.target.word + (src_word[depth + n - m],)
        else:
            tgt_word = a.target.word + (letter,)
            src_word = a.source.word + (tgt_word[depth + m - n],)
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

    Finds the least stage whose level exceeds the displacement bound.  An
    arrow class with source equal to target forces x + d == x (mod level),
    that is, the level divides the displacement d.  At that vertex level
    (and any finer one) no d with 0 < |d| <= bound < level is a multiple of
    the level, so no isotropy arrow exists in the certified range.
    """
    for stage, level in enumerate(spec.levels, start=1):
        if level > max_displacement:
            return IsotropyCertificate(
                stage=stage, level=level, max_displacement=max_displacement
            )
    raise InsufficientPrefixError(
        f"no stored level exceeds the displacement bound {max_displacement}"
    )


class IsotropyCertificate(_Value):
    """The first stage whose level exceeds the displacement bound, so no isotropy arrow fits."""

    __slots__ = ("stage", "level", "max_displacement")

    def __init__(self, stage: int, level: int, max_displacement: int):
        if stage < 1:
            raise ValueError("stages are numbered from 1")
        if max_displacement < 0:
            raise ValueError("displacement bound must be non-negative")
        if level <= max_displacement:
            raise ValueError(f"level {level} does not exceed the displacement bound {max_displacement}")
        self._init(stage, level, max_displacement)


class AfProduct(_Value):
    """The arrow count of the product with a full block."""

    __slots__ = ("count", "block_size")

    def __init__(self, count: int, block_size: int):
        self._init(count, block_size)


def product_with_af(arrows: Iterable[ArrowClass], block_size: int) -> AfProduct:
    """Product with the full equivalence relation on a block of the given size.

    The product has exactly (number of arrows) * block_size**2 arrows; the
    arrows are counted in one pass.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    return AfProduct(count=sum(1 for _ in arrows) * block_size ** 2, block_size=block_size)
