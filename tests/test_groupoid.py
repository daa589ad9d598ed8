"""Tests for cylinders, arrow enumeration and isotropy certificates."""

import pytest

from kcalc.groupoid import (
    ArrowClass,
    Cylinder,
    InsufficientPrefixError,
    ResolutionExhaustedError,
    certify_no_isotropy,
    compose_arrows,
    compose_product_arrows,
    cylinders_comparable,
    enumerate_arrows,
    invert_arrow,
    product_with_af,
    refine_arrow,
)
from kcalc.odometer import OdometerSpec
from oracles import pair_scan_arrows


def arrow_key(a: ArrowClass):
    return (a.source.base, a.source.word, a.target.base, a.target.word, a.m, a.n)


class TestCylinder:
    def test_shift_example(self):
        c = Cylinder(4, 0, (1, 2))
        assert c.shift() == Cylinder(4, 1, (2,))

    def test_shift_until_empty(self):
        c = Cylinder(3, 2, (1, 1, 2))
        for _ in range(3):
            c = c.shift()
        assert c.word == ()
        with pytest.raises(ResolutionExhaustedError):
            c.shift()

    def test_trivial_vertex_level(self):
        c = Cylinder(1, 5, (1, 2))
        assert c.base == 0
        assert c.shift().base == 0

    def test_comparable_at_resolution(self):
        assert cylinders_comparable(Cylinder(2, 1, (1, 2)), Cylinder(2, 1, (1,)))
        assert not cylinders_comparable(Cylinder(2, 1, (1, 2)), Cylinder(2, 1, (2,)))
        assert not cylinders_comparable(Cylinder(2, 0, (1,)), Cylinder(2, 1, (1,)))
        assert cylinders_comparable(Cylinder(2, 0, ()), Cylinder(2, 0, (1, 2)))


class TestArrowClass:
    def test_validates_witness(self):
        src = Cylinder(2, 0, (1, 2))
        tgt = Cylinder(2, 1, (2, 1))
        # shift^0(tgt) vs shift^1(src): bases 1 == 1, words (2,1) vs (2,)
        ArrowClass(source=src, target=tgt, m=0, n=1)
        with pytest.raises(ValueError):
            ArrowClass(source=src, target=Cylinder(2, 0, (2, 1)), m=0, n=1)

    def test_displacement(self):
        src = Cylinder(2, 0, (1, 2))
        tgt = Cylinder(2, 1, (2, 1))
        assert ArrowClass(source=src, target=tgt, m=0, n=1).displacement == -1

    def test_resolution_guard(self):
        src = Cylinder(2, 0, (1,))
        with pytest.raises(ResolutionExhaustedError):
            ArrowClass(source=src, target=src, m=2, n=2)


class TestEnumerate:
    def test_diagonal_at_zero_displacement(self):
        arrows = enumerate_arrows(2, 3, 2, 0)
        assert len(arrows) == 3 * 2 ** 2
        assert all(a.source == a.target and a.m == a.n == 0 for a in arrows)

    def test_closed_form_count(self):
        for k, level, depth, disp in (
            (2, 2, 2, 1),
            (2, 1, 3, 2),
            (3, 2, 2, 2),
            (1, 1, 3, 2),
        ):
            arrows = enumerate_arrows(k, level, depth, disp)
            assert len(arrows) == (2 * disp + 1) * level * k ** (depth + disp)

    def test_degenerate_single_path(self):
        arrows = enumerate_arrows(1, 1, 3, 2)
        assert sorted(a.displacement for a in arrows) == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize(
        "k,level,depth,disp",
        [(2, 2, 2, 1), (2, 3, 2, 2), (3, 2, 3, 1), (2, 1, 2, 2), (1, 3, 2, 1)],
    )
    def test_matches_pair_scan_oracle(self, k, level, depth, disp):
        ours = {arrow_key(a) for a in enumerate_arrows(k, level, depth, disp)}
        assert ours == pair_scan_arrows(k, level, depth, disp)

    def test_no_duplicates(self):
        arrows = enumerate_arrows(3, 2, 3, 2)
        keys = [arrow_key(a) for a in arrows]
        assert len(keys) == len(set(keys))

    def test_insufficient_resolution(self):
        with pytest.raises(ValueError):
            enumerate_arrows(2, 2, 1, 2)


class TestComposition:
    def test_compose_adds_displacements(self):
        arrows = enumerate_arrows(2, 2, 3, 1)
        by_source = {}
        for a in arrows:
            by_source.setdefault(arrow_key(a)[:2], []).append(a)
        tested = 0
        for a in arrows[:400]:
            for b in by_source.get((a.source.base, a.source.word), [])[:3]:
                # a.source == b.target required for a . b
                if a.source != b.target:
                    continue
                try:
                    c = compose_arrows(a, b)
                except ResolutionExhaustedError:
                    continue
                assert c.displacement == a.displacement + b.displacement
                assert c.source == b.source and c.target == a.target
                tested += 1
        assert tested > 0

    def test_inverse_negates_displacement(self):
        for a in enumerate_arrows(2, 2, 2, 1)[:200]:
            inv = invert_arrow(a)
            assert inv.displacement == -a.displacement
            assert invert_arrow(inv) == a

    def test_non_composable_rejected(self):
        src = Cylinder(2, 0, (1, 2))
        tgt = Cylinder(2, 0, (2, 2))
        a = ArrowClass(source=src, target=tgt, m=1, n=1)
        with pytest.raises(ValueError):
            compose_arrows(a, a)


class TestRefinement:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_refine_splits_into_k(self, k):
        arrows = enumerate_arrows(k, 2, 2, 1)
        finer = {arrow_key(a) for a in enumerate_arrows(k, 2, 3, 1)}
        for a in arrows[:300]:
            pieces = refine_arrow(a, k)
            assert len(pieces) == k
            assert len({arrow_key(p) for p in pieces}) == k
            for p in pieces:
                assert p.displacement == a.displacement
                assert arrow_key(p) in finer

    def test_refinement_covers_finer_enumeration(self):
        k = 2
        coarse = enumerate_arrows(k, 2, 2, 1)
        refined = {arrow_key(p) for a in coarse for p in refine_arrow(a, k)}
        finer = {arrow_key(a) for a in enumerate_arrows(k, 2, 3, 1)}
        assert refined == finer


class TestIsotropyCertificate:
    def test_example_first_level_past_bound(self):
        cert = certify_no_isotropy(OdometerSpec(2, (1, 2, 4, 8)), 5)
        assert cert.stage == 4
        assert cert.level == 8

    def test_zero_bound(self):
        cert = certify_no_isotropy(OdometerSpec(2, (1, 2)), 0)
        assert cert.stage == 1

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientPrefixError):
            certify_no_isotropy(OdometerSpec(2, (1, 2)), 3)

    def test_consistent_with_exhaustive_search(self):
        spec = OdometerSpec(2, (1, 2, 4))
        bound = 2
        cert = certify_no_isotropy(spec, bound)
        for depth in (2, 3):
            for a in enumerate_arrows(2, cert.level, depth, bound):
                if a.source == a.target:
                    assert a.displacement == 0

    def test_isotropy_does_appear_below_the_certified_level(self):
        # at vertex level 2 a displacement-2 arrow can fix a cylinder
        offenders = [
            a
            for a in enumerate_arrows(2, 2, 2, 2)
            if a.source == a.target and a.displacement != 0
        ]
        assert offenders


class TestAfProduct:
    def test_trivial_block(self):
        arrows = enumerate_arrows(2, 2, 2, 1)
        assert product_with_af(arrows, 1).count == len(arrows)

    def test_count_formula(self):
        arrows = enumerate_arrows(2, 2, 2, 1)[:10]
        assert product_with_af(arrows, 3).count == 90

    def test_huge_block_samples_lazily(self):
        from kcalc.groupoid import ProductArrow

        src = Cylinder(2, 0, (1, 2))
        a = ArrowClass(source=src, target=src, m=0, n=0)
        af = product_with_af([a], 10**12)
        assert af.count == 10**24
        assert af.samples == tuple(ProductArrow(a, 0, c) for c in range(10))
        assert product_with_af([], 10**12).samples == ()

    def test_componentwise_composition(self):
        from kcalc.groupoid import ProductArrow

        src = Cylinder(2, 0, (1, 2))
        a = ArrowClass(source=src, target=src, m=0, n=0)
        assert product_with_af([a], 3).samples[1] == ProductArrow(a, 0, 1)
        left = ProductArrow(a, 0, 1)
        right = ProductArrow(a, 1, 2)
        combined = compose_product_arrows(left, right)
        assert (combined.row, combined.col) == (0, 2)
        with pytest.raises(ValueError):
            compose_product_arrows(left, ProductArrow(a, 2, 0))
