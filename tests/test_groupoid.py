"""Tests for cylinders, arrow enumeration and isotropy certificates."""

import math
import tracemalloc
from collections.abc import Iterator
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcalc.groupoid import (
    ArrowClass,
    Cylinder,
    InsufficientPrefixError,
    IsotropyCertificate,
    ResolutionExhaustedError,
    certify_no_isotropy,
    compose_arrows,
    enumerate_arrows,
    invert_arrow,
    product_with_af,
    refine_arrow,
)
from kcalc.odometer import LocallyConstantFn, OdometerSpec, k0_odometer, psi
from oracles import _shift_match, graph_homology, pair_scan_arrows, residue_scan_isotropy


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
        # unshifted (m = n = 0): same base, words agree on the overlap
        ArrowClass(source=Cylinder(2, 1, (1,)), target=Cylinder(2, 1, (1, 2)), m=0, n=0)
        with pytest.raises(ValueError):
            ArrowClass(source=Cylinder(2, 1, (2,)), target=Cylinder(2, 1, (1, 2)), m=0, n=0)
        with pytest.raises(ValueError):
            ArrowClass(source=Cylinder(2, 1, (1,)), target=Cylinder(2, 0, (1,)), m=0, n=0)
        ArrowClass(source=Cylinder(2, 0, (1, 2)), target=Cylinder(2, 0, ()), m=0, n=0)


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

    @given(st.data())
    def test_constructs_exactly_when_the_shift_oracle_matches(self, data):
        level = data.draw(st.integers(1, 6))
        target_level = data.draw(st.one_of(st.just(level), st.integers(1, 6)))
        k = data.draw(st.integers(1, 3))
        words = st.lists(st.integers(1, k), max_size=5).map(tuple)
        base_s, base_t = data.draw(st.integers(-12, 12)), data.draw(st.integers(-12, 12))
        word_s, word_t = data.draw(words), data.draw(words)
        m = data.draw(st.integers(-2, len(word_t)))
        n = data.draw(st.integers(-2, len(word_s)))
        source, target = Cylinder(level, base_s, word_s), Cylinder(target_level, base_t, word_t)
        if (
            min(m, n) >= 0
            and target_level == level
            and _shift_match(level, base_t, word_t, m, base_s, word_s, n)
        ):
            a = ArrowClass(source=source, target=target, m=m, n=n)
            assert (a.source, a.target, a.m, a.n) == (source, target, m, n)
        else:
            with pytest.raises(ValueError):
                ArrowClass(source=source, target=target, m=m, n=n)

    # The constructor's checks, in order.  Each case fails its own check and
    # every later one it can (each shift exceeding the depth leaves an empty
    # overlap), so a dropped, merged or reordered check changes the
    # exception's class or message; the base case's words match, so without
    # its check it would construct.
    @pytest.mark.parametrize(
        "source,target,m,n,error,message",
        [
            (
                Cylinder(2, 0, (1,)), Cylinder(3, 1, (2,)), -1, 3,
                ValueError, "shift exponents must be non-negative",
            ),
            (
                Cylinder(2, 0, (1,)), Cylinder(3, 1, (2,)), 0, 3,
                ValueError, "source and target live at different vertex levels",
            ),
            (
                Cylinder(3, 0, (1,)), Cylinder(3, 1, (2,)), 0, 3,
                ResolutionExhaustedError, "shift exponents exceed the word depth",
            ),
            (
                Cylinder(3, 0, (1, 2)), Cylinder(3, 1, (1, 2)), 0, 0,
                ValueError, "cylinders do not match under the declared shifts",
            ),
            (
                Cylinder(3, 0, (1, 2)), Cylinder(3, 0, (2, 2)), 0, 0,
                ValueError, "cylinders do not match under the declared shifts",
            ),
        ],
        ids=["negative exponent", "vertex levels", "word depth", "base", "overlap words"],
    )
    def test_each_rejection_has_its_class_and_message(
        self, source, target, m, n, error, message
    ):
        with pytest.raises(ValueError) as raised:
            ArrowClass(source=source, target=target, m=m, n=n)
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestEnumerate:
    def test_diagonal_at_zero_displacement(self):
        arrows = list(enumerate_arrows(2, 3, 2, 0))
        assert len(arrows) == 3 * 2 ** 2
        assert all(a.source == a.target and a.m == a.n == 0 for a in arrows)

    def test_closed_form_count(self):
        for k, level, depth, disp in (
            (2, 2, 2, 1),
            (2, 1, 3, 2),
            (3, 2, 2, 2),
            (1, 1, 3, 2),
        ):
            arrows = list(enumerate_arrows(k, level, depth, disp))
            assert len(arrows) == (2 * disp + 1) * level * k ** (depth + disp)

    def test_degenerate_single_path(self):
        arrows = enumerate_arrows(1, 1, 3, 2)
        assert sorted(a.displacement for a in arrows) == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize(
        "k,level,depth,disp",
        [
            (2, 2, 2, 1),
            (2, 3, 2, 2),
            (3, 2, 3, 1),
            (2, 1, 2, 2),
            (1, 3, 2, 1),
            (3, 1, 3, 2),
            (3, 3, 3, 2),
            (4, 2, 2, 2),
            (2, 5, 4, 2),
            (3, 3, 4, 2),
        ],
    )
    def test_matches_pair_scan_oracle(self, k, level, depth, disp):
        ours = [arrow_key(a) for a in enumerate_arrows(k, level, depth, disp)]
        expected = pair_scan_arrows(k, level, depth, disp)
        assert set(ours) == expected

        # the documented order: d, t, source base, source word, head, tail
        def order(key):
            base_s, word_s, _, word_t, m, n = key
            return (m - n, min(m, n), base_s, word_s, word_t[:m], word_t[depth - max(n - m, 0) :])

        assert ours == sorted(expected, key=order)

    @pytest.mark.parametrize("k,level,depth,disp", [(2, 3, 3, 1), (3, 2, 2, 2), (2, 1, 4, 4), (1, 2, 3, 1)])
    def test_each_cylinder_is_built_once(self, k, level, depth, disp):
        arrows = list(enumerate_arrows(k, level, depth, disp))
        cylinders = {id(c): c for a in arrows for c in (a.source, a.target)}
        assert len(cylinders) == len(set(cylinders.values())) == level * k ** depth

    @pytest.mark.parametrize("args", [(2, 3, 3, 1), (3, 2, 2, 2), (2, 4, 3, 0)])
    def test_unshifted_classes_pair_a_cylinder_with_itself(self, args):
        unshifted = [a for a in enumerate_arrows(*args) if a.m == a.n == 0]
        assert len(unshifted) == args[1] * args[0] ** args[2]
        assert all(a.source is a.target for a in unshifted)

    @pytest.mark.parametrize(
        "k,level,depth,disp", [(2, 3, 3, 1), (3, 2, 3, 2), (2, 4, 3, 0), (1, 2, 3, 1)]
    )
    def test_each_class_and_cylinder_passes_through_its_constructor(
        self, monkeypatch, k, level, depth, disp
    ):
        # Counting wrappers in the class bodies, as a tracer installs them: every
        # object is built by one call of its class's __init__.
        built = {ArrowClass: 0, Cylinder: 0}

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built[cls] += 1
                init(self, *args, **kwargs)

            return counted

        for cls in built:
            monkeypatch.setattr(cls, "__init__", counting(cls))
        count = sum(1 for _ in enumerate_arrows(k, level, depth, disp))
        assert count == built[ArrowClass] == (2 * disp + 1) * level * k ** (depth + disp)
        assert built[Cylinder] == level * k ** depth

    def test_zero_displacement_streams_in_constant_memory(self):
        # 2**14 classes, none held: the peak stays that of a few live objects
        arrows = enumerate_arrows(2, 1, 14, 0)
        tracemalloc.start()
        try:
            assert sum(1 for _ in arrows) == 2 ** 14
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_no_duplicates(self):
        arrows = enumerate_arrows(3, 2, 3, 2)
        keys = [arrow_key(a) for a in arrows]
        assert len(keys) == len(set(keys))

    def test_insufficient_resolution(self):
        with pytest.raises(ValueError):
            enumerate_arrows(2, 2, 1, 2)

    def test_returns_an_iterator(self):
        arrows = enumerate_arrows(2, 2, 2, 1)
        assert isinstance(arrows, Iterator)
        assert arrow_key(next(arrows)) == arrow_key(next(enumerate_arrows(2, 2, 2, 1)))

    @pytest.mark.parametrize(
        "args",
        [
            (2, 2, 1, 2),  # max_displacement > depth
            (2, 2, 2, -1),
            (2, 2, -1, 0),
            (0, 2, 2, 1),
            (2, 0, 2, 1),
            (2, 1, 40, 1),  # 3 * 2**41 classes, over the cap
            (3, 1, 8, 4),  # 9 * 3**12 classes, over the cap
        ],
    )
    def test_bad_shapes_raise_at_call_time(self, args):
        # the call itself raises: no next() is needed to see the error
        with pytest.raises(ValueError):
            enumerate_arrows(*args)

    def test_deep_single_letter_shape_is_refused_at_call_time(self):
        # one class per base, but each would hold a word of 2 * 10**7 letters
        start = perf_counter()
        with pytest.raises(ValueError, match="enumeration bound") as raised:
            enumerate_arrows(1, 1, 2 * 10 ** 7, 0)
        assert perf_counter() - start < 1.0
        assert "more than" not in str(raised.value)

    @pytest.mark.parametrize("args", [(1, 3, 19, 0), (1, 2, 18, 1), (1, 1, 10, 9)])
    def test_single_letter_shapes_up_to_depth_plus_displacement_19_enumerate(self, args):
        k, level, depth, disp = args
        arrows = list(enumerate_arrows(*args))
        assert len(arrows) == (2 * disp + 1) * level
        assert all(a.source.depth == depth for a in arrows)
        with pytest.raises(ValueError, match="enumeration bound"):
            enumerate_arrows(k, level, depth + 1, disp)


class TestComposition:
    def test_compose_adds_displacements(self):
        arrows = list(enumerate_arrows(2, 2, 3, 1))
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
        for a in list(enumerate_arrows(2, 2, 2, 1))[:200]:
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
        arrows = list(enumerate_arrows(k, 2, 2, 1))
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cylinder(0, 0, ()), "vertex level must be positive"),
        # a one-letter source under a two-letter target
        (
            lambda: refine_arrow(ArrowClass(Cylinder(2, 0, (1,)), Cylinder(2, 1, (1, 1)), 1, 0), 2),
            "refinement expects uniform word depth",
        ),
    ],
    ids=["cylinder-level", "refine-mixed-depths"],
)
def test_groupoid_refuses(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestIsotropyCertificate:
    def test_example_first_level_past_bound(self):
        cert = certify_no_isotropy(OdometerSpec(2, (1, 2, 4, 8)), 5)
        assert cert.stage == 4
        assert cert.level == 8

    def test_zero_bound(self):
        cert = certify_no_isotropy(OdometerSpec(2, (1, 2)), 0)
        assert cert.stage == 1

    def test_constructor_refuses_a_bound_the_level_cannot_give(self):
        with pytest.raises(ValueError, match="^level 2 does not exceed the displacement bound 5$"):
            IsotropyCertificate(stage=1, level=2, max_displacement=5)
        with pytest.raises(ValueError, match="^level 3 does not exceed the displacement bound 3$"):
            IsotropyCertificate(2, 3, 3)
        with pytest.raises(ValueError, match="^displacement bound must be non-negative$"):
            IsotropyCertificate(1, 2, -1)
        for stage in (0, -1):
            with pytest.raises(ValueError, match="^stages are numbered from 1$"):
                IsotropyCertificate(stage, 2, 1)
        with pytest.raises(ValueError, match="^displacement bound must be non-negative$"):
            certify_no_isotropy(OdometerSpec(2, (1, 2)), -1)

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientPrefixError):
            certify_no_isotropy(OdometerSpec(2, (1, 2)), 3)

    def test_matches_residue_scan(self):
        # every divisibility chain of at most three levels in 1..24
        chains = [(n,) for n in range(1, 25)]
        for chain in chains:
            if len(chain) < 3:
                chains += [chain + (n,) for n in range(2 * chain[-1], 25, chain[-1])]
        refused = 0
        for levels in chains:
            spec = OdometerSpec(2, levels)
            for bound in range(25):
                expected = residue_scan_isotropy(levels, bound)
                if expected is None:
                    refused += 1
                    with pytest.raises(InsufficientPrefixError):
                        certify_no_isotropy(spec, bound)
                    continue
                cert = certify_no_isotropy(spec, bound)
                assert (cert.stage, cert.level, cert.max_displacement) == (
                    *expected,
                    bound,
                )
        assert len(chains) == 143 and refused == 1360

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
        arrows = list(enumerate_arrows(2, 2, 2, 1))
        assert product_with_af(arrows, 1).count == len(arrows)

    def test_count_formula(self):
        arrows = list(enumerate_arrows(2, 2, 2, 1))[:10]
        assert product_with_af(arrows, 3).count == 90

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_stream_and_list_give_the_same_product(self, block):
        arrows = list(enumerate_arrows(2, 2, 2, 1))
        assert product_with_af(iter(arrows), block) == product_with_af(arrows, block)
        assert product_with_af(enumerate_arrows(2, 2, 2, 1), block) == product_with_af(
            arrows, block
        )

    def test_huge_block_is_counted_not_built(self):
        src = Cylinder(2, 0, (1, 2))
        a = ArrowClass(source=src, target=src, m=0, n=0)
        assert product_with_af([a], 10**12).count == 10**24


class TestGraphHomology:
    """H_0 of the level-N graph groupoid is the K_0 stage Z_{k**N - 1}, and H_1 = 0.

    The vertex class e_x goes to psi of the point mass at -x: every relation
    of H_0 goes to 0 and e_0 to a generator, so the map is onto, and the
    invariant factors give H_0 the same order, so it is an isomorphism.
    """

    CASES = [(k, n) for k in range(2, 8) for n in range(1, 9)]

    @staticmethod
    def vertex_images(k, n):
        return [psi(LocallyConstantFn.delta(k, n, -x % n)) for x in range(n)]

    def test_invariant_factors_are_ones_then_the_stage_order(self):
        for k, n in self.CASES:
            _, factors = graph_homology(k, n)
            # no factor is 0, so 1 - A^T is injective and H_1 = 0
            assert factors == [1] * (n - 1) + [k ** n - 1], (k, n)

    def test_vertex_classes_map_onto_the_stage_through_psi(self):
        for k, n in self.CASES:
            columns, _ = graph_homology(k, n)
            images = self.vertex_images(k, n)
            m = k ** n - 1
            assert all(e.modulus == m for e in images)
            for column in columns:
                assert sum(c * e.residue for c, e in zip(column, images)) % m == 0, (k, n)
            assert math.gcd(images[0].residue, m) == 1, (k, n)

    def test_vertex_classes_sum_to_the_unit_class(self):
        for k, n in self.CASES:
            unit = k0_odometer(OdometerSpec(k, (n,))).k0.unit_thread[0]
            total = sum(e.residue for e in self.vertex_images(k, n))
            assert total % unit.modulus == unit.residue == (k ** n - 1) // (k - 1) % unit.modulus
