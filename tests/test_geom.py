import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorgallery import geom, reflect, visibility
from mirrorgallery.errors import GeometryError, InvariantViolated
from mirrorgallery.geom import (
    Orientation,
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    classes,
    merge_intervals,
    merge_region,
    orientation,
    overlay,
    region_difference,
    region_intersection,
    region_union_all,
    sees,
    segment_intersection,
    sides_along,
    subtract_intervals,
)
from mirrorgallery.guard import extended_region
from mirrorgallery.reflect import extend_all_edges
from mirrorgallery.visibility import _fan, _Frame, _lit, visibility_polygon, weak_visibility_polygon

from conftest import comb, histogram_polygon, interior_point, lshape, radial_polygon
from oracles import (
    cell_sides,
    classes_reference,
    contains_reference,
    dir_cmp,
    edge_ends,
    halfplane_rect,
    merge_region_reference,
    midpoint,
    net_runs_reference,
    polygon_reference,
    primitive_direction,
    region_contains_reference,
    region_sample_points,
    segment_parts_inside,
    slab_rows_reference,
    union_reference,
    validate_disjoint,
)

UNIT = SimplePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def rect(x0, y0, x1, y1):
    return SimplePolygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def grid_area_estimate(region: Region, bbox, h=F(1, 32)) -> F:
    """Counting oracle: area from grid-cell centers covered by the region."""
    xmin, ymin, xmax, ymax = bbox
    count = 0
    total = 0
    x = xmin + h / 2
    while x < xmax:
        y = ymin + h / 2
        while y < ymax:
            total += 1
            if region.contains(Point(x, y)) is not PointLocation.EXTERIOR:
                count += 1
            y += h
        x += h
    return count * h * h


class TestOrientation:
    def test_ccw(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.CCW

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) is Orientation.COLLINEAR

    def test_cw(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 1)) is Orientation.CW

    def test_swap_antisymmetry_and_translation(self, rng):
        for _ in range(300):
            pts = [
                Point(F(rng.randint(-50, 50), rng.randint(1, 9)), F(rng.randint(-50, 50), rng.randint(1, 9)))
                for _ in range(3)
            ]
            p, q, r = pts
            a = orientation(p, q, r)
            b = orientation(p, r, q)
            assert a.value == -b.value
            t = Point(F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 11))
            assert orientation(p + t, q + t, r + t) is a


class TestSegmentIntersection:
    def test_proper_cross(self):
        got = segment_intersection(
            Segment(Point(0, 0), Point(2, 2)), Segment(Point(0, 2), Point(2, 0))
        )
        assert got == Point(1, 1)

    def test_parallel_disjoint(self):
        got = segment_intersection(
            Segment(Point(0, 0), Point(1, 0)), Segment(Point(0, 1), Point(1, 1))
        )
        assert got is None

    def test_collinear_overlap(self):
        got = segment_intersection(
            Segment(Point(0, 0), Point(2, 0)), Segment(Point(1, 0), Point(3, 0))
        )
        assert isinstance(got, Segment)
        assert {got.a, got.b} == {Point(1, 0), Point(2, 0)}

    def test_touching_endpoint(self):
        got = segment_intersection(
            Segment(Point(0, 0), Point(1, 0)), Segment(Point(1, 0), Point(1, 1))
        )
        assert got == Point(1, 0)


class TestPolygonBasics:
    def test_unit_square_area(self):
        assert UNIT.area == 1

    def test_triangle_area(self):
        assert SimplePolygon([(0, 0), (4, 0), (0, 3)]).area == 6

    def test_rectangle_area_exact(self, rng):
        for _ in range(50):
            w = F(rng.randint(1, 40), rng.randint(1, 7))
            h = F(rng.randint(1, 40), rng.randint(1, 7))
            assert rect(0, 0, w, h).area == w * h

    def test_point_location(self):
        assert UNIT.contains(Point(F(1, 2), F(1, 2))) is PointLocation.INTERIOR
        assert UNIT.contains(Point(0, F(1, 2))) is PointLocation.BOUNDARY
        assert UNIT.contains(Point(2, 2)) is PointLocation.EXTERIOR

    def test_rejects_cw_ring(self):
        with pytest.raises(GeometryError):
            SimplePolygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_self_intersection(self):
        with pytest.raises(GeometryError):
            SimplePolygon([(0, 0), (2, 0), (0, 2), (2, 2)])

    def test_collinear_normalization(self):
        p = SimplePolygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert p.n == 4


class TestRegionOps:
    def test_union_disjoint(self):
        a = Region.of(UNIT)
        b = Region.of(rect(5, 5, 6, 6))
        assert region_union_all([a, b]).area == 2

    def test_union_self(self):
        a = Region.of(UNIT)
        assert region_union_all([a, a]).area == 1

    def test_union_overlap_half(self):
        a = Region.of(UNIT)
        b = Region.of(rect(F(1, 2), 0, F(3, 2), 1))
        u = region_union_all([a, b])
        assert u.area == F(3, 2)
        estimate = grid_area_estimate(u, (F(0), F(0), F(3, 2), F(1)))
        assert abs(estimate - F(3, 2)) < F(1, 5)

    def test_difference(self):
        a = Region.of(UNIT)
        b = Region.of(rect(0, 0, F(1, 2), 1))
        assert region_difference(a, b).area == F(1, 2)
        assert region_difference(a, Region.empty()).area == 1

    def test_difference_overhang(self):
        a = Region.of(rect(0, 0, 2, 2))
        b = Region.of(rect(1, 0, 3, 2))
        d = region_difference(a, b)
        assert d.area == 2
        estimate = grid_area_estimate(d, (F(0), F(0), F(2), F(2)))
        assert abs(estimate - 2) < F(1, 4)

    def test_union_membership_symmetry(self, rng):
        a = Region.of(rect(0, 0, 3, 2))
        b = Region.of(SimplePolygon([(1, 1), (4, 1), (4, 4), (1, 4)]))
        u1 = region_union_all([a, b])
        u2 = region_union_all([b, a])
        idem = region_union_all([u1, u1])
        pts = region_sample_points(u1, rng, 500)
        assert all(u2.covers(p) and idem.covers(p) for p in pts)
        pts2 = region_sample_points(u2, rng, 500)
        assert all(u1.covers(p) for p in pts2)

    def test_region_area_is_part_sum(self):
        parts = (rect(0, 0, 1, 1), rect(2, 0, 3, 4))
        r = Region(parts)
        assert r.area == sum((p.area for p in parts), F(0))
        assert validate_disjoint(r)

    def test_inclusion_exclusion_random_rectangles(self, rng):
        for _ in range(120):
            x0, y0 = F(rng.randint(0, 30), 4), F(rng.randint(0, 30), 4)
            a = Region.of(rect(x0, y0, x0 + F(rng.randint(1, 20), 4), y0 + F(rng.randint(1, 20), 4)))
            x1, y1 = F(rng.randint(0, 30), 4), F(rng.randint(0, 30), 4)
            b = Region.of(rect(x1, y1, x1 + F(rng.randint(1, 20), 4), y1 + F(rng.randint(1, 20), 4)))
            assert region_union_all([a, b]).area == a.area + b.area - region_intersection(a, b).area

    def test_halfplane_clip(self, rng):
        # the half-turn fan of a boundary point p left of its edge is VP(p)
        # clipped to the closed half-plane left of that edge, also where p is
        # a reflex vertex whose VP reaches past the edge's line
        assert region_intersection(Region.of(UNIT), Region.of(
            halfplane_rect(Point(F(1, 2), 0), Point(F(1, 2), 1), (-1, -1, 2, 2)))).area == F(1, 2)
        reaching = 0
        for P in [lshape(), comb(3), histogram_polygon(rng, 5), radial_polygon(rng, 8)]:
            xmin, ymin, xmax, ymax = P.bbox
            box = (xmin - 1, ymin - 1, xmax + 1, ymax + 1)
            samples = region_sample_points(Region.of(P), rng, 12)
            for e in range(P.n):
                s = P.edge(e)
                d = primitive_direction(s.direction)
                for p in (s.a, midpoint(s), s.b):
                    f = _Frame(P, p)
                    fan = Region(_fan(f, _lit(f, d, (-d[0], -d[1]))))
                    vp = Region.of(visibility_polygon(P, p).polygon)
                    clipped = region_intersection(vp, Region.of(halfplane_rect(s.a, s.b, box)))
                    assert fan.area == clipped.area, (P, e, p)
                    reaching += fan.area < vp.area
                    for x in samples:
                        assert fan.covers(x) == clipped.covers(x), (P, e, p, x)
        assert reaching > 0

    def test_merge_region_rebuilds_square(self):
        pieces = Region((rect(0, 0, 1, 1), rect(1, 0, 2, 1), rect(0, 1, 2, 2)))
        merged = merge_region(pieces)
        assert merged.area == 4
        assert len(merged.parts) == 1

    def test_merge_region_hole_falls_back(self):
        ring_parts = (
            rect(0, 0, 3, 1),
            rect(0, 2, 3, 3),
            rect(0, 1, 1, 2),
            rect(2, 1, 3, 2),
        )
        merged = merge_region(Region(ring_parts))
        assert merged.area == 8
        assert merged.contains(Point(F(3, 2), F(3, 2))) is PointLocation.EXTERIOR


class TestSegmentHelpers:
    def test_parts_inside(self):
        seg = Segment(Point(-1, F(1, 2)), Point(2, F(1, 2)))
        parts = segment_parts_inside(seg, [UNIT])
        assert len(parts) == 1
        assert {parts[0].a, parts[0].b} == {Point(0, F(1, 2)), Point(1, F(1, 2))}

    def test_sides_along_keeps_sides_with_the_region_on_the_left(self):
        # the square's bottom side runs rightward and its left side downward,
        # read off the net boundary of the square and of a swept copy
        square = Region.of(UNIT)
        for region in (square, overlay([square], any)):
            for a, b, side in [((-1, 0), (2, 0), ((0, 0), (1, 0))), ((0, 2), (0, -1), ((0, 1), (0, 0)))]:
                a, b = Point(*a), Point(*b)
                assert sides_along([region], a, b) == [Segment(Point(*side[0]), Point(*side[1]))]
                assert sides_along([region], b, a) == []

    def test_interval_algebra(self):
        base = [(F(0), F(1))]
        cut = [(F(1, 4), F(1, 2))]
        left = subtract_intervals(base, cut)
        assert left == [(F(0), F(1, 4)), (F(1, 2), F(1))]
        assert merge_intervals([(F(0), F(1, 2)), (F(1, 2), F(1))]) == [(F(0), F(1))]

    def test_sees_blocked_and_grazing(self):
        L = SimplePolygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert sees(L, Point(F(7, 4), F(1, 2)), Point(F(1, 2), F(7, 4))) is False
        assert sees(L, Point(2, 0), Point(0, 2)) is True  # tangent through the notch corner
        assert sees(L, Point(0, 0), Point(2, 0)) is True  # along the bottom edge


# ---------------------------------------------------------------------------
# Integer slab sweep on slanted shapes with non-integer rational corners.
# ---------------------------------------------------------------------------

coords = st.builds(F, st.integers(-(2**24), 2**24), st.integers(1, 2**20))
points = st.builds(Point, coords, coords)


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _hull(pts):
    """Counterclockwise convex hull without collinear vertices (monotone chain)."""
    pts = sorted(set(pts), key=lambda p: (p.x, p.y))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@st.composite
def convex_regions(draw):
    """A slanted triangle or a convex polygon of up to six vertices."""
    ring = _hull(draw(st.lists(points, min_size=3, max_size=draw(st.sampled_from([3, 6])))))
    assume(len(ring) >= 3)
    return Region.of(SimplePolygon(ring))


# x values in (-4, -3), all of one integer floor, with denominators past 2**60
tie_xs = st.builds(lambda n, d: -3 - F(n, d), st.integers(1, 40), st.sampled_from([2**61 - 1, 2**64 + 13, 3**41]))
tie_points = st.builds(Point, tie_xs, st.builds(F, st.integers(-40, 40), st.sampled_from([1, 7, 2**62 + 1])))


@st.composite
def tie_regions(draw):
    ring = _hull(draw(st.lists(tie_points, min_size=3, max_size=5)))
    assume(len(ring) >= 3)
    return Region.of(SimplePolygon(ring))


THIN = Region.of(SimplePolygon([(1, 1000), (2, 2000), (2, 2001)]))


def _clip_area(subject, clip):
    """Area of the intersection of two convex CCW rings (Sutherland-Hodgman)."""
    ring = list(subject)
    for c0, c1 in zip(clip, clip[1:] + clip[:1]):
        inside = [_cross(c0, c1, p) >= 0 for p in ring]
        out = []
        for i, p in enumerate(ring):
            q, q_in = ring[(i + 1) % len(ring)], inside[(i + 1) % len(ring)]
            if inside[i]:
                out.append(p)
            if inside[i] != q_in:
                t = _cross(c0, c1, p) / (_cross(c0, c1, p) - _cross(c0, c1, q))
                out.append(p + (q - p) * t)
        ring = out
    n = len(ring)
    return sum((ring[i].cross(ring[(i + 1) % n]) for i in range(n)), F(0)) / 2


class TestIntegerSweep:
    @settings(max_examples=60, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_inclusion_exclusion(self, a, b):
        inter = region_intersection(a, b).area
        assert inter == _clip_area(a.parts[0].vertices, b.parts[0].vertices)
        assert region_union_all([a, b]).area + inter == a.area + b.area
        assert region_difference(a, b).area + inter == a.area

    @settings(max_examples=40, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_boolean_cells_merge_to_the_same_set(self, a, b):
        # booleans return disjoint cells; merging them for output keeps the set
        rng = random.Random(7)
        for r in (region_union_all([a, b]), region_intersection(a, b), region_difference(a, b)):
            assert validate_disjoint(r)
            merged = merge_region(r)
            assert merged.area == r.area
            for p in region_sample_points(r, rng, 8) + region_sample_points(merged, rng, 8):
                assert merged.covers(p) == r.covers(p)

    @settings(max_examples=60, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_cells_are_normalized_rings(self, a, b):
        for cell in overlay([a, b], tuple).parts:
            ref = SimplePolygon.unchecked(cell.vertices)
            assert cell.vertices == ref.vertices
            assert cell.area == ref.area

    @settings(max_examples=40, deadline=None)
    @given(a=convex_regions(), b=convex_regions(), c=convex_regions())
    def test_classes_split_unions_and_intersections(self, a, b, c):
        layers = [a, b, c]
        shared = classes(layers)
        assert sum((r.area for r in shared.values()), F(0)) == region_union_all(layers).area
        for i, j in combinations(range(len(layers)), 2):
            both = sum((r.area for sig, r in shared.items() if {i, j} <= sig), F(0))
            assert both == region_intersection(layers[i], layers[j]).area

    @settings(max_examples=40, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_classes_of_a_layer_sum_to_its_area(self, a, b):
        # every layer's parts are disjoint: the inputs, booleans and a
        # symmetric difference made of the cells of two booleans
        layers = [a, b, region_union_all([a, b]), region_intersection(a, b),
                  Region(region_difference(a, b).parts + region_difference(b, a).parts)]
        shared = classes(layers)
        for i, layer in enumerate(layers):
            assert sum((r.area for sig, r in shared.items() if i in sig), F(0)) == layer.area

    @settings(max_examples=30, deadline=None)
    @example(a=Region.of(UNIT))
    @given(a=convex_regions())
    def test_copies_sweep_without_zero_height_runs(self, a):
        # the edges of the two copies lie on one line pairwise; no run between
        # two of them may leave the sweep
        shared = classes([a, a])
        one_line = []
        for region in shared.values():
            (xs, runs), x = region._runs, lambda k: F(*xs[k])  # slab ends as (numerator, denominator)
            one_line += [all((bottom.C - bottom.A * x) / bottom.B == (top.C - top.A * x) / top.B
                             for x in (x(k), x(k + 1))) for k, bottom, top in runs]
        assert one_line and not any(one_line)
        assert list(shared) == [frozenset({0, 1})]
        assert shared[frozenset({0, 1})].area == a.area

    @settings(max_examples=40, deadline=None)
    @example(a=Region.of(SimplePolygon([(0, 0), (4, 0), (0, 4)])), b=Region.of(SimplePolygon([(1, 1), (5, 1), (1, 5)])))
    @given(a=convex_regions(), b=convex_regions())
    def test_overlapping_parts_count_with_multiplicity(self, a, b):
        # one layer of two parts that may overlap: a point inside both counts twice
        both = Region(a.parts + b.parts)
        assert overlay([both], lambda c: c[0] >= 2).area == region_intersection(a, b).area
        assert overlay([both], lambda c: c[0] >= 1).area == region_union_all([a, b]).area

    @settings(max_examples=40, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_cells_sweep_like_their_merged_ring(self, a, b):
        # cells enter a later sweep as their net boundary, which is not cut at
        # the slab boundaries of the sweep that made them
        for r in (region_union_all([a, b]), region_intersection(a, b), region_difference(a, b)):
            assert len(overlay([r], any).parts) <= len(overlay([merge_region(r)], any).parts)

    @settings(max_examples=40, deadline=None)
    @example(a=Region.of(UNIT), b=Region.of(UNIT), c=Region.of(SimplePolygon([(0, 0), (2, 1), (0, 1)])))
    @given(a=convex_regions(), b=convex_regions(), c=convex_regions())
    def test_rows_in_height_order(self, a, b, c):
        seen = []
        rows = geom._rows

        def traced(active, xl, xr):
            scale, got = rows(active, xl, xr)
            xl, xr = F(*xl), F(*xr)  # the slab ends come as reduced (numerator, denominator) pairs
            xm = (xl + xr) / 2
            # each row key is the edge's height at the midline times the scale
            seen.append([s for *_, s in got] == slab_rows_reference(active, xl, xr)
                        and all(F(h, scale) == (s.C - s.A * xm) / s.B for h, _, s in got))
            return scale, got

        with mock.patch.object(geom, "_rows", traced):
            classes([a, b, c])
        assert seen and all(seen)

    @settings(max_examples=40, deadline=None)
    @example(a=Region.of(SimplePolygon([(0, 0), (4, 0), (0, 4)])), b=Region.of(SimplePolygon([(1, 1), (5, 1), (1, 5)])),
             c=Region.of(UNIT))
    @given(a=convex_regions(), b=convex_regions(), c=convex_regions())
    def test_runs_agree_with_their_cells(self, a, b, c):
        # a swept region's area and net boundary come from its runs; its cells,
        # built afterwards, must give the same shoelace areas and sides
        # the booleans count overlaps, so they take one layer of two parts that
        # may overlap; a layer of `classes` counts a point at most once
        both = Region(a.parts + b.parts)
        out = [region_union_all([both, c]), region_intersection(both, c), region_difference(both, c),
               region_difference(c, both), *classes([region_union_all([a, b]), c, a]).values()]
        for r in out:
            area, boundary = r.area, r._net_boundary()
            assert area == sum((SimplePolygon(cell.vertices).area for cell in r.parts), F(0))
            sides = [side for side in cell_sides(r.parts) if side[0].x != side[1].x]
            assert Counter(map(edge_ends, boundary)) == Counter(net_runs_reference(sides))

    @settings(max_examples=100, deadline=None)
    @example(xs=[F(-3) - F(1, 2**70), F(-3) - F(1, 2**70 + 1), F(-3) - F(2, 2**71 + 1), F(-4)])
    @given(xs=st.lists(tie_xs | coords, min_size=1, max_size=30))
    def test_slab_order_on_integers_is_the_fraction_order(self, xs):
        # the example's first three values tie on floor(x * 2**64)
        pairs = {(x.numerator, x.denominator) for x in xs}
        assert geom._order(pairs) == [(x.numerator, x.denominator) for x in sorted(set(xs))]

    @settings(max_examples=40, deadline=None)
    @example(a=Region.of(SimplePolygon([(F(-3) - F(30, 2**61 - 1), 0), (F(-3) - F(1, 2**61 - 1), 0),
                                        (F(-3) - F(1, 2**61 - 1), 5)])),
             b=Region.of(SimplePolygon([(F(-3) - F(29, 3**41), F(4)), (F(-3) - F(29, 3**41), F(-1, 7)),
                                        (F(-3) - F(3, 2**64 + 13), F(2))])),
             c=Region.of(SimplePolygon([(F(-3) - F(40, 2**64 + 13), F(-2)), (F(-3) - F(2, 3**41), F(-2)),
                                        (F(-3) - F(20, 2**61 - 1), F(1, 2**62 + 1))])))
    @given(a=tie_regions(), b=tie_regions(), c=tie_regions())
    def test_slabs_where_x_values_tie_on_their_floor(self, a, b, c):
        # negative x values of one integer floor, large denominators and
        # crossings between the edges: the slab boundaries are the Fraction
        # order of the edge ends and crossings, and the runs' areas are their cells'
        layers = [a, b, c]
        ends = {v.x for r in layers for v in r.parts[0].vertices}
        assert {math.floor(x) for x in ends} == {-4}
        swept = [region_union_all(layers), *classes(layers).values(), region_intersection(a, b),
                 region_difference(b, c)]
        for r in swept:
            if r.is_empty:
                continue
            xs = [F(n, d) for n, d in r._runs[0]]  # slab ends as reduced (numerator, denominator)
            assert r._runs[0] == [(x.numerator, x.denominator) for x in xs] and xs == sorted(set(xs))
            assert r.area == sum((SimplePolygon(cell.vertices).area for cell in r.parts), F(0))
        assert ends <= {F(n, d) for n, d in swept[0]._runs[0]}

    @settings(max_examples=60, deadline=None)
    @example(a=Region.of(UNIT), b=Region.of(rect(1, 0, 2, 1)), dx=0, parts=1)  # touch at a window end
    @example(a=Region.of(UNIT), b=Region.of(SimplePolygon([(-1, 2), (0, 0), (0, 3)])), dx=0, parts=2)
    @given(a=convex_regions(), b=convex_regions(), dx=st.sampled_from([0, 1, -1]), parts=st.integers(1, 3))
    def test_windowed_booleans_keep_the_full_sweeps_cells(self, a, b, dx, parts):
        # a difference sweeps only the edges of b that meet a's x-range, an
        # intersection only the edges that meet both ranges; b is moved to
        # touch a's range at one end (dx), and a may be swept, of several parts
        if dx:
            (lo, hi), (blo, bhi) = ((min(v.x for p in r.parts for v in p.vertices),
                                     max(v.x for p in r.parts for v in p.vertices)) for r in (a, b))
            shift = hi - blo if dx > 0 else lo - bhi
            b = Region.of(SimplePolygon([(v.x + shift, v.y) for v in b.parts[0].vertices]))
        if parts > 1:
            a = region_union_all([a, Region.of(rect(-3, -3, -2, -2 + parts))])
        if parts > 2:
            b = Region(b.parts + (rect(5, 5, 6, 6),))
        for got, keep in ((region_difference(a, b), lambda c: c[0] > 0 and c[1] == 0),
                          (region_difference(b, a), lambda c: c[1] > 0 and c[0] == 0),
                          (region_intersection(a, b), lambda c: c[0] > 0 and c[1] > 0)):
            full = overlay([a, b], keep)
            assert got.area == full.area and got.parts == full.parts

    def test_difference_sweeps_only_the_edges_in_its_window(self, monkeypatch):
        seen = []
        sweep = geom._sweep

        def traced(layers, key, group):
            seen.append([len(layer._net_boundary()) for layer in layers])
            return sweep(layers, key, group)

        monkeypatch.setattr(geom, "_sweep", traced)
        a = Region.of(UNIT)
        b = Region((rect(F(1, 2), 0, F(3, 2), 1), rect(1, 3, 2, 4), rect(5, 5, 6, 6)))
        assert region_difference(a, b).area == F(1, 2)
        assert region_intersection(a, b).area == F(1, 2)
        assert region_intersection(Region.of(b.parts[0]), Region.of(rect(F(3, 2), 0, 5, 1))).is_empty  # at x = 3/2
        # b's squares right of x = 1, or touching it there, leave the sweep
        assert seen == [[2, 2], [2, 2], [0, 0]]

    @settings(max_examples=40, deadline=None)
    @example(a=THIN, b=THIN, c=THIN)  # the corners' bits come from A*xn, on a line through the origin
    @given(a=convex_regions(), b=convex_regions(), c=tie_regions())
    def test_bits_bound_bounds_the_cells(self, a, b, c):
        # the bound read off the runs' slab ends and lines is at least the
        # cells' coordinate bits, and so at least those of merged rings
        for r in (region_union_all([a, b]), region_intersection(a, b), region_difference(a, b),
                  region_union_all([a, c]), *classes([a, b, c]).values()):
            if not r.is_empty:
                assert r._bits_bound() >= r.max_coordinate_bits() >= merge_region(r).max_coordinate_bits()

    def test_trusted_refuses_non_positive_area(self):
        ring = (Point(0, 0), Point(1, 0), Point(0, 1))
        assert SimplePolygon._trusted(ring, F(1, 2)).area == F(1, 2)
        for area in (F(0), F(-1, 2)):
            with pytest.raises(InvariantViolated):
                SimplePolygon._trusted(ring, area)


# rectangles on a small grid share sides often; a region of several may overlap itself
grid_rects = st.builds(lambda x, y, w, h: rect(x, y, x + w, y + h), st.integers(0, 3), st.integers(0, 3),
                       st.integers(1, 2), st.integers(1, 2))
grid_regions = st.lists(grid_rects, min_size=1, max_size=3).map(Region)


def _union_matches_reference(regions):
    # the one-layer union and the sweep of a layer per region keep one point set:
    # one area, one net boundary and, where cells merge, the same merged rings
    got, ref = region_union_all(regions), union_reference(regions)
    assert got.area == ref.area
    assert sorted(geom._netted(got._net_boundary())) == sorted(geom._netted(ref._net_boundary()))
    merged = [merge_region(r) for r in (got, ref)]
    merges = [m is not r or len(r.parts) == 1 for m, r in zip(merged, (got, ref))]
    assert merges[0] == merges[1]
    if merges[0]:
        assert [p.vertices for p in merged[0].parts] == [p.vertices for p in merged[1].parts]


def _shaped_polygon(rng, shape):
    return {"histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)), "comb": lambda: comb(rng.randint(2, 3)),
            "radial": lambda: radial_polygon(rng, 8), "lshape": lshape}[shape]()


def _captured_unions(P, q, r):
    # the regions each union of the cascade from q to depth r, and of a weak
    # visibility polygon of an edge, is asked for
    captured = []

    def union(regions):
        captured.append(list(regions))
        return region_union_all(regions)

    with mock.patch.object(reflect, "region_union_all", union), mock.patch.object(visibility, "region_union_all", union):
        extend_all_edges(P, q, r)
        weak_visibility_polygon(P, P.edge(0))
    return captured


class TestOneLayerUnion:
    @settings(max_examples=60, deadline=None)
    @example(regions=[Region.of(UNIT), Region.of(UNIT)], copies=0)
    @example(regions=[Region.of(UNIT), Region.of(rect(1, 0, 2, 1)), Region.of(rect(0, 1, 1, 3))], copies=0)
    @example(regions=[Region((rect(0, 0, 2, 2), rect(1, 1, 3, 3))), Region((rect(1, 0, 2, 3), UNIT))], copies=1)
    @given(regions=st.lists(grid_regions | convex_regions(), min_size=2, max_size=4), copies=st.integers(0, 2))
    def test_matches_a_layer_per_region(self, regions, copies):
        # identical regions (the copies), regions sharing sides, and regions of
        # several parts that overlap each other
        _union_matches_reference(regions + regions[:copies])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["histogram", "comb", "radial", "lshape"]))
    def test_matches_a_layer_per_fan_on_cascades(self, seed, shape):
        # the fans of each cascade depth and the VPs and fans of weak
        # visibility (`_seeing`), as the library unions them
        rng = random.Random(seed)
        P = _shaped_polygon(rng, shape)
        for regions in _captured_unions(P, interior_point(rng, P), 2):
            if sum(not r.is_empty for r in regions) > 1:  # else the union is its one input
                _union_matches_reference(regions)

    def test_sweeps_one_layer_and_reads_no_fan(self, monkeypatch):
        # a depth's fans enter the sweep as one netted boundary, in which the
        # sides they share cancel; no fan's area or polygon is built
        P = comb(3)
        fans = max(_captured_unions(P, interior_point(random.Random(3), P), 2), key=len)
        assert len(fans) >= 10
        assert all(f._area is None and not isinstance(f._parts, tuple) for f in fans if not f.is_empty)
        assert len(geom._stacked(fans)._net_boundary()) < sum(len(f._net_boundary()) for f in fans)
        layers = []
        sweep = geom._sweep
        monkeypatch.setattr(geom, "_sweep", lambda ls, key, group: layers.append(len(ls)) or sweep(ls, key, group))
        region_union_all(fans)
        assert layers == [1]


def _classes_match_reference(layers):
    # one bit-weighted layer and a sweep layer per region: the same classes in the
    # same order, of the same areas and net boundaries
    got, ref = classes(layers), classes_reference(layers)
    assert list(got) == list(ref)
    for sig, region in ref.items():
        assert got[sig].area == region.area
        assert sorted(got[sig]._net_boundary()) == sorted(region._net_boundary())


class TestBitWeightedClasses:
    @settings(max_examples=60, deadline=None)
    @example(a=Region.of(UNIT), b=Region.of(rect(1, 0, 2, 1)), c=Region.of(rect(0, 0, 2, 2)), picks=[0, 1, 2, 0, 6])
    @given(a=convex_regions() | grid_rects.map(Region.of), b=convex_regions() | grid_rects.map(Region.of),
           c=convex_regions() | grid_rects.map(Region.of), picks=st.lists(st.integers(0, 6), min_size=1, max_size=7))
    def test_matches_a_layer_per_region(self, a, b, c, picks):
        # copies, booleans sharing sides with their inputs, swept regions of
        # several parts and an empty layer, which leaves its bit unset
        pool = [a, b, c, region_intersection(a, b), region_difference(a, b), region_union_all([b, c]), Region.empty()]
        _classes_match_reference([pool[i] for i in picks])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["histogram", "comb", "radial", "lshape"]),
           r=st.sampled_from([0, 1]))
    def test_matches_a_layer_per_region_on_guard_layers(self, seed, shape, r):
        # the polygon and its vertices' VPs (r = 0) or extended regions and the
        # regions the cascade adds (r = 1), most of them on the polygon's edge lines
        rng = random.Random(seed)
        P = _shaped_polygon(rng, shape)
        layers = [Region.of(P)] + [extended_region(P, v, r) for v in P.vertices]
        if r:
            layers += [extend_all_edges(P, v, r).added for v in rng.sample(P.vertices, 3)]
        _classes_match_reference(layers)

    def test_sweeps_one_layer_of_fewer_edges(self, monkeypatch):
        # the layers' collinear sides join before the sweep: a vertex's VP lies
        # mostly on the polygon's edge lines
        P = comb(3)
        layers = [Region.of(P)] + [extended_region(P, v, 0) for v in P.vertices]
        swept = []
        sweep = geom._sweep
        monkeypatch.setattr(geom, "_sweep", lambda ls, key, group: swept.append(ls) or sweep(ls, key, group))
        classes(layers)
        assert len(swept) == 1 and len(swept[0]) == 1
        assert 2 * len(swept[0][0]._net_boundary()) < sum(len(r._net_boundary()) for r in layers)


# ---------------------------------------------------------------------------
# Merging on the integer net boundary against the Point-netting reference.
# ---------------------------------------------------------------------------

HOLE = (rect(0, 0, 3, 1), rect(0, 2, 3, 3), rect(0, 1, 1, 2), rect(2, 1, 3, 2))  # a ring of cells around [1, 2]^2
PINCH = (UNIT, rect(1, 1, 2, 2))  # two squares meeting at a corner
FAN_POLYGONS = (lshape(), comb(3), histogram_polygon(random.Random(5), 5), radial_polygon(random.Random(2), 8))
fan_edges = st.tuples(st.sampled_from(FAN_POLYGONS), st.integers(0, 63))


def _merges_like_the_reference(r: Region) -> bool:
    # the same rings, in the same order from the same first vertex; True if it fell back
    got, ref = merge_region(r), merge_region_reference(r)
    assert [p.vertices for p in got.parts] == [p.vertices for p in ref.parts]
    return got is r


class TestMergeOnTheNetBoundary:
    @settings(max_examples=60, deadline=None)
    @example(a=Region(HOLE), b=Region.of(rect(1, 1, 2, 2)), c=Region(PINCH), fan=(FAN_POLYGONS[1], 0))
    @given(a=grid_regions | convex_regions(), b=grid_regions | convex_regions(), c=grid_regions | convex_regions(),
           fan=fan_edges)
    def test_matches_the_point_netting_reference(self, a, b, c, fan):
        # booleans, `classes` outputs, swept copies, joins and stacks (whose
        # parts may overlap), and the fans of an edge and their union
        P, e = fan
        fans = visibility._seeing(P, P.edge(e % P.n))
        regions = [region_union_all([a, b]), region_intersection(a, b), region_difference(a, b),
                   region_difference(b, a), *classes([a, b, c]).values(), overlay([a], any), overlay([c], any),
                   geom.region_join(list(classes([a, b]).values())), geom._stacked([a, b, c]), a, b, c,
                   *fans, region_union_all(fans), geom._stacked(fans)]
        for r in regions:
            if not r.is_empty:
                _merges_like_the_reference(r)

    def test_hole_and_pinch_fall_back(self):
        # given as parts, swept, and joined with no sweep
        for parts in (HOLE, PINCH):
            for r in (Region(parts), overlay([Region(parts)], any), geom.region_join([Region.of(p) for p in parts])):
                assert _merges_like_the_reference(r), (parts, r)
        filled = region_union_all([Region(HOLE), Region.of(rect(1, 1, 2, 2))])
        assert not _merges_like_the_reference(filled)
        assert merge_region(filled).parts[0].vertices == rect(0, 0, 3, 3).vertices

    def test_merging_a_swept_region_builds_no_cell(self, monkeypatch):
        r = region_union_all([Region.of(rect(0, 0, 2, 1)), Region.of(rect(0, 0, 1, 2)),
                              Region.of(SimplePolygon([(1, 1), (3, 0), (3, 3)]))])
        calls = []
        trapezoid = geom._trapezoid
        monkeypatch.setattr(geom, "_trapezoid", lambda *args: calls.append(args) or trapezoid(*args))
        merged = merge_region(r)
        assert len(merged.parts) == 1 and calls == []
        one_run = region_intersection(Region.of(UNIT), Region.of(rect(F(1, 2), 0, 2, 1)))
        assert merge_region(one_run).parts[0].vertices == rect(F(1, 2), 0, 1, 1).vertices and calls == []
        # the cells, read afterwards, are the reference's input
        assert len(r.parts) > 1 and calls
        assert merged.parts[0].vertices == merge_region_reference(r).parts[0].vertices

    @settings(max_examples=40, deadline=None)
    @example(a=Region(HOLE), b=Region(PINCH), c=Region.of(rect(1, 1, 2, 2)))
    @given(a=grid_regions | convex_regions(), b=grid_regions | convex_regions(), c=convex_regions())
    def test_verticals_are_the_cells_vertical_runs(self, a, b, c):
        # at every end x of the net boundary, and nowhere else, the vertical
        # sides rebuilt from it are the netted vertical sides of the cells
        both = Region(a.parts + b.parts)  # one layer of parts that may overlap
        for r in (region_union_all([both, c]), region_intersection(both, c), region_difference(both, c),
                  region_difference(c, both), *classes([both, c, a]).values()):
            edges, ref = r._net_boundary(), {}
            for p, q, w in net_runs_reference(cell_sides(r.parts)):
                if p.x == q.x:
                    ref.setdefault(p.x, []).append((p.y, q.y, w))
            got = {F(*x): geom._verticals(edges, x) for e in edges for x in (e[3:5], e[5:7])}
            assert {x: v for x, v in got.items() if v} == {x: sorted(v) for x, v in ref.items()}


# ---------------------------------------------------------------------------
# Point location on the net boundary against the scan over parts.
# ---------------------------------------------------------------------------

# the square [-1, 1]^2 with the wedge (1, -1/2), (0, 0), (1, 1/2) cut out, and its mirror image
NOTCH = SimplePolygon([(-1, -1), (1, -1), (1, F(-1, 2)), (0, 0), (1, F(1, 2)), (1, 1), (-1, 1)])
MIRRORED_NOTCH = SimplePolygon([(1, 1), (-1, 1), (-1, F(1, 2)), (0, 0), (-1, F(-1, 2)), (-1, -1), (1, -1)])


@st.composite
def located_regions(draw):
    """A region and whether it is one polygon's: a polygon, a sweep's output, disjoint
    regions joined with no sweep, or a fan (a visibility polygon or pivot cones)."""
    kind = draw(st.sampled_from(["polygon", "swept", "joined", "fan"]))
    if kind in ("swept", "joined"):
        a, b = draw(grid_regions | convex_regions()), draw(grid_regions | convex_regions())
        if kind == "joined":
            return geom.region_join(list(classes([a, b]).values())), False
        op = draw(st.sampled_from([region_intersection, region_difference, lambda a, b: region_union_all([a, b])]))
        return op(a, b), False
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    P = draw(st.sampled_from([lambda: NOTCH, lambda: MIRRORED_NOTCH, lshape, lambda: comb(rng.randint(2, 3)),
                              lambda: histogram_polygon(rng, 4), lambda: radial_polygon(rng, 7)]))()
    if kind == "polygon":
        return Region.of(P), True
    v = P.vertices[draw(st.integers(0, P.n - 1))]
    if draw(st.booleans()) or not P.reflex_indices():
        return visibility_polygon(P, v).region, False
    e = P.edge(draw(st.integers(0, P.n - 1)))
    pivot = P.vertices[P.reflex_indices()[0]]
    assume(orientation(e.a, e.b, pivot) is not Orientation.COLLINEAR)
    return visibility._pivot_cones(visibility._frame(P, pivot), e.a, e.b), False


def _probe_points(region: Region) -> set[Point]:
    # the vertices and side midpoints of the parts and of the sweep's cells: the
    # cells' corners and vertical sides lie on seams between parts
    rings = [p.vertices for p in region.parts] + [c.vertices for c in overlay([region], any).parts]
    return {p for ring in rings for a, b in zip(ring, ring[1:] + ring[:1]) for p in (a, (a + b) * F(1, 2))}


class TestPointLocation:
    def test_seam_between_cells_is_interior(self):
        # the union is two cells split at x = 1; the scan over parts sees the split
        union = region_union_all([Region.of(rect(0, 0, 2, 1)), Region.of(rect(0, 0, 1, 2))])
        seam = Point(1, F(1, 2))
        assert union.contains(seam) is PointLocation.INTERIOR
        assert region_contains_reference(union, seam) is PointLocation.BOUNDARY
        assert union.contains(Point(1, 1)) is PointLocation.BOUNDARY
        assert union.contains(Point(1, 2)) is PointLocation.BOUNDARY
        assert union.contains(Point(F(3, 2), F(3, 2))) is PointLocation.EXTERIOR

    def test_reflex_notch_is_boundary(self):
        # at the notch's tip the sectors right of it (left in the mirror image)
        # read inside, outside, inside: walked in the wrong slope order they
        # would read inside throughout
        for P, side in ((NOTCH, 1), (MIRRORED_NOTCH, -1)):
            cases = {Point(0, 0): PointLocation.BOUNDARY, Point(F(side, 2), 0): PointLocation.EXTERIOR,
                     Point(F(-side, 2), 0): PointLocation.INTERIOR, Point(F(side, 2), F(1, 2)): PointLocation.INTERIOR,
                     Point(side, F(1, 4)): PointLocation.EXTERIOR, Point(side, F(1, 2)): PointLocation.BOUNDARY}
            for p, loc in cases.items():
                assert P.contains(p) is loc is Region.of(P).contains(p) is contains_reference(P, p), (P, p)

    def test_a_polygon_keeps_its_outline(self, monkeypatch):
        # the first query reads the ring into net boundary edges, and the
        # polygon keeps them: a second query builds no edge
        P = comb(3)
        calls = Counter()
        edge = geom._edge

        def counted(*args):
            calls["_edge"] += 1
            return edge(*args)

        monkeypatch.setattr(geom, "_edge", counted)
        assert P.contains(Point(F(1, 2), F(1, 2))) is PointLocation.INTERIOR
        assert calls["_edge"] == P.n
        assert P.contains(Point(F(3, 2), F(3, 2))) is PointLocation.EXTERIOR
        assert calls["_edge"] == P.n

    @settings(max_examples=60, deadline=None)
    @example(case=(geom.region_join([Region.of(rect(0, 0, 1, 1)), Region.of(rect(1, 0, 2, 1))]), False))
    @example(case=(Region.of(NOTCH), True))
    @given(case=located_regions())
    def test_matches_the_scan_over_parts(self, case):
        # the net boundary answers INTERIOR wherever some part does, and also on
        # a seam whose neighbourhood the parts cover; it covers exactly the
        # points some part covers, and on one polygon it is that polygon's answer
        region, polygon = case
        assume(not region.is_empty)
        for p in _probe_points(region):
            got, ref = region.contains(p), region_contains_reference(region, p)
            assert region.covers(p) is (ref is not PointLocation.EXTERIOR), p
            assert ref is not PointLocation.INTERIOR or got is PointLocation.INTERIOR, p
            assert got is not PointLocation.BOUNDARY or ref is PointLocation.BOUNDARY, p
            if polygon:
                assert got is ref, p


# ---------------------------------------------------------------------------
# Integer ring construction against the Fraction reference.
# ---------------------------------------------------------------------------


def _built(ring):
    """Vertices and area of SimplePolygon(ring), or the type and message it raised."""
    try:
        P = SimplePolygon(ring)
    except GeometryError as ex:
        return type(ex), str(ex)
    return P.vertices, P.area


def _reference(ring):
    try:
        return polygon_reference(ring)
    except GeometryError as ex:
        return type(ex), str(ex)


@st.composite
def rings(draw):
    """Rings of large rational points, or of small grid points (touching and
    collinear edges), sorted by angle around their centroid (mostly simple)
    or not (mostly crossing), with repeated vertices and points on the line
    of an edge (inside it, or folding back) inserted."""
    grid = st.builds(Point, st.integers(0, 4), st.integers(0, 4))
    ring = draw(st.lists(draw(st.sampled_from([points, grid])), min_size=3, max_size=9, unique=True))
    if draw(st.booleans()):
        c = Point(sum((p.x for p in ring), F(0)) / len(ring), sum((p.y for p in ring), F(0)) / len(ring))
        assume(c not in ring)
        ring.sort(key=cmp_to_key(lambda a, b: dir_cmp(((a - c).x, (a - c).y), ((b - c).x, (b - c).y))))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(ring) - 1))
        a, b = ring[i], ring[(i + 1) % len(ring)]
        t = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(-1, 2), F(3, 2), F(7, 5)]))
        ring.insert(i + 1, a + (b - a) * t)
    if draw(st.booleans()):
        ring.reverse()
    return ring


@st.composite
def simple_rings(draw):
    """Counterclockwise rings that are simple by construction: points at strictly
    increasing angles around a centre, the four axis directions among them, so
    neighbours lie less than a half turn apart around it, of large rational or
    small grid coordinates (collinear and touching edges), with repeated vertices
    and points inside an edge inserted."""
    grid = draw(st.booleans())
    centre = draw(st.builds(Point, st.integers(0, 4), st.integers(0, 4)) if grid else points)
    steps = st.integers(-4, 4) if grid else st.integers(-(2**10), 2**10)
    drawn = draw(st.lists(st.tuples(steps, steps), max_size=6))
    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)} | {primitive_direction(Point(*d)) for d in drawn if d != (0, 0)}
    radii = st.integers(1, 4).map(F) if grid else st.builds(F, st.integers(1, 2**24), st.integers(1, 2**20))
    ring = [centre + Point(*d) * draw(radii) for d in sorted(dirs, key=cmp_to_key(dir_cmp))]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(ring) - 1))
        a, b = ring[i], ring[(i + 1) % len(ring)]
        ring.insert(i + 1, a + (b - a) * draw(st.sampled_from([F(0), F(1, 3), F(1, 2)])))
    return ring


def _spike_square():
    # a spike from the top whose tip touches the bottom edge
    return [(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)]


REJECTED_RINGS = {
    "bowtie": [(0, 0), (4, 0), (0, 2), (1, 3)],
    "vertex on a non-adjacent edge": _spike_square(),
    "collinear overlap": [(0, 0), (4, 0), (4, -1), (8, -1), (8, 0), (-2, 0), (-2, -3), (10, -3), (10, 6), (0, 6)],
    "fold-back across an edge": [(0, 0), (4, 0), (4, 4), (2, 4), (2, -2), (2, -1), (0, 4)],
    "fold-back to a segment": [(0, 0), (2, 0), (1, 0)],
    "repeated vertices only": [(1, 1), (1, 1), (1, 1)],
    "clockwise": [(0, 0), (0, 1), (1, 1), (1, 0)],
}


class TestIntegerRing:
    @settings(max_examples=300, deadline=None)
    @given(ring=rings())
    def test_matches_fraction_reference(self, ring):
        assert _built(ring) == _reference(ring)

    @pytest.mark.parametrize("name", sorted(REJECTED_RINGS))
    def test_rejects_like_the_reference(self, name):
        ring = REJECTED_RINGS[name]
        got = _built(ring)
        assert got[0] is GeometryError
        assert got == _reference(ring)

    @settings(max_examples=200, deadline=None)
    @given(ring=simple_rings())
    def test_reflex_vertices_turn_clockwise(self, ring):
        P = SimplePolygon(ring)
        v = P.vertices
        assert P.reflex_indices() == tuple(i for i in range(P.n)
                                           if orientation(v[i - 1], v[i], v[(i + 1) % P.n]) is Orientation.CW)

    @settings(max_examples=200, deadline=None)
    @given(ring=simple_rings(), data=st.data())
    def test_contains_matches_fraction_reference(self, ring, data):
        # the net boundary locator reads points on the ring's scale and on
        # denominators its scale lacks (7, 11, 2**20 + 7)
        P = SimplePolygon(ring)
        v = P.vertices
        xmin, ymin, xmax, ymax = P.bbox
        fracs = st.builds(F, st.integers(-2, 9), st.sampled_from([1, 2, 7, 11, 2**20 + 7]))
        t = data.draw(st.lists(fracs, min_size=4, max_size=4))
        i = data.draw(st.integers(0, P.n - 1))
        a, b = v[i], v[(i + 1) % P.n]
        inner = a + (b - a) * F(1, 2) + (v[i - 1] - a) * F(1, 2**21 + 9)  # just off the middle of edge i
        probes = [*v, a + (b - a) * (t[0] % 1), a + (b - a) * F(1, 7), inner,
                  Point(xmin + (xmax - xmin) * t[1] / 8, a.y),  # on the line of a vertex
                  Point(xmin + (xmax - xmin) * t[2] / 8, ymin + (ymax - ymin) * t[3] / 8),
                  data.draw(points)]
        for p in probes:
            assert P.contains(p) is contains_reference(P, p), (P, p)

    def test_contains_locates_every_kind_of_point(self):
        P = SimplePolygon([(0, 0), (F(9, 2), 0), (F(9, 2), 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)])
        cases = {Point(0, 0): PointLocation.BOUNDARY, Point(F(2, 7), 3): PointLocation.BOUNDARY,
                 Point(3, F(15, 7)): PointLocation.BOUNDARY, Point(F(1, 7), F(20, 7)): PointLocation.INTERIOR,
                 Point(2, F(6, 7)): PointLocation.INTERIOR, Point(2, 1 + F(1, 2**20 + 7)): PointLocation.EXTERIOR,
                 Point(2, 3): PointLocation.EXTERIOR, Point(F(-1, 7), 1): PointLocation.EXTERIOR,
                 Point(F(31, 7), 1): PointLocation.INTERIOR, Point(5, 1): PointLocation.EXTERIOR}
        for p, loc in cases.items():
            assert P.contains(p) is loc is contains_reference(P, p), p

    def test_normalizes_like_the_reference(self):
        # repeated vertices, a closing repeat and fold-backs along edges
        for ring in ([(0, 0), (0, 0), (4, 0), (4, 4), (4, 4), (0, 4), (0, 0)],
                     [(0, 0), (4, 0), (6, 0), (4, 0), (4, 4), (0, 4)],
                     [(0, 0), (4, 0), (4, 4), (0, 4), (0, 6), (0, 2)],
                     [(F(1, 3), 0), (F(2, 3), 0), (1, 0), (1, F(5, 7)), (0, F(5, 7)), (0, 0)]):
            got = _built(ring)
            assert got == _reference(ring) and got[0] != GeometryError
