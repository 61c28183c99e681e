import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorgallery.errors import GeometryError, InvariantViolated
from mirrorgallery.geom import (
    Orientation,
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    _line_key,
    _sweep,
    merge_intervals,
    merge_region,
    orientation,
    region_clip_halfplane,
    region_difference,
    region_intersection,
    region_sample_points,
    region_union,
    sees,
    segment_intersection,
    segment_parts_inside,
    subtract_intervals,
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
        assert region_union(a, b).area == 2

    def test_union_self(self):
        a = Region.of(UNIT)
        assert region_union(a, a).area == 1

    def test_union_overlap_half(self):
        a = Region.of(UNIT)
        b = Region.of(rect(F(1, 2), 0, F(3, 2), 1))
        u = region_union(a, b)
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
        u1 = region_union(a, b)
        u2 = region_union(b, a)
        idem = region_union(u1, u1)
        pts = region_sample_points(u1, rng, 500)
        assert all(u2.covers(p) and idem.covers(p) for p in pts)
        pts2 = region_sample_points(u2, rng, 500)
        assert all(u1.covers(p) for p in pts2)

    def test_region_area_is_part_sum(self):
        parts = (rect(0, 0, 1, 1), rect(2, 0, 3, 4))
        r = Region(parts)
        assert r.area == sum((p.area for p in parts), F(0))
        assert r.validate_disjoint()

    def test_inclusion_exclusion_random_rectangles(self, rng):
        for _ in range(120):
            x0, y0 = F(rng.randint(0, 30), 4), F(rng.randint(0, 30), 4)
            a = Region.of(rect(x0, y0, x0 + F(rng.randint(1, 20), 4), y0 + F(rng.randint(1, 20), 4)))
            x1, y1 = F(rng.randint(0, 30), 4), F(rng.randint(0, 30), 4)
            b = Region.of(rect(x1, y1, x1 + F(rng.randint(1, 20), 4), y1 + F(rng.randint(1, 20), 4)))
            assert region_union(a, b).area == a.area + b.area - region_intersection(a, b).area

    def test_halfplane_clip(self):
        a = Region.of(UNIT)
        clipped = region_clip_halfplane(a, Point(F(1, 2), 0), Point(F(1, 2), 1))
        assert clipped.area == F(1, 2)

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


def _line_key_reference(a, b):
    """The Fraction formula the integer line key replaced."""
    A = b.y - a.y
    B = a.x - b.x
    C = A * a.x + B * a.y
    denom = A.denominator * B.denominator * C.denominator
    ai, bi, ci = int(A * denom), int(B * denom), int(C * denom)
    g = math.gcd(math.gcd(abs(ai), abs(bi)), abs(ci)) or 1
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return (ai, bi, ci)


class TestIntegerSweep:
    @settings(max_examples=60, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_inclusion_exclusion(self, a, b):
        inter = region_intersection(a, b).area
        assert inter == _clip_area(a.parts[0].vertices, b.parts[0].vertices)
        assert region_union(a, b).area + inter == a.area + b.area
        assert region_difference(a, b).area + inter == a.area

    @settings(max_examples=40, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_boolean_cells_merge_to_the_same_set(self, a, b):
        # booleans return disjoint cells; merging them for output keeps the set
        rng = random.Random(7)
        for r in (region_union(a, b), region_intersection(a, b), region_difference(a, b)):
            assert r.validate_disjoint()
            merged = merge_region(r)
            assert merged.area == r.area
            for p in region_sample_points(r, rng, 8) + region_sample_points(merged, rng, 8):
                assert merged.covers(p) == r.covers(p)

    @settings(max_examples=60, deadline=None)
    @given(a=convex_regions(), b=convex_regions())
    def test_cells_are_normalized_rings(self, a, b):
        for _, cell in _sweep([a, b], tuple):
            ref = SimplePolygon.unchecked(cell.vertices)
            assert cell.vertices == ref.vertices
            assert cell.area == ref.area

    @settings(max_examples=100, deadline=None)
    @given(a=points, b=points, t=coords, u=coords)
    def test_line_key(self, a, b, t, u):
        assume(a != b and t != u)
        key = _line_key(a, b)
        assert key == _line_key_reference(a, b) == _line_key(b, a)
        d = b - a
        assert _line_key(a + d * t, a + d * u) == key

    def test_trusted_refuses_non_positive_area(self):
        ring = (Point(0, 0), Point(1, 0), Point(0, 1))
        assert SimplePolygon._trusted(ring, F(1, 2)).area == F(1, 2)
        for area in (F(0), F(-1, 2)):
            with pytest.raises(InvariantViolated):
                SimplePolygon._trusted(ring, area)
