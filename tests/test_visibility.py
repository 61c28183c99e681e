from fractions import Fraction as F
from math import gcd

import pytest

from mirrorgallery.errors import QueryOutsidePolygon, SegmentOutsidePolygon
from mirrorgallery.geom import (
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    merge_region,
    region_difference,
    region_sample_points,
    sees,
)
from mirrorgallery.visibility import visibility_polygon, weak_visibility_polygon

from conftest import histogram_polygon, lshape, radial_polygon, random_funnel
from oracles import visibility_area_oracle

PENTA_FUNNEL = SimplePolygon([(0, 0), (6, 0), (4, 2), (3, 5), (2, 2)])


class TestVisibilityPolygon:
    def test_convex_interior(self):
        sq = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        vp = visibility_polygon(sq, Point(1, 1))
        assert vp.polygon.area == sq.area
        assert vp.windows == ()

    def test_query_outside(self):
        with pytest.raises(QueryOutsidePolygon):
            visibility_polygon(lshape(), Point(5, 5))

    def test_funnel_kernel_sees_all(self):
        # a chord point of the funnel that sees the whole polygon
        vp = visibility_polygon(PENTA_FUNNEL, Point(3, 0))
        assert vp.polygon.area == PENTA_FUNNEL.area

    def test_lshape_fully_visible_corner(self):
        # from deep inside the square leg the whole hexagon is visible
        L = lshape()
        vp = visibility_polygon(L, Point(F(1, 4), F(1, 4)))
        assert vp.polygon.area == 3
        assert vp.windows == ()

    def test_lshape_ray_cast_agreement(self):
        # derived check: every first-hit along a fan of exact directions lies
        # on the computed boundary, and the sight segment stays inside
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        vp = visibility_polygon(L, q)
        dirs = sorted(
            {
                (dx // gcd(abs(dx), abs(dy)), dy // gcd(abs(dx), abs(dy)))
                for dx in range(-12, 13)
                for dy in range(-12, 13)
                if (dx, dy) != (0, 0)
            }
        )
        for dx, dy in dirs:
            d = Point(F(dx), F(dy))
            best = None
            for e in L.edges():
                de = e.b - e.a
                denom = d.cross(de)
                if denom == 0:
                    continue
                w = e.a - q
                t = w.cross(de) / denom
                s = w.cross(d) / denom
                if t > 0 and 0 <= s <= 1 and (best is None or t < best):
                    best = t
            assert best is not None
            hit = q + d * best
            midpoint = q + d * (best / 2)
            inside_vp = vp.polygon.contains(midpoint) is not PointLocation.EXTERIOR
            assert inside_vp == sees(L, q, midpoint)

    def test_containment_chain(self, rng):
        for poly in [lshape(), PENTA_FUNNEL, histogram_polygon(rng)]:
            q = region_sample_points(Region.of(poly), rng, 1)[0]
            vp = visibility_polygon(poly, q)
            assert vp.polygon.contains(q) is not PointLocation.EXTERIOR
            for v in vp.polygon.vertices:
                assert poly.contains(v) is not PointLocation.EXTERIOR

    def test_star_shapedness(self, rng):
        checked = 0
        for poly in [lshape(), PENTA_FUNNEL, histogram_polygon(rng), radial_polygon(rng)]:
            q = region_sample_points(Region.of(poly), rng, 1)[0]
            vp = visibility_polygon(poly, q)
            for x in region_sample_points(Region.of(vp.polygon), rng, 250):
                assert sees(poly, q, x)
                checked += 1
        assert checked == 1000

    def test_oracle_equivalence_small(self, rng):
        polys = [lshape(), PENTA_FUNNEL, histogram_polygon(rng, 3), radial_polygon(rng, 7)]
        for poly in polys:
            q = region_sample_points(Region.of(poly), rng, 1)[0]
            vp = visibility_polygon(poly, q)
            assert vp.polygon.area == visibility_area_oracle(poly, q)

    def test_oracle_equivalence_boundary_sources(self, rng):
        # from a vertex or from inside an edge, some wedges leave the polygon;
        # the lit test decides them without a point-location query
        polys = [histogram_polygon(rng, 4), histogram_polygon(rng, 5), radial_polygon(rng, 7),
                 radial_polygon(rng, 8)]
        for poly in polys:
            edge = poly.edge(rng.randrange(poly.n))
            sources = [*poly.vertices, edge.point_at(F(rng.randint(1, 7), 8))]
            for q in sources:
                vp = visibility_polygon(poly, q)
                assert vp.polygon.area == visibility_area_oracle(poly, q), (poly, q)

    def test_cache_is_bounded(self):
        sq = SimplePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        maxsize = visibility_polygon.cache_info().maxsize
        for i in range(1, maxsize + 11):
            visibility_polygon(sq, Point(F(i, maxsize + 11), F(1, 2)))
        assert visibility_polygon.cache_info().currsize <= maxsize
        q = Point(F(1, 3), F(1, 3))
        first = visibility_polygon(sq, q)
        hits = visibility_polygon.cache_info().hits
        assert visibility_polygon(sq, q) is first
        assert visibility_polygon.cache_info().hits == hits + 1


class TestWindows:
    def test_convex_no_windows(self):
        sq = SimplePolygon([(0, 0), (3, 0), (3, 3), (0, 3)])
        vp = visibility_polygon(sq, Point(1, 2))
        assert vp.windows == ()

    def test_lshape_single_window_through_reflex(self):
        # a viewer in the right leg loses the far side of the upper leg; the
        # single window is anchored at the reflex corner (1,1)
        L = lshape()
        vp = visibility_polygon(L, Point(F(3, 2), F(1, 2)))
        wins = vp.windows
        assert len(wins) == 1
        (w,) = wins
        assert Segment(w.a, w.b).contains_point(Point(1, 1))
        assert vp.polygon.area == F(5, 2)

    def test_reduction_polygon_one_window_per_spike(self):
        from mirrorgallery.redgen import SubsetSumInstance, gen_specular

        ri = gen_specular(SubsetSumInstance((1, 2), 2))
        vp = visibility_polygon(ri.polygon, ri.q)
        wins = vp.windows
        spike_mouth_windows = 0
        for spike in ri.spikes:
            rim_left, _, rim_right = spike.vertices
            for w in wins:
                if w.contains_point(rim_left) or w.contains_point(rim_right):
                    spike_mouth_windows += 1
                    break
        assert spike_mouth_windows == len(ri.spikes)


def _sees_some_point(P: SimplePolygon, p: Point, s: Segment) -> bool:
    """Brute force: along s, what p sees changes only where the line from p
    through a vertex crosses s, so s's endpoints, those crossings and the
    midpoints between consecutive ones decide it."""
    d = s.b - s.a
    ts = {F(0), F(1)}
    for v in P.vertices:
        if v == p:
            continue
        u = v - p
        denom = d.cross(u)
        if denom != 0:
            t = (p - s.a).cross(u) / denom
            if 0 < t < 1:
                ts.add(t)
    ts = sorted(ts)
    ts += [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])]
    return any(sees(P, p, s.point_at(t)) for t in ts)


class TestWeakVisibility:
    def test_pointwise_oracle(self, rng):
        L = lshape()
        cases = [(L, L.edge(i)) for i in range(L.n)]
        cases.append((L, Segment(Point(F(1, 2), 0), Point(1, 0))))
        # the pivot cone at the reflex corner (1,1) spans its exterior angle
        # and is pinched there into two parts
        cases.append((L, Segment(Point(0, F(3, 2)), Point(F(3, 2), 0))))
        for poly in [histogram_polygon(rng, 4), histogram_polygon(rng, 5), radial_polygon(rng, 7),
                     radial_polygon(rng, 8)]:
            cases += [(poly, poly.edge(rng.randrange(poly.n))) for _ in range(2)]
        outcomes = set()
        for poly, s in cases:
            w = weak_visibility_polygon(poly, s)
            assert region_difference(w, Region.of(poly)).is_empty
            for p in region_sample_points(Region.of(poly), rng, 20):
                seen = _sees_some_point(poly, p, s)
                assert w.covers(p) == seen, (poly, s, p)
                outcomes.add(seen)
        assert outcomes == {True, False}

    def test_convex_chord(self):
        sq = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        w = weak_visibility_polygon(sq, Segment(Point(1, 0), Point(3, 0)))
        assert w.area == sq.area

    def test_funnel_chord_covers_funnel(self):
        w = weak_visibility_polygon(PENTA_FUNNEL, Segment(Point(0, 0), Point(6, 0)))
        assert w.area == PENTA_FUNNEL.area
        assert len(merge_region(w).parts) == 1

    def test_lshape_bottom_edge_sees_all(self):
        # grid oracle at 1/32: every grid point inside is weakly visible
        L = lshape()
        s = Segment(Point(0, 0), Point(2, 0))
        w = weak_visibility_polygon(L, s)
        assert w.area == 3
        h = F(1, 32)
        x = h / 2
        while x < 2:
            y = h / 2
            while y < 2:
                p = Point(x, y)
                if L.contains(p) is PointLocation.INTERIOR:
                    assert w.contains(p) is not PointLocation.EXTERIOR
                y += F(1, 4)
            x += F(1, 4)

    def test_segment_outside_raises(self):
        with pytest.raises(SegmentOutsidePolygon):
            weak_visibility_polygon(lshape(), Segment(Point(0, 0), Point(3, 3)))

    def test_monotone_in_segment(self, rng):
        L = lshape()
        s_small = Segment(Point(F(1, 2), 0), Point(1, 0))
        s_big = Segment(Point(0, 0), Point(2, 0))
        w_small = weak_visibility_polygon(L, s_small)
        w_big = weak_visibility_polygon(L, s_big)
        for p in region_sample_points(w_small, rng, 300):
            assert w_big.covers(p)

    def test_random_funnels_weakly_visible_from_chord(self, rng):
        for _ in range(5):
            f = random_funnel(rng, rng.randint(2, 4), rng.randint(2, 4))
            chord = f.polygon.edge(f.chord)
            w = weak_visibility_polygon(f.polygon, chord)
            assert w.area == f.polygon.area
