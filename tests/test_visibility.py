import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorgallery import visibility
from mirrorgallery.errors import QueryOutsidePolygon, SegmentOutsidePolygon
from mirrorgallery.geom import (
    MEMO_SIZE,
    Orientation,
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    merge_region,
    orientation,
    overlay,
    region_difference,
    region_intersection,
    region_union_all,
    sees,
)
from mirrorgallery.reflect import ReflectionKind, ReflectionSpec, diffuse_extend
from mirrorgallery.visibility import (_fan, _frame, _Frame, _lit, _pivot_cones, _seeing, visibility_polygon,
                                      weak_visibility_polygon)

from conftest import comb, histogram_polygon, interior_point, lshape, on_edge_lines, radial_polygon, random_funnel
from oracles import (between_reference, cone_reference, coordinate_bits_reference, dir_cmp, edge_ends,
                     edge_parts_reference, first_hit_reference, halfplane_rect, hit_reference, midpoint,
                     pivot_cones_reference, primitive_direction, reflect_point_across_line, region_sample_points,
                     ring_edges_reference, segment_parts_inside, shoelace2_reference, visibility_area_oracle)

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
            # the area read off the integer ring is the polygon's shoelace area
            assert vp.area == shoelace2_reference(list(vp.polygon.vertices)) / 2 == vp.polygon.area

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
                assert vp.area == shoelace2_reference(list(vp.polygon.vertices)) / 2 == vp.polygon.area, (poly, q)

    def test_raises_exactly_outside(self):
        # the sweep's own inside test stands in for SimplePolygon.contains
        # before the reflections: vertices, points on and beyond the edges
        # and a grid over the box
        rng = random.Random(59)
        polys = [lshape(), comb(3), PENTA_FUNNEL, histogram_polygon(rng, 4), histogram_polygon(rng, 6),
                 radial_polygon(rng, 7), radial_polygon(rng, 10), random_funnel(rng, 3, 2).polygon]
        outside = 0
        for P in polys:
            pts = [*P.vertices, *(e.point_at(F(t, 4)) for e in P.edges() for t in (-1, 1, 2, 3, 5))]
            xmin, ymin, xmax, ymax = P.bbox
            pts += [Point(xmin + (xmax - xmin) * F(i, 12), ymin + (ymax - ymin) * F(j, 12))
                    for i in range(-1, 14) for j in range(-1, 14)]
            for q in pts:
                exterior = P.contains(q) is PointLocation.EXTERIOR
                try:
                    visibility_polygon(P, q)
                except QueryOutsidePolygon:
                    assert exterior, (P, q)
                    outside += 1
                else:
                    assert not exterior, (P, q)
        assert outside > 500

    @settings(max_examples=25, deadline=None)
    @given(heights=st.lists(st.integers(1, 5), min_size=2, max_size=5), seed=st.integers(0, 2**32 - 1),
           radial=st.booleans())
    def test_vp_inside_polygon_with_oracle_area(self, heights, seed, radial):
        rng = random.Random(seed)
        P = radial_polygon(rng, rng.randint(5, 9)) if radial else SimplePolygon(
            [(0, 0), (len(heights), 0), *((x + dx, h) for x, h in reversed(list(enumerate(heights)))
                                          for dx in (1, 0))])
        for q in (interior_point(rng, P), P.vertices[rng.randrange(P.n)]):
            vp = visibility_polygon(P, q).polygon
            assert region_difference(Region.of(vp), Region.of(P)).area == 0, (P, q)
            assert vp.area == visibility_area_oracle(P, q), (P, q)

    def test_cache_is_bounded(self):
        # results live on their polygon: repeats are served, at most
        # MEMO_SIZE per polygon are kept, and they die with the polygon by
        # reference counting alone: a VP keeps the polygon's vertices, not
        # it, and so does a vertex's frame, kept on the polygon outside the
        # memo, which its VP reads
        gc.disable()
        try:
            sq = SimplePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
            q = Point(F(1, 3), F(1, 3))
            first = visibility_polygon(sq, q)
            assert visibility_polygon(sq, q) is first
            for i in range(1, MEMO_SIZE + 11):
                visibility_polygon(sq, Point(F(i, MEMO_SIZE + 11), F(1, 2)))
            assert len(sq._memo) == MEMO_SIZE
            assert visibility_polygon(sq, q) is not first  # the oldest entry was dropped
            assert visibility_polygon(sq, q).host_vertices is sq.vertices
            corner = visibility_polygon(sq, sq.vertices[2])
            assert _frame(sq, sq.vertices[2]) is _frame(sq, 2) and list(sq._frames) == [2]
            assert corner.area == F(1) and set(corner.polygon.vertices) == set(sq.vertices)
            refs = [weakref.ref(visibility_polygon(sq, q)), weakref.ref(corner)]
            frame = _frame(sq, 2)  # frames take no weak references: count the polygon's reference to it
            held = sys.getrefcount(frame)
            del sq, first, corner
            assert [ref() for ref in refs] == [None, None]
            assert sys.getrefcount(frame) == held - 1
        finally:
            gc.enable()


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


def _sight_breaks(P: SimplePolygon, p: Point, s: Segment) -> list[F]:
    """Along s, what p sees changes only where the line from p through a vertex
    crosses s: the parameters of s's endpoints and those crossings, in order."""
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
    return sorted(ts)


def _sees_some_point(P: SimplePolygon, p: Point, s: Segment) -> bool:
    """Brute force: s's endpoints, the crossings of `_sight_breaks` and the
    midpoints between consecutive ones decide whether p sees a point of s."""
    ts = _sight_breaks(P, p, s)
    return any(sees(P, p, s.point_at(t)) for t in ts + [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])])


def _sees_some_length(P: SimplePolygon, p: Point, s: Segment) -> bool:
    """Brute force: p sees a positive length of s exactly when it sees the
    midpoint between two consecutive crossings of `_sight_breaks`."""
    ts = _sight_breaks(P, p, s)
    return any(sees(P, p, s.point_at((t0 + t1) / 2)) for t0, t1 in zip(ts, ts[1:]))


class TestSeeing:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["lshape", "comb", "histogram", "radial"]),
           kind=st.sampled_from(["edge", "piece", "diagonal", "chord"]), reverse=st.booleans())
    def test_matches_the_brute_force(self, seed, shape, kind, reverse):
        # the fans of `_seeing` cover a point strictly left of s's line exactly
        # when it sees a positive length of s: the weak visibility polygon and
        # the diffuse cascade are built from them, so this pins them on their own.
        # s is an edge, a piece of one, or a chord between two vertices or two
        # interior points, either way round, with no vertex strictly inside it
        rng = random.Random(seed)
        P = {"lshape": lshape, "comb": lambda: comb(rng.randint(2, 4)),
             "histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)),
             "radial": lambda: radial_polygon(rng, rng.randint(6, 9))}[shape]()
        if kind in ("edge", "piece"):
            s = P.edge(rng.randrange(P.n))
            if kind == "piece":
                s = Segment(s.point_at(F(rng.randint(0, 3), 7)), s.point_at(F(rng.randint(4, 7), 7)))
        else:
            a, b = rng.sample(P.vertices, 2) if kind == "diagonal" else region_sample_points(Region.of(P), rng, 2)
            s = Segment(a, b)
            assume(sees(P, a, b) and not any(v not in (a, b) and s.contains_point(v) for v in P.vertices))
        if reverse:
            s = Segment(s.b, s.a)
        seeing = region_union_all(_seeing(P, s))
        left = [p for p in region_sample_points(Region.of(P), rng, 30) if orientation(s.a, s.b, p) is Orientation.CCW]
        for p in left:
            assert seeing.covers(p) == _sees_some_length(P, p, s), (P, s, p)

    def test_a_polygon_keeps_the_fans_of_a_part(self, monkeypatch):
        # both sources see the whole bottom edge of the L-shape: the second cascade
        # reads the fans of that part off the polygon and builds no pivot cone again
        calls = []
        pivot_cones = visibility._pivot_cones
        monkeypatch.setattr(visibility, "_pivot_cones", lambda f, a, b: calls.append((a, b)) or pivot_cones(f, a, b))
        L = lshape()
        bottom = L.edge(0)
        spec = ReflectionSpec(frozenset({0}), ReflectionKind.DIFFUSE, 1)
        for q in (Point(F(1, 2), F(1, 2)), Point(F(3, 2), F(1, 4))):
            assert diffuse_extend(L, q, spec).per_edge_illumination[0].subsegments == (bottom,)
        assert calls == [(bottom.a, bottom.b)]  # the reflex corner (1, 1), once
        assert isinstance(_seeing(L, bottom), tuple) and _seeing(L, bottom) is _seeing(L, bottom)


class TestEdgeHosts:
    def test_labels_give_lit_edge_parts(self, rng):
        # every ring edge lies on the host edge it names, or on a sight ray;
        # the parts read from the labels are the edge's parts inside the
        # closed VP, for every edge not collinear with the source
        polys = [lshape(), comb(3), PENTA_FUNNEL, histogram_polygon(rng, 4), histogram_polygon(rng, 6),
                 radial_polygon(rng, 8), radial_polygon(rng, 10), random_funnel(rng, 3, 3).polygon]
        lit = 0
        for P in polys:
            sources = [interior_point(rng, P) for _ in range(3)]
            sources += [P.vertices[i] for i in range(0, P.n, 2)]
            sources += [P.edge(e).point_at(F(1, 3)) for e in range(1, P.n, 2)]
            for q in sources:
                vp = visibility_polygon(P, q)
                ring = vp.polygon.edges()
                assert len(vp.edge_hosts) == len(ring)
                # the region's net boundary, from the integer ring and the labels, is the polygon's
                assert vp.region.parts == (vp.polygon,)
                assert Counter(map(edge_ends, vp.region._net_boundary())) == Counter(
                    map(edge_ends, Region.of(vp.polygon)._net_boundary()))
                for h, re in zip(vp.edge_hosts, ring):
                    if h < 0:
                        assert orientation(re.a, re.b, q) is Orientation.COLLINEAR
                    else:
                        assert P.edge(h).contains_point(re.a) and P.edge(h).contains_point(re.b)
                for e in range(P.n):
                    s = P.edge(e)
                    if orientation(s.a, s.b, q) is Orientation.COLLINEAR:
                        continue
                    parts = vp.edge_parts(e)
                    assert parts == segment_parts_inside(s, [vp.polygon]), (P, q, e)
                    lit += len(parts)
        assert lit > 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["lshape", "comb", "histogram", "radial"]),
           at=st.sampled_from(["vertex", "edge", "line"]))
    def test_no_part_on_a_line_through_the_source(self, seed, shape, at):
        # no wedge hit lies on a line through the source (`_Frame.first_hit`), so an
        # edge collinear with it hosts no ring edge: the diffuse cascade reads its
        # depth-0 light off the labels with no orientation test. Sources at a vertex,
        # inside an edge, and inside P on the line of an edge
        rng = random.Random(seed)
        P = {"lshape": lshape, "comb": lambda: comb(rng.randint(2, 4)),
             "histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)),
             "radial": lambda: radial_polygon(rng, rng.randint(6, 9))}[shape]()
        line = on_edge_lines(P)
        sources = {"vertex": lambda: [P.vertices[rng.randrange(P.n)]],
                   "edge": lambda: [P.edge(rng.randrange(P.n)).point_at(F(rng.randint(1, 6), 7))],
                   "line": lambda: rng.sample(line, min(3, len(line)))}[at]()
        for q in sources:
            vp = visibility_polygon(P, q)
            collinear = [e for e in range(P.n) if orientation(P.edge(e).a, P.edge(e).b, q) is Orientation.COLLINEAR]
            assert collinear, (P, q)
            for e in collinear:
                assert vp.edge_parts(e) == [], (P, q, e)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["lshape", "comb", "histogram", "radial", "funnel"]),
           at=st.sampled_from(["inside", "vertex", "edge"]))
    def test_host_groups_match_a_ring_scan_per_edge(self, seed, shape, at):
        # the ring edges grouped by host label in one pass give every edge's
        # lit parts and the sides along sight rays a scan of the ring per label gives
        rng = random.Random(seed)
        P = {"lshape": lshape, "comb": lambda: comb(rng.randint(2, 4)),
             "histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)),
             "radial": lambda: radial_polygon(rng, rng.randint(6, 9)),
             "funnel": lambda: random_funnel(rng, rng.randint(2, 3), rng.randint(2, 3)).polygon}[shape]()
        q = {"inside": lambda: interior_point(rng, P), "vertex": lambda: P.vertices[rng.randrange(P.n)],
             "edge": lambda: P.edge(rng.randrange(P.n)).point_at(F(rng.randint(1, 6), 7))}[at]()
        vp = visibility_polygon(P, q)
        assert [vp.edge_parts(e) for e in range(P.n)] == [edge_parts_reference(vp, e) for e in range(P.n)], (P, q)
        assert list(vp.ray_sides) == ring_edges_reference(vp, -1), (P, q)
        assert sum(map(len, vp._by_host.values())) == len(vp.ring)

    def test_sources_on_edge_lines_are_drawn(self):
        # the drawn shapes hold interior points on their edges' lines: the L-shape's
        # at (2/3, 1), on the line of its edge (2, 1)-(1, 1)
        assert Point(F(2, 3), 1) in on_edge_lines(lshape())
        assert visibility_polygon(lshape(), Point(F(2, 3), 1)).edge_parts(2) == []
        assert all(on_edge_lines(P) for P in (comb(3), histogram_polygon(random.Random(3), 4)))


def _beyond(P: SimplePolygon, v: Point, s: Segment) -> SimplePolygon:
    """The triangle of rays from s through v, continued past v to beyond P's bbox."""
    xmin, ymin, xmax, ymax = P.bbox
    d = s.b - s.a
    far = (xmax - xmin + ymax - ymin) * (abs(d.x) + abs(d.y)) / abs(d.cross(v - s.a)) + 1
    ring = [v, v + (v - s.a) * far, v + (v - s.b) * far]
    return SimplePolygon(ring if (ring[1] - v).cross(ring[2] - v) > 0 else ring[::-1])


class TestPivotCones:
    CASES = [lshape(), comb(3), PENTA_FUNNEL]

    @staticmethod
    def _segments(P: SimplePolygon) -> list[Segment]:
        segs = [P.edge(e) for e in range(P.n)]
        segs += [Segment(P.edge(e).point_at(F(1, 3)), P.edge(e).point_at(F(3, 4))) for e in range(P.n)]
        mids = [midpoint(P.edge(e)) for e in range(P.n)]
        return segs + [Segment(a, b) for i, a in enumerate(mids) for b in mids[i + 2:i + 4] if sees(P, a, b)]

    def test_both_sides_are_vp_of_pivot_beyond_its_visible_parts(self, rng):
        # the pivot cones of v, from both ends, are VP(v) cut to the rays
        # from the parts of s that v sees, continued past v: the reference
        # finds those parts on the full VP(v) and cuts with a region
        # intersection
        one_sided = 0
        for P in self.CASES + [histogram_polygon(rng, 5), radial_polygon(rng, 8), random_funnel(rng, 3, 3).polygon]:
            samples = region_sample_points(Region.of(P), rng, 10)
            for v in (P.vertices[i] for i in P.reflex_indices()):
                vp = visibility_polygon(P, v).polygon
                for s in self._segments(P):
                    if orientation(s.a, s.b, v) is Orientation.COLLINEAR:
                        continue
                    f = _Frame(P, v)
                    sides = [Region(_pivot_cones(f, s.a, s.b)), Region(_pivot_cones(f, s.b, s.a))]
                    cones = region_union_all(sides)
                    ref = region_union_all([region_intersection(Region.of(vp), Region.of(_beyond(P, v, sigma)))
                                            for sigma in segment_parts_inside(s, [vp])])
                    assert cones.area == ref.area, (P, v, s)
                    for x in samples:
                        assert cones.covers(x) == ref.covers(x), (P, v, s, x)
                    one_sided += any(side.area < cones.area for side in sides)
        assert one_sided > 0

    def test_one_end_and_its_side_cover_a_diffuse_bounce(self, rng):
        # a point strictly inside edge e's half-plane that sees a part s of e
        # sees an interval of s whose end on a's side is a or a tangent
        # through a reflex vertex blocking on a's side: the half-turn fan of a
        # and the cones from a's side make up weak visibility cut to e's side
        for P in self.CASES + [histogram_polygon(rng, 5), radial_polygon(rng, 8), random_funnel(rng, 3, 3).polygon]:
            xmin, ymin, xmax, ymax = P.bbox
            box = (xmin - 1, ymin - 1, xmax + 1, ymax + 1)
            for e in range(P.n):
                edge = P.edge(e)
                d = primitive_direction(edge.direction)
                inner = Region.of(halfplane_rect(edge.a, edge.b, box))
                reflex = [P.vertices[i] for i in P.reflex_indices()
                          if orientation(edge.a, edge.b, P.vertices[i]) is Orientation.CCW]
                for s in (edge, Segment(edge.point_at(F(1, 3)), edge.point_at(F(3, 4)))):
                    lit = region_intersection(weak_visibility_polygon(P, s), inner)
                    for a, b in [(s.a, s.b), (s.b, s.a)]:
                        f = _Frame(P, a)
                        pieces = [Region(_fan(f, _lit(f, d, (-d[0], -d[1]))))]
                        pieces += [Region(_pivot_cones(_Frame(P, v), a, b)) for v in reflex]
                        assert region_union_all(pieces).area == lit.area, (P, s, a)
                    assert region_union_all(_seeing(P, s)).area == lit.area, (P, s)


def _direction(draw) -> tuple[int, int]:
    x, y = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
    g = gcd(x, y)
    return x // g, y // g


@st.composite
def fan_draws(draw):
    """A polygon, fans in it as (fan, the reference's polygons) and points to test:
    half-turn fans from points of an edge, its vertices included, as a diffuse
    bounce emits them; fans between drawn directions (vertical ones too, and
    half turns through a vertex that its exterior cuts in two) from vertices,
    edge points and interior points; and pivot cones at reflex vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    P = [lambda: histogram_polygon(rng, 5), lambda: radial_polygon(rng, 8), lambda: comb(3),
         lambda: lshape()][draw(st.integers(0, 3))]()
    reflex = P.reflex_indices()
    fans = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["edge", "free", "pivot"] if reflex else ["edge", "free"]))
        edge = P.edge(draw(st.integers(0, P.n - 1)))
        d = primitive_direction(edge.direction)
        if kind == "pivot":
            f = _Frame(P, P.vertices[draw(st.sampled_from(reflex))])
            a, b = (edge.a, edge.b) if draw(st.booleans()) else (edge.point_at(F(1, 3)), edge.point_at(F(3, 4)))
            if orientation(a, b, f.origin) is Orientation.COLLINEAR:
                continue
            a, b = (a, b) if draw(st.booleans()) else (b, a)
            fans.append((_pivot_cones(f, a, b), pivot_cones_reference(f, a, b)))
            continue
        if kind == "edge":
            f, lo = _Frame(P, edge.point_at(draw(st.sampled_from([F(0), F(1, 3), F(1)])))), d
        else:
            at = draw(st.sampled_from(["vertex", "edge", "interior"]))
            o = edge.a if at == "vertex" else edge.point_at(F(1, 2)) if at == "edge" else interior_point(rng, P)
            f, lo = _Frame(P, o), _direction(draw)
        hi = _direction(draw) if draw(st.booleans()) else (-lo[0], -lo[1])
        if lo[0] * hi[1] - lo[1] * hi[0] <= 0:
            hi = (-lo[0], -lo[1])
        fans.append((_fan(f, _lit(f, lo, hi)), cone_reference(f, lo, hi)))
    samples = region_sample_points(Region.of(P), rng, 6)
    samples += [v for _, ref in fans for part in ref for v in part.vertices]
    return fans, samples


def _check_fans(fans, samples):
    # a fan's integer edges are the net boundary of the polygons it stood
    # for: arcs on one edge joined, the rays of a half-turn fan joined at
    # its origin across parts, vertical sides dropped
    for fan, ref in fans:
        reference = Region(ref)
        assert Counter(map(edge_ends, fan._net_boundary())) == Counter(map(edge_ends, reference._net_boundary()))
        assert fan.area == reference.area
        # read off the net boundary, before the parts: no more than the parts' bits
        assert fan.max_coordinate_bits() == reference.max_coordinate_bits() <= coordinate_bits_reference(reference)
        assert fan.is_empty or not isinstance(fan._parts, tuple)
        assert fan.parts == reference.parts
        swept = overlay([fan], any)
        assert swept.area == fan.area
        for x in samples:
            assert swept.covers(x) == reference.covers(x), x
    union = region_union_all([fan for fan, _ in fans])
    assert union.parts == region_union_all([Region(ref) for _, ref in fans]).parts


class TestFanEdges:
    @settings(max_examples=60, deadline=None)
    @given(draws=fan_draws())
    def test_fans_give_the_net_boundary_of_their_polygons(self, draws):
        _check_fans(*draws)

    def test_half_turn_through_a_reflex_vertex_joins_across_parts(self, rng):
        # the exterior quadrant of the L's reflex corner (1, 1) cuts the half
        # turn from (1, -1) to (-1, 1) in two; its rays lie on x + y = 2
        L = lshape()
        f = _Frame(L, Point(1, 1))
        fan, ref = _fan(f, _lit(f, (1, -1), (-1, 1))), cone_reference(f, (1, -1), (-1, 1))
        assert len(ref) == 2
        _check_fans([(fan, ref)], region_sample_points(Region.of(L), rng, 20))
        assert (Point(0, 2), Point(2, 0), 1) in map(edge_ends, fan._net_boundary())

    def test_coordinate_bits_read_the_ring_denominators(self):
        # coordinates far below 1: the parts' reduced denominators carry the bits
        s = F(1, 2**20 + 7)
        L = SimplePolygon([(0, 0), (2 * s, 0), (2 * s, s), (s, s), (s, 2 * s), (0, 2 * s)])
        f = _Frame(L, Point(3 * s / 2, s / 2))
        fan = _fan(f, _lit(f, (1, 0), (-1, 0)))
        assert fan.max_coordinate_bits() == coordinate_bits_reference(fan) > 20

    def test_fans_build_no_point_before_their_parts_are_read(self, monkeypatch):
        P = comb(3)
        edge = P.edge(0)
        d = primitive_direction(edge.direction)
        a, b = edge.point_at(F(1, 3)), edge.point_at(F(3, 4))
        frames = [_Frame(P, a)] + [_Frame(P, P.vertices[i]) for i in P.reflex_indices()]
        built = Counter()
        point_init, polygon_init = Point.__post_init__, SimplePolygon.__init__

        def point(self, *args):
            built["Point"] += 1
            point_init(self, *args)

        def polygon(self, *args, **kwargs):
            built["SimplePolygon"] += 1
            polygon_init(self, *args, **kwargs)

        monkeypatch.setattr(Point, "__post_init__", point)
        monkeypatch.setattr(SimplePolygon, "__init__", polygon)
        fans = [_fan(frames[0], _lit(frames[0], d, (-d[0], -d[1])))] + [_pivot_cones(f, a, b) for f in frames[1:]]
        union = region_union_all(fans)
        assert union.area > 0 and all(fan._net_boundary() for fan in fans if not fan.is_empty)
        assert sum(not fan.is_empty for fan in fans) >= 2
        assert built == Counter()
        assert fans[0].area == sum((p.area for p in fans[0].parts), F(0))
        assert built["Point"] > 0 and built["SimplePolygon"] == len(fans[0].parts)


@st.composite
def frame_draws(draw):
    """A polygon, an origin, an edge and rays from the origin through no vertex: the
    mid directions of neighbouring vertex directions and drawn ones. The origin is an
    interior point, a vertex or a point inside the edge, or an interior point unfolded
    across the edge's line, as a mirror source, which may lie outside the polygon."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    P = [lambda: histogram_polygon(rng, 5), lambda: radial_polygon(rng, 8), lambda: comb(3), lambda: lshape(),
         lambda: random_funnel(rng, 3, 2).polygon][draw(st.integers(0, 4))]()
    kind = draw(st.sampled_from(["interior", "vertex", "edge", "mirror"]))
    e = draw(st.integers(0, P.n - 1))
    edge = P.edge(e)
    if kind == "vertex":
        o = edge.a
    elif kind == "edge":
        o = edge.point_at(draw(st.sampled_from([F(1, 3), F(1, 2), F(5, 7)])))
    else:
        o = interior_point(rng, P)
        if kind == "mirror":
            o = reflect_point_across_line(o, edge.a, edge.b)
    dirs = sorted({primitive_direction(v - o) for v in P.vertices if v != o}, key=cmp_to_key(dir_cmp))
    rays = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(dirs, dirs[1:] + dirs[:1]) if a[0] * b[1] - a[1] * b[0] > 0]
    rays += [m for m in draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4))
             if m != (0, 0) and not any(m[0] * d[1] == m[1] * d[0] and m[0] * d[0] + m[1] * d[1] > 0 for d in dirs)]
    return P, o, kind, e, rays


class TestFrameAnswers:
    @settings(max_examples=60, deadline=None)
    @given(draws=frame_draws())
    def test_answers_match_the_edge_scan_when_asked_again(self, draws):
        # a frame keeps what it answered, by its arguments, and a vertex's frame is
        # kept on its polygon: asked twice, in turn with other questions, every
        # answer must be the scan's
        P, o, kind, e, rays = draws
        f = _frame(P, o)
        if kind == "vertex":
            assert f is _frame(P, P.vertices.index(o)) is _frame(P, P.vertices[P.vertices.index(o)])
        asked = []
        for m in rays:
            if kind != "mirror":
                asked.append((lambda m=m: f.hit(*m), hit_reference(P, o, m)))
            asked.append((lambda m=m: f.first_hit(*m), first_hit_reference(P, o, m)))
            # past the drawn edge, as a mirror, and past one more edge, where the ray meets their lines ahead
            for b in {e, (e + 2) % P.n}:
                d, eb = Point(*m), P.edge(b)
                if d.cross(eb.direction) and (eb.a - o).cross(eb.direction) / d.cross(eb.direction) > 0:
                    asked.append((lambda m=m, b=b: f.first_hit(*m, beyond=b), first_hit_reference(P, o, m, b)))
        for a, b in zip(rays, rays[1:] + rays[:1]):
            for lo, hi in ((a, b), (b, a), (a, (-a[0], -a[1]))):
                if lo[0] * hi[1] - lo[1] * hi[0] >= 0:
                    asked.append((lambda lo=lo, hi=hi: f.between(lo, hi), between_reference(P, o, lo, hi)))
        assert asked
        for _ in range(2):
            for ask, expected in asked:
                assert ask() == expected, (P, o, kind, e)


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
        cases.append((L, Segment(Point(2, 0), Point(0, 2))))  # grazes the reflex corner (1, 1)
        outcomes = set()
        for poly, s in cases:
            w = weak_visibility_polygon(poly, s)
            assert region_difference(w, Region.of(poly)).is_empty
            for p in region_sample_points(Region.of(poly), rng, 20):
                seen = _sees_some_point(poly, p, s)
                assert w.covers(p) == seen, (poly, s, p)
                outcomes.add(seen)
        assert outcomes == {True, False}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["lshape", "comb", "histogram", "radial"]),
           vertex_pair=st.booleans())
    def test_cones_toward_one_end_suffice(self, seed, shape, vertex_pair):
        # the region takes the cones toward s.a of the pivots left of s's line
        # and toward s.b of those right of it (`_seeing` of s and of s reversed):
        # the brute force agrees with it, and every pivot's cones toward either
        # end add no area to it
        rng = random.Random(seed)
        P = {"lshape": lshape, "comb": lambda: comb(rng.randint(2, 4)),
             "histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)),
             "radial": lambda: radial_polygon(rng, rng.randint(6, 9))}[shape]()
        if vertex_pair:
            a, b = (P.vertices[i] for i in rng.sample(range(P.n), 2))
        else:
            a, b = region_sample_points(Region.of(P), rng, 2)
        s = Segment(a, b)
        if not sees(P, a, b):
            with pytest.raises(SegmentOutsidePolygon):
                weak_visibility_polygon(P, s)
            return
        w = weak_visibility_polygon(P, s)
        pivots = [P.vertices[i] for i in P.reflex_indices() if orientation(a, b, P.vertices[i]) is not Orientation.COLLINEAR]
        cones = [_pivot_cones(_frame(P, v), *ends) for v in pivots for ends in ((a, b), (b, a))]
        assert region_union_all([w, *cones]).area == w.area, (P, s)
        for p in [*P.vertices, *region_sample_points(Region.of(P), rng, 12)]:
            assert w.covers(p) == _sees_some_point(P, p, s), (P, s, p)

    def test_first_fans_lie_in_the_endpoint_vps(self):
        # the first fan of `_seeing` is seen from s.a, so VP(s.a) holds it, and weak
        # visibility leaves it out: on every vertex pair it adds no area back
        rng = random.Random(7)
        polys = [lshape(), comb(3), comb(4), *(histogram_polygon(rng, k) for k in (3, 4, 5)),
                 *(radial_polygon(rng, k) for k in (6, 7, 8))]
        accepted = 0
        for P in polys:
            for a, b in combinations(P.vertices, 2):
                s = Segment(a, b)
                try:
                    w = weak_visibility_polygon(P, s)
                except SegmentOutsidePolygon:
                    continue
                assert region_union_all([w, _seeing(P, s)[0], _seeing(P, Segment(b, a))[0]]).area == w.area, (P, s)
                accepted += 1
        assert accepted == 197  # of 381 pairs; the others raise SegmentOutsidePolygon

    def test_reflex_vertices_inside_the_segment(self, rng):
        # from between the notches, the view of s is bounded at both ends by
        # reflex vertices lying on s: only their own VPs reach those points
        P = SimplePolygon([(0, 0), (3, 0), (3, 5), (4, 5), (4, 0), (6, 0), (6, 5), (7, 5), (7, 0), (10, 0),
                           (10, 10), (0, 10)])
        s = Segment(Point(0, 5), Point(10, 5))
        w = weak_visibility_polygon(P, s)
        assert w.area == 90
        assert w.covers(Point(5, 2))
        outcomes = set()
        for t in (s, Segment(Point(0, 5), Point(5, 5))):
            w = weak_visibility_polygon(P, t)
            for p in region_sample_points(Region.of(P), rng, 40):
                seen = _sees_some_point(P, p, t)
                assert w.covers(p) == seen, (t, p)
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
        for a, b in [((0, 0), (3, 3)),  # s.b outside, s crossing the notch
                     ((3, 3), (F(1, 2), F(1, 2))),  # s.a outside
                     ((F(1, 2), F(1, 2)), (F(3, 2), F(5, 2))),  # s.b outside, above the notch
                     ((F(7, 4), F(1, 2)), (F(1, 2), F(7, 4)))]:  # both ends inside, s crossing the notch
            with pytest.raises(SegmentOutsidePolygon):
                weak_visibility_polygon(lshape(), Segment(Point(*a), Point(*b)))

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
