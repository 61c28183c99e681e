import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorgallery import geom, reflect, visibility
from mirrorgallery.errors import BitBlowup, SourceOnMirrorLine, SpecMismatch
from mirrorgallery.geom import (
    Orientation,
    Point,
    PointLocation,
    Region,
    SimplePolygon,
    merge_intervals,
    merge_region,
    orientation,
    region_difference,
    region_intersection,
    region_union_all,
    sees,
)
from mirrorgallery.guard import extended_region
from mirrorgallery.redgen import SubsetSumInstance, gen_specular
from mirrorgallery.reflect import (
    ReflectionKind,
    ReflectionSpec,
    diffuse_extend,
    extend_all_edges,
    specular_extend_single,
)
from mirrorgallery.visibility import _Frame, visibility_polygon

from conftest import comb, histogram_polygon, interior_point, lshape, on_edge_lines, radial_polygon, random_funnel
from oracles import (FrameReference, coordinate_bits_reference, diffuse_added_reference, line_key_reference,
                     lit_parts_reference, ray_point, reflect_point_across_line, region_sample_points,
                     segment_parts_inside, specular_added_reference, validate_disjoint, visible_edge_parts)

SQUARE = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
DEEP_FUNNEL = SimplePolygon([(0, 0), (10, 0), (6, 1), (5, 4), (4, 1)])
# a corridor folded by two walls: light from the bottom needs three bounces
SNAKE = SimplePolygon([(0, 0), (5, 0), (5, 2), (1, 2), (1, 3), (5, 3), (5, 7), (0, 7), (0, 5), (4, 5), (4, 4),
                       (0, 4)])


def diffuse(edges, r):
    return ReflectionSpec(frozenset(edges), ReflectionKind.DIFFUSE, r)


class TestSpecValidation:
    def test_specular_multibounce_refused(self):
        with pytest.raises(SpecMismatch):
            ReflectionSpec(frozenset({0}), ReflectionKind.SPECULAR, 2)

    def test_kind_mismatch(self):
        with pytest.raises(SpecMismatch):
            diffuse_extend(SQUARE, Point(1, 1), ReflectionSpec(frozenset({0}), ReflectionKind.SPECULAR, 1))


class TestVisibleEdgeParts:
    def test_convex_whole_edge(self):
        parts = visible_edge_parts(SQUARE, Point(1, 1), 2)
        assert len(parts) == 1
        assert {parts[0].a, parts[0].b} == {Point(4, 4), Point(0, 4)}

    def test_lshape_grazed_edge_is_dark(self):
        # from the right leg, the upper leg's right wall is reachable only by
        # a ray grazing the notch corner: no positive-length part is lit
        L = lshape()
        parts = visible_edge_parts(L, Point(F(3, 2), F(1, 2)), 3)
        assert parts == []

    def test_region_source(self):
        L = lshape()
        vp = visibility_polygon(L, Point(F(3, 2), F(1, 2)))
        parts = visible_edge_parts(L, Region.of(vp.polygon), 5)
        # left wall of the hexagon: only the stretch below the shadow line is lit
        assert len(parts) == 1
        assert parts[0].contains_point(Point(0, F(1, 2)))


class TestDepthZeroLight:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["histogram", "comb", "radial", "snake"]),
           at=st.sampled_from(["interior", "vertex", "edge", "line"]), subset=st.booleans())
    def test_records_match_the_reference(self, seed, shape, at, subset):
        # depth 0 reads the lit parts off the VP's host labels, with no orientation
        # test and no merge: the reference takes both. A point source's
        # `visible_edge_parts` are the same parts, or, on an edge collinear with
        # it, the VP's sides along the edge
        rng = random.Random(seed)
        P = {"histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)), "comb": lambda: comb(rng.randint(2, 3)),
             "radial": lambda: radial_polygon(rng, 8), "snake": lambda: SNAKE}[shape]()
        e = rng.randrange(P.n)
        q = {"interior": lambda: interior_point(rng, P), "vertex": lambda: P.vertices[e],
             "edge": lambda: P.edge(e).point_at(F(rng.randint(1, 6), 7)),
             "line": lambda: rng.choice(on_edge_lines(P) or [P.vertices[e]])}[at]()
        edges = set(rng.sample(range(P.n), P.n // 2)) if subset else set(range(P.n))
        assert diffuse_extend(P, q, diffuse(edges, 0)).per_edge_illumination == lit_parts_reference(P, q, edges)
        vp = visibility_polygon(P, q)
        for e in range(P.n):
            a, b = P.vertices[e], P.vertices[(e + 1) % P.n]
            grazed = orientation(a, b, q) is Orientation.COLLINEAR
            assert visible_edge_parts(P, q, e) == (geom.sides_along([vp.region], a, b) if grazed
                                                   else vp.edge_parts(e)), (P, q, e)


def _check_lit_parts(P, q, seen):
    # the pieces read off the net boundary (and, on a vertical edge, the
    # vertical sides rebuilt from it) of the VP and the added region of cascade
    # depths 1 and 2, and of the VP alone for an edge collinear with q, are the
    # pieces the oracle finds by splitting the edge at every cell edge and
    # locating midpoints
    vp = visibility_polygon(P, q)
    cases = [([vp.region], [vp.polygon],
              [e for e in range(P.n) if orientation(P.edge(e).a, P.edge(e).b, q) is Orientation.COLLINEAR])]
    for depth in (1, 2):
        c = reflect._cascade(P, q, frozenset(range(P.n)), depth)
        cases.append(([c.vp.region, c.added], [vp.polygon, *c.added.parts], range(P.n)))
    for covered, cells, edges in cases:
        for e in edges:
            a, b = P.vertices[e], P.vertices[(e + 1) % P.n]
            got = geom.sides_along(covered, a, b)
            assert got == segment_parts_inside(P.edge(e), cells), (P, q, e)
            kind = "collinear" if len(covered) == 1 else "slanted" if a.x != b.x else "up" if a.y < b.y else "down"
            seen[kind] += bool(got)


class TestLitPartsFromBoundary:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["histogram", "comb", "radial", "snake"]),
           at=st.sampled_from(["interior", "vertex", "edge"]))
    def test_match_the_oracle_on_drawn_cascades(self, seed, shape, at):
        rng = random.Random(seed)
        P = {"histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)), "comb": lambda: comb(rng.randint(2, 3)),
             "radial": lambda: radial_polygon(rng, 8), "snake": lambda: SNAKE}[shape]()
        e = rng.randrange(P.n)
        q = {"interior": lambda: interior_point(rng, P), "vertex": lambda: P.vertices[e],
             "edge": lambda: P.edge(e).point_at(F(rng.randint(1, 6), 7))}[at]()
        _check_lit_parts(P, q, Counter())

    def test_cover_vertical_edges_both_ways_and_collinear_edges(self):
        rng = random.Random(53)
        seen = Counter()
        for P in [SNAKE, lshape(), comb(3), histogram_polygon(rng, 5)]:
            for q in [interior_point(rng, P), P.vertices[1], P.edge(2).point_at(F(1, 3))]:
                _check_lit_parts(P, q, seen)
        assert all(seen[kind] > 0 for kind in ("up", "down", "slanted", "collinear")), seen

    def test_vertical_edges_read_the_vp_ring(self):
        # the depth-2 light pass reads the sides of the VP at a vertical edge's
        # x off its net boundary, given by its integer ring: the VP's polygon
        # stays unbuilt, and the parts lit by depth 1 are the oracle's pieces of
        # the edge in the VP and the cells
        rng = random.Random(61)
        lit = 0
        for q in [interior_point(rng, SNAKE) for _ in range(3)]:
            P = SimplePolygon(SNAKE.vertices)  # with no VP built yet
            c, prev = (reflect._cascade(P, q, frozenset(range(P.n)), d) for d in (2, 1))
            assert not isinstance(c.vp.region._parts, tuple)
            cells = [c.vp.polygon, *prev.added.parts]
            for e in range(P.n):
                a, b = P.vertices[e], P.vertices[(e + 1) % P.n]
                if a.x == b.x:
                    t = geom.along(a, b)
                    got = merge_intervals([(t(s.a), t(s.b)) for x in c.records if x.edge == e for s in x.subsegments])
                    assert got == [(t(s.a), t(s.b)) for s in segment_parts_inside(P.edge(e), cells)], (P, q, e)
                    lit += any(x.edge == e and x.bounce_depth == 1 for x in c.records)
        assert lit

    def test_light_pass_builds_no_cells(self, monkeypatch):
        # the later depths read lit parts off the covered region's boundary
        # and runs: a cascade builds no cell of its own
        rng = random.Random(59)
        sources = [(P, interior_point(rng, P)) for P in [SNAKE, comb(3), histogram_polygon(rng, 5)]]
        built = []
        trapezoid = geom._trapezoid
        monkeypatch.setattr(geom, "_trapezoid", lambda *args: built.append(args) or trapezoid(*args))
        deepest = 0
        for P, q in sources:
            ev = extend_all_edges(P, q, 3)
            deepest = max([deepest, *(x.bounce_depth for x in ev.per_edge_illumination)])
        assert deepest == 2 and built == []


class TestDiffuseExtend:
    def test_convex_adds_nothing(self):
        ev = diffuse_extend(SQUARE, Point(1, 1), diffuse(range(4), 2))
        assert ev.added.area == 0

    def test_funnel_chord_completes(self):
        q = Point(5, F(7, 2))
        ev = diffuse_extend(DEEP_FUNNEL, q, diffuse({0}, 1))
        assert ev.direct.polygon.area + ev.added.area == DEEP_FUNNEL.area
        assert ev.added.area > 0

    def test_added_disjoint_from_direct_and_inside(self, rng):
        from mirrorgallery.geom import PointLocation, region_intersection

        q = Point(5, F(7, 2))
        ev = diffuse_extend(DEEP_FUNNEL, q, diffuse({0}, 1))
        assert region_intersection(ev.added, Region.of(ev.direct.polygon)).area == 0
        for p in region_sample_points(ev.added, rng, 100):
            assert DEEP_FUNNEL.contains(p) is not PointLocation.EXTERIOR

    def test_overlapping_spikes_subadditive(self):
        # both the left wall and the floor can each reveal the whole hidden
        # triangle; together they add it once, not twice
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        a5 = diffuse_extend(L, q, diffuse({5}, 1)).added.area
        a0 = diffuse_extend(L, q, diffuse({0}, 1)).added.area
        both = diffuse_extend(L, q, diffuse({0, 5}, 1)).added.area
        assert a5 == F(1, 2)
        assert a0 == F(1, 2)
        assert both < a0 + a5
        assert both == F(1, 2)

    def test_monotone_in_bounces(self, rng):
        q = Point(5, F(7, 2))
        ev1 = extend_all_edges(DEEP_FUNNEL, q, 1)
        ev2 = extend_all_edges(DEEP_FUNNEL, q, 2)
        assert ev2.added.area >= ev1.added.area
        if not ev1.added.is_empty:
            for p in region_sample_points(ev1.added, rng, 200):
                assert ev2.added.covers(p)

    def test_monotone_in_edge_set(self, rng):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        small = diffuse_extend(L, q, diffuse({5}, 1))
        big = diffuse_extend(L, q, diffuse({0, 5}, 1))
        for p in region_sample_points(small.added, rng, 200):
            assert big.added.covers(p)

    def test_halfplane_law(self, rng):
        # every depth-1 point lies on the closed inner side of its mirror edge
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        e = 5
        ev = diffuse_extend(L, q, diffuse({e}, 1))
        a, b = L.edge(e).a, L.edge(e).b
        for p in region_sample_points(ev.added, rng, 200):
            assert (b - a).cross(p - a) >= 0

    def test_cells_agree_with_merged_rings(self):
        # added regions hold the sweep's cells; merging them for output keeps
        # area and membership, and the cells stay off the VP and inside P
        rng = random.Random(29)
        for P in [lshape(), comb(3), histogram_polygon(rng, 4), radial_polygon(rng, 7)]:
            q = interior_point(rng, P)
            vp = Region.of(visibility_polygon(P, q).polygon)
            for ev in (extend_all_edges(P, q, 1), extend_all_edges(P, q, 2)):
                added, merged = ev.added, merge_region(ev.added)
                assert validate_disjoint(added)
                assert merged.area == added.area
                for p in region_sample_points(added, rng, 20) + region_sample_points(merged, rng, 20):
                    assert merged.covers(p) == added.covers(p)
                assert region_intersection(added, vp).area == 0
                assert region_difference(added, Region.of(P)).is_empty

    def test_illumination_records(self):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        ev = diffuse_extend(L, q, diffuse({5}, 1))
        assert any(rec.edge == 5 and rec.bounce_depth == 0 for rec in ev.per_edge_illumination)


class TestOneBounceAdditivity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["histogram", "comb", "radial", "lshape", "snake"]),
           at=st.sampled_from(["interior", "vertex", "edge"]))
    def test_added_region_is_the_union_of_single_edges(self, seed, shape, at):
        # at one bounce the depth-1 region is the union of the fans of the
        # VP-lit parts, each edge's lit by the source alone: what an edge set
        # adds is the union of what its edges add one at a time, which the
        # opaque clause of reduction verification relies on
        rng = random.Random(seed)
        P = {"histogram": lambda: histogram_polygon(rng, rng.randint(3, 5)), "comb": lambda: comb(rng.randint(2, 3)),
             "radial": lambda: radial_polygon(rng, 8), "lshape": lshape, "snake": lambda: SNAKE}[shape]()
        e = rng.randrange(P.n)
        q = {"interior": lambda: interior_point(rng, P), "vertex": lambda: P.vertices[e],
             "edge": lambda: P.edge(e).point_at(F(rng.randint(1, 6), 7))}[at]()
        edges = rng.sample(range(P.n), rng.randint(2, P.n))
        together = diffuse_extend(P, q, diffuse(edges, 1)).added
        alone = region_union_all([diffuse_extend(P, q, diffuse({f}, 1)).added for f in edges])
        assert together.area == alone.area, (P, q, edges)
        assert region_difference(together, alone).is_empty and region_difference(alone, together).is_empty


class TestCascadeReference:
    # the fan cascade against the same cascade built from weak visibility,
    # half-plane intersection and segment-in-polygon tests
    def test_added_and_records_match_reference(self):
        rng = random.Random(41)
        polys = [lshape(), comb(3), DEEP_FUNNEL, SNAKE, histogram_polygon(rng, 4), histogram_polygon(rng, 5),
                 radial_polygon(rng, 8), random_funnel(rng, 3, 2).polygon]
        deepest = 0
        for P in polys:
            sources = [interior_point(rng, P), interior_point(rng, P), P.vertices[rng.randrange(P.n)]]
            if P is SNAKE:
                sources += [Point(4, 1), Point(5, 0)]
            for q in sources:
                edge_sets = [range(P.n), {rng.randrange(P.n), rng.randrange(P.n)}]
                for edges, r in [(edge_sets[0], 1), (edge_sets[0], 2), (edge_sets[0], 3), (edge_sets[1], 2)]:
                    ev = diffuse_extend(P, q, diffuse(edges, r))
                    added, records = diffuse_added_reference(P, q, edges, r)
                    assert ev.added.area == added.area, (P, q, sorted(edges), r)
                    assert tuple((x.edge, x.subsegments, x.bounce_depth)
                                 for x in ev.per_edge_illumination) == records, (P, q, sorted(edges), r)
                    deepest = max([deepest, *(x.bounce_depth for x in ev.per_edge_illumination)])
        assert deepest == 2  # parts first lit at depth 2 re-emit at depth 3


class TestIntegerFrames:
    # frames translate the polygon's kept integer ring, rescaled only for an
    # origin with a denominator the ring's scale lacks, and the light pass
    # orders lit parts by a coordinate along each edge: both must give what
    # per-frame scaling and edge parameters gave. Combs and histograms have
    # edges running right, left, up and down; DEEP_FUNNEL's oblique mirror
    # unfolds a source to a point with new denominators.
    @staticmethod
    def _cases():
        rng = random.Random(59)
        cases = [(comb(3), Point(F(9, 7), F(1, 7))), (comb(3), Point(F(1, 2), F(13, 7))),
                 (histogram_polygon(rng, 5), Point(F(22, 7), F(1, 7))), (SNAKE, Point(F(1, 7), F(1, 7))),
                 (SNAKE, Point(4, 1)), (DEEP_FUNNEL, Point(F(36, 7), F(2, 7)))]
        assert all(P.contains(q) is PointLocation.INTERIOR for P, q in cases)
        return cases

    def test_frames_match_per_frame_scaling(self):
        rescaled = 0
        for P, q in self._cases():
            unfolded = [reflect_point_across_line(q, P.edge(e).a, P.edge(e).b) for e in range(P.n)]
            for o in [q, *P.vertices, *unfolded]:
                f, ref = _Frame(P, o), FrameReference(P, o)
                assert (f.scale, f.ox, f.oy, f.dirs, f.edges, f.sides, f.convex, f.inside) == \
                    (ref.scale, ref.ox, ref.oy, ref.dirs, ref.edges, ref.sides, ref.convex, ref.inside), (P, o)
                rescaled += f.scale != P._int_ring()[0]
                for d in f.dirs:
                    for i, (_, _, ex, ey, _) in enumerate(f.edges):
                        if d[0] * ey - d[1] * ex:
                            assert ray_point(f, d, i) == ref.ray_point(d, i)
                for v in (*P.vertices, q):
                    (x, y, w), (rx, ry, rw) = f.local(v), ref.local(v)
                    assert (F(x, w), F(y, w)) == (F(rx, rw), F(ry, rw))
        assert rescaled > 0

    def test_vp_and_light_match_reference(self, monkeypatch):
        def run(P, q):
            vp = visibility_polygon(P, q)
            out = [vp.polygon.vertices, vp.edge_hosts, [vp.edge_parts(e) for e in range(P.n)]]
            for r in (1, 2, 3):
                ev = extend_all_edges(P, q, r)
                out += [ev.per_edge_illumination, [(c.vertices, c.area) for c in ev.added.parts]]
            for e in range(P.n):
                if orientation(P.edge(e).a, P.edge(e).b, q) is not Orientation.COLLINEAR:
                    out.append([(c.vertices, c.area) for c in specular_extend_single(P, q, e).added.parts])
            return out

        mirrored = 0
        for P, q in self._cases():
            got = run(SimplePolygon(P.vertices), q)
            with monkeypatch.context() as m:
                m.setattr(visibility, "_Frame", FrameReference)  # every frame is built in `visibility`
                assert got == run(SimplePolygon(P.vertices), q), (P, q)
            for r in (1, 2, 3):
                records = diffuse_added_reference(P, q, range(P.n), r)[1]
                assert tuple((x.edge, x.subsegments, x.bounce_depth)
                             for x in extend_all_edges(P, q, r).per_edge_illumination) == records, (P, q, r)
            mirrored += sum(1 for cells in got[9:] if cells)  # the specular cells
        assert mirrored > 0


class TestCascadeMemo:
    # every depth of the cascade is memoized on its polygon, and a call
    # extends the deepest one already run: calls at any order of budgets
    # must each equal the same call on a fresh copy of the polygon
    @staticmethod
    def _outcome(ev):
        return [(p.vertices, p.area) for p in ev.added.parts], ev.per_edge_illumination

    def test_prefixes_agree_with_fresh_polygons(self):
        rng = random.Random(43)
        polys = [lshape(), SNAKE, histogram_polygon(rng, 4), histogram_polygon(rng, 5), radial_polygon(rng, 8),
                 radial_polygon(rng, 10), random_funnel(rng, 3, 2).polygon, random_funnel(rng, 2, 3).polygon]
        deepest = 0
        for P in polys:
            sources = [interior_point(rng, P), P.vertices[rng.randrange(P.n)]]
            if P is SNAKE:
                sources.append(Point(4, 1))
            for q in sources:
                for edges in (range(P.n), {rng.randrange(P.n), rng.randrange(P.n)}):
                    fresh = {r: self._outcome(diffuse_extend(SimplePolygon(P.vertices), q, diffuse(edges, r)))
                             for r in (1, 2, 3)}
                    for order in ((3, 1, 2), (1, 2, 3)):
                        shared = SimplePolygon(P.vertices)
                        for r in order:
                            ev = diffuse_extend(shared, q, diffuse(edges, r))
                            assert self._outcome(ev) == fresh[r], (P, q, sorted(edges), order, r)
                            # a lower budget served from the memo sees none of a higher one's records
                            depths = [x.bounce_depth for x in ev.per_edge_illumination]
                            assert max(depths, default=0) < r
                            deepest = max([deepest, *depths])
        assert deepest == 2  # the corridor needs all three depths

    def test_cap_checked_on_memo_hits(self, monkeypatch):
        # the cap in force at each call holds, whatever depths are memoized
        P, q = SimplePolygon(TestBitCap.HIST.vertices), TestBitCap.Q
        area = extend_all_edges(P, q, 2).added.area
        monkeypatch.setenv("MG_BIT_CAP", "2")
        for r in (1, 2):
            with pytest.raises(BitBlowup, match="after bounce depth 1 exceeds cap 2"):
                extend_all_edges(P, q, r)
        monkeypatch.setenv("MG_BIT_CAP", "3")
        assert extend_all_edges(P, q, 2).added.area == area


class TestCascadeSweeps:
    def test_memo_hits_do_not_sweep(self, monkeypatch):
        # each depth carries its added cells: a repeated call and the
        # extended region built from it read them without a boolean
        rng = random.Random(47)
        calls = []
        sweep = geom._sweep

        def counted(layers, key, group):
            calls.append(len(layers))
            return sweep(layers, key, group)

        monkeypatch.setattr(geom, "_sweep", counted)
        first = 0
        for P, q in [(lshape(), Point(F(3, 2), F(1, 2))), (SNAKE, Point(4, 1)), *(
                (P, interior_point(rng, P)) for P in [histogram_polygon(rng, 5), radial_polygon(rng, 9)])]:
            for r in (1, 2, 3):
                ev = extend_all_edges(P, q, r)
                first += len(calls)
                calls.clear()
                assert extend_all_edges(P, q, r).added is ev.added
                assert diffuse_extend(P, q, diffuse(range(P.n), r)).added is ev.added
                assert extended_region(P, q, r).area == ev.direct.polygon.area + ev.added.area
                assert calls == [], (P, q, r)
        assert first > 0


class TestSpecularReference:
    # the mirror fold through the integer frame against the fold loop it
    # replaced: the same quads give the same cells, vertex for vertex
    @staticmethod
    def _cells(region):
        return [(p.vertices, p.area) for p in region.parts]

    def test_cells_match_fold_loop(self):
        rng = random.Random(53)
        polys = [lshape(), comb(3)]
        for _ in range(4):
            polys += [histogram_polygon(rng, rng.randint(3, 6)), radial_polygon(rng, rng.randint(6, 10)),
                      random_funnel(rng, rng.randint(2, 3), rng.randint(2, 3)).polygon]
        compared = nonempty = 0
        for P in polys:
            edge = P.edge(rng.randrange(P.n))
            sources = [interior_point(rng, P), interior_point(rng, P), P.vertices[rng.randrange(P.n)],
                       edge.point_at(F(rng.randint(1, 7), 8))]
            for q in sources:
                for e in range(P.n):
                    if orientation(P.edge(e).a, P.edge(e).b, q) is Orientation.COLLINEAR:
                        with pytest.raises(SourceOnMirrorLine):
                            specular_extend_single(P, q, e)
                        continue
                    added = specular_extend_single(P, q, e).added
                    assert self._cells(added) == self._cells(specular_added_reference(P, q, e)), (P, q, e)
                    # the bits the cap reads are the merged rings' where the region
                    # merges, and never more than the cells'
                    bits, merged = added.max_coordinate_bits(), merge_region(added)
                    if merged is not added or len(added.parts) == 1:
                        assert bits == coordinate_bits_reference(merged), (P, q, e)
                    assert bits <= coordinate_bits_reference(added), (P, q, e)
                    compared += 1
                    nonempty += not added.is_empty
        assert nonempty > 20 and compared > 4 * nonempty / 3

    def test_reduction_mirrors_match_fold_loop(self):
        for values in [(1,), (3,), (1, 2), (7, 11), (1, 2, 3), (5, 5, 5), (2, 4, 6, 8), (1, 3, 5, 7, 9),
                       (12, 1, 12, 1, 12), (1, 2, 3, 4, 5, 6)]:
            ri = gen_specular(SubsetSumInstance(values, 0))
            for e in ri.candidates.main:
                added = specular_extend_single(ri.polygon, ri.q, e).added
                assert self._cells(added) == self._cells(specular_added_reference(ri.polygon, ri.q, e)), (values, e)


RATIONAL_POINTS = st.builds(Point, *[st.builds(F, st.integers(-60, 60), st.integers(1, 12))] * 2)


class TestSharedUnfoldedFrame:
    # mirrors on one line unfold the source to one point, whose frame and its
    # first-hit answers (keyed with the mirror as `beyond`) they share
    @staticmethod
    def _added(P, q, mirrors):
        return {e: specular_extend_single(P, q, e).added for e in mirrors}

    def _check(self, P, q, mirrors):
        want = {e: specular_added_reference(SimplePolygon(P.vertices), q, e) for e in mirrors}
        lines = {line_key_reference(P.edge(e).a, P.edge(e).b) for e in mirrors}
        for order in (mirrors, mirrors[::-1]):
            fresh = SimplePolygon(P.vertices)  # holds no frame
            got = self._added(fresh, q, order)
            for e in mirrors:
                assert got[e].area == want[e].area, (P, q, e)
                assert sorted(got[e]._net_boundary()) == sorted(want[e]._net_boundary()), (P, q, e)
            # each unfolding is kept by its mirror's reduced line
            assert {key[2] for key in fresh._memo if key[0] is reflect._unfolded.__wrapped__} <= lines
        return want

    def test_mirror_family_matches_the_fold_loop(self, rng):
        for m in (6, 8):
            ri = gen_specular(SubsetSumInstance(tuple(rng.randint(1, 12) for _ in range(m)), 0))
            want = self._check(ri.polygon, ri.q, list(ri.candidates.main))
            assert [want[e].area for e in ri.candidates.main] == list(ri.source.values)

    def test_comb_matches_the_fold_loop(self):
        # every edge off the source's lines; the tooth tops lie on one line,
        # and from the second source two of them are lit and share its frame
        P = comb(4)
        tops = [e for e in range(P.n) if P.edge(e).a.y == P.edge(e).b.y == 2]
        assert len(tops) == 4
        for q in (Point(F(1, 3), F(1, 2)), Point(F(7, 2), F(1, 3)), Point(F(1, 2), F(3, 2)), Point(F(9, 2), F(5, 3))):
            mirrors = [e for e in range(P.n) if orientation(P.edge(e).a, P.edge(e).b, q) is not Orientation.COLLINEAR]
            assert set(tops) <= set(mirrors)
            want = self._check(P, q, mirrors)
            assert sum(not r.is_empty for r in want.values()) >= 2, q
        assert sum(bool(visibility_polygon(P, Point(F(7, 2), F(1, 3))).edge_parts(e)) for e in tops) == 2

    def test_four_mirrors_build_one_unfolded_frame(self, monkeypatch):
        origins = Counter()

        class Counted(_Frame):
            __slots__ = ()

            def __init__(self, P, o):
                origins[o] += 1
                super().__init__(P, o)

        monkeypatch.setattr(visibility, "_Frame", Counted)
        ri = gen_specular(SubsetSumInstance((3, 1, 4, 1), 5))
        unfolded = {reflect_point_across_line(ri.q, ri.polygon.edge(e).a, ri.polygon.edge(e).b)
                    for e in ri.candidates.main}
        assert len(unfolded) == 1
        areas = [specular_extend_single(ri.polygon, ri.q, e).added.area for e in ri.candidates.main]
        assert areas == [3, 1, 4, 1]
        assert origins[unfolded.pop()] == 1
        # and the source is unfolded once, kept by the mirrors' one reduced line
        lines = {line_key_reference(ri.polygon.edge(e).a, ri.polygon.edge(e).b) for e in ri.candidates.main}
        assert len(lines) == 1
        kept = [key[1:] for key in ri.polygon._memo if key[0] is reflect._unfolded.__wrapped__]
        assert kept == [(ri.q, lines.pop())]

    @settings(max_examples=80, deadline=None)
    @given(q=RATIONAL_POINTS, a=RATIONAL_POINTS, b=RATIONAL_POINTS)
    def test_the_unfolded_source_is_the_reflection(self, q, a, b):
        # unfolding across the reduced integer line mirrors q as the Fraction formula does
        if a == b:
            return
        frame = reflect._unfolded(SimplePolygon([(0, 0), (1, 0), (0, 1)]), q, line_key_reference(a, b))
        assert frame.origin == reflect_point_across_line(q, a, b)


class TestSpecular:
    def test_reflect_point(self):
        assert reflect_point_across_line(Point(1, 1), Point(0, 2), Point(2, 2)) == Point(1, 3)

    def test_convex_adds_nothing(self):
        ev = specular_extend_single(SQUARE, Point(F(1, 2), F(1, 4)), 2)
        assert ev.added.area == 0

    def test_source_on_mirror_line(self):
        with pytest.raises(SourceOnMirrorLine):
            specular_extend_single(SQUARE, Point(2, 0), 0)

    def test_back_side_source_adds_nothing(self):
        # line of the upper leg's roof extended passes the right leg viewer
        L = lshape()
        q = Point(F(3, 2), F(5, 2) - 2)  # (3/2, 1/2)
        ev = specular_extend_single(L, q, 2)  # edge (2,1)->(1,1), inner side is below
        assert ev.added.area == 0

    def test_lshape_left_wall_mirror(self):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        ev = specular_extend_single(L, q, 5)
        assert ev.added.area == F(1, 2)

    def test_fold_consistency(self, rng):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        e = 5
        edge = L.edge(e)
        ev = specular_extend_single(L, q, e)
        q2 = reflect_point_across_line(q, edge.a, edge.b)
        for x in region_sample_points(ev.added, rng, 150):
            d = x - q2
            de = edge.b - edge.a
            denom = d.cross(de)
            assert denom != 0
            t = (edge.a - q2).cross(de) / denom
            w = q2 + d * t  # fold point on the mirror line
            assert edge.contains_point(w)
            # equal angles: the mirrored target is collinear with source and fold
            xm = reflect_point_across_line(x, edge.a, edge.b)
            assert orientation(q, w, xm) is Orientation.COLLINEAR
            assert sees(L, q, w) and sees(L, w, x)

    def test_diffuse_contains_specular(self, rng):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        spec_added = specular_extend_single(L, q, 5).added
        diff_added = diffuse_extend(L, q, diffuse({5}, 1)).added
        for p in region_sample_points(spec_added, rng, 200):
            assert diff_added.covers(p)


class TestBitCap:
    # the cells of this cascade are cut at slab crossings with 4-bit
    # coordinates; the merged rings of each depth region need only 3
    HIST = SimplePolygon([(0, 0), (6, 0), (6, 4), (5, 4), (5, 2), (4, 2), (4, 5), (0, 5)])
    Q = Point(F(1, 2), F(9, 2))

    def test_cap_measures_merged_rings(self, monkeypatch):
        ev = extend_all_edges(self.HIST, self.Q, 2)
        assert ev.added.max_coordinate_bits() == coordinate_bits_reference(merge_region(ev.added)) == 3
        assert coordinate_bits_reference(ev.added) == 4
        monkeypatch.setenv("MG_BIT_CAP", "3")
        assert extend_all_edges(self.HIST, self.Q, 2).added.area == ev.added.area
        monkeypatch.setenv("MG_BIT_CAP", "2")
        with pytest.raises(BitBlowup):
            extend_all_edges(self.HIST, self.Q, 2)

    def test_cap_holds_on_the_added_region(self, monkeypatch):
        # each depth region's merged rings stay within 19 bits here, but the
        # merged rings of the added region, which carry the VP's vertices, need 20
        rng = random.Random(4)
        P = histogram_polygon(rng)
        q = interior_point(rng, P)
        assert q == Point(F(3308229, 1048576), F(94477, 262144))
        monkeypatch.setenv("MG_BIT_CAP", "19")
        with pytest.raises(BitBlowup, match="after the added region exceeds cap 19"):
            extend_all_edges(P, q, 1)
        monkeypatch.setenv("MG_BIT_CAP", "20")
        added = extend_all_edges(P, q, 1).added
        assert added.max_coordinate_bits() == coordinate_bits_reference(merge_region(added)) == 20
