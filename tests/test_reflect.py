import random
from fractions import Fraction as F

import pytest

from mirrorgallery.errors import BitBlowup, SourceOnMirrorLine, SpecMismatch
from mirrorgallery.geom import (
    Orientation,
    Point,
    Region,
    SimplePolygon,
    merge_region,
    orientation,
    region_difference,
    region_intersection,
    region_sample_points,
    sees,
)
from mirrorgallery.reflect import (
    ReflectionKind,
    ReflectionSpec,
    added_area,
    diffuse_extend,
    extend_all_edges,
    reflect_point_across_line,
    specular_extend_single,
    visible_edge_parts,
)
from mirrorgallery.visibility import visibility_polygon

from conftest import comb, histogram_polygon, interior_point, lshape, radial_polygon

SQUARE = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
DEEP_FUNNEL = SimplePolygon([(0, 0), (10, 0), (6, 1), (5, 4), (4, 1)])


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


class TestDiffuseExtend:
    def test_convex_adds_nothing(self):
        ev = diffuse_extend(SQUARE, Point(1, 1), diffuse(range(4), 2))
        assert added_area(ev) == 0

    def test_funnel_chord_completes(self):
        q = Point(5, F(7, 2))
        ev = diffuse_extend(DEEP_FUNNEL, q, diffuse({0}, 1))
        assert ev.direct.polygon.area + added_area(ev) == DEEP_FUNNEL.area
        assert added_area(ev) > 0

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
        a5 = added_area(diffuse_extend(L, q, diffuse({5}, 1)))
        a0 = added_area(diffuse_extend(L, q, diffuse({0}, 1)))
        both = added_area(diffuse_extend(L, q, diffuse({0, 5}, 1)))
        assert a5 == F(1, 2)
        assert a0 == F(1, 2)
        assert both < a0 + a5
        assert both == F(1, 2)

    def test_monotone_in_bounces(self, rng):
        q = Point(5, F(7, 2))
        ev1 = extend_all_edges(DEEP_FUNNEL, q, 1)
        ev2 = extend_all_edges(DEEP_FUNNEL, q, 2)
        assert added_area(ev2) >= added_area(ev1)
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
                assert added.validate_disjoint()
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


class TestSpecular:
    def test_reflect_point(self):
        assert reflect_point_across_line(Point(1, 1), Point(0, 2), Point(2, 2)) == Point(1, 3)

    def test_convex_adds_nothing(self):
        ev = specular_extend_single(SQUARE, Point(F(1, 2), F(1, 4)), 2)
        assert added_area(ev) == 0

    def test_source_on_mirror_line(self):
        with pytest.raises(SourceOnMirrorLine):
            specular_extend_single(SQUARE, Point(2, 0), 0)

    def test_back_side_source_adds_nothing(self):
        # line of the upper leg's roof extended passes the right leg viewer
        L = lshape()
        q = Point(F(3, 2), F(5, 2) - 2)  # (3/2, 1/2)
        ev = specular_extend_single(L, q, 2)  # edge (2,1)->(1,1), inner side is below
        assert added_area(ev) == 0

    def test_lshape_left_wall_mirror(self):
        L = lshape()
        q = Point(F(3, 2), F(1, 2))
        ev = specular_extend_single(L, q, 5)
        assert added_area(ev) == F(1, 2)

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
    HIST = SimplePolygon([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (2, 1), (2, 5), (1, 5), (1, 2), (0, 2)])
    Q = Point(F(3, 2), F(5, 2))

    def test_cap_measures_merged_rings(self, monkeypatch):
        ev = extend_all_edges(self.HIST, self.Q, 2)
        assert merge_region(ev.added).max_coordinate_bits() == 3 < ev.added.max_coordinate_bits()
        monkeypatch.setenv("MG_BIT_CAP", "3")
        assert extend_all_edges(self.HIST, self.Q, 2).added.area == ev.added.area
        monkeypatch.setenv("MG_BIT_CAP", "2")
        with pytest.raises(BitBlowup):
            extend_all_edges(self.HIST, self.Q, 2)
