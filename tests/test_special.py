from fractions import Fraction as F
from itertools import combinations

import pytest

from mirrorgallery.errors import NotAFunnel, NotWeaklyVisible, QueryOutside
from mirrorgallery.geom import (
    Point,
    Region,
    SimplePolygon,
    region_union_all,
    sees,
)
from mirrorgallery.reflect import ReflectionKind, ReflectionSpec, diffuse_extend
from mirrorgallery.special import (
    detect_funnel,
    funnel_best_mirrors,
    funnel_tangents,
    wvp_best_single_edge,
    wvp_three_reflection_cover,
)
from mirrorgallery.visibility import visibility_polygon

from conftest import histogram_polygon, lshape, random_funnel
from oracles import (
    funnel_best_mirrors_reference,
    ray_landing_reference,
    region_sample_points,
    segment_parts_inside,
)

PENTA = SimplePolygon([(0, 0), (6, 0), (4, 2), (3, 5), (2, 2)])
DEEP = SimplePolygon([(0, 0), (10, 0), (6, 1), (5, 4), (4, 1)])


class TestDetectFunnel:
    def test_triangle(self):
        f = detect_funnel(SimplePolygon([(0, 0), (4, 0), (2, 3)]))
        assert f.apex not in (f.u, f.v)

    def test_pentagon(self):
        f = detect_funnel(PENTA)
        assert f.chord == 0
        assert f.apex == 3
        assert f.left_chain == (0, 4, 3)
        assert f.right_chain == (1, 2, 3)

    def test_lshape_rejected(self):
        with pytest.raises(NotAFunnel) as err:
            detect_funnel(lshape())
        assert err.value.violating_vertex is not None

    def test_random_funnels_validate(self, rng):
        for _ in range(6):
            f = random_funnel(rng, rng.randint(2, 4), rng.randint(2, 4))
            for chain in (f.left_chain, f.right_chain):
                for i in chain[1:-1]:
                    assert i in f.polygon.reflex_indices()


class TestTangents:
    def test_query_outside(self):
        f = detect_funnel(PENTA)
        with pytest.raises(QueryOutside):
            funnel_tangents(f, Point(3, 0))  # chord point is not interior

    def test_triangle_contacts_at_vertices(self):
        t = SimplePolygon([(0, 0), (4, 0), (2, 3)])
        f = detect_funnel(t)
        quad = funnel_tangents(f, Point(2, 1))
        pts = {c.point for c in quad.contacts()}
        assert pts <= set(t.vertices)

    @pytest.mark.parametrize(
        "ring, q, p1, p2",
        [
            # the sight ray passes (3, 2), runs along the left edge to p1 and lands on the right chain
            ([(0, 0), (10, 0), (7, 2), (6, 5), (5, 12), (4, 5), (3, 2)], Point(F(5, 2), F(1, 2)),
             Point(4, 5), Point(F(27, 5), F(46, 5))),
            # the sight ray passes p1 and runs along the left edge on to the chord's corner
            ([(0, 0), (10, 0), (7, 2), (5, 5), (5, 12), (4, 8), (2, 1)], Point(6, 3),
             Point(2, 1), Point(0, 0)),
        ],
    )
    def test_landing_through_a_chain_edge_on_the_sight_ray(self, ring, q, p1, p2):
        P = SimplePolygon(ring)
        quad = funnel_tangents(detect_funnel(P), q)
        assert quad.p1.point == p1
        assert quad.p2.point == ray_landing_reference(P, q, p1) == p2

    def test_contacts_match_bruteforce_visibility(self, rng, funnels):
        # exhaustive tangency check: the returned contacts are the extreme
        # visible chain vertices, p2 where a ray cast grazing p1 lands
        cases = list(funnels)
        for _ in range(4):
            f = random_funnel(rng, 3, 3)
            cases.append((f, region_sample_points(Region.of(f.polygon), rng, 1)[0]))
        for f, q in cases:
            P = f.polygon
            quad = funnel_tangents(f, q)
            vis_left = [i for i in f.left_chain if sees(P, q, P.vertices[i])]
            vis_right = [i for i in f.right_chain if sees(P, q, P.vertices[i])]
            assert quad.p1.point == P.vertices[max(vis_left, key=f.left_chain.index)]
            assert quad.p4.point == P.vertices[min(vis_left, key=f.left_chain.index)]
            assert quad.p3.point == P.vertices[min(vis_right, key=f.right_chain.index)]
            assert sees(P, q, quad.p2.point)
            assert quad.p2.point == ray_landing_reference(P, q, quad.p1.point)

    def test_tangents_and_windows_build_no_vp_polygon(self, funnels):
        # the sides along sight rays, and the windows cut from them, are read
        # off the VP's integer ring; they are the polygon's edges so labelled
        for f, q in funnels[:10]:
            P = SimplePolygon(f.polygon.vertices)  # with no VP built yet
            quad = funnel_tangents(detect_funnel(P), q)
            vp = visibility_polygon(P, q)
            assert vp.windows and not isinstance(vp.region._parts, tuple)
            assert vp.ray_sides == tuple(vp.polygon.edge(k) for k, h in enumerate(vp.edge_hosts) if h < 0)
            assert quad == funnel_tangents(f, q)


class TestBestMirrors:
    def test_triangle_already_covered(self):
        f = detect_funnel(SimplePolygon([(0, 0), (4, 0), (2, 3)]))
        mc = funnel_best_mirrors(f, Point(2, 1))
        assert mc.edges == frozenset()
        assert mc.covers_all

    def test_chord_alone_when_allowed(self):
        f = detect_funnel(DEEP)
        q = Point(5, F(7, 2))
        mc = funnel_best_mirrors(f, q, include_chord=True)
        assert mc.covers_all
        assert mc.edges == frozenset({f.chord})

    def test_candidate_count_capped(self, rng):
        for _ in range(4):
            f = random_funnel(rng, rng.randint(2, 4), rng.randint(2, 4))
            q = region_sample_points(Region.of(f.polygon), rng, 1)[0]
            quad = funnel_tangents(f, q)
            cand = {e for c in quad.contacts() for e in c.edges if e != f.chord}
            assert len(cand) <= 8

    @pytest.mark.parametrize("include_chord", [False, True])
    def test_matches_union_per_subset_reference(self, funnels, include_chord):
        for f, q in funnels:
            got = funnel_best_mirrors(f, q, include_chord=include_chord)
            assert got == funnel_best_mirrors_reference(f, q, include_chord=include_chord), (f, q)

    def test_candidates_match_full_enumeration(self):
        # optimum over the tangent candidates equals optimum over all edges
        f = detect_funnel(DEEP)
        q = Point(5, F(7, 2))
        mc = funnel_best_mirrors(f, q)
        P = f.polygon
        vp_region = Region.of(visibility_polygon(P, q).polygon)
        added = {}
        for e in range(P.n):
            if e == f.chord:
                continue
            spec = ReflectionSpec(frozenset({e}), ReflectionKind.DIFFUSE, 1)
            added[e] = diffuse_extend(P, q, spec).added
        best_size = None
        for size in range(0, P.n):
            for subset in combinations(sorted(added), size):
                total = region_union_all([vp_region] + [added[e] for e in subset]).area
                if total == P.area:
                    best_size = size
                    break
            if best_size is not None:
                break
        assert mc.covers_all
        assert len(mc.edges) == best_size


class TestWeakVisibilitySolvers:
    def test_funnel_chord_is_best(self):
        q = Point(5, F(7, 2))
        assert wvp_best_single_edge(DEEP, 0, q) == 0

    def test_convex_ties_at_zero(self):
        sq = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert wvp_best_single_edge(sq, 0, Point(2, 2)) == 0

    def test_histogram_chord_beats_all(self, rng):
        P = histogram_polygon(rng, 4, 5)
        q = region_sample_points(Region.of(P), rng, 1)[0]
        assert wvp_best_single_edge(P, 0, q) == 0

    def test_not_weakly_visible(self):
        with pytest.raises(NotWeaklyVisible):
            wvp_best_single_edge(lshape(), 1, Point(F(3, 2), F(1, 2)))

    def test_three_reflection_cover_funnel(self):
        seq = wvp_three_reflection_cover(DEEP, 0, samples=6)
        assert seq == [0, DEEP.n - 1, 0]

    def test_three_reflection_cover_convex(self):
        sq = SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert wvp_three_reflection_cover(sq, 0, samples=4) == [0, 3, 0]

    def test_three_reflection_cover_histogram(self, rng):
        P = histogram_polygon(rng, 3, 4)
        seq = wvp_three_reflection_cover(P, 0, samples=8)
        assert seq[0] == seq[2] == 0

    def test_adjacent_edge_interior_sees_far_endpoint(self, rng):
        # a relative-interior point of the adjacent edge sees the chord's far end
        for P in [DEEP, PENTA, histogram_polygon(rng, 3, 4)]:
            v = P.vertices[1]
            edge_au = P.edge(P.n - 1)
            vp = visibility_polygon(P, v)
            parts = segment_parts_inside(edge_au, [vp.polygon])
            assert any(p.a != p.b for p in parts)
