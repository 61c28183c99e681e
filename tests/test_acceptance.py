"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Every comparison here is exact rational arithmetic; there are no float
tolerances anywhere. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction as F
from math import log

import pytest

from mirrorgallery.fileio import format_instance, instance_to_file, parse_instance
from mirrorgallery.geom import (
    Point,
    Region,
    SimplePolygon,
    orientation,
    region_difference,
    region_intersection,
    region_union_all,
)
from mirrorgallery.guard import (
    build_guard_graph,
    decompose,
    greedy_cover,
    optimal_cover_bruteforce,
    spanning_tree_reduce,
)
from mirrorgallery.redgen import (
    SubsetSumInstance,
    gen_diffuse,
    gen_specular,
    solve_by_enumeration,
    subset_sum_bruteforce,
)
from mirrorgallery.reflect import (
    ReflectionKind,
    ReflectionSpec,
    diffuse_extend,
    specular_extend_single,
)
from mirrorgallery.special import funnel_tangents
from mirrorgallery.visibility import visibility_polygon

from conftest import comb, histogram_polygon, interior_point, lshape, radial_polygon
from oracles import region_sample_points, visibility_area_oracle


def _report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def guard_set():
    rng = random.Random(2002)
    polys = [
        SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
        SimplePolygon([(0, 0), (5, 0), (5, 3), (0, 3)]),
        SimplePolygon([(0, 0), (3, 0), (4, 2), (2, 4), (0, 2)]),
        SimplePolygon([(0, 0), (6, 0), (7, 3), (3, 6), (-1, 3)]),
        SimplePolygon([(0, 0), (2, 0), (3, 1), (3, 3), (1, 4), (-1, 2)]),
        SimplePolygon([(0, 0), (4, 0), (6, 2), (4, 5), (0, 5), (-2, 2)]),
        SimplePolygon([(0, 0), (5, 0), (6, 1), (6, 3), (3, 5), (0, 4)]),
        SimplePolygon([(0, 0), (7, 0), (8, 4), (4, 7), (0, 6), (-1, 3)]),
        lshape(),
        SimplePolygon([(0, 0), (6, 0), (6, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2)]),
        SimplePolygon([(0, 0), (3, 0), (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2)]),
        SimplePolygon([(0, 0), (8, 0), (8, 2), (5, 2), (5, 4), (3, 4), (3, 2), (0, 2)]),
        SimplePolygon([(0, 0), (4, 0), (4, 1), (3, 1), (3, 3), (1, 3), (1, 1), (0, 1)]),
        SimplePolygon([(0, 0), (2, 0), (2, 5), (1, 5), (1, 1), (0, 1)]),
        SimplePolygon([(0, 0), (10, 0), (6, 1), (5, 4), (4, 1)]),
    ]
    for _ in range(5):
        polys.append(histogram_polygon(rng, rng.randint(3, 4), 5))
    for _ in range(4):
        polys.append(radial_polygon(rng, rng.randint(6, 8)))
    polys.append(comb(3))
    assert len(polys) >= 25
    return polys


class TestAcceptance:
    def test_criterion_1_specular_exactness(self):
        rng = random.Random(11)
        cases = [(1,), (3,), (1, 2), (7, 11), (1, 2, 3), (5, 5, 5), (2, 4, 6, 8),
                 (1, 3, 5, 7, 9), (12, 1, 12, 1, 12), (1, 2, 3, 4, 5, 6)]
        worst = 0.0
        for values in cases:
            t0 = time.time()
            ri = gen_specular(SubsetSumInstance(values, 0))
            for i, e in enumerate(ri.candidates.main):
                added = specular_extend_single(ri.polygon, ri.q, e).added
                assert added.area == values[i], (values, i, added.area)
            worst = max(worst, time.time() - t0)
        _report(1, worst < 10.0, f"mirror exactness on {len(cases)} instances, worst {worst:.1f}s")

    def test_criterion_2_diffuse_triangle_identity(self):
        # two values and up: the single-value gadget degenerates (the
        # hypotenuse split is 0:1) and the floor then sees the whole top
        # triangle, making the strict leak bound unattainable there
        worst = 0.0
        for values in [(1, 1), (2, 3), (1, 5, 9), (12, 7, 3, 2), (1, 2, 3, 4, 5, 6)]:
            t0 = time.time()
            m = len(values)
            ri = gen_diffuse(SubsetSumInstance(values, 0))
            for i, spike in enumerate(ri.spikes):
                assert spike.area == values[i]
            for e in ri.candidates.main:
                seg = ri.polygon.edge(e)
                assert abs(seg.b.y - seg.a.y) >= 1  # altitude at least one
            spec = ReflectionSpec(frozenset({ri.candidates.base}), ReflectionKind.DIFFUSE, 1)
            ev = diffuse_extend(ri.polygon, ri.q, spec)
            leak = region_intersection(ev.added, Region(tuple(ri.spikes))).area
            assert leak < F(1, m * m), (values, leak)
            worst = max(worst, time.time() - t0)
        _report(2, worst < 10.0, f"triangle areas exact, floor leak < 1/m^2, worst {worst:.1f}s")

    def test_criterion_3_reduction_equivalence(self):
        rng = random.Random(33)
        m_cycle = [1, 2, 1, 2, 3, 2, 1, 3, 2, 4, 1, 2, 3, 2, 5, 1, 2, 3, 6, 2]
        disagreements = 0
        total = 0
        for trial in range(200):
            m = m_cycle[trial % len(m_cycle)]
            values = tuple(rng.randint(1, 12) for _ in range(m))
            if rng.random() < 0.6:
                target = sum(v for v in values if rng.random() < 0.5)
            else:
                target = rng.randint(0, sum(values) + 3)
            ss = SubsetSumInstance(values, target)
            want = subset_sum_bruteforce(ss) is not None
            for gen in (gen_specular, gen_diffuse):
                got = solve_by_enumeration(gen(ss)) is not None
                total += 1
                if got != want:
                    disagreements += 1
        _report(3, disagreements == 0,
                f"{total} generator runs over 200 instances, {disagreements} disagreements")

    def test_criterion_4_funnel_one_bounce(self, funnels):
        failures = 0
        for f, q in funnels:
            spec = ReflectionSpec(frozenset({f.chord}), ReflectionKind.DIFFUSE, 1)
            ev = diffuse_extend(f.polygon, q, spec)
            if ev.direct.polygon.area + ev.added.area != f.polygon.area:
                failures += 1
        _report(4, failures == 0, f"{len(funnels)} funnels, chord bounce completes each, "
                                  f"{failures} failures")

    def test_criterion_5_tangent_dominance(self, funnels):
        rng = random.Random(55)
        violations = 0
        sampled = 0
        exact_violations = 0
        checked = 0
        for f, q in funnels:
            P = f.polygon
            quad = funnel_tangents(f, q)
            candidate_edges = sorted({e for c in quad.contacts() for e in c.edges})
            per_edge = {}
            for e in range(P.n):
                if e == f.chord:
                    continue  # the chord is never a mirror candidate here
                spec = ReflectionSpec(frozenset({e}), ReflectionKind.DIFFUSE, 1)
                per_edge[e] = diffuse_extend(P, q, spec).added
            union_candidates = region_union_all(
                [per_edge[e] for e in candidate_edges
                 if e in per_edge and not per_edge[e].is_empty]
                or [Region.empty()]
            )
            for e, added in per_edge.items():
                if added.is_empty:
                    continue
                checked += 1
                exact_violations += region_difference(added, union_candidates).area != 0
                for p in region_sample_points(added, rng, 20):
                    sampled += 1
                    if not union_candidates.covers(p):
                        violations += 1
        _report(5, violations == 0 and sampled >= 1000 and exact_violations == 0,
                f"{sampled} sampled points across {len(funnels)} funnels, "
                f"{violations} outside the tangent-candidate union; "
                f"{exact_violations} of {checked} added regions not inside it exactly")

    def test_criterion_6_spanning_tree_bound(self, guard_set):
        checked = 0
        for P in guard_set:
            base = optimal_cover_bruteforce(P, 0)
            graph = build_guard_graph(P, base)
            assert len(graph.nodes) == len(base.guards)
            reduced = spanning_tree_reduce(P, base, 4)  # certification inside
            k = 1 + 4 // 4
            bound = -(-len(base.guards) // k)
            assert len(reduced.guards) <= bound, (P, base.guards, reduced.guards)
            checked += 1
        _report(6, checked >= 25,
                f"{checked} polygons: reduced cover within ceil(alpha/2), certificates passed")

    def test_criterion_7_greedy_ratio(self, guard_set):
        checked = 0
        for P in guard_set:
            for r in (0, 1):
                d = decompose(P, r)
                assert sum((c.area for c in d.cells), F(0)) == P.area
                g = greedy_cover(P, r)
                o = optimal_cover_bruteforce(P, r)
                assert len(g.guards) <= (log(len(d.cells)) + 1) * len(o.guards)
            checked += 1
        _report(7, checked >= 25,
                f"{checked} polygons at r in {{0,1}}: greedy within (ln cells + 1) * optimal, "
                f"cell areas sum exactly")

    def test_criterion_8_vp_oracle(self):
        rng = random.Random(88)
        mismatches = 0
        total = 0
        while total < 100:
            if total % 2 == 0:
                P = histogram_polygon(rng, rng.randint(3, 5), 5)
            else:
                P = radial_polygon(rng, rng.randint(6, 10))
            if P.n > 12:
                continue
            q = interior_point(rng, P)
            total += 1
            if visibility_polygon(P, q).polygon.area != visibility_area_oracle(P, q):
                mismatches += 1
        _report(8, mismatches == 0, f"{total} random polygons, {mismatches} area mismatches")

    def test_criterion_9_kernel_invariants(self):
        rng = random.Random(99)
        # orientation antisymmetry
        for _ in range(500):
            p, q, r = (
                Point(F(rng.randint(-99, 99), rng.randint(1, 9)),
                      F(rng.randint(-99, 99), rng.randint(1, 9)))
                for _ in range(3)
            )
            assert orientation(p, q, r).value == -orientation(p, r, q).value
        # overlay inclusion-exclusion on 1000 random rectangle pairs
        def rect(x0, y0, w, h):
            return Region.of(SimplePolygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]))

        for _ in range(1000):
            a = rect(F(rng.randint(0, 40), 4), F(rng.randint(0, 40), 4),
                     F(rng.randint(1, 30), 4), F(rng.randint(1, 30), 4))
            b = rect(F(rng.randint(0, 40), 4), F(rng.randint(0, 40), 4),
                     F(rng.randint(1, 30), 4), F(rng.randint(1, 30), 4))
            assert region_union_all([a, b]).area == a.area + b.area - region_intersection(a, b).area
        # file round-trip is lossless
        ri = gen_diffuse(SubsetSumInstance((3, 4), 7))
        text = format_instance(instance_to_file(ri))
        back = parse_instance(text)
        assert back.polygon == ri.polygon and format_instance(back) == text
        _report(9, True, "orientation antisymmetry, rectangle inclusion-exclusion x1000, "
                         "file round-trip: all exact")
