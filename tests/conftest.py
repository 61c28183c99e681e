"""Shared instance builders for the test suite.

All generators are deterministic given an rng and validate their output
before returning it, retrying with fresh draws on the rare invalid draw.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from mirrorgallery.geom import Point, PointLocation, Region, SimplePolygon
from mirrorgallery.special import detect_funnel

from oracles import dir_cmp, region_sample_points

# a failing property test prints the blob that replays it (`@reproduce_failure`);
# every other setting is the one of the profile in force
settings.register_profile("print-blob", settings(), print_blob=True)
settings.load_profile("print-blob")


def lshape() -> SimplePolygon:
    return SimplePolygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def comb(teeth: int = 3, tooth_w: int = 1, gap_w: int = 1, depth: int = 2) -> SimplePolygon:
    """Comb with the given number of teeth pointing up from a base strip."""
    pts = [(0, 0)]
    x = 0
    width = teeth * tooth_w + (teeth - 1) * gap_w
    pts.append((width, 0))
    # walk the top boundary right to left
    top = []
    x = width
    for t in range(teeth):
        top.append((x, depth))
        top.append((x - tooth_w, depth))
        x -= tooth_w
        if t < teeth - 1:
            top.append((x, 1))
            top.append((x - gap_w, 1))
            x -= gap_w
    pts.extend(top)
    return SimplePolygon(pts)


def histogram_polygon(rng: random.Random, columns: int = 4, hmax: int = 5) -> SimplePolygon:
    heights = [rng.randint(1, hmax) for _ in range(columns)]
    pts: list[tuple] = [(0, 0), (columns, 0)]
    for i in range(columns - 1, -1, -1):
        pts.append((i + 1, heights[i]))
        pts.append((i, heights[i]))
    return SimplePolygon(pts)


def radial_polygon(rng: random.Random, n: int = 8, rmax: int = 8) -> SimplePolygon:
    """Star-shaped polygon: random radii at sorted random angles around the origin."""
    while True:
        dirs = set()
        while len(dirs) < n:
            dx = rng.randint(-7, 7)
            dy = rng.randint(-7, 7)
            if dx == 0 and dy == 0:
                continue
            from math import gcd

            g = gcd(abs(dx), abs(dy))
            dirs.add((dx // g, dy // g))
        from functools import cmp_to_key

        ordered = sorted(dirs, key=cmp_to_key(dir_cmp))
        pts = []
        for dx, dy in ordered:
            r = Fraction(rng.randint(2, rmax), rng.randint(1, 2))
            pts.append(Point(r * dx, r * dy))
        try:
            return SimplePolygon(pts)
        except Exception:
            continue


def _angle_sorted_steps(rng: random.Random, count: int, increasing: bool):
    """Random integer step vectors with strictly sorted direction angles."""
    from functools import cmp_to_key

    dirs = set()
    while len(dirs) < count:
        dx = rng.randint(-4, 4)
        dy = rng.randint(1, 4)  # upper half keeps the angular order total
        if dx == 0 and dy == 0:
            continue
        from math import gcd

        g = gcd(abs(dx), abs(dy))
        dirs.add((dx // g, dy // g))
    ordered = sorted(dirs, key=cmp_to_key(dir_cmp))
    if not increasing:
        ordered.reverse()
    steps = []
    for dx, dy in ordered:
        m = rng.randint(1, 3)
        steps.append(Point(Fraction(m * dx), Fraction(m * dy)))
    return steps


def _chain_points(start: Point, end: Point, steps: list[Point]) -> list[Point]:
    """Scale/rotate the step fan so it runs exactly from start to end."""
    sx = sum((s.x for s in steps), Fraction(0))
    sy = sum((s.y for s in steps), Fraction(0))
    tx, ty = end.x - start.x, end.y - start.y
    denom = sx * sx + sy * sy
    zr = (tx * sx + ty * sy) / denom
    zi = (ty * sx - tx * sy) / denom
    pts = []
    cur = start
    for s in steps[:-1]:
        cur = Point(cur.x + zr * s.x - zi * s.y, cur.y + zr * s.y + zi * s.x)
        pts.append(cur)
    return pts


def random_funnel(rng: random.Random, left_n: int = 3, right_n: int = 3):
    """Funnel with strictly reflex chains of the requested interior sizes."""
    for _ in range(200):
        width = rng.randint(8, 14)
        u = Point(0, 0)
        v = Point(width, 0)
        apex = Point(Fraction(rng.randint(2, width - 2)), Fraction(rng.randint(4, 9)))
        right_steps = _angle_sorted_steps(rng, right_n + 1, increasing=False)
        left_steps = _angle_sorted_steps(rng, left_n + 1, increasing=True)
        right_pts = _chain_points(v, apex, right_steps)
        left_pts = _chain_points(u, apex, left_steps)
        ring = [u, v, *right_pts, apex, *reversed(left_pts)]
        try:
            poly = SimplePolygon(ring)
            f = detect_funnel(poly)
        except Exception:
            continue
        if f.chord != 0:
            continue
        return f
    raise AssertionError("funnel generator exhausted its retry budget")


def interior_point(rng: random.Random, poly: SimplePolygon) -> Point:
    return region_sample_points(Region.of(poly), rng, 1)[0]


def on_edge_lines(poly: SimplePolygon) -> list[Point]:
    """Interior points of poly on the line of one of its edges, off the edge."""
    out = []
    for a, b in zip(poly.vertices, poly.vertices[1:] + poly.vertices[:1]):
        for t in (Fraction(-2), Fraction(-1), Fraction(-1, 3), Fraction(4, 3), Fraction(2), Fraction(3)):
            p = a + (b - a) * t
            if poly.contains(p) is PointLocation.INTERIOR:
                out.append(p)
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="module")
def funnels():
    """50 seeded funnels with 2 or 3 vertices per chain, each with an interior query point."""
    rng = random.Random(1001)
    out = []
    while len(out) < 50:
        f = random_funnel(rng, rng.randint(2, 3), rng.randint(2, 3))
        q = interior_point(rng, f.polygon)
        out.append((f, q))
    return out
