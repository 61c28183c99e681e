"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain vertex lists
of exact rationals, validated here with the benchmark's own exact
predicates (no code from the library under test decides whether an input
is well formed). The same rng state always yields the same input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

Vertex = tuple[Fraction, Fraction]


def _cross(o: Vertex, a: Vertex, b: Vertex) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _turns(ring: list[Vertex]) -> list[int]:
    """Sign of the turn at every vertex of a ring (+1 left, -1 right, 0 straight)."""
    n = len(ring)
    out = []
    for i in range(n):
        c = _cross(ring[i - 1], ring[i], ring[(i + 1) % n])
        out.append((c > 0) - (c < 0))
    return out


def _on_segment(a: Vertex, b: Vertex, c: Vertex) -> bool:
    """c lies on the closed segment ab."""
    return (_cross(a, b, c) == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _segments_meet(p: Vertex, q: Vertex, r: Vertex, s: Vertex) -> bool:
    if _cross(p, q, r) * _cross(p, q, s) < 0 and _cross(r, s, p) * _cross(r, s, q) < 0:
        return True
    return _on_segment(p, q, r) or _on_segment(p, q, s) or _on_segment(r, s, p) or _on_segment(r, s, q)


def is_simple_ccw(ring: list[Vertex]) -> bool:
    """Counterclockwise, no straight or repeated vertex, non-adjacent edges disjoint."""
    n = len(ring)
    if n < 3 or len(set(ring)) != n or 0 in _turns(ring) or area(ring) <= 0:
        return False
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_meet(ring[i], ring[(i + 1) % n], ring[j], ring[(j + 1) % n]):
                return False
    return True


def area(ring: list[Vertex]) -> Fraction:
    """Shoelace area; positive for a counterclockwise ring."""
    n = len(ring)
    return sum(
        (ring[i][0] * ring[(i + 1) % n][1] - ring[(i + 1) % n][0] * ring[i][1] for i in range(n)),
        Fraction(0),
    ) / 2


def translate(ring: list[Vertex], dx: int, dy: int) -> list[Vertex]:
    return [(x + dx, y + dy) for x, y in ring]


def strictly_inside(ring: list[Vertex], q: Vertex) -> bool:
    """Crossing-number test; False on the boundary."""
    n = len(ring)
    inside = False
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if _on_segment(a, b, q):
            return False
        if (a[1] > q[1]) != (b[1] > q[1]):
            x = a[0] + (q[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x > q[0]:
                inside = not inside
    return inside


def _fr(ring) -> list[Vertex]:
    return [(Fraction(x), Fraction(y)) for x, y in ring]


# ---------------------------------------------------------------------------
# Polygon families.
# ---------------------------------------------------------------------------


def lshape() -> list[Vertex]:
    return _fr([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def comb(teeth: int, tooth_w: int = 1, gap_w: int = 1, depth: int = 2) -> list[Vertex]:
    """Base strip of height 1 with `teeth` teeth reaching up to y = depth.

    When gap_w > tooth_w / (depth - 1), no point of the comb sees the top
    corners of two teeth, so it needs at least one guard per tooth.
    """
    width = teeth * tooth_w + (teeth - 1) * gap_w
    ring = [(0, 0), (width, 0)]
    x = width
    for t in range(teeth):
        ring += [(x, depth), (x - tooth_w, depth)]
        x -= tooth_w
        if t < teeth - 1:
            ring += [(x, 1), (x - gap_w, 1)]
            x -= gap_w
    return _fr(ring)


def seeded_comb(rng: random.Random, teeth: int) -> list[Vertex]:
    # gap_w >= 2 > tooth_w / (depth - 1) for every draw
    return comb(teeth, rng.randint(1, 2), rng.randint(2, 3), rng.randint(3, 4))


def histogram(rng: random.Random, columns: int, hmax: int = 6) -> list[Vertex]:
    """Unit-width columns on a common floor; neighbouring heights differ."""
    heights = [rng.randint(1, hmax)]
    while len(heights) < columns:
        h = rng.randint(1, hmax)
        if h != heights[-1]:
            heights.append(h)
    ring = [(0, 0), (columns, 0)]
    for i in range(columns - 1, -1, -1):
        ring += [(i + 1, heights[i]), (i, heights[i])]
    return _fr(ring)


def _dir_key(d1, d2) -> int:
    """Counterclockwise angular order of integer directions from angle 0."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return h1 - h2
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def radial(rng: random.Random, n: int, rmax: int = 8) -> list[Vertex]:
    """Star-shaped polygon around the origin: n directions, seeded radii."""
    while True:
        dirs = set()
        while len(dirs) < n:
            dx, dy = rng.randint(-7, 7), rng.randint(-7, 7)
            if dx or dy:
                g = gcd(abs(dx), abs(dy))
                dirs.add((dx // g, dy // g))
        ordered = sorted(dirs, key=cmp_to_key(_dir_key))
        ring = []
        for dx, dy in ordered:
            r = Fraction(rng.randint(2, rmax), rng.randint(1, 2))
            ring.append((r * dx, r * dy))
        if is_simple_ccw(ring) and strictly_inside(ring, (Fraction(0), Fraction(0))):
            return ring


def _fan_steps(rng: random.Random, count: int, increasing: bool):
    dirs = set()
    while len(dirs) < count:
        dx, dy = rng.randint(-4, 4), rng.randint(1, 4)
        g = gcd(abs(dx), dy)
        dirs.add((dx // g, dy // g))
    ordered = sorted(dirs, key=cmp_to_key(_dir_key))
    if not increasing:
        ordered.reverse()
    steps = []
    for dx, dy in ordered:
        m = rng.randint(1, 3)
        steps.append((Fraction(m * dx), Fraction(m * dy)))
    return steps


def _chain(start: Vertex, end: Vertex, steps) -> list[Vertex]:
    """Rotate and scale the step fan so it runs exactly from start to end."""
    sx = sum(s[0] for s in steps)
    sy = sum(s[1] for s in steps)
    tx, ty = end[0] - start[0], end[1] - start[1]
    denom = sx * sx + sy * sy
    zr = (tx * sx + ty * sy) / denom
    zi = (ty * sx - tx * sy) / denom
    pts = []
    cx, cy = start
    for s in steps[:-1]:
        cx, cy = cx + zr * s[0] - zi * s[1], cy + zr * s[1] + zi * s[0]
        pts.append((cx, cy))
    return pts


def funnel(rng: random.Random, left_n: int, right_n: int) -> list[Vertex]:
    """Funnel: chord (0,0)-(w,0) is edge 0, apex on top, both chains strictly reflex.

    Exactly three convex corners (the chord ends and the apex); every chain
    vertex turns right.
    """
    while True:
        width = rng.randint(8, 14)
        u, v = (Fraction(0), Fraction(0)), (Fraction(width), Fraction(0))
        apex = (Fraction(rng.randint(2, width - 2)), Fraction(rng.randint(4, 9)))
        right = _chain(v, apex, _fan_steps(rng, right_n + 1, increasing=False))
        left = _chain(u, apex, _fan_steps(rng, left_n + 1, increasing=True))
        ring = [u, v, *right, apex, *reversed(left)]
        if not is_simple_ccw(ring):
            continue
        turns = _turns(ring)
        apex_i = 2 + len(right)
        if all((t > 0) == (i in (0, 1, apex_i)) for i, t in enumerate(turns)):
            return ring


def query_points(rng: random.Random, ring: list[Vertex], k: int, grid: int = 1024) -> list[Vertex]:
    """k distinct interior points in general position with the vertices.

    No point lies on a line through two vertices, so no sight line from a
    query grazes a vertex pair and no edge's supporting line holds it.
    """
    xs = [p[0] for p in ring]
    ys = [p[1] for p in ring]
    x0, y0 = min(xs), min(ys)
    w, h = max(xs) - x0, max(ys) - y0
    n = len(ring)
    out: list[Vertex] = []
    while len(out) < k:
        q = (x0 + w * Fraction(rng.randrange(1, grid), grid), y0 + h * Fraction(rng.randrange(1, grid), grid))
        if q in out or not strictly_inside(ring, q):
            continue
        if any(_cross(ring[i], ring[j], q) == 0 for i in range(n) for j in range(i + 1, n)):
            continue
        out.append(q)
    return out


def facing_edge(rng: random.Random, ring: list[Vertex], q: Vertex) -> int:
    """A seeded edge whose supporting line has q strictly on its inner side."""
    n = len(ring)
    edges = [i for i in range(n) if _cross(ring[i], ring[(i + 1) % n], q) > 0]
    return rng.choice(edges)


# ---------------------------------------------------------------------------
# Subset-sum draws and the benchmark's own exact solver.
# ---------------------------------------------------------------------------


def subset_sum_draw(rng: random.Random, m: int, vmax: int = 12) -> tuple[tuple[int, ...], int]:
    """m values in 1..vmax; the target is a random subset sum or a random number."""
    values = tuple(rng.randint(1, vmax) for _ in range(m))
    if rng.random() < 0.5:
        target = sum(v for v in values if rng.random() < 0.5)
    else:
        target = rng.randint(1, sum(values) + 3)
    return values, target


def subset_sum_reachable(values, target: int) -> bool:
    """Dynamic programme over reachable sums (bitset); independent of the library."""
    reach = 1
    for v in values:
        reach |= reach << v
    return target >= 0 and bool(reach >> target & 1)
