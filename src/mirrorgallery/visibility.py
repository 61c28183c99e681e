"""Direct (reflection-free) visibility inside a simple polygon.

The visibility polygon is computed with one exact angular sweep: the
directions from the source to every vertex split the view circle into
wedges, each wedge has a single nearest edge, and the output ring is the
fan of wedge hits. The sweep works in integers: the vertices are
translated to the source and scaled by their least common denominator
once per call, so the first-hit scan compares cross-multiplied integer
determinants and `Fraction`s are built only for the ring points.

A wedge is lit when its mid direction leaves the source into the
polygon. That is a constant-time test at the source: always from the
interior, left of the host edge from inside an edge, and inside the
interior angle from a vertex. The mid direction passes through no vertex,
so the open sight segment lies wholly inside or wholly outside.

Weak visibility from a segment is the union of the visibility polygons of
its endpoints and, for every reflex vertex v and every part of the segment
v sees, the cone of sight lines pivoting through v. VP(v) is star-shaped
from v, so the cone is the same sweep from v run over only the directions
between the two pivot rays; each maximal run of lit sub-wedges is one part.

The windows of a visibility polygon are computed on first access and kept
on it. `visibility_polygon` keeps its last 256 results in an LRU cache;
`visibility_polygon.cache_info()` reports hits and misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from math import gcd, lcm

from .errors import QueryOutsidePolygon, SegmentOutsidePolygon
from .geom import (
    Orientation,
    Point,
    Region,
    Segment,
    SimplePolygon,
    merge_intervals,
    orientation,
    region_union_all,
    segment_parts_inside,
    sees,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    polygon: SimplePolygon
    source: Point
    host: SimplePolygon

    @cached_property
    def windows(self) -> tuple[Segment, ...]:
        """Boundary pieces of the visibility polygon not lying on the host boundary."""
        wins: list[Segment] = []
        p_edges = self.host.edges()
        for ve in self.polygon.edges():
            covered: list[tuple[Fraction, Fraction]] = []
            for pe in p_edges:
                if (
                    orientation(pe.a, pe.b, ve.a) is Orientation.COLLINEAR
                    and orientation(pe.a, pe.b, ve.b) is Orientation.COLLINEAR
                ):
                    t0 = ve.param_of(pe.a)
                    t1 = ve.param_of(pe.b)
                    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
                    lo = max(lo, Fraction(0))
                    hi = min(hi, Fraction(1))
                    if lo < hi:
                        covered.append((lo, hi))
            t = Fraction(0)
            for lo, hi in merge_intervals(covered):
                if t < lo:
                    wins.append(Segment(ve.point_at(t), ve.point_at(lo)))
                t = max(t, hi)
            if t < 1:
                wins.append(Segment(ve.point_at(t), ve.point_at(1)))
        return tuple(wins)


def _primitive_direction(d: Point) -> tuple[int, int]:
    """Reduce a rational direction vector to a canonical integer vector."""
    return _primitive(d.x.numerator * d.y.denominator, d.y.numerator * d.x.denominator)


def _primitive(x: int, y: int) -> tuple[int, int]:
    g = gcd(x, y)
    return (x // g, y // g)


def _dir_half(d: tuple[int, int]) -> int:
    x, y = d
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _dir_cmp(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    h1, h2 = _dir_half(d1), _dir_half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


class _Frame:
    """A polygon seen from an origin o, in integer coordinates.

    Every vertex is translated to o and scaled by the least common
    denominator of all coordinates, so rays from o are tested with integer
    determinants. Also records which directions leave o into the polygon:
    those strictly left of all of `sides` (`convex`) or of any of them;
    `inside` is False when o is outside the polygon.
    """

    __slots__ = ("origin", "scale", "points", "edges", "sides", "convex", "inside")

    def __init__(self, P: SimplePolygon, o: Point):
        scale = lcm(o.x.denominator, o.y.denominator,
                    *(c.denominator for v in P.vertices for c in (v.x, v.y)))

        def scaled(c: Fraction) -> int:
            return c.numerator * (scale // c.denominator)

        ox, oy = scaled(o.x), scaled(o.y)
        pts = [(scaled(v.x) - ox, scaled(v.y) - oy) for v in P.vertices]
        self.origin, self.scale, self.points = o, scale, pts
        # per edge a->b: a, b - a and a x b, the numerator of every hit parameter
        self.edges = [(ax, ay, bx - ax, by - ay, ax * by - ay * bx)
                      for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
        self.sides, self.convex, self.inside = (), True, False
        for i, (ax, ay, ex, ey, c) in enumerate(self.edges):
            if ax == 0 and ay == 0:
                px, py = pts[i - 1]
                self.sides = ((-px, -py), (ex, ey))
                self.convex = py * ex - px * ey > 0
                self.inside = True
                return
            if c == 0 and ax * (ax + ex) + ay * (ay + ey) < 0:
                self.sides, self.inside = ((ex, ey),), True
                return
            if (ay > 0) != (ay + ey > 0) and c * ey > 0:
                self.inside = not self.inside

    def directions(self) -> set[tuple[int, int]]:
        return {_primitive(x, y) for x, y in self.points if x or y}

    def first_hit(self, mx: int, my: int, beyond: int | None = None) -> int | None:
        """Edge nearest along the open ray o + t*(mx, my), t > 0, among those it crosses.

        With `beyond`, only crossings past edge `beyond` count. The ray must
        pass through no vertex, so every crossing is proper.
        """
        lo_n, lo_d = 0, 1
        if beyond is not None:
            _, _, ex, ey, lo_n = self.edges[beyond]
            lo_d = mx * ey - my * ex
            if lo_d < 0:
                lo_n, lo_d = -lo_n, -lo_d
        best, best_n, best_d = None, 0, 1
        for i, (ax, ay, ex, ey, tn) in enumerate(self.edges):
            den = mx * ey - my * ex
            if den == 0:
                continue
            sn = ax * my - ay * mx
            if den < 0:
                den, tn, sn = -den, -tn, -sn
            if tn * lo_d <= lo_n * den or sn < 0 or sn > den:
                continue
            if best is None or tn * best_d < best_n * den:
                best, best_n, best_d = i, tn, den
        return best

    def ray_point(self, d: tuple[int, int], i: int) -> Point:
        """Where the ray from o in direction d meets the line of edge i."""
        _, _, ex, ey, tn = self.edges[i]
        den = (d[0] * ey - d[1] * ex) * self.scale
        return Point(self.origin.x + Fraction(d[0] * tn, den), self.origin.y + Fraction(d[1] * tn, den))

    def arc(self, da: tuple[int, int], db: tuple[int, int]) -> tuple[Point, Point] | None:
        """Ends of the wedge from da counterclockwise to db on its nearest edge; None if dark."""
        cr = da[0] * db[1] - da[1] * db[0]
        if cr > 0:
            mx, my = da[0] + db[0], da[1] + db[1]
        elif cr < 0:
            # wedge spans more than a half turn; the sum points into the
            # complementary cone, so its negation is interior to the wedge
            mx, my = -da[0] - db[0], -da[1] - db[1]
        else:
            mx, my = -da[1], da[0]  # opposite directions: bisect with a quarter turn
        lit = (sx * my - sy * mx > 0 for sx, sy in self.sides)
        if not (all(lit) if self.convex else any(lit)):
            return None
        i = self.first_hit(mx, my)
        if i is None:
            return None
        return self.ray_point(da, i), self.ray_point(db, i)


@lru_cache(maxsize=256)
def visibility_polygon(P: SimplePolygon, q: Point) -> VisibilityPolygon:
    """All points of the closed polygon visible from q, as a star-shaped ring."""
    f = _Frame(P, q)
    if not f.inside:
        raise QueryOutsidePolygon(f"{q!r} is outside the polygon")
    dirs = sorted(f.directions(), key=cmp_to_key(_dir_cmp))
    ring: list[Point] = []
    for da, db in zip(dirs, dirs[1:] + dirs[:1]):
        for p in f.arc(da, db) or (q,):
            if not ring or ring[-1] != p:
                ring.append(p)
    if len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return VisibilityPolygon(SimplePolygon.unchecked(ring), q, P)


def _cone(f: _Frame, lo: tuple[int, int], hi: tuple[int, int]) -> list[SimplePolygon]:
    """The part of VP(origin) between directions lo and hi (< a half turn), one
    polygon per maximal run of lit sub-wedges."""
    inner = {d for d in f.directions()
             if lo[0] * d[1] - lo[1] * d[0] > 0 and d[0] * hi[1] - d[1] * hi[0] > 0}
    dirs = [lo, *sorted(inner, key=cmp_to_key(lambda a, b: b[0] * a[1] - b[1] * a[0])), hi]
    parts: list[SimplePolygon] = []
    ring = [f.origin]
    for da, db in zip(dirs, dirs[1:]):
        arc = f.arc(da, db)
        if arc is not None:
            ring += arc if arc[0] != ring[-1] else arc[1:]
        elif len(ring) > 1:
            parts.append(SimplePolygon.unchecked(ring))
            ring = [f.origin]
    if len(ring) > 1:
        parts.append(SimplePolygon.unchecked(ring))
    return parts


def weak_visibility_polygon(P: SimplePolygon, s: Segment) -> Region:
    """Closed region of points seeing at least one point of the segment.

    Composed of the endpoint visibility polygons plus the pivot cones of
    every reflex vertex over its visible subsegments of s; the union is a
    single simple polygon for well-behaved inputs.
    """
    if not sees(P, s.a, s.b):
        raise SegmentOutsidePolygon(f"{s!r} is not contained in the polygon")
    pieces = [
        Region.of(visibility_polygon(P, s.a).polygon),
        Region.of(visibility_polygon(P, s.b).polygon),
    ]
    for i in P.reflex_indices():
        v = P.vertices[i]
        if orientation(s.a, s.b, v) is Orientation.COLLINEAR:
            continue
        f = None
        for sigma in segment_parts_inside(s, [visibility_polygon(P, v).polygon]):
            d1 = v - sigma.a
            d2 = v - sigma.b
            sign = d1.cross(d2)
            if sign == 0:
                continue
            lo, hi = (d1, d2) if sign > 0 else (d2, d1)
            f = f or _Frame(P, v)
            parts = _cone(f, _primitive_direction(lo), _primitive_direction(hi))
            if parts:
                pieces.append(Region(parts))
    return region_union_all(pieces)
