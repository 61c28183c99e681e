"""Direct (reflection-free) visibility inside a simple polygon.

The visibility polygon is computed with one exact angular sweep: the
directions from the source to every vertex split the view circle into
wedges, each wedge has a single nearest edge, and the output ring is the
fan of wedge hits. The sweep works in integers: the polygon keeps one
copy of its ring scaled by its least common denominator, and a frame
translates it to the source, rescaled only when the source has a
denominator the scale lacks. The first-hit scan compares cross-multiplied
integer determinants, and each ring point is an integer ray cast. Frames are
built only here (`_frame`): a vertex's once per polygon, kept on it, and every
frame keeps the wedge answers it gave, so a reflex vertex answers each
sub-wedge once per polygon, not once per cascade.

A wedge is lit when its mid direction leaves the source into the
polygon. That is a constant-time test at the source: always from the
interior, left of the host edge from inside an edge, and inside the
interior angle from a vertex. The mid direction passes through no vertex,
so the open sight segment lies wholly inside or wholly outside.

Weak visibility from a segment s and a diffuse bounce from it (`reflect`)
are built from one construction, `_seeing`, which holds the argument for
it: the half-turn fan of s.a and the pivot cones of the reflex vertices
left of s's line, two short sweeps from each (`_pivot_cones`). A fan gives
the sweep its net boundary in integers, so a netted union of fans builds no
`Point`.

A visibility polygon keeps its integer ring, each edge labelled with the
host edge it lies on, or -1 along a sight ray: the lit parts of an edge
(none on a line through the source), the sides along sight rays and the
windows, from its edges grouped by label in one pass and kept, its area
and, as a fan's, its net boundary are read off it; its polygon is built
on first read. The last 256 results of
`visibility_polygon` and `_seeing` per polygon are kept on it
(`geom.memo_per_polygon`), so they die with it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import groupby
from math import gcd, lcm

from .errors import InvariantViolated, QueryOutsidePolygon, SegmentOutsidePolygon
from .geom import (
    Orientation,
    Point,
    Region,
    Segment,
    SimplePolygon,
    along,
    memo_per_polygon,
    orientation,
    region_union_all,
    subtract_intervals,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    source: Point
    # the vertices of the polygon it was computed in, shared with it: a
    # reference to the polygon itself would make every memoized VP a cycle
    host_vertices: tuple[Point, ...]
    # the ring, counterclockwise, as integer points (x, y, w) for (x/w, y/w), w > 0
    ring: tuple[tuple[int, int, int], ...]
    # per ring edge k (vertex k to k + 1): the host edge it lies on, -1 along a sight ray
    edge_hosts: tuple[int, ...]
    # the ring as a region: its net boundary and area from the integer ring, its one part built when read
    region: Region = field(compare=False, repr=False)

    @property
    def polygon(self) -> SimplePolygon:
        """The ring as a polygon, built on first read: the region's one part."""
        return self.region.parts[0]

    @property
    def area(self) -> Fraction:
        return self.region.area

    @cached_property
    def _by_host(self) -> dict[int, list[Segment]]:
        """The ring edges per host label (-1: along a sight ray), in ring order: one pass over the integer ring."""
        pts = [Point(Fraction(x, w), Fraction(y, w)) for x, y, w in self.ring]
        groups: dict[int, list[Segment]] = {}
        for k, h in enumerate(self.edge_hosts):
            groups.setdefault(h, []).append(Segment(pts[k], pts[(k + 1) % len(pts)]))
        return groups

    def edge_parts(self, e: int) -> list[Segment]:
        """Maximal lit parts of host edge e, in order along e; none if e is collinear with the source."""
        hv = self.host_vertices
        return sorted(self._by_host.get(e, ()), key=lambda s, t=along(hv[e], hv[(e + 1) % len(hv)]): t(s.a))

    @cached_property
    def ray_sides(self) -> tuple[Segment, ...]:
        """The ring edges along sight rays, host edges on their line inside them."""
        return tuple(self._by_host.get(-1, ()))

    @cached_property
    def windows(self) -> tuple[Segment, ...]:
        """Boundary pieces of the visibility polygon off the host boundary: the
        `ray_sides` (an arc lies on its host edge) less the host edges on their line."""
        wins: list[Segment] = []
        hv = self.host_vertices
        for ve in self.ray_sides:
            cut = [tuple(sorted((ve.param_of(a), ve.param_of(b)))) for a, b in zip(hv, hv[1:] + hv[:1])
                   if orientation(a, b, ve.a) is orientation(a, b, ve.b) is Orientation.COLLINEAR]
            wins += [Segment(ve.point_at(lo), ve.point_at(hi)) for lo, hi in subtract_intervals([(0, 1)], cut)]
        return tuple(wins)


def _primitive(x: int, y: int) -> tuple[int, int]:
    g = gcd(x, y)
    return (x // g, y // g)


class _Frame:
    """A polygon seen from an origin o, in integer coordinates.

    The polygon's integer ring (`SimplePolygon._int_ring`) is translated to
    o, rescaled first only when a denominator of o does not divide its
    scale, so rays from o are tested with integer determinants; `ox, oy`
    is o on that scale. Also records which directions leave o into the polygon:
    those strictly left of all of `sides` (`convex`) or of any of them;
    `inside` is False when o is outside the polygon. It keeps the answers of `first_hit`
    and `between` by their arguments: a frame kept on its polygon answers each once.
    """

    __slots__ = ("origin", "ox", "oy", "scale", "host", "dirs", "edges", "sides", "convex", "inside",
                 "_hits", "_between")

    def __init__(self, P: SimplePolygon, o: Point):
        self.origin = o
        self._hits, self._between = {}, {}
        self.host = P._int_ring()  # unscaled, for the lines of its edges
        (scale, pts), xd, yd = self.host, o.x.denominator, o.y.denominator
        m = lcm(scale, xd, yd) // scale
        if m > 1:
            scale, pts = scale * m, [(x * m, y * m) for x, y in pts]
        self.scale = scale
        ox, oy = self.ox, self.oy = o.x.numerator * (scale // xd), o.y.numerator * (scale // yd)
        pts = [(x - ox, y - oy) for x, y in pts]
        self.dirs = {_primitive(x, y) for x, y in pts if x or y}
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

    def local(self, p: Point) -> tuple[int, int, int]:
        """p in frame coordinates, (p - o) * scale, as integers (x, y, w) over w > 0."""
        xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
        return (xn * self.scale - self.ox * xd) * yd, (yn * self.scale - self.oy * yd) * xd, xd * yd

    def between(self, lo: tuple[int, int], hi: tuple[int, int]) -> list[tuple[int, int]]:
        """Vertex directions strictly between lo and hi (at most a half turn), counterclockwise."""
        if (lo, hi) not in self._between:
            inner = {d for d in self.dirs
                     if lo[0] * d[1] - lo[1] * d[0] > 0 and d[0] * hi[1] - d[1] * hi[0] > 0}
            self._between[lo, hi] = sorted(inner, key=cmp_to_key(lambda a, b: b[0] * a[1] - b[1] * a[0]))
        return self._between[lo, hi]

    def hit(self, mx: int, my: int) -> int | None:
        """Nearest edge along the ray in direction (mx, my); None if the ray leaves o outward."""
        lit = (sx * my - sy * mx > 0 for sx, sy in self.sides)
        if not (all(lit) if self.convex else any(lit)):
            return None
        return self.first_hit(mx, my)

    def first_hit(self, mx: int, my: int, beyond: int | None = None) -> int | None:
        """Edge nearest along the open ray o + t*(mx, my), t > 0, among those it crosses.

        With `beyond`, only crossings past edge `beyond` count. The ray must
        pass through no vertex, so every crossing is proper.
        """
        key = (mx, my, beyond)
        if key in self._hits:
            return self._hits[key]
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
        self._hits[key] = best
        return best

    def ray_at(self, d: tuple[int, int], i: int) -> tuple[int, int, int]:
        """Where the ray from o in direction d meets the line of edge i, as integers
        (x, y, w) for the point (x/w, y/w), w > 0; o itself is (ox, oy, scale)."""
        _, _, ex, ey, tn = self.edges[i]
        den = d[0] * ey - d[1] * ex
        if den < 0:
            den, tn = -den, -tn
        return self.ox * den + d[0] * tn, self.oy * den + d[1] * tn, den * self.scale

    def line(self, i: int) -> tuple[int, int, int]:
        """The line A*x + B*y = C of edge i, from the polygon's integer ring."""
        s, pts = self.host
        (px, py), (qx, qy) = pts[i], pts[(i + 1) % len(pts)]
        return (py - qy) * s, (qx - px) * s, py * qx - px * qy

    def ray_line(self, d: tuple[int, int]) -> tuple[int, int, int]:
        """The line A*x + B*y = C of the rays from o in directions d and -d, the same for both."""
        d = d if d > (0, 0) else (-d[0], -d[1])
        return d[1] * self.scale, -d[0] * self.scale, d[1] * self.ox - d[0] * self.oy

    def arc(self, da: tuple[int, int], db: tuple[int, int], beyond: int | None = None) -> int | None:
        """Nearest edge of the wedge from da counterclockwise to db; None if dark. With
        `beyond`, the nearest past that edge, lit or not (`first_hit`)."""
        cr = da[0] * db[1] - da[1] * db[0]
        if cr > 0:
            mx, my = da[0] + db[0], da[1] + db[1]
        elif cr < 0:
            # wedge spans more than a half turn; the sum points into the
            # complementary cone, so its negation is interior to the wedge
            mx, my = -da[0] - db[0], -da[1] - db[1]
        else:
            mx, my = -da[1], da[0]  # opposite directions: bisect with a quarter turn
        return self.hit(mx, my) if beyond is None else self.first_hit(mx, my, beyond)


def _frame(P: SimplePolygon, o: Point | int) -> _Frame:
    """The frame of P from o, a point or a vertex index: a vertex's is built on first use and
    kept on P by vertex index (`SimplePolygon._frames`), with its answers; another point's anew."""
    if isinstance(o, Point):
        scale, pts = P._int_ring()
        xd, yd = o.x.denominator, o.y.denominator
        at = None if scale % xd or scale % yd else (o.x.numerator * (scale // xd), o.y.numerator * (scale // yd))
        if at not in pts:
            return _Frame(P, o)
        o = pts.index(at)
    frames = P._frames = P._frames or {}
    if o not in frames:
        frames[o] = _Frame(P, P.vertices[o])
    return frames[o]


def _same(p: tuple[int, int, int], q: tuple[int, int, int]) -> bool:
    """Whether two points (x, y, w) of `_Frame.ray_at` are one."""
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def _det3(p: tuple[int, int, int], q: tuple[int, int, int], r: tuple[int, int, int]) -> int:
    """The determinant of three points (x, y, w) as rows: zero when they are collinear."""
    return p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0]) + p[2] * (q[0] * r[1] - q[1] * r[0])


@memo_per_polygon
def visibility_polygon(P: SimplePolygon, q: Point) -> VisibilityPolygon:
    """All points of the closed polygon visible from q, as a star-shaped ring."""
    f = _frame(P, q)
    if not f.inside:
        raise QueryOutsidePolygon(f"{q!r} is outside the polygon")
    # the vertex directions counterclockwise from (1, 0), a half turn at a time
    dirs = [d for half in ([(1, 0)], f.between((1, 0), (-1, 0)), [(-1, 0)], f.between((-1, 0), (1, 0)))
            for d in half if d in f.dirs]
    o = (f.ox, f.oy, f.scale)
    ring: list[tuple[int, int, int]] = []  # as `_Frame.ray_at` gives them
    into: list[int] = []  # host edge of the ring edge ending at ring[k]
    lines: list[tuple[int, int, int]] = []  # and its line, as `_fan` takes it
    for da, db in zip(dirs, dirs[1:] + dirs[:1]):
        i = f.arc(da, db)
        # the edge to an arc's first point, or to q, runs along the ray da
        for p, h in ((f.ray_at(da, i), -1), (f.ray_at(db, i), i)) if i is not None else ((o, -1),):
            if not ring or not _same(ring[-1], p):
                ring.append(p)
                into.append(h)
                lines.append(f.line(h) if h >= 0 else f.ray_line(da))
    if len(ring) > 1 and _same(ring[0], ring[-1]):
        ring.pop()
        into[0], lines[0] = into.pop(), lines.pop()
    # a point between two arcs on one host edge, or q inside an edge, is no vertex:
    # no arc lies on a line through q, and no two host edges on a line meet
    n = len(ring)
    keep = [k for k in range(n) if not (into[k] == into[(k + 1) % n] >= 0 or (ring[k] is o and len(f.sides) == 1))]
    pts = tuple(ring[k] for k in keep)
    if any(_det3(pts[k - 1], p, pts[(k + 1) % len(pts)]) == 0 for k, p in enumerate(pts)):
        raise InvariantViolated(f"the visibility ring from {q!r} has a straight vertex left")
    # the side from a kept point to the next lies on the line of the ring edge out of it
    sides = [(lines[(k + 1) % n], ring[k], ring[m]) for k, m in zip(keep, keep[1:] + keep[:1])]
    return VisibilityPolygon(q, P.vertices, pts, tuple(into[(k + 1) % n] for k in keep),
                             Region._from_rings([pts], sides))


def _lit(f: _Frame, lo: tuple[int, int], hi: tuple[int, int], beyond: int | None = None) -> list[list[tuple]]:
    """The maximal runs of lit sub-wedges (da, db, nearest edge) from direction lo
    counterclockwise to hi, at most a half turn; with `beyond`, the nearest edge past
    that edge, lit or not (`_Frame.arc`)."""
    dirs = [lo, *f.between(lo, hi), hi]
    wedges = [(da, db, f.arc(da, db, beyond)) for da, db in zip(dirs, dirs[1:])]
    return [list(run) for lit, run in groupby(wedges, key=lambda w: w[2] is not None) if lit]


def _fan(f: _Frame, runs: list[list[tuple]], near: int | None = None) -> Region:
    """The region seen from the frame's origin across runs of lit sub-wedges, a ring
    each, with its net boundary in integers (`Region._from_rings`): an arc lies on its
    edge's line, a side along a sight ray on the ray's line. Arcs on one edge join,
    and so do the opposite rays of a half-turn fan at its origin. With edge `near`, a
    ring is cut off by that edge's line, from the run's last ray to its first, not at o."""
    o = (f.ox, f.oy, f.scale)
    rings, sides = [], []  # a side is [line, from, to]
    for run in runs:
        # lines[k]: the line from ring[k] to the next point
        ring, lines = ([o], []) if near is None else \
            ([f.ray_at(run[-1][1], near), f.ray_at(run[0][0], near)], [f.line(near)])
        for da, db, i in run:
            for p, line in ((f.ray_at(da, i), f.ray_line(da)), (f.ray_at(db, i), f.line(i))):
                if not _same(p, ring[-1]):
                    ring.append(p)
                    lines.append(line)
        lines.append(f.ray_line(run[-1][1]))
        rings.append(ring)
        for k, line in enumerate(lines):
            if k and line == lines[k - 1]:
                sides[-1][2] = ring[(k + 1) % len(ring)]
            else:
                sides.append([line, ring[k], ring[(k + 1) % len(ring)]])
    if len(sides) > 1 and sides[0][0] == sides[-1][0]:
        sides[0][1] = sides.pop()[1]
    return Region._from_rings(rings, sides)


def _pivot_cones(f: _Frame, a: Point, b: Point) -> Region:
    """Sight lines from the segment ab through the frame's origin, a reflex
    vertex v off ab's line, that v bounds toward a, continued past v: a `_fan`
    beyond v over each run of sub-wedges toward ab that are lit at v, hit no
    edge before ab's line and are not wholly with v's exterior on b's side."""
    (xa, ya, wa), (xb, yb, wb) = f.local(a), f.local(b)
    lo, hi = _primitive(xa, ya), _primitive(xb, yb)
    side = -1  # a is right of every direction toward ab
    if lo[0] * hi[1] - lo[1] * hi[0] < 0:
        lo, hi, side = hi, lo, 1
    walls = ((-f.sides[0][0], -f.sides[0][1]), f.sides[1])  # toward v's neighbours
    # in frame coordinates the line of ab is (dx, dy) x p = cn / cd
    dx, dy = _primitive(xb * wa - xa * wb, yb * wa - ya * wb)
    cn, cd = dx * ya - dy * xa, wa
    dirs = [lo, *f.between(lo, hi), hi]
    runs: list[list[tuple[int, int]]] = []  # first and last direction of each run
    for da, db in zip(dirs, dirs[1:]):
        if not any(side * (d[0] * wy - d[1] * wx) >= 0 for d in (da, db) for wx, wy in walls):
            continue
        mx, my = da[0] + db[0], da[1] + db[1]
        i = f.hit(mx, my)
        if i is None:
            continue
        _, _, ex, ey, tn = f.edges[i]
        den = mx * ey - my * ex  # the edge is hit at t = tn / den
        ln = cd * (dx * my - dy * mx)  # the line of ab at t = cn / ln
        if (tn * ln - cn * den) * den * ln < 0:
            continue
        if runs and runs[-1][1] == da:
            runs[-1][1] = db
        else:
            runs.append([da, db])
    return _fan(f, [lit for r0, r1 in runs for lit in _lit(f, (-r0[0], -r0[1]), (-r1[0], -r1[1]))])


@memo_per_polygon
def _seeing(P: SimplePolygon, s: Segment) -> tuple[Region, ...]:
    """Fans whose union is the set of points strictly left of s's line that see
    a positive length of s, for s in P with no vertex strictly inside it, kept on
    P. Such a point sees an interval of s, P having no holes, whose end toward
    s.a is s.a, and the first fan, the lit run of the half-turn fan of s.a from
    s's direction on, holds the point (a later run lies past an edge at s.a,
    which hides s near s.a from it), or is cut off by a reflex vertex strictly
    between the point and the line, whose pivot cones toward s.a hold it."""
    f = _frame(P, s.a)
    dx, dy = d = _primitive(*f.local(s.b)[:2])
    fan = _fan(f, [run for run in _lit(f, d, (-dx, -dy))[:1] if run[0][0] == d])
    return (fan, *(_pivot_cones(_frame(P, i), s.a, s.b) for i in P.reflex_indices()
                   if dx * f.edges[i][1] > dy * f.edges[i][0]))


def weak_visibility_polygon(P: SimplePolygon, s: Segment) -> Region:
    """Closed region of points seeing at least one point of the segment.

    The points off s's line that see a positive length of it, from each side
    (`_seeing` of s and of s reversed, but the first fan, seen from an
    endpoint), with the visibility polygons of the endpoints, which hold the
    first fans and the points on the line, and of the reflex vertices strictly
    inside s, which bound views of s that no fan reaches.

    Raises `SegmentOutsidePolygon` when s.a is outside the polygon, or when
    s.b is not in the closed visibility polygon of s.a, the first piece.
    """
    try:
        first = visibility_polygon(P, s.a).region
    except QueryOutsidePolygon:
        first = Region.empty()
    if not first.covers(s.b):
        raise SegmentOutsidePolygon(f"{s!r} is not contained in the polygon")
    inside = [visibility_polygon(P, v).region for v in (P.vertices[i] for i in P.reflex_indices())
              if v not in (s.a, s.b) and s.contains_point(v)]
    return region_union_all([first, visibility_polygon(P, s.b).region, *inside,
                             *_seeing(P, s)[1:], *_seeing(P, Segment(s.b, s.a))[1:]])
