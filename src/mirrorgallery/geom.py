"""Exact rational planar kernel.

Everything downstream (visibility, reflection, guarding, reduction
generators) is built on the primitives here: orientation and intersection
predicates over arbitrary-precision rationals, point location, exact areas,
and a slab-sweep overlay that implements boolean operations on regions.
A region enters the sweep as its net boundary with signed multiplicities,
as integer edges, and a winding count gives how many of its parts cover
a point. The sweep crosses and orders edges and slab boundaries on
integers and returns runs: a slab and the two edges bounding a cell,
whose exact area is read off integer heights at the slab's midline. A
swept region holds its runs and area, and a region given by integer
rings (a fan of `visibility`) its net boundary; either builds its
polygons only when its parts are read. A difference or intersection
sweeps only the edges that meet the x-range where a kept cell can lie,
and the pieces of a polygon edge that regions inside the polygon reach
are read off their boundaries (`sides_along`). The coverage classes
sweep one layer: layer i weighs 2**i and collinear sides of all layers
net before the sweep, so the winding count is the bitmask of the layers
covering a point, exact as each layer counts a point at most once (a
boolean's stacked input is never a layer of `classes`). The net boundary
is the only boundary read: it leaves out vertical sides, but a boundary
is closed, so the sides at an x are rebuilt from the edges ending there
(`_verticals`), for a vertical edge and for the loops `merge_region`
traces. No floating point is used anywhere; all results are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, wraps
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import GeometryError, InvariantViolated

MEMO_SIZE = 256  # results kept per polygon by `memo_per_polygon`


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise GeometryError(f"refusing to build an exact rational from float {value!r}")
    return Fraction(value)


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


class PointLocation(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", rational(self.x))
        object.__setattr__(self, "y", rational(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, s) -> "Point":
        s = rational(s)
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Sign of the exact determinant of (q-p, r-p)."""
    d = (q - p).cross(r - p)
    if d > 0:
        return Orientation.CCW
    if d < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise GeometryError(f"degenerate segment at {self.a}")

    @property
    def direction(self) -> Point:
        return self.b - self.a

    def point_at(self, t) -> Point:
        return self.a + self.direction * rational(t)

    def param_of(self, p: Point) -> Fraction:
        """Parameter of p along a->b; meaningful when p is on the supporting line."""
        d = self.direction
        return (p - self.a).dot(d) / d.dot(d)

    def contains_point(self, p: Point) -> bool:
        if orientation(self.a, self.b, p) is not Orientation.COLLINEAR:
            return False
        t = self.param_of(p)
        return 0 <= t <= 1

    def __repr__(self):
        return f"Segment({self.a!r}, {self.b!r})"


def segment_intersection(s1: Segment, s2: Segment):
    """Exact intersection classification.

    Returns None when disjoint, a Point for a single common point, and a
    Segment for a collinear overlap of positive length.
    """
    d1 = s1.direction
    d2 = s2.direction
    denom = d1.cross(d2)
    w = s2.a - s1.a
    if denom != 0:
        t = w.cross(d2) / denom
        u = w.cross(d1) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            return s1.point_at(t)
        return None
    # Parallel.
    if d1.cross(w) != 0:
        return None
    # Collinear: intersect parameter ranges along s1.
    ta = s1.param_of(s2.a)
    tb = s1.param_of(s2.b)
    lo, hi = (ta, tb) if ta <= tb else (tb, ta)
    lo = max(lo, Fraction(0))
    hi = min(hi, Fraction(1))
    if lo > hi:
        return None
    if lo == hi:
        return s1.point_at(lo)
    return Segment(s1.point_at(lo), s1.point_at(hi))


def _integer_ring(points: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    """The least common denominator of the points' coordinates, and the points scaled by it."""
    scale = lcm(*(c.denominator for p in points for c in (p.x, p.y)))
    return scale, [(p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
                   for p in points]


def _turn(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _shoelace2(scale: int, pts: list[tuple[int, int]]) -> Fraction:
    """Twice the signed area of a ring given as `_integer_ring` returns it."""
    return Fraction(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])),
                    scale * scale)


def _ring_area(ring: list[tuple[int, int, int]]) -> Fraction:
    """The signed area of a ring of points (x, y, w), for (x/w, y/w), scaled to the lcm of the w."""
    L = lcm(*(w for _, _, w in ring))
    return _shoelace2(L, [(x * (L // w), y * (L // w)) for x, y, w in ring]) / 2


class SimplePolygon:
    """Counterclockwise simple polygon over exact rationals.

    Construction drops repeated and collinear-through vertices, requires a
    positive signed area and checks simplicity, all on an integer copy of the ring.
    """

    __slots__ = ("vertices", "_area", "_bbox", "_hash", "_memo", "_ring", "_reflex", "_frames")

    def __init__(self, vertices: Iterable, *, _skip_simplicity_check: bool = False):
        verts = [v if isinstance(v, Point) else Point(*v) for v in vertices]
        scale, pts = _integer_ring(verts)
        verts, pts = _normalize_ring(verts, pts)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least three non-collinear vertices")
        area2 = _shoelace2(scale, pts)
        if area2 <= 0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        self.vertices = tuple(verts)
        self._area = area2 / 2
        self._bbox = self._hash = self._memo = self._ring = self._reflex = self._frames = None
        if not _skip_simplicity_check:
            self._check_simple(pts)

    @classmethod
    def unchecked(cls, vertices: Iterable) -> "SimplePolygon":
        """Built without the simplicity check: the caller guarantees a simple ring, or checks it
        itself (the reduction generators leave it to `redgen.verify_instance`'s `simple` clause)."""
        return cls(vertices, _skip_simplicity_check=True)

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...], area: Fraction) -> "SimplePolygon":
        """A ring the caller built normalized, counterclockwise and simple, with its area."""
        if area <= 0:
            raise InvariantViolated(f"trusted ring {vertices!r} has area {area}")
        self = object.__new__(cls)
        self.vertices = vertices
        self._area = area
        self._bbox = self._hash = self._memo = self._ring = self._reflex = self._frames = None
        return self

    def _check_simple(self, pts: list[tuple[int, int]]):
        # integer bounding boxes and orientation signs pass on only the edge pairs
        # that meet other than at a shared vertex; segment_intersection names where
        n = len(pts)
        edges = list(zip(pts, pts[1:] + pts[:1]))
        boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])) for a, b in edges]
        for i, (a, b) in enumerate(edges):
            x0, x1, y0, y1 = boxes[i]
            for j in range(i + 1, n):
                u0, u1, v0, v1 = boxes[j]
                if u0 > x1 or u1 < x0 or v0 > y1 or v1 < y0:
                    continue
                c, d = edges[j]
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                s, t = _turn(a, b, c), _turn(a, b, d)
                if s * t > 0 or (adjacent and (s or t)) or _turn(c, d, a) * _turn(c, d, b) > 0:
                    continue
                inter = segment_intersection(self.edge(i), self.edge(j))
                raise GeometryError(
                    f"polygon boundary is not simple: edges {i} and {j} meet at {inter!r}"
                )

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> Fraction:
        return self._area

    @property
    def bbox(self):
        if self._bbox is None:
            xs = [v.x for v in self.vertices]
            ys = [v.y for v in self.vertices]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        return self._bbox

    def edge(self, i: int) -> Segment:
        return Segment(self.vertices[i], self.vertices[(i + 1) % self.n])

    def edges(self) -> list[Segment]:
        return [self.edge(i) for i in range(self.n)]

    def _int_ring(self) -> tuple[int, list[tuple[int, int]]]:
        """The ring scaled by the least common denominator of its coordinates, as
        `_integer_ring` returns it: computed on first use and kept."""
        if self._ring is None:
            self._ring = _integer_ring(self.vertices)
        return self._ring

    def reflex_indices(self) -> tuple[int, ...]:
        """The vertices turning clockwise, found once, on the integer ring."""
        if self._reflex is None:
            pts = self._int_ring()[1]
            self._reflex = tuple(i for i in range(self.n) if _turn(pts[i - 1], pts[i], pts[(i + 1) % self.n]) < 0)
        return self._reflex

    def contains(self, p: Point) -> PointLocation:
        """Where p lies in the closed polygon, read off its ring's edges (`_locate`, `_outline`)."""
        return _locate(_outline(self), p)

    def __eq__(self, other):
        return isinstance(other, SimplePolygon) and self.vertices == other.vertices

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.vertices)
        return self._hash

    def __repr__(self):
        return f"SimplePolygon({list(self.vertices)!r})"


def _normalize_ring(verts: list[Point], pts: list[tuple[int, int]]) -> tuple[list[Point], list]:
    """Drop repeated and collinear run-through vertices of verts, tested on its integer copy pts."""
    keep = [k for k in range(len(pts)) if k == 0 or pts[k] != pts[k - 1]]
    if len(keep) > 1 and pts[keep[0]] == pts[keep[-1]]:
        keep.pop()
    i = 0
    while len(keep) >= 3 and i < len(keep):
        if _turn(pts[keep[i - 1]], pts[keep[i]], pts[keep[(i + 1) % len(keep)]]):
            i += 1
            continue
        del keep[i]
        # the first collinear vertex goes first: resume at its predecessor, or
        # at 0 when it was the last vertex, the predecessor of vertex 0
        i = i - 1 if 0 < i < len(keep) else 0
    return [verts[k] for k in keep], [pts[k] for k in keep]


def memo_per_polygon(fn):
    """Keep the results of fn(P, *args) on P, the last MEMO_SIZE per polygon, so they die with it."""

    @wraps(fn)
    def memoized(P: SimplePolygon, *args):
        if P._memo is None:
            P._memo = {}
        key = (fn, *args)
        value = P._memo.get(key, memoized)  # one hash of the key; no result is the wrapper itself
        if value is memoized:
            value = fn(P, *args)  # may add entries of its own
            if len(P._memo) >= MEMO_SIZE:
                del P._memo[next(iter(P._memo))]
            P._memo[key] = value
        return value

    return memoized


@memo_per_polygon
def _outline(P: SimplePolygon) -> list[tuple]:
    """P's ring as integer net boundary edges (`Region._net_boundary`), kept on P."""
    return Region.of(P)._net_boundary()


# ---------------------------------------------------------------------------
# Regions: finite unions of simple polygons with pairwise disjoint interiors.
# ---------------------------------------------------------------------------


class Region:
    """A finite set of simple polygons whose interiors are pairwise disjoint.

    The area of a region is the exact sum of part areas. A region built by
    a boolean holds the sweep's runs and their exact area; its parts, the
    convex trapezoid cells of the runs, are built when first read, by
    output. A later sweep and a point query read the region's net boundary,
    kept on it, which a swept region joins from its runs' edges and a fan
    is given, with no polygon.
    `merge_region` traces that boundary into maximal polygons only where
    merged rings are wanted: SVG output and the coordinate bit cap. A region
    counts a point once per part covering it, never negatively; only in
    a boolean's input, such as a depth's stacked fans, do parts overlap.
    """

    __slots__ = ("_parts", "_runs", "_rings", "_area", "_boundary")

    def __init__(self, parts: Iterable[SimplePolygon] = ()):
        self._parts = tuple(parts)  # or, until first read, a function that builds them
        self._runs = self._rings = self._area = self._boundary = None

    @classmethod
    def _deferred(cls, cells: Callable[[], tuple], area: Fraction | None = None, runs=None, boundary=None) -> "Region":
        """A nonempty region whose parts `cells()` builds on first read, with its area, the
        slab boundaries and runs of the sweep that made it, and its net boundary, if known."""
        region = cls()
        region._parts, region._area, region._runs, region._boundary = cells, area, runs, boundary
        return region

    @classmethod
    def _from_rings(cls, rings: list[list[tuple[int, int, int]]], sides: list) -> "Region":
        """The region of counterclockwise rings of points (x, y, w), for (x/w, y/w),
        w > 0, and of its net boundary: sides (line, u, v) from point u to point v on
        the line (A, B, C) of A*x + B*y = C, collinear touching ones joined, vertical
        ones dropped. The area is read off the rings, and their parts are built from
        them, when first read."""
        region = cls()
        if rings:
            region._rings = rings
            region._parts = lambda: tuple(SimplePolygon.unchecked([Point(Fraction(x, w), Fraction(y, w))
                                                                   for x, y, w in ring]) for ring in rings)
        region._boundary = [e for line, u, v in sides if (e := _edge(line, (u[0], u[2]), (v[0], v[2]), 1))]
        return region

    @property
    def parts(self) -> tuple[SimplePolygon, ...]:
        if not isinstance(self._parts, tuple):
            self._parts = self._parts()
        return self._parts

    def __iter__(self):
        # the parts: Region(region) is a region of the same parts, built
        return iter(self.parts)

    @property
    def _query_parts(self) -> tuple[SimplePolygon, ...]:
        # Read-only alias of `parts`, only for bench/layertrace.py, which still
        # reads it; it goes with the next change to the benchmark.
        return self.parts

    @classmethod
    def empty(cls) -> "Region":
        return cls(())

    @classmethod
    def of(cls, polygon: SimplePolygon) -> "Region":
        return cls((polygon,))

    @property
    def is_empty(self) -> bool:
        return not self._parts

    @property
    def area(self) -> Fraction:
        if self._area is None:
            self._area = sum((_ring_area(r) for r in self._rings) if self._rings is not None else
                             (p.area for p in self.parts), Fraction(0))
        return self._area

    def contains(self, p: Point) -> PointLocation:
        """INTERIOR if the region covers a neighbourhood of p, EXTERIOR if its closure misses
        p, else BOUNDARY: read off the net boundary (`_locate`), however the cells were cut."""
        return _locate(self._net_boundary(), p)

    def covers(self, p: Point) -> bool:
        return self.contains(p) is not PointLocation.EXTERIOR

    def _net_boundary(self) -> list[tuple]:
        # the non-vertical net boundary that `_sweep` reads, as integer edges (`_edge`); a
        # part's edges come from its integer ring, side (a, b) / s on the line s*(ay - by)*x
        # + s*(bx - ax)*y = ay*bx - ax*by, and a single part is its own ring
        if self._boundary is None:
            if self._runs is not None:
                self._boundary = _runs_boundary(*self._runs)
            else:
                edges = [e for s, pts in (part._int_ring() for part in self.parts)
                         for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])
                         if (e := _edge((s * (ay - by), s * (bx - ax), ay * bx - ax * by), (ax, s), (bx, s), 1))]
                self._boundary = edges if len(self.parts) == 1 else _netted(edges)
        return self._boundary

    def max_coordinate_bits(self) -> int:
        return max((c.bit_length() for part in self.parts for v in part.vertices for f in (v.x, v.y)
                    for c in (f.numerator, f.denominator)), default=0)

    def _bits_bound(self) -> int:
        """An upper bound on `max_coordinate_bits()`, with no part built: a fan's is the
        largest integer of its rings; a swept region's cell corner (x, (C*xd - A*xn) /
        (B*xd)) is bounded from the largest slab end x = xn/xd and line coefficients of
        its runs, as bits(C*xd - A*xn) <= max(bits(C) + bits(xd), bits(A) + bits(xn)) + 1."""
        if self._rings is not None:
            return max(c.bit_length() for ring in self._rings for p in ring for c in p)
        if self._runs is None:
            return self.max_coordinate_bits()
        xs, runs = self._runs
        ends = [xs[j] for k in {k for k, _, _ in runs} for j in (k, k + 1)]
        edges = {s for _, bottom, top in runs for s in (bottom, top)}
        xn, xd = (max(x[i].bit_length() for x in ends) for i in (0, 1))
        A, B, C = (max(getattr(s, f).bit_length() for s in edges) for f in "ABC")
        return max(xn, max(C + xd, A + xn) + 1, B + xd)

    def __repr__(self):
        return f"Region({len(self.parts)} parts, area={self.area})"


# ---------------------------------------------------------------------------
# Slab overlay sweep.
# ---------------------------------------------------------------------------


def _int_line(a: Point, b: Point) -> tuple[int, int, int]:
    """Integer (A, B, C) with A*x + B*y = C through a and b.

    The cross product of the points' homogeneous integer forms
    (x*qx*qy, y*qx*qy, qx*qy): no Fraction is built and no gcd is taken.
    B > 0 when a is left of b.
    """
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    xa, ya = ax.numerator * ay.denominator, ay.numerator * ax.denominator
    xb, yb = bx.numerator * by.denominator, by.numerator * bx.denominator
    wa, wb = ax.denominator * ay.denominator, bx.denominator * by.denominator
    return ya * wb - wa * yb, wa * xb - xa * wb, ya * xb - xa * yb


def _edge(line: tuple[int, int, int], u: tuple[int, int], v: tuple[int, int], w: int) -> tuple | None:
    """The net boundary edge that `_sweep` reads of a side of weight w on the line
    A*x + B*y = C from x = u[0]/u[1] to x = v[0]/v[1] (positive denominators): the
    integers (A, B, C, x0n, x0d, x1n, x1d, w) with B > 0 and x0 < x1 reduced, w negated
    for a leftward side; None for a vertical side."""
    (A, B, C), (un, ud), (vn, vd) = line, u, v
    if un * vd == vn * ud:
        return None
    if un * vd > vn * ud:
        un, ud, vn, vd, w = vn, vd, un, ud, -w
    g, h, sign = gcd(un, ud), gcd(vn, vd), 1 if B > 0 else -1
    return sign * A, sign * B, sign * C, un // g, ud // g, vn // h, vd // h, w


def _locate(edges: Iterable[tuple], p: Point) -> PointLocation:
    """Where p lies in the region of a net boundary of integer edges (`_edge`). The
    winding count below p just left and just right of p.x, stepped up past the edges
    through p, by decreasing slope on the left and by increasing slope on the right,
    gives the count of each sector around p: INTERIOR if all are positive, EXTERIOR if
    all are zero, else BOUNDARY. A vertical side through p parts the two sides' counts."""
    xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
    below, through = [0, 0], ([], [])  # left of p.x, right of p.x
    for A, B, C, x0n, x0d, x1n, x1d, w in edges:
        start, end = x0n * xd - xn * x0d, x1n * xd - xn * x1d  # signs of x0 - p.x and x1 - p.x
        height = (C * xd - A * xn) * yd - B * yn * xd  # sign of the edge's y at p.x, less p.y
        if start > 0 or end < 0 or height > 0:
            continue
        for side in [k for k, on in ((0, start < 0), (1, end > 0)) if on]:
            if height:
                below[side] += w
            else:
                through[side].append((Fraction(-A, B), w))  # (slope, weight)
    counts = [c for side in (0, 1) for c in accumulate(
        (w for _, w in sorted(through[side], reverse=side == 0)), initial=below[side])]
    if min(counts) > 0:
        return PointLocation.INTERIOR
    return PointLocation.BOUNDARY if any(counts) else PointLocation.EXTERIOR


class _SweepSeg:
    """A net boundary edge (`_edge`) of a layer: its line A*x + B*y = C with B > 0,
    its weight w, its x-extent as numerator/denominator pairs and, once the slab
    boundaries are known, as their indices k0 and k1."""

    __slots__ = ("A", "B", "C", "x0n", "x0d", "x1n", "x1d", "w", "k0", "k1", "layer", "order")

    def __init__(self, edge: tuple, layer: int, order: int):
        self.A, self.B, self.C, self.x0n, self.x0d, self.x1n, self.x1d, self.w = edge
        self.layer, self.order = layer, order


def _order(xs) -> list[tuple[int, int]]:
    """Reduced fractions (n, d), d > 0, in increasing order, sorted on integers: two of
    them differ by at least 1/(d*d'), so floor(n * 2**k / d) orders them one-to-one
    once 2**k exceeds the square of the largest denominator."""
    k = 2 * max(d for _, d in xs).bit_length()
    return sorted(xs, key=lambda x: (x[0] << k) // x[1])


def overlay(layers: Sequence[Region], keep: Callable[[Sequence[int]], bool]) -> Region:
    """Partition the plane into slab cells and keep those selected by `keep`.

    `keep` receives, for each input layer, the number of that layer's parts
    covering the cell (the layer's winding count there); it must reject the
    all-zero vector.
    """
    return _sweep(layers, keep, bool).get(True, Region.empty())


def classes(layers: Sequence[Region]) -> dict[frozenset[int], Region]:
    """Group the plane by which layers cover it, in one sweep of one layer.

    Maps the set of indices of the layers covering a cell to the region of
    all cells with that set, in the order the sweep first meets each set.
    The classes are disjoint and every class boundary is a boundary of
    some layer, so a layer covers a class wholly or not at all. Each net
    boundary edge of layer i and weight w weighs w << i, and the edges of all
    layers are netted per line (`_netted`), so collinear sides of different
    layers join before the sweep, and the winding count at a point is the
    bitmask of the layers covering it. So each layer must count a point at
    most once, as a region of interior-disjoint parts does; a boolean's
    stacked input is never a layer, as a count of 2 would carry into the
    next layer's bit.
    """
    boundary = _netted((*e[:7], e[7] << i) for i, layer in enumerate(layers) for e in layer._net_boundary())
    members = cache(lambda mask: frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
    # a sweep input only: the bitmask layer's parts are never read
    return _sweep([Region._deferred(None, boundary=boundary)], lambda c: c[0] or None, members)


def _sweep(layers: Sequence[Region], key: Callable[[list[int]], object], group: Callable) -> dict:
    """Slab sweep over the layers' net boundaries: one region per group(value)
    of the kept cells, in the order the sweep first meets each group.

    Within a slab the elementary cells between consecutive edges get the
    value of `key` on their per-layer winding counts (the walk up the slab
    adds each edge's weight), which count the layer's parts covering the
    cell. Every maximal vertical run of cells with one truthy value is a run
    (slab index, bottom edge, top edge) of its group's region; runs with a
    falsy value, and runs between two edges of one line, are skipped. The
    run's trapezoid is built only when the region's parts are read: its area
    is the slab's width times the difference of the edges' integer row keys
    over their scale, summed per group as a reduced (numerator, denominator)
    pair, the form slab ends keep too: one Fraction is built per group.
    """
    nlayers = len(layers)
    segs: list[_SweepSeg] = []
    for li, region in enumerate(layers):
        for edge in region._net_boundary():
            segs.append(_SweepSeg(edge, li, len(segs)))
    if not segs:
        return {}
    # slab x values as reduced (numerator, denominator) pairs, ordered on integers (`_order`)
    ends = {(s.x0n, s.x0d) for s in segs} | {(s.x1n, s.x1d) for s in segs}
    index = {x: k for k, x in enumerate(_order(ends))}
    # Proper crossings strictly inside both x-extents add slab boundaries;
    # a crossing at an extent end is at a vertex's x, already a boundary.
    segs.sort(key=lambda s: index[s.x0n, s.x0d])
    crossings = set()
    for i, si in enumerate(segs):
        Ai, Bi, Ci, x1n, x1d = si.A, si.B, si.C, si.x1n, si.x1d
        for j in range(i + 1, len(segs)):
            sj = segs[j]
            if sj.x0n * x1d >= x1n * sj.x0d:
                break
            det = Ai * sj.B - sj.A * Bi
            if det == 0:
                continue
            xn = Ci * sj.B - sj.C * Bi
            if det < 0:
                det, xn = -det, -xn
            # sj starts no left of si, so x = xn/det must lie in (sj.x0, min(si.x1, sj.x1))
            if xn * sj.x0d > sj.x0n * det and xn * x1d < x1n * det and xn * sj.x1d < sj.x1n * det:
                g = gcd(xn, det)
                crossings.add((xn // g, det // g))
    if crossings - ends:
        index = {x: k for k, x in enumerate(_order(ends | crossings))}
    for s in segs:
        s.k0, s.k1 = index[s.x0n, s.x0d], index[s.x1n, s.x1d]
    xs = list(index)

    runs, areas = {}, {}
    active: list[_SweepSeg] = []
    pi = 0
    for k in range(len(xs) - 1):
        while pi < len(segs) and segs[pi].k0 <= k:
            active.append(segs[pi])
            pi += 1
        active = [s for s in active if s.k1 > k]
        if not active:
            continue
        xl, xr = xs[k], xs[k + 1]
        scale, rows = _rows(active, xl, xr)
        counts = [0] * nlayers
        last = len(rows) - 1
        heights: dict = {}
        run_key = None
        for idx, (h, _, seg) in enumerate(rows):
            counts[seg.layer] += seg.w
            value = key(counts) if idx < last else None
            if value != run_key:
                # two edges at one midline height lie on one line: no crossing is inside the slab
                if run_key and h != run_h:
                    g = group(run_key)
                    runs.setdefault(g, []).append((k, run_bottom, seg))
                    heights[g] = heights.get(g, 0) + h - run_h
                run_key, run_bottom, run_h = value, seg, h
        # a run's area is (xr - xl) * dh / scale, and xr - xl = (rn*ld - ln*rd) / (ld*rd)
        (ln, ld), (rn, rd) = xl, xr
        wn, wd = rn * ld - ln * rd, ld * rd * scale
        for g, dh in heights.items():
            an, ad = areas.get(g, (0, 1))
            an, ad = an * wd + wn * dh * ad, ad * wd
            c = gcd(an, ad)
            areas[g] = (an // c, ad // c)
    return {g: Region._deferred(lambda r=r: tuple(_trapezoid(xs[k], xs[k + 1], b, t) for k, b, t in r),
                                Fraction(*areas[g]), (xs, r)) for g, r in runs.items()}


def _rows(active: list[_SweepSeg], xl: tuple[int, int], xr: tuple[int, int]) -> tuple[int, list]:
    """The edges across the slab from xl to xr, (numerator, denominator) pairs, bottom to
    top, then in input order, as (row key, order, edge), and the scale L*q of the keys: the
    key is the height (C*q - A*p) / (B*q) at the midline x = p/q times L*q, L the lcm of the B."""
    (ln, ld), (rn, rd) = xl, xr
    p, q = ln * rd + rn * ld, 2 * ld * rd
    L = lcm(*(s.B for s in active))
    return L * q, sorted(((s.C * q - s.A * p) * (L // s.B), s.order, s) for s in active)


def _trapezoid(xl: tuple[int, int], xr: tuple[int, int], bottom: _SweepSeg, top: _SweepSeg) -> SimplePolygon:
    """The cell between two edges of distinct lines over the slab from xl to xr, pairs (n, d).

    The edges do not cross inside the slab and `top` is above `bottom`, so the
    ring is counterclockwise; a side of zero height leaves a triangle, as
    `_normalize_ring` would.
    """
    (ln, ld), (rn, rd) = xl, xr
    xl, xr = Fraction(ln, ld), Fraction(rn, rd)
    ybl = Fraction(bottom.C * ld - bottom.A * ln, bottom.B * ld)
    ybr = Fraction(bottom.C * rd - bottom.A * rn, bottom.B * rd)
    ytl = Fraction(top.C * ld - top.A * ln, top.B * ld)
    ytr = Fraction(top.C * rd - top.A * rn, top.B * rd)
    left, right = ytl != ybl, ytr != ybr
    ring = (Point(xl, ybl), Point(xr, ybr))
    if right:
        ring += (Point(xr, ytr),)
    if left:
        ring += (Point(xl, ytl),)
    return SimplePolygon._trusted(ring, (xr - xl) * (ytl - ybl + ytr - ybr) / 2)


# ---------------------------------------------------------------------------
# Net boundaries, and the boundary merge of cell soup into maximal polygons.
# ---------------------------------------------------------------------------


def _runs_boundary(xs: list[tuple[int, int]], runs: list) -> list[tuple]:
    """The net boundary of the runs' cells, as integer edges (`_edge`), without the
    cells: each run adds +1 over its slab k on its bottom edge's line and -1 on its
    top edge's, and `_joined` nets them per line."""
    pieces = ((s.A, s.B, s.C, k, k + 1, w) for k, bottom, top in runs for s, w in ((bottom, 1), (top, -1)))
    return [(*key, *xs[s], *xs[t], w) for key, s, t, w in _joined(pieces)]


def _netted(edges: Iterable[tuple]) -> list[tuple]:
    """Integer edges (`_edge`) netted per line: opposite ones cancel, touching ones join."""
    pieces = ((*e[:3], e[3:5], e[5:7], e[7]) for e in edges)
    return [(*key, *s, *t, w) for key, s, t, w in _joined(pieces, _order)]


def _joined(pieces: Iterable[tuple], order: Callable = sorted) -> list[tuple]:
    """The maximal runs (key, s, t, w) of constant nonzero weight w on each line of the
    pieces (A, B, C, s, t, w), weight w over [s, t] on A*x + B*y = C, the line keyed by
    its coefficients over their gcd, and the parameters ordered by `order`."""
    lines: dict[tuple[int, int, int], dict] = {}
    for A, B, C, s, t, w in pieces:
        g = gcd(A, B, C)  # every line has B > 0, so its key is sign-canonical
        events = lines.setdefault((A // g, B // g, C // g), {})
        events[s] = events.get(s, 0) + w
        events[t] = events.get(t, 0) - w
    runs = []
    for key, events in lines.items():
        net = 0
        for t in order(events):
            if events[t]:
                if net:
                    runs.append((key, start, t, net))
                net += events[t]
                start = t
    return runs


def _verticals(edges: Iterable[tuple], x: tuple[int, int]) -> list[tuple[Fraction, Fraction, int]]:
    """The vertical sides at x = (n, d), reduced, of the net boundary whose non-vertical
    edges (`_edge`) are given, as maximal runs (y0, y1, m), y0 < y1, m times upward
    (downward if m < 0): a boundary is closed, so at each point the vertical sides
    balance the edges ending there, each w times out of its left end and into its right."""
    n, d = x
    net: dict[Fraction, int] = {}
    for A, B, C, x0n, x0d, x1n, x1d, w in edges:
        for end, flow in (((x0n, x0d), w), ((x1n, x1d), -w)):
            if end == x:
                y = Fraction(C * d - A * n, B * d)
                net[y] = net.get(y, 0) + flow
    ys = sorted(y for y, flow in net.items() if flow)
    return [(y0, y1, -m) for y0, y1, m in zip(ys, ys[1:], accumulate(net[y] for y in ys)) if m]


def _stacked(regions: Sequence[Region], area: Fraction | None = None) -> Region:
    """The regions as one, of the given area if known: their net boundaries netted per
    line on integers, where opposite sides cancel, and their parts, built when first
    read. It counts a point once per part covering it; no input's area or part is read."""
    return Region._deferred(lambda: tuple(p for r in regions for p in r.parts), area,
                            boundary=_netted(e for r in regions for e in r._net_boundary()))


def region_join(regions: Sequence[Region]) -> Region:
    """The union of regions with pairwise disjoint interiors, not all empty, without a
    sweep: `_stacked` with the sum of their areas."""
    return _stacked(regions, sum((r.area for r in regions), Fraction(0)))


def merge_region(region: Region) -> Region:
    """Glue region parts into maximal simple polygons by tracing the loops of the
    region's net boundary: its non-vertical edges and the vertical sides at their
    ends (`_verticals`), so a swept region builds no cell.

    For output only (SVG rendering and the coordinate bit cap): queries and
    booleans read net boundaries, not polygons. Falls back to the input
    (still correct, just fragmented) whenever the union pinches to a
    point, produces a hole, or any consistency check fails.
    """
    if region._runs is None and len(region.parts) <= 1:  # counting a swept region's parts builds its cells
        return region
    edges = region._net_boundary()
    at: dict[tuple[int, int], list[tuple]] = {}  # the edges by each end x
    for e in edges:
        for x in (e[3:5], e[5:7]):
            at.setdefault(x, []).append(e)
    sides = [((Fraction(x0n, x0d), Fraction(C * x0d - A * x0n, B * x0d)),
              (Fraction(x1n, x1d), Fraction(C * x1d - A * x1n, B * x1d)), w)
             for A, B, C, x0n, x0d, x1n, x1d, w in edges]
    sides += [((Fraction(*x), y0), (Fraction(*x), y1), m)
              for x, ends in at.items() for y0, y1, m in _verticals(ends, x)]
    # Trace closed loops of the net boundary; require out-degree exactly 1 everywhere.
    out_map: dict[tuple, tuple] = {}
    for a, b, net in sides:
        if abs(net) > 1:
            return region  # overlapping interiors; refuse to merge
        a, b = (a, b) if net > 0 else (b, a)
        if a in out_map:
            return region  # the union pinches to a point
        out_map[a] = b
    polys = []
    for start in sorted(out_map):
        if start not in out_map:
            continue  # on a loop traced already: a point leaves the map as its loop passes it
        loop, cur = [], start
        while cur in out_map:
            loop.append(Point(*cur))
            cur = out_map.pop(cur)
        if cur != start:
            return region  # a chain that does not close on itself
        try:
            polys.append(SimplePolygon.unchecked(loop))
        except GeometryError:
            return region  # hole or degenerate loop: keep the cell soup
    if sum((p.area for p in polys), Fraction(0)) != region.area:
        return region
    return Region(polys)


# ---------------------------------------------------------------------------
# Public region operations.
# ---------------------------------------------------------------------------


def region_union_all(regions: Sequence[Region]) -> Region:
    """The union of the regions in a sweep of one layer, `_stacked`. A region counts a
    point a nonnegative number of times, so a point lies in one exactly where the sum of
    their counts is positive; the sides adjacent fans share cancel before the sweep."""
    regions = [r for r in regions if not r.is_empty]
    if len(regions) <= 1:
        return regions[0] if regions else Region.empty()
    return overlay([_stacked(regions)], lambda c: c[0] > 0)


def region_intersection(a: Region, b: Region) -> Region:
    if a.is_empty or b.is_empty:
        return Region.empty()
    (alo, ahi), (blo, bhi) = _extent(a), _extent(b)
    lo = alo if alo[0] * blo[1] >= blo[0] * alo[1] else blo
    hi = ahi if ahi[0] * bhi[1] <= bhi[0] * ahi[1] else bhi
    return overlay([_window(a, lo, hi), _window(b, lo, hi)], lambda c: c[0] > 0 and c[1] > 0)


def region_difference(a: Region, b: Region) -> Region:
    if a.is_empty:
        return Region.empty()
    if b.is_empty:
        return a
    return overlay([a, _window(b, *_extent(a))], lambda c: c[0] > 0 and c[1] == 0)


def _extent(region: Region) -> tuple[tuple[int, int], tuple[int, int]]:
    """The x-range of a nonempty region's net boundary, as (numerator, denominator) pairs."""
    edges = region._net_boundary()
    lo, hi = edges[0][3:5], edges[0][5:7]
    for e in edges:
        lo = e[3:5] if e[3] * lo[1] < lo[0] * e[4] else lo
        hi = e[5:7] if e[5] * hi[1] > hi[0] * e[6] else hi
    return lo, hi


def _window(region: Region, lo: tuple[int, int], hi: tuple[int, int]) -> Region:
    """The region as a sweep input over the slabs between x = lo and x = hi only: its
    net boundary edges whose x-extent meets that range, the only ones active in those
    slabs, which are cut as the whole region's are. Its parts are the region's."""
    return Region._deferred(lambda: region.parts, boundary=[
        e for e in region._net_boundary() if e[3] * hi[1] < hi[0] * e[4] and e[5] * lo[1] > lo[0] * e[6]])


# ---------------------------------------------------------------------------
# Segment-level helpers used throughout the visibility machinery.
# ---------------------------------------------------------------------------


def segment_breakpoints(seg: Segment, edges: Iterable[Segment]) -> list[Fraction]:
    """Sorted parameters where `seg` meets any of the given segments."""
    ts = {Fraction(0), Fraction(1)}
    for e in edges:
        inter = segment_intersection(seg, e)
        if inter is None:
            continue
        if isinstance(inter, Point):
            ts.add(seg.param_of(inter))
        else:
            ts.add(seg.param_of(inter.a))
            ts.add(seg.param_of(inter.b))
    return sorted(t for t in ts if 0 <= t <= 1)


def sides_along(regions: Sequence[Region], a: Point, b: Point) -> list[Segment]:
    """The maximal pieces of positive length of segment ab that lie on a side of one
    of the regions with that region left of ab, in order from a to b: for regions
    with disjoint interiors in a polygon of which ab is an edge, the pieces of ab
    their closed union covers.

    A non-vertical ab reads the net boundary edges on its line that run its way, a
    vertical ab the vertical sides at its x that run its way (`_verticals`). No cell
    or polygon is built and no segment is intersected."""
    vertical = a.x == b.x
    sign = 1 if (a.y < b.y if vertical else a.x < b.x) else -1
    if vertical:
        x = a.x
        spans = [(y0, y1) for region in regions
                 for y0, y1, m in _verticals(region._net_boundary(), (x.numerator, x.denominator)) if m * sign > 0]
        ends = (a.y, b.y)
    else:
        A, B, C = _int_line(a, b)
        spans = [(Fraction(e[3], e[4]), Fraction(e[5], e[6])) for region in regions for e in region._net_boundary()
                 if e[0] * B == A * e[1] and e[2] * B == C * e[1] and e[7] * sign > 0]
        ends = (a.x, b.x)
    lo, hi = min(ends), max(ends)
    pieces = merge_intervals([(max(s0, lo), min(s1, hi)) for s0, s1 in spans])
    point = (lambda y: Point(x, y)) if vertical else (lambda x: Point(x, (C - A * x) / B))
    return [Segment(point(s0), point(s1)) if sign > 0 else Segment(point(s1), point(s0))
            for s0, s1 in (pieces if sign > 0 else reversed(pieces))]


def along(a: Point, b: Point) -> Callable[[Point], Fraction]:
    """An exact coordinate of the points of line ab that grows from a to b:
    x or -x, or y or -y on a vertical line."""
    if a.x != b.x:
        return (lambda p: p.x) if a.x < b.x else (lambda p: -p.x)
    return (lambda p: p.y) if a.y < b.y else (lambda p: -p.y)


def subtract_intervals(
    base: list[tuple[Fraction, Fraction]], cut: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """1-D closed-interval subtraction; zero-length leftovers are dropped."""
    out = []
    for lo, hi in base:
        pieces = [(lo, hi)]
        for clo, chi in cut:
            nxt = []
            for plo, phi in pieces:
                if chi <= plo or clo >= phi:
                    nxt.append((plo, phi))
                    continue
                if clo > plo:
                    nxt.append((plo, min(clo, phi)))
                if chi < phi:
                    nxt.append((max(chi, plo), phi))
            pieces = nxt
        out.extend((a, b) for a, b in pieces if a < b)
    return out


def merge_intervals(ivals: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    ivals = sorted(i for i in ivals if i[0] < i[1])
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in ivals:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def sees(P: SimplePolygon, x: Point, y: Point) -> bool:
    """Closed visibility: the whole segment x..y stays inside the closed polygon.

    Grazing contact along boundary edges and through reflex vertices counts
    as visible; any excursion to the exterior blocks. No library module calls
    it: it is kept as the tests' reference and for the benchmark's tracer.
    """
    if P.contains(x) is PointLocation.EXTERIOR:
        return False
    if P.contains(y) is PointLocation.EXTERIOR:
        return False
    if x == y:
        return True
    seg = Segment(x, y)
    ts = segment_breakpoints(seg, P.edges())
    for t0, t1 in zip(ts, ts[1:]):
        if t0 == t1:
            continue
        if P.contains(seg.point_at((t0 + t1) / 2)) is PointLocation.EXTERIOR:
            return False
    return True


# ---------------------------------------------------------------------------
# Deterministic interior sampling.
# ---------------------------------------------------------------------------


def region_interior_points(region: Region, k: int) -> list[Point]:
    """k deterministic interior points, cycling over the region's n cells: the i-th is
    the vertex centroid of cell i mod n, on pass r = i // n > 0 moved 1/(2 + r) of the
    way toward the cell's vertex r (mod its size), to vary repeated visits."""
    cells = overlay([region], any).parts  # a caller's part need not be convex
    pts = []
    for i in range(k if cells else 0):
        r, j = divmod(i, len(cells))
        verts = cells[j].vertices
        sx, sy = sum((v.x for v in verts), Fraction(0)), sum((v.y for v in verts), Fraction(0))
        c = Point(sx / len(verts), sy / len(verts))
        pts.append(c + (verts[r % len(verts)] - c) * Fraction(1, 2 + r) if r else c)
    return pts
