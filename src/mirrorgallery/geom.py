"""Exact rational planar kernel.

Everything downstream (visibility, reflection, guarding, reduction
generators) is built on the primitives here: orientation and intersection
predicates over arbitrary-precision rationals, point location, exact areas,
and a slab-sweep overlay that implements boolean operations on regions.
The sweep crosses and orders edges on integer line coefficients and emits
its trapezoids already normalized, with their areas. No floating point is
used anywhere; all results are exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import GeometryError, InvariantViolated

logger = logging.getLogger(__name__)


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

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2, (self.a.y + self.b.y) / 2)

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


def _shoelace2(vertices: Sequence[Point]) -> Fraction:
    n = len(vertices)
    total = Fraction(0)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.cross(b)
    return total


class SimplePolygon:
    """Counterclockwise simple polygon over exact rationals.

    Construction normalizes away repeated and collinear-through vertices,
    requires positive signed area, and verifies boundary simplicity.
    """

    __slots__ = ("vertices", "_area", "_bbox", "_hash")

    def __init__(self, vertices: Iterable, *, _skip_simplicity_check: bool = False):
        verts = [v if isinstance(v, Point) else Point(*v) for v in vertices]
        verts = _normalize_ring(verts)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least three non-collinear vertices")
        area2 = _shoelace2(verts)
        if area2 <= 0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        self.vertices = tuple(verts)
        self._area = area2 / 2
        self._bbox = None
        self._hash = None
        if not _skip_simplicity_check:
            self._check_simple()

    @classmethod
    def unchecked(cls, vertices: Iterable) -> "SimplePolygon":
        """Fast path for internally constructed rings known to be simple."""
        return cls(vertices, _skip_simplicity_check=True)

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...], area: Fraction) -> "SimplePolygon":
        """A ring the caller built normalized, counterclockwise and simple, with its area."""
        if area <= 0:
            raise InvariantViolated(f"trusted ring {vertices!r} has area {area}")
        self = object.__new__(cls)
        self.vertices = vertices
        self._area = area
        self._bbox = None
        self._hash = None
        return self

    def _check_simple(self):
        n = len(self.vertices)
        edges = self.edges()
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                inter = segment_intersection(edges[i], edges[j])
                if inter is None:
                    continue
                if adjacent and isinstance(inter, Point):
                    shared = edges[i].b if j == i + 1 else edges[i].a
                    if inter == shared:
                        continue
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

    def is_reflex(self, i: int) -> bool:
        prev = self.vertices[i - 1]
        cur = self.vertices[i]
        nxt = self.vertices[(i + 1) % self.n]
        return orientation(prev, cur, nxt) is Orientation.CW

    def reflex_indices(self) -> list[int]:
        return [i for i in range(self.n) if self.is_reflex(i)]

    def contains(self, p: Point) -> PointLocation:
        xmin, ymin, xmax, ymax = self.bbox
        if p.x < xmin or p.x > xmax or p.y < ymin or p.y > ymax:
            return PointLocation.EXTERIOR
        inside = False
        n = self.n
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if orientation(a, b, p) is Orientation.COLLINEAR:
                lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
                lo_y, hi_y = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
                if lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y:
                    return PointLocation.BOUNDARY
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if x_cross > p.x:
                    inside = not inside
        return PointLocation.INTERIOR if inside else PointLocation.EXTERIOR

    def __eq__(self, other):
        return isinstance(other, SimplePolygon) and self.vertices == other.vertices

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.vertices)
        return self._hash

    def __repr__(self):
        return f"SimplePolygon({list(self.vertices)!r})"


def _normalize_ring(verts: list[Point]) -> list[Point]:
    """Drop repeated vertices and collinear run-through vertices."""
    out = []
    for v in verts:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            prev = out[i - 1]
            cur = out[i]
            nxt = out[(i + 1) % len(out)]
            if orientation(prev, cur, nxt) is Orientation.COLLINEAR:
                out.pop(i)
                changed = True
                break
    return out


# ---------------------------------------------------------------------------
# Regions: finite unions of simple polygons with pairwise disjoint interiors.
# ---------------------------------------------------------------------------


class Region:
    """A finite set of simple polygons whose interiors are pairwise disjoint.

    The area of a region is the exact sum of part areas. A region built by
    a boolean holds the convex cells of the overlay sweep as its parts;
    areas, membership queries (through an x-interval locator) and later
    sweeps all read those cells. `merge_region` glues them into maximal
    polygons only where merged rings are wanted: SVG output and the
    coordinate bit cap.
    """

    __slots__ = ("parts", "_area", "_bbox", "_locator")

    def __init__(self, parts: Iterable[SimplePolygon] = ()):
        self.parts = tuple(parts)
        self._area = None
        self._bbox = None
        self._locator = None

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
        return not self.parts

    @property
    def area(self) -> Fraction:
        if self._area is None:
            self._area = sum((p.area for p in self.parts), Fraction(0))
        return self._area

    @property
    def bbox(self):
        if self._bbox is None and self.parts:
            boxes = [p.bbox for p in self.parts]
            self._bbox = (min(b[0] for b in boxes), min(b[1] for b in boxes),
                          max(b[2] for b in boxes), max(b[3] for b in boxes))
        return self._bbox

    def _build_locator(self):
        entries = ((p.bbox[0], p.bbox[2], p) for p in self.parts)
        self._locator = sorted(entries, key=lambda e: (e[0], e[1]))

    def contains(self, p: Point) -> PointLocation:
        if not self.parts:
            return PointLocation.EXTERIOR
        if self._locator is None:
            self._build_locator()
        best = PointLocation.EXTERIOR
        for xmin, xmax, part in self._locator:
            if xmin > p.x:
                break
            if xmax < p.x:
                continue
            loc = part.contains(p)
            if loc is PointLocation.INTERIOR:
                return PointLocation.INTERIOR
            if loc is PointLocation.BOUNDARY:
                best = PointLocation.BOUNDARY
        return best

    def covers(self, p: Point) -> bool:
        return self.contains(p) is not PointLocation.EXTERIOR

    def max_coordinate_bits(self) -> int:
        bits = 0
        for part in self.parts:
            for v in part.vertices:
                for f in (v.x, v.y):
                    bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
        return bits

    def validate_disjoint(self) -> bool:
        """Quadratic check that part interiors are pairwise disjoint (test aid)."""
        polys = [Region.of(p) for p in self.parts]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if region_intersection(polys[i], polys[j]).area != 0:
                    return False
        return True

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


class _SweepSeg:
    """A non-vertical edge: its line A*x + B*y = C with B > 0, and its x-extent
    [x0, x1] as fractions, as numerator/denominator pairs and, once the slab
    boundaries are known, as their indices k0 and k1."""

    __slots__ = ("A", "B", "C", "x0", "x1", "x0n", "x0d", "x1n", "x1d", "k0", "k1",
                 "layer", "part_id", "order")

    def __init__(self, a: Point, b: Point, layer, part_id, order):
        if a.x > b.x:
            a, b = b, a
        self.A, self.B, self.C = _int_line(a, b)
        self.x0, self.x1 = a.x, b.x
        self.x0n, self.x0d = a.x.numerator, a.x.denominator
        self.x1n, self.x1d = b.x.numerator, b.x.denominator
        self.layer = layer
        self.part_id = part_id
        self.order = order


def overlay(layers: Sequence[Region], keep: Callable[[Sequence[int]], bool]) -> Region:
    """Partition the plane into slab cells and keep those selected by `keep`.

    `keep` receives, for each input layer, the number of that layer's parts
    covering the cell; it must reject the all-zero vector.
    """
    return Region(cell for _, cell in _sweep(layers, keep))


def _sweep(layers: Sequence[Region], key: Callable[[list[int]], object]):
    """Slab sweep over the layers' cells, yielding (key value, trapezoid).

    Within each slab the elementary cells between consecutive edges get the
    value of `key` on their per-layer count vector (how many of each layer's
    parts cover the cell). Every maximal vertical run of cells with one
    truthy value is yielded as one trapezoid; runs with a falsy value and
    runs of zero area are skipped. Edges are crossed and ordered on their
    integer lines; a Fraction is built only per crossing, per slab row and
    per trapezoid corner.
    """
    nlayers = len(layers)
    segs: list[_SweepSeg] = []
    xs = set()
    part_id = 0
    for li, region in enumerate(layers):
        for part in region.parts:
            verts = part.vertices
            for a, b in zip(verts, verts[1:] + verts[:1]):
                xs.add(a.x)
                if a.x != b.x:
                    segs.append(_SweepSeg(a, b, li, part_id, len(segs)))
            part_id += 1
    if not segs:
        return
    # Proper crossings strictly inside both x-extents add slab boundaries;
    # a crossing at an extent end is at a vertex's x, already a boundary.
    segs.sort(key=lambda s: s.x0)
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
                xs.add(Fraction(xn, det))
    xs = sorted(xs)
    index = {x: k for k, x in enumerate(xs)}
    for s in segs:
        s.k0, s.k1 = index[s.x0], index[s.x1]

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
        xm = (xl + xr) / 2
        p, q = xm.numerator, xm.denominator
        rows = sorted(active, key=lambda s: (Fraction(s.C * q - s.A * p, s.B), s.order))
        counts = [0] * nlayers
        inside_parts = set()
        last = len(rows) - 1
        run_key = None
        run_bottom = None  # sweep segment bounding the open run from below
        for idx, seg in enumerate(rows):
            if seg.part_id in inside_parts:
                inside_parts.discard(seg.part_id)
                counts[seg.layer] -= 1
            else:
                inside_parts.add(seg.part_id)
                counts[seg.layer] += 1
            value = key(counts) if idx < last else None
            if value != run_key:
                if run_key:
                    cell = _trapezoid(xl, xr, run_bottom, seg)
                    if cell is not None:
                        yield run_key, cell
                run_key = value
                run_bottom = seg


def _trapezoid(xl: Fraction, xr: Fraction, bottom: _SweepSeg, top: _SweepSeg) -> SimplePolygon | None:
    """The cell between two edges over the slab [xl, xr], or None if it has no area.

    The edges do not cross inside the slab and `top` is above `bottom`, so the
    ring is counterclockwise; a side of zero height leaves a triangle, as
    `_normalize_ring` would.
    """
    ln, ld, rn, rd = xl.numerator, xl.denominator, xr.numerator, xr.denominator
    ybl = Fraction(bottom.C * ld - bottom.A * ln, bottom.B * ld)
    ybr = Fraction(bottom.C * rd - bottom.A * rn, bottom.B * rd)
    ytl = Fraction(top.C * ld - top.A * ln, top.B * ld)
    ytr = Fraction(top.C * rd - top.A * rn, top.B * rd)
    left, right = ytl != ybl, ytr != ybr
    if not (left or right):
        return None
    ring = (Point(xl, ybl), Point(xr, ybr))
    if right:
        ring += (Point(xr, ytr),)
    if left:
        ring += (Point(xl, ytl),)
    return SimplePolygon._trusted(ring, (xr - xl) * (ytl - ybl + ytr - ybr) / 2)


# ---------------------------------------------------------------------------
# Boundary merge: convert cell soup into maximal simple polygons.
# ---------------------------------------------------------------------------


def _line_key(a: Point, b: Point):
    # Normalized (A, B, C) for the line A*x + B*y = C, primitive integers,
    # sign-canonical, so collinear segments share a key.
    A, B, C = _int_line(a, b)
    g = gcd(A, B, C) or 1
    if A < 0 or (A == 0 and B < 0):
        g = -g
    return (A // g, B // g, C // g)


def merge_region(region: Region) -> Region:
    """Glue region parts into maximal simple polygons by boundary tracing.

    For output only (SVG rendering and the coordinate bit cap): regions
    keep their cells for every query and boolean. Falls back to the input
    (still correct, just fragmented) whenever the union pinches to a
    point, produces a hole, or any consistency check fails.
    """
    if len(region.parts) <= 1:
        return region
    groups: dict[tuple, list] = {}
    for part in region.parts:
        for e in part.edges():
            key = _line_key(e.a, e.b)
            vertical = key[1] == 0
            ta = e.a.y if vertical else e.a.x
            tb = e.b.y if vertical else e.b.x
            groups.setdefault(key, []).append((ta, tb, e.a, e.b))
    edges_out: list[tuple[Point, Point]] = []
    for key, items in groups.items():
        events: dict[Fraction, list] = {}
        pts: dict[Fraction, Point] = {}
        for ta, tb, pa, pb in items:
            lo, hi, sign = (ta, tb, 1) if ta < tb else (tb, ta, -1)
            events.setdefault(lo, []).append(sign)
            events.setdefault(hi, []).append(-sign)
            pts[ta] = pa
            pts[tb] = pb
        ts = sorted(events)
        net = 0
        run_start = None
        run_net = 0
        for t in ts:
            new_net = net + sum(events[t])
            if new_net != net:
                if run_start is not None and run_net != 0:
                    a, b = pts[run_start], pts[t]
                    if run_net > 0:
                        edges_out.append((a, b))
                    else:
                        edges_out.append((b, a))
                if abs(new_net) > 1:
                    return region  # overlapping interiors; refuse to merge
                run_start = t if new_net != 0 else None
                run_net = new_net
            net = new_net
        if net != 0:
            return region
    # Trace closed loops; require out-degree exactly 1 everywhere.
    out_map: dict[Point, list[Point]] = {}
    for a, b in edges_out:
        out_map.setdefault(a, []).append(b)
    for dests in out_map.values():
        if len(dests) > 1:
            return region
    loops = []
    visited = set()
    for start in sorted(out_map, key=lambda p: (p.x, p.y)):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = out_map[start][0]
        while cur != start:
            if cur in visited or cur not in out_map:
                return region
            loop.append(cur)
            visited.add(cur)
            cur = out_map[cur][0]
        loops.append(loop)
    polys = []
    for loop in loops:
        if _shoelace2(loop) <= 0:
            return region  # hole or degenerate loop: keep the cell soup
        try:
            polys.append(SimplePolygon.unchecked(loop))
        except GeometryError:
            return region
    merged_area = sum((p.area for p in polys), Fraction(0))
    if merged_area != region.area:
        return region
    return Region(polys)


# ---------------------------------------------------------------------------
# Public region operations.
# ---------------------------------------------------------------------------


def region_union(a: Region, b: Region) -> Region:
    return region_union_all([a, b])


def region_union_all(regions: Sequence[Region]) -> Region:
    regions = [r for r in regions if not r.is_empty]
    if not regions:
        return Region.empty()
    if len(regions) == 1:
        return regions[0]
    return overlay(regions, any)


def region_intersection(a: Region, b: Region) -> Region:
    if a.is_empty or b.is_empty:
        return Region.empty()
    return overlay([a, b], lambda c: c[0] > 0 and c[1] > 0)


def region_difference(a: Region, b: Region) -> Region:
    if a.is_empty:
        return Region.empty()
    if b.is_empty:
        return a
    return overlay([a, b], lambda c: c[0] > 0 and c[1] == 0)


def bbox_pad(bbox, pad) -> tuple:
    pad = rational(pad)
    return (bbox[0] - pad, bbox[1] - pad, bbox[2] + pad, bbox[3] + pad)


def bbox_rect(bbox) -> SimplePolygon:
    xmin, ymin, xmax, ymax = bbox
    return SimplePolygon.unchecked(
        [Point(xmin, ymin), Point(xmax, ymin), Point(xmax, ymax), Point(xmin, ymax)]
    )


def halfplane_polygon(bbox, a: Point, b: Point) -> SimplePolygon | None:
    """Clip the bbox rectangle to the closed half-plane left of a->b."""
    d = b - a
    ring = bbox_rect(bbox).vertices
    out: list[Point] = []
    n = len(ring)
    for i in range(n):
        s = ring[i]
        e = ring[(i + 1) % n]
        s_in = d.cross(s - a) >= 0
        e_in = d.cross(e - a) >= 0
        if s_in != e_in:
            seg_d = e - s
            denom = d.cross(seg_d)
            t = d.cross(a - s) / denom
            out.append(s + seg_d * t)
        if e_in:
            out.append(e)
    try:
        return SimplePolygon.unchecked(out)
    except GeometryError:
        return None


def region_clip_halfplane(r: Region, a: Point, b: Point) -> Region:
    """Intersect a region with the closed half-plane left of a->b."""
    if r.is_empty:
        return r
    hp = halfplane_polygon(bbox_pad(r.bbox, 1), a, b)
    if hp is None:
        return Region.empty()
    return region_intersection(r, Region.of(hp))


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


def segment_parts_inside(seg: Segment, parts: Sequence[SimplePolygon]) -> list[Segment]:
    """Maximal subsegments of `seg` covered by the closed union of `parts`."""
    all_edges = [e for p in parts for e in p.edges()]
    ts = segment_breakpoints(seg, all_edges)
    kept: list[tuple[Fraction, Fraction]] = []
    for t0, t1 in zip(ts, ts[1:]):
        if t0 == t1:
            continue
        mid = seg.point_at((t0 + t1) / 2)
        loc = PointLocation.EXTERIOR
        for p in parts:
            loc = p.contains(mid)
            if loc is not PointLocation.EXTERIOR:
                break
        if loc is not PointLocation.EXTERIOR:
            if kept and kept[-1][1] == t0:
                kept[-1] = (kept[-1][0], t1)
            else:
                kept.append((t0, t1))
    return [Segment(seg.point_at(t0), seg.point_at(t1)) for t0, t1 in kept]


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
    as visible; any excursion to the exterior blocks.
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
# Deterministic and randomized interior sampling.
# ---------------------------------------------------------------------------


def _region_cells(region: Region) -> tuple[SimplePolygon, ...]:
    # a caller's part need not be convex; the samplers below need convex cells
    return overlay([region], any).parts


def region_interior_points(region: Region, k: int) -> list[Point]:
    """k deterministic interior points, cycling over the region's cells."""
    cells = _region_cells(region)
    if not cells:
        return []
    pts = []
    i = 0
    round_ = 0
    while len(pts) < k:
        cell = cells[i % len(cells)]
        verts = cell.vertices
        cx = sum((v.x for v in verts), Fraction(0)) / len(verts)
        cy = sum((v.y for v in verts), Fraction(0)) / len(verts)
        c = Point(cx, cy)
        if round_ > 0:
            # nudge toward a vertex to vary repeated visits to the same cell
            w = Fraction(1, 2 + round_)
            v = verts[round_ % len(verts)]
            c = Point(c.x + (v.x - c.x) * w, c.y + (v.y - c.y) * w)
        pts.append(c)
        i += 1
        if i % len(cells) == 0:
            round_ += 1
    return pts


def region_sample_points(region: Region, rng, k: int, *, grid: int = 1 << 20) -> list[Point]:
    """k random interior points, exact rational coordinates on a fine grid."""
    cells = _region_cells(region)
    if not cells:
        return []
    weights = [c.area for c in cells]
    total = sum(weights, Fraction(0))
    pts = []
    for _ in range(k):
        r = Fraction(rng.randrange(grid), grid) * total
        acc = Fraction(0)
        chosen = cells[-1]
        for c, w in zip(cells, weights):
            acc += w
            if r < acc:
                chosen = c
                break
        verts = chosen.vertices
        xs = sorted({v.x for v in verts})
        xl, xr = xs[0], xs[-1]
        u = Fraction(rng.randrange(1, grid), grid)
        x = xl + (xr - xl) * u
        # cell is convex: intersect the vertical line with the boundary
        ys = []
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a.x == b.x:
                if a.x == x:
                    ys.extend([a.y, b.y])
                continue
            lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
            if lo <= x <= hi:
                ys.append(a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x))
        y0, y1 = min(ys), max(ys)
        v = Fraction(rng.randrange(1, grid), grid)
        pts.append(Point(x, y0 + (y1 - y0) * v))
    return pts

