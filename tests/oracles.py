"""Brute-force oracles and references for the algorithms they check.

The visibility-area oracle classifies every cell of the arrangement of
the polygon's edges and the source-to-vertex sight lines: within a cell
the blocked/visible status is constant, so one closed-visibility test of
the cell midpoint decides the whole cell. Everything is exact rational
arithmetic; nothing here shares code with the angular sweep it verifies.

The diffuse-cascade reference rebuilds every bounce from public calls
only: the weak visibility polygon of each lit part, clipped to its edge's
inner half-plane by a region intersection, and lit edge parts found by
segment-in-polygon tests, never from ring labels. It is not independent
of the fans: weak visibility and the cascade are built from the same ones
(`visibility._seeing`). What pins those fans on their own is
`test_visibility.py::TestSeeing::test_matches_the_brute_force`, which
checks them against `sees` at the midpoints between the crossings of the
segment by sight lines through vertices.

The lit parts reference builds the cascade's depth-0 records as
`reflect._cascade` did before it read them off the visibility polygon's
host labels: an orientation test drops every edge collinear with the
source, and the lit parts of each other edge are merged by an exact
coordinate along it, so touching parts join. `visible_edge_parts`, once
public in `reflect`, reads the lit parts of one edge from a point source or
a region source in the polygon off the region's boundary, as the later
depths of the cascade do (`geom.sides_along`).

The segment reference `segment_parts_inside` splits a segment at every
edge of some polygons, in `Fraction`s, and locates each piece's midpoint
in them: the pieces their closed union covers, which `geom.sides_along`
reads off the polygons' boundary instead.

The ring references are the Fraction construction of `SimplePolygon`
(normalization, shoelace area and pairwise simplicity check) that the
integer construction must reproduce exactly, and the Fraction crossing
test that its `contains` must agree with. The region reference locates a
point in each part of a region with that test, as `Region.contains` did
before it read the net boundary: there a point on a seam between two
parts is BOUNDARY, even where the parts cover all around it. The slab
row reference orders a slab's edges by their height at the midline as
one Fraction per edge, the order the sweep's integer row keys must
reproduce.

The frame reference scales the origin and the vertices per frame, as
`visibility._Frame` did before the polygon kept its integer ring, and
builds ray points as the origin plus `Fraction` offsets, which its
integer ray casts (`ray_at`, what the rings and fans read) are taken from.
The frame answer references scan every edge, or every vertex, in
`Fraction`s for a ray's first crossing, its lit test and the vertex
directions inside a wedge, which a frame keeps once it has answered.

The fan references build the fans of `visibility._fan` over the lit runs
of `visibility._lit`, and `visibility._pivot_cones`, as they were before
fans gave the sweep their edges in integers: one `SimplePolygon` per run
of lit sub-wedges, its ring of `Point`s through `ray_point`. `edge_ends`
reads an integer net boundary edge back as the side of
`net_runs_reference` it stands for.

The specular reference is the fold loop `reflect.specular_extend_single`
ran before it took its breakpoints from the integer frame: per lit part,
the parameters on the mirror of the rays from the unfolded source through
every vertex, in `Fraction`s, and one quad per pair of neighbours,
oriented by its shoelace sign.

The funnel mirror reference unions the VP and the added regions of every
candidate subset, one boolean per subset, where the library reads the
subsets' areas off one class sweep. The ray landing reference casts the
sight ray grazing a tangent vertex in `Fraction`s, as `special` did before
it read the landing off the visibility polygon's side along that ray.

The union reference sweeps every region as a layer of its own and keeps
the cells some layer covers, as `geom.region_union_all` did before it
swept the regions' summed count as one netted layer.

The classes reference sweeps every region as a layer of its own too and
keys each cell by its tuple of per-layer counts, as `geom.classes` did
before it swept one layer of the regions' edges weighted 2**i for layer i
and netted per line, whose count is the bitmask of the covering layers.

The net runs reference nets the sides of a region's parts on `Point`s,
every side, vertical ones too, per line keyed by the `Fraction` formula of
its coefficients; the merge reference traces their loops, as
`geom.merge_region` did before it traced the integer net boundary, with
the vertical sides rebuilt from it (`geom._verticals`) and no cell built.

The coordinate bits reference reads the bits of the vertices of a region's
parts, a swept region's cells, as `Region.max_coordinate_bits` did before it
read the net boundary's vertices: the slab crossings give cells vertices
that no merged ring keeps, so it bounds the library's count from above.

The layer count check reads whether `geom.classes` saw each layer count a
point at most once, off the classes' and the layers' areas alone.

The enumeration reference is the subset-sum solver of
`redgen.solve_by_enumeration` before it summed integers: every mask in
increasing order, one `Fraction` sum of its areas per mask.

The ring scan reference reads the ring edges of a visibility polygon
with one host label by a scan of the whole ring, once per label, and its
lit parts of an edge sorted along it, as `VisibilityPolygon` did before it
grouped its ring edges by label in one pass.

The test aids at the end order directions by angle, sample random points
of a region, check that a region's parts are pairwise disjoint, and take a
direction's primitive integer vector and a segment's midpoint.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from types import SimpleNamespace

from mirrorgallery.errors import GeometryError, InvalidInstance
from mirrorgallery.geom import (
    Orientation,
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    _integer_ring,
    _shoelace2,
    _sweep,
    along,
    merge_intervals,
    orientation,
    overlay,
    region_difference,
    region_intersection,
    sees,
    segment_breakpoints,
    segment_intersection,
    sides_along,
    subtract_intervals,
)
from mirrorgallery.reflect import IlluminatedEdgePart, ReflectionKind, ReflectionSpec, diffuse_extend
from mirrorgallery.special import MirrorChoice, funnel_tangents
from mirrorgallery.visibility import VisibilityPolygon, _Frame, visibility_polygon, weak_visibility_polygon


def _line_through_box(a: Point, b: Point, box) -> tuple[Point, Point] | None:
    """Clip the infinite line a-b to an enclosing box, returning a long segment."""
    xmin, ymin, xmax, ymax = box
    d = b - a
    ts = []
    if d.x != 0:
        ts.extend([(xmin - a.x) / d.x, (xmax - a.x) / d.x])
    if d.y != 0:
        ts.extend([(ymin - a.y) / d.y, (ymax - a.y) / d.y])
    if not ts:
        return None
    lo, hi = min(ts), max(ts)
    return (a + d * lo, a + d * hi)


def visibility_area_oracle(P: SimplePolygon, q: Point) -> Fraction:
    """Exact area visible from q, via cell-by-cell classification."""
    xmin, ymin, xmax, ymax = P.bbox
    box = (xmin - 1, ymin - 1, xmax + 1, ymax + 1)
    segments: list[tuple[Point, Point]] = [(e.a, e.b) for e in P.edges()]
    for v in P.vertices:
        if v == q:
            continue
        clipped = _line_through_box(q, v, box)
        if clipped is not None:
            segments.append(clipped)

    xs = set()
    for a, b in segments:
        xs.add(a.x)
        xs.add(b.x)
    for i in range(len(segments)):
        a1, b1 = segments[i]
        d1 = b1 - a1
        for j in range(i + 1, len(segments)):
            a2, b2 = segments[j]
            d2 = b2 - a2
            denom = d1.cross(d2)
            if denom == 0:
                continue
            w = a2 - a1
            t = w.cross(d2) / denom
            u = w.cross(d1) / denom
            if 0 <= t <= 1 and 0 <= u <= 1:
                xs.add(a1.x + t * d1.x)
    xs = sorted(xs)

    area = Fraction(0)
    for xl, xr in zip(xs, xs[1:]):
        if xl == xr:
            continue
        xm = (xl + xr) / 2
        ys = []
        for a, b in segments:
            if a.x == b.x:
                continue
            lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
            if lo <= xl and hi >= xr:
                ys.append(a.y + (xm - a.x) * (b.y - a.y) / (b.x - a.x))
        ys.sort()
        for y0, y1 in zip(ys, ys[1:]):
            if y0 == y1:
                continue
            c = Point(xm, (y0 + y1) / 2)
            if P.contains(c) is not PointLocation.INTERIOR:
                continue
            if sees(P, q, c):
                area += (xr - xl) * (y1 - y0)
    return area


def halfplane_rect(a: Point, b: Point, box) -> SimplePolygon:
    """The box rectangle clipped to the closed half-plane left of a->b."""
    xmin, ymin, xmax, ymax = box
    ring = [Point(xmin, ymin), Point(xmax, ymin), Point(xmax, ymax), Point(xmin, ymax)]
    d = b - a
    out = []
    for s, e in zip(ring, ring[1:] + ring[:1]):
        s_in, e_in = d.cross(s - a) >= 0, d.cross(e - a) >= 0
        if s_in != e_in:
            out.append(s + (e - s) * (d.cross(a - s) / d.cross(e - s)))
        if e_in:
            out.append(e)
    return SimplePolygon(out)


def segment_parts_inside(seg: Segment, parts) -> list[Segment]:
    """Maximal subsegments of `seg` covered by the closed union of `parts`, in order
    from seg.a: seg split at every edge of every part, and each piece's midpoint
    located in the parts."""
    ts = segment_breakpoints(seg, [e for p in parts for e in p.edges()])
    kept: list[tuple[Fraction, Fraction]] = []
    for t0, t1 in zip(ts, ts[1:]):
        mid = seg.point_at((t0 + t1) / 2)
        if any(p.contains(mid) is not PointLocation.EXTERIOR for p in parts):
            if kept and kept[-1][1] == t0:
                kept[-1] = (kept[-1][0], t1)
            else:
                kept.append((t0, t1))
    return [Segment(seg.point_at(t0), seg.point_at(t1)) for t0, t1 in kept]


def lit_parts_reference(P: SimplePolygon, q: Point, edges) -> tuple[IlluminatedEdgePart, ...]:
    """The depth-0 illumination records of the diffuse cascade from q over edges:
    per edge not collinear with q, in index order, its parts in the visibility
    polygon, merged by their coordinate along the edge (`geom.along`)."""
    vp = visibility_polygon(P, q)
    records = []
    for e in sorted(edges):
        a, b = P.vertices[e], P.vertices[(e + 1) % P.n]
        if orientation(a, b, q) is Orientation.COLLINEAR:
            continue
        t, parts = along(a, b), vp.edge_parts(e)
        ends = {t(p): p for s in parts for p in (s.a, s.b)}
        merged = merge_intervals([tuple(sorted((t(s.a), t(s.b)))) for s in parts])
        if merged:
            records.append(IlluminatedEdgePart(e, tuple(Segment(ends[t0], ends[t1]) for t0, t1 in merged), 0))
    return tuple(records)


def visible_edge_parts(P: SimplePolygon, src, e: int) -> list[Segment]:
    """Maximal subsegments of edge e lit by a point source, the parts it sees directly
    (its VP's), or by a region source in P, the parts the region reaches, in order
    along e: both read off the region's boundary (`geom.sides_along`)."""
    region = visibility_polygon(P, src).region if isinstance(src, Point) else src
    return sides_along([region], P.vertices[e], P.vertices[(e + 1) % P.n])


def diffuse_added_reference(P: SimplePolygon, q: Point, edges, r: int):
    """The diffuse cascade of `reflect.diffuse_extend`, from public calls.

    Returns the added region and the illumination records as
    (edge, subsegments, bounce depth) tuples.
    """
    xmin, ymin, xmax, ymax = P.bbox
    box = (xmin - 1, ymin - 1, xmax + 1, ymax + 1)
    vp = Region.of(visibility_polygon(P, q).polygon)
    records = []
    lit: dict[int, list] = {}
    newly: dict[int, list[Segment]] = {}
    for e in sorted(edges):
        s = P.edge(e)
        if orientation(s.a, s.b, q) is Orientation.COLLINEAR:
            continue
        parts = segment_parts_inside(s, vp.parts)
        if parts:
            newly[e] = parts
            lit[e] = merge_intervals([tuple(sorted((s.param_of(p.a), s.param_of(p.b)))) for p in parts])
            records.append((e, tuple(parts), 0))
    if vp.area == P.area:
        return Region.empty(), tuple(records)
    covered = vp
    depth_regions = []
    for depth in range(1, r + 1):
        pieces = []
        for e in sorted(newly):
            inner = Region.of(halfplane_rect(P.edge(e).a, P.edge(e).b, box))
            pieces += [region_intersection(weak_visibility_polygon(P, s), inner) for s in newly[e]]
        dr = union_reference(pieces)
        if dr.is_empty:
            break
        depth_regions.append(dr)
        covered = union_reference([covered, dr])
        if covered.area == P.area or depth == r:
            break
        newly = {}
        for e in sorted(edges):
            s = P.edge(e)
            ivals = [tuple(sorted((s.param_of(p.a), s.param_of(p.b))))
                     for p in segment_parts_inside(s, covered.parts)]
            fresh = subtract_intervals(merge_intervals(ivals), lit.get(e, []))
            if fresh:
                newly[e] = [Segment(s.point_at(t0), s.point_at(t1)) for t0, t1 in fresh]
                lit[e] = merge_intervals(lit.get(e, []) + fresh)
                records.append((e, tuple(newly[e]), depth))
        if not newly:
            break
    return region_difference(union_reference(depth_regions), vp), tuple(records)


class FrameReference(_Frame):
    """`visibility._Frame` scaled per frame: the origin and the vertices by the
    least common denominator of all their coordinates, with ray points and
    frame coordinates in `Fraction`s. A frame that translates the polygon's
    kept integer ring must hold the same integers and give the same points."""

    __slots__ = ()

    def __init__(self, P: SimplePolygon, o: Point):
        scale, (_, *pts) = _integer_ring((o, *P.vertices))
        super().__init__(SimpleNamespace(_int_ring=lambda: (scale, pts)), o)

    def ray_point(self, d: tuple[int, int], i: int) -> Point:
        _, _, ex, ey, tn = self.edges[i]
        den = (d[0] * ey - d[1] * ex) * self.scale
        return Point(self.origin.x + Fraction(d[0] * tn, den), self.origin.y + Fraction(d[1] * tn, den))

    def ray_at(self, d: tuple[int, int], i: int) -> tuple[int, int, int]:
        p = self.ray_point(d, i)
        return p.x.numerator * p.y.denominator, p.y.numerator * p.x.denominator, p.x.denominator * p.y.denominator

    def local(self, p: Point) -> tuple[int, int, int]:
        x, y = (p.x - self.origin.x) * self.scale, (p.y - self.origin.y) * self.scale
        return x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator


def first_hit_reference(P: SimplePolygon, o: Point, m: tuple[int, int], beyond: int | None = None) -> int | None:
    """The edge of P that the open ray o + t*m, t > 0, crosses first, by a `Fraction`
    scan of every edge; with `beyond`, the first crossing past the point where the
    ray meets that edge's line. The ray must pass through no vertex."""
    d, lo = Point(*m), Fraction(0)
    if beyond is not None:
        e = P.edge(beyond)
        lo = (e.a - o).cross(e.direction) / d.cross(e.direction)
    best, best_t = None, None
    for i, e in enumerate(P.edges()):
        den = d.cross(e.direction)
        if den == 0:
            continue
        w = e.a - o
        t, s = w.cross(e.direction) / den, w.cross(d) / den
        if t > lo and 0 <= s <= 1 and (best is None or t < best_t):
            best, best_t = i, t
    return best


def hit_reference(P: SimplePolygon, o: Point, m: tuple[int, int]) -> int | None:
    """`first_hit_reference` from o in the closed polygon, or None where the ray leaves
    o outward: where the midpoint of o and the first crossing lies outside P."""
    i = first_hit_reference(P, o, m)
    if i is None:
        return None
    e, d = P.edge(i), Point(*m)
    t = (e.a - o).cross(e.direction) / d.cross(e.direction)
    return i if P.contains(o + d * (t / 2)) is not PointLocation.EXTERIOR else None


def between_reference(P: SimplePolygon, o: Point, lo: tuple[int, int], hi: tuple[int, int]) -> list[tuple[int, int]]:
    """The primitive directions from o to the vertices of P strictly between lo and hi, at
    most a half turn apart, counterclockwise: by the cotangent of their angle from lo."""
    lo_p, hi_p = Point(*lo), Point(*hi)
    dirs = {primitive_direction(v - o) for v in P.vertices if v != o}
    inner = [d for d in dirs if lo_p.cross(Point(*d)) > 0 and Point(*d).cross(hi_p) > 0]
    return sorted(inner, key=lambda d: -Fraction(lo_p.dot(Point(*d)), lo_p.cross(Point(*d))))


def ray_point(f: _Frame, d: tuple[int, int], i: int) -> Point:
    """Where the ray from the frame's origin in direction d meets the line of edge i:
    the frame's integer ray cast (`_Frame.ray_at`) as a `Point`."""
    x, y, w = f.ray_at(d, i)
    return Point(Fraction(x, w), Fraction(y, w))


def cone_reference(f: _Frame, lo: tuple[int, int], hi: tuple[int, int]) -> list[SimplePolygon]:
    """`visibility._fan(f, _lit(f, lo, hi))` as polygons: the part of VP(origin)
    between directions lo and hi (at most a half turn), one polygon per maximal
    run of lit sub-wedges."""
    dirs = [lo, *f.between(lo, hi), hi]
    parts: list[SimplePolygon] = []
    ring = [f.origin]
    for da, db in zip(dirs, dirs[1:]):
        i = f.arc(da, db)
        if i is not None:
            arc = [ray_point(f, da, i), ray_point(f, db, i)]
            ring += arc if arc[0] != ring[-1] else arc[1:]
        elif len(ring) > 1:
            parts.append(SimplePolygon.unchecked(ring))
            ring = [f.origin]
    if len(ring) > 1:
        parts.append(SimplePolygon.unchecked(ring))
    return parts


def pivot_cones_reference(f: _Frame, a: Point, b: Point) -> list[SimplePolygon]:
    """`visibility._pivot_cones` as polygons: one `cone_reference` beyond the pivot
    per run of sub-wedges toward ab that are lit at it, hit no edge before ab's
    line and are not wholly with its exterior on b's side."""
    (xa, ya, wa), (xb, yb, wb) = f.local(a), f.local(b)
    lo, hi = primitive_direction(Point(Fraction(xa, wa), Fraction(ya, wa))), \
        primitive_direction(Point(Fraction(xb, wb), Fraction(yb, wb)))
    side = -1
    if lo[0] * hi[1] - lo[1] * hi[0] < 0:
        lo, hi, side = hi, lo, 1
    walls = ((-f.sides[0][0], -f.sides[0][1]), f.sides[1])
    dx, dy = primitive_direction(Point(Fraction(xb * wa - xa * wb), Fraction(yb * wa - ya * wb)))
    cn, cd = dx * ya - dy * xa, wa
    dirs = [lo, *f.between(lo, hi), hi]
    runs: list[list[tuple[int, int]]] = []
    for da, db in zip(dirs, dirs[1:]):
        if not any(side * (d[0] * wy - d[1] * wx) >= 0 for d in (da, db) for wx, wy in walls):
            continue
        mx, my = da[0] + db[0], da[1] + db[1]
        i = f.hit(mx, my)
        if i is None:
            continue
        _, _, ex, ey, tn = f.edges[i]
        den = mx * ey - my * ex
        ln = cd * (dx * my - dy * mx)
        if (tn * ln - cn * den) * den * ln < 0:
            continue
        if runs and runs[-1][1] == da:
            runs[-1][1] = db
        else:
            runs.append([da, db])
    return [part for r0, r1 in runs for part in cone_reference(f, (-r0[0], -r0[1]), (-r1[0], -r1[1]))]


def edge_ends(edge: tuple) -> tuple[Point, Point, int]:
    """A net boundary edge (A, B, C, x0n, x0d, x1n, x1d, w) of `Region._net_boundary`
    as the side (a, b, w) of `net_runs_reference`: its ends on its line, left to right."""
    A, B, C, x0n, x0d, x1n, x1d, w = edge
    x0, x1 = Fraction(x0n, x0d), Fraction(x1n, x1d)
    return Point(x0, (C - A * x0) / B), Point(x1, (C - A * x1) / B), w


def ring_edges_reference(vp: VisibilityPolygon, host: int) -> list[Segment]:
    """The ring edges of vp labelled host (-1: along a sight ray), in ring order, from a scan of the whole ring."""
    ring = vp.ring
    point = (lambda p: Point(Fraction(p[0], p[2]), Fraction(p[1], p[2])))
    return [Segment(point(ring[k]), point(ring[(k + 1) % len(ring)]))
            for k, h in enumerate(vp.edge_hosts) if h == host]


def edge_parts_reference(vp: VisibilityPolygon, e: int) -> list[Segment]:
    """The lit parts of host edge e, its ring edges from a scan of the whole ring, in order along e."""
    hv = vp.host_vertices
    return sorted(ring_edges_reference(vp, e), key=lambda s, t=along(hv[e], hv[(e + 1) % len(hv)]): t(s.a))


def reflect_point_across_line(p: Point, a: Point, b: Point) -> Point:
    """p mirrored across the line through a and b, in `Fraction`s."""
    d = b - a
    n = Point(-d.y, d.x)
    scale = 2 * (p - a).dot(n) / n.dot(n)
    return Point(p.x - scale * n.x, p.y - scale * n.y)


def specular_added_reference(P: SimplePolygon, q: Point, e: int) -> Region:
    """The added region of `reflect.specular_extend_single(P, q, e)`, for q
    inside P and off the line of edge e, before the bit cap."""
    edge_seg = P.edge(e)
    a, b = edge_seg.a, edge_seg.b
    side = orientation(a, b, q)
    vp = visibility_polygon(P, q)
    vp_region = Region.of(vp.polygon)
    vis = vp.edge_parts(e)
    if side is Orientation.CW or not vis:
        return Region.empty()

    q2 = reflect_point_across_line(q, a, b)
    frame = _Frame(P, q2)
    pieces: list[SimplePolygon] = []
    for sigma in vis:
        params = {edge_seg.param_of(sigma.a), edge_seg.param_of(sigma.b)}
        lo = min(params)
        hi = max(params)
        for v in P.vertices:
            if orientation(a, b, v) is Orientation.COLLINEAR:
                t = edge_seg.param_of(v)
            else:
                dv = v - q2
                denom = dv.cross(b - a)
                if denom == 0:
                    continue
                t_ray = (a - q2).cross(b - a) / denom
                if t_ray <= 0:
                    continue
                cross_pt = q2 + dv * t_ray
                t = edge_seg.param_of(cross_pt)
            if lo < t < hi:
                params.add(t)
        plist = sorted(params)
        for t0, t1 in zip(plist, plist[1:]):
            if t0 == t1:
                continue
            w0 = edge_seg.point_at(t0)
            w1 = edge_seg.point_at(t1)
            wm = edge_seg.point_at((t0 + t1) / 2)
            # the ray from q2 through wm, past the mirror, passes through no vertex
            far_edge = frame.first_hit(*primitive_direction(wm - q2), beyond=e)
            if far_edge is None:
                continue
            x0 = ray_point(frame, primitive_direction(w0 - q2), far_edge)
            x1 = ray_point(frame, primitive_direction(w1 - q2), far_edge)
            ring = [w0, w1, x1, x0]
            if _shoelace2(*_integer_ring(ring)) < 0:
                ring.reverse()
            try:
                pieces.append(SimplePolygon.unchecked(ring))
            except GeometryError:
                continue
    if not pieces:
        return Region.empty()
    return region_difference(Region(pieces), vp_region)


def normalize_ring_reference(verts: list[Point]) -> list[Point]:
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


def shoelace2_reference(vertices: list[Point]) -> Fraction:
    n = len(vertices)
    total = Fraction(0)
    for i in range(n):
        total += vertices[i].cross(vertices[(i + 1) % n])
    return total


def check_simple_reference(vertices: list[Point]):
    n = len(vertices)
    edges = [Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
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


def polygon_reference(vertices) -> tuple[tuple[Point, ...], Fraction]:
    """Vertices and area `SimplePolygon(vertices)` must have, or the GeometryError it must raise."""
    verts = normalize_ring_reference([v if isinstance(v, Point) else Point(*v) for v in vertices])
    if len(verts) < 3:
        raise GeometryError("polygon needs at least three non-collinear vertices")
    area2 = shoelace2_reference(verts)
    if area2 <= 0:
        raise GeometryError("polygon must be counterclockwise with positive area")
    check_simple_reference(verts)
    return tuple(verts), area2 / 2


def contains_reference(P: SimplePolygon, p: Point) -> PointLocation:
    """Point location of p in P by a Fraction crossing test: BOUNDARY on an
    edge, else the parity of the edges crossing the ray rightward from p."""
    inside = False
    for a, b in zip(P.vertices, P.vertices[1:] + P.vertices[:1]):
        if orientation(a, b, p) is Orientation.COLLINEAR:
            if min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y):
                return PointLocation.BOUNDARY
        if (a.y > p.y) != (b.y > p.y):
            if a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y) > p.x:
                inside = not inside
    return PointLocation.INTERIOR if inside else PointLocation.EXTERIOR


def region_contains_reference(region: Region, p: Point) -> PointLocation:
    """Point location of p in a region by its parts (`contains_reference`):
    INTERIOR inside some part, else BOUNDARY on some part's side, else EXTERIOR."""
    locations = {contains_reference(part, p) for part in region.parts}
    for loc in (PointLocation.INTERIOR, PointLocation.BOUNDARY):
        if loc in locations:
            return loc
    return PointLocation.EXTERIOR


def slab_rows_reference(active, xl: Fraction, xr: Fraction) -> list:
    """The edges across the slab [xl, xr] by their Fraction height at the midline, then in input order."""
    xm = (xl + xr) / 2
    p, q = xm.numerator, xm.denominator
    return sorted(active, key=lambda s: (Fraction(s.C * q - s.A * p, s.B), s.order))


def funnel_best_mirrors_reference(F, q: Point, *, include_chord: bool = False) -> MirrorChoice:
    """`special.funnel_best_mirrors` with one union per candidate subset."""
    P = F.polygon
    quad = funnel_tangents(F, q)
    candidates: list[int] = []
    for contact in quad.contacts():
        for e in contact.edges:
            if e == F.chord and not include_chord:
                continue
            if e not in candidates:
                candidates.append(e)
    if include_chord and F.chord not in candidates:
        candidates.append(F.chord)
    candidates.sort()

    vp_region = Region.of(visibility_polygon(P, q).polygon)
    added = {e: diffuse_extend(P, q, ReflectionSpec(frozenset({e}), ReflectionKind.DIFFUSE, 1)).added
             for e in candidates}
    target = P.area

    def covered_area(subset) -> Fraction:
        return union_reference([vp_region] + [added[e] for e in subset]).area

    if vp_region.area == target:
        return MirrorChoice(frozenset(), Fraction(0), True)
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if covered_area(subset) == target:
                extra = union_reference([added[e] for e in subset]).area
                return MirrorChoice(frozenset(subset), extra, True)
    best_subset = tuple(candidates)
    best_area = covered_area(best_subset)
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if covered_area(subset) == best_area:
                extra = union_reference([added[e] for e in subset]).area
                return MirrorChoice(frozenset(subset), extra, False)
    return MirrorChoice(frozenset(), Fraction(0), False)


def ray_landing_reference(P: SimplePolygon, q: Point, through: Point) -> Point:
    """Where the sight ray from q grazing `through` stops being inside P."""
    d = through - q
    ts = {Fraction(1)}
    ray = Segment(q, through)
    for e in P.edges():
        de = e.b - e.a
        denom = d.cross(de)
        w = e.a - q
        if denom == 0:
            if d.cross(w) == 0:
                ts.add(ray.param_of(e.a))
                ts.add(ray.param_of(e.b))
            continue
        t = w.cross(de) / denom
        s = w.cross(d) / denom
        if t >= 1 and 0 <= s <= 1:
            ts.add(t)
    ts = sorted(t for t in ts if t >= 1)
    landing = through
    for t0, t1 in zip(ts, ts[1:]):
        mid = q + d * ((t0 + t1) / 2)
        if P.contains(mid) is PointLocation.EXTERIOR:
            break
        landing = q + d * t1
    return landing


def classes_reference(layers) -> dict[frozenset[int], Region]:
    """`geom.classes` with a sweep layer per region, keyed by the per-layer counts."""
    signature = cache(lambda counts: frozenset(i for i, c in enumerate(counts) if c))
    return _sweep(layers, lambda c: tuple(c) if any(c) else None, signature)


def union_reference(regions) -> Region:
    """The union of the regions in one sweep with a layer per region: a cell is
    kept where the winding count of some layer is nonzero."""
    return overlay(list(regions), any)


def line_key_reference(a: Point, b: Point) -> tuple[int, int, int]:
    """The line through a and b as primitive integers (A, B, C), A*x + B*y = C, with
    A > 0, or A = 0 and B > 0, from its `Fraction` coefficients."""
    A = b.y - a.y
    B = a.x - b.x
    C = A * a.x + B * a.y
    denom = A.denominator * B.denominator * C.denominator
    ai, bi, ci = int(A * denom), int(B * denom), int(C * denom)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci)) or 1
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return (ai, bi, ci)


def cell_sides(parts) -> list[tuple[Point, Point, int]]:
    """Every side (a, b, 1) of the parts, from a vertex to the next."""
    return [(a, b, 1) for part in parts for a, b in zip(part.vertices, part.vertices[1:] + part.vertices[:1])]


def net_runs_reference(sides) -> list[tuple[Point, Point, int]]:
    """The net boundary of directed sides (a, b, w), each w times from a to b: on each
    line (`line_key_reference`) opposite sides cancel and collinear ones join into
    maximal runs (a, b, w) of constant nonzero multiplicity w, a before b (by x, or by
    y on a vertical line), w > 0 where the sides run from a to b."""
    lines: dict[tuple, dict] = {}
    for a, b, w in sides:
        key = line_key_reference(a, b)
        t = (lambda p: p.x) if key[1] else (lambda p: p.y)
        events = lines.setdefault(key, {})
        for p, dw in ((a, w), (b, -w)):
            events[t(p)] = (p, events.get(t(p), (p, 0))[1] + dw)
    runs = []
    for events in lines.values():
        net = 0
        for s in sorted(events):
            p, dw = events[s]
            if dw:
                if net:
                    runs.append((start, p, net))
                net += dw
                start = p
    return runs


def merge_region_reference(region: Region) -> Region:
    """`geom.merge_region` as it netted every side of the region's parts on `Point`s
    (`net_runs_reference`) and traced the loops of the net runs, falling back to the
    region itself where they pinch, hold a hole or overlap."""
    if len(region.parts) <= 1:
        return region
    out_map: dict[Point, list[Point]] = {}
    for a, b, net in net_runs_reference(cell_sides(region.parts)):
        if abs(net) > 1:
            return region
        out_map.setdefault(a if net > 0 else b, []).append(b if net > 0 else a)
    if any(len(dests) > 1 for dests in out_map.values()):
        return region
    loops, visited = [], set()
    for start in sorted(out_map, key=lambda p: (p.x, p.y)):
        if start in visited:
            continue
        loop, cur = [start], out_map[start][0]
        visited.add(start)
        while cur != start:
            if cur in visited or cur not in out_map:
                return region
            loop.append(cur)
            visited.add(cur)
            cur = out_map[cur][0]
        loops.append(loop)
    try:
        polys = [SimplePolygon.unchecked(loop) for loop in loops]
    except GeometryError:
        return region
    return Region(polys) if sum((p.area for p in polys), Fraction(0)) == region.area else region


def coordinate_bits_reference(region: Region) -> int:
    """The largest bit length of a coordinate's numerator or denominator over the
    vertices of the region's parts (a swept region's cells), as
    `Region.max_coordinate_bits` counted before it read the net boundary."""
    return max((c.bit_length() for part in region.parts for v in part.vertices for f in (v.x, v.y)
                for c in (f.numerator, f.denominator)), default=0)


def counts_each_layer_once(layers, shared) -> bool:
    """Whether `geom.classes(layers)` = shared counts each layer once: the sum of
    |set| * area over the classes equals the sum of the layers' areas exactly when no
    layer counts a point twice, as a count of 2 carries into the next layer's bit
    and a carry leaves fewer bits set than the counts' sum."""
    return (sum((len(sig) * region.area for sig, region in shared.items()), Fraction(0))
            == sum((layer.area for layer in layers), Fraction(0)))


def edge_indices_reference(P: SimplePolygon, edges) -> tuple[int, ...]:
    """The index in P of each edge a->b, read off one vertex -> index map."""
    at = {v: i for i, v in enumerate(P.vertices)}
    found = tuple(at.get(a, -1) for a, _ in edges)
    for i, (a, b) in zip(found, edges):
        if i < 0 or P.vertices[(i + 1) % P.n] != b:
            raise InvalidInstance(f"edge {a!r}->{b!r} not found in generated polygon")
    return found


def enumeration_reference(main, areas, k: Fraction) -> tuple[int, ...] | None:
    """The edges of `main` in the first mask, in increasing order, whose areas sum to k."""
    m = len(main)
    for mask in range(1 << m):
        if sum((areas[i] for i in range(m) if mask >> i & 1), Fraction(0)) == k:
            return tuple(main[i] for i in range(m) if mask >> i & 1)
    return None


def dir_cmp(d1, d2) -> int:
    """Angular order of two nonzero directions counterclockwise from (1, 0): -1, 0 or 1."""
    h1, h2 = (0 if (y > 0 or (y == 0 and x > 0)) else 1 for x, y in (d1, d2))
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else 1 if cr < 0 else 0


def primitive_direction(d: Point) -> tuple[int, int]:
    """A rational direction vector as its canonical primitive integer vector."""
    x, y = d.x.numerator * d.y.denominator, d.y.numerator * d.x.denominator
    g = gcd(x, y)
    return x // g, y // g


def midpoint(s: Segment) -> Point:
    return Point((s.a.x + s.b.x) / 2, (s.a.y + s.b.y) / 2)


def validate_disjoint(region: Region) -> bool:
    """Quadratic check that the region's part interiors are pairwise disjoint."""
    polys = [Region.of(p) for p in region.parts]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if region_intersection(polys[i], polys[j]).area != 0:
                return False
    return True


def region_sample_points(region: Region, rng, k: int, *, grid: int = 1 << 20) -> list[Point]:
    """k random interior points, exact rational coordinates on a fine grid."""
    cells = overlay([region], any).parts  # the sampler needs convex cells
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

