"""Visibility extension through reflecting edges.

Diffuse extension runs a bounce cascade: edge parts lit by the source
re-emit into the inner half-plane of their host edge via weak visibility,
newly lit parts of other designated edges re-emit at the next depth, and
so on up to the bounce budget. Specular extension unfolds the source
across the mirror line and fans exact wedge quads through the visible
part of the mirror. Added regions are kept disjoint from direct
visibility so their exact areas can be summed and thresholded.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (BitBlowup, GeometryError, ParseError, QueryOutsidePolygon,
                     SourceOnMirrorLine, SpecMismatch)
from .geom import (
    Orientation,
    Point,
    PointLocation,
    Region,
    Segment,
    SimplePolygon,
    _shoelace2,
    merge_intervals,
    merge_region,
    orientation,
    region_clip_halfplane,
    region_difference,
    region_union_all,
    segment_parts_inside,
    subtract_intervals,
)
from .visibility import (
    VisibilityPolygon,
    _Frame,
    _primitive_direction,
    visibility_polygon,
    weak_visibility_polygon,
)

logger = logging.getLogger(__name__)

DEFAULT_BIT_CAP = 4096


def _bit_cap() -> int:
    raw = os.environ.get("MG_BIT_CAP")
    if not raw:
        return DEFAULT_BIT_CAP
    cap = int(raw) if raw.strip().isdecimal() else 0
    if cap <= 0:
        raise ParseError(f"MG_BIT_CAP must be a positive integer, not {raw!r}")
    return cap


class ReflectionKind(Enum):
    DIFFUSE = "diffuse"
    SPECULAR = "specular"


@dataclass(frozen=True)
class ReflectionSpec:
    """Which edges reflect, how, and how many bounces are allowed."""

    edges: frozenset[int]
    kind: ReflectionKind
    max_bounces: int

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.max_bounces < 0:
            raise SpecMismatch("bounce budget must be non-negative")
        if self.kind is ReflectionKind.SPECULAR and self.max_bounces > 1:
            raise SpecMismatch(
                "specular reflection supports at most one bounce; "
                "multi-bounce specular area accounting is not defined here"
            )


@dataclass(frozen=True)
class IlluminatedEdgePart:
    edge: int
    subsegments: tuple[Segment, ...]
    bounce_depth: int


@dataclass(frozen=True)
class ExtendedVisibility:
    direct: VisibilityPolygon
    added: Region
    per_edge_illumination: tuple[IlluminatedEdgePart, ...] = field(default_factory=tuple)


def added_area(ev: ExtendedVisibility) -> Fraction:
    return ev.added.area


def visible_edge_parts(P: SimplePolygon, src, e: int) -> list[Segment]:
    """Maximal subsegments of edge e lit by the source.

    A point source lights the parts it sees directly; a region source
    lights the parts of the edge the region reaches.
    """
    if not (0 <= e < P.n):
        raise SpecMismatch(f"edge index {e} out of range")
    edge_seg = P.edge(e)
    if isinstance(src, Point):
        vp = visibility_polygon(P, src)
        return segment_parts_inside(edge_seg, [vp.polygon])
    if isinstance(src, Region):
        return segment_parts_inside(edge_seg, list(src._query_parts))
    raise SpecMismatch(f"unsupported source {src!r}")


def _check_bits(region: Region, where: str):
    bits = region.max_coordinate_bits()
    logger.debug("coordinate bits after %s: %d", where, bits)
    cap = _bit_cap()
    if bits > cap:
        raise BitBlowup(f"{bits} coordinate bits after {where} exceeds cap {cap}")


def diffuse_extend(P: SimplePolygon, q: Point, spec: ReflectionSpec) -> ExtendedVisibility:
    """Fixpoint of the diffuse bounce cascade up to the bounce budget."""
    if spec.kind is not ReflectionKind.DIFFUSE:
        raise SpecMismatch("diffuse_extend requires a diffuse spec")
    if P.contains(q) is PointLocation.EXTERIOR:
        raise QueryOutsidePolygon(f"{q!r} is outside the polygon")
    for e in spec.edges:
        if not (0 <= e < P.n):
            raise SpecMismatch(f"edge index {e} out of range")

    vp = visibility_polygon(P, q)
    vp_region = Region.of(vp.polygon)
    records: list[IlluminatedEdgePart] = []
    lit: dict[int, list[tuple[Fraction, Fraction]]] = {}
    newly: dict[int, list[Segment]] = {}

    for e in sorted(spec.edges):
        edge_seg = P.edge(e)
        a, b = edge_seg.a, edge_seg.b
        # an edge collinear with the source receives only grazing light and
        # re-emits nothing
        if orientation(a, b, q) is Orientation.COLLINEAR:
            continue
        parts = segment_parts_inside(edge_seg, [vp.polygon])
        if not parts:
            continue
        newly[e] = parts
        lit[e] = merge_intervals(
            [tuple(sorted((edge_seg.param_of(s.a), edge_seg.param_of(s.b)))) for s in parts]
        )
        records.append(IlluminatedEdgePart(e, tuple(parts), 0))

    if vp.polygon.area == P.area:
        # direct visibility already saturates; no bounce can add anything
        return ExtendedVisibility(vp, Region.empty(), tuple(records))

    depth_regions: list[Region] = []
    covered = vp_region
    for depth in range(1, spec.max_bounces + 1):
        pieces = []
        for e in sorted(newly):
            edge_seg = P.edge(e)
            for s in newly[e]:
                w = weak_visibility_polygon(P, s)
                w = region_clip_halfplane(w, edge_seg.a, edge_seg.b)
                if not w.is_empty:
                    pieces.append(w)
        if not pieces:
            break
        dr = region_union_all(pieces)
        _check_bits(dr, f"bounce depth {depth}")
        depth_regions.append(dr)
        covered = region_union_all([covered, dr])
        if covered.area == P.area:
            break  # saturated: nothing further to light
        if depth == spec.max_bounces:
            break
        newly = {}
        for e in sorted(spec.edges):
            edge_seg = P.edge(e)
            parts = segment_parts_inside(edge_seg, list(covered._query_parts))
            if not parts:
                continue
            ivals = [
                tuple(sorted((edge_seg.param_of(s.a), edge_seg.param_of(s.b)))) for s in parts
            ]
            fresh = subtract_intervals(merge_intervals(ivals), lit.get(e, []))
            if not fresh:
                continue
            segs = [Segment(edge_seg.point_at(t0), edge_seg.point_at(t1)) for t0, t1 in fresh]
            newly[e] = segs
            lit[e] = merge_intervals(lit.get(e, []) + fresh)
            records.append(IlluminatedEdgePart(e, tuple(segs), depth))
        if not newly:
            break

    if depth_regions:
        added = region_difference(region_union_all(depth_regions), vp_region)
    else:
        added = Region.empty()
    return ExtendedVisibility(vp, added, tuple(records))


def reflect_point_across_line(p: Point, a: Point, b: Point) -> Point:
    d = b - a
    n = Point(-d.y, d.x)
    scale = 2 * (p - a).dot(n) / n.dot(n)
    return Point(p.x - scale * n.x, p.y - scale * n.y)


def specular_extend_single(P: SimplePolygon, q: Point, e: int) -> ExtendedVisibility:
    """Single-bounce mirror extension of the visibility polygon via edge e."""
    if not (0 <= e < P.n):
        raise SpecMismatch(f"edge index {e} out of range")
    if P.contains(q) is PointLocation.EXTERIOR:
        raise QueryOutsidePolygon(f"{q!r} is outside the polygon")
    edge_seg = P.edge(e)
    a, b = edge_seg.a, edge_seg.b
    side = orientation(a, b, q)
    if side is Orientation.COLLINEAR:
        raise SourceOnMirrorLine(f"{q!r} lies on the supporting line of edge {e}")
    vp = visibility_polygon(P, q)
    vp_region = Region.of(vp.polygon)
    vis = segment_parts_inside(edge_seg, [vp.polygon])
    if side is Orientation.CW or not vis:
        # the mirror faces away from the source, or receives no light
        return ExtendedVisibility(vp, Region.empty(), (IlluminatedEdgePart(e, tuple(vis), 0),))

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
            far_edge = frame.first_hit(*_primitive_direction(wm - q2), beyond=e)
            if far_edge is None:
                continue
            x0 = frame.ray_point(_primitive_direction(w0 - q2), far_edge)
            x1 = frame.ray_point(_primitive_direction(w1 - q2), far_edge)
            ring = [w0, w1, x1, x0]
            if _shoelace2(ring) < 0:
                ring.reverse()
            try:
                pieces.append(SimplePolygon.unchecked(ring))
            except GeometryError:
                continue
    if not pieces:
        added = Region.empty()
    else:
        added = region_difference(merge_region(Region(pieces)), vp_region)
        _check_bits(added, "specular bounce")
    return ExtendedVisibility(vp, added, (IlluminatedEdgePart(e, tuple(vis), 0),))


def extend_all_edges(P: SimplePolygon, q: Point, r: int) -> ExtendedVisibility:
    """Diffuse extension with every polygon edge reflective."""
    spec = ReflectionSpec(frozenset(range(P.n)), ReflectionKind.DIFFUSE, r)
    return diffuse_extend(P, q, spec)
