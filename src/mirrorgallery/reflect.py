"""Visibility extension through reflecting edges.

Diffuse extension runs a bounce cascade. The source lights the VP's ring
edges on the designated edges (a line through it hosts none), and a part s
of an edge e re-emits to the points left of e that see a positive length of
s: the fans weak visibility is also built from (`visibility._seeing`, which
holds the argument, kept on the polygon), which give the sweep their edges
in integers and build no polygon; the fans of one depth are unioned as one
netted layer in one sweep, and newly lit parts of other designated edges,
read off the boundary of the VP and the added region so far
(`geom.sides_along`), re-emit at the next depth, up to the bounce budget.
Each depth is a step memoized on the polygon (`geom.memo_per_polygon`) that
extends the memoized depth before it, so a call at budget r reuses what
earlier calls from the same source over the same edges ran. A depth carries
the added cells so far, from one sweep of the VP, the previous depth's
cells and its own region, and a call returns them as they are. Specular
extension unfolds the source across the mirror line and splits the wedge
from there through each lit part of the mirror at the vertex directions, in
the integer frame of `visibility`: the first edge beyond the mirror in each
sub-wedge closes one exact quad, and the quads of a part are one integer
ring, a fan cut off by the mirror. The frame is kept on the polygon per
source and mirror line, so mirrors on one line unfold the source once and
share it. Added regions are kept disjoint from
direct visibility so their exact areas sum. The coordinate bit cap
(`MG_BIT_CAP`) holds on the merged rings of every depth region, the added
region and the specular region, on every call; cells whose bound from the
sweep's runs is within it are not merged, nor built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from .errors import BitBlowup, ParseError, SourceOnMirrorLine, SpecMismatch
from .geom import (
    Orientation,
    Point,
    Region,
    Segment,
    SimplePolygon,
    _int_line,
    along,
    memo_per_polygon,
    merge_intervals,
    merge_region,
    orientation,
    overlay,
    region_difference,
    region_union_all,
    sides_along,
    subtract_intervals,
)
from .visibility import (
    VisibilityPolygon,
    _Frame,
    _fan,
    _frame,
    _lit,
    _primitive,
    _seeing,
    visibility_polygon,
)

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


def _check_bits(region: Region, where: str, bits: int):
    # the cap measures merged rings: the sweep's slab crossings give cells
    # more bits than the region's own boundary. A merged ring keeps a subset
    # of the cells' vertices, so cells whose bound (bits) is within the cap
    # need no merge
    cap = _bit_cap()
    if bits > cap:
        bits = merge_region(region).max_coordinate_bits()
    if bits > cap:
        raise BitBlowup(f"{bits} coordinate bits after {where} exceeds cap {cap}")


@dataclass(frozen=True)
class _Cascade:
    """The diffuse cascade from one source over one edge set run to depth d:
    memoized on the polygon per d, and never mutated once stored. `added`
    is what `diffuse_extend` returns at budget d; with the VP ring it is
    the covered region the next depth lights edges from."""

    vp: VisibilityPolygon
    records: tuple[IlluminatedEdgePart, ...]  # the parts first lit at each depth below max(d, 1)
    regions: tuple[Region, ...]  # the region reached at each depth from 1 to d, fewer if it stopped
    bits: tuple[int, ...]  # a bound on the cells' coordinate bit length of each region
    added: Region  # the cells outside the VP that the regions cover
    added_bits: int  # a bound on the coordinate bit length of its cells


def _light(P: SimplePolygon, edges, depth: int, covered: list[Region], records: list):
    """Append to records the parts of each designated edge first lit at depth >= 1:
    its pieces on the boundary of the covered regions, which lie in P (`geom.sides_along`).

    Parts are ordered, merged and subtracted by an exact coordinate along the
    edge (`geom.along`); every interval end is the coordinate of a part's
    endpoint, which the fresh parts are rebuilt from."""
    for e in sorted(edges):
        a, b = P.vertices[e], P.vertices[(e + 1) % P.n]
        t = along(a, b)
        parts, lit = sides_along(covered, a, b), [s for x in records if x.edge == e for s in x.subsegments]
        ends = {t(p): p for s in parts + lit for p in (s.a, s.b)}
        fresh = subtract_intervals(merge_intervals([tuple(sorted((t(s.a), t(s.b)))) for s in parts]),
                                   merge_intervals([(t(s.a), t(s.b)) for s in lit]))
        if fresh:
            records.append(IlluminatedEdgePart(e, tuple(Segment(ends[t0], ends[t1]) for t0, t1 in fresh), depth))


@memo_per_polygon
def _cascade(P: SimplePolygon, q: Point, edges: frozenset[int], depth: int) -> _Cascade:
    """The cascade run to `depth` bounces: one step beyond the memoized cascade
    at depth - 1, whose light pass runs only now."""
    if depth == 0:
        # an edge's maximal lit parts are the VP's ring edges on it: none if q is on its line
        vp = visibility_polygon(P, q)
        lit = ((e, vp.edge_parts(e)) for e in sorted(edges))
        records = tuple(IlluminatedEdgePart(e, tuple(parts), 0) for e, parts in lit if parts)
        return _Cascade(vp, records, (), (), Region.empty(), 0)
    prev = _cascade(P, q, edges, depth - 1)
    if len(prev.regions) < depth - 1:
        return prev  # stopped before depth - 1
    if prev.vp.area + prev.added.area == P.area:
        return prev  # saturated: nothing further to light
    records = list(prev.records)
    if depth > 1:  # no cell is built: the lit parts are read off the VP's and `added`'s boundaries
        _light(P, edges, depth - 1, [prev.vp.region, prev.added], records)

    # a part s re-emits to the points left of its edge that see it (`_seeing`)
    dr = region_union_all([fan for part in records if part.bounce_depth == depth - 1
                           for s in part.subsegments for fan in _seeing(P, s)])
    if dr.is_empty:  # the cascade stops here
        return _Cascade(prev.vp, tuple(records), prev.regions, prev.bits, prev.added, prev.added_bits)
    added = overlay([prev.vp.region, prev.added, dr], lambda c: not c[0] and (c[1] or c[2]))
    return _Cascade(prev.vp, tuple(records), (*prev.regions, dr), (*prev.bits, dr._bits_bound()), added,
                    added._bits_bound())


def diffuse_extend(P: SimplePolygon, q: Point, spec: ReflectionSpec) -> ExtendedVisibility:
    """Fixpoint of the diffuse bounce cascade up to the bounce budget.

    Every depth is memoized on P, so a call extends the deepest cascade
    already run from q over these edges. The bit cap in force is checked
    on every call, memoized depths included.
    """
    if spec.kind is not ReflectionKind.DIFFUSE:
        raise SpecMismatch("diffuse_extend requires a diffuse spec")
    visibility_polygon(P, q)  # memoized for the cascade; raises QueryOutsidePolygon first
    for e in spec.edges:
        if not (0 <= e < P.n):
            raise SpecMismatch(f"edge index {e} out of range")

    state = _cascade(P, q, spec.edges, 0)
    for depth in range(1, spec.max_bounces + 1):
        state = _cascade(P, q, spec.edges, depth)
        if len(state.regions) < depth:
            break
        _check_bits(state.regions[-1], f"bounce depth {depth}", state.bits[-1])
    _check_bits(state.added, "the added region", state.added_bits)
    return ExtendedVisibility(state.vp, state.added, state.records)


@memo_per_polygon
def _unfolded(P: SimplePolygon, q: Point, line: tuple[int, int, int]) -> _Frame:
    """P's frame from q mirrored in the line A*x + B*y = C, kept on P: mirrors on one line share it."""
    A, B, C = line
    t = 2 * (A * q.x + B * q.y - C) / (A * A + B * B)
    return _frame(P, Point(q.x - t * A, q.y - t * B))


def specular_extend_single(P: SimplePolygon, q: Point, e: int) -> ExtendedVisibility:
    """Single-bounce mirror extension of the visibility polygon via edge e."""
    if not (0 <= e < P.n):
        raise SpecMismatch(f"edge index {e} out of range")
    vp = visibility_polygon(P, q)  # raises QueryOutsidePolygon
    a, b = P.edge(e).a, P.edge(e).b
    side = orientation(a, b, q)
    if side is Orientation.COLLINEAR:
        raise SourceOnMirrorLine(f"{q!r} lies on the supporting line of edge {e}")
    vis = vp.edge_parts(e)
    if side is Orientation.CW or not vis:
        # the mirror faces away from the source, or receives no light
        return ExtendedVisibility(vp, Region.empty(), (IlluminatedEdgePart(e, tuple(vis), 0),))

    # unfold the source across the mirror line to q2 and split the wedge
    # from q2 through each lit part at the vertex directions: each sub-wedge
    # meets one edge beyond the mirror, which closes its quad, and the quads
    # of a part are one ring from the mirror, a fan cut off by its line. A lit
    # part runs along e, and q2 lies right of e, so its directions turn
    # counterclockwise from its end to its start
    A, B, C = _int_line(a, b)  # the mirror's line, reduced with A > 0 or A = 0 < B, keys the unfolding
    g = gcd(A, B, C) if (A, B) > (0, 0) else -gcd(A, B, C)
    frame = _unfolded(P, q, (A // g, B // g, C // g))
    runs = []
    for sigma in vis:
        da, db = (_primitive(*frame.local(w)[:2]) for w in (sigma.a, sigma.b))
        runs += _lit(frame, db, da, beyond=e)
    added = region_difference(_fan(frame, runs, near=e), vp.region)
    _check_bits(added, "specular bounce", added._bits_bound())
    return ExtendedVisibility(vp, added, (IlluminatedEdgePart(e, tuple(vis), 0),))


def extend_all_edges(P: SimplePolygon, q: Point, r: int) -> ExtendedVisibility:
    """Diffuse extension with every polygon edge reflective."""
    spec = ReflectionSpec(frozenset(range(P.n)), ReflectionKind.DIFFUSE, r)
    return diffuse_extend(P, q, spec)
