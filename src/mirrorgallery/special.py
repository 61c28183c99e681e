"""Constant-size solvers for funnels and edge-weakly-visible polygons.

A funnel has exactly three convex corners: the two chord endpoints and the
apex; both boundary chains between them are strictly reflex. For a query point
inside a funnel, the candidate reflecting edges that matter are the ones
touched by the four tangent contacts, so mirror selection enumerates at most a
handful of edge subsets. The contacts are read off the query point's visibility
polygon, with no segment split or ray cast here. For polygons weakly visible
from a chord, the chord is certified as the best single reflector, and
chord - adjacent edge - chord is the three-bounce cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    CertificationFailed,
    InvariantViolated,
    NotAFunnel,
    NotWeaklyVisible,
    QueryOutside,
)
from .geom import (
    Point,
    PointLocation,
    Region,
    SimplePolygon,
    classes,
    region_interior_points,
)
from .reflect import ReflectionKind, ReflectionSpec, diffuse_extend
from .visibility import visibility_polygon, weak_visibility_polygon


@dataclass(frozen=True)
class Funnel:
    polygon: SimplePolygon
    chord: int  # edge index (u -> v)
    apex: int  # vertex index
    left_chain: tuple[int, ...]  # u back to apex, clockwise walk
    right_chain: tuple[int, ...]  # v forward to apex

    @property
    def u(self) -> int:
        return self.chord

    @property
    def v(self) -> int:
        return (self.chord + 1) % self.polygon.n


@dataclass(frozen=True)
class TangentContact:
    point: Point
    chain: str  # "left" | "right"
    edges: tuple[int, ...]  # polygon edges containing the contact


@dataclass(frozen=True)
class TangentQuadruple:
    p1: TangentContact  # upper tangent contact on the left chain
    p2: TangentContact  # landing of that tangent on the right chain
    p3: TangentContact  # lower tangent contact on the right chain
    p4: TangentContact  # lower tangent contact on the left chain

    def contacts(self) -> tuple[TangentContact, ...]:
        return (self.p1, self.p2, self.p3, self.p4)


@dataclass(frozen=True)
class MirrorChoice:
    edges: frozenset[int]
    added: Fraction
    covers_all: bool


def detect_funnel(P: SimplePolygon) -> Funnel:
    """Recognize a funnel: chord edge, apex, and two strictly reflex chains."""
    convex = [i for i in range(P.n) if i not in P.reflex_indices()]
    if len(convex) != 3:
        bad = convex[3] if len(convex) > 3 else None
        raise NotAFunnel(
            f"expected exactly 3 convex corners, found {len(convex)}", violating_vertex=bad
        )
    convex_set = set(convex)
    for c in convex:
        if (c + 1) % P.n in convex_set:
            u, v = c, (c + 1) % P.n
            apex = next(i for i in convex if i not in {u, v})
            # both chains run from the chord's end to the apex, both included
            left = tuple((u - k) % P.n for k in range((u - apex) % P.n + 1))
            right = tuple((v + k) % P.n for k in range((apex - v) % P.n + 1))
            return Funnel(P, u, apex, left, right)
    raise NotAFunnel("no two convex corners are adjacent; chord side is not a single edge")


def _contact(P: SimplePolygon, p: Point, chain: str) -> TangentContact:
    return TangentContact(p, chain, tuple(i for i in range(P.n) if P.edge(i).contains_point(p)))


def funnel_tangents(F: Funnel, q: Point) -> TangentQuadruple:
    """The tangent contacts of the view from q, an interior point of the funnel.

    q sees the chain vertices its closed visibility polygon covers: p1 and p4
    are the visible left-chain vertices nearest the apex and the chord, p3 the
    visible right-chain vertex nearest the chord. p2 is the far end of the VP's
    side along the sight ray through p1, which p1 may lie inside, or p1.
    """
    P = F.polygon
    if P.contains(q) is not PointLocation.INTERIOR:
        raise QueryOutside(f"{q!r} is not interior to the funnel")
    vp = visibility_polygon(P, q)
    # chains are ordered chord-end first, apex last
    vis_left = [P.vertices[i] for i in F.left_chain if vp.region.covers(P.vertices[i])]
    vis_right = [P.vertices[i] for i in F.right_chain if vp.region.covers(P.vertices[i])]
    p1 = vis_left[-1]
    ends = [p for ray in vp.ray_sides if ray.contains_point(p1) for p in (ray.a, ray.b)]
    p2 = max(ends, key=lambda p: (p - q).dot(p - q), default=p1)
    return TangentQuadruple(_contact(P, p1, "left"), _contact(P, p2, "right"),
                            _contact(P, vis_right[0], "right"), _contact(P, vis_left[0], "left"))


def _single_bounce_added(P: SimplePolygon, q: Point, e: int) -> Region:
    spec = ReflectionSpec(frozenset({e}), ReflectionKind.DIFFUSE, 1)
    return diffuse_extend(P, q, spec).added


def funnel_best_mirrors(F: Funnel, q: Point, *, include_chord: bool = False) -> MirrorChoice:
    """Smallest candidate-edge subset whose one-bounce extensions finish the funnel.

    Candidates are the edges containing the tangent contacts (the chord only
    when explicitly allowed). When no subset reaches full coverage the
    maximal-coverage subset of minimum size is returned instead.
    """
    P = F.polygon
    quad = funnel_tangents(F, q)
    candidates = sorted({e for c in quad.contacts() for e in c.edges if e != F.chord}
                        | ({F.chord} if include_chord else set()))
    if len(candidates) > 8:
        raise InvariantViolated(f"{len(candidates)} tangent candidate edges exceed the cap of 8")

    vp_region = visibility_polygon(P, q).region
    if vp_region.area == P.area:
        return MirrorChoice(frozenset(), Fraction(0), True)
    # layer 0 is the VP and layer 1 + k the added region of candidates[k]
    shared = classes([vp_region] + [_single_bounce_added(P, q, e) for e in candidates])

    def area_of(layers) -> Fraction:
        return sum((c.area for sig, c in shared.items() if not sig.isdisjoint(layers)), Fraction(0))

    # covering grows with the subset, so the full set covers the most and
    # reaches the polygon's area exactly when some subset does
    best_area = area_of(range(len(candidates) + 1))
    for size in range(1, len(candidates) + 1):
        for subset in combinations(range(len(candidates)), size):
            layers = [1 + k for k in subset]
            if area_of([0] + layers) == best_area:
                return MirrorChoice(frozenset(candidates[k] for k in subset), area_of(layers),
                                    best_area == P.area)
    return MirrorChoice(frozenset(), Fraction(0), False)


def _check_weakly_visible(P: SimplePolygon, chord: int):
    w = weak_visibility_polygon(P, P.edge(chord))
    if w.area != P.area:
        raise NotWeaklyVisible(f"chord edge {chord} does not weakly cover the polygon")


def wvp_best_single_edge(P: SimplePolygon, chord: int, q: Point) -> int:
    """Certify that the chord is the best one-bounce reflector for q."""
    _check_weakly_visible(P, chord)
    chord_added = _single_bounce_added(P, q, chord).area
    for e in range(P.n):
        if e == chord:
            continue
        other = _single_bounce_added(P, q, e).area
        if other > chord_added:
            raise CertificationFailed(
                f"edge {e} adds {other} which exceeds the chord's {chord_added}"
            )
    return chord


def wvp_three_reflection_cover(
    P: SimplePolygon, chord: int, *, samples: int = 20
) -> list[int]:
    """Bounce sequence chord -> adjacent edge -> chord covering the polygon.

    Checked by exact area equality, the direct and three-bounce added areas
    summing to the polygon's, for `samples` deterministic interior query
    points (`region_interior_points`) only, not for every query point.
    """
    _check_weakly_visible(P, chord)
    edge_au = (chord - 1) % P.n
    spec = ReflectionSpec(frozenset({chord, edge_au}), ReflectionKind.DIFFUSE, 3)
    for q in region_interior_points(Region.of(P), samples):
        ev = diffuse_extend(P, q, spec)
        if ev.direct.area + ev.added.area != P.area:
            raise CertificationFailed(
                f"three-bounce cover misses area for query point {q!r}"
            )
    return [chord, edge_au, chord]
