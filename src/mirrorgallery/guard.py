"""Reflection-aware vertex guarding of simple polygons.

One exact overlay of the polygon and the r-bounce extended region of
every candidate guard splits the polygon into coverage classes: the parts
covered by exactly the same guards. Every class boundary is a boundary of
some guard's region, so a guard covers a class wholly or not at all, and
the class areas must sum exactly to the polygon's area. Guarding is then
exact set cover over the classes: greedy with deterministic tie-breaking,
brute-force optimal for small instances, and a spanning-tree class
reduction whose output is certified by the same overlay over the kept
guards instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    CoverageCertificationFailed,
    GraphDisconnected,
    InvariantViolated,
    SpecMismatch,
    TooLarge,
)
from .geom import (
    Point,
    Region,
    Segment,
    SimplePolygon,
    classes,
    memo_per_polygon,
    region_join,
)
from .reflect import extend_all_edges
from .visibility import visibility_polygon


@dataclass(frozen=True)
class CellDecomposition:
    """Coverage classes of a polygon for a list of guard points.

    `cells[i]` is the part of the polygon covered by exactly the guard
    points `signatures[i]` (indices into the list the classes were built
    for); `layers` are the polygon and the points' extended regions.
    """

    level: int
    cells: tuple[Region, ...]
    signatures: tuple[frozenset[int], ...]
    layers: tuple[Region, ...]

    @property
    def generating_segments(self) -> tuple[Segment, ...]:
        """The edges of the layers' parts, whose net boundary the overlay swept."""
        return tuple(e for layer in self.layers for part in layer.parts for e in part.edges())


@dataclass(frozen=True)
class GuardSolution:
    guards: tuple[int, ...]
    r: int
    coverage_certificate: tuple[int, ...]  # per coverage class, an index into `guards`


@dataclass(frozen=True)
class GuardGraph:
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


@memo_per_polygon
def extended_region(P: SimplePolygon, p: Point, r: int) -> Region:
    """Closed region reachable from p with up to r diffuse bounces, all edges reflective.

    Its parts are the VP ring of p and, for r >= 1, the added cells of the
    cascade, which lie outside it; the join reads their areas and net
    boundaries and builds the cells only when the parts are read. The last
    256 results per polygon are kept on it (`geom.memo_per_polygon`).
    """
    vp = visibility_polygon(P, p).region
    return vp if r == 0 else region_join([vp, extend_all_edges(P, p, r).added])


def coverage_classes(P: SimplePolygon, points: Sequence[Point], r: int) -> CellDecomposition:
    """Group the polygon by which guard points cover it under r bounces.

    The `geom.classes` of P (layer 0) and every point's extended region
    that lie inside P, keyed by the covering points: every class boundary
    is a boundary of some layer, so coverage is exact.
    Certified before returning: the class areas sum exactly to the area of
    P, and every class is covered by some point.
    """
    layers = [Region.of(P)] + [extended_region(P, p, r) for p in points]
    inside = {frozenset(i - 1 for i in sig if i): cell
              for sig, cell in classes(layers).items() if 0 in sig}
    cells = tuple(inside.values())
    area = sum((c.area for c in cells), Fraction(0))
    if area != P.area:
        raise CoverageCertificationFailed(f"coverage classes sum to {area}, polygon area is {P.area}")
    if frozenset() in inside:
        raise CoverageCertificationFailed(
            f"{len(points)} guard points leave area {inside[frozenset()].area} "
            f"uncovered at {r} bounces"
        )
    return CellDecomposition(r, cells, tuple(inside), tuple(layers))


def decompose(P: SimplePolygon, r: int) -> CellDecomposition:
    """Coverage classes of P for all its vertices under r bounces."""
    return coverage_classes(P, P.vertices, r)


def coverage_sets(
    P: SimplePolygon, decomposition: CellDecomposition, guard_points: list[Point], r: int
) -> list[set[int]]:
    """For each guard vertex, the set of class indices of `decompose(P, r)` it covers."""
    if r != decomposition.level:
        raise SpecMismatch(f"classes were built for {decomposition.level} bounces, not {r}")
    index = {v: i for i, v in enumerate(P.vertices)}
    out = []
    for p in guard_points:
        if p not in index:
            raise SpecMismatch(f"{p!r} is not a vertex of the polygon")
        vi = index[p]
        out.append({ci for ci, sig in enumerate(decomposition.signatures) if vi in sig})
    return out


def greedy_cover(P: SimplePolygon, r: int) -> GuardSolution:
    """Greedy set cover over coverage classes; lowest vertex index wins ties."""
    decomposition = decompose(P, r)
    points = list(P.vertices)
    sets = coverage_sets(P, decomposition, points, r)
    ncells = len(decomposition.cells)
    uncovered = set(range(ncells))
    chosen: list[int] = []
    while uncovered:
        best = max(range(len(points)), key=lambda vi: (len(sets[vi] & uncovered), -vi))
        if not sets[best] & uncovered:
            raise CoverageCertificationFailed("some class is covered by no vertex")
        chosen.append(best)
        uncovered -= sets[best]
    certificate = _certificate(ncells, chosen, sets)
    return GuardSolution(tuple(chosen), r, certificate)


def _certificate(ncells: int, chosen: list[int], sets: list[set[int]]) -> tuple[int, ...]:
    cert = tuple(next((gi for gi, vi in enumerate(chosen) if ci in sets[vi]), None) for ci in range(ncells))
    if None in cert:
        raise CoverageCertificationFailed(f"class {cert.index(None)} uncovered")
    return cert


def optimal_cover_bruteforce(P: SimplePolygon, r: int) -> GuardSolution:
    """Minimum-cardinality vertex guard set by subset enumeration (n <= 16)."""
    if P.n > 16:
        raise TooLarge(f"{P.n} vertices exceeds the brute-force limit of 16")
    decomposition = decompose(P, r)
    points = list(P.vertices)
    sets = coverage_sets(P, decomposition, points, r)
    ncells = len(decomposition.cells)
    universe = set(range(ncells))
    for size in range(1, P.n + 1):
        for combo in combinations(range(P.n), size):
            if set().union(*(sets[vi] for vi in combo)) == universe:
                certificate = _certificate(ncells, list(combo), sets)
                return GuardSolution(tuple(combo), r, certificate)
    raise CoverageCertificationFailed("no vertex subset covers all classes")


def _mutual_one_bounce(P: SimplePolygon, a: Point, b: Point) -> bool:
    return extended_region(P, a, 1).covers(b)


def graph_from_points(P: SimplePolygon, points: list[Point]) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, j in combinations(range(len(points)), 2)
                     if _mutual_one_bounce(P, points[i], points[j]))


def build_guard_graph(P: SimplePolygon, S) -> GuardGraph:
    """Graph on guards with edges for direct or one-diffuse-bounce mutual sight."""
    guards = tuple(S.guards) if isinstance(S, GuardSolution) else tuple(S)
    points = [P.vertices[g] for g in guards]
    local = graph_from_points(P, points)
    edges = frozenset((guards[i], guards[j]) for i, j in local)
    return GuardGraph(guards, edges)


def _bfs_levels(nodes: list[int], edges: frozenset[tuple[int, int]], root: int):
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    return level


def reduce_guard_points(
    P: SimplePolygon, points: list[Point], r: int
) -> tuple[list[int], tuple[int, ...]]:
    """Spanning-tree class reduction over arbitrary guard positions.

    Returns indices (into `points`) of the kept class plus a per-class
    certificate (the first kept guard covering each coverage class of the
    kept guards), after the coverage classes certify that the kept guards
    cover the polygon with r diffuse bounces over all edges.
    """
    if r < 0:
        raise SpecMismatch("bounce budget must be non-negative")
    idx = list(range(len(points)))
    edges = graph_from_points(P, points)
    root = 0
    levels = _bfs_levels(idx, edges, root)
    if len(levels) != len(points):
        raise GraphDisconnected("guard graph is not connected")
    k = 1 + r // 4
    classes: dict[int, list[int]] = {c: [] for c in range(k)}
    for v, lv in levels.items():
        classes[lv % k].append(v)
    best_class = min(range(k), key=lambda c: (len(classes[c]) if classes[c] else len(points) + 1, c))
    kept = sorted(classes[best_class])
    if not kept:
        kept = [root]
    bound = -(-len(points) // k)  # ceil
    if len(kept) > bound:
        raise InvariantViolated(f"kept {len(kept)} guards, pigeonhole bound is {bound}")

    certified = coverage_classes(P, [points[i] for i in kept], r)
    return kept, tuple(min(sig) for sig in certified.signatures)


def spanning_tree_reduce(P: SimplePolygon, S: GuardSolution, r: int) -> GuardSolution:
    """Keep one residue class of spanning-tree levels; certify r-bounce coverage."""
    guards = list(S.guards)
    points = [P.vertices[g] for g in guards]
    kept_local, cert = reduce_guard_points(P, points, r)
    kept = tuple(guards[i] for i in kept_local)
    return GuardSolution(kept, r, cert)
