"""Generators for subset-sum reduction polygons, with exact verification.

Two families are produced. The mirror family hangs value-sized right
triangles below the floor of a broad chamber and places one horizontal
mirror edge per value at half the spike's x-range, so the unfolded source
lands exactly on the spike mouth: choosing mirror i adds exactly value i
of area, and nothing else reaches a spike. The bounce family sits
"double triangle" gadgets on top of a rectangle: each gadget is a right
triangle whose hypotenuse lies on a sight ray of the source, with a thin
top triangle of exactly value i hidden behind it; reflecting off the
triangle's vertical side adds exactly value i, while the rectangle floor
leaks only a fractional sliver.

Every generated instance is verified clause by clause with the actual
reflection machinery before use; verification failures are surfaced, not
patched over. Each step runs once: a generator computes each gadget point
once and builds its ring unchecked, with its edges at known positions; the
`simple` clause alone certifies the ring, and if it fails verification
stops (`mg reduce-gen` exits 6). The report keeps the added regions and
whether two of them overlap, read off the `exclusive` clause's sweep, for
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import GeometryError, InvalidInstance, InvariantViolated, TooLarge, VerificationFailed
from .geom import (
    Point,
    PointLocation,
    Region,
    SimplePolygon,
    classes,
    region_intersection,
)
from .reflect import (
    ReflectionKind,
    ReflectionSpec,
    diffuse_extend,
    specular_extend_single,
)
from .visibility import visibility_polygon


class ReductionKind(Enum):
    SPECULAR_SINGLE = "specular-single"
    DIFFUSE_SINGLE = "diffuse-single"
    DIFFUSE_MULTI = "diffuse-multi"


@dataclass(frozen=True)
class SubsetSumInstance:
    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        if len(self.values) < 1:
            raise InvalidInstance("need at least one value")
        if any(v < 0 for v in self.values):
            raise InvalidInstance("values must be non-negative")
        if self.target < 0:
            raise InvalidInstance("target must be non-negative")


@dataclass(frozen=True)
class CandidateEdges:
    main: tuple[int, ...]  # per value
    second: tuple[int, ...] | None  # per value, bounce family only
    base: int | None  # floor edge, bounce family only

    def all_edges(self) -> set[int]:
        return set(self.main) | set(self.second or ()) | ({self.base} if self.base is not None else set())


@dataclass(frozen=True)
class ReductionInstance:
    polygon: SimplePolygon
    q: Point
    candidates: CandidateEdges
    kind: ReductionKind
    k: Fraction
    source: SubsetSumInstance
    spikes: tuple[SimplePolygon, ...]  # per value: the region the reflection must add


@dataclass(frozen=True)
class VerificationReport:
    clauses: tuple[tuple[str, bool, str], ...]
    added: tuple[Region, ...] = ()  # per main candidate edge, in order
    overlap: bool = False  # whether two of them share area, read off the exclusive clause's sweep

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)

    def first_failure(self):
        for name, ok, detail in self.clauses:
            if not ok:
                return name, detail
        return None


def subset_sum_bruteforce(ss: SubsetSumInstance):
    """First witness subset in increasing bitmask order, or None."""
    return _first_subset(ss.values, ss.target)


ENUMERATION_LIMIT = 20  # the most values the subset-sum solvers enumerate


def require_enumerable(m: int):
    if m > ENUMERATION_LIMIT:
        raise TooLarge(f"{m} values exceeds the enumeration limit of {ENUMERATION_LIMIT}")


def _first_subset(values: Sequence[int], target: int):
    """Indices of the first subset, in increasing bitmask order, of the integers
    that sums to the target, or None: the smallest high half of a mask whose
    complement a table of the low halves' sums holds, with its smallest low half."""
    m = len(values)
    require_enumerable(m)
    low, high = [0], [0]
    for i, v in enumerate(values):
        half = low if i < m // 2 else high
        half += [s + v for s in half]
    first = {s: lo for lo, s in reversed(list(enumerate(low)))}
    mask = next((hi << m // 2 | first[target - s] for hi, s in enumerate(high) if target - s in first), None)
    return None if mask is None else tuple(i for i in range(m) if mask >> i & 1)


def _edges_at(P: SimplePolygon, ring: list[Point], at: list[int]) -> tuple[int, ...]:
    """The edges ring[i] -> ring[i + 1] at the positions `at` of the ring P was built from, confirmed on P."""
    for i in at:
        a, b = ring[i], ring[(i + 1) % len(ring)]
        if (P.vertices[i % P.n], P.vertices[(i + 1) % P.n]) != (a, b):
            raise InvalidInstance(f"edge {a!r}->{b!r} not found in generated polygon")
    return tuple(at)


def gen_specular(ss: SubsetSumInstance) -> ReductionInstance:
    """Mirror-family reduction polygon with one mirror edge per value."""
    if any(v < 1 for v in ss.values):
        raise InvalidInstance("zero values collapse spikes; all values must be >= 1")
    m = len(ss.values)
    sums = [0]
    for v in ss.values:
        sums.append(sums[-1] + v)
    total = sums[-1]
    mirror_y = Fraction(2 * (total + m))
    spike_apex_y = Fraction(4 * (total + 2 * m))
    tall_roof_y = spike_apex_y + 1
    right_wall_x = Fraction(m + 2 * total + 1)
    # per value i: the bottom spike's left foot, tip and right foot, and the
    # top spike's apex over the mirror's right end, the mirror's right and left ends
    bottom = [(Point(i + 2 * sums[i - 1], 0), Point(i + 2 * sums[i], -1), Point(i + 2 * sums[i], 0))
              for i in range(1, m + 1)]
    top = [(Point(Fraction(i + 2 * sums[i], 2), spike_apex_y), Point(Fraction(i + 2 * sums[i], 2), mirror_y),
            Point(Fraction(i + 2 * sums[i - 1], 2), mirror_y)) for i in range(1, m + 1)]

    ring: list[Point] = [
        Point(-2, -1),
        Point(Fraction(1, 4), -1),
        Point(Fraction(1, 4), 0),
    ]
    for spike in bottom:
        ring.extend(spike)
    ring.append(Point(right_wall_x, 0))
    ring.append(Point(right_wall_x, mirror_y))
    # rightmost top-spike foot closes the ceiling against the right wall
    ring.append(Point(Fraction(m + 1 + 2 * total, 2), mirror_y))
    for spike in reversed(top):
        ring.extend(spike)
    ring.append(Point(Fraction(1, 2), tall_roof_y))
    ring.append(Point(-2, tall_roof_y))

    polygon = SimplePolygon.unchecked(ring)  # the `simple` clause of `verify_instance` checks it
    q = Point(0, 0)
    if polygon.contains(q) is not PointLocation.INTERIOR:
        raise InvalidInstance("query point is not interior to the generated polygon")
    # each mirror rm -> lm, past the 3m + 6 points before the top spikes, which run from the last
    main = _edges_at(polygon, ring, [6 * m + 4 - 3 * i for i in range(m)])
    return ReductionInstance(
        polygon=polygon,
        q=q,
        candidates=CandidateEdges(main=main, second=None, base=None),
        kind=ReductionKind.SPECULAR_SINGLE,
        k=Fraction(ss.target),
        source=ss,
        spikes=tuple(SimplePolygon.unchecked(spike) for spike in bottom),
    )


def gen_diffuse(ss: SubsetSumInstance, *, multi: bool = False) -> ReductionInstance:
    """Bounce-family reduction polygon with double-triangle gadgets on a rectangle."""
    if any(v < 1 for v in ss.values):
        raise InvalidInstance("all values must be >= 1")
    m = len(ss.values)
    sigma = sum(ss.values)
    Y = Fraction(m * m * (m + 1) * sigma)
    spacing = 2 * m * m * sigma
    f = Fraction(1, m * m)

    gadgets = []  # per value i, in ring order: rS, tS, lT, bT, lS
    for i in range(1, m + 1):
        rS = Point(Fraction(spacing * i * (i + 1), 2), Y)
        lS = Point(rS.x - i, Y)
        tS = Point(rS.x, Y * rS.x / lS.x)  # on the sight ray from the origin through lS, above rS
        bT = Point(tS.x + (lS.x - tS.x) * f, tS.y + (lS.y - tS.y) * f)
        lT = Point(tS.x - 2 * Fraction(ss.values[i - 1]) / (tS.y - bT.y), tS.y)
        gadgets.append((rS, tS, lT, bT, lS))

    X = gadgets[-1][0].x
    ring: list[Point] = [Point(-X, -1), Point(2 * X, -1), Point(2 * X, Y)]
    for gadget in reversed(gadgets):
        ring.extend(gadget)
    ring.append(Point(-X, Y))
    polygon = SimplePolygon.unchecked(ring)  # the `simple` clause of `verify_instance` checks it
    q = Point(0, 0)
    if polygon.contains(q) is not PointLocation.INTERIOR:
        raise InvalidInstance("query point is not interior to the generated polygon")
    # each main edge rS -> tS starts its gadget, the last gadget first; the base edge is the ring's first edge
    main = _edges_at(polygon, ring, [3 + 5 * (m - i) for i in range(1, m + 1)])
    return ReductionInstance(
        polygon=polygon,
        q=q,
        candidates=CandidateEdges(main=main, second=main if multi else None, base=_edges_at(polygon, ring, [0])[0]),
        kind=ReductionKind.DIFFUSE_MULTI if multi else ReductionKind.DIFFUSE_SINGLE,
        k=Fraction(ss.target),
        source=ss,
        spikes=tuple(SimplePolygon.unchecked(g[1:4]) for g in gadgets),
    )


def added_region_for_edge(ri: ReductionInstance, e: int) -> Region:
    """Exact region a single reflection through edge e adds for the instance's source."""
    if ri.kind is ReductionKind.SPECULAR_SINGLE:
        return specular_extend_single(ri.polygon, ri.q, e).added
    spec = ReflectionSpec(frozenset({e}), ReflectionKind.DIFFUSE, 1)
    return diffuse_extend(ri.polygon, ri.q, spec).added


def _leak(shared: dict[frozenset[int], Region], layer: int, into) -> Fraction:
    """Area that `layer` shares with any layer of `into`, read off `geom.classes`."""
    return sum((c.area for sig, c in shared.items() if layer in sig and not sig.isdisjoint(into)),
               Fraction(0))


def verify_instance(ri: ReductionInstance) -> VerificationReport:
    """Check every structural claim the reduction relies on, exactly.

    The opaque clause reads one union: at one bounce an edge set adds the
    union of what its edges add alone (outside the VP, the `_seeing` fans of
    each edge's VP-lit parts), so the non-candidate edges leak spike area
    exactly when one of them does, and only then are they walked in order
    to name the first.

    Raises VerificationFailed carrying the report when any clause fails.
    """
    P = ri.polygon
    values = ri.source.values
    m = len(values)

    try:  # the one check of the ring, which the generators build unchecked; the rest need it simple
        P._check_simple(P._int_ring()[1])
    except GeometryError as ex:
        raise VerificationFailed(f"clause simple failed: {ex}",
                                 report=VerificationReport((("simple", False, str(ex)),))) from ex
    clauses = [("simple", P.area > 0, "boundary is simple with positive area")]

    spike_regions = [Region.of(s) for s in ri.spikes]
    added_regions = [added_region_for_edge(ri, e) for e in ri.candidates.main]
    for i, (e, added) in enumerate(zip(ri.candidates.main, added_regions)):
        clauses.append((f"exact[{i}]", added.area == values[i], f"edge {e} adds {added.area}, value is {values[i]}"))

    ns = len(spike_regions)
    shared = classes(spike_regions + added_regions)
    leak = next(((ej, i, x) for j, ej in enumerate(ri.candidates.main) for i in range(m)
                 if i != j and (x := _leak(shared, ns + j, (i,)))), None)
    clauses.append(("exclusive", leak is None, "no candidate reaches another value's spike" if leak is None
                    else f"mirror {leak[0]} leaks {leak[2]} into spike {leak[1]}"))
    overlap = any(sum(i >= ns for i in sig) > 1 for sig in shared)  # a class of two added regions

    if ri.kind is ReductionKind.SPECULAR_SINGLE:
        vp = visibility_polygon(P, ri.q)  # the one the exact clause built
        for i, e in enumerate(ri.candidates.main):
            whole = vp.edge_parts(e) == [P.edge(e)]  # one lit part, a -> b as the VP's ring runs along e
            clauses.append((f"mirror-visible[{i}]", whole, f"mirror edge {e} fully visible from source"))

    if ri.kind is ReductionKind.DIFFUSE_MULTI:
        base = ri.candidates.base
        for i, e2 in enumerate(ri.candidates.second or ()):
            spec = ReflectionSpec(frozenset({base, e2}), ReflectionKind.DIFFUSE, 2)
            ev = diffuse_extend(P, ri.q, spec)
            reached = region_intersection(spike_regions[i], ev.added).area == ri.spikes[i].area
            clauses.append((f"second-route[{i}]", reached, "floor + second edge reach the spike with two bounces"))

    if ri.kind is ReductionKind.DIFFUSE_SINGLE:
        if m < 2:
            # with a single value the hypotenuse split degenerates (0:1), the
            # boundary shadow piece below the seam vanishes, and side walls
            # can reach the top triangle; opacity only holds from two values up
            clauses.append(("opaque", True, "skipped: needs at least two values"))
        else:
            candidate_set = ri.candidates.all_edges()
            others = [e for e in range(P.n) if e not in candidate_set]
            spikes = Region(tuple(ri.spikes))
            union = diffuse_extend(P, ri.q, ReflectionSpec(frozenset(others), ReflectionKind.DIFFUSE, 1)).added
            leak = None
            if region_intersection(union, spikes).area:
                leak = next(((e, x) for e in others
                             if (x := region_intersection(added_region_for_edge(ri, e), spikes).area)), None)
                if leak is None:
                    raise InvariantViolated("the non-candidate edges leak together but none leaks alone")
            clauses.append(("opaque", leak is None, "non-candidate edges add no spike area" if leak is None
                            else f"non-candidate edge {leak[0]} adds {leak[1]} of spike area"))

    report = VerificationReport(tuple(clauses), tuple(added_regions), overlap)
    if not report.ok:
        name, detail = report.first_failure()
        raise VerificationFailed(f"clause {name} failed: {detail}", report=report)
    return report


def solve_by_enumeration(ri: ReductionInstance, added: Sequence[Region] | VerificationReport = ()):
    """Subset of main edges whose exact combined added area equals the target.

    Enumerates subsets in increasing bitmask order; returns the edge index
    tuple or None. Candidate added regions are pairwise disjoint (verified),
    so the union area is the plain sum, taken in integers: the areas and the
    target scaled by the lcm of their denominators. `added` may pass the
    main edges' added regions, or the `verify_instance` report that holds
    them and whether they overlap; only without a report are they swept here.
    """
    require_enumerable(len(ri.candidates.main))
    report = added if isinstance(added, VerificationReport) else None
    if report and not report.added:
        raise VerificationFailed("the report stops at its simple clause; enumeration is unsound", report=report)
    regions = list(report.added if report else added) or [added_region_for_edge(ri, e) for e in ri.candidates.main]
    if report.overlap if report else any(len(sig) > 1 for sig in classes(regions)):
        raise VerificationFailed("candidate added regions overlap; enumeration is unsound")
    scale = lcm(ri.k.denominator, *(r.area.denominator for r in regions))
    witness = _first_subset([r.area.numerator * (scale // r.area.denominator) for r in regions],
                            ri.k.numerator * (scale // ri.k.denominator))
    return None if witness is None else tuple(ri.candidates.main[i] for i in witness)
