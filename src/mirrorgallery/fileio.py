"""Line-oriented instance file format (versioned header ``mgv1``).

Rationals travel as ``p/q`` strings (plain integers allowed), so files
round-trip losslessly. Sections: ``polygon:`` (one vertex per line),
``query:``, ``kind:``, ``k:``, ``values:``, ``candidates:`` (labelled
edge lines), and ``expect:`` (free-form key/value pairs used by
regression suites).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GeometryError, ParseError
from .geom import Point, SimplePolygon
from .redgen import CandidateEdges, ReductionInstance

FORMAT_HEADER = "mgv1"


def format_rational(x: Fraction | int) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise ParseError(f"bad rational {text!r}") from ex


@dataclass
class InstanceFile:
    polygon: SimplePolygon
    query: Point | None = None
    kind: str | None = None
    k: Fraction | None = None
    values: tuple[int, ...] | None = None
    candidates: CandidateEdges | None = None
    expect: dict[str, str] = field(default_factory=dict)


def format_instance(f: InstanceFile) -> str:
    lines = [FORMAT_HEADER, "polygon:"]
    for v in f.polygon.vertices:
        lines.append(f"{format_rational(v.x)} {format_rational(v.y)}")
    if f.query is not None:
        lines.append(f"query: {format_rational(f.query.x)} {format_rational(f.query.y)}")
    if f.kind is not None:
        lines.append(f"kind: {f.kind}")
    if f.k is not None:
        lines.append(f"k: {format_rational(f.k)}")
    if f.values is not None:
        lines.append("values: " + " ".join(str(v) for v in f.values))
    if f.candidates is not None:
        lines.append("candidates:")
        for i, e in enumerate(f.candidates.main):
            lines.append(f"main {i} {e}")
        if f.candidates.second is not None:
            for i, e in enumerate(f.candidates.second):
                lines.append(f"second {i} {e}")
        if f.candidates.base is not None:
            lines.append(f"base {f.candidates.base}")
    if f.expect:
        lines.append("expect:")
        for key in f.expect:
            lines.append(f"{key} {f.expect[key]}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceFile:
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"missing {FORMAT_HEADER!r} header")
    i = 1
    vertices: list[Point] = []
    query = None
    kind = None
    k = None
    values = None
    main: dict[int, int] = {}
    second: dict[int, int] = {}
    base = None
    expect: dict[str, str] = {}
    section = None
    while i < len(lines):
        ln = lines[i]
        i += 1
        if ln in ("polygon:", "candidates:", "expect:"):
            section = ln[:-1]
            continue
        if ln.startswith("query:"):
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError(f"bad query line {ln!r}")
            query = Point(parse_rational(parts[1]), parse_rational(parts[2]))
            section = None
            continue
        if ln.startswith("kind:"):
            kind = ln.split(":", 1)[1].strip()
            section = None
            continue
        if ln.startswith("k:"):
            k = parse_rational(ln.split(":", 1)[1].strip())
            section = None
            continue
        if ln.startswith("values:"):
            try:
                values = tuple(int(tok) for tok in ln.split(":", 1)[1].split())
            except ValueError as ex:
                raise ParseError(f"bad values line {ln!r}") from ex
            section = None
            continue
        if section == "polygon":
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"bad vertex line {ln!r}")
            vertices.append(Point(parse_rational(parts[0]), parse_rational(parts[1])))
            continue
        if section == "candidates":
            parts = ln.split()
            try:
                if parts[0] == "main" and len(parts) == 3:
                    main[int(parts[1])] = int(parts[2])
                elif parts[0] == "second" and len(parts) == 3:
                    second[int(parts[1])] = int(parts[2])
                elif parts[0] == "base" and len(parts) == 2:
                    base = int(parts[1])
                else:
                    raise ValueError
            except (ValueError, IndexError) as ex:
                raise ParseError(f"bad candidates line {ln!r}") from ex
            continue
        if section == "expect":
            key, _, value = ln.partition(" ")
            expect[key] = value
            continue
        raise ParseError(f"unexpected line {ln!r}")
    if len(vertices) < 3:
        raise ParseError("polygon section missing or too short")
    try:
        polygon = SimplePolygon(vertices)
    except GeometryError as ex:
        raise ParseError(f"invalid polygon: {ex}") from ex
    candidates = None
    if main or second or base is not None:
        main_t = tuple(main[i] for i in sorted(main))
        second_t = tuple(second[i] for i in sorted(second)) if second else None
        candidates = CandidateEdges(main=main_t, second=second_t, base=base)
    return InstanceFile(
        polygon=polygon,
        query=query,
        kind=kind,
        k=k,
        values=values,
        candidates=candidates,
        expect=expect,
    )


def instance_to_file(ri: ReductionInstance, expect: dict[str, str] | None = None) -> InstanceFile:
    return InstanceFile(
        polygon=ri.polygon,
        query=ri.q,
        kind=ri.kind.value,
        k=ri.k,
        values=ri.source.values,
        candidates=ri.candidates,
        expect=dict(expect or {}),
    )

