"""Command-line surface: ``mg vp | extend | guard | reduce-gen | render``.

Exit codes: 0 success; 2 parse/input error: a malformed file, an unreadable
or unwritable path, values the reduction generator rejects, or more than the
solvers enumerate (20 values with --solve, 16 vertices with --mode optimal);
3 query outside polygon; 4 reflection spec mismatch, or a source on the
mirror's line; 5 coordinate bit blow-up; 6 instance verification failure
(the file is still written, annotated with the failure, so it can be
inspected); 1 a library fault: a broken invariant, a guard set failing its
coverage certificate or with a disconnected guard graph, or any other error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .errors import (
    BitBlowup,
    InvalidInstance,
    MirrorGalleryError,
    ParseError,
    QueryOutsidePolygon,
    SourceOnMirrorLine,
    SpecMismatch,
    TooLarge,
    VerificationFailed,
)
from .fileio import (
    InstanceFile,
    format_instance,
    format_rational,
    instance_to_file,
    parse_instance,
    parse_rational,
)
from .geom import Point, Region
from .guard import (
    build_guard_graph,
    greedy_cover,
    optimal_cover_bruteforce,
    spanning_tree_reduce,
)
from .redgen import (
    SubsetSumInstance,
    gen_diffuse,
    gen_specular,
    require_enumerable,
    solve_by_enumeration,
    verify_instance,
)
from .reflect import (
    ReflectionKind,
    ReflectionSpec,
    diffuse_extend,
    specular_extend_single,
)
from .svg import render_scene
from .visibility import visibility_polygon

_EXIT_CODES = [
    (ParseError, 2),
    (InvalidInstance, 2),
    (TooLarge, 2),
    (QueryOutsidePolygon, 3),
    (SpecMismatch, 4),
    (SourceOnMirrorLine, 4),
    (BitBlowup, 5),
    (VerificationFailed, 6),
]


def _load(path: str) -> InstanceFile:
    try:
        text = Path(path).read_text()
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex}") from ex
    return parse_instance(text)


def _query_from(args, inst: InstanceFile) -> Point:
    if args.query:
        try:
            qx, qy = args.query.split(",")
        except ValueError as ex:
            raise ParseError("expected --query X,Y") from ex
        return Point(parse_rational(qx), parse_rational(qy))
    if inst.query is not None:
        return inst.query
    raise ParseError("no query point: pass --query or add one to the file")


def _write(path: str | None, text: str):
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as ex:
        raise ParseError(f"cannot write {path}: {ex}") from ex


def cmd_vp(args) -> int:
    inst = _load(args.input)
    q = _query_from(args, inst)
    vp = visibility_polygon(inst.polygon, q)
    lines = [f"area: {format_rational(vp.polygon.area)}", "vertices:"]
    lines += [f"{format_rational(v.x)} {format_rational(v.y)}" for v in vp.polygon.vertices]
    lines.append("windows:")
    lines += [
        f"{format_rational(w.a.x)} {format_rational(w.a.y)} "
        f"{format_rational(w.b.x)} {format_rational(w.b.y)}"
        for w in vp.windows
    ]
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        scene = render_scene(
            inst.polygon,
            query=q,
            regions=[(Region.of(vp.polygon), "#1f77b4")],
            extra_segments=list(vp.windows),
        )
        _write(args.svg, scene)
    return 0


def _parse_edges(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as ex:
        raise ParseError(f"bad --edges list {spec!r}") from ex


def cmd_extend(args) -> int:
    inst = _load(args.input)
    q = _query_from(args, inst)
    edges = _parse_edges(args.edges)
    if args.kind == "specular":
        if args.bounces > 1:
            raise SpecMismatch("specular reflection supports at most one bounce")
        if len(edges) != 1:
            raise SpecMismatch("specular extension takes exactly one mirror edge")
        ev = specular_extend_single(inst.polygon, q, edges[0])
    else:
        spec = ReflectionSpec(frozenset(edges), ReflectionKind.DIFFUSE, args.bounces)
        ev = diffuse_extend(inst.polygon, q, spec)
    lines = [
        f"direct-area: {format_rational(ev.direct.area)}",
        f"added-area: {format_rational(ev.added.area)}",
        "illumination:",
    ]
    for rec in ev.per_edge_illumination:
        for seg in rec.subsegments:
            lines.append(
                f"edge {rec.edge} depth {rec.bounce_depth} "
                f"{format_rational(seg.a.x)} {format_rational(seg.a.y)} "
                f"{format_rational(seg.b.x)} {format_rational(seg.b.y)}"
            )
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        scene = render_scene(
            inst.polygon,
            query=q,
            regions=[(Region.of(ev.direct.polygon), "#1f77b4"), (ev.added, "#2ca02c")],
            highlight_edges=edges,
        )
        _write(args.svg, scene)
    return 0


def cmd_guard(args) -> int:
    inst = _load(args.input)
    P = inst.polygon
    if args.mode == "greedy":
        sol = greedy_cover(P, args.bounces)
    elif args.mode == "optimal":
        sol = optimal_cover_bruteforce(P, args.bounces)
    else:
        if args.bounces < 0:  # refused before the base cover is computed
            raise SpecMismatch("bounce budget must be non-negative")
        base = optimal_cover_bruteforce(P, 0) if P.n <= 16 else greedy_cover(P, 0)
        graph = build_guard_graph(P, base)
        sol = spanning_tree_reduce(P, base, args.bounces)
        k = 1 + args.bounces // 4
        bound = -(-len(base.guards) // k)
        print(f"base-guards: {' '.join(str(g) for g in base.guards)}")
        print(f"graph-edges: {len(graph.edges)}")
        print(f"bound: {bound}")
    print(f"guards: {' '.join(str(g) for g in sol.guards)}")
    print(f"count: {len(sol.guards)}")
    print(f"cells: {len(sol.coverage_certificate)}")
    return 0


def cmd_reduce_gen(args) -> int:
    if args.random is not None:
        if args.max_value < 1:
            raise ParseError(f"--max-value must be at least 1, not {args.max_value}")
        rng = random.Random(args.seed)
        values = tuple(rng.randint(1, args.max_value) for _ in range(args.random))
        chosen = [v for v in values if rng.random() < 0.5]
        target = sum(chosen) if chosen else 0
    else:
        if not args.values:
            raise ParseError("pass --values or --random")
        try:
            values = tuple(int(tok) for tok in args.values.split(","))
        except ValueError as ex:
            raise ParseError(f"bad --values {args.values!r}") from ex
        target = args.target
    ss = SubsetSumInstance(values, target)
    if args.solve:
        require_enumerable(len(values))  # refused before the instance is generated and verified
    if args.kind == "specular":
        ri = gen_specular(ss)
    else:
        ri = gen_diffuse(ss, multi=args.kind == "diffuse-multi")
    expect = {"k": format_rational(ri.k)}
    code = 0
    try:
        report = verify_instance(ri)
    except VerificationFailed as ex:
        report, code = ex.report, 6
    for name, ok, _ in (report.clauses if report else ()):
        expect[f"verify-{name}"] = "pass" if ok else "fail"
    if code:
        expect["verify"] = "failed"
    text = format_instance(instance_to_file(ri, expect))
    _write(args.out, text)
    if args.solve:
        witness = solve_by_enumeration(ri, report or ())
        print(f"witness: {'none' if witness is None else ' '.join(map(str, witness))}")
    return code


def cmd_render(args) -> int:
    inst = _load(args.input)
    layers = [tok for tok in args.layers.split(",") if tok] if args.layers else []
    query = None
    regions = []
    highlight = []
    if "query" in layers and inst.query is not None:
        query = inst.query
    if "vp" in layers:
        if inst.query is None:
            raise ParseError("vp layer needs a query point in the file")
        vp = visibility_polygon(inst.polygon, inst.query)
        regions.append((Region.of(vp.polygon), "#1f77b4"))
    if "candidates" in layers and inst.candidates is not None:
        highlight = sorted(inst.candidates.all_edges())
    scene = render_scene(inst.polygon, query=query, regions=regions, highlight_edges=highlight)
    _write(args.out, scene)
    return 0


# each command's function, help line and arguments, as (flag, add_argument options)
_COMMANDS = {
    "vp": (cmd_vp, "visibility polygon of a query point", (
        ("input", {}), ("--query", dict(help="X,Y rationals; defaults to the file's query")),
        ("--out", dict(help="write the report here instead of stdout")),
        ("--svg", dict(help="also write an SVG rendering")))),
    "extend": (cmd_extend, "visibility extension through reflecting edges", (
        ("input", {}), ("--query", {}),
        ("--edges", dict(required=True, help="comma-separated edge indices")),
        ("--kind", dict(choices=("diffuse", "specular"), default="diffuse")),
        ("--bounces", dict(type=int, default=1)),
        ("--out", {}), ("--svg", {}))),
    "guard": (cmd_guard, "vertex guarding with reflection", (
        ("input", {}), ("--bounces", dict(type=int, default=0)),
        ("--mode", dict(choices=("greedy", "optimal", "reduce"), default="greedy")))),
    "reduce-gen": (cmd_reduce_gen, "generate a subset-sum reduction polygon", (
        ("--kind", dict(choices=("specular", "diffuse", "diffuse-multi"), required=True)),
        ("--values", dict(help="comma-separated positive integers")),
        ("--target", dict(type=int, default=0)),
        ("--random", dict(type=int, help="draw this many random values instead")),
        ("--max-value", dict(type=int, default=12)), ("--seed", dict(type=int, default=0)),
        ("--solve", dict(action="store_true", help="also run the enumeration solver")),
        ("--out", dict(help="write the instance file here instead of stdout")))),
    "render": (cmd_render, "render an instance file to SVG", (
        ("input", {}),
        ("--layers", dict(help="comma list from: query,vp,candidates (empty: outline only)")),
        ("--out", {}))),
}


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, reading the terminal width only when it lays out text, not per `add_argument`."""

    def __init__(self, prog):
        super().__init__(prog, width=0)

    def format_help(self) -> str:
        laid = argparse.HelpFormatter(self._prog)  # reads the width as argparse's own would
        self._width, self._max_help_position = laid._width, laid._max_help_position
        return super().format_help()


def _command(name: str, parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Command `name`'s own parser, `mg <name>`, or `parser`, given the command's arguments."""
    parser = parser or argparse.ArgumentParser(prog=f"mg {name}", formatter_class=_Formatter)
    func, _, arguments = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full `mg` parser: a subparser per command."""
    parser = argparse.ArgumentParser(prog="mg", description=__doc__, formatter_class=_Formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        _command(name, sub.add_parser(name, help=help_line, formatter_class=_Formatter))
    return parser


def main(argv=None) -> int:
    """Run `mg`. A command line that starts with a command is parsed by that command's own parser;
    leftover arguments, help, a misspelt command or none go to the full parser, which refuses or helps."""
    argv = sys.argv[1:] if argv is None else argv
    args, rest = _command(argv[0]).parse_known_args(argv[1:]) if argv and argv[0] in _COMMANDS else (None, ())
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MirrorGalleryError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(ex, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
