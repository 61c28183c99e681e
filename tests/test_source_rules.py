"""Rules the library source keeps, read from its syntax tree.

Invariants raise typed errors, not `assert`, which `python -O` strips, and
a handler names the exceptions it expects: no bare `except:` and no
`except Exception` or `except BaseException`, alone or in a tuple. The
modules on the exact computation path hold no float literal and call no
`float(`, so no float shortcut (in a sort key, say) slips into them. Only
`geom` reads a region's sweep runs (`Region._runs`), builds their cells
(`_trapezoid`), builds sweep edges (`_SweepSeg`) or reads or nets a net
boundary (`Region._boundary`, `Region._net_boundary`, `_netted`): every
other module sees cells through `Region.parts`, and hands the sweep a
region, not edges.
Only `geom` calls `segment_intersection`, `segment_breakpoints` or `sees`:
every other module asks its exact questions of boundaries, rings and
frames, and asks a visibility polygon what a point sees, with no
`Fraction` segment splitting. Only `visibility` builds a frame
(`_Frame(`), so every frame of a polygon vertex is the one kept on the
polygon, and `reflect` constructs no `SimplePolygon`: its regions are
integer rings and sweeps, built into polygons only when read. `reflect`
re-emits a diffuse bounce through `visibility._seeing`, the fans weak
visibility is built from, and calls neither `_pivot_cones` nor
`weak_visibility_polygon`: the points that see a segment have one
construction. `reflect._cascade` calls no `orientation`: the light of
depth 0 is read off the visibility polygon's host labels, on which an
edge collinear with the source has no part. `geom.sides_along` reads a
region only through its net boundary, with no runs, rings or parts: a
vertical edge's sides are rebuilt from that boundary too. `redgen` calls
neither `visible_edge_parts` nor `sides_along`: a mirror's lit parts are
the ones the visibility polygon labels. `cli` adds its subparsers at one
site, the loop over its command table, so a new command goes through the
table, and it caches no parser (`functools.cache` or `lru_cache`): a call
builds the parser of its own command only. `geom.classes` calls `_sweep`
once, with a list of one layer, and `_sweep` keeps its `(layers, key,
group)` signature with no flag: the layers' bit-weighted edges are netted
in the sweep's input, not in a second walk. `Region.max_coordinate_bits`
reads the region only through its net boundary, with no runs, rings or
parts, and `reflect` calls no `merge_region`: the bit cap measures one
thing, the boundary's vertices, and merged rings are for SVG output.
"""

import ast
import textwrap
from pathlib import Path

import mirrorgallery

SOURCES = sorted(Path(mirrorgallery.__file__).parent.glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}
EXACT = {"geom.py", "visibility.py", "reflect.py", "guard.py", "redgen.py", "special.py"}
SWEEP_INTERNALS = {"_runs", "_trapezoid", "_SweepSeg", "_boundary", "_net_boundary", "_netted"}
SEGMENT_SPLITTERS = {"segment_intersection", "segment_breakpoints", "sees"}
REGION_READS = {"_runs", "_rings", "_parts", "parts", "_int_ring"}
CACHES = {"cache", "lru_cache"}


def _violations(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            out.append(f"{name}:{node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None:
                out.append(f"{name}:{node.lineno}: bare except")
            elif any(isinstance(t, ast.Name) and t.id in CATCH_ALL for t in caught):
                out.append(f"{name}:{node.lineno}: catch-all except")
    return out


def _floats(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"{name}:{node.lineno}: float literal")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"{name}:{node.lineno}: float call")
    return out


def test_the_rules_see_every_module():
    assert {p.name for p in SOURCES} >= EXACT | {"cli.py"}


def test_no_assert_and_no_catch_all_except():
    assert [v for path in SOURCES for v in _violations(path.read_text(), path.name)] == []


def test_the_walk_finds_each_kind():
    source = ("assert x\n"
              "try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert _violations(source, "probe.py") == ["probe.py:1: assert", "probe.py:4: bare except",
                                               "probe.py:8: catch-all except"]


def test_no_floats_on_the_exact_path():
    assert [v for path in SOURCES if path.name in EXACT for v in _floats(path.read_text(), path.name)] == []


def test_the_float_walk_finds_each_kind():
    source = "x = 0.5\ny = float(x)\nz = isinstance(y, float) and 1e3\n"
    assert _floats(source, "probe.py") == ["probe.py:1: float literal", "probe.py:2: float call",
                                           "probe.py:3: float literal"]


def _names(source: str, name: str, wanted: set[str]) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        out += [f"{name}:{node.lineno}: {n}" for n in names if n in wanted]
    return out


def test_only_geom_reads_the_sweep_runs():
    assert [v for path in SOURCES if path.name != "geom.py"
            for v in _names(path.read_text(), path.name, SWEEP_INTERNALS)] == []


def test_the_sweep_walk_finds_each_kind():
    source = ("from .geom import _trapezoid, _SweepSeg, _netted\n"
              "n = len(region._runs)\n"
              "cell = geom._trapezoid(xl, xr, bottom, top)\n"
              "runs = region.runs\n"
              "seg = _SweepSeg(edge, layer, order)\n"
              "segs = [geom._SweepSeg(e, 0, k) for k, e in enumerate(edges)]\n"
              "edges = region._net_boundary()\n"
              "region._boundary = geom._netted(edges)\n"
              "edges = _runs_boundary(xs, runs) + net_boundary(region)\n")
    # the walk is breadth first, so the order of its finds is not the lines' order
    assert sorted(_names(source, "probe.py", SWEEP_INTERNALS)) == ["probe.py:1: _SweepSeg", "probe.py:1: _netted",
                                                            "probe.py:1: _trapezoid", "probe.py:2: _runs",
                                                            "probe.py:3: _trapezoid", "probe.py:5: _SweepSeg",
                                                            "probe.py:6: _SweepSeg", "probe.py:7: _net_boundary",
                                                            "probe.py:8: _boundary", "probe.py:8: _netted"]


def _calls(source: str, name: str, names: set[str]) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names:
                out.append(f"{name}:{node.lineno}: {called}")
    return out


def test_only_geom_splits_segments():
    assert [v for path in SOURCES if path.name != "geom.py"
            for v in _calls(path.read_text(), path.name, SEGMENT_SPLITTERS)] == []


def test_the_call_walk_finds_each_kind():
    source = ("from .geom import segment_intersection, segment_breakpoints\n"
              "hit = segment_intersection(s, e)\n"
              "ts = geom.segment_breakpoints(s, edges)\n"
              "split = segment_breakpoints\n"
              "inside = segment_parts_inside(s, parts)\n"
              "seen = sees(P, q, v)\n")
    assert _calls(source, "probe.py", SEGMENT_SPLITTERS) == ["probe.py:2: segment_intersection",
                                                             "probe.py:3: segment_breakpoints",
                                                             "probe.py:6: sees"]


def test_only_visibility_builds_frames():
    assert [v for path in SOURCES if path.name != "visibility.py"
            for v in _calls(path.read_text(), path.name, {"_Frame"})] == []


def test_the_frame_walk_finds_each_kind():
    source = ("from .visibility import _Frame, _frame\n"
              "f = _Frame(P, o)\n"
              "g = visibility._Frame(P, o)\n"
              "h = _frame(P, o)\n"
              "cls = _Frame\n")
    assert _calls(source, "probe.py", {"_Frame"}) == ["probe.py:2: _Frame", "probe.py:3: _Frame"]


def test_reflect_reemits_through_seeing():
    path = next(p for p in SOURCES if p.name == "reflect.py")
    source = path.read_text()
    assert _calls(source, path.name, {"_seeing"}) != []
    assert _calls(source, path.name, {"_pivot_cones", "weak_visibility_polygon"}) == []


def test_the_bounce_walk_finds_each_kind():
    source = ("from .visibility import _pivot_cones, _seeing\n"
              "fans = _seeing(P, s)\n"
              "cones = visibility._pivot_cones(f, a, b)\n"
              "w = weak_visibility_polygon(P, s)\n"
              "seeing = _seeing\n")
    assert _calls(source, "probe.py", {"_seeing", "_pivot_cones", "weak_visibility_polygon"}) == [
        "probe.py:2: _seeing", "probe.py:3: _pivot_cones", "probe.py:4: weak_visibility_polygon"]


def test_redgen_reads_lit_parts_off_the_vp():
    path = next(p for p in SOURCES if p.name == "redgen.py")
    assert _calls(path.read_text(), path.name, {"visible_edge_parts", "sides_along"}) == []


def test_the_lit_parts_walk_finds_each_kind():
    source = ("from .reflect import visible_edge_parts\n"
              "parts = visible_edge_parts(P, q, e)\n"
              "sides = geom.sides_along([vp.region], a, b)\n"
              "more = reflect.visible_edge_parts(P, q, e)\n"
              "read = vp.edge_parts(e)\n"
              "fn = sides_along\n")
    assert _calls(source, "probe.py", {"visible_edge_parts", "sides_along"}) == [
        "probe.py:2: visible_edge_parts", "probe.py:3: sides_along", "probe.py:4: visible_edge_parts"]


def _function(source: str, name: str, cls: str | None = None) -> str:
    # the module-level function's source, or the method's of the module-level class
    # cls, dedented, on its own lines of the module: line numbers hold
    body = ast.parse(source).body
    if cls:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == cls).body
    node = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
    return "\n" * (node.lineno - 1) + textwrap.dedent(ast.get_source_segment(source, node, padded=True))


def test_depth_zero_light_is_read_off_the_vp():
    path = next(p for p in SOURCES if p.name == "reflect.py")
    assert _calls(_function(path.read_text(), "_cascade"), path.name, {"orientation"}) == []


def test_the_function_walk_finds_each_kind():
    source = ("def _light(P, e):\n    return orientation(a, b, q)\n"
              "@memo_per_polygon\ndef _cascade(P, q):\n    side = geom.orientation(a, b, q)\n"
              "    test = orientation\n    return side is Orientation.COLLINEAR\n")
    assert _calls(_function(source, "_cascade"), "probe.py", {"orientation"}) == ["probe.py:5: orientation"]


def _attributes(source: str, name: str, attrs: set[str]) -> list[str]:
    return [f"{name}:{node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def test_sides_along_reads_only_the_net_boundary():
    path = next(p for p in SOURCES if p.name == "geom.py")
    assert _attributes(_function(path.read_text(), "sides_along"), path.name, REGION_READS) == []


def test_the_attribute_walk_finds_each_kind():
    source = ("def sides_along(regions, a, b):\n    xs, runs = region._runs\n"
              "    rings = region._rings or [q._int_ring() for q in region.parts]\n"
              "    parts = geom.Region.of(P).parts\n    edges = region._net_boundary()\n")
    assert sorted(_attributes(_function(source, "sides_along"), "probe.py", REGION_READS)) == [
        "probe.py:2: _runs", "probe.py:3: _int_ring", "probe.py:3: _rings", "probe.py:3: parts", "probe.py:4: parts"]


def _bit_measure_rules(geom: str, reflect: str) -> list[str]:
    measure = _function(geom, "max_coordinate_bits", "Region")
    out = _attributes(measure, "geom.py", REGION_READS)
    if not _calls(measure, "geom.py", {"_net_boundary"}):
        out.append("geom.py: max_coordinate_bits reads no _net_boundary")
    return out + _calls(reflect, "reflect.py", {"merge_region"})


def test_the_bit_cap_reads_the_net_boundary():
    source = {p.name: p.read_text() for p in SOURCES if p.name in ("geom.py", "reflect.py")}
    assert _bit_measure_rules(source["geom.py"], source["reflect.py"]) == []


def test_the_bit_measure_walk_finds_each_kind():
    ok = ("class Region:\n    def area(self):\n        return sum(p.area for p in self.parts)\n\n"
          "    def max_coordinate_bits(self):\n        return max(bits(e) for e in self._net_boundary())\n")
    cells = ("class Region:\n    def max_coordinate_bits(self):\n"
             "        edges = self._net_boundary() if self._runs else self._rings\n"
             "        return max(bits(p) for p in self.parts + self._parts)\n")
    merged = "from .geom import merge_region\nbits = geom.merge_region(region).max_coordinate_bits()\nm = merge_region\n"
    assert _bit_measure_rules(ok, "bits = region.max_coordinate_bits()\n") == []
    assert sorted(_bit_measure_rules(cells, "")) == ["geom.py:3: _rings", "geom.py:3: _runs",
                                                     "geom.py:4: _parts", "geom.py:4: parts"]
    assert _bit_measure_rules(ok.replace("self._net_boundary()", "edges"), merged) == [
        "geom.py: max_coordinate_bits reads no _net_boundary", "reflect.py:2: merge_region"]


def _constructs(source: str, name: str, cls: str) -> list[str]:
    # calls of the class, plain or through a module, and of its classmethods
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            func = node.func
            owner = func.value if isinstance(func, ast.Attribute) else None
            if any(isinstance(n, ast.Name) and n.id == cls or isinstance(n, ast.Attribute) and n.attr == cls
                   for n in (func, owner)):
                out.append(f"{name}:{node.lineno}: {cls}")
    return out


def test_reflect_constructs_no_polygon():
    path = next(p for p in SOURCES if p.name == "reflect.py")
    assert _constructs(path.read_text(), path.name, "SimplePolygon") == []


def test_the_construction_walk_finds_each_kind():
    source = ("a = SimplePolygon(ring)\n"
              "b = SimplePolygon.unchecked(ring)\n"
              "c = geom.SimplePolygon._trusted(ring, area)\n"
              "d = geom.SimplePolygon(ring)\n"
              "e = isinstance(x, SimplePolygon)\n"
              "f = Region.of(P)\n"
              "def g(P: SimplePolygon) -> SimplePolygon:\n"
              "    return P\n")
    assert _constructs(source, "probe.py", "SimplePolygon") == [f"probe.py:{k}: SimplePolygon" for k in (1, 2, 3, 4)]


def test_cli_adds_subparsers_at_one_site_and_caches_nothing():
    path = next(p for p in SOURCES if p.name == "cli.py")
    source = path.read_text()
    assert len(_calls(source, path.name, {"add_parser"})) == 1
    assert _names(source, path.name, CACHES) == []


def test_the_parser_walk_finds_each_kind():
    source = ("sub.add_parser('vp')\n"
              "for name in names:\n    p = sub.add_parser(name, help=h)\n"
              "from functools import cache, lru_cache\n"
              "@functools.cache\ndef build_parser():\n    pass\n"
              "@lru_cache(maxsize=None)\ndef f():\n    pass\n"
              "add = sub.add_parser\n")
    assert _calls(source, "probe.py", {"add_parser"}) == ["probe.py:1: add_parser", "probe.py:3: add_parser"]
    assert sorted(_names(source, "probe.py", CACHES)) == ["probe.py:4: cache", "probe.py:4: lru_cache",
                                                          "probe.py:5: cache", "probe.py:8: lru_cache"]


def _sweep_rules(source: str, name: str) -> list[str]:
    body = {n.name: n for n in ast.parse(source, filename=name).body if isinstance(n, ast.FunctionDef)}
    sweep, out = body["_sweep"], []
    args = sweep.args
    if ([a.arg for a in args.posonlyargs + args.args] != ["layers", "key", "group"]
            or args.vararg or args.kwonlyargs or args.kwarg):
        out.append(f"{name}:{sweep.lineno}: _sweep signature")
    calls = [n for n in ast.walk(body["classes"]) if isinstance(n, ast.Call)
             and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) == "_sweep"]
    if len(calls) != 1:
        out.append(f"{name}:{body['classes'].lineno}: classes calls _sweep {len(calls)} times")
    for call in calls:
        layers = call.args[0] if call.args else None
        if not (isinstance(layers, ast.List) and len(layers.elts) == 1 and len(call.args) == 3 and not call.keywords):
            out.append(f"{name}:{call.lineno}: classes sweeps other than one layer")
    return out


def test_classes_sweeps_one_layer():
    path = next(p for p in SOURCES if p.name == "geom.py")
    assert _sweep_rules(path.read_text(), path.name) == []


def test_the_one_layer_walk_finds_each_kind():
    ok_sweep = "def _sweep(layers, key, group):\n    pass\n"
    one = "def classes(layers):\n    return _sweep([bits], key, group)\n"
    probes = {
        "def _sweep(layers, key, group, netted=False):\n    pass\n" + one: ["probe.py:1: _sweep signature"],
        "def _sweep(layers, key, *, group):\n    pass\n" + one: ["probe.py:1: _sweep signature"],
        ok_sweep + "def classes(layers):\n    return _sweep(layers, key, group)\n": [
            "probe.py:4: classes sweeps other than one layer"],
        ok_sweep + "def classes(layers):\n    return geom._sweep([a, b], key, group)\n": [
            "probe.py:4: classes sweeps other than one layer"],
        ok_sweep + "def classes(layers):\n    return _sweep([bits], key, group, netted=True)\n": [
            "probe.py:4: classes sweeps other than one layer"],
        ok_sweep + "def classes(layers):\n    _sweep([a], key, group)\n    return _sweep([b], key, group)\n": [
            "probe.py:3: classes calls _sweep 2 times"],
        ok_sweep + "def classes(layers):\n    return overlay(layers, any)\n": ["probe.py:3: classes calls _sweep 0 times"],
        ok_sweep + one: [],
    }
    for source, found in probes.items():
        assert _sweep_rules(source, "probe.py") == found, source
