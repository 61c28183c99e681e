"""The benchmark's layer tracer still measures the library, and a benchmark
round builds no cell.

bench/layertrace.py rebinds library functions and reads region internals,
so a change to either can break `bench/run.py --trace 1` without failing
any library test. The tracer runs in a child interpreter: its rebinding
never reaches this process. So does round 0 of every workload of
bench/workloads.py, untraced, with `geom._trapezoid` wrapped to count the
cells its operations build: point queries and booleans read net boundaries
and runs, and cells are built only for output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json
from fractions import Fraction as F

import layertrace
from mirrorgallery import guard, reflect, svg
from mirrorgallery.geom import Point, SimplePolygon
from mirrorgallery.reflect import ReflectionKind, ReflectionSpec

tracer = layertrace.Tracer()
tracer.install()
L = SimplePolygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
q = Point(F(3, 2), F(1, 2))
ops = [
    lambda: reflect.diffuse_extend(L, q, ReflectionSpec(frozenset(range(L.n)), ReflectionKind.DIFFUSE, 1)),
    lambda: reflect.specular_extend_single(L, q, 5),
    lambda: guard.greedy_cover(L, 1),
    # the bit cap merges no cells within it, so SVG output is what merges here
    lambda: svg.render_scene(L, query=q, regions=[(reflect.diffuse_extend(
        L, q, ReflectionSpec(frozenset(range(L.n)), ReflectionKind.DIFFUSE, 2)).added, "#1f77b4")]),
]
for i, op in enumerate(ops):
    tracer.op = i
    op()
tracer.op = None
print(json.dumps({"errors": tracer.errors, "metrics": tracer.metrics()}))
"""


def test_traced_operations_record_overlay_and_merge():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["errors"] == []
    metrics = out["metrics"]
    assert metrics["geom.overlay.calls"] > 0
    assert metrics["geom.merge_region.calls"] > 0
    assert metrics["reflect.diffuse_extend.calls"] > 1  # direct, and inside greedy_cover
    # the cascade re-emits light as fans, never through weak visibility
    assert metrics["visibility.weak_visibility_polygon.calls"] == 0


ROUND_ZERO = """
import json
import sys
import tempfile
from pathlib import Path

import workloads
from mirrorgallery import geom
from mirrorgallery.geom import Region, SimplePolygon

built = []
trapezoid = geom._trapezoid
geom._trapezoid = lambda *args: built.append(args) or trapezoid(*args)
cells = []  # (workload, seed, operation, cells built)
with tempfile.TemporaryDirectory() as tmp:
    for name, workload in workloads.WORKLOADS.items():
        for seed in map(int, sys.argv[1:]):
            for op in workload(seed, Path(tmp)).round(0):
                before = len(built)
                op.run()
                cells.append((name, seed, op.label, len(built) - before))
# the wrapper sees the cells that reading a swept region's parts builds
overlay_cells = len(geom.overlay([Region.of(SimplePolygon([(0, 0), (1, 0), (0, 1)]))], any).parts)
print(json.dumps({"cells": cells, "overlay_cells": overlay_cells, "built": len(built)}))
"""


def test_round_zero_of_every_workload_builds_no_cell():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, "-c", ROUND_ZERO, "1", "7"], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert {(w, seed) for w, seed, _, _ in out["cells"]} == {
        (w, seed) for w in ("reduction-verify", "guard-cover", "extend-queries") for seed in (1, 7)}
    assert [op for op in out["cells"] if op[3]] == []
    assert out["overlay_cells"] == out["built"] == 1
