"""The benchmark's layer tracer still measures the library.

bench/layertrace.py rebinds library functions and reads region internals,
so a change to either can break `bench/run.py --trace 1` without failing
any library test. The tracer runs in a child interpreter: its rebinding
never reaches this process.
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
