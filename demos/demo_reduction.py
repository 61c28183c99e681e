"""Subset-sum reduction polygons, generated and verified exactly.

The mirror family encodes each value as a floor spike revealed only by
its own mirror edge; the bounce family hides each value inside a thin
top triangle behind a sight ray. Solving "add exactly k of area by
choosing reflectors" then answers the subset-sum question.
"""

from pathlib import Path

from mirrorgallery.fileio import format_instance, instance_to_file
from mirrorgallery.geom import Region
from mirrorgallery.redgen import (
    SubsetSumInstance,
    added_region_for_edge,
    gen_diffuse,
    gen_specular,
    solve_by_enumeration,
    subset_sum_bruteforce,
    verify_instance,
)
from mirrorgallery.svg import render_scene

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

ss = SubsetSumInstance((3, 5, 7), 12)
print(f"values {ss.values}, target {ss.target}")
print(f"arithmetic witness: {subset_sum_bruteforce(ss)}")

for name, ri in [("mirror", gen_specular(ss)), ("bounce", gen_diffuse(ss))]:
    report = verify_instance(ri)
    witness = solve_by_enumeration(ri, report)
    print(f"{name} family: {ri.polygon.n} corners, "
          f"verification {'ok' if report.ok else 'FAILED'}, "
          f"edge witness {witness}")
    regions = [(Region.of(s), "#2ca02c") for s in ri.spikes]
    if witness:
        regions += [(added_region_for_edge(ri, e), "#9467bd") for e in witness]
    svg = render_scene(ri.polygon, query=ri.q, regions=regions,
                       highlight_edges=list(ri.candidates.main))
    path = OUT / f"reduction_{name}.svg"
    path.write_text(svg)
    (OUT / f"reduction_{name}.mg").write_text(format_instance(instance_to_file(ri)))
    print(f"  wrote {path} and {path.with_suffix('.mg').name}")
