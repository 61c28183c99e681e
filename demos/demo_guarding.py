"""Guarding a comb gallery, with and without reflections.

Each comb tooth needs its own guard under plain visibility. With four
diffuse bounces allowed, the spanning-tree class reduction keeps only
every other level of the guard graph and still certifies full coverage,
so the guard count drops to the ceiling of half.
"""

from pathlib import Path

from mirrorgallery.guard import (
    build_guard_graph,
    decompose,
    greedy_cover,
    optimal_cover_bruteforce,
    spanning_tree_reduce,
)
from mirrorgallery.geom import SimplePolygon
from mirrorgallery.svg import render_scene

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

comb = SimplePolygon(
    [(0, 0), (5, 0),
     (5, 2), (4, 2), (4, 1), (3, 1), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)]
)
cells = decompose(comb, 0)
print(f"comb gallery: {comb.n} corners, {len(cells.cells)} coverage classes")

optimal = optimal_cover_bruteforce(comb, 0)
greedy = greedy_cover(comb, 0)
print(f"optimal guards: {optimal.guards} ({len(optimal.guards)})")
print(f"greedy guards:  {greedy.guards} ({len(greedy.guards)})")

graph = build_guard_graph(comb, optimal)
print(f"guard graph edges (one bounce of mutual sight): {sorted(graph.edges)}")

reduced = spanning_tree_reduce(comb, optimal, 4)
bound = -(-len(optimal.guards) // 2)
print(f"with 4 diffuse bounces: {reduced.guards} ({len(reduced.guards)} <= {bound}), "
      f"coverage certified over {len(reduced.coverage_certificate)} classes")

svg = render_scene(comb, highlight_edges=[])
(OUT / "guard_comb.svg").write_text(svg)
print(f"wrote {OUT / 'guard_comb.svg'}")
