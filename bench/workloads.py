"""The three benchmark workloads.

A workload hands out rounds. A round is a fixed list of operations on
fresh inputs: round i of a seed always holds the same operations on the
same inputs, and no two rounds (or two operations of a guard or
reduction round) share a polygon, so the library's per-polygon caches
serve only what repeats inside one operation or, for extend-queries, the
query points that share a polygon. Each operation carries the check of
its own output, run outside the timed region.

reduction-verify draws fresh subset-sum values from the seed in every
round. guard-cover and extend-queries run a fixed corpus of polygons and
query points, drawn once from fixed corpus seeds, that the run seed and
the round place by an integer translation: their operation costs differ
by up to 30x with the shape and the query point, so a corpus drawn anew
per seed moved the per-run medians by a quarter between seeds, while a
translation changes the coordinates and no combinatorics.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import inputs

# Library functions are called through their modules so that a traced run,
# which rebinds them there, sees every call.
from mirrorgallery import cli, fileio, geom, reflect, visibility
from mirrorgallery.geom import Point, Region, SimplePolygon
from mirrorgallery.reflect import ReflectionKind, ReflectionSpec


class CheckFailed(Exception):
    """An operation's output violates a property it must have."""


class OpFailed(Exception):
    """An operation did not complete (non-zero exit code)."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _load_vp_oracle():
    """The arrangement-cell visibility-area oracle of the test suite.

    It classifies the cells of the arrangement of edges and sight lines by
    point tests and shares no code with the angular sweep it checks.
    """
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("vp_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.visibility_area_oracle


def _shape(shape: str, size, rng: random.Random):
    if shape == "comb(3)":
        return inputs.comb(3)
    if shape == "lshape":
        return inputs.lshape()
    if shape == "comb":
        return inputs.seeded_comb(rng, size)
    if shape == "funnel":
        return inputs.funnel(rng, *size)
    if shape == "histogram":
        return inputs.histogram(rng, size)
    return inputs.radial(rng, size)


def _polygon(ring) -> SimplePolygon:
    return SimplePolygon([Point(x, y) for x, y in ring])


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"mg {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


class Workload:
    name = ""
    # Check every output after the last operation instead of right after its
    # own, so that the checks' memory does not enter peak_rss_mb. Only for
    # workloads whose outputs are small (printed text, a file on disk).
    defer_checks = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._round: tuple[int, list[Op]] | None = None

    def rng(self, round_i: int, slot: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_i}:{slot}")

    def corpus_rng(self, slot: int) -> random.Random:
        return random.Random(f"corpus:{self.name}:{slot}")

    def offset(self, round_i: int, slot: int) -> tuple[int, int]:
        """Translation of a corpus polygon: distinct per (round, slot), seeded."""
        return 32 * round_i + slot, self.rng(round_i, slot).randrange(64)

    def round(self, i: int) -> list[Op]:
        if self._round is None or self._round[0] != i:
            self._round = (i, self.build(i))
        return self._round[1]

    def build(self, i: int) -> list[Op]:
        raise NotImplementedError

    def finish(self):
        """Checks deferred to the end of the run; raises CheckFailed."""


# ---------------------------------------------------------------------------
# reduction-verify
# ---------------------------------------------------------------------------

# (family, number of values) per slot of a round
REDUCTION_SLOTS = [
    ("specular", 6), ("specular", 8), ("specular", 7), ("specular", 8), ("specular", 6),
    ("diffuse", 3), ("diffuse", 4),
    ("diffuse-multi", 2), ("diffuse-multi", 3),
]


class ReductionVerify(Workload):
    name = "reduction-verify"
    defer_checks = True

    def build(self, i: int) -> list[Op]:
        ops = []
        for slot, (kind, m) in enumerate(REDUCTION_SLOTS):
            values, target = inputs.subset_sum_draw(self.rng(i, slot), m)
            out = self.workdir / f"r{i}-s{slot}.mg"
            argv = ["reduce-gen", "--kind", kind, "--values", ",".join(map(str, values)),
                    "--target", str(target), "--solve", "--out", str(out)]
            ops.append(Op(f"{kind}-m{m}", lambda argv=argv: _run_cli(argv),
                          lambda text, v=values, t=target, o=out: self._check(text, v, t, o)))
        return ops

    @staticmethod
    def _check(text: str, values, target: int, out: Path):
        inst = fileio.parse_instance(out.read_text())
        out.unlink()
        require(inst.values == values and inst.k == target, "file does not carry the input values")
        verdicts = {k: v for k, v in inst.expect.items() if k.startswith("verify")}
        require(bool(verdicts) and all(v == "pass" for v in verdicts.values()),
                f"verification entries not all pass: {verdicts}")
        witness = _fields(text).get("witness")
        require(witness is not None, "no witness line printed")
        solvable = inputs.subset_sum_reachable(values, target)
        require((witness != "none") == solvable,
                f"witness {witness!r} but the dynamic programme says solvable={solvable}")
        if solvable:
            main = list(inst.candidates.main)
            edges = [int(tok) for tok in witness.split()]
            require(len(set(edges)) == len(edges) and all(e in main for e in edges),
                    f"witness {edges} is not a set of main edges {main}")
            require(sum(values[main.index(e)] for e in edges) == target,
                    f"witness {edges} does not sum to {target}")


# ---------------------------------------------------------------------------
# guard-cover
# ---------------------------------------------------------------------------

# (shape, size, mode, bounces) per slot of a round. The short operations,
# whose latencies set op_p50_ms, sit on both sides of the 12 s comb(3)
# solve, so the median samples the whole run rather than one stretch of it.
GUARD_SLOTS = [
    ("comb", 3, "greedy", 0), ("histogram", 4, "greedy", 0), ("radial", 8, "greedy", 0),
    ("comb", 3, "reduce", 4), ("histogram", 5, "greedy", 0), ("comb", 4, "greedy", 0),
    ("radial", 10, "greedy", 0), ("histogram", 4, "reduce", 4), ("histogram", 6, "greedy", 0),
    ("comb", 5, "greedy", 0), ("radial", 12, "greedy", 0), ("histogram", 4, "greedy", 0),
    ("lshape", 0, "greedy", 1),
    ("comb(3)", 3, "greedy", 1),
    ("comb", 3, "greedy", 0), ("histogram", 5, "greedy", 0), ("radial", 8, "greedy", 0),
    ("comb", 4, "reduce", 4), ("histogram", 6, "greedy", 0), ("comb", 4, "greedy", 0),
    ("radial", 10, "greedy", 0), ("histogram", 5, "reduce", 4), ("histogram", 5, "greedy", 0),
    ("comb", 5, "greedy", 0), ("radial", 12, "greedy", 0), ("histogram", 6, "greedy", 0),
]


class GuardCover(Workload):
    name = "guard-cover"
    defer_checks = True

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.corpus = [_shape(shape, size, self.corpus_rng(slot))
                       for slot, (shape, size, _, _) in enumerate(GUARD_SLOTS)]

    def build(self, i: int) -> list[Op]:
        ops = []
        for slot, (shape, size, mode, r) in enumerate(GUARD_SLOTS):
            ring = inputs.translate(self.corpus[slot], *self.offset(i, slot))
            P = _polygon(ring)
            path = self.workdir / f"g{i}-s{slot}.mg"
            path.write_text(fileio.format_instance(fileio.InstanceFile(P)))
            argv = ["guard", str(path), "--mode", mode, "--bounces", str(r)]
            teeth = size if shape.startswith("comb") and mode == "greedy" and r == 0 else None
            ops.append(Op(f"{shape}-{size}-{mode}-r{r}", lambda argv=argv: _run_cli(argv),
                          lambda text, P=P, ring=ring, r=r, mode=mode, teeth=teeth:
                          self._check(text, P, ring, r, mode, teeth)))
        return ops

    @staticmethod
    def _check(text: str, P: SimplePolygon, ring, r: int, mode: str, teeth):
        f = _fields(text)
        guards = [int(tok) for tok in f["guards"].split()]
        require(int(f["count"]) == len(guards) and guards, f"bad guard list {f}")
        require(all(0 <= g < P.n for g in guards), f"guard index out of range: {guards}")
        regions = []
        for g in guards:
            p = Point(*ring[g])
            direct = Region.of(visibility.visibility_polygon(P, p).polygon)
            if r == 0:
                regions.append(direct)
            else:
                spec = ReflectionSpec(frozenset(range(P.n)), ReflectionKind.DIFFUSE, r)
                regions.append(geom.region_union_all([direct, reflect.diffuse_extend(P, p, spec).added]))
        covered = geom.region_union_all(regions).area
        require(covered == inputs.area(ring), f"guards {guards} cover {covered} of {inputs.area(ring)}")
        if teeth is not None:
            require(len(guards) == teeth, f"comb with {teeth} teeth got {len(guards)} guards")
        if mode == "reduce":
            base = [int(tok) for tok in f["base-guards"].split()]
            bound = -(-len(base) // (1 + r // 4))
            require(int(f["bound"]) == bound, f"printed bound {f['bound']} != {bound}")
            require(len(guards) <= bound and set(guards) <= set(base),
                    f"reduced {guards} from base {base} breaks the bound {bound}")


# ---------------------------------------------------------------------------
# extend-queries
# ---------------------------------------------------------------------------

QUERIES_PER_POLYGON = 2

# (shape, size) per polygon of a round; funnels take (left, right) chain sizes
EXTEND_SLOTS = [
    ("funnel", (2, 3)), ("funnel", (3, 3)), ("funnel", (3, 2)),
    ("histogram", 4), ("histogram", 5),
    ("radial", 8), ("radial", 10),
]


class ExtendQueries(Workload):
    name = "extend-queries"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.corpus = []
        for slot, (shape, size) in enumerate(EXTEND_SLOTS):
            rng = self.corpus_rng(slot)
            ring = _shape(shape, size, rng)
            queries = [(q, inputs.facing_edge(rng, ring, q))
                       for q in inputs.query_points(rng, ring, QUERIES_PER_POLYGON)]
            self.corpus.append((ring, queries))
        self.vp_areas: list[tuple[tuple[int, int], Fraction]] = []

    def build(self, i: int) -> list[Op]:
        ops = []
        for slot, (shape, _) in enumerate(EXTEND_SLOTS):
            ring, queries = self.corpus[slot]
            dx, dy = self.offset(i, slot)
            ring = inputs.translate(ring, dx, dy)
            P = _polygon(ring)
            for qi, ((qx, qy), e) in enumerate(queries):
                qp = Point(qx + dx, qy + dy)
                ops.append(Op(f"{shape}-q", lambda P=P, qp=qp, e=e: self._query(P, qp, e),
                              lambda out, P=P, ring=ring, key=(slot, qi), funnel=shape == "funnel":
                              self._check(out, P, ring, key, funnel)))
        return ops

    @staticmethod
    def _query(P: SimplePolygon, q: Point, e: int):
        vp = visibility.visibility_polygon(P, q)
        all_edges = frozenset(range(P.n))
        ev1 = reflect.diffuse_extend(P, q, ReflectionSpec(all_edges, ReflectionKind.DIFFUSE, 1))
        ev2 = reflect.diffuse_extend(P, q, ReflectionSpec(all_edges, ReflectionKind.DIFFUSE, 2))
        spec = reflect.specular_extend_single(P, q, e)
        return vp, ev1, ev2, spec

    def finish(self):
        # The oracle runs after the last operation: interleaved with the
        # operations of the first round it slowed them by a third (10.4 s
        # against 6.5-7 s per round), and only the first round had it.
        # Visible area is invariant under translation, so one oracle run
        # per corpus query serves that query in every round.
        oracle = _load_vp_oracle()
        expected = {}
        for key, vp_area in self.vp_areas:
            if key not in expected:
                ring, queries = self.corpus[key[0]]
                expected[key] = oracle(_polygon(ring), Point(*queries[key[1]][0]))
            require(vp_area == expected[key], f"VP area {vp_area} of query {key} differs from the oracle")

    def _check(self, out, P: SimplePolygon, ring, key: tuple[int, int], funnel: bool):
        vp, ev1, ev2, spec = out
        total = inputs.area(ring)
        vp_area = vp.polygon.area
        self.vp_areas.append((key, vp_area))
        vp_region = Region.of(vp.polygon)
        for name, added in (("r=1", ev1.added), ("r=2", ev2.added), ("specular", spec.added)):
            overlap = geom.region_intersection(added, vp_region).area
            require(overlap == 0, f"{name} added region overlaps the VP by {overlap}")
        require(ev1.added.area <= ev2.added.area, "r=2 adds less than r=1")
        require(vp_area + ev2.added.area <= total, "VP + added(r=2) exceeds the polygon")
        if funnel:
            require(vp_area + ev1.added.area == total, "funnel not completed at r=1")
        outside = geom.region_difference(spec.added, Region.of(P)).area
        require(outside == 0, f"specular added region leaves the polygon by {outside}")


WORKLOADS = {w.name: w for w in (ReductionVerify, GuardCover, ExtendQueries)}
