import io
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorgallery import cli, geom, redgen, reflect
from mirrorgallery.errors import GeometryError, InvalidInstance, TooLarge, VerificationFailed
from mirrorgallery.geom import Point, Region, SimplePolygon, region_intersection
from mirrorgallery.redgen import (
    ReductionInstance,
    SubsetSumInstance,
    added_region_for_edge,
    gen_diffuse,
    gen_specular,
    solve_by_enumeration,
    subset_sum_bruteforce,
    verify_instance,
)
from mirrorgallery.reflect import ReflectionKind, ReflectionSpec, diffuse_extend

from oracles import edge_indices_reference, enumeration_reference


class TestSubsetSum:
    def test_zero_target_empty_witness(self):
        assert subset_sum_bruteforce(SubsetSumInstance((1,), 0)) == ()

    def test_small(self):
        assert subset_sum_bruteforce(SubsetSumInstance((1, 2, 3), 5)) == (1, 2)

    def test_first_witness_in_mask_order(self):
        assert subset_sum_bruteforce(SubsetSumInstance((3, 34, 4, 12, 5, 2), 9)) == (2, 4)

    def test_unsolvable(self):
        assert subset_sum_bruteforce(SubsetSumInstance((2, 4), 3)) is None

    def test_too_large(self):
        with pytest.raises(TooLarge):
            subset_sum_bruteforce(SubsetSumInstance(tuple([1] * 21), 5))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInstance):
            SubsetSumInstance((1, -2), 1)


class TestSpecularGenerator:
    def test_zero_value_rejected(self):
        with pytest.raises(InvalidInstance):
            gen_specular(SubsetSumInstance((0,), 0))

    def test_single_value(self):
        ri = gen_specular(SubsetSumInstance((1,), 1))
        assert [s.area for s in ri.spikes] == [1]
        assert added_region_for_edge(ri, ri.candidates.main[0]).area == 1
        verify_instance(ri)

    def test_spike_shape_matches_values(self):
        # each bottom spike is a right triangle with legs 2*value and 1
        ri = gen_specular(SubsetSumInstance((2, 5), 7))
        for value, spike in zip(ri.source.values, ri.spikes):
            xs = sorted({v.x for v in spike.vertices})
            ys = sorted({v.y for v in spike.vertices})
            assert xs[-1] - xs[0] == 2 * value
            assert ys[-1] - ys[0] == 1
            assert spike.area == value

    def test_added_region_is_exactly_the_spike(self):
        ri = gen_specular(SubsetSumInstance((3, 2), 5))
        for value, e, spike in zip(ri.source.values, ri.candidates.main, ri.spikes):
            added = added_region_for_edge(ri, e)
            assert added.area == value
            assert region_intersection(added, Region.of(spike)).area == value

    def test_both_witnesses_certify(self):
        ri = gen_specular(SubsetSumInstance((1, 2, 3), 3))
        areas = {e: added_region_for_edge(ri, e).area for e in ri.candidates.main}
        third = ri.candidates.main[2]
        first_two = ri.candidates.main[:2]
        assert areas[third] == 3
        assert sum(areas[e] for e in first_two) == 3

    def test_construction_decides_edge_pairs_on_integers(self, monkeypatch):
        # building the m=8 polygon, as gen_specular does and verify_instance's
        # `simple` clause repeats, runs no Fraction predicate; segment_intersection
        # runs only to name where a failing pair meets
        ri = gen_specular(SubsetSumInstance((5, 1, 12, 7, 3, 9, 2, 11), 20))
        ring = list(ri.polygon.vertices)
        assert len(ring) == 6 * 8 + 8  # the generator's ring: nothing to normalize away
        calls = Counter()
        for name in ("orientation", "segment_intersection"):
            fn = getattr(geom, name)
            monkeypatch.setattr(geom, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        SimplePolygon(ring)
        assert calls == Counter()
        ring[5], ring[6] = ring[6], ring[5]
        with pytest.raises(GeometryError, match="edges 4 and 6 meet"):
            SimplePolygon(ring)
        assert calls == Counter({"segment_intersection": 1})

    def test_coordinate_bits_stay_polynomial(self):
        for values in [(1,), (1, 2, 3), (12, 12, 12, 12, 12, 12)]:
            for gen in (gen_specular, gen_diffuse):
                ri = gen(SubsetSumInstance(values, 1))
                bits = Region.of(ri.polygon).max_coordinate_bits()
                assert bits <= 64, (gen.__name__, values, bits)


class TestDiffuseGenerator:
    def test_top_triangle_areas_exact(self):
        ri = gen_diffuse(SubsetSumInstance((2, 3), 5))
        assert [s.area for s in ri.spikes] == [2, 3]

    def test_altitudes_at_least_one(self):
        ri = gen_diffuse(SubsetSumInstance((1, 4, 2), 3))
        for e in ri.candidates.main:
            seg = ri.polygon.edge(e)
            assert abs(seg.b.y - seg.a.y) >= 1

    def test_floor_leak_is_fractional_and_small(self):
        ri = gen_diffuse(SubsetSumInstance((2, 3), 5))
        m = len(ri.source.values)
        spec = ReflectionSpec(frozenset({ri.candidates.base}), ReflectionKind.DIFFUSE, 1)
        ev = diffuse_extend(ri.polygon, ri.q, spec)
        spikes = Region(tuple(ri.spikes))
        leak = region_intersection(ev.added, spikes).area
        assert 0 < leak < F(1, m * m)
        assert leak.denominator > 1

    def test_verify_passes(self):
        verify_instance(gen_diffuse(SubsetSumInstance((1, 2), 2)))
        verify_instance(gen_diffuse(SubsetSumInstance((1, 2), 2), multi=True))

    def test_simplicity_random(self, rng):
        # generation builds the ring unchecked: the constructor's check must
        # pass on it; gadget count must match the value count
        for _ in range(6):
            m = rng.randint(1, 6)
            values = tuple(rng.randint(1, 12) for _ in range(m))
            ri = gen_diffuse(SubsetSumInstance(values, 0))
            assert SimplePolygon(ri.polygon.vertices).vertices == ri.polygon.vertices
            assert len(ri.spikes) == m
            assert len(ri.candidates.main) == m
            assert sum((s.area for s in ri.spikes), F(0)) == sum(values)


def _crossed():
    # a bounce-family instance whose ring has vertices n//2 and n//2 + 1 swapped
    ri = gen_diffuse(SubsetSumInstance((3, 5, 7), 8))
    ring = list(ri.polygon.vertices)
    n = len(ring)
    ring[n // 2], ring[n // 2 + 1] = ring[n // 2 + 1], ring[n // 2]
    return replace(ri, polygon=SimplePolygon.unchecked(ring))


CROSSED = "polygon boundary is not simple: edges 8 and 10 meet at Point(42019/52, 5672565/10504)"


class TestVerifyInstance:
    def test_a_crossed_ring_fails_the_simple_clause(self, monkeypatch):
        # the clause checks the instance polygon's own integer ring, which an
        # unchecked polygon carries as given, and verification stops there:
        # no visibility, reflection or sweep runs on the crossed ring
        ran = []
        for module, name in ((redgen, "visibility_polygon"), (redgen, "diffuse_extend"),
                             (redgen, "specular_extend_single"), (redgen, "classes"), (reflect, "_cascade")):
            monkeypatch.setattr(module, name, lambda *args, name=name: ran.append(name))
        with pytest.raises(VerificationFailed) as err:
            verify_instance(_crossed())
        assert str(err.value) == f"clause simple failed: {CROSSED}"
        assert err.value.report.clauses == (("simple", False, CROSSED),)
        assert ran == []

    @pytest.mark.parametrize("solve", [[], ["--solve"]])
    def test_mg_reduce_gen_exits_6_on_a_crossed_ring(self, tmp_path, monkeypatch, capsys, solve):
        monkeypatch.setattr(cli, "gen_diffuse", lambda ss, multi=False: _crossed())
        out = tmp_path / "x.mg"
        argv = ["reduce-gen", "--kind", "diffuse", "--values", "3,5,7", "--target", "8", *solve, "--out", str(out)]
        assert cli.main(argv) == 6
        # the file is written with the crossed ring, which `parse_instance` refuses: read its expect section
        assert out.read_text().split("expect:\n")[1] == "k 8\nverify-simple fail\nverify failed\n"
        printed = capsys.readouterr()
        assert "witness" not in printed.out  # the solver refuses a report that stopped at the simple clause
        assert printed.err == ("error: the report stops at its simple clause; enumeration is unsound\n" if solve else "")

    def test_tampered_mirror_detected(self):
        # sliding the mirror sideways misaligns its unfolded footprint with
        # the spike mouth (a vertical lift would not: the doubling is
        # height-invariant), so the exactness clause must trip
        ri = gen_specular(SubsetSumInstance((2,), 2))
        e = ri.candidates.main[0]
        seg = ri.polygon.edge(e)
        shift = F(1, 4)
        lifted = {seg.a: Point(seg.a.x + shift, seg.a.y), seg.b: Point(seg.b.x + shift, seg.b.y)}
        ring = [lifted.get(v, v) for v in ri.polygon.vertices]
        tampered = ReductionInstance(
            polygon=SimplePolygon(ring),
            q=ri.q,
            candidates=ri.candidates,
            kind=ri.kind,
            k=ri.k,
            source=ri.source,
            spikes=ri.spikes,
        )
        with pytest.raises(VerificationFailed) as err:
            verify_instance(tampered)
        name, _ = err.value.report.first_failure()
        assert name.startswith("exact")

    def test_swapped_spikes_leak(self):
        # each mirror still adds its value, but into the other spike's slot
        ri = gen_specular(SubsetSumInstance((2, 2, 3), 4))
        s0, s1, s2 = ri.spikes
        with pytest.raises(VerificationFailed) as err:
            verify_instance(replace(ri, spikes=(s1, s0, s2)))
        assert err.value.report.first_failure() == ("exclusive", "mirror 22 leaks 2 into spike 1")

    def test_dropped_candidate_is_not_opaque(self):
        # the third gadget's main edge, no longer a candidate, adds its whole spike
        ri = gen_diffuse(SubsetSumInstance((3, 5, 7), 12))
        cut = replace(ri, candidates=replace(ri.candidates, main=ri.candidates.main[:2]))
        with pytest.raises(VerificationFailed) as err:
            verify_instance(cut)
        assert err.value.report.first_failure() == ("opaque", "non-candidate edge 3 adds 7 of spike area")

    def test_two_dropped_candidates_name_the_first_leak(self):
        # the second and third gadgets' main edges both leak; the clause names
        # the first of them in edge order, as one cascade per edge did
        ri = gen_diffuse(SubsetSumInstance((3, 5, 7), 12))
        cut = replace(ri, candidates=replace(ri.candidates, main=ri.candidates.main[:1]))
        with pytest.raises(VerificationFailed) as err:
            verify_instance(cut)
        assert err.value.report.first_failure() == ("opaque", "non-candidate edge 3 adds 7 of spike area")


class TestEnumeration:
    def test_full_set(self):
        ri = gen_specular(SubsetSumInstance((1, 2, 3), 6))
        assert solve_by_enumeration(ri) == ri.candidates.main

    def test_parity_unsolvable(self):
        ri = gen_specular(SubsetSumInstance((2, 4), 3))
        assert solve_by_enumeration(ri) is None

    def test_witness_matches_arithmetic(self):
        ri = gen_specular(SubsetSumInstance((3, 5, 7), 12))
        got = solve_by_enumeration(ri)
        assert got == (ri.candidates.main[1], ri.candidates.main[2])

    def test_reuses_verified_regions(self, monkeypatch):
        # the regions a verification report holds serve the solver; none is recomputed
        ri = gen_diffuse(SubsetSumInstance((3, 5, 7), 12))
        report = verify_instance(ri)
        assert len(report.added) == len(ri.candidates.main)

        def recomputed(ri, e):
            raise AssertionError(f"added region of edge {e} recomputed")

        monkeypatch.setattr(redgen, "added_region_for_edge", recomputed)
        got = solve_by_enumeration(ri, report.added)
        assert got == (ri.candidates.main[1], ri.candidates.main[2])

    def test_overlapping_regions_refused(self):
        ri = gen_specular(SubsetSumInstance((3, 5, 7), 12))
        added = verify_instance(ri).added
        with pytest.raises(VerificationFailed, match="^candidate added regions overlap; enumeration is unsound$"):
            solve_by_enumeration(ri, [added[0], added[0], added[2]])

    def test_equivalence_both_generators(self, rng):
        for _ in range(10):
            m = rng.choice([1, 2, 2, 3])
            values = tuple(rng.randint(1, 12) for _ in range(m))
            if rng.random() < 0.6:
                target = sum(v for v in values if rng.random() < 0.5)
            else:
                target = rng.randint(0, sum(values) + 3)
            ss = SubsetSumInstance(values, target)
            want = subset_sum_bruteforce(ss) is not None
            for gen in (gen_specular, gen_diffuse):
                assert (solve_by_enumeration(gen(ss)) is not None) == want

    def test_matches_the_fraction_reference(self, rng):
        # the first witness in mask order, on both families, for solvable and
        # unsolvable targets, with m up to 10; the arithmetic solver shares the
        # integer enumeration and must give the same subset of indices
        for gen in (gen_specular, gen_diffuse):
            for m in (1, 4, 7, 10):
                values = tuple(rng.randint(1, 12) for _ in range(m))
                ri = gen(SubsetSumInstance(values, 0))
                added = verify_instance(ri).added
                areas = [region.area for region in added]
                sums = {sum(v for i, v in enumerate(values) if mask >> i & 1) for mask in range(1 << m)}
                missing = sorted(set(range(sum(values) + 3)) - sums)
                targets = [rng.choice(sorted(sums)) for _ in range(3)] + missing[:2] + [sum(values) + 3]
                for t in targets:
                    want = enumeration_reference(ri.candidates.main, areas, F(t))
                    assert solve_by_enumeration(replace(ri, k=F(t)), added) == want, (gen.__name__, values, t)
                    assert (want is None) == (t not in sums)
                    assert subset_sum_bruteforce(SubsetSumInstance(values, t)) == enumeration_reference(
                        range(m), values, F(t))

    def test_fractional_areas_scale_by_their_lcm(self, rng):
        # disjoint rectangles whose areas have denominators 2 to 9 stand in for
        # the added regions; the target is any subset sum or near miss
        ri = gen_specular(SubsetSumInstance((1,) * 6, 0))
        for _ in range(20):
            areas = [F(rng.randint(1, 20), rng.randint(2, 9)) for _ in range(6)]
            added = [Region.of(SimplePolygon([(3 * i, 0), (3 * i + 1, 0), (3 * i + 1, a), (3 * i, a)]))
                     for i, a in enumerate(areas)]
            assert [r.area for r in added] == areas
            k = sum((a for i, a in enumerate(areas) if rng.random() < 0.5), F(0)) + rng.choice([0, 0, F(1, 7)])
            want = enumeration_reference(ri.candidates.main, areas, k)
            assert solve_by_enumeration(replace(ri, k=k), added) == want, (areas, k)


def _cli_witness(kind, values, target, out):
    # the witness line `mg reduce-gen --solve` prints, as a tuple of edges or None
    buf = io.StringIO()
    argv = ["reduce-gen", "--kind", kind, "--values", ",".join(map(str, values)), "--target", str(target),
            "--solve", "--out", str(out)]
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    witness = buf.getvalue().split("witness:")[1].split()
    return None if witness == ["none"] else tuple(map(int, witness))


class TestSolveFromReport:
    def test_cli_witness_matches_a_solve_alone(self, rng, tmp_path):
        # the CLI solves from the verification report; a solve alone computes
        # the added regions and sweeps them itself
        for kind, gen in (("specular", gen_specular), ("diffuse", gen_diffuse)):
            for m in (1, 4, 7):
                values = tuple(rng.randint(1, 12) for _ in range(m))
                solvable = sum(v for i, v in enumerate(values) if i % 2 == 0)
                for target in (solvable, sum(values) + 1):
                    want = solve_by_enumeration(gen(SubsetSumInstance(values, target)))
                    assert (want is None) == (target > sum(values))
                    assert _cli_witness(kind, values, target, tmp_path / "r.mg") == want, (kind, values, target)

    def test_overlapping_added_regions_refused_on_both_paths(self):
        # a candidate listed twice: the exclusive clause's sweep finds its
        # region twice, the report records the overlap and the solver refuses
        # it from the report as from its own sweep
        ri = gen_specular(SubsetSumInstance((3, 5, 7), 12))
        main = ri.candidates.main
        twice = replace(ri, candidates=replace(ri.candidates, main=(main[0], main[0], main[2])))
        with pytest.raises(VerificationFailed) as err:
            verify_instance(twice)
        report = err.value.report
        assert report.overlap and len(report.added) == 3
        assert not verify_instance(ri).overlap
        for added in (report, ()):
            with pytest.raises(VerificationFailed, match="^candidate added regions overlap; enumeration is unsound$"):
                solve_by_enumeration(twice, added)

    def test_one_solve_run_sweeps_classes_once(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(redgen, "classes", lambda layers: calls.append(len(layers)) or geom.classes(layers))
        assert _cli_witness("specular", (3, 5, 7, 2), 12, tmp_path / "r.mg") is not None
        assert calls == [8]  # the spikes and the added regions, in the exclusive clause


class TestEdgePositions:
    # the generators read their main and base edges off their ring positions;
    # the reference finds each edge's endpoints by a vertex lookup
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(1, 30), min_size=1, max_size=8),
           kind=st.sampled_from(["specular", "diffuse", "diffuse-multi"]))
    def test_positions_match_a_vertex_lookup(self, values, kind):
        ss = SubsetSumInstance(tuple(values), 0)
        ri = gen_specular(ss) if kind == "specular" else gen_diffuse(ss, multi=kind == "diffuse-multi")
        P = ri.polygon
        assert SimplePolygon(P.vertices).vertices == P.vertices  # the ring is simple as built
        if kind == "specular":
            # each mirror spans half its floor spike's x-range, at the height of the mirror line
            y = 2 * (sum(values) + len(values))
            edges = [(Point(s.vertices[2].x / 2, y), Point(s.vertices[0].x / 2, y)) for s in ri.spikes]
            assert edge_indices_reference(P, edges) == ri.candidates.main
            return
        # each main edge rises from the rectangle's top to its top triangle's corner; the base is the floor
        top = P.vertices[2].y
        edges = [(Point(s.vertices[0].x, top), s.vertices[0]) for s in ri.spikes]
        assert edge_indices_reference(P, edges) == ri.candidates.main
        xs = sorted({v.x for v in P.vertices})
        assert edge_indices_reference(P, [(Point(xs[0], -1), Point(xs[-1], -1))]) == (ri.candidates.base,)
        assert ri.candidates.second == (ri.candidates.main if kind == "diffuse-multi" else None)


def test_the_reduction_demo_runs(tmp_path):
    # generates, verifies and solves both families through the library calls, in a copy of demos/
    root = Path(__file__).resolve().parent.parent
    demos = shutil.copytree(root / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demos / "demo_reduction.py")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["values (3, 5, 7), target 12", "arithmetic witness: (1, 2)"]
    for family in ("mirror", "bounce"):
        line = next(ln for ln in lines if ln.startswith(f"{family} family:"))
        assert "verification ok" in line and "edge witness (" in line, line
        assert (demos / "out" / f"reduction_{family}.svg").exists() and (demos / "out" / f"reduction_{family}.mg").exists()
