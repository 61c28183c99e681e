import argparse
import ast
import shutil
from fractions import Fraction as F
from pathlib import Path

import pytest

from mirrorgallery import cli
from mirrorgallery.fileio import (
    InstanceFile,
    format_instance,
    format_rational,
    instance_to_file,
    parse_instance,
    parse_rational,
)
from mirrorgallery.geom import Point
from mirrorgallery.redgen import SubsetSumInstance, gen_diffuse
from mirrorgallery import errors
from mirrorgallery.errors import MirrorGalleryError, ParseError

from conftest import comb, lshape

SQUARE_FILE = """mgv1
polygon:
0 0
1 0
1 1
0 1
query: 1/2 1/2
"""


class TestFileFormat:
    def test_rational_wire_format(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(5)) == "5"
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-7") == -7
        with pytest.raises(ParseError):
            parse_rational("x")

    def test_round_trip_exact(self):
        ri = gen_diffuse(SubsetSumInstance((2, 3), 5))
        f = instance_to_file(ri, {"area": format_rational(ri.polygon.area)})
        text = format_instance(f)
        back = parse_instance(text)
        assert back.polygon == f.polygon
        assert back.query == f.query
        assert back.candidates == f.candidates
        assert back.k == f.k
        assert back.values == f.values
        assert back.expect == f.expect
        assert format_instance(back) == text

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_instance("polygon:\n0 0\n1 0\n0 1\n")

    def test_bad_vertex(self):
        with pytest.raises(ParseError):
            parse_instance("mgv1\npolygon:\n0\n1 0\n0 1\n")


class TestCommands:
    def test_vp_square(self, tmp_path, capsys):
        inp = tmp_path / "sq.mg"
        inp.write_text(SQUARE_FILE)
        rc = cli.main(["vp", str(inp)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "area: 1" in out

    def test_vp_svg_deterministic(self, tmp_path):
        inp = tmp_path / "sq.mg"
        inp.write_text(SQUARE_FILE)
        s1 = tmp_path / "a.svg"
        s2 = tmp_path / "b.svg"
        assert cli.main(["vp", str(inp), "--out", str(tmp_path / "r.txt"), "--svg", str(s1)]) == 0
        assert cli.main(["vp", str(inp), "--out", str(tmp_path / "r.txt"), "--svg", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().startswith("<?xml")

    def test_extend_diffuse(self, tmp_path, capsys):
        inp = tmp_path / "l.mg"
        f = InstanceFile(polygon=lshape(), query=Point(F(3, 2), F(1, 2)))
        inp.write_text(format_instance(f))
        rc = cli.main(["extend", str(inp), "--edges", "5", "--kind", "diffuse", "--bounces", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "added-area: 1/2" in out

    def test_guard_modes(self, tmp_path, capsys):
        inp = tmp_path / "l.mg"
        inp.write_text(format_instance(InstanceFile(polygon=lshape())))
        assert cli.main(["guard", str(inp), "--mode", "greedy"]) == 0
        assert "count: 1" in capsys.readouterr().out
        assert cli.main(["guard", str(inp), "--mode", "reduce", "--bounces", "4"]) == 0
        out = capsys.readouterr().out
        assert "bound:" in out

    def test_successive_calls_share_no_arguments(self, tmp_path, capsys):
        # each call sees only its own arguments and the defaults: --bounces 4 halves the printed bound
        inp = tmp_path / "c.mg"
        inp.write_text(format_instance(InstanceFile(polygon=comb(2))))
        assert cli.main(["guard", str(inp), "--mode", "reduce", "--bounces", "4"]) == 0
        assert "bound: 1" in capsys.readouterr().out
        assert cli.main(["guard", str(inp), "--mode", "reduce"]) == 0
        assert "bound: 2" in capsys.readouterr().out
        assert cli.main(["guard", str(inp)]) == 0
        assert "count: 2" in capsys.readouterr().out

    def test_reduce_gen_and_solve(self, tmp_path, capsys):
        out_file = tmp_path / "inst.mg"
        rc = cli.main(
            ["reduce-gen", "--kind", "specular", "--values", "1,2,3", "--target", "3",
             "--out", str(out_file), "--solve"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "witness:" in printed and "none" not in printed
        inst = parse_instance(out_file.read_text())
        assert inst.k == 3
        assert inst.expect.get("verify-exact[0]") == "pass"

    def test_reduce_gen_random_seeded(self, tmp_path):
        a = tmp_path / "a.mg"
        b = tmp_path / "b.mg"
        args = ["reduce-gen", "--kind", "diffuse", "--random", "3", "--seed", "11"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_render_checksum_regression(self):
        # frozen rendering of a bounce-family instance: the double-triangle
        # gadgets and candidate edges must stay byte-stable
        import hashlib

        from mirrorgallery.geom import Region
        from mirrorgallery.svg import render_scene

        ri = gen_diffuse(SubsetSumInstance((2, 3), 5))
        svg = render_scene(
            ri.polygon,
            query=ri.q,
            regions=[(Region.of(s), "#2ca02c") for s in ri.spikes],
            highlight_edges=list(ri.candidates.main),
        )
        digest = hashlib.sha256(svg.encode()).hexdigest()
        assert digest == "ff6c3f1af32eca76de717b732b482a83d2b5dc01c58d48c9fb2d8f94e330cefa"

    def test_render_layers(self, tmp_path):
        out_file = tmp_path / "inst.mg"
        assert cli.main(
            ["reduce-gen", "--kind", "specular", "--values", "1,2", "--target", "2",
             "--out", str(out_file)]
        ) == 0
        svg = tmp_path / "x.svg"
        assert cli.main(["render", str(out_file), "--layers", "query,candidates,vp",
                         "--out", str(svg)]) == 0
        text = svg.read_text()
        assert "<circle" in text and "<line" in text and "<polygon" in text
        bare = tmp_path / "bare.svg"
        assert cli.main(["render", str(out_file), "--out", str(bare)]) == 0
        assert "<circle" not in bare.read_text()


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.mg"
        bad.write_text("nonsense\n")
        assert cli.main(["vp", str(bad)]) == 2

    @pytest.mark.parametrize("max_value", ["0", "-3"])
    def test_max_value_below_one_is_2(self, capsys, max_value):
        assert cli.main(["reduce-gen", "--kind", "specular", "--random", "3", "--max-value", max_value]) == 2
        assert "--max-value" in capsys.readouterr().err

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "x.mg"
        assert cli.main(["reduce-gen", "--kind", "specular", "--values", "1,2", "--target", "3",
                         "--out", str(out_file)]) == 2
        assert f"cannot write {out_file}" in capsys.readouterr().err

    def test_unwritable_svg_is_2(self, tmp_path, capsys):
        inp = tmp_path / "sq.mg"
        inp.write_text(SQUARE_FILE)
        svg = tmp_path / "missing" / "vp.svg"
        assert cli.main(["vp", str(inp), "--out", str(tmp_path / "r.txt"), "--svg", str(svg)]) == 2
        assert f"cannot write {svg}" in capsys.readouterr().err
        assert (tmp_path / "r.txt").read_text().startswith("area: 1")

    def test_query_outside_is_3(self, tmp_path):
        inp = tmp_path / "sq.mg"
        inp.write_text(SQUARE_FILE)
        assert cli.main(["vp", str(inp), "--query", "9,9"]) == 3

    def test_spec_mismatch_is_4(self, tmp_path):
        inp = tmp_path / "sq.mg"
        inp.write_text(SQUARE_FILE)
        assert cli.main(["extend", str(inp), "--edges", "0", "--kind", "specular",
                         "--bounces", "2"]) == 4

    def test_bit_blowup_is_5(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MG_BIT_CAP", "1")
        inp = tmp_path / "l.mg"
        f = InstanceFile(polygon=lshape(), query=Point(F(3, 2), F(1, 2)))
        inp.write_text(format_instance(f))
        assert cli.main(["extend", str(inp), "--edges", "5", "--kind", "diffuse",
                         "--bounces", "1"]) == 5

    @pytest.mark.parametrize("cap", ["abc", "-5", "0"])
    def test_bad_bit_cap_is_2(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("MG_BIT_CAP", cap)
        inp = tmp_path / "l.mg"
        f = InstanceFile(polygon=lshape(), query=Point(F(3, 2), F(1, 2)))
        inp.write_text(format_instance(f))
        assert cli.main(["extend", str(inp), "--edges", "0,1,2,3,4,5", "--bounces", "1"]) == 2
        assert "MG_BIT_CAP" in capsys.readouterr().err

    def test_verification_failure_is_6_and_writes_file(self, tmp_path, monkeypatch):
        from mirrorgallery import cli as cli_mod
        from mirrorgallery.errors import VerificationFailed

        def boom(ri):
            raise VerificationFailed("forced", report=None)

        monkeypatch.setattr(cli_mod, "verify_instance", boom)
        out_file = tmp_path / "inst.mg"
        rc = cli_mod.main(["reduce-gen", "--kind", "specular", "--values", "1",
                           "--target", "1", "--out", str(out_file)])
        assert rc == 6
        assert out_file.exists()
        assert "verify failed" in out_file.read_text() or "failed" in out_file.read_text()

    @pytest.mark.parametrize("values", [("--random", "0"), ("--values", "0,3", "--target", "3"),
                                        ("--values", "1,-2", "--target", "1")])
    def test_rejected_values_are_2(self, tmp_path, capsys, values):
        assert cli.main(["reduce-gen", "--kind", "specular", *values, "--out", str(tmp_path / "x.mg")]) == 2
        assert "error: " in capsys.readouterr().err

    def test_optimal_above_the_brute_force_limit_is_2(self, tmp_path, capsys):
        inp = tmp_path / "c.mg"
        inp.write_text(format_instance(InstanceFile(polygon=comb(5))))
        assert cli.main(["guard", str(inp), "--mode", "optimal"]) == 2
        assert "20 vertices exceeds the brute-force limit of 16" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["greedy", "optimal", "reduce"])
    @pytest.mark.parametrize("bounces", ["-1", "-4", "-5"])
    def test_negative_bounces_are_4(self, tmp_path, monkeypatch, capsys, mode, bounces):
        def never(*args, **kwargs):
            raise AssertionError("the base cover was computed")

        if mode == "reduce":  # refused before the base cover, which runs at 0 bounces
            monkeypatch.setattr(cli, "greedy_cover", never)
            monkeypatch.setattr(cli, "optimal_cover_bruteforce", never)
        inp = tmp_path / "l.mg"
        inp.write_text(format_instance(InstanceFile(polygon=lshape())))
        assert cli.main(["guard", str(inp), "--mode", mode, "--bounces", bounces]) == 4
        out = capsys.readouterr()
        assert out.out == "" and "bounce budget must be non-negative" in out.err

    def test_source_on_the_mirror_line_is_4(self, tmp_path, capsys):
        # (1/2, 1) is inside the L-shape, on the line y = 1 of edge 2
        inp = tmp_path / "l.mg"
        inp.write_text(format_instance(InstanceFile(polygon=lshape())))
        assert cli.main(["extend", str(inp), "--edges", "2", "--kind", "specular", "--query", "1/2,1"]) == 4
        assert "supporting line of edge 2" in capsys.readouterr().err

    def test_solve_above_the_enumeration_limit_is_refused_before_generating(self, tmp_path, monkeypatch, capsys):
        from mirrorgallery.redgen import ENUMERATION_LIMIT

        def never(*args, **kwargs):
            raise AssertionError("the instance was generated")

        monkeypatch.setattr(cli, "gen_specular", never)
        m = ENUMERATION_LIMIT + 1
        assert cli.main(["reduce-gen", "--kind", "specular", "--random", str(m), "--solve",
                         "--out", str(tmp_path / "x.mg")]) == 2
        assert f"{m} values exceeds the enumeration limit of {ENUMERATION_LIMIT}" in capsys.readouterr().err
        assert not (tmp_path / "x.mg").exists()


# why a MirrorGalleryError that no `_EXIT_CODES` row maps leaves `mg` with 1
EXIT_1 = {
    errors.InvariantViolated: "a broken invariant is a library bug, not bad input",
    errors.CoverageCertificationFailed: "every polygon has a covering vertex set, so a failed certificate is a bug",
    errors.GraphDisconnected: "`mg guard --mode reduce` reduces a covering set, whose guard graph is connected",
    errors.GeometryError: "`fileio` raises bad file geometry as ParseError; raised later it is a library bug",
    errors.SegmentOutsidePolygon: "only weak visibility raises it, and no `mg` command calls it",
    **dict.fromkeys((errors.NotAFunnel, errors.QueryOutside, errors.NotWeaklyVisible, errors.CertificationFailed),
                    "the `special` errors are raised by no `mg` command"),
}


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


class TestExitCodeContract:
    def test_every_error_has_a_code_or_a_reason(self):
        coded = tuple(cls for cls, _ in cli._EXIT_CODES)
        assert [c.__name__ for c in _subclasses(MirrorGalleryError)
                if not issubclass(c, coded) and c not in EXIT_1] == []

    def test_a_reason_is_given_only_where_no_code_is(self):
        coded = tuple(cls for cls, _ in cli._EXIT_CODES)
        assert [c.__name__ for c in EXIT_1 if issubclass(c, coded)] == []

    def test_no_command_reaches_special_or_weak_visibility(self):
        # the modules cli imports, and theirs: none is `special`, and none calls weak visibility
        trees, todo = {}, ["cli"]
        while todo:
            name = todo.pop()
            if name not in trees:
                trees[name] = ast.parse(Path(cli.__file__).with_name(f"{name}.py").read_text())
                todo += [n.module for n in ast.walk(trees[name]) if isinstance(n, ast.ImportFrom) and n.level == 1]
        assert "special" not in trees and {"redgen", "guard", "reflect", "visibility"} <= set(trees)
        assert [name for name, tree in trees.items() for n in ast.walk(tree) if isinstance(n, ast.Call)
                and "weak_visibility_polygon" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))] == []

    def test_the_walk_is_recursive(self):
        class Child(errors.ParseError):
            pass

        class Grandchild(Child):
            pass

        assert {Child, Grandchild} <= set(_subclasses(MirrorGalleryError))


# argv that parse; only parsing runs, so the files need not exist
VALID = [
    ["vp", "in.mg"],
    ["vp", "in.mg", "--query", "1/2,1/2", "--out", "r.txt", "--svg", "v.svg"],
    ["extend", "in.mg", "--edges", "5"],
    ["extend", "in.mg", "--edges", "0,5", "--kind", "specular", "--bounces", "2", "--query", "1,1"],
    ["guard", "in.mg"],
    ["guard", "in.mg", "--mode", "reduce", "--bounces", "4"],
    ["reduce-gen", "--kind", "specular", "--values", "1,2", "--target", "3", "--out", "x.mg"],
    ["reduce-gen", "--kind", "diffuse-multi", "--random", "3", "--max-value", "5", "--seed", "7", "--solve"],
    ["render", "in.mg"],
    ["render", "in.mg", "--layers", "query,vp", "--out", "x.svg"],
]
# argv that argparse refuses or answers with help: missing, extra, bad choice, bad int, -h
BAD = [
    [], ["-h"], ["--help"], ["-x"], ["gaurd", "in.mg"], ["guard"], ["guard", "in.mg", "extra"],
    ["guard", "in.mg", "--bounces", "notint"], ["guard", "in.mg", "--mode", "best"], ["guard", "-h"],
    ["vp"], ["vp", "in.mg", "--nope"], ["extend", "in.mg"], ["extend", "in.mg", "--edges", "5", "--kind", "mirror"],
    ["reduce-gen"], ["reduce-gen", "--kind", "specular", "--random", "x"], ["reduce-gen", "-h"], ["render", "-h"],
    ["vp", "-h"], ["extend", "-h"],
]


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_one_command_parses_as_the_full_parser(self, argv):
        own, rest = cli._command(argv[0]).parse_known_args(argv[1:])
        full = vars(cli.build_parser().parse_args(argv))
        assert rest == [] and full.pop("command") == argv[0]
        assert vars(own) == full

    @pytest.mark.parametrize("argv", BAD, ids=lambda argv: " ".join(argv) or "none")
    def test_refusals_and_help_read_as_the_full_parser(self, monkeypatch, capsys, argv):
        # the reference is the full parser alone, with argparse's own formatter, at three widths
        def run(parse):
            with pytest.raises(SystemExit) as ex:
                parse(argv)
            out = capsys.readouterr()
            return out.out, out.err, ex.value.code

        seen = {}
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            seen[columns] = run(cli.main)
            with monkeypatch.context() as stock:
                stock.setattr(cli, "_Formatter", argparse.HelpFormatter)
                assert run(lambda argv: cli.build_parser().parse_args(argv)) == seen[columns], columns
        assert seen["40"] != seen["200"]  # the width is read when the text is laid out

    def test_a_command_builds_one_parser_and_reads_no_width(self, tmp_path, monkeypatch, capsys):
        built, calls = [], []
        init = argparse.ArgumentParser.__init__
        add_subparsers = argparse.ArgumentParser.add_subparsers
        get_terminal_size = shutil.get_terminal_size

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counted(name, fn):
            return lambda *args, **kwargs: (calls.append(name), fn(*args, **kwargs))[1]

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted("add_subparsers", add_subparsers))
        monkeypatch.setattr(shutil, "get_terminal_size", counted("get_terminal_size", get_terminal_size))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.mg").write_text(format_instance(InstanceFile(polygon=lshape(), query=Point(F(1, 2), F(1, 2)))))
        for argv in VALID:  # each runs its command too, on in.mg or a generated instance
            cli.main(argv)
            assert (built, calls) == ([f"mg {argv[0]}"], []), argv
            built.clear()
        with pytest.raises(SystemExit):
            cli.main(["guard", "in.mg", "extra"])  # a leftover: the full parser refuses it
        assert built == ["mg guard", "mg", *(f"mg {name}" for name in cli._COMMANDS)]
        assert calls[0] == "add_subparsers" and "get_terminal_size" in calls
        assert "unrecognized arguments: extra" in capsys.readouterr().err
