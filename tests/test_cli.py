import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sepline
import sepline.solvers
from sepline import reduction
from sepline.cli import main
from sepline.decomposition import decompose
from sepline.errors import BadPattern
from sepline.generate import gen_circle
from sepline.geometry import (AxisLine, GeneralLine, angular_sort,
                              circle_parameter, general_line, line_through)
from sepline.oracles import (DEFAULT_AXIS_BOUND, DEFAULT_GENERAL_BOUND,
                             min_axis_separation,
                             min_general_separation_circle)
from sepline.reduction import (CRBDS, colorful_dominating_sets, normalize,
                               reduce_instance)
from sepline.render import _clip_general, render_svg
from sepline.serialization import (crbds_from_doc, crbds_to_doc, dumps,
                                   instance_from_doc, instance_to_doc, loads,
                                   rat_from_str, rat_to_str, sidecar_from_doc,
                                   sidecar_to_doc, solution_from_doc,
                                   solution_to_doc)
from sepline.solvers import solve_general

from test_reduction import unliftable

F = Fraction


def toy_doc():
    return {"k": 2, "classes": [["u1", "u2"], ["u3", "u4"]],
            "blues": ["v1", "v2"],
            "edges": [["u1", "v1"], ["u3", "v1"],
                      ["u2", "v2"], ["u3", "v2"]]}


# the toy instance with a red listed twice in one class, a red in two
# classes and a blue listed twice
REPEATED_NAMES = [
    pytest.param({**toy_doc(), "classes": [["u1", "u2", "u1"], ["u3", "u4"]]},
                 id="red-twice-in-class"),
    pytest.param({**toy_doc(), "classes": [["u1", "u2"], ["u3", "u4", "u1"]]},
                 id="red-in-two-classes"),
    pytest.param({**toy_doc(), "blues": ["v1", "v2", "v1"]}, id="blue-twice")]


class TestSerialization:
    def test_rational_round_trip(self):
        for x in (F(0), F(-3), F(22, 7), F(-101, 13), F(10**9, 10**9 + 7)):
            assert rat_from_str(rat_to_str(x)) == x

    def test_instance_round_trip(self, pts4):
        doc = instance_to_doc(pts4, "circle")
        kind, back = instance_from_doc(loads(dumps(doc)))
        assert kind == "circle"
        assert [(p.color, p.x, p.y) for p in back] == \
            [(p.color, p.x, p.y) for p in pts4]

    def test_solution_round_trip(self, pts4):
        sol = solve_general(pts4)
        doc = solution_to_doc("general", sol.lines)
        variant, lines = solution_from_doc(loads(dumps(doc)))
        assert variant == "general" and lines == sol.lines
        axis = [AxisLine("H", F(1, 3)), AxisLine("V", F(-7, 2))]
        assert solution_from_doc(solution_to_doc("axis", axis))[1] == axis

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            instance_from_doc({"kind": "disc", "points": []})
        with pytest.raises(ValueError):
            instance_from_doc({"kind": "circle",
                               "points": [{"color": "G", "x": "0", "y": "1"}]})
        with pytest.raises(ValueError):
            rat_from_str(0.5)

    def test_rational_groups(self):
        assert rat_from_str("-12") == F(-12)
        assert rat_from_str("0/5") == F(0)
        assert rat_from_str("-6/4") == F(-3, 2)
        assert type(rat_from_str("7")) is F
        with pytest.raises(ValueError, match="zero denominator"):
            rat_from_str("3/0")

    @pytest.mark.parametrize("text", ["0.6", "6e-1", "3_0/5_0", " 3/5 ",
                                      "+3/5", "3/-5", "", "-", "3/", "٣/5"])
    def test_rational_grammar_is_strict(self, text):
        with pytest.raises(ValueError, match="num/den"):
            rat_from_str(text)

    def test_sidecar_round_trip(self):
        # the sidecar holds only the normalized instance; the grid and
        # budgets read back are the ones the reduction used
        skewed = CRBDS([["a", "b", "c"]], ["v", "w"],
                       {("a", "v"), ("b", "v"), ("c", "w")})
        for inst in (crbds_from_doc(toy_doc()), unliftable(), skewed):
            norm = normalize(inst)
            red = reduce_instance(norm)
            doc = loads(dumps(sidecar_to_doc(norm)))
            assert set(doc) == {"normalized"}
            norm2, lay2 = sidecar_from_doc(doc)
            assert (lay2.p, lay2.q) == (red.p, red.q)
            assert (lay2.k, lay2.n, lay2.d, lay2.m) == \
                (red.layout.k, red.layout.n, red.layout.d, red.layout.m)
            assert (norm2.d, norm2.m, norm2.original_k,
                    norm2.added_degree_class, norm2.added_parity_class) == \
                (norm.d, norm.m, norm.original_k, norm.added_degree_class,
                 norm.added_parity_class)
            assert norm2.inst.edges == norm.inst.edges
            assert norm2.inst.order == norm.inst.order
            for v in norm.inst.blues:
                assert norm2.inst.neighbors_of_blue(v) == \
                    norm.inst.neighbors_of_blue(v)

    def test_crbds_round_trip(self):
        inst = crbds_from_doc(toy_doc())
        assert crbds_from_doc(crbds_to_doc(inst)) == inst

    @pytest.mark.parametrize("doc", REPEATED_NAMES)
    def test_repeated_name_rejected(self, doc):
        # _emit places each red by its last listing: a repeat would encode
        # another instance
        name = "v1" if len(doc["blues"]) > 2 else "u1"
        with pytest.raises(ValueError,
                           match=f"^C-RBDS lists vertex '{name}' twice$"):
            crbds_from_doc(doc)

    def test_reserved_blue_name_rejected(self):
        doc = {"classes": [["a"], ["b"]], "blues": ["v1", "_w0"],
               "edges": [["a", "v1"], ["b", "_w0"]]}
        with pytest.raises(ValueError, match=r"^C-RBDS\.blues\[1\] must not"):
            crbds_from_doc(doc)

    def test_deterministic_dumps(self):
        a = dumps(instance_to_doc(gen_circle(5, 1, "random"), "circle"))
        b = dumps(instance_to_doc(gen_circle(5, 1, "random"), "circle"))
        assert a == b


class TestGenerate:
    def test_alternating_w4(self):
        pts = gen_circle(4, 11, "alternating")
        assert decompose(pts).w == 4

    def test_chunked_w2(self):
        pts = gen_circle(6, 11, "chunked:3,3")
        assert decompose(pts).w == 2

    def test_deterministic(self):
        assert gen_circle(8, 42, "random") == gen_circle(8, 42, "random")
        assert gen_circle(8, 42, "random") != gen_circle(8, 43, "random")

    def test_points_on_circle_distinct(self):
        pts = gen_circle(30, 7, "random")
        assert all(p.x * p.x + p.y * p.y == 1 for p in pts)
        assert len({(p.x, p.y) for p in pts}) == 30

    def test_ids_follow_the_ccw_order(self):
        # with t = tan(theta/2), t >= 0 sweeps the upper half from (1, 0)
        # and t < 0 the lower half after (-1, 0): the ids follow both that
        # order and the angular sort
        for n, seed in ((40, 1), (200, 2)):
            pts = gen_circle(n, seed, "random")
            ts = [circle_parameter(p.x, p.y) for p in pts]
            assert ts == sorted(ts, key=lambda t: (t < 0, t))
            assert [p.id for p in angular_sort(pts)] == list(range(n))

    def test_bad_patterns(self):
        for spec in ("spiral", "chunked:", "chunked:2,0", "chunked:2,3",
                     "alternating:2"):
            with pytest.raises(BadPattern):
                gen_circle(4, 1, spec)
        with pytest.raises(ValueError):
            gen_circle(0, 1, "random")


class TestRender:
    def test_pts4_with_solution(self, pts4):
        sol = solve_general(pts4)
        svg = render_svg(pts4, sol.lines)
        assert svg.startswith('<?xml')
        assert 'version="1.1"' in svg
        assert svg.count('class="pt"') == 4
        assert svg.count('class="sol"') == 2
        assert 'class="unit-circle"' in svg

    def test_reduced_toy_with_grid(self):
        red = reduce_instance(normalize(crbds_from_doc(toy_doc())))
        svg = render_svg(red.points, kind="planar", layout=red.layout)
        assert svg.count('class="pt"') == 22
        assert 'class="grid track"' in svg and 'class="grid strip"' in svg

    def test_points_only(self, pts4):
        svg = render_svg(pts4, [])
        assert svg.count('class="pt"') == 4
        assert 'class="sol"' not in svg

    def test_corrupt_cell_shading(self, pts4):
        # a single horizontal leaves bichromatic cells on pts4
        svg = render_svg(pts4, [AxisLine("H", F(1, 7))], shade_corrupt=True)
        assert 'class="corrupt"' in svg

    def test_general_line_clipped(self, diag):
        sol = solve_general(diag)
        svg = render_svg(diag, sol.lines)
        assert svg.count('class="sol"') == len(sol.lines)

    @pytest.mark.parametrize("ln", [
        general_line(1, 0, F(-1, 2)), general_line(0, 3, 1),
        line_through(F(3, 5), F(4, 5), F(-1, 3), F(1, 7))], ids=str)
    def test_clipped_endpoints_lie_on_the_line(self, ln):
        # a*x + b*y + c = 0: x = 1/2 is drawn at x = 1/2, not at -1/2
        ends = _clip_general(ln, F(-6, 5), F(-6, 5), F(6, 5), F(6, 5))
        assert ends is not None and ends[0] != ends[1]
        for x, y in ends:
            assert ln.a * x + ln.b * y + ln.c == 0


def add_edges(sidecar, *edges):
    """Add edges to a sidecar's normalized instance, dropping its
    neighbour order (which names the old neighbours)."""
    sidecar["normalized"].pop("order", None)
    sidecar["normalized"]["edges"] += edges


class TestCommands:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_solve_verify_flow(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        sol = tmp_path / "s.json"
        assert self.run("gen", "8", "--pattern", "chunked:4,4",
                        "--seed", "3", "-o", str(inst)) == 0
        assert self.run("solve", str(inst), "--variant", "axis", "--check",
                        "-o", str(sol)) == 0
        assert self.run("verify", str(inst), "--lines", str(sol)) == 0
        assert capsys.readouterr().out.strip() == "Separated"
        doc = json.loads(sol.read_text())
        assert doc["variant"] == "axis" and doc["size"] == doc["kappa"]

    def test_verify_general_solution_n640(self, tmp_path, capsys):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        assert self.run("gen", "640", "--seed", "1", "-o", str(inst)) == 0
        assert self.run("solve", str(inst), "--variant", "general",
                        "-o", str(sol)) == 0
        assert self.run("verify", str(inst), "--lines", str(sol)) == 0
        assert capsys.readouterr().out.strip() == "Separated"

    @pytest.mark.parametrize("c", ["1", "0"])
    def test_verify_degenerate_general_line_exits_1(self, tmp_path, capsys,
                                                    c):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        sol.write_text(json.dumps({"lines": [{"a": "0", "b": "0", "c": c}]}))
        capsys.readouterr()
        assert self.run("verify", str(inst), "--lines", str(sol)) == 1
        assert capsys.readouterr().err.startswith(
            "error: degenerate general line")

    def test_verify_not_separating_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        assert self.run("verify", str(inst), "--lines", "H:1/99") == 2
        assert "NotSeparated" in capsys.readouterr().out

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEPLINE_SEED", "9")
        self.run("gen", "5")
        via_env = capsys.readouterr().out
        monkeypatch.delenv("SEPLINE_SEED")
        self.run("gen", "5", "--seed", "9")
        assert capsys.readouterr().out == via_env

    def test_kappa_diagnostics(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        assert self.run("kappa", str(inst)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["w"] == 4
        assert doc["switch_graph"]["kappa"] == 2

    def test_oracle_pq_exit_codes(self, tmp_path):
        inst = tmp_path / "i.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        out = tmp_path / "o.json"
        assert self.run("oracle", str(inst), "--variant", "pq",
                        "--p", "1", "--q", "0", "-o", str(out)) == 2
        assert json.loads(out.read_text())["feasible"] is False
        assert self.run("oracle", str(inst), "--variant", "pq",
                        "--p", "1", "--q", "1", "-o", str(out)) == 0
        # negative budgets are bad input, not an answer
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"kind": "circle", "points": [
            {"color": "R", "x": "1", "y": "0"},
            {"color": "B", "x": "-1", "y": "0"}]}))
        for p, q in (("-1", "1"), ("0", "-2")):
            assert self.run("oracle", str(pair), "--variant", "pq",
                            "--p", p, "--q", q) == 1

    def test_reduce_lift_extract_flow(self, tmp_path, capsys):
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        sol = tmp_path / "lift.json"
        assert self.run("reduce", str(crbds), "-o", str(inst),
                        "--sidecar", str(side)) == 0
        for s in ("u1,u3", "u2,u3"):
            assert self.run("lift", "--sidecar", str(side),
                            "--instance", str(inst), "--set", s,
                            "-o", str(sol)) == 0
            assert self.run("verify", str(inst), "--lines", str(sol)) == 0
            capsys.readouterr()
            assert self.run("extract", "--sidecar", str(side),
                            "--instance", str(inst),
                            "--lines", str(sol)) == 0
            assert json.loads(capsys.readouterr().out)["vertices"] == \
                s.split(",")

    @pytest.mark.parametrize("doc,chosen,added,size", [
        # both blues adjacent to u1 and u3: normalize adds the low and high
        # classes, whose forced picks are _leafL1 and _leafH1
        ({"classes": [["u1", "u2"], ["u3", "u4"]], "blues": ["v1", "v2"],
          "edges": [["u1", "v1"], ["u3", "v1"], ["u1", "v2"],
                    ["u3", "v2"]]}, "u1,u3", ["_leafL1", "_leafH1"], 19),
        # three classes: normalize adds the parity class, forced pick _par1
        ({"classes": [["a"], ["b"], ["c"]], "blues": ["v1", "v2"],
          "edges": [["a", "v1"], ["b", "v1"], ["b", "v2"], ["c", "v2"]]},
         "a,b,c", ["_par1"], 10),
    ], ids=["degree", "parity"])
    def test_lift_completes_input_set(self, tmp_path, capsys, doc, chosen,
                                      added, size):
        # --set names vertices of the input instance; lift adds the forced
        # pick of each class that normalize added, and extract answers in
        # the input instance again
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(doc))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        sol = tmp_path / "lift.json"
        assert self.run("reduce", str(crbds), "-o", str(inst),
                        "--sidecar", str(side)) == 0
        assert self.run("lift", "--sidecar", str(side), "--instance",
                        str(inst), "--set", chosen, "-o", str(sol)) == 0
        assert len(json.loads(sol.read_text())["lines"]) == size
        assert self.run("verify", str(inst), "--lines", str(sol)) == 0
        capsys.readouterr()
        assert self.run("extract", "--sidecar", str(side), "--instance",
                        str(inst), "--lines", str(sol)) == 0
        vertices = json.loads(capsys.readouterr().out)["vertices"]
        assert vertices == chosen.split(",")
        assert len(vertices) == len(doc["classes"])
        assert all(u in cls for u, cls in zip(vertices, doc["classes"]))
        # naming the forced picks as well lifts to the same lines
        full = tmp_path / "full.json"
        assert self.run("lift", "--sidecar", str(side), "--instance",
                        str(inst), "--set", ",".join([chosen, *added]),
                        "-o", str(full)) == 0
        assert full.read_bytes() == sol.read_bytes()

    def test_lift_bad_set_exits_1(self, tmp_path):
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        assert self.run("lift", "--sidecar", str(side),
                        "--instance", str(inst), "--set", "u2,u4") == 1

    def test_reserved_vertex_name_exits_1(self, tmp_path, capsys):
        # names starting with "_" would clash with the vertices normalize
        # adds (here its parity class, whose forced pick is _par1)
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(
            {"classes": [["_par1"], ["b"], ["c"]], "blues": ["v1", "v2"],
             "edges": [["_par1", "v1"], ["b", "v1"], ["b", "v2"],
                       ["c", "v2"]]}))
        capsys.readouterr()
        assert self.run("reduce", str(crbds), "-o", str(tmp_path / "r.json"),
                        "--sidecar", str(tmp_path / "side.json")) == 1
        assert capsys.readouterr().err == (
            "error: C-RBDS.classes[0][0] must not start with '_', which "
            "names the vertices normalize adds, got '_par1'\n")
        assert not (tmp_path / "r.json").exists()

    def test_lift_not_separating_exits_2(self, tmp_path):
        crbds = tmp_path / "c.json"
        crbds.write_text(dumps(crbds_to_doc(unliftable())))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        assert self.run("lift", "--sidecar", str(side),
                        "--instance", str(inst), "--set", "u1_1,u2_1",
                        "-o", str(tmp_path / "lift.json")) == 2

    def test_extract_not_separating_exits_2(self, tmp_path):
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        assert self.run("extract", "--sidecar", str(side),
                        "--instance", str(inst), "--lines", "H:1,V:1") == 2

    def test_extract_general_line_exits_1(self, tmp_path, capsys):
        # extract reads signal lines by orientation; a general line used to
        # end in an AttributeError traceback
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        sol = tmp_path / "s.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        sol.write_text(json.dumps({"lines": [{"a": "1", "b": "1", "c": "0"}]}))
        capsys.readouterr()
        assert self.run("extract", "--sidecar", str(side), "--instance",
                        str(inst), "--lines", str(sol)) == 1
        assert capsys.readouterr().err == \
            "error: extract reads axis-parallel lines only\n"

    def test_render_cells_and_verify_name_the_same_line(self, tmp_path,
                                                        capsys):
        # (1, 0) lies on both lines; the earlier one, x=1, is named
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"kind": "circle", "points": [
            {"color": "R", "x": "1", "y": "0"},
            {"color": "B", "x": "0", "y": "1"}]}))
        capsys.readouterr()
        assert self.run("verify", str(inst), "--lines", "V:1,H:0") == 1
        assert capsys.readouterr().err == "error: point 0 lies on line x=1\n"
        assert self.run("render", str(inst), "--cells",
                        "--solution", "V:1,H:0") == 1
        assert capsys.readouterr().err == "error: point 0 lies on line x=1\n"

    def test_render_command(self, tmp_path):
        inst = tmp_path / "i.json"
        svg = tmp_path / "i.svg"
        self.run("gen", "6", "--pattern", "chunked:3,3", "-o", str(inst))
        assert self.run("render", str(inst), "-o", str(svg)) == 0
        assert svg.read_text().count('class="pt"') == 6

    def test_trace_dumps_svgs(self, tmp_path):
        inst = tmp_path / "i.json"
        self.run("gen", "10", "--pattern", "alternating", "--seed", "2",
                 "-o", str(inst))
        trace = tmp_path / "tr"
        assert self.run("solve", str(inst), "--trace", str(trace),
                        "-o", str(tmp_path / "s.json")) == 0
        files = sorted(f.name for f in trace.iterdir())
        assert "step_000.svg" in files and "final.svg" in files

    def test_trace_solves_once(self, tmp_path, monkeypatch):
        calls = []
        build_L0 = sepline.solvers.build_L0

        def counting(*args):
            calls.append(args)
            return build_L0(*args)
        monkeypatch.setattr(sepline.solvers, "build_L0", counting)
        inst = tmp_path / "i.json"
        self.run("gen", "10", "--pattern", "alternating", "--seed", "2",
                 "-o", str(inst))
        assert self.run("solve", str(inst), "--trace", str(tmp_path / "tr"),
                        "-o", str(tmp_path / "s.json")) == 0
        assert len(calls) == 1

    def test_bad_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self.run("kappa", str(bad)) == 1
        assert self.run("gen", "4", "--pattern", "nope") == 1
        assert self.run("solve", str(tmp_path / "missing.json")) == 1

    @pytest.mark.parametrize("doc", [
        [{"color": "R", "x": "1", "y": "0"}],
        {"kind": "circle", "points": [1]},
        {"kind": "circle", "points": [{"color": "R", "x": "1/0", "y": "0"}]},
    ], ids=["top-level-list", "point-not-object", "zero-denominator"])
    def test_malformed_instance_exits_1(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert self.run("solve", str(bad)) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc", [
        {"lines": [5]},
        {"lines": 5},
        {"lines": [{"orient": "H", "c": 5}]},
    ], ids=["line-not-object", "lines-not-list", "coordinate-not-string"])
    def test_malformed_solution_exits_1(self, tmp_path, capsys, doc):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        sol.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run("verify", str(inst), "--lines", str(sol)) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,doc,expected", [
        ("solve", [], "instance must be an object, got []"),
        ("solve", {"points": []}, "instance.kind is missing"),
        ("solve", {"kind": "disc", "points": []},
         "instance.kind must be one of 'circle', 'planar', got 'disc'"),
        ("solve", {"kind": "circle", "points": [{"color": "R", "x": "1"}]},
         "instance.points[0].y is missing"),
        ("solve", {"kind": "circle", "points": [
            {"color": "R", "x": "1", "y": "0"},
            {"color": "G", "x": "0", "y": "1"}]},
         "instance.points[1].color must be one of 'R', 'B', got 'G'"),
        ("verify", {"lines": [{"orient": "H", "c": "1/2"}, {"a": "1"}]},
         "solution.lines[1].b is missing"),
        ("verify", {"lines": [{"orient": "H", "c": 5}]},
         "solution.lines[0].c must be a string, got 5"),
        ("verify", {"variant": "axis"}, "solution.lines is missing"),
        ("reduce", {**toy_doc(), "blues": ["v1", True]},
         "C-RBDS.blues[1] must be a string, got True"),
        ("reduce", {**toy_doc(), "classes": [["u1", "u2"], "u3"]},
         "C-RBDS.classes[1] must be a list, got 'u3'"),
        ("reduce", {**toy_doc(), "order": {"v1": ["u1", 3]}},
         "C-RBDS.order.v1[1] must be a string, got 3"),
    ], ids=["instance-not-object", "kind-missing", "kind-unknown",
            "coordinate-missing", "color-unknown", "general-line-b-missing",
            "coordinate-not-string", "lines-missing", "blue-bool",
            "class-not-list", "order-item-int"])
    def test_shape_errors_name_the_path(self, tmp_path, capsys, command, doc,
                                        expected):
        inst, bad = tmp_path / "i.json", tmp_path / "bad.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        bad.write_text(json.dumps(doc))
        argv = {"solve": ["solve", str(bad)],
                "verify": ["verify", str(inst), "--lines", str(bad)],
                "reduce": ["reduce", str(bad), "--sidecar",
                           str(tmp_path / "side.json")]}[command]
        capsys.readouterr()
        assert self.run(*argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("spec,expected", [
        ("X:1", "line.orient must be one of 'H', 'V', got 'X'"),
        ("H1/2", "line.orient must be one of 'H', 'V', got 'H1/2'"),
        ("H:1,V:", "rational must be a 'num/den' string, got ''"),
    ], ids=["unknown-orientation", "no-colon", "empty-coordinate"])
    def test_bad_inline_line_spec_exits_1(self, tmp_path, capsys, spec,
                                          expected):
        inst = tmp_path / "i.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        capsys.readouterr()
        assert self.run("verify", str(inst), f"--lines={spec}") == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("x", ["0.6", "6e-1", "3_0/5_0", " 3/5 ", "+3/5"])
    def test_non_rational_coordinate_exits_1(self, tmp_path, capsys, x):
        # each form denotes 3/5, and (3/5, 4/5) is on the unit circle
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps({"kind": "circle", "points": [
            {"color": "R", "x": x, "y": "4/5"},
            {"color": "B", "x": "-1", "y": "0"}]}))
        assert self.run("solve", str(bad)) == 1
        assert capsys.readouterr().err.startswith("error:")
        self.run("gen", "4", "--pattern", "alternating", "-o", str(good))
        capsys.readouterr()
        assert self.run("verify", str(good), "--lines", f"V:{x}") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_one_process_runs_commands_back_to_back(self, tmp_path, capsys):
        # the parser is built once per process; each command's output is
        # still that of a fresh `sepline` process
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        self.run("gen", "24", "--seed", "5", "-o", str(inst))
        commands = [["solve", str(inst)], ["kappa", str(inst)],
                    ["verify", str(inst), "--lines", str(sol)]]
        capsys.readouterr()
        in_process = []
        for argv in commands:
            assert self.run(*argv) == 0
            out = capsys.readouterr().out
            if argv[0] == "solve":
                sol.write_text(out)
            in_process.append(out)
        src = str(Path(sepline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        fresh = [subprocess.run([sys.executable, "-m", "sepline.cli", *argv],
                                env=env, capture_output=True, text=True,
                                check=True).stdout
                 for argv in commands]
        assert in_process == fresh
        assert in_process[2] == "Separated\n"

    @pytest.mark.parametrize("doc", [
        {"k": 1, "classes": 5, "blues": [], "edges": []},
        {"classes": [["u1"]], "blues": 5, "edges": []},
        {"classes": [["u1"]], "blues": ["v1"], "edges": [5]},
        {**toy_doc(), "order": 5},
        {**toy_doc(), "order": {"v1": ["u2", "u4"]}},
        *REPEATED_NAMES,
    ], ids=["classes-not-list", "blues-not-list", "edge-not-pair",
            "order-not-object", "order-not-neighbors", "red-twice-in-class",
            "red-in-two-classes", "blue-twice"])
    def test_malformed_crbds_exits_1(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert self.run("reduce", str(bad), "--sidecar",
                        str(tmp_path / "side.json")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def lift_with_sidecar(self, tmp_path, capsys, edit=None):
        """Exit code and output of `lift` of {u1, u3} on the toy reduction,
        after `edit` changes its sidecar document in place."""
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        doc = json.loads(side.read_text())
        if edit is not None:
            edit(doc)
        side.write_text(json.dumps(doc))
        capsys.readouterr()
        code = self.run("lift", "--sidecar", str(side),
                        "--instance", str(inst), "--set", "u1,u3")
        return code, capsys.readouterr()

    def test_malformed_sidecar_exits_1(self, tmp_path, capsys):
        code, out = self.lift_with_sidecar(
            tmp_path, capsys, lambda doc: doc.update(normalized=1))
        assert code == 1
        assert out.err == "error: sidecar.normalized must be an object, " \
            "got 1\n"

    @staticmethod
    def old_sections(doc):
        """The sections a sidecar held before it stored only the
        normalized instance, as they were written for the toy reduction."""
        red = reduce_instance(normalize(crbds_from_doc(toy_doc())))
        lay = red.layout
        doc.update(budgets={"p": red.p, "q": red.q},
                   grid={"k": lay.k, "n": lay.n, "d": lay.d, "m": lay.m},
                   roles={str(pid): list(role)
                          for pid, role in lay.roles.items()})
        doc["normalized"].update(d=lay.d, m=lay.m)

    @pytest.mark.parametrize("key,value", [
        ("grid", {"k": "x"}),
        ("grid", {"n": 0}),
        ("grid", {"n": 5}),
        ("grid", {"d": True}),
        ("grid", {"m": 2.0}),
        ("budgets", {"p": "4"}),
        ("budgets", {"q": -1}),
        ("roles", {"0": []}),
        ("roles", {"0": ["nobody"]}),
        ("roles", {"0": 5}),
    ], ids=["grid-k-str", "grid-n-zero", "grid-n-too-large", "grid-d-bool",
            "grid-m-float", "budget-p-str", "budget-q-negative",
            "role-empty", "role-unknown", "role-not-list"])
    def test_old_sidecar_fields_are_ignored(self, tmp_path, capsys, key,
                                            value):
        # a sidecar written with grid, budgets and roles still loads, and
        # those sections are not read, even when they disagree with the
        # instance (a grid with n = 5 for 2 blues made lift fail with a
        # KeyError when they were read)
        fresh = self.lift_with_sidecar(tmp_path, capsys)
        assert fresh[0] == 0

        def edit(doc):
            self.old_sections(doc)
            doc[key].update(value)
        assert self.lift_with_sidecar(tmp_path, capsys, edit) == fresh

    @pytest.mark.parametrize("edit,expected", [
        (lambda doc: doc.pop("normalized"),
         "sidecar.normalized is missing"),
        (lambda doc: doc["normalized"].pop("edges"),
         "sidecar.normalized.edges is missing"),
        (lambda doc: doc["normalized"].update(original_k="2"),
         "sidecar.normalized.original_k must be an integer, got '2'"),
        (lambda doc: doc["normalized"].update(added_degree_class=0),
         "sidecar.normalized.added_degree_class must be a boolean, got 0"),
        (lambda doc: doc["normalized"]["blues"].__setitem__(0, 5),
         "sidecar.normalized.blues[0] must be a string, got 5"),
        (lambda doc: doc["normalized"]["edges"].__setitem__(0, ["u1", "z"]),
         "sidecar.normalized.edges[0] must be a [red, blue] pair"),
        (lambda doc: add_edges(doc, ["u2", "v1"]),
         "sidecar.normalized: blue degrees must be equal, got [2, 3]"),
        (lambda doc: doc["normalized"]["classes"][0].append("u5"),
         "sidecar.normalized: class sizes must be equal, got [2, 3]"),
        (lambda doc: doc["normalized"].update(
            k=3, classes=doc["normalized"]["classes"] + [["w1", "w2"]]),
         "sidecar.normalized: k = 3 and d = 2 must be even"),
        (lambda doc: add_edges(doc, ["u2", "v1"], ["u1", "v2"]),
         "sidecar.normalized: k = 2 and d = 3 must be even"),
    ], ids=["normalized-missing", "edges-missing", "original-k-str",
            "flag-int", "blue-not-string", "edge-unknown-vertex",
            "blue-degree-differs", "class-size-differs", "k-odd", "d-odd"])
    def test_malformed_normalized_sidecar_exits_1(self, tmp_path, capsys,
                                                  edit, expected):
        code, out = self.lift_with_sidecar(tmp_path, capsys, edit)
        assert code == 1
        assert out.err.startswith(f"error: {expected}")

    @pytest.mark.parametrize("variant,oracle", [
        ("axis", min_axis_separation),
        ("general", min_general_separation_circle)])
    def test_oracle_size_is_the_library_oracle(self, tmp_path, variant,
                                               oracle):
        inst, out = tmp_path / "i.json", tmp_path / "o.json"
        self.run("gen", "9", "--seed", "5", "-o", str(inst))
        assert self.run("oracle", str(inst), "--variant", variant,
                        "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        size, _ = oracle(instance_from_doc(loads(inst.read_text()))[1])
        assert size > 1
        assert doc["variant"] == variant
        assert doc["size"] == len(doc["lines"]) == size

    def test_oracle_general_of_planar_exits_1(self, tmp_path, capsys):
        inst = tmp_path / "p.json"
        inst.write_text(json.dumps({"kind": "planar", "points": [
            {"color": "R", "x": "0", "y": "0"},
            {"color": "B", "x": "1", "y": "2"}]}))
        assert self.run("oracle", str(inst), "--variant", "general") == 1
        assert capsys.readouterr().err == \
            "error: the general oracle needs a circle instance\n"

    @pytest.mark.parametrize("variant,bound", [
        ("axis", DEFAULT_AXIS_BOUND), ("general", DEFAULT_GENERAL_BOUND)])
    def test_oracle_over_its_bound_exits_1(self, tmp_path, capsys, variant,
                                           bound):
        inst = tmp_path / "i.json"
        self.run("gen", str(bound + 1), "-o", str(inst))
        assert self.run("oracle", str(inst), "--variant", variant) == 1
        assert capsys.readouterr().err == \
            f"error: {bound + 1} points exceeds oracle bound {bound}\n"

    def test_reduce_without_sidecar_writes_it_to_stdout(self, tmp_path,
                                                        capsys):
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        side = tmp_path / "side.json"
        assert self.run("reduce", str(crbds), "-o", str(tmp_path / "a.json"),
                        "--sidecar", str(side)) == 0
        capsys.readouterr()
        assert self.run("reduce", str(crbds),
                        "-o", str(tmp_path / "b.json")) == 0
        assert capsys.readouterr().out == side.read_text()
        assert (tmp_path / "a.json").read_text() == \
            (tmp_path / "b.json").read_text()

    def test_reduce_empty_class_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**toy_doc(), "k": 3, "classes": [
            ["u1", "u2"], ["u3", "u4"], []]}))
        assert self.run("reduce", str(bad), "--sidecar",
                        str(tmp_path / "side.json")) == 1
        assert capsys.readouterr().err == \
            "error: every class must be nonempty\n"

    @pytest.mark.parametrize("chosen,expected", [
        ("u1,u2", "class 1 must contribute exactly one vertex"),
        ("u1,u3,u4", "expected 2 vertices, got 3")],
        ids=["two-of-one-class", "too-many"])
    def test_lift_set_not_one_per_class_exits_1(self, tmp_path, capsys,
                                                chosen, expected):
        crbds = tmp_path / "c.json"
        crbds.write_text(json.dumps(toy_doc()))
        inst, side = tmp_path / "r.json", tmp_path / "side.json"
        self.run("reduce", str(crbds), "-o", str(inst),
                 "--sidecar", str(side))
        capsys.readouterr()
        assert self.run("lift", "--sidecar", str(side), "--instance",
                        str(inst), "--set", chosen) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_reduce_of_a_no_instance_keeps_its_order(self, tmp_path):
        # every colorful selection misses one blue vertex
        order = {"v1": ["u3", "u1"], "v2": ["u4", "u2"],
                 "v3": ["u4", "u1"], "v4": ["u3", "u2"]}
        doc = {"k": 2, "classes": [["u1", "u2"], ["u3", "u4"]],
               "blues": list(order),
               "edges": [[u, v] for v, us in order.items() for u in us],
               "order": order}
        norm = normalize(crbds_from_doc(doc))
        own = norm.inst
        assert own.order == order
        assert not list(colorful_dominating_sets(own))
        assert math.prod(map(len, own.classes)) <= \
            reduction._ORDER_SEARCH_SETS
        reduce_instance(norm)
        assert norm.inst is own
        crbds, side = tmp_path / "c.json", tmp_path / "side.json"
        crbds.write_text(json.dumps(doc))
        assert self.run("reduce", str(crbds), "-o", str(tmp_path / "r.json"),
                        "--sidecar", str(side)) == 0
        assert json.loads(side.read_text())["normalized"]["order"] == order

    def test_solve_repeated_point_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "circle", "points": [
            {"color": "R", "x": "1", "y": "0"},
            {"color": "B", "x": "1", "y": "0"},
            {"color": "R", "x": "-1", "y": "0"}]}))
        assert self.run("solve", str(bad)) == 1
        assert capsys.readouterr().err == \
            "error: points 0 and 1 share the position (1, 0)\n"

    def test_gen_bad_run_length_exits_1(self, capsys):
        assert self.run("gen", "3", "--pattern", "chunked:2,x") == 1
        assert capsys.readouterr().err == "error: bad run lengths '2,x'\n"

    def test_render_planar_without_sidecar_draws_its_bounding_box(self,
                                                                  tmp_path):
        inst, svg = tmp_path / "p.json", tmp_path / "p.svg"
        inst.write_text(json.dumps({"kind": "planar", "points": [
            {"color": "R", "x": "0", "y": "0"},
            {"color": "B", "x": "40", "y": "10"},
            {"color": "R", "x": "100", "y": "3"}]}))
        assert self.run("render", str(inst), "-o", str(svg)) == 0
        text = svg.read_text()
        # x in [0, 100] and y in [0, 10], each padded by 100 // 20 = 5
        assert 'viewBox="0 0 110.0000 20.0000"' in text
        # (0, 0) sits at (0 - x0, y1 - 0) = (5, 15)
        assert '<circle class="pt" cx="5.0000" cy="15.0000"' in text
        assert 'class="grid' not in text and "unit-circle" not in text

    # --- documented exits of each command ---------------------------------

    def planar(self, tmp_path, points=(("R", "0", "0"), ("B", "1", "2"))):
        inst = tmp_path / "p.json"
        inst.write_text(json.dumps({"kind": "planar", "points": [
            {"color": c, "x": x, "y": y} for c, x, y in points]}))
        return inst

    @pytest.mark.parametrize("command,expected", [
        (("solve", "--variant", "general"),
         "the general-line solver needs a circle instance"),
        (("solve", "--variant", "axis"),
         "the axis solver needs a circle instance"),
        (("kappa",), "kappa diagnostics need a circle instance")],
        ids=["solve-general", "solve-axis", "kappa"])
    def test_circle_command_of_planar_exits_1(self, tmp_path, capsys,
                                              command, expected):
        inst = self.planar(tmp_path)
        out = tmp_path / "out.json"
        assert self.run(command[0], str(inst), *command[1:],
                        "-o", str(out)) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_solve_check_disagreeing_oracle_exits_1(self, tmp_path, capsys,
                                                    monkeypatch):
        # an oracle optimum other than the solver's size is reported, and
        # no solution is written
        inst, out = tmp_path / "i.json", tmp_path / "s.json"
        self.run("gen", "8", "--pattern", "alternating", "-o", str(inst))
        monkeypatch.setattr(sepline.cli, "min_axis_separation",
                            lambda pts: (99, []))
        capsys.readouterr()
        assert self.run("solve", str(inst), "--check", "-o", str(out)) == 1
        assert capsys.readouterr().err == \
            "check failed: solver size 4 != oracle optimum 99\n"
        assert not out.exists()

    @pytest.mark.parametrize("budget", [(), ("--p", "1"), ("--q", "1")],
                             ids=["neither", "p-only", "q-only"])
    def test_oracle_pq_without_budgets_exits_1(self, tmp_path, capsys,
                                               budget):
        inst = tmp_path / "i.json"
        self.run("gen", "4", "--pattern", "alternating", "-o", str(inst))
        capsys.readouterr()
        assert self.run("oracle", str(inst), "--variant", "pq",
                        *budget) == 1
        assert capsys.readouterr().err == \
            "error: the pq oracle needs --p and --q\n"

    def toy_sidecar(self, tmp_path):
        crbds, side = tmp_path / "c.json", tmp_path / "side.json"
        crbds.write_text(json.dumps(toy_doc()))
        assert self.run("reduce", str(crbds), "-o", str(tmp_path / "r.json"),
                        "--sidecar", str(side)) == 0
        return side

    def test_extract_without_a_signal_line_exits_2(self, tmp_path, capsys):
        # a planar instance that is not the sidecar's: one vertical line
        # separates it within the budgets, but no track has a signal
        side = self.toy_sidecar(tmp_path)
        inst = self.planar(tmp_path)
        capsys.readouterr()
        assert self.run("extract", "--sidecar", str(side), "--instance",
                        str(inst), "--lines", "V:1/2") == 2
        assert capsys.readouterr().err == \
            "error: no usable signal line in horizontal track 1\n"

    def test_extract_of_a_non_dominating_set_exits_1(self, tmp_path, capsys):
        # signals at the second strip of both tracks pick {u2, u4}, which
        # misses v1; they separate this one-colour instance
        side = self.toy_sidecar(tmp_path)
        _, lay = sidecar_from_doc(loads(side.read_text()))
        signals = [f"H:{lay.h_strip(i, 2)[0] + reduction.U // 2}"
                   for i in (1, 2)]
        inst = self.planar(tmp_path, [("R", "0", "0")])
        capsys.readouterr()
        assert self.run("extract", "--sidecar", str(side), "--instance",
                        str(inst), "--lines", ",".join(signals)) == 1
        assert capsys.readouterr().err.startswith(
            "error: extracted set does not dominate 'v1'")

    def test_render_skips_a_general_line_outside_the_box(self, tmp_path):
        # x = 5 misses the drawing box around the unit circle; x = 1/2
        # crosses it
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        self.run("gen", "6", "--pattern", "chunked:3,3", "-o", str(inst))
        svgs = []
        for c in ("-5", "-1/2"):
            sol.write_text(json.dumps({"lines": [
                {"a": "1", "b": "0", "c": c}]}))
            svg = tmp_path / "i.svg"
            assert self.run("render", str(inst), "--solution", str(sol),
                            "-o", str(svg)) == 0
            svgs.append(svg.read_text())
        assert [text.count('class="sol"') for text in svgs] == [0, 1]
