"""Self-tests of the benchmark.  From the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_the_declared_metrics(workload, trace):
    res = _result(_bench("--workload", workload, "--seed", "3", "--trace",
                         trace, "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(type(v["value"]) in (int, float)
               for v in res["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_corpus(workload):
    classes = workloads.WORKLOADS[workload]
    first = [c.instance_digest for c in workloads.cases(classes)]
    assert first == [c.instance_digest for c in workloads.cases(classes)]
    golden = json.loads((BENCH / "golden.json").read_text())
    for case in workloads.cases(classes):
        assert golden[case.key]["instance"] == case.instance_digest


def test_cycle_order_follows_the_seed():
    sys.path.insert(0, str(BENCH))
    import run
    cases = list(range(20))
    a, b, c = (run.cycles(cases, s) for s in (5, 5, 6))
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    assert first != [next(c) for _ in range(3)]
    assert all(sorted(cyc) == cases for cyc in first)


def test_circle_matches_library_generator():
    sys.path.insert(0, str(ROOT / "src"))
    from sepline.generate import gen_circle
    from sepline.serialization import dumps, instance_to_doc
    for n, seed, pattern in [(15, 1227, "random"), (40, 2, "alternating"),
                             (30, 4, "chunked:10,5,7,8")]:
        doc, _ = corpus.circle(n, seed, pattern)
        assert corpus.canonical(doc) == dumps(
            instance_to_doc(gen_circle(n, seed, pattern), "circle"))


def test_generators():
    doc, colors = corpus.circle_digits(8, 1, "alternating")
    x = doc["points"][0]["x"].lstrip("-")
    assert len(x.split("/")[1]) >= 55 and corpus.color_changes(colors) == 8
    doc, _ = corpus.mirror(12, 1)
    pts = {(p["x"], p["y"]) for p in doc["points"]}
    assert all((x.lstrip("-"), y) in {(a.lstrip("-"), b) for a, b in pts}
               for x, y in pts) and len(pts) == 12
    inst, witness = corpus.crbds(4, 3, 2, 6, seed=7)
    nbhd = {}
    for u, v in inst["edges"]:
        nbhd.setdefault(v, set()).add(u)
    assert all(len(s) == 2 for s in nbhd.values())
    assert len({frozenset(s) for s in nbhd.values()}) == 6
    assert all(nbhd[v] & set(witness) for v in inst["blues"])


# --- the checker rejects tampered answers ------------------------------------

def _square():
    # the four points (+-3/5, +-4/5) coloured R B R B around the circle
    doc = {"points": [{"color": c, "x": x, "y": y} for c, x, y in
                      [("R", "3/5", "4/5"), ("B", "-3/5", "4/5"),
                       ("R", "-3/5", "-4/5"), ("B", "3/5", "-4/5")]]}
    return check.parse_points(doc)


def test_checker_rejects_dropped_axis_line():
    pts = _square()
    lines = [{"orient": "H", "c": "0"}, {"orient": "V", "c": "0"}]
    sol = {"lines": lines, "size": 2, "kappa": 2}
    check.check_axis(pts, sol, 2)
    with pytest.raises(check.CheckFailed):
        check.check_axis(pts, {"lines": lines[:1], "size": 1, "kappa": 1}, 1)
    with pytest.raises(check.CheckFailed):
        check.check_axis(pts, {"lines": lines[:1], "size": 1, "kappa": 2}, 2)
    with pytest.raises(check.CheckFailed):  # a point on a line
        check.check_axis(pts, {"lines": [lines[0], {"orient": "V",
                                                    "c": "3/5"}],
                               "size": 2, "kappa": 2}, 2)


def test_checker_rejects_dropped_general_line():
    pts = _square()
    lines = [{"a": "1", "b": "0", "c": "0"}, {"a": "0", "b": "1", "c": "0"}]
    check.check_general(pts, {"lines": lines, "size": 2}, 2)
    with pytest.raises(check.CheckFailed):
        check.check_general(pts, {"lines": lines[1:], "size": 1}, 1)


def test_checker_rejects_tampered_roundtrip(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    case = next(c for c in workloads.cases(workloads.SMOKE["per_point"])
                if "crbds.json" in c.files and golden[c.key]["failure"] is None)
    for fname, text in case.files.items():
        (tmp_path / fname).write_text(text)
    sys.path.insert(0, str(ROOT / "src"))
    from sepline.cli import main
    for argv in case.calls:
        assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 0
    case.verify(tmp_path, None)
    lift = json.loads((tmp_path / "lift.json").read_text())
    lift["lines"] = lift["lines"][1:]
    (tmp_path / "lift.json").write_text(json.dumps(lift))
    with pytest.raises(check.CheckFailed):
        case.verify(tmp_path, None)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "axis_dense", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_function_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import sepline.generate
    import sepline.oracles
    import sepline.solvers
    from spans import Tracer
    pkg = sys.modules["sepline"]
    # as if oracles.sep_bitset had been moved and renamed: the solver keeps
    # calling it, but there is no oracles.sep_bitset to wrap
    monkeypatch.delattr(sepline.oracles, "sep_bitset")
    tracer = Tracer(pkg, run._hooks())
    tracer.install()
    try:
        sepline.solvers.solve_axis(sepline.generate.gen_circle(12, 1, "random"))
    finally:
        tracer.uninstall()
    assert tracer.calls["solvers.solve_axis"] == 1
    assert sepline.solvers.solve_axis is tracer.originals["solvers.solve_axis"]
    metrics, absent = run.per_layer(tracer, [("k", 0.1, 12, None)], 0.1, 0.1,
                                    0, 0)
    assert absent == ["oracles.sep_bitset"]
    assert metrics["oracles.sep_bitset.calls"] == (0.0, "1/op")
    assert metrics["solvers.solve_axis.s"][0] > 0
