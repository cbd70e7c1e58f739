"""tools/bench_layers.py on each target's smallest slice: the schema it
writes, and its non-timing columns against direct library calls."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sepline
import sepline.serialization
from sepline.decomposition import decompose
from sepline.generate import gen_circle
from sepline.reduction import normalize, reduce_instance
from sepline.solvers import solve_axis, solve_general

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "tools" / "bench_layers.py"

TIMES = {
    "axis": {"decompose", "switch_graph", "edge_cover", "L0", "refine_step",
             "partition", "domination", "repair", "total"},
    "general": {"decompose", "anchors", "lines", "final_check", "total"},
    "reduce": {"normalize", "base_emit", "candidate_emits",
               "validate_layout", "score_lifts", "dumps", "total"},
}


def harness():
    spec = importlib.util.spec_from_file_location("bench_layers", HARNESS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(tmp_path, target, *extra):
    """The document the harness writes for `target` with one repeat."""
    out = tmp_path / f"{target}.json"
    subprocess.run([sys.executable, str(HARNESS), target, "--src",
                    str(ROOT / "src"), "--label", "smoke", "--repeat", "1",
                    "--note", "smoke test", "--out", str(out), *extra],
                   cwd=ROOT, check=True, capture_output=True)
    doc = json.loads(out.read_text())
    assert set(doc) == {"description", "runs", "instances"}
    assert doc["description"].endswith(f"tools/bench_layers.py {target}")
    run_info = doc["runs"]["smoke"]
    assert set(run_info) == {"note", "python", "machine", "cpus", "repeat",
                             "visits"}
    assert run_info["note"] == "smoke test" and run_info["repeat"] == 1
    rows = {}
    for name, labels in doc["instances"].items():
        assert list(labels) == ["smoke"]
        row = labels["smoke"]
        assert all(type(row[c]) is float and row[c] >= 0
                   for c in TIMES[target])
        rows[name] = row
    return rows, run_info


def test_axis(tmp_path):
    rows, run_info = run(tmp_path, "axis", "--max-n", "320")
    assert run_info["visits"] == 1
    assert list(rows) == ["random/320/2"]
    row = rows["random/320/2"]
    assert set(row) == TIMES["axis"] | {"w", "kappa", "steps", "repair_used",
                                        "tracked"}
    points = gen_circle(320, 2, "random")
    sol = solve_axis(points)
    assert (row["w"], row["kappa"], row["steps"], row["repair_used"]) == (
        decompose(points).w, sol.kappa, sol.steps, sol.repair_used)
    assert row["steps"] > 0


def test_general(tmp_path):
    rows, _ = run(tmp_path, "general", "--max-n", "1280")
    assert sorted(rows) == ["alternating/1280/1", "random/1280/1"]
    for name, row in rows.items():
        assert set(row) == TIMES["general"] | {"size"}
        pattern, n, seed = name.split("/")
        assert row["size"] == solve_general(
            gen_circle(int(n), int(seed), pattern)).size


def test_reduce(tmp_path, monkeypatch):
    rows, run_info = run(tmp_path, "reduce")
    assert run_info["visits"] == 20
    monkeypatch.setattr(sys, "path", list(sys.path))
    corpus = dict(harness().TARGETS["reduce"].corpus(sepline, None))
    assert sorted(rows) == sorted(corpus) and len(rows) == 10
    for name, row in rows.items():
        assert set(row) == TIMES["reduce"] | {"points", "emits", "lifts",
                                              "points_built"}
        red = reduce_instance(normalize(corpus[name]))
        assert row["points"] == len(red.points)
        assert row["emits"] >= 1 and row["points_built"] >= row["points"]
    # the searched instances emit candidates and score them by lifting
    assert rows["small_k2/1"]["emits"] > 1 and rows["small_k4/0"]["lifts"] > 0


@pytest.mark.parametrize("target", ["axis", "general", "reduce"])
def test_layers_are_attributes_of_the_tree(target):
    bound = harness().TARGETS[target]
    for path in (*bound.layers, *bound.counts):
        mod, name = path.split(".")
        assert hasattr(getattr(sepline, mod), name), path
