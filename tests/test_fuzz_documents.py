"""Malformed input of every document kind ends in exit 0, 1 or 2 through
`main`, never in a traceback, and exit 1 prints `error:`.

Each example takes a valid document (instance, solution, inline `--lines`
spec, C-RBDS or sidecar) and mutates it one to three times: a key or list
item is dropped, or a value is replaced by one of another JSON type or by a
wrong string.
"""

import contextlib
import copy
import io
import json

import pytest

from sepline.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)

REPLACEMENTS = [0, 3, -1, True, False, None, [], ["zz"], [1], {}, {"zz": 1},
                "", "zz", "R", "H", "u1", "v1", "1/0", "0.5", "-1", "1/2"]


def run(*argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error:"), err.getvalue()
    return code


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Valid documents of every kind, written under one directory: a circle
    instance with axis and general solutions, the toy C-RBDS with its
    neighbour order, its planar reduction, sidecar and lifted lines."""
    d = tmp_path_factory.mktemp("fuzz")
    crbds = {"k": 2, "classes": [["u1", "u2"], ["u3", "u4"]],
             "blues": ["v1", "v2"],
             "edges": [["u1", "v1"], ["u3", "v1"], ["u2", "v2"],
                       ["u3", "v2"]]}
    (d / "crbds.json").write_text(json.dumps(crbds))
    assert run("gen", "8", "--pattern", "alternating", "--seed", "3",
               "-o", str(d / "circle.json")) == 0
    for variant in ("axis", "general"):
        assert run("solve", str(d / "circle.json"), "--variant", variant,
                   "-o", str(d / f"{variant}.json")) == 0
    assert run("reduce", str(d / "crbds.json"), "-o", str(d / "planar.json"),
               "--sidecar", str(d / "sidecar.json")) == 0
    assert run("lift", "--sidecar", str(d / "sidecar.json"), "--instance",
               str(d / "planar.json"), "--set", "u1,u3",
               "-o", str(d / "lift.json")) == 0
    crbds["order"] = json.loads(
        (d / "sidecar.json").read_text())["normalized"]["order"]
    (d / "crbds.json").write_text(json.dumps(crbds))
    return d


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(st.sampled_from(REPLACEMENTS))
        if not path:
            doc = value
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _fuzz(docs, name, data, commands):
    """Write a mutation of `name` to `bad.json`, then run `commands`."""
    doc = json.loads((docs / name).read_text())
    (docs / "bad.json").write_text(json.dumps(data.draw(mutated(doc))))
    for argv in commands:
        run(*(str(docs / a) if a.endswith(".json") else a for a in argv))


@FUZZ
@given(data=st.data())
def test_instance(docs, data):
    _fuzz(docs, "circle.json", data, [
        ["solve", "bad.json"], ["kappa", "bad.json"],
        ["verify", "bad.json", "--lines", "axis.json"],
        ["render", "bad.json", "--solution", "general.json"]])


@FUZZ
@given(data=st.data())
def test_planar_instance(docs, data):
    _fuzz(docs, "planar.json", data, [
        ["lift", "--sidecar", "sidecar.json", "--instance", "bad.json",
         "--set", "u1,u3"],
        ["extract", "--sidecar", "sidecar.json", "--instance", "bad.json",
         "--lines", "lift.json"]])


@FUZZ
@given(data=st.data(), name=st.sampled_from(["axis.json", "general.json",
                                              "lift.json"]))
def test_solution(docs, data, name):
    _fuzz(docs, name, data, [
        ["verify", "circle.json", "--lines", "bad.json"],
        ["render", "circle.json", "--solution", "bad.json"],
        ["extract", "--sidecar", "sidecar.json", "--instance", "planar.json",
         "--lines", "bad.json"]])


TOKENS = st.tuples(st.sampled_from(["H", "V", "h", "X", "", "H:", " V"]),
                   st.sampled_from([":", "", "::"]),
                   st.sampled_from(["1/3", "-2", "", "0.5", "1/0", "zz",
                                    "1/", " 1"]))


@FUZZ
@given(tokens=st.lists(TOKENS, min_size=1, max_size=3))
def test_inline_lines(docs, tokens):
    spec = ",".join("".join(tok) for tok in tokens)
    run("verify", str(docs / "circle.json"), f"--lines={spec}")
    run("extract", "--sidecar", str(docs / "sidecar.json"), "--instance",
        str(docs / "planar.json"), f"--lines={spec}")


@FUZZ
@given(data=st.data())
def test_crbds(docs, data):
    _fuzz(docs, "crbds.json", data, [
        ["reduce", "bad.json", "-o", "out.json", "--sidecar", "side.json"]])


@FUZZ
@given(data=st.data())
def test_sidecar(docs, data):
    _fuzz(docs, "sidecar.json", data, [
        ["lift", "--sidecar", "bad.json", "--instance", "planar.json",
         "--set", "u1,u3"],
        ["extract", "--sidecar", "bad.json", "--instance", "planar.json",
         "--lines", "lift.json"],
        ["render", "planar.json", "--sidecar", "bad.json"]])
