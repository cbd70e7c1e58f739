"""`serialization.dumps` writes the bytes of the reference
`json.dumps(doc, indent=2, sort_keys=True) + "\\n"`: on generated documents,
and on one document of each kind the CLI writes."""

import contextlib
import io
import json

import pytest

from sepline.cli import main
from sepline.serialization import dumps

from test_cli import toy_doc

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


TRICKY = ['"', "\\", "\x00", "\x1f", "\n\t\r\b\f", "\x7f", "é", " ",
          "\U0001f600", "a\"b\\c", "</script>", ""]

TEXT = st.text() | st.sampled_from(TRICKY)
LEAVES = (TEXT | st.integers() | st.integers(-10**40, 10**40)
          | st.booleans() | st.none() | st.floats())
DOCS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DOCS)
def test_dumps_is_the_reference(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": [], "c": [[], {}]}, [[[]]], "", 0, -1, True,
    None, 1.5, float("inf"), float("nan"), {"x": [1.0, -0.0, 1e300]},
    10**100, {"é": "\U0001f600", "": ""}, *TRICKY])
def test_dumps_edge_cases(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc,message", [
    ({"a": (1, [2, (3,)])}, "cannot write a value of type tuple"),
    ({1: "int key"}, "cannot write a key of type int"),
    ({"a": {2: None}}, "cannot write a key of type int"),
    ((1, 2), "cannot write a value of type tuple")],
    ids=["nested-tuple", "int-key", "nested-int-key", "tuple"])
def test_other_types_raise_type_error(doc, message):
    """The documents the program writes hold dicts with str keys, lists,
    str, int, bool, None and float only; any other type is an error."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        dumps(doc)


def _run(*argv) -> str:
    """The stderr of a successful CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main([str(a) for a in argv]) in (0, 2)
    return err.getvalue()


def test_every_document_the_cli_writes_is_the_reference(tmp_path):
    t = tmp_path
    (t / "crbds.json").write_text(json.dumps(toy_doc()))
    _run("gen", 12, "--seed", 3, "-o", t / "circle.json")
    report = _run("solve", t / "circle.json", "--report",
                  "-o", t / "axis.json")
    _run("solve", t / "circle.json", "--variant", "general",
         "-o", t / "general.json")
    _run("kappa", t / "circle.json", "-o", t / "kappa.json")
    _run("oracle", t / "circle.json", "--variant", "pq", "--p", 1, "--q", 1,
         "-o", t / "pq.json")
    _run("reduce", t / "crbds.json", "-o", t / "planar.json",
         "--sidecar", t / "sidecar.json")
    _run("lift", "--sidecar", t / "sidecar.json", "--instance",
         t / "planar.json", "--set", "u1,u3", "-o", t / "lift.json")
    _run("extract", "--sidecar", t / "sidecar.json", "--instance",
         t / "planar.json", "--lines", t / "lift.json",
         "-o", t / "vertices.json")
    texts = {path.name: path.read_text() for path in t.glob("*.json")
             if path.name != "crbds.json"}
    texts["report"] = report
    assert isinstance(json.loads(report)["timing_ms"], float)
    assert set(json.loads(texts["vertices.json"])) == {"vertices"}
    assert len(texts) == 10
    for name, text in texts.items():
        doc = json.loads(text)
        assert dumps(doc) == text == reference(doc), name
