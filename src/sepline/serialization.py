"""Exact JSON serialization shared by the library and the CLI.

Rationals travel as decimal-free "num/den" strings (plain "num" when the
denominator is 1), so parse(serialize(x)) reproduces every Fraction
bit-for-bit.  Each document kind states its shape once, and its loader
checks that shape before any semantic check; a mismatch raises ValueError
naming the field's path.  Keys outside the shape are ignored.

* instance JSON   — {"kind": "circle"|"planar",
                     "points": [{"color": "R"|"B", "x", "y"}]}
* line records    — {"orient": "H"|"V", "c"} or {"a", "b", "c"}
* solution JSON   — {"lines": [line], "variant", "size", "kappa", "steps",
                     "repair_used"}; only "lines" is read back
* C-RBDS JSON     — {"classes": [[str]], "blues": [str], "edges": [[str]]},
                     optionally "k" and "order" ({blue: [red]})
* sidecar JSON    — {"normalized": C-RBDS JSON + {"original_k",
                     "added_degree_class", "added_parity_class"}}: the
                     normalized instance, from which the reduction's grid
                     and budgets follow
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .geometry import BLUE, RED, AxisLine, ColoredPoint, GeneralLine
from .reduction import CRBDS, NormalizedCRBDS, ReductionLayout

_NAMES = {str: "a string", int: "an integer", bool: "a boolean",
          list: "a list", dict: "an object"}


def _check(value, shape, path: str) -> None:
    """Raise ValueError naming `path` unless `value` has `shape`: a type
    (a bool is no integer), a tuple of allowed literals, [shape] for a list
    whose items all have that shape, or {key: shape} for an object with
    (at least) those keys.  Leaf fields and leaf list items are tested in
    their container's loop, without a call of their own."""
    if type(value) is shape or type(shape) is tuple and value in shape:
        return
    if type(shape) is dict and type(value) is dict:
        for key, sub in shape.items():
            if key not in value:
                raise ValueError(f"{path}.{key} is missing")
            item = value[key]
            if type(item) is not sub and not (type(sub) is tuple
                                              and item in sub):
                _check(item, sub, f"{path}.{key}")
    elif type(shape) is list and type(value) is list:
        sub = shape[0]
        for i, item in enumerate(value):
            if type(item) is not sub:
                _check(item, sub, f"{path}[{i}]")
    else:
        expected = (f"one of {', '.join(map(repr, shape))}"
                    if type(shape) is tuple
                    else _NAMES[shape if type(shape) is type else type(shape)])
        raise ValueError(f"{path} must be {expected}, got {value!r:.40}")


def rat_to_str(x) -> str:
    """'num/den', or 'num' for an integer; `x` is a Fraction or an int."""
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


# the whole grammar of a rational: an optional minus, ASCII digits, and
# optionally a slash and more digits; no sign on the denominator, no
# spaces, underscores, decimal points or exponents
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(s) -> Fraction:
    """The rational a 'num/den' (or 'num') string denotes.  Raises
    ValueError for anything else, before any number is built."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"rational must be a 'num/den' string, got {s!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


# --- instances --------------------------------------------------------------

def instance_to_doc(points, kind: str) -> dict:
    if kind not in ("circle", "planar"):
        raise ValueError(f"unknown instance kind {kind!r}")
    return {"kind": kind,
            "points": [{"color": p.color,
                        "x": rat_to_str(p.x),
                        "y": rat_to_str(p.y)} for p in points]}


_INSTANCE = {"kind": ("circle", "planar"), "points": list}
_COLORS = (RED, BLUE)
_POINT = {"color": _COLORS, "x": str, "y": str}


def instance_from_doc(doc: dict) -> tuple[str, list[ColoredPoint]]:
    _check(doc, _INSTANCE, "instance")
    points = []
    for i, rec in enumerate(doc["points"]):
        # the shape of _POINT, tested inline; `_check` names the fault
        if (type(rec) is not dict or rec.get("color") not in _COLORS
                or type(rec.get("x")) is not str
                or type(rec.get("y")) is not str):
            _check(rec, _POINT, f"instance.points[{i}]")
        points.append(ColoredPoint(i, rec["color"], rat_from_str(rec["x"]),
                                   rat_from_str(rec["y"])))
    return doc["kind"], points


# --- lines and solutions ----------------------------------------------------

def line_to_doc(ln) -> dict:
    if isinstance(ln, AxisLine):
        return {"orient": ln.orient, "c": rat_to_str(ln.c)}
    return {"a": rat_to_str(ln.a), "b": rat_to_str(ln.b),
            "c": rat_to_str(ln.c)}


_AXIS_LINE = {"orient": ("H", "V"), "c": str}
_GENERAL_LINE = {"a": str, "b": str, "c": str}


def _line(rec, path: str):
    if type(rec) is dict and "orient" in rec:
        _check(rec, _AXIS_LINE, path)
        return AxisLine(rec["orient"], rat_from_str(rec["c"]))
    _check(rec, _GENERAL_LINE, path)
    a, b = rat_from_str(rec["a"]), rat_from_str(rec["b"])
    if a == 0 and b == 0:
        raise ValueError("degenerate general line: a = b = 0")
    return GeneralLine(a, b, rat_from_str(rec["c"]))


def line_from_doc(rec: dict):
    return _line(rec, "line")


def solution_to_doc(variant: str, lines, *, kappa=None, steps=0,
                    repair_used=False) -> dict:
    return {"variant": variant,
            "lines": [line_to_doc(ln) for ln in lines],
            "size": len(lines),
            "kappa": kappa,
            "steps": steps,
            "repair_used": bool(repair_used)}


def solution_from_doc(doc: dict):
    _check(doc, {"lines": list}, "solution")
    lines = [_line(rec, f"solution.lines[{i}]")
             for i, rec in enumerate(doc["lines"])]
    return doc.get("variant", "axis"), lines


# --- decomposition diagnostics ---------------------------------------------

def diagnostics_to_doc(dec, graph) -> dict:
    """kappa-command payload: chunks, switch graph, kappa."""
    order = dec.order
    chunks = map(dec.chunk, range(max(dec.w, 1)))
    return {
        "w": dec.w,
        "chunks": [{"color": order.colors[c[-1]],
                    "point_ids": [order.points[i].id for i in c]}
                   for c in chunks],
        "switch_graph": {
            "edges": [{"i": i, "j": j, "orient": orient}
                      for (i, j), orient in sorted(graph.edges.items())],
            "isolated": list(graph.isolated),
            "kappa": graph.kappa,
        },
    }


# --- C-RBDS instances and the reduction sidecar -----------------------------

def crbds_to_doc(inst: CRBDS) -> dict:
    doc = {"k": inst.k,
           "classes": [list(c) for c in inst.classes],
           "blues": list(inst.blues),
           "edges": sorted([u, v] for (u, v) in inst.edges)}
    if inst.order is not None:
        doc["order"] = {v: list(us) for v, us in inst.order.items()}
    return doc


_CRBDS = {"classes": [[str]], "blues": [str], "edges": [[str]]}
_SIDECAR = {"normalized": {**_CRBDS, "original_k": int,
                           "added_degree_class": bool,
                           "added_parity_class": bool}}


def crbds_from_doc(doc: dict) -> CRBDS:
    """An input instance.  Its vertex names must not start with "_", the
    prefix of the vertices `normalize` adds (the sidecar's normalized
    instance holds those, and is loaded by `sidecar_from_doc`)."""
    _check(doc, _CRBDS, "C-RBDS")
    lists = [(f"classes[{i}]", cls) for i, cls in enumerate(doc["classes"])]
    for where, names in lists + [("blues", doc["blues"])]:
        for j, name in enumerate(names):
            if name.startswith("_"):
                raise ValueError(f"C-RBDS.{where}[{j}] must not start with "
                                 "'_', which names the vertices normalize "
                                 f"adds, got {name!r:.40}")
    return _crbds(doc, "C-RBDS")


def _crbds(doc: dict, path: str) -> CRBDS:
    """The instance of a document that has the C-RBDS shape."""
    classes = [list(c) for c in doc["classes"]]
    if "k" in doc and doc["k"] != len(classes):
        raise ValueError(f"{path}.k does not match the class list")
    blues = list(doc["blues"])
    blue_set = set(blues)
    names = [u for cls in classes for u in cls] + blues
    if len(set(names)) < len(names):
        twice = next(u for i, u in enumerate(names) if u in names[:i])
        raise ValueError(f"{path} lists vertex {twice!r:.40} twice")
    reds = set(names) - blue_set
    edges = set()
    for i, e in enumerate(doc["edges"]):
        if len(e) != 2 or e[0] not in reds or e[1] not in blue_set:
            raise ValueError(f"{path}.edges[{i}] must be a [red, blue] pair "
                             f"of known vertices, got {e!r:.40}")
        edges.add((e[0], e[1]))
    order = doc.get("order")
    if order is not None:
        _check(order, dict, f"{path}.order")
        nbrs: dict[str, list[str]] = {v: [] for v in blues}
        for u, v in edges:
            nbrs[v].append(u)
        for v, us in order.items():
            _check(us, [str], f"{path}.order.{v}")
            if v not in nbrs or sorted(us) != sorted(nbrs[v]):
                raise ValueError(f"{path}.order.{v} must permute a blue "
                                 "vertex's neighbors")
        order = {v: list(us) for v, us in order.items()}
    return CRBDS(classes, blues, edges, order)


def sidecar_to_doc(norm: NormalizedCRBDS) -> dict:
    return {"normalized": {**crbds_to_doc(norm.inst),
                           "original_k": norm.original_k,
                           "added_degree_class": norm.added_degree_class,
                           "added_parity_class": norm.added_parity_class}}


def sidecar_from_doc(doc: dict) -> tuple[NormalizedCRBDS, ReductionLayout]:
    """The normalized instance and the grid it gives.  The instance must
    have what `normalize` guarantees: one blue degree d, one class size m,
    and k and d even."""
    _check(doc, _SIDECAR, "sidecar")
    nd = doc["normalized"]
    inst = _crbds(nd, "sidecar.normalized")
    degrees = sorted({inst.degree(v) for v in inst.blues})
    sizes = sorted({len(cls) for cls in inst.classes})
    if len(degrees) != 1:
        raise ValueError("sidecar.normalized: blue degrees must be equal, "
                         f"got {degrees}")
    if len(sizes) != 1:
        raise ValueError("sidecar.normalized: class sizes must be equal, "
                         f"got {sizes}")
    (d,), (m,) = degrees, sizes
    if inst.k % 2 or d % 2:
        raise ValueError(f"sidecar.normalized: k = {inst.k} and d = {d} "
                         "must be even")
    norm = NormalizedCRBDS(inst, d, m, nd["original_k"],
                           nd["added_degree_class"], nd["added_parity_class"])
    return norm, ReductionLayout(norm.k, norm.n, d, m)


# --- canonical text form ----------------------------------------------------

_ENCODE_STR = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _write(value, indent: str, out) -> None:
    """Pass the text of `value` to `out` as `json.dumps(indent=2,
    sort_keys=True)` writes it at the depth whose line break and indent is
    `indent`.  Raises TypeError for a value of any other type than dict
    (with str keys), list, str, int, bool, None or float."""
    t = type(value)
    if t is dict:
        if not value:
            out("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(
                    f"cannot write a key of type {type(key).__name__}")
            item = value[key]
            if type(item) is str:
                out(f"{sep}{_ENCODE_STR(key)}: {_ENCODE_STR(item)}")
            else:
                out(f"{sep}{_ENCODE_STR(key)}: ")
                _write(item, inner, out)
            sep = "," + inner
        out(indent + "}")
    elif t is list:
        if not value:
            out("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out(sep + _ENCODE_STR(item))
            else:
                out(sep)
                _write(item, inner, out)
            sep = "," + inner
        out(indent + "]")
    elif t is str:
        out(_ENCODE_STR(value))
    elif t is int:
        out(int.__repr__(value))
    elif t is bool or value is None:
        out(_LITERALS[value])
    elif t is float:
        out(json.dumps(value))
    else:
        raise TypeError(f"cannot write a value of type {t.__name__}")


def dumps(doc: dict) -> str:
    """Canonical deterministic text, the same bytes as
    `json.dumps(doc, indent=2, sort_keys=True) + "\\n"`: sorted keys, two
    spaces of indent, ASCII escapes, and `{}`/`[]` for empty containers.
    Written directly, because `json.dumps` with an indent never uses the C
    encoder.  Raises TypeError for a value of a type `_write` does not
    write."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def loads(text: str) -> dict:
    """The parsed document; its loader checks its shape."""
    return json.loads(text)
