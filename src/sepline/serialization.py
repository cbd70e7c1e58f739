"""Exact JSON serialization shared by the library and the CLI.

Rationals travel as decimal-free "num/den" strings (plain "num" when the
denominator is 1), so parse(serialize(x)) reproduces every Fraction
bit-for-bit.  Three document kinds exist:

* instance JSON   — {"kind": "circle"|"planar", "points": [...]}
* solution JSON   — {"variant", "lines", "size", "kappa", "steps",
                     "repair_used"}
* C-RBDS JSON     — {"k", "classes", "blues", "edges"} plus the reduction's
                     layout sidecar (budgets, grid, role map, normalization)
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .geometry import BLUE, RED, AxisLine, ColoredPoint, GeneralLine
from .oracles import CRBDS
from .reduction import (ROLE_NAMES, NormalizedCRBDS, ReducedInstance,
                        ReductionLayout)


def rat_to_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


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
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
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


def instance_from_doc(doc: dict) -> tuple[str, list[ColoredPoint]]:
    kind = doc.get("kind")
    if kind not in ("circle", "planar"):
        raise ValueError(f"unknown instance kind {kind!r}")
    recs = doc["points"]
    if not (isinstance(recs, list) and all(isinstance(r, dict) for r in recs)):
        raise ValueError("'points' must be a list of objects")
    points = []
    for i, rec in enumerate(recs):
        color = rec["color"]
        if color not in (RED, BLUE):
            raise ValueError(f"point {i}: color must be 'R' or 'B'")
        points.append(ColoredPoint(i, color,
                                   rat_from_str(rec["x"]),
                                   rat_from_str(rec["y"])))
    return kind, points


# --- lines and solutions ----------------------------------------------------

def line_to_doc(ln) -> dict:
    if isinstance(ln, AxisLine):
        return {"orient": ln.orient, "c": rat_to_str(ln.c)}
    return {"a": rat_to_str(ln.a), "b": rat_to_str(ln.b),
            "c": rat_to_str(ln.c)}


def line_from_doc(rec: dict):
    if not isinstance(rec, dict):
        raise ValueError(f"a line record must be an object, got {rec!r}")
    for key in ("orient", "c", "a", "b"):
        if key in rec and not isinstance(rec[key], str):
            raise ValueError(f"line field {key!r} must be a string, "
                             f"got {rec[key]!r}")
    if "orient" in rec:
        if rec["orient"] not in ("H", "V"):
            raise ValueError(f"bad orientation {rec['orient']!r}")
        return AxisLine(rec["orient"], rat_from_str(rec["c"]))
    a, b = rat_from_str(rec["a"]), rat_from_str(rec["b"])
    if a == 0 and b == 0:
        raise ValueError("degenerate general line: a = b = 0")
    return GeneralLine(a, b, rat_from_str(rec["c"]))


def solution_to_doc(variant: str, lines, *, kappa=None, steps=0,
                    repair_used=False) -> dict:
    return {"variant": variant,
            "lines": [line_to_doc(ln) for ln in lines],
            "size": len(lines),
            "kappa": kappa,
            "steps": steps,
            "repair_used": bool(repair_used)}


def solution_from_doc(doc: dict):
    if not isinstance(doc.get("lines"), list):
        raise ValueError("'lines' must be a list of line objects")
    lines = [line_from_doc(rec) for rec in doc["lines"]]
    return doc.get("variant", "axis"), lines


# --- decomposition diagnostics ---------------------------------------------

def diagnostics_to_doc(dec, graph) -> dict:
    """kappa-command payload: chunks, switch graph, kappa."""
    return {
        "w": dec.w,
        "chunks": [{"color": c.color, "point_ids": list(c.point_ids)}
                   for c in dec.chunks],
        "switch_graph": {
            "edges": [{"i": i, "j": j,
                       "orient": graph.orientations(i, j)}
                      for (i, j) in sorted(graph.edges)],
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


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def crbds_from_doc(doc: dict) -> CRBDS:
    if not (isinstance(doc["classes"], list)
            and all(_is_str_list(c) for c in doc["classes"])):
        raise ValueError("'classes' must be a list of lists of strings")
    if not _is_str_list(doc["blues"]):
        raise ValueError("'blues' must be a list of strings")
    if not (isinstance(doc["edges"], list)
            and all(_is_str_list(e) and len(e) == 2 for e in doc["edges"])):
        raise ValueError("'edges' must be a list of [red, blue] pairs")
    classes = [list(c) for c in doc["classes"]]
    if "k" in doc and doc["k"] != len(classes):
        raise ValueError("declared k does not match the class list")
    reds = {u for cls in classes for u in cls}
    blues = list(doc["blues"])
    edges = set()
    for u, v in doc["edges"]:
        if u not in reds or v not in set(blues):
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
        edges.add((u, v))
    order = doc.get("order")
    if order is not None:
        if not isinstance(order, dict):
            raise ValueError("'order' must map blue vertices to neighbor lists")
        nbrs: dict[str, list[str]] = {v: [] for v in blues}
        for u, v in edges:
            nbrs[v].append(u)
        for v, us in order.items():
            if not (v in nbrs and _is_str_list(us)
                    and sorted(us) == sorted(nbrs[v])):
                raise ValueError(
                    f"order of {v!r} must permute a blue vertex's neighbors")
        order = {v: list(us) for v, us in order.items()}
    return CRBDS(classes, blues, edges, order)


def sidecar_to_doc(norm: NormalizedCRBDS, red: ReducedInstance) -> dict:
    lay = red.layout
    return {
        "budgets": {"p": red.p, "q": red.q},
        "grid": {"k": lay.k, "n": lay.n, "d": lay.d, "m": lay.m},
        "roles": {str(pid): list(role) for pid, role in lay.roles.items()},
        "normalized": {
            **crbds_to_doc(norm.inst),
            "d": norm.d, "m": norm.m,
            "original_k": norm.original_k,
            "added_degree_class": norm.added_degree_class,
            "added_parity_class": norm.added_parity_class,
        },
    }


def sidecar_from_doc(doc: dict) -> tuple[NormalizedCRBDS, ReductionLayout]:
    for key in ("grid", "budgets", "roles", "normalized"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"sidecar field {key!r} must be an object")
    for key, names in (("grid", "kndm"), ("budgets", "pq")):
        for name in names:
            x = doc[key][name]
            if not (isinstance(x, int) and not isinstance(x, bool) and x >= 1):
                raise ValueError(f"sidecar {key} {name!r} must be an "
                                 "integer >= 1")
    if not all(isinstance(role, list) and role and role[0] in ROLE_NAMES
               for role in doc["roles"].values()):
        raise ValueError("sidecar roles must map point ids to lists that "
                         f"start with one of {', '.join(ROLE_NAMES)}")
    g = doc["grid"]
    roles = {int(pid): tuple(role) for pid, role in doc["roles"].items()}
    lay = ReductionLayout(g["k"], g["n"], g["d"], g["m"], roles)
    nd = doc["normalized"]
    norm = NormalizedCRBDS(crbds_from_doc(nd), nd["d"], nd["m"],
                           nd["original_k"], nd["added_degree_class"],
                           nd["added_parity_class"])
    if (lay.p, lay.q) != (doc["budgets"]["p"], doc["budgets"]["q"]):
        raise ValueError("sidecar budgets disagree with its grid dimensions")
    return norm, lay


# --- canonical text form ----------------------------------------------------

def dumps(doc: dict) -> str:
    """Canonical deterministic text: sorted keys, fixed separators."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a document must be a JSON object")
    return doc
