"""`lift` against the per-assignment search it replaces.

`_reference_lift` builds the same fence, signals and defender candidates as
`lift`, and calls `verify_separation` on the whole line set of each defender
assignment in turn.  `lift` must return the same lines, or raise the same
exception type with the same message, on every colorful dominating set of
the small instances, and on planar instances with a point moved onto one of
the lifted lines.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from sepline import geometry, reduction
from sepline.errors import (InvalidDominatingSet, NotSeparating, PointOnLine,
                            SeplineError)
from sepline.geometry import AxisLine, verify_separation
from sepline.oracles import colorful_dominating_sets
from sepline.reduction import (GUARD_Y, U, ReducedInstance, lift, normalize,
                               reduce_instance)

from test_reduction import _small_instances, toy, unliftable

F = Fraction


def _reference_fixed(layout, f):
    """The fence, then one signal per track at its chosen strip f[i]."""
    k = layout.k
    h1_lo, _ = layout.h_track(1)
    _, hk_hi = layout.h_track(k)
    fixed = [AxisLine("H", F(GUARD_Y + (h1_lo + 1)) / 2),
             AxisLine("H", F((hk_hi - 1) + (hk_hi + 2 * U)) / 2),
             AxisLine("V", F((4 * U - 2) + (4 * U + 2)) / 2)]
    for i in range(1, k + 1):
        ylo, _ = layout.h_strip(i, f[i])
        fixed.append(AxisLine("H", F(ylo + U // 2)))
    return fixed


def _reference_assignments(norm, red, chosen):
    """(chosen with its forced picks, fixed lines, [defender lines of each
    assignment, in search order]), or raises InvalidDominatingSet as
    `lift` does."""
    layout, inst = red.layout, norm.inst
    chosen = list(chosen)
    for cls in inst.classes:
        if not any(u in chosen for u in cls):
            chosen += [u for u in cls if u in reduction._FORCED_PICKS]
    if len(chosen) != layout.k:
        raise InvalidDominatingSet(
            f"expected {layout.k} vertices, got {len(chosen)}")
    f = {}
    for i, cls in enumerate(inst.classes, start=1):
        picks = [a for a, u in enumerate(cls, start=1) if u in chosen]
        if len(picks) != 1:
            raise InvalidDominatingSet(
                f"class {i} must contribute exactly one vertex")
        f[i] = picks[0]
    d = layout.d
    hits = []
    for v in inst.blues:
        hj = [b for b, u in enumerate(inst.neighbors_of_blue(v), start=1)
              if u in chosen]
        if not hj:
            raise InvalidDominatingSet(f"blue vertex {v!r} is not dominated")
        hits.append(sorted(hj, key=lambda r: (not 1 < r < d, r)))

    def defenders(assign):
        out = []
        for j, gj in enumerate(assign, start=1):
            for r in range(1, d + 1):
                if r != gj:
                    xlo, _ = layout.v_strip(j, 2 * r)
                    out.append(AxisLine("V", xlo + (F(5, 2) if r < gj
                                                    else F(3, 2))))
        return out

    return chosen, _reference_fixed(layout, f), [
        defenders(a) for a in product(*hits)]


def _reference_lift(norm, red, chosen):
    """The lines of the first assignment that `verify_separation` passes."""
    chosen, fixed, assignments = _reference_assignments(norm, red, chosen)
    for defs in assignments:
        lines = fixed + defs
        if verify_separation(red.points, lines) is None:
            return lines
    raise NotSeparating(
        f"no defender assignment separates the lift of {chosen}")


def _outcome(fn, *args):
    try:
        return "lines", fn(*args)
    except SeplineError as exc:
        return type(exc).__name__, str(exc)


def _same_as_reference(norm, red, chosen):
    got = _outcome(lift, norm, red, chosen)
    assert got == _outcome(_reference_lift, norm, red, chosen), chosen
    return got[0]


def _all_sets():
    """toy(), unliftable() and every `_small_instances()` instance."""
    out = [("toy", toy()), ("unliftable", unliftable())]
    out += [(f"small{i}", inst) for i, inst in enumerate(_small_instances())]
    return [pytest.param(inst, id=label) for label, inst in out]


@pytest.mark.parametrize("inst", _all_sets())
def test_every_colorful_dominating_set_lifts_as_the_reference(inst):
    norm = normalize(inst)
    red = reduce_instance(norm)
    sets = list(colorful_dominating_sets(inst))
    outcomes = [_same_as_reference(norm, red, list(s)) for s in sets]
    # a non-dominating choice raises the same InvalidDominatingSet
    for pick in product(*inst.classes):
        _same_as_reference(norm, red, list(pick))
    assert outcomes


def test_unliftable_sets_match_the_reference():
    norm = normalize(unliftable())
    red = reduce_instance(norm)
    assert _same_as_reference(norm, red, ["u1_1", "u2_1"]) == "NotSeparating"
    assert _same_as_reference(norm, red, ["u1_1", "u2_2"]) == "lines"


def _moved(red, pid, x=None, y=None):
    """`red` with point `pid` moved to the given coordinates."""
    pts = list(red.points)
    p = pts[pid]
    pts[pid] = replace(p, x=p.x if x is None else x, y=p.y if y is None
                       else y)
    return ReducedInstance(pts, red.p, red.q, red.layout)


def _toy_setup():
    """toy() with {u1, u3}: v1 has two chosen neighbours, so the search
    has two defender assignments."""
    norm = normalize(toy())
    red = reduce_instance(norm)
    chosen, fixed, assignments = _reference_assignments(
        norm, red, ["u1", "u3"])
    assert len(assignments) == 2
    return norm, red, fixed, assignments


@pytest.mark.parametrize("which", ["fence_h", "fence_v", "signal"])
def test_point_on_a_fixed_line_raises_as_the_reference(which):
    norm, red, fixed, _ = _toy_setup()
    line = {"fence_h": fixed[0], "fence_v": fixed[2], "signal": fixed[3]}[
        which]
    for pid in (0, len(red.points) // 2, len(red.points) - 1):
        moved = (_moved(red, pid, y=line.c) if line.orient == "H"
                 else _moved(red, pid, x=line.c))
        assert _same_as_reference(norm, moved, ["u1", "u3"]) == "PointOnLine"


def test_point_on_a_second_assignment_defender():
    """A point on a defender that only the second assignment places
    raises only when the first assignment does not separate."""
    norm, red, fixed, (first, second) = _toy_setup()
    firsts = {ln.c for ln in first}
    only_second = [ln for ln in second if ln.c not in firsts]
    assert only_second
    outcomes = set()
    for ln in only_second:
        for p in red.points:
            outcome = _same_as_reference(norm, _moved(red, p.id, x=ln.c),
                                         ["u1", "u3"])
            outcomes.add(outcome)
    # both branches occur: moves that keep the first assignment separating
    # return its lines; moves that break it reach the second and raise
    assert outcomes == {"lines", "PointOnLine"}


@pytest.fixture
def counted(monkeypatch):
    calls = {"verify_separation": 0, "cell_map": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reduction, "verify_separation",
                        counting("verify_separation", verify_separation))
    monkeypatch.setattr(geometry, "cell_map",
                        counting("cell_map", geometry.cell_map))
    return calls


def test_lift_decides_assignments_without_verify_separation(counted):
    """No point lies on a line: `lift` places the fixed lines once and
    calls neither `verify_separation` nor `cell_map`, here over two
    assignments (the first separates), over an exhausted search, and in
    the lifts of `reduce_instance`'s ordering search."""
    norm = normalize(toy())
    red = reduce_instance(norm)
    assert lift(norm, red, ["u1", "u3"])
    norm = normalize(unliftable())
    red = reduce_instance(norm)
    with pytest.raises(NotSeparating):
        lift(norm, red, ["u1_1", "u2_1"])
    assert counted == {"verify_separation": 0, "cell_map": 0}


def test_point_on_a_line_is_reported_without_verify_separation(counted):
    """`lift` raises the reference's PointOnLine from its own pass, calling
    neither `verify_separation` nor `cell_map`."""
    norm, red, fixed, _ = _toy_setup()
    moved = _moved(red, 0, y=fixed[3].c)
    want = _outcome(_reference_lift, norm, moved, ["u1", "u3"])
    assert want[0] == "PointOnLine"
    counted.update(verify_separation=0, cell_map=0)
    assert _outcome(lift, norm, moved, ["u1", "u3"]) == want
    assert counted == {"verify_separation": 0, "cell_map": 0}


def test_point_on_a_line_after_a_mixed_cell_raises():
    """The last point in input order lies on a defender of the first
    assignment, whose cells are already mixed among the points before it:
    `lift` raises the reference's PointOnLine for that point, so it never
    stops an assignment before reaching its last point."""
    norm = normalize(unliftable())
    red = reduce_instance(norm)
    chosen = ["u1_1", "u2_1"]
    _, fixed, assignments = _reference_assignments(norm, red, chosen)
    first = fixed + assignments[0]
    last = red.points[-1]
    assert verify_separation(red.points[:-1], first) is not None
    for ln in assignments[0]:
        moved = _moved(red, last.id, x=ln.c)
        assert _same_as_reference(norm, moved, chosen) == "PointOnLine"
        with pytest.raises(PointOnLine) as raised:
            lift(norm, moved, chosen)
        assert raised.value.point_id == last.id
