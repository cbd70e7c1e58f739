import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

import sepline.geometry as geometry
from sepline.errors import GuaranteeViolated, PointOnLine
from sepline.geometry import (BLUE, RED, Arc, AxisLine, CellSignature,
                              ColoredPoint, GeneralLine,
                              angular_positions, angular_sort, arc_contains,
                              arc_interior_point, arc_quadrants,
                              cell_arcs, cell_map,
                              circle_point_from_parameter, general_line,
                              line_side, line_through, pick_coordinate,
                              point_signature, verify_separation)

from conftest import axis_coords

F = Fraction


def pt(i, color, x, y):
    return ColoredPoint(i, color, F(x), F(y))


def _arcs(pts, lines):
    return cell_arcs(angular_positions(pts), *axis_coords(lines))


class TestCircleParametrization:
    @pytest.mark.parametrize("t,expected", [
        (0, (1, 0)),
        (1, (0, 1)),
        (F(1, 2), (F(3, 5), F(4, 5))),
        (-1, (0, -1)),
    ])
    def test_known_values(self, t, expected):
        assert circle_point_from_parameter(t) == (F(expected[0]), F(expected[1]))

    def test_always_on_circle(self):
        rng = random.Random(7)
        for _ in range(200):
            t = F(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
            x, y = circle_point_from_parameter(t)
            assert x * x + y * y == 1


class TestLineSide:
    def test_vertical(self):
        assert line_side(AxisLine("V", F(1, 2)), pt(0, RED, 1, 0)) == 1

    def test_horizontal(self):
        assert line_side(AxisLine("H", F(0)), pt(0, BLUE, 0, -1)) == -1

    def test_general(self):
        ln = general_line(1, 1, -1)
        assert line_side(ln, pt(0, RED, F(3, 5), F(4, 5))) == 1

    def test_negation_flips_sign(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if (a, b) == (0, 0):
                continue
            c = rng.randint(-9, 9)
            p = pt(0, RED, rng.randint(-5, 5), rng.randint(-5, 5))
            s1 = (a * p.x + b * p.y + c)
            s2 = (-a * p.x - b * p.y - c)
            assert (s1 > 0) == (s2 < 0) and (s1 == 0) == (s2 == 0)

    def test_line_through_canonical(self):
        ln = line_through(F(0), F(1), F(1), F(0))
        assert (ln.a, ln.b, ln.c) == (1, 1, -1)


class TestVerifySeparation:
    def test_same_side_violation(self):
        pts = [pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)]
        assert verify_separation(pts, [general_line(1, 1, F(-9, 8))]) == (0, 1)

    def test_horizontal_separates(self):
        pts = [pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)]
        assert verify_separation(pts, [AxisLine("H", F(1, 2))]) is None

    def test_two_lines_four_points(self, pts4):
        lines = [AxisLine("H", F(1, 2)), AxisLine("H", F(-1, 2))]
        # oracle: all 4 red-blue pairs checked by hand against both lines
        assert verify_separation(pts4, lines) is None

    def test_point_on_line_raises(self):
        pts = [pt(0, RED, 1, 0)]
        with pytest.raises(PointOnLine):
            verify_separation(pts, [AxisLine("H", F(0))])

    def test_earlier_line_named_when_point_on_two(self):
        pts = [pt(0, RED, 2, 3), pt(1, BLUE, F(1, 2), 3)]
        for lines in ([AxisLine("V", F(2)), AxisLine("H", F(3))],
                      [AxisLine("H", F(3)), AxisLine("V", F(2))]):
            with pytest.raises(PointOnLine) as exc:
                verify_separation(pts, lines)
            assert exc.value.point_id == 0 and exc.value.line is lines[0]

    def test_never_calls_line_side(self, monkeypatch, pts4):
        def forbidden(line, p):
            raise AssertionError("line_side called")
        monkeypatch.setattr(geometry, "line_side", forbidden)
        assert verify_separation(pts4, [AxisLine("H", F(1, 2))]) == (0, 3)
        assert verify_separation(
            pts4, [AxisLine("H", F(1, 2)), general_line(1, 1, 0)]) == (2, 3)

    @pytest.mark.parametrize("kind", ["axis", "general", "mixed"])
    def test_matches_fraction_reference(self, kind):
        # lines through points, near misses, duplicates, non-integer and
        # degenerate general lines and empty lists all occur in this sample
        rng = random.Random({"axis": 23, "general": 29, "mixed": 31}[kind])
        raised = 0
        for _ in range(2000):
            pts = _random_points(rng, rng.randint(0, 9))
            lines = _random_lines(rng, pts, kind, rng.randint(0, 6))
            try:
                expected = _fraction_verify(pts, lines)
            except PointOnLine as exc:
                raised += 1
                with pytest.raises(PointOnLine) as got:
                    verify_separation(pts, lines)
                assert got.value.point_id == exc.point_id
                assert got.value.line is exc.line
            else:
                assert verify_separation(pts, lines) == expected
        assert 200 < raised < 1800


class TestCellMap:
    def test_three_cells_all_mono(self, pts4):
        cm = cell_map(pts4, [AxisLine("H", F(1, 2)), AxisLine("H", F(-1, 2))])
        assert len(cm.cells) == 3
        assert not cm.corrupt

    def test_no_lines_one_corrupt_cell(self, pts4):
        cm = cell_map(pts4, [])
        assert len(cm.cells) == 1
        assert len(cm.corrupt) == 1

    def test_mixed_lines(self, pts4):
        cm = cell_map(pts4, [AxisLine("H", F(1, 2)), AxisLine("V", F(-1, 2))])
        sig = CellSignature(0, 1)
        assert sorted(cm.cells[sig]) == [0, 3]  # red (1,0) with blue (0,-1)
        assert sig in cm.corrupt

    def test_sorted_coordinates(self, pts4):
        lines = [AxisLine("V", F(1, 2)), AxisLine("H", F(1, 3)),
                 AxisLine("H", F(-1, 2)), AxisLine("H", F(1, 3))]
        cm = cell_map(pts4, lines)
        assert (cm.hs, cm.vs) == ([F(-1, 2), F(1, 3)], [F(1, 2)])

    def test_earlier_line_named_on_tie(self):
        # (1, 0) lies on x = 1 and on y = 0: the earlier line is named,
        # as verify_separation names it
        pts = [pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)]
        for lines in ([AxisLine("V", F(1)), AxisLine("H", F(0))],
                      [AxisLine("H", F(0)), AxisLine("V", F(1))]):
            with pytest.raises(PointOnLine) as exc:
                cell_map(pts, lines)
            assert exc.value.point_id == 0 and exc.value.line is lines[0]


class TestCellArcs:
    def test_one_secant(self, pts4):
        arcs = _arcs(pts4, [AxisLine("H", F(1, 2))])
        assert sorted(len(v) for v in arcs.values()) == [1, 1]

    def test_central_cell_four_arcs(self, pts4):
        # at +-3/4 the central cell pokes out of the circle at all 4 corners;
        # a central cell of half-width 1/2 would sit entirely inside the disk
        lines = [AxisLine("H", F(3, 4)), AxisLine("H", F(-3, 4)),
                 AxisLine("V", F(3, 4)), AxisLine("V", F(-3, 4))]
        arcs = _arcs(pts4, lines)
        assert len(arcs[CellSignature(1, 1)]) == 4

    def test_inner_cell_has_no_arcs(self, pts4):
        lines = [AxisLine("H", F(1, 2)), AxisLine("H", F(-1, 2)),
                 AxisLine("V", F(1, 2)), AxisLine("V", F(-1, 2))]
        arcs = _arcs(pts4, lines)
        assert CellSignature(1, 1) not in arcs

    def test_arc_points_partition(self, pts4):
        lines = [AxisLine("H", F(1, 3)), AxisLine("V", F(-2, 7))]
        arcs = _arcs(pts4, lines)
        ids = sorted(i for arclist in arcs.values() for a in arclist
                     for i in a.point_ids)
        assert ids == [0, 1, 2, 3]

    def test_arc_count_never_exceeds_four(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = _random_circle_points(rng, rng.randint(1, 8))
            coords = sorted({p.x for p in pts} | {p.y for p in pts})
            lines = []
            for _ in range(rng.randint(0, 5)):
                c = F(rng.randint(-99, 99), 100)
                orient = rng.choice("HV")
                if all(c != (p.y if orient == "H" else p.x) for p in pts):
                    lines.append(AxisLine(orient, c))
            arcs = _arcs(pts, lines)
            for arclist in arcs.values():
                assert len(arclist) <= 4

    def test_signatures_match_cell_map(self):
        rng = random.Random(13)
        for _ in range(60):
            pts = _random_circle_points(rng, rng.randint(1, 8))
            lines = []
            for _ in range(rng.randint(0, 4)):
                c = F(rng.randint(-99, 99), 101)
                orient = rng.choice("HV")
                if all(c != (p.y if orient == "H" else p.x) for p in pts):
                    lines.append(AxisLine(orient, c))
            cm = cell_map(pts, lines)
            arcs = _arcs(pts, lines)
            by_id = {p.id: p for p in pts}
            hs, vs = axis_coords(lines)
            for sig, arclist in arcs.items():
                for a in arclist:
                    for i in a.point_ids:
                        assert point_signature(by_id[i], hs, vs) == sig

    def test_matches_per_arc_scan(self):
        # lines through points, coincident H/V crossings, lines missing the
        # disk and the point (-1, 0) all occur in this sample
        rng = random.Random(17)
        for _ in range(500):
            pts = _random_circle_points(rng, rng.randint(1, 8))
            if rng.random() < 0.3:
                pts.append(ColoredPoint(len(pts), rng.choice([RED, BLUE]),
                                        F(-1), F(0)))
            lines = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.randrange(4)
                if kind == 0:
                    lines.append(AxisLine(rng.choice("HV"),
                                          F(rng.randint(-99, 99), 100)))
                elif kind == 1:
                    p = rng.choice(pts)
                    lines.append(rng.choice([AxisLine("H", p.y),
                                             AxisLine("V", p.x)]))
                elif kind == 2:
                    x, y = circle_point_from_parameter(
                        F(rng.randint(-9, 9), rng.randint(1, 9)))
                    lines += [AxisLine("H", y), AxisLine("V", x)]
                else:
                    lines.append(AxisLine(rng.choice("HV"), rng.choice(
                        [F(1), F(-1), F(3, 2), F(-2)])))
            assert _arcs(pts, lines) == _per_arc_scan(pts, lines)


class TestArcInteriorPoint:
    def test_inside_and_on_circle(self, pts4):
        x, y = arc_interior_point(pts4[0], pts4[1])
        assert x * x + y * y == 1
        assert 0 < x < 1 and 0 < y < 1

    def test_wrapping_arc_through_left(self):
        a = pt(0, RED, 0, 1)
        b = pt(1, BLUE, 0, -1)
        x, y = arc_interior_point(a, b)
        assert x * x + y * y == 1
        assert x < 0

    def test_respects_forbidden(self, pts4):
        x, y = arc_interior_point(pts4[0], pts4[1],
                                  forbidden_x={F(3, 5)}, forbidden_y={F(4, 5)})
        assert x != F(3, 5) and y != F(4, 5)

    def test_endpoint_is_left(self):
        a = pt(0, RED, -1, 0)
        b = pt(1, BLUE, 0, -1)
        x, y = arc_interior_point(a, b)
        assert x * x + y * y == 1
        assert y < 0


def test_pick_coordinate():
    assert F(0) < pick_coordinate(F(0), F(1), {F(1, 2)}) < F(1)
    assert pick_coordinate(F(0), F(1), {F(1, 2)}) != F(1, 2)
    for lo, hi in ((F(2), F(1)), (F(1, 3), F(1, 3))):
        with pytest.raises(GuaranteeViolated, match="empty interval"):
            pick_coordinate(lo, hi, set())


def test_angular_sort(pts4):
    assert [p.id for p in angular_sort(pts4)] == [0, 1, 2, 3]


# The references below place a circle point by the sign of x, the square of
# x and the sign of y, taken from its coordinates (x, y) or, for a crossing
# of the axis line y = c or x = c, from (orient, c); they never read the
# library's angular keys.

def _ref_pos(x, y):
    return (_sgn(x), x * x, _sgn(y))


def _ref_crossing(orient, c, upper):
    """The x > 0 crossing of y = c, or the y > 0 crossing of x = c, if
    `upper`; else the other one."""
    s = 1 if upper else -1
    return (s, 1 - c * c, _sgn(c)) if orient == "H" else (_sgn(c), c * c, s)


def _sgn(v):
    return (v > 0) - (v < 0)


# the quadrant [q*pi/2, (q+1)*pi/2) of each (sign of x, sign of y)
_REF_QUADRANT = {(1, 0): 0, (1, 1): 0, (0, 1): 1, (-1, 1): 1,
                 (-1, 0): 2, (-1, -1): 2, (0, -1): 3, (1, -1): 3}


def _ref_quadrant(a):
    return _REF_QUADRANT[a[0], a[2]]


def _ref_cmp(a, b):
    """Angular comparison by quadrant, then x; the reference for the
    angular keys."""
    qa, qb = _ref_quadrant(a), _ref_quadrant(b)
    if qa != qb:
        return 1 if qa > qb else -1
    if a[0] != b[0]:
        c = 1 if a[0] > b[0] else -1
    elif a[0] == 0 or a[1] == b[1]:
        c = 0
    else:
        c = 1 if (a[1] > b[1]) == (a[0] > 0) else -1
    # in quadrants 0 and 1 the angle grows as x shrinks
    return -c if qa <= 1 else c


def _ref_inside(pos, start, end):
    """`pos` strictly inside the open ccw arc start -> end."""
    def lt(a, b):
        return _ref_cmp(a, b) < 0
    if lt(start, end):
        return lt(start, pos) and lt(pos, end)
    return lt(start, pos) or lt(pos, end)


def _ref_quadrants(start, end):
    if _ref_cmp(start, end) == 0:
        return [0, 1, 2, 3]
    q, qe = _ref_quadrant(start), _ref_quadrant(end)
    qs = [q]
    if q == qe and _ref_cmp(start, end) < 0:
        return qs
    while True:
        q = (q + 1) % 4
        if q not in qs:
            qs.append(q)
        if q == qe:
            return qs


def _key_corpus():
    """(library key, reference position) of the four turning points, 150
    circle points and 150 axis-line crossings."""
    rng = random.Random(5)
    positions = [(geometry.TOP, (0, 0, 1)), (geometry.BOTTOM, (0, 0, -1)),
                 (geometry.LEFT, (-1, 1, 0)), (geometry.RIGHT, (1, 1, 0))]
    for _ in range(150):
        x, y = circle_point_from_parameter(
            F(rng.randint(-30, 30), rng.randint(1, 30)))
        positions.append((geometry._point_key(x, y), _ref_pos(x, y)))
        c = F(rng.randint(-29, 29), 30)
        orient, upper = rng.choice("HV"), rng.random() < 0.5
        positions.append((geometry._crossing_keys(orient, c)[not upper],
                          _ref_crossing(orient, c, upper)))
    return positions


def test_angular_key_matches_reference_order():
    positions = _key_corpus()
    for ka, a in positions:
        assert ka[0] == _ref_quadrant(a)
        for kb, b in positions[::7]:
            ref = _ref_cmp(a, b)
            assert (ka < kb) == (ref < 0)
            assert (ka == kb) == (ref == 0)


def test_arc_predicates_match_reference():
    positions = _key_corpus()
    for ks, s in positions[::5]:
        for ke, e in positions[1::9]:
            assert arc_quadrants(ks, ke) == _ref_quadrants(s, e)
            for kp, p in positions[2::13]:
                assert arc_contains(kp, ks, ke) == _ref_inside(p, s, e)


def _per_arc_scan(points, lines):
    """Reference for cell_arcs: every arc tests every point, all on the
    reference positions; the arcs' ends are the library keys of the
    crossings the reference chose."""
    hs, vs = axis_coords(lines)
    events = []  # (reference position, library key, row step, col step)
    for orient, coords, up, down in (("H", hs, (1, 0), (-1, 0)),
                                     ("V", vs, (0, -1), (0, 1))):
        for c in coords:
            if c * c < 1:
                upper, lower = geometry._crossing_keys(orient, c)
                events.append((_ref_crossing(orient, c, True), upper, *up))
                events.append((_ref_crossing(orient, c, False), lower, *down))
    pts = sorted(points, key=cmp_to_key(
        lambda p, q: _ref_cmp(_ref_pos(p.x, p.y), _ref_pos(q.x, q.y))))
    if not pts:
        return {}
    ref_pos = _ref_pos(pts[0].x, pts[0].y)
    ref_key = geometry._point_key(pts[0].x, pts[0].y)
    ref_sig = CellSignature(sum(1 for c in hs if c < pts[0].y),
                            sum(1 for c in vs if c < pts[0].x))
    if not events:
        return {ref_sig: [Arc(ref_sig, ref_key, ref_key, [p.id for p in pts],
                              {p.color for p in pts})]}
    events.sort(key=cmp_to_key(lambda a, b: _ref_cmp(a[0], b[0])))
    groups = []
    for pos, key, dr, dc in events:
        if groups and _ref_cmp(groups[-1][0], pos) == 0:
            groups[-1][2] += dr
            groups[-1][3] += dc
        else:
            groups.append([pos, key, dr, dc])
    start = next((g for g, grp in enumerate(groups)
                  if _ref_cmp(ref_pos, grp[0]) < 0), 0)
    groups = groups[start:] + groups[:start]
    row, col = ref_sig.row, ref_sig.col
    out = {}
    for g, (pos, key, dr, dc) in enumerate(groups):
        row += dr
        col += dc
        nxt, nxt_key = groups[(g + 1) % len(groups)][:2]
        members = [p for p in pts
                   if _ref_inside(_ref_pos(p.x, p.y), pos, nxt)]
        sig = CellSignature(row, col)
        out.setdefault(sig, []).append(
            Arc(sig, key, nxt_key, [p.id for p in members],
                {p.color for p in members}))
    return out


def _random_circle_points(rng, n):
    ts = set()
    while len(ts) < n:
        ts.add(F(rng.randint(-400, 400), rng.randint(1, 400)))
    pts = []
    for i, t in enumerate(sorted(ts)):
        x, y = circle_point_from_parameter(t)
        pts.append(ColoredPoint(i, rng.choice([RED, BLUE]), x, y))
    return pts


def _fraction_verify(points, lines):
    """Reference for verify_separation: a Fraction sign for every
    point-line pair, cells keyed by the sign vector."""
    groups = {}
    for p in points:
        sig = []
        for ln in lines:
            s = line_side(ln, p)
            if s == 0:
                raise PointOnLine(p.id, ln)
            sig.append(s)
        cell = groups.setdefault(tuple(sig), {})
        if p.color not in cell:
            cell[p.color] = p.id
    for cell in groups.values():
        if RED in cell and BLUE in cell:
            return (cell[RED], cell[BLUE])
    return None


def _random_points(rng, n):
    """Circle points and planar points with small non-integer coordinates;
    coordinates repeat, so lines through one point often meet another."""
    pts = []
    for i in range(n):
        if rng.random() < 0.5:
            x, y = circle_point_from_parameter(
                F(rng.randint(-20, 20), rng.randint(1, 20)))
        else:
            x = F(rng.randint(-6, 6), rng.randint(1, 3))
            y = F(rng.randint(-6, 6), rng.randint(1, 3))
        pts.append(ColoredPoint(i, rng.choice([RED, BLUE]), x, y))
    return pts


def _random_lines(rng, pts, kind, count):
    lines = []
    for _ in range(count):
        general = kind == "general" or (kind == "mixed" and rng.random() < .5)
        # 0: anywhere, 1: through a point, 2: one part in 10^6 off a point,
        # 3: a duplicate of an earlier line (a fresh but equal object)
        how = rng.randrange(4) if pts else 0
        if how == 3 and lines:
            ln = rng.choice(lines)
            lines.append(AxisLine(ln.orient, ln.c) if isinstance(ln, AxisLine)
                         else GeneralLine(2 * ln.a, 2 * ln.b, 2 * ln.c))
            continue
        off = F(rng.choice([-1, 1]), 10**6) if how == 2 else F(0)
        p = rng.choice(pts) if how in (1, 2) else None
        if not general:
            orient = rng.choice("HV")
            if p is None:
                c = F(rng.randint(-12, 12), rng.randint(1, 4))
            else:
                c = (p.y if orient == "H" else p.x) + off
            lines.append(AxisLine(orient, c))
        elif rng.random() < 0.1:
            lines.append(GeneralLine(F(0), F(0), F(rng.randint(-2, 2), 3)))
        else:
            a = F(rng.randint(-5, 5), rng.randint(1, 4))
            b = F(rng.randint(-5, 5), rng.randint(1, 4))
            if a == 0 and b == 0:
                b = F(1, 7)
            c = (F(rng.randint(-9, 9), rng.randint(1, 5)) if p is None
                 else -(a * p.x + b * p.y) + off)
            lines.append(GeneralLine(a, b, c))
    return lines
