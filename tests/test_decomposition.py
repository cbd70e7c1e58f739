import random
from fractions import Fraction

import pytest

from sepline import decomposition
from sepline.decomposition import (build_switch_graph, decompose, faces,
                                   projection_interval)
from sepline.errors import EmptyInstance, PointOffCircle
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, ColoredPoint,
                              circle_point_from_parameter, pick_coordinate)
from sepline.solvers import solve_axis

from conftest import line_stabs_switch

F = Fraction


def pt(i, color, x, y):
    return ColoredPoint(i, color, F(x), F(y))


class TestDecompose:
    def test_pts4(self, pts4):
        dec = decompose(pts4)
        assert dec.w == 4
        assert [c.point_ids for c in dec.chunks] == [[0], [1], [2], [3]]
        assert len(dec.switches) == 4

    def test_two_points(self):
        dec = decompose([pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)])
        assert dec.w == 2
        assert len(dec.switches) == 2

    def test_monochromatic(self):
        pts = [pt(i, RED, *circle_point_from_parameter(F(i, 7)))
               for i in range(5)]
        dec = decompose(pts)
        assert len(dec.chunks) == 1
        assert dec.switches == []
        assert dec.w == 0

    def test_wraparound_chunk(self, diag):
        dec = decompose(diag)
        assert dec.w == 2
        colors = sorted(c.color for c in dec.chunks)
        assert colors == [BLUE, RED]
        assert all(len(c.point_ids) == 4 for c in dec.chunks)

    def test_empty_raises(self):
        with pytest.raises(EmptyInstance):
            decompose([])

    def test_off_circle_raises(self):
        with pytest.raises(PointOffCircle):
            decompose([pt(0, RED, F(1, 2), F(1, 2))])

    def test_repeated_position_raises(self):
        # these 12 positions share their x^2 or y^2 in fours but are
        # distinct; a repeat of any one, last in input order, names both ids
        xys = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
        xys += [(sx * a, sy * b) for a, b in ((F(3, 5), F(4, 5)),
                                              (F(4, 5), F(3, 5)))
                for sx in (1, -1) for sy in (1, -1)]
        pts = [ColoredPoint(i, RED, x, y) for i, (x, y) in enumerate(xys)]
        assert decompose(pts).w == 0
        for p in pts:
            again = ColoredPoint(len(pts), BLUE, p.x, p.y)
            with pytest.raises(ValueError) as exc:
                decompose(pts + [again])
            assert str(exc.value) == (f"points {p.id} and {again.id} share "
                                      f"the position ({p.x}, {p.y})")

    def test_chunk_colors_alternate(self):
        rng = random.Random(5)
        for _ in range(50):
            pts = _random_instance(rng)
            dec = decompose(pts)
            w = len(dec.chunks)
            if w > 1:
                assert w % 2 == 0
                for i in range(w):
                    assert dec.chunks[i].color != dec.chunks[(i + 1) % w].color


class TestProjectionInterval:
    def test_first_quadrant_switch(self, pts4):
        dec = decompose(pts4)
        s1 = dec.switches[0]  # open arc (1,0) -> (0,1)
        itv = projection_interval(s1, "H")
        assert (itv.lo, itv.hi) == (F(0), F(1))
        itv = projection_interval(s1, "V")
        assert (itv.lo, itv.hi) == (F(0), F(1))

    def test_third_quadrant_switch(self, pts4):
        dec = decompose(pts4)
        s3 = dec.switches[2]  # open arc (-1,0) -> (0,-1)
        itv = projection_interval(s3, "V")
        assert (itv.lo, itv.hi) == (F(-1), F(0))

    def test_turning_point_closes_endpoint(self):
        # arc from (3/5,4/5) to (-3/5,4/5) passes through (0,1), which
        # widens hi to 1
        a = pt(0, RED, F(3, 5), F(4, 5))
        b = pt(1, BLUE, F(-3, 5), F(4, 5))
        s = decompose([a, b]).switches[0]
        assert (s.start, s.end) == (a, b)
        itv = projection_interval(s, "H")
        assert (itv.lo, itv.hi) == (F(4, 5), F(1))

    def test_stab(self, pts4):
        dec = decompose(pts4)
        s1 = dec.switches[0]
        assert line_stabs_switch("H", F(1, 2), s1)
        assert not line_stabs_switch("H", F(0), s1)
        assert not line_stabs_switch("H", F(-1, 2), s1)


class TestFaces:
    def test_pts4_horizontal_pair(self, pts4):
        dec = decompose(pts4)
        ann = faces(dec.switches[0], dec.switches[1])
        assert set(ann) == {"H"}

    def test_pts4_opposite_disjoint(self, pts4):
        dec = decompose(pts4)
        assert faces(dec.switches[0], dec.switches[2]) == {}

    def test_diag_isolated(self, diag):
        dec = decompose(diag)
        assert faces(dec.switches[0], dec.switches[1]) == {}

    def test_symmetric(self):
        rng = random.Random(17)
        for _ in range(30):
            pts = _random_instance(rng)
            dec = decompose(pts)
            sw = dec.switches
            for i in range(len(sw)):
                for j in range(i + 1, len(sw)):
                    a = faces(sw[i], sw[j])
                    b = faces(sw[j], sw[i])
                    assert set(a) == set(b)


class TestSwitchGraph:
    def test_pts4_cycle(self, pts4):
        g = build_switch_graph(decompose(pts4))
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert g.orientations(0, 1) == "H"
        assert g.orientations(1, 2) == "V"
        assert g.orientations(2, 3) == "H"
        assert g.orientations(0, 3) == "V"
        assert g.isolated == []
        assert g.kappa == 2

    def test_diag_isolated(self, diag):
        g = build_switch_graph(decompose(diag))
        assert g.edges == {}
        assert g.isolated == [0, 1]
        assert g.kappa == 2

    def test_empty_graph_kappa_w(self):
        # every switch isolated -> kappa equals the number of switches
        g = build_switch_graph(decompose_diag_like())
        assert g.kappa == g.n == len(g.isolated)

    def test_kappa_lower_bound(self):
        rng = random.Random(23)
        for _ in range(60):
            pts = _random_instance(rng)
            dec = decompose(pts)
            if dec.w == 0:
                continue
            g = build_switch_graph(dec)
            assert 2 * g.kappa >= dec.w
            has_pm = (len(g.isolated) == 0
                      and len(g.edge_cover) * 2 == g.n
                      and g.kappa * 2 == g.n)
            if g.kappa * 2 == dec.w:
                assert has_pm

    def test_witness_lines_stab_both_arcs(self):
        rng = random.Random(29)
        instances = ([_random_instance(rng) for _ in range(40)]
                     + [_mirror_instance(rng) for _ in range(40)])
        for pts in instances:
            dec = decompose(pts)
            if dec.w == 0:
                continue
            g = build_switch_graph(dec)
            fx = {p.x for p in pts}
            fy = {p.y for p in pts}
            for (i, j), ann in g.edges.items():
                for orient, itv in ann.items():
                    # a facing overlap is never a single point, so a witness
                    # coordinate off every input coordinate always exists
                    assert itv.lo < itv.hi
                    c = pick_coordinate(itv.lo, itv.hi,
                                        fy if orient == "H" else fx)
                    assert line_stabs_switch(orient, c, dec.switches[i])
                    assert line_stabs_switch(orient, c, dec.switches[j])
            # non-edges: a dense rational sample never stabs both
            sw = dec.switches
            sample = [F(k, 17) for k in range(-16, 17)]
            for i in range(len(sw)):
                for j in range(i + 1, len(sw)):
                    if (i, j) in g.edges:
                        continue
                    for c in sample:
                        for orient in ("H", "V"):
                            assert not (line_stabs_switch(orient, c, sw[i])
                                        and line_stabs_switch(orient, c, sw[j]))


def test_projection_intervals_computed_once_per_switch(monkeypatch):
    calls = []
    original = decomposition.projection_interval

    def counting(switch, orient):
        calls.append((switch.index, orient))
        return original(switch, orient)

    for n, seed in ((32, 9), (15, 1227)):
        pts = gen_circle(n, seed, "random")
        w = decompose(pts).w
        assert w > 0
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(decomposition, "projection_interval", counting)
            solve_axis(pts)
        assert sorted(calls) == [(i, orient) for i in range(w)
                                 for orient in ("H", "V")]


def decompose_diag_like():
    pts = [
        pt(0, BLUE, F(3, 5), F(4, 5)),
        pt(1, BLUE, 0, 1),
        pt(2, BLUE, -1, 0),
        pt(3, BLUE, F(-4, 5), F(-3, 5)),
        pt(4, RED, F(-3, 5), F(-4, 5)),
        pt(5, RED, 0, -1),
        pt(6, RED, 1, 0),
        pt(7, RED, F(4, 5), F(3, 5)),
    ]
    return decompose(pts)


def _mirror_instance(rng):
    """Images (+-x, +-y) of a few first-quadrant points, sometimes with the
    four axis points: every coordinate is shared by two or more points."""
    m = rng.randint(1, 4)
    ts = set()
    while len(ts) < m:
        ts.add(F(rng.randint(1, 299), 300))
    xys = [circle_point_from_parameter(t) for t in sorted(ts)]
    xys = [(sx * x, sy * y) for x, y in xys for sx in (1, -1) for sy in (1, -1)]
    if rng.random() < 0.5:
        xys += [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    return [ColoredPoint(i, rng.choice([RED, BLUE]), x, y)
            for i, (x, y) in enumerate(xys)]


def _random_instance(rng, n=None):
    n = n or rng.randint(2, 10)
    ts = set()
    while len(ts) < n:
        ts.add(F(rng.randint(-300, 300), rng.randint(1, 300)))
    pts = []
    for i, t in enumerate(sorted(ts)):
        x, y = circle_point_from_parameter(t)
        pts.append(ColoredPoint(i, rng.choice([RED, BLUE]), x, y))
    return pts


def _all_pairs_edges(dec):
    """The switch-graph edges by the facing test on every pair of
    switches, in (i, j) order; the reference for the interval sweep."""
    sw = dec.switches
    edges = {}
    for i in range(len(sw)):
        for j in range(i + 1, len(sw)):
            ann = faces(sw[i], sw[j])
            if ann:
                edges[(i, j)] = ann
    return edges


def _sixty_digit_instance(n, seed):
    """Circle points from 30-digit parameters: 60-digit coordinates."""
    rng = random.Random(seed)
    ts = set()
    while len(ts) < n:
        ts.add(F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)))
    pts = [circle_point_from_parameter(t) for t in sorted(ts)]
    return [ColoredPoint(i, rng.choice([RED, BLUE]), x, y)
            for i, (x, y) in enumerate(pts)]


def _sweep_corpus():
    from test_golden import _mirror
    rng = random.Random(31)
    for n, seed in ((20, 1), (80, 2), (160, 3), (300, 4)):
        yield f"random/{n}", gen_circle(n, seed, "random")
    for n in (16, 64, 150):
        yield f"alternating/{n}", gen_circle(n, n, "alternating")
    for n, seed in ((24, 5), (48, 6), (96, 7), (200, 8)):
        yield f"mirror/{n}", _mirror(n, seed)
    for k in range(6):
        yield f"mirror-small/{k}", _mirror_instance(rng)
    for n, seed in ((24, 9), (60, 10)):
        yield f"sixty-digit/{n}", _sixty_digit_instance(n, seed)


@pytest.mark.parametrize("name,pts", list(_sweep_corpus()),
                         ids=[name for name, _ in _sweep_corpus()])
def test_sweep_edges_equal_all_pairs(monkeypatch, name, pts):
    # the sweep decides each pair itself: it calls `faces` on none
    calls = []
    pairwise = decomposition.faces

    def counting(a, b):
        calls.append((a.index, b.index))
        return pairwise(a, b)
    monkeypatch.setattr(decomposition, "faces", counting)
    dec = decompose(pts)
    edges = build_switch_graph(dec).edges
    monkeypatch.undo()
    assert calls == []
    expected = _all_pairs_edges(dec)
    assert list(edges) == list(expected)
    assert edges == expected
