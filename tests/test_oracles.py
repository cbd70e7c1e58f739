import random
from fractions import Fraction

import pytest

from sepline.errors import TooLarge
from sepline.geometry import (BLUE, RED, AxisLine, ColoredPoint,
                              circle_point_from_parameter, verify_separation)
from sepline.oracles import (axis_candidates, colorful_rbds_solve,
                             feasible_pq, full_mask, general_candidates,
                             min_axis_separation,
                             min_general_separation_circle, sep_bitset)
from sepline.reduction import CRBDS

F = Fraction


def pt(i, color, x, y):
    return ColoredPoint(i, color, F(x), F(y))


def _random_circle_instance(rng, n):
    ts = set()
    while len(ts) < n:
        ts.add(F(rng.randint(-200, 200), rng.randint(1, 200)))
    return [ColoredPoint(i, rng.choice([RED, BLUE]),
                         *circle_point_from_parameter(t))
            for i, t in enumerate(sorted(ts))]


class TestMinAxis:
    def test_pts4(self, pts4):
        k, lines = min_axis_separation(pts4)
        assert k == 2
        assert verify_separation(pts4, lines) is None

    def test_single_pair(self):
        pts = [pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)]
        k, lines = min_axis_separation(pts)
        assert k == 1

    def test_diag(self, diag):
        k, lines = min_axis_separation(diag)
        assert k == 2
        assert verify_separation(diag, lines) is None

    def test_monochromatic(self):
        pts = [pt(0, RED, 1, 0), pt(1, RED, 0, 1)]
        assert min_axis_separation(pts) == (0, [])

    def test_too_large(self):
        pts = [pt(i, RED, 0, 0) for i in range(20)]
        with pytest.raises(TooLarge):
            min_axis_separation(pts)

    def test_witness_always_separates(self):
        rng = random.Random(41)
        for _ in range(30):
            pts = _random_circle_instance(rng, rng.randint(2, 9))
            k, lines = min_axis_separation(pts)
            assert len(lines) == k
            assert verify_separation(pts, lines) is None


class TestMinGeneral:
    def test_pts4(self, pts4):
        k, lines = min_general_separation_circle(pts4)
        assert k == 2
        assert verify_separation(pts4, lines) is None

    def test_single_pair(self):
        pts = [pt(0, RED, 1, 0), pt(1, BLUE, 0, 1)]
        assert min_general_separation_circle(pts)[0] == 1

    def test_w_half_lower_bound(self):
        rng = random.Random(43)
        from sepline.decomposition import decompose
        for _ in range(25):
            pts = _random_circle_instance(rng, rng.randint(2, 8))
            k, lines = min_general_separation_circle(pts)
            assert 2 * k >= decompose(pts).w
            assert verify_separation(pts, lines) is None


class TestFeasiblePQ:
    def test_pts4_budgets(self, pts4):
        assert feasible_pq(pts4, 2, 0) is not None
        assert feasible_pq(pts4, 0, 2) is not None
        assert feasible_pq(pts4, 1, 0) is None
        # one line of each orientation cannot work: the leftover blue always
        # shares a cell with one red
        assert feasible_pq(pts4, 1, 1) is None
        assert feasible_pq(pts4, 2, 2) is not None

    def test_witness_respects_budgets(self, pts4):
        lines = feasible_pq(pts4, 2, 0)
        assert all(ln.orient == "H" for ln in lines)
        assert verify_separation(pts4, lines) is None

    def test_monotone(self):
        rng = random.Random(47)
        for _ in range(15):
            pts = _random_circle_instance(rng, rng.randint(2, 7))
            table = {(p, q): feasible_pq(pts, p, q) is not None
                     for p in range(4) for q in range(4)}
            for p in range(3):
                for q in range(3):
                    if table[(p, q)]:
                        assert table[(p + 1, q)] and table[(p, q + 1)]


class TestDiscretization:
    def test_axis_lines_snap_to_candidates(self):
        rng = random.Random(53)
        for _ in range(60):
            pts = _random_circle_instance(rng, rng.randint(2, 8))
            cands = axis_candidates(pts)
            for _ in range(20):
                orient = rng.choice("HV")
                c = F(rng.randint(-150, 150), 151)
                coords = sorted({p.y if orient == "H" else p.x for p in pts})
                if c in coords:
                    continue
                line = AxisLine(orient, c)
                bits = sep_bitset(pts, [line])
                if c < coords[0] or c > coords[-1]:
                    assert bits == 0
                    continue
                # snap to the candidate in the same coordinate gap
                twin = next(t for t in cands if t.orient == orient
                            and _same_gap(t.c, c, coords))
                assert sep_bitset(pts, [twin]) == bits

    def test_general_candidate_count(self, pts4):
        assert len(general_candidates(pts4)) == 6

    def test_full_mask(self, pts4):
        assert full_mask(pts4) == 0b1111


def _same_gap(a, b, coords):
    import bisect
    return bisect.bisect_left(coords, a) == bisect.bisect_left(coords, b)


class TestCRBDS:
    def toy(self):
        return CRBDS(classes=[["u1", "u2"], ["u3", "u4"]],
                     blues=["v1", "v2"],
                     edges={("u1", "v1"), ("u3", "v1"), ("u2", "v2"), ("u3", "v2")})

    def test_toy_solution(self):
        assert colorful_rbds_solve(self.toy()) == ["u1", "u3"]

    def test_single_edge(self):
        inst = CRBDS([["u"]], ["v"], {("u", "v")})
        assert colorful_rbds_solve(inst) == ["u"]

    def test_no_edges(self):
        inst = CRBDS([["u"]], ["v"], set())
        assert colorful_rbds_solve(inst) is None

    def test_all_selections_checked(self):
        inst = CRBDS(classes=[["a", "b"], ["c", "d"]], blues=["v"],
                     edges={("d", "v")})
        assert colorful_rbds_solve(inst) == ["a", "d"]

    def test_bound(self):
        inst = CRBDS([["x"] * 200] * 3, ["v"], set())
        with pytest.raises(TooLarge):
            colorful_rbds_solve(inst, bound=100)
