"""`geometry.order_key` orders exactly like the rationals it keys, also
where the integer part of the key cannot tell two values apart, and the
solve path keyed by it decides the same cells as plain `Fraction`
comparisons on a near-tie corpus whose coordinates share their first 64
bits.  The angular keys, built from integers, order like the reference
positions of `test_geometry` on circle points and crossings whose signed
x^2 share their first 64 bits."""

import dataclasses
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from sepline.decomposition import build_switch_graph, decompose
from sepline.errors import PointOnLine
from sepline.geometry import (BLUE, RED, AxisLine, ColoredPoint,
                              _crossing_keys, _point_key, cell_map,
                              circle_point_from_parameter, order_key,
                              verify_separation)
from sepline.oracles import min_axis_separation
from sepline.solvers import build_L0, solve_axis

from conftest import axis_coords

F = Fraction


def _agree(a, b):
    ka, kb = order_key(a), order_key(b)
    assert (ka < kb) == (a < b)
    assert (ka <= kb) == (a <= b)
    assert (ka == kb) == (a == b)
    assert (ka != kb) == (a != b)
    assert (ka > kb) == (a > b)
    assert (ka >= kb) == (a >= b)


class TestOrderKey:
    @pytest.mark.parametrize("a, b", [
        (F(1, 2**70), F(1, 2**71)),
        (F(-1, 2**70), F(-1, 2**71)),
        (F(3, 7), F(3, 7) + F(1, 2**80)),
        (F(-5, 3), F(-5, 3) - F(1, 2**90)),
        (F(1, 2**70), F(1, 2**70)),
    ])
    def test_shared_floor(self, a, b):
        assert order_key(a)[0] == order_key(b)[0]
        _agree(a, b)
        _agree(b, a)

    @pytest.mark.parametrize("a, b", [
        (F(-1, 2**70), 0),
        (F(-1, 2**70), F(1, 2**70)),
        (F(-1, 2**64), F(-1, 2**64 + 1)),
        (F(-7, 2), F(-3)),
        (F(-1), F(-1, 2**64) - 1),
    ])
    def test_negative_values_floor_toward_minus_infinity(self, a, b):
        _agree(a, b)
        _agree(b, a)

    def test_floor_of_a_negative_value(self):
        assert order_key(F(-1, 2**70))[0] == -1
        assert order_key(F(-1, 2**64))[0] == -1
        assert order_key(F(-3, 2**65))[0] == -2

    def test_ints_and_fractions_key_alike(self):
        for v in (0, 1, -1, 5, -2**70, 10**60):
            assert order_key(v) == order_key(F(v))
            assert order_key(v)[0] == v << 64
        _agree(1, F(1) - F(1, 2**80))
        _agree(-2, F(-2) + F(1, 2**80))

    def test_sixty_digit_denominators(self):
        rng = random.Random(601)
        for _ in range(300):
            d1, d2 = rng.randrange(10**59, 10**60), rng.randrange(10**59, 10**60)
            a = F(rng.randrange(-d1, d1), d1)
            near = a + F(rng.choice((-1, 1)), d2)
            _agree(a, F(rng.randrange(-d2, d2), d2))
            _agree(a, near)
            _agree(near, a)

    @staticmethod
    def _values(rng, size):
        """Rationals in [0, 2) that often share a 64-bit floor (clusters of
        values within 2**-70 of each other), repeats and ints in [-2, 2]."""
        out = []
        while len(out) < size:
            base = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            base -= 2 * (base.numerator // base.denominator // 2)  # into [0, 2)
            out.append(base)
            for _ in range(rng.randint(0, 3)):
                out.append(base + F(rng.randint(-8, 8), 2**rng.randint(70, 200)))
            if rng.random() < 0.1:
                out.append(rng.choice(out))
            if rng.random() < 0.05:
                out.append(F(rng.randint(-2, 2)))
        return out

    def test_sort_and_bisect_match_fractions(self):
        rng = random.Random(1701)
        shared = 0
        for _ in range(40):
            vals = sorted(self._values(rng, rng.randint(1, 60)))
            keys = sorted(map(order_key, vals))
            assert [k[1] for k in keys] == vals
            shared += sum(1 for k, nxt in zip(keys, keys[1:])
                          if k[0] == nxt[0] and k[1] != nxt[1])
            for q in self._values(rng, 40) + vals:
                qk = order_key(q)
                assert bisect_left(keys, qk) == bisect_left(vals, q)
                assert bisect_right(keys, qk) == bisect_right(vals, q)
        assert shared > 100  # the fall-through to Fraction was exercised


# --- the near-tie corpus ------------------------------------------------------

EPS = F(1, 2**80)


def near_tie_instance(pairs: int, seed: int) -> list[ColoredPoint]:
    """Points at circle parameters t and t + 2**-80, of opposite colours, for
    `pairs` random rationals t: the coordinates of each pair agree in their
    first 64 bits, and so do the lines placed in the switch between them."""
    rng = random.Random(seed)
    ts: set = set()
    while len(ts) < pairs:
        ts.add(F(rng.randint(-40, 40), rng.randint(1, 12)))
    pts = []
    for t in sorted(ts):
        first = rng.choice((RED, BLUE))
        second = BLUE if first == RED else RED
        for tt, color in ((t, first), (t + EPS, second)):
            x, y = circle_point_from_parameter(tt)
            pts.append(ColoredPoint(len(pts), color, x, y))
    rng.shuffle(pts)
    return [ColoredPoint(i, p.color, p.x, p.y) for i, p in enumerate(pts)]


NEAR_TIE = [(pairs, seed) for pairs in (2, 3, 4, 5, 6) for seed in range(4)] \
    + [(pairs, seed) for pairs in (12, 20, 40) for seed in range(2)]


def _shared_floors(values, keys) -> int:
    """Pairs of a value and its neighbouring key that share the 64-bit
    floor but differ in value."""
    count = 0
    for v in values:
        vk = order_key(v)
        i = bisect_left(keys, vk)
        for k in keys[max(i - 1, 0):i + 1]:
            count += k[0] == vk[0] and k[1] != v
    return count


def _plain_cells(points, lines):
    hs = sorted({ln.c for ln in lines if ln.orient == "H"})
    vs = sorted({ln.c for ln in lines if ln.orient == "V"})
    return {p.id: (bisect_left(hs, p.y), bisect_left(vs, p.x)) for p in points}


@pytest.mark.parametrize("pairs, seed", NEAR_TIE,
                         ids=[f"pairs{p}-seed{s}" for p, s in NEAR_TIE])
def test_near_tie_corpus(pairs, seed):
    pts = near_tie_instance(pairs, seed)
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    xks, yks = [order_key(v) for v in xs], [order_key(v) for v in ys]
    # the coordinates of the two points of a pair share their floor
    ties = sum(1 for ks in (xks, yks) for a, b in zip(ks, ks[1:])
               if a[0] == b[0] and a[1] != b[1])
    assert ties > 0

    sol = solve_axis(pts)
    assert verify_separation(pts, sol.lines) is None
    if len(pts) <= 12:
        assert sol.size == min_axis_separation(pts)[0]

    dec = decompose(pts)
    arrangements = [sol.lines, build_L0(dec, build_switch_graph(dec)).lines]
    line_ties = 0
    for lines in arrangements:
        cm = cell_map(pts, lines)
        plain = _plain_cells(pts, lines)
        assert {i: sig for sig, ids in cm.cells.items() for i in ids} == plain
        assert (cm.hs, cm.vs) == axis_coords(lines)
        line_ties += _shared_floors([p.y for p in pts], cm.hks)
        line_ties += _shared_floors([p.x for p in pts], cm.vks)
    # the lines in the switches between the pairs share floors with points
    assert line_ties > 0


def test_near_tie_lines_on_points_are_found():
    """A line through a point, between lines whose coordinates share its
    64-bit floor, still raises for the point and line a plain comparison
    finds first."""
    pts = near_tie_instance(4, 7)
    for p in pts:
        lines = [AxisLine("V", p.x + EPS / 2), AxisLine("H", p.y - EPS / 2),
                 AxisLine("V", p.x), AxisLine("H", p.y)]
        on = [(q, ln) for q in pts for ln in lines
              if ln.c == (q.y if ln.orient == "H" else q.x)]
        with pytest.raises(PointOnLine) as err:
            cell_map(pts, lines)
        assert (err.value.point_id, err.value.line) == (on[0][0].id, on[0][1])


def _near_tie_positions():
    """(angular key, reference position, kind) of the points of a few
    near-tie instances and of the crossings of axis lines through each
    point's coordinates and 2**-81 to either side of them."""
    from test_geometry import _ref_crossing, _ref_pos
    out = []
    for pairs, seed in NEAR_TIE[:8]:
        for p in near_tie_instance(pairs, seed):
            out.append((_point_key(p.x, p.y), _ref_pos(p.x, p.y), "point"))
            for orient, v in (("V", p.x), ("H", p.y)):
                for c in (v - EPS / 2, v, v + EPS / 2):
                    if abs(c) < 1:
                        upper, lower = _crossing_keys(orient, c)
                        out.append((upper, _ref_crossing(orient, c, True),
                                    "crossing"))
                        out.append((lower, _ref_crossing(orient, c, False),
                                    "crossing"))
    return out


def test_circle_key_near_ties():
    from test_geometry import _ref_cmp, _ref_quadrant
    positions = _near_tie_positions()
    ties = {("point", "point"): 0, ("crossing", "point"): 0}
    equal = 0
    for ka, a, kind_a in positions:
        assert ka[0] == _ref_quadrant(a)
        for kb, b, kind_b in positions:
            ref = _ref_cmp(a, b)
            assert (ka < kb) == (ref < 0)
            assert (ka == kb) == (ref == 0)
            assert (ka > kb) == (ref > 0)
            if ka[:2] == kb[:2]:
                # the floors tie: the exact ratio decides
                kinds = tuple(sorted((kind_a, kind_b)))
                if ref and kinds in ties:
                    ties[kinds] += 1
                equal += not ref
    # point pairs and point/crossing pairs whose signed x^2 share their
    # floor occur, and so do crossings exactly at a point
    assert min(ties.values()) > 0
    assert equal > len(positions)


@dataclasses.dataclass(frozen=True)
class _PostInitPoint:
    """`ColoredPoint` as a generated `__init__` and `__post_init__` build
    it: the behaviour its explicit `__init__` must keep."""
    id: int
    color: str
    x: Fraction
    y: Fraction
    xk: tuple = dataclasses.field(init=False, compare=False, repr=False)
    yk: tuple = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "xk", order_key(self.x))
        object.__setattr__(self, "yk", order_key(self.y))


_POINTS = [(0, RED, F(1, 3), F(-2, 7)), (5, BLUE, F(-10**60, 3), F(0)),
           (2, RED, 3, -4), (7, BLUE, F(-1, 2**70), F(2**70 + 1, 2**70))]


class TestColoredPoint:
    @pytest.mark.parametrize("fields", _POINTS)
    def test_keys_are_order_keys(self, fields):
        p = ColoredPoint(*fields)
        assert p.xk == order_key(p.x) and p.yk == order_key(p.y)

    @pytest.mark.parametrize("fields", _POINTS)
    def test_behaves_as_the_generated_dataclass(self, fields):
        p, ref = ColoredPoint(*fields), _PostInitPoint(*fields)
        assert repr(p) == repr(ref).replace("_PostInitPoint", "ColoredPoint")
        assert vars(p) == vars(ref)
        assert hash(p) == hash(ref) == hash(ColoredPoint(*fields))
        assert p == ColoredPoint(*fields)
        assert p != ColoredPoint(fields[0] + 1, *fields[1:])
        assert p != ref  # another class
        assert [f.name for f in dataclasses.fields(p)] == \
            ["id", "color", "x", "y", "xk", "yk"]

    def test_keyword_arguments_and_replace(self):
        p = ColoredPoint(id=3, color=RED, x=F(1, 2), y=F(5))
        q = dataclasses.replace(p, x=F(-7, 3))
        assert (q.id, q.color, q.x, q.y) == (3, RED, F(-7, 3), F(5))
        assert q.xk == order_key(F(-7, 3)) and q.yk == p.yk
        with pytest.raises(ValueError):
            dataclasses.replace(p, xk=order_key(F(0)))

    def test_assignment_raises(self):
        p = ColoredPoint(0, RED, F(1), F(2))
        for name, value in (("x", F(3)), ("xk", order_key(F(3))),
                            ("color", BLUE)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.y
        assert (p.x, p.color, p.y) == (F(1), RED, F(2))
