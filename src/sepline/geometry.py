"""Exact-rational planar primitives.

Points, axis-parallel and general lines, side predicates, cell signatures of
axis-parallel arrangements, the candidate axis lines, separation
verification and circular-arc bookkeeping.  Every predicate here is decided with exact rational arithmetic;
there is no floating point anywhere on a computation path.

Order keys.  Sorting, bisecting and comparing coordinates goes through
`order_key(v) = (floor(v * 2**64), v)`, computed once where the value is
created: `ColoredPoint.xk`/`yk` and the line-key lists of `CellMap`; the
switches' projection-interval keys are those of the points and of +-1,
reused.  A key tuple orders exactly like its rational, because the
floor is monotone and values with equal floors fall through to the exact
`Fraction`; so an integer comparison decides all but the comparisons of
values within 2**-64 of each other, and those are decided in `Fraction`
arithmetic as before.

The angular key of a circle position is built from integers alone: a point
x = xn/xd gives x^2 = xn^2/xd^2 and a crossing of the axis line at c = cn/cd
gives (cd^2 - cn^2)/cd^2 or cn^2/cd^2, each already in lowest terms.  The
key holds the floor of the signed x^2 times 2**64 and, as the exact
tie-break, that ratio compared by cross multiplication (`_Ratio`): no
`Fraction` is built or hashed per point or per crossing.  Coordinate sets
on the solve path (`CoordinateSet`) hold (numerator, denominator) pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .errors import GuaranteeViolated, PointOnLine

RED = "R"
BLUE = "B"

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def order_key(v) -> tuple[int, Fraction]:
    """(floor(v * 2**64), v): sorts, bisects and compares exactly like the
    rational (or int) `v`, and mostly in integer arithmetic."""
    return ((v.numerator << 64) // v.denominator, v)


def _sign(x) -> int:
    """Sign of an int or a Fraction, read off its numerator."""
    n = x.numerator
    return (n > 0) - (n < 0)


@dataclass(frozen=True, init=False)
class ColoredPoint:
    id: int
    color: str  # RED or BLUE
    x: Fraction
    y: Fraction
    xk: tuple = field(init=False, compare=False, repr=False)  # order keys
    yk: tuple = field(init=False, compare=False, repr=False)

    def __init__(self, id, color, x, y):
        """Each field is set once; xk and yk are `order_key` of x and y.
        Not through `self.__dict__`: that builds a dict whose attribute
        reads Python 3.11 does not specialize, about 4x slower."""
        set_field = object.__setattr__
        set_field(self, "id", id)
        set_field(self, "color", color)
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "xk", ((x.numerator << 64) // x.denominator, x))
        set_field(self, "yk", ((y.numerator << 64) // y.denominator, y))

    def on_unit_circle(self) -> bool:
        """x^2 + y^2 = 1, as xn^2 yd^2 + yn^2 xd^2 = xd^2 yd^2 in integers."""
        xn2, xd2 = self.x.numerator ** 2, self.x.denominator ** 2
        yn2, yd2 = self.y.numerator ** 2, self.y.denominator ** 2
        return xn2 * yd2 + yn2 * xd2 == xd2 * yd2


@dataclass(frozen=True)
class AxisLine:
    orient: str  # "H" (y = c) or "V" (x = c)
    c: Fraction

    def __str__(self):
        axis = "y" if self.orient == "H" else "x"
        return f"{axis}={self.c}"


@dataclass(frozen=True)
class GeneralLine:
    """Line a*x + b*y + c = 0, stored in canonical integer form."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __str__(self):
        return f"({self.a})x+({self.b})y+({self.c})=0"


Line = Union[AxisLine, GeneralLine]


def general_line(a, b, c) -> GeneralLine:
    """Canonicalize (a, b, c): integer coefficients, gcd 1, positive lead."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    den = lcm(a.denominator, b.denominator, c.denominator)
    return _primitive_line(int(a * den), int(b * den), int(c * den))


def _primitive_line(a: int, b: int, c: int) -> GeneralLine:
    """a*x + b*y + c = 0 divided by gcd(a, b, c), its lead made positive."""
    if a == 0 and b == 0:
        raise ValueError("degenerate line: a = b = 0")
    g = gcd(a, b, c) if (a or b) > 0 else -gcd(a, b, c)
    return GeneralLine(Fraction(a // g), Fraction(b // g), Fraction(c // g))


def line_through(px, py, qx, qy) -> GeneralLine:
    """The unique line through two distinct points, as `general_line` gives
    (qy - py, px - qx, qx*py - px*qy): scaled to integers by the four
    denominators."""
    pxn, pxd, pyn, pyd = (px.numerator, px.denominator,
                          py.numerator, py.denominator)
    qxn, qxd, qyn, qyd = (qx.numerator, qx.denominator,
                          qy.numerator, qy.denominator)
    return _primitive_line((qyn * pyd - pyn * qyd) * pxd * qxd,
                           (pxn * qxd - qxn * pxd) * pyd * qyd,
                           qxn * pyn * pxd * qyd - pxn * qyn * qxd * pyd)


def circle_point_from_parameter(t) -> tuple[Fraction, Fraction]:
    """The rational unit-circle point ((1 - t^2)/(1 + t^2), 2t/(1 + t^2));
    covers everything but (-1, 0).  With t = a/b that is ((b^2 - a^2)/s,
    2ab/s) for s = a^2 + b^2, one gcd per coordinate."""
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    s = a * a + b * b
    return Fraction(b * b - a * a, s), Fraction(2 * a * b, s)


def circle_parameter(x: Fraction, y: Fraction) -> Fraction:
    """Inverse of circle_point_from_parameter, y/(1 + x); undefined at
    (-1, 0)."""
    xn, xd = x.numerator, x.denominator
    if xn == -xd:
        raise ValueError("(-1, 0) has no finite parameter")
    return Fraction(y.numerator * xd, y.denominator * (xd + xn))


def line_side(line: Line, p: ColoredPoint) -> int:
    """-1, 0 or +1: the side of `line` that `p` lies on (0 = on the line)."""
    if isinstance(line, AxisLine):
        v = (p.y if line.orient == "H" else p.x) - line.c
    else:
        v = line.a * p.x + line.b * p.y + line.c
    return _sign(v)


def verify_separation(points, lines) -> Optional[tuple[int, int]]:
    """None if every red-blue pair is split by some line, else one witness
    pair: the first red and the first blue id of the first cell holding both
    colours, cells taken in the order of their first point.

    Raises PointOnLine for the first point, in input order, that lies on a
    line, naming the first such line in `lines`.  Axis lines alone are
    decided by `cell_map`, O(n log L).  Any other list is decided in integer
    arithmetic, O(n L): each line becomes integers (A, B, C), a positive
    multiple of its side expression, so a point x = xn/xd, y = yn/yd has the
    sign of A*xn*yd + B*yn*xd + C*xd*yd.
    """
    if all(isinstance(ln, AxisLine) for ln in lines):
        return cell_map(points, lines).witness()
    forms = [_integer_form(ln) for ln in lines]
    cells = {}
    for p in points:
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        u, v, w = xn * yd, yn * xd, xd * yd
        sides = [a * u + b * v + c * w for a, b, c in forms]
        if 0 in sides:
            raise PointOnLine(p.id, lines[sides.index(0)])
        cells.setdefault(tuple([s > 0 for s in sides]), {}).setdefault(
            p.color, p.id)
    return _first_mixed(cells)


def _first_mixed(cells) -> Optional[tuple[int, int]]:
    """`verify_separation`'s witness, from each cell's colours mapped to
    their first ids, cells in the order of their first point."""
    return next(((c[RED], c[BLUE]) for c in cells.values()
                 if RED in c and BLUE in c), None)


def _integer_form(line: Line) -> tuple[int, int, int]:
    """Integers (A, B, C): A*x + B*y + C is a positive multiple of the
    expression whose sign `line_side` takes."""
    if isinstance(line, AxisLine):
        coeffs = (0, 1, -line.c) if line.orient == "H" else (1, 0, -line.c)
    else:
        coeffs = (line.a, line.b, line.c)
    den = lcm(*(f.denominator for f in coeffs))
    return tuple(f.numerator * (den // f.denominator) for f in coeffs)


class CellSignature(NamedTuple):
    row: int  # index into sorted horizontal-line coordinates
    col: int  # index into sorted vertical-line coordinates


def _sorted_keys(cs) -> list[tuple]:
    """Order keys of the distinct values of `cs`, ascending."""
    ks = sorted(map(order_key, cs))
    return [k for i, k in enumerate(ks) if i == 0 or k != ks[i - 1]]


def axis_keys(lines) -> tuple[list[tuple], list[tuple]]:
    """Order keys of the sorted, deduplicated H and V line coordinates."""
    return (_sorted_keys(ln.c for ln in lines if ln.orient == "H"),
            _sorted_keys(ln.c for ln in lines if ln.orient == "V"))


def axis_candidates(points) -> list[AxisLine]:
    """Lines midway between consecutive distinct point coordinates, the V
    lines first: every axis-parallel line splits the points like one of
    these, or splits none."""
    xs = [k[1] for k in _sorted_keys(p.x for p in points)]
    ys = [k[1] for k in _sorted_keys(p.y for p in points)]
    cands = [AxisLine("V", (a + b) / 2) for a, b in zip(xs, xs[1:])]
    cands += [AxisLine("H", (a + b) / 2) for a, b in zip(ys, ys[1:])]
    return cands


@dataclass
class CellMap:
    hs: list[Fraction]  # sorted, deduplicated horizontal-line coordinates
    vs: list[Fraction]  # the same for vertical lines
    hks: list[tuple]    # their order keys
    vks: list[tuple]
    cell_of: list[CellSignature]  # each point's cell, in input order
    corrupt: set[CellSignature]
    colors: dict[CellSignature, dict[str, int]]  # colour -> its first id,
    # cells in the order of their first point

    def witness(self) -> Optional[tuple[int, int]]:
        """`verify_separation`'s witness for these lines: None if no cell
        is mixed."""
        return _first_mixed(self.colors)


def cell_map(points, lines) -> CellMap:
    """The cell partition of an axis arrangement: every point's cell, cells
    in the order of their first point, and the non-monochromatic ones.

    Raises PointOnLine for the first point, in input order, that lies on a
    line, naming the first such line in `lines`."""
    hks, vks = axis_keys(lines)
    nh, nv = len(hks), len(vks)
    # one signature object per cell, shared by its points in `cell_of`
    first: dict[CellSignature, CellSignature] = {}
    cell_of: list[CellSignature] = []
    colors: dict[CellSignature, dict[str, int]] = {}
    for p in points:
        yk, xk = p.yk, p.xk
        row, col = bisect_left(hks, yk), bisect_left(vks, xk)
        if (row < nh and hks[row] == yk) or (col < nv and vks[col] == xk):
            raise _point_on_line(p, lines)
        sig = CellSignature(row, col)
        sig = first.setdefault(sig, sig)
        cell_of.append(sig)
        colors.setdefault(sig, {}).setdefault(p.color, p.id)
    corrupt = {sig for sig, cols in colors.items() if len(cols) == 2}
    return CellMap([k[1] for k in hks], [k[1] for k in vks], hks, vks,
                   cell_of, corrupt, colors)


def _point_on_line(p: ColoredPoint, lines) -> PointOnLine:
    """The error for point `p` on one of the axis `lines`: it names the
    first line in `lines` through `p`."""
    return PointOnLine(p.id, next(
        ln for ln in lines if ln.c == (p.y if ln.orient == "H" else p.x)))


# --- exact positions on the unit circle ------------------------------------
#
# Cell-arc endpoints are circle crossings of axis lines, whose free coordinate
# is an irrational square root.  A position is therefore its angular key,
# built from the sign of x, x squared and the sign of y; all comparisons
# reduce to rational comparisons.


class _Ratio:
    """The rational n/d, d > 0 and in lowest terms, as the exact tie-break of
    an angular key: built without `Fraction`'s gcd, compared by cross
    multiplication, and reached only when two keys share their quadrant and
    64-bit floor.  Keys are compared only with keys, and never hashed; `>`
    and `>=` fall back to the reflected `<` and `<=`."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d

    def __eq__(self, other):
        return self.n == other.n and self.d == other.d

    def __lt__(self, other):
        return self.n * other.d < other.n * self.d

    def __le__(self, other):
        return self.n * other.d <= other.n * self.d

    def __repr__(self):
        return f"{self.n}/{self.d}"


def _circle_key(sx: int, n2: int, d2: int, sy: int) -> tuple:
    """Angular key of the circle point x = sx*sqrt(n2/d2) whose y has sign
    sy, where n2/d2 >= 0 is in lowest terms.

    Keys order positions by angle in [0, 2*pi), counterclockwise from
    (1, 0): the quadrant, then the floor of v * 2**64 and the exact v, for
    the signed square v = sx*n2/d2, which grows with x, negated in
    quadrants 0 and 1, where the angle grows as x shrinks.
    """
    if sx > 0 and sy >= 0:
        q = 0
    elif sx <= 0 and sy > 0:
        q = 1
    elif sx < 0 and sy <= 0:
        q = 2
    else:
        q = 3
    v = n2 if (sx > 0) == (q >= 2) else -n2
    return (q, (v << 64) // d2, _Ratio(v, d2))


def _point_key(x: Fraction, y: Fraction) -> tuple:
    """x^2 = xn^2/xd^2 is in lowest terms because x is."""
    xn, yn = x.numerator, y.numerator
    return _circle_key((xn > 0) - (xn < 0), xn * xn, x.denominator ** 2,
                       (yn > 0) - (yn < 0))


def _crossing_keys(orient: str, c: Fraction) -> tuple[tuple, tuple]:
    """Angular keys of the two circle crossings of the axis line with
    |c| < 1: for "H" (y = c) the x > 0 crossing first, for "V" (x = c) the
    y > 0 one.  With c = cn/cd, x^2 is (cd^2 - cn^2)/cd^2 or cn^2/cd^2, both
    in lowest terms: a prime dividing cd^2 divides neither cn^2 nor
    cd^2 - cn^2."""
    cn, cd = c.numerator, c.denominator
    c2, d2, s = cn * cn, cd * cd, (cn > 0) - (cn < 0)
    if orient == "H":
        return _circle_key(1, d2 - c2, d2, s), _circle_key(-1, d2 - c2, d2, s)
    return _circle_key(s, c2, d2, 1), _circle_key(s, c2, d2, -1)


TOP = _circle_key(0, 0, 1, 1)
BOTTOM = _circle_key(0, 0, 1, -1)
LEFT = _circle_key(-1, 1, 1, 0)
RIGHT = _circle_key(1, 1, 1, 0)


def arc_contains(pos: tuple, start: tuple, end: tuple) -> bool:
    """True iff the position `pos` lies strictly inside the open ccw arc
    from start to end.

    Equal endpoints denote the full circle minus that single point.
    """
    if start < end:
        return start < pos < end
    return start < pos or pos < end


def arc_quadrants(start: tuple, end: tuple) -> list[int]:
    """Quadrants met going ccw from start to end (whole circle if equal)."""
    if start == end:
        return [0, 1, 2, 3]
    q = start[0]
    n = (end[0] - q) % 4 + 1
    if n == 1 and end < start:
        n = 4  # the arc leaves its quadrant and comes round into it
    return [(q + i) % 4 for i in range(n)]


@dataclass
class Arc:
    """A maximal circular arc interior to one arrangement cell."""

    signature: CellSignature
    start: tuple  # angular keys of its ends
    end: tuple
    members: range  # the indices, in the circle order, of the points
    # strictly inside it, ccw; the arc through angle 0 starts below 0, at
    # the negative list index of its first point


def angular_sort(points: list[ColoredPoint]) -> tuple[list[ColoredPoint],
                                                      list[tuple]]:
    """Circle points by ccw angle from the (1, 0) direction, and their
    angular keys, each built once.  The sort is stable: equal keys stay
    next to each other in input order."""
    keys = [_point_key(p.x, p.y) for p in points]
    by_angle = sorted(range(len(points)), key=keys.__getitem__)
    return [points[i] for i in by_angle], [keys[i] for i in by_angle]


def cell_arcs(order, hks, vks) -> dict[CellSignature, list[Arc]]:
    """Maximal circle arcs per arrangement cell, computed combinatorially.

    `order` is a `decomposition.CircleOrder` (at least one point); `hks`
    and `vks` are the order keys of the sorted, deduplicated line
    coordinates, as `axis_keys` or `CellMap` hold them.  Lines with
    |coordinate| >= 1 miss the open unit disk and contribute no crossings.
    Walks the crossings once, flipping one index of the cell signature at
    every crossing event; coincident crossings (one horizontal plus one
    vertical line meeting on the circle) are folded into one event.  An
    arc's members are bisected from the order's keys: O(L log L + L log n).
    """
    crossings: list[tuple[tuple, int, int]] = []
    for _, c in hks:
        if abs(c.numerator) < c.denominator:
            # ccw through the x > 0 crossing: y increases, so row + 1
            right, left = _crossing_keys("H", c)
            crossings += [(right, 1, 0), (left, -1, 0)]
    for _, c in vks:
        if abs(c.numerator) < c.denominator:
            # ccw through the y > 0 crossing: x decreases, so col - 1
            upper, lower = _crossing_keys("V", c)
            crossings += [(upper, 0, -1), (lower, 0, 1)]

    keys, ref = order.keys, order.points[0]
    n, ref_pos = len(keys), keys[0]
    ref_sig = CellSignature(bisect_left(hks, ref.yk), bisect_left(vks, ref.xk))

    if not crossings:
        return {ref_sig: [Arc(ref_sig, ref_pos, ref_pos, range(n))]}

    crossings.sort(key=lambda t: t[0])
    groups: list[list] = []
    for pos, dr, dc in crossings:
        if groups and groups[-1][0] == pos:
            groups[-1][1] += dr
            groups[-1][2] += dc
        else:
            groups.append([pos, dr, dc])

    # the arc from group g to the next holds the points from the first
    # after g to the last before the next (a point on a crossing is in no
    # arc); the arc from the last group wraps past angle 0
    gkeys = [grp[0] for grp in groups]
    after = [bisect_right(keys, k) for k in gkeys]
    before = [bisect_left(keys, k) for k in gkeys]

    # the walk starts at the first crossing after the reference point
    start = bisect_right(gkeys, ref_pos) % len(groups)
    row, col = ref_sig
    result: dict[CellSignature, list[Arc]] = {}
    for g in (*range(start, len(groups)), *range(start)):
        pos, dr, dc = groups[g]
        row += dr
        col += dc
        sig = CellSignature(row, col)
        nxt = (g + 1) % len(groups)
        members = range(after[g] - (n if nxt == 0 else 0), before[nxt])
        result.setdefault(sig, []).append(Arc(sig, pos, gkeys[nxt], members))
    if (row, col) != ref_sig:
        raise GuaranteeViolated("circle walk did not close")
    return result


def arc_interior_point(order, i: int, forbidden_x=(),
                       forbidden_y=()) -> tuple[Fraction, Fraction]:
    """A rational circle point strictly inside the gap after point i of
    the `decomposition.CircleOrder` `order`: the open ccw arc from point i
    to the next (all of the circle but point i if it is the only one).
    Both coordinates lie outside the given forbidden containers (tested
    for membership, not copied).  The candidates are infinitely many
    distinct circle points and a coordinate value is shared by at most two
    of them, so finite forbidden sets end the search."""
    j = (i + 1) % len(order.keys)
    candidates = _arc_parameter_candidates(order.keys[i], order.points[i],
                                           order.keys[j], order.points[j])
    return next((x, y) for x, y in map(circle_point_from_parameter,
                                       candidates)
                if x not in forbidden_x and y not in forbidden_y)


def _arc_parameter_candidates(ka, start, kb, end):
    if ka == LEFT:
        tb = circle_parameter(end.x, end.y)
        for j in count():
            yield tb - (1 + j if j < 4 else Fraction(1, 2 ** j))
    elif kb == LEFT:
        ta = circle_parameter(start.x, start.y)
        for j in count():
            yield ta + (1 + j if j < 4 else Fraction(1, 2 ** j))
    elif arc_contains(LEFT, ka, kb):
        ta = circle_parameter(start.x, start.y)
        tb = circle_parameter(end.x, end.y)
        for j in count(1):
            yield ta + Fraction(1, 2 ** j)
            yield tb - Fraction(1, 2 ** j)
    else:
        ta = circle_parameter(start.x, start.y)
        tb = circle_parameter(end.x, end.y)
        if tb <= ta:
            raise GuaranteeViolated("arc endpoints out of ccw order")
        yield from _rationals_between(ta, tb)


def _rationals_between(lo: Fraction, hi: Fraction):
    """lo + (hi - lo) * num/den for den = 2, 3, ... and 0 < num < den:
    infinitely many distinct rationals in the open interval (lo, hi).  With
    lo = a/b and hi = c/e that is (a*e*den + (c*b - a*e)*num) / (b*e*den),
    one `Fraction` per candidate."""
    a, b, c, e = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    base, span, d = a * e, c * b - a * e, b * e
    for den in count(2):
        for num in range(1, den):
            yield Fraction(base * den + span * num, d * den)


class CoordinateSet:
    """A set of rationals held as (numerator, denominator) pairs: adding a
    value or testing one hashes two ints, not a `Fraction` (whose hash
    takes a modular inverse)."""

    __slots__ = ("pairs",)

    def __init__(self, values=()):
        self.pairs = {(v.numerator, v.denominator) for v in values}

    def __contains__(self, v) -> bool:
        return (v.numerator, v.denominator) in self.pairs

    def add(self, v) -> None:
        self.pairs.add((v.numerator, v.denominator))


def pick_coordinate(lo: Fraction, hi: Fraction, forbidden) -> Fraction:
    """A rational in the open interval (lo, hi) that is not in the finite
    `forbidden` (any container; it is not copied).  Raises
    GuaranteeViolated if the interval is empty."""
    if lo >= hi:
        raise GuaranteeViolated("no coordinate in the empty interval "
                                f"({lo}, {hi})")
    return next(c for c in _rationals_between(lo, hi) if c not in forbidden)
