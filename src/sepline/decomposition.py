"""Angular decomposition of a circle instance.

A circle instance is one `CircleOrder`: its points sorted by angular key,
their keys and their colours.  `circle_order` builds it and is the only
place where circle input is validated.  Everything else is an index into
that order.  A switch is the index i of the last point of a maximal
monochromatic run (a chunk): the open arc from point i to point i + 1,
cyclically.  Chunk k runs from switch k - 1 to switch k.  The facing
relation between switches and the switch graph, whose structure determines
the optimal number of axis-parallel lines, are built from each switch's
projection intervals, kept as flat lists of order keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import NamedTuple

from . import matching
from .errors import EmptyInstance, PointOffCircle
from .geometry import (BOTTOM, LEFT, MINUS_ONE, ONE, RIGHT, TOP, ColoredPoint,
                       angular_sort, arc_contains, order_key)

# the keys of the ends -1 and 1 that a switch arc through a turning point
# widens its projection to
_LOW, _HIGH = order_key(MINUS_ONE), order_key(ONE)


class CircleOrder(NamedTuple):
    """A circle instance by counterclockwise angle from (1, 0), as
    `circle_order` builds it: the points, their angular keys, strictly
    increasing, and their colours as one string, all indexed by position
    in this order."""

    points: list[ColoredPoint]
    keys: list[tuple]
    colors: str


def circle_order(points) -> CircleOrder:
    """The angular order of a circle instance, each point keyed once.

    Raises EmptyInstance without points, PointOffCircle for the first
    point, in input order, off the unit circle, and ValueError naming the
    two ids of a repeated position."""
    points = list(points)
    if not points:
        raise EmptyInstance("a circle instance needs at least one point")
    for p in points:
        if not p.on_unit_circle():
            raise PointOffCircle(p.id)
    points, keys = angular_sort(points)
    # on the circle a key's quadrant and x^2 fix the position, and the
    # sort puts equal keys next to each other in input order
    if not all(map(lt, keys, keys[1:])):
        i = next(i for i in range(len(keys) - 1) if keys[i] == keys[i + 1])
        a, b = points[i], points[i + 1]
        raise ValueError(f"points {a.id} and {b.id} share the position "
                         f"({a.x}, {a.y})")
    return CircleOrder(points, keys, "".join([p.color for p in points]))


@dataclass
class CircleDecomposition:
    order: CircleOrder
    switches: list[int]  # switch k: the index of the last point of chunk k

    @property
    def w(self) -> int:
        return len(self.switches)

    def chunk(self, k: int) -> range:
        """The order indices of chunk k, the run that switch k ends.  The
        run through angle 0 starts below 0, at the negative list index of
        its first point; without switches the one chunk is every point."""
        sw, n = self.switches, len(self.order.keys)
        if not sw:
            return range(n)
        return range(sw[k - 1] + 1 - (n if k == 0 else 0), sw[k] + 1)


def decompose(points) -> CircleDecomposition:
    """The circle order of `points` and its switches, ascending; chunk 0
    is the run holding point 0 of the order."""
    order = circle_order(points)
    c = order.colors
    return CircleDecomposition(order, [i for i, (a, b) in enumerate(
        zip(c, c[1:] + c[0])) if a != b])


def projection_interval(order: CircleOrder, i: int,
                        orient: str) -> tuple[tuple, tuple]:
    """The order keys (lo, hi) of the image of the open arc from point i to
    the next point of `order` under the Y projection for `orient` "H", the
    X projection for "V"; an end widens to -1 or 1 when the arc passes that
    turning point.  Whether an end at +-1 is attained never matters: every
    line built here has |c| < 1."""
    j = (i + 1) % len(order.keys)
    a, b = order.keys[i], order.keys[j]
    start, end = order.points[i], order.points[j]
    if orient == "H":
        ka, kb, top, bottom = start.yk, end.yk, TOP, BOTTOM
    else:
        ka, kb, top, bottom = start.xk, end.xk, RIGHT, LEFT
    return (_LOW if arc_contains(bottom, a, b) else min(ka, kb),
            _HIGH if arc_contains(top, a, b) else max(ka, kb))


def faces(order: CircleOrder, i: int, j: int) -> dict[str, tuple]:
    """Feasible stabbing orientations for the switches at order indices i
    and j, each with the order keys (lo, hi) of the overlap of their
    projection intervals.  A nonempty overlap has lo < hi, so it holds a
    coordinate avoiding every input-point coordinate.  The pairwise
    reference for the sweep in `build_switch_graph`."""
    out = {}
    for orient in ("H", "V"):
        (alo, ahi), (blo, bhi) = (projection_interval(order, s, orient)
                                  for s in (i, j))
        lok, hik = max(alo, blo), min(ahi, bhi)
        if lok < hik:
            out[orient] = (lok, hik)
    return out


@dataclass
class SwitchGraph:
    n: int                               # number of switches
    edges: dict[tuple[int, int], str]    # (i, j), i < j -> "H", "V" or "HV"
    isolated: list[int]
    kappa: int
    edge_cover: list[tuple[int, int]]
    lo: dict[str, list[tuple]]  # "H" or "V" -> by switch index, the order
    hi: dict[str, list[tuple]]  # keys of its projection interval's ends


def build_switch_graph(dec: CircleDecomposition) -> SwitchGraph:
    """The nice-pair graph over switches, with kappa = |I| + MEC(H).

    Each switch's two projection intervals are built here and kept on the
    graph.  A sweep per orientation over the switches sorted by interval
    start pairs each switch with the later-starting ones that start before
    it ends, in O(w log w + E).  Every projection interval is nonempty, so
    these are exactly the facing pairs: two switches face in an orientation
    iff their open intervals overlap, from the later start to the earlier
    end.  Edges are sorted by (i, j), each with its orientations, H before
    V."""
    n = len(dec.switches)
    lo: dict[str, list[tuple]] = {}
    hi: dict[str, list[tuple]] = {}
    edges: dict[tuple[int, int], str] = {}
    for orient in ("H", "V"):
        ends = [projection_interval(dec.order, s, orient)
                for s in dec.switches]
        los = lo[orient] = [e[0] for e in ends]
        his = hi[orient] = [e[1] for e in ends]
        by_start = sorted(range(n), key=los.__getitem__)
        for a, i in enumerate(by_start):
            hik = his[i]
            b = a + 1
            while b < n and los[by_start[b]] < hik:
                j = by_start[b]
                pair = (i, j) if i < j else (j, i)
                edges[pair] = edges.get(pair, "") + orient
                b += 1
    edges = dict(sorted(edges.items()))
    touched = {v for e in edges for v in e}
    isolated = [i for i in range(n) if i not in touched]
    covered = sorted(touched)
    remap = {v: k for k, v in enumerate(covered)}
    sub_edges = [(remap[i], remap[j]) for (i, j) in edges]
    cover = matching.minimum_edge_cover(len(covered), sub_edges)
    edge_cover = sorted((covered[i], covered[j]) for (i, j) in cover)
    kappa = len(isolated) + len(edge_cover)
    return SwitchGraph(n, edges, isolated, kappa, edge_cover, lo, hi)
