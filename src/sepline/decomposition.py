"""Angular decomposition of a circle instance.

Chunks (maximal monochromatic runs), switches (the open arcs between
consecutive chunks), the facing relation between switches, and the switch
graph whose structure determines the optimal number of axis-parallel lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import matching
from .errors import EmptyInstance, PointOffCircle
from .geometry import (BOTTOM, LEFT, MINUS_ONE, ONE, RIGHT, TOP, ColoredPoint,
                       angular_positions, arc_contains, order_key)


class Interval(NamedTuple):
    """The open rational interval (lo, hi), held as the order keys `lok`,
    `hik` of its ends.  Whether an end at +-1 is attained never matters:
    every line built here has |c| < 1."""

    lok: tuple
    hik: tuple

    @property
    def lo(self) -> Fraction:
        return self.lok[1]

    @property
    def hi(self) -> Fraction:
        return self.hik[1]


# the keys of the ends -1 and 1 that a switch arc through a turning point
# widens its projection to
_LOW, _HIGH = order_key(MINUS_ONE), order_key(ONE)


@dataclass
class Chunk:
    color: str
    point_ids: list[int]


@dataclass
class Switch:
    """Open arc between the last point of one chunk and the first of the
    next, each end an (angular key, point) pair of the angular sort."""

    index: int
    start: tuple  # the last pair of chunk index
    end: tuple    # the first pair of chunk index + 1 (cyclic)


@dataclass
class CircleDecomposition:
    points: list[ColoredPoint]           # input order, id-indexed
    chunks: list[Chunk]
    switches: list[Switch]
    positions: list[tuple[tuple, ColoredPoint]]  # (angular key, point)

    @property
    def w(self) -> int:
        return len(self.chunks) if len(self.chunks) > 1 else 0


def decompose(points) -> CircleDecomposition:
    """Chunks and switches of a circle instance in angular order, and the
    angular order itself."""
    points = list(points)
    if not points:
        raise EmptyInstance("a circle instance needs at least one point")
    for p in points:
        if not p.on_unit_circle():
            raise PointOffCircle(p.id)

    keyed = angular_positions(points)
    # on the circle a key's quadrant and x^2 fix the position, and the sort
    # puts equal keys next to each other
    for (ka, a), (kb, b) in zip(keyed, keyed[1:]):
        if ka == kb:
            raise ValueError(f"points {a.id} and {b.id} share the position "
                             f"({a.x}, {a.y})")

    runs: list[list] = []  # each chunk's (key, point) pairs
    for kp in keyed:
        if runs and runs[-1][0][1].color == kp[1].color:
            runs[-1].append(kp)
        else:
            runs.append([kp])
    if len(runs) > 1 and runs[0][0][1].color == runs[-1][0][1].color:
        # the run through angle 0 wraps around
        runs[0] = runs.pop() + runs[0]

    chunks = [Chunk(run[0][1].color, [p.id for _, p in run]) for run in runs]
    switches = [Switch(i, run[-1], runs[(i + 1) % len(runs)][0])
                for i, run in enumerate(runs)] if len(runs) > 1 else []
    return CircleDecomposition(points, chunks, switches, keyed)


def projection_interval(switch: Switch, orient: str) -> Interval:
    """Image of the open switch arc under the Y projection for `orient` "H",
    the X projection for "V"; an end widens to -1 or 1 when the arc passes
    that turning point."""
    (a, start), (b, end) = switch.start, switch.end
    if orient == "H":
        ka, kb = start.yk, end.yk
        top_in = arc_contains(TOP, a, b)
        bot_in = arc_contains(BOTTOM, a, b)
    else:
        ka, kb = start.xk, end.xk
        top_in = arc_contains(RIGHT, a, b)
        bot_in = arc_contains(LEFT, a, b)
    return Interval(_LOW if bot_in else min(ka, kb),
                    _HIGH if top_in else max(ka, kb))


def faces(a: Switch, b: Switch) -> dict[str, Interval]:
    """Feasible stabbing orientations for a pair of switches, each with the
    overlap of their projection intervals.  A nonempty overlap has lo < hi,
    so it holds a coordinate avoiding every input-point coordinate.  The
    pairwise reference for the sweep in `build_switch_graph`."""
    out: dict[str, Interval] = {}
    for orient in ("H", "V"):
        ia, ib = (projection_interval(s, orient) for s in (a, b))
        lok, hik = max(ia.lok, ib.lok), min(ia.hik, ib.hik)
        if lok < hik:
            out[orient] = Interval(lok, hik)
    return out


@dataclass
class SwitchGraph:
    n: int                                       # number of switches
    edges: dict[tuple[int, int], dict[str, Interval]]
    isolated: list[int]
    kappa: int
    edge_cover: list[tuple[int, int]]
    h_intervals: list[Interval]  # each switch's projection interval, for
    v_intervals: list[Interval]  # H and for V lines, by switch index

    def orientations(self, i: int, j: int) -> str:
        ann = self.edges[(min(i, j), max(i, j))]
        return "".join(o for o in ("H", "V") if o in ann)


def build_switch_graph(dec: CircleDecomposition) -> SwitchGraph:
    """The nice-pair graph over switches, with kappa = |I| + MEC(H).

    Each switch's two projection intervals are built here and kept on the
    graph.  A sweep per orientation over the switches sorted by interval
    start pairs each switch with the later-starting ones that start before
    it ends, in O(w log w + E).  Every projection interval is nonempty, so
    these are exactly the facing pairs, and each overlap runs from the later
    start to the earlier end: the edges `faces` would give, sorted by
    (i, j), H before V in each."""
    sw = dec.switches
    n = len(sw)
    h_itvs = [projection_interval(s, "H") for s in sw]
    v_itvs = [projection_interval(s, "V") for s in sw]
    edges: dict[tuple[int, int], dict[str, Interval]] = {}
    for orient, itvs in (("H", h_itvs), ("V", v_itvs)):
        order = sorted(range(n), key=lambda i: itvs[i].lok)
        for a, i in enumerate(order):
            hik = itvs[i].hik
            b = a + 1
            while b < n and itvs[order[b]].lok < hik:
                j = order[b]
                pair = (i, j) if i < j else (j, i)
                edges.setdefault(pair, {})[orient] = Interval(
                    itvs[j].lok, min(hik, itvs[j].hik))
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
    return SwitchGraph(n, edges, isolated, kappa, edge_cover, h_itvs, v_itvs)
