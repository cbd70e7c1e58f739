"""Constructive separation solvers for points on a circle.

solve_general protects each blue chunk with one line through its two
adjacent switches (w/2 lines, optimal) and certifies the lines in
O(n log n): each line's two anchors bound, on the circle, exactly one
maximal blue run of the angular order.  solve_axis builds the edge-cover
seeded line set L0 of size kappa, then walks a sequence of strictly
dominating solutions until every cell is monochromatic.  Each step makes
one flip (one boundary line of the priority corrupt cell); solve_axis
checks that the step strictly dominates and does not grow, and a flip
whose precondition fails raises GuaranteeViolated.  When the loop is
stuck (a large cell is the only corrupt cell, or no 2-arc corrupt cell
allows a flip), the repair replaces the stuck cell's boundary lines by the
first kappa-line completion among the candidates that stab a switch the
kept lines miss, decided on the cell partition, and raises RepairExhausted
if there is none.  Nothing here imports the brute-force oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import lt, or_
from typing import Optional

from .decomposition import (CircleDecomposition, CircleOrder, SwitchGraph,
                            build_switch_graph, decompose)
from .errors import (DominationFailure, GuaranteeViolated, NotSeparating,
                     RepairExhausted)
from .geometry import (BLUE, RED, Arc, AxisLine, CellMap, CellSignature,
                       CoordinateSet, GeneralLine, _integer_form, _point_key,
                       arc_interior_point, arc_quadrants, axis_candidates,
                       axis_keys, cell_arcs, cell_map, line_through, order_key,
                       pick_coordinate)

F = Fraction


@dataclass
class GeneralSolution:
    lines: list[GeneralLine]
    anchors: list[tuple]   # (blue chunk index, p_i, q_i) per line

    @property
    def size(self) -> int:
        return len(self.lines)


@dataclass
class AxisSolution:
    lines: list[AxisLine]
    kappa: Optional[int] = None
    steps: int = 0
    repair_used: bool = False

    @property
    def size(self) -> int:
        return len(self.lines)


def solve_general(points) -> GeneralSolution:
    """One line per blue chunk, anchored inside its two adjacent switches.
    Raises NotSeparating if the lines fail their certificate."""
    dec = decompose(points)
    if dec.w == 0:
        return GeneralSolution([], [])
    order, sw = dec.order, dec.switches
    lines, anchors = [], []
    for k, s in enumerate(sw):
        if order.colors[s] != BLUE:
            continue
        p = arc_interior_point(order, sw[k - 1])
        q = arc_interior_point(order, s)
        lines.append(line_through(p[0], p[1], q[0], q[1]))
        anchors.append((k, p, q))
    _certify_general(lines, anchors, order)
    return GeneralSolution(lines, anchors)


def _certify_general(lines, anchors, order: CircleOrder) -> None:
    """Raise NotSeparating unless `lines` separate the points of `order`,
    read by index from its keys and colours alone; O(n + L log n).

    The line of anchors[k] = (chunk, p, q) must pass through the distinct
    unit-circle points p and q, so it meets the circle only there and the
    open ccw arc from p to q is one open side of it.  If that arc holds
    exactly one maximal blue run, no point lies at p or q and each run has
    its own line, every red-blue pair is split.  Switches are not read, so
    a fault in them cannot hide.
    """
    keys = order.keys
    n = len(keys)
    if not all(map(lt, keys, keys[1:])):
        raise NotSeparating("point keys do not strictly increase")
    # a maximal blue run's first index -> the index of the red after it
    reds = [i for i, c in enumerate(order.colors) if c == RED]
    run_end = {(r + 1) % n: s for r, s in zip(reds, reds[1:] + reds[:1])
               if (r + 1) % n != s}
    if len(lines) != len(anchors):
        raise NotSeparating(f"{len(lines)} lines for {len(anchors)} anchors")
    done = set()
    for line, (chunk, p, q) in zip(lines, anchors):
        def require(ok, what):
            if not ok:
                raise NotSeparating(f"line of blue chunk {chunk}: {what}")

        a, b, c = _integer_form(line)
        require(a or b, "a = b = 0")
        require(p != q, "p = q")
        ends = []
        for name, (x, y) in (("p", p), ("q", q)):
            xn, xd = x.numerator, x.denominator
            yn, yd = y.numerator, y.denominator
            require(a * xn * yd + b * yn * xd + c * xd * yd == 0,
                    f"anchor {name} is off the line")
            require((xn * yd) ** 2 + (yn * xd) ** 2 == (xd * yd) ** 2,
                    f"anchor {name} is off the unit circle")
            key = _point_key(x, y)
            i = bisect_left(keys, key)
            require(i == n or keys[i] != key,
                    f"anchor {name} is an input point")
            ends.append(i % n)
        require(run_end.get(ends[0]) == ends[1],
                "the points between its anchors are not one maximal blue run")
        require(ends[0] not in done, "a second line on its blue run")
        done.add(ends[0])
    if len(done) != len(run_end):
        raise NotSeparating(f"{len(done)} lines for {len(run_end)} blue runs")


def wedge_baseline(points) -> AxisSolution:
    """Two axis-parallel lines per blue chunk: the wedge through the inner
    corner of the rectangle spanned by the chunk's switch anchors p and q.

    On the unit circle the corner (p.x, q.y) lies inside the disk iff
    q.y^2 < p.y^2, and (q.x, p.y) iff p.y^2 < q.y^2; so q avoids +-p.y
    and exactly one corner is inner."""
    dec = decompose(points)
    if dec.w == 0:
        return AxisSolution([], kappa=0)
    order, sw = dec.order, dec.switches
    # the point coordinates, then also every corner placed so far; they
    # grow in place, O(n + w) in all
    fx = CoordinateSet(p.x for p in order.points)
    fy = CoordinateSet(p.y for p in order.points)
    lines = []
    for k, s in enumerate(sw):
        if order.colors[s] != BLUE:
            continue
        p = arc_interior_point(order, sw[k - 1], fx, fy)
        # q also avoids p's x and +-p's y, for this chunk only
        q = arc_interior_point(order, s, _Either(fx, (p[0],)),
                               _Either(fy, (p[1], -p[1])))
        corner = (p[0], q[1]) if q[1] * q[1] < p[1] * p[1] else (q[0], p[1])
        lines += [AxisLine("V", corner[0]), AxisLine("H", corner[1])]
        fx.add(corner[0])
        fy.add(corner[1])
    return AxisSolution(lines)


class _Either:
    """Membership in a container or in a few extra values, without a copy."""

    __slots__ = ("base", "extra")

    def __init__(self, base, extra):
        self.base, self.extra = base, extra

    def __contains__(self, v) -> bool:
        return v in self.extra or v in self.base


def build_L0(dec: CircleDecomposition, graph: SwitchGraph) -> AxisSolution:
    """One line per edge-cover edge plus one per isolated switch; kappa lines
    in total, stabbing every switch."""
    # the point coordinates, then also every line placed so far
    forbidden = {"H": CoordinateSet(p.y for p in dec.order.points),
                 "V": CoordinateSet(p.x for p in dec.order.points)}
    lines = []

    def place(orient, lok, hik):
        c = pick_coordinate(lok[1], hik[1], forbidden[orient])
        forbidden[orient].add(c)
        lines.append(AxisLine(orient, c))

    for (i, j) in graph.edge_cover:
        orient = "H" if "H" in graph.edges[(i, j)] else "V"
        # the overlap of the two switches' open intervals
        lo, hi = graph.lo[orient], graph.hi[orient]
        place(orient, max(lo[i], lo[j]), min(hi[i], hi[j]))
    for r in graph.isolated:
        (hn, hd), (vn, vd) = (_width(graph.lo[o][r], graph.hi[o][r])
                              for o in ("H", "V"))
        orient = "H" if hn * vd >= vn * hd else "V"
        place(orient, graph.lo[orient][r], graph.hi[orient][r])
    return AxisSolution(lines, kappa=graph.kappa)


def _width(lok, hik) -> tuple[int, int]:
    """hi - lo of the order keys lok, hik as (numerator, denominator > 0)."""
    lo, hi = lok[1], hik[1]
    return (hi.numerator * lo.denominator - lo.numerator * hi.denominator,
            hi.denominator * lo.denominator)


# --- the refinement loop -----------------------------------------------------

_DONE = "done"
_IMPROVED = "improved"
_STUCK = "stuck"


def _primary_quadrant(arc: Arc, keys) -> Optional[int]:
    """The arc's quadrant, or of a 2-quadrant arc the one holding more of
    its points (the lower on a tie); a point's quadrant is the first entry
    of its angular key in `keys`."""
    qs = arc_quadrants(arc.start, arc.end)
    if len(qs) > 2:
        return None
    return max(sorted(qs), key=[keys[i][0] for i in arc.members].count)


def _cell_center(sig: CellSignature, cm: CellMap) -> tuple[Fraction, Fraction]:
    """Center of the cell clipped to the circle's bounding square."""
    hs, vs = cm.hs, cm.vs
    ylo = hs[sig.row - 1] if sig.row > 0 else F(-1)
    yhi = hs[sig.row] if sig.row < len(hs) else F(1)
    xlo = vs[sig.col - 1] if sig.col > 0 else F(-1)
    xhi = vs[sig.col] if sig.col < len(vs) else F(1)
    return ((max(xlo, F(-1)) + min(xhi, F(1))) / 2,
            (max(ylo, F(-1)) + min(yhi, F(1))) / 2)


def _unstabbed(hks, vks, graph: SwitchGraph) -> list[int]:
    """The indices of the switches whose open interval holds, in neither
    orientation, a line coordinate of that orientation; `hks` and `vks` are
    the sorted order keys of the H and V line coordinates.  O(w log L)."""
    def stabbed(orient, i, ks):
        return (bisect_right(ks, graph.lo[orient][i])
                < bisect_left(ks, graph.hi[orient][i]))

    return [i for i in range(graph.n)
            if not (stabbed("H", i, hks) or stabbed("V", i, vks))]


def _check_invariants(graph, cm, arcs, colors):
    """Structural facts every intermediate arrangement must satisfy, with
    the circle order's `colors`; raises GuaranteeViolated (also under
    `python -O`) if one fails."""
    def require(ok, what):
        if not ok:
            raise GuaranteeViolated(f"invariant violated: {what}")

    require(not _unstabbed(cm.hks, cm.vks, graph), "a switch is not stabbed")
    large = 0
    for sig, arclist in arcs.items():
        require(len(arclist) <= 4, "cell meets the circle in more than 4 arcs")
        if len(arclist) >= 3:
            large += 1
        if sig in cm.corrupt:
            require(len(arclist) >= 2, "corrupt cell without 2-4 arcs")
            require(all(len({colors[i] for i in a.members}) <= 1
                        for a in arclist),
                    "non-monochromatic arc in corrupt cell")
    require(large <= 1, "more than one large cell")


def refine_step(solution: AxisSolution, dec: CircleDecomposition,
                graph: SwitchGraph, cm: CellMap):
    """One strict-domination step, after checking the invariants of the
    arrangement whose cell partition is `cm`.

    Returns (_DONE, solution), (_IMPROVED, new_solution) or, when the only
    corrupt cells are a large cell or 2-arc cells with neither flip,
    (_STUCK, corrupt_sig).
    """
    order = dec.order
    arcs = cell_arcs(order, cm.hks, cm.vks)
    _check_invariants(graph, cm, arcs, order.colors)
    if not cm.corrupt:
        return (_DONE, solution)
    small = [sig for sig in cm.corrupt if len(arcs[sig]) == 2]
    if not small:
        return (_STUCK, min(cm.corrupt))

    # classify 2-arc corrupt cells; the paper's priority cell is the
    # horizontal-flip cell farthest from the x-axis, else the vertical-flip
    # cell farthest from the y-axis (ties by signature)
    flips = []
    for sig in small:
        qs = {_primary_quadrant(a, order.keys) for a in arcs[sig]}
        cx, cy = _cell_center(sig, cm)
        if qs in ({0, 1}, {2, 3}):
            flips.append((0, -abs(cy), sig, "H", 1 if cy > 0 else -1))
        elif qs in ({0, 3}, {1, 2}):
            flips.append((1, -abs(cx), sig, "V", 1 if cx > 0 else -1))
    if not flips:
        return (_STUCK, min(small))
    _, _, sig, orient, step = min(flips)
    lines = _flip(order, solution.lines, cm, arcs, sig, orient, step)
    return (_IMPROVED, AxisSolution(lines, solution.kappa,
                                    solution.steps + 1, solution.repair_used))


def _flip(order, lines, cm, arcs, sig, orient, step) -> list[AxisLine]:
    """Flip a boundary line of the 2-arc corrupt cell `sig`: for orient "H"
    the horizontal line above it (step +1) or below it (step -1), for "V"
    the vertical line right (+1) or left (-1) of it.  `arcs` are
    `cell_arcs` of the circle order `order` under the partition `cm`; no
    point lies on a line of `cm`, so a cell's points are the members of
    its arcs.

    Removing the line merges the cell with its neighbour across it; the
    added perpendicular line, strictly between the protected arc's points
    and the exposed side's points (the other arc, of the neighbour's
    colour, and the neighbour), shields the protected arc.  Raises
    GuaranteeViolated if the boundary line is missing, the neighbour does
    not hold exactly one colour or no cut fits.  solve_axis checks that the
    new lines strictly dominate `lines`, and the next refine_step that they
    stab every switch.
    """
    def require(ok, what):
        if not ok:
            raise GuaranteeViolated(f"flip of cell {tuple(sig)}: {what}")

    if orient == "H":
        coords, idx, cut_orient, perp = cm.hs, sig.row, "V", (lambda p: p.x)
        neighbor = CellSignature(sig.row + step, sig.col)
    else:
        coords, idx, cut_orient, perp = cm.vs, sig.col, "H", (lambda p: p.y)
        neighbor = CellSignature(sig.row, sig.col + step)
    b = idx if step > 0 else idx - 1
    require(0 <= b < len(coords), "no boundary line")
    ncolors = cm.colors.get(neighbor, {})
    require(len(ncolors) == 1, "the neighbour is not of one colour")

    # the cell holds both colours and _check_invariants made each arc
    # monochromatic, so each arc holds the points of one colour
    pts = order.points
    arc_a, arc_b = arcs[sig]
    exposed, protected = ((arc_a, arc_b) if order.colors[arc_a.members[0]]
                          in ncolors else (arc_b, arc_a))
    exp = [perp(pts[i]) for arc in (exposed, *arcs[neighbor])
           for i in arc.members]
    prot = [perp(pts[i]) for i in protected.members]
    lo, hi = ((max(prot), min(exp)) if max(prot) < min(exp)
              else (max(exp), min(prot)))
    require(lo < hi, "no cut fits between the arcs")
    # (lo, hi) lies inside the cell's column (for "H"; row for "V"), which
    # no line of the cut's orientation crosses: the cut is a new line
    forbidden = CoordinateSet(map(perp, pts))
    cut = AxisLine(cut_orient, pick_coordinate(lo, hi, forbidden))
    boundary = AxisLine(orient, coords[b])
    return [ln for ln in lines if ln != boundary] + [cut]


# --- large-cell repair -------------------------------------------------------


def _cell_boundary_lines(sig: CellSignature, hs, vs) -> list[AxisLine]:
    """The lines below, above, left and right of cell `sig`."""
    return ([AxisLine("H", c) for c in hs[max(sig.row - 1, 0):sig.row + 1]]
            + [AxisLine("V", c) for c in vs[max(sig.col - 1, 0):sig.col + 1]])


def _repair_around(points, solution: AxisSolution, cm: CellMap,
                   sig: CellSignature,
                   graph: SwitchGraph) -> tuple[AxisSolution, CellMap]:
    """Replace the boundary lines of corrupt cell `sig` of `cm`, the cell
    partition of `solution`, by the first combination of axis candidates
    that completes the kept lines to kappa separating lines; returns it
    with its cell partition, or raises RepairExhausted if none separates.

    A separating set stabs every switch, so it has at least kappa lines,
    and each added line of a kappa-line completion stabs a switch that no
    other line, kept or added, stabs.  So only combinations of
    kappa - |keep| candidates that each stab a switch the kept lines miss
    are tried, in candidate order, and only those stabbing every such
    switch are partitioned: the first separating completion of the
    size-by-size search over all candidates.  A cell has at most four
    boundary lines, so at most C(2n, 4) combinations are tried.
    """
    boundary = _cell_boundary_lines(sig, cm.hs, cm.vs)
    keep = [ln for ln in solution.lines if ln not in boundary]
    missed = _unstabbed(*axis_keys(keep), graph)
    need = sum(1 << i for i in missed)
    pool = []  # (candidate, the missed switches it stabs as a bitmask)
    for c in axis_candidates(points):
        k = order_key(c.c)
        lo, hi = graph.lo[c.orient], graph.hi[c.orient]
        hit = sum(1 << i for i in missed if lo[i] < k < hi[i])
        if hit:
            pool.append((c, hit))
    for combo in combinations(pool, solution.kappa - len(keep)):
        lines = keep + [c for c, _ in combo]
        if (reduce(or_, (hit for _, hit in combo), 0) == need
                and not (new_cm := cell_map(points, lines)).corrupt):
            return (AxisSolution(lines, solution.kappa, solution.steps, True),
                    new_cm)
    raise RepairExhausted(
        f"no completion of the {len(keep)} kept lines to {solution.kappa} "
        "lines separates; this contradicts the upper-bound guarantee")


# --- the full pipeline -------------------------------------------------------


def _unsplit_pairs(cm: CellMap, points) -> int:
    """Red-blue pairs that share a cell: sum of |R|*|B| over corrupt cells;
    `points` in the input order `cm` was built from."""
    size, red = Counter(), Counter()
    for sig, p in zip(cm.cell_of, points):
        if sig in cm.corrupt:
            size[sig] += 1
            red[sig] += p.color == RED
    return sum(r * (size[sig] - r) for sig, r in red.items())


def _strictly_dominates(old: CellMap, new: CellMap, points) -> bool:
    """Whether the lines partitioned as `new` split every red-blue pair the
    lines partitioned as `old` split, and more, in O(n); both partitions
    are of `points`, in that input order.

    A mixed new cell that meets two old cells holds a pair that only the
    old lines split: a red and a blue from different old cells, or else
    one of them and a point from another old cell.  So the new unsplit
    pairs are a subset of the old ones iff every mixed new cell lies inside
    one old cell, and then a strict subset iff there are fewer of them.
    """
    home = {}  # each mixed new cell -> the old cell of its first point
    for was, now in zip(old.cell_of, new.cell_of):
        if now in new.corrupt and home.setdefault(now, was) != was:
            return False
    return _unsplit_pairs(new, points) < _unsplit_pairs(old, points)


def solve_axis(points, on_step=None) -> AxisSolution:
    """Optimal axis-parallel separation for a circle instance.

    decompose -> switch graph -> minimum edge cover -> L0 -> strictly
    dominating refinements -> (rarely) large-cell repair.  The result has
    exactly kappa lines and separates, as the cell partition the loop ends
    on shows; otherwise a SeplineError is raised (also under `python -O`).
    `on_step`, if given, is called with every arrangement the loop
    examines: L0 first, then each accepted refinement step.
    """
    points = list(points)
    dec = decompose(points)
    graph = build_switch_graph(dec)
    r = sum(1 for p in points if p.color == RED)
    b = len(points) - r

    sol = build_L0(dec, graph)
    cm = cell_map(points, sol.lines)
    while True:
        if on_step is not None:
            on_step(sol)
        outcome, payload = refine_step(sol, dec, graph, cm)
        if outcome == _DONE:
            break
        if outcome == _IMPROVED:
            new_cm = cell_map(points, payload.lines)
            if not _strictly_dominates(cm, new_cm, points):
                raise DominationFailure(f"step {payload.steps} does not dominate")
            if payload.size > sol.size:
                raise GuaranteeViolated(f"step {payload.steps} grew the solution")
            sol, cm = payload, new_cm
            if sol.steps > r * b:
                raise GuaranteeViolated("refinement exceeded the r*b step bound")
            continue
        # _STUCK: payload is the offending cell signature
        sol, cm = _repair_around(points, sol, cm, payload, graph)
        break

    # cm is the partition of sol.lines: the loop's last, or repair's
    witness = cm.witness()
    if witness is not None:
        raise NotSeparating(f"pair {witness} is not separated")
    if sol.size != graph.kappa:
        raise GuaranteeViolated(f"solution size {sol.size} != kappa {graph.kappa}")
    return sol
