"""Reduction from colorful red-blue dominating set to budgeted axis-parallel
separation.

An instance with k classes, uniform even blue-degree d, uniform class size m
and n blue vertices maps to a planar point set on a (k+2) x (n+1) track grid:

* selectors (2k, one red-blue pair per horizontal track, all on one
  x-coordinate) force one horizontal "signal" line per track, whose strip
  index encodes the chosen vertex;
* functional pairs (2dn) encode edges: one red-blue pair in the box at the
  chosen vertex's strip row and the neighbor's even vertical strip column;
* guards (dn, all on one y-coordinate, alternating colors) pin down d-1
  vertical "defender" lines per vertical track;
* three enforcer pairs (6 points) force the two horizontal and one vertical
  "fence" lines walling off the selector column and the guard row.

Budgets are p = k+2 horizontal and q = (d-1)n + 1 vertical lines.  A
separation within those budgets decodes to a colorful dominating set
(`extract`); the converse is not guaranteed: some colorful dominating sets
have no separating lift (`lift` raises NotSeparating).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice, permutations, product
from typing import Optional

from .errors import (BudgetViolation, DominationFailure, GuaranteeViolated,
                     InvalidDominatingSet, NoSignalLine, NotSeparating)
from .geometry import (BLUE, RED, AxisLine, ColoredPoint, _point_on_line,
                       axis_keys, order_key, verify_separation)

F = Fraction
U = 4  # grid unit: strip width and height


def _require(ok: bool, message: str) -> None:
    """A structural guarantee of the reduction; holds under `python -O`."""
    if not ok:
        raise GuaranteeViolated(message)


@dataclass
class CRBDS:
    """Colorful red-blue dominating set instance.

    Red vertices are partitioned into classes; pick one per class so that
    every blue vertex has a chosen neighbor.  An instance is a value: each
    blue vertex's neighbour list is built once, at construction, and no
    code changes an instance afterwards (`dataclasses.replace` makes a new
    one, with its own lists).
    """

    classes: list[list[str]]
    blues: list[str]
    edges: set[tuple[str, str]]  # (red, blue)
    # optional per-blue neighbor ordering; any fixed ordering is legal, and
    # consumers that care (the geometric reduction) may choose one explicitly
    order: Optional[dict] = None
    # each blue's neighbours: explicit if ordered, else class-then-position
    _neighbors: dict[str, list[str]] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        order = self.order or {}
        reds = [u for cls in self.classes for u in cls]
        self._neighbors = {
            v: list(order[v]) if v in order
            else [u for u in reds if (u, v) in self.edges]
            for v in self.blues}

    @property
    def k(self) -> int:
        return len(self.classes)

    def neighbors_of_blue(self, v: str) -> list[str]:
        """The stored list, which callers do not change."""
        return self._neighbors[v]

    def degree(self, v: str) -> int:
        return len(self._neighbors[v])


def colorful_dominating_sets(inst: CRBDS):
    """Every colorful dominating set, in lexicographic selection order."""
    for pick in product(*inst.classes):
        chosen = set(pick)
        if all(any((u, v) in inst.edges for u in chosen) for v in inst.blues):
            yield list(pick)


@dataclass
class NormalizedCRBDS:
    """Instance massaged so every blue vertex has even degree d, every class
    has m vertices, and k is even; answer-equivalent to the original."""

    inst: CRBDS
    d: int
    m: int
    original_k: int
    added_degree_class: bool  # extra class of star leaves + pendant reds
    added_parity_class: bool  # extra class making k even

    @property
    def k(self) -> int:
        return self.inst.k

    @property
    def n(self) -> int:
        return len(self.inst.blues)


def normalize(inst: CRBDS) -> NormalizedCRBDS:
    if not inst.blues:
        raise ValueError("instance has no blue vertices")
    if any(not cls for cls in inst.classes):
        raise ValueError("every class must be nonempty")

    classes = [list(cls) for cls in inst.classes]
    blues = list(inst.blues)
    edges = set(inst.edges)
    order = {v: list(us) for v, us in (inst.order or {}).items()}
    degs = {v: inst.degree(v) for v in inst.blues}
    d = max(2, max(degs.values(), default=0))
    if d % 2:
        d += 1

    # Two blue vertices with identical neighborhoods produce identical
    # functional-pair columns in adjacent vertical tracks, which a single
    # signal line per class row cannot serve; the bookend pendants below
    # make all neighborhoods distinct, so that configuration is rebuilt
    # with interior dominator slots.
    nbhds = [frozenset(inst.neighbors_of_blue(v)) for v in blues]
    added_degree_class = (any(deg != d for deg in degs.values())
                          or len(set(nbhds)) < len(nbhds))
    if added_degree_class:
        # Degrees are equalized with pendant red neighbors.  Pendants must
        # never enter a dominating set, so they live in classes whose pick
        # is forced elsewhere by a star whose center is a new blue vertex.
        # Two such classes are added, one below and one above all original
        # classes, and every original blue gets a "bookend" pendant in each:
        # in the geometric instance the bookends occupy the extreme slots of
        # every vertical track, which keeps the signal-separated pair of a
        # track strictly between two defender-split pairs.  Remaining
        # degree deficits are filled with extra pendants in the low class.
        # A given neighbour order keeps the low class first and the high
        # class last, as the class-then-position order does.
        d += 2
        low = [f"_lo_{v}" for v in inst.blues]
        edges.update((f"_lo_{v}", v) for v in inst.blues)
        for v in inst.blues:
            pends = [f"_pend_{v}_{t + 1}" for t in range(d - 2 - degs[v])]
            low += pends
            edges.update((pend, v) for pend in pends)
            if v in order:
                order[v] = [f"_lo_{v}", *pends, *order[v], f"_hi_{v}"]
        low += [f"_leafL{t + 1}" for t in range(d)]
        blues.append("_v0L")
        edges.update((f"_leafL{t + 1}", "_v0L") for t in range(d))

        high = [f"_leafH{t + 1}" for t in range(d)]
        blues.append("_v0H")
        edges.update((f"_leafH{t + 1}", "_v0H") for t in range(d))
        high += [f"_hi_{v}" for v in inst.blues]
        edges.update((f"_hi_{v}", v) for v in inst.blues)

        classes = [low] + classes + [high]

    added_parity_class = len(classes) % 2 == 1
    if added_parity_class:
        par = [f"_par{t + 1}" for t in range(d)]
        blues.append("_w0")
        edges.update((u, "_w0") for u in par)
        classes.append(par)

    m = max(len(cls) for cls in classes)
    for ci, cls in enumerate(classes):
        while len(cls) < m:
            cls.append(f"_pad_{ci}_{len(cls) + 1}")

    out = CRBDS(classes, blues, edges, order or None)
    _require(out.k % 2 == 0 and d % 2 == 0, "k or d is odd after normalizing")
    _require(all(out.degree(v) == d for v in out.blues),
             "a blue vertex's degree differs from d after normalizing")
    return NormalizedCRBDS(out, d, m, inst.k,
                           added_degree_class, added_parity_class)


@dataclass
class ReductionLayout:
    """Track grid geometry plus the role of every generated point; a role
    is a tuple led by "selector", "functional", "guard" or "enforcer"."""

    k: int
    n: int
    d: int
    m: int
    roles: dict[int, tuple] = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.k + 2

    @property
    def q(self) -> int:
        return (self.d - 1) * self.n + 1

    @property
    def width(self) -> int:
        return 4 * U + self.n * 2 * self.d * U

    @property
    def height(self) -> int:
        return 8 * U + self.k * (self.m + 2) * U

    def h_track(self, i: int) -> tuple[int, int]:
        """y-range of horizontal track H_i, i in 0..k+1 (bottom to top)."""
        if i == 0:
            return (0, 4 * U)
        lo = 4 * U + (i - 1) * (self.m + 2) * U
        if i == self.k + 1:
            return (lo, lo + 4 * U)
        return (lo, lo + (self.m + 2) * U)

    def v_track(self, j: int) -> tuple[int, int]:
        """x-range of vertical track V_j, j in 0..n (left to right)."""
        if j == 0:
            return (0, 4 * U)
        lo = 4 * U + (j - 1) * 2 * self.d * U
        return (lo, lo + 2 * self.d * U)

    def h_strip(self, i: int, alpha: int) -> tuple[int, int]:
        """y-range of the alpha-th horizontal strip of H_i (alpha in 1..m,
        buffer zones not counted; alpha=0 / m+1 address the buffers)."""
        lo, _ = self.h_track(i)
        return (lo + alpha * U, lo + (alpha + 1) * U)

    def v_strip(self, j: int, beta: int) -> tuple[int, int]:
        """x-range of the beta-th vertical strip of V_j, beta in 1..2d."""
        lo, _ = self.v_track(j)
        return (lo + (beta - 1) * U, lo + beta * U)

    def z_box(self, i, j, alpha, beta):
        (xlo, xhi) = self.v_strip(j, beta)
        (ylo, yhi) = self.h_strip(i, alpha)
        return (xlo, ylo, xhi, yhi)


@dataclass
class ReducedInstance:
    points: list[ColoredPoint]
    p: int
    q: int
    layout: ReductionLayout


SELECTOR_X = 2 * U
GUARD_Y = 2 * U


def _emit(norm: NormalizedCRBDS, parts: Optional[dict] = None
          ) -> ReducedInstance:
    """The reduced instance of `norm`, validated.  Its points come in
    parts: the selectors, blue j's functional block and the guards with the
    enforcers.  Within one normalized instance a part keeps its ids (list
    positions) under every neighbour order, so `parts`, which the caller
    keeps for one search, keyed "selectors", (j, neighbour order) and
    "guards and enforcers", lends each emit the (point, role) pairs that
    earlier emits built: each part is built once."""
    inst, k, n, d, m = norm.inst, norm.k, norm.n, norm.d, norm.m
    lay = ReductionLayout(k, n, d, m)
    pts: list[ColoredPoint] = []
    roles = lay.roles
    parts = {} if parts is None else parts
    built: list = []

    def add(color, x, y, role):
        """x is an int; y is an int or a Fraction."""
        pid = len(pts)
        pts.append(ColoredPoint(pid, color, F(x),
                                y if type(y) is F else F(y)))
        roles[pid] = role
        built.append((pts[-1], role))

    def reused(key) -> bool:
        """Append part `key` if an earlier emit built it; else return
        False, and `add` records the part as it is built."""
        nonlocal built
        part = parts.get(key)
        if part is None:
            built = parts[key] = []
            return False
        for pt, role in part:
            pts.append(pt)
            roles[pt.id] = role
        return True

    # selectors: red-blue pair in the buffer zones of each H_i, shared x
    if not reused("selectors"):
        for i in range(1, k + 1):
            lo, hi = lay.h_track(i)
            top, bottom = (RED, BLUE) if i % 2 == 0 else (BLUE, RED)
            add(bottom, SELECTOR_X, lo + U // 2, ("selector", i, "bottom"))
            add(top, SELECTOR_X, hi - U // 2, ("selector", i, "top"))

    # functional pairs: the beta-th neighbor u of v_j, sitting at u's class
    # row i / position alpha, occupies box Z_ij[alpha, 2*beta].  The BL
    # corner point must stay strictly below the strip midline and TR
    # strictly above it, so the track's signal line always splits the pair;
    # each pair gets its own fractional inset delta = num/den in (0, 1) so
    # that no two opposite-color functional points ever share an exact
    # coordinate.  ylo + delta is built from integers as one Fraction.
    den = d * n + 1
    pos = {}
    for ci, cls in enumerate(inst.classes, start=1):
        for ai, u in enumerate(cls, start=1):
            pos[u] = (ci, ai)
    for j, v in enumerate(inst.blues, start=1):
        nbrs = tuple(inst.neighbors_of_blue(v))
        if reused((j, nbrs)):
            continue
        for beta, u in enumerate(nbrs, start=1):
            i, alpha = pos[u]
            xlo, ylo, xhi, yhi = lay.z_box(i, j, alpha, 2 * beta)
            left_c, right_c = (BLUE, RED) if beta % 2 == 1 else (RED, BLUE)
            num = (j - 1) * d + beta
            add(left_c, xlo + 1, F(ylo * den + num, den),
                ("functional", j, beta, "BL", i, alpha))
            add(right_c, xhi - 1, F(yhi * den - num, den),
                ("functional", j, beta, "TR", i, alpha))

    # guards: one shared y, middle of every even vertical strip, colors
    # alternating within a track and matching across track boundaries
    if not reused("guards and enforcers"):
        for j in range(1, n + 1):
            for r in range(1, d + 1):
                xlo, _ = lay.v_strip(j, 2 * r)
                color = BLUE if (r + j) % 2 == 0 else RED
                add(color, xlo + U // 2, GUARD_Y, ("guard", j, r))

        # enforcers: pair A forces a horizontal line at the H_0/H_1
        # boundary, pair B at the H_k/H_{k+1} boundary, pair C a vertical
        # at V_0/V_1
        h1_lo, _ = lay.h_track(1)
        _, hk_hi = lay.h_track(k)
        y_top_mid = hk_hi + 2 * U
        add(BLUE, U, GUARD_Y, ("enforcer", "A", "low"))
        add(RED, U, h1_lo + 1, ("enforcer", "A", "high"))
        add(RED, 3 * U, hk_hi - 1, ("enforcer", "B", "low"))
        add(BLUE, 3 * U, y_top_mid, ("enforcer", "B", "high"))
        add(BLUE, 4 * U - 2, y_top_mid, ("enforcer", "C", "left"))
        add(RED, 4 * U + 2, y_top_mid, ("enforcer", "C", "right"))

    red = ReducedInstance(pts, lay.p, lay.q, lay)
    validate_layout(red)
    return red


_ORDER_SEARCH_SETS = 64    # max colorful selections to enumerate
_ORDER_SEARCH_SPACE = 720  # max neighbor-ordering combinations to try


def reduce_instance(norm: NormalizedCRBDS) -> ReducedInstance:
    """The planar instance of `norm`.  Sets `norm.inst` to the instance
    whose neighbour ordering the search below chose (a new `CRBDS`, or the
    same one); no `CRBDS` is changed."""
    inst = norm.inst
    parts: dict = {}
    red = _emit(norm, parts)
    # Which dominating sets admit a canonical separating family depends on
    # the per-blue neighbor ordering: it fixes which box column (and hence
    # which corner orientation) every edge pair occupies.  At small scale,
    # search the orderings for one under which every colorful dominating set
    # lifts; otherwise keep the one that serves the most sets.  Instances
    # whose search space exceeds the caps keep the default ordering.
    if math.prod(len(cls) for cls in inst.classes) > _ORDER_SEARCH_SETS:
        return red
    sets = list(colorful_dominating_sets(inst))
    if not sets:
        return red
    space = 1
    for v in inst.blues:
        space *= math.factorial(inst.degree(v))
        if space > _ORDER_SEARCH_SPACE:
            return red

    def score(cand, r, floor):
        """How many sets lift under `cand`, or at most `floor` once the
        misses leave it unable to score more than `floor`."""
        total, misses_left = 0, len(sets) - floor
        for s in sets:
            try:
                lift(cand, r, s)
            except (InvalidDominatingSet, NotSeparating):
                misses_left -= 1
                if not misses_left:
                    return total
                continue
            total += 1
        return total

    best, best_inst, best_score = red, inst, score(norm, red, -1)
    if best_score < len(sets):
        # the first pick keeps every blue's own order: that is `red`
        for pick in islice(product(*(permutations(inst.neighbors_of_blue(v))
                                     for v in inst.blues)), 1, None):
            cand = replace(norm, inst=replace(inst, order={
                v: list(p) for v, p in zip(inst.blues, pick)}))
            r = _emit(cand, parts)
            sc = score(cand, r, best_score)
            if sc > best_score:
                best, best_inst, best_score = r, cand.inst, sc
                if sc == len(sets):
                    break
    norm.inst = best_inst
    return best


def validate_layout(red: ReducedInstance) -> None:
    """Structural facts every reduced instance must satisfy."""
    lay, pts = red.layout, red.points
    k, n, d = lay.k, lay.n, lay.d
    _require(len(pts) == 2 * k + 3 * d * n + 6, "point-count formula violated")

    by_role = {}
    for pid, role in lay.roles.items():
        by_role.setdefault(role[0], []).append(pts[pid])
    _require(len(by_role["selector"]) == 2 * k, "selector count is not 2k")
    _require(len(by_role["functional"]) == 2 * d * n,
             "functional point count is not 2dn")
    _require(len(by_role["guard"]) == d * n, "guard count is not dn")
    _require(len(by_role["enforcer"]) == 6, "enforcer count is not 6")

    # coordinates are compared as (numerator, denominator) pairs, which are
    # equal iff the rationals are, without hashing a Fraction
    def x_pair(p):
        return p.x.numerator, p.x.denominator

    def y_pair(p):
        return p.y.numerator, p.y.denominator

    _require(len(set(map(x_pair, by_role["selector"]))) == 1,
             "selectors share x")
    _require(len(set(map(y_pair, by_role["guard"]))) == 1, "guards share y")

    # selector, guard and enforcer pairs share coordinates on purpose (they
    # are the forced separation demands); the functional points must not add
    # accidental demands: among them, equal coordinate implies equal color,
    # and they share no coordinate with any other role
    for axis in (x_pair, y_pair):
        fun_coord: dict = {}
        for p in by_role["functional"]:
            c = axis(p)
            _require(fun_coord.get(c, p.color) == p.color,
                     "opposite-color functional points share a coordinate")
            fun_coord.setdefault(c, p.color)
        others = {axis(p) for role in ("selector", "guard", "enforcer")
                  for p in by_role[role]}
        _require(not others & set(fun_coord),
                 "functional point shares a coordinate with another role")

    # selector color chain across adjacent tracks
    sel = {(lay.roles[p.id][1], lay.roles[p.id][2]): p.color
           for p in by_role["selector"]}
    for i in range(1, k):
        _require(sel[(i, "top")] == sel[(i + 1, "bottom")], "selector chain")

    # no vertical line can separate two functional pairs in one track: span
    # ends are point x-coordinates, so two open spans share a midpoint of
    # consecutive coordinates iff they overlap; compared by order key
    fun: dict[int, dict] = {}
    for p in by_role["functional"]:
        _, j, beta, corner, _, _ = lay.roles[p.id]
        fun.setdefault(j, {}).setdefault(beta, {})[corner] = p.xk
    for track in fun.values():
        spans = sorted((pair["BL"], pair["TR"]) for pair in track.values()
                       if pair["BL"] < pair["TR"])
        _require(all(a[1] <= b[0] for a, b in zip(spans, spans[1:])),
                 "vertical separates two functional pairs")


# the pick of each class `normalize` adds: a leaf of the star on its new
# blue vertex (_v0L, _v0H, _w0), whose only neighbours are that class
_FORCED_PICKS = ("_leafL1", "_leafH1", "_par1")


def lift(norm: NormalizedCRBDS, red: ReducedInstance,
         chosen: list[str]) -> list[AxisLine]:
    """Forward direction: a colorful dominating set yields a separating set
    of exactly p horizontal and q vertical lines (fence + signals + defenders).
    `chosen` may name vertices of the input instance only: each class that
    `normalize` added and `chosen` misses gets its forced pick.  Raises
    NotSeparating if no defender assignment separates.

    The fence and the signals are the same for every assignment, so each
    point's row among them is found once per call; each assignment then
    only places its defenders and is decided in one pass over the points.
    The lines are those the first assignment that `verify_separation`
    passes would give, and a point on a line of the assignment tried
    raises the PointOnLine that `verify_separation` would raise for it.
    """
    layout = red.layout
    inst, k, n, d = norm.inst, layout.k, layout.n, layout.d
    chosen = list(chosen)
    for cls in inst.classes:
        if not any(u in chosen for u in cls):
            chosen += [u for u in cls if u in _FORCED_PICKS]
    if len(chosen) != k:
        raise InvalidDominatingSet(f"expected {k} vertices, got {len(chosen)}")
    f = {}
    for i, cls in enumerate(inst.classes, start=1):
        picks = [a for a, u in enumerate(cls, start=1) if u in chosen]
        if len(picks) != 1:
            raise InvalidDominatingSet(f"class {i} must contribute exactly one vertex")
        f[i] = picks[0]
    chosen_set = set(chosen)
    hits = {}
    for j, v in enumerate(inst.blues, start=1):
        hj = [b for b, u in enumerate(inst.neighbors_of_blue(v), start=1)
              if u in chosen_set]
        if not hj:
            raise InvalidDominatingSet(f"blue vertex {v!r} is not dominated")
        # per track, candidate indices of the pair left for the signal line;
        # an interior index keeps the merged cell between the two adjacent
        # defenders inside the track, so prefer those
        hits[j] = sorted(hj, key=lambda r: (not 1 < r < d, r))

    fixed = []
    # fence: midway between the nearest point coordinates across the
    # H_0/H_1 and H_k/H_{k+1} boundaries and the V_0/V_1 boundary
    h1_lo, _ = layout.h_track(1)
    _, hk_hi = layout.h_track(k)
    fixed.append(AxisLine("H", F(GUARD_Y + (h1_lo + 1), 2)))
    fixed.append(AxisLine("H", F((hk_hi - 1) + (hk_hi + 2 * U), 2)))
    fixed.append(AxisLine("V", F((4 * U - 2) + (4 * U + 2), 2)))
    # signals: one horizontal mid-strip line per track, at the chosen strip
    for i in range(1, k + 1):
        ylo, _ = layout.h_strip(i, f[i])
        fixed.append(AxisLine("H", F(ylo + U // 2)))

    # defenders: d-1 verticals per track, right of the guard before the
    # signal-separated pair g and left of the guard after it.  Any index in
    # hits[j] yields a valid guard cover, but which pairs end up sharing a
    # cell depends on the choice, so search the (small) product of options
    # and return the first assignment that separates.

    def defenders(j, gj):
        """The lines and their order keys; x = xlo + 5/2 or xlo + 3/2,
        built as (2*xlo + 5)/2 or (2*xlo + 3)/2, in lowest terms."""
        out = []
        for r in range(1, d + 1):
            if r == gj:
                continue
            xlo, _ = layout.v_strip(j, 2 * r)
            out.append(AxisLine("V", F(2 * xlo + (5 if r < gj else 3), 2)))
        return out, [order_key(ln.c) for ln in out]

    # One pass per assignment, over the points in input order: a point on
    # a line raises its PointOnLine (the first such point in input order is
    # always reached), any other point's cell records its colour.  The
    # fixed lines are the same for every assignment, so each point's row is
    # found once.
    points = red.points
    hks, fixed_vks = axis_keys(fixed)
    nh = len(hks)
    rows = [bisect_left(hks, p.yk) for p in points]
    options = [[defenders(j, gj) for gj in hits[j]] for j in range(1, n + 1)]

    for assign in product(*options):
        lines = fixed + [ln for defs, _ in assign for ln in defs]
        vks = sorted(fixed_vks + [key for _, keys in assign for key in keys])
        nv = len(vks)
        seen = {}
        mixed = False
        for p, row in zip(points, rows):
            xk, color = p.xk, p.color
            col = bisect_left(vks, xk)
            if ((row < nh and hks[row] == p.yk)
                    or (col < nv and vks[col] == xk)):
                raise _point_on_line(p, lines)
            if seen.setdefault((row, col), color) != color:
                mixed = True
        if not mixed:
            break
    else:
        raise NotSeparating(
            f"no defender assignment separates the lift of {chosen}")
    _require(sum(1 for ln in lines if ln.orient == "H") == layout.p,
             "lift's horizontal line count is not p")
    _require(sum(1 for ln in lines if ln.orient == "V") == layout.q,
             "lift's vertical line count is not q")
    return lines


def extract(red: ReducedInstance, lines: list[AxisLine]) -> list[str]:
    """Reverse direction: read the signal line's strip index in each
    horizontal track and return the corresponding colorful dominating set."""
    if not all(isinstance(ln, AxisLine) for ln in lines):
        raise ValueError("extract reads axis-parallel lines only")
    lay = red.layout
    nh = sum(1 for ln in lines if ln.orient == "H")
    nv = len(lines) - nh
    if nh > lay.p or nv > lay.q:
        raise BudgetViolation(
            f"{nh} horizontal / {nv} vertical lines exceed budgets "
            f"({lay.p}, {lay.q})")
    witness = verify_separation(red.points, lines)
    if witness is not None:
        raise NotSeparating(f"pair {witness} is not separated")

    chosen = []
    # the normalized instance is recoverable from the roles: class i's
    # vertices are indexed by strip position alpha
    class_size = lay.m
    for i in range(1, lay.k + 1):
        lo, hi = lay.h_track(i)
        inside = [ln.c for ln in lines
                  if ln.orient == "H" and lo < ln.c < hi]
        # the signal must split the track's selector pair
        signal = [c for c in inside
                  if lo + U // 2 < c < hi - U // 2]
        if not signal:
            raise NoSignalLine(i)
        rel = (signal[0] - lo) / U
        alpha = int(rel)
        if rel == alpha or not (1 <= alpha <= class_size):
            alpha = 1  # buffer-zone or boundary signal encodes no vertex
        chosen.append((i, alpha))
    return chosen


def extract_vertices(norm: NormalizedCRBDS, red: ReducedInstance,
                     lines: list[AxisLine]) -> list[str]:
    """extract, mapped back to vertex names, with the domination check; the
    picks of the classes `normalize` added (whose names all start with "_",
    as no input name does) are left out, so the answer is in input names."""
    classes = norm.inst.classes
    out = [classes[i - 1][alpha - 1] for i, alpha in extract(red, lines)]
    chosen = set(out)
    for v in norm.inst.blues:
        if not any(u in chosen for u in norm.inst.neighbors_of_blue(v)):
            raise DominationFailure(
                f"extracted set does not dominate {v!r}; the line set "
                "should not have been separating within budgets")
    return [u for u, cls in zip(out, classes)
            if not all(v.startswith("_") for v in cls)]
