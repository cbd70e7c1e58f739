"""Exponential-time exact baselines at desk scale.

Minimum axis-parallel separation, minimum general-line separation for circle
instances, (p, q)-feasibility with per-orientation budgets, and colorful
red-blue dominating set (whose enumerator `colorful_dominating_sets` sits
next to `CRBDS` in `reduction`).  These are the ground truth the fast
solvers are checked against; the separation oracles share one
candidate-line discretization:

* axis candidates (`geometry.axis_candidates`, which the solver's repair
  also draws from) sit midway between consecutive distinct coordinates,
  so every axis-parallel line is sep-equivalent to a candidate (or
  separates nothing at all);
* general candidates (circle instances) pass through the midpoints of two
  point-free gaps, one representative per unordered gap pair.
"""

from __future__ import annotations

from typing import Optional

from .decomposition import CircleOrder, circle_order
from .errors import NotSeparating, TooLarge
from .geometry import (BLUE, RED, GeneralLine, arc_interior_point,
                       axis_candidates, line_side, line_through)
from .reduction import CRBDS, colorful_dominating_sets

DEFAULT_AXIS_BOUND = 16       # points, for min_axis_separation
DEFAULT_GENERAL_BOUND = 10    # points, for min_general_separation_circle
PQ_CANDIDATE_BOUND = 120      # axis candidates, for feasible_pq
RBDS_SELECTION_BOUND = 10_000  # selections, for colorful_rbds_solve


def pair_index(points):
    reds = sorted(p.id for p in points if p.color == RED)
    blues = sorted(p.id for p in points if p.color == BLUE)
    return reds, blues


def sep_bitset(points, lines) -> int:
    """Bitset over red x blue pairs separated by at least one line."""
    reds, blues = pair_index(points)
    bits = 0
    nb = len(blues)
    for ln in lines:
        sides = {p.id: line_side(ln, p) for p in points}
        for ri, r in enumerate(reds):
            sr = sides[r]
            for bi, b in enumerate(blues):
                if sr * sides[b] < 0:
                    bits |= 1 << (ri * nb + bi)
    return bits


def full_mask(points) -> int:
    reds, blues = pair_index(points)
    return (1 << (len(reds) * len(blues))) - 1


def general_candidates(order: CircleOrder) -> list[GeneralLine]:
    """One line per unordered pair of gaps between consecutive points of
    the circle order."""
    n = len(order.keys)
    mids = [arc_interior_point(order, i) for i in range(n)]
    cands = []
    for i in range(n):
        for j in range(i + 1, n):
            (px, py), (qx, qy) = mids[i], mids[j]
            cands.append(line_through(px, py, qx, qy))
    return cands


def _covers(points, cands) -> list[int]:
    return [sep_bitset(points, [c]) for c in cands]


def _min_separation(points, cands):
    """(k*, witness lines): the fewest of `cands` that separate `points`.
    Raises NotSeparating, naming the first red and blue that no candidate
    separates, if there are none."""
    covers = _covers(points, cands)
    target = missing = full_mask(points)
    for c in covers:
        missing &= ~c
    if missing:
        reds, blues = pair_index(points)
        r, b = divmod((missing & -missing).bit_length() - 1, len(blues))
        raise NotSeparating(
            f"no line separates points {reds[r]} and {blues[b]}")
    sol = _min_cover(covers, target)
    return len(sol), [cands[i] for i in sol]


def _min_cover(covers: list[int], target: int) -> list[int]:
    """Minimum subset of `covers` whose union is `target`, which the union
    of all of them covers; lexicographically least among the optima (by
    candidate index sequence)."""
    if target == 0:
        return []
    m = len(covers)

    # phase 1: optimal size, branching over candidates by coverage descending
    order = sorted(range(m), key=lambda i: (-bin(covers[i] & target).count("1"), i))
    max_gain = bin(covers[order[0]] & target).count("1")
    suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix[k] = suffix[k + 1] | covers[order[k]]
    best = m + 1

    def bnb(k, acc, count):
        nonlocal best
        missing = target & ~acc
        if missing == 0:
            best = min(best, count)
            return
        lb = -(-bin(missing).count("1") // max_gain)
        if count + lb >= best:
            return
        if k == m or (acc | suffix[k]) & target != target:
            return
        c = covers[order[k]]
        if c & missing:
            bnb(k + 1, acc | c, count + 1)
        bnb(k + 1, acc, count)

    bnb(0, 0, 0)

    # phase 2: lexicographically least witness of the optimal size
    nat_suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        nat_suffix[k] = nat_suffix[k + 1] | covers[k]

    def lex(start, acc, chosen):
        missing = target & ~acc
        if missing == 0:
            return list(chosen)
        if len(chosen) == best or (acc | nat_suffix[start]) & target != target:
            return None
        for i in range(start, m):
            if covers[i] & missing == 0:
                continue
            chosen.append(i)
            got = lex(i + 1, acc | covers[i], chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return lex(0, 0, [])


def min_axis_separation(points):
    """(k*, witness axis lines): exact minimum axis-parallel separation.
    Axis candidates split every pair of distinct points, so only a red and
    a blue at one position raise NotSeparating."""
    points = list(points)
    if len(points) > DEFAULT_AXIS_BOUND:
        raise TooLarge(f"{len(points)} points exceeds oracle bound "
                       f"{DEFAULT_AXIS_BOUND}")
    return _min_separation(points, axis_candidates(points))


def min_general_separation_circle(points):
    """(k*, witness lines): exact minimum separation by arbitrary lines,
    for points on the unit circle.  Raises as `circle_order` does on an
    instance that is not one of distinct circle points."""
    points = list(points)
    order = circle_order(points)
    if len(points) > DEFAULT_GENERAL_BOUND:
        raise TooLarge(f"{len(points)} points exceeds oracle bound "
                       f"{DEFAULT_GENERAL_BOUND}")
    if full_mask(points) == 0:
        return 0, []
    return _min_separation(points, general_candidates(order))


def feasible_pq(points, p: int, q: int):
    """Exact decision: can <= p horizontal plus <= q vertical lines separate?

    Returns a witness line list, or None for infeasible.  Raises ValueError
    if p or q is negative.
    """
    if p < 0 or q < 0:
        raise ValueError(f"budgets must be >= 0, got p={p}, q={q}")
    points = list(points)
    cands = axis_candidates(points)
    if len(cands) > PQ_CANDIDATE_BOUND:
        raise TooLarge(f"{len(cands)} candidates exceeds pq bound "
                       f"{PQ_CANDIDATE_BOUND}")
    covers = _covers(points, cands)
    target = full_mask(points)
    is_h = [c.orient == "H" for c in cands]

    union_h = union_v = 0
    for c, h in zip(covers, is_h):
        if h:
            union_h |= c
        else:
            union_v |= c
    if (union_h | union_v) & target != target:
        return None

    # pair -> candidate indices that separate it
    npairs = target.bit_length()
    by_pair = [[] for _ in range(npairs)]
    for i, c in enumerate(covers):
        m = c & target
        while m:
            b = (m & -m).bit_length() - 1
            by_pair[b].append(i)
            m &= m - 1

    def search(acc, hp, vq, banned):
        missing = target & ~acc
        if missing == 0:
            return []
        # branch on the uncovered pair with fewest usable candidates
        best_pair, best_opts = None, None
        m = missing
        while m:
            b = (m & -m).bit_length() - 1
            opts = [i for i in by_pair[b] if i not in banned
                    and (hp > 0 if is_h[i] else vq > 0)]
            if not opts:
                return None
            if best_opts is None or len(opts) < len(best_opts):
                best_pair, best_opts = b, opts
                if len(opts) == 1:
                    break
            m &= m - 1
        for i in best_opts:
            sub = search(acc | covers[i],
                         hp - (1 if is_h[i] else 0),
                         vq - (0 if is_h[i] else 1),
                         banned | {i})
            if sub is not None:
                return [i] + sub
        return None

    sol = search(0, p, q, frozenset())
    if sol is None:
        return None
    return [cands[i] for i in sorted(sol)]


def colorful_rbds_solve(inst: CRBDS) -> Optional[list[str]]:
    """First colorful dominating set in lexicographic selection order, or None."""
    total = 1
    for cls in inst.classes:
        total *= max(1, len(cls))
        if total > RBDS_SELECTION_BOUND:
            raise TooLarge(f"{total} selections exceeds bound "
                           f"{RBDS_SELECTION_BOUND}")
    return next(colorful_dominating_sets(inst), None)
