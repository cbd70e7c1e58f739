"""Acceptance gate: the eight desk-scale acceptance criteria.

Each test prints exactly one [PASS]/[FAIL] line (on the real stderr, so it
survives pytest capture) and fails the suite on any violation.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from sepline import solvers
from sepline.decomposition import build_switch_graph, decompose
from sepline.errors import GuaranteeViolated
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, ColoredPoint, angular_positions,
                              cell_arcs, circle_point_from_parameter,
                              verify_separation)
from sepline.matching import maximum_matching, minimum_edge_cover
from sepline.oracles import (colorful_rbds_solve, feasible_pq,
                             min_axis_separation,
                             min_general_separation_circle)
from sepline.reduction import (extract_vertices, lift, normalize,
                               reduce_instance, validate_layout)
from sepline.solvers import solve_axis, solve_general, wedge_baseline

from conftest import axis_coords, line_stabs_switch
from test_reduction import _small_instances, toy
from test_solvers import FLIP_DIRECTIONS

F = Fraction


def _arcs(pts, lines):
    return cell_arcs(angular_positions(pts), *axis_coords(lines))


def _report(ok: bool, label: str, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    import conftest
    conftest.acceptance_lines.append(line)
    print(line, file=sys.__stderr__)
    assert ok, line


def _corpus(count, max_n, seed0):
    patterns = ["random", "alternating"]
    out = []
    for t in range(count):
        n = 2 + (t * 7 + seed0) % (max_n - 1)
        if t % 3 == 2 and n >= 2:
            rng = random.Random(seed0 + t)
            runs, left = [], n
            while left:
                r = rng.randint(1, left)
                runs.append(r)
                left -= r
            pattern = "chunked:" + ",".join(map(str, runs))
        else:
            pattern = patterns[t % 3]
        out.append(gen_circle(n, seed0 + t, pattern))
    return out


@pytest.fixture(scope="module")
def axis_runs():
    """Shared corpus for criteria 2, 4 and 5: 500 solved axis instances,
    each with every arrangement its refinement loop examined and the
    rare-path events of its solve: the direction of each flip, and the
    cause ("large" or "other") of each stuck cell sent to repair."""
    runs = []
    flip, repair = solvers._flip, solvers._repair_around
    for pts in _corpus(500, 12, 20_000):
        arrangements, events = [], []

        def flipping(points, lines, cm, arcs, sig, orient, step):
            events.append(FLIP_DIRECTIONS[(orient, step)])
            return flip(points, lines, cm, arcs, sig, orient, step)

        def repairing(points, sol, cm, sig, graph):
            stuck = _arcs(points, sol.lines)[sig]
            events.append("other" if len(stuck) == 2 else "large")
            return repair(points, sol, cm, sig, graph)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_flip", flipping)
            mp.setattr(solvers, "_repair_around", repairing)
            sol = solve_axis(pts, arrangements.append)
        dec = decompose(pts)
        runs.append((pts, dec, sol, arrangements, events))
    return runs


def test_criterion_1_general_optimality():
    bad = 0
    for pts in _corpus(500, 10, 10_000):
        sol = solve_general(pts)
        dec = decompose(pts)
        k_opt, _ = min_general_separation_circle(pts)
        if not (2 * sol.size == dec.w and sol.size == k_opt
                and verify_separation(pts, sol.lines) is None):
            bad += 1
    _report(bad == 0, "criterion 1 (general-line optimality)",
            f"500 instances, size = w/2 = oracle, {bad} violations")


def test_criterion_2_axis_optimality(axis_runs):
    bad = 0
    for pts, dec, sol, *_ in axis_runs:
        k_opt, _ = min_axis_separation(pts)
        kappa = build_switch_graph(dec).kappa if dec.w else 0
        if not (sol.size == kappa == k_opt
                and verify_separation(pts, sol.lines) is None):
            bad += 1
    _report(bad == 0, "criterion 2 (axis-parallel optimality)",
            f"500 instances, size = kappa = oracle, {bad} violations")


def test_criterion_3_named_instances(pts4, diag):
    ok = True
    sol = solve_axis(pts4)
    ok &= sol.size == 2 == min_axis_separation(pts4)[0]
    g = build_switch_graph(decompose(diag))
    ok &= solve_axis(diag).size == 2 and sorted(g.isolated) == [0, 1]
    for n in range(1, 7):
        pts = []
        for i in range(2 * n):
            x, y = circle_point_from_parameter(F(i - n, n + 1))
            pts.append(ColoredPoint(i, RED if i % 2 == 0 else BLUE, x, y))
        ok &= solve_axis(pts).size == n == min_axis_separation(pts)[0]
    _report(ok, "criterion 3 (named instances)",
            "PTS4 kappa=2, DIAG kappa=2 isolated switches, "
            "alternating 2n -> kappa=n for n<=6")


def test_criterion_4_refinement_invariants(axis_runs):
    violations = steps = repairs = 0
    events = Counter()
    for pts, dec, sol, arrangements, run_events in axis_runs:
        steps += sol.steps
        repairs += sol.repair_used
        events.update(run_events)
        r = sum(1 for p in pts if p.color == RED)
        b = len(pts) - r
        if sol.steps > r * b:
            violations += 1
        for step in arrangements:
            arcs = [len(a) for a in _arcs(pts, step.lines).values()]
            if max(arcs, default=0) > 4:
                violations += 1
            if sum(1 for m in arcs if m >= 3) > 1:
                violations += 1
        # every line set the solver returned still stabs every switch
        for sw in dec.switches:
            if not any(line_stabs_switch(ln.orient, ln.c, sw)
                       for ln in sol.lines):
                violations += 1
    flips = ", ".join(f"{d} {events[d]}"
                      for d in ("up", "down", "left", "right"))
    _report(violations == 0, "criterion 4 (refinement invariants)",
            "arcs<=4 per cell, <=1 large cell, steps<=r*b, all switches "
            f"stabbed, RepairExhausted never fired; {violations} violations; "
            f"{steps} accepted steps (flips {flips}), {repairs} solves used "
            f"repair (stuck on large {events['large']}, other "
            f"{events['other']}) over {len(axis_runs)} instances")


def test_criterion_5_wedge_baseline(axis_runs):
    bad = 0
    for pts, dec, sol, *_ in axis_runs:
        wb = wedge_baseline(pts)
        kappa = sol.size
        if not (wb.size == dec.w
                and verify_separation(pts, wb.lines) is None
                and (dec.w == 0 or dec.w <= 2 * kappa)):
            bad += 1
    _report(bad == 0, "criterion 5 (wedge baseline)",
            f"size = w and w <= 2*kappa on all 500 instances, {bad} bad")


def _brute_max_matching(n, edges):
    best = 0

    def go(es, used, count):
        nonlocal best
        best = max(best, count)
        for t, (a, b) in enumerate(es):
            if a not in used and b not in used:
                go(es[t + 1:], used | {a, b}, count + 1)

    go(list(edges), frozenset(), 0)
    return best


def test_criterion_6_matching():
    rng = random.Random(606)
    bad = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = {tuple(sorted(e))
                 for e in combinations(range(n), 2) if rng.random() < 0.4}
        edges = sorted(edges)
        nu = _brute_max_matching(n, edges)
        if len(maximum_matching(n, edges)) != nu:
            bad += 1
            continue
        touched = {v for e in edges for v in e}
        if len(touched) == n and n > 0:
            if len(minimum_edge_cover(n, edges)) != n - nu:
                bad += 1
    _report(bad == 0, "criterion 6 (matching correctness)",
            f"200 random graphs vs exhaustive + Gallai identity, {bad} bad")


def test_criterion_7_reduction_equivalence():
    insts = _small_instances() + [toy()]
    bad = 0
    for inst in insts:
        norm = normalize(inst)
        red = reduce_instance(norm)
        yes = colorful_rbds_solve(inst) is not None
        geo = feasible_pq(red.points, red.p, red.q)
        if (geo is not None) != yes:
            bad += 1
            continue
        if geo is not None:
            s = extract_vertices(norm, red, geo)
            lines = lift(norm, red, s)
            if verify_separation(red.points, lines) is not None:
                bad += 1
                continue
            if sum(ln.orient == "H" for ln in lines) != red.p or \
               sum(ln.orient == "V" for ln in lines) != red.q:
                bad += 1
    _report(bad == 0, "criterion 7 (reduction equivalence)",
            f"{len(insts) - 1} exhausted instances + toy: oracle agreement "
            f"and lift/extract round-trips, {bad} bad")


def test_criterion_8_layout_assertions():
    insts = _small_instances() + [toy()]
    bad = 0
    for inst in insts:
        norm = normalize(inst)
        red = reduce_instance(norm)
        lay = red.layout
        try:
            validate_layout(red)
        except GuaranteeViolated:
            bad += 1
            continue
        k, n, d = lay.k, lay.n, lay.d
        sel = [p for p in red.points if lay.roles[p.id][0] == "selector"]
        gua = [p for p in red.points if lay.roles[p.id][0] == "guard"]
        if len(red.points) != 2 * k + 3 * d * n + 6 or \
           len({p.x for p in sel}) != 1 or len({p.y for p in gua}) != 1:
            bad += 1
    _report(bad == 0, "criterion 8 (structural layout assertions)",
            f"point formula, shared coordinates, one-pair-per-vertical on "
            f"{len(insts)} reduced instances, {bad} bad")
