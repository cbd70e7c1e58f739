import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import sepline
from sepline import solvers
from sepline.decomposition import build_switch_graph, decompose
from sepline.errors import DominationFailure, RepairExhausted
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, AxisLine, ColoredPoint,
                              arc_interior_point, axis_candidates, axis_keys,
                              cell_map, circle_parameter,
                              circle_point_from_parameter, verify_separation)
from sepline.oracles import (full_mask, min_axis_separation,
                             min_general_separation_circle, sep_bitset)
from sepline.solvers import (AxisSolution, build_L0, refine_step, solve_axis,
                             solve_general, wedge_baseline)

from conftest import arcs_of, line_stabs_switch
from test_golden import _mirror

F = Fraction


def pt(i, color, x, y):
    return ColoredPoint(i, color, F(x), F(y))


def _random_circle_instance(rng, n, bichromatic=False):
    while True:
        ts = set()
        while len(ts) < n:
            ts.add(F(rng.randint(-300, 300), rng.randint(1, 300)))
        pts = [ColoredPoint(i, rng.choice([RED, BLUE]),
                            *circle_point_from_parameter(t))
               for i, t in enumerate(sorted(ts))]
        if not bichromatic or len({p.color for p in pts}) == 2:
            return pts


def alternating_instance(n):
    """2n points in angular order with strictly alternating colors."""
    pts = []
    for i in range(2 * n):
        x, y = circle_point_from_parameter(F(i - n, n + 1))
        pts.append(ColoredPoint(i, RED if i % 2 == 0 else BLUE, x, y))
    return pts


class TestSolveGeneral:
    def test_pts4(self, pts4):
        sol = solve_general(pts4)
        assert sol.size == 2
        assert verify_separation(pts4, sol.lines) is None

    def test_diag_single_line(self, diag):
        sol = solve_general(diag)
        assert sol.size == 1
        assert verify_separation(diag, sol.lines) is None

    def test_monochromatic(self):
        pts = [pt(0, RED, 1, 0), pt(1, RED, 0, 1)]
        assert solve_general(pts).size == 0

    def test_size_is_half_w_and_optimal(self):
        rng = random.Random(61)
        for _ in range(40):
            pts = _random_circle_instance(rng, rng.randint(2, 10))
            sol = solve_general(pts)
            dec = decompose(pts)
            assert 2 * sol.size == dec.w
            assert verify_separation(pts, sol.lines) is None
            k_opt, _ = min_general_separation_circle(pts)
            assert sol.size == k_opt

    def test_anchor_per_blue_chunk(self, pts4):
        sol = solve_general(pts4)
        dec = decompose(pts4)
        blue_idx = [k for k, s in enumerate(dec.switches)
                    if dec.order.colors[s] == BLUE]
        assert [a[0] for a in sol.anchors] == blue_idx


class TestWedgeBaseline:
    def test_pts4(self, pts4):
        sol = wedge_baseline(pts4)
        assert sol.size == 4
        assert verify_separation(pts4, sol.lines) is None

    def test_size_w_and_within_2kappa(self):
        rng = random.Random(67)
        for _ in range(40):
            pts = _random_circle_instance(rng, rng.randint(2, 10))
            dec = decompose(pts)
            sol = wedge_baseline(pts)
            assert sol.size == dec.w
            assert verify_separation(pts, sol.lines) is None
            if dec.w:
                g = build_switch_graph(dec)
                assert g.kappa <= sol.size <= 2 * g.kappa

    def test_antipodal_anchor_is_skipped(self, monkeypatch):
        # the blue chunk's switches are the arcs of parameters (1/3, 1) and
        # (-2, -1), whose first candidates 2/3 and -3/2 are antipodes: both
        # corners of that rectangle lie on the circle, so q avoids -p.y and
        # takes the next candidate, -5/3
        pts = [ColoredPoint(i, c, *circle_point_from_parameter(t))
               for i, (t, c) in enumerate([(F(1, 3), RED), (1, BLUE),
                                           (-2, BLUE), (-1, RED)])]
        picks = []
        pick = solvers.arc_interior_point

        def recording(*args):
            picks.append(pick(*args))
            return picks[-1]
        monkeypatch.setattr(solvers, "arc_interior_point", recording)
        sol = wedge_baseline(pts)
        assert picks == [(F(5, 13), F(12, 13)), (F(-8, 17), F(-15, 17))]
        assert sol.lines == [AxisLine("V", F(5, 13)), AxisLine("H", F(-15, 17))]
        assert verify_separation(pts, sol.lines) is None

    def test_matches_the_copying_reference(self):
        # the forbidden containers grow in place and are tested without a
        # copy; the lines are those of the per-chunk unions
        rng = random.Random(1811)
        sweep = [gen_circle(n, seed, pattern) for pattern in
                 ("random", "alternating") for n in (2, 5, 9, 16, 33, 64)
                 for seed in range(6)]
        sweep += [_mirror(n, seed) for n in (4, 8, 16, 40) for seed in range(6)]
        sweep += [_small_denominator_instance(rng) for _ in range(60)]
        chunks = 0
        for pts in sweep:
            lines = wedge_baseline(pts).lines
            assert lines == _wedge_reference(pts)
            chunks += len(lines) // 2
        assert chunks > 800


def _wedge_reference(points) -> list[AxisLine]:
    """wedge_baseline's lines as it built them before: fresh unions of the
    point coordinates and the corners placed so far, for every blue chunk,
    copied again by each pick."""
    dec = decompose(points)
    if dec.w == 0:
        return []
    order, sw = dec.order, dec.switches
    fx, fy = {p.x for p in points}, {p.y for p in points}
    used_x, used_y = set(), set()
    lines = []
    for k, s in enumerate(sw):
        if order.colors[s] != BLUE:
            continue
        p = arc_interior_point(order, sw[k - 1],
                               set(fx | used_x), set(fy | used_y))
        q = arc_interior_point(order, s,
                               set(fx | used_x | {p[0]}),
                               set(fy | used_y | {p[1], -p[1]}))
        corner = (p[0], q[1]) if q[1] * q[1] < p[1] * p[1] else (q[0], p[1])
        lines += [AxisLine("V", corner[0]), AxisLine("H", corner[1])]
        used_x.add(corner[0])
        used_y.add(corner[1])
    return lines


def _small_denominator_instance(rng):
    """Points at circle parameters a/b with |a|, b <= 12: coordinates with
    small denominators, often shared, and the turning points."""
    n = rng.randint(2, 31)
    ts = set()
    while len(ts) < n:
        ts.add(F(rng.randint(-12, 12), rng.randint(1, 12)))
    return [ColoredPoint(i, rng.choice([RED, BLUE]),
                         *circle_point_from_parameter(t))
            for i, t in enumerate(sorted(ts))]


class TestBuildL0:
    def test_pts4_kappa_lines(self, pts4):
        dec = decompose(pts4)
        g = build_switch_graph(dec)
        sol = build_L0(dec, g)
        assert sol.size == g.kappa == 2

    def test_every_switch_stabbed(self):
        rng = random.Random(71)
        for _ in range(60):
            pts = _random_circle_instance(rng, rng.randint(2, 11))
            dec = decompose(pts)
            if dec.w == 0:
                continue
            g = build_switch_graph(dec)
            sol = build_L0(dec, g)
            assert sol.size == g.kappa
            assert len(set(sol.lines)) == sol.size
            for s in dec.switches:
                assert any(line_stabs_switch(ln.orient, ln.c, dec.order, s)
                           for ln in sol.lines)

    def test_no_tangent_lines(self):
        rng = random.Random(73)
        for _ in range(60):
            pts = _random_circle_instance(rng, rng.randint(2, 11))
            dec = decompose(pts)
            if dec.w == 0:
                continue
            sol = build_L0(dec, build_switch_graph(dec))
            assert all(abs(ln.c) < 1 for ln in sol.lines)


class TestRefineStep:
    def test_done_on_separating(self, pts4):
        dec = decompose(pts4)
        g = build_switch_graph(dec)
        sol = build_L0(dec, g)
        # pts4's L0 already separates; refine must report done unchanged
        outcome, payload = refine_step(sol, dec, g, cell_map(pts4, sol.lines))
        if outcome == "done":
            assert payload is sol
        else:
            assert outcome == "improved"

    def test_each_step_strictly_dominates(self):
        rng = random.Random(79)
        for _ in range(40):
            pts = _random_circle_instance(rng, rng.randint(3, 11))
            dec = decompose(pts)
            if dec.w == 0:
                continue
            g = build_switch_graph(dec)
            sol = build_L0(dec, g)
            while True:
                old = sep_bitset(pts, sol.lines)
                outcome, payload = refine_step(sol, dec, g,
                                               cell_map(pts, sol.lines))
                if outcome != "improved":
                    break
                new = sep_bitset(pts, payload.lines)
                assert new & old == old and new != old
                assert payload.size <= sol.size
                sol = payload


class TestSolveAxis:
    def test_pts4(self, pts4):
        sol = solve_axis(pts4)
        assert sol.size == sol.kappa == 2
        assert verify_separation(pts4, sol.lines) is None

    def test_diag(self, diag):
        sol = solve_axis(diag)
        assert sol.size == 2
        assert verify_separation(diag, sol.lines) is None

    def test_monochromatic(self):
        pts = [pt(0, RED, 1, 0), pt(1, RED, 0, 1)]
        assert solve_axis(pts).size == 0

    def test_alternating(self):
        for n in range(1, 7):
            pts = alternating_instance(n)
            sol = solve_axis(pts)
            assert verify_separation(pts, sol.lines) is None
            k_opt, _ = min_axis_separation(pts)
            assert sol.size == k_opt

    def test_matches_oracle(self):
        rng = random.Random(83)
        for _ in range(60):
            pts = _random_circle_instance(rng, rng.randint(2, 12))
            sol = solve_axis(pts)
            assert verify_separation(pts, sol.lines) is None
            k_opt, _ = min_axis_separation(pts)
            assert sol.size == k_opt
            r = sum(1 for p in pts if p.color == RED)
            assert sol.steps <= r * (len(pts) - r)

    def test_deterministic(self):
        rng = random.Random(89)
        for _ in range(10):
            pts = _random_circle_instance(rng, rng.randint(2, 10))
            a = solve_axis(pts)
            b = solve_axis(pts)
            assert a.lines == b.lines and a.steps == b.steps


def _run_optimized(script):
    """Run `script` under `python -O`, where every `assert` is stripped."""
    src = str(Path(sepline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# solver -> a stub that lets lines through unverified, and an instance on
# which they do not separate.  solve_axis checks the partition its loop
# ends on: a loop stopped at L0 of gen_circle(60, 14), which has 2 corrupt
# cells, must not return it
UNVERIFIED = {
    "solve_axis": ("s.refine_step = lambda sol, *rest: (s._DONE, sol)",
                   "gen_circle(60, 14, 'random')"),
    # every line misses the circle, so its certificate fails
    "solve_general": ("s.line_through = lambda *pq: s.GeneralLine(1, 0, -2)",
                      "gen_circle(16, 7, 'random')"),
}


@pytest.mark.parametrize("solver", sorted(UNVERIFIED))
def test_unverified_lines_raise_without_asserts(solver):
    # a verification that fails must raise NotSeparating under python -O too
    stub, instance = UNVERIFIED[solver]
    _run_optimized("\n".join([
        "import sepline.solvers as s",
        "from sepline.errors import NotSeparating",
        "from sepline.generate import gen_circle",
        stub,
        "try:",
        f"    s.{solver}({instance})",
        "except NotSeparating:",
        "    raise SystemExit(0)",
        "raise SystemExit('returned unverified lines')",
    ]))


def test_broken_invariant_raises_without_asserts():
    # the per-step invariants must raise GuaranteeViolated under python -O too
    _run_optimized("\n".join([
        "import sepline.solvers as s",
        "from sepline.errors import GuaranteeViolated",
        "from sepline.generate import gen_circle",
        "s._unstabbed = lambda hks, vks, graph: list(range(graph.n))",
        "try:",
        "    s.solve_axis(gen_circle(16, 7, 'random'))",
        "except GuaranteeViolated:",
        "    raise SystemExit(0)",
        "raise SystemExit('an unstabbed switch went unnoticed')",
    ]))


def test_non_dominating_step_raises(monkeypatch):
    def unchanged(sol, dec, graph, cm):
        return (solvers._IMPROVED,
                AxisSolution(sol.lines, sol.kappa, sol.steps + 1))
    monkeypatch.setattr(solvers, "refine_step", unchanged)
    with pytest.raises(DominationFailure):
        solve_axis(gen_circle(8, 1, "alternating"))


def test_one_flip_per_step(monkeypatch):
    # a step flips the priority cell only
    pts = gen_circle(60, 14, "random")
    dec = decompose(pts)
    g = build_switch_graph(dec)
    sol = build_L0(dec, g)
    calls = []
    flip = solvers._flip

    def recording(order, lines, cm, arcs, sig, orient, step):
        calls.append(sig)
        return flip(order, lines, cm, arcs, sig, orient, step)
    monkeypatch.setattr(solvers, "_flip", recording)
    outcome, payload = refine_step(sol, dec, g, cell_map(pts, sol.lines))
    assert len(calls) == 1
    assert outcome == "improved"
    assert (payload.steps, payload.size) == (1, sol.size)


# a flip's (orient, step) as the direction of the boundary line it removes
FLIP_DIRECTIONS = {("H", 1): "up", ("H", -1): "down",
                   ("V", -1): "left", ("V", 1): "right"}

# direction -> a gen_circle instance whose one refinement step flips that
# way, and the digest of its `solve --variant axis` output, recorded while
# each direction was still a case of its own
FLIP_CORPUS = {
    "up": ("random/5/173", "75ccbcc4870e1913"),
    "down": ("random/7/149", "54ba58a326ce58eb"),
    "left": ("random/5/57", "b5bae2546023cf7c"),
    "right": ("random/5/146", "1124e098496537cf"),
}


@pytest.mark.parametrize("direction", sorted(FLIP_CORPUS))
def test_flip_corpus(monkeypatch, tmp_path, direction):
    from test_golden import _cli, _write_instance
    name, digest = FLIP_CORPUS[direction]
    taken = []
    flip = solvers._flip

    def recording(points, lines, cm, arcs, sig, orient, step):
        taken.append(FLIP_DIRECTIONS[(orient, step)])
        return flip(points, lines, cm, arcs, sig, orient, step)
    monkeypatch.setattr(solvers, "_flip", recording)
    inst = _write_instance(tmp_path, name)
    assert _cli(tmp_path, "solve", inst, "--variant", "axis") == digest
    assert taken == [direction]


@pytest.mark.parametrize("name", ["alternating/400/1", FLIP_CORPUS["up"][0],
                                  "random/15/1227"])
def test_solve_axis_hashes_no_fraction(monkeypatch, name):
    # angular and interval keys are built from integers and the forbidden
    # coordinates are (numerator, denominator) pairs, so solve_axis (here
    # without a step, with one flip and with repair) never hashes a
    # Fraction, whose hash takes a modular inverse
    pattern, n, seed = name.split("/")
    pts = gen_circle(int(n), int(seed), pattern)
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return fraction_hash(self)
    monkeypatch.setattr(Fraction, "__hash__", counting)
    sol = solve_axis(pts)
    monkeypatch.undo()
    assert (sol.steps, sol.repair_used) == {
        "alternating/400/1": (0, False), FLIP_CORPUS["up"][0]: (1, False),
        "random/15/1227": (0, True)}[name]
    assert hashed == []


def test_failed_flip_precondition_raises_without_asserts():
    # a flip whose neighbour cell is not of one colour must raise
    # GuaranteeViolated under python -O too, not fall back to repair:
    # the partition here reports every monochromatic cell as empty
    _run_optimized("\n".join([
        "import sepline.solvers as s",
        "from sepline.errors import GuaranteeViolated",
        "from sepline.generate import gen_circle",
        "partition = s.cell_map",
        "def uncoloured(points, lines):",
        "    cm = partition(points, lines)",
        "    cm.colors = {sig: cm.colors[sig] for sig in cm.corrupt}",
        "    return cm",
        "s.cell_map = uncoloured",
        "s._repair_around = None",
        "try:",
        "    s.solve_axis(gen_circle(60, 14, 'random'))",
        "except GuaranteeViolated as e:",
        "    raise SystemExit(0 if 'not of one colour' in str(e) else str(e))",
        "raise SystemExit('a failed flip precondition went unnoticed')",
    ]))


def test_failed_repair_raises_without_widening(monkeypatch):
    # gen_circle(15, 1227) gets stuck and needs repair; a repair that finds
    # no candidate line ends the solve instead of starting a wider search
    calls = []

    def no_candidates(points):
        calls.append(len(points))
        return []
    monkeypatch.setattr(solvers, "axis_candidates", no_candidates)
    with pytest.raises(RepairExhausted):
        solve_axis(gen_circle(15, 1227, "random"))
    assert calls == [15]


def test_lost_witness_raises_without_asserts():
    # build_L0 must raise GuaranteeViolated under python -O when an edge
    # interval yields no coordinate: here every edge's overlap is emptied
    _run_optimized("\n".join([
        "import sepline.solvers as s",
        "from sepline.errors import GuaranteeViolated",
        "from sepline.generate import gen_circle",
        "graph = s.build_switch_graph",
        "def emptied(dec):",
        "    g = graph(dec)",
        "    if not g.edge_cover:",
        "        raise SystemExit('no edge to empty')",
        "    for orient in ('H', 'V'):",
        "        g.hi[orient] = list(g.lo[orient])",
        "    return g",
        "s.build_switch_graph = emptied",
        "try:",
        "    s.solve_axis(gen_circle(16, 7, 'random'))",
        "except GuaranteeViolated as e:",
        "    raise SystemExit(0 if 'empty interval' in str(e) else str(e))",
        "raise SystemExit('a missing coordinate went unnoticed')",
    ]))


# Every gen_circle(n, seed, "random") instance known to end in repair, by
# why refine_step got stuck: "other" is a 2-arc corrupt cell with neither a
# horizontal nor a vertical flip, "large" a large cell (3-4 arcs) that is the
# only corrupt cell left.
REPAIR_CORPUS = {
    "other": [(5, 52), (5, 120), (6, 11), (7, 50), (7, 70), (8, 94),
              (8, 120), (10, 11), (10, 25), (10, 52), (11, 95), (11, 112),
              (13, 49), (13, 69), (13, 88), (14, 27), (14, 54), (14, 56),
              (15, 85), (16, 45), (17, 18), (17, 117), (19, 69), (20, 62),
              (20, 120)],
    "large": [(15, 41), (15, 92), (15, 1227), (17, 1), (18, 43), (18, 109),
              (21, 40), (23, 89), (24, 31), (24, 56), (25, 66), (25, 67),
              (32, 18), (33, 110), (34, 14)],
}


def _bitset_replacement(points, keep: list[AxisLine], budget: int):
    """Smallest candidate-set completion of `keep` (lexicographic within each
    size) that fully separates, or None: the exponential size-by-size search
    on pair bitsets that repair ran before, the reference for its
    kappa-tight completion."""
    cands = axis_candidates(points)
    target = full_mask(points)
    base = sep_bitset(points, keep)
    covers = [sep_bitset(points, [c]) for c in cands]
    for size in range(0, max(0, budget) + 1):
        for combo in combinations(range(len(cands)), size):
            bits = base
            for i in combo:
                bits |= covers[i]
            if bits == target:
                return keep + [cands[i] for i in combo]
    return None


def _solve_recording_repair(monkeypatch, pts):
    """solve_axis(pts), and the (solution, partition, stuck cell) of every
    repair call."""
    stuck = []
    repair = solvers._repair_around

    def recording(points, sol, cm, sig, graph):
        stuck.append((sol, cm, sig))
        return repair(points, sol, cm, sig, graph)
    monkeypatch.setattr(solvers, "_repair_around", recording)
    return solve_axis(pts), stuck


def _reference_repair(pts, sol, cm, sig):
    boundary = set(solvers._cell_boundary_lines(sig, cm.hs, cm.vs))
    keep = [ln for ln in sol.lines if ln not in boundary]
    return _bitset_replacement(pts, keep, sol.kappa - len(keep))


def pad(points, f):
    """`points` and, between each two angularly consecutive points of one
    colour, f - 1 more of that colour at circle-parameter fractions k/f of
    the way, except between the two whose arc passes (-1, 0).  The chunks
    grow; the switches stay the same."""
    ts = sorted((circle_parameter(p.x, p.y), p.color) for p in points)
    padded = []
    for (ta, ca), (tb, cb) in zip(ts, ts[1:]):
        padded.append((ta, ca))
        if ca == cb:
            padded += [(ta + (tb - ta) * F(k, f), ca) for k in range(1, f)]
    padded.append(ts[-1])
    return [ColoredPoint(i, c, *circle_point_from_parameter(t))
            for i, (t, c) in enumerate(padded)]


REPAIR_CASES = [(cause, n, seed) for cause, cases in REPAIR_CORPUS.items()
                for n, seed in cases]


@pytest.mark.parametrize("cause,n,seed", REPAIR_CASES, ids=str)
def test_repair_corpus(monkeypatch, cause, n, seed):
    pts = gen_circle(n, seed, "random")
    sol, stuck = _solve_recording_repair(monkeypatch, pts)
    assert sol.repair_used and sol.size == sol.kappa
    assert verify_separation(pts, sol.lines) is None
    [(old, cm, sig)] = stuck
    arcs = arcs_of(pts, old.lines)[sig]
    if cause == "other":
        assert len(arcs) == 2
    else:
        assert len(arcs) >= 3 and cm.corrupt == {sig}
    # the first separating completion of the exponential bitset search
    assert sol.lines == _reference_repair(pts, old, cm, sig)


def test_repair_equals_bitset_reference_padded(monkeypatch):
    pts = pad(gen_circle(34, 14, "random"), 4)
    sol, [stuck] = _solve_recording_repair(monkeypatch, pts)
    assert len(pts) == 94 and sol.repair_used
    assert sol.lines == _reference_repair(pts, *stuck)


@pytest.mark.parametrize("n,seed", [(34, 14), (15, 1227), (10, 11)], ids=str)
def test_padding_keeps_w_and_kappa(n, seed):
    def ends(dec):
        keys = dec.order.keys
        return [(keys[s], keys[(s + 1) % len(keys)]) for s in dec.switches]

    pts = gen_circle(n, seed, "random")
    dec = decompose(pts)
    for f in (2, 5):
        padded = pad(pts, f)
        pdec = decompose(padded)
        assert len(padded) > n and pdec.w == dec.w
        # the ends' angular keys, which fix their positions on the circle
        assert ends(pdec) == ends(dec)
        assert (build_switch_graph(pdec).kappa
                == build_switch_graph(dec).kappa)


def test_padded_repair_is_polynomial(monkeypatch):
    # the size-by-size search took 79 s on this instance padded x16 (n = 334)
    # and 572 s at n = 623; the kappa-tight completion partitions few
    # candidate sets
    pts = pad(gen_circle(34, 14, "random"), 32)
    partitions = 0
    partition = solvers.cell_map

    def counting(points, lines):
        nonlocal partitions
        partitions += bool(points)
        return partition(points, lines)
    monkeypatch.setattr(solvers, "cell_map", counting)
    sol = solve_axis(pts)
    assert len(pts) == 654
    assert (sol.kappa, sol.size, sol.repair_used) == (9, 9, True)
    assert verify_separation(pts, sol.lines) is None
    # L0 and each step are partitioned once; the rest are the completions
    # repair tried, 1,697 of them
    assert partitions - (sol.steps + 1) <= 2000


def _bitset_dominates(pts, old_lines, new_lines):
    """The strict-domination test on red-blue pair bitsets; the reference
    for the cell-partition test in solve_axis."""
    old, new = sep_bitset(pts, old_lines), sep_bitset(pts, new_lines)
    return new & old == old and new != old


def _partition_dominates(pts, old_lines, new_lines):
    return solvers._strictly_dominates(cell_map(pts, old_lines),
                                       cell_map(pts, new_lines), pts)


def test_partition_domination_on_golden_steps():
    from test_golden import GOLDEN, instance
    steps = 0
    for name in sorted(GOLDEN):
        pts = instance(name)
        seen = []
        solve_axis(pts, on_step=lambda sol: seen.append(sol.lines))
        for old, new in zip(seen, seen[1:]):
            assert _partition_dominates(pts, old, new)
            assert _bitset_dominates(pts, old, new)
            # the step backwards dominates under neither test
            assert not _partition_dominates(pts, new, old)
            assert not _bitset_dominates(pts, new, old)
            steps += 1
    assert steps >= 4


def test_partition_domination_equals_bitset_on_random_pairs():
    rng = random.Random(47)
    outcomes = []
    for _ in range(2000):
        pts = _random_circle_instance(rng, rng.randint(2, 9))
        cands = axis_candidates(pts)
        old = rng.sample(cands, rng.randint(0, min(5, len(cands))))
        if rng.random() < 0.6:
            # one line dropped, one added, or one swapped: steps a
            # refinement could take
            new = [ln for ln in old if rng.random() < 0.8]
            new += rng.sample(cands, rng.randint(0, 2))
        else:
            new = rng.sample(cands, rng.randint(0, min(5, len(cands))))
        want = _bitset_dominates(pts, old, new)
        assert _partition_dominates(pts, old, new) == want
        outcomes.append(want)
    assert 100 < sum(outcomes) < 1900


def test_bisection_stab_check_equals_line_loop():
    rng = random.Random(53)
    results = []
    for _ in range(400):
        pts = _random_circle_instance(rng, rng.randint(2, 14))
        dec = decompose(pts)
        # interval ends are point coordinates or +-1: draw lines there and
        # between them, so a line at an open interval's end is common
        coords = sorted({v for p in pts for v in (p.x, p.y)} | {F(-1), F(1)})
        mids = [(a + b) / 2 for a, b in zip(coords, coords[1:])]
        lines = [AxisLine(rng.choice("HV"), rng.choice(coords + mids))
                 for _ in range(rng.randint(0, 6))]
        want = [k for k, s in enumerate(dec.switches)
                if not any(line_stabs_switch(ln.orient, ln.c, dec.order, s)
                           for ln in lines)]
        # keys only: these lines may pass through points
        graph = build_switch_graph(dec)
        assert solvers._unstabbed(*axis_keys(lines), graph) == want
        results.append(not want)
    assert 20 < sum(results) < 380


# (n, seed) -> (kappa, steps) of gen_circle(n, seed, "random"): the two
# golden instances with refinement steps and two larger ones
STEP_INSTANCES = {(60, 14): (17, 2), (100, 34): (30, 2),
                  (480, 1): (154, 2), (640, 3): (216, 1)}


@pytest.mark.parametrize("n,seed", sorted(STEP_INSTANCES) + [
    (n, seed) for _, n, seed in REPAIR_CASES], ids=str)
def test_steps_never_call_sep_bitset(monkeypatch, n, seed):
    # the domination check of every step and every completion repair tries
    # partition the points into cells; the O(L*r*b) pair bitset is for the
    # tests only
    def forbidden(points, lines):
        raise AssertionError("sep_bitset called by solve_axis")
    monkeypatch.setattr(sepline.oracles, "sep_bitset", forbidden)
    pts = gen_circle(n, seed, "random")
    sol = solve_axis(pts)
    if (n, seed) in STEP_INSTANCES:
        kappa, steps = STEP_INSTANCES[(n, seed)]
        assert (sol.kappa, sol.steps, sol.repair_used) == (kappa, steps, False)
    else:
        assert sol.repair_used
    assert sol.size == sol.kappa
    assert verify_separation(pts, sol.lines) is None


@pytest.mark.parametrize("pattern,n,seed,steps",
                         [("random", 60, 14, 2), ("random", 100, 34, 2),
                          ("alternating", 400, 1, 0)],
                         ids=["60-14", "100-34", "alternating-400-1"])
def test_one_partition_per_arrangement(monkeypatch, pattern, n, seed, steps):
    # L0 and each step's arrangement are partitioned once, through solvers
    # or through geometry (verify_separation), and the final arrangement is
    # checked on the loop's partition; the points are sorted by angle once,
    # in circle_order's angular_sort, which keys each point once: the steps
    # read each point's quadrant from those keys
    calls = {"cell_map": 0, "circle_order": 0, "_point_key": 0}

    def counting(mod, name):
        fn = getattr(mod, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(mod, name, wrapped)
    counting(solvers, "cell_map")
    counting(sepline.geometry, "cell_map")
    counting(sepline.decomposition, "circle_order")
    counting(sepline.geometry, "_point_key")
    sol = solve_axis(gen_circle(n, seed, pattern))
    assert sol.steps == steps
    assert calls == {"cell_map": sol.steps + 1, "circle_order": 1,
                     "_point_key": n}
