"""One SHA-256 digest per instance family of sepline's outputs.

Run from the repository root, once per source tree to compare:

    python3 tools/same_bytes.py --src OLD_CHECKOUT/src
    python3 tools/same_bytes.py --src src

Two trees that print the same lines give the same answers on every
instance of the sweep below.  For each circle instance the digest takes in

* `solve_axis`: its lines in order, kappa, steps and `repair_used`;
* `build_switch_graph`: every edge (i, j) with each orientation and the
  `lo`/`hi` of its overlap, in the order of `edges`;
* `wedge_baseline`: its lines in order;
* `solve_general`: its lines in order, each as its integers a, b, c, and
  its anchors, each as the blue chunk's index and the points p and q;

or the name of the `SeplineError` that a call raised.

The families are `gen_circle` random and alternating instances with
n = 4-64 over many seeds, mirror instances (every point with its images
(+-x, +-y), so coordinates are shared), instances from small-denominator
circle parameters (with the four axis points in half of them) and
instances with 60-digit coordinates.  After each digest the script prints
how many instances the family holds and how many refinement steps and
repairs `solve_axis` made on them, so a sweep that stops reaching those
paths shows.

The `reduction` family is seeded C-RBDS instances with k in {2, 4}, class
size m in {2, 3} and blue degree d in {2, 4}, each with a planted colorful
dominating set.  Its digest takes in, per instance, the text of the planar
and the sidecar documents `sepline reduce` writes, then for each colorful
dominating set the solution document of `lift` and the `{"vertices"}`
document of `extract`, each on the documents read back as the CLI reads
them, or the name of the `SeplineError` raised.  After it the script
prints how many lifts there were and how many raised, and on how many
instances the neighbour-ordering search of `reduce_instance` chose an
order other than the instance's own (`reordered`), so a sweep that stops
reaching `NotSeparating` or a changed order shows.  The whole sweep takes about 30 s on
one core.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

NS = range(4, 65)


def _families():
    from sepline.generate import gen_circle
    from sepline.geometry import (BLUE, RED, ColoredPoint,
                                  circle_point_from_parameter)

    def colored(pts, rng):
        return [ColoredPoint(i, rng.choice([RED, BLUE]), x, y)
                for i, (x, y) in enumerate(pts)]

    def random_points(rng, n, mag_num, mag_den):
        ts = set()
        while len(ts) < n:
            ts.add(Fraction(rng.randint(-mag_num, mag_num),
                            rng.randint(1, mag_den)))
        return [circle_point_from_parameter(t) for t in sorted(ts)]

    def mirror(seed):
        rng = random.Random(seed)
        quarter = {(abs(x), abs(y)) for x, y in random_points(
            rng, rng.randint(1, 12), 300, 300) if x and y}
        pts = [(sx * x, sy * y) for x, y in sorted(quarter)
               for sx in (1, -1) for sy in (1, -1)]
        if rng.random() < 0.5:
            pts += [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                    (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]
        return colored(pts, rng)

    def small_denominators(seed):
        rng = random.Random(seed)
        pts = set(random_points(rng, rng.randint(2, 24), 6, 6))
        if seed % 2:
            pts |= {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                    (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))}
        return colored(sorted(pts), rng)

    def sixty_digit(seed):
        rng = random.Random(seed)
        n = rng.randint(4, 40)
        return colored(random_points(rng, n, 10**30, 10**30), rng)

    return {
        "random": (gen_circle(n, s, "random")
                   for n in NS for s in range(1, 101)),
        "alternating": (gen_circle(n, s, "alternating")
                        for n in NS for s in range(1, 21)),
        "mirror": (mirror(s) for s in range(500)),
        "small-denominator": (small_denominators(s) for s in range(500)),
        "sixty-digit": (sixty_digit(s) for s in range(200)),
    }


def _crbds_instances():
    """C-RBDS instances, each blue vertex with d distinct red neighbours
    (all reds when there are fewer), one of them in the planted set."""
    from sepline.reduction import CRBDS

    for k, m, d, seed in product((2, 4), (2, 3), (2, 4), range(20)):
        rng = random.Random(f"{k} {m} {d} {seed}")
        classes = [[f"u{c}_{a}" for a in range(1, m + 1)]
                   for c in range(1, k + 1)]
        reds = [u for cls in classes for u in cls]
        planted = [rng.choice(cls) for cls in classes]
        blues = [f"v{j}" for j in range(1, rng.randint(1, 4) + 1)]
        edges = set()
        for v in blues:
            nbrs = rng.sample(reds, min(d, len(reds)))
            if not set(nbrs) & set(planted):
                nbrs[0] = rng.choice(planted)
            edges.update((u, v) for u in nbrs)
        yield CRBDS(classes, blues, edges)


def _lines(lines) -> str:
    return ",".join(f"{ln.orient}:{ln.c}" for ln in lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding sepline/")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from sepline import decomposition, solvers
    from sepline.errors import SeplineError

    def axis(points):
        sol = solvers.solve_axis(points)
        tally["steps"] += sol.steps
        tally["repairs"] += sol.repair_used
        return f"{_lines(sol.lines)}|{sol.kappa}|{sol.steps}|{sol.repair_used}"

    def edges(points):
        graph = decomposition.build_switch_graph(
            decomposition.decompose(points))

        def overlap(i, j, o):
            ann = graph.edges[(i, j)]
            if isinstance(ann, str):
                # a tree whose edges hold only their orientations: the
                # overlap of the two switches' intervals
                lo, hi = graph.lo[o], graph.hi[o]
                return f"{max(lo[i], lo[j])[1]},{min(hi[i], hi[j])[1]}"
            return f"{ann[o].lo},{ann[o].hi}"
        return ";".join(f"{i},{j}:" + ",".join(
            f"{o}({overlap(i, j, o)})" for o in ann)
            for (i, j), ann in graph.edges.items())

    def wedge(points):
        return _lines(solvers.wedge_baseline(points).lines)

    def general(points):
        sol = solvers.solve_general(points)
        return "{}|{}".format(
            ",".join(f"{ln.a} {ln.b} {ln.c}" for ln in sol.lines),
            ",".join(f"{i}:{px} {py} {qx} {qy}"
                     for i, (px, py), (qx, qy) in sol.anchors))

    for family, instances in _families().items():
        digest = hashlib.sha256()
        tally = {"instances": 0, "steps": 0, "repairs": 0}
        for points in instances:
            tally["instances"] += 1
            for output in (axis, edges, wedge, general):
                try:
                    record = output(points)
                except SeplineError as exc:
                    record = type(exc).__name__
                digest.update(f"{record}\n".encode())
        counts = " ".join(f"{v:5} {k}" for k, v in tally.items())
        print(f"{family:18} {digest.hexdigest()} {counts}", flush=True)

    from sepline import oracles, reduction, serialization as ser

    def round_trip(inst):
        """The texts `reduce`, `lift` and `extract` write for `inst`."""
        norm = reduction.normalize(inst)
        own = norm.inst
        red = reduction.reduce_instance(norm)
        tally["reordered"] += norm.inst is not own
        planar = ser.dumps(ser.instance_to_doc(red.points, "planar"))
        sidecar = ser.dumps(ser.sidecar_to_doc(norm))
        yield planar + sidecar
        norm, lay = ser.sidecar_from_doc(ser.loads(sidecar))
        _, points = ser.instance_from_doc(ser.loads(planar))
        red = reduction.ReducedInstance(points, lay.p, lay.q, lay)
        for chosen in oracles.colorful_dominating_sets(inst):
            tally["lifts"] += 1
            try:
                lines = reduction.lift(norm, red, chosen)
            except SeplineError as exc:
                tally["failed"] += 1
                yield type(exc).__name__
                continue
            solution = ser.dumps(ser.solution_to_doc("axis", lines))
            yield solution
            try:
                lines = ser.solution_from_doc(ser.loads(solution))[1]
                yield ser.dumps({"vertices": reduction.extract_vertices(
                    norm, red, lines)})
            except SeplineError as exc:
                yield type(exc).__name__

    digest = hashlib.sha256()
    tally = {"instances": 0, "lifts": 0, "failed": 0, "reordered": 0}
    for inst in _crbds_instances():
        tally["instances"] += 1
        try:
            for record in round_trip(inst):
                digest.update(f"{record}\n".encode())
        except SeplineError as exc:
            digest.update(f"{type(exc).__name__}\n".encode())
    counts = " ".join(f"{v:5} {k}" for k, v in tally.items())
    print(f"{'reduction':18} {digest.hexdigest()} {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
