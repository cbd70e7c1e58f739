"""One SHA-256 digest per instance family of the axis solver's outputs.

Run from the repository root, once per source tree to compare:

    python3 tools/same_bytes.py --src OLD_CHECKOUT/src
    python3 tools/same_bytes.py --src src

Two trees that print the same lines give the same answers on every
instance of the sweep below.  For each instance the digest takes in

* `solve_axis`: its lines in order, kappa, steps and `repair_used`;
* `build_switch_graph`: every edge (i, j) with each orientation and the
  `lo`/`hi` of its overlap, in the order of `edges`;
* `wedge_baseline`: its lines in order;

or the name of the `SeplineError` that a call raised.

The families are `gen_circle` random and alternating instances with
n = 4-64 over many seeds, mirror instances (every point with its images
(+-x, +-y), so coordinates are shared), instances from small-denominator
circle parameters (with the four axis points in half of them) and
instances with 60-digit coordinates.  After each digest the script prints
how many instances the family holds and how many refinement steps and
repairs `solve_axis` made on them, so a sweep that stops reaching those
paths shows.  The sweep takes about 30 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
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
        return ";".join(f"{i},{j}:" + ",".join(
            f"{o}({itv.lo},{itv.hi})" for o, itv in ann.items())
            for (i, j), ann in graph.edges.items())

    def wedge(points):
        return _lines(solvers.wedge_baseline(points).lines)

    for family, instances in _families().items():
        digest = hashlib.sha256()
        tally = {"instances": 0, "steps": 0, "repairs": 0}
        for points in instances:
            tally["instances"] += 1
            for output in (axis, edges, wedge):
                try:
                    record = output(points)
                except SeplineError as exc:
                    record = type(exc).__name__
                digest.update(f"{record}\n".encode())
        counts = " ".join(f"{v:5} {k}" for k, v in tally.items())
        print(f"{family:18} {digest.hexdigest()} {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
