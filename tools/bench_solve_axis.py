"""Per-layer timings of `solve_axis` at fixed seeds, merged into a JSON file.

Run from the repository root, once per source tree to compare:

    python3 tools/bench_solve_axis.py --src OLD_CHECKOUT/src --label before
    python3 tools/bench_solve_axis.py --src src --label after

Each run imports `sepline` from `--src`, solves every instance of the fixed
corpus with `solve_axis`, and writes its numbers under `--label`, keeping
whatever the output file holds under other labels.  The layers are timed by
wrapping the names `solve_axis` calls through its module:

* ``decompose``      -- `decompose`
* ``switch_graph``   -- `build_switch_graph` minus the edge cover inside it
* ``edge_cover``     -- `matching.minimum_edge_cover`
* ``L0``             -- `build_L0`
* ``refine_step``    -- every `refine_step` call, summed
* ``partition``      -- every `cell_map` call through `solvers`; a tree
                        whose `refine_step` or `_strictly_dominates` makes
                        those calls counts that time in both layers
* ``domination``     -- `_strictly_dominates`, the strict-domination check
                        of every accepted step
* ``repair``         -- `_repair_around` (see ``repair_used``)
* ``total``          -- the whole `solve_axis` call

There is no final-verification layer: `solve_axis` checks the cell
partition its loop ends on and partitions no arrangement twice, so that
check is part of ``partition``.  Older rows under other labels may hold a
``final_verify`` column, the separate `verify_separation` call a tree of
that time made.

Times are the median over ``--repeat`` runs at every n, each run after a
`gc.collect()`, in seconds, on the host the script runs on.  ``--max-n``
skips larger instances, for trees whose quadratic layers would take
minutes there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# (n, seed, pattern): the two-step and one-step instances, then no-step
# instances up to n = 10**5
CORPUS = [(320, 2, "random"), (480, 1, "random"), (640, 3, "random"),
          (1280, 1, "random"), (5120, 1, "random"), (10_000, 1, "random"),
          (10_000, 1, "alternating"), (10**5, 1, "random"),
          (10**5, 1, "alternating")]

LAYERS = ("decompose", "switch_graph", "edge_cover", "L0", "refine_step",
          "partition", "domination", "repair", "total")


def _install(solvers, matching, spent):
    """Wrap the layer functions at the names solve_axis looks them up by."""
    def wrap(mod, name, layer):
        fn = getattr(mod, name, None)
        if fn is None:
            return

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0
        setattr(mod, name, timed)

    wrap(solvers, "decompose", "decompose")
    wrap(solvers, "build_switch_graph", "switch_graph")
    wrap(matching, "minimum_edge_cover", "edge_cover")
    wrap(solvers, "build_L0", "L0")
    wrap(solvers, "refine_step", "refine_step")
    wrap(solvers, "cell_map", "partition")
    wrap(solvers, "_strictly_dominates", "domination")
    wrap(solvers, "_repair_around", "repair")


def run_once(solvers, matching, points):
    """Per-layer seconds of one `solve_axis(points)`, and its shape."""
    spent = dict.fromkeys(LAYERS, 0.0)
    saved = (dict(vars(solvers)), dict(vars(matching)))
    _install(solvers, matching, spent)
    gc.collect()
    try:
        t0 = time.perf_counter()
        sol = solvers.solve_axis(points)
        spent["total"] = time.perf_counter() - t0
    finally:
        for mod, names in zip((solvers, matching), saved):
            for name, val in names.items():
                setattr(mod, name, val)
    # the edge cover runs inside build_switch_graph
    spent["switch_graph"] -= spent["edge_cover"]
    info = {"w": solvers.decompose(points).w, "kappa": sol.kappa,
            "steps": sol.steps, "repair_used": sol.repair_used}
    return spent, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding sepline/")
    ap.add_argument("--label", required=True, help="e.g. before or after")
    ap.add_argument("--out", default="BENCH_solve_axis.json")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=None)
    ap.add_argument("--note", default="", help="which tree, e.g. a commit")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from sepline import matching, solvers
    from sepline.generate import gen_circle

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["description"] = (
        "solve_axis per-layer seconds (median of the runs) on "
        "gen_circle(n, seed, pattern); written by tools/bench_solve_axis.py")
    doc.setdefault("runs", {})[args.label] = {
        "note": args.note, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0))}
    results = doc.setdefault("instances", {})
    for n, seed, pattern in CORPUS:
        if args.max_n is not None and n > args.max_n:
            continue
        name = f"{pattern}/{n}/{seed}"
        points = gen_circle(n, seed, pattern)
        runs = [run_once(solvers, matching, points)
                for _ in range(args.repeat)]
        layers = {k: round(statistics.median(r[0][k] for r in runs), 6)
                  for k in LAYERS}
        results.setdefault(name, {})[args.label] = {**runs[0][1], **layers}
        print(name, args.label, json.dumps(results[name][args.label]),
              flush=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
