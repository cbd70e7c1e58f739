r"""Per-layer timings of `solve_general` at fixed seeds, merged into a JSON file.

Run from the repository root, once per source tree to compare:

    python3 tools/bench_solve_general.py --src OLD_CHECKOUT/src \
        --label before --max-n 10000
    python3 tools/bench_solve_general.py --src src --label after

Each run imports `sepline` from `--src`, solves every instance of the fixed
corpus with `solve_general`, and writes its numbers under `--label`,
keeping whatever the output file holds under other labels.  The layers are
timed by wrapping the names `solve_general` calls through its module:

* ``decompose``    -- `decompose`
* ``anchors``      -- every `arc_interior_point` call, summed
* ``lines``        -- every `line_through` call, summed
* ``final_check``  -- the certificate `_certify_general`, or in a tree
                      without it the `verify_separation` call
* ``total``        -- the whole `solve_general` call

Times are the median over ``--repeat`` runs at every n, each run after a
`gc.collect()`, in seconds, on the host the script runs on.  ``--max-n``
skips larger instances, for trees whose O(n L) final check would take
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

CORPUS = [(n, 1, pattern) for n in (1280, 5120, 10_000, 40_000)
          for pattern in ("random", "alternating")]

LAYERS = ("decompose", "anchors", "lines", "final_check", "total")

WRAPPED = {"decompose": "decompose", "arc_interior_point": "anchors",
           "line_through": "lines", "_certify_general": "final_check",
           "verify_separation": "final_check"}


def run_once(solvers, points):
    """Per-layer seconds of one `solve_general(points)`, and its size."""
    spent = dict.fromkeys(LAYERS, 0.0)
    saved = dict(vars(solvers))

    def wrap(fn, layer):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0
        return timed

    for name, layer in WRAPPED.items():
        if name in saved:
            setattr(solvers, name, wrap(saved[name], layer))
    gc.collect()
    try:
        t0 = time.perf_counter()
        sol = solvers.solve_general(points)
        spent["total"] = time.perf_counter() - t0
    finally:
        for name, val in saved.items():
            setattr(solvers, name, val)
    return spent, {"size": sol.size}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding sepline/")
    ap.add_argument("--label", required=True, help="e.g. before or after")
    ap.add_argument("--out", default="BENCH_solve_general.json")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=None)
    ap.add_argument("--note", default="", help="which tree, e.g. a commit")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from sepline import solvers
    from sepline.generate import gen_circle

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["description"] = (
        "solve_general per-layer seconds (median of the runs) on "
        "gen_circle(n, seed, pattern); written by tools/bench_solve_general.py")
    doc.setdefault("runs", {})[args.label] = {
        "note": args.note, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
        "repeat": args.repeat}
    results = doc.setdefault("instances", {})
    for n, seed, pattern in CORPUS:
        if args.max_n is not None and n > args.max_n:
            continue
        name = f"{pattern}/{n}/{seed}"
        points = gen_circle(n, seed, pattern)
        runs = [run_once(solvers, points) for _ in range(args.repeat)]
        layers = {k: round(statistics.median(r[0][k] for r in runs), 6)
                  for k in LAYERS}
        results.setdefault(name, {})[args.label] = {**runs[0][1], **layers}
        print(name, args.label, json.dumps(results[name][args.label]),
              flush=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
