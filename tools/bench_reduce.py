r"""Per-layer timings of `sepline reduce` at fixed seeds, merged into a JSON file.

Run from the repository root, once per source tree to compare:

    python3 tools/bench_reduce.py --src OLD_CHECKOUT/src --label before
    python3 tools/bench_reduce.py --src src --label after

Each run imports `sepline` from `--src` and reduces every instance of a
fixed corpus as `sepline reduce` does: `normalize`, `reduce_instance`, then
the planar and the sidecar documents through `dumps`.  The corpus is the
C-RBDS instances of the benchmark's `per_point` round trips, built by
`bench/corpus.py` with the same parameters: `small_k2/0-1`, `small_k4/0-1`
(whose reduction runs the neighbour-ordering search) and `large_k4/0-1`,
`large_k6/0-1`, `large_k8/0-1` (whose search is skipped by its caps).  The
layers are timed by wrapping the names `reduce_instance` calls through its
module, each without the layers it calls:

* ``normalize``        -- `normalize`
* ``base_emit``        -- the first `_emit` of the call
* ``candidate_emits``  -- every later `_emit`: the search's candidates
* ``validate_layout``  -- every `validate_layout`, base and candidates
* ``score_lifts``      -- every `lift` the search's scoring makes
* ``dumps``            -- the planar and the sidecar documents, built and
                          written as text
* ``total``            -- all of the above, as one `reduce` does them

A run reduces each instance ``--visits`` times and keeps the mean per
call; each number written is the median of ``--repeat`` runs, in seconds,
on the host the script runs on.  One more untimed pass counts, per call,
the `_emit` and `lift` calls and the `ColoredPoint`s `reduction` builds.
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

ROOT = Path(__file__).resolve().parent.parent

# (name, k, m, d, blues by instance index, multi) as bench/workloads.py
CLASSES = [("small_k2", 2, 3, 2, (3, 4), None),
           ("small_k4", 4, 2, 2, (3, 4, 5), None),
           ("large_k4", 4, 4, 4, (16,), 2),
           ("large_k6", 6, 4, 4, (16,), 2),
           ("large_k8", 8, 4, 4, (24,), 2)]

LAYERS = ("normalize", "base_emit", "candidate_emits", "validate_layout",
          "score_lifts", "dumps", "total")


def corpus():
    """(name, CRBDS) of every instance, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as bench_corpus
    from sepline.serialization import crbds_from_doc

    for name, k, m, d, ns, multi in CLASSES:
        for i in range(2):
            doc, _ = bench_corpus.crbds(k, m, d, ns[i % len(ns)], i, multi)
            yield f"{name}/{i}", crbds_from_doc(doc)


def reduce_once(reduction, ser, inst, spent):
    """One `sepline reduce` of `inst`, its layers added to `spent`."""
    emit, validate, lift = (reduction._emit, reduction.validate_layout,
                            reduction.lift)
    emits = 0

    def timed_emit(*args):
        nonlocal emits
        layer = "candidate_emits" if emits else "base_emit"
        emits += 1
        inner = spent["validate_layout"]
        t0 = time.perf_counter()
        try:
            return emit(*args)
        finally:
            spent[layer] += (time.perf_counter() - t0
                             - (spent["validate_layout"] - inner))

    def timed(fn, layer):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[layer] += time.perf_counter() - t0
        return wrapper

    reduction._emit = timed_emit
    reduction.validate_layout = timed(validate, "validate_layout")
    reduction.lift = timed(lift, "score_lifts")
    try:
        t0 = time.perf_counter()
        norm = reduction.normalize(inst)
        t1 = time.perf_counter()
        red = reduction.reduce_instance(norm)
        t2 = time.perf_counter()
        ser.dumps(ser.instance_to_doc(red.points, "planar"))
        ser.dumps(ser.sidecar_to_doc(norm))
        t3 = time.perf_counter()
    finally:
        reduction._emit, reduction.validate_layout, reduction.lift = (
            emit, validate, lift)
    spent["normalize"] += t1 - t0
    spent["dumps"] += t3 - t2
    spent["total"] += t3 - t0
    return red


def counts(reduction, inst):
    """`_emit` calls, `lift` calls and points built in one reduce."""
    seen = {"emits": 0, "lifts": 0, "points_built": 0}
    saved = (reduction._emit, reduction.lift, reduction.ColoredPoint)

    def counted(fn, name):
        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    reduction._emit = counted(saved[0], "emits")
    reduction.lift = counted(saved[1], "lifts")
    reduction.ColoredPoint = counted(saved[2], "points_built")
    try:
        red = reduction.reduce_instance(reduction.normalize(inst))
    finally:
        reduction._emit, reduction.lift, reduction.ColoredPoint = saved
    return {"points": len(red.points), **seen}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding sepline/")
    ap.add_argument("--label", required=True, help="e.g. before or after")
    ap.add_argument("--out", default="BENCH_reduce.json")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--visits", type=int, default=20)
    ap.add_argument("--note", default="", help="which tree, e.g. a commit")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from sepline import reduction
    from sepline import serialization as ser

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["description"] = (
        "sepline reduce per-layer seconds per call (median of the runs of "
        "the mean over the visits) on the per_point round trips' C-RBDS "
        "instances; written by tools/bench_reduce.py")
    doc.setdefault("runs", {})[args.label] = {
        "note": args.note, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
        "repeat": args.repeat, "visits": args.visits}
    results = doc.setdefault("instances", {})
    for name, inst in corpus():
        runs = []
        for _ in range(args.repeat):
            spent = dict.fromkeys(LAYERS, 0.0)
            gc.collect()
            for _ in range(args.visits):
                reduce_once(reduction, ser, inst, spent)
            runs.append(spent)
        layers = {k: round(statistics.median(r[k] for r in runs)
                           / args.visits, 7) for k in LAYERS}
        results.setdefault(name, {})[args.label] = {
            **counts(reduction, inst), **layers}
        print(name, args.label, json.dumps(results[name][args.label]),
              flush=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
