r"""Per-layer timings of one solver path at fixed seeds, merged into JSON.

Run from the repository root, once per source tree to compare:

    python3 tools/bench_layers.py axis --src OLD_CHECKOUT/src --label before
    python3 tools/bench_layers.py axis --src src --label after

The targets are `axis` (`BENCH_solve_axis.json`), `general`
(`BENCH_solve_general.json`) and `reduce` (`BENCH_reduce.json`).  Each run
imports `sepline` from `--src`, times the target's call on every instance
of its fixed corpus and writes its numbers under `--label`, keeping
whatever the output file holds under other labels.  A layer is a module
attribute of `sepline`, wrapped for the run by a timer that adds its
seconds to the layer's column; an attribute a tree lacks is skipped.

axis: `solve_axis(gen_circle(n, seed, pattern))` up to n = 10**5
* ``decompose``      -- `decompose`
* ``switch_graph``   -- `build_switch_graph` minus the edge cover inside it
* ``edge_cover``     -- `matching.minimum_edge_cover`
* ``L0``             -- `build_L0`
* ``refine_step``    -- every `refine_step` call, summed
* ``partition``      -- every `cell_map` call through `solvers`; a tree
                        whose `refine_step` or `_strictly_dominates` makes
                        those calls counts that time in both layers
* ``domination``     -- `_strictly_dominates` of every accepted step
* ``repair``         -- `_repair_around` (see ``repair_used``)
  Older rows may hold a ``final_verify`` column: the separate
  `verify_separation` call of a tree that did not check the partition its
  loop ends on.
* ``tracked``        -- not a time: the objects the cyclic garbage
                        collector tracks, `len(gc.get_objects())`, per
                        input point, taken when the untimed call first
                        enters `refine_step`; it counts the whole
                        process, so the interpreter's own objects weigh
                        most at small n

general: `solve_general(gen_circle(n, 1, pattern))` up to n = 4 * 10**4
* ``decompose``      -- `decompose`
* ``anchors``        -- every `arc_interior_point` call, summed
* ``lines``          -- every `line_through` call, summed
* ``final_check``    -- the certificate `_certify_general`; in older rows
                        the `verify_separation` call of a tree without it

reduce: `sepline reduce` (`normalize`, `reduce_instance`, then the planar
and the sidecar documents through `dumps`) of the C-RBDS instances of the
benchmark's `per_point` round trips, built by `bench/corpus.py` with the
same parameters
* ``normalize``        -- `normalize`
* ``base_emit``        -- the first `_emit` of a reduce, minus its
                          `validate_layout`
* ``candidate_emits``  -- every later `_emit`, the search's candidates,
                          minus their `validate_layout`
* ``validate_layout``  -- every `validate_layout`, base and candidates
* ``score_lifts``      -- every `lift` the search's scoring makes
* ``dumps``            -- the planar and the sidecar documents, built and
                          written as text

Every target also writes ``total``, the whole call.  A run makes the call
`visits` times (20 for `reduce`, else 1) after a `gc.collect()` and keeps
the mean per call; each number written is the median of ``--repeat`` runs,
in seconds, on the host the script runs on.  One more untimed call gives
the columns that are not times, after a `gc.collect()`: `w`, `kappa`,
`steps`, `repair_used` and `tracked`; `size`; the reduced `points` and the
calls of `_emit` (`emits`) and `lift` (`lifts`) and the `ColoredPoint`s
`reduction` builds (`points_built`).
``--max-n`` skips larger circle instances, for trees whose quadratic
layers would take minutes there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Layer(NamedTuple):
    """The column a wrapped attribute's seconds go to: `later` takes every
    call after the first of a visit, and the seconds the `minus` column
    gains during a call are not counted twice."""
    column: str
    minus: Optional[str] = None
    later: Optional[str] = None


class Target(NamedTuple):
    out: str
    description: str
    corpus: Callable      # (sepline, max_n) -> (name, input) pairs
    layers: dict          # "module.attr" -> Layer
    call: Callable        # (sepline, input) -> result, timed as ``total``
    report: Callable      # (sepline, input, result) -> non-timing columns
    counts: dict = {}     # "module.attr" -> column of its calls per visit
    visits: int = 1
    tracked: Optional[str] = None  # "module.attr" at whose first call the
    # untimed call's tracked objects per input point are counted


def _circles(spec):
    def corpus(sl, max_n):
        for n, seed, pattern in spec:
            if max_n is None or n <= max_n:
                yield (f"{pattern}/{n}/{seed}",
                       sl.generate.gen_circle(n, seed, pattern))
    return corpus


# (name, k, m, d, blues by instance index, multi) as bench/workloads.py
CRBDS_CLASSES = [("small_k2", 2, 3, 2, (3, 4), None),
                 ("small_k4", 4, 2, 2, (3, 4, 5), None),
                 ("large_k4", 4, 4, 4, (16,), 2),
                 ("large_k6", 6, 4, 4, (16,), 2),
                 ("large_k8", 8, 4, 4, (24,), 2)]


def _crbds(sl, max_n):
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as bench_corpus

    for name, k, m, d, ns, multi in CRBDS_CLASSES:
        for i in range(2):
            doc, _ = bench_corpus.crbds(k, m, d, ns[i % len(ns)], i, multi)
            yield f"{name}/{i}", sl.serialization.crbds_from_doc(doc)


def _reduce(sl, inst):
    norm = sl.reduction.normalize(inst)
    red = sl.reduction.reduce_instance(norm)
    ser = sl.serialization
    ser.dumps(ser.instance_to_doc(red.points, "planar"))
    ser.dumps(ser.sidecar_to_doc(norm))
    return red


TARGETS = {
    "axis": Target(
        "BENCH_solve_axis.json",
        "solve_axis per-layer seconds (median of the runs) on "
        "gen_circle(n, seed, pattern); written by tools/bench_layers.py axis",
        # the two-step and one-step instances, then no-step ones up to 10**5
        _circles([(320, 2, "random"), (480, 1, "random"),
                  (640, 3, "random"), (1280, 1, "random"),
                  (5120, 1, "random"), (10_000, 1, "random"),
                  (10_000, 1, "alternating"), (20_000, 1, "alternating"),
                  (10**5, 1, "random"), (10**5, 1, "alternating")]),
        {"solvers.decompose": Layer("decompose"),
         "solvers.build_switch_graph": Layer("switch_graph", "edge_cover"),
         "matching.minimum_edge_cover": Layer("edge_cover"),
         "solvers.build_L0": Layer("L0"),
         "solvers.refine_step": Layer("refine_step"),
         "solvers.cell_map": Layer("partition"),
         "solvers._strictly_dominates": Layer("domination"),
         "solvers._repair_around": Layer("repair")},
        lambda sl, points: sl.solvers.solve_axis(points),
        lambda sl, points, sol: {
            "w": sl.decomposition.decompose(points).w, "kappa": sol.kappa,
            "steps": sol.steps, "repair_used": sol.repair_used},
        tracked="solvers.refine_step"),
    "general": Target(
        "BENCH_solve_general.json",
        "solve_general per-layer seconds (median of the runs) on "
        "gen_circle(n, seed, pattern); written by "
        "tools/bench_layers.py general",
        _circles([(n, 1, pattern) for n in (1280, 5120, 10_000, 40_000)
                  for pattern in ("random", "alternating")]),
        {"solvers.decompose": Layer("decompose"),
         "solvers.arc_interior_point": Layer("anchors"),
         "solvers.line_through": Layer("lines"),
         "solvers._certify_general": Layer("final_check")},
        lambda sl, points: sl.solvers.solve_general(points),
        lambda sl, points, sol: {"size": sol.size}),
    "reduce": Target(
        "BENCH_reduce.json",
        "sepline reduce per-layer seconds per call (median of the runs of "
        "the mean over the visits) on the per_point round trips' C-RBDS "
        "instances; written by tools/bench_layers.py reduce",
        _crbds,
        {"reduction.normalize": Layer("normalize"),
         "reduction._emit": Layer("base_emit", "validate_layout",
                                  "candidate_emits"),
         "reduction.validate_layout": Layer("validate_layout"),
         "reduction.lift": Layer("score_lifts"),
         "serialization.instance_to_doc": Layer("dumps"),
         "serialization.sidecar_to_doc": Layer("dumps"),
         "serialization.dumps": Layer("dumps")},
        _reduce,
        lambda sl, inst, red: {"points": len(red.points)},
        {"reduction._emit": "emits", "reduction.lift": "lifts",
         "reduction.ColoredPoint": "points_built"},
        visits=20),
}


@contextmanager
def _wrapped(sl, wrappers):
    """Within the block, each "module.attr" of `sepline` in `wrappers` is
    replaced by its wrapper applied to it; the originals come back after."""
    saved = []
    for path, wrap in wrappers.items():
        mod, name = path.split(".")
        mod = getattr(sl, mod)
        if hasattr(mod, name):
            saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, wrap(getattr(mod, name)))
    try:
        yield
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


def _timer(layer, spent, calls):
    column, minus, later = layer

    def wrap(fn):
        def timed(*args, **kwargs):
            calls[fn] = calls.get(fn, 0) + 1
            col = later if later and calls[fn] > 1 else column
            inner = spent[minus] if minus else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[col] += time.perf_counter() - t0 - (
                    spent[minus] - inner if minus else 0.0)
        return timed
    return wrap


def _counter(column, seen):
    def wrap(fn):
        def counted(*args, **kwargs):
            seen[column] += 1
            return fn(*args, **kwargs)
        return counted
    return wrap


def _tracker(seen, n):
    def wrap(fn):
        def counted(*args, **kwargs):
            if "tracked" not in seen:
                seen["tracked"] = round(len(gc.get_objects()) / n, 2)
            return fn(*args, **kwargs)
        return counted
    return wrap


def measure(sl, target: Target, inst, repeat: int) -> dict:
    """One instance's row: the non-timing columns of an untimed call, then
    every column's median over `repeat` runs of seconds per visit."""
    columns = list(dict.fromkeys(
        c for lay in target.layers.values() for c in (lay.column, lay.later)
        if c)) + ["total"]
    runs = []
    for _ in range(repeat):
        spent = dict.fromkeys(columns, 0.0)
        calls = {}
        gc.collect()
        with _wrapped(sl, {path: _timer(lay, spent, calls)
                           for path, lay in target.layers.items()}):
            for _ in range(target.visits):
                calls.clear()
                t0 = time.perf_counter()
                target.call(sl, inst)
                spent["total"] += time.perf_counter() - t0
        runs.append(spent)
    seen = dict.fromkeys(target.counts.values(), 0)
    wrappers = {path: _counter(col, seen)
                for path, col in target.counts.items()}
    if target.tracked:
        wrappers[target.tracked] = _tracker(seen, len(inst))
    gc.collect()
    with _wrapped(sl, wrappers):
        result = target.call(sl, inst)
    return {**target.report(sl, inst, result), **seen,
            **{c: round(statistics.median(r[c] for r in runs)
                        / target.visits, 7) for c in columns}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("target", choices=TARGETS)
    ap.add_argument("--src", required=True, help="directory holding sepline/")
    ap.add_argument("--label", required=True, help="e.g. before or after")
    ap.add_argument("--out", help="default: the target's BENCH_*.json")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=None)
    ap.add_argument("--note", default="", help="which tree, e.g. a commit")
    args = ap.parse_args(argv)
    target = TARGETS[args.target]

    sys.path.insert(0, str(Path(args.src).resolve()))
    sl = importlib.import_module("sepline")
    for mod in ("decomposition", "generate", "matching", "reduction",
                "serialization", "solvers"):
        importlib.import_module("sepline." + mod)

    out = Path(args.out or target.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["description"] = target.description
    doc.setdefault("runs", {})[args.label] = {
        "note": args.note, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
        "repeat": args.repeat, "visits": target.visits}
    results = doc.setdefault("instances", {})
    for name, inst in target.corpus(sl, args.max_n):
        row = results.setdefault(name, {})[args.label] = measure(
            sl, target, inst, args.repeat)
        print(name, args.label, json.dumps(row), flush=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
