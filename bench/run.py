"""Fixed-seed benchmark of the sepline CLI.

    python3 bench/run.py --workload axis_dense --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the library is imported from
`src/` next to this directory, never from an installed copy.  Set-up
generates the workload's corpus and writes it under `.bench_work/`; the
timed loop then runs ops through `sepline.cli.main([...])` in this process,
one at a time, in rounds that visit every instance class once, until
`--seconds` have passed.  Every answer is checked outside the timed region.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under `--trace 0` and the per-layer metrics of a traced run under
`--trace 1`.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import check
import corpus
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 5
TAIL_LEVEL = 0.75  # op_tail_s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- set-up -------------------------------------------------------------------

def import_sepline():
    """Fresh import of the checkout's `sepline`; returns the package."""
    src = ROOT / "src"
    if not (src / "sepline" / "cli.py").is_file():
        raise BenchError(f"no sepline sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "sepline"]:
        del sys.modules[name]
    import sepline.cli  # noqa: F401
    pkg = sys.modules["sepline"]
    if Path(pkg.__file__).resolve().parent != (src / "sepline").resolve():
        raise BenchError(f"imported sepline from {pkg.__file__}, not {src}")
    return pkg


def build_corpus(classes, work: Path) -> list:
    """Every case of the workload, with its files written to `work`."""
    shutil.rmtree(work, ignore_errors=True)
    cases = workloads.cases(classes)
    for case in cases:
        case.dir = work / case.key.replace("/", "_")
        case.dir.mkdir(parents=True)
        for fname, text in case.files.items():
            (case.dir / fname).write_text(text)
        case.argv = [[a.replace("{dir}", str(case.dir)) for a in argv]
                     for argv in case.calls]
    return cases


def setup(classes, work: Path):
    """Import plus corpus generation, repeated; returns the last package
    and corpus and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = import_sepline()
        cases = build_corpus(classes, work)
        times.append(perf_counter() - t0)
    return pkg, cases, statistics.median(times)


def cycles(cases, seed: int):
    """Endless cycles, each visiting every case once in a seeded order."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(cases, len(cases))


# --- one op -------------------------------------------------------------------

def run_calls(cli, case) -> tuple[float, list]:
    """Run the op's CLI calls; returns (seconds, exit codes or exceptions).
    A call that fails ends the op."""
    sink = io.StringIO()
    codes = []
    gc.collect()  # every visit starts from the same heap
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        for argv in case.argv:
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape fails the op
                code = f"{type(exc).__name__}: {exc}"
            codes.append(code)
            if code != 0:
                break
        dt = perf_counter() - t0
    return dt, codes


def clear_outputs(case) -> None:
    for fname in case.answer:
        (case.dir / fname).unlink(missing_ok=True)
    shutil.rmtree(case.dir / "trace", ignore_errors=True)


def answer_digest(case, codes) -> str:
    parts = [json.dumps([str(c) for c in codes])]
    for fname in case.answer:
        path = case.dir / fname
        parts.append(path.read_text() if path.is_file() else "-")
    return corpus.digest("\n".join(parts))


def judge(case, codes, golden):
    """(failure or None, silent, optimum checked against): silent means
    every call exited 0 but the checker rejected the answer."""
    if any(c != 0 for c in codes):
        return f"exit {codes[-1]}", False, None
    try:
        return None, False, case.verify(case.dir, golden)
    except (check.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return f"check: {exc}", True, None


# --- metrics ------------------------------------------------------------------

def percentile(times, level: float) -> float:
    """Nearest rank: the smallest time with a share >= level at or below it."""
    s = sorted(times)
    return s[max(math.ceil(level * len(s)) - 1, 0)]


def typical_times(ops) -> list[float]:
    """Each op's time replaced by the median of the run's visits to the
    same instance.  The program is deterministic: its visits to one
    instance differ only by the load other processes put on the machine's
    shared cores, which slows a pure-Python loop by up to 1.5x for seconds
    at a time and sometimes for most of a run.  The fastest visit depends
    on whether a rare quiet moment fell into the run and moves more between
    runs.  A run visits every instance equally often, so percentiles of
    this list are percentiles over the corpus."""
    visits: dict[str, list[float]] = {}
    for key, t, _, _ in ops:
        visits.setdefault(key, []).append(t)
    typical = {key: statistics.median(ts) for key, ts in visits.items()}
    return [typical[key] for key, *_ in ops]


def end_to_end(ops, setup_s):
    times = typical_times(ops)
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (percentile(times, TAIL_LEVEL), "s"),
        "points_per_s": (sum(p for _, _, p, _ in ops) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


# --- per-layer metrics of the traced run -------------------------------------

def _hooks():
    def switch_graph(tr, args, kwargs, g):
        tr.counts["switches"] += g.n
        tr.counts["edges"] += len(g.edges)
        tr.counts["switch_pairs"] += g.n * (g.n - 1) // 2

    def count(key, fn):
        def hook(tr, args, kwargs, result):
            tr.counts[key] += fn(args, result)
        return hook

    return {
        "decomposition.build_switch_graph": switch_graph,
        "matching.minimum_edge_cover":
            count("cover_size", lambda a, r: len(r)),
        "solvers.refine_step":
            count("refine_improved", lambda a, r: r[0] == "improved"),
        "solvers.solve_axis":
            count("repair_fired", lambda a, r: bool(r.repair_used)),
        "serialization.loads": count("bytes_in", lambda a, r: len(a[0])),
        "serialization.dumps": count("bytes_out", lambda a, r: len(r)),
        "render.render_svg": count("svg_bytes", lambda a, r: len(r)),
        "geometry.verify_separation":
            count("point_lines", lambda a, r: len(a[0]) * len(a[1])),
    }


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, functions it needs, value(tracer, ops))
LAYER_METRICS = {}


def _span(qual, what):
    unit = "1/op" if what == "calls" else "s/op"
    src = {"s": "busy", "self_s": "self_s", "calls": "calls"}[what]
    LAYER_METRICS[f"{qual}.{what}"] = (
        unit, [qual], lambda tr, n: getattr(tr, src)[qual] / n)


def _count(name, unit, needs, fn):
    LAYER_METRICS[name] = (unit, needs, fn)


for _qual, _whats in [
        ("decomposition.build_switch_graph", ["s", "self_s"]),
        ("decomposition.projection_interval", ["calls"]),
        ("decomposition.faces", ["calls"]),
        ("decomposition.decompose", ["s"]),
        ("geometry.cell_arcs", ["s", "calls"]),
        ("geometry.cell_map", ["s"]),
        ("geometry.angular_sort", ["s"]),
        ("geometry.pick_coordinate", ["calls"]),
        ("geometry.arc_interior_point", ["s"]),
        ("geometry.verify_separation", ["s", "calls"]),
        ("oracles.sep_bitset", ["s", "calls"]),
        ("solvers.solve_axis", ["s", "self_s"]),
        ("solvers.solve_general", ["s"]),
        ("solvers.build_L0", ["s"]),
        ("solvers.refine_step", ["s", "calls"]),
        ("matching.minimum_edge_cover", ["s"]),
        ("serialization.loads", ["s"]),
        ("serialization.dumps", ["s"]),
        ("serialization.instance_from_doc", ["s"]),
        ("serialization.sidecar_from_doc", ["s"]),
        ("render.render_svg", ["s", "calls"]),
        ("reduction.normalize", ["s"]),
        ("reduction.reduce_instance", ["s", "self_s"]),
        ("reduction.validate_layout", ["s"]),
        ("reduction.lift", ["s"]),
        ("reduction.extract_vertices", ["s"])]:
    for _what in _whats:
        _span(_qual, _what)

_count("decomposition.switches", "1/op", ["decomposition.build_switch_graph"],
       lambda tr, n: tr.counts["switches"] / n)
_count("decomposition.edges", "1/op", ["decomposition.build_switch_graph"],
       lambda tr, n: tr.counts["edges"] / n)
_count("decomposition.edge_yield", "ratio",
       ["decomposition.build_switch_graph"],
       lambda tr, n: _ratio(tr.counts["edges"], tr.counts["switch_pairs"]))
_count("geometry.verify_separation.point_lines", "1/op",
       ["geometry.verify_separation"],
       lambda tr, n: tr.counts["point_lines"] / n)
_count("solvers.refine_step.improved_share", "ratio", ["solvers.refine_step"],
       lambda tr, n: _ratio(tr.counts["refine_improved"],
                            tr.calls["solvers.refine_step"]))
_count("solvers.repair_fired", "1/op", ["solvers.solve_axis"],
       lambda tr, n: tr.counts["repair_fired"] / n)
_count("matching.cover_size", "1/op", ["matching.minimum_edge_cover"],
       lambda tr, n: tr.counts["cover_size"] / n)
_count("serialization.bytes_in", "B/op", ["serialization.loads"],
       lambda tr, n: tr.counts["bytes_in"] / n)
_count("serialization.bytes_out", "B/op", ["serialization.dumps"],
       lambda tr, n: tr.counts["bytes_out"] / n)
_count("render.bytes", "B/op", ["render.render_svg"],
       lambda tr, n: tr.counts["svg_bytes"] / n)
_count("reduction.order_search.lifts", "1/op",
       ["reduction.lift", "reduction.reduce_instance"],
       lambda tr, n: tr.calls_under[("reduction.lift",
                                     "reduction.reduce_instance")] / n)
_count("reduction.lift.verify_calls", "1/op",
       ["reduction.lift", "geometry.verify_separation"],
       lambda tr, n: tr.calls_under[("geometry.verify_separation",
                                     "reduction.lift")] / n)


def per_layer(tracer, ops, untraced_s, traced_s, failed, changed):
    n = len(ops)
    out, absent = {}, []
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        missing = [q for q in needs if not tracer.present(q)]
        absent += missing
        out[name] = (0.0 if missing else fn(tracer, n), unit)
    out["trace.coverage"] = (tracer.top / traced_s, "ratio")
    out["trace.overhead_s"] = ((traced_s - untraced_s) / n, "s/op")
    out["fail_share"] = (failed / n, "ratio")
    out["answers_changed"] = (changed, "count")
    return out, sorted(set(absent))


# --- the run ------------------------------------------------------------------

def run(args) -> dict:
    classes = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[
        args.workload]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        pkg, cases, setup_s = setup(classes, work)
        for case in cases:
            entry = golden.get(case.key)
            if entry is None or entry["instance"] != case.instance_digest:
                raise BenchError(f"{case.key}: no recorded answer for this "
                                 "instance in golden.json")
        cli = sys.modules["sepline.cli"]
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(pkg, _hooks())

        ops, fails, silent, changed = [], {}, 0, 0
        untraced_s = traced_s = 0.0
        start = perf_counter()
        for cycle in cycles(cases, args.seed):
            for case in cycle:
                clear_outputs(case)
                if tracer:
                    tracer.uninstall()
                    dt, _ = run_calls(cli, case)
                    untraced_s += dt
                    clear_outputs(case)
                    tracer.install()
                dt, codes = run_calls(cli, case)
                if tracer:
                    tracer.uninstall()
                    traced_s += dt
                failure, wrong, _ = judge(case, codes, golden[case.key])
                if failure:
                    fails[case.key] = failure
                silent += wrong
                changed += answer_digest(case, codes) != golden[case.key]["answer"]
                ops.append((case.key, dt, case.points, failure))
            if args.smoke or perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = sum(1 for *_, f in ops if f)
    if tracer:
        metrics, absent = per_layer(tracer, ops, untraced_s, traced_s,
                                    failed, changed)
        notes = [f"absent (reported as 0): {', '.join(absent)}"] if absent else []
        if tracer.hook_errors:
            notes.append(f"hook errors: {dict(tracer.hook_errors)}")
    else:
        metrics = end_to_end(ops, setup_s)
        beyond = sum(1 for t in typical_times(ops) if t > metrics["op_tail_s"][0])
        notes = [f"op_tail_s is the p{100 * TAIL_LEVEL:.0f} of {len(ops)} ops, "
                 f"{beyond} beyond it",
                 f"fail_share {failed / len(ops):.4f} ({failed}/{len(ops)})",
                 f"answers_changed {changed}"]
    notes += [f"failed {k}: {v}" for k, v in sorted(fails.items())]
    return {"notes": notes, "correct": silent == 0, "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def record_golden() -> None:
    """Run every instance once and record its optimum, answer digest and
    failure.  Run at the commit whose answers are the reference."""
    out = {}
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    try:
        for table in (workloads.WORKLOADS, workloads.SMOKE):
            for wname, classes in table.items():
                import_sepline()
                cli = sys.modules["sepline.cli"]
                for case in build_corpus(classes, work / wname):
                    _, codes = run_calls(cli, case)
                    failure, _, optimum = judge(case, codes, None)
                    out[case.key] = {"instance": case.instance_digest,
                                     "optimum": optimum,
                                     "answer": answer_digest(case, codes),
                                     "failure": failure}
                    print(case.key, out[case.key], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of the tiny corpus")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json from this checkout")
    args = ap.parse_args(argv)
    # a terminated run still removes its corpus (the `finally` in run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record_golden:
            record_golden()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
