"""Command-line surface: generation, solving, oracles, verification,
reduction round-trips, and SVG rendering.

Exit codes: 0 success, 2 infeasible / non-separating ("No") answers,
1 input or usage errors.  All outputs are deterministic for identical
inputs and seeds (the run report's timing field excepted).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time
from pathlib import Path

from .decomposition import build_switch_graph, circle_order, decompose
from .errors import (BudgetViolation, InvalidDominatingSet, NoSignalLine,
                     NotSeparating, SeplineError)
from .generate import gen_circle
from .geometry import verify_separation
from .oracles import (feasible_pq, min_axis_separation,
                      min_general_separation_circle)
from .reduction import (ReducedInstance, extract_vertices, lift, normalize,
                        reduce_instance)
from .render import render_svg
from .serialization import (crbds_from_doc, diagnostics_to_doc, dumps,
                            instance_from_doc, instance_to_doc,
                            line_from_doc, line_to_doc, loads,
                            sidecar_from_doc, sidecar_to_doc,
                            solution_from_doc, solution_to_doc)
from .solvers import solve_axis, solve_general

OK, NO, ERR = 0, 2, 1


def _read_doc(path: str) -> dict:
    return loads(Path(path).read_text())


def _emit_text(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    return instance_from_doc(_read_doc(path))


def _load_lines(spec: str):
    """A solution-JSON path, or inline "H:1/2,V:-3" line specs."""
    if os.path.exists(spec):
        return solution_from_doc(_read_doc(spec))[1]
    lines = []
    for tok in spec.split(","):
        orient, _, c = tok.strip().partition(":")
        lines.append(line_from_doc({"orient": orient, "c": c}))
    return lines


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SEPLINE_SEED")
    return int(env) if env else 0


def _digest(doc: dict) -> str:
    return hashlib.sha256(dumps(doc).encode()).hexdigest()[:16]


# --- commands ---------------------------------------------------------------

def cmd_gen(args) -> int:
    pts = gen_circle(args.n, _seed(args), args.pattern)
    _emit_text(dumps(instance_to_doc(pts, "circle")), args.out)
    return OK


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    kind, pts = _load_instance(args.instance)
    if args.variant == "general":
        if kind != "circle":
            raise ValueError("the general-line solver needs a circle instance")
        sol = solve_general(pts)
        doc = solution_to_doc("general", sol.lines)
    else:
        if kind != "circle":
            raise ValueError("the axis solver needs a circle instance")
        on_step = None
        if args.trace:
            trace = Path(args.trace)
            trace.mkdir(parents=True, exist_ok=True)

            def on_step(step):
                (trace / f"step_{step.steps:03d}.svg").write_text(
                    render_svg(pts, step.lines, shade_corrupt=True))
        sol = solve_axis(pts, on_step)
        if args.trace:
            (trace / "final.svg").write_text(render_svg(pts, sol.lines))
        doc = solution_to_doc("axis", sol.lines, kappa=sol.kappa,
                              steps=sol.steps, repair_used=sol.repair_used)

    oracle_cmp = None
    if args.check:
        oracle = (min_general_separation_circle if args.variant == "general"
                  else min_axis_separation)
        k_opt, _ = oracle(pts)
        oracle_cmp = {"optimal": k_opt, "match": k_opt == len(sol.lines)}
        if not oracle_cmp["match"]:
            print(f"check failed: solver size {len(sol.lines)} != "
                  f"oracle optimum {k_opt}", file=sys.stderr)
            return ERR

    _emit_text(dumps(doc), args.out)
    if args.report:
        report = {"command": "solve",
                  "variant": args.variant,
                  "instance_digest": _digest(instance_to_doc(pts, kind)),
                  "solution": {"size": doc["size"], "kappa": doc["kappa"],
                               "steps": doc["steps"],
                               "repair_used": doc["repair_used"]},
                  "oracle": oracle_cmp,
                  "timing_ms": round((time.monotonic() - t0) * 1000, 3)}
        print(dumps(report), end="", file=sys.stderr)
    return OK


def cmd_kappa(args) -> int:
    kind, pts = _load_instance(args.instance)
    if kind != "circle":
        raise ValueError("kappa diagnostics need a circle instance")
    dec = decompose(pts)
    _emit_text(dumps(diagnostics_to_doc(dec, build_switch_graph(dec))),
               args.out)
    return OK


def cmd_oracle(args) -> int:
    kind, pts = _load_instance(args.instance)
    if args.variant == "pq":
        if args.p is None or args.q is None:
            raise ValueError("the pq oracle needs --p and --q")
        lines = feasible_pq(pts, args.p, args.q)
        doc = {"variant": "pq", "p": args.p, "q": args.q,
               "feasible": lines is not None,
               "lines": [line_to_doc(ln) for ln in lines or []]}
        _emit_text(dumps(doc), args.out)
        return OK if lines is not None else NO
    if args.variant == "general":
        if kind != "circle":
            raise ValueError("the general oracle needs a circle instance")
        size, lines = min_general_separation_circle(pts)
    else:
        if kind == "circle":
            circle_order(pts)  # a circle instance is valid as solve reads it
        size, lines = min_axis_separation(pts)
    _emit_text(dumps({"variant": args.variant, "size": size,
                      "lines": [line_to_doc(ln) for ln in lines]}), args.out)
    return OK


def cmd_verify(args) -> int:
    _, pts = _load_instance(args.instance)
    lines = _load_lines(args.lines)
    witness = verify_separation(pts, lines)
    if witness is None:
        print("Separated")
        return OK
    print(f"NotSeparated: points {witness[0]} and {witness[1]} "
          "share a cell")
    return NO


def cmd_reduce(args) -> int:
    inst = crbds_from_doc(_read_doc(args.instance))
    norm = normalize(inst)
    red = reduce_instance(norm)
    _emit_text(dumps(instance_to_doc(red.points, "planar")), args.out)
    sidecar = dumps(sidecar_to_doc(norm))
    if args.sidecar:
        Path(args.sidecar).write_text(sidecar)
    else:
        sys.stdout.write(sidecar)
    return OK


def _load_sidecar(args):
    norm, lay = sidecar_from_doc(_read_doc(args.sidecar))
    _, pts = _load_instance(args.instance)
    return norm, ReducedInstance(pts, lay.p, lay.q, lay)


def cmd_lift(args) -> int:
    norm, red = _load_sidecar(args)
    chosen = [s for s in args.set.split(",") if s]
    for u in chosen:
        if u.startswith("_"):
            raise InvalidDominatingSet(
                f"--set vertex {u!r:.40} starts with '_', which names the "
                "vertices normalize adds, not an input vertex")
    lines = lift(norm, red, chosen)
    _emit_text(dumps(solution_to_doc("axis", lines)), args.out)
    return OK


def cmd_extract(args) -> int:
    norm, red = _load_sidecar(args)
    lines = _load_lines(args.lines)
    vertices = extract_vertices(norm, red, lines)
    _emit_text(dumps({"vertices": vertices}), args.out)
    return OK


def cmd_render(args) -> int:
    kind, pts = _load_instance(args.instance)
    lines = _load_lines(args.solution) if args.solution else []
    layout = None
    if args.sidecar:
        _, layout = sidecar_from_doc(_read_doc(args.sidecar))
    svg = render_svg(pts, lines, kind=kind, layout=layout,
                     shade_corrupt=args.cells)
    _emit_text(svg, args.out)
    return OK


# --- argument parsing --------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(
        prog="sepline",
        description="exact red-blue point separation by lines")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--out", help="output path (default stdout)")
        return p

    p = add("gen", cmd_gen, help="generate a seeded circle instance")
    p.add_argument("n", type=int)
    p.add_argument("--pattern", default="random",
                   help="random | alternating | chunked:3,2,...")
    p.add_argument("--seed", type=int,
                   help="RNG seed (default: $SEPLINE_SEED or 0)")

    p = add("solve", cmd_solve, help="solve a circle instance")
    p.add_argument("instance")
    p.add_argument("--variant", choices=("general", "axis"), default="axis")
    p.add_argument("--check", action="store_true",
                   help="compare against the brute-force oracle")
    p.add_argument("--trace", metavar="DIR",
                   help="dump per-step SVGs of the refinement loop")
    p.add_argument("--report", action="store_true",
                   help="print a run report to stderr")

    p = add("kappa", cmd_kappa, help="decomposition + switch-graph diagnostics")
    p.add_argument("instance")

    p = add("oracle", cmd_oracle, help="brute-force oracles")
    p.add_argument("instance")
    p.add_argument("--variant", choices=("axis", "general", "pq"),
                   default="axis")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)

    p = add("verify", cmd_verify, help="check a line set separates")
    p.add_argument("instance")
    p.add_argument("--lines", required=True,
                   help="solution JSON path or inline H:c,V:c specs")

    p = add("reduce", cmd_reduce,
            help="dominating-set instance -> planar separation instance")
    p.add_argument("instance", help="C-RBDS JSON")
    p.add_argument("--sidecar", help="layout sidecar output path")

    p = add("lift", cmd_lift, help="dominating set -> separating lines")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--set", required=True, help="comma-separated vertices")

    p = add("extract", cmd_extract, help="separating lines -> dominating set")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--lines", required=True)

    p = add("render", cmd_render, help="SVG rendering")
    p.add_argument("instance")
    p.add_argument("--solution", help="solution JSON or inline line specs")
    p.add_argument("--sidecar", help="layout sidecar for the grid overlay")
    p.add_argument("--cells", action="store_true",
                   help="shade corrupt cells")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NotSeparating, BudgetViolation, NoSignalLine) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NO
    except (SeplineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR


if __name__ == "__main__":
    sys.exit(main())
