"""The two workloads: instance classes, the CLI calls of one op, and the
check of its answer.

An op is one or more `sepline.cli.main([...])` calls on files written in
set-up.  Each class contributes a fixed pool of instances, generator seeds
0 .. size - 1, so that the optimum of each instance (kappa, which only
the solver under test computes at scale) can be recorded once from the seed
commit in `golden.json`.  A run visits the whole corpus in cycles, in an
order drawn from the workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import corpus


@dataclass
class Case:
    key: str                        # "<class>/<pool index>", the golden key
    files: dict[str, str]           # written in set-up
    calls: list[list[str]]          # argv lists; "{dir}" is the case dir
    points: int                     # input points the op processes
    # verify(dir, golden entry or None) raises check.CheckFailed, else
    # returns the optimum it checked the answer size against (or None)
    verify: Callable
    answer: list[str]               # output files that make up the answer
    dir: Path | None = None         # set when the corpus is written
    argv: list[list[str]] | None = None  # calls with "{dir}" filled in

    @property
    def instance_digest(self) -> str:
        return corpus.digest("".join(self.files[k] for k in sorted(self.files)))


def _load(path: Path):
    return json.loads(path.read_text())


# --- circle solves ------------------------------------------------------------

def _solve_case(key, doc, colors, variant, trace=False) -> Case:
    argv = ["solve", "{dir}/instance.json", "--variant", variant,
            "-o", "{dir}/solution.json"]
    if trace:
        argv += ["--trace", "{dir}/trace"]
    points = check.parse_points(doc)
    w = corpus.color_changes(colors)

    def verify(d: Path, golden):
        sol = _load(d / "solution.json")
        if variant == "general":
            optimum = w // 2
            check.check_general(points, sol, optimum)
        else:
            # recording from the seed commit takes its size as kappa
            optimum = golden["optimum"] if golden else len(sol["lines"])
            check.check_axis(points, sol, optimum)
        if trace:
            check.expect(all((d / "trace" / f).is_file() and
                             (d / "trace" / f).stat().st_size > 0
                             for f in ("step_000.svg", "final.svg")),
                         "trace SVGs missing")
        return optimum

    return Case(key, {"instance.json": corpus.canonical(doc)}, [argv],
                len(doc["points"]), verify, ["solution.json"])


def _axis(name, size, make):
    return name, size, lambda i: _solve_case(f"{name}/{i}", *make(i), "axis")


def _chunked(n, maker):
    def make(i):
        rng = random.Random(1000 + i)
        w = rng.choice([8, 10, 12, 14, 16])
        return maker(n, i, corpus.chunked_pattern(n, w, rng))
    return make


def _chunked_axis(name, size, n, maker=corpus.circle, trace=False):
    make = _chunked(n, maker)
    return name, size, lambda i: _solve_case(f"{name}/{i}", *make(i), "axis",
                                             trace=trace)


def _trace(name, size, n, maker=corpus.circle):
    return _chunked_axis(name, size, n, maker, trace=True)


def _general(name, size, n):
    return name, size, lambda i: _solve_case(
        f"{name}/{i}", *corpus.circle(n, i, "random"), "general")


# --- reduction round trips ---------------------------------------------------

def _roundtrip_case(key, k, m, d, n, seed, multi=None) -> Case:
    inst, witness = corpus.crbds(k, m, d, n, seed, multi)
    calls = [
        ["reduce", "{dir}/crbds.json", "-o", "{dir}/planar.json",
         "--sidecar", "{dir}/sidecar.json"],
        ["lift", "--sidecar", "{dir}/sidecar.json", "--instance",
         "{dir}/planar.json", "--set", ",".join(witness),
         "-o", "{dir}/lift.json"],
        ["extract", "--sidecar", "{dir}/sidecar.json", "--instance",
         "{dir}/planar.json", "--lines", "{dir}/lift.json",
         "-o", "{dir}/extract.json"],
    ]

    def verify(dd: Path, golden):
        check.check_roundtrip(inst, witness, _load(dd / "planar.json"),
                              _load(dd / "lift.json"),
                              _load(dd / "extract.json"))
        return None

    return Case(key, {"crbds.json": corpus.canonical(inst)}, calls,
                2 * k + 3 * d * n + 6, verify,
                ["planar.json", "sidecar.json", "lift.json", "extract.json"])


def _small(name, size, k, m, ns):
    # d = 2 and m**k <= 64: reduce_instance runs its neighbour-ordering search
    return name, size, lambda i: _roundtrip_case(f"{name}/{i}", k, m, 2,
                                                 ns[i % len(ns)], i)


def _large(name, size, k, n):
    # m = 4, d = 4: m**k > 64, so the ordering search is skipped.  Only two
    # blues may have several witness neighbours, which bounds lift's product
    # search at d**2 verifications.
    return name, size, lambda i: _roundtrip_case(f"{name}/{i}", k, 4, 4, n,
                                                 i, multi=2)


# --- the workloads -------------------------------------------------------------

# name -> [(class, instances, make(i) -> Case)].  A run repeats whole cycles
# over the corpus, so every run measures the same mix.  Ops are kept short
# (under 0.3 s, except two round trips of about 0.5 s, at the seed commit)
# and one cycle takes 1-2.5 s, so that a 55 s run visits every instance
# twenty times or more: an instance's median visit (see run.typical_times)
# then varies between runs only as much as the load on the machine does.
WORKLOADS = {
    # switch graph O(w^2), refinement loop, repair: many switches per point
    "axis_dense": [
        _axis("random40", 1, lambda i: corpus.circle(40, i, "random")),
        _axis("random64", 1, lambda i: corpus.circle(64, i, "random")),
        _axis("alternating32", 1,
              lambda i: corpus.circle(32, i, "alternating")),
        _axis("alternating48", 1,
              lambda i: corpus.circle(48, i, "alternating")),
        _axis("mirror40", 1, lambda i: corpus.mirror(40, i)),
        _axis("mirror64", 1, lambda i: corpus.mirror(64, i)),
        _axis("digits60_alternating24", 1,
              lambda i: corpus.circle_digits(24, i, "alternating")),
        # the one known instance on which large-cell repair fires
        _axis("repair15", 1, lambda i: corpus.circle(15, 1227, "random")),
    ],
    # per-point work with a small switch graph: JSON I/O, decompose,
    # verify_separation, SVG, trace; and the reduction module, with
    # verify_separation on planar points
    "per_point": [
        _trace("trace64", 1, 64),
        _trace("trace128", 1, 128),
        _trace("digits60_trace48", 1, 48, corpus.circle_digits),
        _chunked_axis("chunked240", 1, 240),
        _general("general128", 1, 128),
        _general("general240", 1, 240),
        _small("small_k2", 2, 2, 3, [3, 4]),
        _small("small_k4", 2, 4, 2, [3, 4, 5]),
        _large("large_k4", 2, 4, 16),
        _large("large_k6", 2, 6, 16),
        _large("large_k8", 2, 8, 24),
    ],
}

# A few seconds per workload: one op per class on small instances.
SMOKE = {
    "axis_dense": [
        _axis("smoke_random20", 1, lambda i: corpus.circle(20, i, "random")),
        _axis("smoke_mirror12", 1, lambda i: corpus.mirror(12, i)),
        _axis("smoke_digits60_12", 1,
              lambda i: corpus.circle_digits(12, i, "alternating")),
    ],
    "per_point": [
        _trace("smoke_trace64", 1, 64),
        _general("smoke_general64", 1, 64),
        _small("smoke_small_k2", 1, 2, 3, [3]),
        _large("smoke_large_k4", 1, 4, 8),
    ],
}


def cases(classes) -> list[Case]:
    return [make(i) for _, size, make in classes for i in range(size)]
