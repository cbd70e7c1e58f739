"""Seeded generation of rational circle instances.

Points are drawn as distinct rational circle parameters t = a/b with
|a|, b <= 10**4 and mapped through the exact parameterization
((1-t^2)/(1+t^2), 2t/(1+t^2)); colors follow the requested pattern along
the counterclockwise angular order.  Identical (n, seed, pattern) calls
return identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadPattern
from .geometry import (BLUE, RED, ColoredPoint, _point_key,
                       circle_point_from_parameter)

_MAG = 10_000


def parse_pattern(spec: str) -> tuple[str, list[int]]:
    """"random" | "alternating" | "chunked:3,2,1" -> (name, run lengths)."""
    name, _, rest = spec.partition(":")
    if name in ("random", "alternating"):
        if rest:
            raise BadPattern(f"pattern {name!r} takes no arguments")
        return name, []
    if name == "chunked":
        try:
            runs = [int(t) for t in rest.split(",") if t]
        except ValueError:
            raise BadPattern(f"bad run lengths {rest!r}") from None
        if not runs or any(r < 1 for r in runs):
            raise BadPattern("chunked pattern needs positive run lengths")
        return name, runs
    raise BadPattern(f"unknown pattern {spec!r}")


def gen_circle(n: int, seed: int, pattern: str) -> list[ColoredPoint]:
    if n < 1:
        raise ValueError("need at least one point")
    name, runs = parse_pattern(pattern)
    if name == "chunked" and sum(runs) != n:
        raise BadPattern(f"run lengths {runs} do not sum to n={n}")

    rng = random.Random(seed)
    ts: set[Fraction] = set()
    while len(ts) < n:
        ts.add(Fraction(rng.randint(-_MAG, _MAG), rng.randint(1, _MAG)))
    # sorted by the angular key of each point, and only then built, so
    # that the coordinates lie in memory in the order the solvers walk them
    ordered = sorted(
        ts, key=lambda t: _point_key(*circle_point_from_parameter(t)))

    if name == "alternating":
        colors = [RED if i % 2 == 0 else BLUE for i in range(n)]
    elif name == "chunked":
        colors = []
        for ri, run in enumerate(runs):
            colors += [RED if ri % 2 == 0 else BLUE] * run
    else:
        colors = [rng.choice([RED, BLUE]) for _ in range(n)]

    return [ColoredPoint(i, colors[i], *circle_point_from_parameter(t))
            for i, t in enumerate(ordered)]
