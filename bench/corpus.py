"""Seeded instance generators for the benchmark.

Every generator returns a plain JSON document in the formats the `sepline`
CLI reads, built with the benchmark's own exact arithmetic, so the inputs
depend only on the generator's arguments and not on the library under test.
Each generator also returns what the checker needs to know about its
instance (the colour order around the circle, or a planted witness).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

RED, BLUE = "R", "B"


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _circle_xy(t: Fraction) -> tuple[Fraction, Fraction]:
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def _angular_key(t: Fraction):
    # t = tan(theta/2): t >= 0 sweeps the upper half ccw from (1, 0),
    # t < 0 continues from (-1, 0)
    return (0, t) if t >= 0 else (1, t)


def _colors(n: int, pattern: str, rng: random.Random) -> list[str]:
    if pattern == "alternating":
        return [RED if i % 2 == 0 else BLUE for i in range(n)]
    if pattern.startswith("chunked:"):
        runs = [int(r) for r in pattern[len("chunked:"):].split(",")]
        assert sum(runs) == n
        out = []
        for ri, run in enumerate(runs):
            out += [RED if ri % 2 == 0 else BLUE] * run
        return out
    assert pattern == "random"
    return [rng.choice([RED, BLUE]) for _ in range(n)]


def _circle_doc(xys, colors: list[str]) -> dict:
    return {"kind": "circle",
            "points": [{"color": c, "x": rat(x), "y": rat(y)}
                       for (x, y), c in zip(xys, colors)]}


def circle(n: int, seed: int, pattern: str, mag: int = 10_000):
    """Points at distinct rational circle parameters a/b with |a|, b <= mag,
    coloured along the ccw order.  With the default `mag` this draws the
    same instance as `sepline.generate.gen_circle(n, seed, pattern)`.

    Returns (instance doc, colours in ccw order).
    """
    rng = random.Random(seed)
    ts: set[Fraction] = set()
    while len(ts) < n:
        ts.add(Fraction(rng.randint(-mag, mag), rng.randint(1, mag)))
    ordered = sorted(ts, key=_angular_key)
    colors = _colors(n, pattern, rng)
    return _circle_doc(map(_circle_xy, ordered), colors), colors


def circle_digits(n: int, seed: int, pattern: str, digits: int = 60):
    """Like `circle`, but the parameters have (digits/2)-digit numerators and
    denominators, so the point coordinates have `digits`-digit ones."""
    return circle(n, seed, pattern, mag=10 ** (digits // 2))


def mirror(n: int, seed: int):
    """n = 4m points (+-x, +-y) for m first-quadrant points, random colours.

    Every x and every y coordinate is shared by two points.
    Returns (instance doc, colours in ccw order).
    """
    assert n % 4 == 0
    rng = random.Random(seed)
    ts: set[Fraction] = set()
    while len(ts) < n // 4:
        b = rng.randint(2, 10_000)
        ts.add(Fraction(rng.randint(1, b - 1), b))  # 0 < t < 1: quadrant I
    base = [_circle_xy(t) for t in sorted(ts)]  # angles theta, ccw
    # the mirrors sit at pi - theta, pi + theta and 2 pi - theta
    xys = (base + [(-x, y) for x, y in reversed(base)]
           + [(-x, -y) for x, y in base] + [(x, -y) for x, y in reversed(base)])
    colors = [rng.choice([RED, BLUE]) for _ in xys]
    return _circle_doc(xys, colors), colors


def chunked_pattern(n: int, w: int, rng: random.Random) -> str:
    """w runs (w even) of random positive lengths summing to n."""
    cuts = sorted(rng.sample(range(1, n), w - 1))
    runs = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return "chunked:" + ",".join(map(str, runs))


def color_changes(colors: list[str]) -> int:
    """w: colour changes around the circle, from the known ccw order."""
    n = len(colors)
    return sum(1 for i in range(n) if colors[i] != colors[(i + 1) % n])


def crbds(k: int, m: int, d: int, n: int, seed: int, multi=None):
    """Colorful red-blue dominating set instance with a planted solution.

    k classes of m red vertices, n blue vertices of uniform even degree d,
    pairwise distinct neighbourhoods, even k: `normalize` adds nothing, so
    the planted witness (one red per class) is a witness of the normalized
    instance too.  Every blue vertex is adjacent to at least one witness
    vertex.  With `multi` set, only that many blue vertices may have more
    than one witness neighbour: `lift` tries every product of the per-blue
    choices until one verifies, so this bounds its search.
    Returns (C-RBDS doc, witness list).
    """
    assert k % 2 == 0 and d % 2 == 0 and d <= k * m
    rng = random.Random(seed)
    classes = [[f"u{c + 1}_{a + 1}" for a in range(m)] for c in range(k)]
    witness = [rng.choice(cls) for cls in classes]
    reds = [u for cls in classes for u in cls]
    plain = [u for u in reds if u not in witness]
    blues = [f"v{j + 1}" for j in range(n)]
    free = set(range(n)) if multi is None else set(rng.sample(range(n), multi))
    seen: set[frozenset] = set()
    edges = []
    for j, v in enumerate(blues):
        while True:
            anchor = rng.choice(witness)
            pool = reds if j in free else plain
            others = rng.sample([u for u in pool if u != anchor], d - 1)
            nb = frozenset([anchor, *others])
            if nb not in seen:
                break
        seen.add(nb)
        edges += [[u, v] for u in sorted(nb)]
    doc = {"k": k, "classes": classes, "blues": blues, "edges": sorted(edges)}
    return doc, witness
