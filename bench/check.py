"""The benchmark's own answer checks, independent of the library.

Separation is decided exactly: axis lines by locating every point between
sorted line coordinates, general lines by the sign of a x + b y + c in
integers.  A point on a line counts as not separated, as in the library's
strict semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm


class CheckFailed(Exception):
    pass


def parse_points(doc) -> list[tuple[str, Fraction, Fraction]]:
    return [(p["color"], Fraction(p["x"]), Fraction(p["y"]))
            for p in doc["points"]]


def axis_separates(points, lines) -> bool:
    """lines: [{"orient": "H"|"V", "c": "num/den"}, ...]"""
    hs = sorted({Fraction(ln["c"]) for ln in lines if ln["orient"] == "H"})
    vs = sorted({Fraction(ln["c"]) for ln in lines if ln["orient"] == "V"})
    cells: dict[tuple[int, int], str] = {}
    for color, x, y in points:
        row, col = bisect_left(hs, y), bisect_left(vs, x)
        if (row < len(hs) and hs[row] == y) or (col < len(vs) and vs[col] == x):
            return False
        if cells.setdefault((row, col), color) != color:
            return False
    return True


def general_separates(points, lines) -> bool:
    """lines: [{"a", "b", "c"}, ...], the line a x + b y + c = 0."""
    coeffs = []
    for ln in lines:
        a, b, c = (Fraction(ln[key]) for key in ("a", "b", "c"))
        den = lcm(a.denominator, b.denominator, c.denominator)
        coeffs.append((int(a * den), int(b * den), int(c * den)))
    cells: dict[int, str] = {}
    for color, x, y in points:
        den = lcm(x.denominator, y.denominator)
        xi, yi = x.numerator * (den // x.denominator), \
            y.numerator * (den // y.denominator)
        sig = 0
        for a, b, c in coeffs:
            v = a * xi + b * yi + c * den
            if v == 0:
                return False
            sig = (sig << 1) | (v > 0)
        if cells.setdefault(sig, color) != color:
            return False
    return True


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_axis(points, sol, kappa: int) -> None:
    lines = sol["lines"]
    expect(all("orient" in ln for ln in lines), "non-axis line in an axis answer")
    expect(len(lines) == sol["size"] == kappa,
           f"size {len(lines)} differs from the recorded optimum {kappa}")
    expect(sol["kappa"] == kappa, f"kappa {sol['kappa']} differs from {kappa}")
    expect(axis_separates(points, lines), "axis lines do not separate")


def check_general(points, sol, optimum: int) -> None:
    """optimum: w/2, from the generator's colour order around the circle."""
    lines = sol["lines"]
    expect(len(lines) == sol["size"] == optimum,
           f"size {len(lines)} differs from the optimum w/2 = {optimum}")
    expect(general_separates(points, lines), "general lines do not separate")


def check_roundtrip(inst, witness, planar, lift, extracted) -> None:
    """Reduced point count, lifted line budgets and separation, and that the
    extracted set is a colorful dominating set of the original instance."""
    k, n = len(inst["classes"]), len(inst["blues"])
    d = sum(1 for u, v in inst["edges"] if v == inst["blues"][0])
    expect(len(planar["points"]) == 2 * k + 3 * d * n + 6,
           "reduced point count differs from 2k + 3dn + 6")
    lines = lift["lines"]
    nh = sum(1 for ln in lines if ln["orient"] == "H")
    expect(nh == k + 2 and len(lines) - nh == (d - 1) * n + 1,
           "lifted lines miss the budgets p = k + 2, q = (d - 1)n + 1")
    expect(axis_separates(parse_points(planar), lines),
           f"lifted lines for witness {','.join(witness)} do not separate")
    chosen = extracted["vertices"]
    expect(len(chosen) == k and all(u in cls for u, cls in
                                    zip(chosen, inst["classes"])),
           "extracted set does not pick one vertex per class")
    picked = set(chosen)
    dominated = {v for u, v in inst["edges"] if u in picked}
    expect(dominated == set(inst["blues"]), "extracted set does not dominate")
