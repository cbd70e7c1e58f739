"""Metamorphic properties of w, kappa and `solve_axis`.

A quarter turn (x, y) -> (-y, x), a mirror (x, y) -> (x, -y), a colour swap
and a permutation of the input keep w and kappa, and `solve_axis` still
returns kappa verifying lines.  Inserting a point at a new rational circle
position never lowers kappa: kappa is the optimum, and lines separating
the larger set separate the smaller one.
"""

import random
from fractions import Fraction

import pytest

from sepline.decomposition import build_switch_graph, decompose
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, ColoredPoint,
                              circle_point_from_parameter, verify_separation)
from sepline.solvers import solve_axis

INSTANCES = ([(n, seed, "random") for n in (4, 7, 12, 19, 26)
              for seed in range(1, 5)]
             + [(n, seed, "alternating") for n in (6, 10, 16, 22)
                for seed in (1, 2)]
             + [(12, 3, "chunked:3,2,4,3"), (20, 5, "chunked:1,6,2,5,3,3"),
                (29, 7, "chunked:5,9,4,11")])


def _renumbered(points):
    return [ColoredPoint(i, p.color, p.x, p.y) for i, p in enumerate(points)]


def _swap(color):
    return BLUE if color == RED else RED


TRANSFORMS = {
    "quarter-turn": lambda pts, rng: [
        ColoredPoint(p.id, p.color, -p.y, p.x) for p in pts],
    "mirror": lambda pts, rng: [
        ColoredPoint(p.id, p.color, p.x, -p.y) for p in pts],
    "colour-swap": lambda pts, rng: [
        ColoredPoint(p.id, _swap(p.color), p.x, p.y) for p in pts],
    "permutation": lambda pts, rng: _renumbered(rng.sample(pts, len(pts))),
}


def kappa_and_w(points):
    dec = decompose(points)
    return build_switch_graph(dec).kappa, dec.w


def solved_size(points):
    sol = solve_axis(points)
    assert verify_separation(points, sol.lines) is None
    assert len(sol.lines) == sol.kappa
    return len(sol.lines)


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@pytest.mark.parametrize("n,seed,pattern", INSTANCES)
def test_invariant_under_transform(n, seed, pattern, name):
    points = gen_circle(n, seed, pattern)
    kappa, w = kappa_and_w(points)
    moved = TRANSFORMS[name](points, random.Random(seed))
    assert kappa_and_w(moved) == (kappa, w)
    assert solved_size(moved) == kappa


def _new_positions(points, rng, count):
    """`count` rational circle points not in `points`, (-1, 0) first."""
    taken = {(p.x, p.y) for p in points}
    out = []
    candidates = [(Fraction(-1), Fraction(0))]
    while len(out) < count:
        xy = candidates.pop() if candidates else circle_point_from_parameter(
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        if xy not in taken:
            taken.add(xy)
            out.append(xy)
    return out


@pytest.mark.parametrize("n,seed,pattern", INSTANCES)
def test_insertion_never_lowers_kappa(n, seed, pattern):
    points = gen_circle(n, seed, pattern)
    kappa, _ = kappa_and_w(points)
    rng = random.Random(1000 + seed)
    for x, y in _new_positions(points, rng, 4):
        bigger = points + [ColoredPoint(n, rng.choice([RED, BLUE]), x, y)]
        assert kappa_and_w(bigger)[0] >= kappa
        assert solved_size(bigger) >= kappa
