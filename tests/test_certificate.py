"""`solve_general`'s certificate and the integer-built circle and line
primitives it rests on.

The certificate accepts exactly the outputs that `verify_separation`'s
O(n L) check accepts on seeded instances, and rejects each mutation of a
correct output: an anchor moved off its switch, an anchor on an input
point, a line shifted off its anchors, two lines on one chunk, a dropped
line.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from sepline import solvers
from sepline.decomposition import decompose
from sepline.errors import NotSeparating
from sepline.generate import gen_circle
from sepline.geometry import (BLUE, RED, ColoredPoint, GeneralLine,
                              arc_interior_point, circle_parameter,
                              circle_point_from_parameter, general_line,
                              line_through, verify_separation)
from sepline.solvers import solve_general

from test_decomposition import _sixty_digit_instance
from test_solvers import _random_circle_instance

F = Fraction


def _with_left(rng, n):
    """A random instance that also holds (-1, 0), colored at random."""
    pts = _random_circle_instance(rng, n)
    return pts + [ColoredPoint(n, rng.choice([RED, BLUE]), F(-1), F(0))]


def _corpus():
    rng = random.Random(2609)
    for n in (2, 3, 5, 9, 17, 40):
        for _ in range(8):
            yield _random_circle_instance(rng, n)
            yield _with_left(rng, n)
    for n in (2, 7, 32, 101, 400):
        for seed in (1, 2, 3):
            yield gen_circle(n, seed, "random")
            yield gen_circle(n, seed, "alternating")
    for n, seed in ((8, 1), (24, 9), (60, 10)):
        yield _sixty_digit_instance(n, seed)
    # (-1, 0) at a switch end, and the arc through it with no point there
    yield [ColoredPoint(0, RED, F(-1), F(0)),
           ColoredPoint(1, BLUE, F(0), F(1)),
           ColoredPoint(2, BLUE, F(1), F(0))]
    yield [ColoredPoint(0, RED, F(0), F(1)),
           ColoredPoint(1, BLUE, F(0), F(-1)),
           ColoredPoint(2, RED, F(1), F(0))]


def test_accepts_exactly_what_verify_separation_accepts():
    lines = 0
    for pts in _corpus():
        sol = solve_general(pts)
        solvers._certify_general(sol.lines, sol.anchors,
                                 decompose(pts).positions)
        assert verify_separation(pts, sol.lines) is None
        lines += sol.size
    assert lines > 1500


def test_solvers_do_not_import_the_n_l_check():
    assert not hasattr(solvers, "verify_separation")


@pytest.fixture
def solved():
    """An instance whose blue chunks and red chunks hold 2 to 5 points,
    its solution and its decomposition."""
    pts = gen_circle(60, 4, "chunked:3,2,4,3,5,2,3,4,2,3,5,2,4,3,5,2,2,6")
    return pts, solve_general(pts), decompose(pts)


def _certify(dec, lines, anchors, match):
    with pytest.raises(NotSeparating, match=match):
        solvers._certify_general(lines, anchors, dec.positions)


def _replace(sol, k, p, q):
    """The solution with line k rebuilt through the anchors p and q."""
    lines, anchors = list(sol.lines), list(sol.anchors)
    lines[k] = line_through(p[0], p[1], q[0], q[1])
    anchors[k] = (anchors[k][0], p, q)
    return lines, anchors


def _between(dec, a, b):
    """A circle point strictly inside the open ccw arc from point id a to
    point id b."""
    keys = {p.id: k for k, p in dec.positions}
    return arc_interior_point(dec.points[a], dec.points[b], (), (),
                              keys[a], keys[b])


@pytest.mark.parametrize("where", ["previous red chunk", "own blue chunk",
                                   "switch beyond the red chunk"])
def test_anchor_moved_off_its_switch(solved, where):
    pts, sol, dec = solved
    k = 1
    chunk, p, q = sol.anchors[k]
    w = len(dec.chunks)
    red, blue = dec.chunks[(chunk - 1) % w], dec.chunks[chunk]
    if where == "previous red chunk":
        moved = _between(dec, red.point_ids[0], red.point_ids[1])
    elif where == "own blue chunk":
        moved = _between(dec, blue.point_ids[0], blue.point_ids[1])
    else:
        sw = dec.switches[(chunk - 2) % w]
        moved = _between(dec, sw.start.id, sw.end.id)
    _certify(dec, *_replace(sol, k, moved, q), "not one maximal blue run")


def test_anchor_on_an_input_point(solved):
    pts, sol, dec = solved
    chunk, p, q = sol.anchors[0]
    start = dec.switches[(chunk - 1) % len(dec.switches)].start
    _certify(dec, *_replace(sol, 0, (start.x, start.y), q),
             "anchor p is an input point")


def test_line_shifted_off_its_anchors(solved):
    pts, sol, dec = solved
    lines = list(sol.lines)
    a, b, c = lines[2].a, lines[2].b, lines[2].c
    lines[2] = GeneralLine(a, b, c + 1)
    _certify(dec, lines, sol.anchors, "anchor p is off the line")


def test_anchor_off_the_circle(solved):
    pts, sol, dec = solved
    chunk, p, q = sol.anchors[0]
    _certify(dec, *_replace(sol, 0, (p[0] / 2, p[1] / 2), q),
             "anchor p is off the unit circle")


def test_equal_anchors(solved):
    pts, sol, dec = solved
    lines, anchors = list(sol.lines), list(sol.anchors)
    chunk, p, q = anchors[0]
    anchors[0] = (chunk, p, p)
    _certify(dec, lines, anchors, "p = q")


def test_two_lines_on_one_chunk(solved):
    pts, sol, dec = solved
    lines, anchors = list(sol.lines), list(sol.anchors)
    # the same chunk's line again, and another line through its switches
    lines[1], anchors[1] = lines[0], anchors[0]
    _certify(dec, lines, anchors, "a second line on its blue run")
    chunk, p, q = sol.anchors[0]
    sw = dec.switches[chunk]
    other = arc_interior_point(sw.start, sw.end, {q[0]}, {q[1]},
                               sw.start_pos, sw.end_pos)
    lines, anchors = _replace(sol, 1, p, other)
    anchors[1] = (chunk, p, other)
    _certify(dec, lines, anchors, "a second line on its blue run")


def test_positions_out_of_order(solved):
    pts, sol, dec = solved
    with pytest.raises(NotSeparating, match="do not strictly increase"):
        solvers._certify_general(sol.lines, sol.anchors, dec.positions[::-1])


def test_dropped_line(solved):
    pts, sol, dec = solved
    _certify(dec, sol.lines[1:], sol.anchors[1:], "lines for 9 blue runs")
    _certify(dec, sol.lines[1:], sol.anchors, "lines for 9 anchors")


def test_a_dropped_chunk_cannot_hide(monkeypatch):
    # the certificate reads the angular order, not the chunks, so a blue
    # chunk that decompose loses is still counted
    def losing(points):
        dec = decompose(points)
        blue = next(c for c in dec.chunks if c.color == BLUE)
        blue.color = RED
        return dec
    monkeypatch.setattr(solvers, "decompose", losing)
    with pytest.raises(NotSeparating, match="blue runs"):
        solve_general(gen_circle(40, 2, "alternating"))


# --- the integer builders against the Fraction formulas ----------------------

def _rational(rng, digits):
    return F(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))


def _rationals(seed, count=400):
    rng = random.Random(seed)
    return [_rational(rng, rng.choice((1, 3, 12, 30, 60)))
            for _ in range(count)] + [F(0), F(1), F(-1), F(1, 2), F(-7, 3)]


def test_circle_point_from_parameter_is_the_fraction_formula():
    for t in _rationals(1):
        assert circle_point_from_parameter(t) == ((1 - t * t) / (1 + t * t),
                                                  2 * t / (1 + t * t))
    assert circle_point_from_parameter(3) == (F(-4, 5), F(3, 5))


def test_circle_parameter_inverts_it():
    for t in _rationals(2):
        assert circle_parameter(*circle_point_from_parameter(t)) == t
    with pytest.raises(ValueError):
        circle_parameter(F(-1), F(0))


def test_line_through_is_general_line():
    rng = random.Random(3)
    ts = _rationals(4, 300)
    pairs = []
    for _ in range(300):
        p, q = rng.sample(ts, 2), rng.sample(ts, 2)
        pairs.append((p, q))
        pairs.append((p, (q[0], p[1])))   # horizontal
        pairs.append((p, (p[0], q[1])))   # vertical
    pairs += [((F(0), F(1)), (F(1), F(0))), ((1, 2), (3, 2)),
              ((F(1, 3), 5), (F(1, 3), -5))]
    for (px, py), (qx, qy) in pairs:
        if (px, py) == (qx, qy):
            continue
        a, b, c = qy - py, px - qx, qx * py - px * qy
        line = line_through(px, py, qx, qy)
        assert line == general_line(a, b, c)
        # and, apart from general_line: integers with gcd 1, a positive
        # lead, and a positive multiple of (a, b, c)
        coeffs = (line.a, line.b, line.c)
        assert all(v.denominator == 1 for v in coeffs)
        assert gcd(*(v.numerator for v in coeffs)) == 1
        lead = F(a) if a else F(b)
        assert (line.a if a else line.b) > 0
        assert coeffs == tuple(v * (line.a if a else line.b) / lead
                               for v in (a, b, c))
    for px, py in ((F(2, 3), F(-5, 7)), (F(0), F(0)), (1, 1)):
        with pytest.raises(ValueError):
            line_through(px, py, px, py)
