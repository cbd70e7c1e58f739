"""Hand-rolled SVG 1.1 rendering of instances, arrangements and solutions.

Coordinates are converted to decimals for display only; nothing rendered
here is ever fed back into computation.  Circle instances get the unit
circle, planar (reduced) instances get their bounding box and, when a
layout is supplied, the track-grid overlay.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import BLUE, RED, AxisLine, cell_map

_COLORS = {RED: "#c62828", BLUE: "#1565c0"}


def _fmt(v) -> str:
    return f"{float(v):.4f}"


def _clip_general(ln, x0, y0, x1, y1):
    """Two endpoints of a*x + b*y + c = 0 clipped to the [x0,x1]x[y0,y1]
    box."""
    pts = []
    if ln.b != 0:
        for x in (x0, x1):
            y = (-ln.c - ln.a * Fraction(x)) / ln.b
            if y0 <= y <= y1:
                pts.append((x, y))
    if ln.a != 0:
        for y in (y0, y1):
            x = (-ln.c - ln.b * Fraction(y)) / ln.a
            if x0 <= x <= x1:
                pts.append((x, y))
    pts = sorted(set(pts))
    return (pts[0], pts[-1]) if len(pts) >= 2 else None


def render_svg(points, lines=(), *, kind="circle", layout=None,
               shade_corrupt=False) -> str:
    lines = list(lines)
    if kind == "circle":
        x0 = y0 = Fraction(-6, 5)
        x1 = y1 = Fraction(6, 5)
    else:
        if layout is not None:
            x0, y0 = Fraction(-2), Fraction(-2)
            x1, y1 = Fraction(layout.width + 2), Fraction(layout.height + 2)
        else:
            xs = [p.x for p in points] or [Fraction(0)]
            ys = [p.y for p in points] or [Fraction(0)]
            pad = max(Fraction(1), (max(xs) - min(xs)) // 20)
            x0, x1 = min(xs) - pad, max(xs) + pad
            y0, y1 = min(ys) - pad, max(ys) + pad
    w, h = x1 - x0, y1 - y0
    r = min(w, h) / 100  # point radius in user units

    def sx(x):
        return _fmt(x - x0)

    def sy(y):  # SVG y grows downward; flip about the box
        return _fmt(y1 - y)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="640" height="{_fmt(640 * h / w)}" '
           f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
           f'<rect width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>']

    axis = [ln for ln in lines if isinstance(ln, AxisLine)]
    if shade_corrupt and axis and len(axis) == len(lines):
        cm = cell_map(points, axis)
        rows = [y0] + cm.hs + [y1]
        cols = [x0] + cm.vs + [x1]
        for sig in sorted(cm.corrupt):
            cx0, cx1 = cols[sig.col], cols[sig.col + 1]
            cy0, cy1 = rows[sig.row], rows[sig.row + 1]
            out.append(f'<rect class="corrupt" x="{sx(cx0)}" y="{sy(cy1)}" '
                       f'width="{_fmt(cx1 - cx0)}" '
                       f'height="{_fmt(cy1 - cy0)}" '
                       'fill="#fdd835" fill-opacity="0.35"/>')

    if kind == "circle":
        out.append(f'<circle class="unit-circle" cx="{sx(0)}" cy="{sy(0)}" '
                   f'r="1" fill="none" stroke="#9e9e9e" '
                   f'stroke-width="{_fmt(r / 2)}"/>')
    elif layout is not None:
        grid = []
        for j in range(layout.n + 1):
            lo, hi = layout.v_track(j)
            grid.append((hi, "V", "track"))
            if j >= 1:
                for beta in range(1, 2 * layout.d):
                    grid.append((layout.v_strip(j, beta)[1], "V", "strip"))
        for i in range(layout.k + 2):
            lo, hi = layout.h_track(i)
            grid.append((hi, "H", "track"))
            if 1 <= i <= layout.k:
                for alpha in range(layout.m + 1):
                    grid.append((layout.h_strip(i, alpha)[1], "H", "strip"))
        for c, orient, kindname in grid:
            col = "#bdbdbd" if kindname == "track" else "#eeeeee"
            if orient == "V":
                out.append(f'<line class="grid {kindname}" x1="{sx(c)}" '
                           f'y1="{sy(0)}" x2="{sx(c)}" '
                           f'y2="{sy(layout.height)}" stroke="{col}" '
                           f'stroke-width="{_fmt(r / 3)}"/>')
            else:
                out.append(f'<line class="grid {kindname}" x1="{sx(0)}" '
                           f'y1="{sy(c)}" x2="{sx(layout.width)}" '
                           f'y2="{sy(c)}" stroke="{col}" '
                           f'stroke-width="{_fmt(r / 3)}"/>')

    for ln in lines:
        if isinstance(ln, AxisLine):
            if ln.orient == "H":
                seg = ((x0, ln.c), (x1, ln.c))
            else:
                seg = ((ln.c, y0), (ln.c, y1))
        else:
            seg = _clip_general(ln, x0, y0, x1, y1)
            if seg is None:
                continue
        (ax, ay), (bx, by) = seg
        out.append(f'<line class="sol" x1="{sx(ax)}" y1="{sy(ay)}" '
                   f'x2="{sx(bx)}" y2="{sy(by)}" stroke="#2e7d32" '
                   f'stroke-width="{_fmt(r / 2)}"/>')

    for p in points:
        out.append(f'<circle class="pt" cx="{sx(p.x)}" cy="{sy(p.y)}" '
                   f'r="{_fmt(r)}" fill="{_COLORS[p.color]}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
