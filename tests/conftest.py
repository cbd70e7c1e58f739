from fractions import Fraction

import pytest

from sepline.decomposition import projection_interval
from sepline.geometry import BLUE, RED, ColoredPoint, axis_keys

F = Fraction

# one line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the test summary (outside pytest's output capture)
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def pt(i, color, x, y):
    return ColoredPoint(i, color, F(x), F(y))


def line_stabs_switch(orient: str, c, switch) -> bool:
    """Whether the axis line of orientation `orient` at `c` crosses the
    open switch arc: `c` lies inside its open projection interval.  The
    reference for the solver's bisection stab check."""
    itv = projection_interval(switch, orient)
    return itv.lo < c < itv.hi


def axis_coords(lines):
    """The sorted, deduplicated H and V line coordinates."""
    hks, vks = axis_keys(lines)
    return [k[1] for k in hks], [k[1] for k in vks]


@pytest.fixture
def pts4():
    """Alternating 4-point instance at the axis extremes."""
    return [
        pt(0, RED, 1, 0),
        pt(1, BLUE, 0, 1),
        pt(2, RED, -1, 0),
        pt(3, BLUE, 0, -1),
    ]


@pytest.fixture
def diag():
    """Two long chunks whose switches are tiny arcs on opposite diagonals."""
    return [
        pt(0, BLUE, F(3, 5), F(4, 5)),
        pt(1, BLUE, 0, 1),
        pt(2, BLUE, -1, 0),
        pt(3, BLUE, F(-4, 5), F(-3, 5)),
        pt(4, RED, F(-3, 5), F(-4, 5)),
        pt(5, RED, 0, -1),
        pt(6, RED, 1, 0),
        pt(7, RED, F(4, 5), F(3, 5)),
    ]
