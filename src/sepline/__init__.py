"""Exact solvers for separating red and blue circle points with lines,
plus the budgeted-separation hardness reduction and a CLI toolkit.

All computation uses exact rational arithmetic (fractions.Fraction);
floating point appears only in SVG output.
"""

from .decomposition import (CircleDecomposition, CircleOrder, SwitchGraph,
                            build_switch_graph, circle_order, decompose)
from .errors import SeplineError
from .generate import gen_circle
from .geometry import (BLUE, RED, AxisLine, ColoredPoint, GeneralLine,
                       circle_point_from_parameter, verify_separation)
from .matching import maximum_matching, minimum_edge_cover
from .oracles import (colorful_rbds_solve, feasible_pq, min_axis_separation,
                      min_general_separation_circle)
from .reduction import (CRBDS, extract, extract_vertices, lift, normalize,
                        reduce_instance)
from .render import render_svg
from .solvers import solve_axis, solve_general, wedge_baseline

__all__ = [
    "AxisLine", "BLUE", "CRBDS", "CircleDecomposition", "CircleOrder",
    "ColoredPoint", "GeneralLine", "RED", "SeplineError", "SwitchGraph",
    "build_switch_graph", "circle_order", "circle_point_from_parameter",
    "colorful_rbds_solve", "decompose", "extract", "extract_vertices",
    "feasible_pq", "gen_circle", "lift", "maximum_matching",
    "min_axis_separation", "min_general_separation_circle",
    "minimum_edge_cover", "normalize", "reduce_instance", "render_svg",
    "solve_axis", "solve_general", "verify_separation", "wedge_baseline",
]

__version__ = "0.1.0"
