"""The computation path promises exact rational arithmetic with no floating
point anywhere (the `geometry` module docstring); its modules may not call
`float`, write a float literal or reach for `math.sqrt`/`math.isclose`.
`render.py` converts to decimals for display only and is exempt."""

import ast
from pathlib import Path

import pytest

import sepline

EXACT_PATH = ("geometry.py", "decomposition.py", "matching.py", "solvers.py",
              "reduction.py")
FLOAT_MATH = {"sqrt", "isclose"}


def float_uses(tree) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                           (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {a.name}")
                      for a in node.names if a.name in FLOAT_MATH]
    return found


@pytest.mark.parametrize("module", EXACT_PATH)
def test_no_floating_point(module):
    path = Path(sepline.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    assert float_uses(tree) == [], f"{module} uses floating point"


def test_the_scan_finds_each_form():
    src = ("import math\nfrom math import sqrt, isclose\n"
           "a = float(1)\nb = 0.5\nc = math.sqrt(2)\nd = math.isclose(a, b)\n")
    assert sorted(what for _, what in float_uses(ast.parse(src))) == sorted([
        "from math import sqrt", "from math import isclose", "float()",
        "0.5", "math.sqrt", "math.isclose"])
