"""The solve path, the reduction and the oracles must keep their guarantees
under `python -O`, which strips every `assert`; their modules check with
explicit raises instead."""

import ast
from pathlib import Path

import pytest

import sepline

SOLVE_PATH = ("geometry.py", "decomposition.py", "matching.py", "solvers.py",
              "reduction.py", "oracles.py")


@pytest.mark.parametrize("module", SOLVE_PATH)
def test_no_assert_statements(module):
    path = Path(sepline.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts on lines {lines}"
