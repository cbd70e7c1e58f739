"""The brute-force oracles are ground truth for tests and the CLI, not a
part of the production path: only the modules pinned here import them.
A module that starts to import `oracles` fails this test; one that stops
is dropped from the pin."""

import ast
from pathlib import Path

import sepline

# cli: the `oracle` command and `solve --check`.  The solvers (repair
# included) and the reduction import nothing from the oracles; the
# enumerator the reduction's ordering search uses,
# `colorful_dominating_sets`, lives in `reduction`, and `oracles` imports
# it from there.
ORACLE_IMPORTERS = {"__init__", "cli"}


def imports_oracles(source: str) -> bool:
    """Whether any import statement in `source` names the oracles module,
    at run time or under TYPE_CHECKING alike."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            return True
    return False


def test_only_pinned_modules_import_oracles():
    pkg = Path(sepline.__file__).parent
    importers = {path.stem for path in pkg.glob("*.py")
                 if path.stem != "oracles"
                 and imports_oracles(path.read_text())}
    assert importers == ORACLE_IMPORTERS


def test_scan_finds_every_import_form():
    for source in ("from .oracles import sep_bitset",
                   "from . import oracles",
                   "from . import geometry, oracles",
                   "import sepline.oracles",
                   "from sepline.oracles import feasible_pq",
                   "from sepline import oracles",
                   "def f():\n    from .oracles import full_mask"):
        assert imports_oracles(source), source
    for source in ("from .reduction import CRBDS",
                   "from .geometry import oracle_free",
                   "import sepline.solvers"):
        assert not imports_oracles(source), source
