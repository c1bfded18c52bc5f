"""The scalar references share no code with the kernels they check.

``group_fit`` is pinned bit for bit against ``RunningRegression``, the grid
merges to ulps against ``merge_time`` / ``merge_standard``, the whole service
against ``verify/oracle.py`` — comparisons that are only worth something
while the reference side imports neither numpy nor the kernel module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
REFERENCES = (
    "regression/isb.py",
    "regression/linear.py",
    "regression/aggregation.py",
    "regression/basis.py",
    "verify/oracle.py",
)


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, at any depth (``from a import b`` counts
    as ``a`` and ``a.b``)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name", REFERENCES)
def test_a_reference_imports_neither_numpy_nor_the_kernels(name):
    modules = imported_modules(SRC / name)
    shared = {
        module
        for module in modules
        if module.split(".")[0] == "numpy"
        # The package re-exports the kernels: import from the submodules.
        or module == "repro.regression"
        or module.startswith("repro.regression.kernels")
    }
    assert not shared, f"{name} imports {sorted(shared)}"


def test_numpy_is_imported_unconditionally():
    """One body per function: no ``try: import numpy``, no import under an
    ``if`` or inside a function that could take another path without it."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            # (``import numpy.typing`` under ``if TYPE_CHECKING`` is an
            # annotation, not a path.)
            if isinstance(node, ast.Import) and "numpy" in [
                alias.name for alias in node.names
            ]:
                assert id(node) in top_level, f"{path}:{node.lineno}"
