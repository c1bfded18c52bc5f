"""Every ``src/repro`` module is reached from an entry point of the project.

A module is *reached* when ``repro.__main__`` (``serve`` / ``demo`` /
``soak``), a script under ``benchmarks/`` or ``examples/``, or a module
already reached imports a name the module defines.  An import through a
package's ``__init__`` is followed to the module that defines the name; a
re-export alone reaches nothing, and package ``__init__`` modules are not
checked themselves.  The walk reads source only (``ast``), so a module the
tests alone import fails here instead of waiting for a sweep.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Unreached on purpose, each with the reason it stays.
EXCEPTIONS = {
    # ROADMAP item 3 (refresh by deltas) decides whether sliding-window
    # regression joins the refresh or goes.
    "repro.stream.sliding",
}


class _Module:
    """One source file: the names it defines, the names it re-exports
    (``alias -> (module, name)``, ``name`` ``None`` for a module alias) and
    every import it makes, anywhere in the file."""

    def __init__(self, name: str, path: Path, package: str) -> None:
        self.name = name
        tree = ast.parse(path.read_text(), str(path))
        self.defines: set[str] = set()
        self.reexports: dict[str, tuple[str, str | None]] = {}
        self.imports: list[tuple[str, str | None]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self.imports += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(node, package)
                self.imports += [(base, alias.name) for alias in node.names]
        for node in _top_level(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defines.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    self.defines.update(
                        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                    )
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(node, package)
                for alias in node.names:
                    self.reexports[alias.asname or alias.name] = (base, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.reexports[alias.asname] = (alias.name, None)


def _top_level(body: list[ast.stmt]):
    """Module-level statements, looking inside ``if`` / ``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _top_level(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _top_level(handler.body)


def _absolute(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module or ""
    parts = package.split(".")
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _load(src: Path) -> dict[str, _Module]:
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            package = ".".join(parts)
        else:
            package = ".".join(parts[:-1])
        modules[".".join(parts)] = _Module(".".join(parts), path, package)
    return modules


def _defining(modules, module: str, name: str | None, seen=()) -> set[str]:
    """The modules an import of ``name`` from ``module`` reaches."""
    if module not in modules or (module, name) in seen:
        return set()
    if name is None:
        return {module}
    here = modules[module]
    if name in here.defines:
        return {module}
    if name in here.reexports:
        target, original = here.reexports[name]
        return _defining(modules, target, original, (*seen, (module, name)))
    if f"{module}.{name}" in modules:
        return {f"{module}.{name}"}
    return set()


def reached(root: Path) -> set[str]:
    modules = _load(root / "src" / "repro")
    entry = [
        _Module("<entry>", path, "")
        for folder in ("benchmarks", "examples")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    done: set[str] = set()
    todo = [modules["repro.__main__"], *entry]
    while todo:
        module = todo.pop()
        for target, name in module.imports:
            for found in _defining(modules, target, name):
                if found not in done:
                    done.add(found)
                    todo.append(modules[found])
    return done | {"repro.__main__"}


def test_every_module_is_reached_from_an_entry_point():
    modules = _load(ROOT / "src" / "repro")
    checked = {
        name
        for name, module in modules.items()
        if not (ROOT / "src" / (name.replace(".", "/") + "/__init__.py")).exists()
    }
    unreached = checked - reached(ROOT) - EXCEPTIONS
    assert not unreached, f"modules no entry point reaches: {sorted(unreached)}"
    assert EXCEPTIONS <= checked, "an exception names a module that is gone"
