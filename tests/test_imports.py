"""Every import in the package's modules is used and sits at module level
(a stdlib ast scan)."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmreg"


def unused_imports(path):
    """(line, name) of each name that path imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_module_has_an_unused_import():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert not found, f"unused imports: {found}"


# ring.reduce imports _kernel when called: _kernel imports ring, so a
# module-level import would be a cycle.
ALLOWED_FUNCTION_IMPORTS = {("ring.py", "reduce", "_kernel")}


def function_level_imports(path):
    """(line, function, imported names) of each import statement inside a
    function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, fn.name, *(alias.name for alias in node.names))
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_module_imports_inside_a_function():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line, *where in function_level_imports(path)
             if (path.name, *where) not in ALLOWED_FUNCTION_IMPORTS]
    assert not found, f"function-level imports: {found}"
