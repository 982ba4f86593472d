"""Every import in the package's modules is used, sits at module level and
names nothing private of a public module, and ring.py, the representation
every other module builds on, imports none of them (a stdlib ast scan).
A cold import of the command line loads none of the standard library's
introspection modules, and every public definition has a reader in the
package."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmreg"

# Internal modules: their underscore names are for the package's own layers.
INTERNAL_MODULES = {"_kernel", "_linalg"}
# What dataclasses and typing pull into a fresh interpreter; the package's
# records are namedtuples, so a command-line call imports none of these.
COLD_UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


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


def function_level_imports(path):
    """(line, function) of each import statement inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, fn.name)
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_module_imports_inside_a_function():
    found = [f"{path.name}:{line} in {fn}"
             for path in sorted(SRC.glob("*.py"))
             for line, fn in function_level_imports(path)]
    assert not found, f"function-level imports: {found}"


def private_imports(path):
    """(line, module, name) of each underscore name that path imports from a
    public sibling module (from .ring import _x)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module not in INTERNAL_MODULES | {None}
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_a_public_module():
    found = [f"{path.name}:{line} {module}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for line, module, name in private_imports(path)]
    assert not found, f"private names imported from public modules: {found}"


def package_imports(path):
    """(line, module) of each import of a module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "cmreg":
                found.append((node.lineno, module))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "cmreg"]
    return found


def test_ring_imports_no_module_of_the_package():
    assert package_imports(SRC / "_kernel.py"), "the scan finds the kernel's import of ring"
    found = [f"ring.py:{line} {module}" for line, module in package_imports(SRC / "ring.py")]
    assert not found, f"ring.py must stay the bottom layer: {found}"


def test_a_cold_import_of_the_cli_loads_no_introspection_module():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cmreg.cli, cmreg.verify; "
            f"print(*[m for m in {COLD_UNUSED!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [], f"a cold import of cmreg.cli loads {out.split()}"


# Public definitions kept although no module of the package reads them.
UNCALLED_ON_PURPOSE = {
    "member": "the bench tracer wraps groebner.member (cmbench/layers.py)",
    "Block": "a public monomial order for Ideal.groebner",
}


def package_module_names(tree):
    """The names a module binds to modules of the package (from . import
    idealops as ops binds ops)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}


def unread_public_definitions(sources):
    """The public module-level functions and classes of the given module
    sources that none of them reads, sorted.  A read is a name, or an
    attribute read off a name bound to a module of the package (ops.colon,
    _kernel.buchberger): functools.reduce reads no definition called reduce."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        modules = package_module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    return sorted(defined - read)


def test_every_public_definition_has_a_caller_in_the_package():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    found = unread_public_definitions(sources)
    assert set(found) >= UNCALLED_ON_PURPOSE.keys()
    found = [name for name in found if name not in UNCALLED_ON_PURPOSE]
    assert not found, f"public definitions no module of the package reads: {found}"


def test_an_attribute_of_a_non_package_name_is_no_read():
    defines = "def reduce(f):\n    return f\n"
    assert unread_public_definitions(
        [defines, "import functools\nfunctools.reduce(min, [1])\n"]) == ["reduce"]
    assert unread_public_definitions(
        [defines, "from . import ops\nops.reduce(1)\n"]) == []
    assert unread_public_definitions([defines, "reduce(1)\n"]) == []


def test_no_class_is_a_dataclass():
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ClassDef)
             and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert not found, f"dataclasses: {found}"
