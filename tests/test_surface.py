"""The library's public surface: every public top-level function and class has a use.

A name counts as used when some code of the library or the benchmark names
it outside the name's own definition, or the packaging names it as an entry
point. Only code counts: an identifier, or a string literal whose whole
value is the name (a lookup by name); a mention in a docstring or a comment
does not. A name that only tests use is deleted, or moved into the tests,
rather than kept here.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "subforest"


def _code_names(path: pathlib.Path) -> list:
    """(name, line) of every identifier and whole-string literal in a Python file's code."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def _entry_points() -> set:
    """The objects the packaging's ``module:object`` entry points name."""
    return set(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))


def _public_definitions():
    """(module path, name, first line, last line) of each public top-level def or class."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_public_name_is_used_outside_the_tests():
    definitions = list(_public_definitions())
    assert {"train", "ForestModel", "load_csv", "draw_block"} <= {name for _, name, _, _ in definitions}
    uses = {}
    for path in (p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))):
        for name, line in _code_names(path):
            uses.setdefault(name, []).append((path, line))
    entry_points, unused = _entry_points(), []
    for module, name, first, last in definitions:
        # a use outside the definition's own lines, or an entry point
        if not any(path != module or not first <= line <= last for path, line in uses.get(name, ())) \
                and name not in entry_points:
            unused.append(f"{module.relative_to(ROOT)}: {name}")
    assert not unused, f"public names only the tests use: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_a_siblings_private_name():
    modules = {path.stem for path in LIBRARY.glob("*.py")}
    reads = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        # names bound to sibling modules by ``from . import forest`` or ``... as tree_mod``
        aliases = {a.asname or a.name for node in imports if node.module is None for a in node.names if a.name in modules}
        reads += [f"{path.name}: from .{node.module} import {a.name}"
                  for node in imports if node.module is not None for a in node.names if _private(a.name)]
        reads += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and _private(node.attr)]
    assert not reads, f"private names read across modules: {reads}"


def test_library_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency; scipy and hypothesis are test extras,
    # so an import of them in the library would break a plain install. Modules
    # import lazily inside functions, so every import node counts, at any depth.
    imported = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert ("normal.py", "statistics") in imported  # imported inside norm_ppf
    outside = [f"{name}: import {module}" for name, module in imported
               if module.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not outside, f"imports outside numpy and the standard library: {outside}"
