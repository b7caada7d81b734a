"""The library's public surface: every public top-level function and class has a use.

A name counts as used when some line of the library, the benchmark or the
packaging names it, outside the name's own definition. A name that only
tests use is deleted, or moved into the tests, rather than kept here.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "subforest"


def _reference_files() -> list:
    files = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return files + [ROOT / "pyproject.toml"]


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
    lines = {path: path.read_text().splitlines() for path in _reference_files()}
    unused = []
    for module, name, first, last in definitions:
        word = re.compile(rf"\b{name}\b")
        # every reference file, with the definition's own lines left out of its module
        texts = (text[:first - 1] + text[last:] if path == module else text for path, text in lines.items())
        if not any(word.search("\n".join(text)) for text in texts):
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
