"""Every name a module of the package imports is used in that module, and
every private function, class and method is referenced in the package.

No lint tool is part of the project, so these stdlib `ast` scans are the
guard.  `__init__.py` is exempt from the import scan: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import substrukt

PACKAGE = Path(substrukt.__file__).resolve().parent


def unused_imports(source):
    """(line, name) of each imported name that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\n"
              "from itertools import chain, product\n"
              "print(os.sep, chain, regex)\n")
    assert unused_imports(source) == [(3, "product")]


def test_no_unused_imports_in_the_package():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def unreferenced_private_definitions(sources):
    """(module, line, name) of each private module-level function or
    class, and each private method, whose name no module of `sources` (a
    map from module name to source) loads as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if (isinstance(d, kinds) and d.name.startswith("_")
                        and not d.name.endswith("__")
                        and d.name not in referenced):
                    found.append((module, d.lineno, d.name))
    return sorted(found)


def test_the_scan_finds_an_unreferenced_private_definition():
    sources = {"a": ("def _used():\n    pass\n"
                     "def _stale():\n    pass\n"
                     "class _Kept:\n"
                     "    def _old(self):\n        return _used()\n"
                     "    def _new(self):\n        pass\n"
                     "    def __eq__(self, other):\n"
                     "        return self._new()\n"),
               "b": "from a import _Kept\nprint(_Kept())\n"}
    assert unreferenced_private_definitions(sources) == [
        ("a", 3, "_stale"), ("a", 6, "_old")]


def test_no_unreferenced_private_definitions_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []
