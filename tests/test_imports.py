"""Every name a module of the package imports is used in that module,
every private function, class and method is referenced in the package,
and every function that calls itself has a stated bound on its depth.

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


# Each function of the package that calls itself by name, and the bound on
# its depth; any other recursion could hit the interpreter's limit on a
# deep formula or proof.
RECURSIVE = {
    # one level per non-unit cell of the table: (n - 1) ** 2
    "algebra.monoid_tables.fill",
    # its `depth` argument
    "corpus.random_formula",
    # the formulas `random_formula` generates
    "corpus.formula_size",
    # the pattern's depth: a bound target is compared by identity
    "syntax.match_formula",
    # leaves in the package; the tests' order oracle on their own formulas
    "syntax.formula_key",
}


def self_calls(sources):
    """(qualified name, line) of each function of `sources` (a map from
    module name to source) whose body calls it by name; the qualified name
    is the module and the enclosing definitions, joined by dots."""
    found = []

    def scan(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Name)
                        and n.func.id == child.name
                        for n in ast.walk(child)):
                    found.append((name, child.lineno))
                scan(child, name)
            else:
                scan(child, prefix)

    for module, source in sources.items():
        scan(ast.parse(source), module)
    return sorted(found)


def test_the_scan_finds_a_self_call():
    sources = {"a": ("def depth(f):\n    return 1 + depth(f.child)\n"
                     "def outer(n):\n"
                     "    def rec(k):\n        return rec(k - 1)\n"
                     "    return rec(n)\n"
                     "class C:\n"
                     "    def walk(self):\n        return self.walk()\n"
                     "def loop(xs):\n    return [x for x in xs]\n")}
    assert self_calls(sources) == [("a.depth", 1), ("a.outer.rec", 4)]


def test_recursion_is_bounded():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, _ in self_calls(sources)} == RECURSIVE
