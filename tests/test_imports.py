"""Every name a module of the package imports is used in that module.

No lint tool is part of the project, so this stdlib `ast` scan is the
guard.  `__init__.py` is exempt: its imports are the package's re-exports.
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
