"""No test file defines one name twice in one scope.

A second ``def test_x`` in a class or module silently replaces the first,
so pytest never collects the first test.  The files are parsed, not
imported: a module, class or function body may bind each function or class
name once.
"""

from __future__ import annotations

import ast
from collections import Counter

from conftest import REPO_ROOT

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _duplicates(source: str) -> list[str]:
    """``scope.name`` for each function or class name bound twice by the
    statements of one module, class or function body."""
    out = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, _SCOPES):
            names = Counter(stmt.name for stmt in scope.body if isinstance(stmt, _DEFS))
            where = getattr(scope, "name", "<module>")
            out += [f"{where}.{name}" for name, count in names.items() if count > 1]
    return out


def test_no_test_file_redefines_a_name():
    found = {
        path.name: dupes
        for path in sorted((REPO_ROOT / "tests").glob("*.py"))
        if (dupes := _duplicates(path.read_text()))
    }
    assert not found, found


def test_duplicates_are_found_in_classes_and_modules():
    source = (
        "def f(): pass\n"
        "class A:\n"
        "    def t(self): pass\n"
        "    def u(self): pass\n"
        "    def t(self): pass\n"
        "class B:\n"
        "    def t(self): pass\n"
        "def f(): pass\n"
    )
    assert sorted(_duplicates(source)) == ["<module>.f", "A.t"]
