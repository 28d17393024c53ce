"""Every module-level function and class of ``src/fdual`` has a user.

A name counts as used when code under ``src/`` or ``perfbench/`` outside
the definition itself refers to it (a name, an attribute, an import, or a
word of a string that is not a docstring, such as the tracer's ``TRACED``
table), so a recursive helper that nothing else calls is unused.  A public
name also counts as used when README shows it in code; a private one needs
a caller.  A helper that only the tests call belongs in
``tests/oracles.py``.  The files are parsed, not imported.
"""

from __future__ import annotations

import ast
import re

from conftest import REPO_ROOT

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(source: str) -> list[str]:
    return [
        stmt.name for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    ]


def _code_words(source: str, skip: str | None = None) -> set[str]:
    """The names a module refers to, and the words of its non-docstring
    strings, outside its module-level definition named ``skip``."""
    tree = ast.parse(source)
    if skip is not None:
        tree.body = [stmt for stmt in tree.body if getattr(stmt, "name", None) != skip]
    docstrings = {
        id(scope.body[0].value) for scope in ast.walk(tree)
        if isinstance(scope, _SCOPES) and scope.body and isinstance(scope.body[0], ast.Expr)
        and isinstance(scope.body[0].value, ast.Constant)
    }
    words: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            words.update(re.findall(r"\w+", node.value))
    return words


def _readme_code_words(text: str) -> set[str]:
    """The words of README's fenced code blocks and inline code spans."""
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {word for code in fenced + inline for word in re.findall(r"\w+", code)}


def _unused(sources: dict[str, str], readme: str) -> list[str]:
    words = {path: _code_words(source) for path, source in sources.items()}
    shown = _readme_code_words(readme)
    unused = []
    for where, source in sources.items():
        if not where.startswith("src/"):
            continue
        elsewhere = set().union(*(w for path, w in words.items() if path != where))
        for name in _definitions(source):
            if name in elsewhere or name in _code_words(source, skip=name):
                continue
            if name.startswith("_") or name not in shown:
                unused.append(f"{where}: {name}")
    return unused


def test_every_definition_has_a_user():
    paths = sorted((REPO_ROOT / "src" / "fdual").glob("*.py"))
    paths += sorted((REPO_ROOT / "perfbench").glob("*.py"))
    sources = {p.relative_to(REPO_ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert _unused(sources, readme) == []


def test_finder_sees_test_only_names():
    library = (
        '"""Uses helper in prose only."""\n'
        "def helper():\n    '''helper'''\n"
        "def traced():\n    pass\n"
        "class Shown:\n    pass\n"
        "def _private():\n    pass\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
        "def _called():\n    pass\n"
        "def used():\n    return traced, _called()\n"
    )
    bench = 'TABLE = [("mod", "lib.traced")]\nx = lib.used\n'
    readme = "Shown in prose is not code: helper.\n```python\nShown()\n_private()\n```\n"
    assert _unused({"src/lib.py": library, "perfbench/b.py": bench}, readme) == [
        "src/lib.py: helper", "src/lib.py: _private", "src/lib.py: _recursive",
    ]
    assert _unused({"src/lib.py": library}, "Shown and used") == [
        "src/lib.py: helper", "src/lib.py: Shown", "src/lib.py: _private",
        "src/lib.py: _recursive", "src/lib.py: used",
    ]
