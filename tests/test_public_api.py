"""Every public module-level function and class of ``src/fdual`` has a user.

A name counts as used when code under ``src/`` or ``perfbench/`` refers to
it (a name, an attribute, an import, or a word of a string that is not a
docstring, such as the tracer's ``TRACED`` table), or when README shows it
in code.  A helper that only the tests call belongs in ``tests/oracles.py``.
The files are parsed, not imported.
"""

from __future__ import annotations

import ast
import re

from conftest import REPO_ROOT

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(source: str) -> list[str]:
    return [
        stmt.name for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]


def _code_words(source: str) -> set[str]:
    """The names a module refers to, and the words of its non-docstring strings."""
    tree = ast.parse(source)
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
    defined = [(name, defined_in) for defined_in, source in sources.items()
               for name in _public_definitions(source) if defined_in.startswith("src/")]
    used = set().union(*map(_code_words, sources.values()), _readme_code_words(readme))
    return [f"{where}: {name}" for name, where in defined if name not in used]


def test_every_public_name_has_a_user():
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
        "def used():\n    return traced\n"
    )
    bench = 'TABLE = [("mod", "lib.traced")]\nx = lib.used\n'
    readme = "Shown in prose is not code: helper.\n```python\nShown()\n```\n"
    assert _unused({"src/lib.py": library, "perfbench/b.py": bench}, readme) == [
        "src/lib.py: helper"
    ]
    assert _unused({"src/lib.py": library}, "Shown and used") == [
        "src/lib.py: helper", "src/lib.py: Shown", "src/lib.py: used",
    ]
