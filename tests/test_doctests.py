"""The examples in the package's docstrings run and pass."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import fdual


def test_every_module_doctest_passes():
    names = [f"fdual.{info.name}" for info in pkgutil.iter_modules(fdual.__path__)]
    attempted = 0
    for name in ["fdual", *names]:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 1
