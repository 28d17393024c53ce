"""Every name the benchmark's tracer wraps must exist in fdual.

``perfbench/spans.py`` rebinds each ``(module, attribute)`` of its
``TRACED`` table when a run is traced, so deleting or renaming one of them
in the package breaks ``perfbench/run.py --trace 1``.  The table is read
from the file as it is; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import importlib
import importlib.util

from conftest import REPO_ROOT


def _traced_table():
    path = REPO_ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    table = _traced_table()
    assert table
    for span, module_name, attr in table:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{attr} is not callable"
