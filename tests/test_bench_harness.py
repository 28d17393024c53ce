"""The benchmark harness runs end to end against the package as it is.

``perfbench/rep.py`` runs one traced repetition of a workload in a fresh
interpreter: it builds Aut(G) and the search context, runs the items through
the public API, checks them and reports the per-layer metrics.  Each
workload runs here on a tiny hand-written ``inputs.json``, so a change to a
name or a return value the harness uses fails tier-1 rather than the
benchmark.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
SMALL = dict(size=2, mode="pair", symmetry="affine", budget=None, complete=True)
SEARCHES = [dict(SMALL, orders=[4], classes=1), dict(SMALL, orders=[2, 2], classes=0)]


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _items(workload):
    if workload == "search_parallel":
        # a budget-stopped checkpointed leg, then a resume with the pool;
        # the hits are those of an uninterrupted run
        return [dict(orders=[4, 4], size=4, mode="self_dual", symmetry="affine", depth=2,
                     stop_budget=20, classes=2, complete=True,
                     hits=[[0, 1, 4, 5], [0, 1, 4, 15]])]
    if workload == "verify_exact":
        gen = _gen()
        family = ("Z16", lambda rng: gen.subgroup_pair(rng, (16,), 4), 1, 1)
        return gen.verify_items(seed=0, families=[family])
    return SEARCHES


@pytest.mark.parametrize(
    "workload", ["search_bigaut", "search_cyclic", "verify_exact", "search_parallel"]
)
def test_traced_repetition(workload, tmp_path):
    items = _items(workload)
    (tmp_path / "inputs.json").write_text(json.dumps(items))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), *sys.path]))
    env.pop("FD_THREADS", None)
    cmd = [sys.executable, str(PERFBENCH / "rep.py"), "--workload", workload,
           "--workdir", str(tmp_path), "--trace"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["items"] == len(items)
    assert result["failed"] == 0, proc.stderr
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py derives trace.overhead_s from traced and untraced repetitions
    names = {metric["name"] for metric in declared} - {"trace.overhead_s"}
    assert names <= set(result["layers"])
    if workload != "verify_exact":
        assert result["layers"]["abelian.automorphism_group.auts"] > 0
