"""Workload items run against fdual's public API, and their output checks.

Importing this module imports fdual, so the benchmark imports it inside
the timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time

from fdual import abelian, cli, duality, search

from gen import PARALLEL_JOBS


def setup(workload, items):
    """Build what the items need before the first one: Aut(G) and the search
    context of every group.  ``_context`` is the one private name used: it is
    the only way to build the context ahead of the first search."""
    if workload == "verify_exact":
        return
    for item in items:
        spec = abelian.GroupSpec(tuple(item["orders"]))
        abelian.automorphism_group(spec)
        search._context(spec)


def _config(item, **overrides):
    return search.SearchConfig(
        spec=abelian.GroupSpec(tuple(item["orders"])),
        target_size=item["size"],
        mode=item["mode"],
        symmetry=item["symmetry"],
        frontier_depth=item.get("depth"),
        **overrides,
    )


def run_search_item(item, workdir):
    if "stop_budget" not in item:
        return {"result": search.run_search(_config(item, budget=item["budget"]))}
    path = os.path.join(workdir, "checkpoint.json")
    if os.path.exists(path):
        os.remove(path)
    first = search.run_search(_config(item, budget=item["stop_budget"], checkpoint_path=path))
    started = time.perf_counter()
    result = search.run_search(_config(item, checkpoint_path=path), jobs=PARALLEL_JOBS)
    return {"result": result, "first": first, "pool_wall_s": time.perf_counter() - started}


def run_verify_item(item, workdir):
    """check_pair, make_certificate, a JSON file, then `fdual verify` on it."""
    spec = abelian.GroupSpec(tuple(item["orders"]))
    pairing = abelian.PairingMatrix(spec, tuple(tuple(row) for row in item["pairing"]))
    s = abelian.ElementSet.from_coords(spec, item["S"])
    t = None if item["T"] is None else abelian.ElementSet.from_coords(spec, item["T"])
    verdict = duality.check_pair(spec, pairing, s, s if t is None else t).holds
    try:
        cert = duality.make_certificate(spec, pairing, s, t=t)
        document = cert.to_dict()
    except duality.CertificateError:
        cert = None
        document = {key: item[key] for key in ("S", "T", "pairing")}
        document.update(group={"orders": item["orders"]}, mode="pair")
    path = os.path.join(workdir, "item.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", path])
    return {"verdict": verdict, "cert": cert, "exit": code}


def run_item(workload, item, workdir):
    if workload == "verify_exact":
        return run_verify_item(item, workdir)
    return run_search_item(item, workdir)


def check(workload, item, outcome):
    """Problems with one item's outputs; an empty list means correct.

    Node counts are not checked, so a pruning gain is not a failure."""
    if "error" in outcome:
        return [outcome["error"]]
    if workload == "verify_exact":
        return _check_verify(item, outcome)
    return _check_search(item, outcome)


def _check_verify(item, outcome):
    problems = []
    holds = item["holds"]
    if outcome["verdict"] != holds:
        problems.append(f"check_pair verdict {outcome['verdict']}, expected {holds}")
    if outcome["exit"] != (cli.EXIT_OK if holds else cli.EXIT_FAILS):
        problems.append(f"fdual verify exit code {outcome['exit']}")
    cert = outcome["cert"]
    if (cert is not None) != holds:
        problems.append("certificate issued for a failing instance" if cert else "no certificate")
    elif cert is not None and (cert.s_primitive, cert.t_primitive) != (
        item["s_primitive"], item["t_primitive"]
    ):
        problems.append("wrong primitivity flags in the certificate")
    return problems


def _check_search(item, outcome):
    result = outcome["result"]
    problems = []
    if result.complete != item["complete"]:
        problems.append(f"complete={result.complete}, expected {item['complete']}")
    if len(result.certificates) != item["classes"]:
        problems.append(f"{len(result.certificates)} orbit classes, expected {item['classes']}")
    if "first" in outcome and outcome["first"].complete:
        problems.append("the checkpointed leg was not stopped by its budget")
    if "hits" in item and [list(c.s.indices) for c in result.certificates] != item["hits"]:
        problems.append("resumed hit list differs from an uninterrupted run's")
    for cert in result.certificates:
        ok, why = duality.verify_certificate(cert)
        if not ok:
            problems.append(f"certificate does not re-verify: {why}")
    return problems


def peak_rss_mb():
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return rss_kb / 1024.0


def layer_metrics(workload, items, outcomes, tracer):
    """Per-layer metrics of one traced repetition (see README.md)."""
    rows = tracer.summary()
    out = {}

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    for name in (
        "abelian.is_canonical", "abelian.canonical_form", "search.leaf_test",
        "search.checkpoint_save", "duality.check_pair", "duality.exact_spectrum",
        "duality.weight_enumerator", "duality.make_certificate",
        "duality.verify_certificate", "cyclotomic.norm_sq", "cyclotomic.as_integer",
        "primitivity.is_primitive", "cli.main",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = self_s(name)
    counts = tracer.counts
    out["abelian.is_canonical.us_per_call"] = 1e6 * ratio(
        self_s("abelian.is_canonical"), calls("abelian.is_canonical"))
    out["abelian.is_canonical.keep_frac"] = ratio(
        counts["abelian.is_canonical.kept"], calls("abelian.is_canonical"))
    out["abelian.automorphism_group.s"] = self_s("abelian.automorphism_group")
    out["abelian.automorphism_group.auts"] = sum(tracer.auts.values())
    out["search.run_search.s"] = self_s("search.run_search")
    out["search.checkpoint_save.bytes"] = counts["search.checkpoint_save.bytes"]
    out["duality.check_pair.reject_frac"] = ratio(
        counts["duality.check_pair.rejected"], calls("duality.check_pair"))
    out["cyclotomic.as_integer.nonint_frac"] = ratio(
        counts["cyclotomic.as_integer.nonint"], calls("cyclotomic.as_integer"))
    out["primitivity.is_primitive.primitive_frac"] = ratio(
        counts["primitivity.is_primitive.primitive"], calls("primitivity.is_primitive"))
    out["cli.json_bytes"] = counts["cli.json_bytes"]

    stats = {key: 0 for key in (
        "nodes_visited", "pruned_by_symmetry", "pruned_by_screen", "leaves_tested", "hits")}
    tasks = 0
    pool_wall = 0.0
    for item, outcome in zip(items, outcomes):
        if "result" not in outcome:
            continue
        for key, value in outcome["result"].stats.to_dict().items():
            if key in stats:
                stats[key] += value
        tasks += len(search.enumerate_tasks(_config(item)))
        pool_wall += outcome.get("pool_wall_s", 0.0)
    for key, value in stats.items():
        out[f"search.{key}"] = value
    out["search.tasks"] = tasks
    out["search.nodes_per_s"] = ratio(stats["nodes_visited"], rows["search.run_search"]["s"]) \
        if "search.run_search" in rows else 0.0
    out["search.leaf_hit_frac"] = ratio(stats["hits"], stats["leaves_tested"])
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = children.ru_utime + children.ru_stime
    out["search.worker_cpu_s"] = worker_cpu
    out["search.parallel_eff"] = ratio(worker_cpu, PARALLEL_JOBS * pool_wall)
    out["trace.spans"] = len(tracer.spans)
    return out
