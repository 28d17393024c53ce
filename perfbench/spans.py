"""Spans around the calls into fdual's public functions.

install() wraps each traced function and rebinds every name that refers to
it in the fdual modules and in the benchmark's own modules, so the binding
each caller holds (``fdual.search.is_primitive``, ``fdual.duality.norm_sq``,
...) records a span.  Methods are rebound on their class.  A span is
[name, start, end, parent index]; spans stay in memory until write().
Spans inside pool worker processes are not recorded.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); one span name may cover several functions
TRACED = (
    ("abelian.automorphism_group", "fdual.abelian", "automorphism_group"),
    ("abelian.is_canonical", "fdual.abelian", "AffineReducer.is_canonical"),
    ("abelian.canonical_form", "fdual.abelian", "AffineReducer.canonical_form"),
    ("search.run_search", "fdual.search", "run_search"),
    ("search.leaf_test", "fdual.search", "pair_leaf_test"),
    ("search.leaf_test", "fdual.search", "self_dual_leaf_test"),
    ("search.checkpoint_save", "fdual.search", "checkpoint_save"),
    ("duality.check_pair", "fdual.duality", "check_pair"),
    ("duality.exact_spectrum", "fdual.duality", "exact_spectrum"),
    ("duality.weight_enumerator", "fdual.duality", "weight_enumerator"),
    ("duality.make_certificate", "fdual.duality", "make_certificate"),
    ("duality.verify_certificate", "fdual.duality", "verify_certificate"),
    ("cyclotomic.norm_sq", "fdual.cyclotomic", "norm_sq"),
    ("cyclotomic.as_integer", "fdual.cyclotomic", "as_integer"),
    ("primitivity.is_primitive", "fdual.primitivity", "is_primitive"),
    ("cli.main", "fdual.cli", "main"),
)


def _count_auts(tracer, args, result):
    tracer.auts[id(result)] = len(result)


def _count(counter, predicate):
    def hook(tracer, args, result):
        if predicate(result):
            tracer.counts[counter] += 1
    return hook


def _count_bytes(counter, path_of):
    def hook(tracer, args, result):
        tracer.counts[counter] += os.path.getsize(path_of(args))
    return hook


# outcome counters recorded where the work happens
HOOKS = {
    "abelian.automorphism_group": _count_auts,
    "abelian.is_canonical": _count("abelian.is_canonical.kept", bool),
    "duality.check_pair": _count("duality.check_pair.rejected", lambda r: not r.holds),
    "cyclotomic.as_integer": _count("cyclotomic.as_integer.nonint", lambda r: r is None),
    "primitivity.is_primitive": _count("primitivity.is_primitive.primitive", lambda r: r.primitive),
    "search.checkpoint_save": _count_bytes("search.checkpoint_save.bytes", lambda a: a[0]),
    "cli.main": _count_bytes("cli.json_bytes", lambda a: a[0][-1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.auts: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self.stack, time.perf_counter, HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()):
        callers = [m for key, m in sys.modules.items() if key == "fdual" or key.startswith("fdual.")]
        callers.extend(extra_modules)
        for name, module, attr in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._rebind(owner, attr, self.wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for caller in callers:
                for key, value in list(vars(caller).items()):
                    if value is original:
                        self._rebind(caller, key, wrapper)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
