"""Exhaustive search for primitive formally dual sets, with symmetry
reduction, deterministic parallel task splitting, and checkpoint/resume.

Subsets are organized in the orderly tree of strictly increasing index
lists, a node's children being those with room left for a completion.  One
walker visits nodes one at a time, counting each and draining the budget
by one unit: the frontier enumeration from the roots down to
frontier_depth, and each task from itself down to its nodes of depth
size - 4, which are batches.  Both follow that one child rule, so node
counts do not depend on frontier_depth.  With translation symmetry the
first element is pinned to 0 (every affine orbit has such a
representative).  With affine symmetry an internal node is pruned unless it
is the lexicographic minimum of its orbit under automorphisms composed with
translations that keep 0 in the set.  Deleting the largest element of an
orbit-minimal set leaves an orbit-minimal set, so every orbit's minimal
representative survives this pruning all the way down: completeness is a
theorem about the canonical form, not a hope, and is additionally tested
against no-symmetry brute force on small groups.  The minimality test walks
a chain of point stabilizers of Aut(G) along the node's own prefix (see
:class:`fdual.abelian.AffineReducer`) rather than scanning every
automorphism, and one walk tests all children, grandchildren or
great-grandchildren of a node.  When |Aut(G)| is above the cap, the orbit
is the translation orbit alone: still complete, but equivalent orbits may
be reported separately, and the run says so in its caveats.

Below a node of depth size - 4 the last four levels are one batch: one
walk gates its children, one more the grandchildren of the canonical ones,
one more the great-grandchildren of the canonical grandchildren, and one
cut of the nodes' costs in DFS order at the budget gives every count, so no
loop runs per node there.  The batch then float-screens the leaves the cut
allows, from its node's partial spectrum, the sum of the node's character
columns (prune only when the exact identity certainly fails), in chunks of
at most _SCREEN_ENTRIES leaves times characters and in two stages: on one
character of largest order, summed once per run of sibling leaves; then
on every character, for the survivors of the first.  The verdicts are
those of the full screen bit for bit.  Survivors are canonically gated,
then handed to the exact leaf test.  Every emitted certificate has
passed the exact integer check and primitivity for both sets.

Frontier tasks run in chunks of consecutive tasks, one task first and then
about _CHUNK_SECONDS of work at the measured task time.  A chunk's tasks
that share a parent of depth at least size - 4 are walked as one batch from
that parent.  A run stays in its own process until the measured work left
outweighs starting a pool, and then hands the rest to ``jobs`` worker
processes.  A checkpoint is written at most once per _CHUNK_SECONDS and on
every exit, so a killed run loses about that much work per process.

Budget stops are loud: a budget-terminated run is flagged incomplete and
never claims non-existence.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import __version__
from .abelian import (
    MAX_GROUP_ORDER,
    ElementSet,
    GroupSpec,
    _aut_tables,
    _difference_counts,
    _is_int,
    _sub_table,
    affine_reducer,
    pairing_from_automorphism,
    standard_pairing,
)
from .duality import Certificate, certify, exact_spectrum, make_certificate
from .primitivity import _primitive_from_nu

MODES = ("pair", "self_dual")
SYMMETRIES = ("none", "translation", "affine")

# The screen prunes a leaf only when some |chi_t(S)|^2 / ratio is farther
# than FLOAT_SCREEN_TOL / ratio from every integer, so it never prunes a
# solution while its float |chi_t(S)|^2 = |sum_{x in S} zeta^B(t,x)|^2 errs
# by less than FLOAT_SCREEN_TOL.  With k = |S|, u = 2^-53 and cos, sin and
# hypot within one ulp (as in glibc):
#  - a character entry exp(2 pi i e / m) is within 27u of zeta^e: its angle
#    below 2 pi takes at most four roundings (pi, times e, times 1/m; 25.2u)
#    and cos and sin one ulp each;
#  - k entries added in any order are within k * 27u + gamma_{k-1} * k of
#    the exact sum, gamma_j = j u / (1 - j u) (Higham, "Accuracy and
#    Stability of Numerical Algorithms", 4.2, per component, joined by the
#    triangle inequality), in all E <= (k^2 + 27k) u;
#  - squaring the modulus adds 2kE + E^2, hypot and the square 3k^2 u, and
#    the screen's ratio, division and product 3k^2 u more.
# That is at most (2k^3 + 60k^2) u, 4.2e-9 at k = 256 (|G| <= 256), 240
# times below the tolerance; tests measure it at |S| = 128.
FLOAT_SCREEN_TOL = 1e-6


class CheckpointError(RuntimeError):
    pass


class WorkerDied(RuntimeError):
    """A pool worker process died; the run stopped unfinished."""


@dataclass(frozen=True)
class SearchConfig:
    """Validated description of one search problem.

    target_size must divide |G| (otherwise the size law makes the search
    vacuous) and self-dual mode additionally needs target_size^2 == |G|;
    |G| is at most MAX_GROUP_ORDER, as for the automorphism tables.
    frontier_depth controls task granularity: tasks are the surviving nodes
    at that depth and run independently.  target_size, frontier_depth and
    budget are integers, never bools, as in a checkpoint; any integer type
    is stored as int, so it hashes as the int does.
    """

    spec: GroupSpec
    target_size: int
    mode: str
    symmetry: str = "affine"
    frontier_depth: int | None = None
    checkpoint_path: str | None = None
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(
                f"symmetry must be one of {SYMMETRIES}, got {self.symmetry!r}"
            )
        for name in ("target_size", "frontier_depth", "budget"):
            value = getattr(self, name)
            if _is_int(value):
                object.__setattr__(self, name, int(value))
            elif value is not None or name == "target_size":
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.spec.order
        if n > MAX_GROUP_ORDER:
            raise ValueError(f"searches support |G| <= {MAX_GROUP_ORDER}, got {n}")
        if self.target_size < 2:
            raise ValueError("target_size must be at least 2 to search")
        if n % self.target_size != 0:
            raise ValueError(
                f"target_size {self.target_size} does not divide |G| = {n}; "
                "the size law |S|*|T| = |G| makes such a search vacuous"
            )
        if self.mode == "self_dual" and self.target_size ** 2 != n:
            raise ValueError(
                f"self-dual sets need |S|^2 = |G|; {self.target_size}^2 != {n}"
            )
        depth = self.frontier_depth
        if depth is None:
            depth = min(2, self.target_size - 1)
            object.__setattr__(self, "frontier_depth", depth)
        if not 1 <= depth < self.target_size:
            raise ValueError(
                f"frontier_depth must satisfy 1 <= depth < target_size, got {depth}"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1 when given, got {self.budget}")

    @property
    def partner_size(self) -> int:
        return self.spec.order // self.target_size

    def config_hash(self) -> str:
        """Hash of the fields that fix the task universe and its results."""
        data = self.to_dict()
        del data["checkpoint_path"], data["budget"]
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "orders": list(self.spec.orders),
            "target_size": self.target_size,
            "mode": self.mode,
            "symmetry": self.symmetry,
            "frontier_depth": self.frontier_depth,
            "checkpoint_path": self.checkpoint_path,
            "budget": self.budget,
        }


@dataclass
class SearchStats:
    """Node accounting.  Every visited node is either pruned by symmetry,
    pruned by the float screen, or expanded; exact-tested leaves are counted
    in leaves_tested.  Nodes with no room left for a completion are never
    generated and appear in no counter.  The frontier and the tasks below it
    follow one child rule, so the counts of a run without a budget do not
    depend on frontier_depth."""

    nodes_visited: int = 0
    leaves_tested: int = 0
    pruned_by_symmetry: int = 0
    pruned_by_screen: int = 0
    hits: int = 0
    elapsed: float = 0.0

    @property
    def expanded(self) -> int:
        return self.nodes_visited - self.pruned_by_symmetry - self.pruned_by_screen

    def merge_counts(self, other: "SearchStats") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in _COUNTERS}, "elapsed": self.elapsed}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        counts = {name: data[name] for name in _COUNTERS}
        if not all(map(_is_int, counts.values())):
            raise ValueError(f"stats counters must be integers, got {counts}")
        return cls(**counts, elapsed=float(data.get("elapsed", 0.0)))


# every field of SearchStats but elapsed, in declaration order
_COUNTERS = tuple(f.name for f in fields(SearchStats) if f.name != "elapsed")


@dataclass
class SearchResult:
    certificates: list[Certificate]
    stats: SearchStats
    complete: bool
    caveats: list[str] = field(default_factory=list)


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = int(limit)

    def drain(self, k: int) -> int:
        take = min(k, self.remaining) if self.remaining > 0 else 0
        self.remaining -= take
        return take


# ---------------------------------------------------------------------------
# Search context (heavy tables, cached per group)
# ---------------------------------------------------------------------------


class _SearchContext:
    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.n = spec.order
        everything = range(self.n)
        exponents = standard_pairing(spec).exponents(everything, everything)
        self.char_matrix = np.exp(2j * np.pi * exponents / spec.exponent)
        # the first screen row: chi_t has the order of t, and a character of
        # largest order prunes the most; the least such t
        orders = np.lcm.reduce(np.array(spec.orders) // np.gcd(spec.coords, spec.orders), axis=1)
        self.lead_row = int(np.argmax(orders))
        self.reducer = affine_reducer(spec)


@lru_cache(maxsize=8)
def _context(spec: GroupSpec) -> _SearchContext:
    return _SearchContext(spec)


# ---------------------------------------------------------------------------
# Leaf tests
# ---------------------------------------------------------------------------


def _exact_leaf(spec: GroupSpec, s: ElementSet) -> tuple | None:
    """(standard pairing, nu_S, exact spectrum of S under it) for a leaf S,
    or None when S is imprimitive or some |chi_t(S)|^2 is not an integer;
    the common start of both leaf tests."""
    pairing = standard_pairing(spec)
    nu = _difference_counts(spec, s)
    if not _primitive_from_nu(pairing, nu):
        return None
    spectrum = exact_spectrum(spec, pairing, s, nu)
    if any(v is None for v in spectrum):
        return None
    return pairing, nu, spectrum


def self_dual_leaf_test(spec: GroupSpec, s: ElementSet) -> Certificate | None:
    """Certificate for S self-dual under some isomorphism, or None.

    Composing the standard pairing with alpha permutes the character index
    by alpha, so the exact spectrum E under the standard pairing decides
    everything: S is self-dual under the pairing of alpha iff
    E(alpha(t)) == |S| * nu_S(t) for all t.  Every isomorphism G -> G^ is
    such a composition.  So once the two sides agree as multisets, the test
    enumerates the automorphisms with exactly that property, capped group
    or not, pruning each prefix of generator images on its own domain.
    Every table row it yields satisfies the identity on all of G, so the
    first, in lexicographic order of the images, goes through one
    ``certify`` call, which re-checks it.
    """
    exact = _exact_leaf(spec, s)
    if exact is None:
        return None
    pairing0, nu, spectrum = exact
    target = len(s) * nu
    e_arr = np.array(spectrum, dtype=np.int64)
    if sorted(spectrum) != sorted(target.tolist()):
        return None
    tables = next(_aut_tables(spec, match=(e_arr, target)), None)
    if tables is None:
        return None
    return certify(spec, pairing_from_automorphism(pairing0, tables[0]), s)[1]


def pair_leaf_test(spec: GroupSpec, s: ElementSet) -> Certificate | None:
    """Certificate for a primitive formally dual pair with left set S, or None.

    The defining identity pins the whole weight enumerator of any partner:
    w(t) = |T| * |chi_t(S)|^2 / |S|^2.  If w is a valid weight profile the
    partner search is a backtracking hunt for a primitive T with nu_T = w;
    any such T forms a formally dual pair with S by definition.
    """
    n = spec.order
    card = len(s)
    if card == 0 or n % card != 0:
        raise ValueError("|S| must be a nonzero divisor of |G|")
    exact = _exact_leaf(spec, s)
    if exact is None:
        return None
    pairing, _, spectrum = exact
    t_size = n // card
    s_sq = card * card
    w = []
    for v in spectrum:
        num = t_size * v
        if num % s_sq != 0:
            return None
        w.append(num // s_sq)
    if w[0] != t_size or sum(w) != t_size * t_size:
        return None
    t = _weight_matched_set(spec, tuple(w), t_size)
    if t is None:
        return None
    return make_certificate(spec, pairing, s, t=t, kind="pair")


def _weight_matched_set(
    spec: GroupSpec, w: tuple[int, ...], t_size: int
) -> ElementSet | None:
    """First primitive T containing 0 with weight enumerator w, in lex order;
    w[0] == t_size is the caller's to check.

    Restricting to 0 in T loses nothing: nu and primitivity are translation
    invariant, so any valid partner translates to one through 0.  Every
    candidate has nu_T = w, and primitivity is a function of nu_T, so it is
    decided once, before the backtracking.
    """
    if not _primitive_from_nu(standard_pairing(spec), w):
        return None
    n = spec.order
    sub = _sub_table(spec)
    pool = [x for x in range(1, n) if w[x] > 0]
    counts = [0] * n
    chosen = [0]

    def extend(pos: int) -> ElementSet | None:
        need = t_size - len(chosen)
        if need == 0:
            if all(counts[d] == w[d] for d in range(1, n)):
                return ElementSet.from_indices(chosen)
            return None
        for i in range(pos, len(pool) - need + 1):
            x = pool[i]
            added: list[int] = []
            ok = True
            for u in chosen:
                d1 = int(sub[u, x])  # x - u
                d2 = int(sub[x, u])  # u - x
                counts[d1] += 1
                added.append(d1)
                if counts[d1] > w[d1]:
                    ok = False
                    break
                counts[d2] += 1
                added.append(d2)
                if counts[d2] > w[d2]:
                    ok = False
                    break
            if ok:
                chosen.append(x)
                found = extend(i + 1)
                if found is not None:
                    return found
                chosen.pop()
            for d in added:
                counts[d] -= 1
        return None

    return extend(0)


# ---------------------------------------------------------------------------
# Tree walking
# ---------------------------------------------------------------------------


def _canonical_mask(
    config: SearchConfig, ctx: _SearchContext, node: list[int], tails
) -> np.ndarray:
    """Which extensions node + tail survive symmetry pruning; ``tails`` holds
    children (1-D) or (k, w) tails of w <= 3 elements."""
    if config.symmetry != "affine":
        return np.ones(len(tails), dtype=bool)
    return ctx.reducer.canonical_extensions(node, tails)


def _children(
    config: SearchConfig, ctx: _SearchContext, node: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The tree rule: the children node + [x] that leave room for a
    completion, x ascending, and which of them survive symmetry pruning.
    Orbit-minimal nodes are kept; a pruned branch is covered by an
    equivalent kept one, never lost."""
    xs = np.arange(node[-1] + 1, ctx.n - config.target_size + len(node) + 1)
    return xs, _canonical_mask(config, ctx, node, xs)


def _walk(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    depth: int,
    stats: SearchStats,
    budget: _Budget | None,
) -> Iterator[list[int] | None]:
    """The canonical nodes of ``depth`` below ``node`` in DFS order, or the
    node itself when it is that deep.

    Each child visited on the way counts in stats and drains one unit of
    the budget; once the budget has none left the walk yields None, and the
    caller stops there.
    """
    if len(node) >= depth:
        yield node
        return
    xs, ok = _children(config, ctx, node)
    for x, keep in zip(xs.tolist(), ok.tolist()):
        if budget is not None and budget.drain(1) == 0:
            yield None
            return
        stats.nodes_visited += 1
        if not keep:
            stats.pruned_by_symmetry += 1
            continue
        yield from _walk(config, ctx, node + [x], depth, stats, budget)


# the most frontier tasks a search enumerates; a deeper frontier is refused
# before it takes memory for tens of millions of tasks
_MAX_TASKS = 1 << 20


def _enumerate_frontier(
    config: SearchConfig, ctx: _SearchContext, stats: SearchStats
) -> list[tuple[int, ...]]:
    """Frontier tasks in deterministic lexicographic order.

    The roots and the nodes walked count toward stats; the walk has no
    budget, so the task universe is a function of the config alone, which
    resume relies on.  More than _MAX_TASKS tasks is a ValueError, raised
    once the list passes that many.
    """
    roots = range(ctx.n - config.target_size + 1) if config.symmetry == "none" else range(1)
    stats.nodes_visited += len(roots)
    nodes = (tuple(node) for r in roots
             for node in _walk(config, ctx, [r], config.frontier_depth, stats, None))
    tasks = list(itertools.islice(nodes, _MAX_TASKS + 1))
    if len(tasks) > _MAX_TASKS:
        raise ValueError(f"frontier_depth {config.frontier_depth} gives more than "
                         f"{_MAX_TASKS} tasks; choose a smaller frontier_depth")
    return tasks


def enumerate_tasks(config: SearchConfig) -> list[tuple[int, ...]]:
    """Public view of the frontier task list (order is part of the contract)."""
    return _enumerate_frontier(config, _context(config.spec), SearchStats())


# leaves times characters per float-screen chunk; bounds the screen's
# temporary arrays
_SCREEN_ENTRIES = 1 << 17


def _float_norms(partial: np.ndarray, matrix: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Float |chi_t(S)|^2 on the characters whose rows ``partial`` and
    ``matrix`` hold, one column per leaf.  A leaf is a row of ``cols``:
    its character columns, added to ``partial`` in tree order."""
    sums = partial[:, None] + matrix[:, cols[:, 0]]
    for j in range(1, cols.shape[1]):
        sums += matrix[:, cols[:, j]]
    return np.abs(sums) ** 2


def _near_integers(norms: np.ndarray, ratio: float) -> np.ndarray:
    """Which float |chi_t(S)|^2 ``norms`` pass the float screen: norm / ratio
    is within FLOAT_SCREEN_TOL / ratio of an integer, ratio = |S|^2 / |T|."""
    q = norms / ratio
    return np.abs(q - np.round(q)) * ratio <= FLOAT_SCREEN_TOL


def _float_passes(
    partial: np.ndarray, matrix: np.ndarray, cols: np.ndarray, ratio: float
) -> np.ndarray:
    """Which leaves pass the float screen on every character of ``matrix``
    (``_float_norms``, ``_near_integers``)."""
    return _near_integers(_float_norms(partial, matrix, cols), ratio).all(axis=0)


def _leaf_chunks(
    runs: np.ndarray, count: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The leaves of ``runs`` (``_test_leaves``) in DFS order, in chunks of
    _SCREEN_ENTRIES // n leaves: for each chunk, every leaf's row of
    ``runs`` and its last element."""
    ends, total = np.cumsum(count), int(count.sum())
    step = max(1, _SCREEN_ENTRIES // n)
    for lo in range(0, total, step):
        ids = np.arange(lo, min(lo + step, total))
        r = np.searchsorted(ends, ids, side="right")
        yield r, runs[r, -1] + ids - ends[r] + count[r]  # b + place in the run


def _test_leaves(
    config: SearchConfig, ctx: _SearchContext, node: list[int], partial: np.ndarray,
    runs: np.ndarray, count: np.ndarray, stats: SearchStats, hits: list[Certificate],
) -> None:
    """Screen, gate and exact-test the leaves of one batch node in DFS order.

    Row i of ``runs`` is a prefix below the node and a first element b: it
    stands for the leaves node + prefix + (b + j,), j < count[i].  A leaf's
    spectrum is the node's partial spectrum plus one character column per
    prefix element and b, added in that order.  The leaves are screened in
    chunks of _SCREEN_ENTRIES // |G| (``_leaf_chunks``), so that no
    temporary holds more than _SCREEN_ENTRIES entries, in two stages.
    Stage 1 reads one character, ``ctx.lead_row``: its partial plus prefix
    is summed once per run, and each leaf adds its last column.  Stage 2
    reads every character (``_float_passes``) for the leaves stage 1
    keeps.  Every row's value is the same additions in the same order in
    both stages, so the verdicts are those of ``_float_passes`` on every
    character, bit for bit; the float-screen error bound holds for any
    order of the additions.  Leaves that pass are canonically gated, then
    exact-tested.
    """
    test = self_dual_leaf_test if config.mode == "self_dual" else pair_leaf_test
    ratio = config.target_size ** 2 / config.partner_size
    head, lead = tuple(node), ctx.char_matrix[ctx.lead_row]
    sums = np.full(len(runs), partial[ctx.lead_row])
    for j in range(runs.shape[1] - 1):
        sums += lead[runs[:, j]]
    for r, last in _leaf_chunks(runs, count, ctx.n):
        kept = _near_integers(np.abs(sums[r] + lead[last]) ** 2, ratio)
        cols = runs[r[kept]]
        cols[:, -1] = last[kept]
        cols = cols[_float_passes(partial, ctx.char_matrix, cols, ratio)]
        stats.pruned_by_screen += len(r) - len(cols)
        for row in cols.tolist():
            leaf = (*head, *row)
            if config.symmetry == "affine" and not ctx.reducer.is_canonical(leaf):
                stats.pruned_by_symmetry += 1
                continue
            stats.leaves_tested += 1
            cert = test(ctx.spec, ElementSet.from_indices(leaf))
            if cert is not None:
                stats.hits += 1
                hits.append(cert)


def _cut(costs: np.ndarray, budget: _Budget | None) -> tuple[np.ndarray, bool]:
    """The units of each cost, in DFS order, that the budget allows, and
    whether it allows them all; the budget is drained by as much."""
    if budget is None:
        return costs, True
    allowed = np.clip(budget.remaining - (np.cumsum(costs) - costs), 0, costs)
    budget.remaining -= int(allowed.sum())
    return allowed, bool((allowed == costs).all())


# a batch walks its inner nodes in blocks of consecutive DFS order whose
# node arrays hold about _BATCH_ENTRIES entries (up to a row's children
# more), or _BUDGET_ENTRIES under a budget, which the block that spends it
# expands past its end at most
_BATCH_ENTRIES = 1 << 17
_BUDGET_ENTRIES = 1 << 14


def _batch(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    char_partial: np.ndarray,
    stats: SearchStats,
    budget: _Budget | None,
    hits: list[Certificate],
    rows: np.ndarray | None = None,
    depth: np.ndarray | None = None,
    ok: np.ndarray | None = None,
    level: int = 1,
    own: int = 0,
) -> bool:
    """The last size - len(node) <= 4 levels below a node as one batch;
    returns False when the budget ran out.

    Row i of ``rows`` is node[-1] and then the elements of the inner node
    node + rows[i, 1 : depth[i] + 1] below the node, padded with its last
    element, and ``ok`` says whether it is canonical; row 0 is the node
    itself.  Rows of depth at most ``own`` were counted by the caller (the
    node itself, or the sibling tasks ``_run_task`` starts a batch from).
    Each level inserts the children of the canonical rows of the level
    above after them, in DFS order, and one canonicity walk gates them.
    Under a budget a level keeps only the places below it, counting one
    unit per inner node before a place: no cut reaches a later one, and a
    batch that leaves rows out is unfinished.  A node costs one unit, plus
    one per leaf below it when it is canonical and at depth size - 1.  One
    cut of those costs at the budget gives every count, and the leaves it
    allows are tested as one run per parent (``_test_leaves``).  A level
    that would outgrow ``_BATCH_ENTRIES`` (``_BUDGET_ENTRIES`` under a
    budget) is walked, with the levels below it, in consecutive blocks of
    the rows above it, each cut in turn.
    """
    n, levels = ctx.n, config.target_size - len(node)
    if rows is None:
        rows, depth, ok = np.full((1, levels), node[-1]), np.zeros(1, int), np.ones(1, bool)
    entries = _BATCH_ENTRIES if budget is None else min(_BATCH_ENTRIES, _BUDGET_ENTRIES)
    truncated = False
    for level in range(level, levels):
        # a row at depth level - 1 with last element a has the children
        # a + 1, ..., n - 1 - (levels - level), leaving room for the rest
        per = np.where(ok & (depth == level - 1), n - levels + level - 1 - rows[:, -1], 0) + 1
        start = np.cumsum(per) - per
        if budget is not None:
            # the row at place p of the level has at least p - (rows of
            # depth <= own) inner nodes before it, so from place ``reach``
            # on no cut reaches a row; leave those rows out (but one)
            reach = max(1, budget.remaining + int(np.count_nonzero(depth <= own)))
            if start[-1] + per[-1] > reach:
                keep = start < reach
                rows, depth, ok, start = rows[keep], depth[keep], ok[keep], start[keep]
                per, truncated = np.minimum(per[keep], reach - start), True
        cuts = np.flatnonzero(np.diff(start // max(1, entries // levels))) + 1
        if len(cuts):
            for part in zip(np.split(rows, cuts), np.split(depth, cuts), np.split(ok, cuts)):
                if not _batch(config, ctx, node, char_partial, stats, budget, hits, *part,
                              level, own):
                    return False
            return not truncated
        parent = np.repeat(np.arange(len(per)), per)
        offset = np.arange(len(parent)) - start[parent]
        rows, depth, ok = rows[parent], depth[parent], ok[parent]
        rows[:, level:] += offset[:, None]
        new = offset > 0
        depth[new] = level
        ok[new] = _canonical_mask(config, ctx, node, rows[new, 1 : level + 1])
    parents = ok & (depth == levels - 1)
    inner = (depth > own).astype(np.intp)
    allowed, finished = _cut(inner + np.where(parents, n - 1 - rows[:, -1], 0), budget)
    stats.nodes_visited += int(allowed.sum())
    stats.pruned_by_symmetry += int(np.count_nonzero((allowed > 0) & ~ok))
    leafy = parents & (allowed > inner)
    runs = np.column_stack((rows[leafy, 1:], rows[leafy, -1] + 1))
    _test_leaves(config, ctx, node, char_partial, runs, allowed[leafy] - inner[leafy], stats, hits)
    return finished and not truncated


def _run_task(
    config: SearchConfig, tasks: list[tuple[int, ...]], budget: _Budget | None
) -> tuple[SearchStats, list[Certificate], bool]:
    """Execute one frontier task, or consecutive sibling tasks as one walk;
    returns (stats, hits, finished) for them together.

    One task is walked down to its nodes of depth size - 4 (``_walk``),
    and each is one batch (``_batch``).  Siblings, whose parent P has depth
    at least size - 4, are the level-1 rows of one batch from P: they are
    canonical and the frontier counted them, so the batch neither walks nor
    counts them.  A batch node's partial spectrum is the sum of its
    character columns.
    """
    ctx = _context(config.spec)
    stats = SearchStats()
    hits: list[Certificate] = []
    if len(tasks) == 1:
        nodes, rest = _walk(config, ctx, list(tasks[0]), config.target_size - 4, stats, budget), ()
    else:
        parent = list(tasks[0][:-1])
        rows = np.repeat([[task[-1]] for task in tasks], config.target_size - len(parent), axis=1)
        rows[:, 0] = parent[-1]
        nodes = [parent]
        rest = (rows, np.ones(len(tasks), int), np.ones(len(tasks), bool), 2, 1)
    for node in nodes:
        if node is None or not _batch(
            config, ctx, node, ctx.char_matrix[:, node].sum(axis=1), stats, budget, hits, *rest
        ):
            return stats, hits, False
    return stats, hits, True


# (tasks, stats, hits, finished) for each run of siblings of a chunk, in order
_Chunk = list[tuple[list[tuple[int, ...]], SearchStats, list[Certificate], bool]]


def _run_chunk(
    config: SearchConfig, tasks: list[tuple[int, ...]], budget: _Budget | None
) -> _Chunk:
    """Run consecutive tasks, each run of siblings as one ``_run_task``.
    Tasks are siblings when they share a parent of depth at least
    max(1, size - 4), which holds for all or none of a frontier's tasks."""
    together = config.frontier_depth > max(1, config.target_size - 4)
    runs = itertools.groupby(tasks, (lambda task: task[:-1]) if together else (lambda task: task))
    return [(run, *_run_task(config, run, budget)) for run in (list(group) for _, group in runs)]


def _pool_chunk(config: SearchConfig, tasks: list[tuple[int, ...]]) -> tuple[_Chunk, float]:
    """A pool worker's entry: ``_run_chunk`` without a budget, and the
    seconds it took."""
    started = time.perf_counter()
    chunk = _run_chunk(config, tasks, None)
    return chunk, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CheckpointRecord:
    config_hash: str
    completed: list[tuple[int, ...]]
    stats: SearchStats
    hits: list[Certificate]
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config_hash": self.config_hash,
            "completed": [list(t) for t in sorted(self.completed)],
            "stats": self.stats.to_dict(),
            "hits": [c.to_dict() for c in self.hits],
        }


def checkpoint_save(path: str, record: CheckpointRecord) -> None:
    """Write the record as one line of compact JSON, atomically; a failed
    write is a CheckpointError naming the path, and leaves no temporary
    file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_dict(), separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc


def _load_checkpoint(path: str) -> CheckpointRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        completed = [tuple(t) for t in data["completed"]]
        if not all(_is_int(x) for t in completed for x in t):
            raise ValueError("completed tasks must be lists of integers")
        return CheckpointRecord(
            config_hash=str(data["config_hash"]),
            completed=completed,
            stats=SearchStats.from_dict(data["stats"]),
            hits=[Certificate.from_dict(d) for d in data["hits"]],
            version=str(data["version"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _resume_from(
    path: str, config: SearchConfig, tasks: list[tuple[int, ...]]
) -> CheckpointRecord:
    """The checkpoint at path, refused unless this version wrote it for
    config, it completed only tasks of config's frontier ``tasks``, every
    hit belongs to config's group, mode and set size, and it counts them."""
    record = _load_checkpoint(path)
    config_hash = config.config_hash()
    wanted = (config.spec.orders, config.mode, config.target_size)
    strays = [c for c in record.hits if (c.spec.orders, c.kind, len(c.s)) != wanted]
    unknown = sorted(set(record.completed) - set(tasks))
    if record.version != __version__:
        problem = f"was written by fdual {record.version}, this is {__version__}"
    elif record.config_hash != config_hash:
        problem = (
            "was written by a different search configuration "
            f"(hash {record.config_hash[:12]}... != {config_hash[:12]}...)"
        )
    elif strays:
        hit = strays[0]
        problem = (
            f"holds a hit from another search (group orders {list(hit.spec.orders)}, mode "
            f"{hit.kind}, |S| = {len(hit.s)}; this search has {list(wanted[0])}, "
            f"{wanted[1]}, {wanted[2]})"
        )
    elif unknown:
        problem = f"completed {list(unknown[0])}, which is no task of this search"
    elif record.stats.hits != len(record.hits):
        problem = f"counts {record.stats.hits} hits but holds {len(record.hits)}"
    else:
        return record
    raise CheckpointError(f"checkpoint {path} {problem}; refusing to resume")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# seconds of work per chunk once task times are known: about what a killed
# run loses per process, and the least time between two checkpoint writes
_CHUNK_SECONDS = 0.05


def _chunk_size(queued: int, slots: int, ran: int, busy: float) -> int:
    """Tasks in the next chunk: one until a task time is known, then about
    _CHUNK_SECONDS of work at the mean time of the ``ran`` tasks run in
    ``busy`` seconds, at least one and at most 1/slots of the ``queued``
    tasks, so that the workers run out of work together."""
    if not ran:
        return 1
    fit = int(_CHUNK_SECONDS * ran / busy) if busy > 0 else queued
    return max(1, min(fit, queued // slots))


def _in_process(queued: int, ran: int, busy: float) -> bool:
    """Whether the next chunk runs in this process rather than in a pool:
    until a task time is known, and while the ``queued`` tasks, at the mean
    time of the ``ran`` tasks run in ``busy`` seconds, are at most one
    chunk (_CHUNK_SECONDS) of work, less than a pool costs to start."""
    return not ran or queued * busy <= _CHUNK_SECONDS * ran


def _task_results(
    config: SearchConfig, pending: list[tuple[int, ...]], budget: _Budget | None, jobs: int
) -> Iterator[_Chunk]:
    """The pending tasks' results in chunks (``_run_chunk``), each chunk
    consecutive tasks of the queue.

    With a budget the tasks run here in order, one per chunk, until the
    budget is spent, so the stop point is deterministic.  Otherwise chunks
    of ``_chunk_size`` run here, with one job to the end and with more while
    ``_in_process`` holds; then a pool of ``jobs`` worker processes runs
    the rest, 2 * jobs chunks in flight, and yields each chunk as soon as
    its worker finishes it.
    """
    if budget is not None:
        for task in pending:
            if budget.remaining <= 0:
                return
            yield _run_chunk(config, [task], budget)
        return
    start, ran, busy = 0, 0, 0.0
    while start < len(pending) and (jobs == 1 or _in_process(len(pending) - start, ran, busy)):
        stop = start + _chunk_size(len(pending) - start, jobs, ran, busy)
        began = time.perf_counter()
        chunk = _run_chunk(config, pending[start:stop], None)
        ran, busy, start = ran + stop - start, busy + time.perf_counter() - began, stop
        yield chunk
    if start == len(pending):
        return
    slots = 2 * jobs
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        running: set = set()
        while start < len(pending) or running:
            while start < len(pending) and len(running) < slots:
                stop = start + _chunk_size(len(pending) - start, slots, ran, busy)
                running.add(pool.submit(_pool_chunk, config, pending[start:stop]))
                start = stop
            finished, running = wait(running, return_when=FIRST_COMPLETED)
            for fut in finished:
                chunk, seconds = fut.result()
                ran, busy = ran + sum(len(tasks) for tasks, *_ in chunk), busy + seconds
                yield chunk


def run_search(config: SearchConfig, jobs: int = 1) -> SearchResult:
    """Run the configured search to completion, budget stop, or resume point.

    With a checkpoint path, completed tasks are persisted at most once per
    _CHUNK_SECONDS, after a chunk that ``_task_results`` delivers, and on
    every exit (completion, budget stop, a dead worker), and are skipped on
    resume; the final hit list and per-task statistics are identical to an
    uninterrupted run.
    """
    started = time.monotonic()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ctx = _context(config.spec)
    budget = _Budget(config.budget) if config.budget is not None else None
    config_hash = config.config_hash()

    # the frontier enumeration, then a task cut short by the budget if any
    unsaved = SearchStats()
    tasks = _enumerate_frontier(config, ctx, unsaved)
    if budget is not None:
        budget.drain(unsaved.nodes_visited)

    completed_stats = SearchStats()
    hits: list[Certificate] = []
    done: set[tuple[int, ...]] = set()
    resumed = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    if resumed:
        record = _resume_from(config.checkpoint_path, config, tasks)
        done = set(record.completed)
        completed_stats.merge_counts(record.stats)
        hits = list(record.hits)

    caveats: list[str] = []
    if not ctx.reducer.complete and config.symmetry == "affine":
        caveats.append(
            "automorphism enumeration was capped: equivalent orbits may "
            "be reported separately"
        )

    # the tasks the checkpoint holds (-1 before it is first written), and when
    saved, saved_at = (len(done) if resumed else -1), time.monotonic()

    def persist(every: float = 0.0) -> None:
        """Write the checkpoint if it lacks finished tasks and was written
        ``every`` seconds ago or more."""
        nonlocal saved, saved_at
        if config.checkpoint_path and len(done) > saved and time.monotonic() - saved_at >= every:
            checkpoint_save(
                config.checkpoint_path,
                CheckpointRecord(
                    config_hash=config_hash,
                    completed=sorted(done),
                    stats=completed_stats,
                    hits=hits,
                ),
            )
            saved, saved_at = len(done), time.monotonic()

    # write the (possibly empty) state up front so even a run stopped before
    # the first task completes leaves a resumable checkpoint behind; a
    # checkpoint just resumed from already holds it
    persist()

    pending = [t for t in tasks if t not in done]
    try:
        for chunk in _task_results(config, pending, budget, jobs):
            for group, stats, certs, finished in chunk:
                if not finished:
                    # partial work is reported but never persisted: resume must
                    # redo the task in full to match an uninterrupted run
                    unsaved.merge_counts(stats)
                    continue
                completed_stats.merge_counts(stats)
                hits.extend(certs)
                done.update(group)
            persist(_CHUNK_SECONDS)
    except BrokenProcessPool as exc:
        persist()
        saved_note = (
            f"{len(done)} of {len(tasks)} tasks are saved in checkpoint "
            f"{config.checkpoint_path}; rerun with it to resume"
            if config.checkpoint_path
            else "no checkpoint was given, so no finished task is saved"
        )
        raise WorkerDied(f"a search worker process died: {saved_note}") from exc
    persist()

    total = SearchStats(elapsed=time.monotonic() - started)
    total.merge_counts(unsaved)
    total.merge_counts(completed_stats)

    # every affine hit passed is_canonical and tasks are disjoint, so no
    # two hits share an orbit and sorting is all that is left
    return SearchResult(
        certificates=sorted(hits, key=Certificate.sort_key),
        stats=total,
        complete=set(tasks) <= done,
        caveats=caveats,
    )
