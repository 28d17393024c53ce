"""Exhaustive search for primitive formally dual sets, with symmetry
reduction, deterministic parallel task splitting, and checkpoint/resume.

Subsets are organized in the orderly tree of strictly increasing index
lists; with translation symmetry the first element is pinned to 0 (every
affine orbit of solutions has such a representative).  With affine symmetry
an internal node is pruned unless it is the lexicographic minimum of its
orbit under automorphisms composed with translations that keep 0 in the
set.  Deleting the largest element of an orbit-minimal set leaves an
orbit-minimal set, so every orbit's minimal representative survives this
pruning all the way down: completeness is a theorem about the canonical
form, not a hope, and is additionally tested against no-symmetry brute
force on small groups.  The minimality test walks a chain of point
stabilizers of Aut(G) along the node's own prefix (see
:class:`fdual.abelian.AffineReducer`) rather than scanning every
automorphism, and one walk tests all children, or all grandchildren, of a
node.  When |Aut(G)| is above the cap, the orbit is the translation orbit
alone: still complete, but equivalent orbits may be reported separately,
and the run says so in its caveats.

Below a node of depth size - 3 the last three levels are one batch: one
walk gates its children, one more the grandchildren of the canonical ones,
and one cut of the nodes' costs in DFS order at the budget gives every
count, so no loop runs per node there.  Leaves wait in a buffer for the
whole task and are float-screened in chunks (prune only when the exact
identity certainly fails): first on one character per Galois orbit
t -> u*t, then on every character for the survivors, which gives the
verdicts of the full screen bit for bit.  Survivors are canonically gated,
then handed to the exact leaf test.  Every emitted certificate has passed
the exact integer check and primitivity for both sets.

Budget stops are loud: a budget-terminated run is flagged incomplete and
never claims non-existence.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .abelian import (
    Automorphism,
    ElementSet,
    GroupSpec,
    _aut_images,
    _multiples,
    _sub_table,
    _tables_from_images,
    automorphism_group,
    pairing_from_automorphism,
    standard_pairing,
)
from .duality import (
    Certificate,
    check_self_dual,
    exact_spectrum,
    make_certificate,
    weight_enumerator,
)
from .primitivity import is_primitive

MODES = ("pair", "self_dual")
SYMMETRIES = ("none", "translation", "affine")

FLOAT_SCREEN_TOL = 1e-6

# Test/ops knob: per-task delay in milliseconds, used to exercise the
# kill-and-resume path deterministically.
TASK_DELAY_ENV = "FDUAL_TASK_DELAY_MS"


class CheckpointError(RuntimeError):
    pass


class WorkerDied(RuntimeError):
    """A pool worker process died; the run stopped unfinished."""


@dataclass(frozen=True)
class SearchConfig:
    """Validated description of one search problem.

    target_size must divide |G| (otherwise the size law makes the search
    vacuous) and self-dual mode additionally needs target_size^2 == |G|.
    frontier_depth controls task granularity: tasks are the surviving nodes
    at that depth and run independently.
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
        n = self.spec.order
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
        payload = json.dumps(
            {
                "orders": list(self.spec.orders),
                "target_size": self.target_size,
                "mode": self.mode,
                "symmetry": self.symmetry,
                "frontier_depth": self.frontier_depth,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
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

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        return cls(
            spec=GroupSpec(tuple(data["orders"])),
            target_size=data["target_size"],
            mode=data["mode"],
            symmetry=data["symmetry"],
            frontier_depth=data["frontier_depth"],
            checkpoint_path=data.get("checkpoint_path"),
            budget=data.get("budget"),
        )


@dataclass
class SearchStats:
    """Node accounting.  Every visited node is either pruned by symmetry,
    pruned by the float screen, or expanded; exact-tested leaves are counted
    in leaves_tested.  Nodes with no room left for a completion are never
    generated and appear in no counter."""

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
        self.nodes_visited += other.nodes_visited
        self.leaves_tested += other.leaves_tested
        self.pruned_by_symmetry += other.pruned_by_symmetry
        self.pruned_by_screen += other.pruned_by_screen
        self.hits += other.hits

    def to_dict(self) -> dict:
        return {
            "nodes_visited": self.nodes_visited,
            "leaves_tested": self.leaves_tested,
            "pruned_by_symmetry": self.pruned_by_symmetry,
            "pruned_by_screen": self.pruned_by_screen,
            "hits": self.hits,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        return cls(
            nodes_visited=int(data["nodes_visited"]),
            leaves_tested=int(data["leaves_tested"]),
            pruned_by_symmetry=int(data["pruned_by_symmetry"]),
            pruned_by_screen=int(data["pruned_by_screen"]),
            hits=int(data["hits"]),
            elapsed=float(data.get("elapsed", 0.0)),
        )


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
        self.pairing0 = standard_pairing(spec)
        everything = range(self.n)
        exponents = self.pairing0.exponents(everything, everything)
        self.char_matrix = np.exp(2j * np.pi * exponents / spec.exponent)
        # one nonzero character t per orbit of t -> u*t, u a unit mod m: its
        # |chi_t(S)|^2 and those of its orbit are Galois conjugates
        m = spec.exponent
        units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
        lowest = _multiples(spec)[units].min(axis=0)
        self.orbit_rows = np.flatnonzero(lowest == np.arange(self.n))[1:]
        self.orbit_matrix = self.char_matrix[self.orbit_rows]
        self.auts = automorphism_group(spec)
        self.reducer = self.auts.reducer


@lru_cache(maxsize=8)
def _context(spec: GroupSpec) -> _SearchContext:
    return _SearchContext(spec)


# ---------------------------------------------------------------------------
# Leaf tests
# ---------------------------------------------------------------------------


def self_dual_leaf_test(spec: GroupSpec, s: ElementSet) -> Certificate | None:
    """Certificate for S self-dual under some isomorphism, or None.

    Composing the standard pairing with alpha permutes the character index
    by alpha, so the exact spectrum E under the standard pairing decides
    everything: S is self-dual under the pairing of alpha iff
    E(alpha(t)) == |S| * nu_S(t) for all t.  Every isomorphism G -> G^ is
    such a composition.  So the test enumerates all of Aut(G), capped or
    not, with slot i restricted to the images g of e_i that have
    E(g) == |S| * nu_S(e_i), and certifies the first alpha, in
    lexicographic order of the generator images, whose pairing passes the
    exact check.
    """
    if not is_primitive(spec, s).primitive:
        return None
    pairing0 = standard_pairing(spec)
    spectrum = exact_spectrum(spec, pairing0, s)
    if any(v is None for v in spectrum):
        return None
    nu = weight_enumerator(spec, s)
    card = len(s)
    target = np.array([card * v for v in nu], dtype=np.int64)
    e_arr = np.array(spectrum, dtype=np.int64)
    if sorted(e_arr.tolist()) != sorted(target.tolist()):
        return None
    allowed = e_arr[None, :] == target[list(spec.generator_indices())][:, None]
    for images in _aut_images(spec, allowed):
        tables = _tables_from_images(spec, images)
        for row in np.flatnonzero((e_arr[tables] == target).all(axis=1)):
            alpha = Automorphism(tuple(tables[row].tolist()))
            pairing = pairing_from_automorphism(pairing0, alpha)
            if check_self_dual(spec, pairing, s).holds:
                return make_certificate(spec, pairing, s, kind="self_dual")
    return None


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
    if not is_primitive(spec, s).primitive:
        return None
    t_size = n // card
    pairing = standard_pairing(spec)
    spectrum = exact_spectrum(spec, pairing, s)
    if any(v is None for v in spectrum):
        return None
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
    """First primitive T containing 0 with weight enumerator w, in lex order.

    Restricting to 0 in T loses nothing: nu and primitivity are translation
    invariant, so any valid partner translates to one through 0.
    """
    n = spec.order
    if w[0] != t_size:
        return None
    if t_size == 1:
        if any(w[d] for d in range(1, n)):
            return None
        t = ElementSet.from_indices([0])
        return t if is_primitive(spec, t).primitive else None
    sub = _sub_table(spec)
    pool = [x for x in range(1, n) if w[x] > 0]
    counts = [0] * n
    chosen = [0]

    def extend(pos: int) -> ElementSet | None:
        need = t_size - len(chosen)
        if need == 0:
            if all(counts[d] == w[d] for d in range(1, n)):
                t = ElementSet.from_indices(chosen)
                if is_primitive(spec, t).primitive:
                    return t
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


def _leaf_tester(config: SearchConfig, ctx: _SearchContext) -> Callable[[tuple[int, ...]], Certificate | None]:
    if config.mode == "self_dual":
        return lambda leaf: self_dual_leaf_test(ctx.spec, ElementSet.from_indices(leaf))
    return lambda leaf: pair_leaf_test(ctx.spec, ElementSet.from_indices(leaf))


def screen_partial(config: SearchConfig, node: Sequence[int]) -> bool:
    """True when the node survives the orderly and symmetry rules.

    Symmetry pruning keeps only orbit-minimal nodes; pruned branches are
    covered by an equivalent surviving branch, never lost.
    """
    node = tuple(int(x) for x in node)
    if not node or any(b <= a for a, b in zip(node, node[1:])):
        return False
    if config.symmetry in ("translation", "affine") and node[0] != 0:
        return False
    if config.symmetry == "affine" and len(node) > 1:
        return _context(config.spec).reducer.is_canonical(node)
    return True


def _canonical_mask(
    config: SearchConfig, ctx: _SearchContext, node: list[int], tails
) -> np.ndarray:
    """Which extensions node + tail survive symmetry pruning; ``tails`` holds
    children (1-D) or grandchild tails (k, 2)."""
    if config.symmetry != "affine":
        return np.ones(len(tails), dtype=bool)
    return ctx.reducer.canonical_extensions(node, tails)


def _enumerate_frontier(
    config: SearchConfig, ctx: _SearchContext, stats: SearchStats, budget: _Budget | None
) -> list[tuple[int, ...]]:
    """Frontier tasks in deterministic lexicographic order.

    Enumeration nodes count toward stats and budget but never abort: the
    task universe is a function of the config alone, which resume relies on.
    """
    out: list[tuple[int, ...]] = []
    n = ctx.n
    roots = range(n) if config.symmetry == "none" else range(1)

    def visit(node: list[int], canonical: bool) -> None:
        if budget is not None:
            budget.drain(1)
        stats.nodes_visited += 1
        if not canonical:
            stats.pruned_by_symmetry += 1
            return
        if len(node) == config.frontier_depth:
            out.append(tuple(node))
            return
        xs = range(node[-1] + 1, n)
        for x, ok in zip(xs, _canonical_mask(config, ctx, node, xs).tolist()):
            visit(node + [x], ok)

    for r in roots:
        visit([r], True)
    return out


def enumerate_tasks(config: SearchConfig) -> list[tuple[int, ...]]:
    """Public view of the frontier task list (order is part of the contract)."""
    return _enumerate_frontier(config, _context(config.spec), SearchStats(), None)


# leaf columns per float-screen call; bounds the screen's temporary arrays
_SCREEN_CHUNK = 512


def _float_passes(
    partials: np.ndarray, matrix: np.ndarray, cols: np.ndarray, ratio: float
) -> np.ndarray:
    """Which leaves pass the float screen on the characters whose rows
    ``partials`` and ``matrix`` hold.  A leaf is a row of ``cols``: a column
    of ``partials``, then the character columns added to it in tree order.
    It passes when every |chi_t(S)|^2 / ratio is within FLOAT_SCREEN_TOL /
    ratio of an integer, ratio = |S|^2 / |T|."""
    sums = partials[:, cols[:, 0]] + matrix[:, cols[:, 1]]
    for j in range(2, cols.shape[1]):
        sums += matrix[:, cols[:, j]]
    q = np.abs(sums) ** 2 / ratio
    return (np.abs(q - np.round(q)) * ratio).max(axis=0) <= FLOAT_SCREEN_TOL


def _screen(ctx: _SearchContext, ratio: float, partials: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``_float_passes`` on every character, in two stages.

    Stage 1 reads one nonzero character per orbit of t -> u*t
    (``ctx.orbit_rows``).  Their values are Galois conjugates of the rest,
    equal to them when integers, so stage 1 prunes nearly every leaf the
    full screen prunes.  Stage 2 reads every character for the leaves
    stage 1 keeps.  Each row's value is computed by the same additions in
    both, so the verdicts are those of one full-row screen, bit for bit.
    """
    keep = _float_passes(partials[ctx.orbit_rows], ctx.orbit_matrix, cols, ratio)
    keep[keep] = _float_passes(partials, ctx.char_matrix, cols[keep], ratio)
    return keep


class _Leaves:
    """The leaves of one task, screened, gated and exact-tested in DFS order.

    Batches add runs of leaves node + prefix + (b,), b = first, first + 1,
    ...  Once _SCREEN_CHUNK leaves wait, all waiting leaves are screened
    (``_screen``) in chunks of at most _SCREEN_CHUNK columns, whatever
    batch nodes they come from.  A leaf's spectrum is its batch node's
    partial spectrum plus one character column per prefix element and b,
    added in tree order: the sum the walk would build one level at a time.
    """

    def __init__(
        self, config: SearchConfig, ctx: _SearchContext, stats: SearchStats, hits: list[Certificate]
    ):
        self.config, self.ctx, self.stats, self.hits = config, ctx, stats, hits
        self.leaf_test = _leaf_tester(config, ctx)
        self.ratio = config.target_size ** 2 / config.partner_size
        self.nodes: list[tuple[int, ...]] = []
        self.partials: list[np.ndarray] = []
        self.runs: list[np.ndarray] = []  # rows: node id, prefix..., first, count
        self.waiting = 0

    def add(
        self, node: list[int], partial: np.ndarray, prefix: np.ndarray,
        first: np.ndarray, count: np.ndarray,
    ) -> None:
        total = int(count.sum())
        if not total:
            return
        node_id = np.full(len(count), len(self.nodes))
        self.nodes.append(tuple(node))
        self.partials.append(partial)
        self.runs.append(np.column_stack((node_id, prefix, first, count)))
        self.waiting += total
        if self.waiting >= _SCREEN_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Screen, gate and test every waiting leaf."""
        if not self.waiting:
            return
        runs, nodes = np.concatenate(self.runs), self.nodes
        partials = np.column_stack(self.partials)
        self.nodes, self.partials, self.runs, self.waiting = [], [], [], 0
        ends = np.cumsum(runs[:, -1])
        for lo in range(0, int(ends[-1]), _SCREEN_CHUNK):
            ids = np.arange(lo, min(lo + _SCREEN_CHUNK, int(ends[-1])))
            r = np.searchsorted(ends, ids, side="right")
            cols = runs[r, :-1]
            cols[:, -1] += ids - ends[r] + runs[r, -1]  # first + place in the run
            cols = cols[_screen(self.ctx, self.ratio, partials, cols)]
            self.stats.pruned_by_screen += len(ids) - len(cols)
            for row in cols.tolist():
                self._test((*nodes[row[0]], *row[1:]))

    def _test(self, leaf: tuple[int, ...]) -> None:
        if self.config.symmetry == "affine" and not self.ctx.reducer.is_canonical(leaf):
            self.stats.pruned_by_symmetry += 1
            return
        self.stats.leaves_tested += 1
        cert = self.leaf_test(leaf)
        if cert is not None:
            self.stats.hits += 1
            self.hits.append(cert)


def _cut(costs: np.ndarray, budget: _Budget | None) -> tuple[np.ndarray, bool]:
    """The units of each cost, in DFS order, that the budget allows, and
    whether it allows them all; the budget is drained by as much."""
    if budget is None:
        return costs, True
    allowed = np.clip(budget.remaining - (np.cumsum(costs) - costs), 0, costs)
    budget.remaining -= int(allowed.sum())
    return allowed, bool((allowed == costs).all())


def _batch(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    char_partial: np.ndarray,
    stats: SearchStats,
    budget: _Budget | None,
    leaves: _Leaves,
) -> bool:
    """The last size - depth <= 3 levels below a node as one batch; returns
    False when the budget ran out.

    The inner nodes below it are its children x and, three levels from the
    end, the grandchildren (x, a) of the canonical x, in DFS order.  One
    canonicity walk gates each level; the grandchildren walked are those
    whose position (counting one unit per node before it) is below the
    budget, which is all any cut can reach.  A node costs one unit, plus
    one per leaf below it when it is canonical and at depth size - 1.  One
    cut of those costs at the budget gives every count, and the leaves it
    allows go to the task's buffer as one run per parent.
    """
    n = ctx.n
    levels = config.target_size - len(node)
    first = node[-1] + 1
    if levels == 1:
        allowed, finished = _cut(np.array([n - first]), budget)
        stats.nodes_visited += int(allowed[0])
        leaves.add(node, char_partial, np.empty((1, 0), dtype=np.intp), np.array([first]), allowed)
        return finished
    xs = np.arange(first, n - levels + 1)
    ok = _canonical_mask(config, ctx, node, xs)
    if levels == 2:
        prefix, parents = xs[:, None], ok
    else:
        # each x, then its grandchildren (x, x + 1), ... when x is canonical
        per = np.where(ok, n - 2 - xs, 0) + 1
        child = np.repeat(np.arange(len(xs)), per)
        offset = np.arange(len(child)) - np.repeat(np.cumsum(per) - per, per)
        prefix = np.column_stack((xs[child], xs[child] + offset))
        grand = offset > 0
        walk = grand if budget is None else grand & (np.arange(len(child)) < budget.remaining)
        ok = ok[child] & ~grand
        ok[walk] = _canonical_mask(config, ctx, node, prefix[walk])
        parents = ok & grand
    costs = np.where(parents, n - prefix[:, -1], 1)
    allowed, finished = _cut(costs, budget)
    stats.nodes_visited += int(allowed.sum())
    stats.pruned_by_symmetry += int(np.count_nonzero((allowed > 0) & ~ok))
    leafy = parents & (allowed > 1)
    leaves.add(node, char_partial, prefix[leafy], prefix[leafy, -1] + 1, allowed[leafy] - 1)
    return finished


def _descend(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    char_partial: np.ndarray,
    stats: SearchStats,
    budget: _Budget | None,
    leaves: _Leaves,
) -> bool:
    """Depth-first walk below a node; returns False when the budget ran out.

    Above depth size - 3 a node gates its children with one canonicity
    walk, and a loop over them does the budget and the counting and
    recurses into the canonical ones.  From depth size - 3 on, the levels
    left are one batch (``_batch``) with no per-element loop.
    """
    size = config.target_size
    depth = len(node)
    if depth >= size - 3:
        return _batch(config, ctx, node, char_partial, stats, budget, leaves)
    xs = range(node[-1] + 1, ctx.n - size + depth + 1)
    for x, ok in zip(xs, _canonical_mask(config, ctx, node, xs).tolist()):
        if budget is not None and budget.drain(1) == 0:
            return False
        stats.nodes_visited += 1
        if not ok:
            stats.pruned_by_symmetry += 1
            continue
        node.append(x)
        finished = _descend(
            config, ctx, node, char_partial + ctx.char_matrix[:, x], stats, budget, leaves
        )
        node.pop()
        if not finished:
            return False
    return True


def _run_task(
    config: SearchConfig, task: tuple[int, ...], budget: _Budget | None
) -> tuple[SearchStats, list[Certificate], bool]:
    """Execute one frontier task; returns (stats, hits, finished)."""
    delay_ms = os.environ.get(TASK_DELAY_ENV)
    if delay_ms:
        time.sleep(int(delay_ms) / 1000.0)
    ctx = _context(config.spec)
    stats = SearchStats()
    hits: list[Certificate] = []
    char_partial = ctx.char_matrix[:, list(task)].sum(axis=1)
    leaves = _Leaves(config, ctx, stats, hits)
    finished = _descend(config, ctx, list(task), char_partial, stats, budget, leaves)
    leaves.flush()
    return stats, hits, finished


def _pool_worker(payload: tuple[dict, tuple[int, ...]]) -> dict:
    config = SearchConfig.from_dict(payload[0])
    stats, hits, finished = _run_task(config, tuple(payload[1]), None)
    return {
        "task": list(payload[1]),
        "stats": stats.to_dict(),
        "hits": [c.to_dict() for c in hits],
        "finished": finished,
    }


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CheckpointRecord:
    config_hash: str
    completed: list[tuple[int, ...]]
    stats: SearchStats
    hits: list[dict]
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config_hash": self.config_hash,
            "completed": [list(t) for t in sorted(self.completed)],
            "stats": self.stats.to_dict(),
            "hits": self.hits,
        }


def checkpoint_save(path: str, record: CheckpointRecord) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _load_checkpoint(path: str) -> CheckpointRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return CheckpointRecord(
            config_hash=str(data["config_hash"]),
            completed=[tuple(int(x) for x in t) for t in data["completed"]],
            stats=SearchStats.from_dict(data["stats"]),
            hits=list(data["hits"]),
            version=str(data["version"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _resume_from(path: str, config: SearchConfig) -> CheckpointRecord:
    """The checkpoint at path, refused unless this version wrote it for config."""
    record = _load_checkpoint(path)
    if record.version != __version__:
        raise CheckpointError(
            f"checkpoint was written by fdual {record.version}, this is "
            f"{__version__}; refusing to resume"
        )
    if record.config_hash != config.config_hash():
        raise CheckpointError(
            "checkpoint was written by a different search configuration "
            f"(hash {record.config_hash[:12]}... != {config.config_hash()[:12]}...); "
            "refusing to resume"
        )
    return record


def checkpoint_resume(path: str, config: SearchConfig) -> list[tuple[int, ...]]:
    """Remaining tasks after a checkpoint; refuses on a version or config-hash mismatch."""
    done = set(_resume_from(path, config).completed)
    return [t for t in enumerate_tasks(config) if t not in done]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _merge_hits(
    config: SearchConfig, ctx: _SearchContext, certs: Iterable[Certificate]
) -> list[Certificate]:
    """Deterministic final hit list: canonical dedup under affine symmetry,
    plain lexicographic sort otherwise."""
    if config.symmetry == "affine":
        best: dict[tuple[int, ...], Certificate] = {}
        for cert in certs:
            key = ctx.reducer.canonical_form(cert.s.indices)
            cur = best.get(key)
            if cur is None or cert.sort_key() < cur.sort_key():
                best[key] = cert
        return [best[k] for k in sorted(best)]
    return sorted(certs, key=lambda c: c.sort_key())


def run_search(config: SearchConfig, jobs: int = 1) -> SearchResult:
    """Run the configured search to completion, budget stop, or resume point.

    With a checkpoint path, completed tasks are persisted after each task
    and skipped on resume; the final hit list and per-task statistics are
    identical to an uninterrupted run.  With ``jobs > 1`` frontier tasks run
    in worker processes; a budgeted run executes sequentially so the stop
    point is deterministic.
    """
    started = time.monotonic()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ctx = _context(config.spec)
    budget = _Budget(config.budget) if config.budget is not None else None

    enum_stats = SearchStats()
    tasks = _enumerate_frontier(config, ctx, enum_stats, budget)

    caveats: list[str] = []
    if not ctx.auts.complete and config.symmetry == "affine":
        caveats.append(
            "automorphism enumeration was capped: equivalent orbits may "
            "be reported separately"
        )

    completed_stats = SearchStats()
    hit_dicts: list[dict] = []
    done: set[tuple[int, ...]] = set()
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        record = _resume_from(config.checkpoint_path, config)
        done = set(record.completed)
        completed_stats.merge_counts(record.stats)
        hit_dicts = list(record.hits)

    pending = [t for t in tasks if t not in done]
    partial_stats = SearchStats()

    def persist() -> None:
        if config.checkpoint_path:
            checkpoint_save(
                config.checkpoint_path,
                CheckpointRecord(
                    config_hash=config.config_hash(),
                    completed=sorted(done),
                    stats=completed_stats,
                    hits=hit_dicts,
                ),
            )

    # write the (possibly empty) state up front so even a run stopped before
    # the first task completes leaves a resumable checkpoint behind
    persist()

    if budget is not None or jobs <= 1:
        for task in pending:
            if budget is not None and budget.remaining <= 0:
                break
            stats, certs, finished = _run_task(config, task, budget)
            if finished:
                completed_stats.merge_counts(stats)
                hit_dicts.extend(c.to_dict() for c in certs)
                done.add(task)
                persist()
            else:
                # partial work is reported but never persisted: resume must
                # redo the task in full to match an uninterrupted run
                partial_stats.merge_counts(stats)
                break
    else:
        payload = config.to_dict()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_pool_worker, (payload, task)) for task in pending]
            for fut in as_completed(futures):
                try:
                    out = fut.result()
                except BrokenProcessPool as exc:
                    saved = (
                        f"{len(done)} of {len(tasks)} tasks are saved in checkpoint "
                        f"{config.checkpoint_path}; rerun with it to resume"
                        if config.checkpoint_path
                        else "no checkpoint was given, so no finished task is saved"
                    )
                    raise WorkerDied(f"a search worker process died: {saved}") from exc
                completed_stats.merge_counts(SearchStats.from_dict(out["stats"]))
                hit_dicts.extend(out["hits"])
                done.add(tuple(out["task"]))
                persist()

    complete = set(tasks) <= done

    total = SearchStats()
    total.merge_counts(enum_stats)
    total.merge_counts(completed_stats)
    total.merge_counts(partial_stats)
    total.elapsed = time.monotonic() - started

    certs = _merge_hits(config, ctx, (Certificate.from_dict(d) for d in hit_dicts))
    return SearchResult(
        certificates=certs, stats=total, complete=complete, caveats=caveats
    )
