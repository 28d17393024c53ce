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
automorphism, and one walk tests all children of a node.  When the Aut(G)
enumeration was capped, the orbit is the translation orbit alone: still
complete, but equivalent orbits may be reported separately, and the run
says so in its caveats.

Leaves are screened with a vectorized float spectrum first (prune only when
the exact identity certainly fails), then canonically gated, then handed to
the exact leaf test.  Below a node of depth size - 2 the last two levels
form one screen over every leaf pair the budget allows, so the per-node
work of the two deepest levels is one call per node.  Every emitted
certificate has passed the exact integer check and primitivity for both
sets.

Budget stops are loud: a budget-terminated run is flagged incomplete and
never claims non-existence.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .abelian import (
    AutomorphismGroup,
    ElementSet,
    GroupSpec,
    _sub_table,
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
        self.auts = automorphism_group(spec)
        self.reducer = self.auts.reducer


@lru_cache(maxsize=8)
def _context(spec: GroupSpec) -> _SearchContext:
    return _SearchContext(spec)


# ---------------------------------------------------------------------------
# Leaf tests
# ---------------------------------------------------------------------------


def self_dual_leaf_test(
    spec: GroupSpec, s: ElementSet, auts: AutomorphismGroup
) -> Certificate | None:
    """Certificate for S self-dual under some isomorphism, or None.

    Composing the standard pairing with alpha permutes the character index
    by alpha, so the exact spectrum E under the standard pairing decides
    everything: S is self-dual under the pairing of alpha iff
    E(alpha(t)) == |S| * nu_S(t) for all t.  Every isomorphism G -> G^ is
    such a composition, so with a complete automorphism list this test is
    exhaustive over pairings.
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
    rows = e_arr[auts.tables.astype(np.int64)]
    matches = np.nonzero((rows == target[None, :]).all(axis=1))[0]
    for a_idx in matches:
        alpha = auts[int(a_idx)]
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
        return lambda leaf: self_dual_leaf_test(
            ctx.spec, ElementSet.from_indices(leaf), ctx.auts
        )
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
    config: SearchConfig, ctx: _SearchContext, node: list[int], xs: range
) -> list[bool]:
    """Which children node + [x], x in xs, survive symmetry pruning."""
    if config.symmetry != "affine":
        return [True] * len(xs)
    return ctx.reducer.canonical_children(node, xs).tolist()


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
        for x, ok in zip(xs, _canonical_mask(config, ctx, node, xs)):
            visit(node + [x], ok)

    for r in roots:
        visit([r], True)
    return out


def enumerate_tasks(config: SearchConfig) -> list[tuple[int, ...]]:
    """Public view of the frontier task list (order is part of the contract)."""
    return _enumerate_frontier(config, _context(config.spec), SearchStats(), None)


# leaf columns per float-screen call; bounds the screen's temporary arrays
_SCREEN_CHUNK = 512


def _screen_leaves(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    char_partial: np.ndarray,
    tails: np.ndarray,
    stats: SearchStats,
    hits: list[Certificate],
    leaf_test: Callable[[tuple[int, ...]], Certificate | None],
) -> None:
    """Float-screen the leaves node + tail, one per row of ``tails`` in DFS
    order, then canonically gate and exact-test the survivors in that order.

    A leaf's spectrum is char_partial plus one character column per tail
    element, added in tree order, so it is bit-identical to the sum the
    walk would build one level at a time.
    """
    ratio = config.target_size ** 2 / config.partner_size
    passes = np.empty(len(tails), dtype=bool)
    for lo in range(0, len(tails), _SCREEN_CHUNK):
        block = tails[lo : lo + _SCREEN_CHUNK]
        sums = char_partial[:, None] + ctx.char_matrix[:, block[:, 0]]
        for j in range(1, block.shape[1]):
            sums += ctx.char_matrix[:, block[:, j]]
        q = np.abs(sums) ** 2 / ratio
        deviation = (np.abs(q - np.round(q)) * ratio).max(axis=0)
        passes[lo : lo + len(block)] = deviation <= FLOAT_SCREEN_TOL
    stats.pruned_by_screen += len(tails) - int(passes.sum())
    affine = config.symmetry == "affine"
    for tail in tails[passes].tolist():
        leaf = (*node, *tail)
        if affine and not ctx.reducer.is_canonical(leaf):
            stats.pruned_by_symmetry += 1
            continue
        stats.leaves_tested += 1
        cert = leaf_test(leaf)
        if cert is not None:
            stats.hits += 1
            hits.append(cert)


def _descend(
    config: SearchConfig,
    ctx: _SearchContext,
    node: list[int],
    char_partial: np.ndarray,
    stats: SearchStats,
    hits: list[Certificate],
    budget: _Budget | None,
    leaf_test: Callable[[tuple[int, ...]], Certificate | None],
) -> bool:
    """Depth-first walk below a node; returns False when the budget ran out.

    Children are canonically gated with one walk per node.  Below a node
    of depth size - 2 the last two levels are one float screen: the loop
    over the next element does the budget and the counting, and the leaf
    pairs it allows are screened together.
    """
    size = config.target_size
    n = ctx.n
    depth = len(node)

    if depth == size - 1:
        tails = np.arange(node[-1] + 1, n)
        allowed = len(tails) if budget is None else budget.drain(len(tails))
        stats.nodes_visited += allowed
        _screen_leaves(config, ctx, node, char_partial, tails[:allowed, None],
                       stats, hits, leaf_test)
        return allowed == len(tails)

    xs = range(node[-1] + 1, n - size + depth + 1)
    canonical = _canonical_mask(config, ctx, node, xs)
    if depth == size - 2:
        firsts: list[int] = []
        counts: list[int] = []
        finished = True
        for x, ok in zip(xs, canonical):
            if budget is not None and budget.drain(1) == 0:
                finished = False
                break
            stats.nodes_visited += 1
            if not ok:
                stats.pruned_by_symmetry += 1
                continue
            want = n - 1 - x
            allowed = want if budget is None else budget.drain(want)
            stats.nodes_visited += allowed
            firsts.append(x)
            counts.append(allowed)
            if allowed < want:
                finished = False
                break
        sizes = np.array(counts, dtype=np.intp)
        a = np.repeat(np.array(firsts, dtype=np.intp), sizes)
        # b counts a + 1, a + 2, ... along each run of equal a
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        _screen_leaves(config, ctx, node, char_partial, np.column_stack((a, b)),
                       stats, hits, leaf_test)
        return finished

    for x, ok in zip(xs, canonical):
        if budget is not None and budget.drain(1) == 0:
            return False
        stats.nodes_visited += 1
        if not ok:
            stats.pruned_by_symmetry += 1
            continue
        node.append(x)
        finished = _descend(
            config,
            ctx,
            node,
            char_partial + ctx.char_matrix[:, x],
            stats,
            hits,
            budget,
            leaf_test,
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
    finished = _descend(
        config,
        ctx,
        list(task),
        char_partial,
        stats,
        hits,
        budget,
        _leaf_tester(config, ctx),
    )
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
    if not ctx.auts.complete:
        if config.mode == "self_dual":
            caveats.append(
                "automorphism enumeration was capped: self-duality was tested "
                "only under the enumerated pairings"
            )
        if config.symmetry == "affine":
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
                out = fut.result()
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
