from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fdual.abelian import (
    DEFAULT_AUT_CAP,
    ElementSet,
    GroupSpec,
    affine_canonical_form,
    aut_order,
    automorphism_group,
    standard_pairing,
)
from fdual.cli import main
from fdual.cyclotomic import as_integer
from fdual.primitivity import is_primitive
from fdual.duality import check_pair, exact_spectrum, verify_certificate
from fdual.search import (
    CheckpointError,
    CheckpointRecord,
    SearchConfig,
    SearchStats,
    checkpoint_resume,
    checkpoint_save,
    enumerate_tasks,
    pair_leaf_test,
    run_search,
    screen_partial,
    self_dual_leaf_test,
    _load_checkpoint,
    _run_task,
)

from fdual import search
from oracles import (
    abelian_group_orders,
    exact_pair_classes,
    reference_result,
    reference_walk,
    self_dual_gather_oracle,
    spectrum_entry,
)

Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z2Z8 = GroupSpec((2, 8))


_POOL_WORKER = search._pool_worker
_DOOMED_TASK = None  # set by a test; forked pool workers inherit it


def _worker_dying_on_doomed_task(payload):
    if tuple(payload[1]) == _DOOMED_TASK:
        os._exit(1)
    return _POOL_WORKER(payload)


def _classes(spec, certs):
    auts = automorphism_group(spec)
    return {affine_canonical_form(spec, c.s, auts).indices for c in certs}


def _assert_stats_sane(stats: SearchStats):
    assert stats.hits <= stats.leaves_tested <= stats.nodes_visited
    assert stats.pruned_by_symmetry + stats.pruned_by_screen + stats.expanded == stats.nodes_visited


class TestConfig:
    def test_size_must_divide(self):
        with pytest.raises(ValueError, match="size law"):
            SearchConfig(spec=GroupSpec((8, 8)), target_size=7, mode="pair")

    def test_self_dual_needs_square(self):
        with pytest.raises(ValueError, match="self-dual"):
            SearchConfig(spec=GroupSpec((8,)), target_size=2, mode="self_dual")

    def test_frontier_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(spec=Z4, target_size=2, mode="pair", frontier_depth=2)
        with pytest.raises(ValueError):
            SearchConfig(spec=Z4, target_size=2, mode="pair", frontier_depth=0)

    def test_frontier_default_clamps(self):
        assert SearchConfig(spec=Z4, target_size=2, mode="pair").frontier_depth == 1
        assert SearchConfig(spec=Z2Z8, target_size=4, mode="pair").frontier_depth == 2

    def test_bad_mode_and_symmetry(self):
        with pytest.raises(ValueError):
            SearchConfig(spec=Z4, target_size=2, mode="weird")
        with pytest.raises(ValueError):
            SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="sideways")

    def test_hash_ignores_budget_and_checkpoint(self):
        a = SearchConfig(spec=Z4, target_size=2, mode="pair", budget=100)
        b = SearchConfig(spec=Z4, target_size=2, mode="pair", checkpoint_path="x.json")
        c = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="none")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestTaskEnumeration:
    def test_translation_root_forced(self):
        cfg = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="translation", frontier_depth=1)
        assert enumerate_tasks(cfg) == [(0,)]

    def test_no_symmetry_keeps_every_first_element(self):
        cfg = SearchConfig(spec=Z22, target_size=2, mode="pair", symmetry="none", frontier_depth=1)
        assert enumerate_tasks(cfg) == [(0,), (1,), (2,), (3,)]

    def test_affine_prunes_frontier(self):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        tasks = enumerate_tasks(cfg)
        assert tasks == sorted(tasks)
        for t in tasks:
            assert screen_partial(cfg, t)

    def test_frontier_covers_every_affine_orbit(self):
        # the canonical representative of every orbit of size-s subsets
        # containing 0 must extend one of the tasks
        for orders, size in [((4,), 2), ((2, 4), 4), ((2, 8), 4), ((12,), 4)]:
            spec = GroupSpec(orders)
            cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                               symmetry="affine", frontier_depth=min(2, size - 1))
            tasks = set(enumerate_tasks(cfg))
            auts = automorphism_group(spec)
            seen = set()
            for combo in itertools.combinations(range(spec.order), size):
                canon = affine_canonical_form(spec, ElementSet.from_indices(combo), auts).indices
                if canon in seen:
                    continue
                seen.add(canon)
                assert canon[: cfg.frontier_depth] in tasks, (orders, size, canon)


class TestScreenPartial:
    def test_affine_orbit_minimum(self):
        cfg = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="affine", frontier_depth=1)
        assert not screen_partial(cfg, (0, 3))  # orbit minimum is {0,1}
        assert screen_partial(cfg, (0, 1))

    def test_orderly_rule(self):
        cfg = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="none", frontier_depth=1)
        assert not screen_partial(cfg, (2, 1))
        assert not screen_partial(cfg, (1, 1))
        assert screen_partial(cfg, (1, 3))

    def test_translation_needs_zero(self):
        cfg = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="translation", frontier_depth=1)
        assert not screen_partial(cfg, (1, 2))
        assert screen_partial(cfg, (0, 2))


class TestLeafTests:
    def test_pair_leaf_z4(self):
        cert = pair_leaf_test(Z4, ElementSet.from_indices([0, 1]))
        assert cert is not None
        assert cert.partner.indices == (0, 1)
        assert cert.nu_t == (2, 1, 0, 1)
        assert verify_certificate(cert)[0]

    def test_pair_leaf_rejects_coset(self):
        assert pair_leaf_test(Z4, ElementSet.from_indices([0, 2])) is None

    def test_pair_leaf_rejects_non_integer_weights(self):
        z8 = GroupSpec((8,))
        s = ElementSet.from_indices([0, 1])
        # |1 + zeta_8|^2 = 2 + sqrt(2) is not an integer, so no partner profile exists
        assert as_integer(spectrum_entry(z8, standard_pairing(z8), s, 1)) is None
        assert pair_leaf_test(z8, s) is None

    def test_self_dual_leaf_z4(self):
        cert = self_dual_leaf_test(Z4, ElementSet.from_indices([0, 1]))
        assert cert is not None
        assert cert.kind == "self_dual"
        assert verify_certificate(cert)[0]

    def test_self_dual_leaf_rejects_imprimitive(self):
        assert self_dual_leaf_test(Z4, ElementSet.from_indices([0, 2])) is None

    def test_rediscovers_order64_instance(self, order64_spec, order64_set):
        # the shipped order-64 set must be recognized as self-dual by the
        # pairing sweep, and the search subtree seeded at its canonical
        # prefix must hit its orbit class
        auts = automorphism_group(order64_spec)
        assert auts.complete
        cert = self_dual_leaf_test(order64_spec, order64_set)
        assert cert is not None
        assert cert.s_primitive and cert.t_primitive
        assert verify_certificate(cert)[0]

        canon = affine_canonical_form(order64_spec, order64_set, auts).indices
        cfg = SearchConfig(spec=order64_spec, target_size=8, mode="self_dual",
                           symmetry="affine", frontier_depth=2)
        stats, hits, finished = _run_task(cfg, canon[:6], None)
        assert finished
        assert canon in {affine_canonical_form(order64_spec, c.s, auts).indices for c in hits}


def _without_timestamp(cert):
    data = cert.to_dict()
    data.pop("timestamp")
    return json.dumps(data, sort_keys=True)


class TestSelfDualLeafAgainstGather:
    """The table-free leaf test against the gather over every row of the
    enumerated Aut(G), kept in tests/oracles.py."""

    @pytest.mark.parametrize(
        "orders,hits", [((4, 4), 64), ((2, 8), 0), ((2, 2, 2, 2), 0), ((3, 3), 24), ((9,), 0)]
    )
    def test_every_primitive_set_through_zero(self, orders, hits):
        spec = GroupSpec(orders)
        size = int(round(spec.order ** 0.5))
        found = 0
        for rest in itertools.combinations(range(1, spec.order), size - 1):
            s = ElementSet.from_indices((0,) + rest)
            if not is_primitive(spec, s).primitive:
                continue
            got, expected = self_dual_leaf_test(spec, s), self_dual_gather_oracle(spec, s)
            assert (got is None) == (expected is None), s
            if got is not None:
                assert _without_timestamp(got) == _without_timestamp(expected), s
                found += 1
        assert found == hits

    def test_capped_group_bounded_memory(self):
        # Aut(Z2^4 x Z4) is 40x the cap.  The test still covers every pairing,
        # streaming the restricted enumeration in blocks, with no
        # (|Aut|, |G|) array, until a random set turns out self-dual
        import tracemalloc

        spec = GroupSpec((2, 2, 2, 2, 4))
        assert aut_order(spec) > DEFAULT_AUT_CAP
        rng = np.random.default_rng(5)
        tried, certs = 0, []
        tracemalloc.start()
        try:
            while not certs:
                assert tried < 2000, "no self-dual set among the random ones"
                s = ElementSet.from_indices([0, *rng.choice(np.arange(1, 64), 7, replace=False).tolist()])
                if is_primitive(spec, s).primitive:
                    tried += 1
                    cert = self_dual_leaf_test(spec, s)
                    certs += [cert] if cert is not None else []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert all(verify_certificate(c)[0] for c in certs)


class TestPaperResults:
    def test_theorem21_search_is_complete(self, order64_spec, order64_set):
        # the full Z2^2 x Z4^2 size-8 self-dual search, not budget-stopped:
        # the paper's set is among its classes and every certificate re-verifies
        cfg = SearchConfig(spec=order64_spec, target_size=8, mode="self_dual", symmetry="affine")
        result = run_search(cfg)
        assert result.complete and not result.caveats
        canon = automorphism_group(order64_spec).reducer.canonical_form(order64_set.indices)
        assert canon == (0, 1, 2, 4, 9, 16, 32, 62)
        assert canon in {c.s.indices for c in result.certificates}
        for cert in result.certificates:
            ok, problems = verify_certificate(cert)
            assert ok, problems
        _assert_stats_sane(result.stats)
        print(f"Theorem 2.1 search: {result.stats.nodes_visited} nodes, "
              f"{len(result.certificates)} orbit classes")

    def test_z8x8_size8_pair_nonexistence(self):
        # the paper's second result, through the process pool: Z8^2 has no
        # primitive formally dual 8-set.  The node count is reported, not
        # gated, so a pruning gain stays legal.
        cfg = SearchConfig(spec=GroupSpec((8, 8)), target_size=8, mode="pair",
                           symmetry="affine", frontier_depth=4)
        pooled = run_search(cfg, jobs=2)
        assert pooled.complete and not pooled.caveats
        assert pooled.certificates == [] and pooled.stats.hits == 0
        _assert_stats_sane(pooled.stats)
        assert pooled.stats.nodes_visited == run_search(cfg, jobs=1).stats.nodes_visited
        print(f"Z8^2 size-8 pair search: {pooled.stats.nodes_visited} nodes, 0 classes")


class TestGroundTruthSmallGroups:
    def test_z4_exactly_one_class(self):
        cfg = SearchConfig(spec=Z4, target_size=2, mode="pair", symmetry="affine", frontier_depth=1)
        result = run_search(cfg)
        assert result.complete
        assert len(result.certificates) == 1
        cert = result.certificates[0]
        assert cert.s.indices == (0, 1)
        assert cert.partner.indices == (0, 1)
        assert _classes(Z4, result.certificates) == exact_pair_classes(Z4, 2)
        _assert_stats_sane(result.stats)

    def test_z22_no_classes(self):
        cfg = SearchConfig(spec=Z22, target_size=2, mode="pair", symmetry="affine", frontier_depth=1)
        result = run_search(cfg)
        assert result.complete
        assert result.certificates == []
        assert exact_pair_classes(Z22, 2) == set()
        _assert_stats_sane(result.stats)

    def test_exact_oracle_on_tiny_groups(self):
        # fully independent oracle: every S against every T, exact checker
        for orders in [(4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2)]:
            spec = GroupSpec(orders)
            for size in [d for d in range(2, spec.order) if spec.order % d == 0]:
                cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                                   symmetry="affine", frontier_depth=min(2, size - 1))
                result = run_search(cfg)
                assert result.complete
                assert _classes(spec, result.certificates) == exact_pair_classes(spec, size), (orders, size)
                _assert_stats_sane(result.stats)


class TestCompletenessUpToOrder16:
    @pytest.mark.parametrize("orders", abelian_group_orders(16, min_order=4))
    def test_affine_matches_no_symmetry(self, orders):
        spec = GroupSpec(orders)
        for size in [d for d in range(2, spec.order) if spec.order % d == 0]:
            affine_cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                                      symmetry="affine", frontier_depth=min(2, size - 1))
            plain_cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                                     symmetry="none", frontier_depth=min(2, size - 1))
            affine = run_search(affine_cfg)
            plain = run_search(plain_cfg)
            assert affine.complete and plain.complete
            assert _classes(spec, affine.certificates) == _classes(spec, plain.certificates), (orders, size)
            _assert_stats_sane(affine.stats)
            _assert_stats_sane(plain.stats)

    @pytest.mark.parametrize("orders,size", [((8,), 2), ((2, 4), 4), ((4, 4), 4), ((12,), 6)])
    def test_translation_symmetry_finds_same_classes(self, orders, size):
        spec = GroupSpec(orders)
        depth = min(2, size - 1)
        affine = run_search(SearchConfig(spec=spec, target_size=size, mode="pair",
                                         symmetry="affine", frontier_depth=depth))
        shifted = run_search(SearchConfig(spec=spec, target_size=size, mode="pair",
                                          symmetry="translation", frontier_depth=depth))
        assert affine.complete and shifted.complete
        assert _classes(spec, affine.certificates) == _classes(spec, shifted.certificates)

    @pytest.mark.parametrize("orders", [(4,), (9,), (3, 3), (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)])
    def test_self_dual_matches_leaf_scan(self, orders):
        spec = GroupSpec(orders)
        size = int(round(spec.order ** 0.5))
        assert size * size == spec.order
        cfg = SearchConfig(spec=spec, target_size=size, mode="self_dual",
                           symmetry="affine", frontier_depth=min(2, size - 1))
        result = run_search(cfg)
        assert result.complete
        auts = automorphism_group(spec)
        oracle = set()
        for rest in itertools.combinations(range(1, spec.order), size - 1):
            s = ElementSet.from_indices((0,) + rest)
            if self_dual_leaf_test(spec, s) is not None:
                oracle.add(affine_canonical_form(spec, s, auts).indices)
        assert _classes(spec, result.certificates) == oracle, orders


class TestScreenSoundness:
    def test_float_prune_implies_exact_failure(self):
        # exhaustive over groups of order <= 8: any leaf the engine's float
        # screen would discard must also fail the exact leaf test
        for orders in abelian_group_orders(8):
            spec = GroupSpec(orders)
            n = spec.order
            pairing = standard_pairing(spec)
            coords = np.array(list(spec.elements()), dtype=np.int64)
            entries = np.array(pairing.entries, dtype=np.int64)
            exponents = (coords @ entries @ coords.T) % spec.exponent
            char_matrix = np.exp(2j * np.pi * exponents / spec.exponent)
            for size in [d for d in range(2, n) if n % d == 0]:
                ratio = size * size / (n // size)
                for combo in itertools.combinations(range(n), size):
                    spectra = np.abs(char_matrix[:, list(combo)].sum(axis=1)) ** 2
                    q = spectra / ratio
                    deviation = (np.abs(q - np.round(q)) * ratio).max()
                    if deviation > 1e-6:
                        assert pair_leaf_test(spec, ElementSet.from_indices(combo)) is None, (orders, combo)


class TestDeterminismAndParallelism:
    def test_worker_count_does_not_change_results(self):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        one = run_search(cfg, jobs=1)
        four = run_search(cfg, jobs=4)
        assert one.complete and four.complete
        keys_one = [(c.s.indices, c.partner.indices) for c in one.certificates]
        keys_four = [(c.s.indices, c.partner.indices) for c in four.certificates]
        assert keys_one == keys_four
        d1, d4 = one.stats.to_dict(), four.stats.to_dict()
        d1.pop("elapsed"), d4.pop("elapsed")
        assert d1 == d4

    def test_hits_found_in_parallel_mode(self):
        spec = GroupSpec((4, 4))
        cfg = SearchConfig(spec=spec, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        one = run_search(cfg, jobs=1)
        four = run_search(cfg, jobs=4)
        assert len(one.certificates) == len(four.certificates) == 2
        for cert in four.certificates:
            assert verify_certificate(cert)[0]


class TestSoundness:
    def test_every_emitted_certificate_reverifies(self):
        for orders, size, mode in [((4,), 2, "pair"), ((4, 4), 4, "pair"), ((4,), 2, "self_dual"), ((4, 4), 4, "self_dual")]:
            spec = GroupSpec(orders)
            cfg = SearchConfig(spec=spec, target_size=size, mode=mode,
                               symmetry="affine", frontier_depth=min(2, size - 1))
            result = run_search(cfg)
            for cert in result.certificates:
                ok, problems = verify_certificate(cert)
                assert ok, problems
                assert cert.s_primitive and cert.t_primitive
                report = check_pair(cert.spec, cert.pairing, cert.s, cert.partner)
                assert report.holds


class TestBudget:
    def test_budget_stop_is_loud(self):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine",
                           frontier_depth=2, budget=30)
        result = run_search(cfg)
        assert not result.complete
        assert result.stats.nodes_visited <= 30
        _assert_stats_sane(result.stats)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(spec=Z4, target_size=2, mode="pair", budget=0)


def _sweep_budgets(orders, size, mode, symmetry, depth=None):
    """run_search against the node-by-node reference at every budget from 1
    to one past the full run, and without a budget."""
    base = dict(spec=GroupSpec(orders), target_size=size, mode=mode,
                symmetry=symmetry, frontier_depth=depth)
    walk = reference_walk(SearchConfig(**base))
    full = reference_result(walk)
    assert full[1]
    for budget in [None, *range(1, full[0]["nodes_visited"] + 2)]:
        result = run_search(SearchConfig(**base, budget=budget))
        stats = result.stats.to_dict()
        stats.pop("elapsed")
        got = (stats, result.complete, [c.s.indices for c in result.certificates])
        assert got == reference_result(walk, budget), (orders, size, budget)
    return full


class TestBatchedWalk:
    """The batched walk (one canonicity walk per level below a node of depth
    size - 3, one cut of the node costs at the budget, a task-wide two-stage
    float screen) against the search walked one node at a time: identical
    counts, stop points and hit lists at every budget.  Tasks start above
    depth size - 3 (default depth with size 6), at it (size 4 with depth 1,
    size 6 with depth 3), at size - 2 (size 4, default depth) and at
    size - 1 (depth 3 with size 4)."""

    @pytest.mark.parametrize("orders,size,mode,symmetry,depth", [
        ((16,), 4, "pair", "translation", None),
        ((2, 8), 4, "pair", "affine", None),
        ((2, 2, 4), 4, "pair", "affine", None),
        ((2, 2, 4), 4, "pair", "affine", 3),
        ((4, 4), 4, "self_dual", "affine", None),
        ((24,), 6, "pair", "affine", None),
        ((16,), 4, "pair", "translation", 1),
        ((2, 2, 4), 4, "pair", "affine", 1),
        ((12,), 6, "pair", "translation", None),
        ((12,), 6, "pair", "translation", 3),
        ((2, 6), 6, "pair", "affine", None),
        ((5, 5), 5, "self_dual", "affine", None),
    ])
    def test_every_budget_matches_reference(self, orders, size, mode, symmetry, depth):
        stats, _, _ = _sweep_budgets(orders, size, mode, symmetry, depth)
        assert stats["pruned_by_screen"] > 0 and stats["leaves_tested"] > 0
        if symmetry == "affine":
            assert stats["pruned_by_symmetry"] > 0

    def test_screen_in_many_chunks(self, monkeypatch):
        # a node's leaf pairs (up to 91) span many chunks of 3
        monkeypatch.setattr(search, "_SCREEN_CHUNK", 3)
        stats, _, hits = _sweep_budgets((4, 4), 4, "self_dual", "affine")
        assert len(hits) == 2

    @pytest.mark.parametrize("orders,size,mode,symmetry,depth,hits,joined", [
        ((5, 5), 5, "self_dual", "affine", None, 1, False),
        ((12,), 6, "pair", "translation", 1, 0, True),
    ])
    def test_chunks_of_three_levels(
        self, monkeypatch, orders, size, mode, symmetry, depth, hits, joined
    ):
        # chunks of 3 leaves split a batch node's leaves, and in a task with
        # many batch nodes (the one task at depth 1) some join two nodes'
        nodes_per_chunk = []
        screen = search._screen

        def recording(ctx, ratio, partials, cols):
            nodes_per_chunk.append(len(set(cols[:, 0].tolist())))
            return screen(ctx, ratio, partials, cols)

        monkeypatch.setattr(search, "_SCREEN_CHUNK", 3)
        monkeypatch.setattr(search, "_screen", recording)
        _, _, found = _sweep_budgets(orders, size, mode, symmetry, depth)
        assert len(found) == hits
        assert (max(nodes_per_chunk) > 1) == joined


def _unit_orbits(spec):
    """The orbits of t -> u*t, u a unit mod the exponent, from coordinates."""
    m = spec.exponent
    units = [u for u in range(1, m) if np.gcd(u, m) == 1]
    images = spec.index_of(np.array(units)[:, None, None] * spec.coords[None, :, :])
    return {frozenset(images[:, t].tolist()) for t in range(spec.order)}


class TestTwoStageScreen:
    """Stage 1 reads one character per orbit of t -> u*t; the exact values
    on an orbit are Galois conjugates, equal when one of them is an integer."""

    GROUPS = [(40,), (32,), (8, 8), (2, 2, 4, 4), (12,), (2, 6), (5, 5), (3, 9), (7, 7)]

    @pytest.mark.parametrize("orders", GROUPS)
    def test_orbit_rows_are_orbit_minima(self, orders):
        spec = GroupSpec(orders)
        orbits = _unit_orbits(spec)
        reps = search._context(spec).orbit_rows.tolist()
        assert sorted(reps) == sorted(min(o) for o in orbits if 0 not in o)

    @pytest.mark.parametrize("orders", GROUPS)
    def test_exact_values_agree_on_unit_orbits(self, orders):
        spec = GroupSpec(orders)
        pairing = standard_pairing(spec)
        orbits = _unit_orbits(spec)
        rng = np.random.default_rng(sum(orders))
        n = spec.order
        # random sets (some integer values) and subgroups (all integers)
        sets = [rng.choice(n, size=k, replace=False).tolist() for k in (2, 3, 5, 8, 8)]
        sets += [[int(spec.index_of(j * spec.coords[g])) for j in range(n)] for g in (1, n - 1)]
        integral = 0
        for s in sets:
            spectrum = exact_spectrum(spec, pairing, ElementSet.from_indices(s))
            for orbit in orbits:
                values = {spectrum[t] for t in orbit}
                known = values - {None}
                assert len(known) <= 1 and (not known or len(values) == 1), (orders, s, orbit)
                integral += bool(known)
        assert integral > len(orbits)

    @pytest.mark.parametrize("orders,size,thin", [
        ((8, 8), 8, False), ((40,), 8, False), ((2, 2, 4, 4), 8, False), ((7, 7), 7, False),
        ((8, 8), 8, True), ((2, 2, 4, 4), 8, True),
    ])
    def test_mask_equals_full_row_screen(self, orders, size, thin):
        # random leaves (node id, x, a, b) plus the leaves {0, g, 2g, ...},
        # among them subgroups, which pass; thin=True keeps one stage-1 row,
        # so stage 2 has leaves to prune
        spec = GroupSpec(orders)
        ctx = search._context(spec)
        n = spec.order
        ratio = size ** 2 / (n // size)
        rng = np.random.default_rng(n + size)
        prefixes = [sorted(rng.choice(n, size=size - 3, replace=False).tolist()) for _ in range(40)]
        cols = [(rng.integers(40), *rng.choice(n, size=3, replace=False)) for _ in range(3000)]
        for g in range(1, n):
            cyclic = sorted({spec.index_of(j * spec.coords[g]) for j in range(size)})
            if len(cyclic) == size:
                prefixes.append(cyclic[:-3])
                cols.append((len(prefixes) - 1, *cyclic[-3:]))
        partials = np.column_stack([ctx.char_matrix[:, p].sum(axis=1) for p in prefixes])
        cols = np.array(cols, dtype=np.intp)
        if thin:
            rows = ctx.orbit_rows[:1]
            ctx = SimpleNamespace(char_matrix=ctx.char_matrix, orbit_rows=rows,
                                  orbit_matrix=ctx.char_matrix[rows])
        full = search._float_passes(partials, ctx.char_matrix, cols, ratio)
        stage1 = search._float_passes(partials[ctx.orbit_rows], ctx.orbit_matrix, cols, ratio)
        assert search._screen(ctx, ratio, partials, cols).tolist() == full.tolist()
        assert full.any() and not full.all()
        assert (stage1 & ~full).any() == thin


class TestCheckpointing:
    def test_empty_checkpoint_means_all_tasks(self, tmp_path):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        path = str(tmp_path / "ck.json")
        checkpoint_save(path, CheckpointRecord(
            config_hash=cfg.config_hash(), completed=[], stats=SearchStats(), hits=[]))
        assert checkpoint_resume(path, cfg) == enumerate_tasks(cfg)

    def test_full_checkpoint_means_no_tasks(self, tmp_path):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        path = str(tmp_path / "ck.json")
        checkpoint_save(path, CheckpointRecord(
            config_hash=cfg.config_hash(), completed=enumerate_tasks(cfg),
            stats=SearchStats(), hits=[]))
        assert checkpoint_resume(path, cfg) == []

    def test_hash_mismatch_refused(self, tmp_path):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        other = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="none", frontier_depth=2)
        path = str(tmp_path / "ck.json")
        checkpoint_save(path, CheckpointRecord(
            config_hash=other.config_hash(), completed=[], stats=SearchStats(), hits=[]))
        with pytest.raises(CheckpointError):
            checkpoint_resume(path, cfg)
        cfg_ck = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine",
                              frontier_depth=2, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            run_search(cfg_ck)

    def test_version_mismatch_refused(self, tmp_path):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        path = str(tmp_path / "ck.json")
        checkpoint_save(path, CheckpointRecord(
            config_hash=cfg.config_hash(), completed=[], stats=SearchStats(), hits=[],
            version="0.0.0-other"))
        with pytest.raises(CheckpointError, match="0.0.0-other"):
            checkpoint_resume(path, cfg)
        cfg_ck = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine",
                              frontier_depth=2, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="0.0.0-other"):
            run_search(cfg_ck)

    def test_corrupt_checkpoint_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{this is not json")
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        with pytest.raises(CheckpointError):
            checkpoint_resume(str(path), cfg)

    def test_budget_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        base = dict(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        clean = run_search(SearchConfig(**base))
        path = str(tmp_path / "ck.json")
        stopped = run_search(SearchConfig(**base, checkpoint_path=path, budget=100))
        assert not stopped.complete
        assert _load_checkpoint(path).completed, "at least one task persisted mid-run"
        resumed = run_search(SearchConfig(**base, checkpoint_path=path))
        assert resumed.complete
        assert [(c.s.indices, c.partner.indices) for c in resumed.certificates] == [
            (c.s.indices, c.partner.indices) for c in clean.certificates
        ]
        d_clean, d_res = clean.stats.to_dict(), resumed.stats.to_dict()
        d_clean.pop("elapsed"), d_res.pop("elapsed")
        assert d_clean == d_res

    def test_killed_run_resumes_identically(self, tmp_path):
        # criterion: kill the process after the first checkpoint write, then
        # resume; results must match an uninterrupted run
        base = dict(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        clean = run_search(SearchConfig(**base))
        path = str(tmp_path / "ck.json")
        out = str(tmp_path / "out")
        env = dict(os.environ, FDUAL_TASK_DELAY_MS="250", PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fdual.cli", "search", "--group", "2,8", "--size", "4",
             "--mode", "pair", "--symmetry", "affine", "--frontier-depth", "2",
             "--checkpoint", path, "--out", out],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            completed = 0
            while time.monotonic() < deadline:
                if os.path.exists(path):
                    try:
                        completed = len(json.load(open(path))["completed"])
                    except (json.JSONDecodeError, KeyError):
                        completed = 0
                    if completed >= 1:
                        break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert completed >= 1, "run finished before it could be killed; raise the task delay"
        record = _load_checkpoint(path)
        assert 0 < len(record.completed) < len(enumerate_tasks(SearchConfig(**base)))
        resumed = run_search(SearchConfig(**base, checkpoint_path=path))
        assert resumed.complete
        assert [(c.s.indices, c.partner.indices) for c in resumed.certificates] == [
            (c.s.indices, c.partner.indices) for c in clean.certificates
        ]
        d_clean, d_res = clean.stats.to_dict(), resumed.stats.to_dict()
        d_clean.pop("elapsed"), d_res.pop("elapsed")
        assert d_clean == d_res

    @pytest.mark.parametrize("checkpointed", [True, False])
    def test_dead_worker_is_exit_3_and_resumable(self, tmp_path, monkeypatch, capsys, checkpointed):
        # a pool worker that dies on the last task breaks the pool: one line
        # on stderr, exit 3, and the saved tasks resume to the clean result
        base = dict(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        clean = run_search(SearchConfig(**base))
        tasks = enumerate_tasks(SearchConfig(**base))
        monkeypatch.setattr(sys.modules[__name__], "_DOOMED_TASK", tasks[-1])
        monkeypatch.setattr(search, "_pool_worker", _worker_dying_on_doomed_task)
        path = str(tmp_path / "ck.json")
        argv = ["search", "--group", "2,8", "--size", "4", "--mode", "pair", "--symmetry",
                "affine", "--frontier-depth", "2", "--jobs", "2", "--out", str(tmp_path / "out")]
        code = main(argv + (["--checkpoint", path] if checkpointed else []))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: a search worker process died")
        if not checkpointed:
            assert "no checkpoint was given" in err[0]
            return
        record = _load_checkpoint(path)
        assert tasks[-1] not in record.completed
        assert f"{len(record.completed)} of {len(tasks)} tasks are saved in checkpoint {path}" in err[0]
        monkeypatch.undo()
        resumed = run_search(SearchConfig(**base, checkpoint_path=path))
        assert resumed.complete
        assert [(c.s.indices, c.partner.indices) for c in resumed.certificates] == [
            (c.s.indices, c.partner.indices) for c in clean.certificates
        ]
        d_clean, d_res = clean.stats.to_dict(), resumed.stats.to_dict()
        d_clean.pop("elapsed"), d_res.pop("elapsed")
        assert d_clean == d_res
