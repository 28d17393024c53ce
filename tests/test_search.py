from __future__ import annotations

import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from fdual.abelian import (
    DEFAULT_AUT_CAP,
    ElementSet,
    _aut_tables,
    GroupSpec,
    affine_reducer,
    aut_order,
    automorphism_group,
    galois_classes,
    standard_pairing,
)
from fdual.cli import main
from fdual.cyclotomic import as_integer
from fdual.primitivity import is_primitive
from fdual.duality import check_pair, exact_spectrum, verify_certificate, weight_enumerator
from fdual.search import (
    CheckpointError,
    CheckpointRecord,
    SearchConfig,
    SearchStats,
    checkpoint_save,
    enumerate_tasks,
    pair_leaf_test,
    run_search,
    self_dual_leaf_test,
    _load_checkpoint,
    _run_task,
    _weight_matched_set,
)

from fdual import search
from oracles import (
    abelian_group_orders,
    affine_canonical_form,
    checkpoint_resume,
    exact_pair_classes,
    reference_result,
    reference_walk,
    self_dual_gather_oracle,
    spectrum_entry,
)

Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z2Z8 = GroupSpec((2, 8))


_POOL_CHUNK = search._pool_chunk
_DOOMED_TASK = None  # set by a test; forked pool workers inherit it


def _chunk_dying_on_doomed_task(config, tasks):
    if _DOOMED_TASK in tasks:
        os._exit(1)
    return _POOL_CHUNK(config, tasks)


def _force_pool(monkeypatch):
    """Start the pool before the first task, whatever the task times: the
    chunk schedule of a run that has measured nothing yet."""
    monkeypatch.setattr(search, "_in_process", lambda queued, ran, busy: False)


def _classes(spec, certs):
    return {affine_canonical_form(spec, c.s).indices for c in certs}


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

    @pytest.mark.parametrize("name,value", [
        ("target_size", 4.0), ("target_size", True), ("target_size", "4"),
        ("frontier_depth", True), ("frontier_depth", 2.0),
        ("budget", 2.5), ("budget", True), ("budget", 100.0),
    ])
    def test_non_integer_fields_rejected(self, name, value):
        # a bool or float would run (or fail deep in the walk) under a
        # config_hash of its own, which a checkpoint of the int refuses
        fields = {"spec": GroupSpec((4, 4)), "target_size": 4, "mode": "pair", name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SearchConfig(**fields)

    def test_integer_fields_accepted(self):
        cfg = SearchConfig(spec=GroupSpec((4, 4)), target_size=4, mode="pair",
                           frontier_depth=1, budget=100)
        assert (cfg.target_size, cfg.frontier_depth, cfg.budget) == (4, 1, 100)
        assert SearchConfig(spec=Z4, target_size=2, mode="pair").budget is None
        # a NumPy integer is stored as int: it hashes as the int does
        same = SearchConfig(spec=GroupSpec((4, 4)), target_size=np.int64(4), mode="pair",
                            frontier_depth=np.int64(1), budget=np.int64(100))
        assert type(same.target_size) is type(same.frontier_depth) is type(same.budget) is int
        assert same.config_hash() == cfg.config_hash()

    def test_group_above_search_limit(self):
        # the automorphism tables and the float-screen error bound need
        # |G| <= 256; a translation search is refused too
        with pytest.raises(ValueError, match=r"searches support \|G\| <= 256, got 512"):
            SearchConfig(spec=GroupSpec((512,)), target_size=8, mode="pair",
                         symmetry="translation")
        assert SearchConfig(spec=GroupSpec((256,)), target_size=8, mode="pair").spec.order == 256

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
        # every first element with room left for a completion: (3,) has none
        cfg = SearchConfig(spec=Z22, target_size=2, mode="pair", symmetry="none", frontier_depth=1)
        assert enumerate_tasks(cfg) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("orders,size", [((8,), 4), ((2, 2), 2), ((12,), 6)])
    def test_no_symmetry_visits_every_node_with_room(self, orders, size):
        # the d-element nodes with room for a completion are the d-subsets
        # of 0 .. n - size + d - 1, at every frontier depth
        n = math.prod(orders)
        expected = sum(math.comb(n - size + d, d) for d in range(1, size + 1))
        for depth in range(1, size):
            result = run_search(SearchConfig(spec=GroupSpec(orders), target_size=size, mode="pair",
                                             symmetry="none", frontier_depth=depth))
            assert result.complete
            assert result.stats.nodes_visited == expected, (orders, size, depth)

    def test_affine_prunes_frontier(self):
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        tasks = enumerate_tasks(cfg)
        assert tasks == sorted(tasks)
        reducer = affine_reducer(Z2Z8)
        for t in tasks:
            assert t[0] == 0 and reducer.is_canonical(t)

    def test_frontier_task_limit(self, monkeypatch, tmp_path):
        # a frontier of more than _MAX_TASKS tasks is refused by
        # enumerate_tasks and by run_search, which neither reads nor writes
        # its checkpoint
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="translation",
                           frontier_depth=2)
        tasks = enumerate_tasks(cfg)
        monkeypatch.setattr(search, "_MAX_TASKS", len(tasks))
        assert enumerate_tasks(cfg) == tasks
        monkeypatch.setattr(search, "_MAX_TASKS", len(tasks) - 1)
        refusal = f"frontier_depth 2 gives more than {len(tasks) - 1} tasks"
        with pytest.raises(ValueError, match=refusal):
            enumerate_tasks(cfg)
        path = tmp_path / "ck.json"
        with pytest.raises(ValueError, match=refusal):
            run_search(SearchConfig(**{**vars(cfg), "checkpoint_path": str(path)}))
        assert not path.exists()
        path.write_text("not a checkpoint")
        with pytest.raises(ValueError, match=refusal):
            run_search(SearchConfig(**{**vars(cfg), "checkpoint_path": str(path)}))
        assert path.read_text() == "not a checkpoint"

    def test_frontier_covers_every_affine_orbit(self):
        # the canonical representative of every orbit of size-s subsets
        # containing 0 must extend one of the tasks
        for orders, size in [((4,), 2), ((2, 4), 4), ((2, 8), 4), ((12,), 4)]:
            spec = GroupSpec(orders)
            cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                               symmetry="affine", frontier_depth=min(2, size - 1))
            tasks = set(enumerate_tasks(cfg))
            seen = set()
            for combo in itertools.combinations(range(spec.order), size):
                canon = affine_canonical_form(spec, ElementSet.from_indices(combo)).indices
                if canon in seen:
                    continue
                seen.add(canon)
                assert canon[: cfg.frontier_depth] in tasks, (orders, size, canon)


class TestScreenPartial:
    """A partial node survives the affine screen iff it is its orbit minimum."""

    def test_affine_orbit_minimum(self):
        reducer = affine_reducer(Z4)
        assert not reducer.is_canonical((0, 3))  # orbit minimum is {0,1}
        assert reducer.is_canonical((0, 1))


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

    def test_partner_of_size_one(self):
        # |T| = 1: the partner can only be {0}, which is never primitive
        assert _weight_matched_set(Z4, (1, 0, 0, 0), 1) is None
        assert _weight_matched_set(Z4, (1, 0, 1, 0), 1) is None
        assert pair_leaf_test(Z4, ElementSet.from_indices(range(4))) is None
        assert not is_primitive(Z4, ElementSet.from_indices([0])).primitive

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
        assert affine_reducer(order64_spec).complete
        cert = self_dual_leaf_test(order64_spec, order64_set)
        assert cert is not None
        assert cert.s_primitive and cert.t_primitive
        assert verify_certificate(cert)[0]

        canon = affine_canonical_form(order64_spec, order64_set).indices
        cfg = SearchConfig(spec=order64_spec, target_size=8, mode="self_dual",
                           symmetry="affine", frontier_depth=2)
        stats, hits, finished = _run_task(cfg, [canon[:6]], None)
        assert finished
        assert canon in {affine_canonical_form(order64_spec, c.s).indices for c in hits}


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

    @staticmethod
    def _assert_prefix_filter_matches(spec, s):
        # the enumerator's slot and prefix filter keeps exactly the rows the
        # gather over every finished table keeps, in the same order
        e = np.array(exact_spectrum(spec, standard_pairing(spec), s), dtype=np.int64)
        target = len(s) * np.array(weight_enumerator(spec, s), dtype=np.int64)
        tables = automorphism_group(spec)
        expected = tables[(e[tables] == target).all(axis=1)]
        blocks = list(_aut_tables(spec, match=(e, target)))
        got = np.concatenate(blocks) if blocks else np.empty((0, spec.order), dtype=np.uint8)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), s
        return len(expected)

    @pytest.mark.parametrize("orders", [(4, 4), (2, 8), (2, 2, 2, 2), (3, 3), (9,)])
    def test_prefix_filter_matches_post_filter(self, orders):
        spec = GroupSpec(orders)
        size = int(round(spec.order ** 0.5))
        kept = 0
        for rest in itertools.combinations(range(1, spec.order), size - 1):
            s = ElementSet.from_indices((0,) + rest)
            if None not in exact_spectrum(spec, standard_pairing(spec), s):
                kept += self._assert_prefix_filter_matches(spec, s)
        assert kept > 0

    def test_prefix_filter_matches_post_filter_theorem21(self, order64_spec, order64_set):
        assert self._assert_prefix_filter_matches(order64_spec, order64_set) > 0

    def test_capped_example_certificate_is_pinned(self):
        # a primitive self-dual 8-set of Z2^4 x Z4, whose Aut(G) is above the
        # cap; the pairing is that of the first alpha in lexicographic order
        spec = GroupSpec((2, 2, 2, 2, 4))
        cert = self_dual_leaf_test(spec, ElementSet.from_indices([0, 4, 15, 25, 40, 57, 60, 63]))
        assert cert is not None and cert.kind == "self_dual"
        assert cert.pairing.entries == (
            (0, 2, 0, 0, 2), (2, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0), (2, 2, 0, 0, 1)
        )
        assert verify_certificate(cert)[0]

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

    def test_order_limit_guards_the_enumerator(self):
        # uint8 tables would wrap above 256 elements, so the enumerator
        # refuses such a group when called, and with it the leaf test.
        # {0, 1}^5 in Z4^5 is primitive and formally self-dual, so the leaf
        # test gets as far as the enumeration
        with pytest.raises(ValueError, match="256"):
            _aut_tables(GroupSpec((18, 18)))
        spec = GroupSpec((4,) * 5)
        with pytest.raises(ValueError, match="256"):
            _aut_tables(spec)
        s = ElementSet.from_indices(spec.index_of(c) for c in itertools.product((0, 1), repeat=5))
        assert is_primitive(spec, s).primitive
        with pytest.raises(ValueError, match="256"):
            self_dual_leaf_test(spec, s)

    def test_largest_uncapped_setup_memory(self):
        # Z4^2 x Z16: |G| = 256 with 196,608 automorphisms, the largest
        # uncapped table.  Building it and the search context in a fresh
        # interpreter grows the peak RSS by at most 1.5x the table's bytes
        spec = GroupSpec((4, 4, 16))
        table_bytes = aut_order(spec) * spec.order
        assert aut_order(spec) <= DEFAULT_AUT_CAP
        code = (
            "import resource\n"
            "from fdual import search\n"
            "from fdual.abelian import GroupSpec, automorphism_group\n"
            "def peak_kb():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "base = peak_kb()\n"
            "spec = GroupSpec((4, 4, 16))\n"
            "tables = automorphism_group(spec)\n"
            "search._context(spec)\n"
            "print(base, peak_kb(), tables.nbytes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        base_kb, peak_kb, nbytes = map(int, proc.stdout.split())
        assert nbytes == table_bytes
        assert (peak_kb - base_kb) * 1024 <= 1.5 * table_bytes


class TestPaperResults:
    def test_theorem21_search_is_complete(self, order64_spec, order64_set):
        # the full Z2^2 x Z4^2 size-8 self-dual search, not budget-stopped:
        # the paper's set is among its classes and every certificate re-verifies
        cfg = SearchConfig(spec=order64_spec, target_size=8, mode="self_dual", symmetry="affine")
        result = run_search(cfg)
        assert result.complete and not result.caveats
        canon = affine_reducer(order64_spec).canonical_form(order64_set.indices)
        assert canon == (0, 1, 2, 4, 9, 16, 32, 62)
        assert canon in {c.s.indices for c in result.certificates}
        for cert in result.certificates:
            ok, problems = verify_certificate(cert)
            assert ok, problems
        _assert_stats_sane(result.stats)
        print(f"Theorem 2.1 search: {result.stats.nodes_visited} nodes, "
              f"{len(result.certificates)} orbit classes")

    def test_z8x8_size8_pair_nonexistence(self):
        # the paper's second result, with two jobs: Z8^2 has no primitive
        # formally dual 8-set.  The node count is reported, not
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
        oracle = set()
        for rest in itertools.combinations(range(1, spec.order), size - 1):
            s = ElementSet.from_indices((0,) + rest)
            if self_dual_leaf_test(spec, s) is not None:
                oracle.add(affine_canonical_form(spec, s).indices)
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

    @pytest.mark.parametrize("orders", [(256,), (16, 16)])
    @pytest.mark.parametrize("kind", ["subgroup", "random"])
    def test_float_error_within_stated_bound(self, orders, kind):
        # the screened values of sets of 128 elements in groups of order 256
        # against exact_spectrum where it is an integer and an
        # extended-precision sum elsewhere: the error is within the bound
        # stated at FLOAT_SCREEN_TOL, which is far below the tolerance even
        # at |S| = 256
        if np.finfo(np.longdouble).eps > 2.0 ** -60:
            pytest.skip("long double is no wider than float64 here")
        spec = GroupSpec(orders)
        ctx = search._context(spec)
        if kind == "subgroup":  # first coordinate even, index 2
            s = np.flatnonzero(spec.coords[:, 0] % 2 == 0)
        else:
            s = np.sort(np.random.default_rng(sum(orders)).choice(spec.order, 128, replace=False))
        k = len(s)
        assert k == 128
        partial, cols = ctx.char_matrix[:, s[:-4]].sum(axis=1), s[None, -4:]
        values = search._float_norms(partial, ctx.char_matrix, cols)[:, 0]

        angles = (2 * np.longdouble("3.14159265358979323846264338327950288")
                  * standard_pairing(spec).exponents(range(spec.order), s) / spec.exponent)
        reference = np.cos(angles).sum(axis=1) ** 2 + np.sin(angles).sum(axis=1) ** 2
        exact = exact_spectrum(spec, standard_pairing(spec), ElementSet.from_indices(s.tolist()))
        known = [t for t, v in enumerate(exact) if v is not None]
        assert np.abs(reference[known] - [exact[t] for t in known]).max() < 1e-15 * k * k
        reference[known] = [exact[t] for t in known]
        assert kind == "random" or len(known) == spec.order

        def bound(k):
            return (2 * k ** 3 + 60 * k ** 2) * 2.0 ** -53

        assert float(np.abs(values - reference).max()) <= bound(k)
        assert bound(256) < search.FLOAT_SCREEN_TOL / 100
        if kind == "subgroup":
            ratio = k ** 2 / (spec.order // k)
            assert search._float_passes(partial, ctx.char_matrix, cols, ratio).all()


class TestDeterminismAndParallelism:
    def test_worker_count_does_not_change_results(self, monkeypatch):
        _force_pool(monkeypatch)
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

    def test_hits_found_in_parallel_mode(self, monkeypatch):
        _force_pool(monkeypatch)
        spec = GroupSpec((4, 4))
        cfg = SearchConfig(spec=spec, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        one = run_search(cfg, jobs=1)
        four = run_search(cfg, jobs=4)
        assert len(one.certificates) == len(four.certificates) == 2
        for cert in four.certificates:
            assert verify_certificate(cert)[0]

    def test_pool_hits_equal_in_process_hits(self, monkeypatch):
        # certificates come back from the workers pickled, not as dicts
        _force_pool(monkeypatch)
        for mode in ("pair", "self_dual"):
            cfg = SearchConfig(spec=GroupSpec((4, 4)), target_size=4, mode=mode, symmetry="affine")
            one, pooled = run_search(cfg, jobs=1), run_search(cfg, jobs=2)
            assert one.certificates
            assert list(map(_without_timestamp, pooled.certificates)) == list(
                map(_without_timestamp, one.certificates))

    @pytest.mark.parametrize("orders,size,mode,symmetry", [
        ((2, 8), 4, "pair", "affine"),
        ((12,), 6, "pair", "translation"),
        ((4, 4), 4, "self_dual", "affine"),
    ])
    def test_frontier_depth_does_not_change_results(self, orders, size, mode, symmetry):
        # the frontier and the tasks follow one child rule, so where the tree
        # is split into tasks changes neither the counts nor the hits
        runs = []
        for depth in range(1, size):
            result = run_search(SearchConfig(spec=GroupSpec(orders), target_size=size, mode=mode,
                                             symmetry=symmetry, frontier_depth=depth))
            assert result.complete
            stats = result.stats.to_dict()
            stats.pop("elapsed")
            runs.append((stats, list(map(_without_timestamp, result.certificates))))
        assert all(run == runs[0] for run in runs), runs
        assert runs[0][0]["leaves_tested"] > 0


# searches of at least 50 tasks of a few milliseconds each, which the pool
# sends in chunks of many tasks
MANY_TASKS = {
    "Z49": dict(spec=GroupSpec((49,)), target_size=7, mode="self_dual", symmetry="affine",
                frontier_depth=4),
    "Z7xZ7": dict(spec=GroupSpec((7, 7)), target_size=7, mode="self_dual", symmetry="affine",
                  frontier_depth=6),
}


def _counts(stats):
    counts = stats.to_dict()
    counts.pop("elapsed")
    return counts


def _queue_bound_chunks(n, jobs):
    """The pool's chunks of n tasks, as (start, stop), when task times never
    bind: 2 * jobs single tasks, then 1/(2 * jobs) of the queue, at least 1."""
    slots, chunks, start = 2 * jobs, [], 0
    while start < n:
        size = 1 if len(chunks) < slots else max(1, (n - start) // slots)
        chunks.append((start, start + size))
        start += size
    return chunks


class TestPoolChunks:
    def test_chunk_size_rule(self):
        assert search._chunk_size(100, 4, 0, 0.0) == 1  # no task time yet
        assert search._chunk_size(100, 4, 10, 0.1) == 5  # 50 ms at 10 ms a task
        assert search._chunk_size(100, 4, 100, 0.01) == 25  # a quarter of the queue
        assert search._chunk_size(100, 4, 1, 10.0) == 1  # a long task goes alone
        assert search._chunk_size(3, 4, 100, 0.01) == 1

    def test_in_process_rule(self):
        assert search._in_process(100, 0, 0.0)  # no task time yet: run one here
        assert search._in_process(4, 10, 0.1)  # 40 ms left at 10 ms a task
        assert not search._in_process(6, 10, 0.1)  # 60 ms left: more than a chunk
        assert search._in_process(1000, 10, 0.0)  # tasks too fast to time
        assert not search._in_process(1, 1, 10.0)  # a long task left
        assert search._in_process(0, 1, 10.0)  # nothing left

    def test_small_parallel_search_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        for orders, size, mode in (((2, 8), 4, "pair"), ((4, 4), 4, "self_dual")):
            cfg = SearchConfig(spec=GroupSpec(orders), target_size=size, mode=mode,
                               symmetry="affine", frontier_depth=size - 1)
            one, two = run_search(cfg, jobs=1), run_search(cfg, jobs=2)
            assert one.complete and two.complete and len(enumerate_tasks(cfg)) > 1
            assert _counts(two.stats) == _counts(one.stats)
            assert list(map(_without_timestamp, two.certificates)) == list(
                map(_without_timestamp, one.certificates))

    @pytest.mark.parametrize("orders,size,mode,entries", [
        ((7, 7), 7, "self_dual", None),
        ((49,), 7, "self_dual", None),
        ((2, 8), 4, "pair", None),
        ((2, 4, 4), 8, "pair", None),
        ((2, 8), 4, "pair", 8),
        ((2, 4, 4), 8, "pair", 8),
    ])
    def test_every_depth_and_job_count_equals_depth_one(self, monkeypatch, orders, size, mode,
                                                         entries):
        # sibling tasks walked as one batch, in this process or in the pool,
        # count and find what the one task at depth 1 does, also when blocks
        # of 2 rows split the batches of siblings
        if entries:
            monkeypatch.setattr(search, "_BATCH_ENTRIES", entries)

        def outcome(depth, jobs):
            result = run_search(SearchConfig(spec=GroupSpec(orders), target_size=size, mode=mode,
                                             symmetry="affine", frontier_depth=depth), jobs=jobs)
            return (_counts(result.stats), result.complete,
                    list(map(_without_timestamp, result.certificates)))

        reference = outcome(1, 1)
        assert reference[1] and reference[0]["leaves_tested"] > 0
        for depth in range(1, size):
            for jobs in (1, 2):
                assert outcome(depth, jobs) == reference, (depth, jobs)

    @pytest.mark.parametrize("name", sorted(MANY_TASKS))
    def test_in_process_checkpoint_cadence(self, name, tmp_path, monkeypatch):
        # one process writes the checkpoint at most once per _CHUNK_SECONDS,
        # besides the first and the last write, and the last holds every task
        base = MANY_TASKS[name]
        tasks = enumerate_tasks(SearchConfig(**base))
        written = []

        def counting_save(path, record):
            written.append(len(record.completed))
            checkpoint_save(path, record)

        monkeypatch.setattr(search, "checkpoint_save", counting_save)
        path = str(tmp_path / "ck.json")
        started = time.monotonic()
        result = run_search(SearchConfig(**base, checkpoint_path=path), jobs=1)
        elapsed = time.monotonic() - started
        assert result.complete
        assert len(written) <= elapsed / search._CHUNK_SECONDS + 2, (written, elapsed)
        assert written[0] == 0 and written[-1] == len(tasks)
        assert _load_checkpoint(path).completed == tasks

    def test_chunks_are_consecutive_runs_of_the_queue(self, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_SECONDS", 1e9)
        _force_pool(monkeypatch)
        cfg = SearchConfig(**MANY_TASKS["Z49"])
        tasks = enumerate_tasks(cfg)
        batches = [[task for group, *_ in chunk for task in group]
                   for chunk in search._task_results(cfg, tasks, None, 2)]
        got = sorted((tasks.index(b[0]), tasks.index(b[0]) + len(b)) for b in batches)
        assert got == _queue_bound_chunks(len(tasks), 2)
        assert sorted(t for b in batches for t in b) == tasks
        assert all(b == tasks[tasks.index(b[0]):tasks.index(b[0]) + len(b)] for b in batches)

    @pytest.mark.parametrize("name", sorted(MANY_TASKS))
    def test_chunked_pool_equals_in_process(self, name, monkeypatch):
        _force_pool(monkeypatch)
        cfg = SearchConfig(**MANY_TASKS[name])
        assert len(enumerate_tasks(cfg)) >= 50
        one, two = run_search(cfg, jobs=1), run_search(cfg, jobs=2)
        assert one.complete and two.complete
        assert list(map(_without_timestamp, two.certificates)) == list(
            map(_without_timestamp, one.certificates))
        assert _counts(two.stats) == _counts(one.stats)

    @pytest.mark.parametrize("name", sorted(MANY_TASKS))
    def test_one_checkpoint_write_per_chunk(self, name, tmp_path, monkeypatch):
        base = MANY_TASKS[name]
        clean = run_search(SearchConfig(**base))
        tasks = enumerate_tasks(SearchConfig(**base))
        written = []

        def counting_save(path, record):
            written.append(len(record.completed))
            checkpoint_save(path, record)

        monkeypatch.setattr(search, "checkpoint_save", counting_save)
        _force_pool(monkeypatch)
        path = str(tmp_path / "ck.json")
        result = run_search(SearchConfig(**base, checkpoint_path=path), jobs=2)
        assert result.complete
        assert len(written) < len(tasks)
        assert written == sorted(written) and written[-1] == len(tasks)
        record = _load_checkpoint(path)
        assert record.completed == tasks
        assert sorted(map(_without_timestamp, record.hits)) == sorted(
            map(_without_timestamp, clean.certificates))
        # the finished checkpoint resumes to the clean result with no task run
        monkeypatch.setattr(search, "_run_task", None)
        for run in (result, run_search(SearchConfig(**base, checkpoint_path=path))):
            assert run.complete and _counts(run.stats) == _counts(clean.stats)
            assert list(map(_without_timestamp, run.certificates)) == list(
                map(_without_timestamp, clean.certificates))


class TestSoundness:
    def test_every_emitted_certificate_reverifies(self):
        for orders, size, mode in [((4,), 2, "pair"), ((4, 4), 4, "pair"), ((4,), 2, "self_dual"), ((4, 4), 4, "self_dual")]:
            spec = GroupSpec(orders)
            cfg = SearchConfig(spec=spec, target_size=size, mode=mode,
                               symmetry="affine", frontier_depth=min(2, size - 1))
            result = run_search(cfg)
            reducer = affine_reducer(spec)
            assert result.certificates
            assert [c.sort_key() for c in result.certificates] == sorted(
                c.sort_key() for c in result.certificates)
            for cert in result.certificates:
                # one hit per orbit: each is its own canonical form
                assert cert.s.indices == reducer.canonical_form(cert.s.indices)
                ok, problems = verify_certificate(cert)
                assert ok, problems
                assert cert.s_primitive and cert.t_primitive
                report = check_pair(cert.spec, cert.pairing, cert.s, cert.partner)
                assert report.holds

    @pytest.mark.parametrize("orders,symmetry,capped", [
        ((2,) * 5, "affine", True),  # |Aut(Z2^5)| = 9,999,360 is above the cap
        ((2,) * 5, "translation", False),  # no automorphism is used
        ((2,) * 4, "affine", False),  # |Aut(Z2^4)| = 20,160 is enumerated in full
    ], ids=["Z2^5-affine", "Z2^5-translation", "Z2^4-affine"])
    def test_capped_group_caveat(self, orders, symmetry, capped):
        # a capped Aut(G) leaves the affine search complete but may report
        # one orbit as several, and the result says so
        result = run_search(SearchConfig(spec=GroupSpec(orders), target_size=4, mode="pair",
                                         symmetry=symmetry))
        assert result.complete
        assert result.caveats == (
            ["automorphism enumeration was capped: equivalent orbits may be reported separately"]
            if capped else []
        )


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


def _sweep_budgets(orders, size, mode, symmetry, depth=None, step=1):
    """run_search against the node-by-node reference at every ``step``-th
    budget from 1 to one past the full run, and without a budget; and the
    frontier task list against the reference's."""
    base = dict(spec=GroupSpec(orders), target_size=size, mode=mode,
                symmetry=symmetry, frontier_depth=depth)
    walk = reference_walk(SearchConfig(**base))
    assert enumerate_tasks(SearchConfig(**base)) == [task for task, _ in walk[1]]
    full = reference_result(walk)
    assert full[1]
    for budget in [None, *range(1, full[0]["nodes_visited"] + 2, step)]:
        result = run_search(SearchConfig(**base, budget=budget))
        stats = result.stats.to_dict()
        stats.pop("elapsed")
        got = (stats, result.complete, [c.s.indices for c in result.certificates])
        assert got == reference_result(walk, budget), (orders, size, budget)
    return full


class TestBatchedWalk:
    """The batched walk (one canonicity walk per level below a node of depth
    size - 4, one cut of the node costs at the budget, a two-stage float
    screen of each batch's own leaves) against the search walked one node
    at a time: identical counts, stop points and hit lists at every budget.
    Tasks start above depth size - 4 (size 6 with depth 1), at it (size 6,
    default depth), at size - 3 (size 4 with depth 1, size 5 with the
    default depth, size 6 with depth 3), at size - 2 (size 4, default
    depth) and at size - 1 (depth 3 with size 4)."""

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
        ((2, 6), 6, "pair", "affine", 1),
    ])
    def test_every_budget_matches_reference(self, orders, size, mode, symmetry, depth):
        stats, _, _ = _sweep_budgets(orders, size, mode, symmetry, depth)
        assert stats["pruned_by_screen"] > 0 and stats["leaves_tested"] > 0
        if symmetry == "affine":
            assert stats["pruned_by_symmetry"] > 0

    @pytest.mark.parametrize("orders,size,mode,symmetry", [
        ((2, 6), 6, "pair", "affine"),
        ((12,), 6, "pair", "translation"),
    ])
    def test_batches_split_into_blocks(self, monkeypatch, orders, size, mode, symmetry):
        # blocks of 2 rows (8 entries over 4 columns) split every batch of
        # more than one level, and each block is cut in turn
        blocks = []
        batch = search._batch

        def recording(*args):
            blocks.append(len(args) > 7)
            return batch(*args)

        monkeypatch.setattr(search, "_BATCH_ENTRIES", 8)
        monkeypatch.setattr(search, "_batch", recording)
        _sweep_budgets(orders, size, mode, symmetry)
        assert sum(blocks) > len(blocks) // 2

    def test_four_level_batch_memory(self):
        # a size-8 translation search of Z256 stops at a 200,000-node budget
        # inside its first batch, whose four levels below a node of depth 4
        # hold up to C(252, 3) great-grandchildren; walked in blocks no
        # larger under a budget than _BUDGET_ENTRIES, none expanded past the
        # budget's reach, it grows the peak RSS of a fresh interpreter by
        # under 1 MB
        code = (
            "import resource\n"
            "from fdual.abelian import GroupSpec\n"
            "from fdual.search import SearchConfig, _context, run_search\n"
            "def peak_kb():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "spec = GroupSpec((256,))\n"
            "_context(spec)\n"
            "base = peak_kb()\n"
            "result = run_search(SearchConfig(spec=spec, target_size=8, mode='pair',\n"
            "                                 symmetry='translation', budget=200_000))\n"
            "print(base, peak_kb(), result.stats.nodes_visited, int(result.complete))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        base_kb, peak_kb, nodes, complete = map(int, proc.stdout.split())
        assert nodes == 200_000 and not complete
        assert (peak_kb - base_kb) * 1024 < 1 << 20

    def test_screen_in_many_chunks(self, monkeypatch):
        # a node's leaf pairs (up to 91) span many chunks of 3 (3 * 16 entries)
        monkeypatch.setattr(search, "_SCREEN_ENTRIES", 3 * 16)
        stats, _, hits = _sweep_budgets((4, 4), 4, "self_dual", "affine")
        assert len(hits) == 2

    @pytest.mark.parametrize("orders,size,mode,symmetry,depth,hits,shared", [
        ((5, 5), 5, "self_dual", "affine", None, 1, False),
        ((14,), 7, "pair", "translation", 1, 0, True),
    ])
    def test_chunks_of_three_levels(
        self, monkeypatch, orders, size, mode, symmetry, depth, hits, shared
    ):
        # chunks of 3 leaves split a batch node's leaves, and some chunk
        # holds the runs of two parents; but every chunk holds the leaves of
        # one batch node alone, also in a task shared by many batch nodes
        # (the one task at depth 1 of size 7, whose 3,003 nodes are swept at
        # every 29th budget).  Chunks are recorded where they are formed,
        # as stage 1 passes the every-row screen only its survivors.
        step = 29 if size == 7 else 1
        open_batches, chunks = [], []  # chunks: (task, batch node, parents)
        screened = []
        batch, leaf_chunks, passes = search._batch, search._leaf_chunks, search._float_passes

        def recording_batch(config, ctx, node, partial, *rest):
            open_batches.append((tuple(node), partial))
            try:
                return batch(config, ctx, node, partial, *rest)
            finally:
                open_batches.pop()

        def recording_chunks(runs, count, n):
            node, _ = open_batches[-1]
            assert runs.shape[1] == size - len(node) and (runs[:, 0] > node[-1]).all()
            for r, last in leaf_chunks(runs, count, n):
                assert len(r) <= 3
                parents = {tuple(row) for row in runs[r, :-1].tolist()}
                chunks.append((node[: depth or 2], node, len(parents)))
                yield r, last

        def recording_passes(partial, matrix, cols, ratio):
            node, own = open_batches[-1]
            assert partial is own
            assert cols.shape[1] == size - len(node) and (cols[:, 0] > node[-1]).all()
            screened.append(len(cols))
            return passes(partial, matrix, cols, ratio)

        monkeypatch.setattr(search, "_SCREEN_ENTRIES", 3 * GroupSpec(orders).order)
        monkeypatch.setattr(search, "_batch", recording_batch)
        monkeypatch.setattr(search, "_leaf_chunks", recording_chunks)
        monkeypatch.setattr(search, "_float_passes", recording_passes)
        _, _, found = _sweep_budgets(orders, size, mode, symmetry, depth, step)
        assert len(found) == hits and max(screened) > 0
        assert max(parents for _, _, parents in chunks) > 1
        assert len(chunks) > len({node for _, node, _ in chunks})
        nodes_per_task = Counter(task for task, _ in {(t, node) for t, node, _ in chunks})
        assert (max(nodes_per_task.values()) > 1) == shared


def _unit_orbits(spec):
    """The orbits of t -> u*t, u a unit mod the exponent, from coordinates."""
    m = spec.exponent
    units = [u for u in range(1, m) if np.gcd(u, m) == 1]
    images = spec.index_of(np.array(units)[:, None, None] * spec.coords[None, :, :])
    return {frozenset(images[:, t].tolist()) for t in range(spec.order)}


def _element_orders(spec):
    """The order of each element, counted from its multiples."""
    return [len({spec.index_of(j * spec.coords[t]) for j in range(spec.exponent)})
            for t in range(spec.order)]


class TestTwoStageScreen:
    """The leaf screen reads one character of largest order, then every
    character for the leaves it keeps.  The exact values on an orbit of
    t -> u*t (``galois_classes``) are Galois conjugates, equal when one of
    them is an integer, and the least element of largest order is the
    least of its orbit."""

    GROUPS = [(40,), (32,), (8, 8), (2, 2, 4, 4), (12,), (2, 6), (5, 5), (3, 9), (7, 7)]

    @pytest.mark.parametrize("orders", GROUPS)
    def test_orbit_rows_are_orbit_minima(self, orders):
        spec = GroupSpec(orders)
        orbits = _unit_orbits(spec)
        reps = galois_classes(spec)[0][1:].tolist()
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

    @pytest.mark.parametrize("orders", GROUPS + [(8, 2), (4, 2, 8), (2, 8, 4), (2,) * 6])
    def test_lead_row_is_an_orbit_row_of_largest_order(self, orders):
        # chi_t has the order of t, and the largest order is the exponent;
        # element 1, the first orbit row, has the order of the last factor,
        # less than that on (8, 2) and (2, 8, 4); the least element of
        # largest order is the least of its orbit, so it is an orbit row
        spec = GroupSpec(orders)
        ctx = search._context(spec)
        order = _element_orders(spec)
        reps = galois_classes(spec)[0][1:].tolist()
        assert order[ctx.lead_row] == max(order) == spec.exponent
        assert ctx.lead_row == min(t for t in reps if order[t] == spec.exponent)
        assert ctx.lead_row == order.index(max(order))
        if orders in [(8, 2), (2, 8, 4)]:
            assert order[reps[0]] < spec.exponent

    CORPUS = [((8, 8), 8), ((40,), 8), ((2, 2, 4, 4), 8), ((7, 7), 7), ((2,) * 6, 8)]

    @staticmethod
    def _corpus(orders, size):
        """Random leaves (prefix id, x, a, b) plus the leaves {0, g, 2g,
        ...} and some subgroups spanned by three elements, which pass."""
        spec = GroupSpec(orders)
        n = spec.order
        rng = np.random.default_rng(n + size)
        prefixes = [sorted(rng.choice(n, size=size - 3, replace=False).tolist()) for _ in range(40)]
        leaves = [(rng.integers(40), *rng.choice(n, size=3, replace=False)) for _ in range(3000)]
        spans = []
        for gens in rng.choice(n, size=(20, 3)).tolist():
            span = {0}
            while (more := span | {spec.index_of(spec.coords[x] + spec.coords[g])
                                   for x in span for g in gens}) != span:
                span = more
            spans.append(sorted(span))
        for g in range(1, n):
            spans.append(sorted({spec.index_of(j * spec.coords[g]) for j in range(size)}))
        for subset in spans:
            if len(subset) == size:
                prefixes.append([int(x) for x in subset[:-3]])
                leaves.append((len(prefixes) - 1, *subset[-3:]))
        return spec, prefixes, np.array(leaves, dtype=np.intp)

    @pytest.mark.parametrize("orders,size,thin", [
        ((8, 8), 8, False), ((40,), 8, False), ((2, 2, 4, 4), 8, False), ((7, 7), 7, False),
        ((8, 8), 8, True), ((2, 2, 4, 4), 8, True), ((2,) * 6, 8, False),
    ])
    def test_mask_equals_full_row_screen(self, orders, size, thin):
        # the corpus screened per prefix from its partial spectrum: the
        # lead row, then every row for the leaves it keeps, keeps what
        # every row keeps; thin=True leads with the least element of least
        # nonzero order instead, which keeps more.  With thin=True, and on
        # Z2^6 with the lead row, every row prunes leaves the first kept
        spec, prefixes, leaves = self._corpus(orders, size)
        ctx = search._context(spec)
        ratio = size ** 2 / (spec.order // size)
        order = _element_orders(spec)
        lead = order.index(min(order[1:]), 1) if thin else ctx.lead_row
        full, stage1, screened = [], [], []
        for p, prefix in enumerate(prefixes):
            partial = ctx.char_matrix[:, prefix].sum(axis=1)
            cols = leaves[leaves[:, 0] == p, 1:]
            full.append(search._float_passes(partial, ctx.char_matrix, cols, ratio))
            kept = search._float_passes(partial[[lead]], ctx.char_matrix[[lead]], cols, ratio)
            stage1.append(kept.copy())
            kept[kept] = search._float_passes(partial, ctx.char_matrix, cols[kept], ratio)
            screened.append(kept)
        full, stage1, screened = map(np.concatenate, (full, stage1, screened))
        assert screened.tolist() == full.tolist()
        assert full.any() and not full.all()
        if thin or orders == (2,) * 6:
            assert (stage1 & ~full).any()

    @pytest.mark.parametrize("orders,size", CORPUS)
    def test_leaves_screened_as_by_full_rows(self, monkeypatch, orders, size):
        # each corpus leaf (x, a, b) starts a run of 1-3 leaves (x, a, b + j)
        # below its prefix; _test_leaves, in chunks of 7, exact-tests the
        # leaves that pass _float_passes on every row, in order, and counts
        # the rest as screened out; on Z2^6 the lead row passes about half
        spec, prefixes, leaves = self._corpus(orders, size)
        ctx = search._context(spec)
        n = spec.order
        config = SearchConfig(spec=spec, target_size=size, mode="pair", symmetry="translation")
        ratio = size ** 2 / (n // size)
        count = np.minimum(np.random.default_rng(n).integers(1, 4, len(leaves)), n - leaves[:, -1])
        tested = []
        monkeypatch.setattr(search, "pair_leaf_test", lambda spec, s: tested.append(s))
        monkeypatch.setattr(search, "_SCREEN_ENTRIES", 7 * n)
        expected, lead_kept, total = [], 0, 0
        stats = SearchStats()
        for p, prefix in enumerate(prefixes):
            mine = leaves[:, 0] == p
            runs, counts = leaves[mine, 1:], count[mine]
            cols = np.repeat(runs, counts, axis=0)
            cols[:, -1] += np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts, counts)
            partial = ctx.char_matrix[:, prefix].sum(axis=1)
            passes = search._float_passes(partial, ctx.char_matrix, cols, ratio)
            lead_kept += int(search._float_passes(
                partial[[ctx.lead_row]], ctx.char_matrix[[ctx.lead_row]], cols, ratio).sum())
            expected += [ElementSet.from_indices([*prefix, *row]) for row in cols[passes].tolist()]
            total += len(cols)
            search._test_leaves(config, ctx, prefix, partial, runs, counts, stats, [])
        assert tested == expected and 0 < len(expected) < total
        assert stats.pruned_by_screen == total - len(expected)
        assert stats.leaves_tested == len(expected) and stats.hits == 0
        if orders == (2,) * 6:
            assert lead_kept > total / 3


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

    def test_malformed_hit_refused_before_any_task(self, tmp_path, monkeypatch, capsys):
        # a checkpoint hit that is no certificate stops the run at load time,
        # naming the checkpoint, and leaves the file as it was
        cfg = SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
        path = tmp_path / "ck.json"
        checkpoint_save(str(path), CheckpointRecord(
            config_hash=cfg.config_hash(), completed=[], stats=SearchStats(), hits=[]))
        data = json.loads(path.read_text())
        data["hits"] = [{"kind": "pair", "bogus": 1}]
        path.write_text(json.dumps(data))
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="missing field 'group'"):
            _load_checkpoint(str(path))

        def no_task(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(search, "_run_task", no_task)
        with pytest.raises(CheckpointError, match=re.escape(f"cannot read checkpoint {path}")):
            run_search(SearchConfig(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine",
                                    frontier_depth=2, checkpoint_path=str(path)))
        argv = ["search", "--group", "2,8", "--size", "4", "--mode", "pair", "--symmetry", "affine",
                "--frontier-depth", "2", "--checkpoint", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot read checkpoint {path}: certificate is missing field 'group'"]
        assert path.read_bytes() == before

    def test_failed_save_leaves_no_temporary_file(self, tmp_path):
        # a directory where the checkpoint goes: the temporary file is
        # written, the rename fails, and the temporary file is removed
        path = tmp_path / "ck.json"
        path.mkdir()
        record = CheckpointRecord(config_hash="0" * 64, completed=[], stats=SearchStats(), hits=[])
        with pytest.raises(CheckpointError, match=re.escape(f"cannot write checkpoint {path}")):
            checkpoint_save(str(path), record)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"] and path.is_dir()

    def test_checkpoint_hits_round_trip(self, tmp_path):
        # one line of compact JSON that reads back to the same record
        cfg = SearchConfig(spec=GroupSpec((4, 4)), target_size=4, mode="pair", symmetry="affine")
        certs = run_search(cfg).certificates
        assert certs
        path = tmp_path / "ck.json"
        record = CheckpointRecord(config_hash=cfg.config_hash(), completed=enumerate_tasks(cfg),
                                  stats=SearchStats(nodes_visited=7, hits=len(certs)), hits=certs)
        checkpoint_save(str(path), record)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == record.to_dict()
        again = _load_checkpoint(str(path))
        assert again == record
        assert [c.to_dict() for c in again.hits] == [c.to_dict() for c in certs]
        assert checkpoint_resume(str(path), cfg) == []

    @pytest.mark.parametrize("orders,size,mode,hit_from", [
        ((2, 8), 4, "pair", ((4,), 2, "pair")),  # another group
        ((4, 4), 4, "self_dual", ((4, 4), 4, "pair")),  # another mode
        ((4, 4), 8, "pair", ((4, 4), 4, "pair")),  # another |S|
    ])
    def test_hit_from_another_search_refused(self, tmp_path, monkeypatch, orders, size, mode, hit_from):
        # a valid certificate of another search under this search's config
        # hash is refused at load time, before any task, and the file stays
        spec, hit_size, hit_mode = GroupSpec(hit_from[0]), hit_from[1], hit_from[2]
        cert = run_search(SearchConfig(spec=spec, target_size=hit_size, mode=hit_mode)).certificates[0]
        cfg = SearchConfig(spec=GroupSpec(orders), target_size=size, mode=mode)
        path = tmp_path / "ck.json"
        checkpoint_save(str(path), CheckpointRecord(
            config_hash=cfg.config_hash(), completed=enumerate_tasks(cfg), stats=SearchStats(),
            hits=[cert]))
        before = path.read_bytes()
        monkeypatch.setattr(search, "_run_task", None)
        message = re.escape(
            f"checkpoint {path} holds a hit from another search (group orders {list(hit_from[0])}, "
            f"mode {hit_mode}, |S| = {hit_size}; this search has {list(orders)}, {mode}, {size})")
        with pytest.raises(CheckpointError, match=message):
            checkpoint_resume(str(path), cfg)
        with pytest.raises(CheckpointError, match=message):
            run_search(SearchConfig(spec=GroupSpec(orders), target_size=size, mode=mode,
                                    checkpoint_path=str(path)))
        assert path.read_bytes() == before

    def test_hit_of_this_search_resumes(self, tmp_path, monkeypatch):
        cfg = SearchConfig(spec=GroupSpec((4, 4)), target_size=4, mode="pair")
        clean = run_search(cfg)
        path = str(tmp_path / "ck.json")
        checkpoint_save(path, CheckpointRecord(
            config_hash=cfg.config_hash(), completed=enumerate_tasks(cfg),
            stats=SearchStats(hits=len(clean.certificates)), hits=clean.certificates))
        monkeypatch.setattr(search, "_run_task", None)
        resumed = run_search(SearchConfig(spec=GroupSpec((4, 4)), target_size=4, mode="pair",
                                          checkpoint_path=path))
        assert resumed.complete and resumed.stats.hits == len(clean.certificates)
        assert [c.to_dict() for c in resumed.certificates] == [c.to_dict() for c in clean.certificates]

    @pytest.mark.parametrize("field,value,message", [
        ("nodes_visited", "7", "stats counters must be integers"),
        ("hits", 2.9, "stats counters must be integers"),
        ("hits", True, "stats counters must be integers"),
        ("leaves_tested", 3.0, "stats counters must be integers"),
        ("completed", [0, 1.5], "completed tasks must be lists of integers"),
        ("completed", [0, "2"], "completed tasks must be lists of integers"),
        ("completed", [0, True], "completed tasks must be lists of integers"),
        ("completed", [0, 99], "completed [0, 99], which is no task of this search"),
        ("completed", [0, 3], "completed [0, 3], which is no task of this search"),
        ("completed", [0], "completed [0], which is no task of this search"),
        ("hits", 2, "counts 2 hits but holds 0"),
    ], ids=["nodes-str", "hits-float", "hits-bool", "leaves-float", "task-float", "task-str",
            "task-bool", "task-outside-group", "task-not-canonical", "task-too-short",
            "hits-miscounted"])
    def test_loose_checkpoint_refused_before_any_task(
        self, tmp_path, monkeypatch, capsys, field, value, message
    ):
        # one bad field of an otherwise valid Z8 size-4 pair checkpoint (its
        # tasks are (0, 1), (0, 2) and (0, 4)) is refused at load time, by
        # the library and by the CLI with exit 2, and the file stays as it was
        base = dict(spec=GroupSpec((8,)), target_size=4, mode="pair")
        cfg = SearchConfig(**base)
        assert enumerate_tasks(cfg) == [(0, 1), (0, 2), (0, 4)]
        path = tmp_path / "ck.json"
        checkpoint_save(str(path), CheckpointRecord(
            config_hash=cfg.config_hash(), completed=[(0, 1)], stats=SearchStats(nodes_visited=7),
            hits=[]))
        data = json.loads(path.read_text())
        if field == "completed":
            data["completed"].append(value)
        else:
            data["stats"][field] = value
        path.write_text(json.dumps(data))
        before = path.read_bytes()
        monkeypatch.setattr(search, "_run_task", None)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            checkpoint_resume(str(path), cfg)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            run_search(SearchConfig(**base, checkpoint_path=str(path)))
        argv = ["search", "--group", "8", "--size", "4", "--checkpoint", str(path),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert path.read_bytes() == before

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
        argv = ["search", "--group", "2,8", "--size", "4", "--mode", "pair", "--symmetry",
                "affine", "--frontier-depth", "2", "--jobs", "1", "--checkpoint", path, "--out", out]
        # every task sleeps 0.25 s first, so the run is killed between tasks
        code = (
            "import sys, time\n"
            "from fdual import cli, search\n"
            "run_task = search._run_task\n"
            "def slow_task(*args):\n"
            "    time.sleep(0.25)\n"
            "    return run_task(*args)\n"
            "search._run_task = slow_task\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
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

    @pytest.mark.parametrize("checkpointed,where", [
        pytest.param(True, "last", id="True"),
        pytest.param(False, "last", id="False"),
        pytest.param(True, "mid_chunk", id="mid_chunk-True"),
        pytest.param(False, "mid_chunk", id="mid_chunk-False"),
    ])
    def test_dead_worker_is_exit_3_and_resumable(self, tmp_path, monkeypatch, capsys, checkpointed, where):
        # a pool worker that dies on a task breaks the pool: one line on
        # stderr, exit 3, and the saved tasks resume to the clean result.  The
        # doomed task is the last one, alone in its chunk, or one mid-list
        # inside a chunk of many tasks, whose other tasks are then lost too
        if where == "last":
            base = dict(spec=Z2Z8, target_size=4, mode="pair", symmetry="affine", frontier_depth=2)
            args = ["--group", "2,8", "--size", "4", "--mode", "pair", "--frontier-depth", "2"]
        else:
            base = MANY_TASKS["Z49"]
            args = ["--group", "49", "--size", "7", "--mode", "self_dual", "--frontier-depth", "4"]
            # chunks as large as the queue allows, whatever the task times
            monkeypatch.setattr(search, "_CHUNK_SECONDS", 1e9)
        clean = run_search(SearchConfig(**base))
        tasks = enumerate_tasks(SearchConfig(**base))
        doomed = len(tasks) - 1 if where == "last" else len(tasks) // 2
        if where == "mid_chunk":
            chunk = next(c for c in _queue_bound_chunks(len(tasks), 2) if c[0] < doomed < c[1] - 1)
        monkeypatch.setattr(sys.modules[__name__], "_DOOMED_TASK", tasks[doomed])
        monkeypatch.setattr(search, "_pool_chunk", _chunk_dying_on_doomed_task)
        _force_pool(monkeypatch)
        path = str(tmp_path / "ck.json")
        argv = ["search", *args, "--symmetry", "affine", "--jobs", "2", "--out", str(tmp_path / "out")]
        code = main(argv + (["--checkpoint", path] if checkpointed else []))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: a search worker process died")
        if not checkpointed:
            assert "no checkpoint was given" in err[0]
            return
        record = _load_checkpoint(path)
        lost = tasks[chunk[0]:chunk[1]] if where == "mid_chunk" else [tasks[doomed]]
        assert not set(lost) & set(record.completed)
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
