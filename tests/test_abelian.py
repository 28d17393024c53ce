from __future__ import annotations

import itertools
import pickle
import random
import tracemalloc
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from fdual import abelian
from fdual.abelian import (
    DEFAULT_AUT_CAP,
    AffineReducer,
    ElementSet,
    GroupSpec,
    PairingMatrix,
    _aut_tables,
    affine_reducer,
    aut_order,
    automorphism_group,
    galois_classes,
    pairing_from_automorphism,
    standard_pairing,
)

from oracles import (
    abelian_group_orders,
    affine_canonical_form,
    aut_tables_oracle,
    chain_is_canonical,
    is_automorphism_table,
    map_set,
    negate_set,
    oracle_add,
    oracle_neg,
    scan_canonical_form,
    scan_forms_by_orbit,
    scan_is_canonical,
    subgroup_oracle,
    translate,
)

Z4 = GroupSpec((4,))
Z2Z4 = GroupSpec((2, 4))
SPEC_POOL = [
    GroupSpec(o)
    for o in [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2), (9,),
              (3, 3), (12,), (2, 6), (16,), (2, 8), (4, 4), (2, 2, 4),
              (2, 2, 2, 2), (8, 8), (2, 2, 4, 4)]
]


class TestGroupSpec:
    def test_element_arithmetic(self):
        # the array encode reduces, so sums and negatives of coordinate rows
        # encode straight to indices
        assert Z4.index_of(Z4.coords[3] + Z4.coords[2]) == 1
        one_three, one_one = Z2Z4.index_of((1, 3)), Z2Z4.index_of((1, 1))
        assert Z2Z4.index_of(Z2Z4.coords[one_three] + Z2Z4.coords[one_one]) == 0
        assert Z4.index_of(-Z4.coords[1]) == 3
        assert Z4.index_of(-Z4.coords[0]) == 0
        a = Z2Z4.index_of((1, 2))
        assert Z2Z4.index_of(Z2Z4.coords[a] + np.array(Z2Z4.zero())) == a

    def test_equal_specs_share_coords(self):
        a, b = GroupSpec((2, 4)), GroupSpec((2, 4))
        assert a is not b and a.coords is b.coords
        assert not a.coords.flags.writeable
        assert a.coords.tolist() == [list(e) for e in a.elements()]
        assert GroupSpec((8,)).coords is not a.coords

    def test_mixed_radix_indexing(self):
        # last coordinate varies fastest: (1,2) -> 1*4 + 2
        assert Z2Z4.index_of((1, 2)) == 6
        assert Z2Z4.element(6) == (1, 2)

    def test_index_bijection(self):
        for spec in SPEC_POOL:
            seen = set()
            for i, coords in enumerate(spec.elements()):
                assert spec.index_of(coords) == i
                assert spec.element(i) == coords
                seen.add(coords)
            assert len(seen) == spec.order

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Z4.element(4)
        with pytest.raises(ValueError):
            Z4.element(-1)

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            GroupSpec(())
        with pytest.raises(ValueError):
            GroupSpec((0, 2))

    def test_exponent_divides_order(self):
        for spec in SPEC_POOL:
            assert spec.order % spec.exponent == 0
            assert all(spec.exponent % n == 0 for n in spec.orders)


class TestElementSet:
    def test_roundtrip_and_cardinality(self):
        s = ElementSet.from_indices([5, 1, 3])
        assert s.indices == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_pickle_roundtrip(self):
        # immutable, yet picklable: sets travel to and from worker processes
        s = ElementSet.from_indices([0, 3, 64])
        again = pickle.loads(pickle.dumps(s))
        assert again == s and again.indices == (0, 3, 64) and len(again) == 3
        with pytest.raises(AttributeError, match="immutable"):
            again.mask = 0

    @pytest.mark.parametrize("orders", [(4,), (2, 8), (2, 2, 4)])
    def test_from_coords_encodes_every_entry(self, orders):
        spec = GroupSpec(orders)
        elements = list(spec.elements())
        assert ElementSet.from_coords(spec, elements).indices == tuple(range(spec.order))
        picked = [list(elements[i]) for i in (3, 0, 2, 3)]  # a repeat collapses
        assert ElementSet.from_coords(spec, picked).indices == (0, 2, 3)
        as_numpy = [tuple(np.int64(c) for c in elements[-1])]
        assert ElementSet.from_coords(spec, as_numpy).indices == (spec.order - 1,)

    @pytest.mark.parametrize("coords,message", [
        ([], "S must be a non-empty list of coordinate vectors"),
        ("01", "S must be a non-empty list of coordinate vectors"),
        ([[0, 1], [1]], "S entries must be length-2 coordinate lists, got [1]"),
        ([[0, 1], 3], "S entries must be length-2 coordinate lists, got 3"),
        ([[0, 1.0]], "S coordinates must be integers, got [0, 1.0]"),
        ([[0, True]], "S coordinates must be integers, got [0, True]"),
        ([[0, 1], [2, 0]], "S entry [2, 0] has coordinates outside the factor orders [2, 8]"),
        ([[0, -1]], "S entry [0, -1] has coordinates outside the factor orders [2, 8]"),
    ])
    def test_from_coords_messages(self, coords, message):
        with pytest.raises(ValueError) as info:
            ElementSet.from_coords(GroupSpec((2, 8)), coords, "S")
        assert str(info.value) == message

    def test_translate_and_negate(self):
        s = ElementSet.from_indices([0, 1])
        assert translate(Z4, s, 2).indices == (2, 3)
        assert negate_set(Z4, s).indices == (0, 3)


class TestPairing:
    def test_standard_diagonal(self):
        assert standard_pairing(Z4).entries == ((1,),)
        assert standard_pairing(Z2Z4).entries == ((2, 0), (0, 1))
        big = standard_pairing(GroupSpec((2, 2, 4, 4)))
        assert [big.entries[i][i] for i in range(4)] == [2, 2, 1, 1]

    def test_standard_nondegenerate_everywhere(self):
        for spec in SPEC_POOL:
            if spec.order <= 64:
                assert standard_pairing(spec).is_nondegenerate

    def test_order64_pairing_nondegenerate(self, order64_pairing):
        assert order64_pairing.is_nondegenerate

    def test_degenerate_matrices(self):
        z2 = GroupSpec((2,))
        assert not PairingMatrix(z2, ((0,),)).is_nondegenerate
        assert not PairingMatrix(Z4, ((2,),)).is_nondegenerate

    @pytest.mark.parametrize("orders", [(2, 4), (4, 4), (2, 2, 2), (2, 6)])
    def test_nondegeneracy_matches_kernel_scan(self, orders):
        # every well-defined matrix: degenerate iff some x != 0 pairs to 0
        # with every y, and an equal pairing built again agrees
        spec = GroupSpec(orders)
        entries = itertools.product(range(spec.exponent), repeat=spec.rank ** 2)
        verdicts = set()
        for flat in entries:
            rows = tuple(tuple(flat[i * spec.rank:(i + 1) * spec.rank]) for i in range(spec.rank))
            try:
                pairing = PairingMatrix(spec, rows)
            except ValueError:
                continue
            scan = pairing.exponents(range(spec.order), range(spec.order))
            verdict = not (scan[1:] == 0).all(axis=1).any()
            assert pairing.is_nondegenerate == verdict, rows
            assert PairingMatrix(GroupSpec(orders), rows).is_nondegenerate == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_ill_defined_rejected(self):
        # Z2 x Z4 with exponent 4: entry 1 in the Z2 row is not well-defined
        with pytest.raises(ValueError):
            PairingMatrix(Z2Z4, ((1, 0), (0, 1)))

    def test_exponent_examples(self, order64_pairing):
        spec = order64_pairing.spec
        v = spec.index_of((1, 1, 3, 2))
        assert order64_pairing.exponents([v], [v])[0, 0] == 0
        assert standard_pairing(Z4).exponents([1], [1])[0, 0] == 1
        zero = spec.index_of(spec.zero())
        assert (order64_pairing.exponents([zero], range(8)) == 0).all()

    def test_bilinearity_sampled(self):
        rng = random.Random(17)
        for spec in SPEC_POOL[:12]:
            pairing = standard_pairing(spec)
            m = spec.exponent
            e = pairing.exponents(range(spec.order), range(spec.order))
            for _ in range(30):
                x, y, z = (rng.randrange(spec.order) for _ in range(3))
                assert e[oracle_add(spec, x, y), z] == (e[x, z] + e[y, z]) % m
                assert e[x, oracle_add(spec, y, z)] == (e[x, y] + e[x, z]) % m


class TestGaloisClasses:
    @pytest.mark.parametrize("orders", [(1,), (2,), (12,), (2, 6), (3, 9), (5, 5), (2, 2, 4), (8, 8), (40,)], ids=str)
    def test_classes_are_unit_orbits(self, orders):
        # one class per cyclic subgroup: the generators u*t of <t>, by tuple
        # arithmetic
        spec = GroupSpec(orders)
        m = spec.exponent
        elems = list(itertools.product(*(range(k) for k in orders)))
        index = {e: i for i, e in enumerate(elems)}
        units = [u for u in range(m) if gcd(u, m) == 1]
        least = [min(index[tuple(u * c % k for c, k in zip(e, orders))] for u in units) for e in elems]
        reps, slot = galois_classes(spec)
        assert not reps.flags.writeable and not slot.flags.writeable
        assert reps.tolist() == sorted(set(least))
        assert reps[slot].tolist() == least
        cyclic = {subgroup_oracle(spec, [t]) for t in range(spec.order)}
        assert len(reps) == len(cyclic)

    def test_large_group_in_bounded_memory(self):
        # no |G| cap: elements and units go in blocks of _IMAGE_BLOCK entries
        spec = GroupSpec((4, 128, 128))
        spec.coords
        tracemalloc.start()
        try:
            reps, slot = galois_classes(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * spec.order * 8 + 8 * abelian._IMAGE_BLOCK * 8, peak
        units = np.flatnonzero(np.gcd(np.arange(128), 128) == 1)
        for t in random.Random(5).sample(range(spec.order), 20):
            assert reps[slot[t]] == spec.index_of(units[:, None] * spec.coords[t]).min()
        assert reps[0] == 0 and (np.diff(reps) > 0).all()


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "orders,count",
        [((2, 2), 6), ((4,), 2), ((2, 4), 8), ((3,), 2), ((8,), 4), ((2, 2, 2), 168)],
    )
    def test_group_sizes(self, orders, count):
        assert len(automorphism_group(GroupSpec(orders))) == count
        assert affine_reducer(GroupSpec(orders)).complete

    def test_z4_tables(self):
        tables = sorted(map(tuple, automorphism_group(Z4).tolist()))
        assert tables == [(0, 1, 2, 3), (0, 3, 2, 1)]

    def test_identity_always_included(self):
        for spec in SPEC_POOL[:10]:
            tables = automorphism_group(spec)
            assert (tables == np.arange(spec.order)).all(axis=1).any()

    def test_tables_are_homomorphisms(self):
        # exhaustive pair check on full groups of modest order, sampled rows
        # for the big ones
        rng = random.Random(23)
        for spec in SPEC_POOL:
            if spec.order > 64:
                continue
            tables = automorphism_group(spec)
            picks = range(len(tables)) if len(tables) <= 60 else rng.sample(
                range(len(tables)), 40
            )
            for i in picks:
                assert is_automorphism_table(spec, tables[i]), (spec.orders, i)

    def test_oracle_rejects_non_automorphisms(self):
        spec = Z2Z4
        identity = list(range(spec.order))
        assert is_automorphism_table(spec, identity)
        swapped = identity[:]
        swapped[1], swapped[2] = 2, 1  # a bijection fixing 0, not additive
        assert not is_automorphism_table(spec, swapped)
        assert not is_automorphism_table(spec, [1, 0, *identity[2:]])  # moves 0
        assert not is_automorphism_table(spec, [0, 0, *identity[2:]])  # not a bijection

    def test_every_table_is_additive_vectorized(self):
        # pi(x + g) == pi(x) + pi(g) for every returned table, every x and
        # every generator g, and pi(0) == 0, exhaustively, including the
        # order-64 groups with 10^5+ automorphisms.  That is additivity for
        # every pair: write y as a word in the generators and induct on its
        # length.  y = 0 holds by pi(0) == 0, and if pi(x + y) == pi(x) + pi(y)
        # for all x, then pi(x + y + g) == pi(x + y) + pi(g)
        # == pi(x) + pi(y) + pi(g) == pi(x) + pi(y + g).
        import numpy as np

        from fdual.abelian import _add_table

        for spec in SPEC_POOL:
            if spec.order > 64:
                continue
            add = _add_table(spec).astype(np.int64)
            tables = automorphism_group(spec).astype(np.int64)
            gens = list(spec.generator_indices())
            chunk = max(1, (1 << 24) // (spec.order * len(gens)))
            for lo in range(0, len(tables), chunk):
                block = tables[lo : lo + chunk]
                lhs = block[:, add[:, gens]]  # pi(x + g)
                rhs = add[block[:, :, None], block[:, None, gens]]  # pi(x) + pi(g)
                assert (lhs == rhs).all(), spec.orders
                assert (block[:, 0] == 0).all()

    @pytest.mark.parametrize("orders,count", [((8, 8), 1536), ((2, 2, 4, 4), 147456)])
    def test_order64_group_sizes(self, orders, count):
        # |GL_2(Z/8)| = 2^8 * |GL_2(F_2)| = 1536; the mixed group's order
        # comes out of the endomorphism-unit count for type (1,1,2,2)
        assert len(automorphism_group(GroupSpec(orders))) == count
        assert affine_reducer(GroupSpec(orders)).complete

    def test_order_limit(self):
        with pytest.raises(ValueError):
            automorphism_group(GroupSpec((2,) * 9))


def _presentations(max_order):
    """Every nondecreasing tuple of factor orders >= 2 with product <= max_order."""
    out = []

    def grow(prefix, size, low):
        if prefix:
            out.append(tuple(prefix))
        for f in range(low, max_order // size + 1):
            grow(prefix + [f], size * f, f)

    grow([], 1, 2)
    return out


UNCAPPED_UP_TO_48 = [o for o in _presentations(48) if aut_order(GroupSpec(o)) <= DEFAULT_AUT_CAP]
# factors of order 1 and unsorted factors, which the sweep above never makes
ODD_PRESENTATIONS = [(1, 4), (2, 1, 2), (4, 2), (8, 5)]


class TestAutEnumerator:
    """The slot-by-slot enumerator and the closed-form order against the
    depth-first search over generator images kept in tests/oracles.py."""

    def test_sweep_size(self):
        assert len(UNCAPPED_UP_TO_48) == 133
        assert set(_presentations(48)) - set(UNCAPPED_UP_TO_48) == {(2, 2, 2, 2, 2)}

    @pytest.mark.parametrize(
        "orders", UNCAPPED_UP_TO_48 + ODD_PRESENTATIONS + [(8, 8), (2, 2, 4, 4)], ids=str
    )
    def test_tables_match_dfs(self, orders):
        # byte-identical, rows in the same order
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        expected = aut_tables_oracle(orders)
        assert len(tables) == aut_order(spec) == len(expected)
        assert tables.dtype == expected.dtype and tables.shape == expected.shape
        assert tables.tobytes() == expected.tobytes()
        assert not tables.flags.writeable

    @pytest.mark.parametrize(
        "orders,count",
        [((2,) * 5, 9_999_360), ((2, 2, 2, 2), 20_160), ((2, 2, 2, 2, 4), 10_321_920),
         ((4, 4, 4), 86_016), ((7, 7), 2016), ((49,), 42), ((40,), 16), ((1, 1), 1)],
    )
    def test_closed_form_order(self, orders, count):
        # |GL_5(F_2)| = 9999360, |GL_4(F_2)| = 20160, |GL_3(Z/4)| = 2^9 * 168
        assert aut_order(GroupSpec(orders)) == count

    def test_cap_decided_by_closed_form(self):
        assert aut_order(GroupSpec((2,) * 5)) > DEFAULT_AUT_CAP >= aut_order(GroupSpec((2,) * 4))
        capped = automorphism_group(GroupSpec((2,) * 5))
        assert len(capped) == 1 and capped.dtype == np.uint8
        assert (capped == np.arange(32)).all()
        assert not affine_reducer(GroupSpec((2,) * 5)).complete
        assert affine_reducer(GroupSpec((2,) * 4)).complete

    def test_capped_group_enumerates_in_bounded_blocks(self):
        # all of Aut(Z2^4 x Z4), 40x the cap, streamed as table blocks: the
        # count matches the closed form, no block exceeds 2^20 / |G| rows and
        # the generator images come in strictly increasing lexicographic order
        spec = GroupSpec((2, 2, 2, 2, 4))
        gens = list(spec.generator_indices())
        total, last = 0, None
        for tables in _aut_tables(spec):
            assert tables.dtype == np.uint8 and tables.shape[1] == spec.order
            assert 0 < len(tables) <= (1 << 20) // spec.order
            images = tables[:, gens].astype(np.int64)
            if last is not None:
                images = np.vstack((last, images))
            step = np.diff(images, axis=0)
            first = (step != 0).argmax(axis=1)
            assert (step[np.arange(len(step)), first] > 0).all()
            last = images[-1:]
            total += len(tables)
        assert total == aut_order(spec) > DEFAULT_AUT_CAP


class TestPairingFromAutomorphism:
    def test_order64_pairing_arises_from_swap(self, order64_spec, order64_pairing):
        # swapping the two order-4 coordinates turns the standard pairing
        # into the pairing used by the order-64 instance
        base = standard_pairing(order64_spec)
        swap_images = [
            order64_spec.index_of((1, 0, 0, 0)),
            order64_spec.index_of((0, 1, 0, 0)),
            order64_spec.index_of((0, 0, 0, 1)),
            order64_spec.index_of((0, 0, 1, 0)),
        ]
        # x -> sum_slot x_slot * image_slot, one coordinate row per element
        images = order64_spec.coords[swap_images]
        table = order64_spec.index_of(order64_spec.coords @ images)
        assert is_automorphism_table(order64_spec, table)
        assert pairing_from_automorphism(base, table).entries == order64_pairing.entries

    def test_composed_pairings_nondegenerate(self):
        rng = random.Random(29)
        for spec in SPEC_POOL[:10]:
            base = standard_pairing(spec)
            tables = automorphism_group(spec)
            for _ in range(5):
                alpha = tables[rng.randrange(len(tables))]
                assert pairing_from_automorphism(base, alpha).is_nondegenerate


class TestCanonicalForm:
    def test_examples(self):
        assert affine_canonical_form(Z4, ElementSet.from_indices([2, 3])).indices == (0, 1)
        assert affine_canonical_form(Z4, ElementSet.from_indices([0, 2])).indices == (0, 2)

    def test_idempotent(self):
        rng = random.Random(31)
        for spec in SPEC_POOL[:12]:
            for _ in range(20):
                size = rng.randint(1, min(6, spec.order))
                s = ElementSet.from_indices(rng.sample(range(spec.order), size))
                c1 = affine_canonical_form(spec, s)
                assert affine_canonical_form(spec, c1) == c1

    def test_constant_on_orbits(self):
        rng = random.Random(37)
        for spec in SPEC_POOL[:12]:
            tables = automorphism_group(spec)
            for _ in range(15):
                size = rng.randint(1, min(5, spec.order))
                s = ElementSet.from_indices(rng.sample(range(spec.order), size))
                canon = affine_canonical_form(spec, s)
                alpha = tables[rng.randrange(len(tables))]
                image = map_set(alpha, s)
                v = rng.choice(image.indices)
                moved = translate(spec, image, oracle_neg(spec, v))
                assert 0 in moved
                assert affine_canonical_form(spec, moved) == canon

    def test_is_canonical_matches_fixpoint(self):
        rng = random.Random(41)
        for spec in SPEC_POOL[:12]:
            reducer = AffineReducer(spec, automorphism_group(spec))
            for _ in range(40):
                size = rng.randint(1, min(6, spec.order))
                rest = sorted(rng.sample(range(1, spec.order), size - 1)) if size > 1 else []
                node = (0, *rest)
                assert reducer.is_canonical(node) == (reducer.canonical_form(node) == node)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            affine_canonical_form(Z4, ElementSet())


@lru_cache(maxsize=None)
def _small_forms(orders):
    """Scanned canonical forms of every 0-containing node of size <= 6."""
    spec = GroupSpec(orders)
    assert affine_reducer(spec).complete
    return {
        size: scan_forms_by_orbit(orders, automorphism_group(spec), size)
        for size in range(1, min(6, spec.order) + 1)
    }


class TestStabilizerChain:
    """The chain walk against the scan over every automorphism and translate."""

    @pytest.mark.parametrize("orders", abelian_group_orders(16))
    def test_every_small_node_matches_scan(self, orders):
        spec = GroupSpec(orders)
        reducer = AffineReducer(spec, automorphism_group(spec))
        for form in _small_forms(orders).values():
            for node, canon in form.items():
                assert reducer.canonical_form(node) == canon, (orders, node)
                assert reducer.is_canonical(node) == (node == canon), (orders, node)

    @pytest.mark.parametrize("orders", abelian_group_orders(16))
    def test_children_of_every_small_node_match_scan(self, orders):
        # every one-element extension of every 0-containing node of size <= 5
        spec = GroupSpec(orders)
        reducer = AffineReducer(spec, automorphism_group(spec))
        forms = _small_forms(orders)
        for size in range(1, min(5, spec.order - 1) + 1):
            for node in forms[size]:
                cands = range(node[-1] + 1, spec.order)
                expected = [forms[size + 1][(*node, y)] == (*node, y) for y in cands]
                got = reducer.canonical_extensions(node, cands)
                assert got.dtype == bool and got.tolist() == expected, (orders, node)

    @pytest.mark.parametrize(
        "orders,parents,children",
        [((2, 2, 4, 4), 2, 4), ((8, 8), 6, None), ((40,), 8, None), ((7, 7), 6, None)],
    )
    def test_children_of_random_size7_parents_match_scan(self, orders, parents, children):
        # half the parents are canonical forms, half random nodes (which are
        # rarely canonical); children=None takes every y above the parent
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        reducer = AffineReducer(spec, tables)
        rng = random.Random(sum(orders) + 7)
        parent_kinds, child_kinds = set(), set()
        for i in range(parents):
            node = (0, *sorted(rng.sample(range(1, spec.order - 4), 6)))
            if i % 2 == 0:
                node = reducer.canonical_form(node)
            cands = list(range(node[-1] + 1, spec.order))
            if children is not None:
                cands = sorted(rng.sample(cands, min(children, len(cands))))
            expected = [scan_is_canonical(orders, tables, (*node, y)) for y in cands]
            assert reducer.canonical_extensions(node, cands).tolist() == expected, (orders, node)
            parent_kinds.add(scan_is_canonical(orders, tables, node))
            child_kinds.update(expected)
        assert parent_kinds == child_kinds == {True, False}

    def test_children_edge_cases(self):
        reducer = affine_reducer(Z2Z4)
        assert reducer.canonical_extensions([], [0, 1, 5]).tolist() == [True, False, False]
        assert reducer.canonical_extensions([0, 1], []).tolist() == []
        assert reducer.canonical_extensions([1, 2], [3, 4]).tolist() == [False, False]

    @pytest.mark.parametrize("orders,count", [((2, 2, 4, 4), 3), ((8, 8), 12), ((7, 7), 12)])
    def test_random_size8_nodes_match_scan(self, orders, count):
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        reducer = AffineReducer(spec, tables)
        rng = random.Random(sum(orders))
        for _ in range(count):
            node = (0, *sorted(rng.sample(range(1, spec.order), 7)))
            canon = scan_canonical_form(orders, tables, node)
            assert reducer.canonical_form(node) == canon
            for probe in (node, canon):
                assert reducer.is_canonical(probe) == scan_is_canonical(orders, tables, probe)

    @pytest.mark.parametrize("orders,block", [((2, 2, 4, 4), None), ((8, 8), None), ((8, 8), 3 * 64)])
    def test_levels_match_argmin_reference(self, orders, block, monkeypatch):
        # the root and the cached levels along random prefixes, half of them
        # of canonical forms: auts are the rows fixing the prefix, om their
        # minimum and rho the first row attaining it, as argmin gives it.
        # Levels of more than 2^17 entries (Z2^2 x Z4^2's largest) are
        # scanned by row blocks; block = 3 rows scans every Z8^2 level of
        # more than 3 rows, over many row blocks
        if block is not None:
            monkeypatch.setattr(abelian, "_IMAGE_BLOCK", block)
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        reducer = AffineReducer(spec, tables)
        n = spec.order
        rng = random.Random(n + len(orders))
        prefixes = {()}
        for i in range(8):
            node = (0, *sorted(rng.sample(range(1, n), 6)))
            if i % 2 == 0:
                node = reducer.canonical_form(node)
            prefixes.update(node[1:d] for d in range(2, len(node)))
        kinds = set()
        for prefix in sorted(prefixes, key=len):
            level = reducer._level(prefix)
            fixing = np.flatnonzero((tables[:, list(prefix)] == np.array(prefix, dtype=int)).all(axis=1))
            assert level.auts.tolist() == fixing.tolist(), prefix
            kinds.add(len(fixing) > 1)
            if len(fixing) == 1:
                assert level.om is None and level.rho is None
                continue
            rows = tables[fixing]
            om = rows.min(axis=0).astype(np.int64)
            om[[0, *prefix]] = n
            assert level.om.dtype == np.int16 and level.om.tolist() == om.tolist(), prefix
            assert level.rho.tolist() == (fixing[rows.argmin(axis=0)] * n).tolist(), prefix
        assert kinds == {True, False}

    @pytest.mark.parametrize("orders,samples", [((2, 128), 30), ((4, 4, 16), 2)])
    def test_order256_walks_match_scan(self, orders, samples):
        # |G| = 256, so the om sentinel n does not fit the uint8 tables and
        # a set is a bitset of 4 words: canonical_form, and sampled canonical
        # and non-canonical children, width-2 extensions and 20,000 random
        # width-3 extensions of a canonical node, against the scan
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        reducer = affine_reducer(spec)
        assert spec.order == 256 and reducer.complete
        rng = random.Random(len(tables))
        node = (0, *sorted(rng.sample(range(1, 192), 3)))
        canon = reducer.canonical_form(node)
        assert canon == scan_canonical_form(orders, tables, node)
        first = canon[-1] + 1
        triples = {tuple(sorted(rng.sample(range(first, spec.order), 3))) for _ in range(20000)}
        walks = [_tails(first, spec.order, 1), _tails(first, spec.order, 2),
                 np.array(sorted(triples))]
        for ext in walks:
            got = reducer.canonical_extensions(canon, ext).tolist()
            for kind in (True, False):
                where = [i for i, v in enumerate(got) if v == kind]
                assert where, (orders, kind)
                for i in rng.sample(where, min(samples, len(where))):
                    probe = (*canon, *ext[i].tolist())
                    assert scan_is_canonical(orders, tables, probe) == kind, probe

    def test_capped_list_reduces_under_translations_only(self):
        spec = GroupSpec((2, 4))
        translations = np.arange(spec.order, dtype=np.int16)[None, :]
        reducer = AffineReducer(spec, translations)
        assert not reducer.complete
        rng = random.Random(43)
        for size in range(1, 6):
            for _ in range(10):
                s = rng.sample(range(spec.order), size)
                canon = reducer.canonical_form(s)
                assert canon == scan_canonical_form(spec.orders, translations, s)
                assert reducer.canonical_form(canon) == canon
                assert reducer.is_canonical(canon)
                if canon[-1] < spec.order - 1:
                    cands = range(canon[-1] + 1, spec.order)
                    assert reducer.canonical_extensions(canon, cands).tolist() == [
                        scan_is_canonical(spec.orders, translations, (*canon, y)) for y in cands
                    ]
        # (1, 0) and (1, 2) are one Aut-orbit, so {0, 4} and {0, 6} are one
        # affine orbit but two translation orbits
        assert reducer.canonical_form([0, 6]) == (0, 6)
        assert affine_reducer(spec).canonical_form([0, 6]) == (0, 4)

    def test_table_of_the_wrong_shape_refused(self):
        # the table must be 2-D with one column per element of Z2 x Z4
        for shape in [(2, 4), (2, 16), (8,), (1, 2, 8)]:
            with pytest.raises(ValueError, match=r"automorphism table must be \(A, 8\)"):
                AffineReducer(Z2Z4, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match=r"automorphism table must be \(A, 4\)"):
            AffineReducer(Z4, automorphism_group(Z2Z4))

    def test_reducer_built_once_per_group(self):
        assert affine_reducer(Z2Z4) is affine_reducer(Z2Z4)
        assert affine_reducer(Z2Z4).tables is automorphism_group(Z2Z4)


def _tails(first, stop, width=2):
    """Every increasing tail of ``width`` elements in range(first, stop)."""
    return np.array(list(itertools.combinations(range(first, stop), width)),
                    dtype=np.intp).reshape(-1, width)


def _walks_per_x(reducer, node, tails):
    """canonical_extensions(node + [x], tails[:, 1:]) over the tails starting
    with x, for every x, in the order of ``tails``."""
    out = np.zeros(len(tails), dtype=bool)
    for x in np.unique(tails[:, 0]).tolist():
        mine = tails[:, 0] == x
        out[mine] = reducer.canonical_extensions([*node, x], tails[mine, 1:])
    return out.tolist()


class TestExtensionWalk:
    """The width-2 walk over grandchildren node + (x, a) and the width-3
    walk over great-grandchildren node + (x, a, b) against one walk one
    width narrower per x, and against the scans."""

    @pytest.mark.parametrize("orders", abelian_group_orders(16))
    def test_grandchildren_of_every_small_node(self, orders):
        # every 0-containing node of size <= 4, every (x, a) above it
        self._check_every_small_node(orders, 2, 4)

    @pytest.mark.parametrize("orders", abelian_group_orders(16))
    def test_great_grandchildren_of_every_small_node(self, orders):
        # every 0-containing node of size <= 3, every (x, a, b) above it
        self._check_every_small_node(orders, 3, 3)

    @staticmethod
    def _check_every_small_node(orders, width, largest):
        spec = GroupSpec(orders)
        reducer = AffineReducer(spec, automorphism_group(spec))
        forms = _small_forms(orders)
        n = spec.order
        for size in range(1, min(largest, n - width) + 1):
            for node in forms[size]:
                tails = _tails(node[-1] + 1, n, width)
                got = reducer.canonical_extensions(node, tails)
                assert got.dtype == bool
                assert got.tolist() == _walks_per_x(reducer, node, tails), (orders, node)
                assert got.tolist() == [
                    forms[size + width][(*node, *t)] == (*node, *t) for t in tails.tolist()
                ], (orders, node)

    @pytest.mark.parametrize("orders,count", [((8, 8), 6), ((2, 2, 4, 4), 4), ((40,), 8), ((32,), 8)])
    def test_grandchildren_of_sampled_nodes(self, orders, count):
        self._check_sampled_nodes(orders, count, 2)

    @pytest.mark.parametrize("orders,count", [((8, 8), 6), ((2, 2, 4, 4), 4), ((40,), 8), ((32,), 8)])
    def test_great_grandchildren_of_sampled_nodes(self, orders, count):
        self._check_sampled_nodes(orders, count, 3)

    @staticmethod
    def _check_sampled_nodes(orders, count, width):
        # small nodes (whose per-x levels mix identity and larger
        # stabilizers) and random nodes of size 4-6, half of them canonical
        spec = GroupSpec(orders)
        reducer = affine_reducer(spec)
        rng = random.Random(sum(orders) + 11)
        n = spec.order
        nodes = [(0,), (0, n // 8), (0, 1, n // 2)]
        for i in range(count):
            node = (0, *sorted(rng.sample(range(1, n - 12), rng.randint(3, 5))))
            nodes.append(reducer.canonical_form(node) if i % 2 == 0 else node)
        kinds = set()
        for node in nodes:
            tails = _tails(node[-1] + 1, n, width)
            got = reducer.canonical_extensions(node, tails).tolist()
            assert got == _walks_per_x(reducer, node, tails), (orders, node)
            for j in rng.sample(range(len(tails)), min(12, len(tails))):
                assert got[j] == chain_is_canonical(reducer, (*node, *tails[j].tolist()))
            kinds.update(got)
        assert kinds == {True, False}

    def test_capped_group_walks_the_identity_chain(self):
        spec = GroupSpec((2, 8))
        translations = np.arange(spec.order, dtype=np.int16)[None, :]
        reducer = AffineReducer(spec, translations)
        for size in range(1, 5):
            for rest in itertools.combinations(range(1, spec.order - 2), size - 1):
                node = (0, *rest)
                tails = _tails(node[-1] + 1, spec.order)
                assert reducer.canonical_extensions(node, tails).tolist() == [
                    scan_is_canonical(spec.orders, translations, (*node, x, a))
                    for x, a in tails.tolist()
                ], node

    def test_blocks_of_extensions_agree_with_one_walk(self, monkeypatch):
        # width-2 and width-3 tails in blocks of 2 and 1 extensions
        reducer = affine_reducer(GroupSpec((40,)))
        walks = [(tails, reducer.canonical_extensions([0, 1, 5], tails))
                 for tails in (_tails(6, 40, 2), _tails(6, 40, 3))]
        monkeypatch.setattr(abelian, "_WALK_ENTRIES", 7 * 25)
        for tails, whole in walks:
            assert reducer.canonical_extensions([0, 1, 5], tails).tolist() == whole.tolist()
            assert whole.any() and not whole.all()

    def test_edge_cases(self):
        reducer = affine_reducer(Z2Z4)
        tails = [[0, 1], [0, 5], [1, 2], [2, 6]]
        assert reducer.canonical_extensions([], tails).tolist() == [
            reducer.is_canonical(t) if t[0] == 0 else False for t in tails
        ]
        assert reducer.canonical_extensions([1, 2], [[3, 4], [3, 5]]).tolist() == [False, False]
        assert reducer.canonical_extensions([2], [[3, 4]]).tolist() == [False]
        assert reducer.canonical_extensions([0, 1], np.empty((0, 2), dtype=int)).tolist() == []
        assert reducer.canonical_extensions([0], [[1], [2]]).tolist() == (
            reducer.canonical_extensions([0], [1, 2]).tolist()
        )
