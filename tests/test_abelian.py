from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from fdual import abelian
from fdual.abelian import (
    DEFAULT_AUT_CAP,
    AffineReducer,
    Automorphism,
    ElementSet,
    GroupSpec,
    PairingMatrix,
    _aut_images,
    affine_canonical_form,
    aut_order,
    automorphism_group,
    negate_set,
    pairing_from_automorphism,
    stabilizer,
    standard_pairing,
    subgroup_generated,
    translate,
)

from oracles import (
    abelian_group_orders,
    aut_tables_oracle,
    chain_is_canonical,
    oracle_add,
    oracle_neg,
    scan_canonical_form,
    scan_forms_by_orbit,
    scan_is_canonical,
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

    def test_translate_and_negate(self):
        s = ElementSet.from_indices([0, 1])
        assert translate(Z4, s, 2).indices == (2, 3)
        assert negate_set(Z4, s).indices == (0, 3)


class TestSubgroups:
    def test_generated_examples(self):
        assert subgroup_generated(Z4, [1]).indices == (0, 1, 2, 3)
        assert subgroup_generated(Z4, [2]).indices == (0, 2)
        z22 = GroupSpec((2, 2))
        gens = [z22.index_of((1, 0)), z22.index_of((0, 1))]
        assert len(subgroup_generated(z22, gens)) == 4

    def test_generated_closed_under_add_and_neg(self):
        rng = random.Random(11)
        for spec in SPEC_POOL[:12]:
            gens = rng.sample(range(spec.order), min(2, spec.order))
            h = subgroup_generated(spec, gens)
            for a in h:
                assert oracle_neg(spec, a) in h
                for b in h:
                    assert oracle_add(spec, a, b) in h

    def test_stabilizer_examples(self):
        assert stabilizer(Z4, ElementSet.from_indices([0, 2])).indices == (0, 2)
        assert stabilizer(Z4, ElementSet.from_indices([0, 1])).indices == (0,)
        whole = ElementSet.from_indices(range(4))
        assert stabilizer(Z4, whole) == whole

    def test_stabilizer_is_subgroup(self):
        rng = random.Random(13)
        for spec in SPEC_POOL[:12]:
            size = rng.randint(1, spec.order)
            s = ElementSet.from_indices(rng.sample(range(spec.order), size))
            st = stabilizer(spec, s)
            assert 0 in st
            for a in st:
                for b in st:
                    assert oracle_add(spec, a, b) in st

    def test_stabilizer_empty_rejected(self):
        with pytest.raises(ValueError):
            stabilizer(Z4, ElementSet())


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


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "orders,count",
        [((2, 2), 6), ((4,), 2), ((2, 4), 8), ((3,), 2), ((8,), 4), ((2, 2, 2), 168)],
    )
    def test_group_sizes(self, orders, count):
        group = automorphism_group(GroupSpec(orders))
        assert len(group) == count
        assert group.complete

    def test_z4_tables(self):
        tables = sorted(a.table for a in automorphism_group(Z4))
        assert tables == [(0, 1, 2, 3), (0, 3, 2, 1)]

    def test_identity_always_included(self):
        for spec in SPEC_POOL[:10]:
            group = automorphism_group(spec)
            assert any(a.is_identity() for a in group)

    def test_tables_are_homomorphisms(self):
        # exhaustive pair check on full groups of modest order, sampled rows
        # for the big ones
        rng = random.Random(23)
        for spec in SPEC_POOL:
            if spec.order > 64:
                continue
            group = automorphism_group(spec)
            picks = range(len(group)) if len(group) <= 60 else rng.sample(
                range(len(group)), 40
            )
            for i in picks:
                group[i].validate(spec)

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
            group = automorphism_group(spec)
            add = _add_table(spec).astype(np.int64)
            tables = group.tables.astype(np.int64)
            gens = list(spec.generator_indices())
            chunk = max(1, (1 << 24) // (spec.order * len(gens)))
            for lo in range(0, len(group), chunk):
                block = tables[lo : lo + chunk]
                lhs = block[:, add[:, gens]]  # pi(x + g)
                rhs = add[block[:, :, None], block[:, None, gens]]  # pi(x) + pi(g)
                assert (lhs == rhs).all(), spec.orders
                assert (block[:, 0] == 0).all()

    @pytest.mark.parametrize("orders,count", [((8, 8), 1536), ((2, 2, 4, 4), 147456)])
    def test_order64_group_sizes(self, orders, count):
        # |GL_2(Z/8)| = 2^8 * |GL_2(F_2)| = 1536; the mixed group's order
        # comes out of the endomorphism-unit count for type (1,1,2,2)
        group = automorphism_group(GroupSpec(orders))
        assert len(group) == count
        assert group.complete

    def test_cap_truncates_and_flags(self):
        group = automorphism_group(GroupSpec((2, 2)), cap=2)
        assert len(group) <= 2
        assert not group.complete
        assert any(a.is_identity() for a in group)

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            automorphism_group(Z4, cap=0)

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
        group = automorphism_group(spec)
        expected = aut_tables_oracle(orders)
        assert group.complete
        assert len(group) == aut_order(spec) == len(expected)
        assert group.tables.dtype == expected.dtype and group.tables.shape == expected.shape
        assert group.tables.tobytes() == expected.tobytes()

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
        assert not capped.complete and len(capped) == 1 and capped[0].is_identity()
        assert automorphism_group(GroupSpec((2,) * 4)).complete
        assert len(automorphism_group(Z2Z4, cap=8)) == 8
        capped = automorphism_group(Z2Z4, cap=7)
        assert not capped.complete and len(capped) == 1

    def test_capped_group_enumerates_in_bounded_blocks(self):
        # all of Aut(Z2^4 x Z4), 40x the cap, streamed in blocks: the count
        # matches the closed form and no block exceeds 2^20 / |G| rows
        spec = GroupSpec((2, 2, 2, 2, 4))
        total, last = 0, None
        for images in _aut_images(spec):
            assert 0 < len(images) <= (1 << 20) // spec.order
            first = tuple(images[0].tolist())
            assert last is None or last < first, "blocks come in lexicographic order"
            last = tuple(images[-1].tolist())
            total += len(images)
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
        alpha = Automorphism(tuple(table.tolist()))
        alpha.validate(order64_spec)
        assert pairing_from_automorphism(base, alpha).entries == order64_pairing.entries

    def test_composed_pairings_nondegenerate(self):
        rng = random.Random(29)
        for spec in SPEC_POOL[:10]:
            base = standard_pairing(spec)
            group = automorphism_group(spec)
            for _ in range(5):
                alpha = group[rng.randrange(len(group))]
                assert pairing_from_automorphism(base, alpha).is_nondegenerate


class TestCanonicalForm:
    def test_examples(self):
        auts = automorphism_group(Z4)
        assert affine_canonical_form(Z4, ElementSet.from_indices([2, 3]), auts).indices == (0, 1)
        assert affine_canonical_form(Z4, ElementSet.from_indices([0, 2]), auts).indices == (0, 2)

    def test_idempotent(self):
        rng = random.Random(31)
        for spec in SPEC_POOL[:12]:
            auts = automorphism_group(spec)
            for _ in range(20):
                size = rng.randint(1, min(6, spec.order))
                s = ElementSet.from_indices(rng.sample(range(spec.order), size))
                c1 = affine_canonical_form(spec, s, auts)
                assert affine_canonical_form(spec, c1, auts) == c1

    def test_constant_on_orbits(self):
        rng = random.Random(37)
        for spec in SPEC_POOL[:12]:
            auts = automorphism_group(spec)
            for _ in range(15):
                size = rng.randint(1, min(5, spec.order))
                s = ElementSet.from_indices(rng.sample(range(spec.order), size))
                canon = affine_canonical_form(spec, s, auts)
                alpha = auts[rng.randrange(len(auts))]
                image = alpha.map_set(s)
                v = rng.choice(image.indices)
                moved = translate(spec, image, oracle_neg(spec, v))
                assert 0 in moved
                assert affine_canonical_form(spec, moved, auts) == canon

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
            affine_canonical_form(Z4, ElementSet(), automorphism_group(Z4))


@lru_cache(maxsize=None)
def _small_forms(orders):
    """Scanned canonical forms of every 0-containing node of size <= 6."""
    auts = automorphism_group(GroupSpec(orders))
    assert auts.complete
    return {
        size: scan_forms_by_orbit(orders, auts.tables, size)
        for size in range(1, min(6, auts.spec.order) + 1)
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
                got = reducer.canonical_children(node, cands)
                assert got.dtype == bool and got.tolist() == expected, (orders, node)

    @pytest.mark.parametrize(
        "orders,parents,children",
        [((2, 2, 4, 4), 2, 4), ((8, 8), 6, None), ((40,), 8, None), ((7, 7), 6, None)],
    )
    def test_children_of_random_size7_parents_match_scan(self, orders, parents, children):
        # half the parents are canonical forms, half random nodes (which are
        # rarely canonical); children=None takes every y above the parent
        spec = GroupSpec(orders)
        auts = automorphism_group(spec)
        reducer = AffineReducer(spec, auts)
        rng = random.Random(sum(orders) + 7)
        parent_kinds, child_kinds = set(), set()
        for i in range(parents):
            node = (0, *sorted(rng.sample(range(1, spec.order - 4), 6)))
            if i % 2 == 0:
                node = reducer.canonical_form(node)
            cands = list(range(node[-1] + 1, spec.order))
            if children is not None:
                cands = sorted(rng.sample(cands, min(children, len(cands))))
            expected = [scan_is_canonical(orders, auts.tables, (*node, y)) for y in cands]
            assert reducer.canonical_children(node, cands).tolist() == expected, (orders, node)
            parent_kinds.add(scan_is_canonical(orders, auts.tables, node))
            child_kinds.update(expected)
        assert parent_kinds == child_kinds == {True, False}

    def test_children_edge_cases(self):
        reducer = automorphism_group(Z2Z4).reducer
        assert reducer.canonical_children([], [0, 1, 5]).tolist() == [True, False, False]
        assert reducer.canonical_children([0, 1], []).tolist() == []
        assert reducer.canonical_children([1, 2], [3, 4]).tolist() == [False, False]

    @pytest.mark.parametrize("orders,count", [((2, 2, 4, 4), 3), ((8, 8), 12), ((7, 7), 12)])
    def test_random_size8_nodes_match_scan(self, orders, count):
        spec = GroupSpec(orders)
        auts = automorphism_group(spec)
        reducer = AffineReducer(spec, auts)
        rng = random.Random(sum(orders))
        for _ in range(count):
            node = (0, *sorted(rng.sample(range(1, spec.order), 7)))
            canon = scan_canonical_form(orders, auts.tables, node)
            assert reducer.canonical_form(node) == canon
            for probe in (node, canon):
                assert reducer.is_canonical(probe) == scan_is_canonical(orders, auts.tables, probe)

    def test_capped_list_reduces_under_translations_only(self):
        spec = GroupSpec((2, 4))
        capped = automorphism_group(spec, cap=2)
        assert not capped.complete
        reducer = AffineReducer(spec, capped)
        translations = np.arange(spec.order, dtype=np.int16)[None, :]
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
                    assert reducer.canonical_children(canon, cands).tolist() == [
                        scan_is_canonical(spec.orders, translations, (*canon, y)) for y in cands
                    ]
        # (1, 0) and (1, 2) are one Aut-orbit, so {0, 4} and {0, 6} are one
        # affine orbit but two translation orbits
        assert reducer.canonical_form([0, 6]) == (0, 6)
        assert automorphism_group(spec).reducer.canonical_form([0, 6]) == (0, 4)

    def test_reducer_needs_its_own_group(self):
        with pytest.raises(ValueError):
            AffineReducer(Z4, automorphism_group(Z2Z4))

    def test_reducer_built_once_per_group(self):
        auts = automorphism_group(Z2Z4)
        assert auts.reducer is auts.reducer


def _grandchild_tails(first, stop):
    return np.array([(x, a) for x in range(first, stop) for a in range(x + 1, stop)],
                    dtype=np.intp).reshape(-1, 2)


def _children_per_x(reducer, node, first, stop):
    """canonical_children(node + [x], range(x + 1, stop)) for every x, joined."""
    out = []
    for x in range(first, stop):
        out += reducer.canonical_children([*node, x], range(x + 1, stop)).tolist()
    return out


class TestExtensionWalk:
    """The width-2 walk over grandchildren node + (x, a) against one
    children walk per x, and against the scans."""

    @pytest.mark.parametrize("orders", abelian_group_orders(16))
    def test_grandchildren_of_every_small_node(self, orders):
        # every 0-containing node of size <= 4, every (x, a) above it
        spec = GroupSpec(orders)
        reducer = AffineReducer(spec, automorphism_group(spec))
        forms = _small_forms(orders)
        n = spec.order
        for size in range(1, min(4, n - 2) + 1):
            for node in forms[size]:
                tails = _grandchild_tails(node[-1] + 1, n)
                got = reducer.canonical_extensions(node, tails)
                assert got.dtype == bool
                assert got.tolist() == _children_per_x(reducer, node, node[-1] + 1, n), (orders, node)
                assert got.tolist() == [
                    forms[size + 2][(*node, x, a)] == (*node, x, a) for x, a in tails.tolist()
                ], (orders, node)

    @pytest.mark.parametrize("orders,count", [((8, 8), 6), ((2, 2, 4, 4), 4), ((40,), 8), ((32,), 8)])
    def test_grandchildren_of_sampled_nodes(self, orders, count):
        # small nodes (whose per-x last levels mix identity and larger
        # stabilizers) and random nodes of size 4-6, half of them canonical
        spec = GroupSpec(orders)
        reducer = automorphism_group(spec).reducer
        rng = random.Random(sum(orders) + 11)
        n = spec.order
        nodes = [(0,), (0, n // 8), (0, 1, n // 2)]
        for i in range(count):
            node = (0, *sorted(rng.sample(range(1, n - 12), rng.randint(3, 5))))
            nodes.append(reducer.canonical_form(node) if i % 2 == 0 else node)
        kinds = set()
        for node in nodes:
            stop = n
            tails = _grandchild_tails(node[-1] + 1, stop)
            got = reducer.canonical_extensions(node, tails).tolist()
            assert got == _children_per_x(reducer, node, node[-1] + 1, stop), (orders, node)
            for j in rng.sample(range(len(tails)), min(12, len(tails))):
                assert got[j] == chain_is_canonical(reducer, (*node, *tails[j].tolist()))
            kinds.update(got)
        assert kinds == {True, False}

    def test_capped_group_walks_the_identity_chain(self):
        spec = GroupSpec((2, 8))
        capped = automorphism_group(spec, cap=2)
        assert not capped.complete
        reducer = AffineReducer(spec, capped)
        translations = np.arange(spec.order, dtype=np.int16)[None, :]
        for size in range(1, 5):
            for rest in itertools.combinations(range(1, spec.order - 2), size - 1):
                node = (0, *rest)
                tails = _grandchild_tails(node[-1] + 1, spec.order)
                assert reducer.canonical_extensions(node, tails).tolist() == [
                    scan_is_canonical(spec.orders, translations, (*node, x, a))
                    for x, a in tails.tolist()
                ], node

    def test_blocks_of_extensions_agree_with_one_walk(self, monkeypatch):
        reducer = automorphism_group(GroupSpec((40,))).reducer
        tails = _grandchild_tails(6, 40)
        whole = reducer.canonical_extensions([0, 1, 5], tails)
        monkeypatch.setattr(abelian, "_WALK_ENTRIES", 7 * 25)
        assert reducer.canonical_extensions([0, 1, 5], tails).tolist() == whole.tolist()
        assert whole.any() and not whole.all()

    def test_edge_cases(self):
        reducer = automorphism_group(Z2Z4).reducer
        tails = [[0, 1], [0, 5], [1, 2], [2, 6]]
        assert reducer.canonical_extensions([], tails).tolist() == [
            reducer.is_canonical(t) if t[0] == 0 else False for t in tails
        ]
        assert reducer.canonical_extensions([1, 2], [[3, 4], [3, 5]]).tolist() == [False, False]
        assert reducer.canonical_extensions([2], [[3, 4]]).tolist() == [False]
        assert reducer.canonical_extensions([0, 1], np.empty((0, 2), dtype=int)).tolist() == []
        assert reducer.canonical_extensions([0], [[1], [2]]).tolist() == (
            reducer.canonical_children([0], [1, 2]).tolist()
        )
