from __future__ import annotations

import random

import pytest

import numpy as np

from fdual.abelian import (
    ElementSet,
    GroupSpec,
    automorphism_group,
    pairing_from_automorphism,
    standard_pairing,
)
from fdual.duality import weight_enumerator
from fdual.primitivity import _primitive_from_nu, is_primitive

from oracles import (
    abelian_group_orders,
    every_subset_lattice_tables,
    in_proper_coset_oracle,
    map_set,
    oracle_add,
    oracle_neg,
    stabilizer_oracle,
    subgroup_oracle,
    translate,
    union_of_cosets_oracle,
)

Z4 = GroupSpec((4,))


def assert_witnesses_match_oracles(spec, s, report):
    """The coset witness is <S - s0> when that is proper, the stabilizer
    witness {h : h + S = S} when that is nontrivial, and None otherwise."""
    s0 = s.indices[0]
    diffs = subgroup_oracle(spec, [oracle_add(spec, x, oracle_neg(spec, s0)) for x in s])
    stab = stabilizer_oracle(spec, s)
    assert report.coset_witness == (
        ElementSet.from_indices(diffs) if len(diffs) < spec.order else None), (spec, s)
    assert report.stabilizer_witness == (
        ElementSet.from_indices(stab) if len(stab) > 1 else None), (spec, s)
    assert report.in_proper_coset == (report.coset_witness is not None)
    assert report.union_of_cosets == (report.stabilizer_witness is not None)
    assert report.primitive == (not report.in_proper_coset and not report.union_of_cosets)


class TestExamples:
    def test_z4_subgroup_set(self):
        report = is_primitive(Z4, ElementSet.from_indices([0, 2]))
        assert report.in_proper_coset and report.coset_witness.indices == (0, 2)
        assert report.union_of_cosets and report.stabilizer_witness.indices == (0, 2)
        assert not report.primitive

    def test_z4_tito_is_primitive(self):
        report = is_primitive(Z4, ElementSet.from_indices([0, 1]))
        assert not report.in_proper_coset and not report.union_of_cosets
        assert report.primitive

    def test_whole_group_is_union_of_cosets(self):
        report = is_primitive(Z4, ElementSet.from_indices(range(4)))
        assert report.union_of_cosets and len(report.stabilizer_witness) == 4
        assert not report.in_proper_coset

    def test_singletons_never_primitive_beyond_trivial_group(self):
        for spec in [Z4, GroupSpec((2, 2)), GroupSpec((6,))]:
            for v in range(spec.order):
                report = is_primitive(spec, ElementSet.from_indices([v]))
                assert report.in_proper_coset
                assert not report.primitive

    def test_order64_set_is_primitive_with_no_witnesses(self, order64_spec, order64_set):
        report = is_primitive(order64_spec, order64_set)
        assert report.primitive
        assert not report.in_proper_coset and not report.union_of_cosets
        assert report.coset_witness is None and report.stabilizer_witness is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(Z4, ElementSet())


class TestInvariances:
    def test_base_point_choice_is_irrelevant(self):
        # the difference subgroup must not depend on which member anchors it
        rng = random.Random(307)
        for _ in range(80):
            spec = GroupSpec(rng.choice([(8,), (2, 4), (12,), (2, 2, 4)]))
            size = rng.randint(1, spec.order)
            s = ElementSet.from_indices(rng.sample(range(spec.order), size))
            verdicts = set()
            for s0 in s:
                h = subgroup_oracle(spec, [oracle_add(spec, x, oracle_neg(spec, s0)) for x in s])
                verdicts.add((len(h) < spec.order, tuple(sorted(h))))
            assert len(verdicts) == 1
            assert next(iter(verdicts))[0] == is_primitive(spec, s).in_proper_coset

    def test_affine_invariance(self):
        rng = random.Random(311)
        for orders in [(8,), (2, 4), (2, 2, 2), (12,), (16,), (2, 8)]:
            spec = GroupSpec(orders)
            tables = automorphism_group(spec)
            for _ in range(25):
                size = rng.randint(1, min(6, spec.order))
                s = ElementSet.from_indices(rng.sample(range(spec.order), size))
                base = is_primitive(spec, s).primitive
                alpha = tables[rng.randrange(len(tables))]
                v = rng.randrange(spec.order)
                image = translate(spec, map_set(alpha, s), v)
                assert is_primitive(spec, image).primitive == base


class TestAgainstSubgroupLattice:
    @pytest.mark.parametrize("orders", abelian_group_orders(8))
    def test_exhaustive_small_groups(self, orders):
        # both witnesses against the closure and stabilizer oracles, the
        # flags against the lattice scans, and the nu-table flag of
        # certificates against them all
        spec = GroupSpec(orders)
        n = spec.order
        pairing = standard_pairing(spec)
        for bits in range(1, 1 << n):
            s = ElementSet(bits)
            report = is_primitive(spec, s)
            assert_witnesses_match_oracles(spec, s, report)
            coset, union = in_proper_coset_oracle(spec, s), union_of_cosets_oracle(spec, s)
            assert (report.in_proper_coset, report.union_of_cosets) == (coset, union)
            flag = _primitive_from_nu(pairing, weight_enumerator(spec, s))
            assert flag is report.primitive == (not coset and not union)

    def test_witnesses_actually_witness(self):
        rng = random.Random(313)
        for _ in range(60):
            spec = GroupSpec(rng.choice([(8,), (2, 4), (2, 2, 2), (9,)]))
            size = rng.randint(1, spec.order)
            s = ElementSet.from_indices(rng.sample(range(spec.order), size))
            report = is_primitive(spec, s)
            if report.in_proper_coset:
                h = set(report.coset_witness.indices)
                assert len(h) < spec.order
                s0 = s.indices[0]
                coset = {oracle_add(spec, s0, x) for x in h}
                assert set(s.indices) <= coset
            if report.union_of_cosets:
                stab = report.stabilizer_witness
                assert len(stab) > 1
                for h in stab:
                    assert translate(spec, s, h) == s


class TestPrimitivityFromNu:
    """``primitivity._primitive_from_nu``, the flag certificates carry, decides
    primitivity from nu_S and the pairing's annihilators alone."""

    @pytest.mark.parametrize("orders", [(1,)] + abelian_group_orders(16), ids=str)
    def test_every_subset_matches_lattice(self, orders):
        # every nonempty subset, |G| = 1, |S| = 1 and S = G among them;
        # is_primitive is compared on a sample (it costs about 150 us a set)
        spec = GroupSpec(orders)
        masks, nu, in_coset, union = every_subset_lattice_tables(spec)
        distinct, inverse = np.unique(nu, axis=0, return_inverse=True)
        pairing = standard_pairing(spec)
        flags = np.array([_primitive_from_nu(pairing, row) for row in distinct])[inverse.ravel()]
        assert flags.tolist() == (~in_coset & ~union).tolist()
        assert not flags[masks == (1 << spec.order) - 1].any() or spec.order == 1
        rng = random.Random(spec.order)
        for i in rng.sample(range(len(masks)), min(len(masks), 150)):
            s = ElementSet(int(masks[i]))
            assert tuple(nu[i].tolist()) == weight_enumerator(spec, s)
            assert is_primitive(spec, s).primitive == flags[i], (orders, s)

    @pytest.mark.parametrize("orders", [(256,), (16, 16), (2, 2, 8, 8), (2, 4, 32), (3, 5, 9), (4, 4, 4)])
    def test_random_and_coset_built_sets(self, orders):
        # random sets are nearly all primitive; cosets, unions of cosets and
        # sets inside a coset are not; any nondegenerate pairing gives the
        # same flag, and the witnesses are the oracles' subgroups
        spec = GroupSpec(orders)
        n = spec.order
        rng = random.Random(n + len(orders))
        tables = automorphism_group(spec)
        pairings = [standard_pairing(spec)] + [
            pairing_from_automorphism(standard_pairing(spec), tables[rng.randrange(len(tables))])
            for _ in range(2)
        ]
        sets = [ElementSet.from_indices(rng.sample(range(n), rng.randint(1, n))) for _ in range(12)]
        for g in rng.sample(range(1, n), 6):
            cyclic = {int(spec.index_of(j * spec.coords[g])) for j in range(n)}
            v = rng.randrange(n)
            coset = [oracle_add(spec, x, v) for x in cyclic]
            sets.append(ElementSet.from_indices(coset))
            sets.append(ElementSet.from_indices(rng.sample(coset, max(1, len(coset) // 2))))
            picks = rng.sample(range(n), 3)
            sets.append(ElementSet.from_indices({oracle_add(spec, p, x) for p in picks for x in cyclic}))
        sets += [ElementSet.from_indices([rng.randrange(n)]), ElementSet.from_indices(range(n))]
        verdicts = set()
        for s in sets:
            report = is_primitive(spec, s)
            assert_witnesses_match_oracles(spec, s, report)
            expected = report.primitive
            nu = weight_enumerator(spec, s)
            assert all(_primitive_from_nu(p, nu) == expected for p in pairings), (orders, s)
            verdicts.add(expected)
        assert verdicts == {True, False}
