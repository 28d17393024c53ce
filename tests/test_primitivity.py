from __future__ import annotations

import random

import pytest

from fdual.abelian import ElementSet, GroupSpec, automorphism_group
from fdual.primitivity import is_in_proper_coset, is_primitive, is_union_of_cosets

from oracles import (
    abelian_group_orders,
    in_proper_coset_oracle,
    map_set,
    oracle_add,
    oracle_neg,
    translate,
    union_of_cosets_oracle,
)

Z4 = GroupSpec((4,))


class TestExamples:
    def test_z4_subgroup_set(self):
        s = ElementSet.from_indices([0, 2])
        coset, witness = is_in_proper_coset(Z4, s)
        assert coset and witness.indices == (0, 2)
        union, stab = is_union_of_cosets(Z4, s)
        assert union and stab.indices == (0, 2)
        assert not is_primitive(Z4, s).primitive

    def test_z4_tito_is_primitive(self):
        s = ElementSet.from_indices([0, 1])
        assert not is_in_proper_coset(Z4, s)[0]
        assert not is_union_of_cosets(Z4, s)[0]
        assert is_primitive(Z4, s).primitive

    def test_whole_group_is_union_of_cosets(self):
        whole = ElementSet.from_indices(range(4))
        union, witness = is_union_of_cosets(Z4, whole)
        assert union and len(witness) == 4

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
        from fdual.abelian import subgroup_generated

        for _ in range(80):
            spec = GroupSpec(rng.choice([(8,), (2, 4), (12,), (2, 2, 4)]))
            size = rng.randint(1, spec.order)
            s = ElementSet.from_indices(rng.sample(range(spec.order), size))
            verdicts = set()
            for s0 in s:
                h = subgroup_generated(
                    spec, [oracle_add(spec, x, oracle_neg(spec, s0)) for x in s]
                )
                verdicts.add((len(h) < spec.order, h.indices))
            assert len(verdicts) == 1
            assert next(iter(verdicts))[0] == is_in_proper_coset(spec, s)[0]

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
        spec = GroupSpec(orders)
        n = spec.order
        for bits in range(1, 1 << n):
            s = ElementSet(bits)
            assert is_in_proper_coset(spec, s)[0] == in_proper_coset_oracle(spec, s)
            assert is_union_of_cosets(spec, s)[0] == union_of_cosets_oracle(spec, s)

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
