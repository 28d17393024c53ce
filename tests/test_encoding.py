"""The array encoding behind GroupSpec against tuple arithmetic.

``GroupSpec.coords``, the array form of ``index_of`` and
``PairingMatrix.exponents`` carry all group arithmetic and pairing
exponents in the exact layer.  These tests compare them, and the set
operations built on them, with the tuple references in ``oracles.py``.
"""

from __future__ import annotations

import random
from math import prod

import numpy as np
import pytest

from fdual.abelian import (
    ElementSet,
    GroupSpec,
    automorphism_group,
    pairing_from_automorphism,
    standard_pairing,
)
from fdual.duality import check_pair, weight_enumerator
from fdual.primitivity import is_primitive

from oracles import (
    abelian_group_orders,
    exponent_table_oracle,
    float_pair_holds,
    subgroup_oracle,
    translate_oracle,
    weight_enumerator_oracle,
)

ROUND_TRIP_ORDERS = abelian_group_orders(16) + [(2, 2, 4, 4), (8, 8), (128,)]
SET_OP_ORDERS = [(8,), (2, 4), (2, 2, 2), (12,), (16,), (4, 4), (2, 2, 4), (8, 8), (2, 2, 4, 4)]


@pytest.mark.parametrize("orders", ROUND_TRIP_ORDERS)
def test_encode_decode_round_trip(orders):
    spec = GroupSpec(orders)
    n = spec.order
    weights = [prod(orders[j + 1:]) for j in range(len(orders))]
    expected = [[(i // w) % q for w, q in zip(weights, orders)] for i in range(n)]
    coords = spec.coords
    assert coords.tolist() == expected
    assert not coords.flags.writeable
    assert spec.index_of(coords).tolist() == list(range(n))
    # the encode reduces: any multiple of the orders added changes nothing
    rng = np.random.default_rng(sum(orders))
    shifted = coords + np.array(orders) * rng.integers(-3, 4, size=coords.shape)
    assert spec.index_of(shifted).tolist() == list(range(n))
    assert spec.index_of(shifted.reshape(n, 1, -1)).shape == (n, 1)
    for i in range(n):
        assert spec.element(i) == tuple(expected[i])
        assert spec.index_of(expected[i]) == i


def test_encode_rejects_wrong_width():
    with pytest.raises(ValueError):
        GroupSpec((2, 4)).index_of(np.zeros((3, 3), dtype=np.int64))


def test_exponents_match_bilinear_form():
    rng = random.Random(43)
    for orders in abelian_group_orders(16) + [(8, 8), (2, 2, 4, 4)]:
        spec = GroupSpec(orders)
        tables = automorphism_group(spec)
        everything = range(spec.order)
        for a in rng.sample(range(len(tables)), min(2, len(tables))):
            pairing = pairing_from_automorphism(standard_pairing(spec), tables[a])
            table = pairing.exponents(everything, everything)
            assert table.tolist() == exponent_table_oracle(pairing), (orders, a)
            xs = rng.sample(everything, min(3, spec.order))
            s = ElementSet.from_indices(rng.sample(everything, min(4, spec.order)))
            assert (pairing.exponents(xs, s) == table[np.ix_(xs, s.indices)]).all()


def _random_set(rng, spec):
    """A random set, or a union of cosets of a random subgroup half the time,
    so that nu_S is not always near flat."""
    n = spec.order
    if rng.random() < 0.5:
        return ElementSet.from_indices(rng.sample(range(n), rng.randint(1, min(n, 20))))
    h = subgroup_oracle(spec, rng.sample(range(n), rng.randint(1, 2)))
    shifts = rng.sample(range(n), rng.randint(1, 3))
    return ElementSet.from_indices({x for v in shifts for x in translate_oracle(spec, h, v)})


@pytest.mark.parametrize("orders", SET_OP_ORDERS)
def test_set_operations_match_tuple_oracles(orders):
    spec = GroupSpec(orders)
    rng = random.Random(sum(orders) * len(orders))
    for _ in range(25):
        s = _random_set(rng, spec)
        assert weight_enumerator(spec, s) == weight_enumerator_oracle(spec, s)


def test_order_4096_group_has_no_size_limit():
    """Z64 x Z64: the exact layer runs on a group 16 times the search's limit."""
    spec = GroupSpec((64, 64))
    rng = random.Random(59)
    s = ElementSet.from_indices(rng.sample(range(spec.order), 40))
    assert weight_enumerator(spec, s) == weight_enumerator_oracle(spec, s)

    pairing = standard_pairing(spec)
    # 8Z64 x 8Z64 is its own annihilator, so it is formally self-dual
    h = ElementSet.from_coords(spec, [(8 * a, 8 * b) for a in range(8) for b in range(8)])
    report = check_pair(spec, pairing, h, h)
    assert report.holds and report.checked_count == spec.order
    h_coords = h.coords(spec)
    assert float_pair_holds(spec.orders, h_coords, h_coords, pairing.entries)

    moved = ElementSet.from_indices([*h.indices[:-1], 1])
    report = check_pair(spec, pairing, moved, h)
    assert not report.holds
    assert not float_pair_holds(spec.orders, moved.coords(spec), h_coords, pairing.entries)

    prim = is_primitive(spec, h)
    assert prim.in_proper_coset and prim.coset_witness == h
    assert prim.union_of_cosets and prim.stabilizer_witness == h
