"""Orbit pruning certified by counting orbits.

The canonical d-subsets are exactly one per orbit of the affine group
x -> pi(x) + v on d-subsets.  Burnside's lemma counts those orbits from the
cycle types of the affine maps, with pi from the oracle's own depth-first
search; the orderly walk counts the canonical nodes the reducer keeps.  A
reducer that dropped an orbit, or kept two nodes of one, would disagree.
"""

from __future__ import annotations

import numpy as np
import pytest

from fdual.abelian import AffineReducer, GroupSpec, automorphism_group

from oracles import burnside_orbit_counts, orderly_orbit_counts


@pytest.mark.parametrize(
    "orders,expected",
    [
        ((8, 8), [1, 3, 11, 57, 250, 1501, 8892, 54437]),
        ((2, 4, 4), [1, 3, 6, 22, 40, 118, 245, 604]),
    ],
)
def test_orderly_walk_counts_orbits(orders, expected):
    counts = burnside_orbit_counts(orders, 8)
    assert counts == expected
    assert orderly_orbit_counts(automorphism_group(GroupSpec(orders)).reducer, 8) == counts


class _DropsOneOrbit(AffineReducer):
    """A reducer that rejects the first canonical node of size 4 it meets."""

    dropped = False

    def canonical_children(self, node, cands):
        keep = super().canonical_children(node, cands)
        if len(node) == 3 and keep.any() and not self.dropped:
            self.dropped = True
            keep[np.flatnonzero(keep)[0]] = False
        return keep


def test_dropped_orbit_is_caught():
    spec = GroupSpec((2, 4, 4))
    broken = _DropsOneOrbit(spec, automorphism_group(spec))
    counts = orderly_orbit_counts(broken, 4)
    expected = burnside_orbit_counts(spec.orders, 4)
    assert counts[:3] == expected[:3] and counts[3] == expected[3] - 1
