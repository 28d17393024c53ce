"""Seeded inputs for every workload, built without importing fdual.

Search workloads are fixed lists of configurations; the seed sets the order
in which they run and, for search_parallel, where the checkpointed leg
stops (see README.md for why the seed does not pick the presentation of a
group).

verify_exact items are formally dual pairs, or not, by construction:

* subgroup pairs: a coset H + a of a subgroup H and a coset T0 + b of its
  annihilator T0 = {t : B(t, h) = 0 for all h in H} under the pairing
  B(x, y) = B0(alpha(x), y), with B0 the diagonal pairing and alpha a random
  automorphism.  |chi_t(H + a)|^2 is |H|^2 on T0 and 0 elsewhere, which is
  exactly |S|^2 * nu_T(t) / |T|.
* Theorem 2.1 images: gamma^-1(S) + a for the shipped self-dual set S and a
  random automorphism gamma, under the pairing P(gamma(x), gamma(y)).  The
  identity at t becomes the identity for S at gamma(t).
* negatives: a positive with one element of S or T replaced.  Their verdict
  comes from a double-precision evaluation of the identity; only mutations
  whose deviation exceeds FLOAT_MARGIN are kept, which is far above the
  rounding error of sums of at most 128 unit vectors, so "fails" is certain.
"""

from __future__ import annotations

import cmath
import itertools
import random
from collections import Counter
from math import lcm, prod

FLOAT_MARGIN = 1e-3

# Theorem 2.1: a primitive formally self-dual 8-set in Z2^2 x Z4^2 and a
# pairing (zeta_4-exponent matrix) under which it is self-dual.
THEOREM21_ORDERS = (2, 2, 4, 4)
THEOREM21_SET = (
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0),
    (0, 0, 2, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 3, 2),
)
THEOREM21_PAIRING = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


class Group:
    """Z_n1 x ... x Z_nk with coordinate tuples as elements."""

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.m = lcm(*self.orders)
        self.n = prod(self.orders)
        self.elements = list(itertools.product(*(range(k) for k in self.orders)))

    def add(self, x, y):
        return tuple((a + b) % k for a, b, k in zip(x, y, self.orders))

    def sub(self, x, y):
        return tuple((a - b) % k for a, b, k in zip(x, y, self.orders))

    def span(self, gens):
        members = {(0,) * len(self.orders)}
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return members

    def hom(self, images):
        """The homomorphism sending the i-th unit vector to images[i]."""
        def apply(x):
            out = [0] * len(self.orders)
            for xi, g in zip(x, images):
                for j, gj in enumerate(g):
                    out[j] += xi * gj
            return tuple(v % k for v, k in zip(out, self.orders))
        return apply

    def random_automorphism(self, rng):
        """Generator images of a uniformly random automorphism (rejection)."""
        killed = [
            [g for g in self.elements if all((ni * c) % k == 0 for c, k in zip(g, self.orders))]
            for ni in self.orders
        ]
        while True:
            images = [rng.choice(pool) for pool in killed]
            f = self.hom(images)
            if len({f(x) for x in self.elements}) == self.n:
                return images

    def random_subgroup(self, rng, size):
        for _ in range(10000):
            gens = [rng.choice(self.elements) for _ in range(rng.randint(1, 2))]
            members = self.span(gens)
            if len(members) == size:
                return gens, members
        raise ValueError(f"no subgroup of order {size} found in Z{self.orders}")


def bilinear(matrix, x, y, m):
    return sum(xi * matrix[i][j] * yj for i, xi in enumerate(x) for j, yj in enumerate(y)) % m


def identity_deviation(group, matrix, s, t_set):
    """max over t of | |T| * |chi_t(S)|^2 - |S|^2 * nu_T(t) | in floating point."""
    nu = Counter(group.sub(a, b) for a in t_set for b in t_set)
    roots = [cmath.exp(2j * cmath.pi * k / group.m) for k in range(group.m)]
    worst = 0.0
    for t in group.elements:
        cs = sum(roots[bilinear(matrix, t, x, group.m)] for x in s)
        dev = abs(len(t_set) * abs(cs) ** 2 - len(s) ** 2 * nu.get(t, 0))
        worst = max(worst, dev)
    return worst


def subgroup_pair(rng, orders, h_size):
    """Positive: (H + a, annihilator(H) + b) under a random twisted pairing."""
    g = Group(orders)
    alpha = g.random_automorphism(rng)
    matrix = [[(alpha[i][j] * (g.m // orders[j])) % g.m for j in range(len(orders))]
              for i in range(len(orders))]
    gens, h = g.random_subgroup(rng, h_size)
    t0 = [t for t in g.elements if all(bilinear(matrix, t, x, g.m) == 0 for x in gens)]
    a, b = rng.choice(g.elements), rng.choice(g.elements)
    return {
        "orders": list(orders),
        "pairing": matrix,
        "S": sorted(g.add(x, a) for x in h),
        "T": sorted(g.add(x, b) for x in t0),
        # a coset of a nontrivial proper subgroup is never primitive
        "s_primitive": False,
        "t_primitive": False,
    }


def theorem21_image(rng):
    """Positive: an affine image of the Theorem 2.1 set, self-dual."""
    g = Group(THEOREM21_ORDERS)
    gamma = g.random_automorphism(rng)
    k = len(THEOREM21_ORDERS)
    matrix = [[bilinear(THEOREM21_PAIRING, gamma[i], gamma[j], g.m) for j in range(k)]
              for i in range(k)]
    f = g.hom(gamma)
    inverse = {f(x): x for x in g.elements}
    a = rng.choice(g.elements)
    return {
        "orders": list(THEOREM21_ORDERS),
        "pairing": matrix,
        "S": sorted(g.add(inverse[x], a) for x in THEOREM21_SET),
        "T": None,
        "s_primitive": True,
        "t_primitive": True,
    }


def mutate(rng, positive):
    """Negative: one element of S or T replaced, checked by the float oracle."""
    g = Group(positive["orders"])
    s = [tuple(x) for x in positive["S"]]
    t_set = [tuple(x) for x in positive["T"] or positive["S"]]
    while True:
        mutate_s = rng.random() < 0.5
        side = list(s if mutate_s else t_set)
        side[rng.randrange(len(side))] = rng.choice([x for x in g.elements if x not in side])
        new_s, new_t = (side, t_set) if mutate_s else (s, side)
        if identity_deviation(g, positive["pairing"], new_s, new_t) > FLOAT_MARGIN:
            return {
                "orders": positive["orders"],
                "pairing": positive["pairing"],
                "S": sorted(new_s),
                "T": sorted(new_t),
            }


# (family, constructor, positives, negatives) per batch.  Counts are fixed
# so the cost of a batch barely depends on the seed; the seed picks
# subgroups, automorphisms, translations and mutations.  They also place
# the p50 item inside the 28 Z3xZ9 / Z6xZ6 positives and the tail item (10
# beyond it) inside the ten Theorem 2.1 / Z64 positives, below the five
# Z2^3xZ4^2 / Z128 ones, so neither sits on a jump in cost between
# families.  A batch is kept short (about 2 s) so that a run holds about ten
# repetitions: see README.md, "Host noise".
VERIFY_FAMILIES = (
    ("thm21", theorem21_image, 6, 5),
    ("Z2^2xZ4^2", lambda rng: subgroup_pair(rng, (2, 2, 4, 4), 8), 9, 4),
    ("Z2xZ4xZ8", lambda rng: subgroup_pair(rng, (2, 4, 8), 8), 9, 4),
    ("Z3xZ9", lambda rng: subgroup_pair(rng, (3, 9), 9), 14, 4),
    ("Z6xZ6", lambda rng: subgroup_pair(rng, (6, 6), 6), 14, 4),
    ("Z16", lambda rng: subgroup_pair(rng, (16,), 4), 5, 3),
    ("Z2^3xZ4^2", lambda rng: subgroup_pair(rng, (2, 2, 2, 4, 4), 16), 3, 4),
    ("Z64", lambda rng: subgroup_pair(rng, (64,), 8), 4, 3),
    ("Z128", lambda rng: subgroup_pair(rng, (128,), 16), 2, 3),
)


def verify_items(seed, families=VERIFY_FAMILIES):
    rng = random.Random(seed)
    items = []
    for family, make, n_pos, n_neg in families:
        positives = [make(rng) for _ in range(max(n_pos, 1))]
        for p in positives[:n_pos]:
            items.append(dict(p, family=family, holds=True))
        for i in range(n_neg):
            items.append(dict(mutate(rng, positives[i % len(positives)]), family=family, holds=False))
    rng.shuffle(items)
    return items


# Search configurations with the orbit-class count and `complete` flag an
# uninterrupted run records.  The count is an isomorphism invariant for a
# complete search; for a budget-stopped one it is the count at that budget
# in the listed presentation.
SEARCHES = {
    "search_bigaut": (
        dict(orders=(2, 4, 4), size=8, mode="pair", symmetry="affine", budget=None,
             classes=1, complete=True),
        dict(orders=(2, 2, 2, 4), size=8, mode="pair", symmetry="affine", budget=400,
             classes=0, complete=False),
        dict(orders=THEOREM21_ORDERS, size=8, mode="self_dual", symmetry="affine", budget=100,
             classes=0, complete=False),
    ),
    "search_cyclic": (
        dict(orders=(40,), size=8, mode="pair", symmetry="affine", budget=None,
             classes=0, complete=True),
        dict(orders=(32,), size=8, mode="pair", symmetry="translation", budget=500_000,
             classes=0, complete=False),
    ),
    # checkpointed leg stopped at a seeded budget in [lo, hi), then resumed to
    # completion with two workers; `hits` are the S index lists an
    # uninterrupted run reports
    "search_parallel": (
        dict(orders=(7, 7), size=7, mode="self_dual", symmetry="affine", depth=5,
             stop=(800, 1200), classes=2, complete=True,
             hits=[[0, 1, 2, 4, 7, 14, 28], [0, 1, 7, 9, 19, 36, 40]]),
        dict(orders=(49,), size=7, mode="self_dual", symmetry="affine", depth=4,
             stop=(20_000, 30_000), classes=0, complete=True, hits=[]),
    ),
}
PARALLEL_JOBS = 2


def search_items(workload, seed):
    rng = random.Random(seed)
    items = []
    for config in SEARCHES[workload]:
        item = dict(config, orders=list(config["orders"]))
        if "stop" in item:
            item["stop_budget"] = rng.randrange(*item.pop("stop"))
        items.append(item)
    rng.shuffle(items)
    return items


def make_items(workload, seed):
    if workload == "verify_exact":
        return verify_items(seed)
    return search_items(workload, seed)
