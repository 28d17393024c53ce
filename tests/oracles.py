"""Independent reference implementations used as test oracles.

The float oracle below verifies the duality identities by direct complex
summation with cmath and never touches the package's exact machinery, so
agreement between the two is meaningful evidence.  Group arithmetic here is
its own tuple arithmetic on coordinates, never the package's array
encoding, and the exact references (the nu-weighted spectrum route, the
dual-side identity, weight enumerators, translates, stabilizers and
generated subgroups) are built on it.  The brute-force helpers
enumerate subsets or subgroups with no symmetry reduction at all, and the
affine-orbit scan compares every image under every automorphism and
translation, which the stabilizer-chain canonical forms are tested against.
The reference search walks the tree one node at a time, as the search did
before it batched the work of sibling nodes.  The spectrum is computed
here one character at a time, as ``norm_sq`` of the character sum, and
``check_pair`` is kept as the loop over characters it was before the
library computed every character in one kernel.  Aut(G) is enumerated here by
a depth-first search over generator images on the oracle's own addition
table; the library's enumerator, its self-dual leaf test and a Burnside
count of affine orbits, which the orderly walk must match, are checked
against it.  Whether an index table row is an automorphism at all is
decided here on the tuple arithmetic, pair by pair.  A few helpers on the
library's own encoding (``translate``, ``negate_set``,
``affine_canonical_form``, ``checkpoint_resume``) and the integer
polynomial product ``poly_mul`` live here too, because only the tests call
them.
"""

from __future__ import annotations

import cmath
import itertools
from collections import Counter
from functools import lru_cache
from math import gcd, prod

import numpy as np


def _lcm_all(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def _elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def _add(a, b, orders):
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def _sub(a, b, orders):
    return tuple((x - y) % n for x, y, n in zip(a, b, orders))


def _coords_and_weights(orders):
    """Coordinates of every element and the mixed-radix place values."""
    coords = np.array(_elements(orders), dtype=np.int64)
    weights = np.array([prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
    return coords, weights


@lru_cache(maxsize=None)
def _index_arithmetic(orders):
    """Index tables of addition and negation, by tuple arithmetic."""
    elems = _elements(orders)
    index = {c: i for i, c in enumerate(elems)}
    zero = (0,) * len(orders)
    add = [[index[_add(a, b, orders)] for b in elems] for a in elems]
    neg = [index[_sub(zero, a, orders)] for a in elems]
    return add, neg


def oracle_add(spec, i, j):
    """Index of element i + element j."""
    return _index_arithmetic(spec.orders)[0][i][j]


def oracle_neg(spec, i):
    """Index of -(element i)."""
    return _index_arithmetic(spec.orders)[1][i]


def is_automorphism_table(spec, table):
    """Whether an index table row is an automorphism: a permutation of the
    element indices fixing 0 with alpha(x + y) == alpha(x) + alpha(y) for
    every pair, checked exhaustively on the tuple arithmetic."""
    add = _index_arithmetic(spec.orders)[0]
    alpha = [int(v) for v in table]
    n = len(add)
    if sorted(alpha) != list(range(n)) or alpha[0] != 0:
        return False
    return all(
        alpha[add[x][y]] == add[alpha[x]][alpha[y]] for x in range(n) for y in range(x, n)
    )


def map_set(table, s):
    """The image alpha(S) of an ElementSet under an index table row."""
    from fdual.abelian import ElementSet

    return ElementSet.from_indices(int(table[i]) for i in s)


def _bilinear(matrix, x, y, m):
    total = 0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * matrix[i][j] * yj
    return total % m


def float_pair_holds(orders, s_coords, t_coords, matrix, tol=1e-6):
    """Direct complex check of |chi_t(S)|^2 == (|S|^2/|T|) * nu_T(t)."""
    m = _lcm_all(orders)
    elems = _elements(orders)
    s = [tuple(c) for c in s_coords]
    t_set = [tuple(c) for c in t_coords]
    nu = Counter(_sub(a, b, orders) for a in t_set for b in t_set)
    ratio = len(s) ** 2 / len(t_set)
    for t in elems:
        cs = sum(
            cmath.exp(2j * cmath.pi * _bilinear(matrix, t, x, m) / m) for x in s
        )
        if abs(abs(cs) ** 2 - ratio * nu.get(t, 0)) > tol:
            return False
    return True


def float_self_dual_holds(orders, s_coords, matrix, tol=1e-6):
    return float_pair_holds(orders, s_coords, s_coords, matrix, tol=tol)


def eval_float(p):
    """Double-precision value of a ClassVector."""
    m = p.m
    return sum(
        c * cmath.exp(2j * cmath.pi * j / m) for j, c in enumerate(p.coeffs) if c
    )


def poly_mul(a, b):
    """Product of two integer polynomials given as coefficient tuples,
    lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


# ---------------------------------------------------------------------------
# exact references by tuple arithmetic
# ---------------------------------------------------------------------------


def spectrum_entry_from_nu(spec, pairing, nu, t):
    """|chi_t(S)|^2 computed as sum_d nu_S(d) * zeta^B(t, d), as a ClassVector:
    the second route to the spectrum, which ``spectrum_entry`` must match
    coefficient by coefficient."""
    from fdual.cyclotomic import ClassVector

    m = spec.exponent
    elems = _elements(spec.orders)
    coeffs = [0] * m
    for d, count in enumerate(nu):
        if count:
            coeffs[_bilinear(pairing.entries, elems[t], elems[d], m)] += count
    return ClassVector(m, tuple(coeffs))


def char_sum(spec, pairing, s, t):
    """chi_t(S) = sum over x in S of zeta^B(t, x), kept exact as a ClassVector."""
    from fdual.cyclotomic import ClassVector

    m = spec.exponent
    counts = np.bincount(pairing.exponents([t], s)[0], minlength=m)
    return ClassVector(m, tuple(counts.tolist()))


def spectrum_entry(spec, pairing, s, t):
    """|chi_t(S)|^2 for one character, as ``norm_sq`` of the character sum:
    the per-character reference for the library's all-character kernel."""
    from fdual.cyclotomic import norm_sq

    return norm_sq(char_sum(spec, pairing, s, t))


def check_pair_loop(spec, pairing, s, t_set):
    """``duality.check_pair`` as a loop over characters, one exact
    ``spectrum_entry`` each, stopping at the first failure: the library's
    chunked kernel must give the same report field by field."""
    from fdual.cyclotomic import as_integer, residue
    from fdual.duality import DualityReport, Failure, weight_enumerator

    n = spec.order
    if len(s) * len(t_set) != n:
        failure = Failure(
            index=None,
            expected=n,
            actual=f"size law violated: |S|*|T| = {len(s) * len(t_set)} != {n} = |G|",
        )
        return DualityReport(holds=False, first_failure=failure, checked_count=0)
    nu_t = weight_enumerator(spec, t_set)
    s_sq = len(s) ** 2
    t_card = len(t_set)
    for t in range(n):
        entry = spectrum_entry(spec, pairing, s, t)
        value = as_integer(entry)
        if value is None:
            actual = f"|chi_t(S)|^2 is not an integer: residue {residue(entry)}"
        elif t_card * value != s_sq * nu_t[t]:
            actual = f"|T|*|chi_t(S)|^2 = {t_card * value}"
        else:
            continue
        failure = Failure(index=t, expected=s_sq * nu_t[t], actual=actual)
        return DualityReport(holds=False, first_failure=failure, checked_count=t + 1)
    return DualityReport(holds=True, first_failure=None, checked_count=n)


def dual_side_holds(spec, pairing, s, t_set):
    """The exchanged identity |S| * |g(T)|^2 == |T|^2 * nu_S(g) for every g,
    decided exactly.  g(T) sums the characters of T at g, a character sum
    over T under the transposed pairing matrix."""
    from fdual.cyclotomic import ClassVector, as_integer, norm_sq

    n, m = spec.order, spec.exponent
    if len(s) * len(t_set) != n:
        return False
    elems = _elements(spec.orders)
    flipped = [list(col) for col in zip(*pairing.entries)]
    s_coords = [elems[i] for i in s]
    t_coords = [elems[i] for i in t_set]
    nu_s = Counter(_sub(a, b, spec.orders) for a in s_coords for b in s_coords)
    for g in elems:
        counts = [0] * m
        for y in t_coords:
            counts[_bilinear(flipped, g, y, m)] += 1
        value = as_integer(norm_sq(ClassVector(m, tuple(counts))))
        if value is None or len(s) * value != len(t_set) ** 2 * nu_s.get(g, 0):
            return False
    return True


def exponent_table_oracle(pairing):
    """B(x, y) for every pair of elements, as nested lists."""
    spec = pairing.spec
    elems = _elements(spec.orders)
    return [[_bilinear(pairing.entries, x, y, spec.exponent) for y in elems] for x in elems]


def weight_enumerator_oracle(spec, s):
    """nu_S as a tuple indexed by element, from a Counter of differences."""
    elems = _elements(spec.orders)
    nu = Counter(_sub(elems[a], elems[b], spec.orders) for a in s for b in s)
    return tuple(nu.get(c, 0) for c in elems)


def translate_oracle(spec, s, v):
    return frozenset(oracle_add(spec, x, v) for x in s)


def stabilizer_oracle(spec, s):
    """Every h with h + S = S, scanning all of G."""
    members = frozenset(s)
    return frozenset(h for h in range(spec.order) if translate_oracle(spec, s, h) == members)


def subgroup_oracle(spec, gens):
    """Closure of {0} under adding generators, breadth first."""
    members, queue = {0}, [0]
    while queue:
        x = queue.pop()
        for g in gens:
            y = oracle_add(spec, x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


# ---------------------------------------------------------------------------
# subgroup-lattice oracles for primitivity
# ---------------------------------------------------------------------------


def all_subgroups(spec):
    """Every subgroup of G, as frozensets of element indices (|G| small)."""
    from fdual.abelian import ElementSet

    n = spec.order
    found = set()
    for bits in range(1 << n):
        if not bits & 1:  # must contain 0
            continue
        members = [i for i in range(n) if (bits >> i) & 1]
        closed = True
        for a in members:
            for b in members:
                if oracle_add(spec, a, b) not in set(members):
                    closed = False
                    break
            if not closed:
                break
        if closed:
            found.add(frozenset(members))
    return [ElementSet.from_indices(sorted(h)) for h in sorted(found, key=sorted)]


def in_proper_coset_oracle(spec, s):
    """Scan every proper subgroup H and every translate v + H."""
    members = set(s.indices)
    for h in all_subgroups(spec):
        if len(h) == spec.order:
            continue
        hset = set(h.indices)
        for v in range(spec.order):
            coset = {oracle_add(spec, v, x) for x in hset}
            if members <= coset:
                return True
    return False


def union_of_cosets_oracle(spec, s):
    """Scan every nontrivial subgroup H for S + H == S."""
    members = set(s.indices)
    for h in all_subgroups(spec):
        if len(h) <= 1:
            continue
        if all(
            {oracle_add(spec, x, hh) for x in members} == members for hh in h.indices
        ):
            return True
    return False


def every_subset_lattice_tables(spec):
    """The two lattice oracles above for every nonempty S at once, S the
    bitmask sum of 2^x over its elements: (masks, nu, in_coset, union) with
    masks = 1 .. 2^|G| - 1, nu[i, h] = |S & (S + h)| (= nu_S(h)), and the
    verdicts of ``in_proper_coset_oracle`` and ``union_of_cosets_oracle``,
    read off ``all_subgroups`` and their cosets as bitmasks."""
    n = spec.order
    masks = np.arange(1, 1 << n, dtype=np.int64)
    shifted = []  # S + h, for h = 0 .. n - 1
    for h in range(n):
        moved = np.zeros_like(masks)
        for x in range(n):
            moved |= ((masks >> x) & 1) << oracle_add(spec, x, h)
        shifted.append(moved)
    nu = np.stack([np.bitwise_count(masks & moved) for moved in shifted], axis=1)
    in_coset = np.zeros(len(masks), dtype=bool)
    union = np.zeros(len(masks), dtype=bool)
    for h in all_subgroups(spec):
        if len(h) > 1:
            union |= np.logical_and.reduce([shifted[x] == masks for x in h])
        if len(h) < n:
            for v in range(n):
                coset = sum(1 << oracle_add(spec, v, x) for x in h)
                in_coset |= (masks & ~coset) == 0
    return masks, nu.astype(np.int64), in_coset, union


# ---------------------------------------------------------------------------
# helpers on the library's encoding that only the tests use
# ---------------------------------------------------------------------------


def translate(spec, s, v):
    """The set s + v."""
    from fdual.abelian import ElementSet

    moved = spec.index_of(spec.coords[list(s)] + spec.coords[v])
    return ElementSet.from_indices(moved.tolist())


def negate_set(spec, s):
    """The set -s."""
    from fdual.abelian import ElementSet

    return ElementSet.from_indices(spec.index_of(-spec.coords[list(s)]).tolist())


def affine_canonical_form(spec, s):
    """The library's canonical representative of the affine orbit of a
    nonempty set."""
    from fdual.abelian import ElementSet, affine_reducer

    if not s:
        raise ValueError("canonical form of the empty set is undefined")
    return ElementSet.from_indices(affine_reducer(spec).canonical_form(s.indices))


def checkpoint_resume(path, config):
    """Remaining tasks after a checkpoint; refuses it as the search does."""
    from fdual.search import _resume_from, enumerate_tasks

    tasks = enumerate_tasks(config)
    done = set(_resume_from(path, config, tasks).completed)
    return [t for t in tasks if t not in done]


# ---------------------------------------------------------------------------
# exhaustive pair-search oracle (tiny groups, fully exact, no screens)
# ---------------------------------------------------------------------------


def exact_pair_classes(spec, size):
    """Affine classes of primitive S admitting a primitive partner, by trying
    every S and every T with the exact checker.  Only viable for tiny groups."""
    from fdual.abelian import ElementSet, standard_pairing
    from fdual.duality import check_pair
    from fdual.primitivity import is_primitive

    n = spec.order
    t_size = n // size
    pairing = standard_pairing(spec)
    classes = set()
    for s_idx in itertools.combinations(range(n), size):
        s = ElementSet.from_indices(s_idx)
        if not is_primitive(spec, s).primitive:
            continue
        for t_idx in itertools.combinations(range(n), t_size):
            t = ElementSet.from_indices(t_idx)
            if not is_primitive(spec, t).primitive:
                continue
            if check_pair(spec, pairing, s, t).holds:
                classes.add(affine_canonical_form(spec, s).indices)
                break
    return classes


# ---------------------------------------------------------------------------
# affine-orbit scan: every automorphism, every translate
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _difference_table(orders):
    """(N, N) table with entry [v, x] = index(x - v), last coordinate fastest."""
    coords, weights = _coords_and_weights(orders)
    diff = ((coords[None, :, :] - coords[:, None, :]) % np.array(orders)) @ weights
    return diff.astype(np.int16)


def affine_images(orders, tables, indices):
    """Every pi(S) - v with pi a row of ``tables`` and v in pi(S), as sorted
    rows: the scan over all |auts| x |S| images."""
    sub = _difference_table(tuple(orders))
    images = np.asarray(tables)[:, list(indices)]
    shifted = sub[images[:, :, None], images[:, None, :]]
    return np.sort(shifted, axis=2).reshape(-1, len(indices))


def _lex_min(rows):
    for j in range(rows.shape[1]):
        rows = rows[rows[:, j] == rows[:, j].min()]
    return tuple(int(v) for v in rows[0])


def scan_is_canonical(orders, tables, indices):
    """No image of the sorted index list is lexicographically smaller."""
    return _lex_min(affine_images(orders, tables, indices)) >= tuple(indices)


def scan_canonical_form(orders, tables, indices):
    """Lexicographic minimum over all images, iterated to a fixpoint."""
    cur = tuple(sorted(indices))
    while True:
        best = _lex_min(affine_images(orders, tables, cur))
        if best == cur:
            return cur
        cur = best


def scan_forms_by_orbit(orders, tables, size):
    """Canonical form of every size-subset containing 0, for a complete group.

    The subsets are swept in lexicographic order.  The first one not yet
    assigned is the minimum of its orbit, and the scan of its images assigns
    it to every image: one scan per orbit instead of one per subset.
    """
    form = {}
    for rest in itertools.combinations(range(1, prod(orders)), size - 1):
        node = (0,) + rest
        if node in form:
            continue
        images = set(map(tuple, affine_images(orders, tables, node).tolist()))
        assert min(images) == node and not images & form.keys()
        form.update(dict.fromkeys(images, node))
    return form


# ---------------------------------------------------------------------------
# Aut(G) by depth-first search over generator images
# ---------------------------------------------------------------------------


def aut_images_dfs(orders):
    """Generator-image tuples of all automorphisms, in lexicographic order.

    An image tuple (g_1, ..., g_k) with n_i * g_i = 0 defines a homomorphism
    e_i -> g_i; it is an automorphism iff the images generate G.  The DFS
    grows the subgroup generated by the prefix and prunes prefixes whose
    closure cannot grow back to |G|.
    """
    n, k, m = prod(orders), len(orders), _lcm_all(orders)
    add = np.array(_index_arithmetic(tuple(orders))[0], dtype=np.int64)
    mult = np.zeros((m + 1, n), dtype=np.int64)  # mult[t][g] = t * g
    for t in range(1, m + 1):
        mult[t] = add[mult[t - 1], np.arange(n)]
    candidates = [[g for g in range(n) if mult[ni % m][g] == 0] for ni in orders]
    tail_growth = [prod(orders[i:]) for i in range(k)]
    results = []

    def closure_with(members, g):
        powers = [0]
        x = g
        while x != 0:
            powers.append(x)
            x = int(add[x, g])
        hits = np.flatnonzero(members)
        new = np.zeros_like(members)
        for p in powers:
            new[add[hits, p]] = True
        return new

    def order_in_quotient(members, g):
        for t in range(1, m + 1):
            if members[mult[t][g]]:
                return t
        raise AssertionError("exponent * g must land in every subgroup")

    def dfs(slot, members, size, images):
        if slot == k:
            if size == n:
                results.append(tuple(images))
            return
        if size * tail_growth[slot] < n:
            return
        if slot == k - 1:
            # last slot: image g works iff |H| * ord(g mod H) == |G|
            results.extend(tuple(images + [g]) for g in candidates[slot]
                           if order_in_quotient(members, g) == n // size)
            return
        for g in candidates[slot]:
            if order_in_quotient(members, g) == 1:
                new_members, new_size = members, size
            else:
                new_members = closure_with(members, g)
                new_size = int(new_members.sum())
            dfs(slot + 1, new_members, new_size, images + [g])

    root = np.zeros(n, dtype=bool)
    root[0] = True
    dfs(0, root, 1, [])
    return results


@lru_cache(maxsize=4)
def aut_tables_oracle(orders):
    """(|Aut|, N) uint8 tables in the DFS order: x maps to sum x_i g_i,
    summed on coordinates."""
    orders = tuple(orders)
    coords, weights = _coords_and_weights(orders)
    images = np.array(aut_images_dfs(orders), dtype=np.int64).reshape(-1, len(orders))
    out = np.empty((len(images), len(coords)), dtype=np.uint8)
    for lo in range(0, len(images), 4096):
        gc = coords[images[lo : lo + 4096]]  # (a, k, k): coordinates of each image
        out[lo : lo + 4096] = (np.einsum("xi,aij->axj", coords, gc) % orders) @ weights
    return out


def self_dual_gather_oracle(spec, s):
    """The self-dual leaf test as a gather of the spectrum E through every
    row of the DFS tables: a certificate for the first alpha, in table
    order, that has E(alpha(t)) == |S| * nu_S(t) for all t and whose
    pairing passes ``check_self_dual``, or None."""
    from fdual.abelian import pairing_from_automorphism, standard_pairing
    from fdual.duality import check_self_dual, exact_spectrum, make_certificate, weight_enumerator
    from fdual.primitivity import is_primitive

    if not is_primitive(spec, s).primitive:
        return None
    pairing0 = standard_pairing(spec)
    spectrum = exact_spectrum(spec, pairing0, s)
    if any(v is None for v in spectrum):
        return None
    target = np.array([len(s) * v for v in weight_enumerator(spec, s)], dtype=np.int64)
    tables = aut_tables_oracle(spec.orders).astype(np.int64)
    rows = np.array(spectrum, dtype=np.int64)[tables]
    for a in np.flatnonzero((rows == target).all(axis=1)):
        pairing = pairing_from_automorphism(pairing0, tables[a])
        if check_self_dual(spec, pairing, s).holds:
            return make_certificate(spec, pairing, s, kind="self_dual")
    return None


# ---------------------------------------------------------------------------
# orbit counting: Burnside over the affine group against the orderly walk
# ---------------------------------------------------------------------------


def burnside_orbit_counts(orders, max_size):
    """Orbits of the affine maps x -> pi(x) + v on d-subsets, d = 1..max_size.

    By Burnside's lemma the count is the mean, over all maps, of the number
    of d-subsets a map fixes: the t^d coefficient of the product over its
    cycles c of (1 + t^|c|).  pi ranges over ``aut_tables_oracle`` and v
    over G; translation is a coordinate sum.
    """
    orders = tuple(orders)
    coords, weights = _coords_and_weights(orders)
    n = len(coords)
    shift = ((coords[:, None, :] + coords[None, :, :]) % orders) @ weights  # [v, x] = x + v
    type_counts = Counter()
    tables = aut_tables_oracle(orders).astype(np.int64)
    chunk = max(1, 4096 // n)
    for lo in range(0, len(tables), chunk):
        perms = shift[:, tables[lo : lo + chunk]]  # [v, a, x] = pi_a(x) + v
        perms = perms.transpose(1, 0, 2).reshape(-1, n)
        cycle_len = np.zeros(perms.shape, dtype=np.int64)
        cur = np.broadcast_to(np.arange(n), perms.shape).copy()
        step = 0
        while (cycle_len == 0).any():
            step += 1
            cur = np.take_along_axis(perms, cur, axis=1)
            cycle_len[(cur == np.arange(n)) & (cycle_len == 0)] = step
        hist = np.apply_along_axis(np.bincount, 1, cycle_len, minlength=n + 1)
        for row, count in Counter(map(tuple, hist.tolist())).items():
            type_counts[row] += count
    total = Counter()
    for hist, count in type_counts.items():
        poly = [1] + [0] * max_size
        for length, points in enumerate(hist[1:], 1):
            for _ in range(points // length):
                poly = [poly[d] + (poly[d - length] if d >= length else 0) for d in range(max_size + 1)]
        for d in range(1, max_size + 1):
            total[d] += poly[d] * count
    maps = len(tables) * n
    assert all(total[d] % maps == 0 for d in total)
    return [total[d] // maps for d in range(1, max_size + 1)]


def orderly_orbit_counts(reducer, max_size):
    """Canonical nodes at each depth 1..max_size of the orderly tree, every
    child gated by ``canonical_extensions`` and no room bound: one node per
    affine orbit of d-subsets when the reducer drops none."""
    n = reducer.spec.order
    counts, layer = [1], [[0]]
    for _ in range(max_size - 1):
        nxt = []
        for node in layer:
            xs = range(node[-1] + 1, n)
            nxt += [node + [x] for x, ok in zip(xs, reducer.canonical_extensions(node, xs)) if ok]
        layer = nxt
        counts.append(len(layer))
    return counts


# ---------------------------------------------------------------------------
# the search walked one node at a time
# ---------------------------------------------------------------------------


def chain_is_canonical(reducer, indices):
    """The stabilizer-chain walk for one node, as the search once ran it on
    every node: the reducer's cached levels, no batching over siblings."""
    node = list(map(int, indices))
    if node[0] != 0:
        return False
    x = np.array(node)
    rows = reducer._sub[x[None, :], x[:, None]].astype(np.intp)
    for depth in range(1, len(node)):
        level = reducer._level(tuple(node[1:depth]))
        if level.om is None:
            return min(np.sort(rows, axis=0).T.tolist()) >= node
        om = level.om[rows]
        target = node[depth]
        if om.min() < target:
            return False
        rows, _ = reducer._advance(level.rho, rows, om == target)
    return True


def reference_walk(config):
    """The search without a budget, one node at a time in DFS order.

    Every node is canonically gated by ``chain_is_canonical`` and every
    leaf gets its own float screen.  Returns (frontier, tasks): the
    outcomes of the frontier enumeration, and per frontier task the task
    and the outcomes of the nodes below it, in the order they are visited.
    An outcome is "symmetry", "screen", "open" (an expanded inner node),
    "leaf" (an exact-tested leaf) or the hit leaf itself.
    """
    from fdual.abelian import ElementSet
    from fdual.search import FLOAT_SCREEN_TOL, _context, pair_leaf_test, self_dual_leaf_test

    ctx = _context(config.spec)
    n, size = ctx.n, config.target_size
    affine = config.symmetry == "affine"
    ratio = size ** 2 / config.partner_size
    leaf_test = self_dual_leaf_test if config.mode == "self_dual" else pair_leaf_test

    frontier, task_nodes = [], []

    def enumerate_node(node):
        if affine and len(node) > 1 and not chain_is_canonical(ctx.reducer, node):
            frontier.append("symmetry")
            return
        frontier.append("open")
        if len(node) == config.frontier_depth:
            task_nodes.append(tuple(node))
            return
        for x in range(node[-1] + 1, n - size + len(node) + 1):
            enumerate_node(node + [x])

    for root in range(n - size + 1) if config.symmetry == "none" else [0]:
        enumerate_node([root])

    def descend(node, partial, outcomes):
        for x in range(node[-1] + 1, n - size + len(node) + 1):
            child = node + [x]
            spectrum = partial + ctx.char_matrix[:, x]
            if len(child) < size:
                if affine and not chain_is_canonical(ctx.reducer, child):
                    outcomes.append("symmetry")
                    continue
                outcomes.append("open")
                descend(child, spectrum, outcomes)
                continue
            q = np.abs(spectrum) ** 2 / ratio
            if (np.abs(q - np.round(q)) * ratio).max() > FLOAT_SCREEN_TOL:
                outcomes.append("screen")
            elif affine and not chain_is_canonical(ctx.reducer, child):
                outcomes.append("symmetry")
            elif leaf_test(ctx.spec, ElementSet.from_indices(child)) is None:
                outcomes.append("leaf")
            else:
                outcomes.append(tuple(child))

    tasks = []
    for task in task_nodes:
        outcomes = []
        descend(list(task), ctx.char_matrix[:, list(task)].sum(axis=1), outcomes)
        tasks.append((task, outcomes))
    return frontier, tasks


def reference_result(walk, budget=None):
    """Stats counts, completeness and hit list of a run with this budget.

    Every node costs one unit.  The frontier is enumerated in full even
    past the budget.  Tasks then run in order while units remain; a task
    cut short counts its nodes up to the stop, and its hits are dropped,
    since it has to be rerun on resume.
    """
    frontier, tasks = walk
    left = float("inf") if budget is None else max(0, budget - len(frontier))
    counted = list(frontier)
    hits = []
    done = 0
    for _, outcomes in tasks:
        if left <= 0:
            break
        counted += outcomes[: int(min(left, len(outcomes)))]
        if left < len(outcomes):
            break
        left -= len(outcomes)
        hits += [o for o in outcomes if isinstance(o, tuple)]
        done += 1
    kinds = Counter("hit" if isinstance(o, tuple) else o for o in counted)
    stats = {
        "nodes_visited": len(counted),
        "leaves_tested": kinds["leaf"] + kinds["hit"],
        "pruned_by_symmetry": kinds["symmetry"],
        "pruned_by_screen": kinds["screen"],
        "hits": kinds["hit"],
    }
    return stats, done == len(tasks), sorted(hits)


# ---------------------------------------------------------------------------
# abelian group inventory
# ---------------------------------------------------------------------------


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def abelian_group_orders(max_order, min_order=2):
    """Cyclic-factor tuples of every abelian group of order <= max_order,
    in prime-power form (one tuple per isomorphism class)."""
    out = []
    for n in range(min_order, max_order + 1):
        factorization = []
        m, p = n, 2
        while p * p <= m:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factorization.append((p, e))
            p += 1
        if m > 1:
            factorization.append((m, 1))
        per_prime = []
        for p, e in factorization:
            per_prime.append([tuple(p ** part for part in parts) for parts in _partitions(e)])
        for combo in itertools.product(*per_prime):
            orders = tuple(sorted(itertools.chain.from_iterable(combo)))
            out.append(orders)
    return out
