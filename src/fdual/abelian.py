"""Finite abelian groups given as products of cyclic factors.

A group is named by a :class:`GroupSpec` holding the cyclic factor orders
(n1, ..., nk), written additively.  Elements are coordinate tuples reduced
mod the factor orders and are identified with indices 0..N-1 through the
mixed-radix encoding whose LAST coordinate varies fastest.  That encoding
is part of the on-disk formats (certificates, checkpoints) and must never
change.

Subsets of a group are :class:`ElementSet` bitmasks over element indices.
Characters never appear as a separate dual group: a :class:`PairingMatrix`
indexes them by group elements.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Aut(G) is enumerated in full, one (|Aut|, |G|) int16 table; this cap on
# its closed-form order keeps a group with huge symmetry (e.g. Z_2^6,
# Z_2^4 x Z_4) from blowing up.  Such a group gets the identity alone.
DEFAULT_AUT_CAP = 1 << 18

MAX_GROUP_ORDER = 256


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_n1 x ... x Z_nk in additive notation."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.orders)
        if not orders:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def order(self) -> int:
        """Number of elements N."""
        return prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        """lcm of the factor orders; every character value is an m-th root of unity."""
        return lcm(*self.orders)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        # mixed-radix place values, last coordinate fastest
        w = [1] * len(self.orders)
        for i in range(len(self.orders) - 2, -1, -1):
            w[i] = w[i + 1] * self.orders[i + 1]
        return tuple(w)

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (N, k) int64 array: row i holds the coordinates of element i.

        Group arithmetic on indices is arithmetic on these rows followed by
        :meth:`index_of`, which reduces: ``index_of(coords[a] - coords[b])``
        is the index of a - b, for single indices and index arrays alike.
        """
        out = np.array(list(self.elements()), dtype=np.int64)
        out.setflags(write=False)
        return out

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return tuple(int(c) % n for c, n in zip(coords, self.orders))

    def index_of(self, coords):
        """Mixed-radix index of coordinates, reduced mod the factor orders first.

        A sequence of k ints gives an int.  An integer array whose last axis
        has length k gives the array of indices over its other axes.
        """
        if isinstance(coords, np.ndarray):
            if coords.shape[-1:] != (self.rank,):
                raise ValueError(
                    f"expected {self.rank} coordinates on the last axis, got shape {coords.shape}"
                )
            return (coords % np.array(self.orders)) @ np.array(self._weights)
        return sum(c * w for c, w in zip(self.reduce(coords), self._weights))

    def element(self, index: int) -> tuple[int, ...]:
        """Coordinate tuple of an element index; rejects out-of-range indices."""
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range [0, {self.order})")
        return tuple((index // w) % n for w, n in zip(self._weights, self.orders))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements in index order (itertools.product varies the last slot fastest)."""
        return itertools.product(*(range(n) for n in self.orders))

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the unit vectors e_1, ..., e_k."""
        out = []
        for i in range(self.rank):
            unit = [0] * self.rank
            unit[i] = 1 if self.orders[i] > 1 else 0
            out.append(self.index_of(unit))
        return tuple(out)

    def to_dict(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        if not isinstance(data, dict) or set(data) != {"orders"}:
            raise ValueError("group spec must be an object with exactly the key 'orders'")
        orders = data["orders"]
        if not isinstance(orders, list) or not orders:
            raise ValueError("group orders must be a non-empty list of integers")
        if any(not isinstance(n, int) or isinstance(n, bool) for n in orders):
            raise ValueError("group orders must be integers")
        return cls(tuple(orders))


class ElementSet:
    """Immutable subset of element indices backed by an int bitmask."""

    __slots__ = ("mask", "_card")

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_card", mask.bit_count())

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"negative element index {i}")
            mask |= 1 << i
        return cls(mask)

    @classmethod
    def from_coords(cls, spec: GroupSpec, coords_seq: Iterable[Sequence[int]]) -> "ElementSet":
        return cls.from_indices(spec.index_of(c) for c in coords_seq)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def coords(self, spec: GroupSpec) -> list[tuple[int, ...]]:
        return [spec.element(i) for i in self]

    def __contains__(self, i: int) -> bool:
        return i >= 0 and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self._card

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ElementSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"ElementSet({{{', '.join(map(str, self))}}})"


def translate(spec: GroupSpec, s: ElementSet, v: int) -> ElementSet:
    """The set s + v."""
    moved = spec.index_of(spec.coords[list(s)] + spec.coords[v])
    return ElementSet.from_indices(moved.tolist())


def negate_set(spec: GroupSpec, s: ElementSet) -> ElementSet:
    return ElementSet.from_indices(spec.index_of(-spec.coords[list(s)]).tolist())


def subgroup_generated(spec: GroupSpec, gens: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup containing the generators (always contains 0).

    A generator g outside the members H grows them to H + <g> by doubling:
    H + {0, ..., 2^j - 1} g gains its shift by 2^j g until a shift adds
    nothing, which happens once it is closed under adding g.  No temporary
    exceeds |G| x k.
    """
    members = np.zeros(spec.order, dtype=bool)
    members[0] = True
    for g in gens:
        if members[g]:
            continue
        step = spec.coords[g]
        while True:
            moved = spec.index_of(spec.coords[members] + step)
            if members[moved].all():
                break
            members[moved] = True
            step = 2 * step
    return ElementSet.from_indices(np.flatnonzero(members).tolist())


def stabilizer(spec: GroupSpec, s: ElementSet) -> ElementSet:
    """{h in G : h + s = s}; a subgroup of G.  Rejects the empty set.

    Such an h moves the first element s0 into S, so the candidates are
    S - s0 and the test is one |S| x |S| array.
    """
    if not s:
        raise ValueError("stabilizer of the empty set is undefined")
    idx = list(s)
    inside = np.zeros(spec.order, dtype=bool)
    inside[idx] = True
    rows = spec.coords[idx]
    cands = rows - rows[0]
    moved = spec.index_of(rows[None, :, :] + cands[:, None, :])
    fixers = spec.index_of(cands[inside[moved].all(axis=1)])
    return ElementSet.from_indices(fixers.tolist())


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """Bilinear form B : G x G -> Z_m given by B(x, y) = sum x_i M_ij y_j mod m.

    The associated pairing is <x, y> = zeta_m^B(x, y).  Well-definedness
    (n_i * M_ij == 0 == M_ij * n_j mod m) is enforced at construction: every
    exactness argument downstream assumes it.
    """

    spec: GroupSpec
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = self.spec.rank
        m = self.spec.exponent
        rows = tuple(tuple(int(e) % m for e in row) for row in self.entries)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"pairing matrix must be {k}x{k}")
        for i in range(k):
            for j in range(k):
                e = rows[i][j]
                ni, nj = self.spec.orders[i], self.spec.orders[j]
                if (ni * e) % m != 0 or (e * nj) % m != 0:
                    raise ValueError(
                        f"entry M[{i}][{j}]={e} is not well-defined: "
                        f"needs n_i*M_ij == M_ij*n_j == 0 mod {m}"
                    )
        object.__setattr__(self, "entries", rows)

    @cached_property
    def _matrix(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def exponents(self, xs: Iterable[int], ys: Iterable[int]) -> np.ndarray:
        """B(x, y) mod m for x in xs and y in ys, as a (len(xs), len(ys)) int64
        array; xs and ys are element indices, e.g. a range or an ElementSet."""
        coords, m = self.spec.coords, self.spec.exponent
        left = (coords[list(xs)] @ self._matrix) % m
        return (left @ coords[list(ys)].T) % m

    @cached_property
    def is_nondegenerate(self) -> bool:
        """True iff x -> B(x, .) has trivial kernel (B against the generators suffices)."""
        against_gens = self.exponents(range(self.spec.order), self.spec.generator_indices())
        return not (against_gens[1:] == 0).all(axis=1).any()

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def standard_pairing(spec: GroupSpec) -> PairingMatrix:
    """Diagonal pairing M_ii = m / n_i; nondegenerate by construction."""
    m = spec.exponent
    k = spec.rank
    rows = tuple(
        tuple(m // spec.orders[i] if i == j else 0 for j in range(k))
        for i in range(k)
    )
    return PairingMatrix(spec, rows)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism as a permutation table of element indices."""

    table: tuple[int, ...]

    def map_set(self, s: ElementSet) -> ElementSet:
        return ElementSet.from_indices(self.table[i] for i in s)

    def is_identity(self) -> bool:
        return all(t == i for i, t in enumerate(self.table))

    def validate(self, spec: GroupSpec) -> None:
        """Exhaustively check bijectivity, pi(0)=0 and additivity; raises on failure."""
        n = spec.order
        if len(self.table) != n or sorted(self.table) != list(range(n)):
            raise ValueError("table is not a permutation of the element indices")
        if self.table[0] != 0:
            raise ValueError("automorphism must fix 0")
        table = np.array(self.table)
        coords = spec.coords
        for x in range(n):
            image_of_sum = table[spec.index_of(coords[x] + coords[x:])]
            sum_of_images = spec.index_of(coords[table[x]] + coords[table[x:]])
            bad = np.flatnonzero(image_of_sum != sum_of_images)
            if bad.size:
                raise ValueError(f"not additive at ({x}, {x + int(bad[0])})")


@dataclass(frozen=True, eq=False)
class AutomorphismGroup:
    """Automorphisms of a group, tables stacked in a (A, N) int array.

    ``complete`` is False when |Aut(G)| is above the cap; the tables then
    hold the identity alone, which is all symmetry pruning needs for
    soundness.
    """

    spec: GroupSpec
    tables: np.ndarray
    complete: bool

    def __len__(self) -> int:
        return int(self.tables.shape[0])

    def __getitem__(self, i: int) -> Automorphism:
        return Automorphism(tuple(int(v) for v in self.tables[i]))

    def __iter__(self) -> Iterator[Automorphism]:
        for i in range(len(self)):
            yield self[i]

    @cached_property
    def reducer(self) -> "AffineReducer":
        """Affine canonical forms over this group, built once and shared."""
        return AffineReducer(self.spec, self)


@lru_cache(maxsize=None)
def _add_table(spec: GroupSpec) -> np.ndarray:
    """(N, N) table of index addition."""
    coords = spec.coords
    return spec.index_of(coords[:, None, :] + coords[None, :, :]).astype(np.int16)


@lru_cache(maxsize=None)
def _sub_table(spec: GroupSpec) -> np.ndarray:
    """(N, N) table with entry [v, x] = index(x - v)."""
    coords = spec.coords
    return spec.index_of(coords[None, :, :] - coords[:, None, :]).astype(np.int16)


@lru_cache(maxsize=None)
def _multiples(spec: GroupSpec) -> np.ndarray:
    """(m, N) table of t*g for t = 0..m-1, m the exponent."""
    t = np.arange(spec.exponent)[:, None, None]
    return spec.index_of(t * spec.coords[None, :, :]).astype(np.int16)


def _factorize(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def aut_order(spec: GroupSpec) -> int:
    """|Aut(G)| in closed form, with nothing enumerated.

    Aut(G) is the product over primes p of Aut of the p-part.  A p-group
    with cyclic factors of orders p^e_1 <= ... <= p^e_r has
    prod_k (p^d_k - p^(k-1)) * p^(e_k (r - d_k)) * p^((e_k - 1)(r - c_k + 1))
    automorphisms, where d_k and c_k are the largest and least (1-based) l
    with e_l = e_k (Hillar and Rhea, "Automorphisms of finite abelian
    groups", Amer. Math. Monthly 2007).
    """
    exps: dict[int, list[int]] = {}
    for n in spec.orders:
        for p, e in _factorize(n).items():
            exps.setdefault(p, []).append(e)
    total = 1
    for p, es in exps.items():
        es.sort()
        r = len(es)
        for k, e in enumerate(es, 1):
            d, c = bisect_right(es, e), bisect_left(es, e) + 1
            total *= (p**d - p ** (k - 1)) * p ** (e * (r - d)) * p ** ((e - 1) * (r - c + 1))
    return total


# blocks of the image enumeration have at most _IMAGE_BLOCK // |G| rows, so
# none of its (rows, |G|) temporaries exceeds _IMAGE_BLOCK entries
_IMAGE_BLOCK = 1 << 20


def _aut_images(spec: GroupSpec, allowed: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Generator-image tuples of the automorphisms, in lexicographic order,
    as (B, k) blocks of at most ``_IMAGE_BLOCK // |G|`` rows.

    An image tuple (g_1, ..., g_k) with n_i * g_i = 0 defines a homomorphism
    Z_n1 x ... x Z_nk -> G, e_i -> g_i, and it is an automorphism iff it is
    injective: no element of prime order maps to 0.  For each prime p those
    elements span the p-socle, which has the basis (n_i / p) e_i over the
    slots with p | n_i.  So a tuple is an automorphism iff each socle image
    (n_i / p) g_i lies outside the span of the earlier ones.  The tuples
    grow slot by slot; each prefix carries the list of its span (the socle
    images of all primes together, a direct sum) and survives while every
    new socle image falls outside it.  ``allowed``, a (k, |G|) boolean
    array, further restricts slot i to the elements it marks.
    """
    n, k, m = spec.order, spec.rank, spec.exponent
    mult, add = _multiples(spec), _add_table(spec)
    cands = []
    for i, ni in enumerate(spec.orders):
        ok = mult[ni % m] == 0
        cands.append(np.flatnonzero(ok if allowed is None else ok & allowed[i]))
    primes = [list(_factorize(ni)) for ni in spec.orders]
    block = max(1, _IMAGE_BLOCK // n)

    def extend(images: np.ndarray, span: np.ndarray) -> Iterator[np.ndarray]:
        i = images.shape[1]
        if i == k:
            yield images
            return
        c, ni = cands[i], spec.orders[i]
        inside = np.zeros((len(images), n), dtype=bool)
        inside[np.arange(len(images))[:, None], span] = True
        ok = np.ones((len(images), len(c)), dtype=bool)
        for p in primes[i]:
            ok &= ~inside[:, mult[ni // p, c]]
        rows, cols = np.nonzero(ok)
        for lo in range(0, len(rows), block):
            r, g = rows[lo : lo + block], c[cols[lo : lo + block]]
            grown = span[r]
            if i + 1 < k:
                for p in primes[i]:
                    steps = mult[:p, mult[ni // p, g]].T
                    grown = add[grown[:, :, None], steps[:, None, :]].reshape(len(r), -1)
            yield from extend(np.column_stack((images[r], g)), grown)

    yield from extend(np.zeros((1, 0), dtype=np.intp), np.zeros((1, 1), dtype=np.int16))


def _tables_from_images(spec: GroupSpec, images: np.ndarray) -> np.ndarray:
    """(B, N) index tables of the automorphisms with generator images
    ``images`` (B, k).  x = (x_1, ..., x_k) maps to x_1 g_1 + ... + x_k g_k,
    built one slot at a time in index order, last coordinate fastest."""
    add, mult = _add_table(spec), _multiples(spec)
    tables = np.zeros((len(images), 1), dtype=np.int16)
    for i, ni in enumerate(spec.orders):
        steps = mult[:ni, images[:, i]].T
        tables = add[tables[:, :, None], steps[:, None, :]].reshape(len(images), -1)
    return tables


@lru_cache(maxsize=None)
def automorphism_group(spec: GroupSpec, cap: int = DEFAULT_AUT_CAP) -> AutomorphismGroup:
    """All of Aut(G) as index tables, rows in lexicographic order of the
    generator images, when |Aut(G)| is at most ``cap``.

    The closed-form order decides the cap before anything is enumerated.
    Above it the tables hold the identity alone, flagged incomplete.
    Requires |G| <= 256.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if spec.order > MAX_GROUP_ORDER:
        raise ValueError(
            f"automorphism enumeration supports |G| <= {MAX_GROUP_ORDER}, got {spec.order}"
        )
    count = aut_order(spec)
    complete = count <= cap
    if not complete:
        tables = np.arange(spec.order, dtype=np.int16)[None, :]
    else:
        tables = np.empty((count, spec.order), dtype=np.int16)
        filled = 0
        for images in _aut_images(spec):
            tables[filled : filled + len(images)] = _tables_from_images(spec, images)
            filled += len(images)
        if filled != count:
            raise AssertionError(f"enumerated {filled} automorphisms, expected {count}")
    tables.setflags(write=False)
    return AutomorphismGroup(spec=spec, tables=tables, complete=complete)


def pairing_from_automorphism(base: PairingMatrix, alpha: Automorphism) -> PairingMatrix:
    """The pairing B'(x, y) = B(alpha(x), y); nondegenerate when base is.

    Every isomorphism G -> G^ is standard_pairing composed with some
    automorphism, so ranging alpha over Aut(G) ranges B' over all pairings.
    """
    spec = base.spec
    images = [alpha.table[g] for g in spec.generator_indices()]
    rows = (spec.coords[images] @ base._matrix) % spec.exponent
    return PairingMatrix(spec, tuple(map(tuple, rows.tolist())))


# ---------------------------------------------------------------------------
# Affine-orbit canonical forms
# ---------------------------------------------------------------------------


class _ChainLevel(NamedTuple):
    """One link of a point-stabilizer chain of Aut(G).

    ``auts`` holds the rows of the automorphism table that fix the level's
    prefix pointwise.  ``om[g]`` is the least element of g's orbit under
    them, and the table row starting at flat offset ``rho[g]`` sends g
    there.  ``om`` is |G| at 0 and at the prefix, so matched elements never
    count as a smallest next element.  Both are None once only the identity
    is left.
    """

    auts: np.ndarray
    om: np.ndarray | None
    rho: np.ndarray | None


# a canonicity walk takes its extensions in blocks whose translate rows hold
# at most _WALK_ENTRIES entries; an advance can multiply the rows by up to
# |S|, so this keeps the walk's temporaries to a few MB
_WALK_ENTRIES = 1 << 14


class AffineReducer:
    """Orbit minima of subsets under automorphisms composed with translations.

    The canonical form of a set S is the lexicographically smallest sorted
    index tuple among { pi(S) - v : pi in Aut(G), v in pi(S) }, so every
    image contains 0.  As pi(S) - pi(u) = pi(S - u), these are the
    automorphic images of the |S| translates S - u with u in S.

    Both walks go down a chain of point stabilizers Aut(G) = S_0 > S_1 > ...
    along a prefix (x1, x2, ...), where S_L fixes x1..xL pointwise (Sims'
    stabilizer chain, as in orderly generation).  The walk starts from the
    translates.  At level L the least next element any image can take is
    the least S_L-orbit minimum among the unmatched elements of the rows;
    only the rows attaining it go on, each mapped by one element of S_L that
    puts it in place.  Once S_L is the identity alone, the rows are the
    images themselves and are compared as sorted lists.  Levels are built
    on first use and cached by prefix, which the depth-first search shares
    between neighbouring nodes.

    ``canonical_extensions`` tests the one- or two-element extensions of a
    node in a single walk: their prefixes are the node's except for the
    last level of a two-element tail, so the rows of all of them go down
    together.  ``canonical_children`` is that walk with the node's children
    and ``is_canonical`` with one child.  ``canonical_form`` takes the same
    chain, choosing the minimum at each level.

    A capped group holds the identity alone, so the orbit is the
    translation orbit: exact for that group and sound for pruning, though
    equivalent sets may get different forms.
    """

    # prefixes kept in the level cache before it is emptied
    MAX_CACHED_LEVELS = 1 << 14

    def __init__(self, spec: GroupSpec, auts: AutomorphismGroup):
        if auts.spec != spec:
            raise ValueError("automorphism group belongs to a different group spec")
        self.spec = spec
        self.tables = auts.tables
        self._flat = self.tables.ravel()
        self._sub = _sub_table(spec)
        self._root = self._make_level(np.arange(len(self.tables)), self.tables, ())
        self._levels: dict[tuple[int, ...], _ChainLevel] = {}

    def _make_level(
        self, auts: np.ndarray, block: np.ndarray, prefix: tuple[int, ...]
    ) -> _ChainLevel:
        """Level over the automorphisms ``auts`` whose tables are ``block``."""
        if len(auts) == 1:
            return _ChainLevel(auts, None, None)
        n = self.spec.order
        om = block.min(axis=0)
        rho = auts[block.argmin(axis=0)] * n
        om[[0, *prefix]] = n
        return _ChainLevel(auts, om, rho)

    def _level(self, prefix: tuple[int, ...]) -> _ChainLevel:
        """The chain level fixing ``prefix``, built from its parent on first use."""
        if not prefix:
            return self._root
        level = self._levels.get(prefix)
        if level is None:
            parent = self._level(prefix[:-1])
            x = prefix[-1]
            auts = parent.auts[self.tables[parent.auts, x] == x]
            level = self._make_level(auts, self.tables[auts], prefix)
            if len(self._levels) >= self.MAX_CACHED_LEVELS:
                self._levels.clear()
            self._levels[prefix] = level
        return level

    def _advance(
        self, level: _ChainLevel, rows: np.ndarray, om: np.ndarray, target: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows whose next element can be ``target``, mapped so that it is,
        and the index of the row each came from.  ``target`` is one value or
        a column with one value per row."""
        hit = np.flatnonzero(om == target)
        src = hit // rows.shape[1]
        kept = rows.take(src, axis=0)
        return self._flat[level.rho[rows.ravel()[hit]][:, None] + kept], src

    def is_canonical(self, indices: Sequence[int]) -> bool:
        """True iff the sorted index list is its own canonical form."""
        node = list(map(int, indices))
        return bool(self.canonical_extensions(node[:-1], [node[-1:]])[0])

    def canonical_children(self, node: Sequence[int], cands: Sequence[int]) -> np.ndarray:
        """Boolean array equal to ``[is_canonical(node + [y]) for y in cands]``."""
        return self.canonical_extensions(node, np.asarray(cands, dtype=np.intp))

    def canonical_extensions(self, node: Sequence[int], tails) -> np.ndarray:
        """Boolean array equal to ``[is_canonical(node + list(t)) for t in tails]``
        for a (k, w) array of increasing tails above the node, w = 1 or 2 (a
        1-D array is read as k tails of width 1).

        Hot path of the search pruning.  The extensions share the chain
        levels of the node's prefix, so the walk goes down once with the
        translate rows of every extension stacked and ``ext`` naming the
        extension of each row.  At each level an extension drops out when
        one of its rows can take a smaller next element than its own; the
        rows of the others that attain it go on.  A tail (x, a) meets one
        more level, the one fixing node[1:] + (x,): it differs per x only,
        so its ``om`` arrays are stacked, one per x, and gathered per row.
        At an identity level above the last position each extension's rows
        are compared with it as sorted lists.
        """
        node = list(map(int, node))
        tails = np.asarray(tails, dtype=np.intp)
        if tails.ndim == 1:
            tails = tails[:, None]
        k, w = tails.shape
        if not node:
            out = tails[:, 0] == 0
            if w == 2:
                out[out] = self.canonical_extensions([0], tails[out, 1:])
            return out
        out = np.zeros(k, dtype=bool)
        if node[0] != 0 or not k:
            return out
        d, size = len(node), len(node) + w
        block = max(1, _WALK_ENTRIES // (size * size))
        if k > block:
            return np.concatenate([
                self.canonical_extensions(node, tails[lo : lo + block])
                for lo in range(0, k, block)
            ])
        full = np.empty((k, size), dtype=np.intp)
        full[:, :d] = node
        full[:, d:] = tails
        rows = self._sub[full[:, :, None], full[:, None, :]].reshape(-1, size)
        ext = np.repeat(np.arange(k), size)
        for depth in range(1, size):
            if depth <= d:
                level = self._level(tuple(node[1:depth]))
                if level.om is None:
                    images = np.sort(rows, axis=1)
                    ref = full[ext]
                    first = (images != ref).argmax(axis=1)
                    smaller = (images < ref)[np.arange(len(ext)), first]
                    out[ext] = True
                    out[ext[smaller]] = False
                    return out
                om = level.om[rows]
            else:
                om = self._last_minima(tuple(node[1:]), tails[ext, 0], rows)
            target = full[ext, depth][:, None]
            low = om.min(axis=1) < target[:, 0]
            if low.any():
                dead = np.zeros(k, dtype=bool)
                dead[ext[low]] = True
                keep = ~dead[ext]
                rows, om, target, ext = rows[keep], om[keep], target[keep], ext[keep]
                if not len(ext):
                    return out
            if depth < size - 1:
                rows, src = self._advance(level, rows, om, target)
                ext = ext[src]
        out[ext] = True
        return out

    def _last_minima(self, prefix: tuple[int, ...], xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``om`` of each row under the level fixing prefix + (x,), one x per
        row, for the last position.  Where that level is the identity, the
        one element left unmatched is its own orbit minimum."""
        n = self.spec.order
        present = np.zeros(n, dtype=bool)
        present[xs] = True
        distinct = np.flatnonzero(present).tolist()
        stack = np.empty((len(distinct), n), dtype=self.tables.dtype)
        for i, x in enumerate(distinct):
            om = self._level(prefix + (x,)).om
            if om is None:
                om = np.arange(n)
                om[[0, *prefix, x]] = n
            stack[i] = om
        which = np.empty(n, dtype=np.intp)
        which[distinct] = np.arange(len(distinct))
        return stack[which[xs][:, None], rows]

    def canonical_form(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Lexicographic orbit minimum; one walk, since the orbit is a group orbit."""
        s = np.array(sorted(set(map(int, indices))))
        rows = self._sub[s[:, None], s]
        prefix: tuple[int, ...] = ()
        for _ in range(1, len(s)):
            level = self._level(prefix)
            if level.om is None:
                break
            om = level.om[rows]
            target = int(om.min())
            rows, _ = self._advance(level, rows, om, target)
            prefix += (target,)
        return tuple(min(np.sort(rows, axis=1).tolist()))


def affine_canonical_form(
    spec: GroupSpec, s: ElementSet, auts: AutomorphismGroup
) -> ElementSet:
    """Canonical representative of the affine orbit of a nonempty set."""
    if not s:
        raise ValueError("canonical form of the empty set is undefined")
    return ElementSet.from_indices(auts.reducer.canonical_form(s.indices))
