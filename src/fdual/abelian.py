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
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Aut(G) is enumerated in full, one (|Aut|, |G|) uint8 table (every index
# fits, as |G| <= MAX_GROUP_ORDER); this cap on its closed-form order keeps
# a group with huge symmetry (e.g. Z_2^6, Z_2^4 x Z_4) from blowing up.
# Such a group gets the identity alone.
DEFAULT_AUT_CAP = 1 << 18

MAX_GROUP_ORDER = 256


def _is_int(value) -> bool:
    """True for an integer; bools are not (JSON ``true`` is no coordinate).
    A plain int, by far the most common, skips the slower ABC check."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


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
        Equal specs share one array.
        """
        return _coords(self)

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
        if not all(map(_is_int, orders)):
            raise ValueError("group orders must be integers")
        return cls(tuple(orders))


@lru_cache(maxsize=None)
def _coords(spec: GroupSpec) -> np.ndarray:
    """``GroupSpec.coords``, built once per value of the orders."""
    out = np.array(list(spec.elements()), dtype=np.int64)
    out.setflags(write=False)
    return out


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

    def __reduce__(self):
        return ElementSet, (self.mask,)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"negative element index {i}")
            mask |= 1 << i
        return cls(mask)

    @classmethod
    def from_coords(cls, spec: GroupSpec, coords_seq, label: str = "set") -> "ElementSet":
        """The set of a non-empty list of coordinate vectors, each a list (or
        tuple) of spec.rank integers with 0 <= c_i < n_i.  Anything else
        raises ValueError naming ``label``; repeated vectors collapse."""
        if not isinstance(coords_seq, (list, tuple)) or not coords_seq:
            raise ValueError(f"{label} must be a non-empty list of coordinate vectors")
        for item in coords_seq:
            if not isinstance(item, (list, tuple)) or len(item) != spec.rank:
                raise ValueError(
                    f"{label} entries must be length-{spec.rank} coordinate lists, got {item!r}"
                )
            if not all(map(_is_int, item)):
                raise ValueError(f"{label} coordinates must be integers, got {item!r}")
            if any(not 0 <= c < n for c, n in zip(item, spec.orders)):
                raise ValueError(
                    f"{label} entry {item!r} has coordinates outside the factor orders "
                    f"{list(spec.orders)}"
                )
        return cls.from_indices(spec.index_of(np.array(coords_seq, dtype=np.int64)).tolist())

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


def _difference_counts(spec: GroupSpec, s: ElementSet) -> np.ndarray:
    """nu_S as an array: entry d counts the ordered pairs of S with difference d."""
    rows = spec.coords[list(s)]
    diffs = spec.index_of(rows[:, None, :] - rows[None, :, :])
    return np.bincount(diffs.ravel(), minlength=spec.order)


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
        if not all(_is_int(e) for row in self.entries for e in row):
            raise ValueError(f"pairing entries must be integers, got {self.entries!r}")
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
        """True iff x -> B(x, .) has trivial kernel; decided once per value
        of (orders, entries)."""
        return _nondegenerate(self)

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@lru_cache(maxsize=None)
def _nondegenerate(pairing: PairingMatrix) -> bool:
    """``PairingMatrix.is_nondegenerate``.  B against the generators
    suffices, and B(x, e_j) is column j of x M."""
    against_gens = (pairing.spec.coords @ pairing._matrix) % pairing.spec.exponent
    return not (against_gens[1:] == 0).all(axis=1).any()


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


@lru_cache(maxsize=None)
def _add_table(spec: GroupSpec) -> np.ndarray:
    """(N, N) table of index addition."""
    coords = spec.coords
    return spec.index_of(coords[:, None, :] + coords[None, :, :]).astype(np.uint8)


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


# blocks of the automorphism enumeration, and of the row scan that builds a
# chain level, have at most _IMAGE_BLOCK // |G| rows, so none of their
# (rows, |G|) temporaries, the int64 gather indices among them, exceeds
# _IMAGE_BLOCK entries (1 MB)
_IMAGE_BLOCK = 1 << 17


@lru_cache(maxsize=None)
def galois_classes(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """The classes {u*t : u a unit mod the exponent m} of G, i.e. the sets of
    generators of its cyclic subgroups, as read-only arrays (reps, slot):
    reps lists the least element of each class in ascending order, and
    reps[slot[t]] is the least element of t's class.  reps[0] is 0.

    B(u*t, x) = u*B(t, x), so the character values |chi_(u*t)(S)|^2 are the
    Galois conjugates of |chi_t(S)|^2: equal to it when it is an integer,
    and not integers when it is not.  Any group is accepted; elements and
    units go in blocks, so no temporary exceeds ``_IMAGE_BLOCK`` entries.
    """
    n, m = spec.order, spec.exponent
    units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    least = np.arange(n)
    block = max(1, _IMAGE_BLOCK // spec.rank)
    for lo in range(0, n, block):
        coords, out = spec.coords[lo : lo + block], least[lo : lo + block]
        step = max(1, _IMAGE_BLOCK // coords.size)
        for u in range(0, len(units), step):
            images = spec.index_of(units[u : u + step, None, None] * coords)
            np.minimum(out, images.min(axis=0), out=out)
    reps = np.flatnonzero(least == np.arange(n))
    slot = np.empty(n, dtype=np.intp)
    slot[reps] = np.arange(len(reps))
    slot = slot[least]
    reps.setflags(write=False)
    slot.setflags(write=False)
    return reps, slot


def _check_order(spec: GroupSpec) -> None:
    """Reject a group whose indices do not fit the uint8 tables."""
    if spec.order > MAX_GROUP_ORDER:
        raise ValueError(
            f"automorphism enumeration supports |G| <= {MAX_GROUP_ORDER}, got {spec.order}"
        )


def _aut_tables(spec: GroupSpec, match: tuple | None = None) -> Iterator[np.ndarray]:
    """Index tables of the automorphisms, rows in lexicographic order of the
    generator images, as (B, |G|) uint8 blocks of at most
    ``_IMAGE_BLOCK // |G|`` rows.  Raises ValueError, on the call, for
    |G| > ``MAX_GROUP_ORDER``.

    Images g_i with n_i g_i = 0 define the map x -> x_1 g_1 + ... + x_k g_k.
    A prefix (g_1, ..., g_i) carries its partial table, the images of
    (x_1, ..., x_i) in index order, last coordinate fastest; slot i + 1
    extends it by one gather through the addition table, entry a * n_(i+1)
    + y becoming T[a] + y g.  While the prefix is injective its table lists
    the subgroup H_i it generates, and g keeps it injective iff
    (n_(i+1) / p) g lies outside H_i for every prime p | n_(i+1).

    ``match`` = (E, target), two length-|G| arrays, keeps only the alpha
    with E[alpha(x)] == target[x] for all x: slot i admits only the g with
    E[g] == target[e_i], and a prefix is dropped as soon as its table fails
    on its own domain, the elements (x_1, ..., x_i, 0, ..., 0).
    """
    _check_order(spec)
    n, m = spec.order, spec.exponent
    mult, add = _multiples(spec), _add_table(spec).ravel()
    cands = []
    for ni, e in zip(spec.orders, spec.generator_indices()):
        ok = mult[ni % m] == 0
        if match is not None:
            ok &= match[0] == match[1][e]
        cands.append(np.flatnonzero(ok))
    primes = [list(_factorize(ni)) for ni in spec.orders]
    block = max(1, _IMAGE_BLOCK // n)

    def extend(tables: np.ndarray, i: int) -> Iterator[np.ndarray]:
        if i == spec.rank:
            yield tables
            return
        c, ni = cands[i], spec.orders[i]
        inside = np.zeros((len(tables), n), dtype=bool)
        inside[np.arange(len(tables))[:, None], tables] = True
        ok = np.ones((len(tables), len(c)), dtype=bool)
        for p in primes[i]:
            ok &= ~inside[:, mult[ni // p, c]]
        rows, cols = np.nonzero(ok)
        for lo in range(0, len(rows), block):
            r, g = rows[lo : lo + block], c[cols[lo : lo + block]]
            sums = np.repeat(tables[r].astype(np.intp) * n, ni, axis=1)
            grown = add.take(sums + np.tile(mult[:ni, g].T, tables.shape[1]))
            if match is not None:
                domain = np.arange(0, n, n // grown.shape[1])
                grown = grown[(match[0][grown] == match[1][domain]).all(axis=1)]
            if len(grown):
                yield from extend(grown, i + 1)

    return extend(np.zeros((1, 1), dtype=np.uint8), 0)


@lru_cache(maxsize=None)
def automorphism_group(spec: GroupSpec) -> np.ndarray:
    """All of Aut(G), when |Aut(G)| is at most ``DEFAULT_AUT_CAP``, as one
    read-only (A, |G|) uint8 table whose row for alpha lists alpha(x) for
    x = 0..|G|-1, rows in lexicographic order of the generator images.

    The closed-form order decides the cap before anything is enumerated.
    Above it the table holds the identity row alone, fewer rows than
    ``aut_order(spec)``.  The uint8 table needs |G| <= ``MAX_GROUP_ORDER``.
    """
    _check_order(spec)
    count = aut_order(spec)
    if count > DEFAULT_AUT_CAP:
        tables = np.arange(spec.order, dtype=np.uint8)[None, :]
    else:
        tables = np.empty((count, spec.order), dtype=np.uint8)
        filled = 0
        for block in _aut_tables(spec):
            tables[filled : filled + len(block)] = block
            filled += len(block)
        if filled != count:
            raise AssertionError(f"enumerated {filled} automorphisms, expected {count}")
    tables.setflags(write=False)
    return tables


def pairing_from_automorphism(base: PairingMatrix, table: np.ndarray) -> PairingMatrix:
    """The pairing B'(x, y) = B(alpha(x), y), alpha given by its index table
    row; nondegenerate when base is.

    Every isomorphism G -> G^ is standard_pairing composed with some
    automorphism, so ranging alpha over Aut(G) ranges B' over all pairings.
    """
    spec = base.spec
    images = table[list(spec.generator_indices())]
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
    count as a smallest next element; it is int16, as |G| can be 256.  Both
    are None once only the identity is left.
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
    images themselves and are compared as sets.  Levels are built on first
    use and cached by prefix, which the depth-first search shares between
    neighbouring nodes.

    ``canonical_extensions`` tests the one- to three-element extensions of
    a node in a single walk: their prefixes are the node's except for the
    levels fixing the tail's first elements, which each row takes from a
    stack, so the rows of all of them go down together; ``is_canonical``
    is that walk with one child.
    ``canonical_form`` takes the same chain, choosing the minimum at each
    level.

    ``tables`` holds the automorphisms as rows (``automorphism_group``).
    With fewer rows than |Aut(G)|, as a capped group's identity row, the
    reducer is not ``complete``; the identity alone gives the translation
    orbit: exact for that table and sound for pruning, though equivalent
    sets may get different forms.
    """

    # prefixes kept in the level cache before it is emptied
    MAX_CACHED_LEVELS = 1 << 14

    def __init__(self, spec: GroupSpec, tables: np.ndarray):
        if tables.ndim != 2 or tables.shape[1] != spec.order:
            raise ValueError(f"automorphism table must be (A, {spec.order}), got {tables.shape}")
        self.spec = spec
        self.tables = tables
        self._flat = tables.ravel()
        self._sub = _sub_table(spec)
        e = np.arange(spec.order)
        self._bits = np.zeros((-(-spec.order // 64), spec.order), dtype=np.uint64)
        self._bits[e // 64, e] = np.uint64(1) << (63 - e % 64).astype(np.uint64)
        self._root = self._make_level(np.arange(len(tables)), tables, ())
        self._levels: dict[tuple[int, ...], _ChainLevel] = {}

    @property
    def complete(self) -> bool:
        """True iff the table holds all of Aut(G)."""
        return len(self.tables) == aut_order(self.spec)

    def _make_level(
        self, auts: np.ndarray, block: np.ndarray, prefix: tuple[int, ...]
    ) -> _ChainLevel:
        """Level over the automorphisms ``auts`` whose tables are ``block``.

        ``rho[g]`` comes from the first row attaining ``om[g]``, as argmin
        gives it.  argmin(axis=0) copies the block transposed, so only a
        block of at most ``_IMAGE_BLOCK`` entries goes through it; a larger
        one is scanned in row blocks of that size, until every g is found.
        """
        if len(auts) == 1:
            return _ChainLevel(auts, None, None)
        n = self.spec.order
        low = block.min(axis=0)
        step = max(1, _IMAGE_BLOCK // n)
        if len(block) <= step:
            first = block.argmin(axis=0)
        else:
            first = np.empty(n, dtype=np.intp)
            todo = np.arange(n)
            for lo in range(0, len(block), step):
                hit = block[lo : lo + step, todo] == low[todo]
                found = hit.any(axis=0)
                first[todo[found]] = lo + hit.argmax(axis=0)[found]
                todo = todo[~found]
                if not len(todo):
                    break
        om = low.astype(np.int16)
        om[[0, *prefix]] = n
        return _ChainLevel(auts, om, auts[first] * n)

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
        self, rho: np.ndarray, rows: np.ndarray, hits: np.ndarray, which: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One row per element of ``rows`` marked in ``hits``, mapped so that
        the element goes to its orbit minimum, and the index of the row each
        came from.  Rows are the columns of ``rows``; ``rho`` is one level's,
        or a stack of levels' with ``which`` naming each row's."""
        hit = np.flatnonzero(hits)
        src = hit % rows.shape[1]
        g = rows.take(hit)
        start = rho[g] if which is None else rho[which[src], g]
        return self._flat[rows.take(src, axis=1) + start].astype(np.intp), src

    def is_canonical(self, indices: Sequence[int]) -> bool:
        """True iff the sorted index list is its own canonical form."""
        node = list(map(int, indices))
        return bool(self.canonical_extensions(node[:-1], [node[-1:]])[0])

    def canonical_extensions(self, node: Sequence[int], tails) -> np.ndarray:
        """Boolean array equal to ``[is_canonical(node + list(t)) for t in tails]``
        for a (k, w) array of increasing tails above the node, w = 1, 2 or 3
        (a 1-D array is read as k tails of width 1).

        Hot path of the search pruning.  The extensions share the chain
        levels of the node's prefix, so the walk goes down once with the
        translate rows of every extension stacked, as the columns of one
        (size, rows) array so that each pass over a row's elements is one
        vector operation, and ``ext`` naming the extension of each row.  At
        each level an extension drops out when one of its rows can take a
        smaller next element than its own; the rows of the others that
        attain it go on.  Below the node's prefix the level fixes node[1:]
        plus the first one or two tail elements, so it differs per row: the
        levels of the distinct (x,) or (x, a) are stacked (``_tail_levels``)
        and each row reads its own.  At an identity level of the node's
        prefix each extension's rows are compared with it as sets
        (``_smaller``).
        """
        node = list(map(int, node))
        tails = np.asarray(tails, dtype=np.intp)
        if tails.ndim == 1:
            tails = tails[:, None]
        k, w = tails.shape
        if not node:
            out = tails[:, 0] == 0
            if w > 1:
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
        full = np.empty((size, k), dtype=np.intp)
        full[:d] = np.array(node)[:, None]
        full[d:] = tails.T
        # column e * size + i holds extension e minus its i-th element
        rows = self._sub[full.T[None], full[:, :, None]].reshape(size, -1).astype(np.intp)
        ext = np.repeat(np.arange(k), size)
        for depth in range(1, size):
            if depth <= d:
                level = self._level(tuple(node[1:depth]))
                if level.om is None:
                    out[ext] = True
                    out[ext[self._smaller(rows, full, ext)]] = False
                    return out
                om, rho, which = level.om.take(rows), level.rho, None
            else:
                heads = tails[ext, : depth - d]
                which, stack, rho = self._tail_levels(tuple(node[1:]), heads, depth < size - 1)
                om = stack[which, rows]
            target = full[depth, ext]
            dead = np.zeros(k, dtype=bool)
            dead[ext[om.min(axis=0) < target]] = True
            if depth < size - 1:
                rows, src = self._advance(rho, rows, (om == target) & ~dead[ext], which)
                ext = ext[src]
        out[ext] = True
        out[dead] = False
        return out

    def _tail_levels(
        self, prefix: tuple[int, ...], heads: np.ndarray, advance: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The levels fixing prefix + head for the rows' heads (a (rows, j)
        array), stacked over the distinct heads: each row's index into the
        stack, the stacked ``om`` and, when the walk advances, ``rho``.  An
        identity level has ``om`` = arange with 0, the prefix and the head
        masked, and ``rho`` = the identity row."""
        n = self.spec.order
        code = np.ravel_multi_index(tuple(heads.T), (n,) * heads.shape[1])
        _, first, which = np.unique(code, return_index=True, return_inverse=True)
        distinct = heads[first]
        om = np.tile(np.arange(n, dtype=np.int16), (len(distinct), 1))
        om[:, [0, *prefix]] = n
        rho = np.empty((len(distinct), n), dtype=np.intp) if advance else None
        for i, head in enumerate(distinct.tolist()):
            level = self._level(prefix + tuple(head))
            if level.om is not None:
                om[i] = level.om
            if advance:
                rho[i] = level.auts[0] * n if level.om is None else level.rho
        om[np.arange(len(distinct))[:, None], distinct] = n
        return which, om, rho

    def _smaller(self, rows: np.ndarray, sets: np.ndarray, ext: np.ndarray) -> np.ndarray:
        """Which columns of ``rows``, read as sets, are lexicographically
        smaller than the columns ``ext`` of ``sets``, as sorted lists.

        Both have the same size, so the smallest element of their symmetric
        difference decides: the set holding it is the smaller.  A set is a
        bitset of W = ceil(|G| / 64) words, element e being bit 63 - e % 64
        of word e // 64, so the smaller set has the larger word at the first
        word where the two differ.  The elements of a set are distinct, so
        summing their bits sets them.
        """
        smaller = np.zeros(len(ext), dtype=bool)
        for word in self._bits[::-1]:
            mine, theirs = word.take(rows).sum(axis=0), word.take(sets).sum(axis=0)[ext]
            smaller = (mine > theirs) | ((mine == theirs) & smaller)
        return smaller

    def canonical_form(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Lexicographic orbit minimum; one walk, since the orbit is a group orbit."""
        s = np.array(sorted(set(map(int, indices))))
        rows = self._sub[s[None, :], s[:, None]].astype(np.intp)
        prefix: tuple[int, ...] = ()
        for _ in range(1, len(s)):
            level = self._level(prefix)
            if level.om is None:
                break
            om = level.om[rows]
            target = int(om.min())
            rows, _ = self._advance(level.rho, rows, om == target)
            prefix += (target,)
        return tuple(min(np.sort(rows, axis=0).T.tolist()))


@lru_cache(maxsize=None)
def affine_reducer(spec: GroupSpec) -> AffineReducer:
    """The reducer over ``automorphism_group(spec)``, built once per group."""
    return AffineReducer(spec, automorphism_group(spec))
