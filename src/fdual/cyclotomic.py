"""Exact arithmetic with integer combinations of m-th roots of unity.

A value is a :class:`ClassVector`: integer coefficients of a polynomial in
Z[x]/(x^m - 1), evaluated at zeta_m = e^{2 pi i / m}.  Whether such a value
equals an integer is decided by reducing modulo the m-th cyclotomic
polynomial -- monic integer division, no rounding anywhere.  There is no
floating-point path here: the search's float screen lives in ``search``,
and nothing reported downstream may rest on it.

:func:`reduction_matrix` is the same reduction as a linear map: row j is
x^j mod Phi_m, so a coefficient vector c reduces to c @ R.  ``duality``
reduces every character of a set at once this way, in int64 and under an
overflow guard of its own.  ClassVector coefficients are plain Python
ints and need no guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class ClassVector:
    """Integer vector c with value sum_j c[j] * zeta_m^j."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m}")
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(coeffs) != self.m:
            raise ValueError(
                f"need exactly {self.m} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, m: int) -> "ClassVector":
        return cls(m, (0,) * m)

    @classmethod
    def constant(cls, m: int, c: int) -> "ClassVector":
        return cls(m, (c,) + (0,) * (m - 1))

    @classmethod
    def root_power(cls, m: int, j: int) -> "ClassVector":
        """zeta_m^j as a ClassVector."""
        coeffs = [0] * m
        coeffs[j % m] = 1
        return cls(m, tuple(coeffs))


@dataclass(frozen=True)
class CyclotomicPoly:
    """The m-th cyclotomic polynomial Phi_m, monic with integer coefficients."""

    m: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _poly_divmod_monic(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division by a monic integer polynomial; returns (quotient, remainder)."""
    assert den and den[-1] == 1, "divisor must be monic"
    rem = list(num)
    deg_d = len(den) - 1
    if len(rem) - 1 < deg_d:
        return (0,), tuple(rem)
    quot = [0] * (len(rem) - deg_d)
    for shift in range(len(rem) - 1 - deg_d, -1, -1):
        c = rem[shift + deg_d]
        if c:
            quot[shift] = c
            for j, dj in enumerate(den):
                rem[shift + j] -= c * dj
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> CyclotomicPoly:
    """Phi_m by dividing x^m - 1 by the product of Phi_d over proper divisors d.

    >>> cyclotomic_poly(1).coeffs
    (-1, 1)
    >>> cyclotomic_poly(4).coeffs
    (1, 0, 1)
    >>> cyclotomic_poly(6).coeffs
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {m}")
    num: tuple[int, ...] = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, cyclotomic_poly(d).coeffs)
            assert rem == (0,), f"Phi_{d} must divide x^{m}-1 exactly"
    return CyclotomicPoly(m, num)


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """Read-only (m, phi(m)) int64 array whose row j holds x^j mod Phi_m.

    Built by the recurrence x^(j+1) = x * x^j: shift the row up one degree,
    then subtract its old top coefficient times Phi_m, which is monic.  That
    is O(m * phi(m)) in all, with no division per row.

    >>> reduction_matrix(4).tolist()
    [[1, 0], [0, 1], [-1, 0], [0, -1]]
    """
    phi = cyclotomic_poly(m).coeffs
    lower = np.array(phi[:-1], dtype=np.int64)
    out = np.zeros((m, len(lower)), dtype=np.int64)
    row = np.zeros(len(lower), dtype=np.int64)
    row[0] = 1
    for j in range(m):
        out[j] = row
        top = row[-1]
        row[1:] = row[:-1]
        row[0] = 0
        row -= top * lower
    out.setflags(write=False)
    return out


def conj(p: ClassVector) -> ClassVector:
    """Complex conjugate: coefficient j moves to (m - j) mod m."""
    m = p.m
    return ClassVector(m, tuple(p.coeffs[(m - j) % m] for j in range(m)))


def mul_mod(p: ClassVector, q: ClassVector) -> ClassVector:
    """Product in Z[x]/(x^m - 1), i.e. cyclic convolution of coefficients."""
    if p.m != q.m:
        raise ValueError(f"modulus mismatch: {p.m} vs {q.m}")
    m = p.m
    out = [0] * m
    for i, a in enumerate(p.coeffs):
        if a:
            for j, b in enumerate(q.coeffs):
                if b:
                    out[(i + j) % m] += a * b
    return ClassVector(m, tuple(out))


def norm_sq(p: ClassVector) -> ClassVector:
    """p times its conjugate; evaluates to |p(zeta_m)|^2 >= 0."""
    return mul_mod(p, conj(p))


def residue(p: ClassVector) -> tuple[int, ...]:
    """Remainder of p modulo Phi_m; equal residues mean equal complex values."""
    _, rem = _poly_divmod_monic(p.coeffs, cyclotomic_poly(p.m).coeffs)
    return rem


def as_integer(p: ClassVector) -> int | None:
    """The integer c with p(zeta_m) = c exactly, or None if the value is not an integer.

    p(zeta_m) = c iff Phi_m divides p - c, i.e. iff the residue is the
    constant polynomial c.
    """
    rem = residue(p)
    if len(rem) == 1:
        return rem[0]
    return None
