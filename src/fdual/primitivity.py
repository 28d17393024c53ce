"""Primitivity of a subset of a finite abelian group.

A nonempty S is primitive when neither of these holds:

1. S lies inside a coset of a proper subgroup, i.e. its differences
   S - S, the support of nu_S, generate a proper subgroup D.
2. S is a union of cosets of a nontrivial subgroup, i.e. its translation
   stabilizer is bigger than {0}.

Both are decided from nu_S and a nondegenerate pairing B, with no subgroup
closure.  S + h = S iff nu_S(h) = |S|, so the stabilizer is
{h : nu_S(h) = |S|}.  The annihilator A = {t : B(t, d) = 0 for every d in
S - S} has |G| / |D| elements, so D is proper iff A is not {0}, and D is
the annihilator of A.  Reports carry both subgroups as witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import (
    _IMAGE_BLOCK,
    ElementSet,
    GroupSpec,
    PairingMatrix,
    _difference_counts,
    galois_classes,
    standard_pairing,
)


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    in_proper_coset: bool
    coset_witness: ElementSet | None
    union_of_cosets: bool
    stabilizer_witness: ElementSet | None


def _annihilator(pairing: PairingMatrix, ys: np.ndarray) -> np.ndarray:
    """Mask of the t in G with B(t, y) = 0 for every y in ys.  u*t, u a
    unit mod the exponent, annihilates ys iff t does, so only the class
    representatives are tried, in chunks of at most ``_IMAGE_BLOCK``
    exponents, and their verdicts are spread to their classes."""
    reps, slot = galois_classes(pairing.spec)
    step = max(1, _IMAGE_BLOCK // len(ys))
    kills = [
        ~pairing.exponents(reps[lo : lo + step], ys).any(axis=1)
        for lo in range(0, len(reps), step)
    ]
    return np.concatenate(kills)[slot]


def _primitive_from_nu(pairing: PairingMatrix, nu) -> bool:
    """Whether a set S is primitive, from nu = nu_S and a nondegenerate pairing."""
    nu = np.asarray(nu)
    return not (nu[1:] == nu[0]).any() and not _annihilator(pairing, np.flatnonzero(nu))[1:].any()


def is_primitive(spec: GroupSpec, s: ElementSet) -> PrimitivityReport:
    """Both conditions, each with its witness subgroup when it holds."""
    if not s:
        raise ValueError("primitivity of the empty set is undefined")
    nu = _difference_counts(spec, s)
    pairing = standard_pairing(spec)
    stab = np.flatnonzero(nu == nu[0])
    dual = np.flatnonzero(_annihilator(pairing, np.flatnonzero(nu)))
    # the standard pairing is symmetric, so D is the annihilator of A as well
    diffs = np.flatnonzero(_annihilator(pairing, dual))
    coset_wit = ElementSet.from_indices(diffs.tolist()) if len(diffs) < spec.order else None
    stab_wit = ElementSet.from_indices(stab.tolist()) if len(stab) > 1 else None
    return PrimitivityReport(
        primitive=coset_wit is None and stab_wit is None,
        in_proper_coset=coset_wit is not None,
        coset_witness=coset_wit,
        union_of_cosets=stab_wit is not None,
        stabilizer_witness=stab_wit,
    )
