"""Primitivity of a subset of a finite abelian group.

A nonempty S is primitive when neither of these holds:

1. S lies inside a coset of a proper subgroup.  Decided through the
   subgroup generated by the internal differences {s - s0 : s in S}: that
   subgroup H0 is proper iff condition 1 holds, and then S is contained in
   s0 + H0.  The choice of s0 does not matter.
2. S is a union of cosets of a nontrivial subgroup, i.e. its translation
   stabilizer is bigger than {0}.

Both checks return explicit witness subgroups so reports are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import ElementSet, GroupSpec, stabilizer, subgroup_generated


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    in_proper_coset: bool
    coset_witness: ElementSet | None
    union_of_cosets: bool
    stabilizer_witness: ElementSet | None


def is_in_proper_coset(spec: GroupSpec, s: ElementSet) -> tuple[bool, ElementSet | None]:
    """Condition 1, with the difference subgroup as witness when it is proper."""
    if not s:
        raise ValueError("primitivity of the empty set is undefined")
    rows = spec.coords[list(s)]
    h0 = subgroup_generated(spec, spec.index_of(rows - rows[0]).tolist())
    if len(h0) < spec.order:
        return True, h0
    return False, None


def is_union_of_cosets(spec: GroupSpec, s: ElementSet) -> tuple[bool, ElementSet | None]:
    """Condition 2: S is a union of cosets of H iff H lies in the stabilizer of S."""
    if not s:
        raise ValueError("primitivity of the empty set is undefined")
    st = stabilizer(spec, s)
    if len(st) > 1:
        return True, st
    return False, None


def is_primitive(spec: GroupSpec, s: ElementSet) -> PrimitivityReport:
    coset_flag, coset_wit = is_in_proper_coset(spec, s)
    union_flag, stab_wit = is_union_of_cosets(spec, s)
    return PrimitivityReport(
        primitive=not coset_flag and not union_flag,
        in_proper_coset=coset_flag,
        coset_witness=coset_wit,
        union_of_cosets=union_flag,
        stabilizer_witness=stab_wit,
    )
