"""Weight enumerators, character spectra, and exact formal-duality checks.

For S, T subsets of G and a nondegenerate pairing B, the pair is formally
dual when for every t in G (indexing the character x -> zeta^B(t, x)):

    |T| * |chi_t(S)|^2  ==  |S|^2 * nu_T(t)

where nu_T(t) counts ordered pairs of T with difference t.  The identity is
checked in cross-multiplied integer form: the spectrum value |chi_t(S)|^2
must reduce to an exact integer modulo the cyclotomic polynomial, and both
sides are compared as integers.  No verdict ever rests on floating point.

The equivalent condition with the roles of S and T exchanged (the "dual
side") is not checked here: ``tests/oracles.py`` keeps it as a reference,
and the agreement of the two is a tested property, not an assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .abelian import ElementSet, GroupSpec, PairingMatrix
from .cyclotomic import ClassVector, as_integer, norm_sq, residue
from .primitivity import is_primitive


def weight_enumerator(spec: GroupSpec, s: ElementSet) -> tuple[int, ...]:
    """nu_S: counts of ordered difference pairs, indexed by group element.

    Satisfies nu(0) = |S|, sum nu = |S|^2 and nu(d) = nu(-d).
    """
    if not s:
        raise ValueError("weight enumerator of the empty set is undefined")
    rows = spec.coords[list(s)]
    diffs = spec.index_of(rows[:, None, :] - rows[None, :, :])
    return tuple(np.bincount(diffs.ravel(), minlength=spec.order).tolist())


def char_sum(spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, t: int) -> ClassVector:
    """chi_t(S) = sum over x in S of zeta^B(t, x), kept exact as a ClassVector."""
    m = spec.exponent
    counts = np.bincount(pairing.exponents([t], s)[0], minlength=m)
    return ClassVector(m, tuple(counts.tolist()))


def spectrum_entry(spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, t: int) -> ClassVector:
    """|chi_t(S)|^2 as an exact ClassVector."""
    return norm_sq(char_sum(spec, pairing, s, t))


def exact_spectrum(spec: GroupSpec, pairing: PairingMatrix, s: ElementSet) -> list[int | None]:
    """Exact integer spectrum entries for all t, None where not an integer."""
    return [as_integer(spectrum_entry(spec, pairing, s, t)) for t in range(spec.order)]


@dataclass(frozen=True)
class Failure:
    """First failing identity; index None for the size-law short-circuit."""

    index: int | None
    expected: int | None
    actual: str


@dataclass(frozen=True)
class DualityReport:
    holds: bool
    first_failure: Failure | None
    checked_count: int


def _require_usable(spec: GroupSpec, pairing: PairingMatrix, *sets: ElementSet) -> None:
    for s in sets:
        if not s:
            raise ValueError("formal duality is undefined for empty sets")
        if s.indices[-1] >= spec.order:
            raise ValueError("set contains indices outside the group")
    if pairing.spec != spec:
        raise ValueError("pairing was built for a different group")
    if not pairing.is_nondegenerate:
        raise ValueError("pairing must be nondegenerate")


def check_pair(
    spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, t_set: ElementSet
) -> DualityReport:
    """Exact check of |T| * |chi_t(S)|^2 == |S|^2 * nu_T(t) for every t.

    Short-circuits to failure when |S|*|T| != |G|: summing the defining
    identity over all characters forces that size law, so no further work
    can succeed.
    """
    _require_usable(spec, pairing, s, t_set)
    n = spec.order
    if len(s) * len(t_set) != n:
        return DualityReport(
            holds=False,
            first_failure=Failure(
                index=None,
                expected=n,
                actual=f"size law violated: |S|*|T| = {len(s) * len(t_set)} != {n} = |G|",
            ),
            checked_count=0,
        )
    nu_t = weight_enumerator(spec, t_set)
    s_sq = len(s) ** 2
    t_card = len(t_set)
    for t in range(n):
        entry = spectrum_entry(spec, pairing, s, t)
        value = as_integer(entry)
        if value is None:
            return DualityReport(
                holds=False,
                first_failure=Failure(
                    index=t,
                    expected=s_sq * nu_t[t],
                    actual=f"|chi_t(S)|^2 is not an integer: residue {residue(entry)}",
                ),
                checked_count=t + 1,
            )
        if t_card * value != s_sq * nu_t[t]:
            return DualityReport(
                holds=False,
                first_failure=Failure(
                    index=t,
                    expected=s_sq * nu_t[t],
                    actual=f"|T|*|chi_t(S)|^2 = {t_card * value}",
                ),
                checked_count=t + 1,
            )
    return DualityReport(holds=True, first_failure=None, checked_count=n)


def check_self_dual(spec: GroupSpec, pairing: PairingMatrix, s: ElementSet) -> DualityReport:
    """S against its own image under the isomorphism the pairing encodes."""
    return check_pair(spec, pairing, s, s)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Self-contained record of one verified instance.

    Everything needed to re-run the exact check is embedded: the group, the
    pairing, the sets, the full weight-enumerator table and the full integer
    spectrum.  ``kind`` is "pair" or "self_dual"; for self-dual instances the
    partner set is S itself and is not stored separately.
    """

    kind: str
    spec: GroupSpec
    pairing: PairingMatrix
    s: ElementSet
    t: ElementSet | None
    nu_t: tuple[int, ...]
    spectrum: tuple[int, ...]
    s_primitive: bool
    t_primitive: bool
    version: str
    timestamp: str

    @property
    def partner(self) -> ElementSet:
        return self.s if self.t is None else self.t

    def sort_key(self) -> tuple:
        return (self.s.indices, self.partner.indices)

    def to_dict(self) -> dict:
        data = {
            "version": self.version,
            "kind": self.kind,
            "group": self.spec.to_dict(),
            "pairing": self.pairing.to_rows(),
            "s": [list(c) for c in self.s.coords(self.spec)],
        }
        if self.kind == "pair":
            data["t"] = [list(c) for c in self.partner.coords(self.spec)]
        data.update(
            {
                "s_size": len(self.s),
                "t_size": len(self.partner),
                "nu_t": list(self.nu_t),
                "spectrum": list(self.spectrum),
                "s_primitive": self.s_primitive,
                "t_primitive": self.t_primitive,
                "timestamp": self.timestamp,
            }
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        try:
            kind = data["kind"]
            if kind not in ("pair", "self_dual"):
                raise CertificateError(f"unknown certificate kind {kind!r}")
            spec = GroupSpec.from_dict(data["group"])
            pairing = PairingMatrix(spec, tuple(tuple(row) for row in data["pairing"]))
            s = ElementSet.from_coords(spec, data["s"])
            t = ElementSet.from_coords(spec, data["t"]) if kind == "pair" else None
            if len(s) != int(data["s_size"]) or len(t if t is not None else s) != int(data["t_size"]):
                raise CertificateError(
                    "recorded set sizes disagree with the element lists "
                    "(duplicate or missing entries?)"
                )
            return cls(
                kind=kind,
                spec=spec,
                pairing=pairing,
                s=s,
                t=t,
                nu_t=tuple(data["nu_t"]),
                spectrum=tuple(data["spectrum"]),
                s_primitive=bool(data["s_primitive"]),
                t_primitive=bool(data["t_primitive"]),
                version=str(data["version"]),
                timestamp=str(data.get("timestamp", "")),
            )
        except KeyError as exc:
            raise CertificateError(f"certificate is missing field {exc}") from exc


def make_certificate(
    spec: GroupSpec,
    pairing: PairingMatrix,
    s: ElementSet,
    t: ElementSet | None = None,
    kind: str | None = None,
) -> Certificate:
    """Run the exact check and primitivity tests and freeze the result.

    Raises :class:`CertificateError` when the instance does not verify; only
    verified instances become certificates.
    """
    if kind is None:
        kind = "pair" if t is not None else "self_dual"
    partner = t if t is not None else s
    report = check_pair(spec, pairing, s, partner)
    if not report.holds:
        raise CertificateError(
            f"instance does not verify: {report.first_failure.actual}"
        )
    spectrum = exact_spectrum(spec, pairing, s)
    assert all(v is not None for v in spectrum)
    return Certificate(
        kind=kind,
        spec=spec,
        pairing=pairing,
        s=s,
        t=t if kind == "pair" else None,
        nu_t=weight_enumerator(spec, partner),
        spectrum=tuple(spectrum),
        s_primitive=is_primitive(spec, s).primitive,
        t_primitive=is_primitive(spec, partner).primitive,
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def verify_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Re-run everything a certificate claims; returns (ok, problems)."""
    problems: list[str] = []
    partner = cert.partner
    report = check_pair(cert.spec, cert.pairing, cert.s, partner)
    if not report.holds:
        problems.append(f"duality check failed: {report.first_failure.actual}")
    if weight_enumerator(cert.spec, partner) != cert.nu_t:
        problems.append("recorded nu table does not match recomputation")
    spectrum = exact_spectrum(cert.spec, cert.pairing, cert.s)
    if tuple(v if v is not None else -1 for v in spectrum) != cert.spectrum:
        problems.append("recorded spectrum does not match recomputation")
    if is_primitive(cert.spec, cert.s).primitive != cert.s_primitive:
        problems.append("recorded primitivity flag for S is wrong")
    if is_primitive(cert.spec, partner).primitive != cert.t_primitive:
        problems.append("recorded primitivity flag for T is wrong")
    return not problems, problems
