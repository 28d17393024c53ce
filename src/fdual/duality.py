"""Weight enumerators, character spectra, and exact formal-duality checks.

For S, T subsets of G and a nondegenerate pairing B, the pair is formally
dual when for every t in G (indexing the character x -> zeta^B(t, x)):

    |T| * |chi_t(S)|^2  ==  |S|^2 * nu_T(t)

where nu_T(t) counts ordered pairs of T with difference t.  The identity is
checked in cross-multiplied integer form: the spectrum value |chi_t(S)|^2
must reduce to an exact integer modulo the cyclotomic polynomial, and both
sides are compared as integers.  No verdict ever rests on floating point.

One kernel computes the spectrum for every character at once.  Because
B(t, x) - B(t, y) = B(t, x - y) mod m, |chi_t(S)|^2 is the cyclotomic
integer sum_d nu_S(d) * zeta^B(t, d), so its residue modulo Phi_m is
sum_d nu_S(d) * R[B(t, d)] with R the reduction matrix of
``cyclotomic.reduction_matrix``: an int64 product over the support of
nu_S, taken in chunks of characters so that no temporary outgrows
``_CHUNK_ENTRIES``.  The value is an integer iff every residue coefficient
above the constant one is zero.  ``tests/oracles.py`` keeps the
per-character route (``norm_sq`` of the character sum) as the reference.

The equivalent condition with the roles of S and T exchanged (the "dual
side") is not checked here: ``tests/oracles.py`` keeps it as a reference,
and the agreement of the two is a tested property, not an assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import __version__
from .abelian import ElementSet, GroupSpec, PairingMatrix
from .cyclotomic import reduction_matrix
from .primitivity import is_primitive

# Largest number of entries in one temporary of the spectrum kernel.
_CHUNK_ENTRIES = 1 << 20
# Residue coefficients are bounded by |S|^2 * max|R|, which must stay below this.
_INT64_BOUND = 1 << 62


def _difference_counts(spec: GroupSpec, s: ElementSet) -> np.ndarray:
    rows = spec.coords[list(s)]
    diffs = spec.index_of(rows[:, None, :] - rows[None, :, :])
    return np.bincount(diffs.ravel(), minlength=spec.order)


def weight_enumerator(spec: GroupSpec, s: ElementSet) -> tuple[int, ...]:
    """nu_S: counts of ordered difference pairs, indexed by group element.

    Satisfies nu(0) = |S|, sum nu = |S|^2 and nu(d) = nu(-d).
    """
    if not s:
        raise ValueError("weight enumerator of the empty set is undefined")
    return tuple(_difference_counts(spec, s).tolist())


@lru_cache(maxsize=None)
def _reduction_bound(m: int) -> int:
    return int(np.abs(reduction_matrix(m)).max())


def _residue_chunks(
    spec: GroupSpec, pairing: PairingMatrix, s: ElementSet
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, residues) for consecutive chunks of characters t = start, ...:
    row r of residues holds the coefficients of |chi_(start+r)(S)|^2 mod Phi_m."""
    n, m = spec.order, spec.exponent
    if len(s) ** 2 * _reduction_bound(m) >= _INT64_BOUND:
        raise ValueError(f"|S| = {len(s)} is too large for exact int64 spectra at exponent {m}")
    nu = _difference_counts(spec, s)
    support = np.flatnonzero(nu)
    weights = nu[support]
    reduction = reduction_matrix(m)
    step = max(1, _CHUNK_ENTRIES // max(len(support), m))
    for start in range(0, n, step):
        rows = min(step, n - start)
        coeffs = np.zeros((rows, m), dtype=np.int64)
        exponents = pairing.exponents(range(start, start + rows), support)
        np.add.at(coeffs, (np.arange(rows)[:, None], exponents), weights)
        yield start, coeffs @ reduction


def exact_spectrum(spec: GroupSpec, pairing: PairingMatrix, s: ElementSet) -> list[int | None]:
    """Exact integer spectrum entries |chi_t(S)|^2 for all t, None where not an integer."""
    out: list[int | None] = []
    for _, residues in _residue_chunks(spec, pairing, s):
        integral = ~residues[:, 1:].any(axis=1)
        out.extend(v if ok else None for v, ok in zip(residues[:, 0].tolist(), integral.tolist()))
    return out


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
    can succeed.  Otherwise the first failing t is reported, and no chunk
    of characters after the one holding it is computed.
    """
    return _check(spec, pairing, s, t_set)[0]


def _check(
    spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, t_set: ElementSet
) -> tuple[DualityReport, list[int] | None]:
    """check_pair's report and, when the identity holds, the exact spectrum
    of S from the same kernel run (every entry is then an integer)."""
    _require_usable(spec, pairing, s, t_set)
    n = spec.order
    if len(s) * len(t_set) != n:
        failure = Failure(
            index=None,
            expected=n,
            actual=f"size law violated: |S|*|T| = {len(s) * len(t_set)} != {n} = |G|",
        )
        return DualityReport(holds=False, first_failure=failure, checked_count=0), None
    nu_t = _difference_counts(spec, t_set)
    s_sq = len(s) ** 2
    t_card = len(t_set)
    spectrum: list[int] = []
    for start, residues in _residue_chunks(spec, pairing, s):
        integral = ~residues[:, 1:].any(axis=1)
        values = residues[:, 0]
        expected = s_sq * nu_t[start : start + len(residues)]
        bad = ~integral | (t_card * values != expected)
        if bad.any():
            row = int(bad.argmax())
            if integral[row]:
                actual = f"|T|*|chi_t(S)|^2 = {t_card * int(values[row])}"
            else:
                coeffs = residues[row].tolist()
                while len(coeffs) > 1 and coeffs[-1] == 0:
                    coeffs.pop()
                actual = f"|chi_t(S)|^2 is not an integer: residue {tuple(coeffs)}"
            t = start + row
            failure = Failure(index=t, expected=int(expected[row]), actual=actual)
            return DualityReport(holds=False, first_failure=failure, checked_count=t + 1), None
        spectrum.extend(values.tolist())
    return DualityReport(holds=True, first_failure=None, checked_count=n), spectrum


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


def certify(
    spec: GroupSpec,
    pairing: PairingMatrix,
    s: ElementSet,
    t: ElementSet | None = None,
    kind: str | None = None,
) -> tuple[DualityReport, Certificate | None]:
    """The exact check of S against T (S itself when T is None) and, when it
    holds, the certificate with its primitivity tests, from one kernel run."""
    if kind is None:
        kind = "pair" if t is not None else "self_dual"
    partner = t if t is not None else s
    report, spectrum = _check(spec, pairing, s, partner)
    if not report.holds:
        return report, None
    return report, Certificate(
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
    report, cert = certify(spec, pairing, s, t, kind)
    if cert is None:
        raise CertificateError(
            f"instance does not verify: {report.first_failure.actual}"
        )
    return cert


def verify_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Re-run everything a certificate claims; returns (ok, problems)."""
    problems: list[str] = []
    partner = cert.partner
    report, spectrum = _check(cert.spec, cert.pairing, cert.s, partner)
    if not report.holds:
        problems.append(f"duality check failed: {report.first_failure.actual}")
        spectrum = exact_spectrum(cert.spec, cert.pairing, cert.s)
    if weight_enumerator(cert.spec, partner) != cert.nu_t:
        problems.append("recorded nu table does not match recomputation")
    if tuple(v if v is not None else -1 for v in spectrum) != cert.spectrum:
        problems.append("recorded spectrum does not match recomputation")
    if is_primitive(cert.spec, cert.s).primitive != cert.s_primitive:
        problems.append("recorded primitivity flag for S is wrong")
    if is_primitive(cert.spec, partner).primitive != cert.t_primitive:
        problems.append("recorded primitivity flag for T is wrong")
    return not problems, problems
