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
nu_S.  The value is an integer iff every residue coefficient above the
constant one is zero.  The characters u*t, u a unit mod m, have the Galois
conjugates of |chi_t(S)|^2 as values, equal to it when it is an integer and
none an integer when it is not, so the kernel reduces one representative
per class (``abelian.galois_classes``, one class per cyclic subgroup) and
spreads its verdict and value to the class.  Representatives go in chunks
so that no temporary outgrows ``_CHUNK_ENTRIES``.  ``tests/oracles.py``
keeps the per-character route (``norm_sq`` of the character sum) as the
reference.

A certificate's primitivity flags come from the nu tables of the same run,
with no float, through ``primitivity._primitive_from_nu``: S is a union of
cosets iff nu_S(h) = |S| for some h != 0, and lies in a proper coset iff
some t != 0 annihilates the support of nu_S, which the pairing's
nondegeneracy makes equivalent.  ``tests/oracles.py`` keeps the subgroup
closure, the stabilizer scan and the subgroup-lattice scans as the
independent references the tests compare them with.

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
from .abelian import (
    ElementSet,
    GroupSpec,
    PairingMatrix,
    _difference_counts,
    _is_int,
    galois_classes,
)
from .cyclotomic import reduction_matrix
from .primitivity import _primitive_from_nu

# Largest number of entries in one temporary of the spectrum kernel.
_CHUNK_ENTRIES = 1 << 20
# Residue coefficients are bounded by |S|^2 * max|R|, which must stay below this.
_INT64_BOUND = 1 << 62


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


def _residue_rows(
    pairing: PairingMatrix, support: np.ndarray, weights: np.ndarray, ts
) -> np.ndarray:
    """Row r holds the coefficients of |chi_t(S)|^2 mod Phi_m for the r-th
    character t of ts, from nu_S's support and its weights there."""
    m = pairing.spec.exponent
    coeffs = np.zeros((len(ts), m), dtype=np.int64)
    np.add.at(coeffs, (np.arange(len(ts))[:, None], pairing.exponents(ts, support)), weights)
    return coeffs @ reduction_matrix(m)


def _residue_chunks(
    spec: GroupSpec, pairing: PairingMatrix, nu: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, integral, values) for consecutive chunks of the class
    representatives reps = ``galois_classes(spec)[0]``, from nu = nu_S:
    entry r says whether |chi_t(S)|^2 is an integer for t = reps[start + r]
    (every residue coefficient above the constant one is zero), and gives
    the constant coefficient."""
    m = spec.exponent
    if int(nu[0]) ** 2 * _reduction_bound(m) >= _INT64_BOUND:
        raise ValueError(f"|S| = {nu[0]} is too large for exact int64 spectra at exponent {m}")
    reps = galois_classes(spec)[0]
    support = np.flatnonzero(nu)
    weights = nu[support]
    step = max(1, _CHUNK_ENTRIES // max(len(support), m))
    for start in range(0, len(reps), step):
        residues = _residue_rows(pairing, support, weights, reps[start : start + step])
        yield start, ~residues[:, 1:].any(axis=1), residues[:, 0]


def exact_spectrum(
    spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, nu: np.ndarray | None = None
) -> list[int | None]:
    """Exact integer spectrum entries |chi_t(S)|^2 for all t, None where not an
    integer; nu is nu_S when the caller already has it."""
    if nu is None:
        nu = _difference_counts(spec, s)
    chunks = list(_residue_chunks(spec, pairing, nu))
    slot = galois_classes(spec)[1]
    integral = np.concatenate([chunk[1] for chunk in chunks])[slot]
    values = np.concatenate([chunk[2] for chunk in chunks])[slot]
    return [v if ok else None for v, ok in zip(values.tolist(), integral.tolist())]


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
        if s.mask.bit_length() > spec.order:
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
    of class representatives is computed once none of its classes can hold
    a character before the first failure found.
    """
    return _check(spec, pairing, s, t_set)[0]


def _check(
    spec: GroupSpec, pairing: PairingMatrix, s: ElementSet, t_set: ElementSet
) -> tuple[DualityReport, np.ndarray | None, np.ndarray | None, list[int] | None]:
    """check_pair's kernel run: the report, nu_S and nu_T (None after a
    size-law failure) and, when the identity holds, the exact spectrum of S.

    The characters are walked by class representative; each chunk compares
    every t whose representative it holds, and the least failing t so far
    is kept.  A chunk whose first representative is not below it holds no
    earlier failure, so the walk stops there."""
    _require_usable(spec, pairing, s, t_set)
    n = spec.order
    if len(s) * len(t_set) != n:
        failure = Failure(
            index=None,
            expected=n,
            actual=f"size law violated: |S|*|T| = {len(s) * len(t_set)} != {n} = |G|",
        )
        return DualityReport(holds=False, first_failure=failure, checked_count=0), None, None, None
    nu_s = _difference_counts(spec, s)
    nu_t = nu_s if t_set == s else _difference_counts(spec, t_set)
    reps, slot = galois_classes(spec)
    t_card = len(t_set)
    expected = len(s) ** 2 * nu_t
    integral = np.zeros(len(reps), dtype=bool)
    values = np.zeros(len(reps), dtype=np.int64)
    first = n
    for start, chunk_integral, chunk_values in _residue_chunks(spec, pairing, nu_s):
        stop = start + len(chunk_values)
        integral[start:stop], values[start:stop] = chunk_integral, chunk_values
        fresh = (slot >= start) & (slot < stop)
        bad = fresh & (~integral[slot] | (t_card * values[slot] != expected))
        if bad.any():
            first = min(first, int(bad.argmax()))
        if stop < len(reps) and reps[stop] >= first:
            break
    if first == n:
        report = DualityReport(holds=True, first_failure=None, checked_count=n)
        return report, nu_s, nu_t, values[slot].tolist()
    if integral[slot[first]]:
        actual = f"|T|*|chi_t(S)|^2 = {t_card * int(values[slot[first]])}"
    else:
        # a class without integers fails first at its least member, which is
        # its representative; the chunks keep no rows, so that one is redone
        support = np.flatnonzero(nu_s)
        coeffs = _residue_rows(pairing, support, nu_s[support], [first])[0].tolist()
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        actual = f"|chi_t(S)|^2 is not an integer: residue {tuple(coeffs)}"
    failure = Failure(index=first, expected=int(expected[first]), actual=actual)
    return DualityReport(holds=False, first_failure=failure, checked_count=first + 1), nu_s, nu_t, None


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
            s = ElementSet.from_coords(spec, data["s"], "s")
            t = ElementSet.from_coords(spec, data["t"], "t") if kind == "pair" else None
            sizes, tables = (data["s_size"], data["t_size"]), (data["nu_t"], data["spectrum"])
            flags = (data["s_primitive"], data["t_primitive"])
            if not all(map(_is_int, sizes)):
                raise CertificateError(f"set sizes must be integers, got {list(sizes)}")
            if not all(isinstance(v, list) and all(map(_is_int, v)) for v in tables):
                raise CertificateError("nu_t and spectrum must be lists of integers")
            if not all(isinstance(f, bool) for f in flags):
                raise CertificateError(f"primitivity flags must be true or false, got {list(flags)}")
            if sizes != (len(s), len(t if t is not None else s)):
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
                nu_t=tuple(tables[0]),
                spectrum=tuple(tables[1]),
                s_primitive=flags[0],
                t_primitive=flags[1],
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
    holds, the certificate, its nu table, spectrum and primitivity flags
    all from one kernel run."""
    if kind is None:
        kind = "pair" if t is not None else "self_dual"
    report, nu_s, nu_t, spectrum = _check(spec, pairing, s, t if t is not None else s)
    if not report.holds:
        return report, None
    return report, Certificate(
        kind=kind,
        spec=spec,
        pairing=pairing,
        s=s,
        t=t if kind == "pair" else None,
        nu_t=tuple(nu_t.tolist()),
        spectrum=tuple(spectrum),
        s_primitive=_primitive_from_nu(pairing, nu_s),
        t_primitive=_primitive_from_nu(pairing, nu_t),
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
    """Re-run everything a certificate claims; returns (ok, problems).  The
    nu tables, spectrum and primitivity flags come from the check's kernel
    run when it holds, and are recomputed when it fails."""
    problems: list[str] = []
    spec, pairing, partner = cert.spec, cert.pairing, cert.partner
    report, nu_s, nu_t, spectrum = _check(spec, pairing, cert.s, partner)
    if not report.holds:
        problems.append(f"duality check failed: {report.first_failure.actual}")
        nu_s, nu_t = _difference_counts(spec, cert.s), _difference_counts(spec, partner)
        spectrum = exact_spectrum(spec, pairing, cert.s)
    if tuple(nu_t.tolist()) != cert.nu_t:
        problems.append("recorded nu table does not match recomputation")
    if tuple(v if v is not None else -1 for v in spectrum) != cert.spectrum:
        problems.append("recorded spectrum does not match recomputation")
    if _primitive_from_nu(pairing, nu_s) != cert.s_primitive:
        problems.append("recorded primitivity flag for S is wrong")
    if _primitive_from_nu(pairing, nu_t) != cert.t_primitive:
        problems.append("recorded primitivity flag for T is wrong")
    return not problems, problems
