"""Command line surface: verify, spectrum, nu, primitive, search.

Exit codes: 0 success / property holds, 1 checked and fails, 2 bad input,
configuration or output path, or too little memory, 3 search stopped by
budget or by a dead worker process.  The gap between 1 and 3 matters: 1
is a verdict, 3 is an unfinished computation and never a claim of
non-existence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .abelian import ElementSet, GroupSpec, PairingMatrix, standard_pairing
from .duality import (
    Certificate,
    CertificateError,
    certify,
    exact_spectrum,
    verify_certificate,
    weight_enumerator,
)
from .primitivity import is_primitive

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_BAD_INPUT = 2
EXIT_UNFINISHED = 3

_INSTANCE_FIELDS = {"group", "S", "T", "pairing", "mode"}


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def _parse_elements(spec: GroupSpec, raw, label: str) -> ElementSet:
    s = ElementSet.from_coords(spec, raw, label)
    if len(s) != len(raw):
        raise InputError(f"{label} contains duplicate elements")
    return s


def _parse_pairing(spec: GroupSpec, raw) -> PairingMatrix:
    if not isinstance(raw, list):
        raise InputError("pairing must be a row-major list of integer rows")
    try:
        return PairingMatrix(spec, tuple(tuple(row) for row in raw))
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid pairing matrix: {exc}") from exc


class Instance:
    """Parsed and validated instance file."""

    def __init__(self, data: dict, path: str):
        unknown = set(data) - _INSTANCE_FIELDS
        if unknown:
            raise InputError(f"{path}: unknown fields {sorted(unknown)}")
        if "group" not in data:
            raise InputError(f"{path}: missing 'group'")
        try:
            self.spec = GroupSpec.from_dict(data["group"])
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
        self.s = (
            _parse_elements(self.spec, data["S"], "S") if "S" in data else None
        )
        self.t = (
            _parse_elements(self.spec, data["T"], "T") if "T" in data else None
        )
        self.pairing = (
            _parse_pairing(self.spec, data["pairing"]) if "pairing" in data else None
        )
        mode = data.get("mode")
        if mode is not None and mode not in ("pair", "self_dual"):
            raise InputError(f"{path}: mode must be 'pair' or 'self_dual'")
        self.mode = mode

    def require_s(self) -> ElementSet:
        if self.s is None:
            raise InputError("instance has no set S")
        return self.s


def _load_instance(path: str) -> Instance:
    return Instance(_load_json(path), path)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    data = _load_json(args.instance)
    if "kind" in data:
        # a previously emitted certificate: re-run everything it claims
        try:
            cert = Certificate.from_dict(data)
        except (CertificateError, ValueError, TypeError) as exc:
            raise InputError(f"bad certificate: {exc}") from exc
        ok, problems = verify_certificate(cert)
        if ok:
            print(f"certificate OK: kind={cert.kind} |S|={len(cert.s)} group={list(cert.spec.orders)}")
            return EXIT_OK
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_FAILS

    inst = Instance(data, args.instance)
    s = inst.require_s()
    mode = inst.mode or ("pair" if inst.t is not None else "self_dual")
    if mode == "pair" and inst.t is None:
        raise InputError("pair verification needs a set T")
    pairing = inst.pairing
    if pairing is None:
        pairing = standard_pairing(inst.spec)
        if mode == "self_dual":
            print(
                "warning: no pairing given; checking self-duality under the standard "
                "pairing only (other isomorphisms are not excluded)",
                file=sys.stderr,
            )
    t = inst.t if mode == "pair" else None
    report, cert = certify(inst.spec, pairing, s, t=t, kind=mode)
    if not report.holds:
        f = report.first_failure
        where = "size law" if f.index is None else f"character index {f.index}"
        print(f"FAIL at {where}: expected {f.expected}, got {f.actual}")
        print(f"checked {report.checked_count} of {inst.spec.order} identities")
        return EXIT_FAILS

    print(
        f"verified: {mode} holds exactly on all {report.checked_count} characters; "
        f"|S|={len(s)} |T|={len(cert.partner)} "
        f"S primitive={cert.s_primitive} T primitive={cert.t_primitive}"
    )
    if args.emit_certificate:
        _write_json(args.emit_certificate, cert.to_dict())
        print(f"certificate written to {args.emit_certificate}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _cmd_nu(args) -> int:
    inst = _load_instance(args.instance)
    s = inst.require_s()
    nu = weight_enumerator(inst.spec, s)
    for i in range(inst.spec.order):
        coords = ",".join(map(str, inst.spec.element(i)))
        print(f"{i}\t({coords})\t{nu[i]}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    inst = _load_instance(args.instance)
    s = inst.require_s()
    pairing = inst.pairing or standard_pairing(inst.spec)
    for i, value in enumerate(exact_spectrum(inst.spec, pairing, s)):
        coords = ",".join(map(str, inst.spec.element(i)))
        shown = "non-integer" if value is None else str(value)
        print(f"{i}\t({coords})\t{shown}")
    return EXIT_OK


def _cmd_primitive(args) -> int:
    inst = _load_instance(args.instance)
    s = inst.require_s()
    report = is_primitive(inst.spec, s)
    if report.primitive:
        print("primitive")
        return EXIT_OK
    if report.in_proper_coset:
        wit = list(report.coset_witness.indices)
        print(f"not primitive: contained in a coset of the proper subgroup {wit}")
    if report.union_of_cosets:
        wit = list(report.stabilizer_witness.indices)
        print(f"not primitive: union of cosets of the nontrivial subgroup {wit}")
    return EXIT_FAILS


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


_MAX_BUDGET = (1 << 63) - 1


def _parse_budget(text: str) -> int:
    """Accept 1000000, 10^6 and 1e6 spellings of a whole number up to 2^63 - 1."""
    text = text.strip()
    try:
        if "^" in text:
            base, exp = (int(part) for part in text.split("^", 1))
            # for |base| >= 2 an exponent above 63 is past the bound: no power
            if exp < 0 or (abs(base) >= 2 and exp > 63):
                raise ValueError
            value = base ** exp
        elif "e" in text.lower():
            value = float(text)
            if value != int(value):
                raise ValueError
            value = int(value)
        else:
            value = int(text)
        if value > _MAX_BUDGET:
            raise ValueError
    except (ValueError, OverflowError) as exc:
        raise InputError(
            f"cannot parse budget {text!r} as a whole number up to 2^63 - 1"
        ) from exc
    return value


def _parse_group(text: str) -> GroupSpec:
    try:
        orders = tuple(int(part) for part in text.split(","))
        return GroupSpec(orders)
    except ValueError as exc:
        raise InputError(f"cannot parse group {text!r}: {exc}") from exc


def _default_jobs() -> int:
    """Worker count from FD_THREADS, 1 when it is unset or empty."""
    env = os.environ.get("FD_THREADS")
    if not env:
        return 1
    try:
        jobs = int(env)
        if jobs < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"FD_THREADS must be an integer >= 1, got {env!r}") from None
    return jobs


def _cmd_search(args) -> int:
    # imported here, so that the other commands never load the search code
    from .search import CheckpointError, SearchConfig, WorkerDied, run_search

    jobs = _default_jobs() if args.jobs is None else args.jobs
    if jobs < 1:
        raise InputError(f"--jobs must be an integer >= 1, got {jobs}")
    spec = _parse_group(args.group)
    mode = args.mode.replace("-", "_")
    try:
        config = SearchConfig(
            spec=spec,
            target_size=args.size,
            mode=mode,
            symmetry=args.symmetry,
            frontier_depth=args.frontier_depth,
            checkpoint_path=args.checkpoint,
            budget=_parse_budget(args.budget) if args.budget else None,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_search(config, jobs=jobs)
    except (CheckpointError, WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, CheckpointError) else EXIT_UNFINISHED

    for i, cert in enumerate(result.certificates):
        _write_json(str(out_dir / f"cert_{i:04d}.json"), cert.to_dict())
    status = "complete" if result.complete else "budget_stopped"
    stats_payload = {
        "status": status,
        "complete": result.complete,
        "hits_found": len(result.certificates),
        "stats": result.stats.to_dict(),
        "caveats": result.caveats,
        "config": config.to_dict(),
    }
    _write_json(str(out_dir / "stats.json"), stats_payload)

    print(
        f"search {status}: {len(result.certificates)} orbit class(es), "
        f"{result.stats.nodes_visited} nodes visited, "
        f"{result.stats.leaves_tested} leaves exact-tested"
    )
    for caveat in result.caveats:
        print(f"note: {caveat}")
    if not result.complete:
        print("budget exhausted: explored prefix only, no non-existence claim")
        return EXIT_UNFINISHED
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="fdual",
        description="Exact formal-duality verification and search in finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="Verify an instance file or re-check a certificate.")
    p.add_argument("instance")
    p.add_argument("--emit-certificate", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("nu", help="Print the weight enumerator table of S.")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("spectrum", help="Print the exact character spectrum of S.")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("primitive", help="Decide primitivity of S, with witnesses.")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("search", help="Exhaustive search for primitive formally dual sets.")
    p.add_argument("--group", required=True, help="comma-separated cyclic orders, e.g. 2,2,4,4")
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--mode", default="pair", choices=["pair", "self_dual", "self-dual"])
    p.add_argument("--symmetry", default="affine", choices=["none", "translation", "affine"])
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, started once the measured work left outweighs "
                   "a pool (default: env FD_THREADS, else 1)")
    p.add_argument("--budget", default=None, help="node limit, e.g. 10^6")
    p.add_argument("--frontier-depth", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default="fdual-results")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        # an instance too large for this machine is no verdict on it
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
