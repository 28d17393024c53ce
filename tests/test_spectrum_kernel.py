"""The exact spectrum kernel against the per-character route.

``duality`` reduces |chi_t(S)|^2 modulo Phi_m through
``cyclotomic.reduction_matrix`` for one representative t of each Galois
class {u*t : u a unit mod m} at once and spreads it to the class;
``tests/oracles.py`` keeps the route it replaced, ``norm_sq`` of one
character sum at a time, and the old ``check_pair`` loop over characters.
Residue rows, integer spectra and reports must agree exactly, however the
representatives are chunked.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from fdual import duality
from fdual.abelian import (
    ElementSet,
    GroupSpec,
    automorphism_group,
    galois_classes,
    pairing_from_automorphism,
    standard_pairing,
)
from fdual.cyclotomic import ClassVector, as_integer, cyclotomic_poly, reduction_matrix, residue
from fdual.duality import check_pair, exact_spectrum, weight_enumerator

from oracles import abelian_group_orders, check_pair_loop, spectrum_entry, subgroup_oracle

EXTRA_ORDERS = [(2, 2, 4, 4), (8, 8), (40,), (128,), (2, 36)]


def _padded(row, width):
    return tuple(row) + (0,) * (width - len(row))


def _kernel_rows(spec, pairing, s):
    """The kernel's residue rows of the class representatives."""
    nu = duality._difference_counts(spec, s)
    support = np.flatnonzero(nu)
    return duality._residue_rows(pairing, support, nu[support], galois_classes(spec)[0])


def _random_pairing(rng, spec):
    tables = automorphism_group(spec)
    return pairing_from_automorphism(standard_pairing(spec), tables[rng.randrange(len(tables))])


def _support_width(spec, s):
    """The larger of |supp nu_S| and m: the kernel's entries per character."""
    return max(np.count_nonzero(weight_enumerator(spec, s)), spec.exponent)


class TestReductionMatrix:
    @pytest.mark.parametrize("m", list(range(1, 65)) + [105, 210, 385])
    def test_rows_are_residues_of_powers(self, m):
        table = reduction_matrix(m)
        assert table.dtype == np.int64 and not table.flags.writeable
        width = cyclotomic_poly(m).degree
        assert table.shape == (m, width)
        for j in range(m):
            assert tuple(table[j].tolist()) == _padded(residue(ClassVector.root_power(m, j)), width), (m, j)


class TestKernelAgainstOracle:
    @pytest.mark.parametrize(
        "orders", [(1,)] + abelian_group_orders(16) + EXTRA_ORDERS, ids=str
    )
    def test_residue_rows_match_norm_sq(self, orders):
        spec = GroupSpec(orders)
        rng = random.Random(hash(orders) & 0xFFFF)
        width = reduction_matrix(spec.exponent).shape[1]
        trials = 6 if spec.order <= 16 else 2
        for trial in range(trials):
            s = ElementSet.from_indices(rng.sample(range(spec.order), rng.randint(1, spec.order)))
            pairing = standard_pairing(spec) if trial == 0 else _random_pairing(rng, spec)
            rows = _kernel_rows(spec, pairing, s)
            reps = galois_classes(spec)[0].tolist()
            assert rows.shape == (len(reps), width)
            for row, t in zip(rows, reps):
                entry = spectrum_entry(spec, pairing, s, t)
                assert tuple(row.tolist()) == _padded(residue(entry), width), (orders, s.indices, t)
            expected = [as_integer(spectrum_entry(spec, pairing, s, t)) for t in range(spec.order)]
            assert exact_spectrum(spec, pairing, s) == expected

    def test_integer_and_non_integer_entries_both_occur(self):
        spec = GroupSpec((40,))
        s = ElementSet.from_indices([0, 1, 3, 7])
        values = exact_spectrum(spec, standard_pairing(spec), s)
        assert None in values and any(v is not None for v in values[1:])


def _subgroup_pair(spec, pairing, gens):
    """A subgroup H and its annihilator {t : B(t, h) = 0 for all h in H}:
    a formally dual pair by construction."""
    h = ElementSet.from_indices(subgroup_oracle(spec, gens))
    annihilator = np.flatnonzero((pairing.exponents(range(spec.order), h) == 0).all(axis=1))
    return h, ElementSet.from_indices(annihilator.tolist())


def _mutations(rng, spec, s, t, count):
    """One-element mutations of S or of T, drawn at random."""
    out = []
    for _ in range(count):
        side = rng.randrange(2)
        base = (s, t)[side]
        outside = [x for x in range(spec.order) if x not in base]
        changed = set(base)
        changed.remove(rng.choice(base.indices))
        changed.add(rng.choice(outside))
        mutated = ElementSet.from_indices(changed)
        out.append((mutated, t) if side == 0 else (s, mutated))
    return out


def _failing_cases():
    rng = random.Random(307)
    cases = []
    for orders, gens in [((40,), [5]), ((2, 36), [1, 12]), ((8, 8), [2, 12]), ((16,), [4])]:
        spec = GroupSpec(orders)
        pairing = standard_pairing(spec)
        s, t = _subgroup_pair(spec, pairing, gens)
        assert check_pair(spec, pairing, s, t).holds
        cases.extend((spec, pairing, a, b) for a, b in _mutations(rng, spec, s, t, 12))
    return cases


FAILING = _failing_cases()


class TestCheckPairFailures:
    def test_cases_fail_both_ways(self):
        kinds = set()
        for spec, pairing, s, t in FAILING:
            report = check_pair_loop(spec, pairing, s, t)
            assert not report.holds and report.first_failure.index >= 1
            kinds.add("not an integer" in report.first_failure.actual)
        assert kinds == {True, False}

    def test_report_matches_loop(self):
        for spec, pairing, s, t in FAILING:
            assert check_pair(spec, pairing, s, t) == check_pair_loop(spec, pairing, s, t)

    @pytest.mark.parametrize("where", ["every_row", "first_row", "last_row"])
    def test_report_matches_loop_across_chunk_boundaries(self, monkeypatch, where):
        # The walk is over class representatives: it is complete once the
        # last representative not above the first failing t is in, at row
        # `last` of the representatives.  t = 0 always holds
        # (|chi_0(S)|^2 = |S|^2, nu_T(0) = |T|), so `last` >= 1; the chunk
        # size, in representative rows, is set so that row `last` is the
        # first row of the second chunk, the last row of the first chunk,
        # or a chunk of its own.
        for spec, pairing, s, t in FAILING:
            expected = check_pair_loop(spec, pairing, s, t)
            failing = expected.first_failure.index
            reps = galois_classes(spec)[0]
            last = int(np.searchsorted(reps, failing, side="right")) - 1
            assert last >= 1
            rows = {"every_row": 1, "first_row": last, "last_row": last + 1}[where]
            monkeypatch.setattr(duality, "_CHUNK_ENTRIES", rows * _support_width(spec, s))
            starts = []
            chunks = duality._residue_chunks

            def recording(*args):
                for chunk in chunks(*args):
                    starts.append(chunk[0])
                    yield chunk

            monkeypatch.setattr(duality, "_residue_chunks", recording)
            assert check_pair(spec, pairing, s, t) == expected
            # the walk stopped at the chunk holding row `last`
            assert starts == list(range(0, starts[-1] + 1, rows))
            assert starts[-1] <= last < starts[-1] + rows
            if where == "first_row":
                assert starts[-1] == last
            monkeypatch.setattr(duality, "_residue_chunks", chunks)

    def test_certificate_problems_from_one_kernel_run(self):
        # verify_certificate takes its check and its spectrum from one kernel
        # run when the check holds, and recomputes the spectrum when it
        # fails: a tampered spectrum or partner is reported as by separate
        # calls
        spec = GroupSpec((40,))
        pairing = standard_pairing(spec)
        s, t = _subgroup_pair(spec, pairing, [5])
        cert = duality.make_certificate(spec, pairing, s, t=t)
        assert cert.spectrum == tuple(exact_spectrum(spec, pairing, s))
        assert duality.verify_certificate(cert) == (True, [])
        bad_spectrum = dataclasses.replace(cert, spectrum=(0,) + cert.spectrum[1:])
        assert duality.verify_certificate(bad_spectrum) == (
            False, ["recorded spectrum does not match recomputation"])
        bad_partner = dataclasses.replace(cert, t=ElementSet.from_indices(range(5)))
        ok, problems = duality.verify_certificate(bad_partner)
        report = check_pair(spec, pairing, s, bad_partner.t)
        assert not ok and problems[0] == f"duality check failed: {report.first_failure.actual}"
        assert "recorded spectrum does not match recomputation" not in problems


class TestMemoryAndOverflow:
    def test_order4096_set_stays_in_bounded_memory(self):
        # unchunked, the exponent table alone would be 4096 x |supp nu_S|
        # int64 entries, over 100 MB
        spec = GroupSpec((64, 64))
        pairing = standard_pairing(spec)
        rng = random.Random(401)
        s = ElementSet.from_indices(rng.sample(range(spec.order), 64))
        assert _support_width(spec, s) > 64  # S - S is larger than S: no coset
        tracemalloc.start()
        try:
            report = check_pair(spec, pairing, s, s)
            values = exact_spectrum(spec, pairing, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.holds
        assert len(values) == spec.order and values[0] == 64 * 64
        assert peak < 64 * 2**20, peak

    def test_overflow_guard_raises(self, monkeypatch):
        spec = GroupSpec((40,))
        pairing = standard_pairing(spec)
        s = ElementSet.from_indices([0, 1, 3, 7])
        bound = len(s) ** 2 * int(np.abs(reduction_matrix(40)).max())
        monkeypatch.setattr(duality, "_INT64_BOUND", bound + 1)
        assert exact_spectrum(spec, pairing, s)[0] == 16
        monkeypatch.setattr(duality, "_INT64_BOUND", bound)
        with pytest.raises(ValueError, match="int64"):
            exact_spectrum(spec, pairing, s)
        with pytest.raises(ValueError, match="int64"):
            check_pair(spec, pairing, s, ElementSet.from_indices(range(10)))
