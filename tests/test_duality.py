from __future__ import annotations

import dataclasses
import pickle
import random

import numpy as np
import pytest

from fdual.abelian import (
    ElementSet,
    GroupSpec,
    PairingMatrix,
    _is_int,
    automorphism_group,
    pairing_from_automorphism,
    standard_pairing,
)
from fdual.cyclotomic import as_integer, residue
from fdual.duality import (
    Certificate,
    CertificateError,
    check_pair,
    check_self_dual,
    exact_spectrum,
    make_certificate,
    verify_certificate,
    weight_enumerator,
)
from fdual.primitivity import is_primitive

from oracles import (
    char_sum,
    dual_side_holds,
    eval_float,
    oracle_neg,
    spectrum_entry,
    spectrum_entry_from_nu,
    subgroup_oracle,
    translate,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
SMALL_POOL = [GroupSpec(o) for o in [(2,), (4,), (2, 2), (6,), (8,), (2, 4), (9,), (12,), (2, 8), (16,), (4, 4), (2, 2, 4)]]


def _random_set(rng, spec, size):
    return ElementSet.from_indices(rng.sample(range(spec.order), size))


def _random_pairing(rng, spec):
    tables = automorphism_group(spec)
    return pairing_from_automorphism(standard_pairing(spec), tables[rng.randrange(len(tables))])


class TestWeightEnumerator:
    def test_z4_example(self):
        assert weight_enumerator(Z4, ElementSet.from_indices([0, 1])) == (2, 1, 0, 1)

    def test_order64_diagonal(self, order64_spec, order64_set):
        assert weight_enumerator(order64_spec, order64_set)[0] == 8

    def test_invariants_on_random_sets(self):
        rng = random.Random(211)
        for _ in range(1000):
            spec = rng.choice(SMALL_POOL)
            size = rng.randint(1, spec.order)
            s = _random_set(rng, spec, size)
            nu = weight_enumerator(spec, s)
            assert nu[0] == len(s)
            assert sum(nu) == len(s) ** 2
            assert all(v >= 0 for v in nu)
            for d in range(spec.order):
                assert nu[d] == nu[oracle_neg(spec, d)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weight_enumerator(Z4, ElementSet())


class TestCharSum:
    def test_trivial_character(self):
        rng = random.Random(223)
        for spec in SMALL_POOL[:6]:
            s = _random_set(rng, spec, rng.randint(1, spec.order))
            cs = char_sum(spec, standard_pairing(spec), s, 0)
            assert cs.coeffs[0] == len(s)
            assert sum(cs.coeffs) == len(s)

    def test_z4_example(self):
        cs = char_sum(Z4, standard_pairing(Z4), ElementSet.from_indices([0, 1]), 1)
        assert cs.coeffs == (1, 1, 0, 0)

    def test_full_group_orthogonality(self):
        for spec in SMALL_POOL[:6]:
            whole = ElementSet.from_indices(range(spec.order))
            pairing = standard_pairing(spec)
            for t in range(1, spec.order):
                assert as_integer(spectrum_entry(spec, pairing, whole, t)) == 0


class TestSpectrum:
    def test_z4_values(self):
        s = ElementSet.from_indices([0, 1])
        assert exact_spectrum(Z4, standard_pairing(Z4), s) == [4, 2, 0, 2]

    def test_trivial_entry_is_square(self):
        rng = random.Random(227)
        for spec in SMALL_POOL[:8]:
            s = _random_set(rng, spec, rng.randint(1, spec.order))
            assert as_integer(spectrum_entry(spec, standard_pairing(spec), s, 0)) == len(s) ** 2

    def test_order64_entries_are_eight_times_nu(self, order64_spec, order64_pairing, order64_set):
        nu = weight_enumerator(order64_spec, order64_set)
        values = exact_spectrum(order64_spec, order64_pairing, order64_set)
        assert all(v is not None for v in values)
        assert all(v % 8 == 0 for v in values)
        assert [8 * nu[t] for t in range(64)] == values

    def test_dual_route_agreement(self):
        # norm_sq(char_sum) and the nu-weighted sum must agree coefficient
        # by coefficient, and therefore also mod the cyclotomic polynomial
        rng = random.Random(229)
        for _ in range(150):
            spec = rng.choice(SMALL_POOL)
            s = _random_set(rng, spec, rng.randint(1, spec.order))
            pairing = _random_pairing(rng, spec)
            nu = weight_enumerator(spec, s)
            t = rng.randrange(spec.order)
            direct = spectrum_entry(spec, pairing, s, t)
            via_nu = spectrum_entry_from_nu(spec, pairing, nu, t)
            assert direct == via_nu
            assert residue(direct) == residue(via_nu)

    def test_parseval_float(self):
        rng = random.Random(233)
        for spec in SMALL_POOL:
            s = _random_set(rng, spec, rng.randint(1, spec.order))
            pairing = standard_pairing(spec)
            total = sum(
                eval_float(spectrum_entry(spec, pairing, s, t)).real
                for t in range(spec.order)
            )
            assert abs(total - spec.order * len(s)) <= 1e-6 * spec.order


class TestCheckPair:
    def test_z4_tito(self):
        s = ElementSet.from_indices([0, 1])
        report = check_pair(Z4, standard_pairing(Z4), s, s)
        assert report.holds and report.checked_count == 4

    def test_z2_singleton_against_whole(self):
        s = ElementSet.from_indices([0])
        t = ElementSet.from_indices([0, 1])
        assert check_pair(Z2, standard_pairing(Z2), s, t).holds

    def test_size_law_short_circuit(self):
        z8 = GroupSpec((8,))
        s = ElementSet.from_indices([0, 1, 2])
        report = check_pair(z8, standard_pairing(z8), s, s)
        assert not report.holds
        assert report.first_failure.index is None
        assert report.checked_count == 0
        assert "size law" in report.first_failure.actual

    def test_size_law_is_forced_not_assumed(self):
        # bypass the short-circuit: when |S|*|T| != |G| the per-character
        # identity must genuinely fail somewhere, so short-circuiting is a
        # soundness-preserving optimization
        rng = random.Random(249)
        for _ in range(120):
            spec = rng.choice([g for g in SMALL_POOL if g.order <= 16])
            n = spec.order
            s_size = rng.randint(1, n)
            t_size = rng.randint(1, n)
            if s_size * t_size == n:
                continue
            s = _random_set(rng, spec, s_size)
            t = _random_set(rng, spec, t_size)
            pairing = standard_pairing(spec)
            nu_t = weight_enumerator(spec, t)
            identity_everywhere = all(
                (value := as_integer(spectrum_entry(spec, pairing, s, idx))) is not None
                and t_size * value == s_size ** 2 * nu_t[idx]
                for idx in range(n)
            )
            assert not identity_everywhere, (spec.orders, s.indices, t.indices)

    def test_failure_records_first_index(self):
        s = ElementSet.from_indices([0, 1])
        t = ElementSet.from_indices([0, 2])
        report = check_pair(Z4, standard_pairing(Z4), s, t)
        assert not report.holds
        assert report.first_failure.index is not None
        assert report.checked_count == report.first_failure.index + 1

    def test_degenerate_pairing_rejected(self):
        s = ElementSet.from_indices([0, 1])
        with pytest.raises(ValueError):
            check_pair(Z4, PairingMatrix(Z4, ((2,),)), s, s)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_pair(Z4, standard_pairing(Z4), ElementSet(), ElementSet.from_indices([0]))


class TestSelfDual:
    def test_order64_instance(self, order64_spec, order64_pairing, order64_set):
        assert check_self_dual(order64_spec, order64_pairing, order64_set).holds

    def test_order64_mutation_fails(self, order64_spec, order64_pairing, order64_set):
        bad = [i for i in order64_set.indices if i != order64_spec.index_of((1, 1, 3, 2))]
        bad.append(order64_spec.index_of((1, 1, 3, 3)))
        assert not check_self_dual(order64_spec, order64_pairing, ElementSet.from_indices(bad)).holds

    def test_translation_invariance(self):
        rng = random.Random(239)
        for _ in range(60):
            spec = rng.choice([Z4, GroupSpec((2, 8)), GroupSpec((4, 4)), GroupSpec((16,))])
            root = int(spec.order ** 0.5)
            s = _random_set(rng, spec, root)
            pairing = _random_pairing(rng, spec)
            v = rng.randrange(spec.order)
            moved = translate(spec, s, v)
            assert (
                check_self_dual(spec, pairing, s).holds
                == check_self_dual(spec, pairing, moved).holds
            )


class TestEquivalenceOfDefinitions:
    def test_dual_side_z4(self):
        s = ElementSet.from_indices([0, 1])
        assert dual_side_holds(Z4, standard_pairing(Z4), s, s)

    def test_dual_side_size_mismatch(self):
        z8 = GroupSpec((8,))
        s = ElementSet.from_indices([0, 1, 2])
        assert not dual_side_holds(z8, standard_pairing(z8), s, s)

    def test_both_sides_agree_on_random_triples(self):
        rng = random.Random(241)
        agree_true = 0
        trials = 0
        while trials < 200:
            spec = rng.choice([g for g in SMALL_POOL if g.order <= 16])
            n = spec.order
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            s_size = rng.choice(divisors)
            t_size = n // s_size if rng.random() < 0.85 else rng.choice(divisors)
            s = _random_set(rng, spec, s_size)
            t = _random_set(rng, spec, t_size)
            pairing = _random_pairing(rng, spec)
            lhs = check_pair(spec, pairing, s, t).holds
            rhs = dual_side_holds(spec, pairing, s, t)
            assert lhs == rhs
            agree_true += lhs
            trials += 1
        # seeded instances that hold, so the test is not vacuous
        s = ElementSet.from_indices([0, 1])
        assert check_pair(Z4, standard_pairing(Z4), s, s).holds
        assert dual_side_holds(Z4, standard_pairing(Z4), s, s)


class TestCertificates:
    def test_roundtrip_and_reverify(self, order64_spec, order64_pairing, order64_set):
        cert = make_certificate(order64_spec, order64_pairing, order64_set)
        ok, problems = verify_certificate(cert)
        assert ok and not problems
        again = Certificate.from_dict(cert.to_dict())
        assert verify_certificate(again)[0]
        assert again.s == order64_set
        assert again.kind == "self_dual"
        assert again.s_primitive and again.t_primitive

    def test_pickle_roundtrip(self, order64_spec, order64_pairing, order64_set):
        s = ElementSet.from_indices([0, 1])
        for cert in (make_certificate(order64_spec, order64_pairing, order64_set),
                     make_certificate(Z4, standard_pairing(Z4), s, t=s)):
            again = pickle.loads(pickle.dumps(cert))
            assert again == cert
            assert verify_certificate(again)[0]

    def test_pair_certificate_contains_t(self):
        s = ElementSet.from_indices([0, 1])
        cert = make_certificate(Z4, standard_pairing(Z4), s, t=s)
        data = cert.to_dict()
        assert data["kind"] == "pair"
        assert data["t"] == [[0], [1]]
        assert data["nu_t"] == [2, 1, 0, 1]
        assert data["spectrum"] == [4, 2, 0, 2]

    def test_non_verifying_instance_refused(self):
        s = ElementSet.from_indices([0, 1])
        t = ElementSet.from_indices([0, 2])
        with pytest.raises(CertificateError):
            make_certificate(Z4, standard_pairing(Z4), s, t=t)

    def test_tampered_certificate_detected(self, order64_spec, order64_pairing, order64_set):
        cert = make_certificate(order64_spec, order64_pairing, order64_set)
        data = cert.to_dict()
        data["nu_t"] = list(data["nu_t"])
        data["nu_t"][3] += 1
        ok, problems = verify_certificate(Certificate.from_dict(data))
        assert not ok
        assert any("nu table" in p for p in problems)

    def test_duplicated_elements_in_certificate_rejected(self, order64_spec, order64_pairing, order64_set):
        cert = make_certificate(order64_spec, order64_pairing, order64_set)
        data = cert.to_dict()
        data["s"] = list(data["s"])
        data["s"][1] = data["s"][0]  # duplicate collapses the set
        with pytest.raises(CertificateError, match="sizes disagree"):
            Certificate.from_dict(data)

    def test_flags_match_is_primitive_and_are_checked(self):
        # a subgroup H and its annihilator are a formally dual pair, neither
        # primitive unless trivial; the flags come from the nu tables of the
        # kernel run and must equal is_primitive, under any pairing, and a
        # flipped flag is reported whether or not the check holds
        rng = random.Random(331)
        cases = [(Z4, [0, 1], [0, 1])]
        for orders, gens in [((8,), [2]), ((2, 4), [1]), ((4, 4), [2, 8]), ((2, 2, 4), [1]), ((16,), [4])]:
            spec = GroupSpec(orders)
            cases.append((spec, sorted(subgroup_oracle(spec, gens)), None))
        flags = set()
        for spec, s_idx, t_idx in cases:
            pairing = _random_pairing(rng, spec)
            s = ElementSet.from_indices(s_idx)
            if t_idx is None:
                annihilator = (pairing.exponents(range(spec.order), s) == 0).all(axis=1)
                t_idx = np.flatnonzero(annihilator).tolist()
            t = ElementSet.from_indices(t_idx)
            cert = make_certificate(spec, pairing, s, t=t)
            assert (cert.s_primitive, cert.t_primitive) == (
                is_primitive(spec, s).primitive, is_primitive(spec, t).primitive)
            flags.add(cert.s_primitive)
            flipped = dataclasses.replace(cert, t_primitive=not cert.t_primitive)
            assert verify_certificate(flipped) == (False, ["recorded primitivity flag for T is wrong"])
            outside = next(x for x in range(spec.order) if x not in t)
            mutated = ElementSet.from_indices([*t.indices[:-1], outside])
            broken = dataclasses.replace(cert, t=mutated, s_primitive=not cert.s_primitive,
                                         t_primitive=not is_primitive(spec, mutated).primitive)
            problems = verify_certificate(broken)[1]
            assert problems[0].startswith("duality check failed: ")
            assert problems[-2:] == ["recorded primitivity flag for S is wrong",
                                     "recorded primitivity flag for T is wrong"]
        assert flags == {True, False}


class TestIntegerValidation:
    """Bools are not integers anywhere a document holds one; numpy integers are."""

    def test_is_int(self):
        assert _is_int(3) and _is_int(np.int64(3)) and _is_int(np.uint8(0))
        assert not any(map(_is_int, [True, False, np.bool_(True), 1.0, "1", None]))

    def test_coordinates_and_pairing_entries(self):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            ElementSet.from_coords(Z4, [[0], [True]])
        assert ElementSet.from_coords(Z4, [[np.int64(0)], [np.int64(3)]]).indices == (0, 3)
        for bad in (True, False):
            with pytest.raises(ValueError, match="pairing entries must be integers"):
                PairingMatrix(Z4, ((bad,),))
        assert PairingMatrix(Z4, ((np.int64(1),),)) == standard_pairing(Z4)

    def test_certificate_integers(self):
        s = ElementSet.from_indices([0, 1])
        data = make_certificate(Z4, standard_pairing(Z4), s, t=s).to_dict()
        for field, value in [("s_size", True), ("t_size", False), ("nu_t", [True, 1, 0, 1]),
                             ("spectrum", [4, 2, False, 2]), ("group", {"orders": [True]}),
                             ("pairing", [[True]]), ("s", [[0], [True]])]:
            with pytest.raises(ValueError):
                Certificate.from_dict(dict(data, **{field: value}))
        numpy_ints = dict(data, s_size=np.int64(2), nu_t=[np.int64(v) for v in data["nu_t"]],
                          spectrum=[np.int64(v) for v in data["spectrum"]],
                          pairing=[[np.int64(1)]], s=[[np.int64(0)], [np.int64(1)]])
        assert verify_certificate(Certificate.from_dict(numpy_ints)) == (True, [])
