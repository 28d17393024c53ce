from __future__ import annotations

import random

import pytest

from fdual.cyclotomic import (
    ClassVector,
    as_integer,
    conj,
    cyclotomic_poly,
    mul_mod,
    norm_sq,
    residue,
)

from oracles import eval_float, poly_mul


class TestCyclotomicPoly:
    def test_small_values(self):
        assert cyclotomic_poly(1).coeffs == (-1, 1)
        assert cyclotomic_poly(2).coeffs == (1, 1)
        assert cyclotomic_poly(4).coeffs == (1, 0, 1)
        assert cyclotomic_poly(6).coeffs == (1, -1, 1)

    def test_monic_and_totient_degree(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)

        for m in range(1, 40):
            poly = cyclotomic_poly(m)
            assert poly.coeffs[-1] == 1
            assert poly.degree == phi(m)

    def test_product_identity_up_to_64(self):
        for m in range(1, 65):
            acc = (1,)
            for d in range(1, m + 1):
                if m % d == 0:
                    acc = poly_mul(acc, cyclotomic_poly(d).coeffs)
            assert acc == (-1,) + (0,) * (m - 1) + (1,), f"product of divisors fails at m={m}"

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestClassVector:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            ClassVector(4, (1, 2))
        with pytest.raises(ValueError):
            ClassVector(0, ())

    def test_conj_examples(self):
        i = ClassVector(4, (0, 1, 0, 0))
        assert conj(i).coeffs == (0, 0, 0, 1)
        sym = ClassVector(4, (2, 1, 5, 1))
        assert conj(sym) == sym
        assert conj(ClassVector(1, (7,))).coeffs == (7,)

    def test_mul_examples(self):
        p = ClassVector(4, (1, 1, 0, 0))
        q = ClassVector(4, (1, 0, 0, 1))
        assert mul_mod(p, q).coeffs == (2, 1, 0, 1)
        one = ClassVector(4, (1, 0, 0, 0))
        assert mul_mod(p, one) == p
        zero = ClassVector.zero(4)
        assert mul_mod(p, zero) == zero

    def test_mismatched_modulus_rejected(self):
        with pytest.raises(ValueError):
            mul_mod(ClassVector.zero(4), ClassVector.zero(6))

    def test_norm_sq_examples(self):
        assert as_integer(norm_sq(ClassVector(4, (1, 1, 0, 0)))) == 2
        assert as_integer(norm_sq(ClassVector(4, (1, 1, 1, 1)))) == 0
        assert as_integer(norm_sq(ClassVector.constant(6, -3))) == 9


class TestAsInteger:
    def test_examples(self):
        assert as_integer(ClassVector(4, (2, 1, 0, 1))) == 2
        assert as_integer(ClassVector(4, (0, 1, 0, 0))) is None
        assert as_integer(ClassVector(5, (1, 1, 1, 1, 1))) == 0
        assert as_integer(ClassVector(1, (9,))) == 9

    def test_float_agreement_on_random_vectors(self):
        rng = random.Random(101)
        integer_hits = 0
        for _ in range(1000):
            m = rng.randint(1, 16)
            p = ClassVector(m, tuple(rng.randint(-9, 9) for _ in range(m)))
            value = as_integer(p)
            approx = eval_float(p)
            if value is not None:
                integer_hits += 1
                assert abs(approx - value) < 1e-9
        assert integer_hits > 50  # the sample actually exercises the integer branch

    def test_norm_sq_real_and_nonnegative(self):
        rng = random.Random(103)
        for _ in range(300):
            m = rng.randint(1, 16)
            p = ClassVector(m, tuple(rng.randint(-9, 9) for _ in range(m)))
            approx = eval_float(norm_sq(p))
            assert abs(approx.imag) < 1e-9
            assert approx.real >= -1e-9

    def test_rotation_invariance_of_norms(self):
        # multiplying by a root of unity must not change presence or value
        rng = random.Random(107)
        for _ in range(200):
            m = rng.randint(1, 16)
            p = ClassVector(m, tuple(rng.randint(-9, 9) for _ in range(m)))
            base = as_integer(norm_sq(p))
            j = rng.randrange(m)
            rotated = mul_mod(p, ClassVector.root_power(m, j))
            assert as_integer(norm_sq(rotated)) == base


class TestResidue:
    def test_equal_values_share_residue(self):
        # x^4 == 1 at zeta_4, so x^5 + 3 and x + 3 agree
        a = ClassVector(4, (3, 1, 0, 0))
        b = mul_mod(ClassVector(4, (0, 1, 0, 0)), ClassVector(4, (3, 0, 0, 1)))
        # b = x*(3 + x^3) = 3x + x^4 = 3x + 1
        assert b.coeffs == (1, 3, 0, 0)
        assert residue(ClassVector(4, (1, 3, 0, 0))) == residue(b)
        assert residue(a) != residue(ClassVector.zero(4))

    def test_float_matches_residue_zero(self):
        rng = random.Random(109)
        for _ in range(200):
            m = rng.randint(2, 16)
            p = ClassVector(m, tuple(rng.randint(-6, 6) for _ in range(m)))
            if residue(p) == (0,):
                assert abs(eval_float(p)) < 1e-9
