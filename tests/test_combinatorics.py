"""Binomial convention and the combinatorial identity oracles.

``binom`` here is the generalized binomial of ``tests/oracles.py``; the
identities themselves run on ``aecodes.combinatorics.binom`` in ints.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecodes import combinatorics
from aecodes.combinatorics import (
    check_corollary_B3,
    check_identity_B2,
    check_lemma_B1,
    check_lemma_B4,
    f_coeff,
)
from oracles import binom


class TestBinom:
    def test_half_integer_upper(self):
        assert binom(Fraction(7, 2), 2) == Fraction(35, 8)

    def test_k_zero_is_one(self):
        for x in (Fraction(0), Fraction(-3, 2), Fraction(10), Fraction(22, 7)):
            assert binom(x, 0) == 1

    def test_negative_k_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(Fraction(-7, 3), -4) == 0

    def test_factor_hits_zero(self):
        assert binom(3, 5) == 0

    def test_matches_factorial_formula(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                assert binom(n, k) == math.comb(n, k)

    @given(
        num=st.integers(min_value=-40, max_value=40),
        den=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=-3, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_pascal_recurrence(self, num, den, k):
        x = Fraction(num, den)
        assert binom(x, k) == binom(x - 1, k - 1) + binom(x - 1, k)


def falling_factorial_binom(x: Fraction, k: int) -> Fraction:
    """Reference: prod_{i<k} (x - i) / k! in Fraction, 0 for k < 0."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


class TestBinomOracle:
    """binom against the falling-factorial product on every argument kind."""

    def test_integer_upper_as_int_and_fraction(self):
        for x in range(-12, 41):
            for k in range(-2, 21):
                expected = falling_factorial_binom(Fraction(x), k)
                for arg in (x, Fraction(x)):
                    got = binom(arg, k)
                    assert got == expected and isinstance(got, Fraction)

    def test_half_integer_upper(self):
        for num in range(-25, 82, 2):
            x = Fraction(num, 2)
            for k in range(-2, 21):
                assert binom(x, k) == falling_factorial_binom(x, k)


class TestLemmaB1:
    def test_spot_instance(self):
        assert check_lemma_B1(5, 3, 2, 1)

    def test_all_equal(self):
        assert check_lemma_B1(7, 7, 7, 7)

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_B1(3, 5, 2, 1)

    def test_medium_sweep(self):
        assert all(
            check_lemma_B1(n, k, r, a)
            for n in range(13)
            for r in range(n + 1)
            for k in range(n + 1)
            for a in range(min(r, k) + 1)
        )


class TestIdentityB2:
    def test_all_zero(self):
        assert check_identity_B2(0, 0, 0, 0, 0)

    def test_all_one(self):
        assert check_identity_B2(1, 1, 1, 1, 1)

    def test_medium_sweep(self):
        rng = range(5)
        assert all(
            check_identity_B2(a, b, c, d, e)
            for a in rng for b in rng for c in rng for d in rng for e in rng
        )


class TestCorollaryB3:
    def test_negative_r_both_sides_zero(self):
        assert check_corollary_B3(3, 2, 4, -1)
        assert check_corollary_B3(1, 1, 1, -2)

    def test_spot_instance(self):
        assert check_corollary_B3(2, 3, 2, 1)

    def test_medium_sweep(self):
        assert all(
            check_corollary_B3(n, l, m, r)
            for n in range(1, 6)
            for l in range(1, 6)
            for m in range(1, 6)
            for r in range(-2, 9)
        )


class TestFCoeff:
    def test_collapsed_indices_reduce(self):
        # z1 = z2 = 0 forces u = w = 0 and the coefficient collapses to
        # binom(nbar+v, v) * binom(q, v) / binom(nbar+q, q)
        n, t, q = 9, 2, 3
        nbar = n - 2 * t + q
        for v in range(q + 1):
            got = f_coeff(0, 0, 0, v, 0, q, t, n)
            expected = binom(nbar + v, v) * binom(q, v) / binom(nbar + q, q)
            assert got == expected

    def test_term_by_term_rederivation(self):
        # independent transcription with the q -> q - z2 switch done by hand
        n, t, q, z1, z2, u, v, w = 6, 1, 2, 1, 1, 0, 0, 0
        nbar = n - 2 * t + q  # 6
        qs = q - z2  # 1
        expected = (
            binom(z2, u)
            * binom(nbar, u + z1 - z2)
            * binom(nbar - u + v, v)
            * binom(qs, z1 - z2 + v)
            * binom(z2 - u, w)
            / (binom(qs + z2, z1) * binom(nbar + qs + z2, qs + z2))
        )
        assert expected == Fraction(1, 56)  # 1 / (binom(2,1) * binom(8,2))
        assert f_coeff(z1, z2, u, v, w, q, t, n) == expected

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            f_coeff(z1=1, z2=1, u=1, v=0, w=1, q=2, t=1, n=6)  # w > z2 - u
        with pytest.raises(ValueError):
            f_coeff(z1=2, z2=1, u=0, v=0, w=0, q=1, t=1, n=6)  # z1 > q


class TestLemmaB4:
    def test_far_below_window_is_trivially_true(self):
        assert check_lemma_B4(8, 3, 2, 1, 2, j=-40)

    def test_documented_windows(self):
        for j in range(-5, 13):
            assert check_lemma_B4(8, 3, 2, 1, 2, j)
        for j in range(-3, 9):
            assert check_lemma_B4(4, 2, 0, 0, 1, j)

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_B4(3, 2, 1, 1, 2, 0)  # n < 2t

    def test_medium_sweep(self):
        for n in range(7):
            for t in range(3):
                if n < 2 * t:
                    continue
                for q in range(2 * t + 1):
                    for z1 in range(q + 1):
                        for z2 in range(z1 + 1):
                            for j in range(-q - 2 * t - 2, n - 2 * t + q + 3):
                                assert check_lemma_B4(n, q, z1, z2, t, j)


class TestIntRewrite:
    """The int checks stay sensitive to their binomials and agree with the generalized ones."""

    def test_binom_is_int_oracle(self):
        for n in range(21):
            for k in range(-3, 24):
                got = combinatorics.binom(n, k)
                assert type(got) is int and got == binom(n, k)

    def test_off_by_one_binom_fails_every_identity(self, monkeypatch):
        # a check that compared a side with itself would still pass
        true_binom = combinatorics.binom
        monkeypatch.setattr(combinatorics, "binom", lambda n, k: true_binom(n, k) + (k == 1))
        rng = range(3)
        assert not all(
            check_lemma_B1(n, k, r, a)
            for n in range(5) for r in range(n + 1) for k in range(n + 1)
            for a in range(min(r, k) + 1)
        )
        assert not all(
            check_identity_B2(a, b, c, d, e)
            for a in rng for b in rng for c in rng for d in rng for e in rng
        )
        assert not all(
            check_corollary_B3(n, l, m, r)
            for n in range(1, 3) for l in range(1, 3) for m in range(1, 3) for r in range(-2, 4)
        )
        assert not all(
            check_lemma_B4(n, q, z1, z2, t, j)
            for n in range(5) for t in range(2) if n >= 2 * t
            for q in range(2 * t + 1) for z1 in range(q + 1) for z2 in range(z1 + 1)
            for j in range(-q - 2 * t - 2, n - 2 * t + q + 3)
        )

    def test_f_coeff_matches_oracle_expansion(self):
        # the whole Lemma B4 sweep range of run_identity_sweeps: n <= 8, t <= 2
        indices = [
            (n, t, q, z1, z2, u, v, w)
            for n in range(9) for t in range(3) if n >= 2 * t
            for q in range(2 * t + 1) for z1 in range(q + 1) for z2 in range(z1 + 1)
            for u in range(z2 + 1) for v in range(q - z1 + 1) for w in range(z2 - u + 1)
        ]
        for n, t, q, z1, z2, u, v, w in indices:
            nbar, qs = n - 2 * t + q, q - z2
            expected = (
                binom(z2, u)
                * binom(nbar, u + z1 - z2)
                * binom(nbar - u + v, v)
                * binom(qs, z1 - z2 + v)
                * binom(z2 - u, w)
                / (binom(qs + z2, z1) * binom(nbar + qs + z2, qs + z2))
            )
            assert f_coeff(z1, z2, u, v, w, q, t, n) == expected
