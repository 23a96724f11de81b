"""Clebsch-Gordan values, the specialized closed form, and Wigner matrices."""

import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from aecodes.angular import HalfInt, cg_transition, clebsch_gordan_t, wigner_D
from aecodes.exactnum import RadicalSum, SqrtRational
from oracles import binom, half_int

H = half_int


def cg(j1, m1, j2, m2, J, M):
    return clebsch_gordan_t(*(H(x).twice_value for x in (j1, m1, j2, m2, J, M)))


def cg_transition_general(n, t, r, a, q, j):
    """C_{r,a}^q(j) through the general routine: j1 = n/2, m1 = j+a-n/2, j2 = r, m2 = t-a,
    J = n/2-t+q, M = j-n/2+t, as doubled labels."""
    return clebsch_gordan_t(
        n, 2 * (j + a) - n, 2 * r, 2 * (t - a), n - 2 * t + 2 * q, 2 * (j + t) - n
    )


class TestHalfInt:
    def test_make(self):
        assert H("7/2").twice_value == 7
        assert H(3).twice_value == 6
        assert H(Fraction(-5, 2)).twice_value == -5
        with pytest.raises(ValueError):
            H(Fraction(1, 3))


class TestClebschGordan:
    def test_highest_weight_is_one(self):
        for j1 in ("1/2", 1, "3/2", 2):
            for j2 in ("1/2", 1, "5/2"):
                total = Fraction(j1) + Fraction(j2)
                top = cg(j1, j1, j2, j2, total, total)
                assert top == SqrtRational.from_rational(1)

    def test_singlet_component(self):
        assert cg("1/2", "1/2", "1/2", "-1/2", 1, 0) == SqrtRational.sqrt(
            Fraction(1, 2)
        )

    def test_m_sum_selection_rule(self):
        assert cg(1, 1, 1, 1, 2, 1).is_zero()

    def test_rank_zero_coupling_is_identity(self):
        for j, m in (("7/2", "3/2"), (2, -1), ("5/2", "-5/2")):
            assert cg(j, m, 0, 0, j, m) == SqrtRational.from_rational(1)

    def test_triangle_violation_zero(self):
        assert cg(1, 0, 1, 0, 3, 0).is_zero()

    def test_condon_shortley_antisymmetric_triplet(self):
        assert cg(1, 1, 1, -1, 1, 0) == SqrtRational.sqrt(Fraction(1, 2))
        assert cg(1, -1, 1, 1, 1, 0) == -SqrtRational.sqrt(Fraction(1, 2))

    def test_orthogonality_sums_small(self):
        for tj1 in range(0, 5):
            for tj2 in range(0, 5):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        total = RadicalSum.zero()
                        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                            c = clebsch_gordan_t(tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                            total = total + RadicalSum.from_rational(c.radicand)
                        assert total == RadicalSum.from_rational(1)

    def test_matches_sympy(self):
        """Sign and radicand against sympy's exact Clebsch-Gordan values."""
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import clebsch_gordan

        count = 0
        for tj1 in range(9):
            for tj2 in range(5):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            if abs(tm1 + tm2) > tJ:
                                continue
                            labels = (tj1, tj2, tJ, tm1, tm2, tm1 + tm2)
                            expected = clebsch_gordan(
                                *(sympy.Rational(x, 2) for x in labels)
                            )
                            square = expected**2
                            value = clebsch_gordan_t(tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                            assert value.sign == sympy.sign(expected), labels
                            assert value.radicand == Fraction(int(square.p), int(square.q))
                            count += 1
        assert count == 1887
        # Racah sums with a large composite factor, all its primes above 1000; only the
        # ratio of binomials is split.
        for labels in (
            (348, 371, 493, -198, -23, -221),
            (464, 499, 387, 282, -175, 107),
            (511, 346, 257, -329, 156, -173),
        ):
            expected = clebsch_gordan(*(sympy.Rational(x, 2) for x in labels))
            square = expected**2
            tj1, tj2, tJ, tm1, tm2, tM = labels
            value = clebsch_gordan_t(tj1, tm1, tj2, tm2, tJ, tM)
            assert value.sign == sympy.sign(expected) != 0, labels
            assert value.radicand == Fraction(int(square.p), int(square.q))


def cg_binomial_reconstruction(n, t, r, a, q, j):
    """C_{r,a}^q(j) * sqrt(binom(n, j+a) * binom(nbar+q, j+q)), by double sum.

    Expands the closed form with the inner binomial split by a Vandermonde
    convolution; used to pin down the j-independent bridge terms.  (The
    surviving bridge factor deliberately omits the index-dependent binomial
    that the convolution replaces.)
    """
    nbar = n - 2 * t + q
    total = Fraction(0)
    for k in range(t - r, q + 1):
        for kp in range(0, t - r + 1):
            term = (
                binom(q - (t - r), k - (t - r))
                * binom(t + r - q, a - k)
                * binom(t - r, kp)
                * binom(nbar, j + k - kp)
            )
            total += -term if (k + t + r + a + q) % 2 else term
    if total == 0:
        return SqrtRational.zero()
    pref = (binom(n, t + r - q) * binom(2 * r, r + t - q)) / (
        binom(n + q + r - t + 1, r + t - q) * binom(2 * r, a + r - t)
    )
    sign = 1 if total > 0 else -1
    return SqrtRational.sqrt(pref * total * total).scaled(sign)


class TestTransitionForm:
    def test_matches_general_routine(self):
        for n in range(0, 9):
            for t in range(0, 3):
                if n < 2 * t:
                    continue
                for r in range(t + 1):
                    for a in range(t - r, t + r + 1):
                        for q in range(t - r, t + r + 1):
                            lo, hi = -min(a, q), n - max(a, 2 * t - q)
                            for j in range(lo - 2, hi + 3):
                                assert cg_transition(
                                    n, t, r, a, q, j
                                ) == cg_transition_general(n, t, r, a, q, j)

    def test_spot_instance_n7(self):
        n, t, r, a, q = 7, 1, 1, 1, 1
        for j in range(-1, 8):
            assert cg_transition(n, t, r, a, q, j) == cg_transition_general(
                n, t, r, a, q, j
            )

    def test_zero_outside_region(self):
        n, t, r, a, q = 8, 2, 2, 1, 2
        assert cg_transition(n, t, r, a, q, -min(a, q) - 1).is_zero()
        assert cg_transition(n, t, r, a, q, n - max(a, 2 * t - q) + 1).is_zero()

    def test_preconditions_rejected(self):
        with pytest.raises(ValueError):
            cg_transition(8, 1, 2, 1, 1, 0)  # r > t
        with pytest.raises(ValueError):
            cg_transition(8, 2, 1, 0, 2, 0)  # a < t - r
        with pytest.raises(ValueError):
            cg_transition(3, 2, 2, 2, 2, 0)  # n < 2t

    def test_binomial_reconstruction(self):
        for n in range(0, 9):
            for t in range(0, 3):
                if n < 2 * t:
                    continue
                for r in range(t + 1):
                    for a in range(t - r, t + r + 1):
                        for q in range(t - r, t + r + 1):
                            nbar = n - 2 * t + q
                            for j in range(-min(a, q), n - max(a, 2 * t - q) + 1):
                                weight = binom(n, j + a) * binom(nbar + q, j + q)
                                lhs = cg_transition(n, t, r, a, q, j) * SqrtRational.sqrt(weight)
                                assert lhs == cg_binomial_reconstruction(n, t, r, a, q, j)


def random_su2(rng, bits=200):
    """Uniform-ish SU(2) element from a seeded generator."""
    with mpmath.workprec(bits):
        angles = [mpmath.mpf(rng.random()) * 2 * mpmath.pi for _ in range(3)]
        w = mpmath.sqrt(mpmath.mpf(rng.random()))
        s = mpmath.sqrt(1 - w * w)
        a = w * mpmath.exp(1j * angles[0])
        b = s * mpmath.exp(1j * angles[1])
        u = mpmath.matrix(2, 2)
        u[0, 0], u[0, 1] = a, b
        u[1, 0], u[1, 1] = -mpmath.conj(b), mpmath.conj(a)
        return u


class TestWignerD:
    def test_identity(self):
        d = wigner_D(H("3/2"), mpmath.eye(2), 120)
        for i in range(4):
            for j in range(4):
                assert abs(d[i, j] - (1 if i == j else 0)) < mpmath.mpf(2) ** -100

    def test_defining_representation(self):
        rng = random.Random(5)
        for _ in range(5):
            u = random_su2(rng)
            d = wigner_D(H("1/2"), u, 200)
            err = max(abs(d[i, j] - u[i, j]) for i in range(2) for j in range(2))
            assert err < mpmath.mpf(2) ** -180

    def test_homomorphism(self):
        rng = random.Random(11)
        bits = 200
        for tj in (2, 5, 9, 15, 27):
            with mpmath.workprec(bits):
                u1, u2 = random_su2(rng, bits), random_su2(rng, bits)
                d12 = wigner_D(HalfInt(tj), u1 * u2, bits)
                d1d2 = wigner_D(HalfInt(tj), u1, bits) * wigner_D(HalfInt(tj), u2, bits)
                err = max(
                    abs(d12[i, j] - d1d2[i, j])
                    for i in range(tj + 1)
                    for j in range(tj + 1)
                )
            assert err < mpmath.mpf("1e-25")

    def test_unitarity_bound(self):
        rng = random.Random(23)
        bits = 200
        tj = 15
        with mpmath.workprec(bits):
            u = random_su2(rng, bits)
            d = wigner_D(HalfInt(tj), u, bits)
            gram = d.transpose_conj() * d - mpmath.eye(tj + 1)
            _, sv, _ = mpmath.svd(gram)
            norm = max(sv[i] for i in range(sv.rows))
        assert norm <= (tj + 1) * mpmath.mpf(2) ** (10 - bits)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            wigner_D(H(1), [[1, 1], [0, 1]], 100)
        with pytest.raises(ValueError):
            # unitary but det = -1
            wigner_D(H(1), [[0, 1], [1, 0]], 100)

    def test_matches_euler_angle_formula(self):
        """D(Rz(alpha) Ry(beta) Rz(gamma)) against e^{-im'alpha} d(beta) e^{-im gamma}."""
        rng = random.Random(3)
        bits = 200
        with mpmath.workprec(bits):

            def draw():
                return mpmath.mpf(rng.random()) * 2 * mpmath.pi

            zero = mpmath.mpf(0)
            angles = [(zero, zero, zero), (draw(), zero, draw()), (draw(), mpmath.pi, draw())]
            angles += [(draw(), draw(), draw()) for _ in range(2)]
            for alpha, beta, gamma in angles:
                u = rz(alpha) * ry(beta) * rz(gamma)
                for tj in range(0, 13):
                    d = wigner_D(HalfInt(tj), u, bits)
                    err = max(
                        abs(d[row, col] - euler_D_entry(tj, row, col, alpha, beta, gamma))
                        for row in range(tj + 1)
                        for col in range(tj + 1)
                    )
                    assert err < mpmath.mpf("1e-50"), (tj, alpha, beta, gamma)


def rz(p):
    return mpmath.matrix([[mpmath.exp(-1j * p / 2), 0], [0, mpmath.exp(1j * p / 2)]])


def ry(b):
    return mpmath.matrix(
        [[mpmath.cos(b / 2), -mpmath.sin(b / 2)], [mpmath.sin(b / 2), mpmath.cos(b / 2)]]
    )


def euler_D_entry(tj, row, col, alpha, beta, gamma):
    """Textbook D^J_{m'm}, with small d from Wigner's factorial sum.

    Rows and columns count down from m = J, so m' = J - row and m = J - col.
    """
    tm_row, tm_col = tj - 2 * row, tj - 2 * col
    jpr, jmr = (tj + tm_row) // 2, (tj - tm_row) // 2
    jpc, jmc = (tj + tm_col) // 2, (tj - tm_col) // 2
    shift = (tm_row - tm_col) // 2
    cos_hb, sin_hb = mpmath.cos(beta / 2), mpmath.sin(beta / 2)
    small_d = mpmath.mpf(0)
    for s in range(max(0, -shift), min(jpc, jmr) + 1):
        den = factorial(jpc - s) * factorial(s) * factorial(shift + s) * factorial(jmr - s)
        small_d += (
            (-1) ** (shift + s)
            * cos_hb ** (tj - shift - 2 * s)
            * sin_hb ** (shift + 2 * s)
            / den
        )
    small_d *= mpmath.sqrt(factorial(jpr) * factorial(jmr) * factorial(jpc) * factorial(jmc))
    return mpmath.exp(-1j * (tm_row * alpha + tm_col * gamma) / 2) * small_d
