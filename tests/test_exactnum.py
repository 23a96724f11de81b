"""Exact scalar arithmetic: canonical forms, zero test, float rendering."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecodes.angular import clebsch_gordan_t
from aecodes.exactnum import (
    RadicalSum,
    _perfect_root,
    SqrtRational,
    sqrt_ratio,
    sqrt_rational_from_json,
    sqrt_rational_to_json,
)
from oracles import sqrt_rational_mpf, total


def brute_squarefree(n: int) -> bool:
    """Oracle: n has no square divisor > 1 (trial division)."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def storage(v: SqrtRational) -> tuple[int, int, int]:
    return v.num, v.den, v.kernel


class TestSquarefreeDecompose:
    """``SqrtRational.sqrt`` writes p/q as (s/q)**2 * k with k square-free."""

    def test_eight(self):
        assert storage(SqrtRational.sqrt(8)) == (2, 1, 2)
        assert SqrtRational.sqrt(8) == SqrtRational.sqrt(2).scaled(2)

    def test_three_tenths(self):
        # oracle: 3/10 = (1/10)^2 * 30 and 30 is square-free by trial division
        assert storage(SqrtRational.sqrt(Fraction(3, 10))) == (1, 10, 30)
        assert brute_squarefree(30)

    def test_one(self):
        assert storage(SqrtRational.sqrt(1)) == (1, 1, 1)
        assert SqrtRational.sqrt(Fraction(1)) == SqrtRational.from_rational(1)

    @given(
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_and_squarefree(self, num, den):
        r = Fraction(num, den)
        root = SqrtRational.sqrt(r)
        coeff = Fraction(root.num, root.den)
        assert coeff * coeff * root.kernel == r == root.radicand
        assert brute_squarefree(root.kernel)


class TestFactorize:
    """Radicands holding powers of a prime above the trial-division bound."""

    @pytest.mark.parametrize("power", [2, 3, 6])
    def test_power_of_large_prime(self, power):
        # 10**18 + 3 is prime.  An even power is a perfect square after trial division
        # and moves into the coefficient; an odd one stays whole in the kernel, where a
        # sum's coprime base splits it.
        p = 10**18 + 3
        whole = (p ** (power // 2), 1, 1) if power % 2 == 0 else (1, 1, p**power)
        assert storage(SqrtRational.sqrt(p**power)) == whole
        root = SqrtRational.sqrt(6 * p**power)
        split = SqrtRational.sqrt(6 * p ** (power % 2)).scaled(p ** (power // 2))
        assert root == split and hash(root) == hash(split)
        assert total([root, -split]).is_zero()
        assert total([root]) == total([split])


def _sq(sign, num, den):
    return SqrtRational.sqrt(Fraction(num, den)).scaled(sign)


class TestSqrtRational:
    def test_mul_radicands(self):
        assert _sq(1, 3, 10) * _sq(1, 7, 10) == _sq(1, 21, 100)

    def test_mul_signs(self):
        v = _sq(-1, 1, 2) * _sq(1, 1, 2)
        assert v == _sq(-1, 1, 4)
        assert v == SqrtRational.from_rational(Fraction(-1, 2))

    def test_absorbing_zero(self):
        assert (_sq(1, 5, 3) * SqrtRational.zero()).is_zero()

    def test_sign_radicand_consistency_enforced(self):
        # the code file reader's checks on each (sign, radicand) it reads
        for sign, num, den, message in (
            (0, 1, 2, "sign is 0 exactly when the radicand is 0"),
            (1, 0, 1, "sign is 0 exactly when the radicand is 0"),
            (2, 1, 1, "sign must be -1, 0, or \\+1"),
            (1, -3, 7, "radicand must be nonnegative"),
            (-1, 3, -7, "radicand must be nonnegative"),
            (1, 3, 0, "radicand_den must be nonzero"),
        ):
            d = {"sign": sign, "radicand_num": str(num), "radicand_den": str(den)}
            with pytest.raises(ValueError, match=message):
                sqrt_rational_from_json(d)

    def test_sign_and_radicand_views(self):
        v = _sq(-1, 9, 4)
        assert v.sign == -1 and v.radicand == Fraction(9, 4)
        assert v == SqrtRational.from_rational(Fraction(-3, 2))

    @given(
        a=st.fractions(min_value=0, max_value=50),
        b=st.fractions(min_value=0, max_value=50),
        c=st.fractions(min_value=0, max_value=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_mul_associative_commutative(self, a, b, c):
        x, y, z = SqrtRational.sqrt(a), SqrtRational.sqrt(b), SqrtRational.sqrt(c)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)

    @given(
        a=st.fractions(min_value=-100, max_value=100),
        b=st.fractions(min_value=-100, max_value=100),
        c=st.fractions(min_value=-100, max_value=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_field_axioms(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1
        assert a + (-a) == 0


class TestKernelInvariant:
    def test_no_constructor_takes_a_kernel(self):
        # A kernel from outside would skip the square-free split: {4: 1} is 2 but not from_rational(2).
        for make, args in ((SqrtRational, (1, 2)), (SqrtRational, (1, 4)), (RadicalSum, ({4: 1},))):
            with pytest.raises(TypeError):
                make(*args)
        assert RadicalSum() == RadicalSum.zero()
        assert total([SqrtRational.sqrt(4)]) == RadicalSum.from_rational(2)

    def test_public_constructor_roundtrips_through_radicand(self):
        v = SqrtRational.sqrt(6).scaled(Fraction(2, 3))
        assert storage(v) == (2, 3, 6) and v.radicand == Fraction(8, 3)
        assert SqrtRational.sqrt(v.radicand).scaled(v.sign) == v
        assert sqrt_rational_from_json(sqrt_rational_to_json(-v)) == -v


def reference_root(sign: int, radicand: Fraction) -> tuple[int, Fraction]:
    """(kernel, coefficient) of sign*sqrt(radicand), by trial division only.

    p/q = (d/q)**2 * k where d**2 is the largest square dividing p*q.
    """
    if sign == 0:
        return 1, Fraction(0)
    m = radicand.numerator * radicand.denominator
    d = max(e for e in range(1, math.isqrt(m) + 1) if m % (e * e) == 0)
    return m // (d * d), sign * Fraction(d, radicand.denominator)


_signed_radicands = st.tuples(
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
).map(lambda t: (t[0], Fraction(t[1], t[2]) if t[0] else Fraction(0)))


def canonical_view(v: SqrtRational) -> tuple[int, Fraction]:
    """(sign, radicand) of v, after asserting its int storage is canonical."""
    c = Fraction(v.num, v.den)
    assert isinstance(c, Fraction) and math.gcd(c.numerator, c.denominator) == 1
    assert (v.num, v.den) == (c.numerator, c.denominator) and v.den > 0
    assert v.kernel == 1 if v.num == 0 else brute_squarefree(v.kernel)
    return v.sign, v.radicand


class TestAgainstFractionReference:
    """Int-backed arithmetic against a Fraction-only (sign, radicand) model."""

    @given(
        pairs=st.lists(_signed_radicands, min_size=1, max_size=6),
        q=st.fractions(min_value=-20, max_value=20, max_denominator=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_operations(self, pairs, q):
        values = [SqrtRational.sqrt(r).scaled(s) for s, r in pairs]
        qs = (q > 0) - (q < 0)
        for v, (s, r) in zip(values, pairs):
            assert canonical_view(v) == (s, r)
            assert canonical_view(-v) == (-s, r)
            assert canonical_view(v.scaled(q)) == (s * qs, r * q * q)
            assert v.scaled(q) == v * SqrtRational.from_rational(q)
            assert hash(v.scaled(q)) == hash(v * SqrtRational.from_rational(q))
        for (x, (sx, rx)), (y, (sy, ry)) in itertools.product(zip(values, pairs), repeat=2):
            assert canonical_view(x * y) == (sx * sy, rx * ry)
            assert (x == y) == ((sx, rx) == (sy, ry))
            if x == y:
                assert hash(x) == hash(y)
        signed = values + [-v for v in values[::2]]
        signed += [x * y for x, y in zip(values, values[1:])]
        expected: dict[int, Fraction] = {}
        for v in signed:
            kernel, coeff = reference_root(v.sign, v.radicand)
            expected[kernel] = expected.get(kernel, Fraction(0)) + coeff
        summed = total(signed)
        assert summed.terms() == sorted((k, c) for k, c in expected.items() if c)
        assert all(isinstance(c, Fraction) for _, c in summed.terms())


class TestSqrtAgainstDecompose:
    """``SqrtRational.sqrt`` against an independent square-free decomposition, by sympy."""

    @given(
        q=st.one_of(
            st.integers(min_value=0, max_value=10**9),
            st.fractions(min_value=0, max_value=10**4, max_denominator=10**4),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_decompose(self, q):
        sympy = pytest.importorskip("sympy")
        root, r = SqrtRational.sqrt(q), Fraction(q)
        if q == 0:
            assert storage(root) == (0, 1, 1)
        else:
            # r = (s/den)**2 * k, where num * den = s**2 * k by sympy's factorization
            s = k = 1
            for p, e in sympy.factorint(r.numerator * r.denominator).items():
                s, k = s * p ** (e // 2), k * p ** (e % 2)
            g = math.gcd(s, r.denominator)
            assert storage(root) == (s // g, r.denominator // g, k)
        assert canonical_view(root) == (int(q > 0), Fraction(q))
        assert root == SqrtRational.sqrt(Fraction(q))
        with pytest.raises(ValueError, match="square root of negative rational"):
            SqrtRational.sqrt(-q - Fraction(1, 3))

    def test_other_rational_types_go_through_fraction(self):
        assert SqrtRational.sqrt(0.75) == SqrtRational.sqrt(Fraction(3, 4))
        assert SqrtRational.sqrt(Decimal("0.125")) == SqrtRational.sqrt(Fraction(1, 8))
        with pytest.raises(ValueError, match="square root of negative rational"):
            SqrtRational.sqrt(-0.5)


_LARGE_PRIMES = (1000003, 10**12 + 39, 2**61 - 1)
# Products of up to four factors, repeats included, so squares and higher powers occur.
_MIXED_RADICANDS = st.lists(st.sampled_from((2, 3, 5, 7, 997) + _LARGE_PRIMES), max_size=4).map(
    math.prod
)
_VALUES = st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    _MIXED_RADICANDS,
    st.sampled_from((1,) + _LARGE_PRIMES),
    st.booleans(),
)


def _built(c: Fraction, r: int, a: int, via_a: bool) -> SqrtRational:
    """c sqrt(r), directly or as c sqrt(r a) sqrt(1/a), which can leave a square in the kernel."""
    if not via_a:
        return SqrtRational.sqrt(r).scaled(c)
    return (SqrtRational.sqrt(r * a) * SqrtRational.sqrt(Fraction(1, a))).scaled(c)


def _factorint_kernel(r: int) -> tuple[int, int]:
    """(s, k) with r = s**2 k and k square-free, by sympy's factorization."""
    sympy = pytest.importorskip("sympy")
    s = k = 1
    for p, e in sympy.factorint(r).items():
        s, k = s * p ** (e // 2), k * p ** (e % 2)
    return s, k


class TestZeroTestAgainstFactorint:
    """``is_zero``, ``==`` and ``hash`` of sums whose kernels keep cofactors, against sympy."""

    @given(
        values=st.lists(_VALUES, min_size=1, max_size=6),
        cancel=st.booleans(),
        keep=st.integers(0, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_zero_equality_and_hash(self, values, cancel, keep):
        signed = [_built(*v) for v in values]
        for (c, r, a, via_a), v in zip(values, signed):
            other_way = _built(c, r, a, not via_a)
            assert v == other_way and hash(v) == hash(other_way) and v.radicand == c * c * r
        if cancel:  # all but the first `keep` values less themselves, built the other way round
            signed += [_built(-c, r, a, not via_a) for c, r, a, via_a in values[keep:]]
        expected: dict[int, Fraction] = {}
        for c, r, _, _ in values[:keep] if cancel else values:
            s, k = _factorint_kernel(r)
            expected[k] = expected.get(k, Fraction(0)) + c * s
        expected = {k: c for k, c in expected.items() if c}
        summed = total(signed)
        assert summed.is_zero() == (not expected) == (summed.to_mpf(200) == 0)
        reference = total([SqrtRational.sqrt(k).scaled(c) for k, c in expected.items()])
        assert summed == reference and hash(summed) == hash(reference)
        assert (summed - reference).is_zero()
        other = reference + total([SqrtRational.sqrt(_LARGE_PRIMES[1] ** 3)])
        assert summed != other and not (summed - other).is_zero()
        # terms() is a canonical form: its pairs rebuild the same value.
        rebuilt = total([SqrtRational.sqrt(k).scaled(c) for k, c in summed.terms()])
        assert rebuilt == summed and len(summed.terms()) == len(expected)


# Primes above 1000, so that trial division leaves them in the cofactor.
_COFACTOR_PRIMES = (1009, 1013, 10**6 + 3, 10**9 + 7, 10**18 + 3)


class TestTermsOverRepeatedCofactorPrimes:
    """``terms()`` when a cofactor holds a prime above 1000 more than once: equal sums print alike."""

    def test_cube_of_a_large_prime(self):
        p = 10**18 + 3
        cube = total([SqrtRational.sqrt(p**3)])
        assert cube.terms() == total([SqrtRational.sqrt(p).scaled(p)]).terms() == [(p, p)]

    @given(
        primes=st.sets(st.sampled_from(_COFACTOR_PRIMES), min_size=1, max_size=3),
        k=st.integers(1, 40),
        other=st.sampled_from((1,) + _COFACTOR_PRIMES),
    )
    @settings(max_examples=100, deadline=None)
    def test_perfect_root_against_sympy(self, primes, k, other):
        sympy = pytest.importorskip("sympy")
        for a in (math.prod(primes) ** k, math.prod(primes) ** k * other):
            r, x, e = _perfect_root(a), a, 0
            assert bool(r) == bool(sympy.perfect_power(a))
            while r > 1 and x % r == 0:
                x, e = x // r, e + 1
            assert not r or x == 1 and e >= 2

    @given(
        terms=st.lists(
            st.tuples(
                st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
                st.sets(st.sampled_from(_COFACTOR_PRIMES), min_size=1, max_size=3),
                st.integers(1, 7),
                st.sampled_from((1, 2, 12, 997)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_kernels_match_factorint(self, terms):
        # Each radicand is a power of a product of distinct large primes times a smooth int.
        values, expected = [], {}
        for c, primes, e, smooth in terms:
            r = math.prod(primes) ** e * smooth
            values.append(SqrtRational.sqrt(r).scaled(c))
            s, k = _factorint_kernel(r)
            expected[k] = expected.get(k, Fraction(0)) + c * s
        assert total(values).terms() == sorted((k, c) for k, c in expected.items() if c)


def canonical_sum(s: RadicalSum) -> RadicalSum:
    """s, after asserting its int storage: lowest terms, den > 0, no zero term."""
    for k, (num, den) in s._terms.items():
        assert isinstance(num, int) and isinstance(den, int) and isinstance(k, int)
        assert num != 0 and den > 0 and math.gcd(num, den) == 1
    return s


def radical_sum(d: dict[int, Fraction]) -> RadicalSum:
    """sum_k d[k] sqrt(k) over square-free kernels k, built through the public API."""
    return total([SqrtRational.sqrt(k).scaled(c) for k, c in d.items()])


_SMALL_KERNELS = st.sampled_from((1, 2, 3, 5, 6, 30, 1155))
_FRACTION_DICTS = st.dictionaries(
    _SMALL_KERNELS, st.fractions(min_value=-20, max_value=20, max_denominator=60), max_size=5
)


class TestRadicalSumAgainstFractionDicts:
    """``+``, ``-``, unary ``-`` and ``==`` on int pairs against Fraction-dict arithmetic."""

    @staticmethod
    def expected(d: dict[int, Fraction]) -> list[tuple[int, Fraction]]:
        return sorted((k, c) for k, c in d.items() if c)

    @given(x=_FRACTION_DICTS, y=_FRACTION_DICTS, same=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_and_equality(self, x, y, same):
        if same:  # y equals x up to explicit zero coefficients
            y = {k: Fraction(0) for k in y} | x
        sx, sy = canonical_sum(radical_sum(x)), canonical_sum(radical_sum(y))
        keys = x.keys() | y.keys()
        plus = {k: x.get(k, 0) + y.get(k, 0) for k in keys}
        minus = {k: x.get(k, 0) - y.get(k, 0) for k in keys}
        for got, want in (
            (sx + sy, plus),
            (sx - sy, minus),
            (-sx, {k: -c for k, c in x.items()}),
        ):
            assert canonical_sum(got).terms() == self.expected(want)
            assert got == radical_sum(want) and hash(got) == hash(radical_sum(want))
            assert got.is_zero() == (not self.expected(want))
        assert (sx == sy) == (self.expected(x) == self.expected(y))
        assert (sx != sy) == (self.expected(x) != self.expected(y))
        assert (sx - sx).is_zero() and sx - sx == RadicalSum.zero()


_COFACTOR = 10**18 + 3
_TERM_KERNELS = st.sampled_from((1, 2, 3, 6, _COFACTOR, 2 * _COFACTOR))
_TERMS = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 30), _TERM_KERNELS), min_size=1, max_size=8
)


def fraction_terms(terms: list[tuple[int, int, int]]) -> list[tuple[int, tuple[int, int]]]:
    """Oracle: per-kernel Fraction sums of (num, den, kernel), nonzero ones in first-seen order."""
    acc: dict[int, Fraction] = {}
    for num, den, k in terms:
        acc[k] = acc.get(k, Fraction(0)) + Fraction(num, den)
    return [(k, (c.numerator, c.denominator)) for k, c in acc.items() if c]


class TestFromTermsAgainstFractions:
    """``_from_terms``, one-kernel path and dict path, against Fraction sums, int for int."""

    @staticmethod
    def check(terms):
        total = canonical_sum(RadicalSum._from_terms(terms))
        assert list(total._terms.items()) == fraction_terms(terms)
        assert total.is_zero() == (not fraction_terms(terms))

    @given(terms=_TERMS, one_kernel=st.booleans(), cancel_first=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, terms, one_kernel, cancel_first):
        k0 = terms[0][2]
        if one_kernel:
            terms = [(num, den, k0) for num, den, _ in terms]
        if cancel_first:  # the first kernel's terms less themselves, interleaved with the rest
            terms = [x for num, den, k in terms for x in ((num, den, k), (-num, den, k0))]
        self.check(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [(1, 2, 2), (1, 3, 3), (1, 6, 2)],  # interleaved k0, k1, k0
            [(1, 2, 2), (-3, 6, 2), (1, 3, 3)],  # the first kernel cancels
            [(1, 2, 2), (1, 3, 3), (-1, 2, 2)],  # ... after a second kernel turns up
            [(0, 5, 7), (0, 1, 7)],  # zero numerators only
            [(0, 5, 7), (4, 6, 3), (0, 2, 3)],
            [(6, 4, 5)],  # a single term, reduced
            [(1, 1, _COFACTOR), (2, 3, 7), (-1, 1, _COFACTOR), (1, 3, 7 * _COFACTOR)],
            [(1, 4, _COFACTOR), (1, 4, _COFACTOR)],
        ],
    )
    def test_named_cases(self, terms):
        self.check(terms)


class TestSqrtRatio:
    """``sqrt_ratio(p, q)`` is the storage of ``SqrtRational.sqrt(Fraction(p, q))``."""

    @given(
        a=st.integers(0, 10**4),
        b=st.integers(1, 10**4),
        common=st.integers(1, 10**3),
        big=st.sampled_from((1, _COFACTOR, _COFACTOR**2, 3 * (2**61 - 1))),
        into=st.sampled_from(("p", "q", "both")),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sqrt_of_fraction(self, a, b, common, big, into):
        p = a * common * (big if into != "q" else 1)
        q = b * common * (big if into != "p" else 1)
        assert sqrt_ratio(p, q) == storage(SqrtRational.sqrt(Fraction(p, q)))

    def test_edges(self):
        assert sqrt_ratio(0, 12) == (0, 1, 1)
        assert sqrt_ratio(12, 8) == (1, 2, 6)  # sqrt(3/2) = sqrt(6)/2
        assert sqrt_ratio(_COFACTOR * 4, _COFACTOR) == (2, 1, 1)
        assert sqrt_ratio(_COFACTOR**3, 9) == (1, 3, _COFACTOR**3)  # the cofactor stays whole
        with pytest.raises(ValueError, match="square root of negative rational -1/2"):
            sqrt_ratio(-2, 4)
        for q in (0, -3):
            with pytest.raises(ValueError, match="denominator must be positive"):
                sqrt_ratio(1, q)


class TestRadicalSum:
    def test_cancellation(self):
        s = total([SqrtRational.sqrt(2)]) + total([-SqrtRational.sqrt(2)])
        assert s.is_zero()

    def test_perfect_square_collapses(self):
        prod = SqrtRational.sqrt(Fraction(3, 10)) * SqrtRational.sqrt(Fraction(3, 10))
        s = total([prod]) + RadicalSum.from_rational(Fraction(-3, 10))
        assert s.is_zero()

    def test_distinct_kernels_nonzero(self):
        s = total([SqrtRational.sqrt(2)]) + total([SqrtRational.sqrt(3)])
        assert not s.is_zero()

    def test_canonical_term_order(self):
        s = total([SqrtRational.sqrt(30)]) + RadicalSum.from_rational(2)
        assert [k for k, _ in s.terms()] == [1, 30]


class TestToFloat:
    def test_against_integer_isqrt_oracle(self):
        # independent oracle: floor(sqrt(3/10 * 4^k)) / 2^k underestimates
        # sqrt(3/10) by < 2^-k
        bits = 200
        val = total([SqrtRational.sqrt(Fraction(3, 10))]).to_mpf(bits)
        k = 220
        low = math.isqrt(3 * 4**k // 10)
        with mpmath.workprec(bits + 40):
            oracle = mpmath.mpf(low) / mpmath.mpf(2) ** k
            assert abs(val - oracle) < mpmath.mpf(2) ** (-(bits - 5))

    def test_zero(self):
        assert RadicalSum.zero().to_mpf(100) == 0

    def test_rational_collapse(self):
        half_root4 = SqrtRational.sqrt(4).scaled(Fraction(1, 2))
        assert total([half_root4]).to_mpf(100) == 1

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            RadicalSum.from_rational(1).to_mpf(52)

    def test_zero_test_matches_float_rendering(self):
        rng = random.Random(20260811)
        threshold = mpmath.mpf(2) ** -200
        for _ in range(120):
            terms = []
            for _ in range(rng.randint(1, 20)):
                radicand = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                coeff = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                terms.append(SqrtRational.sqrt(radicand).scaled(coeff))
            s = total(terms)
            # nonzero sums are detectably nonzero; exact negations vanish
            assert s.is_zero() == (abs(s.to_mpf(256)) < threshold)
            cancelled = s - s
            assert cancelled.is_zero()
            assert abs(cancelled.to_mpf(256)) < threshold


def _nstr_oracle(s: RadicalSum, bits: int) -> tuple[mpmath.mpf, str]:
    """The ``workprec`` + ``mpmath.nstr`` rendering that ``to_mpf``/``to_decimal`` replace."""
    with mpmath.workprec(bits + 20):
        vals = [
            mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(mpmath.mpf(k))
            for k, c in s.terms()
        ]
        vals.sort(key=abs)
        acc = mpmath.mpf(0)
        for v in vals:
            acc += v
    with mpmath.workprec(bits):
        value = +acc
        return value, mpmath.nstr(value, int(bits / 3.32) + 2)


_KERNELS = st.integers(1, 10**9).map(lambda n: SqrtRational.sqrt(n).kernel)
_DIGITS = st.integers(1, 40).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))
_COEFFS = st.builds(
    lambda sign, num, den: Fraction(sign * num, den), st.sampled_from((-1, 1)), _DIGITS, _DIGITS
)
_RANDOM_SUMS = st.dictionaries(_KERNELS, _COEFFS, max_size=4).map(radical_sum)
# d digits of sqrt(k) less its integer part, scaled: terms near 10^d summing to below 1
_CANCELLING_SUMS = st.builds(
    lambda k, d, extra: radical_sum(
        {k: Fraction(10**d), 1: Fraction(-math.isqrt(k * 10 ** (2 * d)))} | extra
    ),
    _KERNELS.filter(lambda k: k > 1),
    st.integers(1, 40),
    st.dictionaries(_KERNELS.filter(lambda k: k > 1), _COEFFS, max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_RANDOM_SUMS, _CANCELLING_SUMS, st.just(RadicalSum.zero())),
    st.sampled_from((53, 80, 200, 400)),
)
def test_decimal_matches_nstr_oracle(s, bits):
    value, text = _nstr_oracle(s, bits)
    assert s.to_mpf(bits)._mpf_ == value._mpf_
    assert s.to_decimal(bits) == text


@st.composite
def _cg_values(draw) -> SqrtRational:
    """A Clebsch-Gordan coefficient with 2j1, 2j2 <= 60 and |M| <= J."""
    tj1, tj2 = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tm2 = draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
    tJ = draw(st.sampled_from(range(max(abs(tj1 - tj2), abs(tm1 + tm2)), tj1 + tj2 + 1, 2)))
    return clebsch_gordan_t(tj1, tm1, tj2, tm2, tJ, tm1 + tm2)


# sqrt(p/q) or its negative for ints p, q below 10^30
_SIGNED_ROOTS = st.builds(
    lambda root, negate: -root if negate else root,
    st.builds(
        lambda p, q: SqrtRational.sqrt(Fraction(p, q)),
        st.integers(0, 10**30 - 1),
        st.integers(1, 10**30 - 1),
    ),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_cg_values(), _SIGNED_ROOTS), st.sampled_from((53, 200, 400)))
def test_sqrt_rational_to_mpf_matches_workprec_oracle(x, bits):
    value = sqrt_rational_mpf(x, bits)
    assert x.to_mpf(bits)._mpf_ == value._mpf_
    assert mpmath.nstr(x.to_mpf(bits), 62) == mpmath.nstr(value, 62)


class TestSerialization:
    def test_roundtrip(self):
        for v in (_sq(1, 3, 10), _sq(-1, 7, 2), SqrtRational.zero()):
            assert sqrt_rational_from_json(sqrt_rational_to_json(v)) == v

    def test_decimal_strings(self):
        d = sqrt_rational_to_json(_sq(-1, 3, 10))
        assert d == {"sign": -1, "radicand_num": "3", "radicand_den": "10"}


def fraction_reader(d: dict) -> SqrtRational:
    """The code file reader as written over ``Fraction`` and ``SqrtRational.sqrt``: the oracle."""
    den = int(d["radicand_den"])
    if den == 0:
        raise ValueError("radicand_den must be nonzero")
    radicand, sign = Fraction(int(d["radicand_num"]), den), int(d["sign"])
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0, or +1, got {sign}")
    if radicand < 0:
        raise ValueError("radicand must be nonnegative")
    if (sign == 0) != (radicand == 0):
        raise ValueError("sign is 0 exactly when the radicand is 0")
    root = SqrtRational.sqrt(radicand)
    return root if sign >= 0 else -root


def _outcome(read, d: dict):
    try:
        return storage(read(d))
    except ValueError as exc:
        return str(exc)


class TestReaderAgainstFraction:
    """``sqrt_rational_from_json`` reads what the ``Fraction`` reader reads, and fails alike."""

    @given(
        sign=st.integers(-2, 2),
        a=st.integers(0, 10**4),
        b=st.integers(0, 10**4),
        common=st.sampled_from((1, 2, 12, 997, _COFACTOR, 6 * _COFACTOR)),
        big=st.sampled_from((1, _COFACTOR, _COFACTOR**2, _COFACTOR**3)),
        negate=st.sampled_from(("", "num", "den", "both")),
        text=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_reader(self, sign, a, b, common, big, negate, text):
        # unreduced ratios share `common`; `big` puts a 10**18+3 cofactor in the numerator
        num = a * common * big * (-1 if negate in ("num", "both") else 1)
        den = b * common * (-1 if negate in ("den", "both") else 1)
        field = str if text else int
        d = {"sign": sign, "radicand_num": field(num), "radicand_den": field(den)}
        got, expected = _outcome(sqrt_rational_from_json, d), _outcome(fraction_reader, d)
        assert got == expected

    @pytest.mark.parametrize(
        "sign, num, den",
        [
            (1, -3, -7),  # both negative: a positive ratio
            (-1, -12, -8),
            (1, 6, 4),  # unreduced
            (-1, 4 * _COFACTOR, 9 * _COFACTOR),
            (1, _COFACTOR, 1),
            (1, _COFACTOR**3, 2),
            (0, 0, -5),
            (0, 0, 1),
            (1, 3, 0),  # each invalid class, as the Fraction reader words it
            (2, 1, 1),
            (-2, 0, 1),
            (1, -3, 7),
            (-1, 3, -7),
            (0, 1, 2),
            (1, 0, 3),
            (-1, 0, -3),
        ],
    )
    def test_named_cases(self, sign, num, den):
        d = {"sign": sign, "radicand_num": str(num), "radicand_den": str(den)}
        assert _outcome(sqrt_rational_from_json, d) == _outcome(fraction_reader, d)

    def test_zero_is_shared(self):
        d = {"sign": 0, "radicand_num": "0", "radicand_den": "-4"}
        assert sqrt_rational_from_json(d) is SqrtRational.zero()
