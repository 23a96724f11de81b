"""Exact scalar arithmetic over Q and over finite sums of square roots.

Every scalar that appears in the code constructions and verification sums is
a finite Q-linear combination of square roots of positive rationals.  Such a
number is stored as ``sum_k coeff_k * sqrt(kernel_k)``.  A kernel is a
square-free smooth part, its primes below 1000, times a cofactor that trial
division left whole and that is not a perfect square; the radicands the
program makes are smooth, so their kernels are square-free.  Square roots of
distinct products of pairwise coprime non-squares are linearly independent
over Q, so once a sum's cofactors are written over a coprime base, equality
with zero is decided by inspecting that form, with no primality test.

Both kinds keep their coefficients as plain ints, and only this module
splits a radicand: no constructor takes a kernel.  Kernels are combined here,
and in ``errors``, which folds the kernels of its own smooth runs with gcds
and products (``squarefree_fold`` gives it each run's split).  A
``SqrtRational`` stores (numerator, denominator, kernel) and comes from
``zero``, ``from_rational``, ``sqrt`` or arithmetic, through the trusted
``_make``.  A ``RadicalSum`` stores one reduced (numerator, denominator) pair
per kernel; ``RadicalSum()`` is the empty sum.  Every sum goes through one
int loop, ``_sum``: ``dot`` of sparse (num, den, kernel) vectors, as ``image``
builds them for all of ``klverify``, multiplies and adds in it in one pass,
and ``_from_terms`` (``from_rational``, ``+``, ``-``) runs it against
weight 1.  Most sums have one kernel, which it adds in two local ints; a dict
per kernel starts only when a second turns up.  ``terms()`` hands
``Fraction``s to writers, ``squarefree_fold`` kernels to the triples
``errors`` stores, and ``sqrt_ratio(p, q)`` is the one square root of a ratio
of ints, so the family amplitudes and condition weights make no ``Fraction``.

All values here are immutable and all operations are pure, so they can be
shared freely between threads or tasks.  Floating point begins at ``to_mpf``
and ``to_decimal``, whose first call imports mpmath: no verdict loads it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd

from .jsonfmt import int_field

RationalLike = Fraction | int
mpmath = None  # bound with the libmp names of ``_bind_mpmath`` by the first float method

# ---------------------------------------------------------------------------
# Square-free splits: trial division by the primes below 1000, then one
# integer square root of the cofactor.  Every number the program makes is
# smooth, since it arises from binomial coefficients and factorials; a
# radicand from a file may keep a cofactor, which a sum that holds one
# refines to a coprime base before it decides anything (``RadicalSum``).
# ---------------------------------------------------------------------------

_SMALL_PRIMES = tuple(
    p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))
)
_PRIMORIAL = math.prod(_SMALL_PRIMES)  # gcd(k, _PRIMORIAL) is a kernel's smooth part


@lru_cache(maxsize=1 << 16)
def _squarefree_int(n: int) -> tuple[int, int]:
    """Positive n as s**2 * k, k a square-free smooth part times a cofactor, 1 or no square."""
    s = k = 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        s, k = s * p ** (e // 2), k * p ** (e % 2)
    r = math.isqrt(n)
    return (s * r, k) if r * r == n else (s, k * n)


def sqrt_ratio(p: int, q: int) -> tuple[int, int, int]:
    """sqrt(p/q) for ints p >= 0, q > 0: the (num, den, kernel) that ``SqrtRational.sqrt`` stores."""
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    if p < 0:
        raise ValueError(f"square root of negative rational {Fraction(p, q)}")
    if not p:
        return 0, 1, 1
    g = gcd(p, q)
    q //= g
    s, kernel = _squarefree_int(p // g * q)
    g = gcd(s, q)
    return s // g, q // g, kernel


@lru_cache(maxsize=1 << 10)
def _perfect_root(a: int) -> int:
    """r with r**k == a, k >= 2, or 0, for a > 1 with no prime factor below 1000 (so r > 2**9,
    k <= bit_length(a) / 9 and r < 2**n, n = bit_length(a) // k + 1).  An odd k must pass the
    k-th power residue test mod the primes q < 1000, q = 1 (mod k); as x -> x**k permutes the
    odd residues mod 2**n, r can then only be a**(1/k) mod 2**n."""
    r = math.isqrt(a)
    if r * r == a:
        return r
    b = a.bit_length()
    for k in range(3, b // 9 + 1, 2):
        if all(pow(a, (q - 1) // k, q) == 1 for q in _SMALL_PRIMES if q % k == 1):
            n = b // k + 1
            if (r := pow(a, pow(k, -1, 1 << (n - 1)), 1 << n)) ** k == a:
                return r
    return 0


def _coprime_base(xs: Iterable[int]) -> list[int]:
    """Pairwise coprime non-powers of whose powers every x > 1 in xs is a product.

    Naive refinement of xs with no prime factor below 1000: a pair sharing g > 1
    becomes a / g, g, b / g, and a perfect power gives way to its root (so p**3 is p
    in any sum).  The product of the pending and kept numbers drops at each step.
    """
    base: list[int] = []
    todo = [x for x in xs if x > 1]
    while todo:
        a = todo.pop()
        if r := _perfect_root(a):
            todo.append(r)
            continue
        for i, b in enumerate(base):
            if (g := gcd(a, b)) > 1:
                del base[i]
                todo += [x for x in (g, a // g, b // g) if x > 1]
                break
        else:
            base.append(a)
    return base


def _bind_mpmath() -> None:
    global mpmath, fzero, from_int, mpf_add, mpf_div, mpf_mul, mpf_pos, mpf_sqrt, to_str
    if mpmath is None:  # bound last: a thread that sees it set sees every name
        from mpmath.libmp import fzero, from_int, mpf_add, mpf_div, mpf_mul, mpf_pos, mpf_sqrt, to_str
        import mpmath


def _term_mpf(num: int, den: int, kernel: int, prec: int) -> tuple:
    """num / den * sqrt(kernel) as mpf arithmetic computes it under workprec(prec), in libmp."""
    rnd = "n"  # round to nearest
    q = mpf_div(from_int(num, prec, rnd), from_int(den), prec, rnd)
    return mpf_mul(q, mpf_sqrt(from_int(kernel, prec, rnd), prec, rnd), prec, rnd)


# ---------------------------------------------------------------------------
# Signed square roots of rationals
# ---------------------------------------------------------------------------


class SqrtRational:
    """A value sign * sqrt(radicand), radicand a nonnegative rational.

    Storage is ``(num / den) * sqrt(kernel)`` in plain ints: ``num / den``
    in lowest terms with ``den > 0``, and ``kernel`` positive (1 when
    ``num == 0``) with a square-free smooth part, its primes below 1000.
    What trial division leaves of a radicand stays whole in the kernel as a
    cofactor unless it is a perfect square, so one value can be stored two
    ways, sqrt(p**3) and p*sqrt(p); equality and hash compare the square,
    that is sign and radicand.  Products cost two gcds.  No constructor
    takes a kernel: every value is built through the trusted ``_make``,
    whose arguments already satisfy the invariants.
    """

    __slots__ = ("num", "den", "kernel")

    @staticmethod
    def _make(num: int, den: int, kernel: int) -> "SqrtRational":
        """Trusted constructor: the caller guarantees the storage invariants."""
        s = object.__new__(SqrtRational)
        s.num, s.den, s.kernel = num, den, kernel
        return s

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "SqrtRational":
        return _ZERO

    @staticmethod
    def from_rational(q: RationalLike) -> "SqrtRational":
        q = Fraction(q)
        return SqrtRational._make(q.numerator, q.denominator, 1)

    @staticmethod
    def sqrt(q: RationalLike) -> "SqrtRational":
        """The nonnegative square root of p/q: (s/q) sqrt(k) where p*q = s**2 * k."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return SqrtRational._make(*sqrt_ratio(q.numerator, q.denominator))

    # -- views --------------------------------------------------------------

    @property
    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    @property
    def radicand(self) -> Fraction:
        """The represented value squared (value == sign * sqrt(radicand))."""
        return Fraction(self.num * self.num * self.kernel, self.den * self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        if not isinstance(other, SqrtRational):
            return NotImplemented
        # Products of coprime square-free smooth parts stay square-free.
        g = math.gcd(self.kernel, other.kernel)
        num, den = self.num * other.num * g, self.den * other.den
        h = math.gcd(num, den)
        kernel = (self.kernel // g) * (other.kernel // g) if num else 1
        return SqrtRational._make(num // h, den // h, kernel)

    def __neg__(self) -> "SqrtRational":
        return SqrtRational._make(-self.num, self.den, self.kernel)

    def scaled(self, q: RationalLike) -> "SqrtRational":
        """This value multiplied by a rational (possibly negative)."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        num, den = self.num * q.numerator, self.den * q.denominator
        h = math.gcd(num, den)
        return SqrtRational._make(num // h, den // h, self.kernel if num else 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SqrtRational)
            and self.sign == other.sign
            and self.radicand == other.radicand
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.radicand))

    def to_mpf(self, precision_bits: int = 200) -> mpmath.mpf:
        _bind_mpmath()
        return mpmath.mp.make_mpf(_term_mpf(self.num, self.den, self.kernel, precision_bits + 10))

    def __repr__(self) -> str:
        coeff = Fraction(self.num, self.den)
        if self.kernel == 1:
            return f"{coeff}"
        if self.num == self.den == 1:
            return f"sqrt({self.kernel})"
        return f"{coeff}*sqrt({self.kernel})"


_ZERO = SqrtRational._make(0, 1, 1)


# ---------------------------------------------------------------------------
# Finite sums of square roots
# ---------------------------------------------------------------------------


class RadicalSum:
    """A finite sum of rational multiples of square roots of kernels.

    Stored as {kernel: (num, den)} in plain ints, each pair in lowest terms
    with den > 0 and num != 0, kernels as ``SqrtRational`` keeps them.  When
    no kernel holds a cofactor the kernels are square-free, and the sum is
    zero iff no term is stored, by the linear independence over Q of square
    roots of distinct square-free integers.  Otherwise ``_canonical`` first
    rewrites the cofactors over a coprime base of non-powers (Bernstein,
    J. Algorithms 54 (2005) 1); square roots of distinct products of such a
    base are again independent (Besicovitch, J. London Math. Soc. 15 (1940)
    3).  So ``is_zero``, ``==``, ``terms()`` and ``to_mpf`` see a zero as
    zero, and the smooth path pays one gcd a term, only where the answer
    depends on it.  ``RadicalSum()`` is the empty sum.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict[int, tuple[int, int]] = {}

    @staticmethod
    def _from_terms(terms: list[tuple[int, int, int]]) -> "RadicalSum":
        """Sum of (num / den) sqrt(kernel) triples: ``dot``'s loop against weight 1 at index 0."""
        return _sum(zip(repeat(0), terms), {0: (1, 1, 1)})

    @staticmethod
    def zero() -> "RadicalSum":
        return _EMPTY

    @staticmethod
    def from_rational(q: RationalLike) -> "RadicalSum":
        q = Fraction(q)
        return RadicalSum._from_terms([(q.numerator, q.denominator, 1)])

    def _canonical(self) -> "RadicalSum":
        """This sum with its kernels' cofactors, k // gcd(k, _PRIMORIAL), over a coprime base."""
        cofactors = {k: c for k in self._terms if (c := k // gcd(k, _PRIMORIAL)) > 1}
        if not cofactors:
            return self
        base, terms = _coprime_base(cofactors.values()), []
        for k, (num, den) in self._terms.items():
            c = cofactors.get(k, 1)
            k //= c
            for b in base:
                e = 0
                while c % b == 0:
                    c, e = c // b, e + 1
                num, k = num * b ** (e // 2), k * b ** (e % 2)
            terms.append((num, den, k))
        return RadicalSum._from_terms(terms)

    def terms(self) -> list[tuple[int, Fraction]]:
        """(kernel, coefficient) pairs by kernel, over the coprime base of this sum's cofactors.

        The zero test is complete, but equal sums need not print the same terms: the base
        of one sum cannot split a cofactor p^2 q (p a prime above 1000) without factoring it.
        With p = 10**18 + 3 and q = 10**9 + 7, sqrt(p*p*q) prints [(p*p*q, 1)] and
        p sqrt(q) prints [(q, p)], though the two sums are ==.
        """
        items = self._canonical()._terms.items()
        return [(k, Fraction(num, den)) for k, (num, den) in sorted(items)]

    def is_zero(self) -> bool:
        return not self._terms or not self._canonical()._terms

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            return NotImplemented
        terms = [(n, d, k) for v in (self, other) for k, (n, d) in v._terms.items()]
        return RadicalSum._from_terms(terms)

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._from_terms([(-n, d, k) for k, (n, d) in self._terms.items()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadicalSum):
            return False
        return self._terms == other._terms or (self - other).is_zero()

    def __hash__(self) -> int:
        # Each canonical term is one square class; its signed square does not depend on the base.
        items = self._canonical()._terms.items()
        return hash(frozenset(Fraction(n * abs(n) * k, d * d) for k, (n, d) in items))

    def to_mpf(self, precision_bits: int = 200) -> mpmath.mpf:
        """Canonical terms mpf(num) / den * sqrt(mpf(k)), summed by magnitude at bits + 20."""
        if precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        _bind_mpmath()
        prec, rnd = precision_bits + 20, "n"  # "n": round to nearest
        vals = [_term_mpf(num, den, k, prec) for k, (num, den) in self._canonical()._terms.items()]
        # No term is zero; (top bit, mantissa aligned to prec bits) orders by magnitude.
        vals.sort(key=lambda v: (v[2] + v[3], v[1] << (prec - v[3])))
        acc = fzero
        for v in vals:
            acc = mpf_add(acc, v, prec, rnd)
        return mpmath.mp.make_mpf(mpf_pos(acc, precision_bits, rnd))

    def to_decimal(self, precision_bits: int = 200) -> str:
        """``mpmath.nstr(self.to_mpf(bits), int(bits / 3.32) + 2)``, byte for byte."""
        value = self.to_mpf(precision_bits)._mpf_  # before ``to_str`` is looked up: it binds it
        return to_str(value, int(precision_bits / 3.32) + 2)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            repr(SqrtRational._make(num, den, k)) for k, (num, den) in sorted(self._terms.items())
        )


_EMPTY = RadicalSum()


def image(vector, weights, shift: int) -> dict[int, tuple[int, int, int]]:
    """{j + shift: vector[j] weights[j]} over the j of both; all three as ``dot`` takes them."""
    out = {}
    for j, (num, den, k) in vector.items():
        w = weights.get(j)
        if w is not None:
            g = gcd(k, w[2])
            out[j + shift] = (num * w[0] * g, den * w[1], k // g * (w[2] // g))
    return out


def dot(p: dict[int, tuple[int, int, int]], q: dict[int, tuple[int, int, int]]) -> RadicalSum:
    """sum_y p[y] q[y] over {y: (num, den, kernel)}: products as in ``SqrtRational.__mul__``."""
    return _sum(p.items(), q)


def _sum(items, q) -> RadicalSum:
    """The one accumulator: sum of p[y] q[y] over (y, p[y]) in items, per kernel over an lcm;
    the first kernel's sum stays in two local ints, any other's in a dict, all reduced once."""
    n0, d0, k0, rest = 0, 1, 0, {}  # k0 = 0: no term yet (every kernel is positive)
    for y, (num, den, k) in items:
        b = q.get(y)
        if b is None:
            continue
        g = gcd(k, b[2])
        num, den, k = num * b[0] * g, den * b[1], k // g * (b[2] // g)
        if k != k0:
            if k0:
                n1, d1 = rest.get(k, (0, 1))
                g = gcd(d1, den)
                rest[k] = (n1 * (den // g) + num * (d1 // g), d1 // g * den)
                continue
            k0 = k
        g = gcd(d0, den)
        n0, d0 = n0 * (den // g) + num * (d0 // g), d0 // g * den
    out = object.__new__(RadicalSum)
    out._terms = {k0: (n0 // g, d0 // g)} if n0 and (g := gcd(n0, d0)) else {}
    for k, (n, d) in rest.items():
        if n and (g := gcd(n, d)):
            out._terms[k] = (n // g, d // g)
    return out


def squarefree_fold(factors, s: int = 1, k: int = 1) -> tuple[int, int]:
    """(s', k') with s'^2 k' = s^2 k prod(factors), k' a kernel as ``_squarefree_int`` makes."""
    for x in factors:
        sx, kx = _squarefree_int(x)
        g = gcd(k, kx)
        s, k = s * sx * g, (k // g) * (kx // g)
    return s, k


# ---------------------------------------------------------------------------
# Serialization of scalars (shared by the code file format and reports)
# ---------------------------------------------------------------------------


def sqrt_rational_to_json(s: SqrtRational) -> dict:
    # num and den are coprime, so gcd(num**2 * kernel, den**2) = gcd(kernel, den**2).
    den2 = s.den * s.den
    g = math.gcd(s.kernel, den2)
    return {
        "sign": s.sign,
        "radicand_num": str(s.num * s.num * (s.kernel // g)),
        "radicand_den": str(den2 // g),
    }


def sqrt_rational_from_json(d: dict) -> SqrtRational:
    """A code file's coefficient, sign * sqrt(radicand_num / radicand_den), with every check on
    its fields; the two ints go to ``sqrt_ratio`` with no ``Fraction``, and 0 to the shared zero."""
    den = int_field(d, "radicand_den")
    if den == 0:
        raise ValueError("radicand_den must be nonzero")
    num, sign = int_field(d, "radicand_num"), int_field(d, "sign")
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0, or +1, got {sign}")
    if num * den < 0:
        raise ValueError("radicand must be nonnegative")
    if (sign == 0) != (num == 0):
        raise ValueError("sign is 0 exactly when the radicand is 0")
    s, q, k = sqrt_ratio(abs(num), abs(den))
    return SqrtRational._make(sign * s, q, k) if num else _ZERO


def radical_sum_to_json(v: RadicalSum) -> dict:
    """Exact terms plus a decimal at the fixed report precision of 200 bits."""
    return {
        "terms": [
            {
                "kernel": str(k),
                "coeff_num": str(c.numerator),
                "coeff_den": str(c.denominator),
            }
            for k, c in v.terms()
        ],
        "decimal": v.to_decimal(200),
    }
