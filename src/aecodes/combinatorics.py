"""Binomial coefficients on ints and executable combinatorial identities.

The binomial convention used throughout: for ints n >= 0 and k,

    binom(n, k) = C(n, k)   for 0 <= k <= n,
                  0         for k < 0 or k > n.

The generalized binomial with a rational upper argument, which the tests
use as an oracle, is in ``tests/oracles.py``.

The ``check_*`` functions evaluate both sides of an identity exactly, in
ints; only ``f_coeff`` and the left side of Lemma B4, which are true ratios,
are ``Fraction``s.  They are used as oracles by the test suite and the
``identities`` CLI subcommand.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binom(n: int, k: int) -> int:
    """C(n, k) for an int n >= 0: ``math.comb``, and 0 for k < 0."""
    return math.comb(n, k) if k >= 0 else 0


def check_lemma_B1(n: int, k: int, r: int, a: int) -> bool:
    """binom(n-r,k-a)/binom(n,k) == binom(n-k,r-a)*binom(k,a)/(binom(n,r)*binom(r,a)).

    All three denominators are positive on the admitted range, so the two
    sides are compared cross-multiplied.
    """
    if not (0 <= a <= r <= n and a <= k <= n):
        raise ValueError("requires n >= r >= a and n >= k >= a, all nonnegative")
    lhs = binom(n - r, k - a) * binom(n, r) * binom(r, a)
    rhs = binom(n - k, r - a) * binom(k, a) * binom(n, k)
    return lhs == rhs


def check_identity_B2(a: int, b: int, c: int, d: int, e: int) -> bool:
    """Convolution identity on five nonnegative integers.

    binom(a+c+d+e, a+c) * binom(b+c+d+e, c+e)
        == sum_i binom(a+b+c+d+e-i, a+b+c+d) * binom(a+d, i+d) * binom(b+c, i+c)

    The index i runs over the finite window where both binom(a+d, i+d) and
    binom(b+c, i+c) are nonzero, i.e. max(-c, -d) <= i <= min(a, b).
    """
    lhs = binom(a + c + d + e, a + c) * binom(b + c + d + e, c + e)
    rhs = sum(
        binom(a + b + c + d + e - i, a + b + c + d) * binom(a + d, i + d) * binom(b + c, i + c)
        for i in range(max(-c, -d), min(a, b) + 1)
    )
    return lhs == rhs


def check_corollary_B3(n: int, l: int, m: int, r: int) -> bool:
    """binom(n+m+r, n+r)*binom(l+m, r) == sum_{i=0}^{m} binom(n+l+m+i, i)*binom(n+m, n+i)*binom(l, r-i)."""
    lhs = binom(n + m + r, n + r) * binom(l + m, r)
    rhs = sum(
        binom(n + l + m + i, i) * binom(n + m, n + i) * binom(l, r - i) for i in range(m + 1)
    )
    return lhs == rhs


def f_coeff(z1: int, z2: int, u: int, v: int, w: int, q: int, t: int, n: int) -> Fraction:
    """Expansion coefficient f_{z1,z2}(u,v,w), independent of the running index.

    The variable switch q -> q - z2 made during the derivation is already
    applied here, so that ``check_lemma_B4`` is a literal transcription of
    the expansion it certifies.  nbar = n - 2t + q.
    """
    in_range = 0 <= z2 <= z1 <= q <= 2 * t <= n and min(u, v, w) >= 0
    if not (in_range and v <= q - z1 and u + w <= z2):
        raise ValueError(f"(z1, z2, u, v, w, q, t, n) = {z1, z2, u, v, w, q, t, n} out of range")
    nbar = n - 2 * t + q
    qs = q - z2
    num = (
        binom(z2, u)
        * binom(nbar, u + (z1 - z2))
        * binom(nbar - u + v, v)
        * binom(qs, (z1 - z2) + v)
        * binom(z2 - u, w)
    )
    den = binom(qs + z2, z1) * binom(nbar + qs + z2, qs + z2)
    return Fraction(num, den)


def check_lemma_B4(n: int, q: int, z1: int, z2: int, t: int, j: int) -> bool:
    """Binomial-ratio expansion into shifted binom(n-2t, .) terms, at one j.

    binom(nbar, j+z1)*binom(nbar, j+z2)/binom(nbar+q, j+q)
        == sum_{u,v,w} f_{z1,z2}(u,v,w) * binom(n-2t, j-v-w+z2)
    """
    if not (0 <= z2 <= z1 <= q <= 2 * t and n >= 2 * t):
        raise ValueError("requires 0 <= z2 <= z1 <= q <= 2t and n >= 2t")
    nbar = n - 2 * t + q
    num = binom(nbar, j + z1) * binom(nbar, j + z2)
    # Whenever the numerator is nonzero the denominator is too; treat 0/0 as 0.
    lhs = Fraction(num, binom(nbar + q, j + q)) if num != 0 else 0
    rhs = sum(
        f_coeff(z1, z2, u, v, w, q, t, n) * binom(n - 2 * t, j - v - w + z2)
        for u in range(z2 + 1)
        for v in range(q - z1 + 1)
        for w in range(z2 - u + 1)
    )
    return lhs == rhs


# ---------------------------------------------------------------------------
# Exhaustive sweeps (used by tests and the `identities` CLI subcommand)
# ---------------------------------------------------------------------------


def sweep_lemma_B1(n_max: int) -> bool:
    return all(
        check_lemma_B1(n, k, r, a)
        for n in range(n_max + 1)
        for r in range(n + 1)
        for k in range(n + 1)
        for a in range(min(r, k) + 1)
    )


def sweep_identity_B2(arg_max: int) -> bool:
    rng = range(arg_max + 1)
    return all(
        check_identity_B2(a, b, c, d, e)
        for a in rng for b in rng for c in rng for d in rng for e in rng
    )


def sweep_corollary_B3(nlm_max: int, r_min: int, r_max: int) -> bool:
    return all(
        check_corollary_B3(n, l, m, r)
        for n in range(1, nlm_max + 1)
        for l in range(1, nlm_max + 1)
        for m in range(1, nlm_max + 1)
        for r in range(r_min, r_max + 1)
    )


def sweep_lemma_B4(n_max: int, t_max: int) -> bool:
    for n in range(n_max + 1):
        for t in range(t_max + 1):
            if n < 2 * t:
                continue
            for q in range(2 * t + 1):
                for z1 in range(q + 1):
                    for z2 in range(z1 + 1):
                        nbar = n - 2 * t + q
                        for j in range(-q - 2 * t - 2, nbar + 3):
                            if not check_lemma_B4(n, q, z1, z2, t, j):
                                return False
    return True


IDENTITY_SWEEPS = (
    ("lemma_B1", sweep_lemma_B1, {"n_max": 20}),
    ("identity_B2", sweep_identity_B2, {"arg_max": 6}),
    ("corollary_B3", sweep_corollary_B3, {"nlm_max": 8, "r_min": -2, "r_max": 10}),
    ("lemma_B4", sweep_lemma_B4, {"n_max": 8, "t_max": 2}),
)


def run_identity_sweeps() -> dict:
    """All four identity sweeps, each at its ranges in ``IDENTITY_SWEEPS``."""
    results = {
        name: {"params": params, "passed": sweep(**params)}
        for name, sweep, params in IDENTITY_SWEEPS
    }
    results["all_passed"] = all(v["passed"] for v in results.values())
    return results
