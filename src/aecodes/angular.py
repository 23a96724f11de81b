"""Exact Clebsch-Gordan coefficients and floating-point Wigner rotation matrices.

Angular momentum labels are half-integers, stored by their doubled value so
that all bookkeeping is integer arithmetic.  The general Clebsch-Gordan
routine uses the classical Racah / van der Waerden binomial sum with exact
rationals and the Condon-Shortley sign convention; the alternating sum is a
single rational, so every coefficient is a signed square root of a rational.

``cg_transition`` implements the specialized closed form for the coupling
pattern used by transition error operators; the test suite sweeps it against
the general routine.

Wigner D matrices are float-only at a configurable binary precision: they
feed covariance checks with 1e-10 scale tolerances, where exact cyclotomic
arithmetic would add complexity without assurance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

from .combinatorics import binom
from .exactnum import SqrtRational


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer j, stored as twice_value = 2j."""

    twice_value: int

    @staticmethod
    def make(value) -> "HalfInt":
        """From an int, Fraction with denominator 1 or 2, or 'a/2' string."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, str):
            value = Fraction(value)
        value = Fraction(value)
        if value.denominator not in (1, 2):
            raise ValueError(f"{value} is not an integer or half-integer")
        return HalfInt(int(value * 2))

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice_value + other.twice_value)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice_value - other.twice_value)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice_value)

    def __str__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


@dataclass(frozen=True)
class CGIndex:
    """Index bundle of a Clebsch-Gordan coefficient C^{J,M}_{j1,m1;j2,m2}."""

    j1: HalfInt
    m1: HalfInt
    j2: HalfInt
    m2: HalfInt
    J: HalfInt
    M: HalfInt


def clebsch_gordan(idx: CGIndex) -> SqrtRational:
    """Exact Clebsch-Gordan coefficient; zero when selection rules fail."""
    return _cg(
        idx.j1.twice_value,
        idx.m1.twice_value,
        idx.j2.twice_value,
        idx.m2.twice_value,
        idx.J.twice_value,
        idx.M.twice_value,
    )


def clebsch_gordan_t(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtRational:
    """Clebsch-Gordan coefficient from doubled angular momentum labels."""
    return _cg(tj1, tm1, tj2, tm2, tJ, tM)


@lru_cache(maxsize=1 << 18)
def _cg(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtRational:
    if tm1 + tm2 != tM:
        return SqrtRational.zero()
    if min(tj1, tj2, tJ) < 0:
        return SqrtRational.zero()
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return SqrtRational.zero()
    # m must differ from j by an integer, and the triangle must close on an
    # integer total.
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return SqrtRational.zero()
    if (tj1 + tj2 + tJ) % 2:
        return SqrtRational.zero()
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return SqrtRational.zero()

    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if kmin > kmax:
        return SqrtRational.zero()
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            factorial(k)
            * factorial((tj1 + tj2 - tJ) // 2 - k)
            * factorial((tj1 - tm1) // 2 - k)
            * factorial((tj2 + tm2) // 2 - k)
            * factorial((tJ - tj2 + tm1) // 2 + k)
            * factorial((tJ - tj1 - tm2) // 2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return SqrtRational.zero()

    norm = Fraction(
        (tJ + 1)
        * factorial((tj1 + tj2 - tJ) // 2)
        * factorial((tj1 - tj2 + tJ) // 2)
        * factorial((tj2 - tj1 + tJ) // 2),
        factorial((tj1 + tj2 + tJ) // 2 + 1),
    )
    norm *= (
        factorial((tJ + tM) // 2)
        * factorial((tJ - tM) // 2)
        * factorial((tj1 - tm1) // 2)
        * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial((tj2 + tm2) // 2)
    )
    sign = 1 if total > 0 else -1
    return SqrtRational.of_sign_radicand(sign, norm * total * total)


# ---------------------------------------------------------------------------
# Specialized closed form for transition-operator couplings
# ---------------------------------------------------------------------------


def _check_transition_indices(n: int, t: int, r: int, a: int, q: int) -> None:
    if not (0 <= t - r <= min(a, q) and max(a, q) <= t + r <= 2 * t and n >= 2 * t):
        raise ValueError(
            f"requires 0 <= t-r <= a,q <= t+r <= 2t and n >= 2t, "
            f"got n={n}, t={t}, r={r}, a={a}, q={q}"
        )


def cg_transition(n: int, t: int, r: int, a: int, q: int, j: int) -> SqrtRational:
    """C^{n/2-t+q, j-n/2+t}_{n/2, j+a-n/2; r, t-a} via its binomial closed form.

    Written C_{r,a}^q(j) for short.  Zero outside
    -min(a,q) <= j <= n - max(a, 2t-q).  The alternating sum is
    phase-anchored so the result follows the Condon-Shortley convention
    exactly (the exhaustive cross-check against the general routine is the
    guard); the raw closed form is off by the j-independent factor
    (-1)^(t+r+a+q).
    """
    _check_transition_indices(n, t, r, a, q)
    if not -min(a, q) <= j <= n - max(a, 2 * t - q):
        return SqrtRational.zero()
    nbar = n - 2 * t + q
    total = Fraction(0)
    for k in range(t - r, q + 1):
        term = (
            binom(q - (t - r), k - (t - r))
            * binom(t + r - q, a - k)
            * binom(nbar + (t - r), j + k)
        )
        total += -term if (k + t + r + a + q) % 2 else term
    if total == 0:
        return SqrtRational.zero()
    pref = (binom(n, t + r - q) * binom(2 * r, r + t - q)) / (
        binom(n + q + r - t + 1, r + t - q)
        * binom(n, j + a)
        * binom(2 * r, a + r - t)
        * binom(nbar + q, j + q)
    )
    sign = 1 if total > 0 else -1
    return SqrtRational.of_sign_radicand(sign, pref * total * total)


def cg_transition_general(n: int, t: int, r: int, a: int, q: int, j: int) -> SqrtRational:
    """The same coefficient through the general Racah routine (cross-check)."""
    _check_transition_indices(n, t, r, a, q)
    return _cg(
        n,
        2 * (j + a) - n,
        2 * r,
        2 * (t - a),
        n - 2 * t + 2 * q,
        2 * (j + t) - n,
    )


def cg_binomial_reconstruction(n: int, t: int, r: int, a: int, q: int, j: int) -> SqrtRational:
    """C_{r,a}^q(j) * sqrt(binom(n, j+a) * binom(nbar+q, j+q)), by double sum.

    Expands the closed form with the inner binomial split by a Vandermonde
    convolution; used to pin down the j-independent bridge terms.  (The
    surviving bridge factor deliberately omits the index-dependent binomial
    that the convolution replaces.)
    """
    _check_transition_indices(n, t, r, a, q)
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
    return SqrtRational.of_sign_radicand(sign, pref * total * total)


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------


def _as_mp_matrix(u) -> mpmath.matrix:
    m = mpmath.matrix(2, 2)
    for i in range(2):
        for j in range(2):
            m[i, j] = mpmath.mpc(u[i, j] if isinstance(u, mpmath.matrix) else u[i][j])
    return m


def _require_special_unitary(u: mpmath.matrix, tol: mpmath.mpf) -> None:
    err = mpmath.mpf(0)
    for i in range(2):
        for j in range(2):
            s = sum(mpmath.conj(u[k, i]) * u[k, j] for k in range(2))
            err = max(err, abs(s - (1 if i == j else 0)))
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if err > tol or abs(det - 1) > tol:
        raise ValueError("input is not a special unitary 2x2 matrix")


def su2_euler_zyz(u, precision_bits: int = 200):
    """ZYZ Euler angles (alpha, beta, gamma) of a 2x2 special unitary.

    Convention: u = Rz(alpha) Ry(beta) Rz(gamma) with
    Rz(p) = diag(e^{-ip/2}, e^{ip/2}) and Ry(b) the real rotation, so
    u[0,0] = e^{-i(alpha+gamma)/2} cos(beta/2) and
    u[0,1] = -e^{-i(alpha-gamma)/2} sin(beta/2).
    """
    with mpmath.workprec(precision_bits):
        u = _as_mp_matrix(u)
        _require_special_unitary(u, mpmath.mpf(2) ** -40)
        a, b = u[0, 0], u[0, 1]
        beta = 2 * mpmath.atan2(abs(b), abs(a))
        tiny = mpmath.mpf(2) ** (-(precision_bits - 8))
        if abs(b) <= tiny:
            alpha = -2 * mpmath.arg(a)
            gamma = mpmath.mpf(0)
        elif abs(a) <= tiny:
            alpha = 2 * mpmath.arg(u[1, 0])
            gamma = mpmath.mpf(0)
        else:
            arg_a = mpmath.arg(a)
            arg_b = mpmath.arg(b)
            alpha = mpmath.pi - arg_a - arg_b
            gamma = arg_b - arg_a - mpmath.pi
        return alpha, beta, gamma


def wigner_d_entry(J: HalfInt, m_row: HalfInt, m_col: HalfInt, beta, precision_bits: int = 200):
    """Small Wigner d^J_{m_row, m_col}(beta) from the exact factorial formula."""
    tj = J.twice_value
    tm1 = m_row.twice_value  # row projection m'
    tm2 = m_col.twice_value  # column projection m
    with mpmath.workprec(precision_bits):
        cos_hb = mpmath.cos(beta / 2)
        sin_hb = mpmath.sin(beta / 2)
        pref = mpmath.sqrt(
            mpmath.mpf(
                factorial((tj + tm1) // 2)
                * factorial((tj - tm1) // 2)
                * factorial((tj + tm2) // 2)
                * factorial((tj - tm2) // 2)
            )
        )
        smin = max(0, (tm2 - tm1) // 2)
        smax = min((tj + tm2) // 2, (tj - tm1) // 2)
        acc = mpmath.mpf(0)
        for s in range(smin, smax + 1):
            den = (
                factorial((tj + tm2) // 2 - s)
                * factorial(s)
                * factorial((tm1 - tm2) // 2 + s)
                * factorial((tj - tm1) // 2 - s)
            )
            sign = -1 if ((tm1 - tm2) // 2 + s) % 2 else 1
            acc += (
                mpmath.mpf(sign)
                / den
                * cos_hb ** (tj + (tm2 - tm1) // 2 - 2 * s)
                * sin_hb ** ((tm1 - tm2) // 2 + 2 * s)
            )
        return pref * acc


def wigner_D(J: HalfInt, u, precision_bits: int = 200) -> mpmath.matrix:
    """Spin-J irreducible representation matrix of a 2x2 special unitary.

    Rows and columns are ordered by decreasing projection m = J, J-1, ..., -J,
    so at J = 1/2 the output equals the input.
    """
    J = HalfInt.make(J)
    tj = J.twice_value
    dim = tj + 1
    with mpmath.workprec(precision_bits):
        alpha, beta, gamma = su2_euler_zyz(u, precision_bits)
        out = mpmath.matrix(dim, dim)
        for row in range(dim):
            tm1 = tj - 2 * row
            phase_row = mpmath.exp(-1j * alpha * mpmath.mpf(tm1) / 2)
            for col in range(dim):
                tm2 = tj - 2 * col
                d = wigner_d_entry(J, HalfInt(tm1), HalfInt(tm2), beta, precision_bits)
                out[row, col] = (
                    phase_row * d * mpmath.exp(-1j * gamma * mpmath.mpf(tm2) / 2)
                )
        return out
