"""Exact Clebsch-Gordan coefficients and floating-point Wigner rotation matrices.

Angular momentum labels are half-integers, stored by their doubled value so
that all bookkeeping is integer arithmetic.  The general Clebsch-Gordan
routine uses Racah's sum (Phys. Rev. 62, 438 (1942)) in its binomial form
(Varshalovich, Moskalev & Khersonskii, *Quantum Theory of Angular Momentum*,
1988, ch. 8) with the Condon-Shortley sign convention: the alternating sum
is a plain int of ``math.comb`` products, and the coefficient is that sum
times the square root of a ratio of binomials.  Only the ratio, whose primes
are below j1 + j2 + J + 2, goes to the square-free split; the sum scales it.

It is the one general CG routine: it serves the ``cg`` command and is the
independent oracle for the error operators, which ``errors`` builds from
small ints without calling it.  ``cg_transition`` implements the paper's
specialized closed form for the coupling pattern of transition error
operators; criterion 9 sweeps it against ``clebsch_gordan_t`` at the
relabelled arguments, and the test suite also against the operator builder.

Wigner D matrices are float-only at a configurable binary precision.  They
are the dense oracle for the covariance checks, which form D(u)·C by the same
substitution without the matrix (see ``covariance``).  They are computed in
the symmetric-power picture of the spin-J representation (Schwinger, "On
Angular Momentum", 1952; Wigner, *Group Theory*, 1959, ch. 15): with
N = 2J, the state |J, m> is the monomial x^(J+m) y^(J-m) / sqrt((J+m)!(J-m)!),
and D(u) substitutes x -> u00 x + u10 y and y -> u01 x + u11 y.  Each
column is then a product of powers of two linear forms, read off in the
monomial basis and rescaled, straight from the entries of u: no Euler
angles and no per-entry factorial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import mpmath
from mpmath.libmp import mpf_shift, to_int

from .exactnum import SqrtRational, sqrt_ratio


@dataclass(frozen=True)
class HalfInt:
    """An integer or half-integer j, stored as twice_value = 2j."""

    twice_value: int


def clebsch_gordan_t(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtRational:
    """Exact C^{J,M}_{j1,m1;j2,m2} from doubled labels; zero when selection rules fail."""
    if (
        tm1 + tm2 != tM
        or min(tj1, tj2, tJ) < 0
        or abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ
        # m must differ from j by an integer, and the triangle must close on an integer total
        or (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2 or (tj1 + tj2 + tJ) % 2
        or not abs(tj1 - tj2) <= tJ <= tj1 + tj2
    ):
        return SqrtRational.zero()
    a, p, q = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    b, c = (tj1 - tj2 + tJ) // 2, (tj2 - tj1 + tJ) // 2
    total = sum(
        (-1) ** z * comb(a, z) * comb(b, p - z) * comb(c, q - z)
        for z in range(max(0, p - b, q - c), min(a, p, q) + 1)
    )
    num = comb(tj1, a) * comb(tj2, a)
    den = comb((tj1 + tj2 + tJ) // 2 + 1, a) * comb(tj1, p) * comb(tj2, (tj2 - tm2) // 2)
    return SqrtRational._make(*sqrt_ratio(num, den * comb(tJ, (tJ - tM) // 2))).scaled(total)


# ---------------------------------------------------------------------------
# Specialized closed form for transition-operator couplings
# ---------------------------------------------------------------------------


def cg_transition(n: int, t: int, r: int, a: int, q: int, j: int) -> SqrtRational:
    """C^{n/2-t+q, j-n/2+t}_{n/2, j+a-n/2; r, t-a} via its binomial closed form.

    Written C_{r,a}^q(j) for short.  Zero outside
    -min(a,q) <= j <= n - max(a, 2t-q).  The alternating sum is
    phase-anchored so the result follows the Condon-Shortley convention
    exactly (the exhaustive cross-check against the general routine is the
    guard); the raw closed form is off by the j-independent factor
    (-1)^(t+r+a+q).
    """
    if not (0 <= t - r <= min(a, q) and max(a, q) <= t + r <= 2 * t and n >= 2 * t):
        raise ValueError(
            f"requires 0 <= t-r <= a,q <= t+r <= 2t and n >= 2t, "
            f"got n={n}, t={t}, r={r}, a={a}, q={q}"
        )
    if not -min(a, q) <= j <= n - max(a, 2 * t - q):
        return SqrtRational.zero()
    nbar = n - 2 * t + q
    total = sum(
        (-1) ** (k + t + r + a + q)
        * comb(q - t + r, k - t + r) * comb(t + r - q, a - k) * comb(nbar + t - r, j + k)
        for k in range(max(t - r, -j), min(q, a) + 1)
    )
    num = comb(n, t + r - q) * comb(2 * r, r + t - q)
    den = comb(n + q + r - t + 1, r + t - q) * comb(n, j + a) * comb(2 * r, a + r - t)
    return SqrtRational._make(*sqrt_ratio(num, den * comb(nbar + q, j + q))).scaled(total)


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------


def _as_mp_matrix(u) -> mpmath.matrix:
    m = mpmath.matrix(2, 2)
    for i in range(2):
        for j in range(2):
            m[i, j] = mpmath.mpc(u[i, j] if isinstance(u, mpmath.matrix) else u[i][j])
    return m


def _fixed_special_unitary(u: mpmath.matrix, scale: int) -> list[tuple[int, int]]:
    """The entries of u, row by row, as Gaussian ints (re, im) at scale 2^scale, once they make
    u^dagger u = I and det u = 1 to 2^-40 (on the ints, complex residuals by squared magnitude)."""
    fixed = [tuple(to_int(mpf_shift(x._mpf_, scale)) for x in (z.real, z.imag)) for z in u]
    (ar, ai), (br, bi), (cr, ci), (dr, di) = fixed
    one = 1 << 2 * scale
    squared_errors = (  # u^dagger u - I on and above the diagonal, then det u - 1
        (ar * ar + ai * ai + cr * cr + ci * ci - one) ** 2,
        (br * br + bi * bi + dr * dr + di * di - one) ** 2,
        (ar * br + ai * bi + cr * dr + ci * di) ** 2 + (ar * bi - ai * br + cr * di - ci * dr) ** 2,
        (ar * dr - ai * di - br * cr + bi * ci - one) ** 2 + (ar * di + ai * dr - br * ci - bi * cr) ** 2,
    )
    if max(squared_errors) << 80 > 1 << 4 * scale:
        raise ValueError("input is not a special unitary 2x2 matrix")
    return fixed


def _linear_form_powers(a, b, n: int) -> list[list]:
    """Coefficients of (a x + b y)^p for p = 0..n, indexed by the power of x."""
    powers = [[mpmath.mpc(1)]]
    for _ in range(n):
        prev = powers[-1]
        powers.append([a * below + b * at for below, at in zip([0] + prev, prev + [0])])
    return powers


def wigner_D(J: HalfInt, u, precision_bits: int = 200) -> mpmath.matrix:
    """Spin-J irreducible representation matrix of a 2x2 special unitary.

    Rows and columns are ordered by decreasing projection m = J, J-1, ..., -J,
    so at J = 1/2 the output equals the input.  Column N - p is the image
    (u00 x + u10 y)^p (u01 x + u11 y)^(N-p) of x^p y^(N-p); its coefficient
    of x^a y^(N-a), times sqrt(binom(N, p) / binom(N, a)), is the entry in
    row N - a.
    """
    n = J.twice_value
    with mpmath.workprec(precision_bits):
        u = _as_mp_matrix(u)
        _fixed_special_unitary(u, precision_bits)
        xs = _linear_form_powers(u[0, 0], u[1, 0], n)
        ys = _linear_form_powers(u[0, 1], u[1, 1], n)
        norm = [mpmath.sqrt(comb(n, k)) for k in range(n + 1)]
        out = mpmath.matrix(n + 1, n + 1)
        for p in range(n + 1):
            f, g = xs[p], ys[n - p]
            for a in range(n + 1):
                terms = range(max(0, a - n + p), min(p, a) + 1)
                out[n - a, n - p] = mpmath.fdot((f[i], g[a - i]) for i in terms) * norm[p] / norm[a]
        return out
