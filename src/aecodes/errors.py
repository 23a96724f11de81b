"""Transition and rotation error operators as exact sparse diagonal shifts.

An operator indexed (r, delta_J, delta_m) maps |J, m> to an amplitude times
|J + delta_J, m + delta_m>; the amplitude is the Clebsch-Gordan coefficient
coupling rank r.  Each operator therefore has at most one source index per
target index and is stored as a sparse map from the source index
j = m + J to its amplitude (num / den) sqrt(kernel) as the ints (num, den,
kernel), which ``exactnum.image`` dots and the report writer prints as they are.

Amplitudes are built from small ints: for a fixed operator a Clebsch-Gordan
coefficient is a Hahn polynomial in m times the square root of a product of
linear factors (Koornwinder, Nieuw Arch. Wisk. 29 (1981) 140).  ``_build_op``
steps the polynomial by its forward differences, and the roots' kernels come
from cached splits of ints below 2J + 2t + 2 (``exactnum.squarefree_fold``),
folded once per (delta_J, delta_m) for every r, so no radicand is factorized.
``angular.clebsch_gordan_t`` serves the ``cg`` command and is the tests'
independent oracle.  Only delta_m >= 0 is walked: C^{J'M'}_{Jm;rq} = (-1)^{J+r-J'} C^{J',-M'}_{J,-m;r,-q}
(Varshalovich, Moskalev & Khersonskii 1988, ch. 8) gives the mirror
E^{r,dJ,-dm}[n - j] = (-1)^{r-dJ} E^{r,dJ,dm}[j], which yields each delta_m < 0
operator from its delta_m > 0 twin, and the upper half of each delta_m = 0 one
from its lower half.

Proportionality constants are fixed to 1: correctability depends only on
the span of the error set, and the diagonal comparisons in verification pair
an operator with itself or with another fixed operator on both logical
states, so per-operator scaling cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, prod

from .exactnum import squarefree_fold


@dataclass(frozen=True)
class ErrorOp:
    """One operator: indices (r, delta_J, delta_m) over a spin-(two_J/2) source.

    ``entries`` maps source index j (projection m = j - J) to the amplitude
    attached to the target |J + delta_J, m + delta_m>, as ints (num, den, kernel)
    under ``SqrtRational``'s invariants, which the dots and the report writer
    read as they are.  Zero amplitudes and out-of-range targets are absent.
    """

    r: int
    delta_J: int
    delta_m: int
    source_two_J: int
    entries: dict[int, tuple[int, int, int]]

    @cached_property
    def label(self) -> str:
        return f"E[r={self.r},dJ={self.delta_J:+d},dm={self.delta_m:+d}]"

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ErrorSet:
    t: int
    ops: tuple[ErrorOp, ...]


def _folds(n: int, d: int, e: int, walked: int, runs) -> list:
    """Per j < walked, None off range or (s, kernel, X): s**2 kernel is the product of the runs
    p+1..p+d or p+d+1..p and j+1..j+e or j+e+1..j (p = n - j), X that of those that divide."""
    rp, rj, op, oj, out = runs[abs(d)], runs[abs(e)], min(d, 0), min(e, 0), [None] * walked
    for j in range(max(0, -e), min(walked - 1, n + d) + 1):
        (sp, kp, xp), (sj, kj, xj) = rp[n - j + op], rj[j + oj]
        g = gcd(kp, kj)
        out[j] = (sp * sj * g, kp // g * (kj // g), (xp if d < 0 else 1) * (xj if e < 0 else 1))
    return out


def _build_op(n: int, r: int, delta_J: int, delta_m: int, folds: list) -> ErrorOp:
    """Amplitudes C^{n2/2, m + delta_m}_{n/2, m; r, delta_m}, n2 = n + 2 delta_J.

    Racah's binomial form (as in ``clebsch_gordan_t``) with p = n - j: the square is
    S(p)^2 / C(n, p)^2 times a constant times C(n, p) / C(n2, p + d) = (n!/n2!)
    ((p + d)!/p!) ((j + e)!/j!), d = delta_J - delta_m and e = delta_J + delta_m, with
    S(p) = sum_z w_z C(b, p - z), a = r - delta_J and b = n - a.  In falling factorials
    C(b, p - z) / C(n, p) = (p)_z (j)_{a-z} / (n)_a, so S(p) / C(n, p) = Q(j) / (n)_a for
    the int Hahn polynomial Q(j) = sum_z w_z (n - j)_z (j)_{a-z} of degree a, stepped by
    its a forward differences.  ``folds`` holds each j's root of the last two ratios,
    shared by every r of (delta_J, delta_m); one gcd joins it to the constant's (s0, k0).
    """
    n2, a, c, q = n + 2 * delta_J, r - delta_J, r + delta_J, r + delta_m
    w = [(-1) ** z * comb(a, z) * comb(c, q - z) for z in range(min(a, q) + 1)]
    ups = (*range(n2 + 1, n + 1), comb(2 * r, a), *range(n - a + 1, n + 1))
    downs = (*range(n + 1, n2 + 1), comb(2 * r, r - delta_m), *range(n + c - a + 2, n + c + 2))
    s0, k0 = squarefree_fold(ups + downs)
    c0 = prod(range(n - a + 1, n + 1)) * prod(downs)  # (n)_a and the constant's denominator
    q0 = [sum(wz * prod(range(n - j - z + 1, n - j + 1)) * prod(range(j - a + z + 1, j + 1))
              for z, wz in enumerate(w)) for j in range(a + 1)]  # Q(0..a)
    diffs = [sum((-1) ** (i - k) * comb(i, k) * q0[k] for k in range(i + 1)) for i in range(a + 1)]
    qs = repeat(diffs[a])  # each row of differences is its start plus partial sums of the next
    for start in reversed(diffs[:a]):
        qs = accumulate(qs, initial=start)
    entries: dict[int, tuple[int, int, int]] = {}
    for j, (qj, fold) in enumerate(zip(qs, folds)):
        if qj and fold:
            sj, kj, x = fold
            g = gcd(k0, kj)
            num, den = qj * s0 * sj * g, c0 * x
            h = gcd(num, den)
            entries[j] = (num // h, den // h, k0 // g * (kj // g))
    if delta_m == 0:  # its own mirror: the walk stopped at the centre
        entries.update(_mirror(entries, n, r - delta_J, n // 2))
    return ErrorOp(r, delta_J, delta_m, n, entries)


def _mirror(entries, n: int, r_minus_dJ: int, above: int = -1) -> dict:
    """The mirror's entries n - j > above, in ascending order like ``entries``."""
    odd, items = r_minus_dJ % 2, reversed(entries.items())
    return {n - j: (-a[0], a[1], a[2]) if odd else a for j, a in items if n - j > above}


def check_order(two_J: int, t: int) -> None:
    if t < 0 or two_J < 2 * t:
        raise ValueError("t must be nonnegative" if t < 0 else
                         f"two_J={two_J} too small for order t={t} (need two_J >= 2t)")


def _build_set(two_J: int, t: int, spin: bool) -> ErrorSet:
    check_order(two_J, t)
    ops, runs = {}, [[(1, 1, 1)] * (two_J + 1)]  # runs[k][u] = (s, kernel, x), x = s**2 kernel
    for k in range(1, 2 * t + 1):  # the product (u+1)(u+2)...(u+k), for k <= 2t and u <= 2J
        runs.append([(*squarefree_fold((u + k,), s, sk), x * (u + k))
                     for u, (s, sk, x) in enumerate(runs[-1])])
    for dJ in (0,) if spin else range(-t, t + 1):
        for dm in range(t + 1):
            walked = two_J // 2 + 1 if dm == 0 else two_J + 1
            folds = _folds(two_J, dJ - dm, dJ + dm, walked, runs)
            for r in range(max(abs(dJ), dm), t + 1):
                ops[r, dJ, dm] = op = _build_op(two_J, r, dJ, dm, folds)
                if dm:
                    ops[r, dJ, -dm] = ErrorOp(r, dJ, -dm, two_J, _mirror(op.entries, two_J, r - dJ))
    return ErrorSet(t, tuple(ops[key] for key in sorted(ops)))


@lru_cache(maxsize=256)
def build_ae_error_set(two_J: int, t: int) -> ErrorSet:
    """All transition operators with |delta_J|, |delta_m| <= r <= t.

    The operator count is sum_{r=0}^{t} (2r+1)^2.
    """
    return _build_set(two_J, t, spin=False)


def build_spin_error_set(two_J: int, t: int) -> ErrorSet:
    """Rotation operators: the delta_J = 0 slice, sum_{r=0}^{t} (2r+1) of them.

    Not cached: ``aecodes errors --spin`` builds one set per process, so a cache would score
    no hits and keep every set built alive.
    """
    return _build_set(two_J, t, spin=True)


def operator_texts(ops):
    """Each operator's text as ``to_json`` lays it out in the report's operators array."""
    tails = {}  # an entry's text after its sign, per 2J and j
    for op in ops:
        n, items = op.source_two_J, []
        if n not in tails:
            tails[n] = [f"""
          }},
          "j": {j},
          "two_m": {2 * j - n}
        }}""" for j in range(n + 1)]
        tail = tails[n]
        for j, (num, den, k) in sorted(op.entries.items()):
            den2 = den * den
            g = gcd(k, den2)  # num and den are coprime, as in sqrt_rational_to_json
            items.append(f"""{{
          "amplitude": {{
            "radicand_den": "{den2 // g}",
            "radicand_num": "{num * num * (k // g)}",
            "sign": {(num > 0) - (num < 0)}{tail[j]}""")
        entries = "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"
        yield f"""{{
      "delta_J": {op.delta_J},
      "delta_m": {op.delta_m},
      "entries": {entries},
      "r": {op.r},
      "source_two_J": {n}
    }}"""
