"""Transition and rotation error operators as exact sparse diagonal shifts.

An operator indexed (r, delta_J, delta_m) maps |J, m> to an amplitude times
|J + delta_J, m + delta_m>; the amplitude is the Clebsch-Gordan coefficient
coupling rank r.  Each operator therefore has at most one source index per
target index and is stored as a sparse map from the source index
j = m + J to its amplitude (num / den) sqrt(kernel) as the ints (num, den,
kernel), which ``exactnum.image`` dots and the report writer prints as they are.

Amplitudes are built per operator from small ints: with the operator
fixed, Racah's sum depends on j only through binomials that change by
small-int ratios from one j to the next (the j-structure of Johansson &
Forssén's exact 3j symbols, SIAM J. Sci. Comput. 38 (2016) A376), and
``exactnum.squarefree_fold`` folds the square-free kernel from the cached
splits of ints below 2J + 2r + 2, so no radicand is factorized.
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
from functools import lru_cache
from math import comb, gcd, prod
from operator import mul

from .exactnum import SqrtRational, squarefree_fold


@dataclass(frozen=True)
class ErrorOp:
    """One operator: indices (r, delta_J, delta_m) over a spin-(two_J/2) source.

    ``entries`` maps source index j (projection m = j - J) to the amplitude
    attached to the target |J + delta_J, m + delta_m>, as ints (num, den, kernel)
    under ``SqrtRational``'s invariants; ``amplitudes()`` is their one reader.
    Zero amplitudes and out-of-range targets are absent.
    """

    r: int
    delta_J: int
    delta_m: int
    source_two_J: int
    entries: dict[int, tuple[int, int, int]]

    def amplitudes(self) -> dict[int, SqrtRational]:
        return {j: SqrtRational._make(*amp) for j, amp in self.entries.items()}

    @property
    def label(self) -> str:
        return f"E[r={self.r},dJ={self.delta_J:+d},dm={self.delta_m:+d}]"

    @property
    def target_two_J(self) -> int:
        return self.source_two_J + 2 * self.delta_J

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ErrorSet:
    t: int
    ops: tuple[ErrorOp, ...]

    def by_sector(self) -> dict[int, list[ErrorOp]]:
        sectors: dict[int, list[ErrorOp]] = {}
        for op in self.ops:
            sectors.setdefault(op.delta_J, []).append(op)
        return sectors


def _build_op(n: int, r: int, delta_J: int, delta_m: int) -> ErrorOp:
    """Amplitudes C^{n2/2, m + delta_m}_{n/2, m; r, delta_m}, n2 = n + 2 delta_J.

    Racah's binomial form (as in ``clebsch_gordan_t``) with p = n - j: the
    square is S(p)^2 / C(n, p)^2 times a constant times C(n, p) / C(n2, p + d)
    = (n!/n2!) ((p + d)!/p!) ((j + e)!/j!), d = delta_J - delta_m and
    e = delta_J + delta_m, with S(p) = sum_z w_z C(b, p - z).  Each j folds only
    the ints of the last two ratios, ``px`` and ``jy``, onto (s0, k0).
    """
    n2, a, b, c, q = n + 2 * delta_J, r - delta_J, n - r + delta_J, r + delta_J, r + delta_m
    d, e = delta_J - delta_m, delta_J + delta_m
    w = [(-1) ** z * comb(a, z) * comb(c, q - z) for z in range(min(a, q) + 1)]
    ups = (*range(n2 + 1, n + 1), comb(2 * r, a), *range(n - a + 1, n + 1))
    downs = (*range(n + 1, n2 + 1), comb(2 * r, r - delta_m), *range(n + c - a + 2, n + c + 2))
    s0, k0 = squarefree_fold(ups + downs)
    x0, x1, y0, y1 = min(d, 0) + 1, max(d, 0) + 1, min(e, 0) + 1, max(e, 0) + 1
    entries: dict[int, tuple[int, int, int]] = {}
    window = [0] * a + [1]  # C(b, p - z) for z = 0..a, at p = n
    cden = prod(downs)  # C(n, p) times the constant's denominator, at p = n
    for j in range(n // 2 + 1 if delta_m == 0 else n + 1):
        p = n - j
        if j:
            cden = cden * (p + 1) // j
            window.append(window[-1] * (p + 1 - a) // (b - p + a))
            del window[0]
        total = sum(map(mul, w, window))
        if not (0 <= p + d <= n2 and total):
            continue
        px, jy = range(p + x0, p + x1), range(j + y0, j + y1)
        s, k = squarefree_fold((*px, *jy), s0, k0)
        num, den = total * s, cden * (prod(px) if d < 0 else 1) * (prod(jy) if e < 0 else 1)
        h = gcd(num, den)
        entries[j] = (num // h, den // h, k)
    if delta_m == 0:  # its own mirror: the walk stopped at the centre
        entries.update(_mirror(entries, n, r - delta_J, n // 2))
    return ErrorOp(r, delta_J, delta_m, n, entries)


def _mirror(entries, n: int, r_minus_dJ: int, above: int = -1) -> dict:
    """The mirror's entries n - j > above, in ascending order like ``entries``."""
    odd, items = r_minus_dJ % 2, reversed(entries.items())
    return {n - j: (-a[0], a[1], a[2]) if odd else a for j, a in items if n - j > above}


def _build_set(two_J: int, t: int, spin: bool) -> ErrorSet:
    if t < 0:
        raise ValueError("t must be nonnegative")
    if two_J < 2 * t:
        raise ValueError(f"two_J={two_J} too small for order t={t} (need two_J >= 2t)")
    ops = {}
    for r in range(t + 1):
        for dJ in (0,) if spin else range(-r, r + 1):
            for dm in range(r + 1):
                ops[r, dJ, dm] = op = _build_op(two_J, r, dJ, dm)
                if dm:
                    ops[r, dJ, -dm] = ErrorOp(r, dJ, -dm, two_J, _mirror(op.entries, two_J, r - dJ))
    return ErrorSet(t, tuple(ops[key] for key in sorted(ops)))


@lru_cache(maxsize=256)
def build_ae_error_set(two_J: int, t: int) -> ErrorSet:
    """All transition operators with |delta_J|, |delta_m| <= r <= t.

    The operator count is sum_{r=0}^{t} (2r+1)^2.
    """
    return _build_set(two_J, t, spin=False)


@lru_cache(maxsize=256)
def build_spin_error_set(two_J: int, t: int) -> ErrorSet:
    """Rotation operators: the delta_J = 0 slice, sum_{r=0}^{t} (2r+1) of them."""
    return _build_set(two_J, t, spin=True)


def apply(op: ErrorOp, v) -> list[SqrtRational]:
    """Apply an operator to a coefficient vector; result lives in the target sector.

    The output has length source_two_J + 2*delta_J + 1.  Each target index
    receives at most one contribution because the operator is a diagonal
    shift.
    """
    if len(v) != op.source_two_J + 1:
        raise ValueError(
            f"vector length {len(v)} does not match source dimension {op.source_two_J + 1}"
        )
    out = [SqrtRational.zero()] * (op.target_two_J + 1)
    for j, amp in op.amplitudes().items():
        tgt = j + op.delta_m + op.delta_J
        if 0 <= tgt <= op.target_two_J and not v[j].is_zero():
            out[tgt] = amp * v[j]
    return out


def write_operators_json(ops, write) -> None:
    """The report's operators array as ``to_json`` writes it, one ``write`` per operator."""
    sep = "["
    for op in ops:
        n, items = op.source_two_J, []
        for j, (num, den, k) in sorted(op.entries.items()):
            den2 = den * den
            g = gcd(k, den2)  # num and den are coprime, as in sqrt_rational_to_json
            items.append(f"""{{
          "amplitude": {{
            "radicand_den": "{den2 // g}",
            "radicand_num": "{num * num * (k // g)}",
            "sign": {(num > 0) - (num < 0)}
          }},
          "j": {j},
          "two_m": {2 * j - n}
        }}""")
        entries = "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"
        write(f"""{sep}
    {{
      "delta_J": {op.delta_J},
      "delta_m": {op.delta_m},
      "entries": {entries},
      "r": {op.r},
      "source_two_J": {n}
    }}""")
        sep = ","
    write("\n  ]" if ops else "[]")
