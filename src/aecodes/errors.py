"""Transition and rotation error operators as exact sparse diagonal shifts.

An operator indexed (r, delta_J, delta_m) maps |J, m> to an amplitude times
|J + delta_J, m + delta_m>; the amplitude is the Clebsch-Gordan coefficient
coupling rank r.  Each operator therefore has at most one source index per
target index and is stored as a sparse map from the source index
j = m + J to its amplitude.

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

from .exactnum import SqrtRational, squarefree_fold


@dataclass(frozen=True)
class ErrorOp:
    """One operator: indices (r, delta_J, delta_m) over a spin-(two_J/2) source.

    ``entries`` maps source index j (projection m = j - J) to the amplitude
    attached to the target |J + delta_J, m + delta_m>.  Zero amplitudes and
    out-of-range targets are absent.
    """

    r: int
    delta_J: int
    delta_m: int
    source_two_J: int
    entries: dict[int, SqrtRational]

    @property
    def label(self) -> str:
        return f"E[r={self.r},dJ={self.delta_J:+d},dm={self.delta_m:+d}]"

    @property
    def target_two_J(self) -> int:
        return self.source_two_J + 2 * self.delta_J

    def target_index(self, j: int) -> int:
        """Target-sector index hit by source index j."""
        return j + self.delta_m + self.delta_J

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

    Racah's binomial form (as in ``clebsch_gordan_t``) with p = n - j,
    p2 = p + delta_J - delta_m: the square is S(p)^2 / C(n, p)^2 times a
    constant times C(n, p) / C(n2, p2) = (n!/n2!) (p2!/p!) ((n2-p2)!/(n-p)!),
    with S(p) = sum_z w_z C(b, p - z).  range(x + 1, y + 1) lists the ints
    of y!/x! (empty unless y > x).
    """
    n2, a, b, c, q = n + 2 * delta_J, r - delta_J, n - r + delta_J, r + delta_J, r + delta_m
    w = [(-1) ** z * comb(a, z) * comb(c, q - z) for z in range(min(a, q) + 1)]
    ups = (*range(n2 + 1, n + 1), comb(2 * r, a), *range(n - a + 1, n + 1))
    downs = (*range(n + 1, n2 + 1), comb(2 * r, r - delta_m), *range(n + c - a + 2, n + c + 2))
    s0, k0 = squarefree_fold(ups + downs)
    den0 = prod(downs)
    entries: dict[int, SqrtRational] = {}
    window = [0] * a + [1]  # C(b, p - z) for z = 0..a, at p = n
    cnp = 1  # C(n, p)
    for j in range(n // 2 + 1 if delta_m == 0 else n + 1):
        p, p2 = n - j, n - j + delta_J - delta_m
        if j:
            cnp = cnp * (p + 1) // j
            window = window[1:] + [window[-1] * (p + 1 - a) // (b - p + a)]
        total = sum(x * y for x, y in zip(w, window))
        if not (0 <= p2 <= n2 and total):
            continue
        ups = (*range(p + 1, p2 + 1), *range(j + 1, n2 - p2 + 1))
        downs = (*range(p2 + 1, p + 1), *range(n2 - p2 + 1, j + 1))
        s, k = squarefree_fold(ups + downs, s0, k0)
        num, den = total * s, cnp * den0 * prod(downs)
        h = gcd(num, den)
        entries[j] = SqrtRational._make(num // h, den // h, k)
    if delta_m == 0:  # its own mirror: the walk stopped at the centre
        entries.update(_mirror(entries, n, r - delta_J, n // 2))
    return ErrorOp(r, delta_J, delta_m, n, entries)


def _mirror(entries, n: int, r_minus_dJ: int, above: int = -1) -> dict[int, SqrtRational]:
    """The mirror's entries n - j > above, in ascending order like ``entries``."""
    odd = r_minus_dJ % 2
    return {n - j: -amp if odd else amp for j, amp in reversed(entries.items()) if n - j > above}


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
    for j, amp in op.entries.items():
        tgt = op.target_index(j)
        if 0 <= tgt <= op.target_two_J and not v[j].is_zero():
            out[tgt] = amp * v[j]
    return out


# An operator and an amplitude as ``jsonfmt.to_json`` writes them in the errors report.
_OP = """{{
      "delta_J": {},
      "delta_m": {},
      "entries": {},
      "r": {},
      "source_two_J": {}
    }}"""
_ENTRY = """{{
          "amplitude": {{
            "radicand_den": "{}",
            "radicand_num": "{}",
            "sign": {}
          }},
          "j": {},
          "two_m": {}
        }}"""


def write_operators_json(ops, write) -> None:
    """The report's operators array at indent 2, one ``write`` per operator."""
    sep = "["
    for op in ops:
        n, items = op.source_two_J, []
        for j, amp in sorted(op.entries.items()):
            num, den2, k = amp.num, amp.den * amp.den, amp.kernel
            g = gcd(k, den2)  # num and den are coprime, as in sqrt_rational_to_json
            items.append(_ENTRY.format(den2 // g, num * num * (k // g), amp.sign, j, 2 * j - n))
        entries = "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"
        write(sep + "\n    " + _OP.format(op.delta_J, op.delta_m, entries, op.r, n))
        sep = ","
    write("\n  ]" if ops else "[]")
