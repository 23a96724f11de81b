"""Exact verification: Knill-Laflamme conditions and the simplified (C1)-(C4).

Everything here is decided with exact arithmetic: an inner product is a
finite sum of signed square roots of rationals, and a condition holds when
the canonical form of the sum is literally zero.

Every check dots sparse vectors {index: (num, den, kernel)} of nonzero
entries by one kernel, ``exactnum.dot``, with no ``SqrtRational`` or
``Fraction`` per product or term.  Each check builds them once (images by
``exactnum.image``):

* the basis vectors c_i themselves;
* operator images E|c_i> = {j + delta_m: amp[j] c_i[j]}, keyed alike across a
  delta_J sector.  Correction groups the operators by delta_J, ascending and
  in set order within a sector, and dots <E_a c_i, E_b c_j> for each pair
  a <= b of one sector (sectors act into orthogonal total-momentum sectors
  and are never paired).  Detection is <c_i, E c_j>;
* condition images Z_a(v)[j] = v[j+a] sqrt(C(n-2t, j) / C(n, j+a)) for
  0 <= j <= n-2t, so that (C3) is <Z_a v_i, Z_b v_k> and (C4) the difference
  of <Z_a v_i, Z_b v_i> and <Z_a v_k, Z_b v_k>.

An element's two operands are supp c_i and supp c_j moved apart by d =
delta_m_a - delta_m_b (-delta_m for detection, b - a for the conditions), so
it has a term only if y - x = d for some x in supp c_i, y in supp c_j.  Each
check collects these shifts, |d| <= 2t, t or t', once (``_shifts``): one set
for a vector with itself, one for two vectors.  A block whose d is in neither
is skipped as the empty sum; elsewhere only elements whose set holds d are
dotted, so staggered supports (``search``) dot only diagonals at d = 0.  The
checks run sequentially and deterministically, which fixes the report order; a
report's ``body`` is what ``jsonfmt.write_json`` streams, its arrays as item texts.
Z_a depends on t alone and t' only bounds a, b and the shifts, so the (C1)-(C4)
report at t' = t is the a, b <= t slice of the one at t' = 2t: the same c1 and
c2, and those c3 and c4 failures in order.  ``cross_verdicts`` uses one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .codes import CodeBasis
from .errors import ErrorSet, build_ae_error_set, check_order
from .exactnum import RadicalSum, dot, image, radical_sum_to_json, sqrt_ratio
from .jsonfmt import to_json

# A zero Gram value's text as ``KLReport.body`` lays it out, spelt out to leave mpmath unloaded.
_ZERO_VALUE = to_json({"decimal": "0.0", "terms": []}, "\n        ")


@dataclass(frozen=True)
class KLViolation:
    i: int
    j: int
    op_a: str
    op_b: str
    residual: RadicalSum

    def to_dict(self) -> dict:
        return vars(self) | {"residual": radical_sum_to_json(self.residual)}


@dataclass(frozen=True)
class KLReport:
    mode: str
    passed: bool
    violations: tuple[KLViolation, ...]
    gram: dict[tuple[str, ...], RadicalSum]

    def body(self) -> dict:
        """The report for ``write_json`` under a top-level key, its arrays as item texts: "gram"
        ({"ops", "value"} per entry, by ops), "mode", "pass" and "violations" (``to_dict``)."""
        return {"gram": self._gram_texts(), "mode": self.mode, "pass": self.passed,
                "violations": _item_texts(self.violations)}

    def _gram_texts(self):
        inner = "\n        "  # the indent of an entry's keys
        for key in sorted(self.gram):
            val, ops = self.gram[key], to_json(list(key), inner)
            value = _ZERO_VALUE if val.is_zero() else to_json(radical_sum_to_json(val), inner)
            yield f'{{\n        "ops": {ops},\n        "value": {value}\n      }}'


@dataclass(frozen=True)
class ConditionFailure:
    a: int
    b: int
    pair: tuple[int, int]
    residual: RadicalSum

    def to_dict(self) -> dict:
        return vars(self) | {"pair": list(self.pair),
                             "residual": radical_sum_to_json(self.residual)}


@dataclass(frozen=True)
class ConditionReport:
    t: int
    t_prime: int
    c1: bool
    c2: bool
    c3_failures: tuple[ConditionFailure, ...]
    c4_failures: tuple[ConditionFailure, ...]

    @property
    def all_pass(self) -> bool:
        return self.c1 and self.c2 and not self.c3_failures and not self.c4_failures

    def body(self) -> dict:
        """The report for ``write_json`` under a top-level key, its failures as item texts."""
        return vars(self) | {"c3_failures": _item_texts(self.c3_failures),
                             "c4_failures": _item_texts(self.c4_failures), "pass": self.all_pass}


def _item_texts(items):
    """The ``to_dict`` text of each item of an array under a top-level key's dict."""
    return (to_json(x.to_dict(), "\n      ") for x in items)


def _check_dims(code: CodeBasis, eset: ErrorSet) -> None:
    for op in eset.ops:
        if op.source_two_J != code.two_J:
            raise ValueError(
                f"operator built for two_J={op.source_two_J} applied to a "
                f"two_J={code.two_J} code"
            )


def _vectors(code: CodeBasis) -> list[dict[int, tuple[int, int, int]]]:
    """Each basis vector as {j: (num, den, kernel)} over its nonzero entries, in ascending j."""
    return [{j: (c.num, c.den, c.kernel) for j, c in enumerate(v) if c.num} for v in code.basis]


def _shifts(vectors, bound: int) -> tuple[set[int], set[int]]:
    """(same, other): the shifts y - x, |y - x| <= bound, within one support and between two."""
    masks = [sum(1 << x for x in v) for v in vectors]  # each support as the bits of an int
    same, other = set(), set()
    for d, (i, a), (k, b) in product(range(bound + 1), enumerate(masks), enumerate(masks)):
        if a << d & b:
            (same if i == k else other).update((d, -d))
    return same, other


def _condition_image(vector, n: int, t: int, a: int) -> dict[int, tuple[int, int, int]]:
    """Z_a(v)[j] = v[j+a] sqrt(C(n-2t, j) / C(n, j+a)) for 0 <= j <= n-2t."""
    if not t:  # then a = 0 and every weight is 1
        return vector
    m = n - 2 * t
    weights = {x: sqrt_ratio(comb(m, x - a), comb(n, x)) for x in vector if a <= x <= a + m}
    return image(vector, weights, -a)


def _check_block(left, right, on: bool, off: bool, labels, violations) -> RadicalSum:
    """One operator (pair): off-diagonal dots vanish, diagonal ones agree.

    Dots the diagonal only if ``on``, the rest only if ``off``.  Appends a violation
    per failing element and returns the first diagonal element, the Gram entry.
    """
    diag0 = None
    for i, p in enumerate(left):
        for j, q in enumerate(right):
            if i != j:
                if off and not (val := dot(p, q)).is_zero():
                    violations.append(KLViolation(i, j, *labels, val))
                continue
            val = dot(p, q) if on else RadicalSum.zero()
            if diag0 is None:
                diag0 = val
            elif val != diag0:
                violations.append(KLViolation(i, j, *labels, val - diag0))
    return diag0


def check_kl_correct(code: CodeBasis, eset: ErrorSet) -> KLReport:
    """<c_i| E_a^dagger E_b |c_j> = delta_ij g_ab for all operator pairs.

    Pairs from different delta_J sectors map into orthogonal total-momentum
    sectors and vanish structurally.
    """
    _check_dims(code, eset)
    vectors = _vectors(code)
    same, other = _shifts(vectors, 2 * eset.t)
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    sectors: dict[int, list] = {}  # delta_J: (label, delta_m, images) per operator, in set order
    for op in eset.ops:
        images = [image(v, op.entries, op.delta_m) for v in vectors]
        sectors.setdefault(op.delta_J, []).append((op.label, op.delta_m, images))
    for _, row in sorted(sectors.items()):
        for i, (a, dm_a, left) in enumerate(row):
            for b, dm_b, right in row[i:]:  # each pair a <= b once
                d, labels = dm_a - dm_b, (a, b)
                on, off = d in same, d in other  # neither: d meets no support, the empty sum
                gram[labels] = (_check_block(left, right, on, off, labels, violations)
                                if on or off else RadicalSum.zero())
    return KLReport("correct", not violations, tuple(violations), gram)


def check_kl_detect(code: CodeBasis, eset: ErrorSet) -> KLReport:
    """<c_i| E_a |c_j> = delta_ij g_a for every operator in the set."""
    _check_dims(code, eset)
    vectors = _vectors(code)
    same, other = _shifts(vectors, eset.t)
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    for op in eset.ops:
        labels, d = (op.label, ""), -op.delta_m
        if op.delta_J != 0 or d not in same and d not in other:
            # The image lies in another momentum sector or meets no support point.
            gram[labels[:1]] = RadicalSum.zero()
            continue
        images = [image(v, op.entries, op.delta_m) for v in vectors]
        gram[labels[:1]] = _check_block(vectors, images, d in same, d in other, labels, violations)
    return KLReport("detect", not violations, tuple(violations), gram)


def check_conditions(code: CodeBasis, t: int, t_prime: int) -> ConditionReport:
    """Evaluate the simplified error-correction conditions (C1)-(C4).

    For codes with more than two basis vectors every unordered pair is
    checked, matching the k-dimensional statement.
    """
    check_order(code.two_J, t)
    if t_prime not in (t, 2 * t):
        raise ValueError(f"t_prime must be t or 2t, got {t_prime}")
    vectors = _vectors(code)
    same, other = _shifts(vectors, t_prime)
    pairs = list(combinations(range(code.dim), 2))
    one, zero = RadicalSum.from_rational(1), RadicalSum.zero()
    c2 = all(dot(v, v) == one for v in vectors)
    c1 = 0 not in other or all(dot(vectors[i], vectors[k]).is_zero() for i, k in pairs)
    # (C3) for vectors i, k is Z_a(v_i) . Z_b(v_k); (C4) compares each vector's own dots.
    span, n = range(t_prime + 1), code.two_J
    images = [[_condition_image(v, n, t, a) for a in span] for v in vectors] if pairs else []
    grid = [(a, b) for a in span for b in span]
    diag = [[dot(z[a], z[b]) if b - a in same else zero for a, b in grid] for z in images]
    c3_failures: list[ConditionFailure] = []
    c4_failures: list[ConditionFailure] = []
    for i, k in pairs:
        for (a, b), di, dk in zip(grid, diag[i], diag[k]):
            s3 = dot(images[i][a], images[k][b]) if b - a in other else zero
            if not s3.is_zero():
                c3_failures.append(ConditionFailure(a, b, (i, k), s3))
            if di != dk:
                c4_failures.append(ConditionFailure(a, b, (i, k), di - dk))
    return ConditionReport(t, t_prime, c1, c2, tuple(c3_failures), tuple(c4_failures))


def cross_verdicts(code: CodeBasis, t: int) -> tuple[bool, bool | None, bool, bool | None]:
    """(cond_2t, correct, cond_t, detect): one (C1)-(C4) pass at t' = 2t, cond_t from its
    a, b <= t slice, and each KL check only where its conditions hold (else None)."""
    r = check_conditions(code, t, 2 * t)
    cond_t = r.c1 and r.c2 and all(max(f.a, f.b) > t for f in r.c3_failures + r.c4_failures)
    eset = build_ae_error_set(code.two_J, t)
    correct = check_kl_correct(code, eset).passed if r.all_pass else None
    detect = check_kl_detect(code, eset).passed if cond_t else None
    return r.all_pass, correct, cond_t, detect


def cross_validate(code: CodeBasis, t: int) -> bool:
    """Check both implications between the simplified conditions and direct KL.

    Conditions at t' = 2t all passing must imply direct correction of every
    order <= t, and conditions at t' = t all passing must imply detection at
    order t.  Vacuously true when the conditions fail.  As Z_a does not depend
    on t', the t' = t report is the a, b <= t slice of the t' = 2t one, so one
    pass serves both (``cross_verdicts``).

    A code that passes ``check_kl_correct`` at (n, t) passes both halves, so
    ``aecodes search`` reports this verdict from its KL guard and only
    ``verify --mode cross`` and criterion 6 compute it.  The first half's
    conclusion holds outright.  For the second, a code correcting an error
    set that contains the identity detects every operator in it (Knill &
    Laflamme, Phys. Rev. A 55 (1997) 900): E[r=0, dJ=0, dm=0] has amplitude
    exactly 1 at every j, so the correction pairs (E_0, E_b) of the dJ = 0
    sector are the detection elements <c_i|E_b|c_j>, and those with
    dJ != 0 vanish by structure.
    """
    _, correct, _, detect = cross_verdicts(code, t)
    return correct is not False and detect is not False
