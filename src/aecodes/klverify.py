"""Exact verification: Knill-Laflamme conditions and the simplified (C1)-(C4).

Everything here is decided with exact arithmetic: an inner product is a
finite sum of signed square roots of rationals, and a condition holds when
the canonical form of the sum is literally zero.

Every check is an inner product of two sparse vectors, {index: coefficient}
over the nonzero entries, taken by one kernel, ``exactnum.dot``.  It forms each
product as (numerator, denominator, kernel) ints, with no ``SqrtRational`` or
``Fraction`` per term, and sums them in the accumulator of ``RadicalSum.total``.
Each check builds its vectors once and then dots them pair by pair:

* the basis vectors c_i themselves;
* operator images E|c_i> = {j + delta_m: amp[j] c_i[j]}.  Correction is
  <E_a c_i, E_b c_j> for operators of one delta_J sector, where the key
  j + delta_m differs from the target index by the sector's common delta_J;
  detection is <c_i, E c_j>;
* condition images Z_a(v)[j] = v[j+a] sqrt(C(n-2t, j) / C(n, j+a)) for
  0 <= j <= n-2t, so that (C3) is <Z_a v_i, Z_b v_k> and (C4) the difference
  of <Z_a v_i, Z_b v_i> and <Z_a v_k, Z_b v_k>.

Operators from different delta_J sectors act into orthogonal total-momentum
sectors and are never paired.

Verification over (operator pair x basis pair) tuples is embarrassingly
parallel in principle; the implementation is sequential and deterministic,
which also fixes the report ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from .codes import CodeBasis
from .errors import ErrorOp, ErrorSet, build_ae_error_set
from .exactnum import RadicalSum, SqrtRational, dot, radical_sum_to_json


@dataclass(frozen=True)
class KLViolation:
    i: int
    j: int
    op_a: str
    op_b: str
    residual: RadicalSum

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "op_a": self.op_a,
            "op_b": self.op_b,
            "residual": radical_sum_to_json(self.residual),
        }


@dataclass(frozen=True)
class KLReport:
    mode: str
    passed: bool
    violations: tuple[KLViolation, ...]
    gram: dict[tuple[str, ...], RadicalSum]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "pass": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "gram": [
                {"ops": list(key), "value": radical_sum_to_json(val)}
                for key, val in sorted(self.gram.items())
            ],
        }


@dataclass(frozen=True)
class ConditionFailure:
    a: int
    b: int
    pair: tuple[int, int]
    residual: RadicalSum

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "pair": list(self.pair),
            "residual": radical_sum_to_json(self.residual),
        }


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

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "t_prime": self.t_prime,
            "c1": self.c1,
            "c2": self.c2,
            "c3_failures": [f.to_dict() for f in self.c3_failures],
            "c4_failures": [f.to_dict() for f in self.c4_failures],
            "pass": self.all_pass,
        }


def _check_dims(code: CodeBasis, eset: ErrorSet) -> None:
    for op in eset.ops:
        if op.source_two_J != code.two_J:
            raise ValueError(
                f"operator built for two_J={op.source_two_J} applied to a "
                f"two_J={code.two_J} code"
            )


def _vectors(code: CodeBasis) -> list[dict[int, SqrtRational]]:
    """Each basis vector as {j: c} over its nonzero coefficients, in ascending j."""
    return [{j: c for j, c in enumerate(vec) if c.num} for vec in code.basis]


def _image(op: ErrorOp, vector: dict[int, SqrtRational]) -> dict[int, SqrtRational]:
    """E|v> as {j + delta_m: amp[j] v[j]}, keyed the same way for all of a delta_J sector."""
    entries, dm = op.entries, op.delta_m
    return {j + dm: entries[j] * c for j, c in vector.items() if j in entries}


def _condition_image(
    vector: dict[int, SqrtRational], n: int, t: int, a: int
) -> dict[int, SqrtRational]:
    """Z_a(v)[j] = v[j+a] sqrt(C(n-2t, j) / C(n, j+a)) for 0 <= j <= n-2t."""
    return {
        x - a: c * SqrtRational.sqrt(Fraction(comb(n - 2 * t, x - a), comb(n, x)))
        for x, c in vector.items()
        if 0 <= x - a <= n - 2 * t
    }


def _check_block(left, right, labels: tuple[str, str], violations: list[KLViolation]) -> RadicalSum:
    """One operator (pair): off-diagonal dots vanish, diagonal ones agree.

    Appends a violation per failing element and returns the first diagonal
    element, the Gram entry.
    """
    diag0 = None
    for i, p in enumerate(left):
        for j, q in enumerate(right):
            val = dot(p, q)
            if i != j:
                if not val.is_zero():
                    violations.append(KLViolation(i, j, *labels, val))
            elif diag0 is None:
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
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    for _, ops in sorted(eset.by_sector().items()):
        images = [(op.label, [_image(op, v) for v in vectors]) for op in ops]
        for (label_a, left), (label_b, right) in combinations_with_replacement(images, 2):
            labels = (label_a, label_b)
            gram[labels] = _check_block(left, right, labels, violations)
    return KLReport("correct", not violations, tuple(violations), gram)


def check_kl_detect(code: CodeBasis, eset: ErrorSet) -> KLReport:
    """<c_i| E_a |c_j> = delta_ij g_a for every operator in the set."""
    _check_dims(code, eset)
    vectors = _vectors(code)
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    for op in eset.ops:
        if op.delta_J != 0:
            # Image lies in a different momentum sector: matrix element is 0.
            gram[(op.label,)] = RadicalSum.zero()
            continue
        images = [_image(op, v) for v in vectors]
        gram[(op.label,)] = _check_block(vectors, images, (op.label, ""), violations)
    return KLReport("detect", not violations, tuple(violations), gram)


def check_conditions(code: CodeBasis, t: int, t_prime: int) -> ConditionReport:
    """Evaluate the simplified error-correction conditions (C1)-(C4).

    For codes with more than two basis vectors every unordered pair is
    checked, matching the k-dimensional statement.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t_prime not in (t, 2 * t):
        raise ValueError(f"t_prime must be t or 2t, got {t_prime}")
    vectors = _vectors(code)
    pairs = list(combinations(range(code.dim), 2))
    one = RadicalSum.from_rational(1)
    c2 = all(dot(v, v) == one for v in vectors)
    c1 = all(dot(vectors[i], vectors[k]).is_zero() for i, k in pairs)
    # (C3) for vectors i, k is Z_a(v_i) . Z_b(v_k); (C4) compares each vector's own dots.
    images = [
        [_condition_image(v, code.two_J, t, a) for a in range(t_prime + 1)]
        for v in vectors
    ] if pairs else []
    grid = [(a, b) for a in range(t_prime + 1) for b in range(t_prime + 1)]
    diag = [[dot(z[a], z[b]) for a, b in grid] for z in images]
    c3_failures: list[ConditionFailure] = []
    c4_failures: list[ConditionFailure] = []
    for i, k in pairs:
        for (a, b), di, dk in zip(grid, diag[i], diag[k]):
            s3 = dot(images[i][a], images[k][b])
            if not s3.is_zero():
                c3_failures.append(ConditionFailure(a, b, (i, k), s3))
            if di != dk:
                c4_failures.append(ConditionFailure(a, b, (i, k), di - dk))
    return ConditionReport(t, t_prime, c1, c2, tuple(c3_failures), tuple(c4_failures))


def cross_validate(code: CodeBasis, t: int) -> bool:
    """Check both implications between the simplified conditions and direct KL.

    Conditions at t' = 2t all passing must imply direct correction of every
    order <= t, and conditions at t' = t all passing must imply detection at
    order t.  Vacuously true when the conditions fail.

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
    eset = build_ae_error_set(code.two_J, t)
    if check_conditions(code, t, 2 * t).all_pass:
        if not check_kl_correct(code, eset).passed:
            return False
    if check_conditions(code, t, t).all_pass:
        if not check_kl_detect(code, eset).passed:
            return False
    return True
