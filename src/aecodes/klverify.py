"""Exact verification: Knill-Laflamme conditions and the simplified (C1)-(C4).

Everything here is decided with exact arithmetic: an inner product is a
finite sum of signed square roots of rationals, and a condition holds when
the canonical form of the sum is literally zero.

Every check reduces to one kernel, ``_element``, which sums
u[x+shift] * weight(x) * v[x] over two coefficient vectors.  The checks
differ only in the weight:

* correction, <c_i| E_a^dagger E_b |c_j>: the product of the two operators'
  Clebsch-Gordan amplitudes at x+shift and x;
* detection, <c_i| E |c_j>: the operator's amplitude at x;
* (C3)/(C4): the binomial ratio binom(n-2t, x-b) / sqrt(binom(n, x-b+a)
  binom(n, x)).

Operator pairs whose sector shifts differ act into different total-momentum
sectors and are skipped as identically zero.

Verification over (operator pair x basis pair) tuples is embarrassingly
parallel in principle; the implementation is sequential and deterministic,
which also fixes the report ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .codes import CodeBasis
from .combinatorics import binom
from .errors import ErrorOp, ErrorSet, build_ae_error_set
from .exactnum import RadicalSum, SqrtRational, radical_sum_to_json


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


def _element(u, v, support, shift: int, weight) -> RadicalSum:
    """sum_x u[x+shift] * weight(x) * v[x] over x in ``support``.

    An index outside ``u``, a zero ``u[x+shift]`` or a ``None`` weight
    contributes nothing; the weight is asked for only when both
    coefficients are nonzero.
    """
    terms = []
    for x in support:
        y = x + shift
        if not 0 <= y < len(u) or not u[y].num:
            continue
        w = weight(x)
        if w is not None:
            terms.append(u[y] * w * v[x])
    return RadicalSum.total(terms)


def _check_block(
    code: CodeBasis,
    supports: list[tuple[int, ...]],
    shift: int,
    weight,
    labels: tuple[str, str],
    violations: list[KLViolation],
) -> RadicalSum:
    """One operator (pair): off-diagonal elements vanish, diagonal ones agree.

    Appends a violation per failing element and returns the first diagonal
    element, the Gram entry.
    """
    diag0 = None
    for i, u in enumerate(code.basis):
        for j, v in enumerate(code.basis):
            val = _element(u, v, supports[j], shift, weight)
            if i != j:
                residual = val
            elif diag0 is None:
                diag0 = val
                continue
            else:
                residual = val - diag0
            if not residual.is_zero():
                violations.append(KLViolation(i, j, *labels, residual))
    return diag0


def _pair_weight(op_a: ErrorOp, op_b: ErrorOp, shift: int):
    """x -> amplitude of op_a at x+shift times amplitude of op_b at x."""
    ea, eb = op_a.entries, op_b.entries

    def weight(x):
        amp_a, amp_b = ea.get(x + shift), eb.get(x)
        return None if amp_a is None or amp_b is None else amp_a * amp_b

    return weight


def check_kl_correct(code: CodeBasis, eset: ErrorSet) -> KLReport:
    """<c_i| E_a^dagger E_b |c_j> = delta_ij g_ab for all operator pairs.

    Pairs with different sector shifts map into orthogonal total-momentum
    sectors and vanish structurally.
    """
    _check_dims(code, eset)
    supports = [code.support(i) for i in range(code.dim)]
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    for _, ops in sorted(eset.by_sector().items()):
        for op_a, op_b in combinations_with_replacement(ops, 2):
            shift = op_b.delta_m - op_a.delta_m
            labels = (op_a.label, op_b.label)
            gram[labels] = _check_block(
                code, supports, shift, _pair_weight(op_a, op_b, shift), labels, violations
            )
    return KLReport("correct", not violations, tuple(violations), gram)


def check_kl_detect(code: CodeBasis, eset: ErrorSet) -> KLReport:
    """<c_i| E_a |c_j> = delta_ij g_a for every operator in the set."""
    _check_dims(code, eset)
    supports = [code.support(i) for i in range(code.dim)]
    violations: list[KLViolation] = []
    gram: dict[tuple[str, ...], RadicalSum] = {}
    for op in eset.ops:
        if op.delta_J != 0:
            # Image lies in a different momentum sector: matrix element is 0.
            gram[(op.label,)] = RadicalSum.zero()
            continue
        gram[(op.label,)] = _check_block(
            code, supports, op.delta_m, op.entries.get, (op.label, ""), violations
        )
    return KLReport("detect", not violations, tuple(violations), gram)


def _condition_weight(n: int, t: int, a: int, b: int):
    """x -> binom(n-2t, x-b) / sqrt(binom(n, x-b+a) binom(n, x)) for 0 <= x-b <= n-2t.

    Paired with the index shift a - b, this gives the (C3)/(C4) sum
    sum_j binom(n-2t, j) v_i[j+a] v_k[j+b] / sqrt(binom(n,j+a) binom(n,j+b)),
    where coefficients with index beyond n count as zero, matching the
    convention that pads the vectors on the right.
    """

    def weight(x):
        j = x - b
        if not 0 <= j <= n - 2 * t:
            return None
        top = binom(n, j + a)
        return SqrtRational.sqrt(top / binom(n, x)).scaled(binom(n - 2 * t, j) / top)

    return weight


def check_conditions(code: CodeBasis, t: int, t_prime: int) -> ConditionReport:
    """Evaluate the simplified error-correction conditions (C1)-(C4).

    For codes with more than two basis vectors every unordered pair is
    checked, matching the k-dimensional statement.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t_prime not in (t, 2 * t):
        raise ValueError(f"t_prime must be t or 2t, got {t_prime}")
    n, basis = code.two_J, code.basis
    supports = [code.support(i) for i in range(code.dim)]
    pairs = list(combinations(range(code.dim), 2))
    one = RadicalSum.from_rational(1)
    c2 = all(code.inner(i, i) == one for i in range(code.dim))
    c1 = all(code.inner(i, k).is_zero() for i, k in pairs)
    # One weight per (a, b), and each vector's (C4) diagonal sum once per (a, b).
    grid = [
        (a, b, _condition_weight(n, t, a, b))
        for a in range(t_prime + 1)
        for b in range(t_prime + 1)
    ]
    diag = [
        [_element(v, v, s, a - b, w) for v, s in zip(basis, supports)]
        for a, b, w in grid
    ] if pairs else []
    c3_failures: list[ConditionFailure] = []
    c4_failures: list[ConditionFailure] = []
    for i, k in pairs:
        for (a, b, w), d in zip(grid, diag):
            s3 = _element(basis[i], basis[k], supports[k], a - b, w)
            if not s3.is_zero():
                c3_failures.append(ConditionFailure(a, b, (i, k), s3))
            s4 = d[i] - d[k]
            if not s4.is_zero():
                c4_failures.append(ConditionFailure(a, b, (i, k), s4))
    return ConditionReport(t, t_prime, c1, c2, tuple(c3_failures), tuple(c4_failures))


def cross_validate(code: CodeBasis, t: int) -> bool:
    """Check both implications between the simplified conditions and direct KL.

    Conditions at t' = 2t all passing must imply direct correction of every
    order <= t, and conditions at t' = t all passing must imply detection at
    order t.  Vacuously true when the conditions fail.
    """
    eset = build_ae_error_set(code.two_J, t)
    if check_conditions(code, t, 2 * t).all_pass:
        if not check_kl_correct(code, eset).passed:
            return False
    if check_conditions(code, t, t).all_pass:
        if not check_kl_detect(code, eset).passed:
            return False
    return True
