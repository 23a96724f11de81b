"""Dense oracles, test-only readers and the plain forms of streamed reports and libmp decimals
(report dicts, the ``workprec`` ``to_mpf``) that the tests check the program paths against."""

import math
from collections.abc import Iterable
from fractions import Fraction

import mpmath

from aecodes.angular import HalfInt
from aecodes.codes import CodeBasis
from aecodes.errors import ErrorOp
from aecodes.exactnum import (
    RadicalSum,
    RationalLike,
    SqrtRational,
    radical_sum_to_json,
    sqrt_rational_to_json,
)
from aecodes.klverify import ConditionReport, KLReport


def binom(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient with rational upper argument.

    binom(x, k) = x(x-1)...(x-k+1)/k! for k > 0, 1 for k = 0 and 0 for k < 0.
    A nonnegative integer ``x`` (an int or a Fraction with denominator 1)
    goes through ``math.comb``; any other ``x`` through the falling
    factorial.
    """
    if k < 0:
        return Fraction(0)
    if isinstance(x, (int, Fraction)) and x.denominator == 1 and x.numerator >= 0:
        return Fraction(math.comb(x.numerator, k))
    if k == 0:
        return Fraction(1)
    x = Fraction(x)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
        if num == 0:
            return Fraction(0)
    return num / math.factorial(k)


def half_int(value) -> HalfInt:
    """From an int, Fraction with denominator 1 or 2, or 'a/2' string."""
    value = Fraction(value)
    if value.denominator not in (1, 2):
        raise ValueError(f"{value} is not an integer or half-integer")
    return HalfInt(int(value * 2))


def amplitudes(op: ErrorOp) -> dict[int, SqrtRational]:
    """The operator's entries as exact scalars, keyed by source index j."""
    return {j: SqrtRational._make(*amp) for j, amp in op.entries.items()}


def total(values: Iterable[SqrtRational]) -> RadicalSum:
    """Sum of signed square roots."""
    return RadicalSum._from_terms([(v.num, v.den, v.kernel) for v in values])


def target_two_J(op: ErrorOp) -> int:
    return op.source_two_J + 2 * op.delta_J


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
    out = [SqrtRational.zero()] * (target_two_J(op) + 1)
    for j, amp in amplitudes(op).items():
        tgt = j + op.delta_m + op.delta_J
        if 0 <= tgt <= target_two_J(op) and not v[j].is_zero():
            out[tgt] = amp * v[j]
    return out


def sqrt_rational_mpf(x: SqrtRational, precision_bits: int) -> mpmath.mpf:
    """The mpf arithmetic under ``workprec`` that ``SqrtRational.to_mpf`` reproduces in libmp."""
    with mpmath.workprec(precision_bits + 10):
        val = mpmath.mpf(x.num) / x.den
        return val * mpmath.sqrt(mpmath.mpf(x.kernel))


def kl_report_dict(report: KLReport) -> dict:
    """The dict whose ``to_json`` text ``write_json`` streams from ``KLReport.body``."""
    return {
        "mode": report.mode,
        "pass": report.passed,
        "violations": [v.to_dict() for v in report.violations],
        "gram": [
            {"ops": list(key), "value": radical_sum_to_json(val)}
            for key, val in sorted(report.gram.items())
        ],
    }


def condition_report_dict(report: ConditionReport) -> dict:
    """The dict whose ``to_json`` text ``write_json`` streams from ``ConditionReport.body``."""
    return {
        "t": report.t,
        "t_prime": report.t_prime,
        "c1": report.c1,
        "c2": report.c2,
        "c3_failures": [f.to_dict() for f in report.c3_failures],
        "c4_failures": [f.to_dict() for f in report.c4_failures],
        "pass": report.all_pass,
    }


def code_dict(code: CodeBasis) -> dict:
    """The dict whose sorted, indented JSON ``CodeBasis.save`` writes; ``from_dict`` reads it."""
    return {
        "kind": code.kind.value,
        "two_J": code.two_J,
        "label": code.label,
        "basis": [[sqrt_rational_to_json(c) for c in vec] for vec in code.basis],
    }
