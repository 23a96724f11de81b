"""Verification logic: direct KL checks, simplified conditions, cross-checks.

Includes an independent qubit-space oracle: permutation-invariant codes are
materialized as full 2^n state vectors and checked against explicit Pauli
errors, so the condition verifier is validated in both directions against a
computation that shares none of its machinery.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecodes import klverify
from aecodes.acceptance import _perturbed, _random_rational_subspace, family_sweep_params
from aecodes.codes import (
    CodeBasis,
    CodeKind,
    GmdeParams,
    construct_ae_gmde,
    construct_pi_gmde,
    fixtures,
    vector_from_entries,
)
from aecodes.errors import build_ae_error_set
from aecodes.exactnum import RadicalSum, SqrtRational, dot, image
from aecodes.jsonfmt import to_json, write_json
from aecodes.klverify import (
    KLReport,
    KLViolation,
    _condition_image,
    _vectors,
    check_conditions,
    check_kl_correct,
    check_kl_detect,
    cross_validate,
    cross_verdicts,
)
from oracles import amplitudes, apply, condition_report_dict, kl_report_dict, total


class TestDirectKL:
    def test_j7half_corrects_order_one(self):
        report = check_kl_correct(fixtures()["J7half"], build_ae_error_set(7, 1))
        assert report.passed and not report.violations

    def test_j21half_corrects_order_two(self):
        report = check_kl_correct(fixtures()["J21half"], build_ae_error_set(21, 2))
        assert report.passed

    def test_j27half_detects_order_two(self):
        report = check_kl_detect(fixtures()["J27half"], build_ae_error_set(27, 2))
        assert report.passed

    def test_j11half_detects_order_two(self):
        report = check_kl_detect(fixtures()["J11half"], build_ae_error_set(11, 2))
        assert report.passed

    def test_duplicated_basis_fails_on_identity_operator(self):
        base = fixtures()["J7half"]
        dup = CodeBasis(base.kind, base.two_J, (base.basis[0], base.basis[0]))
        report = check_kl_correct(dup, build_ae_error_set(7, 1))
        assert not report.passed
        identity = "E[r=0,dJ=+0,dm=+0]"
        assert any(
            v.op_a == identity and v.op_b == identity and (v.i, v.j) == (0, 1)
            for v in report.violations
        )

    def test_random_subspace_fails_detection(self):
        rng = random.Random(99)
        n = 7
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        nv = sum(x * x for x in v)
        ip = sum(a * b for a, b in zip(v, w))
        w = [wi - (ip / nv) * vi for wi, vi in zip(w, v)]
        nw = sum(x * x for x in w)
        code = CodeBasis(
            CodeKind.AE,
            n,
            (
                tuple(SqrtRational.from_rational(x) * SqrtRational.sqrt(1 / nv) for x in v),
                tuple(SqrtRational.from_rational(x) * SqrtRational.sqrt(1 / nw) for x in w),
            ),
        )
        conditions = check_conditions(code, 0, 0)
        assert conditions.c1 and conditions.c2
        report = check_kl_detect(code, build_ae_error_set(n, 1))
        assert not report.passed and report.violations
        # confirm one violation numerically
        viol = report.violations[0]
        op = next(o for o in build_ae_error_set(n, 1).ops if o.label == viol.op_a)
        vi = [float(c.to_mpf(80)) for c in code.basis[viol.i]]
        vj = [float(c.to_mpf(80)) for c in code.basis[viol.j]]
        amp = {j: float(a.to_mpf(80)) for j, a in amplitudes(op).items()}
        direct = sum(
            vi[j + op.delta_m] * amp.get(j, 0.0) * vj[j]
            for j in range(n + 1)
            if 0 <= j + op.delta_m <= n
        )
        if viol.i == viol.j:
            direct -= sum(
                (
                    [float(c.to_mpf(80)) for c in code.basis[0]][j + op.delta_m]
                    * amp.get(j, 0.0)
                    * [float(c.to_mpf(80)) for c in code.basis[0]][j]
                )
                for j in range(n + 1)
                if 0 <= j + op.delta_m <= n
            )
        assert abs(direct - float(viol.residual.to_mpf(80))) < 1e-9
        assert abs(direct) > 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_kl_correct(fixtures()["J7half"], build_ae_error_set(9, 1))

    def test_gram_contains_identity_norm(self):
        report = check_kl_correct(fixtures()["J7half"], build_ae_error_set(7, 1))
        identity = "E[r=0,dJ=+0,dm=+0]"
        assert report.gram[(identity, identity)] == RadicalSum.from_rational(1)


class TestConditions:
    def test_construction_passes(self):
        code = construct_ae_gmde(GmdeParams(2, 1, 2, -1))
        assert check_conditions(code, 1, 2).all_pass

    def test_bd_code_passes(self):
        code = construct_ae_gmde(GmdeParams(3, 1, 4, 1))
        assert check_conditions(code, 1, 2).all_pass

    def test_duplicate_breaks_c1_not_c2(self):
        base = fixtures()["J7half"]
        dup = CodeBasis(base.kind, base.two_J, (base.basis[0], base.basis[0]))
        report = check_conditions(dup, 1, 2)
        assert not report.c1 and report.c2

    def test_invalid_t_prime_rejected(self):
        with pytest.raises(ValueError):
            check_conditions(fixtures()["J7half"], 1, 3)

    @pytest.mark.parametrize("t", [-1, 4])
    def test_order_rejected_as_error_sets_reject_it(self, t):
        with pytest.raises(ValueError) as built:
            build_ae_error_set(7, t)
        with pytest.raises(ValueError) as checked:
            check_conditions(fixtures()["J7half"], t, 2 * t)
        assert str(checked.value) == str(built.value)

    def test_condition_image_keys_within_0_to_n_minus_2t(self):
        # With j <= n - 2t and a <= t' <= 2t no source index j + a passes n,
        # so the images need no cutoff at the top.
        codes = list(fixtures().values()) + [
            construct_ae_gmde(GmdeParams(g, m, delta, eps))
            for g, m, delta, eps, t in family_sweep_params()[::50]
            if t in (1, 2)
        ]
        assert len(codes) > 70
        for code in codes:
            n = code.two_J
            for v, t in itertools.product(_vectors(code), (1, 2)):
                for a in range(2 * t + 1):  # every a of t' = t and of t' = 2t
                    image = _condition_image(v, n, t, a)
                    assert all(0 <= j <= n - 2 * t for j in image)
                    assert all(j + a <= n and j + a in v for j in image)

    def test_verdicts_invariant_under_global_sign_flip(self):
        base = fixtures()["J7half"]
        flipped = CodeBasis(
            base.kind,
            base.two_J,
            (base.basis[0], tuple(-c for c in base.basis[1])),
        )
        eset = build_ae_error_set(7, 1)
        assert check_kl_correct(flipped, eset).passed
        assert check_kl_detect(flipped, eset).passed
        assert check_conditions(flipped, 1, 2).all_pass


def oracle_cases():
    base = fixtures()
    j7 = base["J7half"]
    cases = [(code, t) for code in base.values() for t in (1, 2)]
    cases.append((_perturbed(j7, 0, j7.support(0)[0]), 1))
    cases.append((CodeBasis(j7.kind, j7.two_J, (j7.basis[0], j7.basis[0])), 1))
    # Every index 0..n is nonzero: images are clipped at both ends and every
    # operator pair overlaps.
    dense = [_random_rational_subspace(n, seed=1) for n in (7, 11, 13)]
    cases += [(code, t) for code in dense for t in (1, 2)]
    # Supports whose index shifts sit at the edges of what correction can
    # reach: two vectors meet only at the extreme shift 2t; two vectors stay
    # 2t+1 apart, so they never meet; a vector's own support has a gap of 2t,
    # so diagonal blocks at shifts +-2t carry terms.
    for t in (1, 2):
        meet = spaced_code(9 * t + 7, (1, 6 * t + 4), (2 * t + 1, 9 * t + 6))
        apart = spaced_code(9 * t + 7, (1, 6 * t + 4), (2 * t + 2, 9 * t + 6))
        own_gap = spaced_code(11 * t + 7, (1, 2 * t + 1, 8 * t + 4), (4 * t + 2, 11 * t + 6))
        cases += [(meet, t), (apart, t), (own_gap, t)]
    return cases


def spaced_code(n: int, *supports) -> CodeBasis:
    """A code, normalized or not, with coefficient sqrt(j + 1) at each support index j."""
    vectors = [vector_from_entries(n, {j: SqrtRational.sqrt(j + 1) for j in s}) for s in supports]
    return CodeBasis(CodeKind.AE, n, tuple(vectors), f"spaced{supports}")


def slice_cases() -> list:
    """``oracle_cases()`` and every 500th family-sweep instance."""
    sweep = family_sweep_params()[::500]
    return oracle_cases() + [(construct_ae_gmde(GmdeParams(*p[:4])), p[4]) for p in sweep]


def _must_not_run(*args, **kwargs):
    raise AssertionError("a KL check ran although its conditions failed")


class TestCrossValidation:
    def test_fixtures(self):
        for code in fixtures().values():
            assert cross_validate(code, 1)

    def test_small_construction_sweep(self):
        for g in (2, 3):
            for m in (1, 2):
                for delta in (2, 3):
                    for eps in (-1, 1):
                        if eps == 1 and g < 3:
                            continue
                        code = construct_ae_gmde(GmdeParams(g, m, delta, eps))
                        assert cross_validate(code, 1)

    @pytest.mark.parametrize("case", range(len(slice_cases())))
    def test_t_report_is_slice_of_2t_report(self, case):
        code, t = slice_cases()[case]
        direct, full = check_conditions(code, t, t), check_conditions(code, t, 2 * t)
        assert (full.c1, full.c2) == (direct.c1, direct.c2)
        for name in ("c3_failures", "c4_failures"):
            sliced = [f for f in getattr(full, name) if max(f.a, f.b) <= t]
            assert sliced == list(getattr(direct, name))
        assert cross_verdicts(code, t)[2] == direct.all_pass

    def test_one_condition_pass_per_code(self, monkeypatch):
        orders = []

        def counted(code, t, t_prime):
            orders.append((t, t_prime))
            return check_conditions(code, t, t_prime)

        monkeypatch.setattr(klverify, "check_conditions", counted)
        assert cross_validate(fixtures()["J7half"], 1)
        assert orders == [(1, 2)]

    @pytest.mark.parametrize("name", ["check_kl_correct", "check_kl_detect"])
    def test_failing_kl_check_fails(self, monkeypatch, name):
        code = fixtures()["J7half"]
        assert cross_verdicts(code, 1) == (True, True, True, True)
        failing = KLReport(name.removeprefix("check_kl_"), False, (), {})
        monkeypatch.setattr(klverify, name, lambda code, eset: failing)
        assert not cross_validate(code, 1)

    def test_failing_conditions_run_no_kl_check(self, monkeypatch):
        # J7half at t = 2 fails (C1)-(C4) at t' = 2 and t' = 4
        code = fixtures()["J7half"]
        assert not check_conditions(code, 2, 2).all_pass
        for name in ("check_kl_correct", "check_kl_detect"):
            monkeypatch.setattr(klverify, name, _must_not_run)
        assert cross_verdicts(code, 2) == (False, None, False, None)
        assert cross_validate(code, 2)

    def test_detection_monotonicity(self):
        # correcting at order t implies detecting at order t
        for params in (GmdeParams(2, 1, 2, -1), GmdeParams(3, 1, 4, 1), GmdeParams(4, 2, 4, -1)):
            code = construct_ae_gmde(params)
            t = 2 if params.g == 4 else 1
            eset = build_ae_error_set(code.two_J, t)
            assert check_kl_correct(code, eset).passed
            assert check_kl_detect(code, eset).passed


# ---------------------------------------------------------------------------
# Qubit-space oracle for permutation-invariant codes
# ---------------------------------------------------------------------------


def dicke_vector(n: int, w: int) -> np.ndarray:
    v = np.zeros(2**n)
    idxs = [sum(1 << i for i in pos) for pos in itertools.combinations(range(n), w)]
    v[idxs] = 1.0 / np.sqrt(len(idxs))
    return v


def qubit_vectors(code: CodeBasis) -> list[np.ndarray]:
    n = code.two_J
    out = []
    for vec in code.basis:
        acc = np.zeros(2**n)
        for w, c in enumerate(vec):
            if not c.is_zero():
                acc += float(c.to_mpf(80)) * dicke_vector(n, w)
        out.append(acc)
    return out


def apply_pauli(state: np.ndarray, site: int, which: str) -> np.ndarray:
    idx = np.arange(state.size)
    mask = 1 << site
    if which == "Z":
        return state * (1 - 2 * ((idx >> site) & 1))
    source = idx ^ mask
    if which == "X":
        return state[source]
    phase = 1j * (1 - 2 * ((source >> site) & 1))
    return (state[source] * phase).astype(complex)


def weight_one_error_images(states, n):
    images = [[s.astype(complex) for s in states]]
    for site in range(n):
        for which in ("X", "Y", "Z"):
            images.append([apply_pauli(s, site, which).astype(complex) for s in states])
    return images


def qubit_kl_max_violation(code: CodeBasis) -> float:
    """Largest KL defect of a PI code against all weight-<=1 Pauli errors."""
    n = code.two_J
    states = qubit_vectors(code)
    images = weight_one_error_images(states, n)
    worst = 0.0
    for img_a in images:
        for img_b in images:
            g = np.vdot(img_a[0], img_b[0])
            for i in range(len(states)):
                for j in range(len(states)):
                    val = np.vdot(img_a[i], img_b[j])
                    expected = g if i == j else 0.0
                    worst = max(worst, abs(val - expected))
    return worst


class TestPermutationInvariantEquivalence:
    """Conditions at t' = 2t match genuine single-error correctability."""

    def test_good_code_passes_both(self):
        pi = construct_pi_gmde(GmdeParams(2, 1, 2, -1))
        assert check_conditions(pi, 1, 2).all_pass
        assert qubit_kl_max_violation(pi) < 1e-9

    def test_perturbed_code_fails_both(self):
        pi = construct_pi_gmde(GmdeParams(2, 1, 2, -1))
        bent = _perturbed(pi, 0, 0)
        assert not check_conditions(bent, 1, 2).all_pass
        assert qubit_kl_max_violation(bent) > 1e-6

    def test_second_family_member(self):
        pi = construct_pi_gmde(GmdeParams(3, 1, 2, -1))
        assert check_conditions(pi, 1, 2).all_pass
        assert qubit_kl_max_violation(pi) < 1e-9
        bent = _perturbed(pi, 1, pi.support(1)[0])
        assert not check_conditions(bent, 1, 2).all_pass
        assert qubit_kl_max_violation(bent) > 1e-6


# ---------------------------------------------------------------------------
# Dense oracle for every matrix element the verifiers report
# ---------------------------------------------------------------------------


def dense_inner(u, v) -> RadicalSum:
    return total(x * y for x, y in zip(u, v))


def oracle_blocks(eset) -> list:
    """The correction blocks ((label_a, label_b), E_a, E_b): per delta_J sector in
    ascending order, each pair a <= b of the sector's operators in set order."""
    sectors = {}
    for op in eset.ops:
        sectors.setdefault(op.delta_J, []).append(op)
    return [
        ((a.label, b.label), a, b)
        for _, ops in sorted(sectors.items())
        for ai, a in enumerate(ops)
        for b in ops[ai:]
    ]


def oracle_kl(code: CodeBasis, eset, mode: str):
    """Expected (violations, gram) from explicit operator images."""
    violations, gram = [], {}
    if mode == "correct":
        blocks = oracle_blocks(eset)
    else:
        blocks = [((op.label, ""), None, op) for op in eset.ops if op.delta_J == 0]
        gram.update({(op.label,): RadicalSum.zero() for op in eset.ops if op.delta_J != 0})
    for labels, op_a, op_b in blocks:
        left = [v if op_a is None else apply(op_a, v) for v in code.basis]
        right = [apply(op_b, v) for v in code.basis]
        values = [[dense_inner(left[i], right[j]) for j in range(code.dim)] for i in range(code.dim)]
        diag0 = values[0][0]
        gram[labels if mode == "correct" else labels[:1]] = diag0
        for i in range(code.dim):
            for j in range(code.dim):
                residual = values[i][j] - diag0 if i == j else values[i][j]
                if not residual.is_zero():
                    violations.append((i, j, *labels, residual))
    return violations, gram


def oracle_condition_sum(code: CodeBasis, t: int, i: int, k: int, a: int, b: int) -> RadicalSum:
    """sum_j C(n-2t, j) v_i[j+a] v_k[j+b] / sqrt(C(n, j+a) C(n, j+b)), padded by zeros."""
    n = code.two_J
    vi = list(code.basis[i]) + [SqrtRational.zero()] * (2 * t + 1)
    vk = list(code.basis[k]) + [SqrtRational.zero()] * (2 * t + 1)
    terms = []
    for j in range(n + 1):
        weight_sq = Fraction(
            math.comb(n - 2 * t, j) ** 2, math.comb(n, j + a) * math.comb(n, j + b) or 1
        )
        terms.append(vi[j + a] * vk[j + b] * SqrtRational.sqrt(weight_sq))
    return total(terms)


class TestMatrixElementOracle:
    """Every Gram entry and residual equals its dense recomputation exactly."""

    @pytest.mark.parametrize("case", range(len(oracle_cases())))
    def test_kl_reports_match_dense_products(self, case):
        code, t = oracle_cases()[case]
        eset = build_ae_error_set(code.two_J, t)
        for mode, check in (("correct", check_kl_correct), ("detect", check_kl_detect)):
            report = check(code, eset)
            violations, gram = oracle_kl(code, eset, mode)
            assert report.gram == gram
            assert [
                (v.i, v.j, v.op_a, v.op_b, v.residual) for v in report.violations
            ] == violations
            assert report.passed == (not violations)

    @pytest.mark.parametrize("case", range(len(oracle_cases())))
    def test_condition_residuals_match_binomial_formula(self, case):
        code, t = oracle_cases()[case]
        for t_prime in (t, 2 * t):
            report = check_conditions(code, t, t_prime)
            c3, c4 = [], []
            for i, k in itertools.combinations(range(code.dim), 2):
                for a in range(t_prime + 1):
                    for b in range(t_prime + 1):
                        s3 = oracle_condition_sum(code, t, i, k, a, b)
                        s4 = oracle_condition_sum(code, t, i, i, a, b) - oracle_condition_sum(
                            code, t, k, k, a, b
                        )
                        c3 += [] if s3.is_zero() else [(a, b, (i, k), s3)]
                        c4 += [] if s4.is_zero() else [(a, b, (i, k), s4)]
            assert [(f.a, f.b, f.pair, f.residual) for f in report.c3_failures] == c3
            assert [(f.a, f.b, f.pair, f.residual) for f in report.c4_failures] == c4


class TestSectorWalk:
    """``check_kl_correct`` walks the oracle's blocks in the oracle's order."""

    @pytest.mark.parametrize("t", range(4))
    def test_blocks_and_labels_match_oracle(self, t):
        eset = build_ae_error_set(2 * t + 5, t)
        code = _random_rational_subspace(2 * t + 5, seed=t)
        walked = list(check_kl_correct(code, eset).gram)
        assert walked == [labels for labels, _, _ in oracle_blocks(eset)]


# ---------------------------------------------------------------------------
# The fused dot against sums of SqrtRational products
# ---------------------------------------------------------------------------


def as_ints(vector) -> dict:
    """A {y: SqrtRational} vector in the (num, den, kernel) form that ``dot`` takes."""
    return {y: (c.num, c.den, c.kernel) for y, c in vector.items()}


def product_total(p, q) -> RadicalSum:
    """sum_y p[y] q[y] as a total of ``SqrtRational`` products, the oracle of ``dot``."""
    return total([a * q[y] for y, a in p.items() if y in q])


# Small kernels make products of shared and of coprime kernels collide often.
_DOT_KERNELS = st.one_of(
    st.sampled_from((1, 2, 3, 5, 6, 7, 10, 15, 30, 105)),
    st.sampled_from((11 * 13, 2 * 3 * 5 * 7 * 11, 10**9 + 7)),
)
_DOT_ENTRIES = st.builds(
    lambda coeff, kernel: SqrtRational.sqrt(kernel).scaled(coeff),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    _DOT_KERNELS,
)
_SPARSE = st.dictionaries(st.integers(0, 12), _DOT_ENTRIES, max_size=8)


@settings(max_examples=200, deadline=None)
@given(p=_SPARSE, q=_SPARSE)
def test_dot_matches_product_total(p, q):
    assert dot(as_ints(p), as_ints(q)) == product_total(p, q)
    disjoint = {y + 100: c for y, c in q.items()}
    assert dot(as_ints(p), as_ints(disjoint)) == RadicalSum.zero() == product_total(p, disjoint)
    # p's entries again at y + 100 against -q there: the two halves cancel exactly.
    p2 = p | {y + 100: c for y, c in p.items()}
    q2 = q | {y + 100: -c for y, c in q.items()}
    assert dot(as_ints(p2), as_ints(q2)).is_zero() and product_total(p2, q2).is_zero()


def assert_lowest_terms(total: RadicalSum) -> RadicalSum:
    """total, after asserting that every stored pair is in lowest terms with den > 0, num != 0."""
    for k, (num, den) in total._terms.items():
        assert k > 0 and num != 0 and den > 0 and math.gcd(num, den) == 1
    return total


@pytest.mark.parametrize(
    "p, q",
    [
        ({0: (2, 3, 2), 1: (4, 6, 2), 2: (1, 1, 3)}, {0: (3, 4, 1), 1: (9, 3, 1), 2: (1, 2, 3)}),
        ({0: (2, 3, 2), 1: (1, 3, 3), 2: (5, 2, 6)}, {0: (3, 4, 1), 1: (6, 4, 1), 2: (2, 3, 1)}),
        ({0: (1, 2, 2), 1: (1, 2, 3)}, {0: (2, 1, 2), 1: (4, 1, 3)}),  # two kernels, one each
        ({0: (1, 2, 2), 1: (-1, 2, 2), 2: (1, 3, 5)}, {0: (1, 1, 1), 1: (1, 1, 1), 2: (-1, 1, 5)}),
        ({0: (1, 2, 2), 1: (1, 3, 3)}, {0: (-1, 1, 2), 1: (1, 1, 3), 2: (1, 1, 1)}),
        ({0: (1, 2, 2), 1: (1, 3, 3), 2: (1, 2, 2)}, {0: (1, 1, 1), 1: (0, 1, 1), 2: (-1, 1, 1)}),
    ],
    ids=["one-kernel", "multi-kernel", "two-kernels", "cancels", "cancels-late", "first-cancels"],
)
def test_dot_stores_lowest_terms(p, q):
    expected = total(
        [SqrtRational._make(*a) * SqrtRational._make(*q[y]) for y, a in p.items() if y in q]
    )
    got = assert_lowest_terms(dot(p, q))
    assert got == expected and got.is_zero() == (not got._terms)


@settings(max_examples=100, deadline=None)
@given(p=_SPARSE, q=_SPARSE, v=_SPARSE, shift=st.integers(-3, 3))
def test_dot_stores_lowest_terms_on_random_and_image_inputs(p, q, v, shift):
    p, q, v = as_ints(p), as_ints(q), as_ints(v)
    assert_lowest_terms(dot(p, q))
    # p against -p on disjoint copies cancels to the empty sum.
    assert not assert_lowest_terms(dot(p | {y + 100: a for y, a in p.items()},
                                       q | {y + 100: (-b[0], b[1], b[2]) for y, b in q.items()}))._terms
    # images carry unreduced (num, den): each weight's den also multiplies num.
    scaled = {y: (b[0] * 6, b[1] * 6, b[2]) for y, b in q.items()}
    assert_lowest_terms(dot(image(p, scaled, shift), v))
    assert_lowest_terms(dot(image(p, scaled, 0), image(v, scaled, 0)))


# Basis vectors, amplitudes and condition weights hold no zero entry.
_NONZERO = st.dictionaries(st.integers(0, 12), _DOT_ENTRIES.filter(lambda c: c.num), max_size=8)


@settings(max_examples=200, deadline=None)
@given(v=_NONZERO, weights=_NONZERO, w=_SPARSE, shift=st.integers(-3, 3))
def test_image_matches_sqrt_rational_products(v, weights, w, shift):
    products = {y + shift: c * weights[y] for y, c in v.items() if y in weights}
    got = image(as_ints(v), as_ints(weights), shift)
    # Entries may carry a common factor in num and den; kernels are already canonical.
    assert {y: (Fraction(num, den), k) for y, (num, den, k) in got.items()} == {
        y: (Fraction(c.num, c.den), c.kernel) for y, c in products.items()
    }
    # Unreduced entries still dot to the canonical sum.
    assert dot(got, as_ints(w)) == product_total(products, w)


# ---------------------------------------------------------------------------
# Byte-level tripwire for rewrites of the exact core
# ---------------------------------------------------------------------------

# Digest of the reports of the Fraction-based exact core; any rewrite of the
# core must reproduce it byte for byte.
REPORT_DIGEST = "ddba16e646536c8b7eb78de737f8a63b62fd7d95e6aa6f0240d84308efb35def"


def _report_slice() -> list:
    """(code, t) for every 50th family-sweep instance plus the criterion-12
    perturbations of the four fixtures."""
    cases = [
        (construct_ae_gmde(GmdeParams(g, m, delta, eps)), t)
        for g, m, delta, eps, t in family_sweep_params()[::50]
    ]
    orders = {"J7half": 1, "J21half": 2, "J27half": 1, "J11half": 1}
    for name, code in fixtures().items():
        for vi in range(code.dim):
            cases += [(_perturbed(code, vi, ci), orders[name]) for ci in code.support(vi)]
    return cases


def report_digest() -> str:
    """SHA-256 over the sorted-key JSON of every report on a fixed slice.

    Each case of ``_report_slice`` goes through the conditions at t' = 2t and
    t' = t, direct correction and detection.
    """
    digest = hashlib.sha256()
    for code, t in _report_slice():
        eset = build_ae_error_set(code.two_J, t)
        for report in (
            condition_report_dict(check_conditions(code, t, 2 * t)),
            condition_report_dict(check_conditions(code, t, t)),
            kl_report_dict(check_kl_correct(code, eset)),
            kl_report_dict(check_kl_detect(code, eset)),
        ):
            digest.update(json.dumps(report, sort_keys=True).encode())
    return digest.hexdigest()


def test_reports_byte_identical():
    assert report_digest() == REPORT_DIGEST


def _written(report) -> str:
    """The text ``cmd_verify`` streams of the report, at the depth of its "report" key."""
    parts: list[str] = []
    write_json(report.body(), parts.append, "\n  ")
    if isinstance(report, KLReport):
        d, arrays = kl_report_dict(report), ("gram", "violations")
    else:
        d, arrays = condition_report_dict(report), ("c3_failures", "c4_failures")
    # each Gram entry, violation or failure arrives in a write of its own, after its separator
    items = [to_json(x, "\n      ") for key in arrays for x in d[key]]
    assert [parts[i + 1] for i, p in enumerate(parts) if p.strip() in ("[", ",")] == items
    return "".join(parts)


def test_kl_writer_matches_to_dict():
    # The text cmd_verify streams is the generic writer's text of kl_report_dict, on the
    # digest's slice.
    kinds = set()
    for code, t in _report_slice():
        eset = build_ae_error_set(code.two_J, t)
        for report in (check_kl_correct(code, eset), check_kl_detect(code, eset)):
            assert _written(report) == to_json(kl_report_dict(report), "\n  "), (code.label, t)
            kinds.add((report.mode, report.passed))
    assert kinds == {("correct", True), ("correct", False), ("detect", True), ("detect", False)}


def test_condition_writer_matches_to_dict():
    # The (C1)-(C4) report streams its failures the same way, on the digest's slice.
    verdicts = set()
    for code, t in _report_slice():
        for report in (check_conditions(code, t, 2 * t), check_conditions(code, t, t)):
            assert _written(report) == to_json(condition_report_dict(report), "\n  ")
            verdicts.add((report.all_pass, bool(report.c3_failures), bool(report.c4_failures)))
    assert {(True, False, False), (False, True, True)} <= verdicts


def test_kl_writer_edge_reports():
    one = RadicalSum.from_rational(1)
    violation = KLViolation(0, 1, "E[r=0,dJ=+0,dm=+0]", "", one)
    other = KLViolation(1, 1, "E[r=1,dJ=+0,dm=+1]", "E[r=0,dJ=+0,dm=+0]", -one)
    gram = {("a", "b"): RadicalSum.zero(), ("a", "a"): one}
    for report in (
        KLReport("detect", True, (), {}),
        KLReport("correct", False, (violation,), gram),
        KLReport("correct", False, (violation, other), gram),
        KLReport("detect", False, (violation, other, violation), {}),
    ):
        assert _written(report) == to_json(kl_report_dict(report), "\n  ")
