"""Group covariance: generator sets, closure orders, residual checks."""

import hashlib
import random
from fractions import Fraction
from functools import partial
from math import isqrt

import mpmath
import pytest

from aecodes import covariance
from aecodes.acceptance import _random_rational_subspace
from aecodes.codes import CodeBasis, CodeKind, construct_pi_gmde, GmdeParams, fixtures
from aecodes.covariance import (
    MAX_CLOSURE_ORDER,
    MAX_FULL_GROUP_WORK,
    binary_dihedral_group,
    binary_icosahedral_group,
    binary_octahedral_group,
    check_covariance,
    code_columns,
    covariance_residual,
    fixed_point_bits,
    group_closure,
    logical_action,
    rotate_columns,
)
from aecodes.angular import HalfInt, wigner_D
from aecodes.exactnum import SqrtRational
from aecodes.klverify import check_conditions

BITS = 200
TOL = 1e-10


def slowly_converging_subspace() -> CodeBasis:
    """A rational 2J = 15 subspace whose D P D^dagger - P under BD_8 made an
    SVD-based norm raise "no convergence"; its residual is O(1)."""
    v = ["-2", "-3/7", "-2/5", "3/2", "7/8", "-7/5", "4", "7/5",
         "7/4", "-1", "-4/7", "1/8", "1/3", "-3/2", "-7/6", "8/9"]
    w = ["-512615504/114930491", "322122813/229860982", "323634057/229860982",
         "1161544832/1034374419", "-597019251/459721964", "126492662/1034374419",
         "299074418/574652455", "-270740517/229860982", "737413049/689582946",
         "663136176/114930491", "314566593/229860982", "-1799217701/1379165892",
         "-185783032/574652455", "606162662/574652455", "-176639621/229860982",
         "-757496957/229860982"]
    basis = []
    for vec in (v, w):
        xs = [Fraction(x) for x in vec]
        scale = SqrtRational.sqrt(1 / sum(x * x for x in xs))
        basis.append(tuple(SqrtRational.from_rational(x) * scale for x in xs))
    return CodeBasis(CodeKind.AE, 15, tuple(basis))


def octahedral_control() -> CodeBasis:
    """A spin-7/2 code covariant under 2O (index j = m + J):
    sqrt(5/12)|0> + sqrt(7/12)|4> and sqrt(7/12)|3> + sqrt(5/12)|7>."""
    a, b = SqrtRational.sqrt(Fraction(5, 12)), SqrtRational.sqrt(Fraction(7, 12))
    v0, v1 = [SqrtRational.zero()] * 8, [SqrtRational.zero()] * 8
    v0[0], v0[4], v1[3], v1[7] = a, b, b, a
    return CodeBasis(CodeKind.SPIN, 7, (tuple(v0), tuple(v1)))


def as_matrix(cols, two_J: int, bits: int = BITS) -> mpmath.matrix:
    """Fixed-point code columns as the dim x k matrix in wigner_D's row order (m = J first)."""
    scale = fixed_point_bits(two_J, bits)
    with mpmath.workprec(scale):
        m = mpmath.matrix(two_J + 1, len(cols))
        for i, col in enumerate(cols):
            for j, x in enumerate(col):
                m[two_J - j, i] = mpmath.ldexp(x, -scale)
    return m


def dense_residual(cols, two_J: int, u) -> mpmath.mpf:
    """Oracle: the largest |eigenvalue| of D P D^dagger - P, P = C C^dagger built densely."""
    c = as_matrix(cols, two_J)
    with mpmath.workprec(BITS):
        proj = c * c.transpose_conj()
        d = wigner_D(HalfInt(two_J), u, BITS)
        eigenvalues = mpmath.eigh(d * proj * d.transpose_conj() - proj, eigvals_only=True)
        return max(abs(eigenvalues[i]) for i in range(eigenvalues.rows))


def one_vector_code(two_J: int, kind: CodeKind = CodeKind.AE) -> CodeBasis:
    """The one-vector code |j = 0> of spin two_J / 2."""
    vec = (SqrtRational.from_rational(1),) + (SqrtRational.zero(),) * two_J
    return CodeBasis(kind, two_J, (vec,))


class _Started(Exception):
    """Raised by ``_start``, a stub for the work a check begins once its input is admitted."""


def _start(*args, **kwargs):
    raise _Started(*args)


def closure_order(group, bits: int) -> int:
    return len(group_closure(group.generators, min(bits, 80)))


class TestGroups:
    # Each constructor states its group's order, by which `covariance --full-group`
    # bounds its work before forming the closure; these tests are its only check.
    def test_octahedral_order(self):
        for bits in (53, 200, 4096):
            group = binary_octahedral_group(bits)
            assert group.order == closure_order(group, bits) == 48

    def test_icosahedral_order(self):
        for bits in (53, 200, 4096):
            group = binary_icosahedral_group(bits)
            assert group.order == closure_order(group, bits) == 120

    def test_dihedral_closure(self):
        for bits in (53, 200, 4096):
            for b in range(1, 9):
                group = binary_dihedral_group(b, bits)
                assert group.order == closure_order(group, bits) == 8 * b

    def test_generators_are_special_unitary(self):
        for group in (
            binary_dihedral_group(4, BITS),
            binary_octahedral_group(BITS),
            binary_icosahedral_group(BITS),
        ):
            for u in group.generators:
                wigner_D(HalfInt(1), u, BITS)  # raises if not special unitary

    def test_non_special_unitary_refused(self):
        # the one check, shared by the kernel and the dense oracle, at its 2^-40 tolerance
        r3 = binary_octahedral_group(BITS).generators[1]
        with mpmath.workprec(BITS):
            perturbed = {
                e: r3 + mpmath.matrix([[mpmath.mpf(2) ** -e, 0], [0, 0]]) for e in (30, 60)
            }
        c = code_columns(fixtures()["J7half"], BITS)
        checks = (lambda u: wigner_D(HalfInt(7), u, BITS), lambda u: rotate_columns(c, 7, u, BITS))
        for check in checks:
            for u in ([[0, 1], [1, 0]], [[2, 0], [0, mpmath.mpf(1) / 2]], perturbed[30]):
                with pytest.raises(ValueError) as refused:
                    check(u)
                assert str(refused.value) == "input is not a special unitary 2x2 matrix"
            check(perturbed[60])


class TestCovariance:
    def test_j11half_is_bd8_covariant(self):
        report = check_covariance(
            fixtures()["J11half"], binary_dihedral_group(4, BITS), TOL, BITS
        )
        assert report.passed
        assert report.max_residual < mpmath.mpf("1e-40")

    def test_j7half_is_2i_covariant(self):
        report = check_covariance(
            fixtures()["J7half"], binary_icosahedral_group(BITS), TOL, BITS
        )
        assert report.passed

    @pytest.mark.parametrize("full_group", [False, True])
    def test_octahedral_control_is_2o_covariant(self, full_group):
        report = check_covariance(
            octahedral_control(), binary_octahedral_group(BITS), TOL, BITS, full_group
        )
        assert report.passed and report.max_residual < mpmath.mpf("1e-40")
        assert len(report.per_generator) == (48 if full_group else 2)

    def test_octahedral_control_fails_bd8_and_2i(self):
        for group in (binary_dihedral_group(4, BITS), binary_icosahedral_group(BITS)):
            report = check_covariance(octahedral_control(), group, TOL, BITS)
            assert not report.passed and report.max_residual > mpmath.mpf("1e-3")

    def test_random_subspace_fails(self):
        report = check_covariance(
            _random_rational_subspace(11, seed=7), binary_dihedral_group(4, BITS), TOL, BITS
        )
        assert not report.passed and report.max_residual > mpmath.mpf("1e-3")

    def test_identity_residual_is_zero(self):
        for code in (fixtures()["J7half"], _random_rational_subspace(7, seed=3)):
            c = code_columns(code, BITS)
            residual, _ = covariance_residual(c, code.two_J, mpmath.eye(2), BITS)
            assert residual < mpmath.mpf(2) ** (10 - BITS)

    def test_full_group_mode(self):
        report = check_covariance(
            fixtures()["J11half"],
            binary_dihedral_group(4, BITS),
            TOL,
            BITS,
            full_group=True,
        )
        assert report.passed and len(report.per_generator) == 32

    def test_pi_kind_rejected(self):
        with pytest.raises(ValueError):
            check_covariance(
                construct_pi_gmde(GmdeParams(2, 1, 2, -1)),
                binary_dihedral_group(4, BITS),
                TOL,
                BITS,
            )

    def test_tolerance_floor_rejected(self):
        with pytest.raises(ValueError):
            check_covariance(
                fixtures()["J11half"], binary_dihedral_group(4, BITS), 1e-40, 100
            )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0])
    def test_tolerance_out_of_range_rejected(self, tol):
        with pytest.raises(ValueError):
            check_covariance(fixtures()["J7half"], binary_dihedral_group(4, BITS), tol, BITS)

    @pytest.mark.parametrize(
        "group, bits",
        [(partial(binary_dihedral_group, 300), 200), (binary_octahedral_group, 200),
         (binary_icosahedral_group, 200), (binary_icosahedral_group, 4096)],
        ids=["BD600-200", "2O-200", "2I-200", "2I-4096"],
    )
    def test_full_group_work_bound(self, monkeypatch, group, bits):
        # the least spin over the bound is refused before any work, a PI code too; one less starts
        monkeypatch.setattr(covariance, "code_columns", _start)
        group = group(bits)
        work = [group.order * (n + 1) ** 2 * (bits + n + 32) for n in range(1000)]
        n = next(n for n, w in enumerate(work) if w > MAX_FULL_GROUP_WORK)
        for kind in (CodeKind.AE, CodeKind.PI):
            with pytest.raises(ValueError) as refused:
                check_covariance(one_vector_code(n, kind), group, TOL, bits, full_group=True)
            assert str(refused.value) == (
                f"full-group work order x (2J+1)^2 x (bits + 2J + 32) = {work[n]}"
                f" exceeds {MAX_FULL_GROUP_WORK}"
            )
        for code, full_group in ((one_vector_code(n - 1), True), (one_vector_code(n), False)):
            with pytest.raises(_Started):
                check_covariance(code, group, TOL, bits, full_group)

    @pytest.mark.parametrize("b", [513, 1383])
    def test_full_group_closure_bound(self, monkeypatch, b):
        # BD's closure has 8b elements: past the cap at b = 513 on any spin, while b = 512 starts
        monkeypatch.setattr(covariance, "code_columns", _start)
        for kind in (CodeKind.AE, CodeKind.PI):
            with pytest.raises(ValueError) as refused:
                check_covariance(
                    one_vector_code(1, kind), binary_dihedral_group(b, BITS), TOL, BITS, True
                )
            assert str(refused.value) == (
                f"full-group closure order {8 * b} exceeds {MAX_CLOSURE_ORDER}"
            )
        with pytest.raises(_Started):
            check_covariance(one_vector_code(1), binary_dihedral_group(512, BITS), TOL, BITS, True)

    @pytest.mark.parametrize(
        "group, code, expected",
        [
            (partial(binary_dihedral_group, 4), lambda: fixtures()["J11half"], True),
            (partial(binary_dihedral_group, 4), partial(_random_rational_subspace, 11, seed=7), False),
            (binary_icosahedral_group, lambda: fixtures()["J7half"], True),
            (binary_icosahedral_group, partial(_random_rational_subspace, 7, seed=11), False),
            (binary_octahedral_group, octahedral_control, True),
            (binary_octahedral_group, partial(_random_rational_subspace, 11, seed=7), False),
        ],
        ids=["BD8-J11half", "BD8-random11", "2I-J7half", "2I-random7", "2O-control", "2O-random11"],
    )
    def test_verdicts_stable_under_precision_doubling(self, group, code, expected):
        code = code()
        at200 = check_covariance(code, group(200), TOL, 200)
        at400 = check_covariance(code, group(400), TOL, 400)
        assert at200.passed == at400.passed == expected

    def test_non_orthonormal_spanning_set_is_orthonormalized(self):
        # _random_rational_subspace draws these two vectors and orthonormalizes them exactly
        rng = random.Random(8)
        v, w = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)] for _ in "vw")
        raw = CodeBasis(
            CodeKind.AE, 11, tuple(tuple(map(SqrtRational.from_rational, vec)) for vec in (v, w))
        )
        exact = code_columns(_random_rational_subspace(11, seed=8), BITS)
        for u in binary_octahedral_group(BITS).generators:
            r_raw, _ = covariance_residual(code_columns(raw, BITS), 11, u, BITS)
            r_exact, _ = covariance_residual(exact, 11, u, BITS)
            assert abs(r_raw - r_exact) < mpmath.mpf("1e-50")
        double = tuple(SqrtRational.from_rational(2 * x) for x in v)
        twice = CodeBasis(CodeKind.AE, 11, (raw.basis[0], double))
        with pytest.raises(ValueError, match="dependent"):
            code_columns(twice, BITS)

    def test_slowly_converging_subspace_is_decided(self):
        code = slowly_converging_subspace()
        conditions = check_conditions(code, 0, 0)
        assert conditions.c1 and conditions.c2
        report = check_covariance(code, binary_dihedral_group(4, BITS), TOL, BITS)
        assert not report.passed and report.max_residual > mpmath.mpf("1e-3")

    def test_residuals_basis_independent(self):
        code = fixtures()["J7half"]
        group = binary_icosahedral_group(BITS)
        c = code_columns(code, BITS)
        scale = fixed_point_bits(code.two_J, BITS)
        rt = isqrt(1 << (2 * scale - 1))  # sqrt(1/2) at the same scale
        rotated = [
            [rt * (x + y) >> scale for x, y in zip(*c)],
            [rt * (x - y) >> scale for x, y in zip(*c)],
        ]
        with mpmath.workprec(BITS):
            for u in group.generators:
                r1, _ = covariance_residual(c, code.two_J, u, BITS)
                r2, _ = covariance_residual(rotated, code.two_J, u, BITS)
                assert abs(r1 - r2) < mpmath.mpf("1e-20")


def random_su2(rng: random.Random, bits: int) -> mpmath.matrix:
    """A random special unitary from a normalized Gaussian quaternion."""
    with mpmath.workprec(bits):
        q = [mpmath.mpf(rng.gauss(0, 1)) for _ in range(4)]
        norm = mpmath.sqrt(sum(x * x for x in q))
        a, b = mpmath.mpc(q[0], q[3]) / norm, mpmath.mpc(q[2], q[1]) / norm
        return mpmath.matrix([[a, -mpmath.conj(b)], [b, mpmath.conj(a)]])


class TestKernelOracle:
    """The substitution kernel D(u) C against the dense wigner_D(u) * C."""

    @pytest.mark.parametrize("bits", [200, 400])
    @pytest.mark.parametrize("two_J", [0, 1, 2, 7, 27, 55])
    def test_matches_dense_product(self, two_J, bits):
        rng = random.Random(1000 * two_J + bits)
        scale = fixed_point_bits(two_J, bits)
        cols = [[rng.randrange(-1 << scale, 1 << scale) for _ in range(two_J + 1)] for _ in "ab"]
        elements = [mpmath.eye(2), random_su2(rng, bits), random_su2(rng, bits)]
        for group in (
            binary_dihedral_group(4, bits),
            binary_octahedral_group(bits),
            binary_icosahedral_group(bits),
        ):
            elements += group.generators
        # The oracle runs at extra precision so that its own rounding stays out
        # of the bound.  The guard bits hold the kernel well inside the
        # 2^(20 - bits) that the verdicts need: below 2^-bits.
        with mpmath.workprec(bits + 64):
            c = as_matrix(cols, two_J, bits)
            bound = mpmath.mpf(2) ** -bits
            for u in elements:
                want = wigner_D(HalfInt(two_J), u, bits + 64) * c
                for i, col in enumerate(rotate_columns(cols, two_J, u, bits)):
                    for j, (re, im) in enumerate(col):
                        got = mpmath.mpc(mpmath.ldexp(re, -scale), mpmath.ldexp(im, -scale))
                        assert abs(got - want[two_J - j, i]) < bound


class TestDenseOracle:
    """The k-column residual against the dense dim x dim projector norm."""

    @pytest.mark.parametrize(
        "code, group",
        [
            (_random_rational_subspace(11, seed=7), binary_dihedral_group(4, BITS)),
            (_random_rational_subspace(11, seed=8), binary_octahedral_group(BITS)),
            (_random_rational_subspace(11, seed=9), binary_icosahedral_group(BITS)),
            (slowly_converging_subspace(), binary_dihedral_group(4, BITS)),
            (_random_rational_subspace(27, seed=1), binary_octahedral_group(BITS)),
        ],
        ids=["2J11-BD8", "2J11-2O", "2J11-2I", "2J15-BD8", "2J27-2O"],
    )
    def test_matches_dense_residual(self, code, group):
        c = code_columns(code, BITS)
        for u in group.generators:
            residual, _ = covariance_residual(c, code.two_J, u, BITS)
            assert abs(residual - dense_residual(c, code.two_J, u)) < mpmath.mpf("1e-50")

    @pytest.mark.parametrize(
        "name, group",
        [("J11half", binary_dihedral_group(4, BITS)), ("J7half", binary_icosahedral_group(BITS))],
        ids=["J11half-BD8", "J7half-2I"],
    )
    def test_covariant_fixtures_vanish_both_ways(self, name, group):
        code = fixtures()[name]
        c = code_columns(code, BITS)
        for u in group.generators:
            residual, _ = covariance_residual(c, code.two_J, u, BITS)
            assert residual < mpmath.mpf("1e-40")
            assert dense_residual(c, code.two_J, u) < mpmath.mpf("1e-40")


class TestLogicalAction:
    def test_identity_element(self):
        action = logical_action(fixtures()["J11half"], mpmath.eye(2), BITS)
        for i in range(2):
            for j in range(2):
                assert abs(action[i, j] - (1 if i == j else 0)) < 1e-30

    def test_diagonal_generator_gives_unitary(self):
        group = binary_dihedral_group(4, BITS)
        action = logical_action(fixtures()["J11half"], group.generators[2], BITS)
        det = action[0, 0] * action[1, 1] - action[0, 1] * action[1, 0]
        assert abs(abs(det) - 1) < 1e-9
        gram = action * action.transpose_conj()
        assert max(
            abs(gram[i, j] - (1 if i == j else 0)) for i in range(2) for j in range(2)
        ) < 10 * TOL

    def test_composition_consistency(self):
        group = binary_dihedral_group(4, BITS)
        code = fixtures()["J11half"]
        with mpmath.workprec(BITS):
            u1, u2 = group.generators[0], group.generators[2]
            combined = logical_action(code, u1 * u2, BITS)
            product = logical_action(code, u1, BITS) * logical_action(code, u2, BITS)
            err = max(
                abs(combined[i, j] - product[i, j]) for i in range(2) for j in range(2)
            )
        assert err < 1e-8

    def test_non_preserving_element_rejected(self):
        with pytest.raises(ValueError):
            logical_action(
                fixtures()["J11half"],
                binary_icosahedral_group(BITS).generators[0],
                BITS,
            )


def rational_spanning_set(two_J: int, k: int, seed: int) -> CodeBasis:
    """k random rational vectors, which ``code_columns`` orthonormalizes."""
    rng = random.Random(seed)
    return CodeBasis(CodeKind.AE, two_J, tuple(
        tuple(SqrtRational.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for _ in range(two_J + 1))
        for _ in range(k)
    ))


def mpf_words(x: mpmath.mpf) -> tuple:
    sign, man, exp, bc = x._mpf_
    return sign, int(man), exp, bc


class TestPinnedBits:
    """A rewrite of the fixed-point kernel, the Gram or the eigenvalue moves no residual bit."""

    def test_residual_bits_pinned(self):
        h = hashlib.sha256()
        codes = list(fixtures().values()) + [
            rational_spanning_set(two_J, k, seed)
            for two_J, k, seed in ((5, 2, 1), (16, 3, 2), (27, 2, 3), (31, 3, 4))
        ]
        for bits in (53, 200, 1024):
            groups = (binary_dihedral_group(4, bits), binary_dihedral_group(7, bits),
                      binary_octahedral_group(bits), binary_icosahedral_group(bits))
            for code in codes:
                for group in groups:
                    report = check_covariance(code, group, 2.0 ** (20 - bits), bits)
                    h.update(repr([mpf_words(r) for r in report.per_generator.values()]).encode())
        j21 = fixtures()["J21half"]
        c = code_columns(j21, BITS)
        bd8 = binary_dihedral_group(4, BITS)
        dense, monomial = binary_octahedral_group(BITS).generators[1], bd8.generators[0]
        for u in (dense, monomial):
            h.update(repr(rotate_columns(c, j21.two_J, u, BITS)).encode())
        two_i = binary_icosahedral_group(BITS)
        report = check_covariance(fixtures()["J7half"], two_i, TOL, BITS, full_group=True)
        h.update(repr([mpf_words(r) for r in report.per_generator.values()]).encode())
        action = logical_action(fixtures()["J11half"], bd8.generators[2], BITS)
        h.update(repr([(mpf_words(z.real), mpf_words(z.imag)) for z in action]).encode())
        assert h.hexdigest() == "f8b504a7231b14c9179a56b6c5e9cf68054a7829bb873d1c8f53ce7a9920fb6a"
