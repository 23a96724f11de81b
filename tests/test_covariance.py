"""Group covariance: generator sets, closure validation, residual checks."""

import random
from fractions import Fraction

import mpmath
import pytest

from aecodes.codes import CodeBasis, CodeKind, construct_pi_gmde, GmdeParams, fixtures
from aecodes.covariance import (
    binary_dihedral_group,
    binary_icosahedral_group,
    binary_octahedral_group,
    check_covariance,
    code_columns,
    covariance_residual,
    group_closure,
    logical_action,
)
from aecodes.angular import HalfInt, wigner_D
from aecodes.exactnum import SqrtRational

BITS = 200
TOL = 1e-10


def random_subspace(n: int, seed: int) -> CodeBasis:
    rng = random.Random(seed)
    v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    nv = sum(x * x for x in v)
    ip = sum(a * b for a, b in zip(v, w))
    w = [wi - (ip / nv) * vi for wi, vi in zip(w, v)]
    nw = sum(x * x for x in w)
    return CodeBasis(
        CodeKind.AE,
        n,
        (
            tuple(SqrtRational.from_rational(x) * SqrtRational.sqrt(1 / nv) for x in v),
            tuple(SqrtRational.from_rational(x) * SqrtRational.sqrt(1 / nw) for x in w),
        ),
    )


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


def dense_residual(c: mpmath.matrix, two_J: int, u) -> mpmath.mpf:
    """Oracle: the largest |eigenvalue| of D P D^dagger - P, P = C C^dagger built densely."""
    with mpmath.workprec(BITS):
        proj = c * c.transpose_conj()
        d = wigner_D(HalfInt(two_J), u, BITS)
        eigenvalues = mpmath.eigh(d * proj * d.transpose_conj() - proj, eigvals_only=True)
        return max(abs(eigenvalues[i]) for i in range(eigenvalues.rows))


class TestGroups:
    def test_octahedral_order(self):
        group = binary_octahedral_group(120)  # order re-validated at build
        assert len(group_closure(group.generators, 80)) == 48

    def test_icosahedral_order(self):
        group = binary_icosahedral_group(120)
        assert len(group_closure(group.generators, 80)) == 120

    def test_dihedral_closure(self):
        group = binary_dihedral_group(4, 120)
        assert len(group_closure(group.generators, 80)) == 32

    def test_generators_are_special_unitary(self):
        for group in (
            binary_dihedral_group(4, BITS),
            binary_octahedral_group(BITS),
            binary_icosahedral_group(BITS),
        ):
            for u in group.generators:
                wigner_D(HalfInt(1), u, BITS)  # raises if not special unitary


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

    def test_random_subspace_fails(self):
        report = check_covariance(
            random_subspace(11, seed=7), binary_dihedral_group(4, BITS), TOL, BITS
        )
        assert not report.passed and report.max_residual > mpmath.mpf("1e-3")

    def test_identity_residual_is_zero(self):
        for code in (fixtures()["J7half"], random_subspace(7, seed=3)):
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

    def test_verdicts_stable_under_precision_doubling(self):
        code_good = fixtures()["J11half"]
        code_bad = random_subspace(11, seed=7)
        group = binary_dihedral_group(4, 400)
        for code, expected in ((code_good, True), (code_bad, False)):
            at200 = check_covariance(code, binary_dihedral_group(4, 200), TOL, 200)
            at400 = check_covariance(code, group, TOL, 400)
            assert at200.passed == at400.passed == expected

    def test_slowly_converging_subspace_is_decided(self):
        code = slowly_converging_subspace()
        assert code.is_orthonormal()
        report = check_covariance(code, binary_dihedral_group(4, BITS), TOL, BITS)
        assert not report.passed and report.max_residual > mpmath.mpf("1e-3")

    def test_residuals_basis_independent(self):
        code = fixtures()["J7half"]
        group = binary_icosahedral_group(BITS)
        with mpmath.workprec(BITS):
            c = code_columns(code, BITS)
            rt = mpmath.sqrt(mpmath.mpf(1) / 2)
            rotated = c * mpmath.matrix([[rt, rt], [rt, -rt]])
            for u in group.generators:
                r1, _ = covariance_residual(c, code.two_J, u, BITS)
                r2, _ = covariance_residual(rotated, code.two_J, u, BITS)
                assert abs(r1 - r2) < mpmath.mpf("1e-20")


class TestDenseOracle:
    """The k-column residual against the dense dim x dim projector norm."""

    @pytest.mark.parametrize(
        "code, group",
        [
            (random_subspace(11, seed=7), binary_dihedral_group(4, BITS)),
            (random_subspace(11, seed=8), binary_octahedral_group(BITS)),
            (random_subspace(11, seed=9), binary_icosahedral_group(BITS)),
            (slowly_converging_subspace(), binary_dihedral_group(4, BITS)),
            (random_subspace(27, seed=1), binary_octahedral_group(BITS)),
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
