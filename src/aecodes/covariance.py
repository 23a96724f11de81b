"""Group covariance checks for codes hosted in a single spin.

A code is covariant under a finite subgroup of SU(2) when the spin-J
representation of every group element preserves the codespace.  Checking the
generators suffices, since conjugation by a product factors; a full-group
mode re-checks every element of the closure for the suspicious.

Verification is floating-point at a configurable precision (default 200
bits) with tolerances around 1e-10: a truly covariant code has residual
exactly zero, so any verdict that flips when the precision is doubled
signals a bug rather than a borderline case.

The residual of an element u is ||D P D^dagger - P||_2 for the codespace
projector P = C C^dagger, but no dim x dim matrix is formed: for projectors
of equal rank it equals ||(I - P) D C||_2, with C the dim x k orthonormal
code basis, so one product D C yields both the residual and the logical
action C^dagger D C.

Generator conventions
---------------------
* Binary dihedral: the bit-flip and phase-flip generators are lifted into
  SU(2) as i*X and i*Z (the bare Pauli matrices have determinant -1; the
  projective action on the codespace is unchanged).
* Binary octahedral (order 48): quarter-turn about z and a three-fold
  rotation about (1,1,1).
* Binary icosahedral (order 120): the orientation is fixed with a five-fold
  axis along z and a two-fold axis tilted by arccos(phi/sqrt(phi+2)) at
  azimuth pi/5, which is the orientation in which the printed codes are
  covariant.  Closure orders are validated before use.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpc, workprec

from .angular import HalfInt, wigner_D
from .codes import CodeBasis, CodeKind


@dataclass(frozen=True)
class GroupSpec:
    family: str  # "2O" | "2I" | "BD"
    order_param: int
    generators: tuple[mpmath.matrix, ...]
    labels: tuple[str, ...]

    @property
    def name(self) -> str:
        if self.family == "BD":
            return f"BD_{2 * self.order_param}"
        return self.family


def binary_dihedral_group(b: int, precision_bits: int = 200) -> GroupSpec:
    """Generators i*X, i*Z and the diagonal rotation diag(e^{-i pi/2b}, e^{i pi/2b})."""
    if b <= 0:
        raise ValueError("b must be positive")
    with workprec(precision_bits):
        ix = mpmath.matrix([[0, mpc(0, 1)], [mpc(0, 1), 0]])
        iz = mpmath.matrix([[mpc(0, 1), 0], [0, mpc(0, -1)]])
        phase = mpmath.exp(mpc(0, -1) * mpmath.pi / (2 * b))
        rot = mpmath.matrix([[phase, 0], [0, mpmath.conj(phase)]])
    return GroupSpec("BD", b, (ix, iz, rot), ("iX", "iZ", f"Rz(pi/{b})"))


def binary_octahedral_group(precision_bits: int = 200) -> GroupSpec:
    with workprec(precision_bits):
        phase = mpmath.exp(mpc(0, -1) * mpmath.pi / 4)
        r4 = mpmath.matrix([[phase, 0], [0, mpmath.conj(phase)]])
        half = mpmath.mpf(1) / 2
        r3 = mpmath.matrix(
            [
                [half * (1 - 1j), half * (-1 - 1j)],
                [half * (1 - 1j), half * (1 + 1j)],
            ]
        )
    group = GroupSpec("2O", 0, (r4, r3), ("Rz(pi/2)", "R3(111)"))
    _validate_order(group, 48, precision_bits)
    return group


def binary_icosahedral_group(precision_bits: int = 200) -> GroupSpec:
    with workprec(precision_bits):
        phase = mpmath.exp(mpc(0, -1) * mpmath.pi / 5)
        r5 = mpmath.matrix([[phase, 0], [0, mpmath.conj(phase)]])
        phi = (1 + mpmath.sqrt(5)) / 2
        ct = phi / mpmath.sqrt(phi + 2)
        st = 1 / mpmath.sqrt(phi + 2)
        azim = mpmath.exp(mpc(0, 1) * mpmath.pi / 5)
        # pi rotation about (st*cos(pi/5), st*sin(pi/5), ct): -i (n . sigma)
        r2 = mpmath.matrix(
            [
                [mpc(0, -1) * ct, mpc(0, -1) * st * mpmath.conj(azim)],
                [mpc(0, -1) * st * azim, mpc(0, 1) * ct],
            ]
        )
    group = GroupSpec("2I", 0, (r5, r2), ("Rz(2pi/5)", "R2(tilted)"))
    _validate_order(group, 120, precision_bits)
    return group


def group_closure(
    generators, precision_bits: int = 200, max_order: int = 4096
) -> list[mpmath.matrix]:
    """Multiplicative closure of the generators; raises if it exceeds max_order."""

    def key(u):
        return tuple(
            (round(float(u[i, j].real), 9), round(float(u[i, j].imag), 9))
            for i in range(2)
            for j in range(2)
        )

    with workprec(precision_bits):
        elements = {key(g): g for g in generators}
        frontier = list(elements.values())
        while frontier:
            fresh = []
            for u in frontier:
                for g in generators:
                    w = u * g
                    k = key(w)
                    if k not in elements:
                        elements[k] = w
                        fresh.append(w)
                        if len(elements) > max_order:
                            raise ValueError(
                                f"group closure exceeded {max_order} elements"
                            )
            frontier = fresh
        return list(elements.values())


def _validate_order(group: GroupSpec, expected: int, precision_bits: int) -> None:
    size = len(group_closure(group.generators, min(precision_bits, 80)))
    if size != expected:
        raise AssertionError(
            f"{group.name} generators produced a group of order {size}, expected {expected}"
        )


@dataclass(frozen=True)
class CovarianceReport:
    group: str
    tolerance: float
    precision_bits: int
    per_generator: dict[str, mpmath.mpf]
    max_residual: mpmath.mpf
    passed: bool

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "tolerance": float(self.tolerance),
            "precision_bits": self.precision_bits,
            "per_generator": {
                k: mpmath.nstr(v, 12) for k, v in self.per_generator.items()
            },
            "max_residual": mpmath.nstr(self.max_residual, 12),
            "pass": self.passed,
        }


def code_columns(code: CodeBasis, precision_bits: int = 200) -> mpmath.matrix:
    """The orthonormal dim x k float matrix C whose columns span the codespace.

    Rows are ordered by decreasing projection m (matching the Wigner matrix
    ordering), so the coefficient at index j lands in row n - j.  Exact
    orthonormal bases pass through essentially unchanged; other spanning
    sets are orthonormalized by Gram-Schmidt so that C^dagger C = I.
    """
    n = code.two_J
    with workprec(precision_bits):
        c = mpmath.matrix(n + 1, len(code.basis))
        for i, vec in enumerate(code.basis):
            col = mpmath.matrix(n + 1, 1)
            for j, x in enumerate(vec):
                col[n - j, 0] = x.to_mpf(precision_bits)
            for p in range(i):
                prev = c.column(p)
                col = col - prev * (prev.transpose_conj() * col)[0, 0]
            norm = mpmath.sqrt((col.transpose_conj() * col)[0, 0].real)
            if norm < mpmath.mpf(2) ** (-precision_bits // 2):
                raise ValueError("basis vectors are numerically dependent")
            c[:, i] = col / norm
        return c


def operator_norm(m: mpmath.matrix) -> mpmath.mpf:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|."""
    eigenvalues = mpmath.eigh(m, eigvals_only=True)
    return max(abs(eigenvalues[i]) for i in range(eigenvalues.rows))


def covariance_residual(
    c: mpmath.matrix, two_J: int, u, precision_bits: int = 200
) -> tuple[mpmath.mpf, mpmath.matrix]:
    """The residual ||D P D^dagger - P||_2 of one element and its k x k action.

    With D C formed once, the action is A = C^dagger D C and the leak out of
    the codespace is L = D C - C A = (I - P) D C, whose 2-norm is the
    residual: the square root of the largest eigenvalue of L^dagger L.
    """
    with workprec(precision_bits):
        dc = wigner_D(HalfInt(two_J), u, precision_bits) * c
        action = c.transpose_conj() * dc
        leak = dc - c * action
        return mpmath.sqrt(operator_norm(leak.transpose_conj() * leak)), action


def check_covariance(
    code: CodeBasis,
    group: GroupSpec,
    tolerance: float = 1e-10,
    precision_bits: int = 200,
    full_group: bool = False,
) -> CovarianceReport:
    """Residuals of the codespace projector under each generator (or element).

    Invariance under the generators implies invariance under the whole
    group; ``full_group`` enumerates the closure instead.
    """
    if code.kind is CodeKind.PI:
        raise ValueError("covariance applies to AE or SPIN codes, not PI")
    # A NaN fails both comparisons; a tolerance of 1 or more passes every
    # code, since the residual of projectors of equal rank is at most 1.
    if not mpmath.mpf(2) ** (20 - precision_bits) <= mpmath.mpf(tolerance) < 1:
        raise ValueError(
            f"tolerance {tolerance} must lie in [2^{20 - precision_bits}, 1)"
        )
    with workprec(precision_bits):
        c = code_columns(code, precision_bits)
        if full_group:
            members = group_closure(group.generators, precision_bits)
            labeled = [(f"element{i}", u) for i, u in enumerate(members)]
        else:
            labeled = list(zip(group.labels, group.generators))
        residuals = {
            label: covariance_residual(c, code.two_J, u, precision_bits)[0]
            for label, u in labeled
        }
        worst = max(residuals.values())
    return CovarianceReport(
        group=group.name,
        tolerance=tolerance,
        precision_bits=precision_bits,
        per_generator=residuals,
        max_residual=worst,
        passed=bool(worst <= mpmath.mpf(tolerance)),
    )


def logical_action(
    code: CodeBasis,
    u,
    precision_bits: int = 200,
    tolerance: float = 1e-10,
) -> mpmath.matrix:
    """The k x k matrix <c_i| D(u) |c_j> induced on the codespace.

    Only meaningful when u preserves the codespace; the residual is
    re-checked and a violation is rejected.
    """
    with workprec(precision_bits):
        residual, action = covariance_residual(
            code_columns(code, precision_bits), code.two_J, u, precision_bits
        )
        if residual > mpmath.mpf(tolerance):
            raise ValueError(
                f"element does not preserve the codespace (residual {mpmath.nstr(residual, 6)})"
            )
        return action
