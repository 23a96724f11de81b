"""Group covariance checks for codes hosted in a single spin.

A code is covariant under a finite subgroup of SU(2) when the spin-J
representation of every group element preserves the codespace.  Checking the
generators suffices, since conjugation by a product factors; a full-group
mode re-checks every element of the closure for the suspicious.

The residual of an element u is ||D P D^dagger - P||_2 for the codespace
projector P = C C^dagger.  For projectors of equal rank it equals
||(I - P) D C||_2, with C the dim x k orthonormal code basis, so one product
D C yields both the residual and the logical action C^dagger D C.

No dense D is formed: column c is the polynomial sum_p sqrt(C(N,p)) c_p
x^p y^(N-p), N = 2J, and D(u) substitutes x -> u00 x + u10 y and
y -> u01 x + u11 y by Horner in O((k+1) N^2) per element (``angular.wigner_D``
is the dense oracle), on Python ints in fixed point: Gaussian integers
(re, im) scaled by 2^S.  The entries of u are fixed once and checked special
unitary on those ints; each Gaussian product takes three multiplications
(Gauss's trick), exactly.  Coefficients grow to about 2^N, so S = bits + N + 32
keeps D C and the leak L well below 2^-bits.  Only the Gram matrix L^dagger L
goes to mpmath, each entry rounded once, for its largest eigenvalue.

Verdicts stay floating-point (default 200 bits), with tolerances around 1e-10:
a covariant code shows about 2^-bits, as its generators are rounded to that
precision, and a verdict that flips when the precision is doubled is a bug.

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
  covariant.  The tests check each group's closure order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from operator import mul

import mpmath
from mpmath import mpc, workprec
from mpmath.libmp import from_man_exp

from .angular import _as_mp_matrix, _fixed_special_unitary
from .codes import CodeBasis, CodeKind


@dataclass(frozen=True)
class GroupSpec:
    name: str
    order: int  # of the closure of the generators
    generators: tuple[mpmath.matrix, ...]
    labels: tuple[str, ...]


def _su2(a, b) -> mpmath.matrix:
    """The SU(2) element [[a, -b*], [b, a*]], for |a|^2 + |b|^2 = 1."""
    return mpmath.matrix([[a, -mpmath.conj(b)], [b, mpmath.conj(a)]])


def binary_dihedral_group(b: int, precision_bits: int = 200) -> GroupSpec:
    """Generators i*X, i*Z and the diagonal rotation diag(e^{-i pi/2b}, e^{i pi/2b})."""
    if b <= 0:
        raise ValueError("b must be positive")
    with workprec(precision_bits):
        ix = _su2(0, mpc(0, 1))
        iz = _su2(mpc(0, 1), 0)
        rot = _su2(mpmath.exp(mpc(0, -1) * mpmath.pi / (2 * b)), 0)
    return GroupSpec(f"BD_{2 * b}", 8 * b, (ix, iz, rot), ("iX", "iZ", f"Rz(pi/{b})"))


def binary_octahedral_group(precision_bits: int = 200) -> GroupSpec:
    with workprec(precision_bits):
        r4 = _su2(mpmath.exp(mpc(0, -1) * mpmath.pi / 4), 0)
        half = mpmath.mpf(1) / 2
        r3 = _su2(half * (1 - 1j), half * (1 - 1j))
    return GroupSpec("2O", 48, (r4, r3), ("Rz(pi/2)", "R3(111)"))


def binary_icosahedral_group(precision_bits: int = 200) -> GroupSpec:
    with workprec(precision_bits):
        r5 = _su2(mpmath.exp(mpc(0, -1) * mpmath.pi / 5), 0)
        phi = (1 + mpmath.sqrt(5)) / 2
        ct = phi / mpmath.sqrt(phi + 2)
        st = 1 / mpmath.sqrt(phi + 2)
        azim = mpmath.exp(mpc(0, 1) * mpmath.pi / 5)
        # pi rotation about (st*cos(pi/5), st*sin(pi/5), ct): -i (n . sigma)
        r2 = _su2(mpc(0, -1) * ct, mpc(0, -1) * st * azim)
    return GroupSpec("2I", 120, (r5, r2), ("Rz(2pi/5)", "R2(tilted)"))


# The most elements a closure may reach: BD with b = 512 has 8b of them.
MAX_CLOSURE_ORDER = 4096

# A full-group check runs each of the closure's `order` elements with
# O((2J+1)^2) products of S-bit ints, S = bits + 2J + 32, so it is bounded on
# order * (2J+1)^2 * S.  The slowest runs admitted, 2I on 2J = 36 at 4096 bits
# and on 2J = 126 at 200 bits, take 31-33 s and 10-11 s end to end (2-core
# machine, Python 3.11).
MAX_FULL_GROUP_WORK = 7 * 10**8


def group_closure(generators, precision_bits: int = 200) -> list[mpmath.matrix]:
    """Multiplicative closure of the generators; raises past MAX_CLOSURE_ORDER elements."""

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
                        if len(elements) > MAX_CLOSURE_ORDER:
                            raise ValueError(f"group closure exceeded {MAX_CLOSURE_ORDER} elements")
            frontier = fresh
        return list(elements.values())


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


def fixed_point_bits(two_J: int, precision_bits: int) -> int:
    """The scale S of the fixed-point kernel: the precision plus N + 32 guard bits."""
    return precision_bits + two_J + 32


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def code_columns(code: CodeBasis, precision_bits: int = 200) -> list[list[int]]:
    """The k orthonormal code columns C, as ints at scale 2^``fixed_point_bits``.

    Entry j is the coefficient at index j = m + J, as in the code file, from
    an integer square root; Gram-Schmidt on ints makes C^T C = I.
    """
    scale = fixed_point_bits(code.two_J, precision_bits)
    cols: list[list[int]] = []
    for vec in code.basis:
        col = [x.sign * isqrt((x.num**2 * x.kernel << 2 * scale) // x.den**2) for x in vec]
        for prev in cols:
            overlap = _dot(prev, col) >> scale
            col = [x - (p * overlap >> scale) for p, x in zip(prev, col)]
        norm = isqrt(_dot(col, col))
        if norm < 1 << (scale - precision_bits // 2):
            raise ValueError("basis vectors are numerically dependent")
        cols.append([(x << scale) // norm for x in col])
    return cols


def _times_form(poly, form, scale, w=0, add=None):
    """Coefficients, by the power of x, of poly * (f0 x + f1 y) [+ w * add], each Gaussian
    product in three multiplications: (fr + i fi)(a + i b) = k - (fr + fi) b + i (k + (fi - fr) a)
    for k = fr (a + b)."""
    (xr, xi), (yr, yi) = form
    xs, xd, ys, yd = xr + xi, xi - xr, yr + yi, yi - yr
    pairs = zip([(0, 0)] + poly, poly + [(0, 0)])
    if add is None:
        return [
            ((k := xr * (a + b) + yr * (c + d)) - xs * b - ys * d >> scale, k + xd * a + yd * c >> scale)
            for (a, b), (c, d) in pairs
        ]
    return [
        ((k := xr * (a + b) + yr * (c + d)) - xs * b - ys * d + w * e >> scale,
         k + xd * a + yd * c + w * f >> scale)
        for ((a, b), (c, d)), (e, f) in zip(pairs, add)
    ]


def rotate_columns(c: list[list[int]], two_J: int, u, precision_bits: int = 200) -> list:
    """D(u) C as columns of Gaussian fixed-point pairs (re, im), with no D formed."""
    n, scale = two_J, fixed_point_bits(two_J, precision_bits)
    with workprec(scale):  # at 53 bits, the entries of u would cap the accuracy
        fixed = _fixed_special_unitary(_as_mp_matrix(u), scale)
    l1, l2 = fixed[::2], fixed[1::2]  # u00 x + u10 y and u01 x + u11 y
    powers = [[(1 << scale, 0)]]  # (u01 x + u11 y)^m for m = 0..n
    for _ in range(n):
        powers.append(_times_form(powers[-1], l2, scale))
    roots = [isqrt(comb(n, p) << 2 * scale) for p in range(n + 1)]
    inverse_roots = [isqrt((1 << 2 * scale) // comb(n, p)) for p in range(n + 1)]
    out = []
    for col in c:
        w = [x * r >> scale for x, r in zip(col, roots)]
        poly = [(w[n], 0)]
        for p in range(n - 1, -1, -1):
            poly = _times_form(poly, l1, scale, w[p], powers[n - p])
        out.append([(a * r >> scale, b * r >> scale) for (a, b), r in zip(poly, inverse_roots)])
    return out


def operator_norm(m: mpmath.matrix) -> mpmath.mpf:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|.  m is overwritten."""
    eigenvalues = mpmath.eigh(m, eigvals_only=True, overwrite_a=True)
    return max(abs(eigenvalues[i]) for i in range(eigenvalues.rows))


def covariance_residual(
    c: list[list[int]], two_J: int, u, precision_bits: int = 200
) -> tuple[mpmath.mpf, list[list[tuple[int, int]]]]:
    """The residual ||D P D^dagger - P||_2 of one element and its k x k action.

    With D C formed once, the action is A = C^T D C (C is real), as Gaussian
    ints at scale 2^``fixed_point_bits``, and the leak out of the codespace is
    L = D C - C A = (I - P) D C, whose 2-norm is the residual: the square root
    of the largest eigenvalue of L^dagger L.
    """
    scale = fixed_point_bits(two_J, precision_bits)
    dc = [tuple(zip(*col)) for col in rotate_columns(c, two_J, u, precision_bits)]  # (re, im)
    action = [[(_dot(ci, re) >> scale, _dot(ci, im) >> scale) for re, im in dc] for ci in c]
    leak = []
    for j, (re, im) in enumerate(dc):
        for ci, row in zip(c, action):
            re = [x - (v * row[j][0] >> scale) for x, v in zip(re, ci)]
            im = [x - (v * row[j][1] >> scale) for x, v in zip(im, ci)]
        leak.append((re, im))

    def entry(re: int, im: int) -> mpc:  # mpc(re, im) / 2^(2 scale), rounded once
        return mpmath.mp.make_mpc((from_man_exp(re, -2 * scale, precision_bits, "n"),
                                   from_man_exp(im, -2 * scale, precision_bits, "n")))

    gram = mpmath.matrix([
        [entry(_dot(ri, rj) + _dot(ii, ij), _dot(ri, ij) - _dot(ii, rj)) for rj, ij in leak]
        for ri, ii in leak
    ])
    with workprec(precision_bits):
        return mpmath.sqrt(operator_norm(gram)), action


def check_covariance(
    code: CodeBasis,
    group: GroupSpec,
    tolerance: float = 1e-10,
    precision_bits: int = 200,
    full_group: bool = False,
) -> CovarianceReport:
    """Residuals of the codespace projector under each generator (or element).

    Invariance under the generators implies invariance under the whole
    group; ``full_group`` enumerates the closure instead, and is refused
    before any work past MAX_CLOSURE_ORDER elements or MAX_FULL_GROUP_WORK.
    """
    if full_group:
        if group.order > MAX_CLOSURE_ORDER:
            raise ValueError(
                f"full-group closure order {group.order} exceeds {MAX_CLOSURE_ORDER}"
            )
        work = group.order * (code.two_J + 1) ** 2 * fixed_point_bits(code.two_J, precision_bits)
        if work > MAX_FULL_GROUP_WORK:
            raise ValueError(
                f"full-group work order x (2J+1)^2 x (bits + 2J + 32) = {work}"
                f" exceeds {MAX_FULL_GROUP_WORK}"
            )
    if code.kind is CodeKind.PI:
        raise ValueError("covariance applies to AE or SPIN codes, not PI")
    # A NaN fails both comparisons; a tolerance of 1 or more passes every
    # code, since the residual of projectors of equal rank is at most 1.
    if not mpmath.mpf(2) ** (20 - precision_bits) <= mpmath.mpf(tolerance) < 1:
        raise ValueError(f"tolerance {tolerance} must lie in [2^{20 - precision_bits}, 1)")
    c = code_columns(code, precision_bits)
    members = group_closure(group.generators, precision_bits) if full_group else group.generators
    labels = [f"element{i}" for i in range(len(members))] if full_group else group.labels
    residuals = {
        label: covariance_residual(c, code.two_J, u, precision_bits)[0]
        for label, u in zip(labels, members)
    }
    worst = max(residuals.values())
    passed = bool(worst <= mpmath.mpf(tolerance))
    return CovarianceReport(group.name, tolerance, precision_bits, residuals, worst, passed)


def logical_action(
    code: CodeBasis, u, precision_bits: int = 200, tolerance: float = 1e-10
) -> mpmath.matrix:
    """The k x k matrix <c_i| D(u) |c_j> induced on the codespace.

    Only meaningful when u preserves the codespace; the residual is
    re-checked and a violation is rejected.
    """
    c = code_columns(code, precision_bits)
    residual, action = covariance_residual(c, code.two_J, u, precision_bits)
    if residual > mpmath.mpf(tolerance):
        raise ValueError(
            f"element does not preserve the codespace (residual {mpmath.nstr(residual, 6)})"
        )
    scale = fixed_point_bits(code.two_J, precision_bits)
    with workprec(precision_bits):
        return mpmath.matrix([[mpc(a, b) / (1 << scale) for a, b in row] for row in action])
