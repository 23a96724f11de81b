"""Code data model, explicit constructions, relabeling maps, and fixtures.

A code basis stores, for each basis vector, a dense length-(n+1) tuple of
exact coefficients indexed by j = 0..n.  The index convention is shared by
all three kinds:

* AE:   index j holds the coefficient of |n/2, j - n/2>,
* PI:   index j holds the coefficient of the Dicke state of weight j,
* SPIN: index j holds the coefficient of |J, j - J> with 2J = n.

With this convention the map carrying permutation-invariant codes to AE
codes is the identity on storage, and the Dicke bootstrap carrying spin
codes to permutation-invariant codes is the reversal of the vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, prod

from .exactnum import SqrtRational, sqrt_ratio, sqrt_rational_from_json, sqrt_rational_to_json
from .jsonfmt import field, int_field, to_json, write_json


class CodeKind(str, enum.Enum):
    AE = "AE"
    PI = "PI"
    SPIN = "SPIN"


Vector = tuple[SqrtRational, ...]
# ``CodeBasis.save`` writes the sorted, indented JSON of the code a coefficient at a time;
# a zero coefficient's text is this.
_ZERO_JSON = to_json(sqrt_rational_to_json(SqrtRational.zero()), "\n      ")


@dataclass(frozen=True)
class CodeBasis:
    """A k-dimensional code over a (two_J+1)-dimensional space.

    Instances are immutable and freely shareable.  Orthonormality is a
    property of properly constructed codes, not an instantiation rule:
    verification routines accept arbitrary bases so that deliberately broken
    codes can be used as negative controls.
    """

    kind: CodeKind
    two_J: int
    basis: tuple[Vector, ...]
    label: str = ""

    def __post_init__(self):
        if self.two_J <= 0:
            raise ValueError("two_J must be positive")
        if not self.basis:
            raise ValueError("a code needs at least one basis vector")
        for vec in self.basis:
            if len(vec) != self.two_J + 1:
                raise ValueError(
                    f"basis vectors must have length {self.two_J + 1}, got {len(vec)}"
                )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def support(self, i: int) -> tuple[int, ...]:
        return tuple([j for j, c in enumerate(self.basis[i]) if c.num])

    def with_kind(self, kind: CodeKind, label: str | None = None) -> "CodeBasis":
        return CodeBasis(kind, self.two_J, self.basis, self.label if label is None else label)

    # -- file format ---------------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "CodeBasis":
        if not isinstance(d, dict):
            raise ValueError("a code file must hold a JSON object")
        basis = field(d, "basis")
        if not isinstance(basis, list) or not all(isinstance(v, list) for v in basis):
            raise ValueError("basis must be a list of coefficient lists")
        if not all(isinstance(c, dict) for vec in basis for c in vec):
            raise ValueError("each basis coefficient must be a JSON object")
        if not isinstance(label := d.get("label", ""), str):
            raise ValueError(f"label must be a string, got {label!r}")
        try:
            return CodeBasis(
                kind=CodeKind(field(d, "kind")),
                two_J=int_field(d, "two_J"),
                basis=tuple(tuple(sqrt_rational_from_json(c) for c in vec) for vec in basis),
                label=label,
            )
        except TypeError as exc:
            raise ValueError(f"malformed code file: {exc}") from exc

    def save(self, path) -> bytes:
        """Write the code file and return its bytes, for a manifest to hash."""
        rows = ("[\n      " + ",\n      ".join(map(_coefficient_json, v)) + "\n    ]"
                for v in self.basis)
        parts = []
        write_json({"basis": rows, "kind": self.kind.value, "label": self.label,
                    "two_J": self.two_J}, parts.append)
        with open(path, "wb") as fh:
            fh.write(data := "".join(parts + ["\n"]).encode("utf-8"))
        return data


def _coefficient_json(c: SqrtRational) -> str:
    return to_json(sqrt_rational_to_json(c), "\n      ") if c.num else _ZERO_JSON


def vector_from_entries(n: int, entries: dict[int, SqrtRational]) -> Vector:
    vec = [SqrtRational.zero()] * (n + 1)
    for j, c in entries.items():
        vec[j] = c
    return tuple(vec)


# ---------------------------------------------------------------------------
# The two-pulse-train construction parameterized by (g, m, delta, epsilon)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GmdeParams:
    """Parameters of the explicit code family; n = 2*g*m + delta + 1."""

    g: int
    m: int
    delta: int
    epsilon: int

    def __post_init__(self):
        if min(self.g, self.m, self.delta) < 0:
            raise ValueError("g, m, delta must be nonnegative")
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if self.n <= 0:
            raise ValueError("n = 2gm + delta + 1 must be positive")

    @property
    def n(self) -> int:
        return 2 * self.g * self.m + self.delta + 1


def _gmde_amplitudes(p: GmdeParams) -> list[tuple[int, int]]:
    """Squared amplitudes (gamma*b_l)^2 for l = 0..m, each as ints (num, den).

    gamma^2 = C(n/2g, m)(n - 2gm)/(g(m+1)) and b_l^2 = C(m, l)/C(n/g - l, m+1)
    reduce to C(m, l) prod_{i=0..m}(n - 2gi) / (2^m prod_{i=0..m}(n - g(l+i))).
    Every factor is at least n - 2gm = delta + 1 >= 1, so each is positive.
    """
    g, m, n = p.g, p.m, p.n
    if g == 0:
        raise ValueError("g must be positive (the construction divides by g)")
    top = prod(n - 2 * g * i for i in range(m + 1))
    return [(comb(m, l) * top, prod(n - g * (l + i) for i in range(m + 1)) << m)
            for l in range(m + 1)]


def _construct_gmde(p: GmdeParams, kind: CodeKind) -> CodeBasis:
    n = p.n
    amp = [SqrtRational._make(*sqrt_ratio(*a2)) for a2 in _gmde_amplitudes(p)]
    c0: dict[int, SqrtRational] = {}
    c1: dict[int, SqrtRational] = {}
    for l in range(p.m + 1):
        if l % 2 == 0:
            c0[p.g * l] = amp[l]
            c1[n - p.g * l] = amp[l] if p.epsilon > 0 else -amp[l]
        else:
            c0[n - p.g * l] = amp[l]
            c1[p.g * l] = amp[l]
    label = f"Q(g={p.g},m={p.m},delta={p.delta},eps={p.epsilon:+d})"
    return CodeBasis(
        kind=kind,
        two_J=n,
        basis=(vector_from_entries(n, c0), vector_from_entries(n, c1)),
        label=label,
    )


def construct_ae_gmde(p: GmdeParams) -> CodeBasis:
    """AE code with pulses gamma*b_l at indices g*l and n - g*l."""
    return _construct_gmde(p, CodeKind.AE)


def construct_pi_gmde(p: GmdeParams) -> CodeBasis:
    """Permutation-invariant code with the same amplitudes on Dicke weights."""
    return _construct_gmde(p, CodeKind.PI)


# ---------------------------------------------------------------------------
# Relabeling maps between the three kinds
# ---------------------------------------------------------------------------


def map_e(c: CodeBasis) -> CodeBasis:
    """Dicke weight j -> |n/2, j - n/2>; identity on the stored coefficients."""
    if c.kind is not CodeKind.PI:
        raise ValueError(f"map e expects a PI code, got {c.kind.value}")
    return c.with_kind(CodeKind.AE)


def map_h(c: CodeBasis) -> CodeBasis:
    """Dicke bootstrap |J,m> -> Dicke weight J - m; reverses each vector."""
    if c.kind is not CodeKind.SPIN:
        raise ValueError(f"map h expects a SPIN code, got {c.kind.value}")
    flipped = tuple(tuple(reversed(vec)) for vec in c.basis)
    return CodeBasis(CodeKind.PI, c.two_J, flipped, c.label)


def map_f(c: CodeBasis) -> CodeBasis:
    """Composition e after h: |J,m> -> |J,-m| on coefficients."""
    if c.kind is not CodeKind.SPIN:
        raise ValueError(f"map f expects a SPIN code, got {c.kind.value}")
    return map_e(map_h(c))


# ---------------------------------------------------------------------------
# Worked example codes used as fixtures
# ---------------------------------------------------------------------------


def _sq(num: int, den: int) -> SqrtRational:
    return SqrtRational._make(*sqrt_ratio(num, den))


def fixtures() -> dict[str, CodeBasis]:
    """The four example codes used throughout verification.

    Note on J21half: the top-index amplitude of the second vector is
    sqrt(5/68), not a repeat of sqrt(35/102) -- unit norm forces it
    (35/102 + 7/12 + 35/102 > 1), and it is the value the construction
    produces; equality with construct_ae_gmde(4,2,4,-1) is asserted in
    tests.
    """
    j7 = CodeBasis(
        CodeKind.AE,
        7,
        (
            vector_from_entries(7, {0: _sq(3, 10), 5: _sq(7, 10)}),
            vector_from_entries(7, {2: _sq(7, 10), 7: -_sq(3, 10)}),
        ),
        label="J7half",
    )
    j21 = CodeBasis(
        CodeKind.AE,
        21,
        (
            vector_from_entries(21, {0: _sq(5, 68), 8: _sq(7, 12), 17: _sq(35, 102)}),
            vector_from_entries(
                21, {4: _sq(35, 102), 13: -_sq(7, 12), 21: -_sq(5, 68)}
            ),
        ),
        label="J21half",
    )
    j27 = CodeBasis(
        CodeKind.AE,
        27,
        (
            vector_from_entries(27, {0: _sq(1, 16), 12: _sq(12, 16), 24: _sq(3, 16)}),
            vector_from_entries(27, {3: _sq(3, 16), 15: _sq(12, 16), 27: _sq(1, 16)}),
            vector_from_entries(27, {6: _sq(6, 16), 18: _sq(10, 16)}),
            vector_from_entries(27, {9: _sq(10, 16), 21: _sq(6, 16)}),
        ),
        label="J27half",
    )
    j11 = CodeBasis(
        CodeKind.AE,
        11,
        (
            vector_from_entries(11, {0: _sq(5, 16), 8: _sq(11, 16)}),
            vector_from_entries(11, {3: _sq(11, 16), 11: _sq(5, 16)}),
        ),
        label="J11half",
    )
    return {"J7half": j7, "J21half": j21, "J27half": j27, "J11half": j11}
