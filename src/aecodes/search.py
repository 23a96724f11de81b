"""Discovery of staggered-support codes by exact moment matching.

With both supports pairwise separated by at least 2t+1 the off-diagonal
verification sums vanish term by term, and the remaining diagonal family
reduces to matching the first 2t+1 power moments of the two squared
coefficient distributions.  That system is linear in the squared
coefficients, so it is solved exactly over Q with nonnegativity by
enumerating basic solutions of the equality system and keeping feasible
vertices; the lexicographically smallest vertex (variable order: support0
ascending, then support1 ascending) is returned, which makes underdetermined
instances deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .codes import CodeBasis, CodeKind, vector_from_entries
from .errors import build_ae_error_set
from .exactnum import SqrtRational
from .klverify import check_kl_correct


@dataclass(frozen=True)
class SearchSpec:
    n: int
    t: int
    support0: tuple[int, ...]
    support1: tuple[int, ...]
    require_counter_symmetric: bool = False

    def __post_init__(self):
        if self.n <= 0 or self.t < 0:
            raise ValueError("need n > 0 and t >= 0")
        for supp in (self.support0, self.support1):
            if not supp:
                raise ValueError("supports must be nonempty")
            if list(supp) != sorted(set(supp)):
                raise ValueError("supports must be strictly increasing")
            if supp[0] < 0 or supp[-1] > self.n:
                raise ValueError("supports must lie in [0, n]")
        merged = sorted(self.support0 + self.support1)
        for x, y in zip(merged, merged[1:]):
            if y - x < 2 * self.t + 1:
                raise ValueError(
                    f"staggering violated: indices {x} and {y} closer than {2 * self.t + 1}"
                )
        if self.require_counter_symmetric:
            occupied = set(merged)
            if {self.n - j for j in occupied} != occupied:
                raise ValueError("occupied indices are not symmetric about n/2")


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    feasible: bool
    x: dict[int, Fraction]
    y: dict[int, Fraction]
    code: CodeBasis | None

    def to_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "t": self.spec.t,
            "support0": list(self.spec.support0),
            "support1": list(self.spec.support1),
            "feasible": self.feasible,
            "x": {str(j): str(v) for j, v in sorted(self.x.items())},
            "y": {str(j): str(v) for j, v in sorted(self.y.items())},
        }


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                factor = rows[k][col]
                rows[k] = [v - factor * p for v, p in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _solve_square(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system exactly; None when singular."""
    size = len(a)
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    reduced, pivots = _rref(aug)
    if len(pivots) != size or any(p >= size for p in pivots):
        return None
    sol = [Fraction(0)] * size
    for row, p in zip(reduced, pivots):
        sol[p] = row[-1]
    return sol


def _lex_min_vertex(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Lexicographically smallest vertex of {x : Ax = b, x >= 0}, or None.

    The polytope here is bounded (the normalization rows cap every
    variable), so feasibility is equivalent to the existence of a basic
    feasible solution; systems are tiny, so enumerating column bases is
    exact and fast.
    """
    nvars = len(a[0])
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    reduced, pivots = _rref(aug)
    if any(p == nvars for p in pivots):
        return None  # inconsistent
    rows = [row[:nvars] for row in reduced]
    rhs = [row[nvars] for row in reduced]
    rank = len(rows)
    best: list[Fraction] | None = None
    for cols in combinations(range(nvars), rank):
        sub = [[row[c] for c in cols] for row in rows]
        sol = _solve_square(sub, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [Fraction(0)] * nvars
        for c, v in zip(cols, sol):
            full[c] = v
        if best is None or full < best:
            best = full
    return best


def solve_staggered(spec: SearchSpec) -> SearchResult:
    """Exact solution of the moment system over the given staggered supports.

    Unknowns are the squared coefficients on support0 then support1; the
    equations are the two normalizations and the matched power moments of
    order 0..2t.
    """
    s0, s1 = spec.support0, spec.support1
    k0, k1 = len(s0), len(s1)
    nvars = k0 + k1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    rows.append([Fraction(1)] * k0 + [Fraction(0)] * k1)
    rhs.append(Fraction(1))
    rows.append([Fraction(0)] * k0 + [Fraction(1)] * k1)
    rhs.append(Fraction(1))
    for power in range(2 * spec.t + 1):
        rows.append(
            [Fraction(j**power) for j in s0] + [Fraction(-(j**power)) for j in s1]
        )
        rhs.append(Fraction(0))
    vertex = _lex_min_vertex(rows, rhs)
    if vertex is None:
        return SearchResult(spec, False, {}, {}, None)
    x = {j: vertex[i] for i, j in enumerate(s0)}
    y = {j: vertex[k0 + i] for i, j in enumerate(s1)}
    entries0 = {j: SqrtRational.sqrt(v) for j, v in x.items() if v}
    entries1 = {j: SqrtRational.sqrt(v) for j, v in y.items() if v}
    code = CodeBasis(
        CodeKind.AE,
        spec.n,
        (
            vector_from_entries(spec.n, entries0),
            vector_from_entries(spec.n, entries1),
        ),
        label=f"staggered(n={spec.n},t={spec.t},s0={list(s0)},s1={list(s1)})",
    )
    return SearchResult(spec, True, x, y, code)


def _admissible_supports(n: int, t: int, max_size: int):
    """All strictly increasing supports with internal spacing >= 2t+1."""
    out = []
    gap = 2 * t + 1
    for size in range(1, max_size + 1):
        for combo in combinations(range(n + 1), size):
            if all(y - x >= gap for x, y in zip(combo, combo[1:])):
                out.append(combo)
    out.sort()
    return out


def enumerate_and_search(
    n: int,
    t: int,
    max_support_size: int = 2,
    limit: int | None = None,
    require_counter_symmetric: bool = False,
) -> list[SearchResult]:
    """Solve every admissible staggered support pair, in lexicographic order.

    Every feasible result is re-verified against the full error set at order
    t before being returned; a failure would falsify the staggering argument
    and raises.
    """
    if n < 2 * t + 1:
        raise ValueError("need n >= 2t + 1")
    supports = _admissible_supports(n, t, max_support_size)
    results: list[SearchResult] = []
    eset = build_ae_error_set(n, t)
    for s0 in supports:
        for s1 in supports:
            if limit is not None and len(results) >= limit:
                return results
            try:
                spec = SearchSpec(n, t, s0, s1, require_counter_symmetric)
            except ValueError:
                continue  # pair violates staggering or symmetry
            result = solve_staggered(spec)
            if not result.feasible:
                continue
            report = check_kl_correct(result.code, eset)
            if not report.passed:
                raise AssertionError(
                    f"staggered solution fails direct verification: {spec}"
                )
            results.append(result)
    return results
