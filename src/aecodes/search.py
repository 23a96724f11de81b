"""Discovery of staggered-support codes by exact moment matching.

With both supports pairwise separated by at least 2t+1 the off-diagonal
verification sums vanish term by term, and the remaining diagonal family
reduces to matching the first 2t+1 power moments of the two squared
coefficient distributions.  That system is linear in the squared
coefficients and has integer entries, so it is solved exactly by
fraction-free (Bareiss) elimination on ints: the basic solutions of the
equality system are enumerated and the feasible vertices kept, with a
Fraction built only for a feasible vertex.  The lexicographically smallest
vertex (variable order: support0 ascending, then support1 ascending) is
returned, which makes underdetermined instances deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .codes import CodeBasis, CodeKind, vector_from_entries
from .errors import build_ae_error_set
from .exactnum import SqrtRational
from .klverify import check_kl_correct


class StaggeringFailure(RuntimeError):
    """A staggered solution failed direct KL verification, against the staggering argument."""


@dataclass(frozen=True)
class SearchSpec:
    n: int
    t: int
    support0: tuple[int, ...]
    support1: tuple[int, ...]

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
        if any(y - x <= 2 * self.t for x, y in zip(merged, merged[1:])):
            raise ValueError(f"staggering violated: two indices closer than {2 * self.t + 1}")


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
# Fraction-free elimination over Z
# ---------------------------------------------------------------------------


def _reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss); returns (rows, pivots).

    The returned rows are the nonzero ones, and each pivot column is zero
    except in its own row, where every pivot holds the same nonzero d.
    Every entry stays a minor of the input, so each division is exact.
    """
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0])):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _lex_min_vertex(a: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """Lexicographically smallest vertex of {x : Ax = b, x >= 0}, or None.

    The polytope here is bounded (the normalization rows cap every
    variable), so feasibility is equivalent to the existence of a basic
    feasible solution; systems are tiny, so enumerating column bases is
    exact and fast.  A basis solves d*x_i = rhs_i, so x_i >= 0 is the sign
    test rhs_i*d >= 0, and a Fraction is built only for a feasible vertex.
    """
    nvars = len(a[0])
    reduced, pivots = _reduce([row + [bv] for row, bv in zip(a, b)])
    if nvars in pivots:
        return None  # inconsistent
    rank = len(pivots)
    best: list[Fraction] | None = None
    for cols in combinations(range(nvars), rank):
        sub, sub_pivots = _reduce([[row[c] for c in cols] + [row[nvars]] for row in reduced])
        if sub_pivots != list(range(rank)):
            continue
        d = sub[0][0]
        if any(row[rank] * d < 0 for row in sub):
            continue
        full = [Fraction(0)] * nvars
        for c, row in zip(cols, sub):
            full[c] = Fraction(row[rank], d)
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
    rows = [[1] * k0 + [0] * k1, [0] * k0 + [1] * k1]
    rows += [[j**p for j in s0] + [-(j**p) for j in s1] for p in range(2 * spec.t + 1)]
    rhs = [1, 1] + [0] * (2 * spec.t + 1)
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


def _staggered_pairs(n: int, t: int, max_size: int, counter_symmetric: bool = False):
    """Every staggered support pair, in lexicographic (support0, support1) order.

    A pair is a merged support with spacing >= 2t+1, split into two nonempty
    parts of at most max_size indices each.  Adding 2t*i to the i-th entry
    maps the size-s subsets of range(n + 1 - 2t(s-1)) one to one onto the
    merged supports of size s.  With ``counter_symmetric`` only merged
    supports symmetric about n/2 are split.
    """
    pairs = []
    for size in range(2, 2 * max_size + 1):
        for combo in combinations(range(n + 1 - 2 * t * (size - 1)), size):
            merged = tuple(j + 2 * t * i for i, j in enumerate(combo))
            if counter_symmetric and any(x + y != n for x, y in zip(merged, reversed(merged))):
                continue
            for k in range(max(1, size - max_size), min(size - 1, max_size) + 1):
                for s0 in combinations(merged, k):
                    pairs.append((s0, tuple(j for j in merged if j not in s0)))
    pairs.sort()
    return pairs


def support_pair_count(n: int, t: int, max_size: int) -> int:
    """Number of staggered pairs, which `enumerate_and_search` solves with no limit or filter.

    A merged support of size s splits C(s, k) ways, k in [lo, s - lo] with
    lo = max(1, s - max_size): 2^s less twice the tail sum over k < lo, a sum
    that Pascal's rule carries from s - 1 to s.
    """
    total, tail = 0, 1
    for size in range(2, 2 * max_size + 1):
        merged = comb(max(n + 1 - 2 * t * (size - 1), 0), size)
        if not merged:
            break  # no larger merged support fits either
        lo = size - max_size
        if lo > 1:
            tail = 2 * tail - comb(size - 1, lo - 2) + comb(size, lo - 1)
        total += merged * (2**size - 2 * tail)
    return total


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
    and raises StaggeringFailure.
    """
    if n < 2 * t + 1:
        raise ValueError("need n >= 2t + 1")
    results: list[SearchResult] = []
    eset = build_ae_error_set(n, t)
    for s0, s1 in _staggered_pairs(n, t, max_support_size, require_counter_symmetric):
        if limit is not None and len(results) >= limit:
            break
        spec = SearchSpec(n, t, s0, s1)
        result = solve_staggered(spec)
        if not result.feasible:
            continue
        report = check_kl_correct(result.code, eset)
        if not report.passed:
            raise StaggeringFailure(f"staggered solution fails direct verification: {spec}")
        results.append(result)
    return results
