"""Discovery of staggered-support codes by exact moment matching.

With both supports pairwise separated by at least 2t+1 the off-diagonal
verification sums vanish term by term, and the remaining diagonal family
reduces to matching the first 2t+1 power moments of the two squared
coefficient distributions.  That system is linear in the squared
coefficients and its moment rows are a Vandermonde matrix, so its vertices
have a closed form (Karlin & Studden, Tchebycheff Systems, 1966): each sits
on 2t+2 indices whose sides alternate, weighted by the divided-difference
functional.  A pair is feasible exactly when its merged support, read in
ascending order, changes side at least 2t+1 times.  The lexicographically
smallest vertex (variable order: support0 ascending, then support1
ascending) is returned, which makes underdetermined instances deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod

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


def _lex_min_vertex(s0: tuple[int, ...], s1: tuple[int, ...], t: int) -> list | None:
    """Lexicographically smallest vertex of the moment polytope, or None.

    Let z carry the side-0 weights and minus the side-1 weights.  On 2t+1 or
    fewer indices the Vandermonde rows of orders 0..2t have full column rank,
    so z = 0; on 2t+2 their kernel is the divided difference, whose weight
    1/prod |j - i| at j alternates in sign.  So a vertex sits on 2t+2 indices
    whose sides alternate in ascending order, with those weights scaled so
    each side sums to 1: entry j is q / (d_j p), p/q = sum over side 0 of 1/d_j.
    Candidates compare as ints (q, p, [d_j or 0 per index]); only the winner's
    nonzero entries become ``Fraction``s."""
    side = dict.fromkeys(s0, 0) | dict.fromkeys(s1, 1)
    order, best = s0 + s1, None
    for sub in combinations(sorted(side), 2 * t + 2):
        if any(side[a] == side[b] for a, b in zip(sub, sub[1:])):
            continue
        d = {j: prod(abs(j - i) for i in sub if i != j) for j in sub}
        q = prod(d[j] for j in sub if not side[j])
        p = sum(q // d[j] for j in sub if not side[j])
        vertex = (q, p, [d.get(j, 0) for j in order])
        if best is None or _precedes(vertex, best):
            best = vertex
    if best is None:
        return None
    q, p, ds = best
    return [Fraction(q, dj * p) if dj else 0 for dj in ds]


def _precedes(u: tuple, v: tuple) -> bool:
    """Whether vertex u is lexicographically below v, both as ``_lex_min_vertex`` holds them."""
    (qu, pu, du), (qv, pv, dv) = u, v
    # entries qu / (a pu) and qv / (b pv) cross-multiplied, or whether each is nonzero
    pairs = ((qu * b * pv, qv * a * pu) if a and b else (a > 0, b > 0) for a, b in zip(du, dv))
    return next((x < y for x, y in pairs if x != y), False)


def solve_staggered(spec: SearchSpec) -> SearchResult:
    """Exact solution of the moment system over the given staggered supports.

    Unknowns are the squared coefficients on support0 then support1; the
    equations are the two normalizations and the matched power moments of
    order 0..2t.
    """
    return _staggered_result(spec, _lex_min_vertex(spec.support0, spec.support1, spec.t))


def _staggered_result(spec: SearchSpec, vertex: list | None) -> SearchResult:
    """The `solve_staggered` result for spec, given its `_lex_min_vertex`."""
    s0, s1 = spec.support0, spec.support1
    if vertex is None:
        return SearchResult(spec, False, {}, {}, None)
    x = {j: Fraction(v) for j, v in zip(s0, vertex)}
    y = {j: Fraction(v) for j, v in zip(s1, vertex[len(s0) :])}
    entries0 = {j: SqrtRational.sqrt(v) for j, v in x.items() if v}
    entries1 = {j: SqrtRational.sqrt(v) for j, v in y.items() if v}
    code = CodeBasis(
        CodeKind.AE,
        spec.n,
        (vector_from_entries(spec.n, entries0), vector_from_entries(spec.n, entries1)),
        label=f"staggered(n={spec.n},t={spec.t},s0={list(s0)},s1={list(s1)})",
    )
    return SearchResult(spec, True, x, y, code)


def _staggered_pairs(n: int, t: int, max_size: int, counter_symmetric: bool = False):
    """Every staggered support pair, in lexicographic (support0, support1) order.

    A pair is a merged support with spacing >= 2t+1, split into two nonempty
    parts of at most max_size indices each.  Only merged supports of 2t+2 or
    more indices can carry a vertex (see `_lex_min_vertex`), so no smaller
    one is generated.  Adding 2t*i to the i-th entry maps the size-s subsets
    of range(n + 1 - 2t(s-1)) one to one onto the merged supports of size s.
    With ``counter_symmetric`` only merged supports symmetric about n/2 are
    split.
    """
    pairs = []
    for size in range(2 * t + 2, 2 * max_size + 1):
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

    A merged support of size s >= 2t+2 splits C(s, k) ways, k in [lo, s - lo]
    with lo = max(1, s - max_size): 2^s less twice the tail sum over k < lo,
    a sum that Pascal's rule carries from s - 1 to s, starting at s = 2.
    """
    total, tail = 0, 1
    for size in range(2, 2 * max_size + 1):
        merged = comb(max(n + 1 - 2 * t * (size - 1), 0), size)
        if not merged:
            break  # no larger merged support fits either
        lo = size - max_size
        if lo > 1:
            tail = 2 * tail - comb(size - 1, lo - 2) + comb(size, lo - 1)
        if size >= 2 * t + 2:
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
        vertex = _lex_min_vertex(s0, s1, t)
        if vertex is None:
            continue  # most pairs: they get no SearchSpec, whose checks they pass by construction
        result = _staggered_result(SearchSpec(n, t, s0, s1), vertex)
        if not check_kl_correct(result.code, eset).passed:
            raise StaggeringFailure(f"staggered solution fails direct verification: {result.spec}")
        results.append(result)
    return results
