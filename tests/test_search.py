"""Staggered-support search: exact solving, enumeration, determinism."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecodes import search
from aecodes.errors import build_ae_error_set
from aecodes.klverify import check_kl_correct, cross_validate
from aecodes.search import SearchSpec, enumerate_and_search, solve_staggered


class TestSearchSpec:
    def test_staggering_violation_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(9, 1, (0,), (1,))

    def test_equal_supports_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(9, 1, (0, 6), (0, 6))

    def test_internal_spacing_enforced(self):
        with pytest.raises(ValueError):
            SearchSpec(9, 1, (0, 2), (5, 9))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(9, 1, (0, 6), (3, 10))


class TestSolveStaggered:
    def test_length_nine_witness(self):
        result = solve_staggered(SearchSpec(9, 1, (0, 6), (3, 9)))
        assert result.feasible
        assert result.x == {0: Fraction(1, 4), 6: Fraction(3, 4)}
        assert result.y == {3: Fraction(3, 4), 9: Fraction(1, 4)}

    def test_witness_code_verifies(self):
        result = solve_staggered(SearchSpec(9, 1, (0, 6), (3, 9)))
        assert check_kl_correct(result.code, build_ae_error_set(9, 1)).passed
        assert cross_validate(result.code, 1)

    def test_single_point_supports_infeasible(self):
        result = solve_staggered(SearchSpec(9, 1, (0,), (4,)))
        assert not result.feasible and result.code is None

    def test_moment_residuals_exactly_zero(self):
        spec = SearchSpec(25, 2, (0, 10, 20), (5, 15, 25))
        result = solve_staggered(spec)
        assert result.feasible
        for power in range(5):
            lhs = sum(v * j**power for j, v in result.x.items())
            rhs = sum(v * j**power for j, v in result.y.items())
            assert lhs == rhs
        assert sum(result.x.values()) == 1 and sum(result.y.values()) == 1

    def test_order_two_solution_verifies(self):
        result = solve_staggered(SearchSpec(25, 2, (0, 10, 20), (5, 15, 25)))
        assert check_kl_correct(result.code, build_ae_error_set(25, 2)).passed

    def test_underdetermined_instance_is_deterministic_vertex(self):
        spec = SearchSpec(12, 1, (0, 6, 12), (3, 9))
        first = solve_staggered(spec)
        second = solve_staggered(spec)
        assert first.feasible
        assert first.x == second.x and first.y == second.y
        # vertex property: at least one variable pinned to zero when the
        # system is underdetermined (5 unknowns, 4 independent equations)
        assert 0 in list(first.x.values()) + list(first.y.values())


class TestEnumerate:
    def test_length_nine_finds_witness_first(self):
        results = enumerate_and_search(9, 1, max_support_size=2)
        assert len(results) == 2
        assert results[0].spec.support0 == (0, 6)
        assert results[0].spec.support1 == (3, 9)

    def test_limit_short_circuits(self):
        results = enumerate_and_search(9, 1, max_support_size=2, limit=1)
        assert len(results) == 1

    def test_limit_zero_finds_nothing(self):
        assert enumerate_and_search(9, 1, max_support_size=2, limit=0) == []

    def test_length_three_is_empty(self):
        assert enumerate_and_search(3, 1, max_support_size=2) == []

    def test_restart_stability(self):
        a = enumerate_and_search(9, 1, max_support_size=2)
        b = enumerate_and_search(9, 1, max_support_size=2)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_counter_symmetric_filter_keeps_witness(self):
        results = enumerate_and_search(
            9, 1, max_support_size=2, require_counter_symmetric=True
        )
        assert any(
            r.spec.support0 == (0, 6) and r.spec.support1 == (3, 9) for r in results
        )

    def test_counter_symmetric_pairs_filtered_before_specs(self, monkeypatch):
        # (12, 1, 2) has 210 staggered pairs that can carry a vertex, of which
        # 18 are symmetric about n/2; only those are tested for a vertex, and
        # a SearchSpec is built only for the pairs that have one
        built, solved = [], []

        def spec(*args):
            built.append(SearchSpec(*args))
            return built[-1]

        def vertex(*args, lex_min_vertex=search._lex_min_vertex):
            solved.append(args)
            return lex_min_vertex(*args)

        monkeypatch.setattr(search, "SearchSpec", spec)
        monkeypatch.setattr(search, "_lex_min_vertex", vertex)
        results = enumerate_and_search(12, 1, max_support_size=2, require_counter_symmetric=True)
        assert len(solved) == 18
        assert 0 < len(built) == len(results) < 18
        digest = hashlib.sha256(
            json.dumps([r.to_dict() for r in results], sort_keys=True).encode()
        ).hexdigest()
        assert digest == "05cd8eccc1a26bbf2e00cb8402482053cc5fa5805879ad0ee7ae32ab260d8787"

    @pytest.mark.parametrize(
        "n, t, size, digest",
        [
            (9, 1, 2, "9d64103be23cb6975365aff46f5bfcd187c6f6e06adda4b5789ce8118cbedb55"),
            (15, 1, 3, "0964d359e2987854798627d12ea5aab3ceca1930224163a715a4d7fe2d4a2acb"),
            (8, 0, 3, "bb13fd3ce878ef8ede4368671a8dac84d0f944c2834685573ca98af540c14e5a"),
            (16, 1, 4, "47b5d61656191bea14d410c9c561f9862781d4766f663a75e23c9fe5dc091e6a"),
            (27, 2, 3, "7ea331a10f94c51167763861a042c8f9487e29e8300f76f6f2bed2eae573b15b"),
        ],
    )
    def test_pinned_results(self, n, t, size, digest):
        results = enumerate_and_search(n, t, max_support_size=size)
        payload = json.dumps([r.to_dict() for r in results], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_too_short_system_rejected(self):
        with pytest.raises(ValueError):
            enumerate_and_search(2, 1)

    def test_every_result_cross_validates(self):
        # the oracle for `aecodes search`, which reports this verdict from its KL guard
        for n, t, size, counter_symmetric, found in [
            (9, 1, 2, False, 2),
            (12, 1, 2, True, 6),
            (15, 1, 3, False, 994),
            (27, 2, 3, False, 56),
        ]:
            results = enumerate_and_search(
                n, t, max_support_size=size, require_counter_symmetric=counter_symmetric
            )
            assert len(results) == found
            for r in results:
                assert cross_validate(r.code, t)


# ---------------------------------------------------------------------------
# Oracle: elimination over Q and enumeration of its column bases, which the
# closed-form vertex replaced
# ---------------------------------------------------------------------------


def _rref(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
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


def _solve_square(a, b):
    size = len(a)
    reduced, pivots = _rref([row[:] + [bv] for row, bv in zip(a, b)])
    if len(pivots) != size or any(p >= size for p in pivots):
        return None
    sol = [Fraction(0)] * size
    for row, p in zip(reduced, pivots):
        sol[p] = row[-1]
    return sol


def _oracle_vertex(a, b):
    nvars = len(a[0])
    reduced, pivots = _rref([row[:] + [bv] for row, bv in zip(a, b)])
    if any(p == nvars for p in pivots):
        return None
    rows = [row[:nvars] for row in reduced]
    rhs = [row[nvars] for row in reduced]
    best = None
    for cols in combinations(range(nvars), len(rows)):
        sol = _solve_square([[row[c] for c in cols] for row in rows], rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [Fraction(0)] * nvars
        for c, v in zip(cols, sol):
            full[c] = v
        if best is None or full < best:
            best = full
    return best


def _moment_system(spec):
    s0, s1 = spec.support0, spec.support1
    rows = [[1] * len(s0) + [0] * len(s1), [0] * len(s0) + [1] * len(s1)]
    rows += [[j**p for j in s0] + [-(j**p) for j in s1] for p in range(2 * spec.t + 1)]
    return rows, [1, 1] + [0] * (2 * spec.t + 1)


def _assert_same_vertex(spec):
    vertex = search._lex_min_vertex(spec.support0, spec.support1, spec.t)
    assert vertex == _oracle_vertex(*_moment_system(spec))
    result = solve_staggered(spec)
    assert result.feasible == (vertex is not None)
    if vertex is not None:
        assert list(result.x.values()) + list(result.y.values()) == vertex


@st.composite
def _staggered_specs(draw):
    t = draw(st.integers(0, 3))
    gaps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7))
    points = [draw(st.integers(0, 5))]
    for extra in gaps:
        points.append(points[-1] + 2 * t + 1 + extra)
    side = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    side[0], side[-1] = True, False  # both supports nonempty
    s0 = tuple(j for j, first in zip(points, side) if first)
    s1 = tuple(j for j, first in zip(points, side) if not first)
    return SearchSpec(points[-1] + draw(st.integers(0, 5)), t, s0, s1)


class TestIntegerElimination:
    @pytest.mark.parametrize("n, t, size", [(9, 1, 2), (13, 1, 3), (27, 2, 3), (6, 0, 3)])
    def test_vertex_matches_rational_oracle_on_enumeration(self, n, t, size):
        for s0, s1 in search._staggered_pairs(n, t, size):
            _assert_same_vertex(SearchSpec(n, t, s0, s1))

    @settings(max_examples=300, deadline=None)
    @given(_staggered_specs())
    def test_vertex_matches_rational_oracle_on_random_specs(self, spec):
        _assert_same_vertex(spec)


# ---------------------------------------------------------------------------
# Oracle: the filter over all ordered pairs of spaced supports that the
# direct generation of staggered pairs replaced
# ---------------------------------------------------------------------------


def _brute_force_pairs(n, t, size):
    """(all staggered pairs, the counter-symmetric ones), by filtering every ordered pair."""
    supports = [
        c
        for k in range(1, size + 1)
        for c in combinations(range(n + 1), k)
        if all(y - x > 2 * t for x, y in zip(c, c[1:]))
    ]
    supports.sort()
    pairs = []
    for s0 in supports:
        for s1 in supports:
            merged = sorted(s0 + s1)
            if all(y - x > 2 * t for x, y in zip(merged, merged[1:])):
                pairs.append((s0, s1))
    symmetric = [p for p in pairs if {n - j for j in p[0] + p[1]} == set(p[0] + p[1])]
    return pairs, symmetric


def test_staggered_pairs_match_brute_force_filter():
    # every n <= 20, t <= 2 and max_size <= 3, except the size-3 cases whose
    # brute force takes seconds (t = 0 above n = 12, t = 1 above n = 16);
    # only merged supports of 2t+2 or more indices can carry a vertex
    for t, size in product(range(3), range(1, 4)):
        top = (12, 16, 20)[t] if size == 3 else 20
        for n in range(2 * t + 1, top + 1):
            pairs, symmetric = (
                [p for p in found if len(p[0] + p[1]) >= 2 * t + 2]
                for found in _brute_force_pairs(n, t, size)
            )
            assert search._staggered_pairs(n, t, size) == pairs
            assert search._staggered_pairs(n, t, size, counter_symmetric=True) == symmetric
            assert search.support_pair_count(n, t, size) == len(pairs)


def test_support_pair_count_matches_direct_sum():
    # the sum over merged supports of size s of the C(s, k) splits, term by term
    for n in range(1, 70):
        for t in range(4):
            for size in range(1, 14):
                direct = sum(
                    comb(max(n + 1 - 2 * t * (s - 1), 0), s)
                    * sum(comb(s, k) for k in range(max(1, s - size), min(s - 1, size) + 1))
                    for s in range(2 * t + 2, 2 * size + 1)
                )
                assert search.support_pair_count(n, t, size) == direct


def test_pairs_below_2t_plus_2_indices_are_infeasible():
    # the pairs that `_staggered_pairs` leaves out carry no vertex: on 2t+1 or
    # fewer indices the Vandermonde moment rows have full column rank
    small = [
        SearchSpec(n, t, s0, s1)
        for t in range(3)
        for n in range(2 * t + 1, 13)
        for s0, s1 in _brute_force_pairs(n, t, 3)[0]
        if len(s0 + s1) <= 2 * t + 1
    ]
    assert len(small) == 2030
    for spec in small:
        assert _oracle_vertex(*_moment_system(spec)) is None
