"""Staggered-support search: exact solving, enumeration, determinism."""

from fractions import Fraction

import pytest

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

    def test_counter_symmetry_filter(self):
        SearchSpec(9, 1, (0, 6), (3, 9), require_counter_symmetric=True)
        with pytest.raises(ValueError):
            SearchSpec(9, 1, (0, 4), (8,), require_counter_symmetric=True)


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

    def test_too_short_system_rejected(self):
        with pytest.raises(ValueError):
            enumerate_and_search(2, 1)

    def test_every_result_cross_validates(self):
        for r in enumerate_and_search(9, 1, max_support_size=2):
            assert cross_validate(r.code, 1)
