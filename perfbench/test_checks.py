"""Each output check accepts a right answer and rejects a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads
from tracing import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _rows(weights):
    """Vector rows [index, sign, num, den] from {index: squared weight}."""
    return [[j, 1, w.numerator, w.denominator] for j, w in sorted(weights.items())]


# J7half = Q(g=2, m=1, delta=2, eps=-1): equal moments up to order 2.
J7_BASIS = [
    _rows({0: Fraction(3, 10), 5: Fraction(7, 10)}),
    _rows({2: Fraction(7, 10), 7: Fraction(3, 10)}),
]
UNEQUAL_BASIS = [
    _rows({0: Fraction(1, 2), 5: Fraction(1, 2)}),
    _rows({2: Fraction(1, 2), 7: Fraction(1, 2)}),
]
ALL_PASS = {"cond_2t": True, "correct": True, "cond_t": True, "detect": True}
ALL_FAIL = {"cond_2t": False, "correct": False, "cond_t": False, "detect": False}


def test_sweep_accepts_a_family_code_that_passes():
    op = {"kind": "family", "params": (2, 1, 2, -1, 1), "perturb": None}
    assert checks.check_sweep(op, {"two_j": 7, "basis": J7_BASIS, **ALL_PASS}) == []


def test_sweep_rejects_a_pass_on_a_code_whose_moments_differ():
    control = {"kind": "control", "params": (2, 1, 2, -1, 1), "perturb": (0, 0)}
    assert checks.check_sweep(control, {"two_j": 7, "basis": UNEQUAL_BASIS, **ALL_FAIL}) == []
    problems = checks.check_sweep(control, {"two_j": 7, "basis": UNEQUAL_BASIS, **ALL_PASS})
    assert any("KL correction reported passing" in p for p in problems)
    family = {**control, "kind": "family"}
    problems = checks.check_sweep(family, {"two_j": 7, "basis": UNEQUAL_BASIS, **ALL_PASS})
    assert any("unequal moments" in p for p in problems)


def test_sweep_rejects_detection_failing_under_passing_conditions():
    op = {"kind": "family", "params": (2, 1, 2, -1, 1), "perturb": None}
    rec = {"two_j": 7, "basis": J7_BASIS, **ALL_PASS, "detect": False}
    assert any("detection" in p for p in checks.check_sweep(op, rec))


@pytest.fixture(scope="module")
def errors_report():
    from aecodes import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["errors", "--two-j", "9", "--t", "2"]) == 0
    return json.loads(out.getvalue())


def _entry(report, r, delta_j, delta_m, j):
    for op in report["operators"]:
        if (op["r"], op["delta_J"], op["delta_m"]) == (r, delta_j, delta_m):
            return next(e for e in op["entries"] if e["j"] == j)
    raise KeyError((r, delta_j, delta_m))


def test_errors_report_of_the_program_passes(errors_report):
    assert checks.check_errors_report(9, 2, errors_report) == []


def test_a_radicand_off_by_one_breaks_the_unitarity_sum(errors_report):
    bad = copy.deepcopy(errors_report)
    amp = _entry(bad, 2, -1, 1, 4)["amplitude"]
    amp["radicand_num"] = str(int(amp["radicand_num"]) + 1)
    problems = checks.check_errors_report(9, 2, bad)
    assert any("sums of squared amplitudes" in p for p in problems)


def test_a_flipped_sign_breaks_the_rank1_closed_form(errors_report):
    bad = copy.deepcopy(errors_report)
    amp = _entry(bad, 1, 0, 0, 7)["amplitude"]
    amp["sign"] = -amp["sign"]
    problems = checks.check_errors_report(9, 2, bad)
    assert any("closed form" in p for p in problems)
    # Squares are unchanged, so only the closed form can see the sign.
    assert not any("sums of squared" in p for p in problems)


def test_rank1_closed_form_at_spin_one_half():
    # <1/2 1/2; 1 0 | 3/2 1/2> = sqrt(2/3), <1/2 -1/2; 1 0 | 1/2 -1/2> = +-1/sqrt(3)
    assert checks.rank1_closed_form(1, 1, 1) == (1, Fraction(2, 3))
    assert checks.rank1_closed_form(1, 0, 0) == (-1, Fraction(1, 3))


def test_verify_report_must_carry_the_file_digest(tmp_path):
    path = tmp_path / "code.json"
    path.write_text("{}\n", encoding="utf-8")
    digest = checks.file_sha256(path)
    report = {
        "report": {"mode": "correct", "pass": True, "violations": []},
        "manifest": {"inputs": {str(path): digest}, "verdicts": {"pass": True}},
    }
    assert checks.check_verify_report(report, str(path), digest) == []
    report["manifest"]["inputs"][str(path)] = "0" * 64
    assert checks.check_verify_report(report, str(path), digest)


def _witness(x, y):
    return {
        "support0": [0, 6],
        "support1": [3, 9],
        "x": {str(j): str(v) for j, v in x.items()},
        "y": {str(j): str(v) for j, v in y.items()},
        "basis": [_rows(x), _rows(y)],
    }


def test_search_accepts_the_witness():
    op = {"n": 9, "t": 1, "max_size": 2}
    assert checks.check_search(op, [_witness(checks.WITNESS["x"], checks.WITNESS["y"])]) == []
    assert any("witness" in p for p in checks.check_search(op, []))


def test_search_rejects_an_unnormalized_vertex():
    op = {"n": 10, "t": 1, "max_size": 2}
    x = {0: Fraction(1, 2), 6: Fraction(3, 4)}
    problems = checks.check_search(op, [_witness(x, checks.WITNESS["y"])])
    assert any("does not sum to 1" in p for p in problems)


def test_search_rejects_results_that_cannot_exist():
    op = {"n": 9, "t": 2, "max_size": 2}
    problems = checks.check_search(op, [_witness(checks.WITNESS["x"], checks.WITNESS["y"])])
    assert any("spaced by less than 5" in p for p in problems)
    assert any("no staggered solution exists" in p for p in problems)


def test_covariance_rejects_a_random_subspace_reported_covariant():
    random_op = {"code": "random", "two_j": 13, "group": "2i"}
    assert checks.check_covariance(random_op, {"passed": False, "max_residual": "0.83"}) == []
    assert checks.check_covariance(random_op, {"passed": True, "max_residual": "1.0e-70"})
    example = {"code": "J7half", "two_j": 7, "group": "2i"}
    assert checks.check_covariance(example, {"passed": True, "max_residual": "3.1e-61"}) == []
    assert checks.check_covariance(example, {"passed": True, "max_residual": "2.0e-12"})


def test_plans_repeat_for_a_seed_and_keep_their_length_across_seeds():
    for name in workloads.WORKLOADS:
        first = workloads.plan(name, 3, 15)
        assert first == workloads.plan(name, 3, 15)
        assert len(first) == len(workloads.plan(name, 4, 15))


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer_total = tracer.end[0] - tracer.start[0]
    assert totals["outer"][0] + totals["inner"][0] == pytest.approx(outer_total)


def test_reported_metrics_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
