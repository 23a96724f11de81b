"""Acceptance gate: one test per reproduction criterion, exact tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion's verdict.  The heavy family sweep is
computed once and shared by the criteria that consume it, and by the
``reproduce-paper`` tests that follow them.
"""

import contextlib
import hashlib
import io
import json

from aecodes import acceptance, cli

# sha256 of ``aecodes reproduce-paper``'s stdout, as CI pins it
REPRODUCE_SHA256 = "6014c47667f09e91acbd040f75ab536b8f502827f29e5cc853dbbd938c77717f"


def _run(criterion):
    outcome = criterion()
    marker = "PASS" if outcome["pass"] else "FAIL"
    print(f"ACCEPTANCE {outcome['id']:02d} {outcome['name']}: {marker}")
    assert outcome["pass"], outcome
    return outcome


def test_criterion_01_construction_fidelity():
    _run(acceptance.criterion_1)


def test_criterion_02_order_one_correction():
    outcome = _run(acceptance.criterion_2)
    assert outcome["details"]["operators"] == 10


def test_criterion_03_order_two_correction():
    outcome = _run(acceptance.criterion_3)
    assert outcome["details"]["radicands"] == ["35/102", "5/68", "7/12"]


def test_criterion_04_multiqubit_code():
    _run(acceptance.criterion_4)


def test_criterion_05_sufficiency_sweep():
    outcome = _run(acceptance.criterion_5)
    assert outcome["details"]["instances"] > 10000


def test_criterion_06_cross_validation():
    outcome = _run(acceptance.criterion_6)
    assert outcome["details"]["search_codes"] >= 3


def test_criterion_07_mapping_identities():
    _run(acceptance.criterion_7)


def test_criterion_08_identity_oracles():
    _run(acceptance.criterion_8)


def test_criterion_09_clebsch_gordan_consistency():
    outcome = _run(acceptance.criterion_9)
    assert outcome["details"]["pairs_checked"] > 4000


def test_criterion_10_search_witness():
    _run(acceptance.criterion_10)


def test_criterion_11_covariance():
    _run(acceptance.criterion_11)


def test_criterion_12_negative_controls():
    _run(acceptance.criterion_12)


def test_criteria_registered_in_order():
    assert [fn.__name__ for fn in acceptance.CRITERIA] == [f"criterion_{k}" for k in range(1, 13)]


def _reproduce() -> tuple[int, str]:
    """Exit status and stdout of an in-process ``aecodes reproduce-paper``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["reproduce-paper"])
    return status, out.getvalue()


def test_reproduce_paper_pinned():
    """Every criterion's id, name, verdict and details, byte for byte, and exit 0."""
    status, text = _reproduce()
    assert status == 0
    assert hashlib.sha256(text.encode()).hexdigest() == REPRODUCE_SHA256


def test_reproduce_paper_failure_exits_one(monkeypatch):
    failed = {"id": 1, "name": "construction-fidelity-J7half", "pass": False, "details": {}}
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda: failed, *acceptance.CRITERIA[1:]])
    status, text = _reproduce()
    document = json.loads(text)
    assert status == 1
    assert document["report"]["all_pass"] is False
    assert document["manifest"]["verdicts"]["all_pass"] is False
    assert document["report"]["criteria"][0] == failed
