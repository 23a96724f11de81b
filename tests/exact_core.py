"""The exact core's verdicts with mpmath unimportable, printed as one JSON line.

Run as ``PYTHONPATH=src python tests/exact_core.py``: it makes ``import mpmath`` fail before
any aecodes module loads, so a verdict that needed floating point, or a module that loaded
mpmath, raises here.  ``tests/test_imports.py`` compares the line with ``verdicts()`` computed
in process, where mpmath is importable, and renders ``q7_gram_texts()`` in a fresh interpreter.
"""

import json
import sys


def verdicts() -> dict:
    """``cross_verdicts`` at t = 1 of the four fixtures, KL correction of the q7 family code at
    t = 1 and the number of codes the (9, 1, 2) search finds."""
    from aecodes.codes import GmdeParams, construct_ae_gmde, fixtures
    from aecodes.errors import build_ae_error_set
    from aecodes.klverify import check_kl_correct, cross_verdicts
    from aecodes.search import enumerate_and_search

    q7 = construct_ae_gmde(GmdeParams(2, 1, 2, -1))
    return {
        "cross_verdicts": {name: list(cross_verdicts(code, 1)) for name, code in fixtures().items()},
        "q7_correct": check_kl_correct(q7, build_ae_error_set(q7.two_J, 1)).passed,
        "search_9_1_2": len(enumerate_and_search(9, 1, 2)),
    }


def q7_gram_texts() -> list[str]:
    """The Gram entry texts of the q7 family code's KL correction report at t = 1."""
    from aecodes.codes import GmdeParams, construct_ae_gmde
    from aecodes.errors import build_ae_error_set
    from aecodes.klverify import check_kl_correct

    q7 = construct_ae_gmde(GmdeParams(2, 1, 2, -1))
    return list(check_kl_correct(q7, build_ae_error_set(q7.two_J, 1)).body()["gram"])


if __name__ == "__main__":
    sys.modules["mpmath"] = None  # every later ``import mpmath`` raises ImportError
    print(json.dumps(verdicts(), sort_keys=True))
