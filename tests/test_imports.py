"""Importing one aecodes module loads only the aecodes modules it uses, and the exact ones no
mpmath: their verdicts need none, and their first decimal binds it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aecodes.exactnum import RadicalSum, radical_sum_to_json
from aecodes.jsonfmt import to_json
from aecodes.klverify import _ZERO_VALUE
from exact_core import q7_gram_texts, verdicts

TESTS = Path(__file__).resolve().parent


def _python(*args: str) -> str:
    """The stdout of a fresh interpreter that runs ``args`` with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    ("name", "loaded", "mpmath"),
    [
        ("__version__", "", False),
        ("klverify", "codes errors exactnum jsonfmt klverify", False),
        ("covariance", "angular codes covariance exactnum jsonfmt", True),
        ("combinatorics", "combinatorics", False),
        ("search", "codes errors exactnum jsonfmt klverify search", False),
        ("codes", "codes exactnum jsonfmt", False),
        ("errors", "errors exactnum jsonfmt", False),
        ("exactnum", "exactnum jsonfmt", False),
    ],
    ids=["version", "klverify", "covariance", "combinatorics", "search", "codes", "errors",
         "exactnum"],
)
def test_import_loads_only_what_it_uses(name, loaded, mpmath):
    script = (
        f"import sys; from aecodes import {name}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'aecodes')); "
        "print('mpmath' in sys.modules)"
    )
    modules, has_mpmath = _python("-c", script).splitlines()
    assert modules.split() == ["aecodes"] + [f"aecodes.{m}" for m in loaded.split()]
    assert has_mpmath == str(mpmath)


def test_verdicts_need_no_mpmath():
    """With ``import mpmath`` made to fail, the exact core decides as it does in process."""
    assert json.loads(_python(str(TESTS / "exact_core.py"))) == json.loads(json.dumps(verdicts()))


def test_first_decimal_binds_mpmath():
    """A fresh interpreter's first Gram decimal imports mpmath and renders the q7 Gram texts and
    the zero Gram text as they are rendered here, after ``import mpmath``."""
    script = (
        f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); import exact_core; "
        "from aecodes.klverify import _ZERO_VALUE; assert 'mpmath' not in sys.modules; "
        "texts = exact_core.q7_gram_texts(); assert 'mpmath' in sys.modules; "
        "print(json.dumps([texts, _ZERO_VALUE]))"
    )
    texts, zero = json.loads(_python("-c", script))
    assert texts == q7_gram_texts()
    assert any(zero in text for text in texts)  # q7 has zero Gram entries
    assert zero == _ZERO_VALUE == to_json(radical_sum_to_json(RadicalSum.zero()), "\n        ")
