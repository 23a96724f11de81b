"""Importing one aecodes module loads only the aecodes modules it uses, and the exact ones no
mpmath: their verdicts need none, and their first decimal binds it.  Each ``aecodes``
subcommand adds to what ``cli`` loads only the modules it runs."""

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
        ("cli", "cli codes errors exactnum jsonfmt klverify", True),
        ("klverify", "codes errors exactnum jsonfmt klverify", False),
        ("covariance", "angular codes covariance exactnum jsonfmt", True),
        ("combinatorics", "combinatorics", False),
        ("search", "codes errors exactnum jsonfmt klverify search", False),
        ("codes", "codes exactnum jsonfmt", False),
        ("errors", "errors exactnum jsonfmt", False),
        ("exactnum", "exactnum jsonfmt", False),
        ("jsonfmt", "jsonfmt", False),
        ("angular", "angular exactnum jsonfmt", True),
        ("acceptance", "acceptance angular codes combinatorics covariance errors exactnum jsonfmt "
         "klverify search", True),
    ],
    ids=["version", "cli", "klverify", "covariance", "combinatorics", "search", "codes", "errors",
         "exactnum", "jsonfmt", "angular", "acceptance"],
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


# Run in a fresh interpreter with a working directory and then the subcommand line as its
# arguments: it writes the q7 and pi7 code files, runs main on the line, and prints the exit
# status and the aecodes and mpmath modules loaded before the call, then after it.
_MAIN_SCRIPT = """\
import contextlib, io, os, sys
from aecodes import cli
from aecodes.codes import GmdeParams, construct_ae_gmde, construct_pi_gmde
os.chdir(sys.argv[1])
construct_ae_gmde(GmdeParams(2, 1, 2, -1)).save("q7.json")
construct_pi_gmde(GmdeParams(2, 1, 2, -1)).save("pi7.json")
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("aecodes", "mpmath"))
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(line.split()) for line in sys.argv[2:]]
print(*statuses)
print(*before)
print(*loaded())
"""


def _main_loads(tmp_path, *lines: str) -> tuple[list[str], list[str], list[str]]:
    statuses, before, after = _python("-c", _MAIN_SCRIPT, str(tmp_path), *lines).splitlines()
    return statuses.split(), before.split(), after.split()


@pytest.mark.parametrize(
    ("line", "added"),
    [
        ("construct --g 2 --m 1 --delta 2 --epsilon -1 --out c.json", ""),
        ("verify q7.json --t 1", ""),
        ("errors --two-j 7 --t 1", ""),
        ("map pi7.json --via e --out m.json", ""),
        ("cg --j1 1/2 --m1 1/2 --j2 1/2 --m2=-1/2 --J 1 --M 0", "angular"),
        ("covariance q7.json --group 2i", "angular covariance"),
        ("search --n 9 --t 1", "search"),
        ("identities", "combinatorics"),
    ],
    ids=["construct", "verify", "errors", "map", "cg", "covariance", "search", "identities"],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, line, added):
    statuses, _, after = _main_loads(tmp_path, line)
    assert statuses == ["0"]
    modules = "cli codes errors exactnum jsonfmt klverify " + added
    assert [m for m in after if m.startswith("aecodes")] == sorted(
        ["aecodes"] + [f"aecodes.{m}" for m in modules.split()]
    )


def test_spin_scale_calls_load_nothing(tmp_path):
    """The calls the spin-scale benchmark times, an ``errors`` call and a ``verify --mode
    correct`` call, load no aecodes or mpmath module once ``cli`` and ``codes`` are loaded."""
    statuses, before, after = _main_loads(
        tmp_path, "errors --two-j 7 --t 1", "verify q7.json --t 1 --mode correct"
    )
    assert statuses == ["0", "0"]
    assert after == before


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
