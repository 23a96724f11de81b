"""Importing one aecodes module loads only the aecodes modules it uses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    ("name", "loaded"),
    [
        ("__version__", ""),
        ("klverify", "codes errors exactnum jsonfmt klverify"),
        ("covariance", "angular codes covariance exactnum jsonfmt"),
        ("combinatorics", "combinatorics"),
    ],
    ids=["version", "klverify", "covariance", "combinatorics"],
)
def test_import_loads_only_what_it_uses(name, loaded):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    script = (
        f"import sys; from aecodes import {name}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'aecodes'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["aecodes"] + [f"aecodes.{m}" for m in loaded.split()]
