from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpdecomp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  A refactor must leave what the demos print
# unchanged; a change that means to alter it updates the digest with it.
STDOUT_SHA256 = {
    "01_total_diagonalization.py": "541722f6462feb6d701229971d5d3390d0727f79175820c85ca5811f86b07605",
    "02_betti_and_blockcodes.py": "3b7b408bfaaca169048d29ebc2b0cf9df3b0a55494b9d4e4fc7d6806b13b7207",
    "03_three_parameters.py": "ec1fc0426629b613fd1e17094429e9e3c39a5f7792ceaedcc93767e5b61d09f9",
    "04_brute_force_check.py": "7fe33fc8a1030e08832e4239be7067fa4e0d93cecc26f1abc6c2f097562185fb",
}


def test_demos_are_found():
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the demos import the same mpdecomp these tests import
    env = dict(os.environ)
    package_root = str(Path(mpdecomp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
