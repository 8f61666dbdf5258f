"""The package has no runtime dependency: numpy stays unloaded.

A fresh interpreter imports ``mpdecomp`` and ``mpdecomp.cli``, runs every
subcommand on ``data/*`` through ``cli.main``, and reports whether numpy
was loaded on the way.  It matters for cold start: importing numpy alone
takes longer than a whole small ``decompose`` run.  The brute-force oracle
is loaded only by ``check``, the one command that uses it.
"""
from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import mpdecomp

DATA = Path(__file__).resolve().parent.parent / "data"

RUNS = [
    ["decompose", "triangle.mpfilt", "--format", "json"],
    ["decompose", "suspension.mpfilt", "--dim", "1", "--format", "csv"],
    ["decompose", "k23.mpfilt", "--dim", "1", "--format", "text"],
    ["blockcode", "triangle.mpfilt", "--format", "csv"],
    ["blockcode", "suspension.mpfilt", "--dim", "1", "--format", "json"],
    ["betti", "suspension.mpfilt", "--dim", "1"],
    ["diagonalize", "triangle.mppres"],
    ["export-pres", "suspension.mpfilt", "--dim", "1"],
    ["check", "k23.mpfilt", "--dim", "1"],  # last: it loads the oracle
]

SCRIPT = """
import contextlib, io, json, sys
import mpdecomp, mpdecomp.cli
codes = []
oracle = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(mpdecomp.cli.main(argv))
    oracle.append("mpdecomp.oracle" in sys.modules)
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "oracle": oracle}))
"""


@functools.lru_cache(maxsize=None)
def run_all():
    """Every run in one fresh interpreter, once per test session."""
    runs = [[argv[0], str(DATA / argv[1])] + argv[2:] for argv in RUNS]
    env = dict(os.environ)
    package_root = str(Path(mpdecomp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(RUNS)
    return report


def test_cli_runs_without_loading_numpy():
    assert run_all()["numpy"] is False


def test_only_check_loads_the_oracle():
    assert RUNS[-1][0] == "check"
    assert run_all()["oracle"] == [False] * (len(RUNS) - 1) + [True]
