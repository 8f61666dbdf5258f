"""The benchmark's smoke pass as a test.

``perfbench/run.py --smoke`` runs every ``data/*`` input through
``decompose``, plain and traced, and checks each output with the
benchmark's own checker, which shares no code with the program: block
partition, homogeneity, and summand dimensions adding up to homology it
computes itself.  It also fails when an entry point that the benchmark's
tracer wraps by name is renamed.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 failed," in proc.stdout
