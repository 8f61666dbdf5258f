"""Self-test of the benchmark itself; exits nonzero on the first failure.

    python3 perfbench/selftest.py

Checks that one seed always yields byte-identical input files, that the
output checker flags planted faults (an entry outside its block, a wrong
summand dimension, a wrong exported presentation, a summand multiset that
differs from the reference), and that the smoke mode over data/* passes
within seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run  # puts perfbench/ on sys.path and provides the checked Input

check = run.check
gen = run.gen


def expect_flag(inp: "run.Input", out: str, words: str) -> None:
    try:
        inp.check(out)
    except check.CheckError as exc:
        if words not in str(exc):
            raise AssertionError(f"flagged for the wrong reason: {exc}") from None
        return
    raise AssertionError(f"planted fault not flagged ({words})")


def same_seed_same_bytes() -> None:
    for workload in gen.FAMILIES:
        a = gen.generate(workload, 7)
        b = gen.generate(workload, 7)
        if a != b:
            raise AssertionError(f"{workload}: seed 7 gave different files")
        if a == gen.generate(workload, 8):
            raise AssertionError(f"{workload}: seeds 7 and 8 gave the same files")
        work = run.WORK / f"selftest-{workload}"
        try:
            first = [p.read_bytes() for p in gen.write_inputs(workload, 7, work / "a")]
            second = [p.read_bytes() for p in gen.write_inputs(workload, 7, work / "b")]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if first != second or first != [t.encode() for _, t in a]:
            raise AssertionError(f"{workload}: written files are not byte-identical")
    print("ok: the same seed gives byte-identical inputs")


def planted_faults(cli) -> None:
    tri = run.Input(run.ROOT / "data" / "triangle.mpfilt", ["decompose", "--dim", "0"])
    _, code, out = run.cli_call(cli.main, tri.argv)
    if code != 0:
        raise AssertionError(f"decompose of the triangle exited {code}")
    tri.check(out)

    payload = json.loads(out)
    blocks = [b for b in payload["blocks"] if b["rows"]]
    # a 1 in one block's column on a row of another block
    off = json.loads(out)
    col = blocks[0]["cols"][0]
    off["matrix"]["columns"][col] = sorted(off["matrix"]["columns"][col] + [blocks[1]["rows"][0]])
    expect_flag(tri, json.dumps(off), "outside its block")

    # clearing a relation inside its own block keeps the block structure but
    # raises that summand's dimension above the homology
    wrong = json.loads(out)
    col = next(j for b in blocks for j in b["cols"] if wrong["matrix"]["columns"][j])
    wrong["matrix"]["columns"][col] = []
    expect_flag(tri, json.dumps(wrong), "summand dimensions sum to")

    # moving a relation to a later grade changes one summand's dimension too
    late = json.loads(out)
    late["matrix"]["col_grades"][col] = [g + 1 for g in late["matrix"]["col_grades"][col]]
    expect_flag(tri, json.dumps(late), "summand dimensions sum to")

    # a reference mismatch fails the call but the run goes on
    outputs = run.Outputs()
    outputs.add(0, 0, out)
    outputs.add(0, 0, out)
    failed, first = outputs.verdicts([tri], {tri.sha: "0" * 16})
    if failed != 2 or "reference" not in first:
        raise AssertionError(f"reference mismatch not counted: {failed}, {first!r}")
    failed, _ = outputs.verdicts([tri], {})
    if failed:
        raise AssertionError("an input missing from the reference must still pass")

    exp = run.Input(run.ROOT / "data" / "suspension.mpfilt", ["export-pres", "--dim", "1"])
    _, code, text = run.cli_call(cli.main, exp.argv)
    if code != 0:
        raise AssertionError(f"export-pres of the suspension exited {code}")
    exp.check(text)
    lines = text.splitlines()
    n_cols = next(i for i, ln in enumerate(lines) if ln.startswith("cols "))
    dropped = lines[:n_cols] + [f"cols {int(lines[n_cols].split()[1]) - 1}"] + lines[n_cols + 2 :]
    expect_flag(exp, "\n".join(dropped) + "\n", "does not present")
    print("ok: the checker flags an off-block entry, wrong summand dimensions and a wrong export")


def smoke_is_quick() -> None:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise AssertionError(f"smoke mode failed:\n{proc.stdout}{proc.stderr}")
    if elapsed > 30:
        raise AssertionError(f"smoke mode took {elapsed:.1f} s")
    print(f"ok: smoke mode over data/* passed in {elapsed:.1f} s")


def main() -> int:
    cli = run.load_program()
    same_seed_same_bytes()
    planted_faults(cli)
    smoke_is_quick()
    return 0


if __name__ == "__main__":
    sys.exit(main())
