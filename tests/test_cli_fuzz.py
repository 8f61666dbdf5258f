"""Seeded byte-level mutations of ``data/*`` never crash the command line.

Each case flips, deletes or inserts a few bytes of one data file, or
repeats or drops one of its lines, and runs one of the three commands on
the result in process.  Every call must end in one of the documented exit
codes: a malformed input is refused with exit 2, never with a traceback.
Exit 4 reports an internal consistency failure; only ``check``, whose job
is to look for one, may end in it.
"""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from mpdecomp.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
CASES = 400
# bytes that keep a mutation close to the grammar, plus ones that break UTF-8
NEAR = b"0123456789 -+:#_\n\t\x00\xff\xc3"
FORMATS = {"decompose": ("json", "text", "csv", "betti")}


def _mutate(rng: random.Random, raw: bytes) -> bytes:
    out = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out))
        kind = rng.randrange(5)
        if kind == 0:
            out[pos] = rng.randrange(256)
        elif kind == 1:
            out[pos] = rng.choice(NEAR)
        elif kind == 2:
            del out[pos]
        elif kind == 3:
            out.insert(pos, rng.choice(NEAR))
        else:
            lines = bytes(out).split(b"\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [lines[k]] * rng.choice((0, 2))
            out = bytearray(b"\n".join(lines) or b"\n")
    return bytes(out)


def _argv(rng: random.Random, path: Path) -> list:
    command = rng.choice(("decompose", "check", "export-pres"))
    argv = [command, str(path)]
    if path.suffix == ".mpfilt":
        argv += rng.choice(([], ["--dim", "0"], ["--dim", "1"]))
    if command != "export-pres" and rng.random() < 0.5:
        argv.append("--perturb")
    if command in FORMATS:
        argv += ["--format", rng.choice(FORMATS[command])]
    return argv


def test_mutated_inputs_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random("cli-fuzz")
    sources = sorted(DATA.iterdir())
    for case in range(CASES):
        src = sources[case % len(sources)]
        data = _mutate(rng, src.read_bytes())
        path = tmp_path / f"case{case:03d}{src.suffix}"
        path.write_bytes(data)
        argv = _argv(rng, path)
        try:
            code = main(argv)
        except Exception as exc:  # the boundary under test: report the input
            pytest.fail(f"{argv[0]} {argv[2:]} on {data!r} raised {exc!r}")
        assert code in ((0, 2, 3, 4) if argv[0] == "check" else (0, 2, 3)), (argv, data)
        capsys.readouterr()
