from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import mpdecomp
from mpdecomp import cli, invariants, parse_presentation, sort_by_grade, tot_diagonalize
from mpdecomp.cli import _build_parser, main
from mpdecomp.grades import leq

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

TRIANGLE = str(DATA / "triangle.mpfilt")
SUSPENSION = str(DATA / "suspension.mpfilt")
K23 = str(DATA / "k23.mpfilt")
RAW = str(DATA / "triangle.mppres")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_json_worked_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", TRIANGLE, "--dim", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "H0"
    assert payload["perturbed"] is False
    blocks = [(tuple(b["row_labels"]), tuple(b["col_labels"])) for b in payload["blocks"]]
    assert sorted(blocks) == [(("0", "1"), ("3",)), (("2",), ("4", "5"))]
    assert payload["matrix"]["columns"] == [[0, 1], [2], [2]]
    # each dimension function on its summand's own grid of distinct
    # coordinates, C order
    assert [(b["grid"], b["dim_function"]) for b in payload["blocks"]] == [
        ([[0, 1], [0, 1]], [0, 1, 1, 1]),
        ([[1, 2], [1, 2]], [1, 0, 0, 0]),
    ]
    assert "box" not in payload and "grid" not in payload


@pytest.mark.parametrize(
    "path, dim, case",
    [
        (RAW, None, "RAW"),
        (TRIANGLE, None, "H0"),
        (SUSPENSION, "1", "TWO_PARAM"),
        (K23, "1", "D_PARAM"),
    ],
    ids=["raw", "h0", "two-param", "d-param"],
)
def test_case_names_the_construction(capsys, path, dim, case):
    flags = ["--dim", dim] if dim is not None else []
    code, out, err = run_cli(capsys, "decompose", path, *flags, "--perturb")
    assert code == 0, err
    assert json.loads(out)["case"] == case
    code, out, err = run_cli(capsys, "decompose", path, *flags, "--format", "text")
    assert code == 0, err
    assert out.startswith(f"case {case}, ")


def test_decompose_text_golden(capsys):
    code, out, _ = run_cli(capsys, "decompose", TRIANGLE, "--dim", "0",
                           "--format", "text")
    assert code == 0
    assert out == (
        "case H0, 2 parameters, perturbed: no\n"
        "matrix 3x3, ops applied: 2\n"
        "rows:\n"
        "  [0] 0 (0,1) = 0\n"
        "  [1] 1 (1,0) = 1\n"
        "  [2] 2 (1,1) = 2 + t^(1,0)*0\n"
        "cols:\n"
        "  [0] 3 (1,1) = 3\n"
        "  [1] 4 (1,2) = 4\n"
        "  [2] 5 (2,1) = 5 + t^(1,0)*3\n"
        "entries:\n"
        "  100\n"
        "  100\n"
        "  011\n"
        "blocks:\n"
        "  0: rows=[0,1] cols=[0]\n"
        "  1: rows=[2] cols=[1,2]\n"
    )


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")
    _, second, _ = run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")
    assert first == second
    payload = json.loads(first)
    assert list(payload.keys()) == sorted(payload.keys())


def test_betti_json_torus_analogue(capsys):
    code, out, _ = run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")
    assert code == 0
    payload = json.loads(out)
    betti = [b["betti"] for b in payload["blocks"]]
    assert betti == [
        {"0": [[0, 1], [1, 0]], "1": [[1, 1]], "2": []},
        {"0": [[1, 1]], "1": [[1, 2], [2, 1]], "2": [[2, 2]]},
        {"0": [[2, 2]], "1": [], "2": []},
    ]


@pytest.mark.parametrize(
    "path, dim",
    [(RAW, None)] + [(f, dim) for f in (TRIANGLE, SUSPENSION, K23) for dim in ("0", "1")],
)
def test_betti_tables_are_sorted_grade_lists(capsys, path, dim):
    # a table lists, per degree, that degree's grades sorted with
    # multiplicity; degree 2 is there exactly when d == 2.  decompose JSON
    # and --format betti print the same tables
    args = argparse.Namespace(
        input=Path(path), dim=None if dim is None else int(dim), box=None, perturb=True
    )
    _, diag, _ = cli._pipeline(args)
    d = diag.matrix.d
    tables = mpdecomp.persistent_betti(diag.matrix, diag.blocks)
    assert tables
    for table in tables:
        assert type(table) is list and len(table) == (3 if d == 2 else 2)
        for grades in table:
            assert type(grades) is list and grades == sorted(grades)
            assert all(type(g) is tuple and len(g) == d for g in grades)
    dim_flag = [] if dim is None else ["--dim", dim]
    code, out, _ = run_cli(capsys, "decompose", path, *dim_flag, "--perturb")
    assert code == 0
    from_json = [b["betti"] for b in json.loads(out)["blocks"]]
    assert from_json == [
        {str(deg): [list(g) for g in grades] for deg, grades in enumerate(table)}
        for table in tables
    ]
    code, out, _ = run_cli(capsys, "decompose", path, *dim_flag, "--perturb", "--format", "betti")
    assert code == 0
    from_text: list = []
    for line in out.splitlines():
        if line.startswith("block "):
            from_text.append({})
        else:
            deg, _, grades = line.strip().removeprefix("beta_").partition(":")
            from_text[-1][deg] = [[int(x) for x in g[1:-1].split(",")] for g in grades.split()]
    assert from_text == from_json


def test_blockcode_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", TRIANGLE, "--dim", "0", "--box", "0,0:3,3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,block_id,dim"
    assert len(lines) == 1 + 16 * 2
    # block 0 is the two-generator summand: dim 1 at (1,1)
    assert "1,1,0,1" in lines
    assert "1,1,1,1" in lines  # block 1 alive only at (1,1)
    assert "2,2,1,0" in lines
    assert "0,0,0,0" in lines
    assert "3,3,0,1" in lines  # past the grades, in the top cell
    # grouped by block: block 0's 16 points, then block 1's
    assert lines[1:3] == ["0,0,0,0", "0,1,0,1"] and lines[16:18] == ["3,3,0,1", "0,0,1,0"]
    # without --box, one row per point of each block's own 2x2 grid
    code, out, _ = run_cli(capsys, "decompose", TRIANGLE, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        "0,0,0,0", "0,1,0,1", "1,0,0,1", "1,1,0,1",
        "1,1,1,1", "1,2,1,0", "2,1,1,0", "2,2,1,0",
    ]


def test_check_reports_agreement(capsys):
    code, out, _ = run_cli(capsys, "check", K23, "--dim", "1")
    assert code == 0
    assert "agree" in out


@pytest.mark.parametrize(
    "tamper, message",
    [
        # the blocks still agree with brute force; only the replay differs
        (
            lambda cert: cert.pop(),
            "replaying the certificate does not reproduce the diagonalized matrix",
        ),
        (
            lambda cert: cert.append(mpdecomp.Op("col", 1, 0)),
            "certificate does not replay: column addition 1->0 not allowed: (1,2) vs (1,1)",
        ),
    ],
    ids=["last-op-dropped", "inadmissible-op-added"],
)
def test_check_replays_the_certificate(monkeypatch, capsys, tamper, message):
    code, out, _ = run_cli(capsys, "check", TRIANGLE, "--dim", "0")
    assert (code, out) == (0, "ok: 2 blocks agree with brute force, 2 ops applied\n")
    real = cli.tot_diagonalize

    def tampered(*args, **kwargs):
        diag = real(*args, **kwargs)
        tamper(diag.certificate)
        return diag

    monkeypatch.setattr(cli, "tot_diagonalize", tampered)
    code, out, err = run_cli(capsys, "check", TRIANGLE, "--dim", "0")
    assert (code, out) == (4, "")
    assert err == f"internal error: {message}\n"


def test_diagonalize_raw_presentation(capsys):
    code, out, _ = run_cli(capsys, "decompose", RAW, "--format", "text")
    assert code == 0
    assert "blocks:" in out
    assert "rows=[0,1] cols=[0]" in out
    code, out, _ = run_cli(capsys, "decompose", RAW)
    assert code == 0
    payload = json.loads(out)
    assert "box" not in payload and "grid" not in payload
    assert [(b["grid"], b["dim_function"]) for b in payload["blocks"]] == [
        ([[0, 1], [0, 1]], [0, 1, 1, 1]),
        ([[1, 2], [1, 2]], [1, 0, 0, 0]),
    ]


def test_export_pres_round_trips(tmp_path, capsys):
    out_file = tmp_path / "exported.mppres"
    code, _, _ = run_cli(
        capsys, "export-pres", SUSPENSION, "--dim", "1", "--output", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    code2, out2, _ = run_cli(capsys, "decompose", str(out_file), "--format", "text")
    assert code2 == 0
    assert "rows=[3] cols=[]" in out2
    # emitted file parses back to the identical matrix
    P = parse_presentation(text)
    assert P.n_rows == 4 and P.n_cols == 3


def test_export_pres_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.mppres"
    code, out, err = run_cli(capsys, "export-pres", TRIANGLE, "--output", str(target))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n"
    )


def test_export_pres_golden_two_parameters(capsys):
    code, out, _ = run_cli(capsys, "export-pres", SUSPENSION, "--dim", "1")
    assert code == 0
    assert out == (
        "mppres 1\n"
        "params 2\n"
        "rows 4\n"
        "r 0 1\n"
        "r 1 0\n"
        "r 1 1\n"
        "r 2 2\n"
        "cols 3\n"
        "c 1 1 : 0 1\n"
        "c 1 2 : 0 2\n"
        "c 2 1 : 1 2\n"
    )


def test_export_pres_golden_three_parameters(capsys):
    code, out, _ = run_cli(capsys, "export-pres", K23, "--dim", "1")
    assert code == 0
    assert out == (
        "mppres 1\n"
        "params 3\n"
        "rows 3\n"
        "r 0 1 1\n"
        "r 1 0 1\n"
        "r 1 1 0\n"
        "cols 1\n"
        "c 1 1 1 : 0 1 2\n"
    )


def test_main_twice_in_one_process_keeps_no_flags(tmp_path, capsys):
    out_file = tmp_path / "k23.mppres"
    code, out, _ = run_cli(
        capsys, "export-pres", K23, "--dim", "1", "--output", str(out_file),
    )
    assert code == 0
    assert out == f"wrote {out_file}\n"
    assert out_file.read_text().startswith("mppres 1\nparams 3\n")
    # a leaked --dim or --output would fail or redirect this
    code, out, _ = run_cli(capsys, "decompose", TRIANGLE, "--format", "text")
    assert code == 0
    assert out.startswith("case H0, 2 parameters, perturbed: no\n")
    assert out.endswith("  0: rows=[0,1] cols=[0]\n  1: rows=[2] cols=[1,2]\n")
    code, out, err = run_cli(capsys, "decompose", RAW, "--perturb", "--dim", "1")
    assert code == 2
    assert "filtration" in err
    code, out, _ = run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")
    assert code == 0
    assert json.loads(out)["perturbed"] is False


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.mpfilt"
    bad.write_text("mpfilt 1\nparams 2\ns 0 :\n")
    code, _, err = run_cli(capsys, "decompose", str(bad))
    assert code == 2
    assert "error" in err


def test_exit_code_2_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "decompose", "/nonexistent/x.mpfilt")
    assert code == 2
    assert "cannot read" in err


def test_exit_code_3_on_tied_grades(tmp_path, capsys):
    tied = tmp_path / "tied.mppres"
    tied.write_text(
        "mppres 1\nparams 2\nrows 2\nr 0 0\nr 0 0\ncols 1\nc 1 1 : 0 1\n"
    )
    code, _, err = run_cli(capsys, "decompose", str(tied))
    assert code == 3
    assert "tied" in err
    code2, out, _ = run_cli(capsys, "decompose", str(tied), "--perturb",
                            "--format", "text")
    assert code2 == 0
    assert "perturbed: yes" in out


def test_dim_flag_rejected_for_presentations(capsys):
    code, _, err = run_cli(capsys, "decompose", RAW, "--dim", "1")
    assert code == 2
    assert "filtration" in err


def test_bad_box_flag(capsys):
    code, _, err = run_cli(capsys, "decompose", TRIANGLE, "--box", "1,2")
    assert code == 2
    assert "--box" in err
    code2, _, err2 = run_cli(capsys, "decompose", TRIANGLE, "--box", "0,0,0:1,1,1")
    assert code2 == 2
    assert "coordinates" in err2
    # a malformed flag and a coordinate outside 64 bits get different messages
    code3, _, err3 = run_cli(capsys, "decompose", TRIANGLE, "--box", "0,x:1,1")
    assert code3 == 2
    assert "expected 'lo1,..,lod:hi1,..,hid'" in err3
    code4, _, err4 = run_cli(
        capsys, "decompose", TRIANGLE, "--box", "0,0:9223372036854775808,1"
    )
    assert code4 == 2
    assert "--box" in err4 and "outside 64-bit range" in err4
    assert "expected" not in err4
    code5, out5, err5 = run_cli(capsys, "decompose", TRIANGLE, "--box", "1,1:0,2")
    assert (code5, out5) == (2, "")
    assert err5 == "error: empty box: (1,1) is not <= (0,2)\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_box_with_negative_first_coordinate_as_its_own_argument(capsys, fmt):
    joined = run_cli(capsys, "decompose", TRIANGLE, "--format", fmt, "--box=-1,-1:1,1")
    split = run_cli(capsys, "decompose", TRIANGLE, "--format", fmt, "--box", "-1,-1:1,1")
    assert joined[0] == 0 and split[:2] == joined[:2]
    # without a value --box is still argparse's error
    with pytest.raises(SystemExit) as info:
        main(["decompose", TRIANGLE, "--box"])
    assert info.value.code == 2
    assert "argument --box: expected one argument" in capsys.readouterr().err


def test_decompose_builds_each_summand_once(capsys, monkeypatch):
    calls = []
    reindexed = invariants._reindexed

    def counting(M, rows, cols, *rest):
        calls.append(rows)
        return reindexed(M, rows, cols, *rest)

    monkeypatch.setattr(invariants, "_reindexed", counting)
    # d = 3: dimension_function sweeps each summand's presentation
    code, out, _ = run_cli(capsys, "decompose", K23, "--perturb")
    assert code == 0
    rows = [b["rows"] for b in json.loads(out)["blocks"]]
    assert len(rows) > 1
    assert [list(r) for r in calls] == rows
    # d = 2: the values are read off the Betti tables, no summand is built
    calls.clear()
    code, out, _ = run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")
    assert code == 0 and len(json.loads(out)["blocks"]) > 1
    assert calls == []


@pytest.mark.parametrize("flag", ["1_0,0:3,3", "+1,0:3,3", "0,0:3, 3"])
def test_box_coordinates_are_decimal_digits(capsys, flag):
    # read like every integer of the input files, not by int()
    code, out, err = run_cli(capsys, "decompose", TRIANGLE, "--box", flag)
    assert (code, out) == (2, "")
    assert err == f"error: bad --box {flag!r}, expected 'lo1,..,lod:hi1,..,hid'\n"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["export-pres", SUSPENSION, "--dim", "1", "--perturb"], "unrecognized arguments"),
        (["export-pres", SUSPENSION, "--format", "text"], "unrecognized arguments"),
        (["decompose", TRIANGLE, "--output", "x.mppres"], "unrecognized arguments"),
        (["check", K23, "--box", "0,0,0:1,1,1"], "unrecognized arguments"),
        (["check", K23, "--format", "text"], "unrecognized arguments"),
        # --dim is read like every other integer: digits after an optional '-'
        (["export-pres", SUSPENSION, "--dim", "0_1"], "argument --dim: invalid int value: '0_1'"),
        (["decompose", SUSPENSION, "--dim", "+1"], "argument --dim: invalid int value: '+1'"),
        # the raw view of a non-minimal matrix is tot_diagonalize's, not a command's
        (["diagonalize", RAW], "argument command: invalid choice: 'diagonalize'"),
    ],
    ids=[
        "argv0", "argv1", "argv2", "argv3", "argv4", "dim-underscore", "dim-plus",
        "no-diagonalize-command",
    ],
)
def test_options_a_command_does_not_read_are_refused(argv, refusal, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "betti"])
def test_box_is_refused_by_formats_without_a_grid(capsys, fmt):
    # text and betti print no dimension function, so a --box would be ignored
    code, out, err = run_cli(
        capsys, "decompose", TRIANGLE, "--format", fmt, "--box", "0,0:5000,5000"
    )
    assert (code, out) == (2, "")
    assert err == f"error: --box applies to --format json and csv only, not {fmt}\n"


def test_redundant_relation_leaves_no_trivial_block(tmp_path, capsys):
    # three vertices at (0,0), edges at (1,0), (1,0) and (2,0): the last
    # edge only closes a cycle, so the minimal presentation drops it
    path = tmp_path / "cycle.mpfilt"
    path.write_text(
        "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 :\n"
        "s 1 0 : 0 1\ns 1 0 : 1 2\ns 2 0 : 0 2\n"
    )
    code, out, _ = run_cli(capsys, "decompose", str(path), "--perturb", "--format", "betti")
    assert code == 0
    beta1 = [g for line in out.splitlines() if "beta_1:" in line for g in line.split()[1:]]
    assert beta1 == ["(1,0)", "(1,0)"]
    code, out, _ = run_cli(capsys, "decompose", str(path), "--perturb", "--format", "text")
    assert code == 0
    assert "matrix 3x2," in out
    assert "rows=[]" not in out


def non_minimal_mppres(rng: random.Random, d: int) -> tuple:
    """An mppres text that is not minimal, and its column count.

    Among random relations it has a zero column, a unit pivot (a relation at
    its generator's own grade) and a relation repeated at or above its grade.
    """
    rows = [[rng.randint(0, 3) for _ in range(d)] for _ in range(rng.randint(1, 6))]

    def relation(grade, first=()):
        hits = {i for i, r in enumerate(rows) if leq(r, grade) and rng.random() < 0.5}
        return grade, sorted(hits | set(first))

    cols = [relation([rng.randint(0, 5) for _ in range(d)]) for _ in range(rng.randint(0, 6))]
    pivot = rng.randrange(len(rows))
    cols.append(relation(rows[pivot], [pivot]))
    grade, hits = rng.choice(cols)
    cols.append(([x + rng.randint(0, 1) for x in grade], hits))
    cols.append(([rng.randint(0, 5) for _ in range(d)], []))
    rng.shuffle(cols)
    lines = ["mppres 1", f"params {d}", f"rows {len(rows)}"]
    lines += ["r " + " ".join(map(str, r)) for r in rows]
    lines.append(f"cols {len(cols)}")
    lines += ["c " + " ".join(map(str, g)) + " : " + " ".join(map(str, h)) for g, h in cols]
    return "\n".join(lines) + "\n", len(cols)


def test_decompose_blocks_all_have_rows_and_partition_the_matrix(tmp_path, capsys):
    # the raw diagonalization of each input has a block without rows, which
    # the minimal presentation that decompose reads never has
    rng = random.Random("non-minimal")
    # argv and, for a random input, its column count before minimize
    runs = [([path, "--dim", dim], None) for path in (TRIANGLE, SUSPENSION, K23) for dim in "01"]
    runs.append(([RAW], None))
    for case in range(150):
        text, n_cols = non_minimal_mppres(rng, 1 + case % 3)
        raw = tot_diagonalize(sort_by_grade(parse_presentation(text)), perturb_ties=True)
        assert any(not b.rows for b in raw.blocks), text
        path = tmp_path / f"case{case}.mppres"
        path.write_text(text)
        runs.append(([str(path)], n_cols))
    for argv, n_cols in runs:
        code, out, err = run_cli(capsys, "decompose", *argv, "--perturb")
        assert code == 0, (argv, err)
        payload = json.loads(out)
        blocks, M = payload["blocks"], payload["matrix"]
        assert all(b["rows"] for b in blocks), argv
        assert sorted(i for b in blocks for i in b["rows"]) == list(range(M["n_rows"]))
        assert sorted(j for b in blocks for j in b["cols"]) == list(range(M["n_cols"]))
        if n_cols is not None:
            assert M["n_cols"] < n_cols  # minimize dropped a relation
        code, text_out, _ = run_cli(capsys, "decompose", *argv, "--perturb", "--format", "text")
        assert code == 0 and "rows=[]" not in text_out


def test_block_without_rows_after_minimize_exits_4(tmp_path, monkeypatch, capsys):
    # a zero column survives only if minimize is skipped; the outputs would
    # then pair blocks with the wrong summands' invariants
    path = tmp_path / "zero.mppres"
    path.write_text("mppres 1\nparams 2\nrows 1\nr 0 0\ncols 2\nc 1 0 : 0\nc 1 1 : \n")
    assert run_cli(capsys, "decompose", str(path))[0] == 0
    monkeypatch.setattr(cli, "minimize", lambda M: M)
    commands = [["decompose", "--format", fmt] for fmt in ("json", "text", "csv", "betti")]
    for argv in commands + [["check"]]:
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (4, ""), argv
        assert err == (
            "internal error: minimal presentation has a block without rows: "
            "IndexBlock(rows=(), cols=(1,))\n"
        )


def test_runaway_box_exits_2_quickly(tmp_path, capsys):
    path = tmp_path / "far.mppres"
    path.write_text("mppres 1\nparams 2\nrows 2\nr 0 0\nr 0 1\ncols 1\nc 3000 3000 : 0 1\n")
    for argv in (
        ["decompose", str(path), "--box", "0,0:3001,3001"],
        ["decompose", str(path), "--format", "csv", "--box", "0,0:1000,1000"],
        ["decompose", str(path), "--box=-9223372036854775808,0:9223372036854775807,0"],
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert "grade points" in err
    err = run_cli(capsys, "decompose", str(path), "--box", "0,0:3001,3001")[2]
    assert "9012004" in err  # 3002 x 3002
    # the summands' own grids are 1x1 and 2x2, and the text report walks no box
    for fmt in ("json", "csv", "text", "betti"):
        code, _, _ = run_cli(capsys, "decompose", str(path), "--format", fmt)
        assert code == 0, fmt
    # with three parameters each summand's own grid is capped: 101
    # incomparable generators of one relation stay one summand, whose grid
    # has 101 coordinates on each axis
    rows = "".join(f"r {i} {100 - i} {37 * i % 101}\n" for i in range(101))
    path.write_text(
        f"mppres 1\nparams 3\nrows 101\n{rows}cols 1\n"
        f"c 100 100 100 : {' '.join(map(str, range(101)))}\n"
    )
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: grid of 101x101x101 has 1030301 grade points, "
        "more than the limit of 1000000\n"
    )
    assert run_cli(capsys, "decompose", str(path), "--format", "betti")[0] == 0
    # 101 free generators on a diagonal span the same 101x101x101 grid of
    # distinct coordinates, but each summand's own grid is one point
    rows = "".join(f"r {i} {i} {i}\n" for i in range(101))
    path.write_text(f"mppres 1\nparams 3\nrows 101\n{rows}cols 0\n")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 0, err
    assert [(b["grid"], b["dim_function"]) for b in json.loads(out)["blocks"]] == [
        ([[i], [i], [i]], [1]) for i in range(101)
    ]


def test_box_values_are_capped_over_all_summands(monkeypatch, capsys):
    # suspension in degree 1 has three summands, triangle one
    monkeypatch.setattr(cli, "MAX_BOX_POINTS", 30)

    def unreachable(*args):
        raise AssertionError("blockcodes ran on a refused box")

    def run(path, fmt, box):
        return run_cli(capsys, "decompose", path, "--dim", "1", "--format", fmt, "--box", box)

    for fmt in ("json", "csv"):
        assert run(SUSPENSION, fmt, "0,0:2,2")[0] == 0  # 9 points x 3 summands
        assert run(TRIANGLE, fmt, "0,0:3,2")[0] == 0  # 12 points x 1 summand
        with monkeypatch.context() as m:
            m.setattr(cli, "blockcodes", unreachable)
            code, out, err = run(SUSPENSION, fmt, "0,0:3,2")
        assert (code, out) == (2, "")
        assert err == (
            "error: --box of 12 grade points for 3 summands asks for 36 values, "
            "more than the limit of 30\n"
        )
    # the default grids are not capped by summands: 4 + 4 + 1 points here
    monkeypatch.setattr(cli, "MAX_BOX_POINTS", 5)
    assert run_cli(capsys, "decompose", SUSPENSION, "--dim", "1")[0] == 0


def test_far_grades_decompose_on_their_grid(tmp_path, capsys):
    # a dense box from the lowest to the highest grade would hold 10**10 points
    path = tmp_path / "far.mppres"
    path.write_text(
        "mppres 1\nparams 2\nrows 2\nr 0 0\nr 100000 0\ncols 1\nc 100000 100000 : 0 1\n"
    )
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert [(b["grid"], b["dim_function"]) for b in payload["blocks"]] == [
        ([[0], [0]], [1]),
        ([[100000], [0, 100000]], [1, 0]),
    ]


def test_text_exponents_may_leave_the_grade_range(tmp_path, capsys):
    # c1 absorbs c0, so its expression carries t^(g1 - g0) with an
    # exponent of 2**63 + 4, which is no grade but is a valid exponent
    low, high = -(2**62 + 5), 2**62
    path = tmp_path / "wide.mppres"
    path.write_text(
        f"mppres 1\nparams 1\nrows 2\nr {low}\nr {low + 1}\n"
        f"cols 2\nc {low + 1} : 0\nc {high} : 0 1\n"
    )
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", "text")
    assert code == 0, err
    assert f"  [1] c1 ({high}) = c1 + t^({2**63 + 4})*c0\n" in out
    code, _, _ = run_cli(capsys, "decompose", str(path))
    assert code == 0


def test_grades_at_the_top_of_the_64_bit_range(tmp_path, capsys):
    top = 2**63 - 1
    path = tmp_path / "top.mppres"
    path.write_text(f"mppres 1\nparams 1\nrows 1\nr {top}\ncols 0\n")
    for fmt in ("json", "text", "csv"):
        code, out, err = run_cli(capsys, "decompose", str(path), "--format", fmt)
        assert code == 0, (fmt, err)
    # the grid is the grade's own coordinate, with no margin past it
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert json.loads(out)["blocks"][0]["grid"] == [[top]]
    code, out, _ = run_cli(capsys, "decompose", str(path), "--format", "csv")
    assert code == 0
    assert out == f"x1,block_id,dim\n{top},0,1\n"


def test_presentation_without_grades_keeps_its_parameter_count(tmp_path, capsys):
    # a point has no degree-1 homology, so its presentation has no grades
    point = tmp_path / "point.mpfilt"
    point.write_text("mpfilt 1\nparams 2\ns 0 0 :\n")
    code, out, _ = run_cli(capsys, "export-pres", str(point), "--dim", "1")
    assert code == 0
    assert out == "mppres 1\nparams 2\nrows 0\ncols 0\n"
    code, out, _ = run_cli(capsys, "decompose", str(point), "--dim", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2 and payload["blocks"] == []
    code, out, _ = run_cli(capsys, "decompose", str(point), "--dim", "1", "--format", "csv")
    assert (code, out) == (0, "x1,x2,block_id,dim\n")


def test_box_fits_an_empty_presentation_of_its_parameter_count(tmp_path, capsys):
    empty = tmp_path / "empty.mppres"
    empty.write_text("mppres 1\nparams 2\nrows 0\ncols 0\n")
    code, out, err = run_cli(capsys, "decompose", str(empty), "--box", "0,0:1,1")
    assert code == 0, err
    assert json.loads(out)["d"] == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("mppres 1\nparams \u00b2\n", "line 2: parameter count '\u00b2' is not an integer"),
        ("mppres 1\nparams --1\n", "line 2: parameter count '--1' is not an integer"),
        ("mppres 1\nparams 1_0\n", "line 2: parameter count '1_0' is not an integer"),
        ("mppres 1\nparams +2\n", "line 2: parameter count '+2' is not an integer"),
        ("mppres 1\nparams\n", "line 2: expected 'params <d>', got 'params'"),
        ("mppres 1\nparams 1\nrows \u00b2\n", "line 3: expected 'rows <n>'"),
        ("mppres 1\nparams 1\nrows 0\ncols \u00b3\n", "line 4: expected 'cols <m>'"),
        (
            "mppres 1\nparams 1\nrows 1\nr \u00b2\ncols 0\n",
            "line 4: non-integer grade in ['\u00b2']",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 9223372036854775808\ncols 0\n",
            "line 4: grade coordinate 9223372036854775808 outside 64-bit range",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 0\ncols 1\nc -9223372036854775809 : \n",
            "line 6: grade coordinate -9223372036854775809 outside 64-bit range",
        ),
        ("mppres 2\n", "line 1: expected header 'mppres 1'"),
        ("mppres 1\n", "unexpected end of input, expected 'params <d>'"),
        ("mppres 1\nparams x\n", "line 2: parameter count 'x' is not an integer"),
        ("mppres 1\nparams 0\n", "line 2: parameter count must be positive, got 0"),
        (
            "mppres 1\nparams 100000000000\nrows 0\ncols 0\n",
            "line 2: parameter count 100000000000 is more than the limit of 64",
        ),
        ("mppres 1\nparams 1\n", "unexpected end of input, expected 'rows <n>'"),
        ("mppres 1\nparams 1\nrows -1\n", "line 3: expected 'rows <n>'"),
        (
            "mppres 1\nparams 1\nrows 2\nr 0\n",
            "unexpected end of input, expected a row grade line",
        ),
        ("mppres 1\nparams 1\nrows 1\nc 0\n", "line 4: expected 'r <grade>'"),
        (
            "mppres 1\nparams 2\nrows 1\nr 0\ncols 0\n",
            "line 4: expected 2 grade coordinates, got 1",
        ),
        ("mppres 1\nparams 1\nrows 1\nr 0\n", "unexpected end of input, expected 'cols <m>'"),
        (
            "mppres 1\nparams 1\nrows 0\ncols 1\n",
            "unexpected end of input, expected a column line",
        ),
        (
            "mppres 1\nparams 1\nrows 0\ncols 1\nc 0 0\n",
            "line 5: expected 'c <grade> : <rows>'",
        ),
        (
            "mppres 1\nparams 1\nrows 0\ncols 1\nc q : \n",
            "line 5: non-integer grade in ['q']",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 0\ncols 1\nc 1 : w\n",
            "line 6: non-integer row index 'w'",
        ),
        ("mppres 1\nparams 1\nrows 1\nr 1_0\ncols 0\n", "line 4: non-integer grade in ['1_0']"),
        ("mppres 1\nparams 1\nrows 0\ncols 1\nc +1 : \n", "line 5: non-integer grade in ['+1']"),
        (
            "mppres 1\nparams 1\nrows 2\nr 0\nr 0\ncols 1\nc 20 : 0_0\n",
            "line 7: non-integer row index '0_0'",
        ),
        (
            "mppres 1\nparams 1\nrows 2\nr 0\nr 0\ncols 1\nc 20 : +1\n",
            "line 7: non-integer row index '+1'",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 0\ncols 1\nc 1 : 3\n",
            "line 6: row index 3 outside 0..0",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 2\ncols 1\nc 1 : 0  # comment\n",
            "line 6: entry at row 0 breaks homogeneity: "
            "row grade (2) is not <= column grade (1)",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 0\ncols 0\nthis is not a column\nc 5 : 0\n",
            "line 6: expected end of input after 0 columns",
        ),
    ],
    ids=[
        "params-superscript",
        "params-double-minus",
        "params-underscore",
        "params-plus",
        "params-shape",
        "rows-superscript",
        "cols-superscript",
        "grade-superscript",
        "row-grade-too-high",
        "column-grade-too-low",
        "header",
        "end-before-params",
        "params-not-integer",
        "params-not-positive",
        "params-above-limit",
        "end-before-rows",
        "rows-negative",
        "end-before-row",
        "not-a-row-line",
        "row-grade-count",
        "end-before-cols",
        "end-before-column",
        "not-a-column-line",
        "column-grade-not-integer",
        "row-index-not-integer",
        "grade-underscore",
        "grade-plus",
        "row-index-underscore",
        "row-index-plus",
        "row-index-outside",
        "inhomogeneous",
        "line-after-last-column",
    ],
)
def test_mppres_counts_and_coordinates_fail_with_line_numbers(tmp_path, capsys, text, message):
    path = tmp_path / "bad.mppres"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("mpfilt 2\n", "line 1: expected header 'mpfilt 1', got 'mpfilt 2'"),
        ("mpfilt 1  # header only\n", "missing 'params <d>' line"),
        ("mpfilt 1\nparams\n", "line 2: expected 'params <d>', got 'params'"),
        ("mpfilt 1\nparams x\n", "line 2: parameter count 'x' is not an integer"),
        ("mpfilt 1\nparams 1_0\n", "line 2: parameter count '1_0' is not an integer"),
        ("mpfilt 1\nparams +2\n", "line 2: parameter count '+2' is not an integer"),
        ("mpfilt 1\nparams 0\n", "line 2: parameter count must be positive, got 0"),
        (
            "mpfilt 1\nparams 100000000000\n",
            "line 2: parameter count 100000000000 is more than the limit of 64",
        ),
        (
            "mpfilt 1\nparams 2\nx 0 0 :  # comment\n",
            "line 3: expected a simplex line starting with 's', got 'x 0 0 :'",
        ),
        ("mpfilt 1\nparams 2\ns 0 0\n", "line 3: missing ':' between grade and facet list"),
        ("mpfilt 1\nparams 2\ns 0 :\n", "line 3: expected 2 grade coordinates, got 1"),
        ("mpfilt 1\nparams 2\ns 0 y :\n", "line 3: non-integer grade in ['0', 'y']"),
        (
            "mpfilt 1\nparams 2\ns 0 9223372036854775808 :\n",
            "line 3: grade coordinate 9223372036854775808 outside 64-bit range",
        ),
        ("mpfilt 1\nparams 1\ns 1_000 :\n", "line 3: non-integer grade in ['1_000']"),
        ("mpfilt 1\nparams 1\ns +2 :\n", "line 3: non-integer grade in ['+2']"),
        ("mpfilt 1\nparams 1\ns 0 :\ns 1 : 0 z\n", "line 4: non-integer facet id in ['0', 'z']"),
        (
            "mpfilt 1\nparams 1\ns 0 :\ns 0 :\ns 1 : 0 0_1\n",
            "line 5: non-integer facet id in ['0', '0_1']",
        ),
        (
            "mpfilt 1\nparams 1\ns 0 :\ns 0 :\ns 1 : +0 1\n",
            "line 5: non-integer facet id in ['+0', '1']",
        ),
        ("mpfilt 1\nparams 1\ns 0 :\ns 1 : 0 0\n", "line 4: facet listed twice"),
        ("mpfilt 1\nparams 2\ns 0 0 : 5\n", "line 3: facet 5 not declared before simplex 0"),
        (
            "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 : 0 1\ns 1 1 : 0 2\n",
            "line 6: facets of one simplex must share a dimension",
        ),
        (
            "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 :\ns 1 1 : 0 1 2\n",
            "line 6: a 1-simplex needs 2 facets, got 3",
        ),
        (
            "mpfilt 1\nparams 2\ns 0 1 :\ns 1 0 :\n\ns 2 0 : 0 1\n",
            "line 6: grade (2,0) of simplex 2 is not above grade (0,1) of its facet 0",
        ),
        (
            "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 1 : 0 1\ns 1 0 : 0 1\n",
            "line 6: simplex with facets [0, 1] already declared as id 2; multi-critical "
            "input is not supported, convert to a one-critical filtration first "
            "(e.g. by a mapping telescope)",
        ),
        (
            "mpfilt 1\nparams 2\n" + "s 0 0 :\n" * 4
            + "s 1 1 : 0 1\ns 1 1 : 1 2\ns 1 1 : 2 3\ns 2 2 : 4 5 6\n",
            "line 10: facets [4, 5, 6] of simplex 7 do not close up: their own "
            "boundaries do not cancel",
        ),
    ],
    ids=[
        "header",
        "missing-params",
        "params-shape",
        "params-not-integer",
        "params-underscore",
        "params-plus",
        "params-not-positive",
        "params-above-limit",
        "not-a-simplex-line",
        "missing-colon",
        "grade-count",
        "grade-not-integer",
        "grade-out-of-range",
        "grade-underscore",
        "grade-plus",
        "facet-not-integer",
        "facet-underscore",
        "facet-plus",
        "facet-listed-twice",
        "facet-not-declared",
        "facet-dimensions-differ",
        "facet-count",
        "grade-not-above-facet",
        "multi-critical",
        "facets-do-not-close-up",
    ],
)
def test_mpfilt_refusals_name_the_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.mpfilt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        ("# a comment\nmpdata 1\n", "{path}: unknown header 'mpdata', expected mpfilt or mppres"),
        ("\n  # only a comment\n\n", "{path}: empty input"),
    ],
    ids=["unreadable", "unknown-header", "empty"],
)
def test_input_file_refusals(tmp_path, capsys, text, message):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=path) + "\n"


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.mpfilt"
    path.write_bytes(b"mpfilt 1\n# \xff\nparams 2\n")  # the byte sits in a comment
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 11: invalid start byte\n"
    )


def test_kernel_sweep_beyond_the_limit_exits_2_quickly(tmp_path, capsys):
    # 24 parameters: six vertices at 0 and the 15 edges of K6 spread over
    # 0..2 on every axis, so the cycle sweep would visit 3^22 rows of 3 slices
    lines = ["mpfilt 1", "params 24"] + ["s " + " 0" * 24 + " :"] * 6
    for e, (a, b) in enumerate(combinations(range(6), 2)):
        lines.append("s " + " ".join(str((e + k) % 3) for k in range(24)) + f" : {a} {b}")
    path = tmp_path / "wide.mpfilt"
    path.write_text("\n".join(lines) + "\n")
    for command in ("decompose", "export-pres"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path), "--dim", "1")
        assert time.perf_counter() - t0 < 1.0, command
        assert (code, out) == (2, "")
        assert err == (
            "error: kernel sweep of 94143178827 grade slices is more than the limit "
            "of 1000000\n"
        )


def test_readme_names_exactly_the_cli_flags():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        s for p in sub.choices.values() for a in p._actions for s in a.option_strings
    }
    assert named == options - {"-h", "--help"}
    # the examples, the list of subcommands and the table of options each
    # name exactly the parser's subcommands
    examples = re.findall(r"^mpdecomp ([a-z-]+) ", section, re.M)
    assert set(examples) == set(sub.choices)
    listed = re.findall(r"^- `([a-z-]+)` - ", section, re.M)
    assert sorted(listed) == sorted(sub.choices)
    # the table of options per subcommand, with the --format choices in order
    table = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M))
    assert set(table) == set(sub.choices)
    for name, p in sub.choices.items():
        options = {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z-]+", table[name])) == options, name
        fmt = next((a for a in p._actions if "--format" in a.option_strings), None)
        choices = list(fmt.choices) if fmt else []
        assert re.findall(r"\(`.*`\)", table[name]) == (
            ["(" + ", ".join(f"`{c}`" for c in choices) + ")"] if choices else []
        ), name


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example reads data/ by a relative path
    exec(compile(example, "<README Library example>", "exec"), {"__name__": "readme_example"})
    # the triangle's H0 splits into two summands, one line each
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_library_names_resolve():
    # a name the Library section writes as a call, in CamelCase or under
    # mpdecomp. must exist, so a deleted public name cannot stay documented
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        call = re.match(r"([A-Za-z_][\w.]*)\(", span)
        if call:
            names.add(call.group(1))
        elif re.fullmatch(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*|mpdecomp\.[\w.]+", span):
            names.add(span)
    assert {"kernel_gens", "GradedMatrix", "mpdecomp.oracle"} <= names
    for name in sorted(names):
        obj, path = mpdecomp, "mpdecomp"
        for part in name.removeprefix("mpdecomp.").split("."):
            path += "." + part
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)


def test_installed_entry_point_runs():
    # the child runs the same mpdecomp these tests import
    env = dict(os.environ)
    package_root = str(Path(mpdecomp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mpdecomp", "decompose", TRIANGLE, "--dim", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "H0"
