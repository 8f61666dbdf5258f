from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mpdecomp
from mpdecomp.cli import _build_parser, main

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
    blocks = [
        (tuple(b["row_labels"]), tuple(b["col_labels"]))
        for b in payload["blocks"]
        if not b["trivial"]
    ]
    assert sorted(blocks) == [(("0", "1"), ("3",)), (("2",), ("4", "5"))]
    assert payload["matrix"]["columns"] == [[0, 1], [2], [2]]


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
    code, out, _ = run_cli(capsys, "betti", SUSPENSION, "--dim", "1")
    assert code == 0
    payload = json.loads(out)
    betti = [b["betti"] for b in payload["blocks"]]
    assert betti == [
        {"0": [[0, 1], [1, 0]], "1": [[1, 1]], "2": []},
        {"0": [[1, 1]], "1": [[1, 2], [2, 1]], "2": [[2, 2]]},
        {"0": [[2, 2]], "1": [], "2": []},
    ]


def test_blockcode_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "blockcode", TRIANGLE, "--dim", "0", "--box", "0,0:3,3"
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


def test_check_reports_agreement(capsys):
    code, out, _ = run_cli(capsys, "check", K23, "--dim", "1")
    assert code == 0
    assert "agree" in out


def test_diagonalize_raw_presentation(capsys):
    code, out, _ = run_cli(capsys, "diagonalize", RAW, "--format", "text")
    assert code == 0
    assert "blocks:" in out
    assert "rows=[0,1] cols=[0]" in out


def test_export_pres_round_trips(tmp_path, capsys):
    out_file = tmp_path / "exported.mppres"
    code, _, _ = run_cli(
        capsys, "export-pres", SUSPENSION, "--dim", "1", "--output", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    code2, out2, _ = run_cli(capsys, "diagonalize", str(out_file), "--format", "text")
    assert code2 == 0
    assert "rows=[3] cols=[]" in out2
    # emitted file parses back to the identical matrix
    from mpdecomp import parse_presentation

    P = parse_presentation(text)
    assert P.n_rows == 4 and P.n_cols == 3


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
    code, out, err = run_cli(capsys, "diagonalize", RAW, "--perturb", "--dim", "1")
    assert code == 2
    assert "filtration" in err
    code, out, _ = run_cli(capsys, "betti", SUSPENSION, "--dim", "1")
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
    code, _, err = run_cli(capsys, "diagonalize", str(tied))
    assert code == 3
    assert "tied" in err
    code2, out, _ = run_cli(capsys, "diagonalize", str(tied), "--perturb",
                            "--format", "text")
    assert code2 == 0
    assert "perturbed: yes" in out


def test_dim_flag_rejected_for_presentations(capsys):
    code, _, err = run_cli(capsys, "diagonalize", RAW, "--dim", "1")
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


def test_redundant_relation_leaves_no_trivial_block(tmp_path, capsys):
    # three vertices at (0,0), edges at (1,0), (1,0) and (2,0): the last
    # edge only closes a cycle, so the minimal presentation drops it
    path = tmp_path / "cycle.mpfilt"
    path.write_text(
        "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 :\n"
        "s 1 0 : 0 1\ns 1 0 : 1 2\ns 2 0 : 0 2\n"
    )
    code, out, _ = run_cli(capsys, "betti", str(path), "--perturb", "--format", "text")
    assert code == 0
    beta1 = [g for line in out.splitlines() if "beta_1:" in line for g in line.split()[1:]]
    assert beta1 == ["(1,0)", "(1,0)"]
    code, out, _ = run_cli(capsys, "decompose", str(path), "--perturb", "--format", "text")
    assert code == 0
    assert "matrix 3x2," in out
    assert "(trivial)" not in out


def test_runaway_box_exits_2_quickly(tmp_path, capsys):
    path = tmp_path / "far.mppres"
    path.write_text("mppres 1\nparams 2\nrows 2\nr 0 0\nr 0 1\ncols 1\nc 3000 3000 : 0 1\n")
    for argv in (
        ["decompose", str(path)],
        ["decompose", str(path), "--format", "csv"],
        ["blockcode", str(path)],
        ["blockcode", str(path), "--box", "0,0:1000,1000"],
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert "grade points" in err
    assert "9012004" in run_cli(capsys, "decompose", str(path))[2]  # 3002 x 3002
    # the text report walks no box, so it still succeeds
    code, _, _ = run_cli(capsys, "decompose", str(path), "--format", "text")
    assert code == 0


def test_text_exponents_may_leave_the_grade_range(tmp_path, capsys):
    # c1 absorbs c0, so its expression carries t^(g1 - g0) with an
    # exponent of 2**63 + 5, which is no grade but is a valid exponent
    low, high = -(2**62 + 5), 2**62
    path = tmp_path / "wide.mppres"
    path.write_text(
        f"mppres 1\nparams 1\nrows 2\nr {low}\nr {low}\n"
        f"cols 2\nc {low} : 0\nc {high} : 0 1\n"
    )
    code, out, err = run_cli(capsys, "diagonalize", str(path), "--perturb",
                             "--format", "text")
    assert code == 0, err
    assert f"  [1] c1 ({high}) = c1 + t^({2**63 + 5})*c0\n" in out
    code, _, _ = run_cli(capsys, "diagonalize", str(path), "--perturb")
    assert code == 0


def test_grades_at_the_top_of_the_64_bit_range(tmp_path, capsys):
    top = 2**63 - 1
    path = tmp_path / "top.mppres"
    path.write_text(f"mppres 1\nparams 1\nrows 1\nr {top}\ncols 0\n")
    for fmt in ("json", "text", "csv"):
        code, out, err = run_cli(capsys, "decompose", str(path), "--format", fmt)
        assert code == 0, (fmt, err)
    # the default box's margin of one stops at the largest coordinate
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert json.loads(out)["box"] == {"lo": [top], "hi": [top]}
    code, out, _ = run_cli(capsys, "blockcode", str(path))
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
    assert payload["d"] == 2 and payload["box"] == {"lo": [0, 0], "hi": [1, 1]}


def test_box_fits_an_empty_presentation_of_its_parameter_count(tmp_path, capsys):
    empty = tmp_path / "empty.mppres"
    empty.write_text("mppres 1\nparams 2\nrows 0\ncols 0\n")
    code, out, err = run_cli(capsys, "decompose", str(empty), "--box", "0,0:1,1")
    assert code == 0, err
    assert json.loads(out)["d"] == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("mppres 1\nparams \u00b2\n", "line 2: expected 'params <d>'"),
        ("mppres 1\nparams --1\n", "line 2: expected 'params <d>'"),
        ("mppres 1\nparams 1\nrows \u00b2\n", "line 3: expected 'rows <n>'"),
        ("mppres 1\nparams 1\nrows 0\ncols \u00b3\n", "line 4: expected 'cols <m>'"),
        ("mppres 1\nparams 1\nrows 1\nr \u00b2\ncols 0\n", "line 4: non-integer grade"),
        (
            "mppres 1\nparams 1\nrows 1\nr 9223372036854775808\ncols 0\n",
            "line 4: grade coordinate 9223372036854775808 outside 64-bit range",
        ),
        (
            "mppres 1\nparams 1\nrows 1\nr 0\ncols 1\nc -9223372036854775809 : \n",
            "line 6: grade coordinate -9223372036854775809 outside 64-bit range",
        ),
    ],
    ids=[
        "params-superscript",
        "params-double-minus",
        "rows-superscript",
        "cols-superscript",
        "grade-superscript",
        "row-grade-too-high",
        "column-grade-too-low",
    ],
)
def test_mppres_counts_and_coordinates_fail_with_line_numbers(tmp_path, capsys, text, message):
    path = tmp_path / "bad.mppres"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert err.startswith(f"error: {message}")


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
