"""Command line front end.

Subcommands: decompose, check, export-pres, each on the minimal presentation
(``tot_diagonalize`` gives the raw blocks of a non-minimal matrix, demo 01).
Input files are recognized by their header line (mpfilt or mppres).  JSON
output is byte-deterministic: keys sorted, arrays in canonical index order.
``decompose`` gives each summand's Betti table and its dimension function
on a grid of its own, written beside it: by default the summand's distinct
grade coordinates on each axis, where its function is constant on the
cells between them and zero below them, or every integer of a ``--box``,
which is refused when its points times the summands exceed
``MAX_BOX_POINTS`` values.  Its ``csv`` and ``betti`` formats are views of
that result, the CSV grouped by block; ``text`` and ``betti`` print no
dimension function and refuse ``--box``.

Exit codes: 0 success, 2 bad input, 3 tied grades without the perturbation
flag, 4 internal consistency failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from operator import sub
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .diagonalize import Diagonalization, IndexBlock, Op, replay_certificate, tot_diagonalize
from .errors import InputError, InternalCheckError, TiedGradesError
from .f2 import bits
from .filtration import parse_filtration
from .graded import GradedMatrix, sort_by_grade
from .grades import check_grade, fmt, leq, read_int, read_lines
from .invariants import (
    MAX_BOX_POINTS,
    GradeBox,
    Table,
    blockcodes,
    default_box,  # noqa: F401  (perfbench/spans.py times cli.default_box by name)
    grade_grid,
    persistent_betti,
)
from .presentation import (
    format_presentation,
    minimize,
    parse_presentation,
    pres_2param,
    pres_dparam,
    pres_h0,
)


def _read_input(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    for _, line in read_lines(text):
        kind = line.split()[0]
        if kind == "mpfilt":
            return parse_filtration(text)
        if kind == "mppres":
            return parse_presentation(text)
        raise InputError(f"{path}: unknown header {kind!r}, expected mpfilt or mppres")
    raise InputError(f"{path}: empty input")


def _load(args: argparse.Namespace) -> Tuple[GradedMatrix, str]:
    """Read the input, check --box against its d, build the presentation.

    Returns it with its case: RAW for an mppres file, else H0, TWO_PARAM or
    D_PARAM after the builder called.
    """
    obj = _read_input(args.input)
    if args.box is not None and len(args.box[0]) != obj.d:
        raise InputError(
            f"--box has {len(args.box[0])} coordinates but the input has {obj.d}"
        )
    if isinstance(obj, GradedMatrix):
        if args.dim is not None:
            raise InputError("--dim applies to filtration input only")
        return obj, "RAW"
    p = args.dim if args.dim is not None else 0
    if p < 0:
        raise InputError(f"--dim must be >= 0, got {p}")
    if p == 0:
        return pres_h0(obj), "H0"
    if obj.d == 2:
        return pres_2param(obj, p), "TWO_PARAM"
    return pres_dparam(obj, p), "D_PARAM"


def _pipeline(args: argparse.Namespace) -> Tuple[str, Diagonalization, GradedMatrix]:
    """Parse, build, minimize, sort, diagonalize; keep the sorted input.

    A minimal presentation has no zero relation, so a block without rows is
    an internal fault: the outputs pair the i-th block with the i-th summand.
    """
    M, case = _load(args)
    sorted_matrix = sort_by_grade(minimize(M))
    diag = tot_diagonalize(sorted_matrix, perturb_ties=args.perturb)
    for b in diag.blocks:
        if not b.rows:
            raise InternalCheckError(f"minimal presentation has a block without rows: {b}")
    return case, diag, sorted_matrix


# -- serialization -----------------------------------------------------------


def _grade_list(gs) -> List[List[int]]:
    return [list(g) for g in gs]


def _matrix_payload(M: GradedMatrix) -> dict:
    return {
        "n_rows": M.n_rows,
        "n_cols": M.n_cols,
        "row_grades": _grade_list(M.row_grades),
        "col_grades": _grade_list(M.col_grades),
        "row_labels": list(M.row_labels),
        "col_labels": list(M.col_labels),
        "columns": [bits(c) for c in M.mat.cols],
    }


def _betti_payload(table: List[List[Tuple[int, ...]]]) -> dict:
    return {str(deg): _grade_list(grades) for deg, grades in enumerate(table)}


def _decompose_payload(case: str, diag: Diagonalization) -> dict:
    M = diag.matrix
    return {
        "case": case,
        "d": M.d,
        "perturbed": diag.perturbed,
        "num_ops_applied": len(diag.certificate),
        "matrix": _matrix_payload(M),
        "blocks": [
            {
                "rows": list(b.rows),
                "cols": list(b.cols),
                "row_grades": _grade_list(M.row_grades[i] for i in b.rows),
                "col_grades": _grade_list(M.col_grades[j] for j in b.cols),
                "row_labels": [M.row_labels[i] for i in b.rows],
                "col_labels": [M.col_labels[j] for j in b.cols],
            }
            for b in diag.blocks
        ],
    }


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _basis_expressions(
    grades: Sequence[Tuple[int, ...]],
    labels: Sequence[str],
    cert: Sequence[Op],
    kind: str,
) -> List[str]:
    """Rebuild each final basis element over the input basis, as a mask.

    A column addition c_i -> c_j turns relation j into s_j + t^(gj-gi) s_i;
    a row addition r_l -> r_k rewrites generator l as g_l + t^(gl-gk) g_k.
    Either XORs one mask into another, and the exponent of input element m
    in element x is always grade(x) - grade(m).
    """
    exprs = [1 << i for i in range(len(grades))]
    for op in cert:
        if op.kind == kind:
            upd, base = (op.target, op.source) if kind == "col" else (op.source, op.target)
            exprs[upd] ^= exprs[base]
    out = []
    for x, terms in enumerate(exprs):
        parts = []
        # an exponent is a difference of grades, so it may leave the 64-bit range
        for e, m in sorted((tuple(map(sub, grades[x], grades[m])), m) for m in bits(terms)):
            if any(e):
                parts.append("t^(" + ",".join(map(str, e)) + ")*" + labels[m])
            else:
                parts.append(labels[m])
        out.append(" + ".join(parts))
    return out


def _decompose_text(case: str, diag: Diagonalization) -> str:
    M = diag.matrix
    lines = [
        f"case {case}, {M.d} parameters, perturbed: "
        + ("yes" if diag.perturbed else "no"),
        f"matrix {M.n_rows}x{M.n_cols}, ops applied: {len(diag.certificate)}",
    ]
    row_exprs = _basis_expressions(M.row_grades, M.row_labels, diag.certificate, "row")
    col_exprs = _basis_expressions(M.col_grades, M.col_labels, diag.certificate, "col")
    lines.append("rows:")
    for i in range(M.n_rows):
        lines.append(f"  [{i}] {M.row_labels[i]} {fmt(M.row_grades[i])} = {row_exprs[i]}")
    lines.append("cols:")
    for j in range(M.n_cols):
        lines.append(f"  [{j}] {M.col_labels[j]} {fmt(M.col_grades[j])} = {col_exprs[j]}")
    lines.append("entries:")
    for row in M.mat.to_dense():
        lines.append("  " + "".join(str(v) for v in row))
    lines.append("blocks:")
    for pos, b in enumerate(diag.blocks):
        rows = ",".join(str(i) for i in b.rows)
        cols = ",".join(str(j) for j in b.cols)
        lines.append(f"  {pos}: rows=[{rows}] cols=[{cols}]")
    return "\n".join(lines) + "\n"


def _betti_text(M: GradedMatrix, blocks: List[IndexBlock], tables: List[Table]) -> str:
    lines = []
    for pos, (b, table) in enumerate(zip(blocks, tables, strict=True)):
        labels = ",".join(M.row_labels[i] for i in b.rows)
        lines.append(f"block {pos} (generators {labels}):")
        for deg, grades in enumerate(table):
            lines.append(f"  beta_{deg}: {' '.join(map(fmt, grades))}".rstrip())
    return "\n".join(lines) + "\n"


def _blockcode_csv(d: int, boxes: List[GradeBox], codes: List[List[int]]) -> str:
    header = ",".join(f"x{k + 1}" for k in range(d)) + ",block_id,dim"
    lines = [header]
    for block_id, (box, values) in enumerate(zip(boxes, codes)):
        for u, v in zip(box.grades(), values):
            lines.append(",".join(map(str, u)) + f",{block_id},{v}")
    return "\n".join(lines) + "\n"


def _box_from_flag(flag: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The corners lo, hi of a --box flag; GradeBox.span builds the box."""
    try:
        lo_part, hi_part = flag.split(":")
        lo = [read_int(x) for x in lo_part.split(",")]
        hi = [read_int(x) for x in hi_part.split(",")]
    except ValueError:
        raise InputError(
            f"bad --box {flag!r}, expected 'lo1,..,lod:hi1,..,hid'"
        ) from None
    try:
        lo, hi = check_grade(lo), check_grade(hi)
    except InputError as exc:
        raise InputError(f"--box: {exc}") from None
    if len(lo) != len(hi):
        raise InputError(f"--box has {len(lo)} coordinates below and {len(hi)} above")
    if not leq(lo, hi):
        raise InputError(f"empty box: {fmt(lo)} is not <= {fmt(hi)}")
    return lo, hi


def _dim_flag(text: str) -> int:
    try:
        return read_int(text)
    except ValueError:  # argparse's own wording for a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# -- subcommands -------------------------------------------------------------


def _cmd_decompose(args: argparse.Namespace) -> str:
    if args.box is not None and args.format in ("text", "betti"):
        raise InputError(f"--box applies to --format json and csv only, not {args.format}")
    case, diag, _ = _pipeline(args)
    if args.format == "text":
        return _decompose_text(case, diag)
    M, blocks = diag.matrix, diag.blocks
    n_summands = len(blocks)
    if args.box:
        box = GradeBox.span(*args.box)
        # every summand gets a value per point, all of them held at once
        points = math.prod(box.shape)
        if points * n_summands > MAX_BOX_POINTS:
            raise InputError(
                f"--box of {points} grade points for {n_summands} summands asks for "
                f"{points * n_summands} values, more than the limit of {MAX_BOX_POINTS}"
            )
        boxes = [box] * n_summands
    tables = persistent_betti(M, blocks)
    if args.format == "betti":
        return _betti_text(M, blocks, tables)
    if not args.box:
        boxes = [grade_grid(table[0] + table[1], M.d) for table in tables]
    codes = blockcodes(M, blocks, tables, boxes)
    if args.format == "csv":
        return _blockcode_csv(M.d, boxes, codes)
    payload = _decompose_payload(case, diag)
    for entry, table, box, values in zip(payload["blocks"], tables, boxes, codes):
        entry["betti"] = _betti_payload(table)
        entry["grid"] = [list(axis) for axis in box.axes]
        entry["dim_function"] = values
    return _dump_json(payload)


def _cmd_check(args: argparse.Namespace) -> str:
    from .oracle import brute_force_finest  # here, so no other command loads it

    _, diag, sorted_matrix = _pipeline(args)
    try:
        replayed = replay_certificate(sorted_matrix, diag.certificate).mat
    except InputError as exc:  # an inadmissible op in our own certificate
        raise InternalCheckError(f"certificate does not replay: {exc}") from None
    if replayed != diag.matrix.mat:
        raise InternalCheckError(
            "replaying the certificate does not reproduce the diagonalized matrix"
        )
    reference = brute_force_finest(diag.matrix)
    mine = sorted((b.rows, b.cols) for b in diag.blocks)
    theirs = sorted((b.rows, b.cols) for b in reference)
    if mine != theirs:
        raise InternalCheckError(
            f"decomposition disagrees with brute force: {mine} vs {theirs}"
        )
    return (
        f"ok: {len(diag.blocks)} blocks agree with brute force, "
        f"{len(diag.certificate)} ops applied\n"
    )


def _cmd_export_pres(args: argparse.Namespace) -> str:
    text = format_presentation(sort_by_grade(minimize(_load(args)[0])))
    if args.output is not None:
        try:
            args.output.write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
        return f"wrote {args.output}\n"
    return text


# name: handler, --format choices (the first is the default; none means
# one output form), the other options the command reads
_COMMANDS = {
    "decompose": (_cmd_decompose, ("json", "text", "csv", "betti"), ("--perturb", "--box")),
    "check": (_cmd_check, (), ("--perturb",)),
    "export-pres": (_cmd_export_pres, (), ("--output",)),
}

_OPTIONS = {
    "--perturb": dict(action="store_true", help="break exactly tied grades by index order"),
    "--box": dict(
        default=None, help="evaluate on every grade of 'lo1,..,lod:hi1,..,hid'"
    ),
    "--output": dict(type=Path, default=None),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Parsing leaves the parser unchanged, so repeated in-process calls of
    ``main`` share one instance instead of rebuilding three subparsers.
    """
    parser = argparse.ArgumentParser(
        prog="mpdecomp",
        description="Decompose multi-parameter persistence presentations "
        "into indecomposable blocks.",
    )
    parser.set_defaults(box=None)  # commands without --box read no box
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", type=Path, help="mpfilt or mppres file")
        p.add_argument(
            "--dim",
            type=_dim_flag,
            default=None,
            help="homology degree (filtration input only, default 0)",
        )
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would read a negative first --box coordinate as an option
    for k in reversed(range(len(argv) - 1)):
        if argv[k] == "--box" and re.match(r"-\d", argv[k + 1]):
            argv[k : k + 2] = ["--box=" + argv[k + 1]]
    args = _build_parser().parse_args(argv)
    try:
        if args.box is not None:
            args.box = _box_from_flag(args.box)
        sys.stdout.write(_COMMANDS[args.command][0](args))
    except TiedGradesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
