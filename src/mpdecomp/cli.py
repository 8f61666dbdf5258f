"""Command line front end.

Subcommands: decompose, diagonalize, betti, blockcode, check, export-pres.
Input files are recognized by their header line (mpfilt or mppres).  JSON
output is byte-deterministic: keys sorted, arrays in canonical index order.

Exit codes: 0 success, 2 bad input, 3 tied grades without the perturbation
flag, 4 internal consistency failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import add, sub
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .diagonalize import Diagonalization, Op, tot_diagonalize
from .errors import InputError, InternalCheckError, TiedGradesError
from .f2 import bits
from .filtration import parse_filtration
from .graded import GradedMatrix, sort_by_grade
from .grades import check_grade, fmt
from .invariants import (
    Blockcode,
    GradeBox,
    blockcodes,
    default_box,
    persistent_betti,
)
from .presentation import (
    Presentation,
    format_presentation,
    minimize,
    parse_presentation,
    pres_2param,
    pres_dparam,
    pres_h0,
)


def _read_input(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = line.split()[0]
        if kind == "mpfilt":
            return parse_filtration(text)
        if kind == "mppres":
            return parse_presentation(text)
        raise InputError(f"{path}: unknown header {kind!r}, expected mpfilt or mppres")
    raise InputError(f"{path}: empty input")


def _load(args: argparse.Namespace) -> Presentation:
    """Read the input, check --box against its d, build the presentation."""
    obj = _read_input(args.input)
    if args.box is not None and len(args.box.lo) != obj.d:
        raise InputError(
            f"--box has {len(args.box.lo)} coordinates but the input has {obj.d}"
        )
    if isinstance(obj, Presentation):
        if args.dim is not None:
            raise InputError("--dim applies to filtration input only")
        return obj
    p = args.dim if args.dim is not None else 0
    if p < 0:
        raise InputError(f"--dim must be >= 0, got {p}")
    if p == 0:
        return pres_h0(obj)
    return pres_2param(obj, p) if obj.d == 2 else pres_dparam(obj, p)


def _pipeline(
    args: argparse.Namespace, minimal: bool = True
) -> Tuple[Presentation, Diagonalization]:
    """Shared path: parse, build, minimize if minimal, sort, diagonalize."""
    pres = _load(args)
    if minimal:
        pres = minimize(pres)
    sorted_matrix, _, _ = sort_by_grade(pres.matrix)
    diag = tot_diagonalize(sorted_matrix, perturb_ties=args.perturb)
    final = Presentation(diag.matrix, case_tag=pres.case_tag, minimized=pres.minimized)
    return final, diag


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


def _decompose_payload(
    final: Presentation, diag: Diagonalization, box: GradeBox, with_invariants: bool
) -> dict:
    M = final.matrix
    tables = dict(persistent_betti(final, diag.blocks)) if with_invariants else {}
    codes = (
        {c.block: c for c in blockcodes(final, diag.blocks, box)}
        if with_invariants
        else {}
    )
    blocks_payload = []
    for b in diag.blocks:
        entry = {
            "rows": list(b.rows),
            "cols": list(b.cols),
            "row_grades": _grade_list(M.row_grades[i] for i in b.rows),
            "col_grades": _grade_list(M.col_grades[j] for j in b.cols),
            "row_labels": [M.row_labels[i] for i in b.rows],
            "col_labels": [M.col_labels[j] for j in b.cols],
            "trivial": not b.rows,
        }
        if b in tables:
            table = tables[b]
            entry["betti"] = {
                str(deg): _grade_list(table.degree(deg))
                for deg in range(table.max_degree_computed + 1)
            }
        if b in codes:
            code = codes[b]
            entry["dim_function"] = {
                "origin": list(code.origin),
                "shape": list(code.shape),
                "values": code.values,
            }
        blocks_payload.append(entry)
    return {
        "case": final.case_tag,
        "d": M.d,
        "perturbed": diag.perturbed,
        "num_ops_applied": len(diag.certificate),
        "box": {"lo": list(box.lo), "hi": list(box.hi)},
        "matrix": _matrix_payload(M),
        "blocks": blocks_payload,
    }


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _basis_expressions(
    grades: Sequence[Tuple[int, ...]],
    labels: Sequence[str],
    cert: Sequence[Op],
    kind: str,
) -> List[str]:
    """Rebuild each final basis element over the input basis.

    A column addition c_i -> c_j turns relation j into s_j + t^(gj-gi) s_i;
    a row addition r_l -> r_k rewrites generator l as g_l + t^(gl-gk) g_k.
    Exponents compose along the certificate order.
    """
    if not grades:
        return []
    zero = (0,) * len(grades[0])
    exprs: List[set] = [{(i, zero)} for i in range(len(grades))]
    for op in cert:
        if op.kind != kind:
            continue
        upd, base = (op.target, op.source) if kind == "col" else (op.source, op.target)
        # an exponent is a difference of grades, so it may leave the 64-bit range
        shift = tuple(map(sub, grades[upd], grades[base]))
        exprs[upd] = exprs[upd] ^ {
            (m, tuple(map(add, e, shift))) for (m, e) in exprs[base]
        }
    out = []
    for terms in exprs:
        parts = []
        for m, e in sorted(terms, key=lambda te: (te[1], te[0])):
            if all(x == 0 for x in e):
                parts.append(labels[m])
            else:
                parts.append("t^(" + ",".join(str(x) for x in e) + ")*" + labels[m])
        out.append(" + ".join(parts) if parts else "0")
    return out


def _decompose_text(final: Presentation, diag: Diagonalization) -> str:
    M = final.matrix
    lines = [
        f"case {final.case_tag}, {M.d} parameters, perturbed: "
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
        suffix = " (trivial)" if not b.rows else ""
        lines.append(f"  {pos}: rows=[{rows}] cols=[{cols}]{suffix}")
    return "\n".join(lines) + "\n"


def _betti_text(final: Presentation, diag: Diagonalization) -> str:
    lines = []
    for pos, (block, table) in enumerate(persistent_betti(final, diag.blocks)):
        labels = ",".join(final.matrix.row_labels[i] for i in block.rows)
        lines.append(f"block {pos} (generators {labels}):")
        for deg in range(table.max_degree_computed + 1):
            grades = " ".join(map(fmt, table.degree(deg)))
            lines.append(f"  beta_{deg}: {grades}".rstrip())
    return "\n".join(lines) + "\n"


def _blockcode_csv(codes: List[Blockcode], box: GradeBox) -> str:
    d = len(box.lo)
    header = ",".join(f"x{k + 1}" for k in range(d)) + ",block_id,dim"
    lines = [header]
    for pos, u in enumerate(box.grades()):
        for block_id, code in enumerate(codes):
            lines.append(
                ",".join(map(str, u)) + f",{block_id},{code.values[pos]}"
            )
    return "\n".join(lines) + "\n"


def _box_from_flag(flag: str) -> GradeBox:
    try:
        lo_part, hi_part = flag.split(":")
        lo = [int(x) for x in lo_part.split(",")]
        hi = [int(x) for x in hi_part.split(",")]
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
    return GradeBox(lo, hi)


# -- subcommands -------------------------------------------------------------


def _cmd_decompose(args: argparse.Namespace) -> str:
    final, diag = _pipeline(args)
    if args.format == "text":
        return _decompose_text(final, diag)
    box = args.box or default_box(final)
    if args.format == "csv":
        codes = blockcodes(final, diag.blocks, box)
        return _blockcode_csv(codes, box)
    return _dump_json(_decompose_payload(final, diag, box, with_invariants=True))


def _cmd_diagonalize(args: argparse.Namespace) -> str:
    final, diag = _pipeline(args, minimal=False)
    if args.format == "text":
        return _decompose_text(final, diag)
    box = args.box or default_box(final)
    return _dump_json(_decompose_payload(final, diag, box, with_invariants=False))


def _cmd_betti(args: argparse.Namespace) -> str:
    final, diag = _pipeline(args)
    if args.format == "text":
        return _betti_text(final, diag)
    payload = {
        "case": final.case_tag,
        "perturbed": diag.perturbed,
        "blocks": [
            {
                "rows": list(block.rows),
                "row_labels": [final.matrix.row_labels[i] for i in block.rows],
                "betti": {
                    str(deg): _grade_list(table.degree(deg))
                    for deg in range(table.max_degree_computed + 1)
                },
            }
            for block, table in persistent_betti(final, diag.blocks)
        ],
    }
    return _dump_json(payload)


def _cmd_blockcode(args: argparse.Namespace) -> str:
    final, diag = _pipeline(args)
    box = args.box or default_box(final)
    codes = blockcodes(final, diag.blocks, box)
    if args.format == "json":
        payload = {
            "box": {"lo": list(box.lo), "hi": list(box.hi)},
            "blocks": [
                {
                    "rows": list(c.block.rows),
                    "cols": list(c.block.cols),
                    "origin": list(c.origin),
                    "shape": list(c.shape),
                    "values": c.values,
                }
                for c in codes
            ],
        }
        return _dump_json(payload)
    return _blockcode_csv(codes, box)


def _cmd_check(args: argparse.Namespace) -> str:
    from .oracle import brute_force_finest  # here, so no other command loads it

    final, diag = _pipeline(args)
    reference = brute_force_finest(final.matrix)
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
    pres = minimize(_load(args))
    sorted_matrix, _, _ = sort_by_grade(pres.matrix)
    text = format_presentation(
        Presentation(sorted_matrix, case_tag=pres.case_tag, minimized=True)
    )
    if args.output is not None:
        args.output.write_text(text)
        return f"wrote {args.output}\n"
    return text


_COMMANDS = {
    "decompose": (_cmd_decompose, ("json", "text", "csv")),
    "diagonalize": (_cmd_diagonalize, ("json", "text")),
    "betti": (_cmd_betti, ("json", "text")),
    "blockcode": (_cmd_blockcode, ("csv", "json")),
    "check": (_cmd_check, ("text",)),
    "export-pres": (_cmd_export_pres, ("text",)),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Parsing leaves the parser unchanged, so repeated in-process calls of
    ``main`` share one instance instead of rebuilding six subparsers.
    """
    parser = argparse.ArgumentParser(
        prog="mpdecomp",
        description="Decompose multi-parameter persistence presentations "
        "into indecomposable blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", type=Path, help="mpfilt or mppres file")
        p.add_argument(
            "--dim",
            type=int,
            default=None,
            help="homology degree (filtration input only, default 0)",
        )
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument(
            "--perturb",
            action="store_true",
            help="break exactly tied grades by index order",
        )
        p.add_argument(
            "--box",
            default=None,
            help="override the evaluation box, 'lo1,..,lod:hi1,..,hid'",
        )
        if name == "export-pres":
            p.add_argument("--output", type=Path, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
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
