"""Decomposition of finitely presented multi-parameter persistence modules.

The core objects are graded matrices over the two-element field: rows carry
generator grades, columns carry relation grades, and only grade-compatible
row and column additions are allowed.  Total diagonalization splits such a
matrix into its finest block structure, which gives the direct sum
decomposition of the presented module.
"""
from __future__ import annotations

from .diagonalize import (
    Diagonalization,
    IndexBlock,
    Op,
    block_reduce,
    replay_certificate,
    tot_diagonalize,
)
from .errors import InputError, InternalCheckError, TiedGradesError
from .f2 import F2Matrix, col_reduce
from .filtration import Filtration, boundary_matrix, parse_filtration
from .graded import AdmissibleOps, GradedMatrix, admissible_ops, sort_by_grade
from .grades import leq, tied_pairs, topo_order
from .invariants import (
    GradeBox,
    blockcodes,
    default_box,
    dimension_function,
    persistent_betti,
    summands,
)
from .presentation import (
    format_presentation,
    kernel_gens,
    minimize,
    parse_presentation,
    pres_2param,
    pres_dparam,
    pres_h0,
    rewrite_in_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleOps",
    "Diagonalization",
    "F2Matrix",
    "Filtration",
    "GradeBox",
    "GradedMatrix",
    "IndexBlock",
    "InputError",
    "InternalCheckError",
    "Op",
    "TiedGradesError",
    "admissible_ops",
    "block_reduce",
    "blockcodes",
    "boundary_matrix",
    "col_reduce",
    "default_box",
    "dimension_function",
    "format_presentation",
    "kernel_gens",
    "leq",
    "minimize",
    "parse_filtration",
    "parse_presentation",
    "persistent_betti",
    "pres_2param",
    "pres_dparam",
    "pres_h0",
    "replay_certificate",
    "rewrite_in_basis",
    "sort_by_grade",
    "summands",
    "tied_pairs",
    "topo_order",
    "tot_diagonalize",
]
