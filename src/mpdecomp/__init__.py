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
from .filtration import Filtration, Simplex, boundary_matrix, parse_filtration
from .graded import AdmissibleOps, GradedMatrix, admissible_ops, sort_by_grade
from .grades import leq, tied_pairs, topo_order
from .invariants import (
    BettiTable,
    Blockcode,
    GradeBox,
    betti01,
    betti_higher_2param,
    blockcodes,
    default_box,
    dimension_function,
    persistent_betti,
    restrict_presentation,
)
from .presentation import (
    KernelElement,
    Presentation,
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
    "BettiTable",
    "Blockcode",
    "Diagonalization",
    "F2Matrix",
    "Filtration",
    "GradeBox",
    "GradedMatrix",
    "IndexBlock",
    "InputError",
    "InternalCheckError",
    "KernelElement",
    "Op",
    "Presentation",
    "Simplex",
    "TiedGradesError",
    "admissible_ops",
    "betti01",
    "betti_higher_2param",
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
    "restrict_presentation",
    "rewrite_in_basis",
    "sort_by_grade",
    "tied_pairs",
    "topo_order",
    "tot_diagonalize",
]
