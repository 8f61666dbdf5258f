"""Exceptions shared across the package.

Three failure families matter to callers: bad input data, grade ties that
the caller has not opted to break, and internal consistency violations.
The CLI maps them to distinct exit codes.
"""
from __future__ import annotations


class InputError(ValueError):
    """Malformed or inconsistent input (files, grades, shapes, boxes)."""


class TiedGradesError(ValueError):
    """Identical grades on two rows or two columns, with perturbation off."""

    def __init__(self, kind: str, pairs):
        from .grades import fmt  # grades imports this module

        # pairs: iterable of (index, index, grade) triples
        self.kind = kind
        self.pairs = list(pairs)
        listing = ", ".join(f"{i}~{j} at {fmt(g)}" for i, j, g in self.pairs)
        super().__init__(
            f"tied {kind} grades ({listing}); rerun with perturbation enabled "
            "to break ties by index order"
        )


class InternalCheckError(RuntimeError):
    """A consistency check failed mid-computation; a bug, not bad input."""
