"""Spans and counters around the library's layers, recorded from outside.

The library has no instrumentation of its own, so the traced run replaces
public functions where their callers look them up (for example
``mpdecomp.cli.tot_diagonalize`` or ``AdmissibleOps.col_sources``) with
wrappers that record one span per call: name, start, end, parent span and
input id.  Spans stay in memory, in flat arrays, until the run ends.
Layer self times are span durations minus the time covered by child spans.

Counting hooks (matrix sizes, whether a ``block_reduce`` call had anything
to clear) run outside the wrapped call in a span of their own,
``trace.hook``, so their cost never lands in a layer's self time.
"""
from __future__ import annotations

import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Pipeline order; a span's layer is the part of its name before the dot.
LAYERS = ["filtration", "presentation", "graded", "diagonalize", "f2", "invariants", "cli"]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.idx = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.input = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self.input_id = -1
        self._next = 0
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, idx: int, nid: int, parent: int, t0: float, t1: float) -> None:
        self.idx.append(idx)
        self.name.append(nid)
        self.parent.append(parent)
        self.input.append(self.input_id)
        self.start.append(t0)
        self.end.append(t1)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = self._next
        self._next += 1
        stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._record(idx, self._nid(name), parent, t0, t1)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        """Replace owner.attr by a spanned wrapper until unwrap_all().

        pre(args) runs before the call and its result is passed on to
        post(args, result, state) after it; both are timed as trace.hook.
        """
        fn = getattr(owner, attr)
        nid = self._nid(name)
        hook = self._nid("trace.hook")
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = None
            if pre is not None:
                h0 = perf_counter()
                state = pre(args)
                record(self._next, hook, parent, h0, perf_counter())
                self._next += 1
            idx = self._next
            self._next += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                record(idx, nid, parent, t0, t1)
            if post is not None:
                h0 = perf_counter()
                post(args, result, state)
                record(self._next, hook, parent, h0, perf_counter())
                self._next += 1
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- results --------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        order = np.argsort(np.frombuffer(self.idx, dtype=np.int64), kind="stable")
        idx = np.frombuffer(self.idx, dtype=np.int64)[order]
        if len(idx) and not np.array_equal(idx, np.arange(len(idx))):
            raise RuntimeError("span ids are not dense; a span never closed")
        return {
            "name": np.frombuffer(self.name, dtype=np.int64)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
            "input": np.frombuffer(self.input, dtype=np.int64)[order],
            "start": np.frombuffer(self.start, dtype=np.float64)[order],
            "end": np.frombuffer(self.end, dtype=np.float64)[order],
        }

    def self_ms(self) -> Dict[str, float]:
        """Self time in ms summed per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - covered[: len(dur)]
        per_name = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return {n: float(per_name[i]) * 1e3 for i, n in enumerate(self.names)}

    def layer_inclusive_ms(self) -> Dict[str, float]:
        """Time inside each layer, callees in other layers included.

        Sums the spans whose parent lies in another layer (the entries into
        the layer), so nested calls of one layer are not counted twice.
        """
        a = self.arrays()
        prefixes = [n.split(".")[0] for n in self.names]
        layer_of = np.array(
            [LAYERS.index(p) if p in LAYERS else -1 for p in prefixes], dtype=np.int64
        )
        span_layer = layer_of[a["name"]]
        parent_layer = np.where(a["parent"] >= 0, span_layer[np.maximum(a["parent"], 0)], -2)
        entry = (span_layer >= 0) & (span_layer != parent_layer)
        dur = a["end"] - a["start"]
        per_layer = np.bincount(span_layer[entry], weights=dur[entry], minlength=len(LAYERS))
        return {layer: float(per_layer[i]) * 1e3 for i, layer in enumerate(LAYERS)}

    def call_counts(self) -> Dict[str, int]:
        per_name = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {n: int(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


# -- what the benchmark wraps ------------------------------------------------


def _grid_points(M) -> int:
    if not M.n_cols:
        return 0
    return math.prod(len({g[k] for g in M.col_grades}) for k in range(M.d))


def instrument(t: Tracer) -> None:
    """Wrap the library's layer entry points; undo with t.unwrap_all()."""
    import mpdecomp.cli as cli
    import mpdecomp.diagonalize as diagonalize
    import mpdecomp.filtration as filtration
    import mpdecomp.graded as graded
    import mpdecomp.invariants as invariants
    import mpdecomp.presentation as presentation

    c = t.counts

    def raw_shape(args, pres, state):
        c["presentation.raw_rows"] += pres.n_rows
        c["presentation.raw_cols"] += pres.n_cols

    def min_shape(args, pres, state):
        c["presentation.min_rows"] += pres.n_rows
        c["presentation.min_cols"] += pres.n_cols

    def grid(args):
        c["presentation.kernel_grid_points"] += _grid_points(args[0])

    def diag_result(args, diag, state):
        c["diagonalize.certificate_ops"] += len(diag.certificate)
        c["diagonalize.blocks"] += len(diag.blocks)

    def region_clear(args):
        # True when T's rows over T's columns <= t hold no entry yet
        A, T, last = args[0], args[2], args[3]
        mask = 0
        for i in T.rows:
            mask |= 1 << i
        cols = A.mat.cols
        return not any(cols[j] & mask for j in T.cols if j <= last)

    def reduce_result(args, ok, was_clear):
        c["diagonalize.block_reduce_noop"] += was_clear
        c["diagonalize.block_reduce_merge"] += not ok

    def sources(args):
        S = args[0]
        c["f2.sources"] += S.n_cols
        c["f2.vector_bits"] += S.n_rows

    def box(args):
        c["invariants.box_points"] += math.prod(args[1].shape)

    t.wrap(cli, "parse_filtration", "filtration.parse")
    t.wrap(filtration, "boundary_matrix", "filtration.boundary")
    t.wrap(cli, "parse_presentation", "presentation.parse")
    for name in ("pres_h0", "pres_2param", "pres_dparam"):
        t.wrap(cli, name, "presentation.build", post=raw_shape)
    t.wrap(presentation, "kernel_gens", "presentation.kernel_gens", pre=grid)
    t.wrap(presentation, "rewrite_in_basis", "presentation.rewrite")
    t.wrap(cli, "minimize", "presentation.minimize", post=min_shape)
    t.wrap(cli, "format_presentation", "presentation.format")
    t.wrap(cli, "sort_by_grade", "graded.sort")
    t.wrap(diagonalize, "admissible_ops", "graded.admissible_ops")
    t.wrap(graded.AdmissibleOps, "col_sources", "graded.col_sources")
    t.wrap(graded.AdmissibleOps, "row_sources", "graded.row_sources")
    t.wrap(cli, "tot_diagonalize", "diagonalize.tot_diagonalize", post=diag_result)
    t.wrap(diagonalize, "block_reduce", "diagonalize.block_reduce", pre=region_clear, post=reduce_result)
    t.wrap(diagonalize, "col_reduce", "f2.col_reduce", pre=sources)
    t.wrap(cli, "default_box", "invariants.default_box")
    t.wrap(cli, "persistent_betti", "invariants.betti")
    t.wrap(invariants, "kernel_gens", "invariants.kernel_gens")
    t.wrap(cli, "blockcodes", "invariants.blockcodes")
    t.wrap(invariants, "dimension_function", "invariants.dimension_function", pre=box)


def layer_metrics(t: Tracer, passes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one pass over the input pool."""
    own = defaultdict(float, t.self_ms())
    calls = defaultdict(int, t.call_counts())
    c = t.counts

    def per_pass(x: float) -> float:
        return x / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layer_ms = {layer: 0.0 for layer in LAYERS}
    for name, ms in own.items():
        layer = name.split(".")[0]
        if layer in layer_ms:
            layer_ms[layer] += ms
    traced_ms = sum(layer_ms.values())
    n_reduce = calls["diagonalize.block_reduce"]
    n_col_reduce = calls["f2.col_reduce"]
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (per_pass(layer_ms[layer]), "ms")
        m[f"{layer}.share"] = (ratio(layer_ms[layer], traced_ms), "ratio")
    m.update({
        "filtration.parse_ms": (per_pass(own["filtration.parse"]), "ms"),
        "filtration.boundary_ms": (per_pass(own["filtration.boundary"]), "ms"),
        "presentation.build_ms": (per_pass(own["presentation.build"]), "ms"),
        "presentation.kernel_gens_calls": (per_pass(calls["presentation.kernel_gens"]), "count"),
        "presentation.kernel_gens_ms": (per_pass(own["presentation.kernel_gens"]), "ms"),
        "presentation.kernel_grid_points": (per_pass(c["presentation.kernel_grid_points"]), "count"),
        "presentation.rewrite_ms": (per_pass(own["presentation.rewrite"]), "ms"),
        "presentation.minimize_ms": (per_pass(own["presentation.minimize"]), "ms"),
        "presentation.format_ms": (per_pass(own["presentation.format"]), "ms"),
        "presentation.raw_rows": (per_pass(c["presentation.raw_rows"]), "count"),
        "presentation.raw_cols": (per_pass(c["presentation.raw_cols"]), "count"),
        "presentation.min_rows": (per_pass(c["presentation.min_rows"]), "count"),
        "presentation.min_cols": (per_pass(c["presentation.min_cols"]), "count"),
        "graded.sort_ms": (per_pass(own["graded.sort"]), "ms"),
        "graded.admissible_ops_ms": (per_pass(own["graded.admissible_ops"]), "ms"),
        "graded.col_sources_calls": (per_pass(calls["graded.col_sources"]), "count"),
        "graded.col_sources_ms": (per_pass(own["graded.col_sources"]), "ms"),
        "diagonalize.total_ms": (
            per_pass(own["diagonalize.tot_diagonalize"] + own["diagonalize.block_reduce"]), "ms"
        ),
        "diagonalize.block_reduce_calls": (per_pass(n_reduce), "count"),
        "diagonalize.block_reduce_ms": (per_pass(own["diagonalize.block_reduce"]), "ms"),
        "diagonalize.block_reduce_noop_ratio": (ratio(c["diagonalize.block_reduce_noop"], n_reduce), "ratio"),
        "diagonalize.merge_ratio": (ratio(c["diagonalize.block_reduce_merge"], n_reduce), "ratio"),
        "diagonalize.certificate_ops": (per_pass(c["diagonalize.certificate_ops"]), "count"),
        "diagonalize.blocks": (per_pass(c["diagonalize.blocks"]), "count"),
        "f2.col_reduce_calls": (per_pass(n_col_reduce), "count"),
        "f2.col_reduce_ms": (per_pass(own["f2.col_reduce"]), "ms"),
        "f2.sources_per_call": (ratio(c["f2.sources"], n_col_reduce), "count"),
        "f2.vector_bits_per_call": (ratio(c["f2.vector_bits"], n_col_reduce), "bits"),
        "invariants.betti_ms": (per_pass(own["invariants.betti"]), "ms"),
        "invariants.kernel_gens_ms": (per_pass(own["invariants.kernel_gens"]), "ms"),
        "invariants.blockcodes_ms": (
            per_pass(own["invariants.blockcodes"] + own["invariants.dimension_function"]), "ms"
        ),
        "invariants.dimension_function_calls": (per_pass(calls["invariants.dimension_function"]), "count"),
        "invariants.box_points": (per_pass(c["invariants.box_points"]), "count"),
        "cli.output_bytes": (per_pass(c["cli.output_bytes"]), "bytes"),
    })
    return m
