"""Span recording around the layer calls of the harmrec pipeline.

A :class:`Tracer` replaces the module attributes the pipeline calls through
with wrappers that record one span per call, and puts the originals back on
``uninstall``.  Nothing under ``src/`` changes: an untraced operation runs
the library exactly as shipped.

A span holds its name, start and end (``time.perf_counter``), the index of
the span that was open when it started, the operation it belongs to, and
counts taken from the call's arguments or result after the span closed.
Spans stay in memory until the run ends.  A wrapped attribute the library
no longer has, or a count that cannot be taken, is an error: it fails the
run or the operation rather than reading 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(path_pos, path_name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, path_pos, path_name)),
                "files": 1}
    return count


def _stack_bytes(args, kwargs, result):
    fields = getattr(result, "fields", None)
    return {"stack_bytes": 0 if fields is None else fields.nbytes}


def _cg_counts(args, kwargs, result):
    u = _arg(args, kwargs, 0, "u")
    interior = (u.shape[0] - 2) * (u.shape[1] - 2)
    return {"cg_iters": result[0], "cg_node_iters": result[0] * interior}


def _stack_shape(args, kwargs, result):
    """Rows and columns of the stacked least-squares matrix of one fit."""
    from harmrec import tikhonov

    system = _arg(args, kwargs, 0, "sys")
    w_f, w_g = _arg(args, kwargs, 2, "cfg").data_weights
    rows = tikhonov._penalty_factor(system).shape[0]
    rows += 2 * system.A.shape[0] if w_f > 0 else 0
    rows += system.B.shape[0] if w_g > 0 else 0
    return {"stack_rows": rows, "stack_cols": system.A.shape[1]}


def _svg_counts(args, kwargs, result):
    counts = _file_bytes(1, "path")(args, kwargs, result)
    counts["cells"] = _arg(args, kwargs, 0, "fld").values.size
    return counts


# (module, attribute, span name, counter).  The module is the one whose
# global the caller looks up at call time, so `basis.solve_dirichlet` and
# `measure.solve_dirichlet` are the same solver seen from its two callers.
TARGETS = [
    ("harmrec.pipeline", "build_state", "pipeline.build_state", None),
    ("harmrec.pipeline", "build_grid", "grid.build_grid", None),
    ("harmrec.pipeline", "boundary_partition", "grid.boundary_partition", None),
    ("harmrec.pipeline", "build_basis", "basis.build_basis", None),
    ("harmrec.pipeline", "compute_base_solutions", "basis.base_solves", _stack_bytes),
    ("harmrec.pipeline", "assemble_system", "basis.assemble", None),
    ("harmrec.pipeline", "compute_indicate", "measure.indicate", None),
    ("harmrec.pipeline", "reliable_region", "measure.reliable_region", None),
    ("harmrec.pipeline", "trace_cauchy", "forward.trace", None),
    ("harmrec.pipeline", "sample_exact", "forward.sample_exact", None),
    ("harmrec.pipeline", "add_noise", "forward.add_noise", None),
    ("harmrec.pipeline", "reconstruct", "tikhonov.reconstruct", _stack_shape),
    ("harmrec.tikhonov", "reconstruct_field", "tikhonov.field", None),
    ("harmrec.basis", "solve_dirichlet", "poisson.solve.basis", None),
    ("harmrec.measure", "solve_dirichlet", "poisson.solve.measure", None),
    ("harmrec.poisson", "cg_dirichlet", "kernels.cg", _cg_counts),
    ("harmrec.measure", "marching_squares", "contour.marching", None),
    ("harmrec.evaluate", "pointwise_error", "evaluate.pointwise_error", None),
    ("harmrec.evaluate", "envelope_check", "evaluate.envelope_check", None),
    ("harmrec.evaluate", "reliability_summary", "evaluate.reliability_summary", None),
    ("harmrec.evaluate", "auto_probe_nodes", "evaluate.auto_probe_nodes", None),
    ("harmrec.evaluate", "rate_fit", "evaluate.rate_fit", None),
    ("harmrec.evaluate", "spearman_rank", "evaluate.spearman_rank", None),
    ("harmrec.io", "write_field_csv", "io.write_field_csv", _file_bytes(0, "path")),
    ("harmrec.io", "write_vector_csv", "io.write_vector_csv", _file_bytes(0, "path")),
    ("harmrec.io", "write_cauchy_csv", "io.write_cauchy_csv", _file_bytes(0, "path")),
    ("harmrec.io", "dump_json", "io.dump_json", _file_bytes(0, "path")),
    ("harmrec.svg", "render_heatmap", "svg.render", _svg_counts),
]


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def first(self, name: str) -> float:
        """Duration of the first span of that name in the process, else 0."""
        return next((s.seconds for s in self.spans if s.name == name), 0.0)

    def to_jsonable(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.counts} for s in self.spans]


class OpSpans:
    """The spans of one operation, rooted at its ``op`` span."""

    def __init__(self, spans: list[Span], indices: list[int]):
        self.spans = spans
        self.indices = indices

    def _outermost(self, prefix: str):
        """Spans whose name starts with prefix and that no such span encloses."""
        for i in self.indices:
            s = self.spans[i]
            if not s.name.startswith(prefix):
                continue
            p = s.parent
            while p is not None and not self.spans[p].name.startswith(prefix):
                p = self.spans[p].parent
            if p is None:
                yield s

    def seconds(self, prefix: str) -> float:
        return float(sum(s.seconds for s in self._outermost(prefix)))

    def calls(self, prefix: str) -> int:
        return sum(1 for _ in self._outermost(prefix))

    def total(self, key: str, prefix: str = "") -> int:
        return sum(self.spans[i].counts.get(key, 0) for i in self.indices
                   if self.spans[i].name.startswith(prefix))

    def largest(self, key: str) -> int:
        return max((self.spans[i].counts.get(key, 0) for i in self.indices), default=0)

    def _self(self) -> dict[int, float]:
        """Each span's duration minus what its child spans cover."""
        own = {i: self.spans[i].seconds for i in self.indices}
        for i in self.indices:
            p = self.spans[i].parent
            if p is not None:
                own[p] -= self.spans[i].seconds
        return own

    def self_seconds(self, prefix: str) -> float:
        return float(sum(t for i, t in self._self().items()
                         if self.spans[i].name.startswith(prefix)))

    def self_by_layer(self) -> dict[str, float]:
        """Self time per layer (the span name up to its first dot); the
        operation's own span, time in no wrapped call, is `unaccounted`.
        The values add up to the operation's duration."""
        layers: dict[str, float] = defaultdict(float)
        for i, t in self._self().items():
            name = self.spans[i].name
            layers["unaccounted" if name == "op" else name.split(".")[0]] += t
        return layers


# Per-operation layer metrics: (name, unit, exact count?, function of OpSpans).
# Times are reported as the median over traced operations; counts as the
# mean per operation over whole cycles, which repeats exactly.
LAYER_METRICS = [
    ("pipeline.build_state_s", "s", False, lambda o: o.seconds("pipeline.build_state")),
    ("pipeline.self_s", "s", False,
     lambda o: o.self_seconds("op") + o.self_seconds("pipeline.")),
    ("grid.build_s", "s", False, lambda o: o.seconds("grid.")),
    ("basis.base_solves_s", "s", False, lambda o: o.seconds("basis.base_solves")),
    ("basis.assemble_s", "s", False, lambda o: o.seconds("basis.assemble")),
    ("basis.n_solves", "count", True, lambda o: o.calls("poisson.solve.basis")),
    ("basis.stack_mb", "MB", True, lambda o: o.largest("stack_bytes") / MB),
    ("poisson.solve_calls.basis", "count", True, lambda o: o.calls("poisson.solve.basis")),
    ("poisson.solve_s.basis", "s", False, lambda o: o.seconds("poisson.solve.basis")),
    ("poisson.solve_calls.measure", "count", True,
     lambda o: o.calls("poisson.solve.measure")),
    ("poisson.solve_s.measure", "s", False, lambda o: o.seconds("poisson.solve.measure")),
    ("kernels.cg_iters", "count", True, lambda o: o.total("cg_iters")),
    ("kernels.cg_node_iters", "count", True, lambda o: o.total("cg_node_iters")),
    ("measure.indicate_s", "s", False, lambda o: o.seconds("measure.indicate")),
    ("contour.marching_s", "s", False, lambda o: o.seconds("contour.marching")),
    ("forward.add_noise_s", "s", False, lambda o: o.seconds("forward.add_noise")),
    ("forward.trace_s", "s", False, lambda o: o.seconds("forward.trace")),
    ("tikhonov.reconstruct_s", "s", False, lambda o: o.seconds("tikhonov.reconstruct")),
    ("tikhonov.reconstructs", "count", True, lambda o: o.calls("tikhonov.reconstruct")),
    ("tikhonov.fit_s", "s", False, lambda o: o.self_seconds("tikhonov.reconstruct")),
    ("tikhonov.field_s", "s", False, lambda o: o.seconds("tikhonov.field")),
    ("tikhonov.stack_rows", "count", True, lambda o: o.largest("stack_rows")),
    ("tikhonov.stack_cols", "count", True, lambda o: o.largest("stack_cols")),
    ("evaluate.s", "s", False, lambda o: o.seconds("evaluate.")),
    ("io.write_s", "s", False, lambda o: o.seconds("io.")),
    ("io.bytes", "B", True, lambda o: o.total("bytes", "io.")),
    ("io.files", "count", True, lambda o: o.total("files", "io.")),
    ("svg.render_s", "s", False, lambda o: o.seconds("svg.")),
    ("svg.bytes", "B", True, lambda o: o.total("bytes", "svg.")),
    ("svg.cells", "count", True, lambda o: o.total("cells", "svg.")),
]

# Layers of the self-time partition, in the order the report lists them.
SELF_LAYERS = ["pipeline", "grid", "basis", "poisson", "kernels", "measure", "contour",
               "forward", "tikhonov", "evaluate", "io", "svg"]


def layer_metrics(tracer: Tracer, cycles: list[list[int]]) -> tuple[dict, bool]:
    """Per-layer metrics over the traced cycles, and whether counts repeat.

    ``cycles`` holds, per traced cycle, the ids of its operations.  Every
    cycle runs the same inputs, so each exact count must sum to the same
    value in every cycle.
    """
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        if s.op is not None:
            by_op.setdefault(s.op, []).append(i)
    ops = {op: OpSpans(tracer.spans, idx) for op, idx in by_op.items()}
    metrics, repeat = {}, True
    for name, unit, exact, fn in LAYER_METRICS:
        if exact:
            sums = [sum(fn(ops[op]) for op in cycle) for cycle in cycles]
            repeat &= len(set(sums)) == 1
            value = sums[0] / len(cycles[0])
        else:
            value = statistics.median(fn(ops[op]) for cycle in cycles for op in cycle)
        metrics[name] = (value, unit)

    # The self-time partition: means per traced operation, so that they add
    # up to the mean traced operation time.
    traced = [ops[op].self_by_layer() for cycle in cycles for op in cycle]
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = (statistics.fmean(t[layer] for t in traced), "s")
    metrics["trace.unaccounted_s"] = (statistics.fmean(t["unaccounted"] for t in traced), "s")
    metrics["trace.self_sum_s"] = (statistics.fmean(sum(t.values()) for t in traced), "s")
    return metrics, repeat
