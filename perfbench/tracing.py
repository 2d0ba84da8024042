"""Spans around calls into the package's modules, and the per-layer
metrics computed from them.

Tracing patches public functions and `Tape` methods of `kegcn` for the
duration of a traced job, from these benchmark files only; the package
source is untouched.  Each span is (name, start, end, parent) and is
kept in memory until the run writes the trace out.  A span's self time
is its duration minus the time its child spans cover; self times grouped
by the module prefix of the span name attribute each epoch to modules.
"""

from __future__ import annotations

import bisect
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from functools import wraps

import numpy as np

from kegcn import autodiff, io as kio, metrics, numerics, propagation, scorers, tasks

MIB = float(1 << 20)
MODULES = ("io", "graph", "tasks", "propagation", "scorers", "autodiff", "numerics", "metrics")
EPOCH_MODULES = ("tasks", "propagation", "scorers", "autodiff", "numerics")

# Every public Tape method records one node, except the reverse pass and
# these composites, which are left unwrapped so their primitives carry the
# time.
TAPE_NOT_OPS = ("backward", "activate", "l1_distance", "l2_norm_sq")
NUMERICS = ("hamilton_product", "quaternion_conjugate", "unit_project",
            "unit_project_pullback", "softmax_row", "sigmoid")

REPORTED_OPS = ("gather", "segment_sum", "quat_mul", "quat_conj", "unit_project",
                "unit_project_pullback", "add", "sub", "mul", "scale", "matmul",
                "abs", "relu", "softmax_row", "leaf")
MOVED_OPS = ("gather", "segment_sum")
REPORTED_NUMERICS = ("hamilton_product", "unit_project_pullback")
TASK_SPANS = {"negatives": "tasks.negatives", "loss": "tasks.loss",
              "adam": "tasks.adam", "valid": "tasks.valid"}


class Tracer:
    """In-memory spans plus counter marks, both stamped with perf_counter."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.marks: list = []   # (name, time, value)
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def mark(self, name: str, value: float) -> None:
        self.marks.append((name, time.perf_counter(), value))


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _op_bytes(name: str, args, out_value) -> tuple:
    """Computed bytes moved (forward, backward) by one gather/segment_sum:
    arrays read plus arrays written, ignoring caches."""
    x, idx = args[0].value, args[1]
    idx_b = np.asarray(idx).size * 8
    if name == "gather":
        # fwd reads idx and rows, writes out; bwd zero-fills x, then
        # add.at reads g and idx and read-modify-writes the touched rows
        return idx_b + 2 * out_value.nbytes, x.nbytes + idx_b + 3 * out_value.nbytes
    # segment_sum: fwd zero-fills out, add.at reads x and idx and
    # read-modify-writes rows; bwd g[idx] reads idx and rows, writes x-shape
    return out_value.nbytes + idx_b + 3 * x.nbytes, idx_b + 2 * x.nbytes


class _Patches:
    def __init__(self):
        self._saved: list = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


@contextmanager
def instrument(tr: Tracer):
    """Patch the package so every traced call opens a span on `tr`."""
    p = _Patches()
    Tape = autodiff.Tape

    def op(name, orig):
        fwd_name, bwd_name = f"autodiff.op.{name}.fwd", f"autodiff.op.{name}.bwd"

        def method(self, *args, **kwargs):
            i = tr.open(fwd_name)
            try:
                var = orig(self, *args, **kwargs)
            finally:
                tr.close(i)
            tr.mark(f"autodiff.op.{name}.calls", 1)
            node = self.nodes[var.index]
            moved = _op_bytes(name, args, node.value) if name in MOVED_OPS else None
            if moved:
                tr.mark(f"autodiff.op.{name}.bytes", moved[0])
            if node.vjp is not None:
                node.vjp = vjp_wrapper(node.vjp, moved)
            return var

        def vjp_wrapper(vjp, moved):
            def traced(g):
                i = tr.open(bwd_name)
                try:
                    return vjp(g)
                finally:
                    tr.close(i)
                    if moved:
                        tr.mark(f"autodiff.op.{name}.bytes", moved[1])
            return traced

        return method

    for name, fn in list(vars(Tape).items()):
        if callable(fn) and not name.startswith("_") and name not in TAPE_NOT_OPS:
            p.set(Tape, name, op(name, fn))

    orig_backward = Tape.backward

    def backward(self, loss):
        with tr.span("trace.bookkeeping"):
            tr.mark("autodiff.tape_nodes", len(self.nodes))
            tr.mark("autodiff.tape_bytes", sum(n.value.nbytes for n in self.nodes))
        i = tr.open("autodiff.backward")
        try:
            return orig_backward(self, loss)
        finally:
            tr.close(i)

    p.set(Tape, "backward", backward)

    layer = [0]
    fwd = tr.wrap("propagation.forward", propagation.forward_on_tape)

    def forward_on_tape(*args, **kwargs):
        layer[0] = 0
        return fwd(*args, **kwargs)

    p.set(propagation, "forward_on_tape", forward_on_tape)
    p.set(tasks, "forward_on_tape", forward_on_tape)
    orig_layer = propagation.layer_forward_tape

    def layer_forward_tape(tape, *args, **kwargs):
        k, before = layer[0], len(tape.nodes)
        layer[0] += 1
        i = tr.open(f"propagation.layer{k}")
        try:
            return orig_layer(tape, *args, **kwargs)
        finally:
            tr.close(i)
            with tr.span("trace.bookkeeping"):
                new = tape.nodes[before:]
                tr.mark(f"propagation.layer{k}.tape_nodes", len(new))
                tr.mark(f"propagation.layer{k}.tape_bytes", sum(n.value.nbytes for n in new))

    p.set(propagation, "layer_forward_tape", layer_forward_tape)

    for cls in scorers.SCORERS.values():
        if "messages" in cls.__dict__:
            p.set(cls, "messages", tr.wrap("scorers.messages", cls.__dict__["messages"]))
    for name in NUMERICS:
        if hasattr(numerics, name):
            p.set(numerics, name, tr.wrap(f"numerics.{name}", getattr(numerics, name)))
    for attr, span in (("sample_negatives", "tasks.negatives"),
                       ("alignment_loss", "tasks.loss"),
                       ("classification_loss", "tasks.loss"),
                       ("evaluate_alignment", "tasks.valid"),
                       ("evaluate_classification", "tasks.valid"),
                       ("model_forward", "tasks.final_forward"),
                       ("l1_cdist", "tasks.cdist")):
        p.set(tasks, attr, tr.wrap(span, getattr(tasks, attr)))
    p.set(tasks.Adam, "step", tr.wrap("tasks.adam", tasks.Adam.step))
    p.set(metrics, "ranks_from_distance_matrix",
          tr.wrap("metrics.ranks", metrics.ranks_from_distance_matrix))
    build = tr.wrap("graph.build", kio.build_graph)

    def build_graph(*args, **kwargs):
        g = build(*args, **kwargs)
        tr.mark("graph.triples", g.num_triples)
        return g

    p.set(kio, "build_graph", build_graph)
    try:
        yield
    finally:
        p.restore()


@contextmanager
def epoch_memory(peaks: list):
    """tracemalloc on for the block; `reset()` closes one epoch's window,
    appending its peak traced bytes to `peaks`."""
    tracemalloc.start()

    def reset():
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    try:
        yield reset
    finally:
        tracemalloc.stop()


# ---------------- per-layer metrics ----------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _window(t: float, bounds) -> int:
    """Index i with bounds[i] <= t < bounds[i + 1], or -1 outside."""
    i = bisect.bisect_right(bounds, t) - 1
    return i if 0 <= i < len(bounds) - 1 else -1


def epoch_rows(tr: Tracer, bounds, peaks) -> list:
    """One dict of per-layer values per epoch; bounds are the train start
    followed by each progress-callback timestamp."""
    n = len(bounds) - 1
    rows = [dict() for _ in range(n)]
    selfs = self_times(tr.spans)

    def add(row, key, value):
        row[key] = row.get(key, 0.0) + value

    for (name, start, end, _), own in zip(tr.spans, selfs):
        e = _window(start, bounds)
        # the benchmark's span around the whole training call is the epochs'
        # common parent; its self time is what no module span covers
        if e < 0 or name == "tasks.train":
            continue
        row = rows[e]
        add(row, name, 1000.0 * (end - start))
        module = name.split(".", 1)[0]
        if module in MODULES:
            add(row, f"{module}.epoch_self_ms", 1000.0 * own)
    for name, t, value in tr.marks:
        e = _window(t, bounds)
        if e >= 0:
            add(rows[e], name, value)
    for e, row in enumerate(rows):
        duration = 1000.0 * (bounds[e + 1] - bounds[e])
        attributed = sum(row.get(f"{m}.epoch_self_ms", 0.0) for m in MODULES)
        row["epoch_ms"] = duration
        row["unattributed_frac"] = 1.0 - attributed / duration
        if e < len(peaks):
            row["peak_bytes"] = peaks[e]
    return rows


def _during(spans, i: int):
    """The spans opened while span i was open, i.e. its descendants."""
    end = spans[i][2]
    for span in spans[i + 1:]:
        if span[1] >= end:
            break
        yield span


def eval_samples(tr: Tracer) -> list:
    """Per evaluation pass: the final forward time before it, its own time,
    and the cdist / ranks time inside it (ms)."""
    out, forward = [], 0.0
    for i, (name, start, end, _) in enumerate(tr.spans):
        if name == "tasks.final_forward":
            forward += 1000.0 * (end - start)
        elif name == "tasks.eval":
            inner = {"tasks.cdist": 0.0, "metrics.ranks": 0.0}
            for other, s2, e2, _ in _during(tr.spans, i):
                if other in inner:
                    inner[other] += 1000.0 * (e2 - s2)
            out.append({"final_forward": forward, "eval": 1000.0 * (end - start),
                        "cdist": inner["tasks.cdist"], "ranks": inner["metrics.ranks"]})
            forward = 0.0
    return out


def load_samples(tr: Tracer) -> list:
    """Per `io.load` span: its seconds, graph build seconds and triples inside."""
    out = []
    for i, (name, start, end, _) in enumerate(tr.spans):
        if name == "io.load":
            build = sum(e2 - s2 for n2, s2, e2, _ in _during(tr.spans, i) if n2 == "graph.build")
            triples = sum(v for n2, t, v in tr.marks if n2 == "graph.triples" and start <= t <= end)
            out.append({"load_s": end - start, "build_s": build, "triples": triples})
    return out


def per_layer_metrics(tr: Tracer, bounds, peaks, untraced_epoch_ms: list,
                      layers: int) -> dict:
    rows = epoch_rows(tr, bounds, peaks)

    def med(key, scale=1.0):
        return _median([r.get(key, 0.0) * scale for r in rows])

    m = {}
    for op in REPORTED_OPS:
        m[f"autodiff.op.{op}.fwd_ms"] = med(f"autodiff.op.{op}.fwd")
        if op != "leaf":
            m[f"autodiff.op.{op}.bwd_ms"] = med(f"autodiff.op.{op}.bwd")
        m[f"autodiff.op.{op}.calls"] = med(f"autodiff.op.{op}.calls")
        if op in MOVED_OPS:
            m[f"autodiff.op.{op}.mib_moved"] = med(f"autodiff.op.{op}.bytes", 1 / MIB)
    m["scorers.messages_ms"] = med("scorers.messages")
    for name in REPORTED_NUMERICS:
        m[f"numerics.{name}_ms"] = med(f"numerics.{name}")
    m["autodiff.tape_nodes"] = med("autodiff.tape_nodes")
    m["autodiff.backward_ms"] = med("autodiff.backward")
    m["autodiff.tape_mib"] = med("autodiff.tape_bytes", 1 / MIB)
    m["tasks.epoch_traced_peak_mib"] = med("peak_bytes", 1 / MIB)
    m["propagation.forward_ms"] = med("propagation.forward")
    for layer in (f"layer{k}" for k in range(layers)):
        m[f"propagation.{layer}.forward_ms"] = med(f"propagation.{layer}")
        m[f"propagation.{layer}.tape_nodes"] = med(f"propagation.{layer}.tape_nodes")
        m[f"propagation.{layer}.tape_mib"] = med(f"propagation.{layer}.tape_bytes", 1 / MIB)
    for key, span in TASK_SPANS.items():
        m[f"tasks.{key}_ms"] = med(span)
    for module in EPOCH_MODULES:
        m[f"{module}.epoch_self_ms"] = med(f"{module}.epoch_self_ms")

    evals = eval_samples(tr)
    m["tasks.final_forward_ms"] = _median([s["final_forward"] for s in evals])
    m["tasks.eval_ms"] = _median([s["eval"] for s in evals])
    m["tasks.cdist_ms"] = _median([s["cdist"] for s in evals])
    m["metrics.ranks_ms"] = _median([s["ranks"] for s in evals])
    loads = load_samples(tr)
    m["io.load_s"] = _median([s["load_s"] for s in loads])
    m["graph.build_s"] = _median([s["build_s"] for s in loads])
    m["graph.triples"] = _median([s["triples"] for s in loads])
    traced_p50 = _median([r["epoch_ms"] for r in rows])
    m["trace.overhead_frac"] = traced_p50 / _median(untraced_epoch_ms) - 1.0
    m["trace.unattributed_frac"] = med("unattributed_frac")
    return m


def spans_record(tr: Tracer, bounds) -> dict:
    return {"epoch_bounds": list(bounds), "spans": tr.spans,
            "marks": [list(mk) for mk in tr.marks]}
