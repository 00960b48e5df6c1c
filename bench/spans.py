"""Spans around the calls into swinscan's modules, recorded from outside.

``instrument`` replaces each public function named in LAYERS with a
wrapper that records one span per call: its id, name, start, end, parent
span and root span, plus an amount of work (bytes, pixels) where one
applies.  Spans of one request or optimizer step share their root.
Spans stay in memory; ``Tracer.dump`` writes them out when the traced
process ends.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# tensor op types, one per differentiable operation the model and the
# trainer call
TENSOR_OPS = (
    "matmul", "add", "scale", "reshape", "permute", "roll", "take_rows",
    "slice_axis", "reduce_mean", "softmax_lastdim", "layer_norm", "gelu",
    "cross_entropy",
)

# (module, owner attribute path, amount kind) for every wrapped call;
# span names are "<module>.<owner path>"
LAYERS = (
    ("data", "load_pnm", "bytes_in"),
    ("data", "resize_bilinear", None),
    ("data", "normalize", None),
    ("model", "forward_batch", None),
    ("model", "forward_classify", None),
    ("model", "window_attention", None),
    ("model", "build_shift_mask", None),
    ("model", "relative_bias_index", None),
    *(("tensor", op, "mb") for op in TENSOR_OPS),
    ("tensor", "backward", None),
    ("train", "AdamW.step", None),
    ("train", "evaluate", None),
    ("segment", "to_grayscale", None),
    ("segment", "otsu_threshold", None),
    ("segment", "threshold_mask", None),
    ("segment", "connected_components", "px"),
    ("segment", "estimate_size", None),
    ("segment", "highlight_yellow", None),
    ("service", "parse_request", None),
    ("service", "PredictionService.handle_predict", None),
    ("service", "PredictionService.handle_report_pdf", None),
    ("service", "PredictionService.run", None),
    ("service", "build_report", None),
    ("service", "canonical_json", None),
    ("service", "write_pdf", "bytes_out"),
)

# spans whose tree is one HTTP request on the server
REQUEST_ROOTS = (
    "service.PredictionService.handle_predict",
    "service.PredictionService.handle_report_pdf",
)
# the span bench/training.py opens around one optimizer step
STEP_ROOT = "train.step"

# amount kind -> (metric suffix, unit)
AMOUNTS = {
    "bytes_in": ("bytes", "bytes"),
    "bytes_out": ("bytes", "bytes"),
    "px": ("px", "px"),
    "mb": ("mb", "MB"),
}


def _amount(kind, args, out):
    if kind == "bytes_in":
        return float(len(args[0]))
    if kind == "bytes_out":
        return float(len(out))
    if kind == "px":
        return float(args[0].size)
    if kind == "mb":
        moved = out.data.nbytes
        for a in args:
            data = getattr(a, "data", None)
            if data is not None and hasattr(data, "nbytes"):
                moved += data.nbytes
        return moved / 1e6
    return 0.0


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr, amount in LAYERS:
        name = f"{module}.{attr}"
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
        if amount:
            out.append((f"{name}.{AMOUNTS[amount][0]}", AMOUNTS[amount][1]))
    out += [(f"tensor.{op}.backward.self_ms", "ms") for op in TENSOR_OPS]
    out += [
        ("service.http.overhead_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.latency_p50_ms", "ms"),
        ("trace.accounted_ms", "ms"),
    ]
    return out


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (id, name id, start, end, parent id, root id, amount)
        self._next_id = itertools.count(1)  # 0 means "no parent"
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = self._name_ids[name] = len(self.names)
                    self.names.append(name)
        return nid

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        """Open a span by hand; close it with end(token)."""
        stack = self._stack()
        sid = next(self._next_id)
        parent, root = stack[-1] if stack else (0, sid)
        stack.append((sid, root))
        return (sid, self.name_id(name), time.perf_counter(), parent, root)

    def end(self, token, amount: float = 0.0):
        t1 = time.perf_counter()
        sid, nid, t0, parent, root = token
        self._stack().pop()
        self.spans.append((sid, nid, t0, t1, parent, root, amount))

    def wrap(self, name: str, fn, amount=None):
        """fn with a span recorded around every call."""
        nid = self.name_id(name)
        spans, stack_of, next_id, clock = self.spans, self._stack, self._next_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(next_id)
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, nid, t0, t1, parent, root, 0.0))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, nid, t0, t1, parent, root, _amount(amount, args, out)))
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def load(path: str):
    """(names, spans) as written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["names"], [tuple(s) for s in obj["spans"]]


def _resolve(owner, path):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(tracer: Tracer):
    """Wrap every LAYERS function and each backward rule; returns an undo callable.

    Functions a version of swinscan lacks are skipped, so their metrics
    read zero instead of the benchmark failing.
    """
    import importlib

    undo = []

    def patch(owner, attr, replacement):
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original))

    for module, path, amount in LAYERS:
        mod = importlib.import_module(f"swinscan.{module}")
        try:
            owner, attr = _resolve(mod, path)
            fn = owner.__dict__[attr]
        except (AttributeError, KeyError):
            continue
        patch(owner, attr, tracer.wrap(f"{module}.{path}", fn, amount))

    tape_cls = importlib.import_module("swinscan.tensor").Tape
    record = tape_cls.record

    def traced_record(self, op, inputs, output, backward_fn):
        return record(self, op, inputs, output,
                      tracer.wrap(f"tensor.{op}.backward", backward_fn))

    patch(tape_cls, "record", traced_record)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans):
    """Map span id -> self seconds.

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the span.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if run_end is None or c0 > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c0, c1
            else:
                run_end = max(run_end, c1)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(names, spans, selfs, roots=None):
    """name -> [calls, self seconds, amount], over spans whose root is in roots.

    selfs is self_times(spans); roots=None keeps every span.
    """
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, nid, _, _, _, root, amount in spans:
        if roots is not None and root not in roots:
            continue
        entry = totals[names[nid]]
        entry[0] += 1
        entry[1] += selfs[sid]
        entry[2] += amount
    return totals


def layer_metrics(totals, per: int) -> dict:
    """Per-layer metric values, each divided by per (requests or steps)."""
    values = {}
    for module, path, amount in LAYERS:
        name = f"{module}.{path}"
        calls, self_s, moved = totals.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls / per
        values[f"{name}.self_ms"] = self_s * 1e3 / per
        if amount:
            values[f"{name}.{AMOUNTS[amount][0]}"] = moved / per
    for op in TENSOR_OPS:
        values[f"tensor.{op}.backward.self_ms"] = (
            totals.get(f"tensor.{op}.backward", (0, 0.0, 0.0))[1] * 1e3 / per
        )
    return values


def roots_named(names, spans, wanted, since=float("-inf")):
    """Ids and durations of root spans named in wanted that start at or after since."""
    ids = {names.index(n) for n in wanted if n in names}
    return {sid: t1 - t0 for sid, nid, t0, t1, parent, _, _ in spans
            if not parent and nid in ids and t0 >= since}


def accounted_seconds(totals) -> float:
    """Sum of self times over all layers: the blocking path of the kept roots."""
    return sum(entry[1] for entry in totals.values())


def accounting(accounted_ms, traced, untraced_p50):
    """How the traced blocking path adds up against the untraced median.

    Latencies are in seconds.  trace.accounted_ms equals the traced mean
    latency by construction; accounting_ok checks the span arithmetic.
    It should match the untraced median within the tracing overhead,
    give or take the gap between mean and median.
    """
    mean_ms = sum(traced) / len(traced) * 1e3
    return {
        "traced_latency_mean_ms": mean_ms,
        "untraced_latency_p50_ms": untraced_p50 * 1e3,
        "accounted_minus_untraced_p50_ms": accounted_ms - untraced_p50 * 1e3,
        "accounting_ok": abs(accounted_ms - mean_ms) <= 0.01 * mean_ms,
    }
