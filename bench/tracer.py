"""Spans around the calls between xmargin modules, and the per-layer
metrics derived from them.

`install` rebinds, in every `xmargin` module, each function that module
imported from another `xmargin` module, so a span is recorded around every
call through the name the caller imported (e.g. `xmargin.optimizer.forward`
or `xmargin.cli.predict_proba`). Nothing under `src/` is edited. Spans stay
in memory as [name, start, end, parent index] and are written out by the
worker when its run ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import types
from collections import defaultdict

LAYERS = ("cli", "config", "data_pipeline", "loss_core", "metrics", "network",
          "optimizer", "report")

# Calls inside one module that the per-layer metrics still need as spans:
# repeated_cv scales each fold and train steps the optimizer through
# module-local names.
INTRA_MODULE = {
    "data_pipeline": ("fit_scaler", "apply_scaler"),
    "optimizer": ("rmsprop_step", "subgradient_step"),
}

# predict_label runs once per grid row (10^5+ calls of ~1 us). A span per
# call would cost more than the call, so it is only counted and its time
# stays in the caller's self time.
COUNT_ONLY = {"loss_core.predict_label"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, fn, name: str, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self.counts, args)
            return result

        return wrapper

    def counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        if name in COUNT_ONLY:
            return self.counter(fn, name + ".calls")
        if name == "network.forward":
            return self._forward(fn)
        return self.span(fn, name, MEASURES.get(name))

    def _forward(self, fn):
        train = self.span(fn, "network.forward_train")
        infer = self.span(fn, "network.forward_infer")

        def wrapper(*args, **kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode")
            return (train if getattr(mode, "value", None) == "train" else infer)(
                *args, **kwargs)

        return wrapper


def _rows_of_predict(counts, args):
    counts["network.predict_proba.rows"] += len(args[1])


def _rows_of_csv(counts, args):
    counts["report.write_csv.rows"] += len(args[2])
    counts["report.write_csv.bytes"] += os.path.getsize(args[0])


MEASURES = {
    "network.predict_proba": _rows_of_predict,
    "report.write_csv": _rows_of_csv,
}


def install(tracer: Tracer):
    """Rebind cross-module calls in every xmargin module; return the traced
    `cli.main`."""
    modules = {name: importlib.import_module(f"xmargin.{name}") for name in LAYERS}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if not obj.__module__.startswith("xmargin."):
                continue
            layer = obj.__module__.split(".", 1)[1]
            if layer == short and attr not in INTRA_MODULE.get(short, ()):
                continue
            setattr(mod, attr, tracer.wrap(layer, obj))

    cli = modules["cli"]
    cli._dispatch = tracer.span(cli._dispatch, "cli.command")

    state_cls = modules["optimizer"].TrainState
    note_loss = getattr(state_cls, "note_loss", None)
    if note_loss is not None:
        counts = tracer.counts

        def counted_note_loss(state, loss):
            before = getattr(state, "best_params", None)
            note_loss(state, loss)
            if getattr(state, "best_params", None) is not before:
                counts["optimizer.best_snapshots"] += 1

        state_cls.note_loss = counted_note_loss
    return tracer.span(cli.main, "cli.main")


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def busy(spans, names) -> float:
    """Wall time inside any span named in `names`, counting a span nested in
    another of the same set once."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def percentile(values, q: float):
    """Nearest-rank percentile, or None unless at least 10 samples lie
    beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    return sorted(values)[max(0, math.ceil(q * n) - 1)]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced run."""
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum((selfs[i] for i in by_name[name]), 0.0)

    m = {}
    for name in ("network.forward_train", "network.backward",
                 "optimizer.rmsprop_step", "loss_core.loss_and_grad_vec"):
        us = [(spans[i][2] - spans[i][1]) * 1e6 for i in by_name[name]]
        m[f"{name}.calls"] = len(us)
        m[f"{name}.busy_s"] = busy(spans, {name})
        m[f"{name}.call_us_p50"] = percentile(us, 0.50)
        m[f"{name}.call_us_p99"] = percentile(us, 0.99)

    models = calls("optimizer.train")
    snapshots = counts.get("optimizer.best_snapshots", 0)
    m["optimizer.train.calls"] = models
    m["optimizer.train.busy_s"] = busy(spans, {"optimizer.train"})
    m["optimizer.train.self_s"] = self_s("optimizer.train")
    m["optimizer.steps"] = calls("optimizer.rmsprop_step") + calls("optimizer.subgradient_step")
    m["optimizer.best_snapshots"] = snapshots
    m["optimizer.best_snapshot_useful_ratio"] = models / snapshots if snapshots else None

    m["data_pipeline.repeated_cv.busy_s"] = busy(spans, {"data_pipeline.repeated_cv"})
    m["data_pipeline.repeated_cv.self_s"] = self_s("data_pipeline.repeated_cv")
    m["data_pipeline.scaling.busy_s"] = busy(
        spans, {"data_pipeline.fit_scaler", "data_pipeline.apply_scaler"})

    m["network.predict_proba.calls"] = calls("network.predict_proba")
    m["network.predict_proba.rows"] = counts.get("network.predict_proba.rows", 0)
    m["network.predict_proba.busy_s"] = busy(spans, {"network.predict_proba"})
    m["loss_core.predict_label.calls"] = counts.get("loss_core.predict_label.calls", 0)

    m["report.write_csv.calls"] = calls("report.write_csv")
    m["report.write_csv.rows"] = counts.get("report.write_csv.rows", 0)
    m["report.write_csv.bytes"] = counts.get("report.write_csv.bytes", 0)
    m["report.write_csv.busy_s"] = busy(spans, {"report.write_csv"})
    m["report.write_report.busy_s"] = busy(spans, {"report.write_report"})
    m["cli.command.self_s"] = self_s("cli.command")
    m["metrics.busy_s"] = busy(spans, {n for n in by_name if n.startswith("metrics.")})

    m["data_pipeline.load_csv.busy_s"] = busy(spans, {"data_pipeline.load_csv"})
    m["config.load_config.busy_s"] = busy(spans, {"config.load_config"})
    m["network.build_model.busy_s"] = busy(
        spans, {"network.build_experiment_model", "network.build_boundary_model"})
    return m
