"""Spans around the public functions of each feddistill module, recorded from
outside the program.

`Tracer.install()` replaces every public function and public method of the
traced modules with a wrapper that records one span (name, start, end,
parent) in memory, in every module namespace that holds a reference to it.
`Tracer.uninstall()` puts the originals back.  The elementary tensor ops are
not wrapped: a run calls them hundreds of thousands of times, so wrapping
them would measure the wrapper; only `grad` and `hypergrad` are traced there.

`Tracer.layer_metrics()` derives the per-layer metrics named in BENCHMARK.json
from the spans and from counters that a few hooks record at the same
boundaries.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time

PACKAGE = "feddistill"
MODULES = ("tensor", "models", "distill", "federation", "unlearn", "evaluate",
           "checkpoint", "data", "runner")
TENSOR_TRACED = ("grad", "hypergrad")

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "tensor.grad.ms": "ms",
    "tensor.grad.calls": "count",
    "tensor.hypergrad.ms": "ms",
    "tensor.hypergrad.calls": "count",
    "tensor.match_graph_nodes": "count",
    "tensor.forward_graph_nodes": "count",
    "tensor.self_ms": "ms",
    "models.forward.ms": "ms",
    "models.forward.calls": "count",
    "models.cross_entropy.ms": "ms",
    "models.predict.ms": "ms",
    "models.self_ms": "ms",
    "distill.class_gradient.real_ms": "ms",
    "distill.class_gradient.real_calls": "count",
    "distill.class_gradient.syn_ms": "ms",
    "distill.match_step.ms": "ms",
    "distill.match_step.calls": "count",
    "distill.grad_distance.ms": "ms",
    "distill.sgd_step.ms": "ms",
    "distill.match_skip_ratio": "ratio",
    "distill.self_ms": "ms",
    "federation.local_round.ms_p50": "ms",
    "federation.local_round.ms_p90": "ms",
    "federation.aggregate.ms": "ms",
    "federation.samples": "count",
    "federation.self_ms": "ms",
    "unlearn.execute_request.ms": "ms",
    "unlearn.sga_round.ms": "ms",
    "unlearn.recovery_round.ms": "ms",
    "unlearn.build_forget_partition.ms": "ms",
    "unlearn.relearn.ms": "ms",
    "unlearn.forget_samples": "count",
    "unlearn.keep_samples": "count",
    "unlearn.noop_ratio": "ratio",
    "unlearn.self_ms": "ms",
    "evaluate.accuracy_report.ms": "ms",
    "evaluate.mia_attack.ms": "ms",
    "evaluate.retrain_baseline.ms": "ms",
    "evaluate.sga_or_baseline.ms": "ms",
    "evaluate.f_set_acc": "ratio",
    "evaluate.self_ms": "ms",
    "checkpoint.save_model.ms": "ms",
    "checkpoint.save_synthetic.ms": "ms",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.self_ms": "ms",
    "data.synth_blobs.ms": "ms",
    "data.dirichlet_partition.ms": "ms",
    "data.next_batch.calls": "count",
    "data.self_ms": "ms",
    "runner.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def graph_nodes(root) -> int:
    """Distinct tensors reachable from `root` through the graph's parent links,
    `root` and the leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# ---- hooks: run around one traced call, may rename its span or count work ----

def _class_gradient(tr, span, fn, args, kwargs):
    graph = _bound(fn, args, kwargs).get("create_graph", False)
    span[0] = "distill.class_gradient.syn" if graph else "distill.class_gradient.real"
    return fn(*args, **kwargs)


def _match_step(tr, span, fn, args, kwargs):
    bound = _bound(fn, args, kwargs)
    syn = bound["syn"]
    skips = syn.match_skips
    out = fn(*args, **kwargs)
    tr.count("distill.match_attempts", len(bound["real_batch_by_class"]))
    tr.count("distill.match_skips", syn.match_skips - skips)
    return out


def _grad_distance(tr, span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.first("tensor.match_graph_nodes", lambda: graph_nodes(out))
    return out


def _cross_entropy(tr, span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    if out.requires_grad:
        tr.first("tensor.forward_graph_nodes", lambda: graph_nodes(out))
    return out


def _local_round(tr, span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.count("federation.samples", out[2])
    return out


def _build_forget_partition(tr, span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.count("unlearn.forget_samples", out.forget_total())
    tr.count("unlearn.keep_samples", out.keep_total())
    return out


def _execute_request(tr, span, fn, args, kwargs):
    model, costs = fn(*args, **kwargs)
    tr.count("unlearn.requests", 1)
    tr.count("unlearn.noops", int(all(c.rounds == 0 for c in costs)))
    return model, costs


def _save(tr, span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.count("checkpoint.bytes_written", os.path.getsize(_bound(fn, args, kwargs)["path"]))
    return out


HOOKS = {
    "distill.class_gradient": _class_gradient,
    "distill.match_step": _match_step,
    "distill.grad_distance": _grad_distance,
    "models.cross_entropy": _cross_entropy,
    "federation.local_round": _local_round,
    "unlearn.UnlearnEngine.build_forget_partition": _build_forget_partition,
    "unlearn.UnlearnEngine.execute_request": _execute_request,
    "checkpoint.save_model": _save,
    "checkpoint.save_synthetic": _save,
}


def _public_callables(module):
    """(owner, attribute, span name, function) for each traced callable the
    module defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if short == "tensor" and attr not in TENSOR_TRACED:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj) and short != "tensor":
            for name, member in sorted(vars(obj).items()):
                if not name.startswith("_") and inspect.isfunction(member):
                    yield obj, name, f"{short}.{attr}.{name}", member


class Tracer:
    """In-memory spans and counters for one process.  A span is a list
    [name, start, end, parent index]; the parent index is -1 at the root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording --------------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def first(self, name: str, measure) -> None:
        """Record `measure()` under `name` unless a value is there already."""
        if name not in self.counters:
            self.counters[name] = measure()

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name` (the benchmark's own spans)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, span, fn, args, kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return functools.update_wrapper(traced, fn)

    # ---- installation -------------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for owner, attr, name, fn in _public_callables(module):
                wrapper = self._wrap(name, fn, HOOKS.get(name))
                wrappers[id(fn)] = wrapper
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
        # functions are imported by name across modules: patch every reference
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != PACKAGE:
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- derivation ---------------------------------------------------------------

    def durations_ms(self) -> tuple[list[float], list[float]]:
        """Inclusive and self time of every span, in ms."""
        total = [(end - start) * 1e3 for _, start, end, _ in self.spans]
        self_ms = list(total)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self_ms[parent] -= total[i]
        return total, self_ms

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give; the controller adds
        `evaluate.f_set_acc` from the reports and `trace.overhead_s`, which
        needs a plain run to compare with."""
        total, self_ms = self.durations_ms()
        by_name: dict[str, list[float]] = {}
        module_self: dict[str, float] = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == "tensor.grad" and parent >= 0 and self.spans[parent][0] == "tensor.hypergrad":
                name = "tensor.grad(hypergrad)"     # counted under hypergrad
            by_name.setdefault(name, []).append(total[i])
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + self_ms[i]

        def ms(name):
            return sum(by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        def ratio(num, den):
            den = self.counters.get(den, 0)
            return self.counters.get(num, 0) / den if den else 0.0

        rounds = sorted(by_name.get("federation.local_round", ()))
        out = {
            "tensor.grad.ms": ms("tensor.grad"),
            "tensor.grad.calls": calls("tensor.grad"),
            "tensor.hypergrad.ms": ms("tensor.hypergrad"),
            "tensor.hypergrad.calls": calls("tensor.hypergrad"),
            "tensor.match_graph_nodes": self.counters.get("tensor.match_graph_nodes", 0),
            "tensor.forward_graph_nodes": self.counters.get("tensor.forward_graph_nodes", 0),
            "models.forward.ms": ms("models.forward"),
            "models.forward.calls": calls("models.forward"),
            "models.cross_entropy.ms": ms("models.cross_entropy"),
            "models.predict.ms": ms("models.predict"),
            "distill.class_gradient.real_ms": ms("distill.class_gradient.real"),
            "distill.class_gradient.real_calls": calls("distill.class_gradient.real"),
            "distill.class_gradient.syn_ms": ms("distill.class_gradient.syn"),
            "distill.match_step.ms": ms("distill.match_step"),
            "distill.match_step.calls": calls("distill.match_step"),
            "distill.grad_distance.ms": ms("distill.grad_distance"),
            "distill.sgd_step.ms": ms("distill.sgd_step"),
            "distill.match_skip_ratio": ratio("distill.match_skips", "distill.match_attempts"),
            "federation.local_round.ms_p50": statistics.median(rounds) if rounds else 0.0,
            "federation.local_round.ms_p90": percentile(rounds, 0.9) if rounds else 0.0,
            "federation.aggregate.ms": ms("federation.aggregate"),
            "federation.samples": self.counters.get("federation.samples", 0),
            "unlearn.execute_request.ms": ms("unlearn.UnlearnEngine.execute_request"),
            "unlearn.sga_round.ms": ms("unlearn.UnlearnEngine.sga_round"),
            "unlearn.recovery_round.ms": ms("unlearn.UnlearnEngine.recovery_round"),
            "unlearn.build_forget_partition.ms": ms("unlearn.UnlearnEngine.build_forget_partition"),
            "unlearn.relearn.ms": ms("unlearn.UnlearnEngine.relearn"),
            "unlearn.forget_samples": self.counters.get("unlearn.forget_samples", 0),
            "unlearn.keep_samples": self.counters.get("unlearn.keep_samples", 0),
            "unlearn.noop_ratio": ratio("unlearn.noops", "unlearn.requests"),
            "evaluate.accuracy_report.ms": ms("evaluate.accuracy_report"),
            "evaluate.mia_attack.ms": ms("evaluate.mia_attack"),
            "evaluate.retrain_baseline.ms": ms("evaluate.retrain_baseline"),
            "evaluate.sga_or_baseline.ms": ms("evaluate.sga_or_baseline"),
            "checkpoint.save_model.ms": ms("checkpoint.save_model"),
            "checkpoint.save_synthetic.ms": ms("checkpoint.save_synthetic"),
            "checkpoint.bytes_written": self.counters.get("checkpoint.bytes_written", 0),
            "data.synth_blobs.ms": ms("data.synth_blobs"),
            "data.dirichlet_partition.ms": ms("data.dirichlet_partition"),
            "data.next_batch.calls": calls("data.ClassBatchSampler.next_batch"),
            "trace.spans": len(self.spans),
        }
        for module in MODULES:
            out[f"{module}.self_ms"] = module_self.get(module, 0.0)
        return {name: out[name] for name in LAYER_METRICS if name in out}

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end in seconds, parent."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
