"""Step timing and per-layer tracing, done by wrapping the library's public
functions from outside. Nothing in the library changes: every wrapper is
installed through :class:`Patches` and ``Patches.restore`` puts the original
objects back.

A span is ``(kind, name, layer, start, end, parent)`` with times from
``time.perf_counter``; ``parent`` is the index of the innermost open span
and ``layer`` is set on node spans only. Kinds:

- ``stage``: a whole library call (optimizer update, evaluation, batching,
  backward pass), timed inclusively;
- ``layer``: one model layer's forward; its own time excludes the layer
  spans nested in it, so ``encoder.ff`` is ``encoder_layer_forward`` minus
  attention and the adapter slot;
- ``op``: one tensor op's forward (the six ops named in ``OPS``);
- ``node``: one tape node's backward, attributed to the op that made it and
  to the innermost layer open when it was made.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable

from fuseformer import data, encoder, fusion, losses, tensor, training

OPS = ("matmul", "batched_matmul", "gelu", "softmax", "layer_norm", "embedding")
GEMMS = ("matmul", "batched_matmul")
# Public functions of the tensor module that build no tape node of their own.
NOT_OPS = ("backward", "constant", "elementwise", "finite_difference_check",
           "relative_error", "tensor")

# Each span wraps the binding its caller looks up at call time and, where the
# function is imported from elsewhere, the defining module's binding too.
LAYERS = {
    "encoder.embed": ((encoder, "embed"),),
    "encoder.attention": ((encoder, "multi_head_attention"),),
    "encoder.ff": ((encoder, "encoder_layer_forward"),),
    "fusion.adapter": ((fusion, "adapter_forward"),),
    "fusion.mix": ((fusion, "fusion_forward"),),
    "losses.head": ((fusion, "head_forward"), (losses, "head_forward")),
    "losses.loss": ((training, "multilabel_loss"), (training, "cross_entropy_7")),
}
STAGES = {
    "training.adamw": ((training, "adamw_step"),),
    "training.eval": ((training, "evaluate_model"),),
    "metrics.report": ((training, "emotion_report"), (training, "binary_report"),
                       (training, "multiclass_report")),
    "data.make_batches": ((training, "make_batches"), (data, "make_batches")),
    "tensor.backward": ((training, "backward"), (tensor, "backward")),
}

perf = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepClock:
    """Records ``(start, end)`` of every step.

    kind "train": a step runs from the model forward on a training batch to
    the end of the optimizer update. kind "eval": a step is one batch
    forward inside ``evaluate_model``.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.steps: list[tuple[float, float]] = []
        self._open: float | None = None
        self._eval_depth = 0

    def install(self, patches: Patches) -> None:
        patches.wrap(fusion.AdapterBank, "forward", self._forward)
        patches.wrap(training, "evaluate_model", self._evaluate)
        if self.kind == "train":
            patches.wrap(training, "adamw_step", self._adamw)

    def abandon(self) -> None:
        """Drop a step left open by a call that raised."""
        self._open = None
        self._eval_depth = 0

    def _forward(self, fn):
        def forward(*args, **kwargs):
            if self.kind == "eval" and self._eval_depth:
                start = perf()
                out = fn(*args, **kwargs)
                self.steps.append((start, perf()))
                return out
            if self.kind == "train" and not self._eval_depth and self._open is None:
                self._open = perf()
            return fn(*args, **kwargs)
        return forward

    def _evaluate(self, fn):
        def evaluate_model(*args, **kwargs):
            self._eval_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._eval_depth -= 1
        return evaluate_model

    def _adamw(self, fn):
        def adamw_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._open is not None:
                self.steps.append((self._open, perf()))
                self._open = None
            return out
        return adamw_step


def _gemm_mflop(opname: str, args, kwargs) -> float:
    a, b = (t.shape for t in (*args, *kwargs.values())[:2])
    batch = a[0] if opname == "batched_matmul" else 1
    return 2.0 * batch * a[-2] * a[-1] * b[-1] / 1e6


def count_nodes(root) -> int:
    """Distinct tape nodes reachable from ``root``: what a backward from it
    would replay."""
    first = getattr(root, "node", None)
    stack = [first] if first is not None else []
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(t.node for t in node.inputs if t.node is not None)
    return len(seen)


class Tracer:
    """Spans and counters for one traced phase; ``kind`` as in StepClock."""

    def __init__(self, kind: str):
        self.kind = kind
        self.spans: list[tuple[str, str, str, float, float, int]] = []
        self.tape_roots = 0
        self.tape_nodes = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._layers: list[str] = []
        self._op_depth = 0
        self._gc_start = 0.0

    # -- installation --------------------------------------------------
    def install(self, patches: Patches) -> None:
        for name in dir(tensor):
            fn = getattr(tensor, name)
            if (name.startswith("_") or name in NOT_OPS or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != tensor.__name__):
                continue
            patches.wrap(tensor, name, lambda f, n=name: self._op(n, f))
        for kind, table in (("layer", LAYERS), ("stage", STAGES)):
            for span_name, targets in table.items():
                for owner, attr in targets:
                    patches.wrap(owner, attr,
                                 lambda f, k=kind, s=span_name: self._span(k, s, f))
        if self.kind == "eval":
            patches.wrap(fusion.AdapterBank, "forward", self._eval_root)
        gc.callbacks.append(self._gc)

    def uninstall(self, patches: Patches) -> None:
        patches.restore()
        gc.callbacks.remove(self._gc)

    # -- wrappers ------------------------------------------------------
    def _record(self, kind, name, layer, start, end) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append((kind, name, layer, start, end, parent))

    def _count_tape(self, root) -> None:
        self.tape_roots += 1
        self.tape_nodes += count_nodes(root)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][1] == name for i in self._open)

    def _span(self, kind: str, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "tensor.backward" and self.kind == "train":
                self._count_tape(args[0])
            index = len(self.spans)
            self._record(kind, name, "", perf(), 0.0)
            self._open.append(index)
            if kind == "layer":
                self._layers.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if kind == "layer":
                    self._layers.pop()
                self._open.pop()
                k, n, layer, start, _, p = self.spans[index]
                self.spans[index] = (k, n, layer, start, perf(), p)
            self.counts[f"{name}.calls"] += 1
            if name == "data.make_batches":
                for batch in out:
                    self.counts["real_tokens"] += float(batch.attention_mask.sum())
                    self.counts["all_tokens"] += batch.attention_mask.size
            return out
        return wrapper

    def _eval_root(self, fn):
        def forward(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._inside("training.eval"):
                self._count_tape(out)
            return out
        return forward

    def _op(self, opname: str, fn):
        timed = opname in OPS
        gemm = opname in GEMMS

        def op(*args, **kwargs):
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth += 1
            cpu = time.process_time() if gemm else 0.0
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._op_depth -= 1
            end = perf()
            mflop = 0.0
            if timed:
                self._record("op", opname, "", start, end)
                self.counts[f"{opname}.calls"] += 1
            if gemm:
                mflop = _gemm_mflop(opname, args, kwargs)
                self.counts["gemm_mflop"] += mflop
                self.counts["gemm_cpu_s"] += time.process_time() - cpu
                self.counts["gemm_wall_s"] += end - start
            node = getattr(out, "node", None)
            if node is not None and hasattr(node, "backward_fn"):
                node.backward_fn = self._node_backward(
                    node.backward_fn, opname,
                    self._layers[-1] if self._layers else "", 2.0 * mflop)
            return out
        return op

    def _node_backward(self, fn, opname: str, layer: str, mflop: float):
        gemm = opname in GEMMS

        def backward_fn(g):
            cpu = time.process_time() if gemm else 0.0
            start = perf()
            out = fn(g)
            end = perf()
            self._record("node", opname, layer, start, end)
            if gemm:
                self.counts["gemm_mflop"] += mflop
                self.counts["gemm_cpu_s"] += time.process_time() - cpu
                self.counts["gemm_wall_s"] += end - start
            return out
        return backward_fn

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf()
        else:
            self.counts["gc_s"] += perf() - self._gc_start
            self.counts["gc_collections"] += 1

    # -- aggregation ---------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, steps: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per step (totals over the phase / ``steps``)."""
        fwd: dict[str, float] = defaultdict(float)
        bwd: dict[str, float] = defaultdict(float)
        layer_own = [end - start for _, _, _, start, end, _ in self.spans]
        for kind, name, layer, start, end, parent in self.spans:
            if kind == "node":
                bwd[f"tensor.op.{name}"] += end - start
                bwd[layer] += end - start
                continue
            if kind == "layer" and parent >= 0 and self.spans[parent][0] == "layer":
                layer_own[parent] -= end - start
        for (kind, name, *_), own in zip(self.spans, layer_own):
            if kind == "op":
                fwd[f"tensor.op.{name}"] += own
            elif kind in ("layer", "stage"):
                fwd[name] += own
        per = 1.0 / max(steps, 1)
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for op in OPS:
            key = f"tensor.op.{op}"
            out[f"{key}.fwd_ms"] = (fwd[key] * 1e3 * per, "ms/step")
            out[f"{key}.bwd_ms"] = (bwd[key] * 1e3 * per, "ms/step")
            out[f"{key}.calls"] = (c[f"{op}.calls"] * per, "calls/step")
        out["tensor.matmul.mflop"] = (c["gemm_mflop"] * per, "MFLOP/step")
        out["tensor.matmul.cpu_per_wall"] = (
            c["gemm_cpu_s"] / c["gemm_wall_s"] if c["gemm_wall_s"] else 0.0, "ratio")
        out["tensor.backward_ms"] = (fwd["tensor.backward"] * 1e3 * per, "ms/step")
        out["tensor.tape_nodes"] = (
            self.tape_nodes / self.tape_roots if self.tape_roots else 0.0,
            "nodes/step")
        out["tensor.gc_ms"] = (c["gc_s"] * 1e3 * per, "ms/step")
        out["tensor.gc_collections"] = (c["gc_collections"] * per, "count/step")
        out["data.make_batches_ms"] = (fwd["data.make_batches"] * 1e3 * per, "ms/step")
        out["data.real_token_frac"] = (
            c["real_tokens"] / c["all_tokens"] if c["all_tokens"] else 0.0, "fraction")
        for layer in LAYERS:
            out[f"{layer}.fwd_ms"] = (fwd[layer] * 1e3 * per, "ms/step")
            out[f"{layer}.bwd_ms"] = (bwd[layer] * 1e3 * per, "ms/step")
        out["fusion.adapter.calls"] = (c["fusion.adapter.calls"] * per, "calls/step")
        out["training.adamw_ms"] = (fwd["training.adamw"] * 1e3 * per, "ms/step")
        out["training.eval_ms"] = (fwd["training.eval"] * 1e3 * per, "ms/step")
        out["metrics.report_ms"] = (fwd["metrics.report"] * 1e3 * per, "ms/step")
        return out
