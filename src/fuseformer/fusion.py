"""Per-task bottleneck adapters, the attention layer that fuses frozen
adapters, training stages, and parameter accounting.

A stage is one choice that sets both what runs and what trains
(``AdapterBank.set_stage``): "finetune" runs the bare encoder and trains
it; "adapter" runs one task's adapter in every layer and trains it; "fusion"
runs every adapter plus the fusion attention and trains only the fusion.
Each stage also trains its task's head; everything else is frozen.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .data import Batch
from .encoder import (ModelConfig, encode, encoder_param_shapes,
                      init_encoder_params, init_parameter, linear)
from .errors import ConfigError, ContractError
from .losses import head_forward, head_param_shapes, init_head_params
from .tensor import ParameterStore, Tensor

ADAPTER_UP_INIT_STD = 1e-4  # near-identity when first wired in
# the group each stage trains besides ``heads.{task}``
STAGES = {"finetune": "encoder", "adapter": "adapters.{task}", "fusion": "fusion"}


def adapter_param_shapes(config: ModelConfig, task: str) -> Iterator[tuple[str, tuple[int, ...]]]:
    h, k = config.hidden_size, config.bottleneck
    for i in range(config.num_layers):
        p = f"adapters.{task}.{i}"
        yield f"{p}.down.weight", (h, k)
        yield f"{p}.down.bias", (k,)
        yield f"{p}.up.weight", (k, h)
        yield f"{p}.up.bias", (h,)


def fusion_param_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    h = config.hidden_size
    for i in range(config.num_layers):
        p = f"fusion.{i}"
        yield f"{p}.query", (h, h)
        yield f"{p}.key", (h, h)
        yield f"{p}.value", (h, h)


def init_adapter_params(config: ModelConfig, store: ParameterStore, task: str,
                        rng: np.random.Generator) -> None:
    for name, shape in adapter_param_shapes(config, task):
        std = ADAPTER_UP_INIT_STD if ".up.weight" in name else None
        if std is None:
            init_parameter(store, name, shape, rng)
        else:
            init_parameter(store, name, shape, rng, std=std)


def init_fusion_params(config: ModelConfig, store: ParameterStore,
                       rng: np.random.Generator) -> None:
    for name, shape in fusion_param_shapes(config):
        init_parameter(store, name, shape, rng)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def adapter_forward(params: ParameterStore, task: str, layer_idx: int,
                    h_ff: Tensor) -> Tensor:
    """relu bottleneck with a residual connection around it."""
    p = f"adapters.{task}.{layer_idx}"
    u = T.relu(linear(params, f"{p}.down", h_ff))
    return T.add(h_ff, linear(params, f"{p}.up", u))


def fusion_forward(params: ParameterStore, layer_idx: int, h_ff: Tensor,
                   tasks: Sequence[str]) -> tuple[Tensor, np.ndarray]:
    """The adapters of ``tasks`` and the per-token attention over their
    outputs, as one ``tensor.adapter_fusion`` op.

    Query comes from the FF-sublayer output, keys/values from each adapter
    output; the mixture is added back onto the residual stream. The op runs
    the adapters and the attention in the bottleneck space, so no adapter
    output is built. ``h_ff`` holds the rows the encoder layer computes:
    [n, H] real-token rows, or [B, H] [CLS] rows in the last layer. Returns
    the output and the attention weights [..., T] (one row per row of
    ``h_ff``) for inspection.
    """
    p = f"fusion.{layer_idx}"
    adapters = [f"adapters.{task}.{layer_idx}" for task in tasks]
    mixed, alpha = T.adapter_fusion(
        h_ff, *([params[f"{a}.{name}"] for a in adapters]
                for name in ("down.weight", "down.bias", "up.weight", "up.bias")),
        params[f"{p}.query"], params[f"{p}.key"], params[f"{p}.value"])
    return T.add(h_ff, mixed), alpha


# ---------------------------------------------------------------------------
# slots
# ---------------------------------------------------------------------------

class SingleAdapterSlot:
    def __init__(self, params: ParameterStore, task: str):
        self.params = params
        self.task = task

    def apply(self, h_ff: Tensor, layer_idx: int) -> Tensor:
        return adapter_forward(self.params, self.task, layer_idx, h_ff)


class FusionSlot:
    """Runs every task adapter under the fusion attention; keeps the last
    forward's attention weights per layer for inspection. Below the last
    layer they are [n, T], one row per real token of the packed batch (no
    padded row is computed, so their means need no padding mask); in the
    last layer, where only the [CLS] rows are computed, they are [B, T],
    the only weights there that reach the prediction."""

    def __init__(self, params: ParameterStore, tasks: Sequence[str]):
        self.params = params
        self.tasks = list(tasks)
        self.last_weights: dict[int, np.ndarray] = {}

    def apply(self, h_ff: Tensor, layer_idx: int) -> Tensor:
        out, alpha = fusion_forward(self.params, layer_idx, h_ff, self.tasks)
        self.last_weights[layer_idx] = alpha
        return out


# ---------------------------------------------------------------------------
# freeze groups
# ---------------------------------------------------------------------------

def group_of(name: str) -> str:
    if name.startswith("adapters."):
        return "adapters." + name.split(".")[1]
    if name.startswith("fusion."):
        return "fusion"
    if name.startswith("heads."):
        return "heads." + name.split(".")[1]
    return "encoder"


# ---------------------------------------------------------------------------
# assembled model
# ---------------------------------------------------------------------------

class AdapterBank:
    """Encoder, per-task adapters, optional fusion layer, and task heads in
    one named parameter store, split into freeze groups ({group: names},
    see ``group_of``), with the slot and trainable flags of one stage.

    ``dtype`` is the compute dtype: every parameter is held in it, and ops
    keep their inputs' dtype, so activations, gradients and optimizer
    moments follow. Weights are drawn in float64 and then rounded, so banks
    of either dtype built with one seed hold the same weights up to that
    rounding."""

    def __init__(self, config: ModelConfig, heads: dict[str, int],
                 adapter_tasks: Sequence[str] = (), with_fusion: bool = False,
                 seed: int = 0, dtype=np.float32):
        self.config = config
        self.head_labels = dict(heads)
        self.adapter_tasks = list(adapter_tasks)
        self.with_fusion = with_fusion
        # the whole buffer is laid out before any weight is drawn
        self.params = ParameterStore([
            *encoder_param_shapes(config),
            *(s for task in self.adapter_tasks
              for s in adapter_param_shapes(config, task)),
            *(fusion_param_shapes(config) if with_fusion else ()),
            *(s for task, num_labels in self.head_labels.items()
              for s in head_param_shapes(config, task, num_labels))], dtype)
        rng = np.random.default_rng(seed)
        init_encoder_params(config, self.params, rng)
        for task in self.adapter_tasks:
            init_adapter_params(config, self.params, task, rng)
        if with_fusion:
            init_fusion_params(config, self.params, rng)
        for task, num_labels in self.head_labels.items():
            init_head_params(config, self.params, task, num_labels, rng)
        self.groups: dict[str, list[str]] = {}
        for name in self.params.names():
            self.groups.setdefault(group_of(name), []).append(name)
        self.slot: SingleAdapterSlot | FusionSlot | None = None
        self.stage: str | None = None

    def set_stage(self, stage: str, task: str) -> None:
        """Wire the slot of ``stage`` into every encoder layer and train only
        ``heads.{task}`` and the stage's group in ``STAGES``.

        "finetune" wires no slot, "adapter" the adapter of ``task``, and
        "fusion" every adapter of the bank under the fusion attention.
        """
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}; expected one of "
                              f"{list(STAGES)}")
        if task not in self.head_labels:
            raise ConfigError(f"no head for task {task!r}")
        trained = STAGES[stage].format(task=task)
        if trained not in self.groups:
            raise ConfigError(f"stage {stage!r} trains {trained!r}, which this "
                              f"bank does not hold")
        if stage == "fusion" and not self.adapter_tasks:
            raise ConfigError("the fusion stage needs at least one adapter")
        if stage == "adapter":
            self.slot = SingleAdapterSlot(self.params, task)
        elif stage == "fusion":
            self.slot = FusionSlot(self.params, self.adapter_tasks)
        else:
            self.slot = None
        for group, names in self.groups.items():
            self.params.set_requires_grad(names, group in (trained, f"heads.{task}"))
        self.stage = stage

    def forward(self, batch: Batch, task: str) -> Tensor:
        return head_forward(self.params, task,
                            encode(self.config, self.params, batch, self.slot))

    def fusion_weights(self) -> dict[int, np.ndarray]:
        if isinstance(self.slot, FusionSlot):
            return self.slot.last_weights
        return {}


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def _count(shapes: Iterator[tuple[str, tuple[int, ...]]]) -> int:
    return sum(int(np.prod(shape)) for _, shape in shapes)


def count_parameters(config: ModelConfig, mode: str, num_tasks: int = 1,
                     num_labels: int = 6) -> dict[str, int]:
    """Exact {total, trainable} counts for a configured model, by shape
    enumeration only (no weight allocation)."""
    if mode not in STAGES:
        raise ConfigError(f"unknown counting mode {mode!r}")
    if num_tasks < 1:
        raise ContractError("num_tasks must be at least 1")
    enc = _count(encoder_param_shapes(config))
    adapter = _count(adapter_param_shapes(config, "t"))
    head = _count(head_param_shapes(config, "t", num_labels))
    fusion = _count(fusion_param_shapes(config))
    if mode == "finetune":
        total = enc + head
        trainable = total
    elif mode == "adapter":
        total = enc + adapter + head
        trainable = adapter + head
    else:
        total = enc + num_tasks * adapter + fusion + head
        trainable = fusion + head
    return {"total": total, "trainable": trainable}


def adapter_parameter_count(config: ModelConfig) -> int:
    """Size of one task adapter; the Fusion(T+2) - Fusion(T) total step."""
    return _count(adapter_param_shapes(config, "t"))
