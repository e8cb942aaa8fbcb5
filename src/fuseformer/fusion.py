"""Per-task bottleneck adapters, the attention layer that fuses frozen
adapters, training stages, and parameter accounting.

A stage is one choice that sets both what runs and what trains
(``AdapterBank.set_stage``): "finetune" runs the bare encoder and trains
it; "adapter" runs one task's adapter in every layer and trains it; "fusion"
runs every adapter plus the fusion attention and trains only the fusion.
Each stage also trains its task's head; everything else is frozen.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import tensor as T
from .data import Batch
from .encoder import ModelConfig, encode, encoder_param_shapes, init_parameter
from .errors import ConfigError, ContractError
from .losses import head_forward, head_param_shapes
from .tensor import ParameterStore, Tensor

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


def bank_param_shapes(config: ModelConfig, heads: Mapping[str, int],
                      adapter_tasks: Sequence[str], with_fusion: bool
                      ) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every parameter of a bank, in the order the bank stores and draws
    them: the encoder, each task's adapters, the fusion layer (if
    ``with_fusion``), then a head of ``heads[task]`` labels per task."""
    yield from encoder_param_shapes(config)
    for task in adapter_tasks:
        yield from adapter_param_shapes(config, task)
    if with_fusion:
        yield from fusion_param_shapes(config)
    for task, num_labels in heads.items():
        yield from head_param_shapes(config, task, num_labels)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _adapters(params: ParameterStore, tasks: Sequence[str], layer_idx: int
              ) -> list[list[Tensor]]:
    """``tensor.adapter_fusion``'s four weight lists for ``tasks`` in a layer."""
    return [[params[f"adapters.{task}.{layer_idx}.{name}"] for task in tasks]
            for name in ("down.weight", "down.bias", "up.weight", "up.bias")]


def adapter_forward(params: ParameterStore, task: str, layer_idx: int,
                    h_ff: Tensor) -> Tensor:
    """relu bottleneck with a residual connection around it, as one
    ``tensor.adapter_fusion`` op over this one adapter."""
    return T.adapter_fusion(h_ff, *_adapters(params, [task], layer_idx))[0]


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
    return T.adapter_fusion(h_ff, *_adapters(params, tasks, layer_idx),
                            params[f"{p}.query"], params[f"{p}.key"],
                            params[f"{p}.value"])


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


def bank_layout(tensors: Mapping[str, np.ndarray]) -> tuple[dict[str, int], list[str], bool]:
    """The inverse of ``bank_param_shapes``, from a {name: array} table's names:
    the heads ({task: size of ``heads.<task>.out.bias``}), the adapter tasks
    in table order, and whether the table holds the fusion layer."""
    groups = dict.fromkeys(map(group_of, tensors))
    heads = {g[len("heads."):]: tensors[f"{g}.out.bias"].size for g in groups
             if g.startswith("heads.") and f"{g}.out.bias" in tensors}
    adapter_tasks = [g[len("adapters."):] for g in groups if g.startswith("adapters.")]
    return heads, adapter_tasks, "fusion" in groups


def _trained_groups(stage: str, task: str) -> tuple[str, str]:
    """The groups ``stage`` trains for ``task``: its group in ``STAGES`` and
    the task's head."""
    return STAGES[stage].format(task=task), f"heads.{task}"


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
        shapes = list(bank_param_shapes(config, self.head_labels,
                                        self.adapter_tasks, with_fusion))
        self.params = ParameterStore(shapes, dtype)
        rng = np.random.default_rng(seed)
        for name, shape in shapes:
            init_parameter(self.params, name, shape, rng)
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
        trained = _trained_groups(stage, task)
        if trained[0] not in self.groups:
            raise ConfigError(f"stage {stage!r} trains {trained[0]!r}, which this "
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
            self.params.set_requires_grad(names, group in trained)
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

def count_parameters(config: ModelConfig, mode: str, num_tasks: int = 1,
                     num_labels: int = 6) -> dict[str, int]:
    """Exact {total, trainable} counts of the bank stage ``mode`` trains a
    head of ``num_labels`` in, from its ``bank_param_shapes`` table (no
    weight is allocated) and the groups ``mode`` trains. The "adapter" bank
    holds the head task's adapter, the "fusion" bank ``num_tasks`` adapters
    and the fusion layer."""
    if mode not in STAGES:
        raise ConfigError(f"unknown counting mode {mode!r}")
    if mode == "fusion" and num_tasks < 1:
        raise ContractError("num_tasks must be at least 1 for the fusion mode")
    adapters = {"finetune": 0, "adapter": 1, "fusion": num_tasks}[mode]
    trained = _trained_groups(mode, "t0")
    total = trainable = 0
    for name, shape in bank_param_shapes(config, {"t0": num_labels},
                                         [f"t{i}" for i in range(adapters)],
                                         mode == "fusion"):
        size = math.prod(shape)
        total += size
        trainable += size if group_of(name) in trained else 0
    return {"total": total, "trainable": trainable}


def adapter_parameter_count(config: ModelConfig) -> int:
    """Size of one task adapter; the Fusion(T+2) - Fusion(T) total step."""
    return sum(math.prod(shape) for _, shape in adapter_param_shapes(config, "t"))
