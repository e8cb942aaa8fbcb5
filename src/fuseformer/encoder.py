"""Miniature BERT-style encoder: embeddings, multi-head self-attention,
feed-forward blocks with post-layer-norm residuals (one tape node per
sublayer), and a post-FF slot where task adapters or a fusion layer attach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Protocol, get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .data import Batch
from .errors import ConfigError, ContractError
from .tensor import ParameterStore, Tensor

INIT_STD = 0.02
ADAPTER_UP_INIT_STD = 1e-4  # an adapter starts near the identity


def has_type(value, hint) -> bool:
    """Whether a parsed JSON value fits the type annotation ``hint``."""
    if hint is float:  # JSON writes 1.0 as 1
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    # not isinstance(hint, type): on Python 3.10 list[str] passes that test,
    # and isinstance(value, list[str]) raises TypeError
    if type(hint) is type:
        return isinstance(value, hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # JSON has lists, not tuples
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(has_type, value, args)))
    if origin is list:
        return isinstance(value, list) and all(has_type(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            has_type(k, args[0]) and has_type(v, args[1]) for k, v in value.items())
    return any(has_type(value, a) for a in args)  # X | None


def config_kwargs(cls, d) -> dict:
    """Keyword arguments for the config dataclass ``cls`` from a parsed
    JSON value: it must be an object whose keys are fields of ``cls`` and
    whose values have the field's type, or ConfigError is raised."""
    name = cls.__name__
    if not isinstance(d, Mapping):
        raise ConfigError(f"{name} must be a JSON object, got {type(d).__name__}")
    hints = get_type_hints(cls)
    for key, value in d.items():
        if key not in hints:
            raise ConfigError(f"{name}: unknown key {key!r}")
        hint = hints[key]
        if not has_type(value, hint):
            shown = hint.__name__ if type(hint) is type else hint
            raise ConfigError(f"{name}.{key} must be {shown}, got {value!r}")
    return dict(d)


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    hidden_size: int = 64
    num_heads: int = 4
    ff_size: int = 256
    vocab_size: int = 1000
    max_positions: int = 32
    num_segments: int = 2
    reduction_factor: int = 16
    eps: float = 1e-12

    def __post_init__(self):
        for name in ("num_layers", "hidden_size", "num_heads", "ff_size",
                     "vocab_size", "max_positions", "num_segments",
                     "reduction_factor"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ContractError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")
        if self.hidden_size % self.reduction_factor != 0:
            raise ContractError(
                f"reduction_factor {self.reduction_factor} does not divide "
                f"hidden_size {self.hidden_size}")
        if self.eps <= 0:
            raise ContractError("eps must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def bottleneck(self) -> int:
        return self.hidden_size // self.reduction_factor

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        """Reference encoder geometry used only for parameter accounting."""
        return cls(num_layers=12, hidden_size=768, num_heads=12, ff_size=3072,
                   vocab_size=28996, max_positions=512)

    def with_vocab(self, vocab_size: int) -> "ModelConfig":
        return replace(self, vocab_size=vocab_size)

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        return cls(**config_kwargs(cls, d))


class AdapterSlot(Protocol):
    """Hook applied to the FF-sublayer output of every encoder layer."""

    def apply(self, h_ff: Tensor, layer_idx: int) -> Tensor: ...


def encoder_param_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    h, ff = config.hidden_size, config.ff_size
    yield "embeddings.token", (config.vocab_size, h)
    yield "embeddings.position", (config.max_positions, h)
    yield "embeddings.segment", (config.num_segments, h)
    yield "embeddings.norm.gamma", (h,)
    yield "embeddings.norm.beta", (h,)
    for i in range(config.num_layers):
        p = f"layers.{i}"
        for proj in ("query", "key", "value", "output"):
            yield f"{p}.attention.{proj}.weight", (h, h)
            if proj != "key":  # a bias shared by every key cancels in the softmax
                yield f"{p}.attention.{proj}.bias", (h,)
        yield f"{p}.attention.norm.gamma", (h,)
        yield f"{p}.attention.norm.beta", (h,)
        yield f"{p}.ff.in.weight", (h, ff)
        yield f"{p}.ff.in.bias", (ff,)
        yield f"{p}.ff.out.weight", (ff, h)
        yield f"{p}.ff.out.bias", (h,)
        yield f"{p}.ff.norm.gamma", (h,)
        yield f"{p}.ff.norm.beta", (h,)


def init_parameter(store: ParameterStore, name: str, shape: tuple[int, ...],
                   rng: np.random.Generator) -> None:
    """Write the initial value of the store's parameter ``name`` of
    ``shape``: unit gammas, zero biases and betas, and normal(0, std)
    weights, with std ``ADAPTER_UP_INIT_STD`` for an adapter's up
    projection and ``INIT_STD`` for every other weight."""
    if name.endswith(".gamma"):
        data = np.ones(shape)
    elif name.endswith(".bias") or name.endswith(".beta"):
        data = np.zeros(shape)
    else:
        std = ADAPTER_UP_INIT_STD if name.endswith(".up.weight") else INIT_STD
        data = rng.normal(0.0, std, size=shape)
    store.assign(name, data)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def embed(config: ModelConfig, params: ParameterStore, batch: Batch,
          rows: np.ndarray) -> Tensor:
    """Sum of token, position, and segment embeddings, then layer-norm, for
    the flat positions ``rows`` of the [B, L] batch: [len(rows), H], as one
    ``tensor.embeddings`` op, which rejects an id out of its table's range."""
    l = batch.token_ids.shape[1]
    if l > config.max_positions:
        raise ContractError(
            f"sequence length {l} exceeds max_positions {config.max_positions}")
    return T.embeddings(
        [params[f"embeddings.{name}"] for name in ("token", "position", "segment")],
        [batch.token_ids.reshape(-1)[rows], rows % l,
         batch.segment_ids.reshape(-1)[rows]],
        params["embeddings.norm.gamma"], params["embeddings.norm.beta"], config.eps)


def linear(params: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    """``x @ {prefix}.weight + {prefix}.bias``: one ``matmul`` node. Every
    linear layer outside the model's block ops (the heads) is this."""
    return T.matmul(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def multi_head_attention(config: ModelConfig, params: ParameterStore,
                         layer_idx: int, h: Tensor, mask: np.ndarray,
                         rows: np.ndarray, cls_only: bool = False) -> Tensor:
    """The attention sublayer, residual and post-norm included:
    ``LN(x + MHA(h) W_o + b_o)`` as one ``tensor.self_attention`` node, or,
    with ``cls_only``, one ``tensor.cls_attention`` node.

    ``h`` [n, H] holds the rows at the flat positions ``rows`` of the [B, L]
    batch whose key mask is ``mask``; ``rows`` must cover every position
    the mask marks real. The queries (and x) are every row of ``h``, one
    row out per row in, or with ``cls_only`` each batch row's [CLS] row
    (position 0), one row out per batch row. Only the ops see the padded
    [B, L, ·] layout.
    """
    p = f"layers.{layer_idx}.attention"
    weights = [params[f"{p}.{name}"] for name in (
        "query.weight", "query.bias", "key.weight", "value.weight", "value.bias",
        "output.weight", "output.bias", "norm.gamma", "norm.beta")]
    op = T.cls_attention if cls_only else T.self_attention
    return op(h, weights, mask, rows, config.num_heads, config.eps)


def encoder_layer_forward(config: ModelConfig, params: ParameterStore,
                          layer_idx: int, h: Tensor, mask: np.ndarray,
                          rows: np.ndarray,
                          adapter_slot: AdapterSlot | None = None,
                          cls_only: bool = False) -> Tensor:
    """Attention sublayer, FF sublayer (both residual + post-norm, one node
    each), then the adapter slot applied to the FF-sublayer output.

    ``h``, ``mask``, ``rows`` and ``cls_only`` are as in
    ``multi_head_attention``. The layer computes the query rows only: every
    row, or with ``cls_only`` each batch row's [CLS] row. They attend over
    every row of ``h``, and the residuals, layer norms, FF block and adapter
    slot act on them alone, so the output is [n, H] or [B, H].
    """
    p = f"layers.{layer_idx}.ff"
    h1 = multi_head_attention(config, params, layer_idx, h, mask, rows, cls_only)
    h2 = T.feed_forward(h1, [params[f"{p}.{name}"] for name in (
        "in.weight", "in.bias", "out.weight", "out.bias", "norm.gamma",
        "norm.beta")], config.eps)
    if adapter_slot is None:
        return h2
    return adapter_slot.apply(h2, layer_idx)


def encode(config: ModelConfig, params: ParameterStore, batch: Batch,
           adapter_slot: AdapterSlot | None = None) -> Tensor:
    """The [CLS] state [B, H] of every row of the batch.

    The batch is packed once: ``rows = np.flatnonzero(attention_mask)``.
    Every position-wise layer (embeddings, linears, residuals, layer norms,
    FF block, adapter slot) then runs on those real-token rows only; padded
    positions would only ever feed keys the mask weights 0. Every layer but
    the last computes all of them; the last computes each row's [CLS] row
    only, since only that reaches a head, through ``tensor.cls_attention``,
    which projects no key or value. Position 0 of every row must be a real
    token, or ContractError is raised.
    """
    mask = batch.attention_mask
    masked_cls = np.flatnonzero(mask[:, 0] == 0)
    if masked_cls.size:
        raise ContractError(
            f"attention_mask masks the [CLS] position of batch row {masked_cls[0]}")
    rows = np.flatnonzero(mask)
    h = embed(config, params, batch, rows)
    last = config.num_layers - 1
    for i in range(last):
        h = encoder_layer_forward(config, params, i, h, mask, rows, adapter_slot)
    return encoder_layer_forward(config, params, last, h, mask, rows, adapter_slot,
                                 cls_only=True)
