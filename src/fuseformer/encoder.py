"""Miniature BERT-style encoder: embeddings, multi-head self-attention,
feed-forward blocks with post-layer-norm residuals, and a post-FF slot where
task adapters or a fusion layer attach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Protocol

import numpy as np

from . import tensor as T
from .data import Batch
from .errors import ContractError
from .tensor import ParameterStore, Tensor

INIT_STD = 0.02


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
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
                   rng: np.random.Generator, std: float = INIT_STD) -> Tensor:
    """normal(0, std) weights, zero biases/betas, unit gammas."""
    if name.endswith(".gamma"):
        data = np.ones(shape)
    elif name.endswith(".bias") or name.endswith(".beta"):
        data = np.zeros(shape)
    else:
        data = rng.normal(0.0, std, size=shape)
    return store.add(name, data)


def init_encoder_params(config: ModelConfig, store: ParameterStore,
                        rng: np.random.Generator) -> None:
    for name, shape in encoder_param_shapes(config):
        init_parameter(store, name, shape, rng)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def embed(config: ModelConfig, params: ParameterStore, batch: Batch) -> Tensor:
    """Sum of token, position, and segment embeddings, then layer-norm."""
    ids = batch.token_ids
    b, l = ids.shape
    if l > config.max_positions:
        raise ContractError(
            f"sequence length {l} exceeds max_positions {config.max_positions}")
    if np.any(ids >= config.vocab_size) or np.any(ids < 0):
        raise ContractError(f"token id out of range for vocab {config.vocab_size}")
    if np.any(batch.segment_ids >= config.num_segments):
        raise ContractError("segment id out of range")
    positions = np.broadcast_to(np.arange(l), (b, l))
    x = T.add(T.embedding(params["embeddings.token"], ids),
              T.embedding(params["embeddings.position"], positions))
    x = T.add(x, T.embedding(params["embeddings.segment"], batch.segment_ids))
    return T.layer_norm(x, params["embeddings.norm.gamma"],
                        params["embeddings.norm.beta"], config.eps)


def _linear(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    return T.add_bias(T.matmul(x, params[f"{prefix}.weight"]),
                      params[f"{prefix}.bias"])


def multi_head_attention(config: ModelConfig, params: ParameterStore,
                         layer_idx: int, h: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention over heads; returns the pre-residual
    output projection. Masked key positions receive -1e9 before softmax."""
    prefix = f"layers.{layer_idx}.attention"
    q, k, v = (_linear(h, params, f"{prefix}.{name}")
               for name in ("query", "key", "value"))
    weights = T.attention_weights(q, k, config.num_heads,
                                  1.0 / math.sqrt(config.head_dim), mask)
    return _linear(T.attend(weights, v), params, f"{prefix}.output")


def encoder_layer_forward(config: ModelConfig, params: ParameterStore,
                          layer_idx: int, h: Tensor, mask: np.ndarray,
                          adapter_slot: AdapterSlot | None = None) -> Tensor:
    """Attention sublayer, FF sublayer (both residual + post-norm), then the
    adapter slot applied to the FF-sublayer output."""
    p = f"layers.{layer_idx}"
    attn = multi_head_attention(config, params, layer_idx, h, mask)
    h1 = T.layer_norm(T.add(h, attn), params[f"{p}.attention.norm.gamma"],
                      params[f"{p}.attention.norm.beta"], config.eps)
    ff = _linear(T.gelu(_linear(h1, params, f"{p}.ff.in")), params, f"{p}.ff.out")
    h2 = T.layer_norm(T.add(h1, ff), params[f"{p}.ff.norm.gamma"],
                      params[f"{p}.ff.norm.beta"], config.eps)
    if adapter_slot is None:
        return h2
    return adapter_slot.apply(h2, layer_idx)


def encode(config: ModelConfig, params: ParameterStore, batch: Batch,
           adapter_slot: AdapterSlot | None = None) -> tuple[Tensor, Tensor]:
    """All layers in sequence; cls_state is the last layer at position 0."""
    h = embed(config, params, batch)
    for i in range(config.num_layers):
        h = encoder_layer_forward(config, params, i, h, batch.attention_mask,
                                  adapter_slot)
    return h, T.position_select(h, 0)
