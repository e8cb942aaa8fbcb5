"""Classification heads and the loss family: plain BCE, positive-weighted
BCE for class imbalance, multi-label focal loss, and 7-way cross-entropy.

Each loss is one ``scalar_loss`` tape node: its value is computed in numpy
from the logits and its gradient in closed form. Targets, positive weights
and other constants take the dtype of the logits, so a float32 model gets a
float32 loss and gradient.

All BCE variants use the stable log-sigmoid form, so extreme logits never
overflow. The positive weight w_c = negatives_c / positives_c multiplies
only the positive term: with more negatives than positives it pushes recall
up, and precision in the opposite situation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .data import ClassStats
from .encoder import ModelConfig, linear
from .errors import ContractError
from .tensor import ParameterStore, Tensor

REDUCTIONS = ("batch-mean", "sum")
# the head width of each task kind; a head of any other width is refused
TASK_NUM_LABELS = {"binary": 1, "multiclass-7": 7, "multilabel-6": 6}


@dataclass
class PosWeights:
    """Per-class positive-term weights derived from training-split counts."""
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise ContractError("positive weights must be finite and nonnegative")


def head_param_shapes(config: ModelConfig, task: str,
                      num_labels: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    if num_labels not in TASK_NUM_LABELS.values():
        raise ContractError(f"num_labels must be one of "
                            f"{sorted(TASK_NUM_LABELS.values())}, got {num_labels}")
    h = config.hidden_size
    p = f"heads.{task}"
    yield f"{p}.dense.weight", (h, h)
    yield f"{p}.dense.bias", (h,)
    yield f"{p}.out.weight", (h, num_labels)
    yield f"{p}.out.bias", (num_labels,)


def head_forward(params: ParameterStore, task: str, cls_state: Tensor) -> Tensor:
    """Two linear layers with a tanh between: logits = tanh(x W1 + b1) W2 + b2."""
    p = f"heads.{task}"
    return linear(params, f"{p}.out", T.tanh(linear(params, f"{p}.dense", cls_state)))


def pos_weights(stats: ClassStats, cap: float | None = None) -> PosWeights:
    """w_c = negatives_c / positives_c; zero-positive classes get ``cap``
    (default: split size) and a warning."""
    if cap is None:
        cap = float(stats.total)
    w = np.empty(len(stats.labels), dtype=np.float64)
    for i, label in enumerate(stats.labels):
        pos = float(stats.positives[i])
        if pos == 0.0:
            warnings.warn(
                f"class {label!r} has no positive training samples; "
                f"capping its positive weight at {cap}", RuntimeWarning,
                stacklevel=2)
            w[i] = cap
        else:
            w[i] = float(stats.negatives[i]) / pos
    return PosWeights(w=w)


def _check_binary_targets(logits: Tensor, targets: np.ndarray) -> np.ndarray:
    """The 0/1 targets in the dtype of ``logits``."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ContractError(
            f"targets shape {targets.shape} does not match logits {logits.shape}")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ContractError("targets must be 0/1")
    return targets.astype(logits.data.dtype, copy=False)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    # separate branches so exp never sees a large positive argument
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), finite for every
    finite x."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def _coefficient(batch_size: int, reduction: str) -> float:
    """c in L = c * (sum over elements): 1/B for "batch-mean", 1 for "sum"."""
    if reduction == "batch-mean":
        return 1.0 / batch_size
    if reduction == "sum":
        return 1.0
    raise ContractError(f"unknown reduction {reduction!r}")


def weighted_bce(logits: Tensor, targets: np.ndarray, weights: PosWeights,
                 reduction: str = "batch-mean") -> Tensor:
    """Sum over classes of -[w_c y log sigma(x) + (1-y) log sigma(-x)],
    then mean over the batch (or a plain double sum with reduction="sum").
    dL/dx = c [(1-y) sigma(x) - w_c y sigma(-x)]."""
    y = _check_binary_targets(logits, targets)
    w = np.asarray(weights.w, dtype=y.dtype)
    if w.shape != (logits.shape[-1],):
        raise ContractError(
            f"weights length {w.shape} does not match {logits.shape[-1]} classes")
    c = _coefficient(logits.shape[0], reduction)
    x, wy = logits.data, w * y
    value = -np.sum(wy * _log_sigmoid(x) + (1.0 - y) * _log_sigmoid(-x)) * c
    return T.scalar_loss(logits, value, lambda: (
        c * (1.0 - y) * _sigmoid_stable(x) - c * wy * _sigmoid_stable(-x)))


def bce(logits: Tensor, targets: np.ndarray,
        reduction: str = "batch-mean") -> Tensor:
    """weighted_bce with w identically 1."""
    ones = PosWeights(w=np.ones(logits.shape[-1]))
    return weighted_bce(logits, targets, ones, reduction=reduction)


def focal_multilabel(logits: Tensor, targets: np.ndarray, gamma: float = 2.0,
                     alpha: float | None = None,
                     reduction: str = "batch-mean") -> Tensor:
    """-alpha_t (1 - p_t)^gamma log(p_t) per element, p_t = sigma(x) when
    y = 1 and 1 - sigma(x) otherwise; gamma = 0 recovers plain BCE.

    With s = 2y - 1, t = s x and q = sigma(-t) = 1 - p_t, the gradient is
    dL/dx = -c alpha_t s q^gamma (q - gamma (1 - q) log sigma(t)), which
    raises q to no negative power, so it stays finite when q underflows."""
    if gamma < 0:
        raise ContractError(f"gamma must be nonnegative, got {gamma}")
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    y = _check_binary_targets(logits, targets)
    c = _coefficient(logits.shape[0], reduction)
    sign = 2.0 * y - 1.0
    t = sign * logits.data
    q = _sigmoid_stable(-t)
    damp = q ** float(gamma)
    log_p = _log_sigmoid(t)
    a = 1.0 if alpha is None else alpha * y + (1.0 - alpha) * (1.0 - y)
    value = -np.sum(a * (damp * log_p)) * c
    return T.scalar_loss(logits, value, lambda: (
        -c * a * sign * damp * (q - gamma * (1.0 - q) * log_p)))


def cross_entropy_7(logits: Tensor, target_ids: np.ndarray,
                    reduction: str = "batch-mean") -> Tensor:
    """Mean over the batch of -log softmax(logits)[target];
    dL/dx = c (softmax(x) - onehot)."""
    ids = np.asarray(target_ids)
    k = logits.shape[-1]
    if ids.shape != (logits.shape[0],):
        raise ContractError(
            f"target ids shape {ids.shape} does not match batch {logits.shape[0]}")
    if np.any(ids < 0) or np.any(ids >= k):
        raise ContractError(f"target id out of range [0, {k})")
    c = _coefficient(logits.shape[0], reduction)
    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    onehot[np.arange(len(ids)), ids] = 1.0
    shifted = logits.data - np.max(logits.data, axis=1, keepdims=True)
    log_p = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    value = -np.sum(log_p * onehot) * c
    return T.scalar_loss(logits, value, lambda: np.exp(log_p) * c - c * onehot)


LOSS_NAMES = ("bce", "weighted_bce", "focal")


def multilabel_loss(name: str, logits: Tensor, targets: np.ndarray,
                    weights: PosWeights | None = None,
                    gamma: float = 2.0, alpha: float | None = None,
                    reduction: str = "batch-mean") -> Tensor:
    """Select a loss by configuration key."""
    if name == "bce":
        return bce(logits, targets, reduction=reduction)
    if name == "weighted_bce":
        if weights is None:
            raise ContractError("weighted_bce needs positive weights")
        return weighted_bce(logits, targets, weights, reduction=reduction)
    if name == "focal":
        return focal_multilabel(logits, targets, gamma=gamma, alpha=alpha,
                                reduction=reduction)
    raise ContractError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
