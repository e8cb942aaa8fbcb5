"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation records a node holding its inputs and a
backward closure. ``backward`` orders the graph below a scalar root
topologically and replays it in reverse, accumulating gradients with ``+=``
across shared subexpressions. Inside ``no_grad`` nothing is recorded.
Elementwise broadcasting is deliberately
restricted to scalar-vs-tensor and equal shapes; ``matmul``, ``add_bias``,
``layer_norm`` and the attention ops act on the last axes and accept any
leading dims.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeMismatchError

Array = np.ndarray


class TapeNode:
    """One executed operation: its inputs and its backward closure. A node
    holds no reference to its output, so a graph is freed by reference
    counting as soon as its root is dropped."""

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op: str, inputs: tuple["Tensor", ...],
                 backward_fn: Callable[[Array], tuple[Array | None, ...]]):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Row-major float64 array plus gradient bookkeeping.

    ``grad`` stays ``None`` until a backward pass deposits something; a
    tensor with ``requires_grad=False`` is never written to by backward.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self.node: TapeNode | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def constant(data) -> Tensor:
    return Tensor(data)


_THREAD = threading.local()


class no_grad:
    """Ops run in this block on this thread record no tape node, so a
    forward that is never differentiated builds no graph."""

    def __enter__(self) -> None:
        self._previous = getattr(_THREAD, "no_grad", False)
        _THREAD.no_grad = True

    def __exit__(self, *exc) -> None:
        _THREAD.no_grad = self._previous


def _track(op: str, inputs: Sequence[Tensor], out_data: Array,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    if (not getattr(_THREAD, "no_grad", False)
            and any(t.requires_grad or t.node is not None for t in inputs)):
        out.node = TapeNode(op, tuple(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise ops (scalar-vs-tensor and equal-shape broadcasting only)
# ---------------------------------------------------------------------------

def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeMismatchError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(shape: tuple[int, ...], g: Array) -> Array:
    # gradient of a size-1 operand broadcast against a full tensor
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if math.prod(shape) == 1 else g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)
    out = a.data + b.data

    def backward(g: Array):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, g)

    return _track("add", (a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)
    out = a.data * b.data

    def backward(g: Array):
        return _reduce_to(a.shape, g * b.data), _reduce_to(b.shape, g * a.data)

    return _track("mul", (a, b), out, backward)


def neg(a: Tensor) -> Tensor:
    return _track("neg", (a,), -a.data, lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _track("scale", (a,), a.data * c, lambda g: (g * c,))


def _sigmoid_stable(x: Array) -> Array:
    # separate branches so exp never sees a large positive argument
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_stable(a.data)
    return _track("sigmoid", (a,), y, lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _track("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def backward(g: Array):
        return (g * (a.data > 0.0),)

    return _track("relu", (a,), y, backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        worst = float(np.min(a.data))
        raise DomainError(f"log of non-positive value (min operand {worst})")
    return _track("log", (a,), np.log(a.data), lambda g: (g / a.data,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU used in the encoder feed-forward block."""
    x = a.data
    u = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)

    def backward(g: Array):
        du = _GELU_C * (1.0 + 3.0 * 0.044715 * (x * x))
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _track("gelu", (a,), y, backward)


def pow_const(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    y = a.data ** e

    def backward(g: Array):
        return (g * e * a.data ** (e - 1.0),) if e != 0.0 else (np.zeros_like(a.data),)

    return _track("pow", (a,), y, backward)


def log_sigmoid(a: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|))."""
    x = a.data
    y = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(g: Array):
        return (g * _sigmoid_stable(-x),)

    return _track("log_sigmoid", (a,), y, backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., k] @ [k, n] -> [..., n], computed as one 2-D GEMM over the
    flattened leading dims (numpy's N-d ``@`` would loop over them)."""
    if a.data.ndim == 0 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    a2 = a.data.reshape(-1, b.shape[0])
    out = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

    def backward(g: Array):
        g2 = g.reshape(-1, b.shape[1])
        return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    return _track("matmul", (a, b), out, backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-D bias along the last axis of ``x``."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")
    out = x.data + b.data

    def backward(g: Array):
        lead = tuple(range(g.ndim - 1))
        return g, g.sum(axis=lead)

    return _track("add_bias", (x, b), out, backward)


def _softmax(x: Array, axis: int) -> Array:
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_backward(y: Array, g: Array, axis: int) -> Array:
    return y * (g - np.sum(g * y, axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1 within 1e-12."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ContractError(f"softmax: axis {axis} out of bounds for shape {x.shape}")
    y = _softmax(x.data, axis)
    return _track("softmax", (x,), y, lambda g: (_softmax_backward(y, g, axis),))


# ---------------------------------------------------------------------------
# attention (shared by the encoder and the fusion layer)
# ---------------------------------------------------------------------------

_MASKED_SCORE = -1e9


def _split_heads(x: Array, heads: int) -> Array:
    """[..., L, H] -> [..., heads, L, H / heads] (a view)."""
    *lead, length, hidden = x.shape
    return x.reshape(*lead, length, heads, hidden // heads).swapaxes(-3, -2)


def _merge_heads(x: Array) -> Array:
    """[..., heads, L, dh] -> [..., L, heads * dh]."""
    *lead, heads, length, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, length, heads * dh)


def attention_weights(q: Tensor, k: Tensor, heads: int, scale: float,
                      key_mask: Array | None = None) -> Tensor:
    """softmax(scale * q k^T) per head: [..., Lq, H] x [..., Lk, H] ->
    [..., heads, Lq, Lk]. ``key_mask`` is [..., Lk] with 0 marking keys
    that receive a -1e9 score before the softmax; it broadcasts over heads
    and queries."""
    if (q.data.ndim < 2 or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]
            or q.shape[-1] % heads != 0):
        raise ShapeMismatchError(
            f"attention_weights: incompatible shapes {q.shape} and {k.shape} "
            f"for {heads} heads")
    qh, kh = _split_heads(q.data, heads), _split_heads(k.data, heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if key_mask is not None:
        fill = (1.0 - np.asarray(key_mask, dtype=np.float64)) * _MASKED_SCORE
        scores = scores + fill[..., None, None, :]
    y = _softmax(scores, -1)

    def backward(g: Array):
        ds = _softmax_backward(y, g, -1) * scale
        return _merge_heads(ds @ kh), _merge_heads(ds.swapaxes(-1, -2) @ qh)

    return _track("attention_weights", (q, k), y, backward)


def attend(weights: Tensor, v: Tensor) -> Tensor:
    """Per-head weighted sum of values: [..., heads, Lq, Lk] x [..., Lk, H]
    -> [..., Lq, H]."""
    if (weights.data.ndim < 3 or v.data.ndim < 2 or weights.shape[:-3] != v.shape[:-2]
            or v.shape[-2] != weights.shape[-1] or v.shape[-1] % weights.shape[-3] != 0):
        raise ShapeMismatchError(
            f"attend: incompatible shapes {weights.shape} and {v.shape}")
    heads = weights.shape[-3]
    vh = _split_heads(v.data, heads)
    out = _merge_heads(weights.data @ vh)

    def backward(g: Array):
        gh = _split_heads(g, heads)
        return gh @ vh.swapaxes(-1, -2), _merge_heads(weights.data.swapaxes(-1, -2) @ gh)

    return _track("attend", (weights, v), out, backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ContractError(f"log_softmax: axis {axis} out of bounds for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    y = shifted - lse

    def backward(g: Array):
        sm = np.exp(y)
        return (g - sm * np.sum(g, axis=axis, keepdims=True),)

    return _track("log_softmax", (x,), y, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Standardize over the last axis, then scale by gamma and shift by beta."""
    if eps <= 0:
        raise ContractError(f"layer_norm: eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm: gamma/beta {gamma.shape}/{beta.shape} vs last axis {d}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def backward(g: Array):
        lead = tuple(range(g.ndim - 1))
        dgamma = np.sum(g * xhat, axis=lead)
        dbeta = np.sum(g, axis=lead)
        dxhat = g * gamma.data
        m1 = np.mean(dxhat, axis=-1, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _track("layer_norm", (x, gamma, beta), out, backward)


# ---------------------------------------------------------------------------
# lookup / shaping
# ---------------------------------------------------------------------------

def embedding(table: Tensor, ids: Array) -> Tensor:
    """Gather rows of ``table`` by integer ids; gradient scatter-adds."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ContractError(
            f"embedding: id out of range for table with {table.shape[0]} rows")
    out = table.data[ids]

    def backward(g: Array):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return _track("embedding", (table,), out, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g: Array):
        return (g.reshape(x.shape),)

    return _track("reshape", (x,), out, backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Stack equal-shape tensors along a new ``axis``."""
    if not tensors:
        raise ContractError("stack of zero tensors")
    out = np.stack([t.data for t in tensors], axis=axis)
    return _track("stack", tuple(tensors), out,
                  lambda g: tuple(np.moveaxis(g, axis, 0)))


def position_select(x: Tensor, pos: int) -> Tensor:
    """Select one sequence position from a [B, L, H] tensor -> [B, H]."""
    out = x.data[:, pos, :].copy()

    def backward(g: Array):
        dx = np.zeros_like(x.data)
        dx[:, pos, :] = g
        return (dx,)

    return _track("position_select", (x,), out, backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(np.sum(x.data))

    def backward(g: Array):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _track("sum", (x,), out, backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = np.asarray(np.sum(x.data) / n)

    def backward(g: Array):
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _track("mean", (x,), out, backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every requires_grad leaf reachable from ``loss``.

    The nodes below ``loss`` are put in topological order (inputs before
    consumers) and their backward closures run once each, in reverse.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    order: list[TapeNode] = []
    seen: set[TapeNode] = set()
    todo: list[tuple[TapeNode, bool]] = [(loss.node, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        todo.append((node, True))
        for t in node.inputs:
            if t.node is not None and t.node not in seen:
                todo.append((t.node, False))

    # gradient w.r.t. each node's output, keyed by the node
    pending: dict[TapeNode, Array] = {loss.node: seed}
    for node in reversed(order):
        g = pending.pop(node, None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None:
                continue
            if t.node is not None:
                pending[t.node] = pending[t.node] + gi if t.node in pending else gi
            elif t.requires_grad:
                t.grad = gi.copy() if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------

class ParameterStore:
    """Named trainable tensors in a fixed insertion order."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data, requires_grad: bool = True) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=requires_grad, name=name)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._tensors.items()

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def set_requires_grad(self, names: Iterable[str], flag: bool) -> None:
        for name in names:
            self._tensors[name].requires_grad = flag

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._tensors.items() if t.requires_grad]

    def num_parameters(self, names: Iterable[str] | None = None) -> int:
        names = self.names() if names is None else list(names)
        return sum(self._tensors[n].size for n in names)

    def state_bytes(self, names: Iterable[str] | None = None) -> bytes:
        """Little-endian float32 serialization in sorted name order."""
        names = sorted(self.names() if names is None else names)
        chunks = [self._tensors[n].data.astype("<f4").tobytes() for n in names]
        return b"".join(chunks)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class BlockCheck:
    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    checked: int


@dataclass
class FDReport:
    tol: float
    blocks: list[BlockCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(b.max_rel_err < self.tol for b in self.blocks)

    def worst(self) -> BlockCheck:
        return max(self.blocks, key=lambda b: b.max_rel_err)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _scalar(t: Tensor) -> float:
    return float(t.data.reshape(-1)[0])


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Iterable[tuple[str, Tensor]],
                            h: float = 1e-5,
                            tol: float = 1e-4,
                            max_coords_per_block: int | None = None,
                            rng: np.random.Generator | None = None,
                            grad_transform: Callable[[str, Array], Array] | None = None
                            ) -> FDReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild the forward graph on every call from the current
    parameter values. When ``max_coords_per_block`` is set, a seeded sample of
    coordinates per block is probed instead of an exhaustive sweep.
    ``grad_transform`` lets harness tests corrupt the analytic side.
    """
    if h <= 0:
        raise ContractError(f"finite_difference_check: h must be positive, got {h}")
    params = list(params)
    for _, t in params:
        t.grad = None
    loss = loss_fn()
    backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params}
    if grad_transform is not None:
        analytic = {name: grad_transform(name, g) for name, g in analytic.items()}
    if rng is None:
        rng = np.random.default_rng(0)

    report = FDReport(tol=tol)
    for name, t in params:
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords_per_block is not None and n > max_coords_per_block:
            coords = rng.choice(n, size=max_coords_per_block, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        worst_idx: tuple[int, ...] = (0,)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = _scalar(loss_fn())
            flat[i] = orig - h
            f_minus = _scalar(loss_fn())
            flat[i] = orig
            estimate = (f_plus - f_minus) / (2.0 * h)
            err = relative_error(float(analytic[name].reshape(-1)[i]), estimate)
            if err > worst:
                worst = err
                worst_idx = np.unravel_index(int(i), t.shape)
        report.blocks.append(BlockCheck(name=name, max_rel_err=worst,
                                        worst_index=tuple(int(v) for v in worst_idx),
                                        checked=len(coords)))
    return report
