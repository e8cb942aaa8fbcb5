"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Every op returns the dtype of its inputs, and the constants it makes (mask
fills, zero buffers) follow that dtype, so a graph built from float32
parameters stays float32 through its backward.

Every differentiable operation records a node holding its inputs and a
backward closure. ``backward`` orders the graph below a scalar root
topologically and replays it in reverse, accumulating gradients with ``+=``
across shared subexpressions. Inside ``no_grad`` nothing is recorded.
``add`` takes equal shapes only; ``matmul``, ``layer_norm`` and
``adapter_fusion`` act on the last axes and accept any leading dims;
``attention`` takes packed [n, H] rows and alone builds a padded layout.
A loss is one ``scalar_loss`` node whose value and gradient its caller
computes in closed form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeMismatchError

Array = np.ndarray
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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
    """Row-major float32 or float64 array plus gradient bookkeeping. Data
    of either dtype is kept as it is; any other input becomes float64.

    ``grad`` stays ``None`` until a backward pass deposits something; a
    tensor with ``requires_grad=False`` is never written to by backward.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        data = np.asarray(data)
        self.data = data if data.dtype in FLOAT_DTYPES else data.astype(np.float64)
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


_THREAD = threading.local()


class no_grad:
    """Ops run in this block on this thread record no tape node, so a
    forward that is never differentiated builds no graph."""

    def __enter__(self) -> None:
        self._previous = getattr(_THREAD, "no_grad", False)
        _THREAD.no_grad = True

    def __exit__(self, *exc) -> None:
        _THREAD.no_grad = self._previous


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient w.r.t. ``t`` can reach a leaf that wants one."""
    return t.requires_grad or t.node is not None


def _track(op: str, inputs: Sequence[Tensor], out_data: Array,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    if not getattr(_THREAD, "no_grad", False) and any(map(_needs_grad, inputs)):
        out.node = TapeNode(op, tuple(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _track("add", (a, b), a.data + b.data, lambda g: (g, g))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _track("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def backward(g: Array):
        return (g * (a.data > 0.0),)

    return _track("relu", (a,), y, backward)


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


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine op of every linear layer: [..., k] @ [k, n] + b[n] ->
    [..., n]. The bias add is part of the op, so a linear layer is one tape
    node. The product is one 2-D GEMM over the flattened leading dims
    (numpy's N-d ``@`` would loop over them)."""
    if (x.data.ndim == 0 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    out = (x2 @ w.data + b.data).reshape(x.shape[:-1] + w.shape[1:])

    def backward(g: Array):
        g2 = g.reshape(-1, w.shape[1])
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return _track("matmul", (x, w, b), out, backward)


def _row_sum(x: Array) -> Array:
    """Sum over the last axis, keeping it: one GEMV against ones, several
    times faster than ``np.sum`` over the short axes softmax runs on."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n, x.dtype)).reshape(x.shape[:-1] + (1,))


def _softmax(x: Array) -> Array:
    """Max-shifted softmax over the last axis; rows sum to 1 within 1e-12 in
    float64. The max is a running ``np.maximum`` over slices of the (short)
    axis, which is exact and faster than ``np.max``."""
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    e = x - m[..., None]
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def _softmax_backward(y: Array, g: Array) -> Array:
    return y * (g - _row_sum(g * y))


# ---------------------------------------------------------------------------
# attention over packed rows
# ---------------------------------------------------------------------------

_MASKED_SCORE = -1e9


def _split_heads(x: Array, heads: int) -> Array:
    """[..., L, H] -> [..., heads, L, H / heads] (a view)."""
    *lead, length, hidden = x.shape
    return x.reshape(*lead, length, heads, hidden // heads).swapaxes(-3, -2)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Array, rows: Array,
              q_rows: Array, heads: int, scale: float) -> Tensor:
    """Multi-head softmax(scale * q k^T) v over packed rows, as one node.
    ``k`` and ``v`` [n, H] sit at the flat positions ``rows`` of a [B, L]
    batch whose key mask ``mask`` gives the keys it marks 0 a -1e9 score
    (``rows`` must cover every real one), and ``q`` [m, H] at the flat
    positions ``q_rows``. Each query attends over its own batch row; returns
    [m, H]. Inside, keys and values are laid out as [B, L, H] and each batch
    row's queries, in order, as [B, Lq, H], where Lq is the most queries any
    batch row has (1 when only the [CLS] rows query)."""
    mask, rows, q_rows = np.asarray(mask), np.asarray(rows), np.asarray(q_rows)
    if (mask.ndim != 2 or q.data.ndim != 2 or q.shape[:1] != q_rows.shape
            or k.shape != rows.shape + q.shape[1:] or v.shape != k.shape
            or q.shape[1] % heads != 0):
        raise ShapeMismatchError(
            f"attention: q {q.shape} at {q_rows.shape} positions, k {k.shape} and "
            f"v {v.shape} at {rows.shape} positions, mask {mask.shape}, "
            f"{heads} heads")
    b, length = mask.shape
    _check_rows("attention", rows, b * length)
    _check_rows("attention", q_rows, b * length)
    hidden = q.shape[1]
    q_batch = q_rows // length
    q_slot = np.arange(len(q_rows)) - np.searchsorted(q_batch, q_batch)
    q_len = int(q_slot.max(initial=-1)) + 1
    q_at, k_at = (q_batch, q_slot), (rows // length, rows % length)

    def padded(x: Array, at: tuple[Array, Array], width: int) -> Array:
        """Zeros [b, heads, width, dh] holding the rows of ``x`` at the
        (batch row, slot) pairs ``at``."""
        out = np.zeros((b, width, hidden), dtype=x.dtype)
        out[at] = x
        return _split_heads(out, heads)

    def packed(x: Array, at: tuple[Array, Array]) -> Array:
        """The rows of ``x`` [b, heads, width, dh] at ``at``, heads merged."""
        return x[at[0], :, at[1]].reshape(-1, hidden)

    qh = padded(q.data, q_at, q_len)
    kh, vh = padded(k.data, k_at, length), padded(v.data, k_at, length)
    fill = (1.0 - mask.astype(q.data.dtype)) * _MASKED_SCORE
    y = _softmax((qh @ kh.swapaxes(-1, -2)) * scale + fill[:, None, None, :])

    def backward(g: Array):
        gh = padded(g, q_at, q_len)
        ds = _softmax_backward(y, gh @ vh.swapaxes(-1, -2)) * scale
        return (packed(ds @ kh, q_at), packed(ds.swapaxes(-1, -2) @ qh, k_at),
                packed(y.swapaxes(-1, -2) @ gh, k_at))

    return _track("attention", (q, k, v), packed(y @ vh, q_at), backward)


def adapter_fusion(h: Tensor, w_down: Sequence[Tensor], b_down: Sequence[Tensor],
                   w_up: Sequence[Tensor], b_up: Sequence[Tensor], w_q: Tensor,
                   w_k: Tensor, w_v: Tensor) -> tuple[Tensor, Array]:
    """T bottleneck adapters and the AdapterFusion attention over them, from
    ``h`` [..., H]: adapter t gives ``z_t = h + y_t`` with
    ``y_t = relu(h W_down,t + b_down,t) W_up,t + b_up,t`` ([H, b], [b],
    [b, H], [H] weights), and the output is ``sum_t a_t (z_t W_V)`` with
    ``a = softmax_t((h W_Q) . (z_t W_K))`` and [H, H] query, key and value
    weights.

    No z_t is built. Each bias b_up,t rides as one more bottleneck unit
    whose activation is 1: with u_t the [b + 1]-wide activations and
    W_t = [W_up,t; b_up,t], ``y_t = u_t W_t``. With r = h (W_Q W_K^T), every
    score shares the term h . r, which softmax ignores, so the scores are
    ``u_t . (r W_t^T)`` and the output is ``(h + sum_t a_t u_t W_t) W_V``.
    Every GEMM is [N, H] x [H, Tb + H], [N, H] x [H, H] or
    [N, T(b + 1)] x [T(b + 1), H] over the N leading positions. One tape
    node; its backward returns ``None`` for every input that needs no
    gradient and skips that work. Returns the output [..., H] and the
    weights a [..., T].
    """
    tasks = len(w_down)
    if not tasks:
        raise ContractError("adapter_fusion requires at least one adapter")
    if not len(b_down) == len(w_up) == len(b_up) == tasks:
        raise ContractError(
            f"adapter_fusion: {tasks} down weights but {len(b_down)} down biases, "
            f"{len(w_up)} up weights and {len(b_up)} up biases")
    if h.data.ndim == 0:
        raise ShapeMismatchError("adapter_fusion: input must have a hidden axis")
    hidden = h.shape[-1]
    width = w_down[0].shape[-1] if w_down[0].data.ndim == 2 else -1
    for shapes in zip(w_down, b_down, w_up, b_up):
        got = tuple(t.shape for t in shapes)
        if got != ((hidden, width), (width,), (width, hidden), (hidden,)):
            raise ShapeMismatchError(
                f"adapter_fusion: adapter shapes {got} do not match input shape "
                f"{h.shape} and bottleneck {width}")
    for w in (w_q, w_k, w_v):
        if w.shape != (hidden, hidden):
            raise ShapeMismatchError(
                f"adapter_fusion: weight shape {w.shape} does not match input "
                f"shape {h.shape}; expected {(hidden, hidden)}")
    x = h.data.reshape(-1, hidden)
    n, wide = x.shape[0], width + 1
    wd = np.concatenate([t.data for t in w_down], axis=1)             # [H, Tb]
    bd = np.concatenate([t.data for t in b_down])
    wu = np.concatenate([np.stack([t.data for t in w_up]),
                         np.stack([t.data for t in b_up])[:, None]], axis=1)
    wu = wu.reshape(tasks * wide, hidden)                              # [T(b+1), H]
    wqk = w_q.data @ w_k.data.T
    first = x @ np.concatenate([wd, wqk], axis=1)                      # [N, Tb + H]
    u = np.ones((n, tasks, wide), dtype=x.dtype)
    u[..., :width] = np.maximum(first[:, :tasks * width] + bd,
                                0.0).reshape(n, tasks, width)
    r = first[:, tasks * width:]
    rw = (r @ wu.T).reshape(n, tasks, wide)
    alpha = _softmax(_row_sum(u * rw)[..., 0])                        # [N, T]
    v = (alpha[..., None] * u).reshape(n, tasks * wide)
    m = x + v @ wu
    out = (m @ w_v.data).reshape(h.shape)

    inputs = (h, *w_down, *b_down, *w_up, *b_up, w_q, w_k, w_v)

    def backward(g: Array):
        need = [_needs_grad(t) for t in inputs]
        need_h, need_q, need_k, need_v = need[0], *need[-3:]
        need_down, need_up = any(need[1:1 + 2 * tasks]), any(need[1 + 2 * tasks:-3])
        g2 = g.reshape(-1, hidden)
        dm = g2 @ w_v.data.T
        dv = (dm @ wu.T).reshape(n, tasks, wide)
        # d a_t = dm . y_t: the dm . h part every z_t shares is left out
        # (the softmax backward cancels it), so float32 keeps the differences
        ds = _softmax_backward(alpha, _row_sum(dv * u)[..., 0])
        drw = (ds[..., None] * u).reshape(n, tasks * wide)
        grads: list[Array | None] = [None] * len(need)
        if need_h or need_q or need_k:
            dr = drw @ wu
            if need_q or need_k:
                p = x.T @ dr
                grads[-3], grads[-2] = p @ w_k.data, p.T @ w_q.data
        if need_v:
            grads[-1] = m.T @ g2
        if need_up:
            dwu = (v.T @ dm + drw.T @ r).reshape(tasks, wide, hidden)
            for t in range(tasks):
                grads[1 + 2 * tasks + t] = dwu[t, :width]
                grads[1 + 3 * tasks + t] = dwu[t, width]
        if need_h or need_down:
            du = alpha[..., None] * dv + ds[..., None] * rw
            da = (du[..., :width] * (u[..., :width] > 0.0)).reshape(n, tasks * width)
            if need_down:
                dwd, dbd = x.T @ da, da.sum(axis=0)
                for t in range(tasks):
                    cols = slice(t * width, (t + 1) * width)
                    grads[1 + t], grads[1 + tasks + t] = dwd[:, cols], dbd[cols]
            if need_h:
                grads[0] = (dm + dr @ wqk.T + da @ wd.T).reshape(h.shape)
        return tuple(gi if ok else None for gi, ok in zip(grads, need))

    out_t = _track("adapter_fusion", inputs, out, backward)
    return out_t, alpha.reshape(h.shape[:-1] + (tasks,))


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
    """Gather rows of ``table`` by integer ids; gradient scatter-adds.

    The scatter runs on the flat view of the table, one index per element
    (``np.add.at`` is several times faster on 1-D indices than on rows);
    every element sees the same adds in the same order as a row scatter."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ContractError(
            f"embedding: id out of range for table with {table.shape[0]} rows")
    out = table.data[ids]

    def backward(g: Array):
        dt = np.zeros_like(table.data)
        width = math.prod(table.shape[1:])
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
        np.add.at(dt.reshape(-1), flat, g.ravel())
        return (dt,)

    return _track("embedding", (table,), out, backward)


def _check_rows(op: str, rows: Array, limit: int) -> None:
    if (rows.ndim != 1 or rows.dtype.kind not in "iu"
            or (rows.size and (rows[0] < 0 or rows[-1] >= limit
                               or np.any(rows[1:] <= rows[:-1])))):
        raise ContractError(
            f"{op}: rows must be strictly increasing integer positions in "
            f"[0, {limit})")


def gather_rows(x: Tensor, rows: Array) -> Tensor:
    """Rows of ``x`` [..., H] at the flat positions ``rows`` of its leading
    dims -> [len(rows), H]. ``rows`` must be strictly increasing, so the
    backward scatters ``g`` back with one assignment."""
    hidden = x.shape[-1]
    flat = x.data.reshape(-1, hidden)
    rows = np.asarray(rows)
    _check_rows("gather_rows", rows, flat.shape[0])
    out = flat.take(rows, axis=0)

    def backward(g: Array):
        dx = np.zeros_like(flat)
        dx[rows] = g
        return (dx.reshape(x.shape),)

    return _track("gather_rows", (x,), out, backward)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def scalar_loss(x: Tensor, value, grad: Callable[[], Array]) -> Tensor:
    """A scalar function of ``x`` as one tape node: the caller computes its
    ``value`` and passes ``grad``, which returns dL/dx with the shape and
    dtype of ``x``. Only ``backward`` calls ``grad``, so a forward that is
    never differentiated computes no gradient. The output is a 0-d array in
    the dtype of ``x``."""
    out = np.asarray(value, dtype=x.data.dtype)
    if out.shape != ():
        raise ShapeMismatchError(f"scalar_loss: value must be a scalar, got shape "
                                 f"{out.shape}")
    return _track("scalar_loss", (x,), out, lambda g: (g * grad(),))


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
    """Named trainable tensors in a fixed insertion order, all held in the
    store's ``dtype`` (float32 or float64)."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in FLOAT_DTYPES:
            raise ContractError(
                f"parameter dtype must be float32 or float64, got {self.dtype}")
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data, requires_grad: bool = True) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=requires_grad,
                   name=name)
        self._tensors[name] = t
        return t

    def assign(self, name: str, data) -> None:
        """Replace the values of parameter ``name`` with a copy of ``data``
        in the store's dtype; the shape must match."""
        t = self._tensors[name]
        data = np.asarray(data)
        if data.shape != t.shape:
            raise ShapeMismatchError(f"cannot assign shape {data.shape} to parameter "
                                     f"{name!r} of shape {t.shape}")
        t.data = data.astype(self.dtype)

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
    if max_coords_per_block is not None and max_coords_per_block < 1:
        raise ContractError(f"finite_difference_check: max_coords_per_block must be "
                            f"at least 1, got {max_coords_per_block}")
    params = list(params)
    for name, t in params:
        if t.data.dtype != np.float64:
            raise ContractError(
                f"finite_difference_check: block {name!r} is {t.data.dtype}; a "
                f"step of {h:g} is only resolved in float64")
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
