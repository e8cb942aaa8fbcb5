"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Every op returns the dtype of its inputs, and the constants it makes (mask
fills, zero buffers) follow that dtype, so a graph built from float32
parameters stays float32 through its backward.

Every differentiable operation records a node holding its inputs and a
backward closure. ``backward`` orders the graph below a scalar root
topologically and replays it in reverse, accumulating gradients with ``+=``
across shared subexpressions. Inside ``no_grad`` nothing is recorded. Each
model block is one op: ``embeddings``, ``self_attention`` and
``feed_forward`` on packed [n, H] rows (only ``self_attention`` builds a
padded layout), then ``adapter_fusion`` and ``matmul`` on the last axis of
any leading dims. A loss is one ``scalar_loss`` node whose value and
gradient its caller computes in closed form.
"""

from __future__ import annotations

import math
import mmap
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

    ``grad`` stays ``None`` until a backward pass deposits something (a
    ``ParameterStore`` parameter's is a view of zeros from the start); a
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


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a node: outside ``no_grad``, when
    a gradient can reach one of them. An op that keeps extra state for its
    backward asks this before its forward."""
    return not getattr(_THREAD, "no_grad", False) and any(map(_needs_grad, inputs))


def _only_needed(grads: Sequence[Array | None], need: Sequence[bool]
                 ) -> tuple[Array | None, ...]:
    """A backward's gradients, ``None`` for each input that needs none."""
    return tuple(g if ok else None for g, ok in zip(grads, need))


def _track(op: str, inputs: Sequence[Tensor], out_data: Array,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    if _recording(inputs):
        out.node = TapeNode(op, tuple(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _track("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


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
        return (g2 @ w.data.T).reshape(x.shape), *_affine_grads(x2, g2)

    return _track("matmul", (x, w, b), out, backward)


def _affine_grads(x: Array, g: Array) -> tuple[Array, Array]:
    """dL/dW and dL/db of the affine map ``x W + b`` from the gradient ``g``
    of its output, both 2-D: one GEMM and one column sum."""
    return x.T @ g, _column_sum(g)


def _column_sum(x: Array) -> Array:
    """Sum of the rows of a 2-D array: one GEMV against ones, several times
    faster than ``x.sum(axis=0)`` (a different summation order)."""
    return np.ones(x.shape[0], x.dtype) @ x


def _row_sum(x: Array, y: Array | None = None) -> Array:
    """Sum over the last axis of ``x``, or of ``x * y``, keeping it with
    length 1. einsum's per-row sum is several times faster than
    ``np.add.reduce`` at these widths, and each row's sum depends on the row
    alone (a GEMV would make it depend on where the row sits in the batch)."""
    s = np.einsum("...i->...", x) if y is None else np.einsum("...i,...i->...", x, y)
    return s[..., None]


def _softmax(x: Array) -> Array:
    """Max-shifted softmax over the last axis; rows sum to 1 within 1e-12 in
    float64. The max is a running ``np.maximum`` over slices of the (short)
    axis, which is exact and faster than ``np.max``."""
    # adapter_fusion's alpha [N, T] runs here, not through attention's
    # _softmax_over_keys on [T, N]: that was x1.06 slower forward + backward
    # and x1.10 forward (T=5, N=330, float32, 2-vCPU host) and changed the
    # fusion5 benchmark's output digest
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    e = x - m[..., None]
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def _softmax_backward(y: Array, g: Array) -> Array:
    return y * (g - _row_sum(g, y))


# ---------------------------------------------------------------------------
# post-norm and the encoder sublayers
# ---------------------------------------------------------------------------

_MASKED_SCORE = -1e9


def _row_mean(x: Array, y: Array | None = None) -> Array:
    """Mean of each row of ``x``, or of ``x * y``, as [..., 1]."""
    m = _row_sum(x, y)
    m *= 1.0 / x.shape[-1]
    return m


def _post_norm(z: Array, gamma: Array, beta: Array, eps: float,
               keep: bool) -> tuple[Array, Array, Array]:
    """Layer norm of the rows of the 2-D ``z``, standardizing ``z`` in place;
    returns the output, the standardized rows xhat (``z`` itself) and the
    inverse standard deviations [n, 1]. Without ``keep`` (no backward will
    read xhat) the output is written over ``z`` too."""
    if eps <= 0:
        raise ContractError(f"layer norm eps must be positive, got {eps}")
    z -= _row_mean(z)
    inv = _row_mean(z, z)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    z *= inv
    out = z * gamma if keep else np.multiply(z, gamma, out=z)
    out += beta
    return out, z, inv


def _post_norm_backward(g: Array, xhat: Array, inv: Array, gamma: Array,
                        affine: bool) -> tuple[Array, Array | None, Array | None]:
    """dL/dz of ``_post_norm`` from the output gradient ``g`` [n, H], and,
    when ``affine``, dL/dgamma and dL/dbeta."""
    # dz = inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat))
    dxhat = g * gamma
    dgamma = dbeta = None
    if affine:
        dgamma, dbeta = _column_sum(g * xhat), _column_sum(g)
    m2 = _row_mean(dxhat, xhat)
    dxhat -= _row_mean(dxhat)
    dxhat -= xhat * m2
    dxhat *= inv
    return dxhat, dgamma, dbeta


def _by_query(s: Array) -> Array:
    """The [B, h, Lq, L] view of scores held keys-first as [L, B, h, Lq]."""
    return s.transpose(1, 2, 3, 0)


def _softmax_over_keys(s: Array) -> None:
    """Softmax over the first axis of ``s``, in place. Each step runs over
    whole slices s[k], so it broadcasts along a long contiguous axis."""
    s -= np.maximum.reduce(s, axis=0)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=0)


def _softmax_over_keys_backward(y: Array, g: Array) -> None:
    """Overwrite ``g``, the gradient of ``_softmax_over_keys``'s output ``y``,
    with the gradient of its input: y (g - sum_k g y)."""
    g -= np.add.reduce(g * y, axis=0)
    g *= y


def _check_weights(op: str, weights: Sequence[Tensor], shapes: Sequence[tuple]) -> None:
    if len(weights) != len(shapes) or any(
            w.shape != s for w, s in zip(weights, shapes)):
        raise ShapeMismatchError(
            f"{op}: weight shapes {[w.shape for w in weights]}, expected {list(shapes)}")


def _check_rows(op: str, rows: Array, limit: int) -> None:
    if (rows.ndim != 1 or rows.dtype.kind not in "iu"
            or (rows.size and (rows[0] < 0 or rows[-1] >= limit
                               or np.any(rows[1:] <= rows[:-1])))):
        raise ContractError(
            f"{op}: rows must be strictly increasing integer positions in "
            f"[0, {limit})")


def self_attention(h: Tensor, weights: Sequence[Tensor], mask: Array, rows: Array,
                   q_rows: Array | None, heads: int, eps: float) -> Tensor:
    """The post-norm attention sublayer of an encoder layer as one node:
    ``LN(x + MHA(h) W_o + b_o)``, where x holds the query rows of ``h``.

    ``weights`` are the query projection's [H, H] weight and [H] bias, the
    key projection's weight, the value and output projections' weights and
    biases, then the norm's gamma and beta, in that order. Keys take no bias:
    a shift shared by every key of a query cancels in the softmax. ``h``
    [n, H] holds the rows at the flat positions ``rows`` of a [B, L] batch
    whose key mask ``mask`` gives the keys it marks 0 a -1e9 score (``rows``
    must cover every real one). The queries are the rows of
    ``h`` at the indices ``q_rows``, or every row when it is None; both must
    be strictly increasing. Each query attends, over ``heads`` heads scaled by
    1/sqrt(H / heads), to the keys of its own batch row. Returns one row per
    query.

    K|V is one GEMM over the concatenated weights on every row; Q is one
    GEMM over the query rows, all rows when ``q_rows`` is None. One row
    scatter lays K|V out as [B, L] by position, and another lays Q out as
    [B, Lq] by position, where Lq is one past the last query position (L
    for every row, 1 for the [CLS] rows). The scores are held keys-first,
    so the softmax runs over whole contiguous slices. The residual and the
    norm run in place. The backward returns ``None`` for every input that
    needs no gradient and skips that work.
    """
    mask, rows = np.asarray(mask), np.asarray(rows)
    if (mask.ndim != 2 or h.data.ndim != 2 or h.shape[:1] != rows.shape
            or h.shape[1] % heads != 0):
        raise ShapeMismatchError(
            f"self_attention: h {h.shape} at {rows.shape} positions, mask "
            f"{mask.shape}, {heads} heads")
    n, hidden = h.shape
    sq, vec = (hidden, hidden), (hidden,)
    _check_weights("self_attention", weights, [sq, vec, sq, sq, vec, sq, vec, vec, vec])
    b, length = mask.shape
    _check_rows("self_attention", rows, b * length)
    w_q, b_q, w_k, w_v, b_v, w_o, b_o, gamma, beta = weights
    inputs = (h, *weights)
    keep = _recording(inputs)
    dh = hidden // heads
    scale = 1.0 / math.sqrt(dh)
    if q_rows is None:
        q_rows = slice(None)  # a view, and an in-place add in the backward
    else:
        q_rows = np.asarray(q_rows)
        _check_rows("self_attention", q_rows, n)
    x = h.data
    xq = x[q_rows]
    q_batch, q_pos = np.divmod(rows[q_rows], length)
    q_len = int(q_pos.max(initial=-1)) + 1
    q_flat = q_batch * q_len + q_pos
    w_kv = np.concatenate([w_k.data, w_v.data], axis=1)

    def by_head(buf: Array, width: int, part: int = 0) -> Array:
        """The [B, h, width, dh] view of the ``part``-th H columns of the
        [B * width, parts * H] rows ``buf``."""
        return buf.reshape(b, width, -1, heads, dh)[:, :, part].transpose(0, 2, 1, 3)

    proj = x @ w_kv
    proj[:, hidden:] += b_v.data
    # k|v at every position of the batch, zeros where no row is
    padded = np.zeros((b * length, 2 * hidden), x.dtype)
    padded[rows] = proj
    # a contiguous K^T makes the score GEMMs several times faster
    kt = np.ascontiguousarray(by_head(padded, length).swapaxes(-1, -2))
    vh = by_head(padded, length, 1)
    q = xq @ w_q.data
    q += b_q.data
    qh = np.zeros((b * q_len, hidden), x.dtype)
    qh[q_flat] = q
    qh = by_head(qh, q_len)
    # scores held keys-first, [L, B, h, Lq]: the softmax then runs over
    # whole contiguous slices rather than along a short inner axis
    p = np.empty((length, b, heads, q_len), x.dtype)
    np.matmul(qh, kt, out=_by_query(p))
    p *= scale
    p += ((1.0 - mask.T.astype(x.dtype)) * _MASKED_SCORE)[:, :, None, None]
    _softmax_over_keys(p)
    ctx = np.empty((b * q_len, hidden), x.dtype)
    np.matmul(_by_query(p), vh, out=by_head(ctx, q_len))
    ctx = ctx.take(q_flat, axis=0)                                     # [m, H]
    z = ctx @ w_o.data
    z += b_o.data
    z += xq
    out, xhat, inv = _post_norm(z, gamma.data, beta.data, eps, keep)

    def backward(g: Array):
        need = [_needs_grad(t) for t in inputs]
        need_h, need_in = need[0], any(need[1:6])
        grads: list[Array | None] = [None] * len(inputs)
        dz, grads[8], grads[9] = _post_norm_backward(g, xhat, inv, gamma.data,
                                                     need[8] or need[9])
        if need[6] or need[7]:
            grads[6], grads[7] = _affine_grads(ctx, dz)
        if not (need_h or need_in):
            return _only_needed(grads, need)
        dctx = np.zeros((b * q_len, hidden), x.dtype)
        dctx[q_flat] = dz @ w_o.data.T
        gh = by_head(dctx, q_len)
        ds = np.empty_like(p)
        np.matmul(gh, vh.swapaxes(-1, -2), out=_by_query(ds))
        _softmax_over_keys_backward(p, ds)
        ds *= scale
        ds = _by_query(ds)
        # d(k|v) laid out as padded is, then taken at the rows of proj
        dpad = np.empty_like(padded)
        np.matmul(ds.swapaxes(-1, -2), qh, out=by_head(dpad, length))
        np.matmul(_by_query(p).swapaxes(-1, -2), gh, out=by_head(dpad, length, 1))
        # dq overwrites dctx, which nothing reads any more
        np.matmul(ds, kt.swapaxes(-1, -2), out=gh)
        dq = dctx.take(q_flat, axis=0)
        dproj = dpad.take(rows, axis=0)
        if need_in:
            grads[1], grads[2] = _affine_grads(xq, dq)
            dw, db = _affine_grads(x, dproj)
            grads[3:6] = dw[:, :hidden], dw[:, hidden:], db[hidden:]
        if need_h:
            dxq = dq @ w_q.data.T
            dxq += dz
            dx = dproj @ w_kv.T
            dx[q_rows] += dxq
            grads[0] = dx
        return _only_needed(grads, need)

    return _track("self_attention", inputs, out, backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu_(a: Array, keep: bool) -> Array | None:
    """tanh-approximation GELU in place: ``a`` becomes ``y = a (1 + t) / 2``
    with ``t = tanh(c (a + 0.044715 a^3))``. With ``keep``, returns dy/da at
    the old values for a backward to multiply by."""
    a2 = a * a
    t = a2 * (_GELU_C * _GELU_K)
    t += _GELU_C
    t *= a
    np.tanh(t, out=t)
    d = None
    if keep:
        # dy/da = (1 + t) / 2 + (1 - t^2) a / 2 * c (1 + 3 * 0.044715 a^2)
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= a
        d *= 0.5
        a2 *= 3.0 * _GELU_C * _GELU_K
        a2 += _GELU_C
        d *= a2
    t += 1.0
    t *= 0.5
    if keep:
        d += t
    a *= t
    return d


def feed_forward(h: Tensor, weights: Sequence[Tensor], eps: float) -> Tensor:
    """The post-norm feed-forward sublayer of an encoder layer as one node:
    ``LN(h + gelu(h W_in + b_in) W_out + b_out)`` on the rows of ``h`` [n, H].

    ``weights`` are W_in [H, F], b_in [F], W_out [F, H], b_out [H], then the
    norm's gamma and beta. The GELU (tanh approximation) runs in place on the
    first GEMM's output, and the residual and the norm on the second's. The
    backward returns ``None`` for every input that needs no gradient and
    skips that work.
    """
    if h.data.ndim != 2:
        raise ShapeMismatchError(f"feed_forward: h must be [n, H], got {h.shape}")
    hidden = h.shape[1]
    width = weights[0].shape[-1] if weights and weights[0].data.ndim == 2 else -1
    _check_weights("feed_forward", weights, [(hidden, width), (width,),
                                             (width, hidden)] + [(hidden,)] * 3)
    w_in, b_in, w_out, b_out, gamma, beta = weights
    inputs = (h, *weights)
    keep = _recording(inputs)
    x = h.data
    act = x @ w_in.data
    act += b_in.data
    dgelu = _gelu_(act, keep)
    z = act @ w_out.data
    z += b_out.data
    z += x
    out, xhat, inv = _post_norm(z, gamma.data, beta.data, eps, keep)

    def backward(g: Array):
        need = [_needs_grad(t) for t in inputs]
        grads: list[Array | None] = [None] * len(inputs)
        dz, grads[5], grads[6] = _post_norm_backward(g, xhat, inv, gamma.data,
                                                     need[5] or need[6])
        if need[3] or need[4]:
            grads[3], grads[4] = _affine_grads(act, dz)
        if need[0] or need[1] or need[2]:
            da = dz @ w_out.data.T
            da *= dgelu
            if need[1] or need[2]:
                grads[1], grads[2] = _affine_grads(x, da)
            if need[0]:
                grads[0] = da @ w_in.data.T
                grads[0] += dz
        return _only_needed(grads, need)

    return _track("feed_forward", inputs, out, backward)


# ---------------------------------------------------------------------------
# adapters and the fusion mix
# ---------------------------------------------------------------------------

def adapter_fusion(h: Tensor, w_down: Sequence[Tensor], b_down: Sequence[Tensor],
                   w_up: Sequence[Tensor], b_up: Sequence[Tensor],
                   w_q: Tensor | None = None, w_k: Tensor | None = None,
                   w_v: Tensor | None = None) -> tuple[Tensor, Array | None]:
    """T bottleneck adapters on ``h`` [..., H], alone or under the
    AdapterFusion attention, as one tape node. Adapter t gives
    ``y_t = relu(h W_down,t + b_down,t) W_up,t + b_up,t`` ([H, b], [b],
    [b, H], [H] weights).

    Without query, key and value weights the output is ``h + sum_t y_t``
    (at T = 1, a residual adapter). With the [H, H] weights W_Q, W_K and W_V
    it is the fusion layer and its residual, ``h + sum_t a_t (z_t W_V)``
    with ``z_t = h + y_t`` and ``a = softmax_t((h W_Q) . (z_t W_K))``.

    No z_t is built. Each bias b_up,t rides as one more bottleneck unit
    whose activation is 1: with u_t the [b + 1]-wide activations and
    W_t = [W_up,t; b_up,t], ``y_t = u_t W_t``. With r = h (W_Q W_K^T), every
    score shares the term h . r, which softmax ignores, so the scores are
    ``u_t . (r W_t^T)`` and the output is ``h + (h + sum_t a_t u_t W_t) W_V``.
    Every GEMM is [N, H] x [H, Tb + H], [N, H] x [H, H] or
    [N, T(b + 1)] x [T(b + 1), H] over the N leading positions. The backward
    returns ``None`` for every input that needs no gradient and skips that
    work. Returns the output [..., H] and the weights a [..., T], or None
    without fusion weights.
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
    fusion = [w for w in (w_q, w_k, w_v) if w is not None]
    if len(fusion) not in (0, 3) or any(w.shape != (hidden, hidden) for w in fusion):
        raise ShapeMismatchError(
            f"adapter_fusion: fusion weight shapes {[w.shape for w in fusion]} do "
            f"not match input shape {h.shape}; expected none or 3 of {(hidden, hidden)}")
    x = h.data.reshape(-1, hidden)
    n, wide = x.shape[0], width + 1
    wd = np.concatenate([t.data for t in w_down], axis=1)             # [H, Tb]
    bd = np.concatenate([t.data for t in b_down])
    wu = np.concatenate([part for w, b in zip(w_up, b_up)               # [T(b+1), H]
                         for part in (w.data, b.data[None])])
    if fusion:
        wqk = w_q.data @ w_k.data.T
        first = x @ np.concatenate([wd, wqk], axis=1)                  # [N, Tb + H]
        r = first[:, tasks * width:]
    else:
        first = x @ wd
    u = np.ones((n, tasks, wide), dtype=x.dtype)
    u[..., :width] = np.maximum(first[:, :tasks * width] + bd,
                                0.0).reshape(n, tasks, width)
    alpha, v = None, u
    if fusion:
        rw = (r @ wu.T).reshape(n, tasks, wide)
        alpha = _softmax(_row_sum(u, rw)[..., 0])                      # [N, T]
        v = alpha[..., None] * u
    v = v.reshape(n, tasks * wide)
    m = x + v @ wu
    out = x + m @ w_v.data if fusion else m

    inputs = (h, *w_down, *b_down, *w_up, *b_up, *fusion)

    def backward(g: Array):
        need = [_needs_grad(t) for t in inputs]
        need_h = need[0]
        need_down = any(need[1:1 + 2 * tasks])
        need_up = any(need[1 + 2 * tasks:1 + 4 * tasks])
        g2 = g.reshape(-1, hidden)
        grads: list[Array | None] = [None] * len(need)
        dm = g2 @ w_v.data.T if fusion else g2
        dv = (dm @ wu.T).reshape(n, tasks, wide)
        if fusion:
            need_q, need_k, need_v = need[-3:]
            # d a_t = dm . y_t: the dm . h part every z_t shares is left out
            # (the softmax backward cancels it), so float32 keeps the differences
            ds = _softmax_backward(alpha, _row_sum(dv, u)[..., 0])
            drw = (ds[..., None] * u).reshape(n, tasks * wide)
            if need_h or need_q or need_k:
                dr = drw @ wu
                if need_q or need_k:
                    p = x.T @ dr
                    grads[-3], grads[-2] = p @ w_k.data, p.T @ w_q.data
            if need_v:
                grads[-1] = m.T @ g2
        if need_up:
            dwu = v.T @ dm
            if fusion:
                dwu += drw.T @ r
            dwu = dwu.reshape(tasks, wide, hidden)
            for t in range(tasks):
                grads[1 + 2 * tasks + t] = dwu[t, :width]
                grads[1 + 3 * tasks + t] = dwu[t, width]
        if need_h or need_down:
            du = alpha[..., None] * dv + ds[..., None] * rw if fusion else dv
            da = (du[..., :width] * (u[..., :width] > 0.0)).reshape(n, tasks * width)
            if need_down:
                dwd, dbd = _affine_grads(x, da)
                for t in range(tasks):
                    cols = slice(t * width, (t + 1) * width)
                    grads[1 + t], grads[1 + tasks + t] = dwd[:, cols], dbd[cols]
            if need_h:
                dh = (dm + dr @ wqk.T if fusion else dm) + da @ wd.T
                if fusion:
                    dh += g2
                grads[0] = dh.reshape(h.shape)
        return _only_needed(grads, need)

    out_t = _track("adapter_fusion", inputs, out.reshape(h.shape), backward)
    return out_t, None if alpha is None else alpha.reshape(h.shape[:-1] + (tasks,))


# ---------------------------------------------------------------------------
# the embedding block
# ---------------------------------------------------------------------------

def embeddings(tables: Sequence[Tensor], ids: Sequence[Array], gamma: Tensor,
               beta: Tensor, eps: float) -> Tensor:
    """The embedding block as one node: the rows that ``ids[k]`` picks from
    each [rows_k, H] table ``tables[k]``, summed in order, then layer-normed
    with gamma and beta [H]. Every ``ids[k]`` holds the same n integer ids;
    returns [n, H]. The backward skips every input that needs no gradient.
    A table's gradient is a scatter-add on its flat view, one index per
    element (``np.add.at`` is several times faster on 1-D indices than on
    rows), which gives each element the adds of a row scatter in order."""
    ids = [np.asarray(i) for i in ids]
    hidden = gamma.shape[-1] if gamma.data.ndim == 1 else -1
    if (not tables or len(ids) != len(tables) or beta.shape != gamma.shape
            or any(t.shape[1:] != (hidden,) or i.shape != ids[0].shape or i.ndim != 1
                   or i.dtype.kind not in "iu" for t, i in zip(tables, ids))):
        raise ShapeMismatchError(
            f"embeddings: tables {[t.shape for t in tables]}, ids "
            f"{[i.shape for i in ids]} and gamma/beta {gamma.shape}/{beta.shape}")
    for k, (t, i) in enumerate(zip(tables, ids)):
        if i.size and (i.min() < 0 or i.max() >= t.shape[0]):
            raise ContractError(
                f"embeddings: id out of range for table {k} with {t.shape[0]} rows")
    inputs = (*tables, gamma, beta)
    x = tables[0].data[ids[0]]
    for t, i in zip(tables[1:], ids[1:]):
        x += t.data[i]
    out, xhat, inv = _post_norm(x, gamma.data, beta.data, eps, _recording(inputs))

    def backward(g: Array):
        need = [_needs_grad(t) for t in inputs]
        grads: list[Array | None] = [None] * len(inputs)
        dx, grads[-2], grads[-1] = _post_norm_backward(g, xhat, inv, gamma.data,
                                                       need[-2] or need[-1])
        for k, (t, i) in enumerate(zip(tables, ids)):
            if need[k]:
                grads[k] = np.zeros_like(t.data)
                flat = (i[:, None] * hidden + np.arange(hidden)).ravel()
                np.add.at(grads[k].reshape(-1), flat, dx.ravel())
        return _only_needed(grads, need)

    return _track("embeddings", inputs, out, backward)


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
    """Accumulate into ``grad`` of every requires_grad leaf reachable from
    ``loss``.

    The nodes below ``loss`` are put in topological order (inputs before
    consumers) and their backward closures run once each, in reverse.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss.node is None:
        if loss.requires_grad:
            _accumulate(loss, seed)
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
                _accumulate(t, gi)


def _accumulate(leaf: Tensor, g: Array) -> None:
    """Add ``g`` to ``leaf.grad`` in place, so a parameter's gradient stays
    its view into the store's gradient buffer; a leaf with no gradient yet
    gets a copy of ``g``."""
    if g.shape != leaf.shape:
        raise ContractError(f"gradient of shape {g.shape} for {leaf!r}")
    if leaf.grad is None:
        leaf.grad = g.copy()
    else:
        leaf.grad += g


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------

class ParameterStore:
    """Named parameters in the order of ``shapes`` ((name, shape) pairs),
    all held in the store's ``dtype`` (float32 or float64) and all trainable
    until ``set_requires_grad`` says otherwise.

    The whole layout is fixed when the store is built: every parameter's
    ``data`` is a view into the one flat buffer ``data``, and its ``grad`` a
    view at the same place in the flat buffer ``grad``, zeros until
    ``backward`` accumulates into it. A parameter no op reached keeps a
    zero gradient, never ``None``. Write values with ``assign`` (or in
    place); rebinding a parameter's ``data`` or ``grad`` detaches it from
    the buffers, which ``runs`` reports as an error."""

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]],
                 dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in FLOAT_DTYPES:
            raise ContractError(
                f"parameter dtype must be float32 or float64, got {self.dtype}")
        shapes = [(name, tuple(shape)) for name, shape in shapes]
        size = sum(math.prod(shape) for _, shape in shapes)
        self.data = np.zeros(size, self.dtype)
        # zero pages from the kernel, resident only once written, so the
        # gradients of a bank that never trains, or of its frozen part, take
        # no memory
        self.grad = np.frombuffer(mmap.mmap(-1, max(size, 1) * self.dtype.itemsize),
                                  self.dtype, count=size)
        self._tensors: dict[str, Tensor] = {}
        at = slice(0, 0)
        for name, shape in shapes:
            if name in self._tensors:
                raise ContractError(f"duplicate parameter name {name!r}")
            at = slice(at.stop, at.stop + math.prod(shape))
            t = Tensor(self.data[at].reshape(shape), requires_grad=True, name=name)
            t.grad = self.grad[at].reshape(shape)
            self._tensors[name] = t
        self._trainable_runs: list[slice] | None = None

    def assign(self, name: str, data) -> None:
        """Overwrite the values of parameter ``name`` with ``data``, cast to
        the store's dtype; the shape must match."""
        t = self._tensors[name]
        data = np.asarray(data)
        if data.shape != t.shape:
            raise ShapeMismatchError(f"cannot assign shape {data.shape} to parameter "
                                     f"{name!r} of shape {t.shape}")
        t.data[...] = data

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
        """Zero the gradients of the trainable parameters, one fill per run
        of them. Backward never writes a frozen parameter's gradient."""
        if self._trainable_runs is None:
            self._trainable_runs = self.runs(
                (n, self._tensors[n]) for n in self.trainable_names())[2]
        for run in self._trainable_runs:
            self.grad[run] = 0.0

    def set_requires_grad(self, names: Iterable[str], flag: bool) -> None:
        for name in names:
            self._tensors[name].requires_grad = flag
        self._trainable_runs = None

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._tensors.items() if t.requires_grad]

    @staticmethod
    def runs(pairs: Iterable[tuple[str, Tensor]]
             ) -> tuple[Array | None, Array | None, list[slice]]:
        """The flat ``data`` and ``grad`` buffers of the store whose
        parameters the (name, parameter) ``pairs`` are, and the runs of
        those buffers the pairs cover, in buffer order; parameters adjacent
        in the buffers share one run. No pairs give ``(None, None, [])``.
        ContractError names the first pair whose ``data`` or ``grad`` is not
        a view into the buffers of the first pair at one place, or that
        overlaps another pair."""
        data = grad = None
        spans = []
        for name, p in pairs:
            if data is None:
                data, grad = p.data.base, getattr(p.grad, "base", None)
            start = _view_start(p.data, data)
            if (start is None or start != _view_start(p.grad, grad) or data is grad
                    or p.grad.shape != p.shape):
                raise ContractError(
                    f"parameter {name!r} is not a view into a parameter store's "
                    f"buffers: its data or grad was rebound, not written in place")
            spans.append((start, start + p.size, name))
        runs: list[slice] = []
        for start, stop, name in sorted(spans):
            if runs and start < runs[-1].stop:
                raise ContractError(f"parameter {name!r} overlaps another one")
            if runs and start == runs[-1].stop:
                runs[-1] = slice(runs[-1].start, stop)
            else:
                runs.append(slice(start, stop))
        return data, grad, runs

    def state_bytes(self, names: Iterable[str] | None = None) -> bytes:
        """Little-endian float32 serialization in sorted name order."""
        names = sorted(self.names() if names is None else names)
        chunks = [self._tensors[n].data.astype("<f4").tobytes() for n in names]
        return b"".join(chunks)


def _view_start(view: Array | None, buffer: Array | None) -> int | None:
    """Where the contiguous ``view`` starts in the flat ``buffer`` it
    views, in elements, or None if it is not such a view."""
    if (not isinstance(view, np.ndarray) or not isinstance(buffer, np.ndarray)
            or view.base is not buffer or buffer.ndim != 1
            or not view.flags.c_contiguous):
        return None
    return (view.ctypes.data - buffer.ctypes.data) // buffer.itemsize


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
        if t.grad is not None:
            t.grad[...] = 0.0
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
