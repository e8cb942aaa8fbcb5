"""The model's blocks as chains of small tape ops: lookups, linears, a
packed-row attention op, ``add``, ``relu``, ``layer_norm`` and a numpy GELU.
The library's one-node block ops (``embeddings``, ``self_attention``,
``feed_forward``, ``adapter_fusion``) are checked against them, value and
gradient."""

import math

import numpy as np

from fuseformer import tensor as T
from fuseformer.errors import ShapeMismatchError
from fuseformer.tensor import Tensor

MASKED_SCORE = -1e9


def add(a, b):
    """Elementwise sum of two tensors of equal shape; no broadcasting."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return T._track("add", (a, b), a.data + b.data, lambda g: (g, g))


def relu(a):
    return T._track("relu", (a,), np.maximum(a.data, 0.0),
                    lambda g: (g * (a.data > 0.0),))


def layer_norm(x, gamma, beta, eps=1e-12):
    """Standardize over the last axis, then scale by gamma and shift by beta,
    with numpy's means."""
    xc = x.data - x.data.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps)
    xhat = xc * inv

    def backward(g):
        dxhat = g * gamma.data
        dx = inv * (dxhat - dxhat.mean(-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axes), g.sum(axes)

    return T._track("layer_norm", (x, gamma, beta), xhat * gamma.data + beta.data,
                    backward)


def embedding(table, ids):
    """The rows of ``table`` at the integer ``ids``, differentiable: the
    gradient is a row scatter-add."""
    ids = np.asarray(ids)

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return T._track("embedding", (table,), table.data[ids], backward)


def embedding_block(tables, ids, gamma, beta, eps):
    """``tensor.embeddings``'s arguments; a lookup per table, the sums in
    order and ``layer_norm``."""
    x = embedding(tables[0], ids[0])
    for table, i in zip(tables[1:], ids[1:]):
        x = add(x, embedding(table, i))
    return layer_norm(x, gamma, beta, eps)


def adapter(h, w_down, b_down, w_up, b_up):
    """One residual bottleneck adapter, ``h + relu(h W_down + b_down) W_up
    + b_up``: a linear, ``relu``, a linear and ``add``."""
    return add(h, T.matmul(relu(T.matmul(h, w_down, b_down)), w_up, b_up))


def attention(q, k, v, mask, rows, q_rows, heads, scale):
    """Multi-head softmax(scale * q k^T) v over packed rows, as one node.
    ``k`` and ``v`` [n, H] sit at the flat positions ``rows`` of a [B, L]
    batch whose key mask ``mask`` gives the keys it marks 0 a -1e9 score, and
    ``q`` [m, H] at the flat positions ``q_rows``. Each query attends over
    its own batch row; returns [m, H]."""
    b, length = mask.shape
    hidden = q.shape[1]
    q_batch = q_rows // length
    q_slot = np.arange(len(q_rows)) - np.searchsorted(q_batch, q_batch)
    q_len = int(q_slot.max(initial=-1)) + 1
    q_at, k_at = (q_batch, q_slot), (rows // length, rows % length)

    def padded(x, at, width):
        out = np.zeros((b, width, hidden), dtype=x.dtype)
        out[at] = x
        return out.reshape(b, width, heads, hidden // heads).swapaxes(1, 2)

    def packed(x, at):
        return x[at[0], :, at[1]].reshape(-1, hidden)

    qh = padded(q.data, q_at, q_len)
    kh, vh = padded(k.data, k_at, length), padded(v.data, k_at, length)
    fill = (1.0 - mask.astype(q.data.dtype)) * MASKED_SCORE
    y = T._softmax((qh @ kh.swapaxes(-1, -2)) * scale + fill[:, None, None, :])

    def backward(g):
        gh = padded(g, q_at, q_len)
        ds = T._softmax_backward(y, gh @ vh.swapaxes(-1, -2)) * scale
        return (packed(ds @ kh, q_at), packed(ds.swapaxes(-1, -2) @ qh, k_at),
                packed(y.swapaxes(-1, -2) @ gh, k_at))

    return T._track("attention", (q, k, v), packed(y @ vh, q_at), backward)


GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """tanh-approximation GELU, ``x (1 + tanh(c (x + 0.044715 x^3))) / 2``,
    with its derivative in closed form."""
    x = a.data
    t = np.tanh(GELU_C * (x + 0.044715 * x ** 3))

    def backward(g):
        dt = (1.0 - t * t) * GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return T._track("gelu", (a,), 0.5 * x * (1.0 + t), backward)


def attention_sublayer(h, weights, mask, rows, q_rows, heads, eps):
    """``tensor.self_attention``'s arguments; ``LN(x + MHA(h) W_o + b_o)``
    as q, k (with a zero bias) and v linears, one ``attention`` node, the
    output linear, an ``add`` and ``layer_norm``."""
    w_q, b_q, w_k, w_v, b_v, w_o, b_o, gamma, beta = weights
    x = h if q_rows is None else embedding(h, q_rows)
    q_pos = rows if q_rows is None else rows[q_rows]
    k = T.matmul(h, w_k, Tensor(np.zeros(h.shape[1], h.data.dtype)))
    q, v = T.matmul(x, w_q, b_q), T.matmul(h, w_v, b_v)
    ctx = attention(q, k, v, mask, rows, q_pos, heads,
                    1.0 / math.sqrt(h.shape[1] // heads))
    return layer_norm(add(x, T.matmul(ctx, w_o, b_o)), gamma, beta, eps)


def feed_forward_sublayer(h, weights, eps):
    """``tensor.feed_forward``'s arguments; two linears with the GELU
    between, an ``add`` and ``layer_norm``."""
    w_in, b_in, w_out, b_out, gamma, beta = weights
    ff = T.matmul(gelu(T.matmul(h, w_in, b_in)), w_out, b_out)
    return layer_norm(add(h, ff), gamma, beta, eps)


def copies(tensors):
    """Fresh leaves with the same values and trainable flags."""
    return [Tensor(t.data.copy(), requires_grad=t.requires_grad) for t in tensors]
