"""Autodiff core: op-level gradient checks against central finite
differences, tape semantics, and the verification harness itself."""

import functools
import re

import numpy as np
import pytest

from fuseformer import tensor as T
from fuseformer.errors import ContractError, ShapeMismatchError
from fuseformer.tensor import (Tensor, backward, finite_difference_check,
                               relative_error)
import chain
from probes import probe

H = 1e-5
TOL = 1e-4


def numeric_grad(build_loss, leaf, h=H):
    """Independent central-difference oracle over every coordinate of leaf."""
    flat = leaf.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(build_loss().data.reshape(-1)[0])
        flat[i] = orig - h
        f_minus = float(build_loss().data.reshape(-1)[0])
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(leaf.shape)


def assert_grad_matches(build_loss, leaves, tol=TOL):
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    backward(loss)
    for leaf in leaves:
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        numeric = numeric_grad(build_loss, leaf)
        worst = max(relative_error(a, b)
                    for a, b in zip(analytic.reshape(-1), numeric.reshape(-1)))
        assert worst < tol, f"rel err {worst} for leaf {leaf.name}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = T.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]),
                   Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projection():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    w, b = np.array([[5.0], [7.0]]), np.array([-0.5])
    out = T.matmul(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_array_equal(out.data, [[4.5], [-0.5]])
    np.testing.assert_array_equal(out.data, x @ w + b)


def test_matmul_shape_errors_name_all_three_shapes():
    # inner dims that differ, a bias of the wrong length, a bias that is not 1-D
    for w, b in [((2, 3), (3,)), ((3, 4), (3,)), ((3, 4), (1, 4))]:
        pattern = r".*".join(re.escape(str(s)) for s in ((2, 3), w, b))
        with pytest.raises(ShapeMismatchError, match=pattern):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(w)),
                     Tensor(np.ones(b)))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True, name="a")
    w = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True, name="w")
    b = Tensor(rng.uniform(-2, 2, 2), requires_grad=True, name="b")
    weights = rng.uniform(-1, 1, (3, 2))
    assert_grad_matches(lambda: probe(weights, T.matmul(a, w, b)), [a, w, b], tol=1e-6)
    # d/db of sum(weights * (a w + b)) is the column sum of weights
    np.testing.assert_allclose(b.grad, weights.sum(axis=0), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_relu_definition():
    out = chain.relu(Tensor([-3.0, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 3.0])


def test_tanh_gradient_at_zero_is_one():
    x = Tensor([0.0], requires_grad=True)
    backward(probe(np.ones(1), T.tanh(x)))
    assert x.grad[0] == 1.0


def test_equal_shape_broadcast_only():
    # add takes equal shapes; a scalar operand is not broadcast either
    for shape in [(3,), (2, 1), ()]:
        with pytest.raises(ShapeMismatchError, match=re.escape(str(shape))):
            chain.add(Tensor(np.ones((2, 3))), Tensor(np.ones(shape)))
    out = chain.add(Tensor(np.ones((2, 3))), Tensor(np.full((2, 3), 5.0)))
    assert np.all(out.data == 6.0)


def attention_weights(hidden):
    """Shapes of the attention ops' weights: the query projection, the key
    weight, the value and output projections, then the norm's gamma and
    beta."""
    return ([(hidden, hidden), (hidden,), (hidden, hidden)]
            + [(hidden, hidden), (hidden,)] * 2 + [(hidden,)] * 2)


def embeddings_leaves(r):
    """Token, position and segment tables of width 4, then gamma and beta."""
    return leaves_of(r, [(5, 4), (3, 4), (2, 4), (4,), (4,)], 2.0)


# three lookups per table for each of 6 rows, with repeats
EMBEDDING_IDS = [np.array([0, 3, 3, 1, 4, 3]), np.array([0, 1, 2, 0, 1, 2]),
                 np.array([1, 0, 0, 1, 1, 0])]


def adapter_leaves(r, tasks, fusion, shape=(2, 3, 4), width=2):
    """h, then ``tasks`` adapters' [H, b] down weights, [b] down biases,
    [b, H] up weights and [H] up biases, then W_Q/K/V if ``fusion``."""
    hidden = shape[-1]
    return leaves_of(r, [shape] + [(hidden, width)] * tasks + [(width,)] * tasks
                     + [(width, hidden)] * tasks + [(hidden,)] * tasks
                     + [(hidden, hidden)] * 3 * fusion)


def adapter_op(tasks):
    """``adapter_fusion`` over the leaves of ``adapter_leaves``."""
    def apply(h, *w):
        return T.adapter_fusion(h, *(w[i * tasks:(i + 1) * tasks] for i in range(4)),
                                *w[4 * tasks:])[0]
    return apply


def ff_weights(hidden, width):
    """Shapes of ``feed_forward``'s weights."""
    return [(hidden, width), (width,), (width, hidden)] + [(hidden,)] * 3


def leaves_of(r, shapes, scale=1.0):
    return tuple(Tensor(r.uniform(-scale, scale, s), requires_grad=True)
                 for s in shapes)


# B=2 rows of L=3: every position has a row of h, and position 2 is a padded key
SUBLAYER_MASK = np.array([[1, 1, 0], [1, 1, 1]])

# one case per op (two for matmul and adapter_fusion); every op runs both
# parametrizations
OP_CASES = [
    ("tanh", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.tanh(a)),
    ("matmul_bias", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                               Tensor(r.uniform(-2, 2, (4, 2)), requires_grad=True),
                               Tensor(r.uniform(-2, 2, 2), requires_grad=True)),
     lambda a, w, b: T.matmul(a, w, b)),
    ("matmul_leading_dims",
     lambda r: (Tensor(r.uniform(-2, 2, (2, 3, 4)), requires_grad=True),
                Tensor(r.uniform(-2, 2, (4, 2)), requires_grad=True),
                Tensor(r.uniform(-2, 2, 2), requires_grad=True)),
     lambda a, w, b: T.matmul(a, w, b)),
    # two adapters, under the fusion attention and alone
    ("adapter_fusion", lambda r: adapter_leaves(r, 2, True), adapter_op(2)),
    ("adapter_fusion_plain", lambda r: adapter_leaves(r, 2, False), adapter_op(2)),
    # a 0-d loss node: sum(sin x), whose gradient cos x its caller supplies
    ("scalar_loss", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.scalar_loss(a, np.sum(np.sin(a.data)), lambda: np.cos(a.data))),
    ("embeddings", embeddings_leaves,
     lambda *t: T.embeddings(t[:3], EMBEDDING_IDS, *t[3:], 1e-12)),
    # H=4 over 2 heads: every row queries, or rows 0 and 3 (the [CLS] rows)
    ("attention", lambda r: leaves_of(r, [(6, 4)] + attention_weights(4), 2.0),
     lambda h, *w: T.self_attention(h, w, SUBLAYER_MASK, np.arange(6), 2, 1e-12)),
    ("attention_cls", lambda r: leaves_of(r, [(6, 4)] + attention_weights(4), 2.0),
     lambda h, *w: T.cls_attention(h, w, SUBLAYER_MASK, np.arange(6), 2, 1e-12)),
    ("feed_forward", lambda r: leaves_of(r, [(3, 4)] + ff_weights(4, 5), 2.0),
     lambda h, *w: T.feed_forward(h, w, 1e-12)),
]
# the composed ops of the test oracles in ``chain``, checked as the ops are
CHAIN_CASES = [
    ("add", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                       Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True)),
     lambda a, b: chain.add(a, b)),
    ("relu", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: chain.relu(a)),
    ("layer_norm", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                              Tensor(r.uniform(0.5, 1.5, 4), requires_grad=True),
                              Tensor(r.uniform(-1, 1, 4), requires_grad=True)),
     lambda x, g, b: chain.layer_norm(x, g, b)),
    ("embedding", lambda r: (Tensor(r.uniform(-2, 2, (5, 4)), requires_grad=True),),
     lambda t: chain.embedding(t, np.array([0, 3, 3, 1]))),
]
# public functions of the tensor module that record no tape node of their own
NOT_OPS = {"backward", "finite_difference_check", "relative_error"}


def test_every_public_op_has_a_case():
    ops = {name for name, fn in vars(T).items()
           if not name.startswith("_") and callable(fn) and not isinstance(fn, type)
           and getattr(fn, "__module__", None) == T.__name__} - NOT_OPS
    rng = np.random.default_rng(0)
    covered = {apply(*make(rng)).node.op for _, make, apply in OP_CASES}
    assert covered == ops


@pytest.mark.parametrize("name,make,apply", OP_CASES + CHAIN_CASES,
                         ids=[c[0] for c in OP_CASES + CHAIN_CASES])
def test_op_gradients_match_finite_differences(name, make, apply):
    # >= 20 seeded trials per op, inputs in [-2, 2]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        leaves = make(rng)
        mix = rng.uniform(-1, 1, apply(*leaves).shape)
        assert_grad_matches(lambda: probe(mix, apply(*leaves)), leaves)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,make,apply", OP_CASES + CHAIN_CASES,
                         ids=[c[0] for c in OP_CASES + CHAIN_CASES])
def test_ops_and_their_backwards_keep_the_input_dtype(name, make, apply, dtype):
    rng = np.random.default_rng(3)
    leaves = [Tensor(t.data.astype(dtype), requires_grad=True) for t in make(rng)]
    out = apply(*leaves)
    assert out.data.dtype == dtype
    backward(probe(rng.uniform(-1, 1, out.shape), out))
    assert [leaf.grad.dtype for leaf in leaves] == [np.dtype(dtype)] * len(leaves)


def test_fusion_mix_weights_keep_the_input_dtype():
    h, adapters, ws, _ = adapter_fusion_leaves(3, seed=61)
    to32 = lambda t: Tensor(t.data.astype(np.float32))  # noqa: E731
    _, alpha = T.adapter_fusion(to32(h), *([to32(t) for t in a] for a in adapters),
                                *map(to32, ws))
    assert alpha.dtype == np.float32


def test_tensor_keeps_float32_and_float64_and_widens_the_rest():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.ones(2, np.float64)).data.dtype == np.float64
    for data in ([1, 2], np.ones(2, np.int64), np.ones(2, np.float16), 3.0):
        assert Tensor(data).data.dtype == np.float64


def test_layer_norm_gradients_match_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True, name="x")
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True, name="gamma")
        beta = Tensor(rng.uniform(-1, 1, 4), requires_grad=True, name="beta")
        mix = rng.uniform(-1, 1, (3, 4))
        assert_grad_matches(lambda: probe(mix, chain.layer_norm(x, gamma, beta, 1e-12)),
                            [x, gamma, beta], tol=1e-5)


def test_embedding_gradient_scatter_adds():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2, 2]])
    backward(probe(np.ones((1, 3, 3)), chain.embedding(table, ids)))
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0  # looked up twice
    np.testing.assert_array_equal(table.grad, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_backward_is_bit_identical_to_a_row_scatter(dtype):
    # the desk token, position and segment tables, each looked up by 340
    # ids with many repeats, beside a table looked up once per row: its
    # gradient is the gradient of the rows' sum
    rng = np.random.default_rng(63)
    norm = [Tensor(np.ones(64, dtype)), Tensor(np.zeros(64, dtype))]
    once = Tensor(rng.normal(size=(340, 64)).astype(dtype), requires_grad=True)
    for rows in (600, 32, 2):
        table = Tensor(rng.normal(size=(rows, 64)).astype(dtype), requires_grad=True)
        ids = rng.integers(0, rows, 340)
        out = T.embeddings([table, once], [ids, np.arange(340)], *norm, 1e-12)
        got, g = out.node.backward_fn(rng.normal(size=(340, 64)).astype(dtype))[:2]
        want = np.zeros_like(table.data)
        np.add.at(want, ids, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_embedding_id_out_of_range():
    tables = [Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 3)))]
    norm = [Tensor(np.ones(3)), Tensor(np.zeros(3))]
    for ids in ([4], [-1]):
        with pytest.raises(ContractError, match="table 0 with 4 rows"):
            T.embeddings(tables, [np.array(ids), np.array([0])], *norm, 1e-12)
    with pytest.raises(ContractError, match="table 1 with 2 rows"):
        T.embeddings(tables, [np.array([3]), np.array([2])], *norm, 1e-12)
    with pytest.raises(ShapeMismatchError):  # one id array per table, of one length
        T.embeddings(tables, [np.array([0, 1]), np.array([0])], *norm, 1e-12)


# packed rows: B = 3 rows of L = 4 with 3, 2 and 4 real tokens
PACKED = np.array([0, 1, 2, 4, 5, 8, 9, 10, 11])
PACKED_MASK = np.isin(np.arange(12), PACKED).astype(np.int64).reshape(3, 4)


def test_row_ops_pass_finite_difference_check():
    rng = np.random.default_rng(61)
    h, *weights = leaves_of(rng, [(len(PACKED), 4)] + attention_weights(4), 2.0)
    mix = rng.uniform(-1, 1, (3, 4))

    def loss_fn():  # the packed real rows of [B, L, H]; the [CLS] rows query
        return probe(mix, T.cls_attention(T.tanh(h), weights, PACKED_MASK, PACKED, 2,
                                          1e-12))

    report = finite_difference_check(
        loss_fn, [("h", h)] + [(f"w{i}", w) for i, w in enumerate(weights)],
        h=1e-5, tol=1e-4)
    assert report.passed and report.worst().max_rel_err < 1e-4, report.worst()


@pytest.mark.parametrize("rows", [[0, 0, 1], [2, 1, 3], [-1, 0, 1], [0, 1, 12],
                                  [0.0, 1.0, 2.0], [[0, 1, 2]]],
                         ids=["repeated", "unsorted", "negative", "past_end",
                              "float", "2d"])
def test_row_ops_reject_rows_that_are_not_strictly_increasing_positions(rows):
    bad, mask = np.array(rows), np.ones((3, 4))
    weights = [Tensor(np.zeros(s)) for s in attention_weights(2)]
    for op in (T.self_attention, T.cls_attention):
        with pytest.raises((ContractError, ShapeMismatchError)):
            op(Tensor(np.zeros((len(bad), 2))), weights, mask, bad, 1, 1e-12)


def test_attention_needs_one_key_and_value_row_per_position():
    weights = [Tensor(np.zeros(s)) for s in attention_weights(2)]
    for op in (T.self_attention, T.cls_attention):
        with pytest.raises(ShapeMismatchError, match=r"\(3, 2\).*\(2,\)"):
            op(Tensor(np.zeros((3, 2))), weights, np.ones((2, 2)), np.array([0, 1]), 1,
               1e-12)


@pytest.mark.parametrize("rows", [[1, 4, 5], [0, 1, 5], [0, 1, 4]],
                         ids=["first", "middle", "last"])
def test_cls_attention_needs_every_cls_row(rows):
    # B=3 rows of L=2; one batch row's position 0 has no row of h
    rows = np.array(rows)
    mask = np.isin(np.arange(6), rows).astype(np.int64).reshape(3, 2)
    weights = [Tensor(np.zeros(s)) for s in attention_weights(2)]
    with pytest.raises(ContractError, match="position 0 of every batch row"):
        T.cls_attention(Tensor(np.zeros((3, 2))), weights, mask, rows, 1, 1e-12)


# ---------------------------------------------------------------------------
# the encoder sublayers
# ---------------------------------------------------------------------------

def naive_attention(q, k, v, mask, rows, q_rows, heads, scale):
    """Per-query, per-head loops over the packed rows; independent of the op.
    Each query attends over the k/v rows of its own batch row."""
    length = mask.shape[1]
    dh = q.shape[1] // heads
    out = np.zeros_like(q)
    for i, pos in enumerate(q_rows):
        keys = rows // length == pos // length
        real = mask.reshape(-1)[rows[keys]] > 0
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = np.where(real, scale * k[keys][:, cols] @ q[i, cols], -1e9)
            w = np.exp(s - s.max())
            out[i, cols] = (w / w.sum()) @ v[keys][:, cols]
    return out


def naive_attention_sublayer(h, weights, mask, rows, q_idx, heads, eps):
    """``LN(x + MHA(h) W_o + b_o)`` in numpy, with ``naive_attention``."""
    w_q, b_q, w_k, w_v, b_v, w_o, b_o, gamma, beta = (t.data for t in weights)
    x = h if q_idx is None else h[q_idx]
    q_pos = rows if q_idx is None else rows[q_idx]
    ctx = naive_attention(x @ w_q + b_q, h @ w_k, h @ w_v + b_v, mask, rows,
                          q_pos, heads, 1.0 / np.sqrt(h.shape[1] // heads))
    z = x + (ctx @ w_o + b_o)
    mu = z.mean(-1, keepdims=True)
    var = ((z - mu) ** 2).mean(-1, keepdims=True)
    return gamma * (z - mu) / np.sqrt(var + eps) + beta


# B=2 rows of L=4. Batch row 0's real tokens are positions 0, 1 and 3 and
# row 1's are 4, 6 and 7, so neither is a prefix; position 2 is a padded key
# that still has a row of h (row 2).
ROW_MASK = np.array([[1, 1, 0, 1], [1, 0, 1, 1]])
ROWS = np.array([0, 1, 2, 3, 4, 6, 7])
# B=3 rows of L=4. Batch row 1's only real key is its [CLS]; its position 1
# is a padded key that has a row of h (row 5), as is row 0's position 3 (row 3).
ALONE_MASK = np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]])
ALONE_ROWS = np.array([0, 1, 2, 3, 4, 5, 8, 9, 11])
# each shape's queries: every row (``q_idx`` None, ``self_attention``) or the
# [CLS] rows at the indices ``q_idx`` (``cls_attention``)
ATTENTION_SHAPES = {
    # encoder: H=8 over 2 heads, every row queries
    "encoder": dict(q_idx=None, rows=ROWS, mask=ROW_MASK, hidden=8, heads=2),
    # the last encoder layer: only each batch row's [CLS] row queries
    "cls": dict(q_idx=np.array([0, 4]), rows=ROWS, mask=ROW_MASK, hidden=8, heads=2),
    # a [CLS] row that attends to itself alone
    "cls_alone": dict(q_idx=np.array([0, 4, 6]), rows=ALONE_ROWS, mask=ALONE_MASK,
                      hidden=8, heads=2),
    # B=6 batch rows of L=5, one query per batch row, single head, no padding
    "fusion": dict(q_idx=np.arange(6) * 5, rows=np.arange(30), mask=np.ones((6, 5)),
                   hidden=4, heads=1),
}
CLS_SHAPES = sorted(k for k, cfg in ATTENTION_SHAPES.items() if cfg["q_idx"] is not None)


def attention_leaves(cfg, seed):
    """h, then the nine weights of the attention ops."""
    rng = np.random.default_rng(seed)
    h, *weights = leaves_of(rng, [(len(cfg["rows"]), cfg["hidden"])]
                            + attention_weights(cfg["hidden"]), 2.0)
    for t, name in zip([h, *weights], ["h"] + [f"w{i}" for i in range(9)]):
        t.name = name
    return h, weights


def attend(cfg, h, weights):
    """The shape's op: ``self_attention`` when every row queries,
    ``cls_attention`` when the [CLS] rows do."""
    op = T.self_attention if cfg["q_idx"] is None else T.cls_attention
    return op(h, weights, cfg["mask"], cfg["rows"], cfg["heads"], 1e-12)


def oracle_args(cfg):
    return cfg["mask"], cfg["rows"], cfg["q_idx"], cfg["heads"], 1e-12


@pytest.mark.parametrize("shape", sorted(ATTENTION_SHAPES))
def test_attention_matches_naive_per_head_oracle(shape):
    cfg = ATTENTION_SHAPES[shape]
    h, weights = attention_leaves(cfg, seed=5)
    out = attend(cfg, h, weights)
    queries = len(cfg["rows"]) if cfg["q_idx"] is None else len(cfg["q_idx"])
    assert out.shape == (queries, cfg["hidden"])
    np.testing.assert_allclose(
        out.data, naive_attention_sublayer(h.data, weights, *oracle_args(cfg)),
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", sorted(ATTENTION_SHAPES))
def test_attention_ops_pass_finite_difference_check(shape):
    cfg = ATTENTION_SHAPES[shape]
    h, weights = attention_leaves(cfg, seed=6)
    mix = np.random.default_rng(7).uniform(-1, 1, attend(cfg, h, weights).shape)
    report = finite_difference_check(
        lambda: probe(mix, attend(cfg, h, weights)),
        [(t.name, t) for t in (h, *weights)], tol=1e-4)
    assert report.passed, report.worst()
    if cfg["q_idx"] is not None:
        # a padded key gets no weight, and it is no query, so its row of h
        # gets an exact zero gradient; every real key's row gets one
        padded = cfg["mask"].reshape(-1)[cfg["rows"]] == 0
        assert np.all(h.grad[padded] == 0.0) and np.all(h.grad[~padded] != 0.0)


@pytest.mark.parametrize("shape", CLS_SHAPES)
def test_cls_attention_matches_the_chain_with_cls_queries(shape):
    """``cls_attention`` against ``chain.attention_sublayer`` with the [CLS]
    rows as queries, which projects K and V: the output and the gradients
    of h and all nine weights, in float64, within 1e-12."""
    cfg = ATTENTION_SHAPES[shape]
    h, weights = attention_leaves(cfg, seed=11)
    ref_h, *ref_weights = chain.copies([h, *weights])
    out = attend(cfg, h, weights)
    ref = chain.attention_sublayer(ref_h, ref_weights, *oracle_args(cfg))
    mix = np.random.default_rng(12).uniform(-1, 1, out.shape)
    backward(probe(mix, out))
    backward(probe(mix, ref))
    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
    for leaf, ref_leaf in zip([h, *weights], [ref_h, *ref_weights]):
        np.testing.assert_allclose(leaf.grad, ref_leaf.grad, rtol=0, atol=1e-12,
                                   err_msg=leaf.name)


def test_attention_under_no_grad_records_no_node():
    # the untaped output is byte-identical to the taped one, for both ops
    for shape, op in (("encoder", "self_attention"), ("cls", "cls_attention")):
        cfg = ATTENTION_SHAPES[shape]
        h, weights = attention_leaves(cfg, seed=8)
        taped = attend(cfg, h, weights)
        assert taped.node.op == op and taped.node.inputs == (h, *weights)
        with T.no_grad():
            out = attend(cfg, h, weights)
        assert out.node is None
        assert out.data.tobytes() == taped.data.tobytes()


def test_attention_shape_errors():
    x, mask, rows = Tensor(np.ones((4, 8))), np.ones((2, 2)), np.arange(4)
    weights = [Tensor(np.ones(s)) for s in attention_weights(8)]
    for op in (T.self_attention, T.cls_attention):
        with pytest.raises(ShapeMismatchError):  # 3 heads do not divide H = 8
            op(x, weights, mask, rows, 3, 1e-12)
        with pytest.raises(ShapeMismatchError):  # a value projection of another width
            op(x, weights[:3] + [Tensor(np.ones((8, 4)))] + weights[4:], mask, rows, 2,
               1e-12)
        with pytest.raises(ShapeMismatchError):  # no norm beta
            op(x, weights[:8], mask, rows, 2, 1e-12)
        with pytest.raises(ShapeMismatchError):  # a key bias
            op(x, weights[:3] + [Tensor(np.ones(8))] + weights[3:], mask, rows, 2, 1e-12)
        with pytest.raises(ShapeMismatchError):  # a mask that is not [B, L]
            op(x, weights, np.ones(4), rows, 2, 1e-12)
        with pytest.raises(ShapeMismatchError):  # h with leading dims
            op(Tensor(np.ones((2, 2, 8))), weights, mask, rows[:2], 2, 1e-12)
        with pytest.raises(ContractError):
            op(x, weights, mask, rows, 2, 0.0)


def test_feed_forward_shape_errors():
    x = Tensor(np.ones((3, 4)))
    weights = [Tensor(np.ones(s)) for s in ff_weights(4, 6)]
    T.feed_forward(x, weights, 1e-12)
    with pytest.raises(ShapeMismatchError):  # an output weight of another width
        T.feed_forward(x, weights[:2] + [Tensor(np.ones((5, 4)))] + weights[3:], 1e-12)
    with pytest.raises(ShapeMismatchError):  # no norm beta
        T.feed_forward(x, weights[:5], 1e-12)
    with pytest.raises(ShapeMismatchError):  # h with leading dims
        T.feed_forward(Tensor(np.ones((2, 3, 4))), weights, 1e-12)
    with pytest.raises(ContractError):
        T.feed_forward(x, weights, 0.0)


# (op, make the leaves h and weights, the fused op, the composed chain)
SUBLAYERS = {
    "attention": (lambda r: leaves_of(r, [(len(ROWS), 8)] + attention_weights(8)),
                  lambda h, w: T.self_attention(h, w, ROW_MASK, ROWS, 2, 1e-12),
                  lambda h, w: chain.attention_sublayer(h, w, ROW_MASK, ROWS, None,
                                                        2, 1e-12)),
    "attention_cls": (lambda r: leaves_of(r, [(len(ROWS), 8)] + attention_weights(8)),
                      lambda h, w: T.cls_attention(h, w, ROW_MASK, ROWS, 2, 1e-12),
                      lambda h, w: chain.attention_sublayer(h, w, ROW_MASK, ROWS,
                                                            np.array([0, 4]), 2, 1e-12)),
    "feed_forward": (lambda r: leaves_of(r, [(7, 8)] + ff_weights(8, 16)),
                     lambda h, w: T.feed_forward(h, w, 1e-12),
                     lambda h, w: chain.feed_forward_sublayer(h, w, 1e-12)),
    # h is the token table
    "embeddings": (embeddings_leaves,
                   lambda h, w: T.embeddings([h, *w[:2]], EMBEDDING_IDS, *w[2:], 1e-12),
                   lambda h, w: chain.embedding_block([h, *w[:2]], EMBEDDING_IDS,
                                                      *w[2:], 1e-12)),
    # one adapter alone, on [n, H] rows as in stage 1
    "adapter": (lambda r: adapter_leaves(r, 1, False, shape=(7, 8), width=4),
                lambda h, w: adapter_op(1)(h, *w),
                lambda h, w: chain.adapter(h, *w)),
}


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 2e-6)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", sorted(SUBLAYERS))
def test_sublayers_match_the_composed_chain(name, dtype, tol):
    """The one-node op against its chain of lookups, linears, the packed-row
    attention, add, relu, layer_norm and a numpy GELU: the output and every
    input's gradient, within ``tol`` relative to the largest entry."""
    make, fused, composed = SUBLAYERS[name]
    rng = np.random.default_rng(64)
    h, *weights = [Tensor(t.data.astype(dtype), requires_grad=True)
                   for t in make(rng)]
    ref_h, *ref_weights = chain.copies([h, *weights])
    out, ref = fused(h, weights), composed(ref_h, ref_weights)
    mix = rng.uniform(-1, 1, out.shape)
    backward(probe(mix, out))
    backward(probe(mix, ref))

    def close(got, want):
        assert got.dtype == want.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    close(out.data, ref.data)
    for leaf, ref_leaf in zip([h, *weights], [ref_h, *ref_weights]):
        close(leaf.grad, ref_leaf.grad)


@pytest.mark.parametrize("name", sorted(SUBLAYERS))
def test_sublayer_backward_skips_inputs_that_need_no_gradient(name, monkeypatch):
    """A frozen layer under a trained one (stage 1) needs dL/dh alone: the
    backward returns None for every weight and runs no weight-gradient GEMM
    and no column sum. A frozen h (the embeddings) gets None in turn."""
    make, fused, _ = SUBLAYERS[name]
    h, *weights = make(np.random.default_rng(65))
    g = np.random.default_rng(66).uniform(-1, 1, fused(h, weights).shape)
    full = fused(h, weights).node.backward_fn(g)
    calls = []
    for helper in ("_affine_grads", "_column_sum"):
        monkeypatch.setattr(T, helper, lambda *a, f=getattr(T, helper), n=helper:
                            calls.append(n) or f(*a))
    frozen = [Tensor(w.data) for w in weights]
    grads = fused(h, frozen).node.backward_fn(g)
    assert grads[1:] == (None,) * len(weights) and calls == []
    np.testing.assert_array_equal(grads[0], full[0])
    grads = fused(Tensor(h.data), weights).node.backward_fn(g)
    assert grads[0] is None
    for got, want in zip(grads[1:], full[1:]):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the fusion mix: adapter_fusion, T adapters and the fusion attention in one op
# ---------------------------------------------------------------------------

ADAPTER_PARTS = ("down.weight", "down.bias", "up.weight", "up.bias")


def adapter_fusion_leaves(num_adapters, seed, shape=(2, 3, 4), width=2):
    """h, the four per-adapter weight lists (down/up weights and biases),
    the W_Q/W_K/W_V weights and a mixing constant."""
    rng = np.random.default_rng(seed)
    hidden = shape[-1]
    h = Tensor(rng.uniform(-2, 2, shape), requires_grad=True, name="h")
    part_shapes = ((hidden, width), (width,), (width, hidden), (hidden,))
    adapters = [[Tensor(rng.uniform(-1, 1, s), requires_grad=True, name=f"{t}.{part}")
                 for t in range(num_adapters)]
                for part, s in zip(ADAPTER_PARTS, part_shapes)]
    ws = [Tensor(rng.uniform(-1, 1, (hidden, hidden)), requires_grad=True, name=n)
          for n in ("w_q", "w_k", "w_v")]
    mix = rng.uniform(-1, 1, shape)
    return h, adapters, ws, mix


def attention_reference(h, zs, ws, mix):
    """The unreassociated layer: project every z_t through W_K and W_V, then
    one single-head, unscaled ``chain.attention`` over them, with the N tokens as
    batch rows, the T adapters as their positions and one query per batch
    row. The stacked z is its own leaf, so its gradient slices are the z_t
    gradients. Returns the output [..., H], the weights [..., T] (computed
    here in numpy) and the gradients of sum(mix * output) for h, each z_t
    and the three weights."""
    hidden, tasks = h.shape[-1], len(zs)
    stacked = Tensor(np.stack([z.data for z in zs], axis=-2).reshape(-1, hidden),
                     requires_grad=True)                              # [N T, H]
    w_q, w_k, w_v = (Tensor(w.data.copy(), requires_grad=True) for w in ws)
    h_ref = Tensor(h.data.reshape(-1, hidden).copy(), requires_grad=True)
    n = h_ref.shape[0]
    zero = Tensor(np.zeros(hidden))  # adding +0.0 is exact
    q, k = T.matmul(h_ref, w_q, zero), T.matmul(stacked, w_k, zero)
    out = chain.attention(q, k, T.matmul(stacked, w_v, zero), np.ones((n, tasks)),
                          np.arange(n * tasks), np.arange(n) * tasks, 1, 1.0)
    scores = np.einsum("nh,nth->nt", q.data, k.data.reshape(n, tasks, hidden))
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    backward(probe(mix.reshape(-1, hidden), out))
    dz = stacked.grad.reshape(h.shape[:-1] + (tasks, hidden))
    return (out.data.reshape(h.shape), alpha.reshape(h.shape[:-1] + (tasks,)),
            h_ref.grad.reshape(h.shape), [dz[..., t, :] for t in range(tasks)],
            [w.grad for w in (w_q, w_k, w_v)])


def adapter_fusion_reference(h, adapters, ws, mix):
    """T separate ``chain.adapter`` chains, then ``attention_reference``, plus
    the residual h. The gradients of h and the adapter weights are the z_t
    gradients carried back through the adapters (a vector-Jacobian product)
    plus, for h, its gradient as the query and through the residual. Returns
    the output, the weights and the gradients of h, of each adapter weight
    (in ``adapters`` order) and of W_Q/K/V."""
    leaves = [chain.copies(tensors) for tensors in adapters]
    h_in = Tensor(h.data.copy(), requires_grad=True)
    zs = [chain.adapter(h_in, *(part[t] for part in leaves))
          for t in range(len(adapters[0]))]
    out, alpha, dh, dzs, dws = attention_reference(h, zs, ws, mix)
    backward(functools.reduce(chain.add, (probe(dz, z) for dz, z in zip(dzs, zs))))
    grads = [[leaf.grad for leaf in part] for part in leaves]
    return h.data + out, alpha, dh + h_in.grad + mix, grads, dws


@pytest.mark.parametrize("num_adapters", [1, 2, 5])
def test_fusion_mix_passes_finite_difference_check(num_adapters):
    h, adapters, ws, mix = adapter_fusion_leaves(num_adapters, seed=40 + num_adapters)
    leaves = [h, *(t for a in adapters for t in a), *ws]
    report = finite_difference_check(
        lambda: probe(mix, T.adapter_fusion(h, *adapters, *ws)[0]),
        [(t.name, t) for t in leaves], tol=1e-4)
    assert len(report.blocks) == 4 * num_adapters + 4
    assert report.passed, report.worst()


@pytest.mark.parametrize("num_adapters", [1, 2])
def test_adapters_without_fusion_weights_pass_finite_difference_check(num_adapters):
    h, adapters, _, mix = adapter_fusion_leaves(num_adapters, seed=45 + num_adapters)
    assert T.adapter_fusion(h, *adapters)[1] is None  # no fusion weights
    leaves = [h, *(t for a in adapters for t in a)]
    report = finite_difference_check(
        lambda: probe(mix, T.adapter_fusion(h, *adapters)[0]),
        [(t.name, t) for t in leaves], tol=1e-4)
    assert len(report.blocks) == 4 * num_adapters + 1
    assert report.passed, report.worst()


def test_adapters_without_fusion_weights_sum_the_adapter_chains():
    h, adapters, _, mix = adapter_fusion_leaves(2, seed=47)
    out = T.adapter_fusion(h, *adapters)[0]
    backward(probe(mix, out))
    leaves = [chain.copies(tensors) for tensors in adapters]
    h_in = Tensor(h.data.copy(), requires_grad=True)
    zs = [chain.adapter(h_in, *(part[t] for part in leaves)) for t in range(2)]
    # h + y_0 + y_1 = z_0 + z_1 - h
    ref = probe(mix, zs[0]), probe(mix, zs[1]), probe(-mix, h_in)
    backward(functools.reduce(chain.add, ref))
    np.testing.assert_allclose(out.data, zs[0].data + zs[1].data - h.data,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(h.grad, h_in.grad, rtol=0, atol=1e-12)
    for tensors, ref_tensors in zip(adapters, leaves):
        for leaf, ref_leaf in zip(tensors, ref_tensors):
            np.testing.assert_allclose(leaf.grad, ref_leaf.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("num_adapters", [1, 5])
def test_fusion_mix_matches_attention_reference(num_adapters):
    h, adapters, ws, mix = adapter_fusion_leaves(num_adapters, seed=50 + num_adapters)
    out, alpha = T.adapter_fusion(h, *adapters, *ws)
    backward(probe(mix, out))
    ref_out, ref_alpha, ref_dh, ref_da, ref_dws = adapter_fusion_reference(
        h, adapters, ws, mix)
    assert alpha.shape == h.shape[:-1] + (num_adapters,)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h.grad, ref_dh, rtol=0, atol=1e-12)
    for tensors, ref_grads in zip(adapters, ref_da):
        for leaf, ref_grad in zip(tensors, ref_grads):
            np.testing.assert_allclose(leaf.grad, ref_grad, rtol=0, atol=1e-12,
                                       err_msg=leaf.name)
    for w, ref_dw in zip(ws, ref_dws):
        np.testing.assert_allclose(w.grad, ref_dw, rtol=0, atol=1e-12)


def test_fusion_mix_under_no_grad_records_no_node():
    h, adapters, ws, _ = adapter_fusion_leaves(3, seed=60)
    taped, taped_alpha = T.adapter_fusion(h, *adapters, *ws)
    assert taped.node is not None and taped.node.op == "adapter_fusion"
    assert taped.node.inputs == (h, *(t for a in adapters for t in a), *ws)
    with T.no_grad():
        out, alpha = T.adapter_fusion(h, *adapters, *ws)
    assert out.node is None
    np.testing.assert_array_equal(out.data, taped.data)
    np.testing.assert_array_equal(alpha, taped_alpha)


def test_fusion_mix_backward_skips_inputs_that_need_no_gradient():
    h, adapters, ws, mix = adapter_fusion_leaves(3, seed=62)
    g = mix
    full = T.adapter_fusion(h, *adapters, *ws)[0].node.backward_fn(g)
    # stage 2 at layer 0: h and every adapter frozen, only W_Q/K/V trained
    frozen_h = Tensor(h.data)
    frozen = [[Tensor(t.data) for t in a] for a in adapters]
    grads = T.adapter_fusion(frozen_h, *frozen, *ws)[0].node.backward_fn(g)
    assert grads[:13] == (None,) * 13
    for got, want in zip(grads[13:], full[13:]):
        np.testing.assert_array_equal(got, want)
    # stage 2 above layer 0: h has a node of its own and gets its gradient
    h_node = chain.add(h, Tensor(np.zeros(h.shape)))  # adding +0.0 is exact
    grads = T.adapter_fusion(h_node, *frozen, *ws)[0].node.backward_fn(g)
    assert grads[1:13] == (None,) * 12
    for got, want in zip(grads[:1] + grads[13:], full[:1] + full[13:]):
        np.testing.assert_array_equal(got, want)
    # one trained adapter weight among frozen ones
    frozen[2][1] = adapters[2][1]  # adapter 1's up weight
    grads = T.adapter_fusion(frozen_h, *frozen, *ws)[0].node.backward_fn(g)
    assert [i for i, gi in enumerate(grads) if gi is not None] == [8, 13, 14, 15]
    np.testing.assert_array_equal(grads[8], full[8])


def test_fusion_mix_shape_errors_name_both_shapes():
    h, adapters, ws, _ = adapter_fusion_leaves(2, seed=61)
    with pytest.raises(ContractError):
        T.adapter_fusion(h, [], [], [], [], *ws)
    with pytest.raises(ContractError, match="2 down weights but 1 down biases"):
        T.adapter_fusion(h, adapters[0], adapters[1][:1], *adapters[2:], *ws)
    # adapter 1 has a bottleneck of 3 where adapter 0 has 2
    wide = [Tensor(np.ones((4, 3))), Tensor(np.ones(3)),
            Tensor(np.ones((3, 4))), Tensor(np.ones(4))]
    mixed = [[a[0], w] for a, w in zip(adapters, wide)]
    with pytest.raises(ShapeMismatchError, match=r"\(4, 3\).*\(2, 3, 4\).*bottleneck 2"):
        T.adapter_fusion(h, *mixed, *ws)
    with pytest.raises(ShapeMismatchError, match=r"\(4, 3\).*\(2, 3, 4\)"):
        T.adapter_fusion(h, *adapters, ws[0], Tensor(np.ones((4, 3))), ws[2])
    with pytest.raises(ShapeMismatchError, match=r"\[\(4, 4\), \(4, 4\)\]"):
        T.adapter_fusion(h, *adapters, *ws[:2])


# ---------------------------------------------------------------------------
# softmax properties, of both kernels: ``_softmax`` over the last axis, which
# adapter_fusion runs over the adapters, and ``_softmax_over_keys`` over the
# first, which the attention ops run over the keys
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(T._softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_max_shift_stability():
    out = T._softmax(np.array([1000.0, 0.0]))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(out))


def test_softmax_is_probability_vector():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        y = T._softmax(rng.uniform(-50, 50, (4, 7)))
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def over_keys(s, dtype=np.float64):
    """``_softmax_over_keys`` of a copy of ``s``, whose first axis is the keys."""
    y = np.array(s, dtype=dtype)
    T._softmax_over_keys(y)
    return y


def test_softmax_over_keys_symmetry():
    np.testing.assert_allclose(over_keys([[0.0], [0.0]]), [[0.5], [0.5]])


def test_softmax_over_keys_max_shift_stability():
    out = over_keys([[1000.0], [0.0]])
    assert out[0, 0] == pytest.approx(1.0)
    assert out[1, 0] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(out))


def test_softmax_over_keys_is_probability_vector():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        y = over_keys(rng.uniform(-50, 50, (7, 4)))
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_over_keys_gives_a_masked_key_weight_zero(dtype):
    s = np.random.default_rng(0).uniform(-5, 5, (4, 3, 2))
    s[2] += T._MASKED_SCORE
    y = over_keys(s, dtype)
    assert np.all(y[2] == 0.0)
    np.testing.assert_allclose(y.sum(axis=0), 1.0, rtol=1e-6)


def test_softmax_over_keys_and_its_backward_match_softmax_transposed():
    rng = np.random.default_rng(4)
    x, g = rng.uniform(-5, 5, (6, 5)), rng.normal(size=(6, 5))
    y = over_keys(x)
    np.testing.assert_allclose(y, T._softmax(x.T.copy()).T, rtol=1e-12)
    dx = g.copy()
    T._softmax_over_keys_backward(y, dx)
    np.testing.assert_allclose(dx, T._softmax_backward(y.T, g.T).T,
                               rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# layer-norm examples, on the embedding block: the norm of a table's rows
# ---------------------------------------------------------------------------

def normed_rows(x, eps=1e-12):
    """The layer norm of the rows of ``x``, as ``embeddings`` over one table
    whose rows they are, with unit gamma and zero beta."""
    x = np.asarray(x, dtype=np.float64)
    return T.embeddings([Tensor(x)], [np.arange(len(x))], Tensor(np.ones(x.shape[1])),
                        Tensor(np.zeros(x.shape[1])), eps)


def test_layer_norm_constant_input_gives_zeros():
    out = normed_rows(np.full((2, 4), 3.7))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_standardized():
    out = normed_rows([[1.0, -1.0]], eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_eps_contract():
    with pytest.raises(ContractError):
        normed_rows([[1.0]], eps=0.0)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def square(w):
    """w @ w for a square matrix w: a quadratic built from the tape's ops."""
    return T.matmul(w, w, Tensor(np.zeros(w.shape[-1], w.data.dtype)))


def test_backward_quadratic():
    # trace(W W) = sum_ij W_ij W_ji has gradient 2 W^T
    w = Tensor(np.diag([1.0, 2.0]), requires_grad=True)
    backward(probe(np.eye(2), square(w)))
    np.testing.assert_allclose(w.grad, np.diag([2.0, 4.0]))


def test_backward_disconnected_parameter_has_no_grad():
    w = Tensor(np.diag([1.0, 2.0]), requires_grad=True)
    p = Tensor([5.0], requires_grad=True)
    backward(probe(np.eye(2), square(w)))
    assert p.grad is None


def test_backward_requires_scalar():
    w = Tensor(np.diag([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ContractError):
        backward(square(w))


def test_backward_frozen_leaf_receives_no_grad():
    w = Tensor([[1.0, 2.0]], requires_grad=True)
    frozen = Tensor([[3.0], [4.0]], requires_grad=False)
    backward(probe(np.ones((1, 1)), T.matmul(w, frozen, Tensor(np.zeros(1)))))
    assert frozen.grad is None
    np.testing.assert_allclose(w.grad, [[3.0, 4.0]])


def test_backward_accumulates_across_shared_subexpressions():
    w = Tensor([[3.0]], requires_grad=True)
    sq = square(w)
    backward(probe(np.ones((1, 1)), chain.add(sq, sq)))  # diamond: sq used twice
    np.testing.assert_allclose(w.grad, [[12.0]])


def test_tape_topological_replay_visits_each_node_once():
    w = Tensor([[3.0]], requires_grad=True)
    sq = square(w)
    total = chain.add(sq, sq)  # diamond: sq's node is reached along two edges
    loss = probe(np.ones((1, 1)), total)
    calls = []
    for node in (loss.node, total.node, sq.node):
        node.backward_fn = (lambda g, fn=node.backward_fn, op=node.op:
                            calls.append(op) or fn(g))
    backward(loss)
    # each node's backward runs exactly once, consumers before their inputs
    assert calls == ["scalar_loss", "add", "matmul"]
    np.testing.assert_allclose(w.grad, [[12.0]])


def test_graph_is_freed_by_reference_counting():
    import gc
    import weakref
    w = Tensor([[3.0]], requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        mid = square(w)
        ref = weakref.ref(mid)
        loss = probe(np.ones((1, 1)), T.tanh(mid))
        del mid
        backward(loss)
        assert ref() is not None  # the loss's graph still holds it
        del loss
        assert ref() is None  # no reference cycle keeps it alive
    finally:
        if was_enabled:
            gc.enable()
    assert w.grad is not None


def test_no_grad_records_no_tape_and_restores_the_mode():
    w = Tensor([[3.0]], requires_grad=True)
    with T.no_grad():
        inside = square(w)
        with T.no_grad():
            pass
        still_inside = square(w)
    assert inside.node is None and still_inside.node is None
    np.testing.assert_array_equal(inside.data, [[9.0]])
    with pytest.raises(ValueError):
        with T.no_grad():
            raise ValueError
    after = square(w)
    assert after.node is not None
    backward(probe(np.ones((1, 1)), after))
    np.testing.assert_allclose(w.grad, [[6.0]])


def test_no_grad_is_per_thread():
    import threading
    w = Tensor([[3.0]], requires_grad=True)
    other = []
    with T.no_grad():
        worker = threading.Thread(target=lambda: other.append(square(w)))
        worker.start()
        worker.join()
        assert square(w).node is None
    assert other[0].node is not None


def test_backward_linearity_is_exact():
    rng = np.random.default_rng(9)
    values = rng.uniform(-2, 2, (2, 2))
    mix1, mix2 = rng.uniform(-1, 1, (2, 2, 2))

    def build(w):
        return probe(mix1, square(w)), probe(mix2, T.tanh(w))

    w = Tensor(values.copy(), requires_grad=True)
    l1, _ = build(w)
    backward(l1)
    g1 = w.grad.copy()

    w = Tensor(values.copy(), requires_grad=True)
    _, l2 = build(w)
    backward(l2)
    g2 = w.grad.copy()

    w = Tensor(values.copy(), requires_grad=True)
    l1, l2 = build(w)
    backward(chain.add(l1, l2))
    np.testing.assert_array_equal(w.grad, g1 + g2)


def test_grad_accumulates_across_backward_calls():
    w = Tensor([[2.0]], requires_grad=True)
    backward(probe(np.ones((1, 1)), square(w)))
    backward(probe(np.ones((1, 1)), square(w)))
    np.testing.assert_allclose(w.grad, [[8.0]])


def test_freezing_keeps_data_bit_identical():
    w = Tensor([[1.5, -0.5]], requires_grad=False)
    before = w.data.tobytes()
    out = probe(np.ones((1, 2)), T.tanh(w))
    backward(out) if out.node else None
    assert w.data.tobytes() == before
    assert w.grad is None


# ---------------------------------------------------------------------------
# scalar_loss
# ---------------------------------------------------------------------------

def test_scalar_loss_is_one_node_and_calls_grad_only_in_backward():
    x = Tensor(np.array([[1.0, -2.0]], np.float32), requires_grad=True)
    calls = []

    def grad():
        calls.append(1)
        return 2.0 * x.data

    loss = T.scalar_loss(x, np.sum(x.data * x.data), grad)
    assert loss.shape == () and loss.data.dtype == np.float32 and loss.data == 5.0
    assert loss.node.op == "scalar_loss" and loss.node.inputs == (x,)
    assert calls == []
    backward(loss)
    assert calls == [1]
    assert x.grad.dtype == np.float32 and x.grad.tolist() == [[2.0, -4.0]]


def test_scalar_loss_under_no_grad_records_no_node_and_never_calls_grad():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with T.no_grad():
        loss = T.scalar_loss(x, 6.0, lambda: pytest.fail("grad was called"))
    assert loss.node is None and loss.data == 6.0


def test_scalar_loss_value_must_be_a_scalar():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ShapeMismatchError, match=r"\(2,\)"):
        T.scalar_loss(x, x.data, lambda: np.ones(2))


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------

def test_fd_check_polynomial_exactness():
    p = Tensor(np.asarray([[3.0]]), requires_grad=True, name="p")
    report = finite_difference_check(lambda: probe(np.ones((1, 1)), square(p)),
                                     [("p", p)], h=1e-5, tol=1e-6)
    assert report.passed
    # central difference of p^2 is exact up to rounding: estimate 6.0 +- 1e-8
    f = lambda v: v * v  # noqa: E731
    estimate = (f(3.0 + 1e-5) - f(3.0 - 1e-5)) / 2e-5
    assert abs(estimate - 6.0) < 1e-8


def test_fd_check_constant_function():
    p = Tensor(np.asarray([1.0]), requires_grad=True, name="p")
    c = Tensor([4.0])
    report = finite_difference_check(lambda: probe(np.ones(1), c), [("p", p)],
                                     h=1e-5, tol=1e-10)
    assert report.passed
    assert report.blocks[0].max_rel_err == 0.0


def test_fd_check_h_contract():
    p = Tensor(np.asarray([[1.0]]), requires_grad=True)
    with pytest.raises(ContractError):
        finite_difference_check(lambda: probe(np.ones((1, 1)), square(p)), [("p", p)],
                                h=0.0)


@pytest.mark.parametrize("coords", [-1, 0])
def test_fd_check_max_coords_contract(coords):
    p = Tensor(np.asarray([[1.0]]), requires_grad=True)
    with pytest.raises(ContractError, match="at least 1"):
        finite_difference_check(lambda: probe(np.ones((1, 1)), square(p)), [("p", p)],
                                max_coords_per_block=coords)


def test_fd_check_relative_error_definition():
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(0.0, 1e-9) == 1e-9          # max(1, ...) floor
    assert relative_error(10.0, 5.0) == 0.5


def test_fd_check_detects_corrupted_gradient():
    p = Tensor(np.asarray([[3.0]]), requires_grad=True, name="p")
    report = finite_difference_check(
        lambda: probe(np.ones((1, 1)), square(p)), [("p", p)], tol=1e-4,
        grad_transform=lambda name, g: g * 1.5)
    assert not report.passed


def test_fd_check_rejects_float32_parameters():
    p = Tensor(np.asarray([[3.0]], np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="'p32' is float32"):
        finite_difference_check(lambda: probe(np.ones((1, 1)), square(p)), [("p32", p)])


def test_parameter_store_holds_its_dtype():
    store = T.ParameterStore([("w", (2,))], np.float32)
    w = store["w"]
    assert w.data.dtype == np.float32 and w.grad.dtype == np.float32
    store.assign("w", np.array([3.0, 4.0]))
    assert w.data.dtype == np.float32 and w.data.tolist() == [3.0, 4.0]
    with pytest.raises(ShapeMismatchError, match="'w'"):
        store.assign("w", np.zeros(3))
    with pytest.raises(ContractError):
        T.ParameterStore([], np.int64)


def test_parameter_store_rejects_duplicates_and_freezes():
    with pytest.raises(ContractError):
        T.ParameterStore([("w", (2,)), ("w", (1,))])
    store = T.ParameterStore([("w", (2,))])
    store.set_requires_grad(["w"], False)
    assert store.trainable_names() == []
    assert sum(t.size for _, t in store.items()) == 2


def test_parameter_store_views_two_flat_buffers_and_backward_writes_in_place():
    store = T.ParameterStore([("a", (2, 2)), ("b", (3,))], np.float32)
    a, b = store["a"], store["b"]
    assert store.data.shape == store.grad.shape == (7,)
    a.data[0, 1] = 5.0
    assert store.data[1] == 5.0
    grad = a.grad
    backward(probe(np.ones((2, 2)), square(a)))
    assert a.grad is grad and store.grad[:4].tolist() == a.grad.ravel().tolist()
    assert b.grad.tolist() == [0.0, 0.0, 0.0]  # no op reached b
    store.set_requires_grad(["b"], False)
    store.grad[4:] = 7.0
    store.zero_grad()  # fills the trainable runs only
    assert store.grad.tolist() == [0.0] * 4 + [7.0] * 3


def test_state_bytes_is_f32_little_endian_sorted():
    store = T.ParameterStore([("b", (1,)), ("a", (1,))])
    store.assign("b", [2.0])
    store.assign("a", [1.0])
    raw = store.state_bytes()
    assert raw == np.array([1.0], "<f4").tobytes() + np.array([2.0], "<f4").tobytes()


def test_every_exported_name_resolves():
    import fuseformer

    missing = [name for name in fuseformer.__all__ if not hasattr(fuseformer, name)]
    assert missing == []
