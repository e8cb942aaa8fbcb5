"""Autodiff core: op-level gradient checks against central finite
differences, tape semantics, and the verification harness itself."""

import numpy as np
import pytest

from fuseformer import tensor as T
from fuseformer.errors import ContractError, DomainError, ShapeMismatchError
from fuseformer.tensor import (Tensor, backward, finite_difference_check,
                               relative_error)

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
    out = T.matmul(T.constant(np.eye(2)), T.constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projection():
    out = T.matmul(T.constant([[1.0, 0.0], [0.0, 0.0]]),
                   T.constant([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0], [0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True, name="a")
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True, name="b")
    weights = T.constant(rng.uniform(-1, 1, (3, 2)))
    assert_grad_matches(lambda: T.sum_all(T.mul(weights, T.matmul(a, b))),
                        [a, b], tol=1e-6)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_sigmoid_symmetry_at_zero():
    assert T.sigmoid(T.constant([0.0])).data[0] == 0.5


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = T.sigmoid(T.constant([-800.0, 800.0]))
    assert out.data[0] == pytest.approx(0.0, abs=1e-300)
    assert out.data[1] == 1.0


def test_relu_definition():
    out = T.relu(T.constant([-3.0, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 3.0])


def test_tanh_gradient_at_zero_is_one():
    x = Tensor([0.0], requires_grad=True)
    backward(T.sum_all(T.tanh(x)))
    assert x.grad[0] == 1.0


def test_log_domain_error():
    with pytest.raises(DomainError):
        T.log(T.constant([1.0, 0.0]))
    with pytest.raises(DomainError):
        T.log(T.constant([-2.0]))


def test_equal_shape_broadcast_only():
    with pytest.raises(ShapeMismatchError):
        T.add(T.constant(np.ones(3)), T.constant(np.ones((2, 3))))
    # scalar-vs-tensor is allowed
    out = T.add(T.constant(np.ones((2, 3))), T.constant(5.0))
    assert np.all(out.data == 6.0)


def test_scalar_operand_gradient_reduces():
    c = Tensor(np.asarray(2.0), requires_grad=True)
    x = T.constant([1.0, 2.0, 3.0])
    backward(T.sum_all(T.mul(c, x)))
    assert c.grad == pytest.approx(6.0)


ELEMENTWISE_CASES = [
    ("add", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                       Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True)),
     lambda a, b: T.add(a, b)),
    ("mul", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                       Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True)),
     lambda a, b: T.mul(a, b)),
    ("sigmoid", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.sigmoid(a)),
    ("tanh", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.tanh(a)),
    ("relu", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.relu(a)),
    ("gelu", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.gelu(a)),
    ("log", lambda r: (Tensor(r.uniform(0.1, 2, (3, 4)), requires_grad=True),),
     lambda a: T.log(a)),
    ("neg", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.neg(a)),
    ("scale", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.scale(a, -1.7)),
    ("pow", lambda r: (Tensor(r.uniform(0.1, 2, (3, 4)), requires_grad=True),),
     lambda a: T.pow_const(a, 2.0)),
    ("log_sigmoid", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.log_sigmoid(a)),
    ("softmax", lambda r: (Tensor(r.uniform(-2, 2, (3, 5)), requires_grad=True),),
     lambda a: T.softmax(a, axis=1)),
    ("log_softmax", lambda r: (Tensor(r.uniform(-2, 2, (3, 5)), requires_grad=True),),
     lambda a: T.log_softmax(a, axis=1)),
    ("add_bias", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),
                            Tensor(r.uniform(-2, 2, 4), requires_grad=True)),
     lambda a, b: T.add_bias(a, b)),
    ("reshape", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.reshape(a, (2, 6))),
    ("matmul_leading_dims",
     lambda r: (Tensor(r.uniform(-2, 2, (2, 3, 4)), requires_grad=True),
                Tensor(r.uniform(-2, 2, (4, 2)), requires_grad=True)),
     lambda a, b: T.matmul(a, b)),
    ("stack", lambda r: (Tensor(r.uniform(-2, 2, (2, 3)), requires_grad=True),
                         Tensor(r.uniform(-2, 2, (2, 3)), requires_grad=True),
                         Tensor(r.uniform(-2, 2, (2, 3)), requires_grad=True)),
     lambda *ts: T.stack(ts, axis=-2)),
    ("position_select", lambda r: (Tensor(r.uniform(-2, 2, (2, 3, 4)),
                                          requires_grad=True),),
     lambda a: T.position_select(a, 1)),
    ("mean", lambda r: (Tensor(r.uniform(-2, 2, (3, 4)), requires_grad=True),),
     lambda a: T.mean_all(a)),
]


@pytest.mark.parametrize("name,make,apply", ELEMENTWISE_CASES,
                         ids=[c[0] for c in ELEMENTWISE_CASES])
def test_op_gradients_match_finite_differences(name, make, apply):
    # >= 20 seeded trials per op, inputs in [-2, 2]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        leaves = make(rng)
        mix = T.constant(rng.uniform(-1, 1, apply(*leaves).shape))
        assert_grad_matches(lambda: T.sum_all(T.mul(mix, apply(*leaves))), leaves)


def test_layer_norm_gradients_match_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True, name="x")
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True, name="gamma")
        beta = Tensor(rng.uniform(-1, 1, 4), requires_grad=True, name="beta")
        mix = T.constant(rng.uniform(-1, 1, (3, 4)))
        assert_grad_matches(
            lambda: T.sum_all(T.mul(mix, T.layer_norm(x, gamma, beta, 1e-12))),
            [x, gamma, beta], tol=1e-5)


def test_embedding_gradient_scatter_adds():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2, 2]])
    backward(T.sum_all(T.embedding(table, ids)))
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0  # looked up twice
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_id_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(ContractError):
        T.embedding(table, np.array([4]))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def naive_attention(q, k, v, heads, scale, key_mask=None):
    """Per-head loops over the leading index; independent of the op."""
    *lead, lq, hidden = q.shape
    dh = hidden // heads
    q2, k2, v2 = (x.reshape(-1, x.shape[-2], hidden) for x in (q, k, v))
    mask2 = None if key_mask is None else np.asarray(key_mask).reshape(len(q2), -1)
    out = np.zeros_like(q2)
    for n in range(len(q2)):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = scale * q2[n][:, cols] @ k2[n][:, cols].T
            if mask2 is not None:
                s = np.where(mask2[n][None, :] > 0, s, -1e9)
            w = np.exp(s - s.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            out[n][:, cols] = w @ v2[n][:, cols]
    return out.reshape(*lead, lq, hidden)


ATTENTION_SHAPES = {
    # encoder: B=2, L=4, H=8 over 2 heads, last key of row 0 padded
    "encoder": dict(q=(2, 4, 8), kv=(2, 4, 8), heads=2, scale=0.5,
                    mask=np.array([[1, 1, 1, 0], [1, 1, 1, 1]])),
    # fusion: B=2, L=3, one query per token over T=5 adapter outputs
    "fusion": dict(q=(2, 3, 1, 4), kv=(2, 3, 5, 4), heads=1, scale=1.0,
                   mask=None),
}


@pytest.mark.parametrize("shape", sorted(ATTENTION_SHAPES))
def test_attention_matches_naive_per_head_oracle(shape):
    cfg = ATTENTION_SHAPES[shape]
    rng = np.random.default_rng(5)
    q, k, v = (rng.uniform(-2, 2, s) for s in (cfg["q"], cfg["kv"], cfg["kv"]))
    weights = T.attention_weights(T.constant(q), T.constant(k), cfg["heads"],
                                  cfg["scale"], cfg["mask"])
    assert weights.shape == cfg["q"][:-2] + (cfg["heads"], cfg["q"][-2], cfg["kv"][-2])
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)
    out = T.attend(weights, T.constant(v))
    np.testing.assert_allclose(
        out.data, naive_attention(q, k, v, cfg["heads"], cfg["scale"], cfg["mask"]),
        atol=1e-12)
    if cfg["mask"] is not None:
        assert np.all(weights.data[0, :, :, 3] == 0.0)


@pytest.mark.parametrize("shape", sorted(ATTENTION_SHAPES))
def test_attention_ops_pass_finite_difference_check(shape):
    cfg = ATTENTION_SHAPES[shape]
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.uniform(-2, 2, s), requires_grad=True)
               for s in (cfg["q"], cfg["kv"], cfg["kv"]))
    mix = T.constant(rng.uniform(-1, 1, cfg["q"]))

    def loss():
        w = T.attention_weights(q, k, cfg["heads"], cfg["scale"], cfg["mask"])
        return T.sum_all(T.mul(mix, T.attend(w, v)))

    report = finite_difference_check(loss, [("q", q), ("k", k), ("v", v)], tol=1e-4)
    assert report.passed, report.worst()
    if cfg["mask"] is not None:
        # a padded key gets no weight, so neither it nor its value has a gradient
        assert np.all(k.grad[0, 3] == 0.0) and np.all(v.grad[0, 3] == 0.0)


def test_attention_shape_errors():
    x = T.constant(np.ones((2, 4, 8)))
    with pytest.raises(ShapeMismatchError):
        T.attention_weights(x, T.constant(np.ones((3, 4, 8))), 2, 1.0)
    with pytest.raises(ShapeMismatchError):
        T.attention_weights(x, x, 3, 1.0)
    with pytest.raises(ShapeMismatchError):
        T.attend(T.attention_weights(x, x, 2, 1.0), T.constant(np.ones((2, 5, 8))))


# ---------------------------------------------------------------------------
# softmax properties
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(T.softmax(T.constant([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_max_shift_stability():
    out = T.softmax(T.constant([1000.0, 0.0])).data
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(out))


def test_softmax_is_probability_vector():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        x = T.constant(rng.uniform(-50, 50, (4, 7)))
        y = T.softmax(x, axis=-1).data
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_axis_out_of_bounds():
    with pytest.raises(ContractError):
        T.softmax(T.constant([[1.0]]), axis=2)


# ---------------------------------------------------------------------------
# layer_norm examples
# ---------------------------------------------------------------------------

def test_layer_norm_constant_input_gives_zeros():
    x = T.constant(np.full((2, 4), 3.7))
    out = T.layer_norm(x, T.constant(np.ones(4)), T.constant(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_standardized():
    x = T.constant([[1.0, -1.0]])
    out = T.layer_norm(x, T.constant(np.ones(2)), T.constant(np.zeros(2)),
                       eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_eps_contract():
    with pytest.raises(ContractError):
        T.layer_norm(T.constant([[1.0]]), T.constant([1.0]), T.constant([0.0]),
                     eps=0.0)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    backward(T.sum_all(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [2.0, 4.0])


def test_backward_disconnected_parameter_has_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    p = Tensor([5.0], requires_grad=True)
    backward(T.sum_all(T.mul(w, w)))
    assert p.grad is None


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(T.mul(w, w))


def test_backward_frozen_leaf_receives_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([3.0, 4.0], requires_grad=False)
    backward(T.sum_all(T.mul(w, frozen)))
    assert frozen.grad is None
    np.testing.assert_allclose(w.grad, [3.0, 4.0])


def test_backward_accumulates_across_shared_subexpressions():
    w = Tensor([3.0], requires_grad=True)
    sq = T.mul(w, w)
    backward(T.sum_all(T.add(sq, sq)))  # diamond: sq used twice
    np.testing.assert_allclose(w.grad, [12.0])


def test_tape_topological_replay_visits_each_node_once():
    w = Tensor([3.0], requires_grad=True)
    sq = T.mul(w, w)
    total = T.add(sq, sq)  # diamond: sq's node is reached along two edges
    loss = T.sum_all(total)
    calls = []
    for node in (loss.node, total.node, sq.node):
        node.backward_fn = (lambda g, fn=node.backward_fn, op=node.op:
                            calls.append(op) or fn(g))
    backward(loss)
    # each node's backward runs exactly once, consumers before their inputs
    assert calls == ["sum", "add", "mul"]
    np.testing.assert_allclose(w.grad, [12.0])


def test_graph_is_freed_by_reference_counting():
    import gc
    import weakref
    w = Tensor([3.0], requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        mid = T.mul(w, w)
        probe = weakref.ref(mid)
        loss = T.sum_all(T.sigmoid(mid))
        del mid
        backward(loss)
        assert probe() is not None  # the loss's graph still holds it
        del loss
        assert probe() is None  # no reference cycle keeps it alive
    finally:
        if was_enabled:
            gc.enable()
    assert w.grad is not None


def test_no_grad_records_no_tape_and_restores_the_mode():
    w = Tensor([3.0], requires_grad=True)
    with T.no_grad():
        inside = T.mul(w, w)
        with T.no_grad():
            pass
        still_inside = T.mul(w, w)
    assert inside.node is None and still_inside.node is None
    np.testing.assert_array_equal(inside.data, [9.0])
    with pytest.raises(ValueError):
        with T.no_grad():
            raise ValueError
    after = T.mul(w, w)
    assert after.node is not None
    backward(T.sum_all(after))
    np.testing.assert_allclose(w.grad, [6.0])


def test_no_grad_is_per_thread():
    import threading
    w = Tensor([3.0], requires_grad=True)
    other = []
    with T.no_grad():
        worker = threading.Thread(target=lambda: other.append(T.mul(w, w)))
        worker.start()
        worker.join()
        assert T.mul(w, w).node is None
    assert other[0].node is not None


def test_backward_linearity_is_exact():
    rng = np.random.default_rng(9)
    values = rng.uniform(-2, 2, 6)

    def build(w):
        l1 = T.sum_all(T.mul(w, w))
        l2 = T.sum_all(T.sigmoid(w))
        return l1, l2

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
    backward(T.add(l1, l2))
    np.testing.assert_array_equal(w.grad, g1 + g2)


def test_grad_accumulates_across_backward_calls():
    w = Tensor([2.0], requires_grad=True)
    backward(T.sum_all(T.mul(w, w)))
    backward(T.sum_all(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [8.0])


def test_freezing_keeps_data_bit_identical():
    w = Tensor([1.5, -0.5], requires_grad=False)
    before = w.data.tobytes()
    out = T.sum_all(T.mul(T.sigmoid(w), w))
    backward(out) if out.node else None
    assert w.data.tobytes() == before
    assert w.grad is None


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------

def test_fd_check_polynomial_exactness():
    p = Tensor(np.asarray([3.0]), requires_grad=True, name="p")
    report = finite_difference_check(lambda: T.sum_all(T.mul(p, p)),
                                     [("p", p)], h=1e-5, tol=1e-6)
    assert report.passed
    # central difference of p^2 is exact up to rounding: estimate 6.0 +- 1e-8
    f = lambda v: v * v  # noqa: E731
    estimate = (f(3.0 + 1e-5) - f(3.0 - 1e-5)) / 2e-5
    assert abs(estimate - 6.0) < 1e-8


def test_fd_check_constant_function():
    p = Tensor(np.asarray([1.0]), requires_grad=True, name="p")
    c = T.constant([4.0])
    report = finite_difference_check(lambda: T.sum_all(c), [("p", p)],
                                     h=1e-5, tol=1e-10)
    assert report.passed
    assert report.blocks[0].max_rel_err == 0.0


def test_fd_check_h_contract():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        finite_difference_check(lambda: T.sum_all(T.mul(p, p)), [("p", p)], h=0.0)


def test_fd_check_relative_error_definition():
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(0.0, 1e-9) == 1e-9          # max(1, ...) floor
    assert relative_error(10.0, 5.0) == 0.5


def test_fd_check_detects_corrupted_gradient():
    p = Tensor(np.asarray([3.0]), requires_grad=True, name="p")
    report = finite_difference_check(
        lambda: T.sum_all(T.mul(p, p)), [("p", p)], tol=1e-4,
        grad_transform=lambda name, g: g * 1.5)
    assert not report.passed


def test_parameter_store_rejects_duplicates_and_freezes():
    store = T.ParameterStore()
    store.add("w", [1.0, 2.0])
    with pytest.raises(ContractError):
        store.add("w", [3.0])
    store.set_requires_grad(["w"], False)
    assert store.trainable_names() == []
    assert store.num_parameters() == 2


def test_state_bytes_is_f32_little_endian_sorted():
    store = T.ParameterStore()
    store.add("b", [2.0])
    store.add("a", [1.0])
    raw = store.state_bytes()
    assert raw == np.array([1.0], "<f4").tobytes() + np.array([2.0], "<f4").tobytes()


def test_every_exported_name_resolves():
    import fuseformer

    missing = [name for name in fuseformer.__all__ if not hasattr(fuseformer, name)]
    assert missing == []
