"""Heads and the loss family: closed-form values, identities between the
variants, stability, and gradient checks."""

import math

import numpy as np
import pytest

from fuseformer.data import ClassStats
from fuseformer.encoder import ModelConfig
from fuseformer.errors import ContractError
from fuseformer.fusion import AdapterBank
from fuseformer.losses import (PosWeights, _log_sigmoid, _sigmoid_stable, bce,
                               cross_entropy_7, focal_multilabel, head_forward,
                               multilabel_loss, pos_weights, weighted_bce)
from fuseformer.tensor import Tensor, backward, finite_difference_check
from probes import probe

LN2 = math.log(2.0)


def scalar(t):
    return float(t.data.reshape(-1)[0])


def logits_of(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def head_fixture(num_labels=6, seed=0):
    config = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ff_size=16,
                         vocab_size=12, max_positions=8, reduction_factor=2)
    return AdapterBank(config, heads={"t": num_labels}, seed=seed, dtype=np.float64)


def test_head_zero_weights_give_zero_logits():
    bank = head_fixture()
    for name in bank.groups["heads.t"]:
        bank.params[name].data[:] = 0.0
    cls_state = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 8)))
    out = head_forward(bank.params, "t", cls_state)
    np.testing.assert_array_equal(out.data, np.zeros((3, 6)))


def test_head_shape_contract():
    bank = head_fixture(num_labels=7)
    cls_state = Tensor(np.zeros((5, 8)))
    assert head_forward(bank.params, "t", cls_state).shape == (5, 7)


def test_head_is_tanh_then_linear():
    bank = head_fixture(num_labels=1, seed=3)
    cls_state = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 8)))
    got = head_forward(bank.params, "t", cls_state).data
    p = bank.params
    hidden = np.tanh(cls_state.data @ p["heads.t.dense.weight"].data
                     + p["heads.t.dense.bias"].data)
    want = hidden @ p["heads.t.out.weight"].data + p["heads.t.out.bias"].data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_head_gradient_check_both_layers():
    bank = head_fixture(seed=5)
    cls_state = Tensor(np.random.default_rng(6).uniform(-1, 1, (2, 8)))
    mix = np.random.default_rng(7).uniform(-1, 1, (2, 6))
    params = [(n, bank.params[n]) for n in bank.groups["heads.t"]]
    report = finite_difference_check(
        lambda: probe(mix, head_forward(bank.params, "t", cls_state)),
        params, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


def test_head_num_labels_contract():
    config = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ff_size=16,
                         vocab_size=12, max_positions=8, reduction_factor=2)
    with pytest.raises(ContractError):
        AdapterBank(config, heads={"t": 5}, seed=0)


# ---------------------------------------------------------------------------
# pos_weights
# ---------------------------------------------------------------------------

def stats_of(pos, n=100):
    pos = np.asarray(pos)
    return ClassStats(labels=tuple(f"c{i}" for i in range(len(pos))),
                      positives=pos, negatives=n - pos)


def test_pos_weights_from_reference_proportions():
    w = pos_weights(stats_of([52, 25, 21, 10, 17, 8])).w
    np.testing.assert_allclose(
        w, [48 / 52, 75 / 25, 79 / 21, 90 / 10, 83 / 17, 92 / 8])
    assert round(w[0], 4) == 0.9231
    assert w[5] == 11.5


def test_pos_weights_balanced_is_one():
    assert pos_weights(stats_of([50])).w[0] == 1.0


def test_pos_weights_zero_positive_capped_with_warning():
    with pytest.warns(RuntimeWarning, match="no positive"):
        w = pos_weights(stats_of([0], n=200)).w
    assert w[0] == 200.0
    with pytest.warns(RuntimeWarning):
        assert pos_weights(stats_of([0], n=200), cap=64.0).w[0] == 64.0


# ---------------------------------------------------------------------------
# weighted_bce / bce
# ---------------------------------------------------------------------------

def test_weighted_bce_single_element_ln2():
    loss = weighted_bce(logits_of([[0.0]]), np.array([[1.0]]),
                        PosWeights(w=np.array([1.0])))
    assert scalar(loss) == pytest.approx(LN2, abs=1e-12)
    assert f"{scalar(loss):.6f}" == "0.693147"


def test_weighted_bce_is_linear_in_w_on_positive_term():
    loss = weighted_bce(logits_of([[0.0]]), np.array([[1.0]]),
                        PosWeights(w=np.array([2.0])))
    assert scalar(loss) == pytest.approx(2 * LN2, abs=1e-12)
    assert f"{scalar(loss):.6f}" == "1.386294"


def test_weighted_bce_with_unit_weights_is_bce_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(20):
        b, c = rng.integers(1, 8), rng.integers(1, 7)
        x = Tensor(rng.uniform(-5, 5, (b, c)))
        y = (rng.random((b, c)) < 0.5).astype(float)
        lw = weighted_bce(x, y, PosWeights(w=np.ones(c)))
        lb = bce(x, y)
        assert scalar(lw) == scalar(lb)


def test_bce_zero_logit_negative_target():
    assert scalar(bce(logits_of([[0.0]]), np.array([[0.0]]))) \
        == pytest.approx(LN2, abs=1e-12)


def test_bce_saturated_positive_is_stable():
    loss = scalar(bce(logits_of([[20.0]]), np.array([[1.0]])))
    assert loss == pytest.approx(math.log1p(math.exp(-20.0)), abs=1e-15)
    assert loss == pytest.approx(2.06e-9, rel=1e-2)
    huge = scalar(bce(logits_of([[700.0]]), np.array([[1.0]])))
    assert math.isfinite(huge) and huge >= 0.0


def test_bce_gradient_at_zero_is_minus_half():
    x = logits_of([[0.0]])
    backward(bce(x, np.array([[1.0]]), reduction="sum"))
    assert x.grad[0, 0] == pytest.approx(-0.5, abs=1e-12)


def test_weighted_bce_nonnegative_and_zero_only_when_saturated():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = Tensor(rng.uniform(-6, 6, (3, 4)))
        y = (rng.random((3, 4)) < 0.5).astype(float)
        w = PosWeights(w=rng.uniform(0.1, 10, 4))
        assert scalar(weighted_bce(x, y, w)) > 0.0
    saturated = weighted_bce(logits_of([[800.0]]), np.array([[1.0]]),
                             PosWeights(w=np.array([3.0])))
    assert scalar(saturated) == 0.0  # log1p(exp(-800)) underflows to exactly 0


def test_weighted_bce_monotone_in_w():
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-2, 2, (4, 3)))
    y = (rng.random((4, 3)) < 0.5).astype(float)
    y[0, 1] = 1.0  # class 1 has at least one positive
    w_lo = np.array([1.0, 2.0, 1.0])
    w_hi = np.array([1.0, 2.5, 1.0])
    assert scalar(weighted_bce(x, y, PosWeights(w=w_hi))) \
        > scalar(weighted_bce(x, y, PosWeights(w=w_lo)))


def test_stable_form_matches_naive_log_sigmoid():
    xs = np.linspace(-30, 30, 601)
    naive = -np.log(1.0 / (1.0 + np.exp(-xs)))
    np.testing.assert_allclose(-_log_sigmoid(xs), naive, atol=1e-10)


def test_sigmoid_symmetry_at_zero():
    assert _sigmoid_stable(np.array([0.0]))[0] == 0.5


def test_sigmoid_extreme_inputs_do_not_overflow():
    with np.errstate(over="raise"):
        out = _sigmoid_stable(np.array([-800.0, 800.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == 1.0


def test_weighted_bce_gradient_matches_fd_scalar_probes():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
    y = (rng.random((3, 2)) < 0.5).astype(float)
    w = PosWeights(w=np.array([0.7, 4.0]))
    backward(weighted_bce(x, y, w))
    analytic = x.grad.copy()
    h = 1e-6
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = scalar(weighted_bce(Tensor(x.data), y, w))
        flat[i] = orig - h
        dn = scalar(weighted_bce(Tensor(x.data), y, w))
        flat[i] = orig
        fd = (up - dn) / (2 * h)
        a = analytic.reshape(-1)[i]
        assert abs(a - fd) / max(1.0, abs(a), abs(fd)) < 1e-6


def test_weighted_bce_contracts():
    x = logits_of([[0.0, 0.0]])
    with pytest.raises(ContractError):
        weighted_bce(x, np.array([[0.5, 1.0]]), PosWeights(w=np.ones(2)))
    with pytest.raises(ContractError):
        weighted_bce(x, np.array([[1.0, 0.0]]), PosWeights(w=np.ones(3)))


def test_sum_reduction_is_batch_mean_times_batch():
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(-2, 2, (5, 3)))
    y = (rng.random((5, 3)) < 0.5).astype(float)
    w = PosWeights(w=np.ones(3))
    assert scalar(weighted_bce(x, y, w, reduction="sum")) \
        == pytest.approx(5 * scalar(weighted_bce(x, y, w)), rel=1e-12)


# ---------------------------------------------------------------------------
# focal
# ---------------------------------------------------------------------------

def test_focal_gamma_zero_equals_bce():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = Tensor(rng.uniform(-5, 5, (4, 6)))
        y = (rng.random((4, 6)) < 0.5).astype(float)
        assert abs(scalar(focal_multilabel(x, y, gamma=0.0))
                   - scalar(bce(x, y))) <= 1e-12


def test_focal_value_at_zero_logit():
    loss = focal_multilabel(logits_of([[0.0]]), np.array([[1.0]]), gamma=2.0)
    assert scalar(loss) == pytest.approx(0.25 * LN2, abs=1e-12)
    assert f"{scalar(loss):.6f}" == "0.173287"


def test_focal_damps_well_classified_elements():
    # p_t = 0.99: focal contribution <= 1e-4 of the BCE contribution
    x_val = math.log(0.99 / 0.01)
    x = logits_of([[x_val]])
    y = np.array([[1.0]])
    focal = scalar(focal_multilabel(x, y, gamma=2.0))
    plain = scalar(bce(x, y))
    assert focal <= 1e-4 * plain + 1e-15


def test_focal_alpha_weighting():
    x = logits_of([[0.0, 0.0]])
    y = np.array([[1.0, 0.0]])
    loss = scalar(focal_multilabel(x, y, gamma=0.0, alpha=0.75))
    assert loss == pytest.approx(0.75 * LN2 + 0.25 * LN2, abs=1e-12)


def test_focal_contracts():
    x = logits_of([[0.0]])
    with pytest.raises(ContractError):
        focal_multilabel(x, np.array([[1.0]]), gamma=-1.0)
    with pytest.raises(ContractError):
        focal_multilabel(x, np.array([[1.0]]), alpha=1.5)


def test_focal_gradient_check():
    rng = np.random.default_rng(14)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    y = (rng.random((3, 4)) < 0.5).astype(float)
    report = finite_difference_check(
        lambda: focal_multilabel(x, y, gamma=2.0, alpha=0.25), [("x", x)],
        h=1e-5, tol=1e-6)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss = cross_entropy_7(logits_of([[1.0] * 7]), np.array([4]))
    assert scalar(loss) == pytest.approx(math.log(7.0), abs=1e-12)
    assert f"{scalar(loss):.6f}" == "1.945910"


def test_cross_entropy_saturated_target():
    x = np.zeros((1, 7))
    x[0, 2] = 1000.0
    assert scalar(cross_entropy_7(logits_of(x), np.array([2]))) \
        == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_id_range_contract():
    with pytest.raises(ContractError):
        cross_entropy_7(logits_of(np.zeros((1, 7))), np.array([7]))
    with pytest.raises(ContractError):
        cross_entropy_7(logits_of(np.zeros((1, 7))), np.array([-1]))


def test_cross_entropy_gradient_check():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(-2, 2, (4, 7)), requires_grad=True)
    ids = rng.integers(0, 7, 4)
    report = finite_difference_check(lambda: cross_entropy_7(x, ids),
                                     [("x", x)], h=1e-5, tol=1e-5)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# every loss: one closed-form tape node
# ---------------------------------------------------------------------------

FIVE_WEIGHTS = PosWeights(w=np.array([0.7, 4.0, 1.0, 9.0, 2.5, 11.5]))
LOSS_CASES = {
    "bce": lambda x, y, r: bce(x, y, reduction=r),
    "weighted_bce": lambda x, y, r: weighted_bce(x, y, FIVE_WEIGHTS, reduction=r),
    "focal": lambda x, y, r: focal_multilabel(x, y, gamma=2.0, reduction=r),
    "focal_alpha": lambda x, y, r: focal_multilabel(x, y, gamma=1.5, alpha=0.25,
                                                    reduction=r),
    "cross_entropy_7": lambda x, y, r: cross_entropy_7(x, y, reduction=r),
}


def loss_inputs(name, seed, dtype=np.float64):
    """[4, 6] logits and 0/1 targets, or [4, 7] logits and class ids."""
    rng = np.random.default_rng(seed)
    classes = 7 if name == "cross_entropy_7" else 6
    x = Tensor(rng.uniform(-3, 3, (4, classes)).astype(dtype), requires_grad=True)
    if name == "cross_entropy_7":
        return x, rng.integers(0, 7, 4)
    return x, (rng.random((4, 6)) < 0.5).astype(float)


@pytest.mark.parametrize("reduction", ["batch-mean", "sum"])
@pytest.mark.parametrize("name", sorted(LOSS_CASES))
def test_each_loss_is_one_scalar_loss_node_on_the_logits(name, reduction):
    x, y = loss_inputs(name, seed=20)
    loss = LOSS_CASES[name](x, y, reduction)
    assert loss.shape == ()
    assert loss.node.op == "scalar_loss"
    assert len(loss.node.inputs) == 1 and loss.node.inputs[0] is x


@pytest.mark.parametrize("reduction", ["batch-mean", "sum"])
@pytest.mark.parametrize("name", sorted(LOSS_CASES))
def test_loss_gradients_pass_finite_difference_check(name, reduction):
    for seed in range(21, 26):
        x, y = loss_inputs(name, seed)
        report = finite_difference_check(lambda: LOSS_CASES[name](x, y, reduction),
                                         [("x", x)], h=1e-5, tol=1e-6)
        assert report.passed, report.worst()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(LOSS_CASES))
def test_losses_keep_the_logits_dtype(name, dtype):
    x, y = loss_inputs(name, seed=26, dtype=dtype)
    loss = LOSS_CASES[name](x, y, "batch-mean")
    backward(loss)
    assert loss.data.dtype == dtype and x.grad.dtype == dtype


@pytest.mark.parametrize("dtype,logit", [(np.float32, 120.0), (np.float64, 800.0)])
def test_focal_gradient_is_finite_when_the_damping_underflows(dtype, logit):
    # sigma(-t) underflows to 0; with gamma < 1 a gradient that raises it to
    # gamma - 1 gave 0 * inf = nan
    x = Tensor(np.array([[logit, -logit]], dtype=dtype), requires_grad=True)
    y = np.array([[1.0, 0.0]])
    for gamma in (0.25, 0.5):
        x.grad = None
        loss = focal_multilabel(x, y, gamma=gamma)
        backward(loss)
        assert scalar(loss) == 0.0
        assert np.all(np.isfinite(x.grad)) and np.all(x.grad == 0.0), x.grad


def test_multilabel_loss_dispatch():
    x = logits_of([[0.0]])
    y = np.array([[1.0]])
    assert scalar(multilabel_loss("bce", x, y)) == pytest.approx(LN2)
    assert scalar(multilabel_loss("weighted_bce", x, y,
                                  weights=PosWeights(w=np.array([2.0])))) \
        == pytest.approx(2 * LN2)
    with pytest.raises(ContractError):
        multilabel_loss("weighted_bce", x, y)
    with pytest.raises(ContractError):
        multilabel_loss("hinge", x, y)
