"""Encoder forward semantics: embeddings, attention masking, layer
composition, batch independence, and end-to-end gradient correctness."""

import math
import types

import numpy as np
import pytest

from fuseformer import tensor as T
from fuseformer.data import Batch, CLS, PAD
from fuseformer.encoder import (ModelConfig, embed, encode,
                                encoder_layer_forward, has_type,
                                multi_head_attention)
from fuseformer.errors import ConfigError, ContractError
from fuseformer.fusion import AdapterBank
from fuseformer.losses import head_forward
from fuseformer.tensor import Tensor, finite_difference_check
from probes import probe


def tiny_config(**over):
    base = dict(num_layers=2, hidden_size=8, num_heads=2, ff_size=16,
                vocab_size=12, max_positions=8, reduction_factor=2)
    base.update(over)
    return ModelConfig(**base)


def make_batch(config, rng, b=2, l=5, mask_out=()):
    ids = rng.integers(4, config.vocab_size, size=(b, l))
    ids[:, 0] = CLS
    mask = np.ones((b, l), dtype=np.int64)
    for (i, j) in mask_out:
        mask[i, j] = 0
        ids[i, j] = PAD
    return Batch(token_ids=ids, attention_mask=mask,
                 segment_ids=np.zeros_like(ids),
                 labels=np.zeros((b, 6)))


def make_bank(config, seed=0, **kw):
    return AdapterBank(config, heads={"emotion": 6}, seed=seed, **kw)


def all_rows(batch):
    """Every flat position of the batch, padded ones included."""
    return np.arange(batch.token_ids.size)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(hidden_size=10, num_heads=4)
    with pytest.raises(ContractError):
        ModelConfig(hidden_size=24, num_heads=4, reduction_factor=16)
    with pytest.raises(ContractError):
        ModelConfig(num_layers=0)


@pytest.mark.parametrize("bad", [
    [2], "model", {"dropout": 0.1}, {"num_layers": "2"}, {"num_layers": 2.0},
    {"num_layers": True}, {"eps": "1e-12"},
], ids=["list", "string", "unknown_key", "str_int", "float_int", "bool_int",
        "str_float"])
def test_config_from_dict_rejects_malformed_input(bad):
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(bad)


class ClassForwardingAlias(types.GenericAlias):
    """A parameterized hint that, like ``list[str]`` on Python 3.10, passes
    ``isinstance(hint, type)`` because it forwards ``__class__``."""

    @property
    def __class__(self):
        return type


@pytest.mark.parametrize("alias", [types.GenericAlias, ClassForwardingAlias],
                         ids=["alias", "class_forwarding_alias"])
def test_has_type_checks_parameterized_hints_by_origin(alias):
    strs, ints = alias(list, (str,)), alias(dict, (str, int))
    pair = alias(tuple, (float, float))
    assert has_type(["a", "b"], strs) and not has_type(["a", 1], strs)
    assert not has_type("ab", strs)
    assert has_type({"a": 1}, ints) and not has_type({"a": "1"}, ints)
    assert has_type([0.9, 1], pair) and not has_type([0.9], pair)
    assert has_type(None, float | None) and not has_type("x", float | None)


def test_config_from_dict_round_trips():
    from dataclasses import asdict

    config = tiny_config(eps=1e-6)
    assert ModelConfig.from_dict(asdict(config)) == config
    assert ModelConfig.from_dict({"num_layers": 3}) == ModelConfig(num_layers=3)


def test_full_scale_config_matches_reference_geometry():
    full = ModelConfig.full_scale()
    assert (full.num_layers, full.hidden_size) == (12, 768)
    assert full.vocab_size == 28996
    assert full.reduction_factor == 16


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_identical_rows_give_identical_embeddings():
    config = tiny_config()
    bank = make_bank(config)
    rng = np.random.default_rng(0)
    batch = make_batch(config, rng)
    batch.token_ids[1] = batch.token_ids[0]
    out = embed(config, bank.params, batch, all_rows(batch)).data.reshape(2, 5, -1)
    np.testing.assert_array_equal(out[0], out[1])


def test_embed_shape_contract():
    config = tiny_config()
    bank = make_bank(config)
    batch = make_batch(config, np.random.default_rng(1), b=3, l=6,
                       mask_out=[(1, 5), (2, 4), (2, 5)])
    assert embed(config, bank.params, batch, all_rows(batch)).shape \
        == (3 * 6, config.hidden_size)
    # packed: one row per real token, each equal to its all-rows row
    rows = np.flatnonzero(batch.attention_mask)
    packed = embed(config, bank.params, batch, rows)
    assert packed.shape == (15, config.hidden_size)
    np.testing.assert_array_equal(
        packed.data, embed(config, bank.params, batch, all_rows(batch)).data[rows])


def test_embed_id_and_position_overflow():
    config = tiny_config()
    bank = make_bank(config)
    batch = make_batch(config, np.random.default_rng(2))
    batch.token_ids[0, 1] = config.vocab_size
    with pytest.raises(ContractError):
        embed(config, bank.params, batch, all_rows(batch))
    long = make_batch(config, np.random.default_rng(3), l=config.max_positions + 1)
    with pytest.raises(ContractError):
        embed(config, bank.params, long, all_rows(long))


def test_embed_gradient_wrt_tables():
    config = tiny_config(num_layers=1)
    bank = make_bank(config, dtype=np.float64)
    batch = make_batch(config, np.random.default_rng(4), b=2, l=4)
    tables = [(n, bank.params[n]) for n in
              ("embeddings.token", "embeddings.position", "embeddings.segment")]
    mix = np.random.default_rng(5).uniform(-1, 1, (2 * 4, config.hidden_size))
    report = finite_difference_check(
        lambda: probe(mix, embed(config, bank.params, batch, all_rows(batch))),
        tables, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def set_attention(bank, layer, key_w=None, key_b=None, value_w=None,
                  value_b=None, out_w=None, out_b=None):
    p = f"layers.{layer}.attention"
    h = bank.config.hidden_size
    updates = {"key.weight": key_w, "key.bias": key_b, "value.weight": value_w,
               "value.bias": value_b, "output.weight": out_w,
               "output.bias": out_b}
    for suffix, value in updates.items():
        if value is not None:
            bank.params.assign(f"{p}.{suffix}", value)


def test_equal_keys_attend_uniformly_over_unmasked():
    config = tiny_config()
    bank = make_bank(config, seed=7, dtype=np.float64)
    h = config.hidden_size
    # zero key map -> all keys equal -> uniform weights; identity output path
    set_attention(bank, 0, key_w=np.zeros((h, h)), key_b=np.zeros(h),
                  out_w=np.eye(h), out_b=np.zeros(h))
    rng = np.random.default_rng(8)
    batch = make_batch(config, rng, b=1, l=4, mask_out=[(0, 3)])
    rows = np.flatnonzero(batch.attention_mask)  # packed: the 3 unmasked slots
    x = embed(config, bank.params, batch, rows)
    out = multi_head_attention(config, bank.params, 0, x, batch.attention_mask, rows)
    # expected: mean of per-position value vectors over the 3 unmasked slots
    flat = x.data.reshape(-1, h)
    v = flat @ bank.params["layers.0.attention.value.weight"].data \
        + bank.params["layers.0.attention.value.bias"].data
    expected = v[:3, :].mean(axis=0, keepdims=True)
    assert out.shape == (3, h)
    np.testing.assert_allclose(out.data, np.repeat(expected, 3, axis=0), atol=1e-9)


def test_mask_all_but_one_position():
    config = tiny_config()
    bank = make_bank(config, seed=9, dtype=np.float64)
    h = config.hidden_size
    set_attention(bank, 0, key_w=np.zeros((h, h)), key_b=np.zeros(h),
                  out_w=np.eye(h), out_b=np.zeros(h))
    batch = make_batch(config, np.random.default_rng(10), b=1, l=4,
                       mask_out=[(0, 1), (0, 2), (0, 3)])
    x = embed(config, bank.params, batch, all_rows(batch))
    out = multi_head_attention(config, bank.params, 0, x, batch.attention_mask,
                               all_rows(batch))
    v0 = (x.data.reshape(-1, h) @ bank.params["layers.0.attention.value.weight"].data
          + bank.params["layers.0.attention.value.bias"].data)[0]
    # every query position attends only to position 0 (weight 1 +- 1e-6)
    for pos in range(4):
        np.testing.assert_allclose(out.data[pos], v0, atol=1e-6)


def test_attention_rows_sum_to_one_via_unit_values():
    config = tiny_config()
    bank = make_bank(config, seed=11, dtype=np.float64)
    h = config.hidden_size
    # constant unit values: output == row-sum of attention weights
    set_attention(bank, 0, value_w=np.zeros((h, h)), value_b=np.ones(h),
                  out_w=np.eye(h), out_b=np.zeros(h))
    batch = make_batch(config, np.random.default_rng(12), b=2, l=6,
                       mask_out=[(0, 5)])
    for rows in (all_rows(batch), np.flatnonzero(batch.attention_mask)):
        x = embed(config, bank.params, batch, rows)
        out = multi_head_attention(config, bank.params, 0, x,
                                   batch.attention_mask, rows)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-9)


@pytest.mark.parametrize("cls_only", [False, True], ids=["all_rows", "cls_only"])
def test_attention_sublayer_is_four_linears_around_one_attention_node(cls_only):
    config = tiny_config()
    bank = make_bank(config, seed=13)
    batch = make_batch(config, np.random.default_rng(14), mask_out=[(0, 4)])
    rows = np.flatnonzero(batch.attention_mask)
    x = embed(config, bank.params, batch, rows)
    queries = T.gather_rows(x, [0, 4]) if cls_only else None
    out = multi_head_attention(config, bank.params, 0, x, batch.attention_mask,
                               rows, queries)
    assert out.shape == (2 if cls_only else len(rows), config.hidden_size)
    attention = out.node.inputs[0].node
    assert (out.node.op, attention.op) == ("matmul", "attention")
    assert [t.node.op for t in attention.inputs] == ["matmul"] * 3
    assert [t.node.inputs[1].name for t in attention.inputs] == [
        f"layers.0.attention.{name}.weight" for name in ("query", "key", "value")]


# ---------------------------------------------------------------------------
# layer forward: independent numpy oracle
# ---------------------------------------------------------------------------

def naive_layer_forward(config, params, layer, x, mask):
    """Straight-line numpy reimplementation of one encoder layer."""
    def ln(v, gamma, beta):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return gamma * (v - mu) / np.sqrt(var + config.eps) + beta

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(math.sqrt(2 / math.pi)
                                      * (v + 0.044715 * v ** 3)))

    def p(name):
        return params[f"layers.{layer}.{name}"].data

    b, l, h = x.shape
    nh, dh = config.num_heads, config.head_dim
    q = x @ p("attention.query.weight") + p("attention.query.bias")
    k = x @ p("attention.key.weight") + p("attention.key.bias")
    v = x @ p("attention.value.weight") + p("attention.value.bias")
    ctx = np.zeros_like(x)
    for bi in range(b):
        for head in range(nh):
            s = slice(head * dh, (head + 1) * dh)
            scores = q[bi][:, s] @ k[bi][:, s].T / math.sqrt(dh)
            scores = scores + (1.0 - mask[bi]) * -1e9
            w = np.exp(scores - scores.max(-1, keepdims=True))
            w = w / w.sum(-1, keepdims=True)
            ctx[bi][:, s] = w @ v[bi][:, s]
    attn = ctx @ p("attention.output.weight") + p("attention.output.bias")
    h1 = ln(x + attn, p("attention.norm.gamma"), p("attention.norm.beta"))
    ff = gelu(h1 @ p("ff.in.weight") + p("ff.in.bias"))
    ff = ff @ p("ff.out.weight") + p("ff.out.bias")
    return ln(h1 + ff, p("ff.norm.gamma"), p("ff.norm.beta"))


def test_layer_forward_matches_naive_numpy_oracle():
    config = tiny_config()
    bank = make_bank(config, seed=13, dtype=np.float64)
    batch = make_batch(config, np.random.default_rng(14), b=2, l=5,
                       mask_out=[(1, 4)])
    x = embed(config, bank.params, batch, all_rows(batch))
    got = encoder_layer_forward(config, bank.params, 0, x, batch.attention_mask,
                                all_rows(batch), adapter_slot=None)
    want = naive_layer_forward(config, bank.params, 0, x.data.reshape(2, 5, -1),
                               batch.attention_mask)
    np.testing.assert_allclose(got.data.reshape(want.shape), want, atol=1e-12)
    # packed rows: the oracle's real-token rows
    rows = np.flatnonzero(batch.attention_mask)
    packed = encoder_layer_forward(config, bank.params, 0, Tensor(x.data[rows]),
                                   batch.attention_mask, rows)
    np.testing.assert_allclose(packed.data,
                               want.reshape(-1, config.hidden_size)[rows], atol=1e-12)


def test_layer_forward_zero_up_adapter_equals_slot_none():
    config = tiny_config()
    bank = AdapterBank(config, heads={"emotion": 6}, adapter_tasks=["emotion"],
                       seed=15)
    for i in range(config.num_layers):
        bank.params[f"adapters.emotion.{i}.up.weight"].data[:] = 0.0
        bank.params[f"adapters.emotion.{i}.up.bias"].data[:] = 0.0
    batch = make_batch(config, np.random.default_rng(16))
    x = embed(config, bank.params, batch, all_rows(batch))
    bank.set_stage("adapter", "emotion")
    plain = encoder_layer_forward(config, bank.params, 0, x,
                                  batch.attention_mask, all_rows(batch), None)
    with_adapter = encoder_layer_forward(config, bank.params, 0, x,
                                         batch.attention_mask, all_rows(batch),
                                         bank.slot)
    np.testing.assert_array_equal(plain.data, with_adapter.data)


def test_layer_forward_preserves_shape():
    config = tiny_config()
    bank = make_bank(config)
    batch = make_batch(config, np.random.default_rng(17), b=3, l=7,
                       mask_out=[(2, 6)])
    for rows in (all_rows(batch), np.flatnonzero(batch.attention_mask)):
        x = embed(config, bank.params, batch, rows)
        out = encoder_layer_forward(config, bank.params, 0, x,
                                    batch.attention_mask, rows, None)
        assert out.shape == x.shape == (len(rows), config.hidden_size)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_single_layer_is_one_layer_forward():
    config = tiny_config(num_layers=1)
    bank = make_bank(config, seed=18)
    batch = make_batch(config, np.random.default_rng(19))
    cls_state = encode(config, bank.params, batch, None)
    x = embed(config, bank.params, batch, all_rows(batch))
    manual = encoder_layer_forward(config, bank.params, 0, x,
                                   batch.attention_mask, all_rows(batch), None)
    # the last layer computes the [CLS] row only
    np.testing.assert_allclose(cls_state.data, manual.data.reshape(2, 5, -1)[:, 0, :],
                               rtol=0, atol=1e-12)
    cls_only = encoder_layer_forward(config, bank.params, 0, x,
                                     batch.attention_mask, all_rows(batch), None,
                                     T.gather_rows(x, np.arange(2) * 5))
    np.testing.assert_array_equal(cls_state.data, cls_only.data)


def full_sequence_logits(bank, batch, task):
    """Reference for encode's packed rows and [CLS]-only last layer: every
    layer on every position (``rows`` covers the padded ones too), then
    each row's position 0, then the head."""
    config = bank.config
    rows = all_rows(batch)
    h = embed(config, bank.params, batch, rows)
    for i in range(config.num_layers):
        h = encoder_layer_forward(config, bank.params, i, h,
                                  batch.attention_mask, rows, bank.slot)
    b, l = batch.token_ids.shape
    return head_forward(bank.params, task, T.gather_rows(h, np.arange(b) * l))


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("stage,num_tasks", [
    ("finetune", 0), ("adapter", 1), ("fusion", 1), ("fusion", 5)],
    ids=["none", "single", "fusion1", "fusion5"])
def test_cls_only_last_layer_matches_full_sequence(stage, num_tasks, num_layers):
    config = tiny_config(num_layers=num_layers)
    # the adapter stage wires the adapter of the head's task
    tasks = ["t"] if stage == "adapter" else [f"s{t}" for t in range(num_tasks)]
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=stage == "fusion", seed=40 + num_tasks,
                       dtype=np.float64)
    rng = np.random.default_rng(41 + num_layers)
    for name, t in bank.params.items():  # real signal through every adapter
        if name.endswith(".up.weight"):
            bank.params.assign(name, rng.normal(0.0, 0.3, t.shape))
    bank.set_stage(stage, "t")
    # compare the gradients of every parameter, not only the stage's
    bank.params.set_requires_grad(bank.params.names(), True)
    # padded rows: lengths 6, 4 and 2 of 6
    batch = make_batch(config, rng, b=3, l=6,
                       mask_out=[(1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5)])
    mix = rng.uniform(-1, 1, (3, 6))

    def run(forward):
        bank.params.zero_grad()
        logits = forward()
        T.backward(probe(mix, logits))
        return logits.data, {n: t.grad.copy() for n, t in bank.params.items()}

    logits, grads = run(lambda: bank.forward(batch, "t"))
    ref_logits, ref_grads = run(lambda: full_sequence_logits(bank, batch, "t"))
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, g in ref_grads.items():  # zeros for adapters the slot does not use
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_encode_is_deterministic_bit_for_bit():
    config = tiny_config()
    batch = make_batch(config, np.random.default_rng(20))
    outs = []
    for _ in range(2):
        bank = make_bank(config, seed=21)
        outs.append(encode(config, bank.params, batch, None).data.tobytes())
    assert outs[0] == outs[1]


def test_encode_permutation_invariance_across_batch():
    config = tiny_config()
    bank = make_bank(config, seed=22)
    batch = make_batch(config, np.random.default_rng(23), b=4, l=6,
                       mask_out=[(2, 5)])
    cls_state = encode(config, bank.params, batch, None)
    logits = bank.forward(batch, "emotion")
    perm = [3, 0, 2, 1]
    permuted = Batch(token_ids=batch.token_ids[perm],
                     attention_mask=batch.attention_mask[perm],
                     segment_ids=batch.segment_ids[perm],
                     labels=batch.labels[perm])
    cls_p = encode(config, bank.params, permuted, None)
    np.testing.assert_array_equal(bank.forward(permuted, "emotion").data,
                                  logits.data[perm])
    np.testing.assert_array_equal(cls_p.data, cls_state.data[perm])


def test_encode_padding_invariance():
    config = tiny_config()
    bank = make_bank(config, seed=24)
    batch = make_batch(config, np.random.default_rng(25), b=2, l=5)
    cls_state = encode(config, bank.params, batch, None)
    pad_cols = 2
    padded = Batch(
        token_ids=np.pad(batch.token_ids, ((0, 0), (0, pad_cols)),
                         constant_values=PAD),
        attention_mask=np.pad(batch.attention_mask, ((0, 0), (0, pad_cols))),
        segment_ids=np.pad(batch.segment_ids, ((0, 0), (0, pad_cols))),
        labels=batch.labels)
    cls_padded = encode(config, bank.params, padded, None)
    np.testing.assert_allclose(cls_padded.data, cls_state.data, atol=1e-9)


def test_encode_rejects_a_masked_cls_position():
    config = tiny_config()
    bank = make_bank(config, seed=24)
    batch = make_batch(config, np.random.default_rng(25), b=3, l=5,
                       mask_out=[(1, 0)])
    with pytest.raises(ContractError, match="row 1"):
        encode(config, bank.params, batch, None)
    with pytest.raises(ContractError, match="row 1"):
        bank.forward(batch, "emotion")


def test_encode_end_to_end_gradient_check():
    # 2-layer H=8 model, every encoder parameter, exhaustive
    config = tiny_config()
    bank = make_bank(config, seed=26, dtype=np.float64)
    batch = make_batch(config, np.random.default_rng(27), b=2, l=4,
                       mask_out=[(0, 3)])
    mix = np.random.default_rng(28).uniform(-1, 1, (2, config.hidden_size))

    def loss_fn():
        cls_state = encode(config, bank.params, batch, None)
        return probe(mix, T.tanh(cls_state))

    params = [(n, t) for n, t in bank.params.items() if not n.startswith("heads.")]
    report = finite_difference_check(loss_fn, params, h=1e-5, tol=1e-4)
    assert report.passed, f"worst block {report.worst()}"


def test_encoder_with_adapter_full_parameter_gradient_check():
    # single-adapter slot wired in, loss through the head: every parameter
    from fuseformer.losses import bce

    config = tiny_config()
    bank = AdapterBank(config, heads={"emotion": 6}, adapter_tasks=["emotion"],
                       seed=29, dtype=np.float64)
    bank.set_stage("adapter", "emotion")
    bank.params.set_requires_grad(bank.params.names(), True)
    # give the near-zero up-projections real signal
    rng = np.random.default_rng(30)
    for i in range(config.num_layers):
        bank.params.assign(f"adapters.emotion.{i}.up.weight",
                           rng.normal(0, 0.3, (config.bottleneck, config.hidden_size)))
    batch = make_batch(config, rng, b=2, l=4, mask_out=[(1, 3)])
    labels = (rng.random((2, 6)) < 0.5).astype(float)

    report = finite_difference_check(
        lambda: bce(bank.forward(batch, "emotion"), labels),
        bank.params.items(), h=1e-5, tol=1e-4)
    assert report.passed, f"worst block {report.worst()}"
