"""Adapters, fusion attention, freeze groups, and parameter accounting."""

import numpy as np
import pytest

from fuseformer import tensor as T
from fuseformer.data import Batch, CLS, PAD
from fuseformer.encoder import ModelConfig, encode
from fuseformer.errors import ConfigError, ContractError
from fuseformer.fusion import (AdapterBank, adapter_forward,
                               adapter_parameter_count, build_freeze_groups,
                               count_parameters, fusion_forward, group_of)
from fuseformer.tensor import Tensor, finite_difference_check

REFERENCE_TOTALS = {"finetune": 108.3e6, "fusion3": 132.8e6, "fusion5": 134.6e6}


def tiny_config(**over):
    base = dict(num_layers=1, hidden_size=8, num_heads=2, ff_size=16,
                vocab_size=12, max_positions=8, reduction_factor=2)
    base.update(over)
    return ModelConfig(**base)


def make_batch(config, rng, b=2, l=4):
    ids = rng.integers(4, config.vocab_size, size=(b, l))
    ids[:, 0] = CLS
    return Batch(token_ids=ids, attention_mask=np.ones((b, l), dtype=np.int64),
                 segment_ids=np.zeros_like(ids), labels=np.zeros((b, 6)))


def random_hidden(config, rng, b=2, l=4):
    return Tensor(rng.uniform(-2, 2, (b, l, config.hidden_size)))


# ---------------------------------------------------------------------------
# adapter_forward
# ---------------------------------------------------------------------------

def test_adapter_zero_up_projection_is_exact_identity():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["t"], seed=0)
    bank.params["adapters.t.0.up.weight"].data[:] = 0.0
    bank.params["adapters.t.0.up.bias"].data[:] = 0.0
    h = random_hidden(config, np.random.default_rng(1))
    out = adapter_forward(config, bank.params, "t", 0, h)
    np.testing.assert_array_equal(out.data, h.data)


def test_adapter_bottleneck_width_and_shape():
    config = tiny_config()  # H=8, r=2
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["t"], seed=0)
    assert bank.params["adapters.t.0.down.weight"].shape == (8, 4)
    assert bank.params["adapters.t.0.up.weight"].shape == (4, 8)
    h = random_hidden(config, np.random.default_rng(2))
    assert adapter_forward(config, bank.params, "t", 0, h).shape == h.shape


def test_adapter_gradient_check_all_four_tensors():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["t"], seed=3)
    # non-degenerate up projection so every tensor sees signal
    rng = np.random.default_rng(4)
    bank.params["adapters.t.0.up.weight"].data = rng.normal(0, 0.5, (4, 8))
    h = random_hidden(config, rng)
    mix = T.constant(rng.uniform(-1, 1, h.shape))
    params = [(n, bank.params[n]) for n in bank.params.names()
              if n.startswith("adapters.t.0.")]
    assert len(params) == 4
    report = finite_difference_check(
        lambda: T.sum_all(T.mul(mix, adapter_forward(config, bank.params,
                                                     "t", 0, h))),
        params, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# fusion_forward
# ---------------------------------------------------------------------------

def fusion_fixture(tasks, seed=5):
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=True, seed=seed)
    rng = np.random.default_rng(seed + 1)
    h = random_hidden(config, rng)
    outs = [adapter_forward(config, bank.params, t, 0, h) for t in tasks]
    return config, bank, h, outs


def test_fusion_identical_values_make_alpha_irrelevant():
    config, bank, h, _ = fusion_fixture(["a", "b", "c"])
    shared = random_hidden(config, np.random.default_rng(9))
    out, alpha = fusion_forward(config, bank.params, ["a", "b", "c"], 0, h,
                                [shared, shared, shared])
    flat = shared.data.reshape(-1, config.hidden_size)
    expected = (flat @ bank.params["fusion.0.value"].data).reshape(h.shape) + h.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_single_task_degenerates():
    config, bank, h, outs = fusion_fixture(["a"])
    out, alpha = fusion_forward(config, bank.params, ["a"], 0, h, outs)
    assert np.all(alpha == 1.0)
    flat = outs[0].data.reshape(-1, config.hidden_size)
    expected = (flat @ bank.params["fusion.0.value"].data).reshape(h.shape) + h.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_weights_form_simplex_at_every_position():
    config, bank, h, outs = fusion_fixture(["a", "b", "c"], seed=6)
    _, alpha = fusion_forward(config, bank.params, ["a", "b", "c"], 0, h, outs)
    assert alpha.shape == (2, 4, 3)
    assert np.all(alpha >= 0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


def test_fusion_zero_tasks_contract():
    config, bank, h, _ = fusion_fixture(["a"])
    with pytest.raises(ContractError):
        fusion_forward(config, bank.params, [], 0, h, [])


def test_fusion_gradient_check():
    config, bank, h, _ = fusion_fixture(["a", "b"], seed=7)
    rng = np.random.default_rng(8)
    mix = T.constant(rng.uniform(-1, 1, h.shape))

    def loss_fn():
        outs = [adapter_forward(config, bank.params, t, 0, h)
                for t in ("a", "b")]
        out, _ = fusion_forward(config, bank.params, ["a", "b"], 0, h, outs)
        return T.sum_all(T.mul(mix, out))

    params = [(n, bank.params[n]) for n in bank.params.names()
              if n.startswith("fusion.")]
    assert len(params) == 3
    report = finite_difference_check(loss_fn, params, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# attach
# ---------------------------------------------------------------------------

def test_attach_none_equals_vanilla_encoder():
    config = tiny_config(num_layers=2)
    vanilla = AdapterBank(config, heads={"t": 6}, seed=30)
    decorated = AdapterBank(config, heads={"t": 6},
                            adapter_tasks=["a", "b"], with_fusion=True, seed=30)
    decorated.attach("none")
    batch = make_batch(config, np.random.default_rng(31))
    h1, _ = encode(config, vanilla.params, batch, vanilla.slot)
    h2, _ = encode(config, decorated.params, batch, decorated.slot)
    np.testing.assert_array_equal(h1.data, h2.data)


def test_attach_single_uses_only_that_adapter():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["a", "b"],
                       with_fusion=True, seed=32)
    bank.attach("single", "a")
    batch = make_batch(config, np.random.default_rng(33))
    before = encode(config, bank.params, batch, bank.slot)[0].data.copy()
    # perturbing the unused adapter changes nothing
    bank.params["adapters.b.0.up.weight"].data[:] = 7.0
    after = encode(config, bank.params, batch, bank.slot)[0].data
    np.testing.assert_array_equal(before, after)
    # perturbing the attached adapter does
    bank.params["adapters.a.0.up.weight"].data[:] = 7.0
    changed = encode(config, bank.params, batch, bank.slot)[0].data
    assert not np.array_equal(before, changed)


def test_attach_fusion_wires_all_tasks():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["s2", "s7", "emo"],
                       with_fusion=True, seed=34)
    bank.attach("fusion", ["s2", "s7", "emo"])
    batch = make_batch(config, np.random.default_rng(35))
    encode(config, bank.params, batch, bank.slot)
    weights = bank.fusion_weights()
    assert set(weights) == {0}
    assert weights[0].shape[-1] == 3


@pytest.mark.parametrize("stage", ["fusion", "finetune"])
def test_trimmed_batch_matches_max_len_batch(stage):
    """Cutting a batch to its longest row changes neither the [CLS] logits
    nor the trainable gradients: padded keys get softmax weight 0."""
    config = tiny_config(num_layers=2)
    tasks = ["a", "b", "c"] if stage == "fusion" else []
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=stage == "fusion", seed=37)
    if tasks:
        bank.attach("fusion", tasks)
    bank.set_trainable(stage, "t")
    rng = np.random.default_rng(38)
    lengths = np.array([3, 5, 2])
    full = make_batch(config, rng, b=3, l=config.max_positions)
    full.attention_mask = (np.arange(config.max_positions) < lengths[:, None]).astype(np.int64)
    full.token_ids[full.attention_mask == 0] = PAD
    width = lengths.max()
    trimmed = Batch(token_ids=full.token_ids[:, :width],
                    attention_mask=full.attention_mask[:, :width],
                    segment_ids=full.segment_ids[:, :width], labels=full.labels)
    probe = Tensor(rng.uniform(-1, 1, (3, 6)))

    def run(batch):
        bank.params.zero_grad()
        logits = bank.forward(batch, "t")
        T.backward(T.sum_all(T.mul(logits, probe)))
        return logits.data, {n: bank.params[n].grad for n in bank.params.trainable_names()}

    (logits_full, grads_full), (logits_trim, grads_trim) = run(full), run(trimmed)
    np.testing.assert_allclose(logits_trim, logits_full, rtol=0, atol=1e-12)
    assert grads_trim.keys() == grads_full.keys()
    for name, g in grads_full.items():
        np.testing.assert_allclose(grads_trim[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_attach_unknown_task_is_config_error():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["a"],
                       with_fusion=True, seed=36)
    with pytest.raises(ConfigError):
        bank.attach("single", "nope")
    with pytest.raises(ConfigError):
        bank.attach("fusion", ["a", "nope"])
    with pytest.raises(ConfigError):
        bank.attach("warp")


# ---------------------------------------------------------------------------
# freeze groups / set_trainable
# ---------------------------------------------------------------------------

def full_bank(seed=40):
    config = tiny_config(num_layers=2)
    return AdapterBank(config, heads={"emo": 6, "s2": 1},
                       adapter_tasks=["emo", "s2"], with_fusion=True, seed=seed)


def test_freeze_groups_partition_every_parameter_once():
    bank = full_bank()
    groups = build_freeze_groups(bank.params)
    seen = [n for names in groups.groups.values() for n in names]
    assert sorted(seen) == sorted(bank.params.names())
    assert set(groups.groups) == {"encoder", "adapters.emo", "adapters.s2",
                                  "fusion", "heads.emo", "heads.s2"}


def test_stage_adapter_trains_adapter_and_head_only():
    bank = full_bank()
    bank.set_trainable("adapter", "emo")
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups.groups["adapters.emo"]) \
        | set(bank.groups.groups["heads.emo"])
    for name in bank.groups.groups["encoder"]:
        assert not bank.params[name].requires_grad


def test_stage_fusion_trains_fusion_and_target_head_only():
    bank = full_bank()
    bank.set_trainable("fusion", "emo")
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups.groups["fusion"]) \
        | set(bank.groups.groups["heads.emo"])


def test_stage_finetune_trains_encoder_and_head():
    bank = full_bank()
    bank.set_trainable("finetune", "emo")
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups.groups["encoder"]) \
        | set(bank.groups.groups["heads.emo"])


def test_stage_errors():
    bank = full_bank()
    with pytest.raises(ConfigError):
        bank.set_trainable("adapter", "missing")
    with pytest.raises(ConfigError):
        bank.set_trainable("warp", "emo")


def test_frozen_encoder_bit_identical_after_optimizer_steps():
    from fuseformer.losses import bce
    from fuseformer.training import TrainConfig, adamw_step

    bank = full_bank(seed=41)
    bank.attach("single", "emo")
    bank.set_trainable("adapter", "emo")
    config = bank.config
    batch = make_batch(config, np.random.default_rng(42), b=2, l=4)
    labels = (np.random.default_rng(43).random((2, 6)) < 0.5).astype(float)
    encoder_bytes = bank.params.state_bytes(bank.groups.groups["encoder"])
    adapter_bytes = bank.params.state_bytes(bank.groups.groups["adapters.emo"])
    cfg = TrainConfig(lr=0.05, epochs=1, patience=1, batch_size=2, runs=1)
    state = {}
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    for t in range(1, 11):
        bank.params.zero_grad()
        from fuseformer.tensor import backward
        loss = bce(bank.forward(batch, "emo"), labels)
        backward(loss)
        adamw_step(trainable, state, t, 0.05, cfg)
    assert bank.params.state_bytes(bank.groups.groups["encoder"]) == encoder_bytes
    # and the trainable adapter actually moved
    assert bank.params.state_bytes(bank.groups.groups["adapters.emo"]) != adapter_bytes


def test_fusion_params_change_with_nonzero_gradient():
    from fuseformer.losses import bce
    from fuseformer.tensor import backward
    from fuseformer.training import TrainConfig, adamw_step

    bank = full_bank(seed=44)
    bank.attach("fusion", ["emo", "s2"])
    bank.set_trainable("fusion", "emo")
    batch = make_batch(bank.config, np.random.default_rng(45), b=2, l=4)
    labels = (np.random.default_rng(46).random((2, 6)) < 0.5).astype(float)
    adapters_before = bank.params.state_bytes(
        bank.groups.groups["adapters.emo"] + bank.groups.groups["adapters.s2"])
    fusion_before = bank.params.state_bytes(bank.groups.groups["fusion"])
    bank.params.zero_grad()
    loss = bce(bank.forward(batch, "emo"), labels)
    backward(loss)
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    assert any(p.grad is not None and np.any(p.grad != 0) for _, p in trainable)
    adamw_step(trainable, {}, 1, 0.05, TrainConfig(lr=0.05))
    assert bank.params.state_bytes(bank.groups.groups["fusion"]) != fusion_before
    assert bank.params.state_bytes(
        bank.groups.groups["adapters.emo"] + bank.groups.groups["adapters.s2"]) \
        == adapters_before


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_desk_adapter_count_is_76():
    config = tiny_config()  # 1 layer, H=8, r=2: 8*4+4 + 4*8+8 = 76
    assert adapter_parameter_count(config) == 76


def test_full_scale_single_adapter_trainable():
    counts = count_parameters(ModelConfig.full_scale(), "adapter", num_labels=6)
    assert abs(counts["trainable"] - 1.5e6) < 0.1e6
    assert counts["trainable"] == 1_489_734


def test_full_scale_fusion3_trainable():
    counts = count_parameters(ModelConfig.full_scale(), "fusion", num_tasks=3,
                              num_labels=6)
    assert abs(counts["trainable"] - 21.8e6) < 0.1e6


def test_full_scale_totals_within_one_million():
    full = ModelConfig.full_scale()
    assert abs(count_parameters(full, "finetune")["total"]
               - REFERENCE_TOTALS["finetune"]) < 1e6
    assert abs(count_parameters(full, "fusion", num_tasks=3)["total"]
               - REFERENCE_TOTALS["fusion3"]) < 1e6
    assert abs(count_parameters(full, "fusion", num_tasks=5)["total"]
               - REFERENCE_TOTALS["fusion5"]) < 1e6


def test_fusion5_minus_fusion3_is_exactly_two_adapters():
    for config in (ModelConfig.full_scale(), tiny_config(num_layers=3)):
        f3 = count_parameters(config, "fusion", num_tasks=3)["total"]
        f5 = count_parameters(config, "fusion", num_tasks=5)["total"]
        assert f5 - f3 == 2 * adapter_parameter_count(config)


def test_count_matches_allocated_bank():
    config = tiny_config(num_layers=2)
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["a", "b", "c"],
                       with_fusion=True, seed=50)
    expected = count_parameters(config, "fusion", num_tasks=3, num_labels=6)
    assert bank.params.num_parameters() == expected["total"]
    bank.set_trainable("fusion", "t")
    assert bank.params.num_parameters(bank.params.trainable_names()) \
        == expected["trainable"]


def test_total_equals_trainable_when_nothing_frozen():
    counts = count_parameters(tiny_config(), "finetune", num_labels=6)
    assert counts["total"] == counts["trainable"]


def test_count_contract_errors():
    with pytest.raises(ConfigError):
        count_parameters(tiny_config(), "everything")
    with pytest.raises(ContractError):
        count_parameters(tiny_config(), "fusion", num_tasks=0)


def test_group_of_routing():
    assert group_of("embeddings.token") == "encoder"
    assert group_of("layers.3.ff.in.weight") == "encoder"
    assert group_of("adapters.emo.0.down.weight") == "adapters.emo"
    assert group_of("fusion.1.query") == "fusion"
    assert group_of("heads.emo.out.bias") == "heads.emo"
