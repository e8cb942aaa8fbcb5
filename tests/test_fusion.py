"""Adapters, fusion attention, training stages, and parameter accounting."""

import numpy as np
import pytest

from fuseformer import tensor as T
from fuseformer.data import Batch, CLS, PAD
from fuseformer.encoder import ModelConfig, encode
from fuseformer.errors import ConfigError, ContractError, ShapeMismatchError
from fuseformer.fusion import (STAGES, AdapterBank, FusionSlot,
                               SingleAdapterSlot, adapter_forward,
                               adapter_parameter_count, count_parameters,
                               fusion_forward, group_of)
from fuseformer.losses import PosWeights, weighted_bce
from fuseformer.tensor import Tensor, finite_difference_check
from probes import probe

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
    out = adapter_forward(bank.params, "t", 0, h)
    np.testing.assert_array_equal(out.data, h.data)


def test_adapter_bottleneck_width_and_shape():
    config = tiny_config()  # H=8, r=2
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["t"], seed=0)
    assert bank.params["adapters.t.0.down.weight"].shape == (8, 4)
    assert bank.params["adapters.t.0.up.weight"].shape == (4, 8)
    h = random_hidden(config, np.random.default_rng(2))
    assert adapter_forward(bank.params, "t", 0, h).shape == h.shape


def test_adapter_gradient_check_all_four_tensors():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["t"], seed=3,
                       dtype=np.float64)
    # non-degenerate up projection so every tensor sees signal
    rng = np.random.default_rng(4)
    bank.params.assign("adapters.t.0.up.weight", rng.normal(0, 0.5, (4, 8)))
    h = random_hidden(config, rng)
    mix = rng.uniform(-1, 1, h.shape)
    params = [(n, bank.params[n]) for n in bank.params.names()
              if n.startswith("adapters.t.0.")]
    assert len(params) == 4
    report = finite_difference_check(
        lambda: probe(mix, adapter_forward(bank.params, "t", 0, h)),
        params, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# fusion_forward
# ---------------------------------------------------------------------------

def fusion_fixture(tasks, seed=5):
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=True, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    h = random_hidden(config, rng)
    outs = [adapter_forward(bank.params, t, 0, h) for t in tasks]
    return config, bank, h, outs


def test_fusion_identical_values_make_alpha_irrelevant():
    config, bank, h, outs = fusion_fixture(["a", "b", "c"])
    for name in ("down.weight", "down.bias", "up.weight", "up.bias"):
        for t in ("b", "c"):
            bank.params.assign(f"adapters.{t}.0.{name}",
                               bank.params[f"adapters.a.0.{name}"].data)
    out, alpha = fusion_forward(bank.params, 0, h, ["a", "b", "c"])
    np.testing.assert_allclose(alpha, 1.0 / 3.0, atol=1e-12)
    flat = outs[0].data.reshape(-1, config.hidden_size)
    expected = (flat @ bank.params["fusion.0.value"].data).reshape(h.shape) + h.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_single_task_degenerates():
    config, bank, h, outs = fusion_fixture(["a"])
    out, alpha = fusion_forward(bank.params, 0, h, ["a"])
    assert np.all(alpha == 1.0)
    flat = outs[0].data.reshape(-1, config.hidden_size)
    expected = (flat @ bank.params["fusion.0.value"].data).reshape(h.shape) + h.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_weights_form_simplex_at_every_position():
    config, bank, h, _ = fusion_fixture(["a", "b", "c"], seed=6)
    _, alpha = fusion_forward(bank.params, 0, h, ["a", "b", "c"])
    assert alpha.shape == (2, 4, 3)
    assert np.all(alpha >= 0)
    np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


def test_fusion_zero_tasks_contract():
    config, bank, h, _ = fusion_fixture(["a"])
    with pytest.raises(ContractError):
        fusion_forward(bank.params, 0, h, [])


def test_fusion_misshaped_adapter_outputs_raise_shape_mismatch():
    config, bank, h, _ = fusion_fixture(["a", "b"])
    # adapter b's up projection leaves the hidden size: [4, 3] for [4, 8]
    bank.params["adapters.b.0.up.weight"].data = np.ones((4, 3))
    with pytest.raises(ShapeMismatchError, match=r"\(4, 3\).*\(2, 4, 8\)"):
        fusion_forward(bank.params, 0, h, ["a", "b"])


@pytest.mark.parametrize("num_tasks", [1, 5])
def test_fusion_bank_records_one_fusion_mix_node_per_layer(num_tasks):
    config = tiny_config(num_layers=2)
    tasks = [f"s{t}" for t in range(num_tasks)]
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=True, seed=36)
    bank.set_stage("fusion", "t")
    logits = bank.forward(make_batch(config, np.random.default_rng(36)), "t")
    ops, seen, todo = [], set(), [logits.node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops.append(node.op)
        todo.extend(t.node for t in node.inputs if t.node is not None)
    # the adapters run inside the fusion node, so no adapter op is recorded
    assert ops.count("adapter_fusion") == config.num_layers
    assert "relu" not in ops
    assert "self_attention" in ops  # the encoder's attention sublayer
    # every real token below the last layer, the [CLS] rows in it
    assert {i: w.shape for i, w in bank.fusion_weights().items()} \
        == {0: (2 * 4, num_tasks), 1: (2, num_tasks)}


def test_fusion_gradient_check():
    config, bank, h, _ = fusion_fixture(["a", "b"], seed=7)
    rng = np.random.default_rng(8)
    mix = rng.uniform(-1, 1, h.shape)
    h.requires_grad = True

    def loss_fn():
        out, _ = fusion_forward(bank.params, 0, h, ["a", "b"])
        return probe(mix, out)

    params = [(n, bank.params[n]) for n in bank.params.names()
              if n.startswith(("fusion.", "adapters."))] + [("h", h)]
    assert len(params) == 3 + 2 * 4 + 1
    report = finite_difference_check(loss_fn, params, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# stages: what runs
# ---------------------------------------------------------------------------

def test_attach_none_equals_vanilla_encoder():
    config = tiny_config(num_layers=2)
    vanilla = AdapterBank(config, heads={"t": 6}, seed=30)
    decorated = AdapterBank(config, heads={"t": 6},
                            adapter_tasks=["a", "b"], with_fusion=True, seed=30)
    decorated.set_stage("finetune", "t")
    assert decorated.slot is None
    batch = make_batch(config, np.random.default_rng(31))
    h1 = encode(config, vanilla.params, batch, vanilla.slot)
    h2 = encode(config, decorated.params, batch, decorated.slot)
    np.testing.assert_array_equal(h1.data, h2.data)


def test_attach_single_uses_only_that_adapter():
    config = tiny_config()
    bank = AdapterBank(config, heads={"a": 6}, adapter_tasks=["a", "b"],
                       with_fusion=True, seed=32)
    bank.set_stage("adapter", "a")
    assert isinstance(bank.slot, SingleAdapterSlot)
    batch = make_batch(config, np.random.default_rng(33))
    before = encode(config, bank.params, batch, bank.slot).data.copy()
    # perturbing the unused adapter changes nothing
    bank.params["adapters.b.0.up.weight"].data[:] = 7.0
    after = encode(config, bank.params, batch, bank.slot).data
    np.testing.assert_array_equal(before, after)
    # perturbing the wired adapter does
    bank.params["adapters.a.0.up.weight"].data[:] = 7.0
    changed = encode(config, bank.params, batch, bank.slot).data
    assert not np.array_equal(before, changed)


def test_attach_fusion_wires_all_tasks():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["s2", "s7", "emo"],
                       with_fusion=True, seed=34)
    bank.set_stage("fusion", "t")
    assert isinstance(bank.slot, FusionSlot)
    assert bank.slot.tasks == ["s2", "s7", "emo"]
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
    bank.set_stage(stage, "t")
    rng = np.random.default_rng(38)
    lengths = np.array([3, 5, 2])
    full = make_batch(config, rng, b=3, l=config.max_positions)
    full.attention_mask = (np.arange(config.max_positions) < lengths[:, None]).astype(np.int64)
    full.token_ids[full.attention_mask == 0] = PAD
    width = lengths.max()
    trimmed = Batch(token_ids=full.token_ids[:, :width],
                    attention_mask=full.attention_mask[:, :width],
                    segment_ids=full.segment_ids[:, :width], labels=full.labels)
    mix = rng.uniform(-1, 1, (3, 6))

    def run(batch):
        bank.params.zero_grad()
        logits = bank.forward(batch, "t")
        T.backward(probe(mix, logits))
        return logits.data, {n: bank.params[n].grad.copy()
                             for n in bank.params.trainable_names()}

    (logits_full, grads_full), (logits_trim, grads_trim) = run(full), run(trimmed)
    np.testing.assert_allclose(logits_trim, logits_full, rtol=0, atol=1e-12)
    assert grads_trim.keys() == grads_full.keys()
    for name, g in grads_full.items():
        np.testing.assert_allclose(grads_trim[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_attach_unknown_task_is_config_error():
    config = tiny_config()
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=["a"],
                       with_fusion=True, seed=36)
    with pytest.raises(ConfigError, match="no head"):
        bank.set_stage("adapter", "nope")
    # an adapter is wired only under its own task's head
    with pytest.raises(ConfigError, match="adapters.t"):
        bank.set_stage("adapter", "t")
    with pytest.raises(ConfigError, match="unknown stage"):
        bank.set_stage("warp", "t")
    no_adapters = AdapterBank(config, heads={"t": 6}, with_fusion=True, seed=36)
    with pytest.raises(ConfigError, match="at least one adapter"):
        no_adapters.set_stage("fusion", "t")
    assert bank.slot is None and bank.stage is None
    assert bank.params.trainable_names() == bank.params.names()


# ---------------------------------------------------------------------------
# stages: what trains
# ---------------------------------------------------------------------------

def full_bank(seed=40):
    config = tiny_config(num_layers=2)
    return AdapterBank(config, heads={"emo": 6, "s2": 1},
                       adapter_tasks=["emo", "s2"], with_fusion=True, seed=seed)


def test_freeze_groups_partition_every_parameter_once():
    bank = full_bank()
    seen = [n for names in bank.groups.values() for n in names]
    assert sorted(seen) == sorted(bank.params.names())
    assert all(group_of(n) == g for g, names in bank.groups.items() for n in names)
    assert set(bank.groups) == {"encoder", "adapters.emo", "adapters.s2",
                                  "fusion", "heads.emo", "heads.s2"}


def test_stage_adapter_trains_adapter_and_head_only():
    bank = full_bank()
    bank.set_stage("adapter", "emo")
    assert bank.stage == "adapter"
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups["adapters.emo"]) \
        | set(bank.groups["heads.emo"])
    for name in bank.groups["encoder"]:
        assert not bank.params[name].requires_grad


def test_stage_fusion_trains_fusion_and_target_head_only():
    bank = full_bank()
    bank.set_stage("fusion", "emo")
    assert bank.stage == "fusion"
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups["fusion"]) \
        | set(bank.groups["heads.emo"])


def test_stage_finetune_trains_encoder_and_head():
    bank = full_bank()
    bank.set_stage("finetune", "emo")
    assert bank.stage == "finetune"
    trainable = set(bank.params.trainable_names())
    assert trainable == set(bank.groups["encoder"]) \
        | set(bank.groups["heads.emo"])


def test_stage_errors():
    bank = full_bank()
    bank.set_stage("adapter", "emo")
    with pytest.raises(ConfigError):
        bank.set_stage("adapter", "missing")
    with pytest.raises(ConfigError):
        bank.set_stage("warp", "emo")
    no_fusion = AdapterBank(bank.config, heads={"emo": 6}, adapter_tasks=["emo"])
    with pytest.raises(ConfigError, match="'fusion'"):
        no_fusion.set_stage("fusion", "emo")
    # a rejected stage leaves the wiring and the flags as they were
    assert bank.stage == "adapter" and bank.slot.task == "emo"
    assert set(bank.params.trainable_names()) \
        == set(bank.groups["adapters.emo"]) | set(bank.groups["heads.emo"])


def test_frozen_encoder_bit_identical_after_optimizer_steps():
    from fuseformer.losses import bce
    from fuseformer.training import AdamState, TrainConfig, adamw_step

    bank = full_bank(seed=41)
    bank.set_stage("adapter", "emo")
    config = bank.config
    batch = make_batch(config, np.random.default_rng(42), b=2, l=4)
    labels = (np.random.default_rng(43).random((2, 6)) < 0.5).astype(float)
    encoder_bytes = bank.params.state_bytes(bank.groups["encoder"])
    adapter_bytes = bank.params.state_bytes(bank.groups["adapters.emo"])
    cfg = TrainConfig(lr=0.05, epochs=1, patience=1, batch_size=2, runs=1)
    state = AdamState()
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    for t in range(1, 11):
        bank.params.zero_grad()
        from fuseformer.tensor import backward
        loss = bce(bank.forward(batch, "emo"), labels)
        backward(loss)
        adamw_step(trainable, state, t, 0.05, cfg)
    assert bank.params.state_bytes(bank.groups["encoder"]) == encoder_bytes
    # and the trainable adapter actually moved
    assert bank.params.state_bytes(bank.groups["adapters.emo"]) != adapter_bytes


def test_fusion_params_change_with_nonzero_gradient():
    from fuseformer.losses import bce
    from fuseformer.tensor import backward
    from fuseformer.training import AdamState, TrainConfig, adamw_step

    bank = full_bank(seed=44)
    bank.set_stage("fusion", "emo")
    batch = make_batch(bank.config, np.random.default_rng(45), b=2, l=4)
    labels = (np.random.default_rng(46).random((2, 6)) < 0.5).astype(float)
    adapters_before = bank.params.state_bytes(
        bank.groups["adapters.emo"] + bank.groups["adapters.s2"])
    fusion_before = bank.params.state_bytes(bank.groups["fusion"])
    bank.params.zero_grad()
    loss = bce(bank.forward(batch, "emo"), labels)
    backward(loss)
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    assert any(p.grad is not None and np.any(p.grad != 0) for _, p in trainable)
    adamw_step(trainable, AdamState(), 1, 0.05, TrainConfig(lr=0.05))
    assert bank.params.state_bytes(bank.groups["fusion"]) != fusion_before
    assert bank.params.state_bytes(
        bank.groups["adapters.emo"] + bank.groups["adapters.s2"]) \
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


@pytest.mark.parametrize("num_tasks", [1, 2, 5])
@pytest.mark.parametrize("num_labels", [1, 6, 7])
def test_count_matches_allocated_bank(num_labels, num_tasks):
    config = tiny_config(num_layers=2)
    # each stage's bank: its adapters (the head's own for "adapter") and fusion
    adapters = {"finetune": [], "adapter": ["t"],
                "fusion": [f"a{i}" for i in range(num_tasks)]}
    assert list(adapters) == list(STAGES)
    for stage, tasks in adapters.items():
        bank = AdapterBank(config, heads={"t": num_labels}, adapter_tasks=tasks,
                           with_fusion=stage == "fusion", seed=50)
        expected = count_parameters(config, stage, num_tasks=num_tasks,
                                    num_labels=num_labels)
        assert sum(t.size for _, t in bank.params.items()) == expected["total"], stage
        bank.set_stage(stage, "t")
        assert sum(bank.params[n].size for n in bank.params.trainable_names()) \
            == expected["trainable"], stage


def test_total_equals_trainable_when_nothing_frozen():
    counts = count_parameters(tiny_config(), "finetune", num_labels=6)
    assert counts["total"] == counts["trainable"]


def test_count_contract_errors():
    with pytest.raises(ConfigError):
        count_parameters(tiny_config(), "everything")
    with pytest.raises(ContractError):
        count_parameters(tiny_config(), "fusion", num_tasks=0)


@pytest.mark.parametrize("num_labels", [5, 0, -1])
def test_bank_and_count_reject_the_same_head_widths(num_labels):
    with pytest.raises(ContractError, match="num_labels"):
        AdapterBank(tiny_config(), heads={"t": num_labels})
    for stage in STAGES:
        with pytest.raises(ContractError, match="num_labels"):
            count_parameters(tiny_config(), stage, num_labels=num_labels)


def test_group_of_routing():
    assert group_of("embeddings.token") == "encoder"
    assert group_of("layers.3.ff.in.weight") == "encoder"
    assert group_of("adapters.emo.0.down.weight") == "adapters.emo"
    assert group_of("fusion.1.query") == "fusion"
    assert group_of("heads.emo.out.bias") == "heads.emo"


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_rule_sets_norms_biases_and_weight_scales(dtype):
    # H=32 and r=4: the smallest weight, an adapter's up projection, has 256
    # entries, so the loose bounds below hold for its root mean square
    config = tiny_config(num_layers=2, hidden_size=32, ff_size=64,
                         reduction_factor=4)
    bank = AdapterBank(config, heads={"a": 6, "b": 1}, adapter_tasks=["a", "b"],
                       with_fusion=True, seed=3, dtype=dtype)
    ups = 0
    for name, p in bank.params.items():
        if name.endswith(".gamma"):
            assert np.all(p.data == 1.0), name
        elif name.endswith((".bias", ".beta")):
            assert np.all(p.data == 0.0), name
        else:
            rms = float(np.sqrt(np.mean(p.data.astype(np.float64) ** 2)))
            std = 1e-4 if name.endswith(".up.weight") else 0.02
            ups += name.endswith(".up.weight")
            assert std / 2 < rms < 2 * std, (name, rms)
    assert ups == 2 * config.num_layers


def encoder_bytes(bank):
    return b"".join(bank.params[n].data.tobytes() for n in bank.groups["encoder"])


def test_banks_of_one_seed_hold_the_same_encoder_whatever_else_they_hold():
    config = tiny_config(num_layers=2)
    plain = AdapterBank(config, heads={"t": 6}, seed=11)
    fused = AdapterBank(config, heads={"a": 1, "b": 7}, adapter_tasks=["a", "b", "c"],
                        with_fusion=True, seed=11)
    assert encoder_bytes(plain) == encoder_bytes(fused)
    assert encoder_bytes(plain) != encoder_bytes(AdapterBank(config, heads={"t": 6},
                                                             seed=12))


# ---------------------------------------------------------------------------
# compute dtype
# ---------------------------------------------------------------------------

def fusion5_bank(dtype, seed=7):
    """The fusion5 geometry (H=64, 2 layers, 4 heads, T=5) with the seeded
    adapter weights the benchmark gives its source adapters."""
    config = ModelConfig(vocab_size=64)
    tasks = [f"s{t}" for t in range(5)]
    bank = AdapterBank(config, heads={"t": 6}, adapter_tasks=tasks,
                       with_fusion=True, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for name in bank.params.names():
        if ".up.weight" in name:
            bank.params.assign(name, rng.normal(0.0, 0.05, bank.params[name].shape))
    bank.set_stage("fusion", "t")
    return bank


def padded_batch(rng, b=32, l=16, vocab=64):
    ids = rng.integers(4, vocab, size=(b, l))
    ids[:, 0] = CLS
    mask = (np.arange(l) < rng.integers(3, l + 1, size=b)[:, None]).astype(np.int64)
    ids[mask == 0] = PAD
    return Batch(token_ids=ids, attention_mask=mask, segment_ids=np.zeros_like(ids),
                 labels=(rng.random((b, 6)) < 0.3).astype(np.float64))


FUSION5_WEIGHTS = PosWeights(w=[0.92, 3.0, 3.76, 9.0, 4.88, 11.5])


def test_float32_fusion_training_step_has_no_float64_on_its_tape():
    from fuseformer.training import AdamState, TrainConfig, adamw_step

    bank = fusion5_bank(np.float32)
    batch = padded_batch(np.random.default_rng(9))
    loss = weighted_bce(bank.forward(batch, "t"), batch.labels, FUSION5_WEIGHTS)
    # every op output is the loss or an input of a later node
    dtypes = {("output", loss.data.dtype)}
    nodes, todo = {}, [loss.node]
    while todo:
        node = todo.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for t in node.inputs:
            dtypes.add(("output", t.data.dtype))
            if t.node is not None:
                todo.append(t.node)

    def recording(fn):
        def backward_fn(g):
            grads = fn(g)
            dtypes.update(("grad", gi.dtype) for gi in grads if gi is not None)
            return grads
        return backward_fn

    for node in nodes.values():
        node.backward_fn = recording(node.backward_fn)
    T.backward(loss)
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    state = AdamState()
    adamw_step(trainable, state, 1, 1e-3, TrainConfig())
    dtypes.update(("param", p.data.dtype) for _, p in bank.params.items())
    dtypes.update(("param grad", p.grad.dtype) for _, p in trainable)
    dtypes.update(("adam moment", a.dtype) for a in (state.m, state.v))
    assert {kind for kind, _ in dtypes} == {"output", "grad", "param", "param grad",
                                            "adam moment"}
    assert {dtype for _, dtype in dtypes} == {np.dtype(np.float32)}, dtypes


def test_float32_fusion_bank_matches_float64_on_the_same_weights():
    banks = {np.float32: fusion5_bank(np.float32), np.float64: fusion5_bank(np.float64)}
    for name, t in banks[np.float32].params.items():
        banks[np.float64].params.assign(name, t.data)
    batch = padded_batch(np.random.default_rng(9))
    logits, grads = {}, {}
    for dtype, bank in banks.items():
        out = bank.forward(batch, "t")
        T.backward(weighted_bce(out, batch.labels, FUSION5_WEIGHTS))
        logits[dtype] = out.data
        grads[dtype] = {n: bank.params[n].grad for n in bank.params.trainable_names()}

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    assert rel(logits[np.float32], logits[np.float64]) < 1e-5
    for name, g in grads[np.float64].items():
        assert rel(grads[np.float32][name], g) < 1e-4, name


# ---------------------------------------------------------------------------
# the tape of one training step
# ---------------------------------------------------------------------------

HEAD = ["heads.t.dense", "heads.t.out"]
# stage: (tape nodes reachable from the loss, the linear layers that are
# matmul nodes on it, the encoder layers on it). The embeddings are one
# embeddings node, and each encoder layer is one self_attention and one
# feed_forward node, which hold its six linears. The frozen embeddings and
# layer 0 record no node in the adapter and fusion stages, so only the
# trained adapters, fusion and layer 1 reach the tape. In both stages each
# layer's adapters run inside its adapter_fusion node, so no adapter linear
# is a matmul node. The head is two matmul nodes, a tanh and the loss.
TAPES = {
    "finetune": (9, HEAD, [0, 1]),
    "adapter": (8, HEAD, [1]),
    "fusion": (8, HEAD, [1]),
}


@pytest.mark.parametrize("stage", sorted(TAPES))
def test_training_step_tape_has_one_matmul_node_per_linear_layer(stage):
    bank = AdapterBank(ModelConfig(vocab_size=64), heads={"t": 6},
                       adapter_tasks=["t", "u"], with_fusion=True, seed=3)
    bank.set_stage(stage, "t")
    batch = padded_batch(np.random.default_rng(9))
    loss = weighted_bce(bank.forward(batch, "t"), batch.labels, FUSION5_WEIGHTS)
    nodes, todo = {}, [loss.node]
    while todo:
        node = todo.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            todo.extend(t.node for t in node.inputs if t.node is not None)
    count, linears, layers = TAPES[stage]
    assert len(nodes) == count
    # each linear layer outside the encoder sublayers is one
    # matmul(x, weight, bias) node
    matmuls = [n for n in nodes.values() if n.op == "matmul"]
    assert sorted(n.inputs[1].name for n in matmuls) \
        == sorted(f"{p}.weight" for p in linears)
    assert all(n.inputs[2].name == n.inputs[1].name.replace(".weight", ".bias")
               for n in matmuls)
    # the encoder's linears sit inside its sublayer nodes
    sublayers = sorted((n.op, n.inputs[1].name) for n in nodes.values()
                       if n.op in ("self_attention", "feed_forward"))
    assert sublayers == sorted(
        pair for i in layers for pair in (
            ("self_attention", f"layers.{i}.attention.query.weight"),
            ("feed_forward", f"layers.{i}.ff.in.weight")))
