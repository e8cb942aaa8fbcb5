"""Optimizer semantics against a scalar reference, schedule shape, early
stopping, checkpoint wire format, stage separation and the freeze audit, run
averaging, and the block-wise gradient check."""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseformer import runtime, training
from fuseformer.data import (SPECIAL_TOKENS, Batch, Splits, Vocabulary, build_vocab,
                             make_batches, synth_corpus)
from fuseformer.encoder import ModelConfig
from fuseformer.errors import (CheckpointError, ConfigError, ContractError,
                               NumericalDivergenceError)
from fuseformer.fusion import STAGES, AdapterBank
from fuseformer.losses import bce
from fuseformer.tensor import ParameterStore, Tensor, backward, scalar_loss
from fuseformer.training import (CHECKPOINT_MAGIC, GRAD_CHECK_BLOCKS, AdamState,
                                 TaskSpec, TrainConfig, adamw_step, bank_from_checkpoint,
                                 checkpoint_from_bank, evaluate_model, grad_check,
                                 group_hashes,
                                 load_checkpoint, load_into_bank, lr_schedule,
                                 run_experiment, save_checkpoint, seeded,
                                 train_adapter, train_full, train_fusion)


def desk_config(**over):
    base = dict(num_layers=1, hidden_size=8, num_heads=2, ff_size=16,
                vocab_size=64, max_positions=16, reduction_factor=2)
    base.update(over)
    return ModelConfig(**base)


def tiny_splits(n=60, seed=0):
    corpus = synth_corpus(seed=seed, n=n)
    k = n // 6
    return Splits(train=corpus[: 4 * k], val=corpus[4 * k: 5 * k],
                  test=corpus[5 * k:])


def fast_cfg(**over):
    base = dict(lr=0.01, epochs=2, patience=2, batch_size=10, seed=1, runs=1,
                loss="bce", max_len=10, vocab_size=300)
    base.update(over)
    return TrainConfig(**base)


EMOTION = TaskSpec(name="emotion", kind="multilabel-6", loss="bce")


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def reference_adamw(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0,
                    decay=True):
    """Independent scalar implementation, plain python floats."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        if decay and wd:
            p = p - lr * wd * p
    return p


def one_param(value, name="w"):
    """The parameter of a one-entry float64 ``ParameterStore``, set to
    ``value``; write its gradient in place."""
    store = ParameterStore([(name, (1,))])
    store.assign(name, [value])
    return name, store[name]


def test_adamw_first_step_example():
    name, p = one_param(1.0)
    p.grad[...] = 1.0
    adamw_step([(name, p)], AdamState(), 1, 0.1, TrainConfig(weight_decay=0.0))
    assert p.data[0] == pytest.approx(0.9, abs=1e-8)


def test_adamw_zero_gradient_no_decay():
    name, p = one_param(1.0)
    p.grad[...] = 0.0
    adamw_step([(name, p)], AdamState(), 1, 0.1, TrainConfig(weight_decay=0.0))
    assert p.data[0] == 1.0


def test_adamw_pure_decoupled_decay():
    name, p = one_param(2.0)
    p.grad[...] = 0.0
    cfg = TrainConfig(weight_decay=0.5)
    adamw_step([(name, p)], AdamState(), 1, 0.1, cfg)
    assert p.data[0] == pytest.approx(1.9, abs=1e-15)


def test_adamw_updates_a_parameter_no_op_reached():
    # its gradient is the store's zeros, not None: decay and momentum apply
    store = ParameterStore([("w", (1,)), ("unused", (1,))])
    store.assign("w", [2.0])
    store.assign("unused", [2.0])
    w, unused = store["w"], store["unused"]
    backward(scalar_loss(w, w.data[0], lambda: np.ones(1)))
    assert w.grad.tolist() == [1.0] and unused.grad.tolist() == [0.0]
    params, state = list(store.items()), AdamState()
    adamw_step(params, state, 1, 0.1, TrainConfig(weight_decay=0.5))
    assert unused.data[0] == pytest.approx(1.9, abs=1e-15)
    before = w.data[0]
    store.zero_grad()  # no op reaches w in this step
    adamw_step(params, state, 2, 0.1, TrainConfig(weight_decay=0.0))
    assert w.data[0] < before


def test_adamw_exempts_bias_and_norm_parameters_from_decay():
    cfg = TrainConfig(weight_decay=0.5)
    for name in ("layers.0.ff.in.bias", "embeddings.norm.gamma",
                 "layers.0.attention.norm.beta"):
        _, p = one_param(2.0, name)
        p.grad[...] = 0.0
        adamw_step([(name, p)], AdamState(), 1, 0.1, cfg)
        assert p.data[0] == 2.0, name
    _, p = one_param(2.0, "layers.0.ff.in.weight")
    p.grad[...] = 0.0
    adamw_step([("layers.0.ff.in.weight", p)], AdamState(), 1, 0.1, cfg)
    assert p.data[0] == pytest.approx(1.9)


def test_adamw_matches_scalar_reference_on_100_problems():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p0 = float(rng.uniform(-3, 3))
        lr = float(rng.uniform(1e-4, 0.3))
        wd = float(rng.choice([0.0, 0.01, 0.3]))
        steps = int(rng.integers(1, 12))
        grads = rng.uniform(-2, 2, steps)
        name, p = one_param(p0, "weights")
        cfg = TrainConfig(lr=lr, weight_decay=wd)
        state = AdamState()
        for t, g in enumerate(grads, start=1):
            p.grad[...] = g
            adamw_step([(name, p)], state, t, lr, cfg)
        want = reference_adamw(p0, [float(g) for g in grads], lr, wd=wd)
        assert abs(p.data[0] - want) <= 1e-12


def test_adamw_shape_contract():
    name, p = one_param(1.0)
    p.grad = np.zeros(2)
    with pytest.raises(ContractError):
        adamw_step([(name, p)], AdamState(), 1, 0.1, TrainConfig())


def test_adamw_step_index_contract():
    name, p = one_param(1.0)
    p.grad[...] = 1.0
    with pytest.raises(ContractError):
        adamw_step([(name, p)], AdamState(), 0, 0.1, TrainConfig())


def test_adamw_rejects_parameters_that_are_not_store_views():
    plain = Tensor(np.ones(2), requires_grad=True, name="w")
    plain.grad = np.ones(2)
    with pytest.raises(ContractError, match="'w'"):
        adamw_step([("w", plain)], AdamState(), 1, 0.1, TrainConfig())


def per_parameter_adamw(params, state, t, lr_t, config):
    """AdamW as one update per parameter, with its own moment arrays: the
    reference the flat update must match bit for bit."""
    b1, b2 = config.betas
    for name, p in params:
        m, v = state.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = b1 * m + (1.0 - b1) * p.grad
        v = b2 * v + (1.0 - b2) * p.grad * p.grad
        state[name] = (m, v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= lr_t * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        if config.weight_decay and not name.endswith(training.NO_DECAY_SUFFIXES):
            p.data -= lr_t * config.weight_decay * p.data


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# training head "a" of a bank with heads a and b, adapters a and b and a
# fusion layer: finetune and adapter train two runs of the buffer, fusion
# (fusion.*, then heads.a) one
@pytest.mark.parametrize("stage, runs", [("finetune", 2), ("adapter", 2), ("fusion", 1)])
def test_flat_adamw_matches_the_per_parameter_loop_bit_for_bit(stage, runs, dtype,
                                                               weight_decay):
    config = desk_config()
    banks = [AdapterBank(config, heads={"a": 6, "b": 6}, adapter_tasks=["a", "b"],
                         with_fusion=True, seed=5, dtype=dtype) for _ in range(2)]
    for bank in banks:
        bank.set_stage(stage, "a")
    cfg = TrainConfig(lr=1e-2, weight_decay=weight_decay)
    reference, flat = {}, AdamState()
    rng = np.random.default_rng(6)
    for t in range(1, 21):
        ids = rng.integers(4, config.vocab_size, size=(4, 6))
        ids[:, 0] = 2
        batch = Batch(token_ids=ids, attention_mask=np.ones_like(ids),
                      segment_ids=np.zeros_like(ids),
                      labels=(rng.random((4, 6)) < 0.5).astype(np.float64))
        for bank in banks:
            bank.params.zero_grad()
            backward(bce(bank.forward(batch, "a"), batch.labels))
        trainable = [[(n, bank.params[n]) for n in bank.params.trainable_names()]
                     for bank in banks]
        lr_t = lr_schedule(t - 1, 20, cfg.lr)
        per_parameter_adamw(trainable[0], reference, t, lr_t, cfg)
        adamw_step(trainable[1], flat, t, lr_t, cfg)
        assert banks[0].params.data.tobytes() == banks[1].params.data.tobytes(), t
    assert len(flat.runs) == runs
    assert flat.m.dtype == dtype and flat.m.size == sum(p.size for _, p in trainable[1])


@pytest.mark.parametrize("stage", list(STAGES))
def test_every_trainable_parameter_receives_a_gradient_in_the_first_step(
        stage, monkeypatch):
    # so the zero-gradient rule of adamw_step never fires in the pipeline
    checked, unreached = [], []
    adamw = training.adamw_step

    def checking_adamw(params, state, t, *args):
        if t == 1:
            checked.append(len(params))
            unreached.extend(n for n, p in params if not np.any(p.grad))
        adamw(params, state, t, *args)

    monkeypatch.setattr(training, "adamw_step", checking_adamw)
    splits, cfg = tiny_splits(), fast_cfg(epochs=1, patience=1)
    if stage == "finetune":
        train_full(EMOTION, splits, desk_config(), cfg)
    elif stage == "adapter":
        train_adapter(EMOTION, splits, desk_config(), cfg)
    else:  # the two stage-1 fits are checked too
        r1, r2 = two_adapter_checkpoints(splits, cfg)
        train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)
    assert checked and all(checked) and unreached == []


@pytest.mark.parametrize("field", ["data", "grad"])
def test_fit_rejects_a_parameter_detached_from_the_store(field):
    splits, cfg = tiny_splits(), fast_cfg(epochs=1, patience=1)
    vocab = build_vocab(splits.train, cfg.vocab_size)
    bank = AdapterBank(desk_config(vocab_size=len(vocab)), heads={"emotion": 6})
    bank.set_stage("finetune", "emotion")
    p = bank.params["layers.0.ff.in.weight"]
    setattr(p, field, getattr(p, field).copy())  # rebound, not written in place
    with pytest.raises(ContractError, match="'layers.0.ff.in.weight'"):
        training.fit(bank, EMOTION, splits, vocab, cfg)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_endpoints_and_midpoint():
    assert lr_schedule(0, 100, 2e-3) == 2e-3
    assert lr_schedule(100, 100, 2e-3) == 0.0
    assert lr_schedule(50, 100, 2e-3) == pytest.approx(1e-3)


def test_lr_schedule_warmup():
    assert lr_schedule(0, 100, 1.0, warmup_steps=10) == 0.0
    assert lr_schedule(5, 100, 1.0, warmup_steps=10) == 0.5
    assert lr_schedule(10, 100, 1.0, warmup_steps=10) == 1.0
    assert lr_schedule(55, 100, 1.0, warmup_steps=10) == 0.5


def test_lr_schedule_contracts():
    with pytest.raises(ContractError):
        lr_schedule(101, 100, 1.0)
    with pytest.raises(ContractError):
        lr_schedule(-1, 100, 1.0)
    with pytest.raises(ContractError):
        lr_schedule(0, 100, 1.0, warmup_steps=100)


# ---------------------------------------------------------------------------
# checkpoint wire format
# ---------------------------------------------------------------------------

def small_bank(seed=0):
    return AdapterBank(desk_config(), heads={"emotion": 6},
                       adapter_tasks=["emotion"], seed=seed)


def table_vocab(config):
    """A vocabulary with one token per row of the embedding table."""
    return Vocabulary([f"w{i}" for i in range(config.vocab_size - len(SPECIAL_TOKENS))])


def test_checkpoint_round_trip_exact_at_f32(tmp_path):
    bank = small_bank(seed=2)
    ckpt = checkpoint_from_bank(bank, seed=2, stage="adapter:emotion")
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.tensors[name],
                                      arr.astype("<f4").astype(np.float64))
    assert loaded.meta["stage"] == "adapter:emotion"
    assert loaded.meta["model_config"] == asdict(bank.config)


def test_checkpoint_header_layout(tmp_path):
    bank = small_bank()
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_bank(bank, 0, "init"), path)
    blob = path.read_bytes()
    assert blob[:8] == CHECKPOINT_MAGIC == b"AFCKPT01"
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16:16 + mlen])
    entries = {k: v for k, v in manifest.items() if k != "__meta__"}
    assert set(entries) == set(bank.params.names())
    for entry in entries.values():
        assert entry["dtype"] == "f32"
    total = sum(int(np.prod(e["shape"])) * 4 for e in entries.values())
    assert len(blob) - 16 - mlen == total


def test_truncated_checkpoint_names_entry(tmp_path):
    bank = small_bank()
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_bank(bank, 0, "init"), path)
    blob = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-64])
    with pytest.raises(CheckpointError, match="truncated payload for entry"):
        load_checkpoint(tmp_path / "trunc.ckpt")


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "bad.ckpt").write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_corrupt_manifest_rejected(tmp_path):
    blob = CHECKPOINT_MAGIC + struct.pack("<Q", 4) + b"{ooo"
    (tmp_path / "bad.ckpt").write_bytes(blob)
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(tmp_path / "bad.ckpt")


def write_with_manifest(path, manifest, payload):
    raw = json.dumps(manifest).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(raw)) + raw + payload)


@pytest.mark.parametrize("entries,match", [
    ({"w": ([-2, 3], 0)}, "'w'"),                        # loaded as (2, 3) before
    ({"w": ([2.7, 3], 0)}, "'w'"),
    ({"w": ([True, 3], 0)}, "'w'"),
    ({"w": (6, 0)}, "'w'"),
    ({"w": ([2, 3], 0.0)}, "offset"),
    ({"w": ([2], 0)}, "trailing"),                        # 4 floats never read
    ({"w": ([2], 0), "x": ([3], 4)}, "'x'.*overlap"),     # x starts inside w
    ({"w": ([2], 0), "x": ([3], 12)}, "'x'.*gap"),        # one float skipped
    ({"w": ([3], 0), "x": ([3], 12)}, None),              # exact tiling loads
])
def test_manifest_entries_must_tile_the_payload(tmp_path, entries, match):
    payload = np.arange(6, dtype="<f4").tobytes()
    manifest = {name: {"shape": shape, "dtype": "f32", "offset": offset}
                for name, (shape, offset) in entries.items()}
    write_with_manifest(tmp_path / "m.ckpt", manifest, payload)
    if match is None:
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        np.testing.assert_array_equal(loaded.tensors["x"], [3.0, 4.0, 5.0])
        return
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(tmp_path / "m.ckpt")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["shape", "dtype", "offset"]), inner,
                      max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_manifest_round_trips_or_raises_checkpoint_error(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    manifest = {"__meta__": {"stage": "init"},
                "a": {"shape": [2, 2], "dtype": "f32", "offset": 0},
                "b": {"shape": [3], "dtype": "f32", "offset": 16}}
    payload = np.arange(7, dtype="<f4").tobytes()
    name = data.draw(st.sampled_from(["a", "b", "__meta__", "c"]))
    key = data.draw(st.sampled_from(["shape", "dtype", "offset", None]))
    value = data.draw(JSON_VALUES)
    if key is None or name == "__meta__":
        manifest[name] = value
    else:
        manifest.setdefault(name, {})[key] = value
    payload = payload[:data.draw(st.integers(0, len(payload)))] \
        + b"\x00" * data.draw(st.integers(0, 8))
    write_with_manifest(tmp / "m.ckpt", manifest, payload)
    try:
        loaded = load_checkpoint(tmp / "m.ckpt")
    except CheckpointError:
        return
    save_checkpoint(loaded, tmp / "again.ckpt")
    again = load_checkpoint(tmp / "again.ckpt")
    assert again.meta == loaded.meta
    assert set(again.tensors) == set(loaded.tensors)
    for n, arr in loaded.tensors.items():
        np.testing.assert_array_equal(again.tensors[n], arr)


def test_load_into_mismatched_hidden_size_is_shape_error(tmp_path):
    bank = small_bank()
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_bank(bank, 0, "init"), path)
    wide = AdapterBank(desk_config(hidden_size=16, reduction_factor=4),
                       heads={"emotion": 6}, adapter_tasks=["emotion"], seed=0)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_into_bank(wide, load_checkpoint(path))


def test_no_temp_files_left_behind(tmp_path):
    bank = small_bank()
    save_checkpoint(checkpoint_from_bank(bank, 0, "init"), tmp_path / "m.ckpt")
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


# ---------------------------------------------------------------------------
# stage-1 training
# ---------------------------------------------------------------------------

def test_train_adapter_keeps_encoder_bit_identical():
    splits = tiny_splits()
    cfg = fast_cfg()
    result = train_adapter(EMOTION, splits, desk_config(), cfg)
    got = result.bank
    # identical seed => identical initialization; encoder must not have moved
    init_bank = AdapterBank(got.config, heads={"emotion": 6},
                            adapter_tasks=["emotion"], seed=cfg.seed)
    enc = got.groups["encoder"]
    assert got.params.state_bytes(enc) == init_bank.params.state_bytes(enc)
    # adapter and head did move
    moved = got.groups["adapters.emotion"] + got.groups["heads.emotion"]
    assert got.params.state_bytes(moved) != init_bank.params.state_bytes(moved)


def test_train_adapter_history_and_early_stop_bounds():
    splits = tiny_splits()
    cfg = fast_cfg(epochs=10, patience=3, lr=1e-9)  # metric plateaus instantly
    result = train_adapter(EMOTION, splits, desk_config(), cfg)
    history = result.history
    assert len(history) <= 10
    best = max(range(len(history)), key=lambda i: history[i]["val_metric"]) + 1
    assert len(history) <= best + 3
    assert result.best_epoch == 1
    assert len(history) == 4  # 1 best + 3 patience


def test_val_report_is_the_best_epochs_report_of_the_restored_bank(monkeypatch):
    from fuseformer import training

    splits = tiny_splits(seed=2)
    cfg = fast_cfg(epochs=3, patience=2, lr=0.1)
    calls = []
    evaluate = training.evaluate_model
    monkeypatch.setattr(training, "evaluate_model",
                        lambda *a, **k: calls.append(k["split"]) or evaluate(*a, **k))
    result = train_adapter(EMOTION, splits, desk_config(), cfg)
    history = result.history
    assert result.best_epoch == 1 and len(history) == 3
    assert history[-1]["val_metric"] != history[0]["val_metric"]
    assert calls == ["val"] * 3 + ["test"]  # validation is not evaluated again
    batches = make_batches(splits.val, result.vocab, cfg.max_len, EMOTION.kind,
                           cfg.batch_size)
    fresh = evaluate(result.bank, EMOTION, batches, cfg.threshold, split="val",
                     seed=cfg.seed)
    assert result.val_report.to_json() == fresh.to_json()


def test_train_adapter_same_seed_bit_exact():
    splits = tiny_splits()
    runs = [train_adapter(EMOTION, splits, desk_config(), fast_cfg())
            for _ in range(2)]
    assert runs[0].history == runs[1].history
    assert runs[0].test_report.to_json() == runs[1].test_report.to_json()
    a = runs[0].bank.params.state_bytes()
    b = runs[1].bank.params.state_bytes()
    assert a == b


def test_float32_fusion_reruns_are_byte_identical(tmp_path):
    splits = tiny_splits()
    cfg = fast_cfg()
    r1, r2 = two_adapter_checkpoints(splits, cfg)
    blobs, bodies = [], []
    for i in range(2):
        result = train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)
        dtypes = {t.data.dtype for _, t in result.bank.params.items()}
        assert dtypes == {np.dtype(np.float32)}
        save_checkpoint(result.checkpoint, tmp_path / f"run{i}.ckpt")
        blobs.append((tmp_path / f"run{i}.ckpt").read_bytes())
        bodies.append((result.history, result.val_report.to_json(),
                       result.test_report.to_json()))
    assert bodies[0] == bodies[1]
    assert blobs[0] == blobs[1]


def test_evaluate_model_builds_no_tape_and_matches_a_taped_forward(monkeypatch):
    bank = small_bank()
    splits = tiny_splits()
    batches = make_batches(splits.val, build_vocab(splits.train, 60), 10,
                           EMOTION.kind, 5)
    untaped = []
    forward = AdapterBank.forward
    monkeypatch.setattr(AdapterBank, "forward",
                        lambda self, b, t: untaped.append(forward(self, b, t)) or untaped[-1])
    evaluate_model(bank, EMOTION, batches)
    monkeypatch.undo()
    taped = [bank.forward(b, EMOTION.name) for b in batches]
    assert len(untaped) == len(batches)
    assert all(out.node is None for out in untaped)
    assert all(out.node is not None for out in taped)
    for a, b in zip(untaped, taped):
        np.testing.assert_array_equal(a.data, b.data)


def test_model_loops_run_with_one_blas_thread(monkeypatch):
    calls = runtime._openblas()
    if calls is None:
        pytest.skip("no OpenBLAS found in this process")
    for name in runtime.BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    splits = tiny_splits()
    batches = make_batches(splits.val, build_vocab(splits.train, 60), 10,
                           EMOTION.kind, 5)
    for run in (lambda: evaluate_model(small_bank(), EMOTION, batches),
                lambda: train_adapter(EMOTION, splits, desk_config(), fast_cfg())):
        calls[1](2)
        run()
        assert calls[0]() == 1


def test_fit_requires_nonempty_splits():
    splits = tiny_splits()
    with pytest.raises(ConfigError):
        train_adapter(EMOTION, Splits(train=[], val=splits.val), desk_config(),
                      fast_cfg())
    with pytest.raises(ConfigError):
        train_adapter(EMOTION, Splits(train=splits.train, val=[]), desk_config(),
                      fast_cfg())


def test_training_divergence_raises_with_diagnostics():
    splits = tiny_splits()
    cfg = fast_cfg(lr=1e30, epochs=2)
    with pytest.raises(NumericalDivergenceError, match="epoch"):
        with np.errstate(all="ignore"):
            train_full(EMOTION, splits, desk_config(), cfg)


# ---------------------------------------------------------------------------
# stage-2 training
# ---------------------------------------------------------------------------

def two_adapter_checkpoints(splits, cfg):
    sent2 = TaskSpec(name="sent2", kind="binary", loss="bce")
    vocab = None
    r1 = train_adapter(EMOTION, splits, desk_config(), cfg)
    r2 = train_adapter(sent2, splits, desk_config(), cfg, vocab=r1.vocab)
    return r1, r2


def test_train_fusion_freezes_encoder_and_adapters_bitwise():
    splits = tiny_splits()
    cfg = fast_cfg()
    r1, r2 = two_adapter_checkpoints(splits, cfg)
    result = train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)
    bank = result.bank
    for name in bank.groups["encoder"]:
        np.testing.assert_array_equal(bank.params[name].data,
                                      r1.checkpoint.tensors[name])
    for ckpt, task in ((r1.checkpoint, "emotion"), (r2.checkpoint, "sent2")):
        for name in bank.groups[f"adapters.{task}"]:
            np.testing.assert_array_equal(bank.params[name].data,
                                          ckpt.tensors[name])
    hashes = group_hashes(bank)
    assert set(hashes) >= {"encoder", "adapters.emotion", "adapters.sent2",
                           "fusion", "heads.emotion"}
    # the audit covers exactly the groups stage 2 freezes
    assert set(result.audit) == {"encoder", "adapters.emotion", "adapters.sent2"}
    for group, entry in result.audit.items():
        assert entry == {"before": hashes[group], "after": hashes[group],
                         "frozen": True}


def test_train_fusion_audit_reports_a_moved_frozen_weight(monkeypatch):
    splits = tiny_splits()
    cfg = fast_cfg()
    r1, r2 = two_adapter_checkpoints(splits, cfg)
    fit = training.fit

    def fit_then_move(bank, *args):  # a stage 2 that breaks the freeze
        out = fit(bank, *args)
        bank.params["embeddings.token"].data[0, 0] += 1.0
        return out

    monkeypatch.setattr(training, "fit", fit_then_move)
    result = train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)
    assert result.audit["encoder"]["frozen"] is False
    assert result.audit["encoder"]["before"] != result.audit["encoder"]["after"]
    assert result.audit["adapters.emotion"]["frozen"] is True
    assert result.audit["adapters.sent2"]["frozen"] is True


def test_train_fusion_rejects_a_checkpoint_missing_an_encoder_entry():
    splits = tiny_splits()
    cfg = fast_cfg()
    r1, r2 = two_adapter_checkpoints(splits, cfg)
    del r2.checkpoint.tensors["embeddings.token"]
    with pytest.raises(CheckpointError, match="'sent2'.*'embeddings.token'"):
        train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)


def test_checkpoint_with_an_attention_key_bias_is_ignored_by_train_fusion():
    # checkpoints written while attention keys had a bias carry one per layer,
    # which no model has now; train_fusion loads only the names its bank has
    splits = tiny_splits()
    cfg = fast_cfg()
    r1, r2 = two_adapter_checkpoints(splits, cfg)
    stale = "layers.0.attention.key.bias"
    for r in (r1, r2):
        r.checkpoint.tensors[stale] = np.zeros(desk_config().hidden_size, np.float32)
    result = train_fusion(EMOTION, [r1.checkpoint, r2.checkpoint], splits, cfg)
    assert stale not in result.bank.params and stale not in result.checkpoint.tensors
    assert all(entry["frozen"] for entry in result.audit.values())
    # bank_from_checkpoint loads every entry, so it rejects the stale one
    with pytest.raises(CheckpointError, match=f"model has no parameter '{stale}'"):
        bank_from_checkpoint(r1.checkpoint)


def test_train_fusion_rejects_mismatched_configs():
    splits = tiny_splits()
    cfg = fast_cfg()
    r1 = train_adapter(EMOTION, splits, desk_config(), cfg)
    other = train_adapter(TaskSpec(name="sent2", kind="binary"), splits,
                          desk_config(hidden_size=16, reduction_factor=4),
                          cfg)
    with pytest.raises(CheckpointError, match="model config"):
        train_fusion(EMOTION, [r1.checkpoint, other.checkpoint], splits, cfg)


def test_train_fusion_rejects_duplicate_tasks():
    splits = tiny_splits()
    cfg = fast_cfg()
    r1 = train_adapter(EMOTION, splits, desk_config(), cfg)
    with pytest.raises(CheckpointError, match="duplicate"):
        train_fusion(EMOTION, [r1.checkpoint, r1.checkpoint], splits, cfg)


def test_train_fusion_needs_at_least_one_checkpoint():
    with pytest.raises(ConfigError):
        train_fusion(EMOTION, [], tiny_splits(), fast_cfg())


def test_bank_from_checkpoint_restores_slot_and_task(tmp_path):
    splits = tiny_splits()
    cfg = fast_cfg()
    result = train_adapter(EMOTION, splits, desk_config(), cfg)
    path = tmp_path / "a.ckpt"
    save_checkpoint(result.checkpoint, path)
    bank, vocab, task = bank_from_checkpoint(load_checkpoint(path))
    assert task == EMOTION
    assert bank.stage == "adapter" and bank.slot.task == "emotion"
    assert vocab.tokens == result.vocab.tokens
    # forward still works and reproduces stored parameters at f32 precision
    from fuseformer.data import make_batches
    batches = make_batches(splits.test, vocab, cfg.max_len, task.kind, 8)
    logits = bank.forward(batches[0], task.name)
    assert np.all(np.isfinite(logits.data))


@pytest.mark.parametrize("stage", ["finetune", "adapter", "fusion"])
def test_bank_from_checkpoint_restores_each_stage(stage):
    bank = AdapterBank(desk_config(), heads={"emotion": 6},
                       adapter_tasks=["emotion", "sent2"], with_fusion=True, seed=3)
    bank.set_stage(stage, "emotion")
    ckpt = checkpoint_from_bank(bank, seed=3, stage=f"{stage}:emotion",
                                vocab=table_vocab(bank.config),
                                extra_meta={"task": "emotion",
                                            "task_kind": "multilabel-6"})
    got, _, _ = bank_from_checkpoint(ckpt)
    assert got.stage == stage
    assert type(got.slot) is type(bank.slot)
    assert got.params.trainable_names() == bank.params.trainable_names()


@pytest.mark.parametrize("stage,match", [
    ("fuson:emotion", "unknown stage"),
    ("adapter:a", "does not name"),
    ("adapter", "does not name"),
    ("fusion:emotion", "'fusion'"),
], ids=["unknown_prefix", "other_task", "no_task", "missing_group"])
def test_bank_from_checkpoint_rejects_a_stage_it_cannot_rebuild(stage, match):
    ckpt = checkpoint_from_bank(small_bank(), seed=0, stage=stage,
                                vocab=table_vocab(desk_config()),
                                extra_meta={"task": "emotion",
                                            "task_kind": "multilabel-6"})
    with pytest.raises(CheckpointError, match=match):
        bank_from_checkpoint(ckpt)


@pytest.mark.parametrize("loss", ["bogus", "ce"])
def test_bank_from_checkpoint_rejects_a_loss_its_task_cannot_train(loss):
    ckpt = checkpoint_from_bank(small_bank(), seed=0, stage="adapter:emotion",
                                vocab=table_vocab(desk_config()),
                                extra_meta={"task": "emotion", "loss": loss,
                                            "task_kind": "multilabel-6"})
    with pytest.raises(CheckpointError, match=f"unknown loss '{loss}'"):
        bank_from_checkpoint(ckpt)


# ---------------------------------------------------------------------------
# block-wise gradient check
# ---------------------------------------------------------------------------

def test_grad_check_corrupted_block_reads_fail():
    corrupted = "layers.1.ff.out.weight"
    reports = grad_check(
        0, 1e-5, 1e-4, 4,
        grad_transform=lambda name, g: g + 0.01 if name == corrupted else g)
    assert tuple(reports) == GRAD_CHECK_BLOCKS
    assert all(c.checked <= 4 for r in reports.values() for c in r.blocks)
    assert not reports["ff"].passed
    assert reports["ff"].worst().name == corrupted
    assert all(r.passed for block, r in reports.items() if block != "ff")


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def run_fn_factory(splits, cfg):
    def run(seed):
        return train_adapter(EMOTION, splits, desk_config(),
                             seeded(cfg, seed)).test_report
    return run


def test_run_experiment_single_run_aggregate_equals_run():
    splits = tiny_splits()
    cfg = fast_cfg(runs=1)
    reports, agg = run_experiment(cfg, run_fn_factory(splits, cfg))
    assert len(reports) == 1
    assert agg.overall == reports[0].overall


def test_run_experiment_mean_is_arithmetic():
    splits = tiny_splits()
    cfg = fast_cfg(runs=3, epochs=1, patience=1)
    reports, agg = run_experiment(cfg, run_fn_factory(splits, cfg))
    assert len(reports) == 3
    want = sum(r.overall["mean_accuracy"] for r in reports) / 3
    assert abs(agg.overall["mean_accuracy"] - want) <= 1e-12


def test_run_experiment_respects_thread_cap(monkeypatch):
    splits = tiny_splits()
    cfg = fast_cfg(runs=2, epochs=1, patience=1)
    sequential, _ = run_experiment(cfg, run_fn_factory(splits, cfg))
    monkeypatch.setenv("FUSEFORMER_THREADS", "2")
    parallel, _ = run_experiment(cfg, run_fn_factory(splits, cfg))
    assert [r.to_json() for r in sequential] == [r.to_json() for r in parallel]


def test_forced_identical_seeds_degenerate_aggregation():
    splits = tiny_splits()
    cfg = fast_cfg(runs=3, epochs=1, patience=1)
    fixed = run_fn_factory(splits, cfg)
    reports, agg = run_experiment(cfg, lambda seed: fixed(cfg.seed))
    assert agg.overall["mean_accuracy"] \
        == pytest.approx(reports[0].overall["mean_accuracy"], abs=1e-15)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=5, epochs=3)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(runs=0)
    for bad in ({"loss": "ce"}, {"loss": "nope"}, {"loss_reduction": "mean"},
                {"threshold": 0.0}, {"threshold": 1.0}, {"warmup_steps": -1}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


@pytest.mark.parametrize("bad", [
    [1], None, {"dropout": 0.1}, {"epochs": "3"}, {"lr": "1e-3"},
    {"betas": [0.9]}, {"betas": "0.9"}, {"focal_alpha": "x"}, {"runs": 1.5},
], ids=["list", "null", "unknown_key", "str_epochs", "str_lr", "short_betas",
        "str_betas", "str_focal_alpha", "float_runs"])
def test_train_config_from_dict_rejects_malformed_input(bad):
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(bad)


def test_train_config_from_dict_accepts_json_spellings():
    cfg = TrainConfig.from_dict({"lr": 1, "betas": [0.8, 0.99], "focal_alpha": None,
                                 "metric_for_early_stop": "weighted_f1"})
    assert cfg == TrainConfig(lr=1.0, betas=(0.8, 0.99),
                              metric_for_early_stop="weighted_f1")


@pytest.mark.parametrize("name", ["bogus", "macro_f1", ""])
def test_train_config_rejects_an_early_stop_metric_no_task_kind_reports(name):
    with pytest.raises(ConfigError, match="metric_for_early_stop"):
        TrainConfig(metric_for_early_stop=name)
    with pytest.raises(ConfigError, match="metric_for_early_stop"):
        TrainConfig.from_dict({"metric_for_early_stop": name})


@pytest.mark.parametrize("value", [
    {**asdict(desk_config()), "dropout": 0.1},
    {**asdict(desk_config()), "num_layers": 0},
    "desk",
], ids=["unknown_key", "zero_layers", "string"])
def test_malformed_checkpoint_model_config_is_checkpoint_error(value):
    ckpt = checkpoint_from_bank(small_bank(), seed=0, stage="adapter:emotion",
                                vocab=table_vocab(desk_config()),
                                extra_meta={"task": "emotion",
                                            "task_kind": "multilabel-6"})
    ckpt.meta["model_config"] = value
    with pytest.raises(CheckpointError, match="model_config"):
        bank_from_checkpoint(ckpt)
    with pytest.raises(CheckpointError, match="model_config"):
        train_fusion(EMOTION, [ckpt], tiny_splits(), fast_cfg())


@pytest.mark.parametrize("vocab,match", [
    (None, "missing 'vocab'"),
    (["a", "b"], "6 tokens .* 64 rows"),
    (["a"] * 60, "duplicate"),
], ids=["missing", "short", "duplicate"])
def test_checkpoint_vocabulary_must_fill_the_embedding_table(vocab, match):
    ckpt = checkpoint_from_bank(small_bank(), seed=0, stage="adapter:emotion",
                                vocab=table_vocab(desk_config()),
                                extra_meta={"task": "emotion",
                                            "task_kind": "multilabel-6"})
    bank_from_checkpoint(ckpt)
    if vocab is None:
        del ckpt.meta["vocab"]
    else:
        ckpt.meta["vocab"] = vocab
    with pytest.raises(CheckpointError, match=match):
        bank_from_checkpoint(ckpt)
    with pytest.raises(CheckpointError, match=match):
        train_fusion(EMOTION, [ckpt], tiny_splits(), fast_cfg())


def test_unknown_early_stop_metric_is_rejected_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(training, "adamw_step", lambda *a, **k: steps.append(a))
    cfg = fast_cfg(metric_for_early_stop="accuracy")  # not an emotion metric
    with pytest.raises(ConfigError, match="metric_for_early_stop"):
        train_adapter(EMOTION, tiny_splits(), desk_config(), cfg)
    assert steps == []


def test_train_config_json_round_trip(tmp_path):
    cfg = TrainConfig(lr=3e-4, epochs=5, patience=2, betas=(0.8, 0.99))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    loaded = TrainConfig.from_dict(json.loads(p.read_text(encoding="utf-8")))
    assert loaded == cfg


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        TaskSpec(name="x", kind="regression")
    assert TaskSpec(name="s7", kind="multiclass-7", loss="bce").loss == "ce"
    assert TaskSpec(name="s7", kind="multiclass-7", loss="bogus").loss == "ce"
    assert TaskSpec(name="e", kind="multilabel-6").num_labels == 6


@pytest.mark.parametrize("kind,loss", [("binary", "ce"), ("multilabel-6", "bogus"),
                                       ("binary", "")])
def test_task_spec_rejects_a_loss_its_kind_cannot_train(kind, loss):
    with pytest.raises(ConfigError, match="unknown loss"):
        TaskSpec(name="t", kind=kind, loss=loss)



def test_explicit_early_stop_metric_is_honored():
    splits = tiny_splits()
    cfg = fast_cfg(epochs=1, patience=1, metric_for_early_stop="mean_accuracy")
    result = train_adapter(EMOTION, splits, desk_config(), cfg)
    # single epoch: restored parameters are the epoch-1 parameters, so the
    # recorded metric must be the val mean accuracy, not the weighted F1
    assert result.history[0]["val_metric"] \
        == result.val_report.overall["mean_accuracy"]
    plain = train_adapter(EMOTION, splits, desk_config(),
                          fast_cfg(epochs=1, patience=1))
    assert plain.history[0]["val_metric"] \
        == plain.val_report.overall["weighted_f1"]
