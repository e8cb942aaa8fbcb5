"""End-to-end command-line behavior: exit codes, report files, determinism,
and the freeze audit."""

import json
import struct

import numpy as np
import pytest

from fuseformer import cli, training
from fuseformer.cli import main
from fuseformer.data import (RawExample, load_corpus, synth_corpus,
                             write_corpus)
from fuseformer.tensor import BlockCheck, FDReport
from fuseformer.training import (GRAD_CHECK_BLOCKS, load_checkpoint,
                                 save_checkpoint)


def run_cli(*argv):
    return main([str(a) for a in argv])


def strip_meta(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("meta", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def corpus_path(tmp_path):
    p = tmp_path / "corpus.jsonl"
    write_corpus(synth_corpus(seed=5, n=120), p)
    return p


def table2_corpus(tmp_path):
    """Exactly the reference positive proportions per 100 examples."""
    per_class = [52, 25, 21, 10, 17, 8]
    out = []
    for i in range(100):
        emo = tuple(1.5 if i < per_class[c] else 0.0 for c in range(6))
        out.append(RawExample(id=str(i), text="w", sentiment=0.0, emotions=emo))
    p = tmp_path / "table2.jsonl"
    write_corpus(out, p)
    return p


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_reproduces_reference_weights(tmp_path, capsys):
    p = table2_corpus(tmp_path)
    assert run_cli("stats", "--corpus", p, "--task", "emotion",
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "stats.json").read_text())
    weights = [payload["classes"][label]["weight"]
               for label in ("joy", "sadness", "anger", "surprise",
                             "disgust", "fear")]
    np.testing.assert_allclose(weights, [48 / 52, 3.0, 79 / 21, 9.0, 83 / 17, 11.5])
    out = capsys.readouterr().out
    assert "11.5" in out and "joy" in out


def test_stats_balanced_corpus_weights_near_one(tmp_path):
    p = tmp_path / "balanced.jsonl"
    write_corpus(synth_corpus(seed=3, n=800, class_priors=(0.5,) * 6), p)
    assert run_cli("stats", "--corpus", p, "--task", "emotion",
                   "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "stats.json").read_text())
    for row in payload["classes"].values():
        assert abs(row["weight"] - 1.0) < 0.25


def test_stats_empty_corpus_exits_2_without_output(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    assert run_cli("stats", "--corpus", p, "--task", "emotion",
                   "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out" / "stats.json").exists()


def test_stats_missing_file_exits_2(tmp_path):
    assert run_cli("stats", "--corpus", tmp_path / "nope.jsonl",
                   "--task", "emotion") == 2


def test_stats_malformed_line_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"a","text":"x","sentiment":9}\n', encoding="utf-8")
    assert run_cli("stats", "--corpus", p, "--task", "emotion") == 2
    assert "line 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_deterministic_corpus(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("synth", "--out", a, "--n", 50, "--seed", 9) == 0
    assert run_cli("synth", "--out", b, "--n", 50, "--seed", 9) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_corpus(a, "mosei-style")) == 50


def test_synth_with_vocab_out(tmp_path):
    assert run_cli("synth", "--out", tmp_path / "c.jsonl", "--n", 30,
                   "--seed", 1, "--vocab-out", tmp_path / "v.txt") == 0
    assert (tmp_path / "v.txt").read_text().strip()


# ---------------------------------------------------------------------------
# train / evaluate pipeline
# ---------------------------------------------------------------------------

TRAIN_FLAGS = ["--epochs", 2, "--batch-size", 10, "--max-len", 10,
               "--lr", 0.01, "--loss", "bce"]


def model_json(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"num_layers": 1, "hidden_size": 8, "num_heads": 2,
                  "ff_size": 16, "max_positions": 16, "reduction_factor": 2}}),
        encoding="utf-8")
    return cfg


def test_train_adapter_single_run_writes_reports(tmp_path, corpus_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train-adapter", "--task", "emotion",
                   "--corpus", corpus_path, "--config", model_json(tmp_path),
                   "--runs", 1, "--seed", 3, "--out", out, *TRAIN_FLAGS)
    assert code == 0
    assert (out / "adapter-emotion.ckpt").exists()
    assert (out / "adapter-emotion-seed3.ckpt").exists()
    run_report = json.loads((out / "report-emotion-seed3.json").read_text())
    agg = json.loads((out / "aggregate-emotion.json").read_text())
    assert agg["runs"] == 1
    assert run_report["report"]["overall"] == agg["report"]["overall"]
    assert "config" in agg and agg["config"]["train"]["seed"] == 3
    assert "Overall" in capsys.readouterr().out


def test_train_adapter_rerun_is_byte_identical_modulo_meta(tmp_path, corpus_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli("train-adapter", "--task", "emotion",
                       "--corpus", corpus_path, "--config", model_json(tmp_path),
                       "--runs", 2, "--seed", 3, "--out", out,
                       *TRAIN_FLAGS) == 0
    assert strip_meta(out1 / "aggregate-emotion.json") \
        == strip_meta(out2 / "aggregate-emotion.json")
    assert (out1 / "adapter-emotion.ckpt").read_bytes() \
        == (out2 / "adapter-emotion.ckpt").read_bytes()


def train_two_adapters(tmp_path, corpus_path):
    """Stage-1 emotion and sent2 checkpoints of the model_json bank, in
    ``tmp_path / "run"``; returns the config path and that directory."""
    cfg = model_json(tmp_path)
    out = tmp_path / "run"
    for task in ("emotion", "sent2"):
        assert run_cli("train-adapter", "--task", task, "--corpus", corpus_path,
                       "--config", cfg, "--runs", 1, "--seed", 3, "--out", out,
                       *TRAIN_FLAGS) == 0
    return cfg, out


def test_train_fusion_audit_and_evaluate_consistency(tmp_path, corpus_path, capsys):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   out / "adapter-sent2.ckpt", *TRAIN_FLAGS)
    assert code == 0
    assert "FROZEN OK" in capsys.readouterr().out
    fusion_report = json.loads((out / "fusion-report-emotion.json").read_text())
    assert all(entry["frozen"] for entry in fusion_report["audit"].values())

    # evaluating the checkpoint on the test corpus reproduces the report
    test_corpus = tmp_path / "test.jsonl"
    corpus = load_corpus(corpus_path, "mosei-style")
    write_corpus([ex for i, ex in enumerate(corpus) if i % 10 == 9], test_corpus)
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", out / "fusion-emotion.ckpt",
                   "--corpus", test_corpus, "--out", out) == 0
    printed = capsys.readouterr().out
    header = printed.splitlines()[1]
    assert [c.strip() for c in header.split("|")] \
        == ["Joy", "Sadness", "Anger", "Surprise", "Disgust", "Fear", "Overall"]
    eval_report = json.loads((out / "eval-emotion.json").read_text())
    assert eval_report["report"]["overall"] \
        == fusion_report["report"]["overall"]


def test_train_fusion_moved_frozen_weight_exits_4(tmp_path, corpus_path, capsys,
                                                  monkeypatch):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    fit = training.fit

    def fit_then_move(bank, *args):
        result = fit(bank, *args)
        bank.params["embeddings.token"].data[0, 0] += 1.0
        return result

    monkeypatch.setattr(training, "fit", fit_then_move)
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   out / "adapter-sent2.ckpt", *TRAIN_FLAGS)
    assert code == 4
    assert "FROZEN VIOLATION" in capsys.readouterr().out
    audit = json.loads((out / "fusion-report-emotion.json").read_text())["audit"]
    assert {g: e["frozen"] for g, e in audit.items()} == {
        "encoder": False, "adapters.emotion": True, "adapters.sent2": True}


def test_train_fusion_trains_every_seed(tmp_path, corpus_path, capsys):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 2, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   out / "adapter-sent2.ckpt", *TRAIN_FLAGS)
    assert code == 0
    assert "FROZEN OK" in capsys.readouterr().out
    reports = {seed: json.loads((out / f"fusion-report-emotion-seed{seed}.json")
                                .read_text()) for seed in (4, 5)}
    assert {seed: r["config"]["train"]["seed"] for seed, r in reports.items()} \
        == {4: 4, 5: 5}
    for r in reports.values():
        assert r["audit"] and all(entry["frozen"] for entry in r["audit"].values())
    ckpts = [(out / f"fusion-emotion-seed{seed}.ckpt").read_bytes() for seed in (4, 5)]
    assert ckpts[0] != ckpts[1]
    # the unseeded checkpoint and report are the base seed's
    assert (out / "fusion-emotion.ckpt").read_bytes() == ckpts[0]
    assert strip_meta(out / "fusion-report-emotion.json") \
        == strip_meta(out / "fusion-report-emotion-seed4.json")
    agg = json.loads((out / "fusion-aggregate-emotion.json").read_text())
    assert agg["runs"] == 2 and agg["config"]["train"]["runs"] == 2


def test_train_fusion_moved_frozen_weight_in_one_seed_exits_4(
        tmp_path, corpus_path, capsys, monkeypatch):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    fit = training.fit

    def fit_then_move_in_seed_5(bank, task, splits, vocab, train_cfg):
        result = fit(bank, task, splits, vocab, train_cfg)
        if train_cfg.seed == 5:
            bank.params["embeddings.token"].data[0, 0] += 1.0
        return result

    monkeypatch.setattr(training, "fit", fit_then_move_in_seed_5)
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 2, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   out / "adapter-sent2.ckpt", *TRAIN_FLAGS)
    assert code == 4
    assert "FROZEN VIOLATION" in capsys.readouterr().out
    audits = {seed: json.loads((out / f"fusion-report-emotion-seed{seed}.json")
                               .read_text())["audit"] for seed in (4, 5)}
    assert audits[4]["encoder"]["frozen"] and not audits[5]["encoder"]["frozen"]


def test_train_fusion_rejects_vocab_flag(tmp_path, corpus_path, capsys):
    # the vocabulary comes from the adapter checkpoints
    cfg = model_json(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                "--config", cfg, "--vocab", tmp_path / "v.txt", "--out", tmp_path / "run",
                "--adapters", tmp_path / "adapter-emotion.ckpt")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --vocab" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_serial_reruns_are_byte_identical(tmp_path, corpus_path):
    cfg = model_json(tmp_path)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        for task in ("emotion", "sent2"):
            assert run_cli("train-adapter", "--task", task, "--corpus", corpus_path,
                           "--config", cfg, "--runs", 2, "--seed", 3, "--out", out,
                           *TRAIN_FLAGS) == 0
        assert run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                       "--config", cfg, "--runs", 2, "--seed", 4, "--out", out,
                       "--adapters", out / "adapter-emotion.ckpt",
                       out / "adapter-sent2.ckpt", *TRAIN_FLAGS) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    # (emotion, sent2, fusion) x seeds x (checkpoint, report)
    assert len([n for n in names if "-seed" in n]) == 3 * 2 * 2
    for name in names:
        first, second = outs[0] / name, outs[1] / name
        if name.endswith(".json"):
            assert strip_meta(first) == strip_meta(second), name
        else:
            assert first.read_bytes() == second.read_bytes(), name


def test_train_fusion_checkpoint_missing_encoder_entry_exits_2(
        tmp_path, corpus_path, capsys):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    ckpt = load_checkpoint(out / "adapter-sent2.ckpt")
    del ckpt.tensors["embeddings.token"]
    save_checkpoint(ckpt, tmp_path / "broken-sent2.ckpt")
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   tmp_path / "broken-sent2.ckpt", *TRAIN_FLAGS)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "'embeddings.token'" in err
    assert not (out / "fusion-emotion.ckpt").exists()


def test_train_fusion_reads_the_adapter_task_from_the_tensors(
        tmp_path, corpus_path, capsys):
    # a stale meta "adapter_tasks" naming another task is not read
    cfg, out = model_json(tmp_path), tmp_path / "run"
    assert run_cli("train-adapter", "--task", "sent2", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 3, "--out", out,
                   *TRAIN_FLAGS) == 0
    ckpt = load_checkpoint(out / "adapter-sent2.ckpt")
    ckpt.meta["adapter_tasks"] = ["emotion"]
    save_checkpoint(ckpt, tmp_path / "relabelled.ckpt")
    capsys.readouterr()
    assert run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 4, "--out", out,
                   "--adapters", tmp_path / "relabelled.ckpt", *TRAIN_FLAGS) == 0
    assert "FROZEN OK" in capsys.readouterr().out
    audit = json.loads((out / "fusion-report-emotion.json").read_text())["audit"]
    assert {g: e["frozen"] for g, e in audit.items()} == {
        "encoder": True, "adapters.sent2": True}


def test_train_fusion_checkpoint_missing_an_adapter_entry_exits_2_before_training(
        tmp_path, corpus_path, capsys, monkeypatch):
    cfg, out = train_two_adapters(tmp_path, corpus_path)
    ckpt = load_checkpoint(out / "adapter-sent2.ckpt")
    del ckpt.tensors["adapters.sent2.0.down.weight"]
    save_checkpoint(ckpt, tmp_path / "broken-sent2.ckpt")
    steps = []
    monkeypatch.setattr(training, "adamw_step", lambda *a, **k: steps.append(a))
    capsys.readouterr()
    code = run_cli("train-fusion", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 4, "--out", out,
                   "--adapters", out / "adapter-emotion.ckpt",
                   tmp_path / "broken-sent2.ckpt", *TRAIN_FLAGS)
    err = capsys.readouterr().err
    assert code == 2 and steps == []
    assert err.startswith("error: ") and "Traceback" not in err
    assert "'adapters.sent2.0.down.weight'" in err
    assert not (out / "fusion-emotion.ckpt").exists()


def test_evaluate_empty_corpus_exits_2(tmp_path, corpus_path):
    out = tmp_path / "run"
    assert run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--config", model_json(tmp_path), "--runs", 1, "--seed", 0,
                   "--out", out, *TRAIN_FLAGS) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run_cli("evaluate", "--checkpoint", out / "adapter-emotion.ckpt",
                   "--corpus", empty) == 2


def test_evaluate_wrong_task_exits_2(tmp_path, corpus_path):
    out = tmp_path / "run"
    assert run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--config", model_json(tmp_path), "--runs", 1, "--seed", 0,
                   "--out", out, *TRAIN_FLAGS) == 0
    assert run_cli("evaluate", "--checkpoint", out / "adapter-emotion.ckpt",
                   "--corpus", corpus_path, "--task", "sent7") == 2


def test_train_adapter_divergent_lr_exits_3(tmp_path, corpus_path):
    with np.errstate(all="ignore"):
        code = run_cli("train-adapter", "--task", "emotion",
                       "--corpus", corpus_path, "--config", model_json(tmp_path),
                       "--runs", 1, "--seed", 0, "--out", tmp_path / "d",
                       "--epochs", 2, "--batch-size", 10, "--max-len", 10,
                       "--lr", 1e30, "--loss", "bce")
    assert code == 3


def test_train_adapter_trains_the_configured_loss(tmp_path, corpus_path):
    cfg = tmp_path / "config.json"
    model = json.loads(model_json(tmp_path).read_text())["model"]
    cfg.write_text(json.dumps({"model": model, "loss": "bce"}), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 3, "--out", out,
                   "--epochs", 1, "--batch-size", 10, "--max-len", 10,
                   "--lr", 0.01) == 0
    report = json.loads((out / "report-emotion-seed3.json").read_text())
    assert report["config"]["train"]["loss"] == "bce"
    assert load_checkpoint(out / "adapter-emotion.ckpt").meta["loss"] == "bce"


@pytest.mark.parametrize("config,flags", [
    ({"loss": "nope"}, []),
    ({"loss_reduction": "median"}, []),
    ({}, ["--threshold", 1.5]),
    ({}, ["--threshold", 0.0]),
    ({}, ["--warmup-steps", -1]),
    ({"metric_for_early_stop": "nope"}, []),
    ({}, ["--lr", "nan"]),
    ({}, ["--lr", "inf"]),
    ({"betas": [1.0, 0.999]}, []),
    ({"weight_decay": -1}, []),
    ({"adam_eps": 0}, []),
], ids=["loss", "loss_reduction", "threshold_high", "threshold_zero",
        "warmup_steps", "metric_for_early_stop", "lr_nan", "lr_inf", "betas",
        "weight_decay", "adam_eps"])
def test_train_adapter_invalid_config_exits_2_without_traceback(
        tmp_path, corpus_path, capsys, config, flags):
    cfg = tmp_path / "config.json"
    model = json.loads(model_json(tmp_path).read_text())["model"]
    cfg.write_text(json.dumps({"model": model, **config}), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--seed", 3, "--out", out,
                   "--epochs", 1, "--batch-size", 10, "--max-len", 10, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(out.glob("*.ckpt"))


def adapter_checkpoint(tmp_path, meta):
    """A stage-1 emotion checkpoint of the model_json bank, with ``meta``
    (a function of the model dict) overriding its meta entries. As written,
    it evaluates on the ``corpus_path`` corpus."""
    from fuseformer.encoder import ModelConfig
    from fuseformer.fusion import AdapterBank
    from fuseformer.training import (TrainConfig, checkpoint_from_bank,
                                     save_checkpoint)

    model = json.loads(model_json(tmp_path).read_text())["model"]
    bank = AdapterBank(ModelConfig(**model), heads={"emotion": 6},
                       adapter_tasks=["emotion"])
    # one token per row of the embedding table, past the four specials
    vocab = [f"w{i}" for i in range(bank.config.vocab_size - 4)]
    ckpt = checkpoint_from_bank(
        bank, seed=0, stage="adapter:emotion",
        extra_meta={"task_kind": "multilabel-6", "vocab": vocab, "loss": "bce",
                    "train_config": TrainConfig(max_len=16).to_dict(),
                    **meta(model)})
    path = tmp_path / "adapter-emotion.ckpt"
    save_checkpoint(ckpt, path)
    return path


MALFORMED = {
    # --config file
    "config_str_epochs": ("config", {"epochs": "3"}),
    "config_list": ("config", [1, 2]),
    "config_model_unknown_key": ("config", {"model": {"dropout": 0.1}}),
    "config_model_list": ("config", {"model": [8]}),
    # checkpoint meta, read by evaluate and by train-fusion
    "eval_model_unknown_key": (
        "evaluate", lambda m: {"model_config": {**m, "dropout": 0.1}}),
    "eval_model_list": ("evaluate", lambda m: {"model_config": [8]}),
    "eval_train_str_epochs": ("evaluate", lambda m: {"train_config": {"epochs": "3"}}),
    "eval_train_str": ("evaluate", lambda m: {"train_config": "fast"}),
    "eval_seed_str": ("evaluate", lambda m: {"seed": "a"}),
    "fusion_model_unknown_key": (
        "train-fusion", lambda m: {"model_config": {**m, "dropout": 0.1}}),
    "fusion_model_str_layers": (
        "train-fusion", lambda m: {"model_config": {**m, "num_layers": "1"}}),
}


def test_evaluate_well_formed_adapter_checkpoint_exits_0(tmp_path, corpus_path,
                                                         capsys):
    # the control of the MALFORMED checkpoint cases
    ckpt = adapter_checkpoint(tmp_path, lambda m: {})
    assert run_cli("evaluate", "--checkpoint", ckpt, "--corpus", corpus_path) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("stage", ["fuson:emotion", "adapter:a"])
def test_evaluate_stage_it_cannot_rebuild_exits_2_without_traceback(
        tmp_path, corpus_path, capsys, stage):
    ckpt = adapter_checkpoint(tmp_path, lambda m: {"stage": stage})
    assert run_cli("evaluate", "--checkpoint", ckpt, "--corpus", corpus_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint stage") and "Traceback" not in err


def test_evaluate_checkpoint_with_an_attention_key_bias_exits_2(
        tmp_path, corpus_path, capsys):
    # written while attention keys had a bias: the model has no such parameter
    path = adapter_checkpoint(tmp_path, lambda m: {})
    ckpt = load_checkpoint(path)
    ckpt.tensors["layers.0.attention.key.bias"] = np.zeros(
        ckpt.tensors["layers.0.attention.query.bias"].shape, np.float32)
    save_checkpoint(ckpt, path)
    assert run_cli("evaluate", "--checkpoint", path, "--corpus", corpus_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "model has no parameter 'layers.0.attention.key.bias'" in err


def test_evaluate_checkpoint_missing_an_entry_exits_2(tmp_path, corpus_path, capsys):
    # loaded, the model would keep that parameter's random initial value
    path = adapter_checkpoint(tmp_path, lambda m: {})
    ckpt = load_checkpoint(path)
    del ckpt.tensors["layers.0.ff.in.weight"]
    save_checkpoint(ckpt, path)
    assert run_cli("evaluate", "--checkpoint", path, "--corpus", corpus_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "checkpoint is missing entry 'layers.0.ff.in.weight'" in err


@pytest.mark.parametrize("loss", ["bogus", "ce"])
def test_evaluate_checkpoint_with_a_loss_its_task_cannot_train_exits_2(
        tmp_path, corpus_path, capsys, loss):
    ckpt = adapter_checkpoint(tmp_path, lambda m: {"loss": loss})
    assert run_cli("evaluate", "--checkpoint", ckpt, "--corpus", corpus_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint meta") and err.count("\n") == 1, err


@pytest.mark.parametrize("vocab", [None, ["a", "b", "c", "d", "e"]],
                         ids=["missing", "short"])
@pytest.mark.parametrize("command", ["evaluate", "train-fusion"])
def test_checkpoint_vocabulary_that_does_not_fit_the_model_exits_2(
        tmp_path, corpus_path, capsys, command, vocab):
    path = adapter_checkpoint(tmp_path, lambda m: {})
    ckpt = load_checkpoint(path)
    if vocab is None:
        del ckpt.meta["vocab"]
    else:
        ckpt.meta["vocab"] = vocab
    save_checkpoint(ckpt, path)
    out = tmp_path / "run"
    if command == "evaluate":
        argv = ["evaluate", "--checkpoint", path, "--corpus", corpus_path]
    else:
        argv = ["train-fusion", "--task", "emotion", "--corpus", corpus_path,
                "--runs", 1, "--out", out, "--adapters", path, *TRAIN_FLAGS]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint") and "vocab" in err
    assert "Traceback" not in err and not list(out.glob("*"))


@pytest.mark.parametrize("threshold", ["1.5", "nan", "-0.2"])
def test_evaluate_threshold_outside_0_1_exits_2_without_traceback(
        tmp_path, corpus_path, capsys, threshold):
    ckpt = adapter_checkpoint(tmp_path, lambda m: {})
    code = run_cli("evaluate", "--checkpoint", ckpt, "--corpus", corpus_path,
                   "--threshold", threshold)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: threshold") and "Traceback" not in err


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_exits_2_without_traceback(tmp_path, corpus_path,
                                                    capsys, case):
    command, payload = MALFORMED[case]
    out = tmp_path / "run"
    if command == "config":
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["train-adapter", "--task", "emotion", "--corpus", corpus_path,
                "--config", cfg, "--runs", 1, "--out", out]
    elif command == "evaluate":
        argv = ["evaluate", "--checkpoint", adapter_checkpoint(tmp_path, payload),
                "--corpus", corpus_path]
    else:
        argv = ["train-fusion", "--task", "emotion", "--corpus", corpus_path,
                "--config", model_json(tmp_path), "--runs", 1, "--out", out,
                "--adapters", adapter_checkpoint(tmp_path, payload), *TRAIN_FLAGS]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(out.glob("*"))
    if command != "config":
        (key,) = payload({})
        assert key in err, err


def test_train_sent7_path(tmp_path, corpus_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train-adapter", "--task", "sent7", "--corpus", corpus_path,
                   "--config", model_json(tmp_path), "--runs", 1, "--seed", 1,
                   "--out", out, "--epochs", 1, "--batch-size", 10,
                   "--max-len", 10, "--lr", 0.01)
    assert code == 0
    agg = json.loads((out / "aggregate-sent7.json").read_text())
    assert agg["report"]["task_kind"] == "multiclass-7"
    assert 0.0 <= agg["report"]["overall"]["accuracy"] <= 1.0


def test_train_binary_ext_path(tmp_path, capsys):
    corpus = tmp_path / "reviews.jsonl"
    rng = np.random.default_rng(3)
    lines = [json.dumps({"id": str(i),
                         "text": ("good fine nice" if y else "bad awful poor")
                                 + f" filler{i % 7}",
                         "binary_label": int(y)})
             for i, y in enumerate(rng.integers(0, 2, 80))]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("train-adapter", "--task", "binary-ext", "--corpus", corpus,
                   "--config", model_json(tmp_path), "--runs", 1, "--seed", 1,
                   "--out", out, "--epochs", 1, "--batch-size", 10,
                   "--max-len", 8, "--lr", 0.01, "--loss", "bce")
    assert code == 0
    agg = json.loads((out / "aggregate-binary-ext.json").read_text())
    assert agg["report"]["task_kind"] == "binary"


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------

HUGE_INT = b"1" * 5000  # past Python's 4300-digit limit on int conversion


def assert_input_error(code, capsys, prefix):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix) and "Traceback" not in err


@pytest.mark.parametrize("line", [
    b'{"id":"a","text":"caf\xe9","sentiment":1}',
    b'{"id":"a","text":"x","sentiment":1' + b"0" * 400 + b"}",
    b'{"id":"a","text":"x","emotions":[1' + b"0" * 400 + b",0,0,0,0,0]}",
    b'{"id":"a","text":"x","sentiment":' + HUGE_INT + b"}",
    b"[" * 100_000,
], ids=["not_utf8", "sentiment_overflows_float", "emotion_overflows_float",
        "int_over_digit_limit", "nested_past_recursion_limit"])
def test_malformed_corpus_file_exits_2_without_traceback(tmp_path, capsys, line):
    p = tmp_path / "c.jsonl"
    p.write_bytes(b'{"id":"ok","text":"x","sentiment":0}\n' + line + b"\n")
    assert_input_error(run_cli("stats", "--corpus", p, "--task", "emotion"), capsys,
                       "error: line 2: ")


@pytest.mark.parametrize("raw", [b'{"threshold": ' + HUGE_INT + b"}",
                                 b'{"lr": 0.1, "note": "\xff"}'],
                         ids=["int_over_digit_limit", "not_utf8"])
def test_malformed_config_file_exits_2_without_traceback(tmp_path, corpus_path,
                                                         capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    code = run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--config", cfg, "--runs", 1, "--out", tmp_path / "run")
    assert_input_error(code, capsys, f"error: --config {cfg}: ")


def test_checkpoint_manifest_int_over_digit_limit_exits_2_without_traceback(
        tmp_path, corpus_path, capsys):
    manifest = b'{"embeddings.token": {"offset": ' + HUGE_INT + b"}}"
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<Q", len(manifest))
                     + manifest)
    code = run_cli("evaluate", "--checkpoint", ckpt, "--corpus", corpus_path)
    assert_input_error(code, capsys, "error: corrupt manifest: ")


def test_vocab_file_not_utf8_exits_2_without_traceback(tmp_path, corpus_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(b"joy\ncaf\xe9\n")
    code = run_cli("train-adapter", "--task", "emotion", "--corpus", corpus_path,
                   "--vocab", vocab, "--runs", 1, "--out", tmp_path / "run",
                   *TRAIN_FLAGS)
    assert_input_error(code, capsys, "error: vocabulary ")


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_passes_and_reports_all_blocks(tmp_path, capsys):
    assert run_cli("grad-check", "--max-coords", 4, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    for block in ("embeddings", "attention", "ff", "adapter", "fusion", "head"):
        assert out.count(f"{block:<12} PASS") == 1
    payload = json.loads((tmp_path / "grad-check.json").read_text())
    assert all(b["passed"] for b in payload["blocks"].values())


def test_grad_check_corrupted_gradient_exits_4(tmp_path, capsys, monkeypatch):
    def failing_ff(seed, h, tol, max_coords):
        return {blk: FDReport(tol=tol, blocks=[BlockCheck(
                    name=f"{blk}.w", max_rel_err=0.5 if blk == "ff" else 1e-9,
                    worst_index=(0,), checked=1)])
                for blk in GRAD_CHECK_BLOCKS}

    monkeypatch.setattr(cli, "grad_check", failing_ff)
    assert run_cli("grad-check", "--out", tmp_path) == 4
    captured = capsys.readouterr()
    assert captured.out.count("FAIL") == 1
    assert f"{'ff':<12} FAIL  max_rel_err=5.000e-01  worst=ff.w[0]" in captured.out
    assert "failed for 1 block(s)" in captured.err
    payload = json.loads((tmp_path / "grad-check.json").read_text())
    assert [b for b, v in payload["blocks"].items() if not v["passed"]] == ["ff"]


@pytest.mark.parametrize("coords", [-1, 0])
def test_grad_check_max_coords_below_one_exits_2(tmp_path, capsys, coords):
    code = run_cli("grad-check", "--max-coords", coords, "--out", tmp_path)
    assert_input_error(code, capsys, "error: ")
    assert not (tmp_path / "grad-check.json").exists()


# ---------------------------------------------------------------------------
# count-params
# ---------------------------------------------------------------------------

def test_count_params_full_scale_table(tmp_path, capsys):
    assert run_cli("count-params", "--scale", "full", "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "count-params.json").read_text())
    rows = payload["rows"]
    assert rows["adapter"]["trainable"] == 1_489_734
    assert abs(rows["fusion3"]["trainable"] - 21_800_000) < 100_000
    assert abs(rows["finetune"]["total"] - 108_300_000) < 1_000_000
    out = capsys.readouterr().out
    assert "trainable" in out


def test_count_params_single_mode(capsys):
    assert run_cli("count-params", "--scale", "full", "--mode", "adapter") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trainable"] == 1_489_734


@pytest.mark.parametrize("argv,code", [
    (["--num-tasks", "0", "--mode", "finetune"], 0),
    (["--num-tasks", "0"], 0),
    (["--num-tasks", "9", "--mode", "adapter"], 0),
    (["--num-tasks", "0", "--mode", "fusion"], 2),
], ids=["finetune_0", "table_0", "adapter_9", "fusion_0"])
def test_count_params_checks_num_tasks_only_for_fusion(capsys, argv, code):
    # only --mode fusion reads --num-tasks; the table's fusion rows are fixed
    assert run_cli("count-params", "--scale", "desk", *argv) == code
    err = capsys.readouterr().err
    assert err.count("error: ") == (code == 2) and "Traceback" not in err, err


@pytest.mark.parametrize("mode", [["--mode", "finetune"], []], ids=["mode", "table"])
@pytest.mark.parametrize("num_labels", [5, 0, -1])
def test_count_params_head_width_no_task_has_exits_2(capsys, num_labels, mode):
    code = run_cli("count-params", "--scale", "desk", "--num-labels", num_labels, *mode)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
