"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The imbalance-efficacy
criterion trains six desk-scale models and dominates the runtime (a few
minutes); everything else finishes in seconds.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fuseformer.cli import main as cli_main
from fuseformer.data import DEFAULT_CLASS_PRIORS, Splits, synth_corpus
from fuseformer.encoder import ModelConfig
from fuseformer.fusion import AdapterBank, adapter_parameter_count, count_parameters
from fuseformer.losses import PosWeights, bce, focal_multilabel, pos_weights, weighted_bce
from fuseformer.metrics import emotion_report
from fuseformer.tensor import Tensor
from fuseformer.training import (TaskSpec, TrainConfig, group_hashes,
                                 run_experiment, seeded, train_adapter,
                                 train_full, train_fusion)

LN2 = math.log(2.0)


def verdict(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


def scalar(t):
    return float(t.data.reshape(-1)[0])


# ---------------------------------------------------------------------------
# 1. parameter accounting
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_accounting():
    start = time.time()
    full = ModelConfig.full_scale()
    assert (full.num_layers, full.hidden_size, full.reduction_factor,
            full.vocab_size) == (12, 768, 16, 28996)
    single = count_parameters(full, "adapter", num_labels=6)
    fusion3 = count_parameters(full, "fusion", num_tasks=3, num_labels=6)
    fusion5 = count_parameters(full, "fusion", num_tasks=5, num_labels=6)
    finetune = count_parameters(full, "finetune", num_labels=6)
    elapsed = time.time() - start

    ok = (abs(single["trainable"] - 1.5e6) <= 0.1e6
          and abs(fusion3["trainable"] - 21.8e6) <= 0.1e6
          and fusion5["total"] - fusion3["total"]
          == 2 * adapter_parameter_count(full)
          and abs(finetune["total"] - 108.3e6) <= 1.0e6
          and abs(fusion3["total"] - 132.8e6) <= 1.0e6
          and abs(fusion5["total"] - 134.6e6) <= 1.0e6
          and elapsed < 1.0)
    verdict(1, "parameter accounting matches reference budgets", ok,
            f"adapter {single['trainable']:,} / fusion {fusion3['trainable']:,} "
            f"trainable; totals {finetune['total']/1e6:.2f}M, "
            f"{fusion3['total']/1e6:.2f}M, {fusion5['total']/1e6:.2f}M; "
            f"{elapsed*1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. gradient correctness on the desk config
# ---------------------------------------------------------------------------

def test_criterion_2_grad_check_desk_config(capsys):
    start = time.time()
    code = cli_main(["grad-check", "--tol", "1e-4", "--seed", "0"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    blocks_pass = all(f"{b:<12} PASS" in out for b in
                      ("embeddings", "attention", "ff", "adapter", "fusion",
                       "head"))
    ok = code == 0 and blocks_pass and elapsed < 60.0
    verdict(2, "grad-check passes every block at rel err < 1e-4", ok,
            f"exit {code}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. loss identities
# ---------------------------------------------------------------------------

def test_criterion_3_loss_identities():
    rng = np.random.default_rng(30)
    worst_w = worst_f = 0.0
    for _ in range(100):
        b, c = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x = Tensor(rng.uniform(-6, 6, (b, c)))
        y = (rng.random((b, c)) < 0.5).astype(float)
        plain = scalar(bce(x, y))
        worst_w = max(worst_w, abs(
            scalar(weighted_bce(x, y, PosWeights(w=np.ones(c)))) - plain))
        worst_f = max(worst_f, abs(scalar(focal_multilabel(x, y, gamma=0.0))
                                   - plain))
    v1 = scalar(weighted_bce(Tensor([[0.0]]), np.array([[1.0]]),
                             PosWeights(w=np.array([1.0]))))
    v2 = scalar(weighted_bce(Tensor([[0.0]]), np.array([[1.0]]),
                             PosWeights(w=np.array([2.0]))))
    v3 = scalar(focal_multilabel(Tensor([[0.0]]), np.array([[1.0]]), gamma=2.0))
    scalars_ok = (f"{v1:.6f}" == f"{LN2:.6f}"
                  and f"{v2:.6f}" == f"{2 * LN2:.6f}"
                  and f"{v3:.6f}" == f"{0.25 * LN2:.6f}")
    ok = worst_w <= 1e-12 and worst_f <= 1e-12 and scalars_ok
    verdict(3, "loss identities (w=1 BCE, focal gamma=0, closed forms)", ok,
            f"max |dw|={worst_w:.1e}, max |df|={worst_f:.1e}, "
            f"values {v1:.6f}/{v2:.6f}/{v3:.6f}")


# ---------------------------------------------------------------------------
# 4. positive-weight reproduction
# ---------------------------------------------------------------------------

def test_criterion_4_positive_weight_reproduction():
    from fuseformer.data import ClassStats, EMOTIONS
    positives = np.array([52, 25, 21, 10, 17, 8])
    stats = ClassStats(labels=EMOTIONS, positives=positives,
                       negatives=100 - positives)
    w = pos_weights(stats).w
    expected = (100 - positives) / positives
    ok = (np.all(np.round(w, 3) == np.round(expected, 3))
          and round(w[0], 3) == 0.923 and w[5] == 11.5)
    verdict(4, "w_c = negatives/positives from reference proportions", ok,
            "w = " + ", ".join(f"{v:.3f}" for v in w))


# ---------------------------------------------------------------------------
# 5 + 6. freeze protocol and fusion simplex
# ---------------------------------------------------------------------------

def small_model_config():
    return ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ff_size=32,
                       vocab_size=400, max_positions=16, reduction_factor=4)


def small_splits(n=120, seed=17):
    corpus = synth_corpus(seed=seed, n=n)
    k = n // 6
    return Splits(train=corpus[: 4 * k], val=corpus[4 * k: 5 * k],
                  test=corpus[5 * k:])


@pytest.fixture(scope="module")
def fusion_pipeline():
    splits = small_splits()
    cfg = TrainConfig(lr=0.01, epochs=2, patience=2, batch_size=12, seed=5,
                      runs=1, loss="bce", max_len=12, vocab_size=400)
    emotion = TaskSpec(name="emotion", kind="multilabel-6", loss="bce")
    sent2 = TaskSpec(name="sent2", kind="binary", loss="bce")
    r_emo = train_adapter(emotion, splits, small_model_config(), cfg)
    r_s2 = train_adapter(sent2, splits, small_model_config(), cfg,
                         vocab=r_emo.vocab)
    fused = train_fusion(emotion, [r_emo.checkpoint, r_s2.checkpoint], splits,
                         cfg)
    return splits, cfg, emotion, r_emo, r_s2, fused


def test_criterion_5_freeze_protocol(fusion_pipeline):
    splits, cfg, emotion, r_emo, r_s2, fused = fusion_pipeline

    def hash_arrays(tensors, names):
        import hashlib
        blob = b"".join(np.asarray(tensors[n]).astype("<f4").tobytes()
                        for n in sorted(names))
        return hashlib.sha256(blob).hexdigest()

    bank = fused.bank
    after = group_hashes(bank)
    enc_names = bank.groups["encoder"]
    ok_encoder = hash_arrays(r_emo.checkpoint.tensors, enc_names) \
        == after["encoder"]
    ok_adapters = all(
        hash_arrays(ckpt.tensors, bank.groups[f"adapters.{task}"])
        == after[f"adapters.{task}"]
        for ckpt, task in ((r_emo.checkpoint, "emotion"),
                           (r_s2.checkpoint, "sent2")))
    # stage 1: encoder bytes identical to seed-derived initialization
    init = AdapterBank(r_emo.bank.config, heads={"emotion": 6},
                       adapter_tasks=["emotion"], seed=cfg.seed)
    ok_stage1 = r_emo.bank.params.state_bytes(enc_names) \
        == init.params.state_bytes(enc_names)
    ok = ok_encoder and ok_adapters and ok_stage1
    verdict(5, "stage-2 freeze: encoder and adapter bytes hash-identical", ok,
            f"encoder={ok_encoder}, adapters={ok_adapters}, stage1={ok_stage1}")


def test_criterion_6_fusion_simplex(fusion_pipeline):
    from fuseformer.data import make_batches
    splits, cfg, emotion, r_emo, r_s2, fused = fusion_pipeline
    bank = fused.bank
    worst = 0.0
    batches = make_batches(splits.test, fused.vocab, cfg.max_len, emotion.kind,
                           cfg.batch_size)
    for batch in batches:
        bank.forward(batch, emotion.name)
        weights = bank.fusion_weights()
        assert set(weights) == {0, 1}
        for alpha in weights.values():
            worst = max(worst, float(np.abs(alpha.sum(axis=-1) - 1.0).max()))
    ok_sum = worst <= 1e-6

    # T = 1 degenerates to weight exactly 1.0
    single = train_fusion(emotion, [r_emo.checkpoint], splits, cfg)
    single.bank.forward(batches[0], emotion.name)
    ok_one = all(np.all(alpha == 1.0)
                 for alpha in single.bank.fusion_weights().values())
    verdict(6, "fusion weights form a simplex; T=1 weight is exactly 1.0",
            ok_sum and ok_one, f"max |sum-1| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_metric_oracle_equivalence():
    from test_metrics import (TBJE_ACCURACIES, TBJE_REPORTED_OVERALL,
                              naive_emotion_report)
    rng = np.random.default_rng(70)
    mismatches = 0
    for _ in range(1000):
        logits = rng.uniform(-5, 5, (200, 6))
        labels = (rng.random((200, 6)) < rng.uniform(0.03, 0.6, 6)).astype(int)
        report = emotion_report(logits, labels)
        oracle, mean_acc, weighted = naive_emotion_report(logits, labels)
        same = (report.overall["mean_accuracy"] == mean_acc
                and report.overall["weighted_f1"] == weighted
                and all(cm.accuracy == o[0] and cm.precision == o[1]
                        and cm.recall == o[2] and cm.f1 == o[3]
                        and cm.support == o[4]
                        for cm, o in zip(report.per_class, oracle)))
        mismatches += 0 if same else 1
    mean = sum(TBJE_ACCURACIES) / 6
    cross_check = abs(mean - TBJE_REPORTED_OVERALL) < 0.2
    ok = mismatches == 0 and cross_check
    verdict(7, "emotion_report equals naive oracle on 1000 cases; "
               "mean-accuracy reading 81.35 vs 81.5", ok,
            f"{mismatches} mismatches, row mean {mean:.2f}")


# ---------------------------------------------------------------------------
# 8. imbalance efficacy (desk-scale substitute for the full-scale ablation)
# ---------------------------------------------------------------------------

MINORITY = [i for i, p in enumerate(DEFAULT_CLASS_PRIORS) if p <= 0.10]
RAREST_TWO = [5, 3]  # fear (8%), surprise (10%)


def test_criterion_8_imbalance_efficacy():
    start = time.time()
    corpus = synth_corpus(seed=11, n=5500)
    splits = Splits(train=corpus[:4000], val=corpus[4000:4500],
                    test=corpus[4500:5500])
    seeds = (0, 1, 2)
    arm_f1 = {}
    for loss in ("bce", "weighted_bce"):
        task = TaskSpec(name="emotion", kind="multilabel-6", loss=loss)
        per_class = []
        for seed in seeds:
            cfg = TrainConfig(lr=1e-3, epochs=3, patience=3, batch_size=32,
                              seed=seed, runs=1, loss=loss, max_len=16,
                              vocab_size=600)
            result = train_full(task, splits, ModelConfig(), cfg)
            per_class.append([c.f1 for c in result.test_report.per_class])
        arm_f1[loss] = np.mean(per_class, axis=0)  # seed-averaged per-class F1
    elapsed = time.time() - start

    minority_margin = (arm_f1["weighted_bce"][MINORITY].mean()
                       - arm_f1["bce"][MINORITY].mean())
    rarest_ok = all(arm_f1["weighted_bce"][c] > arm_f1["bce"][c]
                    for c in RAREST_TWO)
    ok = minority_margin > 0.0 and rarest_ok and elapsed < 600.0
    verdict(8, "weighted BCE beats BCE on minority-class F1 over 3 seeds", ok,
            f"margin {minority_margin:+.3f} "
            f"(weighted {arm_f1['weighted_bce'][MINORITY].mean():.3f} vs "
            f"bce {arm_f1['bce'][MINORITY].mean():.3f}), "
            f"fear {arm_f1['weighted_bce'][5]:.3f}>{arm_f1['bce'][5]:.3f}, "
            f"surprise {arm_f1['weighted_bce'][3]:.3f}>{arm_f1['bce'][3]:.3f}, "
            f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 9. pipeline fidelity
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_fidelity():
    splits = small_splits(n=90, seed=23)
    emotion = TaskSpec(name="emotion", kind="multilabel-6", loss="bce")

    # plateauing run: 10-epoch cap and patience-3 early stop
    cfg_plateau = TrainConfig(lr=1e-9, epochs=10, patience=3, batch_size=12,
                              seed=2, runs=1, loss="bce", max_len=12,
                              vocab_size=400)
    result = train_adapter(emotion, splits, small_model_config(), cfg_plateau)
    history = result.history
    best = max(range(len(history)), key=lambda i: history[i]["val_metric"]) + 1
    cap_ok = len(history) <= 10
    patience_ok = len(history) <= best + 3 and len(history) == 4

    # three-run experiment with per-run and mean reports, rerun-identical
    cfg = TrainConfig(lr=0.01, epochs=2, patience=2, batch_size=12, seed=3,
                      runs=3, loss="bce", max_len=12, vocab_size=400)

    def run(seed):
        return train_adapter(emotion, splits, small_model_config(),
                             seeded(cfg, seed)).test_report

    reports_a, agg_a = run_experiment(cfg, run)
    reports_b, agg_b = run_experiment(cfg, run)
    rerun_ok = (agg_a.to_json() == agg_b.to_json()
                and [r.to_json() for r in reports_a]
                == [r.to_json() for r in reports_b]
                and len(reports_a) == 3)
    mean_ok = abs(agg_a.overall["mean_accuracy"]
                  - sum(r.overall["mean_accuracy"] for r in reports_a) / 3) \
        <= 1e-12
    ok = cap_ok and patience_ok and rerun_ok and mean_ok
    verdict(9, "10-epoch cap, patience-3 stop, 3-run averaging, "
               "byte-identical reruns", ok,
            f"history len {len(history)} (best epoch {best}), "
            f"reruns identical={rerun_ok}")


# ---------------------------------------------------------------------------
# 10. non-reproducibility statement
# ---------------------------------------------------------------------------

def test_criterion_10_readme_documents_non_reproducibility():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    ok = readme.exists()
    text = readme.read_text(encoding="utf-8").lower() if ok else ""
    needles = ("pretrained", "53.7", "random initialization")
    ok = ok and all(n in text for n in needles) \
        and ("not reproduce" in text or "are not reproduced" in text
             or "cannot be reproduced" in text)
    verdict(10, "README states which published scores are out of desk reach",
            ok)
