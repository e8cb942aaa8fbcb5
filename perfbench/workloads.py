"""Seeded inputs, set-up and one closed-loop call for each workload.

The benchmark owns its corpus generator, so the inputs for a seed stay the
same whatever the library's own synthetic generator does. The library only
sees what a user would hand it: JSONL corpora on disk and checkpoint files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fuseformer import data, training
from fuseformer.data import EMOTIONS, Splits
from fuseformer.encoder import ModelConfig
from fuseformer.fusion import AdapterBank

WORKLOADS = ("finetune", "fusion5", "evaluate")
# "train": a step is one optimizer step; "eval": a step is one batch forward.
KINDS = {"finetune": "train", "fusion5": "train", "evaluate": "eval"}

TASK = training.TaskSpec(name="emotion", kind="multilabel-6", loss="weighted_bce")
BATCH = 32
SOURCE_TASKS = tuple(f"src{i}" for i in range(5))

# Positive rates of the six emotions in the reference corpus, so the
# imbalance that weighted_bce corrects is present.
PRIORS = (0.52, 0.25, 0.21, 0.10, 0.17, 0.08)
# Filler ranks are log-uniform over a large lexicon (Zipf-like, as in text),
# so every vocabulary cap binds: the model geometry is the same for every
# seed, and the frequency ranking and the [UNK] tail are exercised.
LEXICON = 10**6
VOCAB_ROWS = 2048


@dataclass(frozen=True)
class Sizes:
    train: int
    val: int
    test: int
    heldout: int = 0


FULL = {
    "finetune": Sizes(train=1024, val=64, test=64),
    "fusion5": Sizes(train=640, val=64, test=64),
    "evaluate": Sizes(train=0, val=0, test=0, heldout=2048),
}
TINY = {
    "finetune": Sizes(train=64, val=16, test=16),
    "fusion5": Sizes(train=64, val=16, test=16),
    "evaluate": Sizes(train=0, val=0, test=0, heldout=64),
}


def make_rows(seed: int, n: int, tag: str) -> list[dict]:
    """``n`` mosei-style JSON rows: per-emotion cue words plus skewed filler.

    About ten tokens per line including [CLS]/[SEP], so roughly 31% of a
    32-token row is real and 62% of a 16-token row.
    """
    rng = random.Random(f"perfbench:{tag}:{seed}")
    rows = []
    for i in range(n):
        present = [rng.random() < p for p in PRIORS]
        words = []
        for k, on in enumerate(present):
            for j in range(2):
                if rng.random() < (0.65 if on else 0.08):
                    words.append(f"cue_{EMOTIONS[k]}_{j}")
        words += [f"w{int(LEXICON ** rng.random())}"
                  for _ in range(rng.randint(3, 8))]
        rng.shuffle(words)
        emotions = [round(rng.uniform(0.5, 3.0), 3) if on else 0.0
                    for on in present]
        rows.append({"id": f"{tag}-{i:05d}", "text": " ".join(words),
                     "emotions": emotions})
    return rows


def positives(rows: list[dict]) -> list[float]:
    """Per-emotion positive counts: the support an emotion report must show."""
    return [float(sum(r["emotions"][k] > 0 for r in rows))
            for k in range(len(EMOTIONS))]


def write_rows(rows: list[dict], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def file_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def tensors_digest(tensors: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one call produced: examples processed, a digest of everything
    that must repeat byte for byte, and any failed output checks."""
    examples: int
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """A set-up workload: ``call`` runs the timed work once and ``check``
    turns its result into an Outcome, outside the timed region."""
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    input_digest: str


def _report_problems(report, expected_support: list[float]) -> list[str]:
    problems = []
    support = [c.support for c in report.per_class]
    if support != expected_support:
        problems.append(f"{report.split} support {support} != {expected_support}")
    values = [v for c in report.per_class
              for v in (c.accuracy, c.precision, c.recall, c.f1)]
    values += list(report.overall.values())
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        problems.append(f"{report.split} metric outside [0, 1]")
    return problems


def _training_outcome(result, splits_rows: dict[str, list[dict]]) -> Outcome:
    problems = []
    for entry in result.history:
        if not (math.isfinite(entry["train_loss"])
                and math.isfinite(entry["val_metric"])):
            problems.append(f"non-finite history entry {entry}")
    problems += _report_problems(result.val_report, positives(splits_rows["val"]))
    problems += _report_problems(result.test_report, positives(splits_rows["test"]))
    body = json.dumps({"history": result.history,
                       "val": result.val_report.to_dict(),
                       "test": result.test_report.to_dict(),
                       "params": tensors_digest(result.checkpoint.tensors)},
                      sort_keys=True)
    return Outcome(examples=len(splits_rows["train"]) * len(result.history),
                   digest=hashlib.sha256(body.encode()).hexdigest(),
                   problems=problems)


def _write_splits(seed: int, sizes: Sizes, work: Path) -> tuple[Splits, dict, list[Path]]:
    rows = {name: make_rows(seed, n, name)
            for name, n in (("train", sizes.train), ("val", sizes.val),
                            ("test", sizes.test)) if n}
    paths = [write_rows(r, work / f"{name}.jsonl") for name, r in rows.items()]
    loaded = {name: data.load_corpus(path, "mosei-style")
              for name, path in zip(rows, paths)}
    splits = Splits(train=loaded["train"], val=loaded.get("val", []),
                    test=loaded.get("test", []))
    return splits, rows, paths


def _source_bank(config: ModelConfig, seed: int, tasks, heads: dict,
                 with_fusion: bool) -> AdapterBank:
    """A bank whose encoder comes from ``seed`` and whose adapters hold
    distinct seeded weights, as if each had been trained on its own task.

    The encoder is initialised first from the bank seed, so every bank built
    here with one seed shares it bit for bit.
    """
    bank = AdapterBank(config, heads=heads, adapter_tasks=list(tasks),
                       with_fusion=with_fusion, seed=seed)
    for task in tasks:
        rng = np.random.default_rng([seed, SOURCE_TASKS.index(task)])
        for name in sorted(n for n in bank.params.names()
                           if n.startswith(f"adapters.{task}.")):
            p = bank.params[name]
            p.data = rng.normal(0.0, 0.05, size=p.data.shape)
    return bank


def _shared_vocab(seed: int, work: Path):
    """The vocabulary the stage-1 checkpoints share, built from its own corpus."""
    path = write_rows(make_rows(seed, VOCAB_ROWS, "vocab"), work / "vocab.jsonl")
    vocab = data.build_vocab(data.load_corpus(path, "mosei-style"),
                             training.TrainConfig().vocab_size)
    return vocab, ModelConfig().with_vocab(len(vocab)), path


def _adapter_checkpoints(seed: int, vocab, config: ModelConfig,
                         work: Path) -> list[Path]:
    """Five single-adapter (stage 1) checkpoints over one shared encoder."""
    paths = []
    for task in SOURCE_TASKS:
        bank = _source_bank(config, seed, [task], {task: TASK.num_labels}, False)
        ckpt = training.checkpoint_from_bank(
            bank, seed=seed, stage=f"adapter:{task}", vocab=vocab,
            extra_meta={"task": task, "task_kind": TASK.kind, "loss": TASK.loss})
        paths.append(work / f"adapter-{task}.ckpt")
        training.save_checkpoint(ckpt, paths[-1])
    return paths


def setup_finetune(seed: int, sizes: Sizes, work: Path) -> Prepared:
    splits, rows, paths = _write_splits(seed, sizes, work)
    cfg = training.TrainConfig(lr=1e-3, epochs=1, patience=1, batch_size=BATCH,
                               seed=seed, runs=1, loss=TASK.loss, max_len=16,
                               vocab_size=600)

    return Prepared(lambda: training.train_full(TASK, splits, ModelConfig(), cfg),
                    lambda result: _training_outcome(result, rows),
                    file_digest(paths))


def setup_fusion5(seed: int, sizes: Sizes, work: Path) -> Prepared:
    splits, rows, paths = _write_splits(seed, sizes, work)
    vocab, config, vocab_path = _shared_vocab(seed, work)
    ckpt_paths = _adapter_checkpoints(seed, vocab, config, work)
    ckpts = [training.load_checkpoint(p) for p in ckpt_paths]
    cfg = training.TrainConfig(epochs=1, patience=1, batch_size=BATCH,
                               seed=seed, runs=1, loss=TASK.loss, max_len=32)

    def check(result) -> Outcome:
        outcome = _training_outcome(result, rows)
        for ckpt in ckpts:
            for name, arr in ckpt.tensors.items():
                if name.startswith("heads."):
                    continue
                if not np.array_equal(result.bank.params[name].data, arr):
                    outcome.problems.append(f"frozen parameter {name} changed")
        return outcome

    return Prepared(lambda: training.train_fusion(TASK, ckpts, splits, cfg),
                    check, file_digest(paths + [vocab_path] + ckpt_paths))


def setup_evaluate(seed: int, sizes: Sizes, work: Path) -> Prepared:
    vocab, config, vocab_path = _shared_vocab(seed, work)
    bank = _source_bank(config, seed, SOURCE_TASKS,
                        {TASK.name: TASK.num_labels}, True)
    cfg = training.TrainConfig(batch_size=BATCH, seed=seed, runs=1,
                               loss=TASK.loss, max_len=32)
    ckpt = training.checkpoint_from_bank(
        bank, seed=seed, stage=f"fusion:{TASK.name}", vocab=vocab,
        extra_meta={"task": TASK.name, "task_kind": TASK.kind,
                    "loss": TASK.loss, "train_config": cfg.to_dict()})
    ckpt_path = work / f"fusion-{TASK.name}.ckpt"
    training.save_checkpoint(ckpt, ckpt_path)
    bank, vocab, task = training.bank_from_checkpoint(
        training.load_checkpoint(ckpt_path))
    heldout_rows = make_rows(seed, sizes.heldout, "heldout")
    heldout_path = write_rows(heldout_rows, work / "heldout.jsonl")
    corpus = data.load_corpus(heldout_path, "mosei-style")
    support = positives(heldout_rows)

    def call():
        batches = data.make_batches(corpus, vocab, cfg.max_len, task.kind,
                                    cfg.batch_size)
        return training.evaluate_model(bank, task, batches, cfg.threshold,
                                       split="eval", seed=seed)

    def check(report) -> Outcome:
        return Outcome(examples=len(corpus),
                       digest=hashlib.sha256(report.to_json().encode()).hexdigest(),
                       problems=_report_problems(report, support))

    return Prepared(call, check, file_digest([vocab_path, ckpt_path, heldout_path]))


SETUPS = {"finetune": setup_finetune, "fusion5": setup_fusion5,
          "evaluate": setup_evaluate}
