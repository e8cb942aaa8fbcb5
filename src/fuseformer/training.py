"""AdamW with decoupled weight decay, linear LR schedule, early stopping,
the two-stage adapter/fusion training pipeline, serial multi-run averaging,
binary checkpointing, and the block-wise gradient check.

Each ``train_*`` function sets one stage (``fusion.STAGES``) on its bank
and records it in the checkpoint meta as ``"<stage>:<task>"``;
``bank_from_checkpoint`` rebuilds that stage or raises CheckpointError.
``train_fusion`` also returns the stage-2 freeze audit.

Checkpoint wire format: 8-byte magic "AFCKPT01", little-endian u64 manifest
length, UTF-8 JSON manifest {name -> {shape, dtype:"f32", offset}} plus a
reserved "__meta__" entry (config snapshot, RNG seed, stage tag, vocab),
then the contiguous little-endian float32 payload in the bank's table order,
which gives its adapter order; the tensor names give the rest of its layout
(``fusion.bank_layout``). The entries must tile the payload exactly:
non-negative integer dimensions and offsets, no gap, no overlap, no trailing
bytes. Meta entries must have their ``META_TYPES``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .data import (EXCLUSIVE, TASK_CLASSES, Batch, Splits, Vocabulary,
                   build_vocab, class_statistics, gather_batches, make_batches,
                   tokenize_split)
from .encoder import ModelConfig, config_kwargs, has_type
from .errors import (CheckpointError, ConfigError, ContractError,
                     NumericalDivergenceError)
from .fusion import AdapterBank, bank_layout
from .losses import (LOSS_NAMES, REDUCTIONS, PosWeights,
                     cross_entropy_7, multilabel_loss, pos_weights, weighted_bce)
from .metrics import (OVERALL_METRICS, MetricsReport, aggregate_reports,
                      binary_report, early_stop_metric, emotion_report,
                      multiclass_report)
from .runtime import steady_process
from .tensor import (FDReport, ParameterStore, Tensor, backward,
                     finite_difference_check, no_grad)

CHECKPOINT_MAGIC = b"AFCKPT01"
META_KEY = "__meta__"
NO_DECAY_SUFFIXES = (".bias", ".gamma", ".beta")
# meta entries checked on load; model_config and train_config are checked
# where they are used, by config_from_meta
META_TYPES = {"seed": int, "stage": str, "task_kind": str, "loss": str,
              "vocab": list[str]}


@dataclass(frozen=True)
class TaskSpec:
    """A named task binding a dataset kind, a head width, and a loss."""
    name: str
    kind: str
    loss: str = "bce"

    def __post_init__(self):
        if self.kind not in TASK_CLASSES:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.kind == EXCLUSIVE:
            object.__setattr__(self, "loss", "ce")
        elif self.loss not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}")

    @property
    def num_labels(self) -> int:
        return len(TASK_CLASSES[self.kind])


@dataclass
class TrainConfig:
    lr: float = 1e-5
    weight_decay: float = 1e-2
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    epochs: int = 10
    patience: int = 3
    batch_size: int = 16
    seed: int = 0
    runs: int = 3
    loss: str = "weighted_bce"
    metric_for_early_stop: str | None = None  # default: weighted F1 / accuracy
    max_len: int = 32
    warmup_steps: int = 0
    loss_reduction: str = "batch-mean"
    threshold: float = 0.5
    focal_gamma: float = 2.0
    focal_alpha: float | None = None
    vocab_size: int = 2000

    def __post_init__(self):
        self.betas = (float(self.betas[0]), float(self.betas[1]))
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr {self.lr} must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay {self.weight_decay} must be finite and >= 0")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps {self.adam_eps} must be positive")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError(f"betas {list(self.betas)} must lie in [0, 1)")
        if self.epochs <= 0 or self.patience <= 0:
            raise ConfigError("epochs and patience must be positive")
        if self.patience > self.epochs:
            raise ConfigError(
                f"patience {self.patience} exceeds epochs {self.epochs}")
        if self.batch_size <= 0 or self.runs <= 0:
            raise ConfigError("batch_size and runs must be positive")
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}")
        if self.loss_reduction not in REDUCTIONS:
            raise ConfigError(f"unknown loss_reduction {self.loss_reduction!r}; "
                              f"expected one of {REDUCTIONS}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold {self.threshold} must lie in (0, 1)")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps {self.warmup_steps} must be >= 0")
        reported = sorted({m for names in OVERALL_METRICS.values() for m in names})
        if self.metric_for_early_stop not in (None, *reported):
            raise ConfigError(
                f"metric_for_early_stop {self.metric_for_early_stop!r} is reported by "
                f"no task kind; expected one of {reported}")

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        return cls(**config_kwargs(cls, d))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """AdamW's state over parameters of one ``ParameterStore``: flat first
    and second moments ``m`` and ``v`` and the weight-decay mask ``decay``
    (1 where decay applies, 0 for biases and layer-norm gains and shifts),
    laid out over ``runs``, the runs of the store's buffers that the
    parameters cover. The first ``adamw_step`` call lays it out from its
    parameters; later calls must pass the same ones."""

    def __init__(self):
        self.runs: list[slice] = []
        self.m = self.v = self.decay = None
        # per run: parameters, gradients, m, v, decay and two scratch vectors
        self.views: list[tuple[np.ndarray, ...]] = []

    def lay_out(self, params: list[tuple[str, Tensor]]) -> None:
        data, grad, self.runs = ParameterStore.runs(params)
        if not self.runs:
            raise ContractError("adamw_step needs at least one parameter")
        _, _, decaying = ParameterStore.runs(
            [(n, p) for n, p in params if not n.endswith(NO_DECAY_SUFFIXES)])
        size = sum(run.stop - run.start for run in self.runs)
        self.m, self.v, self.decay = (np.zeros(size, data.dtype) for _ in range(3))
        scratch = np.empty((2, size), data.dtype)
        at = slice(0, 0)
        for run in self.runs:
            at = slice(at.stop, at.stop + run.stop - run.start)
            decay = self.decay[at]
            for part in decaying:  # each lies inside one run
                if run.start <= part.start < run.stop:
                    decay[part.start - run.start:part.stop - run.start] = 1.0
            self.views.append((data[run], grad[run], self.m[at], self.v[at], decay,
                               scratch[0, at], scratch[1, at]))


def adamw_step(params: list[tuple[str, Tensor]], state: AdamState, t: int,
               lr_t: float, config: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update of ``params``, parameters of
    one ``ParameterStore``, as about fifteen in-place vector ops over each
    run of the store's buffers they cover.

    Decay is skipped for biases and layer-norm gains/shifts. Every parameter
    is updated: one that no op reached has a zero gradient, so its moments
    still decay and weight decay still applies. The arithmetic is the
    per-parameter update ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g
    g``, ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, then ``p -= lr wd p``,
    with each expression evaluated in that order, so the flat update
    matches it bit for bit.
    """
    if t < 1:
        raise ContractError(f"step index must be >= 1, got {t}")
    if state.m is None:
        state.lay_out(params)
    b1, b2 = config.betas
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, m, v, decay, a, b in state.views:
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += config.adam_eps
        np.divide(m, c1, out=a)
        a *= lr_t
        a /= b
        p -= a
        if config.weight_decay:
            np.multiply(p, decay, out=a)
            a *= lr_t * config.weight_decay
            p -= a


def lr_schedule(step: int, total_steps: int, base_lr: float,
                warmup_steps: int = 0) -> float:
    """Linear decay to zero, with an optional linear warmup prefix."""
    if total_steps <= 0:
        raise ContractError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps < 0 or warmup_steps >= total_steps:
        raise ContractError(
            f"warmup_steps {warmup_steps} must lie in [0, {total_steps})")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def checkpoint_from_bank(bank: AdapterBank, seed: int, stage: str,
                         vocab: Vocabulary | None = None,
                         extra_meta: dict | None = None) -> Checkpoint:
    tensors = {name: t.data.copy() for name, t in bank.params.items()}
    meta = {"model_config": asdict(bank.config), "seed": seed, "stage": stage}
    if vocab is not None:
        meta["vocab"] = vocab.tokens[4:]
    if extra_meta:
        meta.update(extra_meta)
    return Checkpoint(tensors=tensors, meta=meta)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    path = Path(path)
    manifest: dict = {META_KEY: ckpt.meta}
    payload_parts = []
    offset = 0
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        raw = arr.tobytes()
        manifest[name] = {"shape": list(arr.shape), "dtype": "f32",
                          "offset": offset}
        payload_parts.append(raw)
        offset += len(raw)
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob = (CHECKPOINT_MAGIC + struct.pack("<Q", len(manifest_bytes))
            + manifest_bytes + b"".join(payload_parts))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(path) -> Checkpoint:
    """Validate the manifest before touching the payload; errors name the
    offending entry."""
    blob = Path(path).read_bytes()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("file too short for header")
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}")
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    manifest_end = 16 + manifest_len
    if manifest_end > len(blob):
        raise CheckpointError("manifest length exceeds file size")
    try:
        manifest = json.loads(blob[16:manifest_end].decode("utf-8"))
    # bad UTF-8 or JSON, an int over the digit limit, too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    meta = manifest.pop(META_KEY, {})
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta is not a JSON object")
    for key, hint in META_TYPES.items():
        if key in meta and not has_type(meta[key], hint):
            raise CheckpointError(f"checkpoint meta {key!r} has the wrong type: "
                                  f"{meta[key]!r:.60}")
    entries = []
    for name, entry in manifest.items():
        if (not isinstance(entry, dict) or not isinstance(entry.get("shape"), list)
                or "offset" not in entry):
            raise CheckpointError(f"malformed manifest entry for {name!r}")
        if entry.get("dtype") != "f32":
            raise CheckpointError(
                f"unsupported dtype {entry.get('dtype')!r} for {name!r}")
        shape, offset = entry["shape"], entry["offset"]
        if not all(_is_count(d) for d in shape):
            raise CheckpointError(
                f"shape {shape} of entry {name!r} is not a list of "
                f"non-negative integers")
        if not _is_count(offset):
            raise CheckpointError(
                f"offset {offset!r} of entry {name!r} is not a non-negative integer")
        entries.append((offset, name, tuple(shape)))
    # the entries must tile the payload: contiguous, no overlap, no tail
    payload = blob[manifest_end:]
    tensors: dict[str, np.ndarray] = {}
    end = 0
    for offset, name, shape in sorted(entries):
        if offset != end:
            raise CheckpointError(
                f"entry {name!r} starts at byte {offset} of the payload, "
                f"expected {end} (gap or overlap)")
        count = math.prod(shape)
        end = offset + 4 * count
        if end > len(payload):
            raise CheckpointError(
                f"truncated payload for entry {name!r} "
                f"(needs bytes [{offset}, {end}), payload has {len(payload)})")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).copy()
    if end != len(payload):
        where = f" after entry {max(entries)[1]!r}" if entries else ""
        raise CheckpointError(
            f"{len(payload) - end} trailing payload bytes{where}")
    return Checkpoint(tensors=tensors, meta=meta)


def load_into_bank(bank: AdapterBank, ckpt: Checkpoint, names: Iterable[str]) -> None:
    """Copy the checkpoint values of ``names`` into the bank's parameters, in
    the bank's dtype."""
    for name in names:
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint is missing entry {name!r}")
        if name not in bank.params:
            raise CheckpointError(f"model has no parameter {name!r}")
        src = ckpt.tensors[name]
        dst = bank.params[name]
        if src.shape != dst.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {src.shape} vs "
                f"model {dst.data.shape}")
        bank.params.assign(name, src)


def group_hashes(bank: AdapterBank,
                 tensors: Mapping[str, np.ndarray] | None = None) -> dict[str, str]:
    """sha256 of each freeze group's float32 bytes in sorted name order, fed
    one tensor at a time.

    Values are read from ``tensors`` ({name: array}) when given, else from
    the bank's parameters; groups that ``tensors`` does not fully cover are
    left out.
    """
    if tensors is None:
        tensors = {name: t.data for name, t in bank.params.items()}
    hashes = {}
    for g, names in bank.groups.items():
        if all(n in tensors for n in names):
            h = hashlib.sha256()
            for n in sorted(names):
                h.update(np.ascontiguousarray(tensors[n], dtype="<f4"))
            hashes[g] = h.hexdigest()
    return hashes


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    bank: AdapterBank
    vocab: Vocabulary
    task: TaskSpec
    history: list[dict]
    best_epoch: int
    val_report: MetricsReport | None
    test_report: MetricsReport | None
    checkpoint: Checkpoint
    # train_fusion only: {group: {"before", "after", "frozen"}} over the
    # groups stage 2 freezes, "before" hashed from the adapter checkpoints
    audit: dict[str, dict] = field(default_factory=dict)


def _batch_loss(bank: AdapterBank, task: TaskSpec, batch: Batch,
                weights: PosWeights | None, cfg: TrainConfig) -> Tensor:
    logits = bank.forward(batch, task.name)
    if task.kind == EXCLUSIVE:
        return cross_entropy_7(logits, batch.labels, reduction=cfg.loss_reduction)
    return multilabel_loss(task.loss, logits, batch.labels, weights=weights,
                           gamma=cfg.focal_gamma, alpha=cfg.focal_alpha,
                           reduction=cfg.loss_reduction)


def evaluate_model(bank: AdapterBank, task: TaskSpec, batches: list[Batch],
                   threshold: float = 0.5, split: str = "",
                   seed: int | None = None) -> MetricsReport:
    if not batches:
        raise ConfigError(f"empty split {split!r}")
    steady_process()
    with no_grad():
        logits = np.concatenate([bank.forward(b, task.name).data for b in batches])
    labels = np.concatenate([b.labels for b in batches])
    if task.kind == "multilabel-6":
        return emotion_report(logits, labels, threshold, split=split, seed=seed)
    if task.kind == "binary":
        return binary_report(logits, labels, threshold, split=split, seed=seed)
    return multiclass_report(logits, labels, split=split, seed=seed)


def fit(bank: AdapterBank, task: TaskSpec, splits: Splits, vocab: Vocabulary,
        cfg: TrainConfig) -> tuple[list[dict], int, MetricsReport]:
    """Epoch loop with patience-based early stopping on the validation
    metric; the best-metric trainable parameters are restored at the end.
    Returns the history, the best epoch and its validation report, which
    is the report of the restored parameters. The task's loss is trained;
    outside ``EXCLUSIVE`` tasks, ``cfg.loss`` must name the same loss."""
    if not splits.train:
        raise ConfigError("empty training split")
    if not splits.val:
        raise ConfigError("empty validation split")
    if task.kind != EXCLUSIVE and cfg.loss != task.loss:
        raise ConfigError(f"config loss {cfg.loss!r} is not task {task.name!r}'s "
                          f"loss {task.loss!r}")
    if cfg.max_len > bank.config.max_positions:
        raise ConfigError(f"max_len {cfg.max_len} exceeds the model's "
                          f"max_positions {bank.config.max_positions}")
    steady_process()
    metric_names = OVERALL_METRICS[task.kind]
    if cfg.metric_for_early_stop not in (None, *metric_names):
        raise ConfigError(
            f"metric_for_early_stop {cfg.metric_for_early_stop!r} is not reported "
            f"for task kind {task.kind}; expected one of {metric_names}")
    weights = None
    if task.loss == "weighted_bce":
        weights = pos_weights(class_statistics(splits.train, task.kind))
    val_batches = make_batches(splits.val, vocab, cfg.max_len, task.kind,
                               cfg.batch_size)
    train_split = tokenize_split(splits.train, vocab, cfg.max_len, task.kind)
    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    steps_per_epoch = math.ceil(len(splits.train) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    trainable = [(n, bank.params[n]) for n in bank.params.trainable_names()]
    # raises on a parameter detached from the store's buffers
    data, _, runs = bank.params.runs(trainable)
    t = 0
    best_metric = -math.inf
    best_epoch = 0
    best_snapshot: list[np.ndarray] = []
    best_report: MetricsReport | None = None
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        for batch in gather_batches(train_split, rng.permutation(len(splits.train)),
                                    cfg.batch_size):
            t += 1
            lr_t = lr_schedule(t - 1, total_steps, cfg.lr, cfg.warmup_steps)
            bank.params.zero_grad()
            loss = _batch_loss(bank, task, batch, weights, cfg)
            value = float(loss.data.reshape(-1)[0])
            if not math.isfinite(value):
                raise NumericalDivergenceError(
                    f"non-finite loss {value} at epoch {epoch} step {t} "
                    f"(lr {lr_t:g}, task {task.name})")
            backward(loss)
            adamw_step(trainable, state, t, lr_t, cfg)
            epoch_loss += value
        val_report = evaluate_model(bank, task, val_batches, cfg.threshold,
                                    split="val", seed=cfg.seed)
        if cfg.metric_for_early_stop is not None:
            metric = val_report.overall[cfg.metric_for_early_stop]
        else:
            metric = early_stop_metric(val_report)
        history.append({"epoch": epoch,
                        "train_loss": epoch_loss / steps_per_epoch,
                        "val_metric": metric})
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snapshot = [data[run].copy() for run in runs]
            best_report = val_report
        elif epoch - best_epoch >= cfg.patience:
            break
    for run, saved in zip(runs, best_snapshot):
        data[run] = saved
    return history, best_epoch, best_report


def train_adapter(task: TaskSpec, splits: Splits, model_config: ModelConfig,
                  cfg: TrainConfig, vocab: Vocabulary | None = None) -> TrainResult:
    """Stage 1: one task adapter plus its head, encoder frozen."""
    return _train_new_bank("adapter", task, splits, model_config, cfg, vocab)


def train_full(task: TaskSpec, splits: Splits, model_config: ModelConfig,
               cfg: TrainConfig, vocab: Vocabulary | None = None) -> TrainResult:
    """Whole-encoder fine-tuning with no adapter slot (baseline analog)."""
    return _train_new_bank("finetune", task, splits, model_config, cfg, vocab)


def _train_new_bank(stage: str, task: TaskSpec, splits: Splits,
                    model_config: ModelConfig, cfg: TrainConfig,
                    vocab: Vocabulary | None) -> TrainResult:
    """Fit a freshly seeded bank, with the task's adapter for "adapter", at
    ``stage``."""
    if not splits.train or not splits.val:
        raise ConfigError("training needs non-empty train and val splits")
    if vocab is None:
        vocab = build_vocab(splits.train, cfg.vocab_size)
    config = model_config.with_vocab(len(vocab))
    bank = AdapterBank(config, heads={task.name: task.num_labels},
                       adapter_tasks=[task.name] if stage == "adapter" else [],
                       seed=cfg.seed)
    bank.set_stage(stage, task.name)
    return _finish(bank, task, splits, vocab, cfg)


def train_fusion(target_task: TaskSpec, adapter_checkpoints: list[Checkpoint],
                 splits: Splits, cfg: TrainConfig) -> TrainResult:
    """Stage 2: fusion attention plus the target head train; the encoder and
    every single adapter stay bit-identical to their checkpoints."""
    if not adapter_checkpoints:
        raise ConfigError("fusion training needs at least one adapter checkpoint")
    base = adapter_checkpoints[0].meta
    tasks = []
    for ckpt in adapter_checkpoints:
        if ckpt.meta.get("model_config") != base.get("model_config"):
            raise CheckpointError("adapter checkpoints disagree on model config")
        if ckpt.meta.get("vocab") != base.get("vocab"):
            raise CheckpointError("adapter checkpoints disagree on vocabulary")
        _, ckpt_tasks, _ = bank_layout(ckpt.tensors)
        if len(ckpt_tasks) != 1:
            raise CheckpointError(
                f"expected a single-adapter checkpoint, found tasks {ckpt_tasks}")
        tasks.append(ckpt_tasks[0])
    if len(set(tasks)) != len(tasks):
        raise CheckpointError(f"duplicate adapter tasks across checkpoints: {tasks}")
    config = config_from_meta(ModelConfig, base, "model_config")
    vocab = vocab_from_meta(base, config)
    bank = AdapterBank(config, heads={target_task.name: target_task.num_labels},
                       adapter_tasks=tasks, with_fusion=True, seed=cfg.seed)
    encoder_names = bank.groups["encoder"]
    load_into_bank(bank, adapter_checkpoints[0], encoder_names)
    for ckpt, task_name in zip(adapter_checkpoints, tasks):
        for name in encoder_names:
            if name not in ckpt.tensors:
                raise CheckpointError(f"adapter checkpoint for task {task_name!r} "
                                      f"is missing entry {name!r}")
            if not np.array_equal(ckpt.tensors[name],
                                  adapter_checkpoints[0].tensors[name]):
                raise CheckpointError(
                    f"adapter checkpoints carry different encoder weights "
                    f"(first differs at {name!r})")
        load_into_bank(bank, ckpt, bank.groups[f"adapters.{task_name}"])
    bank.set_stage("fusion", target_task.name)
    result = _finish(bank, target_task, splits, vocab, cfg)
    before = group_hashes(bank, {name: arr for ckpt in adapter_checkpoints
                                 for name, arr in ckpt.tensors.items()})
    after = group_hashes(bank)
    result.audit = {g: {"before": before[g], "after": after[g],
                        "frozen": before[g] == after[g]}
                    for g, names in bank.groups.items()
                    if not any(bank.params[n].requires_grad for n in names)}
    return result


def _finish(bank: AdapterBank, task: TaskSpec, splits: Splits,
            vocab: Vocabulary, cfg: TrainConfig) -> TrainResult:
    """``fit``, then evaluate the test split and checkpoint the bank under
    the meta stage ``"<bank.stage>:<task>"``."""
    history, best_epoch, val_report = fit(bank, task, splits, vocab, cfg)
    test_report = None
    if splits.test:
        test_batches = make_batches(splits.test, vocab, cfg.max_len, task.kind,
                                    cfg.batch_size)
        test_report = evaluate_model(bank, task, test_batches, cfg.threshold,
                                     split="test", seed=cfg.seed)
    ckpt = checkpoint_from_bank(
        bank, seed=cfg.seed, stage=f"{bank.stage}:{task.name}", vocab=vocab,
        extra_meta={"task_kind": task.kind, "loss": task.loss,
                    "train_config": cfg.to_dict()})
    return TrainResult(bank=bank, vocab=vocab, task=task, history=history,
                       best_epoch=best_epoch, val_report=val_report,
                       test_report=test_report, checkpoint=ckpt)


def config_from_meta(cls, meta: dict, key: str):
    """``cls.from_dict(meta[key])``; a missing or malformed entry raises
    CheckpointError."""
    if key not in meta:
        raise CheckpointError(f"checkpoint meta is missing {key!r}")
    try:
        return cls.from_dict(meta[key])
    except (ConfigError, ContractError) as exc:
        raise CheckpointError(f"checkpoint {key}: {exc}") from None


def vocab_from_meta(meta: dict, config: ModelConfig) -> Vocabulary:
    """The vocabulary in checkpoint meta ``vocab``: one token, specials
    included, per row of the embedding table (``config.vocab_size``). A
    missing, duplicated or misfit vocabulary raises CheckpointError."""
    if "vocab" not in meta:
        raise CheckpointError("checkpoint meta is missing 'vocab'")
    try:
        vocab = Vocabulary(meta["vocab"])
    except ContractError as exc:
        raise CheckpointError(f"checkpoint vocab: {exc}") from None
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"checkpoint vocabulary has {len(vocab)} tokens with the specials, "
            f"but the embedding table has {config.vocab_size} rows")
    return vocab


def bank_from_checkpoint(ckpt: Checkpoint) -> tuple[AdapterBank, Vocabulary, TaskSpec]:
    """Rebuild a model from a saved checkpoint: the layout its tensor names
    give (``fusion.bank_layout``), loaded entry for entry, at the stage its
    meta ``stage`` ("<stage>:<task>") names. A missing or extra entry, or a
    stage or task this library cannot rebuild, raises CheckpointError."""
    meta = ckpt.meta
    for key in ("stage", "task_kind"):
        if key not in meta:
            raise CheckpointError(f"checkpoint meta is missing {key!r}")
    stage, _, task_name = meta["stage"].partition(":")
    try:
        task = TaskSpec(name=task_name, kind=meta["task_kind"],
                        loss=meta.get("loss", "bce"))
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint meta: {exc}") from None
    config = config_from_meta(ModelConfig, meta, "model_config")
    bank = AdapterBank(config, *bank_layout(ckpt.tensors))
    load_into_bank(bank, ckpt, dict.fromkeys([*bank.params.names(), *ckpt.tensors]))
    try:
        bank.set_stage(stage, task.name)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint stage {meta['stage']!r}: {exc}") from None
    vocab = vocab_from_meta(meta, config)
    return bank, vocab, task


# ---------------------------------------------------------------------------
# block-wise gradient check
# ---------------------------------------------------------------------------

GRAD_CHECK_BLOCKS = ("embeddings", "attention", "ff", "adapter", "fusion", "head")


def _block_of(name: str) -> str:
    if name.startswith("embeddings."):
        return "embeddings"
    if ".attention." in name:
        return "attention"
    if ".ff." in name:
        return "ff"
    if name.startswith("adapters."):
        return "adapter"
    if name.startswith("fusion."):
        return "fusion"
    return "head"


def grad_check(seed: int, h: float, tol: float, max_coords: int | None,
               grad_transform: Callable[[str, np.ndarray], np.ndarray] | None = None
               ) -> dict[str, FDReport]:
    """Central-difference check of every parameter of a seeded float64 desk
    bank at the fusion wiring (two adapters), on a 2 x 6 batch with one
    padded key under the weighted BCE loss. Every parameter is trainable,
    so every block is checked. Returns one report per ``GRAD_CHECK_BLOCKS``
    entry, over that block's parameters, in that order; ``grad_transform``
    is passed to ``finite_difference_check``."""
    config = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                         ff_size=256, vocab_size=24, max_positions=8)
    # central differences need float64: at float32 a 1e-5 step is noise
    bank = AdapterBank(config, heads={"emotion": 6},
                       adapter_tasks=["sent2", "emotion"], with_fusion=True,
                       seed=seed, dtype=np.float64)
    bank.set_stage("fusion", "emotion")
    bank.params.set_requires_grad(bank.params.names(), True)
    rng = np.random.default_rng(seed)
    b, l = 2, 6
    ids = rng.integers(4, config.vocab_size, size=(b, l))
    ids[:, 0] = 2
    mask = np.ones((b, l), dtype=np.int64)
    mask[0, l - 1] = 0
    labels = (rng.random((b, 6)) < 0.5).astype(np.float64)
    batch = Batch(token_ids=ids, attention_mask=mask,
                  segment_ids=np.zeros_like(ids), labels=labels)
    weights = PosWeights(w=np.array([0.92, 3.0, 3.76, 9.0, 4.88, 11.5]))
    report = finite_difference_check(
        lambda: weighted_bce(bank.forward(batch, "emotion"), labels, weights),
        bank.params.items(), h=h, tol=tol, max_coords_per_block=max_coords,
        rng=np.random.default_rng(seed + 1), grad_transform=grad_transform)
    by_block = {blk: FDReport(tol=tol) for blk in GRAD_CHECK_BLOCKS}
    for check in report.blocks:
        by_block[_block_of(check.name)].blocks.append(check)
    return by_block


# ---------------------------------------------------------------------------
# multi-run averaging
# ---------------------------------------------------------------------------

def run_experiment(cfg: TrainConfig,
                   run_fn: Callable[[int], MetricsReport]
                   ) -> tuple[list[MetricsReport], MetricsReport]:
    """Execute ``runs`` seeded replicas (seed, seed+1, ...) one after
    another in the calling thread, and average."""
    reports = [run_fn(cfg.seed + i) for i in range(cfg.runs)]
    return reports, aggregate_reports(reports)


def seeded(cfg: TrainConfig, seed: int) -> TrainConfig:
    return replace(cfg, seed=seed)
