"""Evaluation suite: per-class binary accuracy and F1, overall non-weighted
mean accuracy, overall weighted F1 (weights = per-class positive support),
and exact-match accuracy for the 7-class task.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import EXCLUSIVE, TASK_CLASSES
from .errors import ContractError
from .losses import _sigmoid_stable

# Keys of ``MetricsReport.overall`` for each task kind, in order; the last is
# the default early-stopping metric.
OVERALL_METRICS = {"multilabel-6": ("mean_accuracy", "weighted_f1"),
                   "binary": ("accuracy",), "multiclass-7": ("accuracy",)}


def confusion(preds, labels) -> tuple[int, int, int, int]:
    """Exact (tp, fp, tn, fn) counts over {0,1} vectors."""
    p = np.asarray(preds)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ContractError(f"length mismatch: preds {p.shape} vs labels {y.shape}")
    tp = int(np.sum((p == 1) & (y == 1)))
    fp = int(np.sum((p == 1) & (y == 0)))
    tn = int(np.sum((p == 0) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))
    return tp, fp, tn, fn


def binary_accuracy(tp: int, fp: int, tn: int, fn: int) -> float:
    n = tp + fp + tn + fn
    if n == 0:
        raise ContractError("accuracy of an empty prediction set")
    return (tp + tn) / n


def precision(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp > 0 else 0.0


def recall(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn > 0 else 0.0


def f1(tp: int, fp: int, fn: int) -> float:
    """2tp / (2tp + fp + fn); defined as 0 when the denominator is 0."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def multiclass_accuracy(preds, labels, num_classes: int = 7) -> float:
    p = np.asarray(preds)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ContractError(f"length mismatch: preds {p.shape} vs labels {y.shape}")
    if p.size == 0:
        raise ContractError("accuracy of an empty prediction set")
    for arr in (p, y):
        if np.any(arr < 0) or np.any(arr >= num_classes):
            raise ContractError(f"class id out of range [0, {num_classes})")
    return int(np.sum(p == y)) / p.size


@dataclass
class ClassMetrics:
    label: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    support: float


@dataclass
class MetricsReport:
    task_kind: str
    split: str
    seed: int | None
    per_class: list[ClassMetrics] = field(default_factory=list)
    overall: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def text_table(self) -> str:
        """Aligned A/F1 table, one column per class plus Overall."""
        headers = [c.label.capitalize() for c in self.per_class]
        cells = [f"{100 * c.accuracy:.1f}/{100 * c.f1:.1f}" for c in self.per_class]
        if self.overall:
            headers.append("Overall")
            cells.append("/".join(f"{100 * v:.1f}" for v in self.overall.values()))
        width = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        head = " | ".join(h.ljust(w) for h, w in zip(headers, width))
        body = " | ".join(c.ljust(w) for c, w in zip(cells, width))
        title = f"task={self.task_kind} split={self.split}"
        if self.seed is not None:
            title += f" seed={self.seed}"
        return f"{title}\n{head}\n{body}"


def _threshold_report(kind: str, logits: np.ndarray, labels: np.ndarray,
                      threshold: float, split: str, seed: int | None) -> MetricsReport:
    """Per-class accuracy/F1 on sigmoid(logit) > threshold decisions, one
    column per class of ``kind``. The overall metrics are the unweighted mean
    accuracy and the F1 weighted by positive support, of which ``kind``
    reports the first len(OVERALL_METRICS[kind])."""
    classes = TASK_CLASSES[kind]
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.shape != labels.shape or logits.ndim != 2 \
            or logits.shape[1] != len(classes):
        raise ContractError(
            f"expected [N, {len(classes)}] logits/labels, got "
            f"{logits.shape} and {labels.shape}")
    preds = (_sigmoid_stable(logits) > threshold).astype(np.int64)
    per_class = []
    for c, label in enumerate(classes):
        tp, fp, tn, fn = confusion(preds[:, c], labels[:, c])
        per_class.append(ClassMetrics(
            label=label, accuracy=binary_accuracy(tp, fp, tn, fn),
            precision=precision(tp, fp), recall=recall(tp, fn),
            f1=f1(tp, fp, fn), support=float(tp + fn)))
    mean_acc = sum(c.accuracy for c in per_class) / len(per_class)
    total_support = sum(c.support for c in per_class)
    if total_support > 0:
        weighted = sum(c.support * c.f1 for c in per_class) / total_support
    else:
        weighted = 0.0
    return MetricsReport(task_kind=kind, split=split, seed=seed,
                         per_class=per_class,
                         overall=dict(zip(OVERALL_METRICS[kind], (mean_acc, weighted))))


def emotion_report(logits: np.ndarray, labels: np.ndarray,
                   threshold: float = 0.5, split: str = "",
                   seed: int | None = None) -> MetricsReport:
    """The threshold report of the six emotions, logits/labels [N, 6]."""
    return _threshold_report("multilabel-6", logits, labels, threshold, split, seed)


def binary_report(logits: np.ndarray, labels: np.ndarray,
                  threshold: float = 0.5, split: str = "",
                  seed: int | None = None) -> MetricsReport:
    """The threshold report of one class, logits/labels [N] or [N, 1]."""
    return _threshold_report("binary", np.reshape(logits, (-1, 1)),
                             np.reshape(labels, (-1, 1)), threshold, split, seed)


def multiclass_report(logits: np.ndarray, labels: np.ndarray, split: str = "",
                      seed: int | None = None) -> MetricsReport:
    logits = np.asarray(logits, dtype=np.float64)
    preds = np.argmax(logits, axis=1)
    acc = multiclass_accuracy(preds, labels, num_classes=logits.shape[1])
    return MetricsReport(task_kind=EXCLUSIVE, split=split, seed=seed,
                         overall={"accuracy": acc})


def early_stop_metric(report: MetricsReport) -> float:
    """Weighted F1 for the emotion task, accuracy otherwise."""
    return report.overall[OVERALL_METRICS[report.task_kind][-1]]


def aggregate_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean of every metric across runs; per-run reports survive."""
    if not reports:
        raise ContractError("no reports to aggregate")
    first = reports[0]
    for r in reports[1:]:
        if r.task_kind != first.task_kind or len(r.per_class) != len(first.per_class):
            raise ContractError("cannot aggregate reports of different shapes")
    n = len(reports)
    metrics = [f.name for f in fields(ClassMetrics) if f.name != "label"]
    per_class = [ClassMetrics(label=base.label, **{
        k: sum(getattr(r.per_class[i], k) for r in reports) / n for k in metrics})
        for i, base in enumerate(first.per_class)]
    overall = {k: sum(r.overall[k] for r in reports) / n for k in first.overall}
    return MetricsReport(task_kind=first.task_kind,
                         split=f"mean-of-{n}", seed=None,
                         per_class=per_class, overall=overall)
