"""Corpus loading, label derivation, vocabulary, tokenization, and the
synthetic imbalanced-corpus generator.

Corpora are UTF-8 JSONL. A mosei-style line carries a sentiment value in
[-3, 3] and/or six emotion intensities in [0, 3]; a binary-style line
carries a 0/1 label. Unknown fields are ignored.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractError, CorpusError

EMOTIONS = ("joy", "sadness", "anger", "surprise", "disgust", "fear")

# the classes of each task kind, one head output per class
TASK_CLASSES = {"binary": ("positive",),
                "multiclass-7": tuple(f"class_{i}" for i in range(7)),
                "multilabel-6": EMOTIONS}
# the one kind whose label is a class id; in the others each class is 0/1
EXCLUSIVE = "multiclass-7"

# positive-sample proportions of the six emotion classes in the reference
# corpus; used as default priors for the synthetic generator
DEFAULT_CLASS_PRIORS = (0.52, 0.25, 0.21, 0.10, 0.17, 0.08)

NEGATIVE = 0
NON_NEGATIVE = 1


@dataclass
class RawExample:
    id: str
    text: str
    sentiment: float | None = None
    emotions: tuple[float, ...] | None = None
    binary_label: int | None = None


@dataclass
class Batch:
    token_ids: np.ndarray      # int [B, L], position 0 is [CLS]; L is the longest row
    attention_mask: np.ndarray  # {0,1} [B, L], 1 on the real tokens of each row
    segment_ids: np.ndarray    # zeros [B, L]
    labels: np.ndarray         # task-dependent

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


@dataclass
class ClassStats:
    labels: tuple[str, ...]
    positives: np.ndarray
    negatives: np.ndarray

    @property
    def total(self) -> int:
        return int(self.positives[0] + self.negatives[0])


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _check_sentiment(value, line: int) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CorpusError(f"sentiment must be a number, got {value!r}", line)
    # compared before float(), which overflows on a huge integer
    if not -3.0 <= value <= 3.0:
        raise CorpusError(f"sentiment {value!r:.40} outside [-3, 3]", line)
    return float(value)


def _check_emotions(value, line: int) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise CorpusError(f"emotions must be a list, got {value!r}", line)
    if len(value) != len(EMOTIONS):
        raise CorpusError(
            f"emotions must have {len(EMOTIONS)} entries, got {len(value)}", line)
    out = []
    for v in value:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise CorpusError(f"emotion intensity must be a number, got {v!r}", line)
        if not 0.0 <= v <= 3.0:
            raise CorpusError(f"emotion intensity {v!r:.40} outside [0, 3]", line)
        out.append(float(v))
    return tuple(out)


def load_corpus(path, schema: str) -> list[RawExample]:
    """Read a JSONL corpus, validating every line; errors carry line numbers."""
    if schema not in ("mosei-style", "binary-style"):
        raise ContractError(f"unknown corpus schema {schema!r}")
    path = Path(path)
    examples: list[RawExample] = []
    # bytes that are not UTF-8 decode to lone surrogates, which no decoded
    # text holds otherwise, so the line they sit on can be named
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError("line is not valid UTF-8", lineno) from None
            try:
                obj = json.loads(raw)
            # bad JSON, an int over the digit limit, nesting past the recursion limit
            except (ValueError, RecursionError) as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise CorpusError(f"malformed JSON ({msg})", lineno) from None
            if not isinstance(obj, dict):
                raise CorpusError("line is not a JSON object", lineno)
            for key in ("id", "text"):
                if key not in obj:
                    raise CorpusError(f"missing required field {key!r}", lineno)
                if not isinstance(obj[key], str):
                    raise CorpusError(f"field {key!r} must be a string", lineno)
            ex = RawExample(id=obj["id"], text=obj["text"])
            if schema == "mosei-style":
                if "sentiment" in obj:
                    ex.sentiment = _check_sentiment(obj["sentiment"], lineno)
                if "emotions" in obj:
                    ex.emotions = _check_emotions(obj["emotions"], lineno)
                if ex.sentiment is None and ex.emotions is None:
                    raise CorpusError(
                        "mosei-style line needs a sentiment or emotions field", lineno)
            else:
                if "binary_label" not in obj:
                    raise CorpusError("missing required field 'binary_label'", lineno)
                if obj["binary_label"] not in (0, 1) or isinstance(obj["binary_label"], bool):
                    raise CorpusError(
                        f"binary_label must be 0 or 1, got {obj['binary_label']!r}", lineno)
                ex.binary_label = int(obj["binary_label"])
            examples.append(ex)
    return examples


def write_corpus(examples: list[RawExample], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ex in examples:
            obj: dict = {"id": ex.id, "text": ex.text}
            if ex.sentiment is not None:
                obj["sentiment"] = ex.sentiment
            if ex.emotions is not None:
                obj["emotions"] = list(ex.emotions)
            if ex.binary_label is not None:
                obj["binary_label"] = ex.binary_label
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# label derivation
# ---------------------------------------------------------------------------

def binarize_sentiment(s: float) -> int:
    """NEGATIVE iff s < 0, NON_NEGATIVE otherwise."""
    if not -3.0 <= s <= 3.0:
        raise ContractError(f"sentiment {s} outside [-3, 3]")
    return NEGATIVE if s < 0 else NON_NEGATIVE


def discretize_sentiment_7(s: float) -> int:
    """Round half away from zero, clamp to [-3, 3], shift to class ids 0..6."""
    if not -3.0 <= s <= 3.0:
        raise ContractError(f"sentiment {s} outside [-3, 3]")
    r = int(math.copysign(math.floor(abs(s) + 0.5), s))
    r = max(-3, min(3, r))
    return r + 3


def binarize_emotions(e, ids: Sequence[str] | None = None) -> np.ndarray:
    """Component i of each [..., 6] row is 1 iff intensity i > 0; several
    classes may be present. ``ids`` name the rows, in order, in errors."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim == 0 or e.shape[-1] != len(EMOTIONS):
        raise ContractError(f"expected {len(EMOTIONS)} emotion values, got shape {e.shape}")
    rows = e.reshape(-1, len(EMOTIONS))
    bad = np.flatnonzero(np.any((rows < 0.0) | (rows > 3.0), axis=1))
    if bad.size:
        where = "" if ids is None else f"example {ids[bad[0]]!r}: "
        raise ContractError(
            f"{where}emotion intensity outside [0, 3]: {rows[bad[0]].tolist()}")
    return (e > 0.0).astype(np.int64)


def derive_label(ex: RawExample, task_kind: str):
    if task_kind == "binary":
        if ex.binary_label is not None:
            return ex.binary_label
        if ex.sentiment is not None:
            return binarize_sentiment(ex.sentiment)
        raise ContractError(f"example {ex.id!r} has no label usable for a binary task")
    if task_kind == "multiclass-7":
        if ex.sentiment is None:
            raise ContractError(f"example {ex.id!r} has no sentiment for 7-class task")
        return discretize_sentiment_7(ex.sentiment)
    # multilabel-6, or an unknown kind, which _stack_labels refuses
    return _stack_labels([ex], task_kind)[0]


def _stack_labels(examples: Sequence[RawExample], task_kind: str) -> np.ndarray:
    """``derive_label`` of every example, stacked: class ids [N] for the
    EXCLUSIVE kind, and [N, classes] of 0/1 for the others, multilabel-6
    binarized in one call. Errors name the offending example."""
    if task_kind not in TASK_CLASSES:
        raise ContractError(f"unknown task kind {task_kind!r}")
    if task_kind != "multilabel-6":
        labels = np.array([derive_label(ex, task_kind) for ex in examples],
                          dtype=np.int64)
        return labels if task_kind == EXCLUSIVE else labels[:, None]
    for ex in examples:
        if ex.emotions is None:
            raise ContractError(f"example {ex.id!r} has no emotions for multilabel task")
        if len(ex.emotions) != len(EMOTIONS):
            raise ContractError(f"example {ex.id!r}: expected {len(EMOTIONS)} "
                                f"emotion values, got {len(ex.emotions)}")
    e = np.array([ex.emotions for ex in examples], dtype=np.float64)
    return binarize_emotions(e.reshape(len(examples), len(EMOTIONS)),
                             [ex.id for ex in examples])


def class_statistics(corpus: list[RawExample], task_kind: str) -> ClassStats:
    """Per-class positive/negative counts over a split, after binarization:
    each class of ``TASK_CLASSES[task_kind]`` against the rest."""
    labels = _stack_labels(corpus, task_kind)
    classes = TASK_CLASSES[task_kind]
    if task_kind == EXCLUSIVE:  # class ids to one 0/1 column per class
        labels = np.eye(len(classes), dtype=np.int64)[labels]
    pos = labels.sum(axis=0)
    return ClassStats(labels=classes, positives=pos, negatives=len(corpus) - pos)


# ---------------------------------------------------------------------------
# vocabulary and tokenization
# ---------------------------------------------------------------------------

PAD, UNK, CLS, SEP = 0, 1, 2, 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")


class Vocabulary:
    """Whitespace-token vocabulary with fixed special ids."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(SPECIAL_TOKENS) + list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ContractError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK)

    def save(self, path) -> None:
        # one non-special token per line; 0-based line number = id - 4
        Path(path).write_text("\n".join(self.tokens[len(SPECIAL_TOKENS):]) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"vocabulary {path} is not valid UTF-8 (byte "
                              f"{exc.start})") from None
        return cls([line for line in text.splitlines() if line])


def build_vocab(corpus: list[RawExample], max_size: int) -> Vocabulary:
    """Frequency-ranked whitespace tokens, lexicographic tie-break, truncated."""
    if not corpus:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    if max_size < len(SPECIAL_TOKENS):
        raise ContractError(f"max_size {max_size} below the {len(SPECIAL_TOKENS)} specials")
    counts: Counter[str] = Counter()
    for ex in corpus:
        counts.update(ex.text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = max_size - len(SPECIAL_TOKENS)
    return Vocabulary([tok for tok, _ in ranked[:keep]])


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[CLS] + tokens + [SEP], truncated then [PAD]-padded to exactly max_len."""
    if max_len < 2:
        raise ContractError(f"max_len must be at least 2, got {max_len}")
    body = [vocab.id_of(tok) for tok in text.split()][: max_len - 2]
    ids = [CLS] + body + [SEP]
    mask = [1] * len(ids) + [0] * (max_len - len(ids))
    ids = ids + [PAD] * (max_len - len(ids))
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=np.int64)


def make_batches(examples: list[RawExample], vocab: Vocabulary, max_len: int,
                 task_kind: str, batch_size: int) -> list[Batch]:
    """Tokenize and chunk in the given example order: ``gather_batches`` of
    ``tokenize_split`` in that order. Each batch is cut to its longest row,
    so it is at most ``max_len`` wide."""
    return gather_batches(tokenize_split(examples, vocab, max_len, task_kind),
                          np.arange(len(examples)), batch_size)


def tokenize_split(examples: list[RawExample], vocab: Vocabulary, max_len: int,
                   task_kind: str) -> Batch:
    """Every example as one row of one Batch, cut to the longest row. The
    rows are those of ``tokenize``; the ids and mask are built at once."""
    if examples and max_len < 2:
        raise ContractError(f"max_len must be at least 2, got {max_len}")
    lookup, keep = vocab.index.get, max_len - 2
    body = [[lookup(tok, UNK) for tok in ex.text.split()[:keep]] for ex in examples]
    ends = np.array([len(ids) + 1 for ids in body], dtype=np.int64)  # where [SEP] goes
    cols = np.arange(int(ends.max(initial=0)) + 1)
    mask = (cols <= ends[:, None]).astype(np.int64)
    ids = np.full(mask.shape, PAD, dtype=np.int64)
    ids[:, 0] = CLS
    ids[(cols > 0) & (cols < ends[:, None])] = [i for row in body for i in row]
    ids[np.arange(len(examples)), ends] = SEP
    labels = _stack_labels(examples, task_kind)
    if task_kind != EXCLUSIVE:
        labels = labels.astype(np.float64)
    return Batch(token_ids=ids, attention_mask=mask, segment_ids=np.zeros_like(ids),
                 labels=labels)


def gather_batches(split: Batch, order: np.ndarray, batch_size: int) -> list[Batch]:
    """The rows of the tokenized ``split`` at the indices ``order``,
    ``batch_size`` at a time, each batch cut to its longest row."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    lengths = split.attention_mask.sum(axis=1)
    batches = []
    for start in range(0, len(order), batch_size):
        rows = order[start:start + batch_size]
        width = int(lengths[rows].max())
        ids = split.token_ids[rows, :width]
        batches.append(Batch(token_ids=ids,
                             attention_mask=split.attention_mask[rows, :width],
                             segment_ids=np.zeros_like(ids), labels=split.labels[rows]))
    return batches


# ---------------------------------------------------------------------------
# synthetic imbalanced corpus
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    """Vocabulary layout of the generator.

    Each class gets ``markers_per_class`` cue tokens that appear with
    probability ``marker_prob`` when the class is positive and
    ``spurious_prob`` otherwise, so the label mapping is learnable but noisy
    enough that a plain-BCE model sits near the decision threshold on rare
    classes.
    """
    markers_per_class: int = 2
    marker_prob: float = 0.65
    spurious_prob: float = 0.08
    noise_vocab: int = 40
    min_noise: int = 3
    max_noise: int = 8

    def marker(self, class_idx: int, j: int) -> str:
        return f"cue_{EMOTIONS[class_idx]}_{j}"


def synth_corpus(seed: int, n: int,
                 class_priors: tuple[float, ...] = DEFAULT_CLASS_PRIORS,
                 vocab_spec: SynthSpec | None = None) -> list[RawExample]:
    """Deterministic imbalanced corpus with per-class cue tokens."""
    if n <= 0:
        raise ContractError(f"n must be positive, got {n}")
    priors = tuple(float(p) for p in class_priors)
    if len(priors) != len(EMOTIONS) or any(not 0.0 < p < 1.0 for p in priors):
        raise ContractError(f"class priors must be {len(EMOTIONS)} values in (0, 1)")
    spec = vocab_spec or SynthSpec()
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        present = rng.random(len(EMOTIONS)) < np.array(priors)
        tokens: list[str] = []
        for k in range(len(EMOTIONS)):
            p = spec.marker_prob if present[k] else spec.spurious_prob
            for j in range(spec.markers_per_class):
                if rng.random() < p:
                    tokens.append(spec.marker(k, j))
        n_noise = int(rng.integers(spec.min_noise, spec.max_noise + 1))
        tokens.extend(f"filler_{int(t)}" for t in rng.integers(0, spec.noise_vocab,
                                                               size=n_noise))
        rng.shuffle(tokens)
        emotions = tuple(
            float(np.round(rng.uniform(0.5, 3.0), 4)) if present[k] else 0.0
            for k in range(len(EMOTIONS)))
        joy, sad, anger = present[0], present[1], present[2]
        if joy and not (sad or anger):
            sentiment = rng.uniform(0.5, 3.0)
        elif (sad or anger) and not joy:
            sentiment = rng.uniform(-3.0, -0.5)
        else:
            sentiment = rng.uniform(-1.0, 1.0)
        examples.append(RawExample(id=f"synth-{i:05d}", text=" ".join(tokens),
                                   sentiment=float(np.round(sentiment, 4)),
                                   emotions=emotions))
    return examples


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class Splits:
    train: list[RawExample]
    val: list[RawExample]
    test: list[RawExample] = field(default_factory=list)


def split_corpus(examples: list[RawExample]) -> Splits:
    """Deterministic 80/10/10 split by example index."""
    splits = Splits(train=[], val=[], test=[])
    for i, ex in enumerate(examples):
        if i % 10 == 8:
            splits.val.append(ex)
        elif i % 10 == 9:
            splits.test.append(ex)
        else:
            splits.train.append(ex)
    return splits
