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

import numpy as np

from .errors import ContractError, CorpusError

EMOTIONS = ("joy", "sadness", "anger", "surprise", "disgust", "fear")

# positive-sample proportions of the six emotion classes in the reference
# corpus; used as default priors for the synthetic generator
DEFAULT_CLASS_PRIORS = (0.52, 0.25, 0.21, 0.10, 0.17, 0.08)

TASK_KINDS = ("binary", "multiclass-7", "multilabel-6")

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
    s = float(value)
    if not -3.0 <= s <= 3.0:
        raise CorpusError(f"sentiment {s} outside [-3, 3]", line)
    return s


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
        e = float(v)
        if not 0.0 <= e <= 3.0:
            raise CorpusError(f"emotion intensity {e} outside [0, 3]", line)
        out.append(e)
    return tuple(out)


def load_corpus(path, schema: str) -> list[RawExample]:
    """Read a JSONL corpus, validating every line; errors carry line numbers."""
    if schema not in ("mosei-style", "binary-style"):
        raise ContractError(f"unknown corpus schema {schema!r}")
    path = Path(path)
    examples: list[RawExample] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"malformed JSON ({exc.msg})", lineno) from None
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


def binarize_emotions(e) -> np.ndarray:
    """Component i is 1 iff intensity i > 0; several classes may be present."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (len(EMOTIONS),):
        raise ContractError(f"expected {len(EMOTIONS)} emotion values, got shape {e.shape}")
    if np.any(e < 0.0) or np.any(e > 3.0):
        raise ContractError(f"emotion intensity outside [0, 3]: {e.tolist()}")
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
    if task_kind == "multilabel-6":
        if ex.emotions is None:
            raise ContractError(f"example {ex.id!r} has no emotions for multilabel task")
        return binarize_emotions(ex.emotions)
    raise ContractError(f"unknown task kind {task_kind!r}")


def class_statistics(corpus: list[RawExample], task_kind: str) -> ClassStats:
    """Per-class positive/negative counts over a split, after binarization."""
    n = len(corpus)
    if task_kind == "multilabel-6":
        labels = EMOTIONS
        pos = np.zeros(len(EMOTIONS), dtype=np.int64)
        for ex in corpus:
            pos += derive_label(ex, task_kind)
    elif task_kind == "binary":
        labels = ("positive",)
        pos = np.array([sum(derive_label(ex, task_kind) for ex in corpus)],
                       dtype=np.int64)
    elif task_kind == "multiclass-7":
        labels = tuple(f"class_{i}" for i in range(7))
        pos = np.zeros(7, dtype=np.int64)
        for ex in corpus:
            pos[derive_label(ex, task_kind)] += 1
    else:
        raise ContractError(f"unknown task kind {task_kind!r}")
    return ClassStats(labels=labels, positives=pos, negatives=n - pos)


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

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def save(self, path) -> None:
        # one non-special token per line; 0-based line number = id - 4
        Path(path).write_text("\n".join(self.tokens[len(SPECIAL_TOKENS):]) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        text = Path(path).read_text(encoding="utf-8")
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
    """Tokenize and chunk in the given example order. Each batch is cut to
    its longest row, so it is at most ``max_len`` wide."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        rows = [tokenize(ex.text, vocab, max_len) for ex in chunk]
        width = max(int(row_mask.sum()) for _, row_mask in rows)
        ids = np.stack([row_ids[:width] for row_ids, _ in rows])
        mask = np.stack([row_mask[:width] for _, row_mask in rows])
        if task_kind == "multilabel-6":
            labels = np.stack([derive_label(ex, task_kind) for ex in chunk]).astype(np.float64)
        elif task_kind == "binary":
            labels = np.array([[derive_label(ex, task_kind)] for ex in chunk],
                              dtype=np.float64)
        else:
            labels = np.array([derive_label(ex, task_kind) for ex in chunk],
                              dtype=np.int64)
        batches.append(Batch(token_ids=ids, attention_mask=mask,
                             segment_ids=np.zeros_like(ids), labels=labels))
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
