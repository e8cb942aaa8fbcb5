"""Desk-scale transformer encoder with per-task bottleneck adapters, an
attention layer that fuses them, class-imbalance-aware losses, and a
two-stage freeze/train pipeline for multi-label emotion recognition."""

from .data import (EMOTIONS, Batch, ClassStats, RawExample, Splits,
                   Vocabulary, binarize_emotions, binarize_sentiment,
                   build_vocab, class_statistics, discretize_sentiment_7,
                   load_corpus, synth_corpus, tokenize)
from .encoder import ModelConfig, encode
from .fusion import AdapterBank, adapter_forward, count_parameters, fusion_forward
from .losses import (bce, cross_entropy_7, focal_multilabel, head_forward,
                     pos_weights, weighted_bce)
from .metrics import (MetricsReport, binary_accuracy, confusion,
                      emotion_report, f1, multiclass_accuracy)
from .tensor import ParameterStore, Tensor, backward, finite_difference_check
from .training import (Checkpoint, TaskSpec, TrainConfig, adamw_step,
                       grad_check, load_checkpoint, lr_schedule, run_experiment,
                       save_checkpoint, train_adapter, train_fusion)

__version__ = "0.1.0"

__all__ = [
    "AdapterBank", "Batch", "Checkpoint", "ClassStats", "EMOTIONS",
    "MetricsReport", "ModelConfig", "ParameterStore",
    "RawExample", "Splits", "TaskSpec", "Tensor", "TrainConfig",
    "Vocabulary", "adamw_step", "adapter_forward", "backward", "bce",
    "binarize_emotions", "binarize_sentiment", "binary_accuracy",
    "build_vocab", "class_statistics", "confusion", "count_parameters",
    "cross_entropy_7", "discretize_sentiment_7", "emotion_report", "encode",
    "f1", "finite_difference_check", "focal_multilabel", "fusion_forward",
    "grad_check", "head_forward", "load_checkpoint", "load_corpus", "lr_schedule",
    "multiclass_accuracy", "pos_weights", "run_experiment",
    "save_checkpoint", "synth_corpus", "tokenize", "train_adapter",
    "train_fusion", "weighted_bce",
]
