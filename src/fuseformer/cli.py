"""Command-line entry point.

Subcommands: stats, synth, train-adapter, train-fusion, evaluate, grad-check,
count-params. Exit codes: 0 success, 2 input/config error, 3 numerical
divergence, 4 verification failure. Outputs are byte-identical across reruns
given identical inputs and seed; wall-clock timestamps live in a quarantined
"meta" field that determinism checks exclude.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, get_type_hints

from .data import (DEFAULT_CLASS_PRIORS, EMOTIONS, Splits, Vocabulary,
                   build_vocab, class_statistics, load_corpus, make_batches,
                   split_corpus, synth_corpus, write_corpus)
from .encoder import ModelConfig
from .errors import (CheckpointError, ConfigError, ContractError, CorpusError,
                     NumericalDivergenceError)
from .fusion import STAGES, count_parameters
from .losses import LOSS_NAMES, REDUCTIONS, pos_weights
from .metrics import MetricsReport
from .training import (TaskSpec, TrainConfig, TrainResult, bank_from_checkpoint,
                       config_from_meta, evaluate_model, grad_check,
                       load_checkpoint, run_experiment, save_checkpoint, seeded,
                       train_adapter, train_fusion)

# TrainConfig fields that a flag of the same name overrides
FLAG_FIELDS = ("runs", "seed", "loss", "threshold", "warmup_steps",
               "loss_reduction", "epochs", "batch_size", "max_len", "lr",
               "patience")
FLAG_CHOICES = {"loss": LOSS_NAMES, "loss_reduction": REDUCTIONS}

TASK_TABLE = {
    "sent2": ("binary", "mosei-style"),
    "sent7": ("multiclass-7", "mosei-style"),
    "emotion": ("multilabel-6", "mosei-style"),
    "binary-ext": ("binary", "binary-style"),
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, body: dict) -> None:
    """Deterministic body under sorted keys; timestamp quarantined in meta."""
    payload = {"meta": {"created_at": _now()}, **body}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _task_spec(name: str, cfg: TrainConfig) -> TaskSpec:
    """The task's loss is the resolved config's (TaskSpec turns it into
    cross-entropy for the 7-class task)."""
    kind, _ = TASK_TABLE[name]
    return TaskSpec(name=name, kind=kind, loss=cfg.loss)


def _load_task_corpus(path: str, task: str):
    _, schema = TASK_TABLE[task]
    return load_corpus(path, schema)


def _config_file(args) -> dict:
    """The --config JSON object (training fields plus an optional "model"
    object), or {} without --config."""
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # bad UTF-8 or JSON, an int over the digit limit, too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"--config {args.config}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"--config {args.config} must hold a JSON object")
    return raw


def _resolve_train_config(args, raw: dict) -> TrainConfig:
    """The training fields of the --config object ``raw``, with flags over
    them."""
    cfg = TrainConfig.from_dict({k: v for k, v in raw.items() if k != "model"})
    overrides = {name: getattr(args, name) for name in FLAG_FIELDS
                 if getattr(args, name, None) is not None}
    epochs = overrides.get("epochs", cfg.epochs)
    if "patience" not in overrides and cfg.patience > epochs:
        overrides["patience"] = epochs
    return replace(cfg, **overrides) if overrides else cfg


def _splits(args, task: str) -> Splits:
    corpus = _load_task_corpus(args.corpus, task)
    if not corpus:
        raise ConfigError(f"corpus {args.corpus} is empty")
    if args.val_corpus or args.test_corpus:
        if not (args.val_corpus and args.test_corpus):
            raise ConfigError("--val-corpus and --test-corpus go together")
        return Splits(train=corpus,
                      val=_load_task_corpus(args.val_corpus, task),
                      test=_load_task_corpus(args.test_corpus, task))
    return split_corpus(corpus)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = _load_task_corpus(args.corpus, args.task)
    if not corpus:
        raise ConfigError(f"corpus {args.corpus} is empty")
    kind, _ = TASK_TABLE[args.task]
    stats = class_statistics(corpus, kind)
    weights = pos_weights(stats)
    rows = {}
    print(f"{'class':<12} {'positives':>9} {'negatives':>9} "
          f"{'proportion':>10} {'w_c':>10}")
    for i, label in enumerate(stats.labels):
        pos, neg = int(stats.positives[i]), int(stats.negatives[i])
        prop = pos / len(corpus)
        print(f"{label:<12} {pos:>9} {neg:>9} {prop:>10.4f} {weights.w[i]:>10.4f}")
        rows[label] = {"positives": pos, "negatives": neg,
                       "proportion": prop, "weight": float(weights.w[i])}
    if args.out:
        _write_json(Path(args.out) / "stats.json",
                    {"task": args.task, "size": len(corpus), "classes": rows})
    return EXIT_OK


def cmd_synth(args) -> int:
    priors = tuple(args.priors) if args.priors else DEFAULT_CLASS_PRIORS
    corpus = synth_corpus(args.seed, args.n, priors)
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} examples to {args.out}")
    if args.vocab_out:
        build_vocab(corpus, args.vocab_size).save(args.vocab_out)
        print(f"wrote vocabulary to {args.vocab_out}")
    return EXIT_OK


def _report_body(report: MetricsReport, cfg: TrainConfig,
                 model_config: ModelConfig) -> dict:
    return {"report": report.to_dict(),
            "config": {"train": cfg.to_dict(), "model": asdict(model_config)}}


def _result_body(result: TrainResult, cfg: TrainConfig) -> dict:
    body = {**_report_body(result.test_report or result.val_report, cfg,
                           result.bank.config),
            "history": result.history, "best_epoch": result.best_epoch}
    if result.audit:
        body["audit"] = result.audit
    return body


def _train_seeds(cfg: TrainConfig, train: Callable[[TrainConfig], TrainResult],
                 out: Path, checkpoint: str, report: str,
                 aggregate: str) -> dict[int, TrainResult]:
    """Train seeds ``cfg.seed`` .. ``cfg.seed + runs - 1`` through
    ``run_experiment`` and write each seed's ``<checkpoint>-seed<s>.ckpt`` and
    ``<report>-seed<s>.json``, the base seed's ``<checkpoint>.ckpt`` and the
    ``<aggregate>.json`` over all seeds. Returns the results by seed."""
    out.mkdir(parents=True, exist_ok=True)
    results: dict[int, TrainResult] = {}

    def run(seed: int) -> MetricsReport:
        result = results[seed] = train(seeded(cfg, seed))
        return result.test_report or result.val_report

    _, summary = run_experiment(cfg, run)
    for seed, result in sorted(results.items()):
        save_checkpoint(result.checkpoint, out / f"{checkpoint}-seed{seed}.ckpt")
        _write_json(out / f"{report}-seed{seed}.json",
                    _result_body(result, seeded(cfg, seed)))
    base = results[cfg.seed]
    save_checkpoint(base.checkpoint, out / f"{checkpoint}.ckpt")
    _write_json(out / f"{aggregate}.json",
                {**_report_body(summary, cfg, base.bank.config), "runs": cfg.runs})
    print(summary.text_table())
    return results


def cmd_train_adapter(args) -> int:
    raw = _config_file(args)
    cfg = _resolve_train_config(args, raw)
    task = _task_spec(args.task, cfg)
    model_config = ModelConfig.from_dict(raw.get("model", {}))
    splits = _splits(args, args.task)
    vocab = Vocabulary.load(args.vocab) if args.vocab else \
        build_vocab(splits.train, cfg.vocab_size)
    _train_seeds(cfg, lambda c: train_adapter(task, splits, model_config, c, vocab=vocab),
                 Path(args.out), f"adapter-{task.name}", f"report-{task.name}",
                 f"aggregate-{task.name}")
    return EXIT_OK


def cmd_train_fusion(args) -> int:
    cfg = _resolve_train_config(args, _config_file(args))
    task = _task_spec(args.task, cfg)
    checkpoints = [load_checkpoint(p) for p in args.adapters]
    splits = _splits(args, args.task)
    out = Path(args.out)
    results = _train_seeds(cfg, lambda c: train_fusion(task, checkpoints, splits, c),
                           out, f"fusion-{task.name}", f"fusion-report-{task.name}",
                           f"fusion-aggregate-{task.name}")
    _write_json(out / f"fusion-report-{task.name}.json",
                _result_body(results[cfg.seed], cfg))
    ok = all(entry["frozen"] for result in results.values()
             for entry in result.audit.values())
    print("FROZEN OK" if ok else "FROZEN VIOLATION")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    bank, vocab, task = bank_from_checkpoint(ckpt)
    if args.task and args.task != task.name:
        raise ConfigError(
            f"checkpoint was trained for task {task.name!r}, not {args.task!r}")
    corpus = _load_task_corpus(args.corpus, task.name)
    if not corpus:
        raise ConfigError(f"corpus {args.corpus} is empty")
    cfg = (config_from_meta(TrainConfig, ckpt.meta, "train_config")
           if "train_config" in ckpt.meta else TrainConfig())
    if args.threshold is not None:
        cfg = replace(cfg, threshold=args.threshold)
    batches = make_batches(corpus, vocab, cfg.max_len, task.kind, cfg.batch_size)
    report = evaluate_model(bank, task, batches, cfg.threshold, split="eval",
                            seed=cfg.seed)
    print(report.text_table())
    if args.out:
        out = Path(args.out)
        _write_json(out / f"eval-{task.name}.json",
                    _report_body(report, cfg, bank.config))
        (out / f"eval-{task.name}.txt").write_text(report.text_table() + "\n",
                                                   encoding="utf-8")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    reports = grad_check(args.seed, args.h, args.tol, args.max_coords)
    for blk, report in reports.items():
        worst = report.worst()
        print(f"{blk:<12} {'PASS' if report.passed else 'FAIL'}  "
              f"max_rel_err={worst.max_rel_err:.3e}  "
              f"worst={worst.name}{list(worst.worst_index)}  "
              f"coords={sum(c.checked for c in report.blocks)}")
    if args.out:
        _write_json(Path(args.out) / "grad-check.json",
                    {"tol": args.tol, "h": args.h,
                     "blocks": {blk: {"max_rel_err": report.worst().max_rel_err,
                                      "passed": report.passed}
                                for blk, report in reports.items()}})
    failed = [blk for blk, report in reports.items() if not report.passed]
    if failed:
        print(f"gradient check failed for {len(failed)} block(s)",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_count_params(args) -> int:
    config = ModelConfig.full_scale() if args.scale == "full" else ModelConfig()
    if args.mode:
        counts = count_parameters(config, args.mode, num_tasks=args.num_tasks,
                                  num_labels=args.num_labels)
        print(json.dumps({"mode": args.mode, **counts}, sort_keys=True))
        return EXIT_OK
    rows = {
        "finetune": count_parameters(config, "finetune", num_labels=args.num_labels),
        "adapter": count_parameters(config, "adapter", num_labels=args.num_labels),
        "fusion3": count_parameters(config, "fusion", num_tasks=3,
                                    num_labels=args.num_labels),
        "fusion5": count_parameters(config, "fusion", num_tasks=5,
                                    num_labels=args.num_labels),
    }
    print(f"{'model':<10} {'total':>12} {'trainable':>12}")
    for name, row in rows.items():
        print(f"{name:<10} {row['total']:>12,} {row['trainable']:>12,}")
    if args.out:
        _write_json(Path(args.out) / "count-params.json",
                    {"scale": args.scale, "rows": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuseformer",
        description="Adapter-fusion emotion-recognition workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_train(p):
        p.add_argument("--config", help="JSON training config; flags override")
        p.add_argument("--corpus", required=True)
        p.add_argument("--val-corpus")
        p.add_argument("--test-corpus")
        p.add_argument("--task", required=True, choices=sorted(TASK_TABLE))
        types = get_type_hints(TrainConfig)
        for name in FLAG_FIELDS:
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=types[name], choices=FLAG_CHOICES.get(name))
        p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="class statistics and positive weights")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", required=True, choices=sorted(TASK_TABLE))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic imbalanced corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--priors", type=float, nargs=len(EMOTIONS))
    p.add_argument("--vocab-out", dest="vocab_out")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=2000)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train-adapter", help="stage 1: task adapter + head")
    common_train(p)
    p.add_argument("--vocab", help="shared vocabulary file")
    p.set_defaults(fn=cmd_train_adapter)

    p = sub.add_parser("train-fusion", help="stage 2: fusion + target head")
    common_train(p)
    p.add_argument("--adapters", nargs="+", required=True,
                   help="stage-1 adapter checkpoints")
    p.set_defaults(fn=cmd_train_fusion)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=sorted(TASK_TABLE))
    p.add_argument("--threshold", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("grad-check",
                       help="finite-difference check of all parameter blocks")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coords", dest="max_coords", type=int, default=24)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("count-params", help="exact parameter accounting")
    p.add_argument("--scale", choices=["desk", "full"], default="full")
    p.add_argument("--mode", choices=list(STAGES))
    p.add_argument("--num-tasks", dest="num_tasks", type=int, default=3,
                   help="adapters in the --mode fusion bank; the table's "
                        "fusion3 and fusion5 rows are fixed")
    p.add_argument("--num-labels", dest="num_labels", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_count_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalDivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CorpusError, ConfigError, CheckpointError, ContractError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
