"""Benchmark of fine-tuning, Fusion-5 training and Fusion-5 inference.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one caller in one process calls the
library's public entry point again as soon as the previous call returns.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
untraced and then traced for half the time each and reports the per-layer
metrics and the tracing overhead. Every call is checked, and every call's
outputs must be byte-identical to the first (untraced) call's. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 5
# Thread settings are recorded as found; the benchmark never sets them,
# because the thread policy is itself a candidate optimisation.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FUSEFORMER_THREADS")


def import_program() -> None:
    """Put ``src/`` first on the path and insist the library comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fuseformer
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fuseformer from {src}: {exc}")
    if Path(fuseformer.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: fuseformer was imported from "
                         f"{fuseformer.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


@dataclass
class Call:
    """One call of the workload: steps it completed, its output digest
    (None if it raised) and the output checks it failed."""
    steps: int
    digest: str | None
    problems: list[str]


@dataclass
class Phase:
    calls: list[Call] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    examples: int = 0
    wall_s: float = 0.0
    missing: list[str] = field(default_factory=list)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]
    tracer: object | None = None
    traced: Phase | None = None


def run_phase(prepare: Callable, kind: str, seconds: float,
              tracer=None) -> Phase:
    """Call the workload until ``seconds`` have passed (at least once).

    Each call gets inputs from its own fresh set-up, and starts after a full
    garbage collection, so no call inherits the previous call's garbage.
    """
    from tracing import Patches, StepClock
    phase = Phase()
    gc.collect()
    prepared = prepare()
    clock = StepClock(kind)
    patches = Patches()
    if tracer is not None:
        tracer.install(patches)
    clock.install(patches)
    try:
        deadline = time.perf_counter() + seconds
        while True:
            first = len(clock.steps)
            start = time.perf_counter()
            try:
                result = prepared.call()
            except Exception as exc:  # a raising call is a failed attempt
                clock.abandon()
                phase.calls.append(Call(len(clock.steps) - first, None,
                                        [f"{type(exc).__name__}: {exc}"]))
            else:
                phase.wall_s += time.perf_counter() - start
                outcome = prepared.check(result)
                phase.examples += outcome.examples
                phase.calls.append(Call(len(clock.steps) - first,
                                        outcome.digest, outcome.problems))
            if time.perf_counter() >= deadline:
                break
            gc.collect()
            prepared = prepare()
    finally:
        if tracer is not None:
            tracer.uninstall(patches)
        else:
            patches.restore()
    phase.missing = patches.missing
    phase.windows = clock.steps
    phase.step_s = [end - start for start, end in clock.steps]
    return phase


def p50_p90_ms(step_s: list[float]) -> tuple[float, float]:
    if len(step_s) < 2:
        ms = step_s[0] * 1e3 if step_s else 0.0
        return ms, ms
    deciles = statistics.quantiles(step_s, n=10, method="inclusive")
    return statistics.median(step_s) * 1e3, deciles[8] * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Result:
    import workloads
    from tracing import Tracer
    sizes = (workloads.TINY if tiny else workloads.FULL)[workload]
    setup_s: list[float] = []
    digests: set[str] = set()

    def prepare():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            start = time.perf_counter()
            prepared = workloads.SETUPS[workload](seed, sizes, Path(work))
            setup_s.append(time.perf_counter() - start)
        digests.add(prepared.input_digest)
        return prepared

    kind = workloads.KINDS[workload]
    warmup = run_phase(prepare, kind, 0.0)
    reference = warmup.calls[0].digest
    if trace:
        untraced = run_phase(prepare, kind, seconds / 2)
        tracer = Tracer(kind)
        measured = run_phase(prepare, kind, seconds / 2, tracer)
        phases = [warmup, untraced, measured]
    else:
        tracer = untraced = None
        measured = run_phase(prepare, kind, seconds)
        phases = [warmup, measured]
    while len(setup_s) < MIN_SETUPS:
        gc.collect()
        prepare()

    calls: list[Call] = []
    if len(digests) != 1:
        calls.append(Call(0, None, ["set-up inputs differ between repeats"]))
    problems = []
    attempted = failed = 0
    for call in calls + [c for p in phases for c in p.calls]:
        weight = max(call.steps, 1)
        attempted += weight
        bad = list(call.problems)
        if call.digest is not None and call.digest != reference:
            bad.append("outputs differ from the first call's")
        if bad:
            failed += weight
            problems += bad

    p50, p90 = p50_p90_ms(measured.step_s)
    notes = [f"steps {len(measured.step_s)} measured over "
             f"{len(measured.calls)} calls",
             f"set-up times {[round(s, 4) for s in setup_s]}"]
    if measured.missing:
        notes.append(f"not found, so not timed: {', '.join(measured.missing)}")
    if trace:
        base, _ = p50_p90_ms(untraced.step_s)
        metrics = tracer.metrics(len(measured.step_s))
        metrics["trace.untraced_step_ms_p50"] = (base, "ms")
        metrics["trace.traced_step_ms_p50"] = (p50, "ms")
        metrics["trace.overhead_pct"] = ((p50 / base - 1.0) * 100 if base else 0.0, "%")
    else:
        metrics = {
            "examples_per_s": (measured.examples / measured.wall_s
                               if measured.wall_s else 0.0, "1/s"),
            "step_ms_p50": (p50, "ms"),
            "step_ms_p90": (p90, "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    return Result(metrics, attempted, failed, problems, notes, tracer,
                  measured if trace else None)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("finetune", "fusion5", "evaluate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {result.failed / result.attempted:.6g} "
          f"({result.failed}/{result.attempted})")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
