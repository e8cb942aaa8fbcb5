"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fuseformer import (data, encoder, fusion, losses, metrics,  # noqa: E402
                        tensor, training)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MODULES = (data, encoder, fusion, losses, metrics, tensor, training)


def snapshot() -> dict[str, dict]:
    state = {m.__name__: dict(vars(m)) for m in MODULES}
    state["AdapterBank"] = dict(vars(fusion.AdapterBank))
    state["gc.callbacks"] = dict(enumerate(gc.callbacks))
    return state


def replaced(before: dict, after: dict) -> list[str]:
    return [f"{owner}.{name}" for owner in before
            for name in before[owner].keys() | after[owner].keys()
            if before[owner].get(name) is not after[owner].get(name)]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks_and_reports_the_declared_metrics(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result.failed == 0, result.problems
    assert result.attempted >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result.metrics) == {m["name"] for m in declared}
    assert {result.metrics[m["name"]][1] for m in declared} \
        == {m["unit"] for m in declared}
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_tracing_wrappers_restore_every_patched_attribute():
    before = snapshot()
    patches = tracing.Patches()
    tracer = tracing.Tracer("train")
    tracer.install(patches)
    tracing.StepClock("train").install(patches)
    during = replaced(before, snapshot())
    tracer.uninstall(patches)
    assert patches.missing == []
    for name in ("fuseformer.tensor.matmul", "fuseformer.encoder.embed",
                 "fuseformer.training.adamw_step", "AdapterBank.forward"):
        assert name in during
    assert replaced(before, snapshot()) == []

    run.run("evaluate", seed=3, seconds=0, trace=True, tiny=True)
    assert replaced(before, snapshot()) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_self_times_sum_within_each_steps_wall_time(workload):
    result = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    tracer, windows = result.tracer, result.traced.windows
    own = tracer.self_times()
    assert windows and min(own) >= -1e-9
    for start, end in windows:
        inside = sum(o for span, o in zip(tracer.spans, own)
                     if start <= span[3] and span[4] <= end)
        assert 0.0 < inside <= end - start + 1e-9


def test_nondeterministic_program_fails_the_rerun_check(monkeypatch):
    original = training.adamw_step
    noise = np.random.default_rng()  # deliberately unseeded

    def drifting_adamw(params, *args, **kwargs):
        original(params, *args, **kwargs)
        params[0][1].data += noise.normal(0.0, 1e-3, params[0][1].data.shape)

    monkeypatch.setattr(training, "adamw_step", drifting_adamw)
    result = run.run("finetune", seed=3, seconds=0, trace=False, tiny=True)
    assert 0 < result.failed < result.attempted
    assert any("differ from the first call" in p for p in result.problems)
