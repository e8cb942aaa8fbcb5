"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by module and name from outside; a renamed function would leave its span
empty. Installing the tracer here keeps that check in this suite, which the
benchmark's own tests are not part of."""

import gc
import importlib.util
from pathlib import Path

from fuseformer import data, encoder, fusion, losses, tensor, training

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (data, encoder, fusion, losses, tensor, training)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict[str, dict]:
    state = {m.__name__: dict(vars(m)) for m in MODULES}
    state["AdapterBank"] = dict(vars(fusion.AdapterBank))
    state["gc.callbacks"] = dict(enumerate(gc.callbacks))
    return state


def replaced(before: dict, after: dict) -> list[str]:
    return sorted(f"{owner}.{name}" for owner in before
                  for name in before[owner].keys() | after[owner].keys()
                  if before[owner].get(name) is not after[owner].get(name))


def test_benchmark_tracer_finds_every_name_it_wraps_and_restores_them():
    tracing = load_tracing()
    before = snapshot()
    patches = tracing.Patches()
    tracer = tracing.Tracer("train")
    try:
        tracer.install(patches)
        tracing.StepClock("train").install(patches)
        during = replaced(before, snapshot())
    finally:
        tracer.uninstall(patches)
    assert patches.missing == []
    for name in ("fuseformer.fusion.adapter_forward", "fuseformer.fusion.fusion_forward",
                 "fuseformer.encoder.embed", "fuseformer.tensor.matmul",
                 "AdapterBank.forward"):
        assert name in during
    assert replaced(before, snapshot()) == []
