"""Smoke test of the benchmark's tracer against the package it wraps from outside.

``perfbench/tracing.py`` patches module attributes of ``lidsn`` by name, so a
rename or a new call path in ``src/`` can silently detach a metric. This runs a
tiny training job and a blocked eval pass under the tracer, reading
``perfbench/`` and ``BENCHMARK.json`` only.
"""
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from lidsn import network
from lidsn.rng import RngStream
from lidsn.training import TrainConfig, train_model

ROOT = Path(__file__).resolve().parents[1]
RUN_METRICS = ("trace.overhead_s", "trace.overhead_share")  # perfbench/run.py adds these


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lidsn_bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lidsn" or name.startswith("lidsn."))
            for attr, value in list(vars(mod).items())}


def test_tracer_metrics_cover_the_benchmark_and_uninstall_cleanly(tiny_cfg):
    cfg = replace(tiny_cfg, n_samples=400, pool_window=40)
    block = max(network.eval_block(cfg))  # one trial more, so both tokenizers split
    r = RngStream(3, 218)
    x = r.normal(0.0, 1.0, (block + 1, cfg.n_channels, cfg.n_samples))
    y = np.arange(len(x)) % cfg.n_classes
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

    before = _lidsn_bindings()
    tracer = _tracing_module().Tracer().install()
    patched = list(tracer._patched)
    try:
        outcome = train_model(cfg, TrainConfig(epochs=1, patience=1, batch_size=8),
                              x[:8], y[:8], x[8:12], y[8:12])
        outcome.model.logits_np(x)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics(1)
    assert set(metrics) | set(RUN_METRICS) == per_layer
    for name in ("temporal_tokenize", "spatial_tokenize"):
        assert metrics[f"network.{name}.calls"] > 0
    assert metrics["network.forward.gflops_per_s"] > 0
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    after = _lidsn_bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
