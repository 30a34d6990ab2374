"""Guard for the names the benchmark in perfbench/ patches at run time.

The benchmark's tracer replaces each (module, attribute) pair of
perfbench/spans.LAYERS, and its worker times trials by replacing
harness.run_trial, so each name must stay a module attribute that its
caller looks up at call time. perfbench/ is only read here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from qdds import harness

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# run_path compiles from source, so no bytecode cache is written under perfbench/
LAYERS = runpy.run_path(str(SPANS))["LAYERS"]


@pytest.mark.parametrize("module, attr", [(layer[0], layer[1]) for layer in LAYERS])
def test_layer_hook_exists(module, attr):
    assert hasattr(importlib.import_module(f"qdds.{module}"), attr)


def test_run_experiment_calls_run_trial_through_module(tmp_path, monkeypatch):
    calls = []
    run_trial = harness.run_trial

    def counting(config, trial):
        calls.append(trial)
        return run_trial(config, trial)

    monkeypatch.setattr(harness, "run_trial", counting)
    config = harness.ExperimentConfig(
        objective="sphere",
        dimension=2,
        population=3,
        iterations=8,
        trials=2,
        out_dir=str(tmp_path),
    )
    harness.run_experiment(config)
    assert calls == [0, 1]
