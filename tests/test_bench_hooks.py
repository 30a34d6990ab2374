"""Guard for the names the benchmark in perfbench/ patches at run time.

The benchmark's tracer replaces each (module, attribute) pair of
perfbench/spans.LAYERS, wraps objective evaluation by replacing
harness.build_problem, and counts engine.updates as calls of
engine.blend_with_gbest; its worker times trials by replacing
harness.run_trial. Each name must stay a module attribute that its
caller looks up at call time, and the FIR response counters read the
wrapped call's second positional argument as omega. The per-layer call
counts rest on how a step batches its work: one gate, one solve and one
rebind per step, on the (updated rows, dimension) block of its wave; one
blend per block of rows (the wave's, then the rows after each improvement),
and one evaluation per block for a benchmark, per update for any other
objective, except the updates a symmetric FIR design's lower_bounds screen
rules out. The traced evaluate is a functools.wraps wrapper, which keeps
that mark, both of its tiers (a Gram bound on each block, an amplitude bound
on each row the first cannot rule out), so neither tier nor the updates
they rule out are traced. perfbench/ is only read here.
"""

import functools
import importlib
import math
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdds import engine, filters, harness, svg
from qdds.objectives import make_benchmark
from qdds.presets import PRESETS

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# run_path compiles from source, so no bytecode cache is written under perfbench/
SPANS = runpy.run_path(str(SPANS_PATH))
LAYERS = SPANS["LAYERS"]
# names perfbench/worker.py reads beyond LAYERS
WORKER_NAMES = [
    ("presets", "PRESETS"),
    ("harness", "build_problem"),
    ("harness", "run_experiment"),
    ("harness", "run_trial"),
]
# one entry per name: a repeated pair would change every id pytest gives it
HOOKS = list(dict.fromkeys([(layer[0], layer[1]) for layer in LAYERS] + WORKER_NAMES))


@pytest.mark.parametrize("module, attr", HOOKS)
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


def test_run_trial_calls_build_problem_through_module(monkeypatch):
    config = harness.ExperimentConfig(objective="sphere", dimension=2, population=3, iterations=6)
    calls = []
    build_problem = harness.build_problem

    def counting(cfg):
        calls.append(cfg)
        return build_problem(cfg)

    monkeypatch.setattr(harness, "build_problem", counting)
    harness.run_trial(config, 0)
    assert calls == [config]


def run_recording(monkeypatch, blend, config, objective):
    """Run with blend_with_gbest recording the shape blended per call, one list
    per step, and the number of updates per step."""
    steps, updates = [], []

    def recording(raw, gbest, rho):
        steps[-1].append(np.shape(raw))
        return blend(raw, gbest, rho)

    monkeypatch.setattr(engine, "blend_with_gbest", recording)
    swarm = engine.init_swarm(config, objective)
    while swarm.waves:
        steps.append([])
        evaluated = swarm.eval_count
        engine.step(swarm, objective)
        updates.append(swarm.eval_count - evaluated)
    return swarm, steps, updates


@pytest.mark.parametrize("mode, per_iteration", [("literal", 1), ("sweep", 12)])
def test_blend_called_once_per_block(monkeypatch, mode, per_iteration):
    config = engine.SwarmConfig(
        population=12, init_range=(-1.0, 1.0), max_iter=30, mode=mode
    )
    benchmark = make_benchmark("sphere", 2)
    shapes, costs = [], []

    def evaluate(x):
        shapes.append(np.shape(x))
        costs.append(benchmark.evaluate(x))
        return costs[-1]

    blend = engine.blend_with_gbest
    per_row = replace(benchmark, evaluate=evaluate)
    per_row_result, per_row_steps, per_row_updates = run_recording(
        monkeypatch, blend, config, per_row
    )
    result, steps, updates = run_recording(monkeypatch, blend, config, benchmark)
    total = (config.max_iter - 3) * per_iteration
    for swarm in (per_row_result, result):
        assert swarm.eval_count == 2 * config.population + total
    # any other objective: one call per point kept, blended in the same blocks
    assert shapes == [(benchmark.dimension,)] * (2 * config.population + total)
    assert per_row_steps == steps and per_row_updates == updates
    # one blend per block, the first the whole wave, the next starting after
    # the first improvement, twice as long as the rows accepted and at least 8;
    # an update improved when its cost, in the per-row run's call order, is
    # strictly below every cost before it
    best, improved = math.inf, []
    for cost in costs:
        improved.append(cost < best)
        best = min(best, cost)
    improved = improved[2 * config.population :]
    for blocks, n in zip(steps, updates, strict=True):
        wave, improved = improved[:n], improved[n:]
        expected, i, size = [], 0, n
        while i < n:
            end = min(i + size, n)
            last = next((k for k in range(i, end - 1) if wave[k]), end - 1)
            expected.append(end - i)
            size = max(8, 2 * (last + 1 - i))
            i = last + 1
        assert blocks == [(size, 2) for size in expected]
    assert any(len(blocks) > 1 for blocks in steps)
    assert sum(map(len, steps)) < total


@pytest.mark.parametrize("mode", ["literal", "sweep"])
@pytest.mark.parametrize("rebind", ["post", "pre"])
def test_well_kernels_called_once_per_step_on_its_rows(monkeypatch, mode, rebind):
    shapes = {"delta_update_arrays": [], "solve_r_batch": [], "delta_of_r": []}

    def recording(name):
        fn = getattr(engine, name)

        def wrapped(*args, **kwargs):
            shapes[name].append(np.shape(args[0]))
            return fn(*args, **kwargs)

        return wrapped

    for name in shapes:
        monkeypatch.setattr(engine, name, recording(name))
    config = engine.SwarmConfig(
        population=4, init_range=(-1.0, 1.0), max_iter=30, mode=mode,
        rebind=rebind,
    )
    objective = make_benchmark("sphere", 3)
    swarm = engine.init_swarm(config, objective)
    for name in shapes:
        shapes[name].clear()
    block = []
    while len(swarm.trace) < config.max_iter:
        iteration = len(swarm.trace)
        engine.step(swarm, objective)
        # a literal wave has one row per iteration it advances
        rows = len(swarm.trace) - iteration if mode == "literal" else config.population
        block.append((rows, objective.dimension))
    assert mode == "sweep" or max(block)[0] > 1
    assert shapes["delta_update_arrays"] == block
    assert shapes["solve_r_batch"] == block
    assert shapes["delta_of_r"] == (block if rebind == "post" else [])


def test_fir_response_called_through_module_with_omega(monkeypatch):
    calls = []
    response = filters.fir_response_magnitude

    def recording(*args):
        calls.append(args)
        return response(*args)

    monkeypatch.setattr(filters, "fir_response_magnitude", recording)
    spec = filters.FilterSpec(n_coeff=4)
    h = np.array([0.1, 0.4, 0.4, 0.1])
    filters.stopband_attenuation_db(h, spec)
    harness.emit_response_plot(h)
    assert [len(args) for args in calls] == [2, 2]
    assert [np.shape(args[1]) for args in calls] == [(filters.ATTENUATION_GRID,), (1025,)]
    assert calls[0][1][0] == spec.omega_s and calls[1][1][-1] == np.pi


def test_tracer_spans_the_fir_objective(tmp_path):
    tracer = SPANS["Tracer"]()
    tracer.install({"engine": engine, "filters": filters, "harness": harness, "svg": svg})
    config = harness.ExperimentConfig(
        objective="fir", order=6, population=20, iterations=30, trials=1, out_dir=str(tmp_path)
    )
    try:
        _, report = harness.run_experiment(config)
    finally:
        tracer.restore()
    metrics = SPANS["layer_metrics"](tracer, 1.0)
    # one evaluation per point kept that the screen did not rule out, counted
    # here through a plain functools.wraps wrapper; one blend per block of a
    # wave's rows
    objective, _ = harness.build_problem(config)
    calls = []
    counting = functools.wraps(objective.evaluate)(
        lambda x: calls.append(None) or objective.evaluate(x)
    )
    engine.run(harness._swarm_config(config, objective, 0), replace(objective, evaluate=counting))
    eval_count = report["trials"][0]["eval_count"]
    assert metrics["objectives.evaluate.calls"] == len(calls) < eval_count
    assert metrics["engine.updates"] < eval_count - 2 * config.population
    # evaluations reuse their bases; only the attenuation and the response plot
    # compute a response through fir_response_magnitude
    assert metrics["filters.response.calls"] == 2


def test_wrapped_fir_objective_keeps_both_bound_tiers():
    # the tracer's functools.wraps wrapper of a symmetric FIR evaluate carries
    # the same two tiers, and a run through it is the same bit for bit
    objective, _ = harness.build_problem(PRESETS["fir-20"])
    evaluate = objective.evaluate
    wrapped = replace(objective, evaluate=functools.wraps(evaluate)(lambda x: evaluate(x)))
    assert wrapped.evaluate.lower_bounds is evaluate.lower_bounds
    assert len(evaluate.lower_bounds) == 2
    config = engine.SwarmConfig(
        population=200, init_range=objective.init_range, seed=[2023, 0], max_iter=40
    )
    a, b = engine.run(config, objective), engine.run(config, wrapped)
    for name in ("positions", "delta_prev", "delta_prev2", "best_solution"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.trace, a.events, a.eval_count) == (b.trace, b.events, b.eval_count)


def test_tracer_keeps_the_benchmark_block_path(tmp_path):
    # the traced evaluate is a functools.wraps wrapper, which keeps the mark
    # that sends a benchmark's blocks of rows to one call each
    tracer = SPANS["Tracer"]()
    tracer.install({"engine": engine, "filters": filters, "harness": harness, "svg": svg})
    config = harness.ExperimentConfig(
        objective="rastrigin", dimension=3, population=4, iterations=30, trials=1,
        out_dir=str(tmp_path),
    )
    try:
        _, report = harness.run_experiment(config)
    finally:
        tracer.restore()
    metrics = SPANS["layer_metrics"](tracer, 1.0)
    # two initial blocks, then one blend and one evaluation per block
    assert metrics["engine.init.evals"] == 2
    assert metrics["objectives.evaluate.calls"] == 2 + metrics["engine.updates"]
    assert metrics["engine.updates"] < report["trials"][0]["eval_count"] - 2 * config.population
