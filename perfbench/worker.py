"""One benchmark pass in a fresh interpreter.

Started by run.py from the root of a qdds checkout; puts ``src`` first on
the import path. A pass runs every cell of the workload once through
``qdds.harness.run_experiment`` (one trial per cell, workers=1), so the
pass at a seed writes what ``qdds presets <cell> --trials 1 --seed
<seed>`` writes. Every pass gets its own process because the FIR
workload's speed depends on the allocator state a previous pass leaves
behind (a later pass in the same process ran about 1.5x faster); a user
running one preset meets the fresh-process state.

Prints one JSON object on stdout. ``ready`` is the perf_counter reading
when the first trial is about to start (qdds imported, presets resolved,
build_problem run on the first cell); perf_counter is CLOCK_MONOTONIC on
Linux, so the parent subtracts its own reading taken before the spawn.
With ``--setup-only`` that is all; otherwise the pass's timings, check
outcomes and artifact digests follow, and with ``--trace 1`` the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import sys
import time

OUT_ROOT = ".perfbench_out"

# workload name -> (preset selector, engine mode override)
WORKLOADS = {
    "literal-grid": ("benchmarks", None),
    "sweep-rastrigin-d30-p80": ("rastrigin-d30-p80", "sweep"),
    "fir-20": ("fir-20", None),
}

_TIMING_BLOCK = re.compile(r'\n  "timing": \{.*?\n  \},?', re.S)


def workload_configs(name, seed, out_dir):
    from dataclasses import replace

    from qdds.presets import PRESETS

    selector, mode = WORKLOADS[name]
    if selector == "benchmarks":
        names = [n for n, cfg in PRESETS.items() if cfg.objective != "fir"]
    else:
        names = [selector]
    overrides = {"trials": 1, "master_seed": seed, "workers": 1, "out_dir": out_dir}
    if mode is not None:
        overrides["mode"] = mode
    return [replace(PRESETS[n], **overrides) for n in names]


def digest(path):
    """sha256 of an artifact; reports lose their non-deterministic timing block."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("_report.json"):
        data = _TIMING_BLOCK.sub("", data.decode("ascii")).encode("ascii")
    return hashlib.sha256(data).hexdigest()


def expected_evals(cfg):
    updates = cfg.iterations - 3
    per_iter = cfg.population if cfg.mode == "sweep" else 1
    return 2 * cfg.population + per_iter * updates


def trial_problems(cfg, result, build_problem):
    """Checks that hold whatever the exact bits of the result are."""
    problems = []
    if not math.isfinite(result.best_cost):
        problems.append(f"best_cost {result.best_cost!r} is not finite")
    objective, _ = build_problem(cfg)
    again = objective.evaluate(result.best_solution)
    if again != result.best_cost:
        problems.append(f"re-evaluated best {again!r} != best_cost {result.best_cost!r}")
    if len(result.trace) != cfg.iterations:
        problems.append(f"{len(result.trace)} trace rows, expected {cfg.iterations}")
    costs = [row[1] for row in result.trace]
    if any(b > a for a, b in zip(costs, costs[1:])):
        problems.append("best cost increases along the trace")
    if result.eval_count != expected_evals(cfg):
        problems.append(f"eval_count {result.eval_count}, expected {expected_evals(cfg)}")
    return problems


class Capture:
    """Times each run_trial call and keeps its result for the checks."""

    def __init__(self, run_trial):
        self.run_trial = run_trial
        self.times: list[float] = []
        self.results: list = []

    def __call__(self, config, trial):
        t = time.perf_counter()
        result = self.run_trial(config, trial)
        self.times.append(time.perf_counter() - t)
        self.results.append((config, result))
        return result


def run_cells(configs, harness):
    """Run every cell once; returns (reports, errors, wall seconds)."""
    reports, errors = [], []
    started = time.perf_counter()
    for cfg in configs:
        try:
            _, report = harness.run_experiment(cfg)
            reports.append((cfg, report))
        except Exception as exc:  # a failing cell is counted, the pass goes on
            errors.append(f"{cfg.resolved_label()}: {type(exc).__name__}: {exc}")
    return reports, errors, time.perf_counter() - started


def check_pass(configs, reports, errors, wall, capture, build_problem):
    """Per-trial checks, timings and artifact digests of one pass."""
    problems = list(errors)
    failed = len(errors)
    costs = []
    for cfg, result in capture.results:
        found = trial_problems(cfg, result, build_problem)
        failed += bool(found)
        problems += [f"{cfg.resolved_label()}: {p}" for p in found]
        costs.append(result.best_cost)
    for cfg, report in reports:
        if cfg.objective == "fir" and len(report["fir"]["coefficients"]) != cfg.order:
            failed += 1
            problems.append(f"{cfg.resolved_label()}: coefficient count != order {cfg.order}")

    out_dir = configs[0].out_dir
    files = sorted(os.listdir(out_dir))
    return {
        "wall": wall,
        "trial_s": list(capture.times),
        "evals": sum(r.eval_count for _, r in capture.results),
        "attempted": sum(cfg.trials for cfg in configs),
        "failed": failed,
        "problems": problems,
        "best_costs": costs,
        "digests": {f: digest(os.path.join(out_dir, f)) for f in files},
        "emit_bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in files),
    }


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def traced_pass(configs, harness, capture, build_problem, spans_path):
    """A pass with the layers traced; adds the per-layer metrics."""
    import qdds.engine
    import qdds.filters
    import qdds.svg
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install(
        {"engine": qdds.engine, "filters": qdds.filters, "harness": harness, "svg": qdds.svg}
    )
    try:
        reports, errors, wall = run_cells(configs, harness)
    finally:
        tracer.restore()
    tracer.save(spans_path)
    result = check_pass(configs, reports, errors, wall, capture, build_problem)
    result["layers"] = layer_metrics(tracer, wall)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = os.path.join(OUT_ROOT, args.workload)
    if not args.setup_only:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    from qdds import harness
    from qdds.harness import build_problem

    if not harness.__file__.startswith(src + os.sep):
        raise ImportError(f"qdds imported from {harness.__file__}, not from {src}")
    configs = workload_configs(args.workload, args.seed, out_dir)
    build_problem(configs[0])
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np

    capture = Capture(harness.run_trial)
    harness.run_trial = capture
    if args.trace:
        spans_path = os.path.join(OUT_ROOT, f"{args.workload}-spans.npz")
        out = traced_pass(configs, harness, capture, build_problem, spans_path)
    else:
        out = check_pass(configs, *run_cells(configs, harness), capture, build_problem)
    out.update(
        ready=ready,
        numpy=np.__version__,
        blas=blas_info(np),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
