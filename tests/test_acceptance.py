"""Acceptance gate: one test per shipping criterion, stated tolerances.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s, and in the failure report otherwise) and asserts the
criterion at its stated tolerance and runtime budget. Two criteria are
known to fail honestly: the 10-coefficient reference attenuation target
disagrees with its own reference coefficients, and three of the four
stochastic reproduction targets are unreachable under every supported
design-decision switch combination. Both failures print the measured
evidence; neither tolerance is loosened to hide them.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from qdds.cli import main as cli_main
from qdds.engine import MODES, REBINDS, SwarmConfig, blend_with_gbest, init_swarm, step
from qdds.filters import FilterSpec, fir_band_errors, stopband_attenuation_db
from qdds.harness import ExperimentConfig, canonical_json, run_trial
from qdds.objectives import BENCHMARK_NAMES, make_benchmark
from qdds.presets import PRESETS
from qdds.validate import (
    REFERENCE_DELTA_DB_10,
    REFERENCE_DELTA_DB_20,
    REFERENCE_HALF_10,
    REFERENCE_HALF_20,
    check_confinement,
    check_round_trip,
)
from qdds.well import delta_update_arrays


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_reference_attenuation_goldens():
    started = time.perf_counter()
    checks = []
    for half, order, target in (
        (REFERENCE_HALF_10, 10, REFERENCE_DELTA_DB_10),
        (REFERENCE_HALF_20, 20, REFERENCE_DELTA_DB_20),
    ):
        spec = FilterSpec(n_coeff=order)
        got = stopband_attenuation_db(spec.taps(half), spec)
        checks.append((order, got, target, abs(got - target) <= 0.1))
    elapsed = time.perf_counter() - started
    detail = "; ".join(
        f"{order}-tap {got:.4f} dB vs {target:.4f} +- 0.1 dB"
        f" ({'ok' if ok else 'MISS'})"
        for order, got, target, ok in checks
    )
    ok = all(c[3] for c in checks) and elapsed < 1.0
    verdict(1, ok, f"{detail}; {elapsed:.2f}s < 1s")
    assert elapsed < 1.0
    assert ok, (
        f"reference attenuation mismatch: {detail}. The 10-tap reference "
        "target is inconsistent with its own coefficient listing (their "
        "tallest stopband lobe sits near -9.24 dB); kept failing honestly."
    )


def test_criterion_2_confinement_identity_oracle():
    started = time.perf_counter()
    result = check_confinement(probes=100, quad_points=10**5, rel_tol=1e-6)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 30.0
    verdict(2, ok, f"{result.detail}; {elapsed:.1f}s < 30s")
    assert elapsed < 30.0
    assert result.passed, result.detail


def test_criterion_3_inverse_map_round_trip():
    started = time.perf_counter()
    result = check_round_trip(samples=10**5, tol=1e-9)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 10.0
    verdict(3, ok, f"{result.detail}; {elapsed:.1f}s < 10s")
    assert elapsed < 10.0
    assert result.passed, result.detail


def test_criterion_4_analytic_filter_cases():
    started = time.perf_counter()
    spec = FilterSpec(grid_points=2048)
    impulse = np.zeros(10)
    impulse[0] = 1.0
    got_impulse = fir_band_errors(impulse, spec)
    got_zero = fir_band_errors(np.zeros(10), spec)
    elapsed = time.perf_counter() - started
    err = max(
        abs(got_impulse[0] - 0.0),
        abs(got_impulse[1] - 0.4),
        abs(got_zero[0] - 0.3),
        abs(got_zero[1] - 0.0),
    )
    ok = err <= 1e-4 and elapsed < 1.0
    verdict(
        4,
        ok,
        f"impulse ({got_impulse[0]:.2e}, {got_impulse[1]:.6f}) vs (0, 0.4), "
        f"zero ({got_zero[0]:.6f}, {got_zero[1]:.2e}) vs (0.3, 0), "
        f"worst error {err:.2e} <= 1e-4; {elapsed:.2f}s < 1s",
    )
    assert elapsed < 1.0
    assert ok


def _mini_run(rng, index):
    """One randomized mini-run config within the criterion-5 envelope."""
    name = BENCHMARK_NAMES[index % 4]
    dim = int(rng.integers(2 if name == "rosenbrock" else 1, 6))
    pop = int(rng.integers(1, 11))
    mode = "sweep" if index % 5 == 0 else "literal"
    iters = int(rng.integers(4, 21 if mode == "sweep" else 51))
    cfg = SwarmConfig(
        max_iter=iters,
        population=pop,
        init_range=(-2.0, 2.0),
        seed=[9000, index],
        mode=mode,
        rebind=REBINDS[index % 2],
        lambda_abs=bool(index % 3 == 0),
    )
    return cfg, make_benchmark(name, dim)


def _drive(cfg, objective):
    swarm = init_swarm(cfg, objective)
    while len(swarm.trace) < cfg.max_iter:
        step(swarm, objective)
    return swarm


def test_criterion_5_engine_invariant_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(515)
    runs = 1000
    for i in range(runs):
        cfg, objective = _mini_run(rng, i)
        a = _drive(cfg, objective)
        b = _drive(cfg, objective)

        # bit-exact determinism of two identical seeded runs
        assert a.trace == b.trace
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.best_solution, b.best_solution)
        assert np.array_equal(a.positions, b.positions)
        assert a.events == b.events

        # best-cost monotonicity down the trace
        costs = [row[1] for row in a.trace]
        assert all(x >= y for x, y in zip(costs, costs[1:]))
        assert a.best_cost == costs[-1]

        # eval_count accounting: 2P at init, one per particle update
        updates = cfg.max_iter - 3
        if cfg.mode == "sweep":
            updates *= cfg.population
        assert a.eval_count == 2 * cfg.population + updates
        assert a.trace[-1][2] == a.eval_count

        # best solution really evaluates to the recorded best cost
        assert objective.evaluate(a.best_solution) == a.best_cost

        # blend convexity on a fresh random triple
        raw = rng.uniform(-5.0, 5.0, objective.dimension)
        gbest = rng.uniform(-5.0, 5.0, objective.dimension)
        rho = float(rng.uniform())
        blended = blend_with_gbest(raw, gbest, rho)
        assert np.all(blended >= np.minimum(raw, gbest) - 1e-12)
        assert np.all(blended <= np.maximum(raw, gbest) + 1e-12)

        # gate algebra: in-band no-op and band push-back with theta*lam >= 0
        theta = float(rng.uniform())
        lam = float(rng.uniform(0.0, 2e-3))
        dp2 = float(rng.uniform(1e-3, 1e3))
        dp_in = float(rng.uniform(0.51, 1.99)) * dp2
        assert delta_update_arrays(dp_in, dp2, theta, lam)[0] == dp_in
        dp_above = float(rng.uniform(2.01, 4.0)) * dp2
        assert delta_update_arrays(dp_above, dp2, theta, lam)[0] <= dp_above
        dp_below = float(rng.uniform(0.0, 0.49)) * dp2
        assert delta_update_arrays(dp_below, dp2, theta, lam)[0] >= dp_below

        # frozen dynamics at lam = 0 under pre-blend rebinding
        if i % 20 == 0:
            frozen_cfg = SwarmConfig(
                lam=0.0,
                max_iter=cfg.max_iter,
                population=cfg.population,
                init_range=(-2.0, 2.0),
                seed=[9001, i],
                mode=cfg.mode,
                rebind="pre",
            )
            frozen = _drive(frozen_cfg, objective)
            baseline = init_swarm(frozen_cfg, objective)
            assert np.array_equal(frozen.delta_prev, baseline.delta_prev)

    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    verdict(5, ok, f"{runs} randomized mini-runs, all invariants held; {elapsed:.1f}s < 60s")
    assert ok


# trial-mean upper bounds: 10x the published means (sphere capped at 0.1)
REPRO_BOUNDS = {
    "rastrigin": 1.214,
    "griewank": 8.0851e-4,
    "rosenbrock": 88.912,
    "sphere": 0.1,
}


def _trial_mean(name, mode="literal", rebind="post", lambda_abs=False):
    cfg = ExperimentConfig(
        objective=name,
        dimension=10,
        population=20,
        iterations=250,
        trials=10,
        master_seed=2023,
        mode=mode,
        rebind=rebind,
        lambda_abs=lambda_abs,
    )
    return float(np.mean([run_trial(cfg, t).best_cost for t in range(cfg.trials)]))


def test_criterion_6_stochastic_reproduction():
    started = time.perf_counter()
    lines = []
    all_ok = True
    for name in BENCHMARK_NAMES:
        bound = REPRO_BOUNDS[name]
        default_mean = _trial_mean(name)
        if default_mean <= bound:
            lines.append(f"{name}: defaults mean {default_mean:.6g} <= {bound:g}")
            continue
        # defaults missed: search every design-decision switch combination
        combo_rows = []
        closing = []
        for mode, rebind, labs in product(MODES, REBINDS, (False, True)):
            if (mode, rebind, labs) == ("literal", "post", False):
                mean = default_mean
            else:
                mean = _trial_mean(name, mode, rebind, labs)
            combo_rows.append(
                f"    mode={mode} rebind={rebind} lambda_abs={labs}: "
                f"mean {mean:.6g} {'<=' if mean <= bound else '>'} {bound:g}"
            )
            if mean <= bound:
                closing.append((mode, rebind, labs))
        if closing:
            lines.append(
                f"{name}: defaults mean {default_mean:.6g} > {bound:g}, "
                f"closed by {closing[0]}"
            )
        else:
            all_ok = False
            lines.append(
                f"{name}: defaults mean {default_mean:.6g} > {bound:g}, "
                "NO switch combination closes it:"
            )
        lines.extend(combo_rows)
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 300.0
    report = "\n".join(lines)
    print(report)
    verdict(6, ok, f"see per-function table above; {elapsed:.0f}s < 300s")
    assert elapsed < 300.0
    assert ok, (
        "reproduction targets missed with no closing switch combination "
        f"(full table follows):\n{report}"
    )


def test_criterion_7_preset_sweep_completeness(tmp_path):
    started = time.perf_counter()
    names = list(PRESETS)

    expected = {
        f"{fn}-d{dim}-p{pop}"
        for fn in BENCHMARK_NAMES
        for dim, _ in ((10, 250), (20, 375), (30, 500))
        for pop in (20, 40, 80)
    }
    expected |= {"fir-10", "fir-20"}
    assert set(names) == expected
    assert len(names) == 38

    iters_by_dim = {10: 250, 20: 375, 30: 500}
    for name in names:
        cfg = PRESETS[name]
        assert cfg.trials == 10
        if name.startswith("fir"):
            assert cfg.population == 1000
            assert (cfg.order, cfg.iterations) in ((10, 250), (20, 500))
        else:
            fn, dim_part, pop_part = name.rsplit("-", 2)
            assert cfg.objective == fn
            assert cfg.dimension == int(dim_part[1:])
            assert cfg.population == int(pop_part[1:])
            assert cfg.iterations == iters_by_dim[cfg.dimension]

    assert cli_main(["presets", "all", "--out", str(tmp_path)]) == 0

    for name in names:
        cfg = PRESETS[name]
        trace_path = tmp_path / f"{name}_traces.csv"
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "trial,iter,best_cost,eval_count"
        assert len(lines) == 1 + cfg.trials * cfg.iterations

        assert (tmp_path / f"{name}_convergence.svg").exists()

        report_text = (tmp_path / f"{name}_report.json").read_text()
        report = json.loads(report_text)
        assert canonical_json(report) == report_text
        assert {"config", "stats", "trials", "events_total"} <= set(report)
        assert len(report["trials"]) == cfg.trials
        assert {"mean", "std", "best", "worst"} <= set(report["stats"])
        if name.startswith("fir"):
            assert len(report["fir"]["coefficients"]) == cfg.order
            assert (tmp_path / f"{name}_response.svg").exists()
            assert (tmp_path / f"{name}_coefficients.csv").exists()

    elapsed = time.perf_counter() - started
    ok = elapsed < 900.0
    verdict(7, ok, f"38 presets ran to completion, artifacts verified; {elapsed:.0f}s < 900s")
    assert ok
