"""Swarm engine: config guards, init/step semantics, run invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdds.engine import (
    SwarmConfig,
    blend_with_gbest,
    init_swarm,
    run,
    step,
)
from qdds.objectives import Objective, make_benchmark
from qdds.well import (
    DELTA_MAX,
    delta_of_r,
    delta_update_arrays,
    learning_rate,
    solve_r_batch,
)


def config(**kwargs):
    defaults = dict(
        max_iter=20,
        population=4,
        dimension=3,
        init_range=(-2.0, 2.0),
        seed=42,
    )
    defaults.update(kwargs)
    return SwarmConfig(**defaults)


class TestSwarmConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            config(population=0)
        with pytest.raises(ValueError):
            config(dimension=0)
        with pytest.raises(ValueError):
            config(init_range=(1.0, -1.0))
        with pytest.raises(ValueError):
            config(mode="both")
        with pytest.raises(ValueError):
            config(rebind="mid")
        with pytest.raises(ValueError, match="lambda_abs"):
            config(lambda_abs="false")
        with pytest.raises(ValueError, match="lam"):
            config(lam=-1e308)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 2.0},
            {"population": True},
            {"dimension": 2.5},
            {"max_iter": 10.5},
            {"seed": 1.5},
            {"seed": [2023, 1.5]},
            {"seed": [2023, False]},
            {"seed": -1},
        ],
    )
    def test_counts_and_seeds_must_be_integers(self, kwargs):
        with pytest.raises(ValueError, match="population|dimension|max_iter|seed"):
            config(**kwargs)
    def test_numpy_integers_accepted(self):
        cfg = config(population=np.int64(3), max_iter=np.int32(10), seed=[np.uint64(5), 2])
        assert cfg.population == 3

    def test_guard_halfwidth(self):
        assert config().guard_halfwidth() == pytest.approx(70.0)
        assert config(k=1.0).guard_halfwidth() == pytest.approx(350.0)

    def test_init_range_clipped_to_guard(self):
        cfg = config(init_range=(-600.0, 600.0))
        assert cfg.effective_init_range() == (-70.0, 70.0)

    def test_init_range_outside_guard_rejected(self):
        with pytest.raises(ValueError, match="solvable"):
            config(init_range=(100.0, 200.0))


class TestBlend:
    def test_identical_vectors_fixed_point(self):
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(blend_with_gbest(x, x, 0.77), x)

    def test_hand_value(self):
        assert blend_with_gbest([2.0], [0.0], 0.25) == pytest.approx([0.5])

    def test_endpoints(self):
        raw = np.array([1.0, 2.0])
        gbest = np.array([-3.0, 5.0])
        assert np.array_equal(blend_with_gbest(raw, gbest, 1.0), raw)
        assert np.array_equal(blend_with_gbest(raw, gbest, 0.0), gbest)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blend_with_gbest([1.0], [1.0, 2.0], 0.5)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            blend_with_gbest([1.0], [2.0], 1.5)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stays_in_hull(self, values, rho):
        raw = np.asarray(values)
        gbest = raw[::-1].copy()
        out = blend_with_gbest(raw, gbest, rho)
        lo = np.minimum(raw, gbest)
        hi = np.maximum(raw, gbest)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


class TestInit:
    def test_counters_and_trace(self):
        cfg = config()
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        assert swarm.iteration == 3
        assert swarm.eval_count == 2 * cfg.population
        assert swarm.trace == [
            (1, swarm.trace[0][1], cfg.population),
            (2, swarm.best_cost, 2 * cfg.population),
            (3, swarm.best_cost, 2 * cfg.population),
        ]
        assert swarm.trace[0][1] >= swarm.best_cost

    def test_single_particle_best_is_min_of_both_draws(self):
        cfg = config(population=1, seed=7)
        obj = make_benchmark("sphere", cfg.dimension)
        rng = np.random.default_rng(7)
        rng.normal(0.0, 0.5)  # the lam draw comes first
        r1 = rng.uniform(-2.0, 2.0, (1, 3))
        r2 = rng.uniform(-2.0, 2.0, (1, 3))
        swarm = init_swarm(cfg, obj)
        assert swarm.best_cost == min(obj.evaluate(r1[0]), obj.evaluate(r2[0]))

    @pytest.mark.parametrize("seed", [[2023, 0], 5])
    def test_histories_come_from_two_sequential_draws(self, seed):
        cfg = config(seed=seed, population=5)
        swarm = init_swarm(cfg, make_benchmark("rastrigin", cfg.dimension))
        rng = np.random.default_rng(seed)
        rng.normal(0.0, 0.5)  # lam
        r1 = rng.uniform(-2.0, 2.0, (cfg.population, cfg.dimension))
        r2 = rng.uniform(-2.0, 2.0, (cfg.population, cfg.dimension))
        assert swarm.positions.tobytes() == r2.tobytes()
        assert swarm.delta_prev.tobytes() == delta_of_r(r2, cfg.k).tobytes()
        assert swarm.delta_prev2.tobytes() == delta_of_r(r1, cfg.k).tobytes()
        assert swarm.rng.bit_generator.state == rng.bit_generator.state

    def test_degenerate_range_pins_histories(self):
        cfg = config(init_range=(0.1, 0.1))
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        expected = delta_of_r(0.1, cfg.k)
        assert np.all(swarm.delta_prev == expected)
        assert np.all(swarm.delta_prev2 == expected)
        assert np.all(swarm.positions == 0.1)

    def test_deterministic(self):
        cfg = config(seed=[5, 2])
        obj = make_benchmark("rastrigin", cfg.dimension)
        a = init_swarm(cfg, obj)
        b = init_swarm(cfg, obj)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.delta_prev, b.delta_prev)
        assert a.best_cost == b.best_cost
        assert a.lam == b.lam

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            init_swarm(config(dimension=3), make_benchmark("sphere", 4))

    @pytest.mark.parametrize("cost", [None, "1.0", np.ones(2)], ids=["none", "str", "array"])
    def test_non_scalar_cost_rejected(self, cost):
        obj = Objective(name="bad", dimension=3, evaluate=lambda x: cost, init_range=(-2.0, 2.0))
        with pytest.raises(ValueError, match="^objective 'bad' returned .*, not a real scalar$"):
            init_swarm(config(), obj)

    def test_explicit_lam_honored(self):
        cfg = config(lam=-0.25, max_iter=20)
        swarm = init_swarm(cfg, make_benchmark("sphere", cfg.dimension))
        assert swarm.lam == -0.25

    def test_lambda_abs_flips_negative_lam(self):
        cfg = config(lam=-0.25, max_iter=20, lambda_abs=True)
        swarm = init_swarm(cfg, make_benchmark("sphere", cfg.dimension))
        assert swarm.lam == 0.25

    def test_drawn_lam_scale(self):
        cfg = config(seed=11)
        swarm = init_swarm(cfg, make_benchmark("sphere", cfg.dimension))
        rng = np.random.default_rng(11)
        assert swarm.lam == float(rng.normal(0.0, 0.5) * 1e-3)


# Reference oracle for step: the per-iteration loop the engine ran before it
# batched the gate, the solve and the rebind over a wave's rows.
def _update_particle_reference(swarm, objective, p, theta):
    cfg = swarm.config
    dp = swarm.delta_prev[p]
    dp2 = swarm.delta_prev2[p]
    delta_new, fired = delta_update_arrays(dp, dp2, theta, swarm.lam)
    swarm.events["in_band"] += int(cfg.dimension - fired.sum())
    r_raw, solved, fallbacks = solve_r_batch(delta_new, cfg.k)
    swarm.events["solver_fallback"] += fallbacks
    swarm.events["guard_clamp"] += int((~solved).sum())
    r_raw = np.where(solved, r_raw, swarm.positions[p])
    delta_new = np.where(solved, delta_new, dp)
    rho = float(swarm.rng.uniform())
    blended = blend_with_gbest(r_raw, swarm.best_solution, rho)
    cost = objective.evaluate(blended)
    swarm.eval_count += 1
    if cost < swarm.best_cost:
        swarm.best_cost = float(cost)
        swarm.best_solution = blended.copy()
    swarm.positions[p] = blended
    swarm.delta_prev2[p] = dp
    if cfg.rebind == "post":
        swarm.delta_prev[p] = delta_of_r(blended, cfg.k)
    else:
        swarm.delta_prev[p] = delta_new


def step_reference(swarm, objective):
    cfg = swarm.config
    theta = learning_rate(swarm.iteration, cfg.max_iter, cfg.epsilon)
    if cfg.mode == "literal":
        indices = [int(swarm.rng.integers(cfg.population))]
    else:
        indices = range(cfg.population)
    for p in indices:
        _update_particle_reference(swarm, objective, p, theta)
    swarm.iteration += 1
    swarm.trace.append((swarm.iteration, swarm.best_cost, swarm.eval_count))


def step_both(swarm, ref, objective):
    """One step, then the reference iterations up to the wave's end."""
    step(swarm, objective)
    while ref.iteration < swarm.iteration:
        step_reference(ref, objective)


def assert_same_swarm(a, b):
    for name in ("positions", "delta_prev", "delta_prev2", "best_solution"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert np.float64(a.best_cost).tobytes() == np.float64(b.best_cost).tobytes()
    assert a.trace == b.trace
    assert a.events == b.events
    assert (a.iteration, a.eval_count) == (b.iteration, b.eval_count)
    # a pending pick is drawn but not yet used, so the reference lags it
    if a.pending_pick is None:
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestStepMatchesReference:
    """step leaves every bit the per-iteration reference loop leaves."""

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    @pytest.mark.parametrize("rebind", ["post", "pre"])
    @pytest.mark.parametrize("seed", [[2023, 0], [77, 3], 5])
    @pytest.mark.parametrize("function", ["rastrigin", "rosenbrock"])
    def test_run(self, mode, rebind, seed, function):
        cfg = config(
            mode=mode, rebind=rebind, seed=seed, population=6, dimension=5, max_iter=60
        )
        obj = make_benchmark(function, cfg.dimension)
        swarm, ref = init_swarm(cfg, obj), init_swarm(cfg, obj)
        while swarm.iteration < cfg.max_iter:
            step_both(swarm, ref, obj)
            assert_same_swarm(swarm, ref)
        assert swarm.pending_pick is None

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    @pytest.mark.parametrize("rebind", ["post", "pre"])
    def test_unsolved_rows(self, mode, rebind):
        # dimension 0 sits above its band near DELTA_MAX; a negative lam
        # pushes it past the solvable range, so it comes back unsolved
        cfg = config(mode=mode, rebind=rebind, lam=-1.0, seed=9)
        obj = make_benchmark("sphere", cfg.dimension)
        swarm, ref = init_swarm(cfg, obj), init_swarm(cfg, obj)
        for s in (swarm, ref):
            s.delta_prev[:, 0] = 0.9 * DELTA_MAX
            s.delta_prev2[:, 0] = 0.1 * DELTA_MAX
        step_both(swarm, ref, obj)
        assert swarm.events["guard_clamp"] > 0
        assert_same_swarm(swarm, ref)
        while swarm.iteration < cfg.max_iter:
            step_both(swarm, ref, obj)
            assert_same_swarm(swarm, ref)
        assert swarm.pending_pick is None


class TestStep:
    def test_literal_updates_exactly_one_particle(self):
        # per iteration one particle: a wave's updated rows are distinct,
        # one per iteration it advances
        cfg = config(seed=3, population=8, max_iter=60)
        obj = make_benchmark("rastrigin", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        while swarm.iteration < cfg.max_iter:
            before, iteration = swarm.positions.copy(), swarm.iteration
            evals = swarm.eval_count
            step(swarm, obj)
            advanced = swarm.iteration - iteration
            changed = np.any(swarm.positions != before, axis=1)
            assert 1 <= advanced <= cfg.population
            assert changed.sum() == advanced
            assert swarm.eval_count == evals + advanced
            assert len(swarm.trace) == swarm.iteration

    def test_sweep_updates_all_particles(self):
        cfg = config(mode="sweep", seed=3)
        base = make_benchmark("rastrigin", cfg.dimension)
        evaluated = []

        def evaluate(x):
            evaluated.append(x.copy())
            return base.evaluate(x)

        obj = replace(base, evaluate=evaluate)
        swarm = init_swarm(cfg, obj)
        evaluated.clear()
        step(swarm, obj)
        assert swarm.eval_count == 2 * cfg.population + cfg.population
        # each blended point becomes its particle's position: recover the order
        order = [
            int(np.flatnonzero(np.all(swarm.positions == x, axis=1))[0]) for x in evaluated
        ]
        assert order == list(range(cfg.population))

    def test_step_replays_seeded_schedule(self):
        cfg = config()
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        before = swarm.positions.copy()
        dp, dp2 = swarm.delta_prev.copy(), swarm.delta_prev2.copy()
        gbest, best_cost = swarm.best_solution.copy(), swarm.best_cost
        step(swarm, obj)

        rng = np.random.default_rng(cfg.seed)
        rng.normal(0.0, 0.5)  # lam
        rng.uniform(-2.0, 2.0, (cfg.population, cfg.dimension))  # r1
        rng.uniform(-2.0, 2.0, (cfg.population, cfg.dimension))  # r2
        # one (pick, rho) per iteration, up to the first repeated pick
        picks, rhos = [], []
        p = int(rng.integers(cfg.population))
        while p not in picks:
            picks.append(p)
            rhos.append(float(rng.uniform()))
            p = int(rng.integers(cfg.population))
        assert swarm.pending_pick == p
        assert swarm.rng.bit_generator.state == rng.bit_generator.state
        assert swarm.iteration == 3 + len(picks)
        for i, (p, rho) in enumerate(zip(picks, rhos)):
            theta = learning_rate(3 + i, cfg.max_iter, cfg.epsilon)
            delta_new, _ = delta_update_arrays(dp[p], dp2[p], theta, swarm.lam)
            r_raw, solved, _ = solve_r_batch(delta_new, cfg.k)
            assert solved.all()
            blended = blend_with_gbest(r_raw, gbest, rho)
            assert np.array_equal(swarm.positions[p], blended)
            cost = obj.evaluate(blended)
            if cost < best_cost:
                gbest, best_cost = blended, cost
        assert swarm.best_cost == best_cost
        changed = np.flatnonzero(np.any(swarm.positions != before, axis=1))
        assert changed.tolist() == sorted(picks)

    def test_step_past_max_iter_rejected(self):
        cfg = config(max_iter=4)
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        step(swarm, obj)
        with pytest.raises(ValueError, match="max_iter"):
            step(swarm, obj)

    def test_wave_stops_at_max_iter(self):
        # 1000 particles make a repeat within 5 picks unlikely: the first wave
        # is cut by max_iter, and no pick or rho is drawn past it
        cfg = config(population=1000, max_iter=8, seed=6)
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        rng = np.random.default_rng(cfg.seed)
        rng.bit_generator.state = swarm.rng.bit_generator.state
        step(swarm, obj)
        assert swarm.iteration == cfg.max_iter
        assert len(swarm.trace) == cfg.max_iter
        assert swarm.eval_count == 2 * cfg.population + cfg.max_iter - 3
        assert swarm.pending_pick is None
        for _ in range(cfg.max_iter - 3):
            rng.integers(cfg.population)
            rng.uniform()
        assert swarm.rng.bit_generator.state == rng.bit_generator.state

    def test_post_rebind_keeps_delta_position_invariant(self):
        cfg = config(seed=19, rebind="post")
        obj = make_benchmark("rastrigin", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        while swarm.iteration < cfg.max_iter:
            step(swarm, obj)
            assert np.array_equal(swarm.delta_prev, delta_of_r(swarm.positions, cfg.k))

    def test_in_band_pre_rebind_freezes_raw_positions(self):
        # degenerate init: grad = 0, every dimension in-band, so the
        # gate passes delta through and the inverse solve repeats 0.1
        cfg = config(init_range=(0.1, 0.1), rebind="pre", seed=2)
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        expected = delta_of_r(0.1, cfg.k)
        while swarm.iteration < cfg.max_iter:
            step(swarm, obj)
            assert np.all(swarm.delta_prev == expected)
            assert np.all(swarm.delta_prev2 == expected)
            assert np.allclose(swarm.positions, 0.1, atol=1e-9)

    def test_rho_validation(self):
        for rho in (1.2, -0.1):
            with pytest.raises(ValueError, match="rho"):
                blend_with_gbest([1.0], [2.0], rho)


class TestRun:
    def test_max_iter_three_is_init_only(self):
        cfg = config(max_iter=3, seed=8)
        obj = make_benchmark("sphere", cfg.dimension)
        res = run(cfg, obj)
        swarm = init_swarm(cfg, obj)
        assert res.best_cost == swarm.best_cost
        assert res.eval_count == 2 * cfg.population
        assert len(res.trace) == 3

    def test_trace_shape_and_monotonicity(self):
        cfg = config(max_iter=40, seed=1)
        obj = make_benchmark("rastrigin", cfg.dimension)
        res = run(cfg, obj)
        assert len(res.trace) == 40
        assert [row[0] for row in res.trace] == list(range(1, 41))
        costs = [row[1] for row in res.trace]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert res.best_cost == costs[-1]

    def test_eval_accounting(self):
        cfg = config(max_iter=25, seed=4)
        obj = make_benchmark("sphere", cfg.dimension)
        assert run(cfg, obj).eval_count == 2 * cfg.population + (25 - 3)
        cfg_sweep = config(max_iter=25, seed=4, mode="sweep")
        assert run(cfg_sweep, obj).eval_count == 2 * cfg.population + (25 - 3) * cfg.population

    def test_best_cost_matches_best_solution(self):
        cfg = config(seed=13)
        obj = make_benchmark("griewank", cfg.dimension)
        res = run(cfg, obj)
        assert obj.evaluate(res.best_solution) == res.best_cost

    def test_bitwise_determinism(self):
        cfg = config(seed=[2023, 6], max_iter=30)
        obj = make_benchmark("rastrigin", cfg.dimension)
        a = run(cfg, obj)
        b = run(cfg, obj)
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.best_solution, b.best_solution)
        assert a.trace == b.trace
        assert a.events == b.events
        assert a.lam == b.lam

    def test_positions_stay_within_guard(self):
        cfg = config(
            init_range=(-100.0, 100.0), seed=21, max_iter=30
        )
        obj = make_benchmark("sphere", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        hw = cfg.guard_halfwidth()
        while swarm.iteration < cfg.max_iter:
            step(swarm, obj)
            assert np.all(np.abs(swarm.positions) <= hw + 1e-9)

    def test_tight_sphere_converges(self):
        cfg = SwarmConfig(
            max_iter=250,
            population=4,
            dimension=1,
            init_range=(-0.01, 0.01),
            seed=0,
        )
        res = run(cfg, make_benchmark("sphere", 1))
        assert res.best_cost <= 1e-4

    def test_event_counters_bounded(self):
        cfg = config(seed=17, max_iter=30)
        obj = make_benchmark("rastrigin", cfg.dimension)
        res = run(cfg, obj)
        updates = 30 - 3
        events = res.events
        assert 0 <= events["in_band"] <= updates * cfg.dimension
        assert events["solver_fallback"] >= 0
        assert events["guard_clamp"] >= 0

    def test_nan_cost_at_init_does_not_poison_best(self):
        cfg = config(seed=5)
        base = make_benchmark("sphere", cfg.dimension)
        calls = []

        def evaluate(x):
            calls.append(None)
            return float("nan") if len(calls) == 1 else base.evaluate(x)

        res = run(cfg, replace(base, evaluate=evaluate))
        assert math.isfinite(res.best_cost)
        assert all(math.isfinite(row[1]) for row in res.trace)
        assert base.evaluate(res.best_solution) == res.best_cost

    def test_all_nan_costs_raise(self):
        obj = replace(make_benchmark("sphere", 3), evaluate=lambda x: float("nan"))
        with pytest.raises(ValueError, match="no finite cost"):
            run(config(), obj)

    def test_frozen_dynamics_with_zero_lam(self):
        cfg = config(
            lam=0.0, max_iter=30, rebind="pre", seed=23
        )
        obj = make_benchmark("rastrigin", cfg.dimension)
        swarm = init_swarm(cfg, obj)
        initial_prev = swarm.delta_prev.copy()
        while swarm.iteration < cfg.max_iter:
            step(swarm, obj)
        assert np.array_equal(swarm.delta_prev, initial_prev)
        # the two-deep window shifts once per particle, then freezes
        touched = ~np.all(swarm.delta_prev2 == init_swarm(cfg, obj).delta_prev2, axis=1)
        assert np.array_equal(swarm.delta_prev2[touched], initial_prev[touched])
