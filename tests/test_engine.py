"""Swarm engine: config guards, init/step semantics, run invariants."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdds import engine
from qdds.engine import (
    MODES,
    REBINDS,
    SwarmConfig,
    _draw_literal,
    blend_with_gbest,
    init_swarm,
    run,
    step,
)
from qdds.filters import FilterSpec, make_filter_objective
from qdds.harness import _swarm_config, build_problem
from qdds.objectives import BENCHMARK_NAMES, Objective, make_benchmark, sphere
from qdds.presets import PRESETS
from qdds.well import (
    DELTA_MAX,
    delta_of_r,
    delta_update_arrays,
    learning_rate,
    solve_r_batch,
)


# the dimension of the objectives that config()'s swarms run on
DIM = 3


def config(**kwargs):
    defaults = dict(
        max_iter=20,
        population=4,
        init_range=(-2.0, 2.0),
        seed=42,
    )
    defaults.update(kwargs)
    return SwarmConfig(**defaults)


def _init_rng(cfg, dimension=DIM):
    """A generator in the state init_swarm's lam and (r1, r2) draws leave,
    before it plans the waves."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.lam is None:
        rng.normal(0.0, 0.5)
    rng.uniform(*cfg.effective_init_range(), (2, cfg.population, dimension))
    return rng


# how an objective's evaluate is marked: none, takes_rows or lower_bounds
MARKS = pytest.mark.parametrize("mark", [None, "rows", "bounds"], ids=["per-row", "rows", "bounds"])


def scripted(costs, mark=None):
    """An evaluate returning costs in scoring order, one per call. Marked
    "rows", it carries the benchmarks' takes_rows mark (functools.wraps copies
    it, as onto any wrapper of a benchmark) and returns one cost per row of a
    block. Marked "bounds", it carries a one-tier lower_bounds mark that hands
    each row of a block the next cost as its bound, the tightest bound there
    is, and returns the cost handed to a row when that row is evaluated."""
    costs = list(costs)
    handed = {}

    def evaluate(x):
        if mark == "bounds":
            return handed[x.tobytes()]
        if np.ndim(x) == 2:
            return np.array([costs.pop(0) for _ in x])
        return costs.pop(0)

    def lower_bounds(rows):
        bounds = np.array([costs.pop(0) for _ in rows])
        handed.update(zip((row.tobytes() for row in rows), bounds.tolist()))
        return bounds

    if mark == "rows":
        return functools.wraps(sphere)(evaluate)
    if mark == "bounds":
        evaluate.lower_bounds = (lower_bounds,)
    return evaluate


def counted(objective):
    """(objective, calls): objective behind a functools.wraps wrapper, which
    keeps its marks, appending each point it is called on to calls."""
    calls = []

    @functools.wraps(objective.evaluate)
    def evaluate(x):
        calls.append(x)
        return objective.evaluate(x)

    return replace(objective, evaluate=evaluate), calls


def tier_counted(objective, tiers):
    """(objective, calls): objective behind a plain wrapper carrying the
    lower_bounds tiers, each wrapped; calls maps each tier's index to the
    blocks it was called on and "exact" to the points evaluate was."""
    calls = {"exact": [], **{i: [] for i in range(len(tiers))}}

    def recording(i, tier):
        def bounds(rows):
            calls[i].append(rows.copy())
            return tier(rows)

        return bounds

    def evaluate(x):
        calls["exact"].append(x.copy())
        return objective.evaluate(x)

    evaluate.lower_bounds = tuple(recording(i, tier) for i, tier in enumerate(tiers))
    return replace(objective, evaluate=evaluate), calls


def assert_same_run(a, b):
    """Two finished swarms agree in every state bit and every outcome."""
    for name in ("positions", "delta_prev", "delta_prev2", "best_solution"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert np.float64(a.best_cost).tobytes() == np.float64(b.best_cost).tobytes()
    assert a.trace == b.trace
    assert a.events == b.events
    assert a.eval_count == b.eval_count
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def per_row(objective):
    """objective behind a plain wrapper, which scores one row per call."""
    return replace(objective, evaluate=lambda x: objective.evaluate(x))


def _initial_draws(cfg):
    """The (r1, r2) position sets init_swarm draws for cfg on a DIM objective."""
    rng = np.random.default_rng(cfg.seed)
    rng.normal(0.0, 0.5)  # the lam draw comes first
    lo, hi = cfg.init_range
    return rng.uniform(lo, hi, (2, cfg.population, DIM))


class TestSwarmConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            config(population=0)
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
            {"max_iter": 10.5},
            {"seed": 1.5},
            {"seed": [2023, 1.5]},
            {"seed": [2023, False]},
            {"seed": -1},
        ],
    )
    def test_counts_and_seeds_must_be_integers(self, kwargs):
        with pytest.raises(ValueError, match="population|max_iter|seed"):
            config(**kwargs)
    def test_numpy_integers_accepted(self):
        cfg = config(population=np.int64(3), max_iter=np.int32(10), seed=[np.uint64(5), 2])
        assert cfg.population == 3
        assert type(cfg.population) is int and type(cfg.max_iter) is int

    def test_numpy_reals_stored_as_python_floats(self):
        # a float32 setting would otherwise compute in float32 under numpy 2
        cfg = config(epsilon=np.float32(0.3), k=np.float32(5.0), init_range=np.float32([-2, 2]))
        assert type(cfg.epsilon) is float and type(cfg.k) is float
        assert type(cfg.guard_halfwidth()) is float
        assert all(type(end) is float for end in cfg.init_range)
        assert type(config(lam=np.float32(0.5)).lam) is float
        benchmark = make_benchmark("rastrigin", 3)
        kwargs = dict(seed=1, max_iter=40)
        a = run(config(epsilon=np.float32(0.3), **kwargs), benchmark)
        b = run(config(epsilon=float(np.float32(0.3)), **kwargs), benchmark)
        assert a.best_cost.hex() == b.best_cost.hex()
        assert a.trace == b.trace

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
        assert blend_with_gbest(np.array([2.0]), np.array([0.0]), 0.25) == pytest.approx([0.5])

    def test_endpoints(self):
        raw = np.array([1.0, 2.0])
        gbest = np.array([-3.0, 5.0])
        assert np.array_equal(blend_with_gbest(raw, gbest, 1.0), raw)
        assert np.array_equal(blend_with_gbest(raw, gbest, 0.0), gbest)

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
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        assert len(swarm.trace) == 3
        assert swarm.eval_count == 2 * cfg.population
        assert swarm.trace == [
            (1, swarm.trace[0][1], cfg.population),
            (2, swarm.best_cost, 2 * cfg.population),
            (3, swarm.best_cost, 2 * cfg.population),
        ]
        assert swarm.trace[0][1] >= swarm.best_cost

    def test_single_particle_best_is_min_of_both_draws(self):
        cfg = config(population=1, seed=7)
        obj = make_benchmark("sphere", DIM)
        rng = np.random.default_rng(7)
        rng.normal(0.0, 0.5)  # the lam draw comes first
        r1 = rng.uniform(-2.0, 2.0, (1, 3))
        r2 = rng.uniform(-2.0, 2.0, (1, 3))
        swarm = init_swarm(cfg, obj)
        assert swarm.best_cost == min(obj.evaluate(r1[0]), obj.evaluate(r2[0]))

    @pytest.mark.parametrize("seed", [[2023, 0], 5])
    def test_histories_come_from_two_sequential_draws(self, seed):
        cfg = config(seed=seed, population=5)
        swarm = init_swarm(cfg, make_benchmark("rastrigin", DIM))
        rng = np.random.default_rng(seed)
        rng.normal(0.0, 0.5)  # lam
        r1 = rng.uniform(-2.0, 2.0, (cfg.population, DIM))
        r2 = rng.uniform(-2.0, 2.0, (cfg.population, DIM))
        assert swarm.positions.tobytes() == r2.tobytes()
        assert swarm.delta_prev.tobytes() == delta_of_r(r2, cfg.k).tobytes()
        assert swarm.delta_prev2.tobytes() == delta_of_r(r1, cfg.k).tobytes()
        for _ in range(cfg.max_iter - 3):  # the planned picks and rhos come next
            rng.integers(cfg.population)
            rng.random()
        assert swarm.rng.bit_generator.state == rng.bit_generator.state

    def test_degenerate_range_pins_histories(self):
        cfg = config(init_range=(0.1, 0.1))
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        expected = delta_of_r(0.1, cfg.k)
        assert np.all(swarm.delta_prev == expected)
        assert np.all(swarm.delta_prev2 == expected)
        assert np.all(swarm.positions == 0.1)

    def test_deterministic(self):
        cfg = config(seed=[5, 2])
        obj = make_benchmark("rastrigin", DIM)
        a = init_swarm(cfg, obj)
        b = init_swarm(cfg, obj)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.delta_prev, b.delta_prev)
        assert a.best_cost == b.best_cost
        assert a.lam == b.lam

    @pytest.mark.parametrize(
        "cost",
        [None, "1.0", np.ones(2), True, False],
        ids=["none", "str", "array", "true", "false"],
    )
    def test_non_scalar_cost_rejected(self, cost):
        obj = Objective(name="bad", dimension=3, evaluate=lambda x: cost, init_range=(-2.0, 2.0))
        with pytest.raises(ValueError, match="^objective 'bad' returned .*, not a real scalar$"):
            init_swarm(config(), obj)

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    @pytest.mark.parametrize(
        "cost",
        [None, "1.0", np.ones(2), np.ones(1), False],
        ids=["none", "str", "array", "one-element", "bool"],
    )
    def test_non_scalar_update_cost_rejected(self, cost, mode):
        # the first 2*population calls are the initial sweeps, all good floats
        cfg = config(mode=mode)
        calls = []

        def evaluate(x):
            calls.append(None)
            return 1.0 if len(calls) <= 2 * cfg.population else cost

        obj = Objective(name="bad", dimension=3, evaluate=evaluate, init_range=(-2.0, 2.0))
        with pytest.raises(ValueError, match="^objective 'bad' returned .*, not a real scalar$"):
            run(cfg, obj)
        assert len(calls) == 2 * cfg.population + 1

    @pytest.mark.parametrize("cost", [3.0, math.inf], ids=["constant", "inf"])
    def test_no_lower_cost_keeps_first_point(self, cost):
        cfg = config()
        obj = Objective(name="flat", dimension=3, evaluate=lambda x: cost, init_range=(-2.0, 2.0))
        swarm = init_swarm(cfg, obj)
        r1, _ = _initial_draws(cfg)
        assert swarm.best_solution.tobytes() == r1[0].tobytes()
        assert swarm.best_cost == cost
        assert [row[1] for row in swarm.trace] == [cost] * 3

    # evaluation order is r1 by particle, then r2: index p is r1[p], 4 + p is r2[p]
    @pytest.mark.parametrize(
        "tied, winner",
        [((1, 3), 1), ((4, 6), 4), ((2, 5), 2), ((0, 7), 0)],
        ids=["within-r1", "within-r2", "across", "first-and-last"],
    )
    @MARKS
    def test_first_evaluated_of_tied_minima_wins(self, tied, winner, mark):
        cfg = config(population=4)
        costs = [5.0 if i in tied else 9.0 - i * 0.5 for i in range(2 * cfg.population)]
        evaluate = scripted(costs, mark)
        obj = Objective(name="ties", dimension=3, evaluate=evaluate, init_range=(-2.0, 2.0))
        swarm = init_swarm(cfg, obj)
        points = np.concatenate(_initial_draws(cfg))
        assert swarm.best_cost == 5.0
        assert swarm.best_solution.tobytes() == points[winner].tobytes()
        assert swarm.trace[0][1] == min(costs[: cfg.population])

    def test_explicit_lam_honored(self):
        cfg = config(lam=-0.25, max_iter=20)
        swarm = init_swarm(cfg, make_benchmark("sphere", DIM))
        assert swarm.lam == -0.25

    def test_lambda_abs_flips_negative_lam(self):
        cfg = config(lam=-0.25, max_iter=20, lambda_abs=True)
        swarm = init_swarm(cfg, make_benchmark("sphere", DIM))
        assert swarm.lam == 0.25

    @pytest.mark.parametrize(
        "costs",
        [None, np.ones(3), np.ones(4, complex), np.ones(4, bool), np.ones(4, np.float32)],
        ids=["none", "short", "complex", "bool", "float32"],
    )
    def test_non_real_block_costs_rejected(self, costs):
        evaluate = functools.wraps(sphere)(lambda x: costs)
        obj = Objective(name="bad", dimension=3, evaluate=evaluate, init_range=(-2.0, 2.0))
        with pytest.raises(ValueError, match="^objective 'bad' returned .*, not 4 real costs$"):
            init_swarm(config(), obj)

    @pytest.mark.parametrize(
        "bounds",
        [None, np.ones(3), np.ones((4, 1)), np.ones(4, complex), np.ones(4, np.float32)],
        ids=["none", "short", "column", "complex", "float32"],
    )
    def test_non_real_lower_bounds_rejected(self, bounds):
        evaluate = scripted([1.0] * 8)
        evaluate.lower_bounds = (lambda rows: bounds,)
        obj = Objective(name="bad", dimension=3, evaluate=evaluate, init_range=(-2.0, 2.0))
        message = "(?s)^objective 'bad' returned .*, not 4 real lower bounds$"
        with pytest.raises(ValueError, match=message):
            init_swarm(config(), obj)

    @pytest.mark.parametrize(
        "bounds",
        [None, np.ones(2), np.ones((1, 1)), np.ones(1, complex), np.ones(1, np.float32)],
        ids=["none", "two", "column", "complex", "float32"],
    )
    def test_non_real_later_lower_bounds_rejected(self, bounds):
        # a first bound of -inf sends the first row on to the second tier
        evaluate = scripted([1.0] * 8)
        evaluate.lower_bounds = (lambda rows: np.full(len(rows), -np.inf), lambda rows: bounds)
        obj = Objective(name="bad", dimension=3, evaluate=evaluate, init_range=(-2.0, 2.0))
        message = "(?s)^objective 'bad' returned .*, not 1 real lower bounds$"
        with pytest.raises(ValueError, match=message):
            init_swarm(config(), obj)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("second", ["cost", "nan"])
    @pytest.mark.parametrize("first", ["half-cost", "nan"])
    def test_later_tier_sees_one_row_still_below_the_best(self, first, second, mode):
        # each row taken goes on to the second tier, alone, while its first
        # bound is below the best when it is taken, and is evaluated while its
        # second bound is too; a NaN bound goes on
        tiers = {
            "half-cost": lambda rows: 0.5 * sphere(rows),
            "cost": sphere,
            "nan": lambda rows: np.full(len(rows), np.nan),
        }
        base = make_benchmark("sphere", DIM)
        obj, calls = tier_counted(per_row(base), (tiers[first], tiers[second]))
        cfg = config(mode=mode, seed=[2023, 1], population=10, max_iter=40)
        reference, taken = counted(per_row(base))
        assert_same_run(run(cfg, obj), run(cfg, reference))
        best, expected = math.inf, {1: [], "exact": []}
        for x in taken:
            for tier, key in ((tiers[first], 1), (tiers[second], "exact")):
                if tier(x[None])[0] >= best:
                    break
                expected[key].append(x)
            best = min(best, sphere(x))
        for key in (1, "exact"):
            assert [x.tobytes() for x in expected[key]] == [
                x.reshape(-1).tobytes() for x in calls[key]
            ], key
        assert all(rows.shape == (1, DIM) for rows in calls[1])
        # each tier rules out some rows unless it gives NaN
        assert (len(calls[1]) < len(taken)) == (first != "nan")
        assert (len(calls["exact"]) < len(calls[1])) == (second != "nan")

    @pytest.mark.parametrize("seed", [[2023, 0], 5])
    @pytest.mark.parametrize("function", BENCHMARK_NAMES)
    def test_block_scoring_matches_per_row(self, function, seed):
        # whole runs: one call per block and one call per kept row give the same bits
        obj = make_benchmark(function, 5)
        for mode in MODES:
            for rebind in REBINDS:
                cfg = config(seed=seed, population=20, max_iter=60, mode=mode, rebind=rebind)
                assert_same_run(run(cfg, obj), run(cfg, per_row(obj)))

    @pytest.mark.parametrize("seed", [[2023, 0], 5])
    @pytest.mark.parametrize("n_coeff", [9, 10])
    def test_screened_fir_matches_unscreened(self, n_coeff, seed):
        # the lower_bounds screen skips exact evaluations but no outcome: a
        # run matches one behind a wrapper without the mark in every bit
        obj, calls = counted(make_filter_objective(FilterSpec(n_coeff=n_coeff)))
        for mode in MODES:
            for rebind in REBINDS:
                cfg = config(
                    seed=seed, population=20, max_iter=40, init_range=obj.init_range,
                    mode=mode, rebind=rebind,
                )
                calls.clear()
                a = run(cfg, obj)
                assert len(calls) < a.eval_count / 2
                assert_same_run(a, run(cfg, per_row(obj)))

    def test_symmetric_fir_run_evaluates_few_rows_exactly(self):
        # a run that lost the lower_bounds mark would call evaluate on every row
        obj, calls = counted(make_filter_objective(FilterSpec(n_coeff=10)))
        cfg = config(seed=[2023, 0], population=200, max_iter=50, init_range=(-1.0, 1.0))
        swarm = run(cfg, obj)
        assert 0 < len(calls) < swarm.eval_count / 10

    def test_gram_tier_spares_the_amplitude_tier(self):
        # the two-tier screen against the amplitude bound alone on a short
        # fir-20 run: the same run, no more exact calls, and under a fifth of
        # the rows the Gram tier bounds sent on to the amplitude tier
        obj = make_filter_objective(FilterSpec(n_coeff=20))
        gram, amplitude = obj.evaluate.lower_bounds
        tiered, calls = tier_counted(obj, (gram, amplitude))
        single, single_calls = tier_counted(obj, (amplitude,))
        cfg = config(seed=[2023, 0], population=1000, max_iter=100, init_range=obj.init_range)
        assert_same_run(run(cfg, tiered), run(cfg, single))
        assert 0 < len(calls["exact"]) <= len(single_calls["exact"])
        bounded = sum(map(len, calls[0]))
        assert bounded == sum(map(len, single_calls[0]))
        assert len(calls[1]) < bounded / 5

    def test_unsymmetric_fir_run_evaluates_every_row(self):
        obj, calls = counted(make_filter_objective(FilterSpec(n_coeff=10, symmetric=False)))
        cfg = config(seed=[2023, 0], population=50, max_iter=20, init_range=(-1.0, 1.0))
        swarm = run(cfg, obj)
        assert len(calls) == swarm.eval_count

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mark", ["rows", "bounds"])
    def test_one_block_call_per_point_set_and_per_block(self, mark, mode, monkeypatch):
        # every r1 cost is below the one before it, so each init row improves
        # the best; still each initial set, and each block of a wave (one blend
        # call), gets one block call or one first-tier call
        cfg = config(mode=mode, population=8, max_iter=30)
        r1, _ = _initial_draws(cfg)
        scripted_r1 = {row.tobytes(): 100.0 - p for p, row in enumerate(r1)}
        blocks, blends = [], []

        def costs(rows):
            return np.array([scripted_r1.get(x.tobytes(), sphere(x)) for x in rows])

        def block(rows):
            blocks.append(len(rows))
            return costs(rows)

        if mark == "rows":
            evaluate = functools.wraps(sphere)(block)
        else:
            def evaluate(x):
                return float(costs(x[None])[0])

            evaluate.lower_bounds = (lambda rows: 0.5 * block(rows), costs)
        blend = engine.blend_with_gbest
        monkeypatch.setattr(
            engine, "blend_with_gbest", lambda *args: blends.append(None) or blend(*args)
        )
        obj = Objective(name="scripted", dimension=DIM, evaluate=evaluate, init_range=(-2.0, 2.0))
        swarm = init_swarm(cfg, obj)
        assert swarm.trace[0][1] == 100.0 - (cfg.population - 1)
        assert blocks == [cfg.population] * 2
        while swarm.waves:
            step(swarm, obj)
        assert len(blocks) == 2 + len(blends) > 2

    def test_drawn_lam_scale(self):
        cfg = config(seed=11)
        swarm = init_swarm(cfg, make_benchmark("sphere", DIM))
        rng = np.random.default_rng(11)
        assert swarm.lam == float(rng.normal(0.0, 0.5) * 1e-3)


# Reference oracle for step: the per-iteration loop the engine ran before it
# batched the gate, the solve and the rebind over a wave's rows and planned
# the schedule up front. It draws as it goes, from a swarm whose rng is
# _init_rng's.
def _update_particle_reference(swarm, objective, p, theta):
    cfg = swarm.config
    dp = swarm.delta_prev[p]
    dp2 = swarm.delta_prev2[p]
    delta_new, fired = delta_update_arrays(dp, dp2, theta, swarm.lam)
    swarm.events["in_band"] += int(fired.size - fired.sum())
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
    theta = learning_rate(len(swarm.trace), cfg.max_iter, cfg.epsilon)
    if cfg.mode == "literal":
        indices = [int(swarm.rng.integers(cfg.population))]
    else:
        indices = range(cfg.population)
    for p in indices:
        _update_particle_reference(swarm, objective, p, theta)
    swarm.trace.append((len(swarm.trace) + 1, swarm.best_cost, swarm.eval_count))


def step_both(swarm, ref, objective):
    """One step, then the reference iterations up to the wave's end."""
    step(swarm, objective)
    while len(ref.trace) < len(swarm.trace):
        step_reference(ref, objective)


def reference_pair(cfg, objective):
    """A swarm and its reference, which draws from its own rng."""
    swarm, ref = init_swarm(cfg, objective), init_swarm(cfg, objective)
    ref.rng = _init_rng(cfg, objective.dimension)
    return swarm, ref


def assert_same_swarm(a, b):
    for name in ("positions", "delta_prev", "delta_prev2", "best_solution"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert np.float64(a.best_cost).tobytes() == np.float64(b.best_cost).tobytes()
    assert a.trace == b.trace
    assert a.events == b.events
    assert a.eval_count == b.eval_count
    # the planned swarm drew every pick and rho up front: the reference
    # catches up only at the end of the run
    if len(a.trace) == a.config.max_iter:
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def assert_wave_arrays(waves):
    """Every wave is (integer index array, float64 theta column, float64 weights)."""
    for rows, thetas, rhos in waves:
        assert isinstance(rows, np.ndarray) and np.issubdtype(rows.dtype, np.integer)
        assert rows.ndim == 1
        assert isinstance(thetas, np.ndarray) and thetas.dtype == np.float64
        assert thetas.ndim == 2 and thetas.shape[1] == 1
        assert isinstance(rhos, np.ndarray) and rhos.dtype == np.float64
        assert rhos.shape == rows.shape


class TestStepMatchesReference:
    """step leaves every bit the per-iteration reference loop leaves."""

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    @pytest.mark.parametrize("rebind", ["post", "pre"])
    @pytest.mark.parametrize("seed", [[2023, 0], [77, 3], 5])
    @pytest.mark.parametrize("function", BENCHMARK_NAMES)
    def test_run(self, mode, rebind, seed, function):
        cfg = config(
            mode=mode, rebind=rebind, seed=seed, population=6, max_iter=60
        )
        obj = make_benchmark(function, 5)
        swarm, ref = reference_pair(cfg, obj)
        while len(swarm.trace) < cfg.max_iter:
            step_both(swarm, ref, obj)
            assert_same_swarm(swarm, ref)
        assert not swarm.waves

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    @pytest.mark.parametrize("rebind", ["post", "pre"])
    def test_unsolved_rows(self, mode, rebind):
        # dimension 0 sits above its band near DELTA_MAX; a negative lam
        # pushes it past the solvable range, so it comes back unsolved
        cfg = config(mode=mode, rebind=rebind, lam=-1.0, seed=9)
        obj = make_benchmark("sphere", DIM)
        swarm, ref = reference_pair(cfg, obj)
        for s in (swarm, ref):
            s.delta_prev[:, 0] = 0.9 * DELTA_MAX
            s.delta_prev2[:, 0] = 0.1 * DELTA_MAX
        step_both(swarm, ref, obj)
        assert swarm.events["guard_clamp"] > 0
        assert_same_swarm(swarm, ref)
        while len(swarm.trace) < cfg.max_iter:
            step_both(swarm, ref, obj)
            assert_same_swarm(swarm, ref)
        assert not swarm.waves


class TestStep:
    def test_literal_updates_exactly_one_particle(self):
        # per iteration one particle: a wave's updated rows are distinct,
        # one per iteration it advances
        cfg = config(seed=3, population=8, max_iter=60)
        obj = make_benchmark("rastrigin", DIM)
        swarm = init_swarm(cfg, obj)
        while len(swarm.trace) < cfg.max_iter:
            before, iteration = swarm.positions.copy(), len(swarm.trace)
            evals = swarm.eval_count
            step(swarm, obj)
            advanced = len(swarm.trace) - iteration
            changed = np.any(swarm.positions != before, axis=1)
            assert 1 <= advanced <= cfg.population
            assert changed.sum() == advanced
            assert swarm.eval_count == evals + advanced

    def test_sweep_updates_all_particles(self):
        cfg = config(mode="sweep", seed=3)
        base = make_benchmark("rastrigin", DIM)
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
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        before = swarm.positions.copy()
        dp, dp2 = swarm.delta_prev.copy(), swarm.delta_prev2.copy()
        gbest, best_cost = swarm.best_solution.copy(), swarm.best_cost
        step(swarm, obj)

        # one (pick, rho) per iteration of the run, replayed from the seed;
        # the first wave runs up to the first repeated pick
        rng = _init_rng(cfg)
        draws = [
            (int(rng.integers(cfg.population)), float(rng.uniform()))
            for _ in range(cfg.max_iter - 3)
        ]
        assert swarm.rng.bit_generator.state == rng.bit_generator.state
        picks, rhos = [], []
        for p, rho in draws:
            if p in picks:
                break
            picks.append(p)
            rhos.append(rho)
        assert len(swarm.trace) == 3 + len(picks)
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
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        step(swarm, obj)
        with pytest.raises(ValueError, match="max_iter"):
            step(swarm, obj)

    def test_wave_stops_at_max_iter(self):
        # 1000 particles make a repeat within 5 picks unlikely: the first wave
        # is cut by max_iter, and no pick or rho is drawn past it
        cfg = config(population=1000, max_iter=8, seed=6)
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        rng = _init_rng(cfg)
        step(swarm, obj)
        assert len(swarm.trace) == cfg.max_iter
        assert swarm.eval_count == 2 * cfg.population + cfg.max_iter - 3
        assert not swarm.waves
        for _ in range(cfg.max_iter - 3):
            rng.integers(cfg.population)
            rng.uniform()
        assert swarm.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("mode", ["literal", "sweep"])
    def test_step_draws_nothing(self, mode):
        cfg = config(mode=mode, seed=[2023, 4])
        obj = make_benchmark("rastrigin", DIM)
        swarm = init_swarm(cfg, obj)
        state = swarm.rng.bit_generator.state
        while len(swarm.trace) < cfg.max_iter:
            step(swarm, obj)
            assert swarm.rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", [3, [2023, 1]])
    def test_literal_waves_partition_the_run(self, seed):
        cfg = config(seed=seed, population=5, max_iter=40)
        waves = init_swarm(cfg, make_benchmark("sphere", DIM)).waves[::-1]
        assert_wave_arrays(waves)
        assert sum(len(rows) for rows, _, _ in waves) == cfg.max_iter - 3
        assert all(len(set(rows.tolist())) == len(rows) == len(thetas) == len(rhos)
                   for rows, thetas, rhos in waves)
        # a wave ends only where the next pick repeats one of its own
        assert all(after[0][0] in before[0] for before, after in zip(waves, waves[1:]))
        thetas = np.concatenate([wave_thetas[:, 0] for _, wave_thetas, _ in waves])
        iterations = range(3, cfg.max_iter)
        expected = [learning_rate(i, cfg.max_iter, cfg.epsilon) for i in iterations]
        assert thetas.tobytes() == np.array(expected).tobytes()
        rng = _init_rng(cfg)
        draws = [(int(rng.integers(cfg.population)), rng.random()) for _ in iterations]
        planned = [pair for rows, _, rhos in waves for pair in zip(rows.tolist(), rhos.tolist())]
        assert planned == draws

    def test_sweep_waves_partition_the_run(self):
        cfg = config(mode="sweep", seed=3)
        waves = init_swarm(cfg, make_benchmark("sphere", DIM)).waves[::-1]
        assert_wave_arrays(waves)
        assert len(waves) == cfg.max_iter - 3
        rng = _init_rng(cfg)
        for i, (rows, thetas, rhos) in enumerate(waves, start=3):
            assert rows.tolist() == list(range(cfg.population))
            theta = np.float64(learning_rate(i, cfg.max_iter, cfg.epsilon))
            assert thetas.shape == (1, 1) and thetas.tobytes() == theta.tobytes()
            assert rhos.tolist() == rng.random(cfg.population).tolist()
        # one shared arange and row views of one weight block
        assert all(rows is waves[0][0] for rows, _, _ in waves)
        assert all(rhos.base is waves[0][2].base is not None for _, _, rhos in waves)

    def test_post_rebind_keeps_delta_position_invariant(self):
        cfg = config(seed=19, rebind="post")
        obj = make_benchmark("rastrigin", DIM)
        swarm = init_swarm(cfg, obj)
        while len(swarm.trace) < cfg.max_iter:
            step(swarm, obj)
            assert np.array_equal(swarm.delta_prev, delta_of_r(swarm.positions, cfg.k))

    def test_in_band_pre_rebind_freezes_raw_positions(self):
        # degenerate init: grad = 0, every dimension in-band, so the
        # gate passes delta through and the inverse solve repeats 0.1
        cfg = config(init_range=(0.1, 0.1), rebind="pre", seed=2)
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        expected = delta_of_r(0.1, cfg.k)
        while len(swarm.trace) < cfg.max_iter:
            step(swarm, obj)
            assert np.all(swarm.delta_prev == expected)
            assert np.all(swarm.delta_prev2 == expected)
            assert np.allclose(swarm.positions, 0.1, atol=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    @MARKS
    def test_nan_and_ties_inside_a_wave(self, mark, mode, monkeypatch):
        # init leaves best 10.0 at r1[1] (r2[1] ties it). Wave A scores NaN, a
        # tie and a worse cost: nothing improves, and neither NaN nor the tie
        # ends its one block. Wave B improves at rows 0 and 1, so the rows after
        # each are blended and scored again; a block-scoring mark first scores
        # them in vain (99.0)
        cfg = config(mode=mode, population=3)
        init = [20.0, 10.0, 30.0, 40.0, 10.0, 50.0]
        wave_a = [math.nan, 10.0, 12.0]
        wave_b = [7.0, 99.0, 99.0, 5.0, 99.0, 6.0] if mark else [7.0, 5.0, 6.0]
        evaluate = scripted(init + wave_a + wave_b, mark)
        obj = Objective(name="scripted", dimension=DIM, evaluate=evaluate, init_range=(-2.0, 2.0))
        swarm = init_swarm(cfg, obj)
        r1, _ = _initial_draws(cfg)
        assert swarm.best_solution.tobytes() == r1[1].tobytes()
        rows, thetas = np.arange(3), np.full((3, 1), 0.5)
        swarm.waves = [(rows, thetas, np.array([0.8, 0.4, 0.6]))]
        swarm.waves.append((rows, thetas, np.array([0.3, 0.5, 0.7])))
        blend = engine.blend_with_gbest
        blends = []
        monkeypatch.setattr(
            engine, "blend_with_gbest", lambda *args: blends.append(None) or blend(*args)
        )
        for costs, n_blocks in ((wave_a, 1), ((7.0, 5.0, 6.0), 3)):
            _, _, rhos = swarm.waves[-1]
            best, best_cost = swarm.best_solution, swarm.best_cost
            delta_new, _ = delta_update_arrays(
                swarm.delta_prev[rows], swarm.delta_prev2[rows], thetas, swarm.lam
            )
            r_raw, solved, _ = solve_r_batch(delta_new, cfg.k)
            assert solved.all()
            blends.clear()
            step(swarm, obj)
            assert len(blends) == n_blocks
            # each row taken blends its raw row with the best the rows before it left
            for j, cost in enumerate(costs):
                expected = blend(r_raw[j], best, rhos[j])
                assert swarm.positions[j].tobytes() == expected.tobytes()
                if cost < best_cost:
                    best, best_cost = expected, cost
            # after wave A still r1[1]: NaN never improves, a tie keeps the earlier point
            assert swarm.best_cost == best_cost
            assert swarm.best_solution.tobytes() == best.tobytes()
        # a literal wave adds a trace row per row taken, a sweep wave one
        per_wave = [10.0, 5.0] if mode == "sweep" else [10.0] * 3 + [7.0, 5.0, 5.0]
        assert [row[1] for row in swarm.trace[3:]] == per_wave
        assert swarm.trace[-1][2] == swarm.eval_count == 6 + 6


class CountingGenerator:
    """Delegates to a Generator, counting the scalar draws made through it."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.scalar_draws = rng, rng.bit_generator, 0

    def integers(self, high):
        self.scalar_draws += 1
        return self.rng.integers(high)

    def random(self):
        self.scalar_draws += 1
        return self.rng.random()


def assert_draw_matches_scalar(rng, population, n):
    """_draw_literal leaves every pick, weight and generator bit that n scalar
    integers(population), random() pairs leave; returns the scalar draws it made."""
    ref = np.random.Generator(type(rng.bit_generator)())
    ref.bit_generator.state = rng.bit_generator.state
    counting = CountingGenerator(rng)
    picks, rhos = _draw_literal(counting, population, n)
    draws = [(int(ref.integers(population)), ref.random()) for _ in range(n)]
    assert picks.dtype == np.intp and picks.shape == (n,)
    assert rhos.dtype == np.float64 and rhos.shape == (n,)
    assert picks.tolist() == [p for p, _ in draws]
    assert rhos.tobytes() == np.array([w for _, w in draws], dtype=float).tobytes()
    # the buffered half (has_uint32, uinteger) included
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
    assert rng.integers(2**40) == ref.integers(2**40)
    return counting.scalar_draws


class TestDrawLiteral:
    """The one-call literal draw against scalar integers(P), random() draws."""

    @pytest.mark.parametrize("population", [1, 2, 3, 5, 20, 80, 1000, 7919])
    def test_matches_scalar_draws(self, population):
        for seed in range(50):
            for n in (0, 1, 2, 246, 247):
                scalar = assert_draw_matches_scalar(np.random.default_rng(seed), population, n)
                # only P = 1, which draws no integer, falls back here
                assert scalar == (2 * n if population == 1 else 0)

    def test_possible_rejection_falls_back(self):
        # P = 2**31 + 1: a low product word falls below P about half the time
        fell_back = [
            assert_draw_matches_scalar(np.random.default_rng(seed), 2**31 + 1, n) > 0
            for seed in range(20)
            for n in (1, 2, 7)
        ]
        assert any(fell_back) and not all(fell_back)

    def test_buffered_half_falls_back(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rng.integers(5)  # leaves the high half of a word buffered
            assert rng.bit_generator.state["has_uint32"] == 1
            assert assert_draw_matches_scalar(rng, 20, 9) == 18

    def test_other_bit_generator_falls_back(self):
        rng = np.random.Generator(np.random.MT19937(4))
        assert assert_draw_matches_scalar(rng, 20, 9) == 18

    def test_every_preset_takes_the_shortcut(self):
        # a numpy whose draws break the shortcut's conditions would send every
        # plan to the scalar draws: slower, so caught here rather than missed
        for cfg in PRESETS.values():
            objective, _ = build_problem(cfg)
            for trial in range(cfg.trials):
                swarm_cfg = _swarm_config(cfg, objective, trial)
                assert swarm_cfg.mode == "literal"
                counting = CountingGenerator(_init_rng(swarm_cfg, objective.dimension))
                _draw_literal(counting, swarm_cfg.population, swarm_cfg.max_iter - 3)
                assert counting.scalar_draws == 0, (cfg.resolved_label(), trial)


class TestRun:
    def test_max_iter_three_is_init_only(self):
        cfg = config(max_iter=3, seed=8)
        obj = make_benchmark("sphere", DIM)
        res = run(cfg, obj)
        swarm = init_swarm(cfg, obj)
        assert res.best_cost == swarm.best_cost
        assert res.eval_count == 2 * cfg.population
        assert len(res.trace) == 3

    def test_trace_shape_and_monotonicity(self):
        cfg = config(max_iter=40, seed=1)
        obj = make_benchmark("rastrigin", DIM)
        res = run(cfg, obj)
        assert len(res.trace) == 40
        assert [row[0] for row in res.trace] == list(range(1, 41))
        costs = [row[1] for row in res.trace]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert res.best_cost == costs[-1]

    def test_eval_accounting(self):
        cfg = config(max_iter=25, seed=4)
        obj = make_benchmark("sphere", DIM)
        assert run(cfg, obj).eval_count == 2 * cfg.population + (25 - 3)
        cfg_sweep = config(max_iter=25, seed=4, mode="sweep")
        assert run(cfg_sweep, obj).eval_count == 2 * cfg.population + (25 - 3) * cfg.population

    def test_best_cost_matches_best_solution(self):
        cfg = config(seed=13)
        obj = make_benchmark("griewank", DIM)
        res = run(cfg, obj)
        assert obj.evaluate(res.best_solution) == res.best_cost

    def test_bitwise_determinism(self):
        cfg = config(seed=[2023, 6], max_iter=30)
        obj = make_benchmark("rastrigin", DIM)
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
        obj = make_benchmark("sphere", DIM)
        swarm = init_swarm(cfg, obj)
        hw = cfg.guard_halfwidth()
        while len(swarm.trace) < cfg.max_iter:
            step(swarm, obj)
            assert np.all(np.abs(swarm.positions) <= hw + 1e-9)

    def test_tight_sphere_converges(self):
        cfg = SwarmConfig(
            max_iter=250,
            population=4,
            init_range=(-0.01, 0.01),
            seed=0,
        )
        res = run(cfg, make_benchmark("sphere", 1))
        assert res.best_cost <= 1e-4

    def test_event_counters_bounded(self):
        cfg = config(seed=17, max_iter=30)
        obj = make_benchmark("rastrigin", DIM)
        res = run(cfg, obj)
        updates = 30 - 3
        events = res.events
        assert 0 <= events["in_band"] <= updates * DIM
        assert events["solver_fallback"] >= 0
        assert events["guard_clamp"] >= 0

    @MARKS
    def test_nan_cost_at_init_does_not_poison_best(self, mark):
        cfg = config(seed=5)
        base = make_benchmark("sphere", DIM)
        calls = []

        def evaluate(x):
            calls.append(None)
            costs = base.evaluate(x)
            if len(calls) > 1:
                return costs
            if np.ndim(x) == 2:
                costs[0] = float("nan")
                return costs
            return float("nan")

        if mark == "rows":
            evaluate = functools.wraps(sphere)(evaluate)
        elif mark == "bounds":
            # each row's true cost as its bound, the poisoned point's included
            evaluate.lower_bounds = (sphere,)
        res = run(cfg, replace(base, evaluate=evaluate))
        assert math.isfinite(res.best_cost)
        assert all(math.isfinite(row[1]) for row in res.trace)
        assert base.evaluate(res.best_solution) == res.best_cost

    @MARKS
    def test_all_nan_costs_raise(self, mark):
        cfg = config()
        updates = cfg.max_iter - 3
        # NaN bounds screen out nothing, so every row is evaluated once
        evaluate = scripted([float("nan")] * (2 * cfg.population + updates), mark)
        obj = replace(make_benchmark("sphere", 3), evaluate=evaluate)
        with pytest.raises(ValueError, match="no finite cost"):
            run(cfg, obj)

    def test_frozen_dynamics_with_zero_lam(self):
        cfg = config(
            lam=0.0, max_iter=30, rebind="pre", seed=23
        )
        obj = make_benchmark("rastrigin", DIM)
        swarm = init_swarm(cfg, obj)
        initial_prev = swarm.delta_prev.copy()
        while len(swarm.trace) < cfg.max_iter:
            step(swarm, obj)
        assert np.array_equal(swarm.delta_prev, initial_prev)
        # the two-deep window shifts once per particle, then freezes
        touched = ~np.all(swarm.delta_prev2 == init_swarm(cfg, obj).delta_prev2, axis=1)
        assert np.array_equal(swarm.delta_prev2[touched], initial_prev[touched])
