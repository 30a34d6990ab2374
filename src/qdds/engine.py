"""Swarm engine driving the delta-state recursion.

Each particle keeps, per dimension, a position r and a two-deep delta
history. One update applies the gated delta nudge, inverts the state
map to get a raw position, and blends it with the best solution found
so far using a single uniformly drawn weight per update. Scheduling is
either "literal" (one randomly selected particle per iteration, the
default) or "sweep" (all particles in index order per iteration).

A step advances one wave: one iteration in sweep mode; in literal mode the
longest run of iterations whose picks are distinct, a repeated pick waiting
on the swarm for the next step. A member reads only what its previous
update, in an earlier wave, wrote, so the gate, the inverse solve and the
delta rebind each run once per wave on its (rows, dimension) block.
Blending, evaluation and the gbest update stay sequential in pick order:
each blend reads the gbest the updates before it left.

All randomness flows from one numpy Generator seeded by the config, so
identical (config, objective, seed) produce bitwise identical runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .objectives import Objective, check_int, check_real
from .well import (
    EXP_ARG_LIMIT,
    LAM_MAX,
    delta_of_r,
    delta_update_arrays,
    learning_rate,
    solve_r_batch,
)

__all__ = [
    "SwarmConfig",
    "Swarm",
    "init_swarm",
    "step",
    "run",
    "blend_with_gbest",
]

MODES = ("literal", "sweep")
REBINDS = ("post", "pre")


@dataclass(frozen=True)
class SwarmConfig:
    """Run configuration for one seeded swarm.

    seed may be a non-negative int or a sequence of them (a harness
    passes [master_seed, trial_index]). init_range is intersected with the
    solvable interval of the state map, |r| <= 700/(2k), before any
    position is drawn; configs whose range lies entirely outside that
    interval are rejected.

    rebind selects what delta the history stores after blending moves a
    particle: "post" (default) re-derives delta from the blended
    position, keeping delta_prev = delta(position) invariant; "pre"
    stores the gate's output delta directly, which keeps raw positions
    frozen when lam = 0. lambda_abs forces the per-run lam draw to be
    non-negative (a negative lam inverts the band push-back direction).

    The well constants: k is the stiffness, finite and positive (the
    state map is strictly increasing only then); epsilon is the
    learning-rate floor in [0, 1), the schedule decaying linearly from 1
    to it; lam is the step scale of the gated delta update, None meaning
    "draw once per run" (zero-mean normal, scale 0.5, times 1e-3) and an
    explicit value, 0.0 included, being used verbatim; |lam| may not exceed
    LAM_MAX (about 2953), past which the gate step can overflow; max_iter
    is the iteration budget, at least 3 because the optimization phase
    starts with two initialization sweeps already counted.
    """

    population: int
    dimension: int
    init_range: tuple[float, float]
    seed: int | Sequence[int] = 0
    k: float = 5.0
    epsilon: float = 0.3
    lam: float | None = None
    max_iter: int = 250
    mode: str = "literal"
    rebind: str = "post"
    lambda_abs: bool = False

    def __post_init__(self) -> None:
        check_int("population", self.population, 1)
        check_int("dimension", self.dimension, 1)
        check_int("max_iter", self.max_iter, 3)
        for seed in self.seed if np.ndim(self.seed) else (self.seed,):
            check_int("seed", seed, 0)
        try:
            lo, hi = self.init_range
        except (TypeError, ValueError):
            raise ValueError(
                f"init_range must be a pair of numbers, got {self.init_range!r}"
            ) from None
        check_real("init_range", lo)
        check_real("init_range", hi)
        if not lo <= hi:
            raise ValueError(f"init_range must be non-empty, got {self.init_range}")
        check_real("k", self.k)
        check_real("epsilon", self.epsilon)
        if self.lam is not None:
            check_real("lam", self.lam)
            if abs(self.lam) > LAM_MAX:
                raise ValueError(
                    f"|lam| must be <= {LAM_MAX:.6g} to keep the gate step finite, got {self.lam}"
                )
        if not self.k > 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not isinstance(self.lambda_abs, bool):
            raise ValueError(f"lambda_abs must be true or false, got {self.lambda_abs!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.rebind not in REBINDS:
            raise ValueError(f"rebind must be one of {REBINDS}, got {self.rebind!r}")
        lo, hi = self.effective_init_range()
        if lo > hi:
            raise ValueError(
                f"init_range {self.init_range} lies outside the solvable "
                f"interval [{-self.guard_halfwidth():g}, {self.guard_halfwidth():g}]"
            )
        # a tiny k widens the solvable interval past the float range
        if not math.isfinite(hi - lo):
            raise ValueError(f"init_range {self.init_range} is too wide to draw from")

    def guard_halfwidth(self) -> float:
        """Largest |r| the forward map accepts at this stiffness."""
        return EXP_ARG_LIMIT / (2.0 * self.k)

    def effective_init_range(self) -> tuple[float, float]:
        """Requested range clipped to the solvable interval."""
        hw = self.guard_halfwidth()
        lo, hi = self.init_range
        return max(lo, -hw), min(hi, hw)


@dataclass
class Swarm:
    """Mutable run state; create via init_swarm, advance via step.

    run returns the swarm it finished. trace holds one (iteration,
    best_cost, eval_count) row per iteration: rows 1 and 2 record the two
    initialization sweeps, row 3 marks the optimization start, and each
    iteration after it appends one row, for max_iter rows in a finished
    run. events maps each diagnostic tally (in_band, solver_fallback,
    guard_clamp) to its count over every dimension updated. lam is the
    step scale actually used (drawn or configured), recorded for
    reproducibility.
    """

    config: SwarmConfig
    positions: np.ndarray
    delta_prev: np.ndarray
    delta_prev2: np.ndarray
    best_cost: float
    best_solution: np.ndarray
    iteration: int
    eval_count: int
    lam: float
    rng: np.random.Generator
    pending_pick: int | None = None  # the literal pick that ended the last wave
    events: dict[str, int] = field(
        default_factory=lambda: {"in_band": 0, "solver_fallback": 0, "guard_clamp": 0}
    )
    trace: list[tuple[int, float, int]] = field(default_factory=list)


def blend_with_gbest(raw, gbest, rho):
    """Convex blend rho*raw + (1 - rho)*gbest, one scalar rho for all dims."""
    raw = np.asarray(raw, dtype=float)
    gbest = np.asarray(gbest, dtype=float)
    if raw.shape != gbest.shape:
        raise ValueError(f"shape mismatch: raw {raw.shape} vs gbest {gbest.shape}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return rho * raw + (1.0 - rho) * gbest


def init_swarm(config: SwarmConfig, objective: Objective) -> Swarm:
    """Draw two position sets, seed histories, and evaluate both sets.

    Positions r1 and r2 per particle and dimension seed the two-deep
    delta window (delta_prev2 from r1, delta_prev from r2); the current
    position is r2. Both full position vectors of every particle are
    evaluated, so eval_count starts at 2*population and best_cost at
    the minimum seen, with a NaN cost ranked as +inf. A cost that is not
    a real scalar raises ValueError. The iteration counter starts at 3.
    """
    if objective.dimension != config.dimension:
        raise ValueError(
            f"objective dimension {objective.dimension} != config dimension {config.dimension}"
        )
    rng = np.random.default_rng(config.seed)
    lam = float(rng.normal(0.0, 0.5) * 1e-3) if config.lam is None else float(config.lam)
    if config.lambda_abs:
        lam = abs(lam)
    lo, hi = config.effective_init_range()
    r = rng.uniform(lo, hi, (2, config.population, config.dimension))
    costs = [[objective.evaluate(x) for x in rows] for rows in r]
    for cost in (c for row in costs for c in row):
        if not isinstance(cost, numbers.Real):
            raise ValueError(f"objective {objective.name!r} returned {cost!r}, not a real scalar")
    costs = np.array(costs)
    # np.argmin picks a NaN, and no later cost compares below NaN
    costs[np.isnan(costs)] = np.inf
    # the first minimum in row-major order: a tie goes to the first set
    best = np.unravel_index(np.argmin(costs), costs.shape)
    best_cost, best_solution = float(costs[best]), r[best].copy()
    r1, r2 = r

    swarm = Swarm(
        config=config,
        positions=r2.copy(),
        delta_prev=delta_of_r(r2, config.k),
        delta_prev2=delta_of_r(r1, config.k),
        best_cost=best_cost,
        best_solution=best_solution,
        iteration=3,
        eval_count=2 * config.population,
        lam=lam,
        rng=rng,
    )
    swarm.trace.append((1, float(costs[0].min()), config.population))
    swarm.trace.append((2, best_cost, swarm.eval_count))
    swarm.trace.append((3, best_cost, swarm.eval_count))
    return swarm


def _update(swarm: Swarm, objective: Objective, rows, thetas, rhos) -> None:
    cfg = swarm.config
    positions = swarm.positions[rows]
    dp = swarm.delta_prev[rows]
    dp2 = swarm.delta_prev2[rows]
    delta_new, fired = delta_update_arrays(dp, dp2, np.array(thetas)[:, None], swarm.lam)
    r_raw, solved, fallbacks = solve_r_batch(delta_new, cfg.k)
    swarm.events["in_band"] += fired.size - int(np.count_nonzero(fired))
    swarm.events["solver_fallback"] += fallbacks
    if not solved.all():
        swarm.events["guard_clamp"] += solved.size - int(np.count_nonzero(solved))
        # unsolvable target deltas: that dimension's raw position stays put
        r_raw = np.where(solved, r_raw, positions)
        delta_new = np.where(solved, delta_new, dp)

    # in pick order: each blend sees the gbest its predecessors left
    for i, rho in enumerate(rhos):
        blended = blend_with_gbest(r_raw[i], swarm.best_solution, rho)
        cost = objective.evaluate(blended)
        swarm.eval_count += 1
        if cost < swarm.best_cost:
            swarm.best_cost = float(cost)
            swarm.best_solution = blended.copy()
        positions[i] = blended
        # literal mode takes one iteration per update, sweep mode one per wave
        if cfg.mode == "literal" or i == len(rhos) - 1:
            swarm.iteration += 1
            swarm.trace.append((swarm.iteration, swarm.best_cost, swarm.eval_count))

    swarm.positions[rows] = positions
    swarm.delta_prev2[rows] = dp
    if cfg.rebind == "post":
        swarm.delta_prev[rows] = delta_of_r(positions, cfg.k)
    else:
        swarm.delta_prev[rows] = delta_new


def _draw_wave(swarm: Swarm) -> tuple[list[int], list[float], list[float]]:
    # per iteration one integers(P) then one random(), the order a
    # one-pick-per-step loop draws them in; nothing is drawn past max_iter
    cfg, rng = swarm.config, swarm.rng
    rows, thetas, rhos = [], [], []
    for iteration in range(swarm.iteration, cfg.max_iter):
        p = swarm.pending_pick
        if p is None:
            p = int(rng.integers(cfg.population))
        if p in rows:
            swarm.pending_pick = p
            break
        swarm.pending_pick = None
        rows.append(p)
        thetas.append(learning_rate(iteration, cfg.max_iter, cfg.epsilon))
        rhos.append(rng.random())
    return rows, thetas, rhos


def step(swarm: Swarm, objective: Objective) -> Swarm:
    """Advance one wave: in literal mode the longest run of iterations whose
    picks are distinct, each adding a trace row; in sweep mode one iteration."""
    cfg = swarm.config
    if swarm.iteration >= cfg.max_iter:
        raise ValueError(
            f"iteration {swarm.iteration} already reached max_iter {cfg.max_iter}"
        )
    if cfg.mode == "literal":
        rows, thetas, rhos = _draw_wave(swarm)
    else:
        rows = slice(None)
        thetas = [learning_rate(swarm.iteration, cfg.max_iter, cfg.epsilon)] * cfg.population
        rhos = swarm.rng.random(cfg.population).tolist()
    _update(swarm, objective, rows, thetas, rhos)
    return swarm


def run(config: SwarmConfig, objective: Objective) -> Swarm:
    """Initialize and step until the iteration counter reaches max_iter;
    returns the finished swarm.

    Raises ValueError when no evaluation produced a finite best cost.
    """
    swarm = init_swarm(config, objective)
    while swarm.iteration < config.max_iter:
        step(swarm, objective)
    if not math.isfinite(swarm.best_cost):
        raise ValueError(
            f"no finite cost in {swarm.eval_count} evaluations of "
            f"{objective.name!r}: best_cost = {swarm.best_cost!r}"
        )
    return swarm
