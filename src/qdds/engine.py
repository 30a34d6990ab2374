"""Swarm engine driving the delta-state recursion.

Each particle keeps, per dimension, a position r and a two-deep delta
history. One update applies the gated delta nudge, inverts the state
map to get a raw position, and blends it with the best solution found
so far using a single uniformly drawn weight per update. Scheduling is
either "literal" (one randomly selected particle per iteration, the
default) or "sweep" (all particles in index order per iteration).

init_swarm plans the whole schedule as waves of three arrays, rows, thetas and
rhos: one iteration each in sweep mode, in literal mode the longest runs of
iterations whose picks are distinct. step applies the next wave and draws
nothing; it keeps the per-dimension well kernels. A member reads only what its
previous update, in an earlier wave, wrote, so the gate, the inverse solve and
the delta rebind each run once per wave on its (rows, dimension) block.
Acceptance stays sequential in pick order, each blend reading the best the
updates before it left: _accept, the one acceptance rule, blends, scores and
takes a wave's rows, and init_swarm's two point sets, a block at a time. An
objective that takes rows or gives lower bounds scores or bounds a block in one
call; any other, and a row still below the best after every bound, is
evaluated one row at a time, only on the rows taken, so it never sees a
discarded point, and the run keeps every bit.

All randomness flows from one numpy Generator seeded by the config, so
identical (config, objective, seed) produce bitwise identical runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .objectives import Objective, check_int, check_range, check_real
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
]

MODES = ("literal", "sweep")
# fewest rows in a block after a wave's first. Against no floor (2 * taken) it
# was 1.9 % faster on the literal cells and 3.5 % on fir-20, and 8 % slower on
# sweep rastrigin d30 p20 (24 interleaved rounds): a trade, not a simplification
_MIN_BLOCK = 8
REBINDS = ("post", "pre")


@dataclass(frozen=True)
class SwarmConfig:
    """Run configuration for one seeded swarm; the dimension is the objective's.

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
        # settings are stored as Python numbers, so that a numpy float32
        # one computes in float64 like any other
        for name, minimum in (("population", 1), ("max_iter", 3)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        for seed in self.seed if np.ndim(self.seed) else (self.seed,):
            check_int("seed", seed, 0)
        object.__setattr__(self, "init_range", check_range("init_range", self.init_range))
        for name in ("k", "epsilon"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.lam is not None:
            object.__setattr__(self, "lam", check_real("lam", self.lam))
            if abs(self.lam) > LAM_MAX:
                raise ValueError(
                    f"|lam| must be <= {LAM_MAX:.6g} to keep the gate step finite, got {self.lam}"
                )
        if not 0.0 < 2.0 * self.k < math.inf:
            raise ValueError(f"k must be > 0 with 2*k finite, got {self.k}")
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

    run returns the swarm it finished. best_cost and best_solution are
    the first minimal cost evaluated and its point, init_swarm and each
    update scoring points alike. trace holds one (iteration,
    best_cost, eval_count) row per iteration: rows 1 and 2 record the two
    initialization sweeps, row 3 marks the optimization start, and each
    iteration after it appends one row, for max_iter rows in a finished
    run. events maps each diagnostic tally (in_band, solver_fallback,
    guard_clamp) to its count over every dimension updated. lam is the
    step scale actually used (drawn or configured), recorded for
    reproducibility. waves holds the planned waves not yet applied, next last.
    """

    config: SwarmConfig
    positions: np.ndarray
    delta_prev: np.ndarray
    delta_prev2: np.ndarray
    best_cost: float
    best_solution: np.ndarray
    eval_count: int
    lam: float
    rng: np.random.Generator
    waves: list[tuple]
    events: dict[str, int] = field(
        default_factory=lambda: {"in_band": 0, "solver_fallback": 0, "guard_clamp": 0}
    )
    trace: list[tuple[int, float, int]] = field(default_factory=list)


def blend_with_gbest(raw, gbest, rho):
    """Convex blend rho*raw + (1 - rho)*gbest of a float64 point, one rho for all
    dims, or of each row of an (n, D) block, rho then an (n, 1) column of
    weights. Nothing is checked: _plan draws every weight in [0, 1)."""
    return rho * raw + (1.0 - rho) * gbest


def init_swarm(config: SwarmConfig, objective: Objective) -> Swarm:
    """Draw two position sets and the waves, seed histories, and evaluate both sets.

    Positions r1 and r2 per particle and dimension seed the two-deep
    delta window (delta_prev2 from r1, delta_prev from r2); the current
    position is r2. Every r1, then every r2, is scored as an update is,
    from best r1[0] at +inf; eval_count ends at 2*population, the trace at 3 rows.
    """
    rng = np.random.default_rng(config.seed)
    lam = float(rng.normal(0.0, 0.5) * 1e-3) if config.lam is None else config.lam
    if config.lambda_abs:
        lam = abs(lam)
    lo, hi = config.effective_init_range()
    r1, r2 = rng.uniform(lo, hi, (2, config.population, objective.dimension))
    swarm = Swarm(
        config=config,
        positions=r2.copy(),
        delta_prev=delta_of_r(r2, config.k),
        delta_prev2=delta_of_r(r1, config.k),
        best_cost=math.inf,
        best_solution=r1[0].copy(),
        eval_count=0,
        lam=lam,
        rng=rng,
        waves=_plan(config, rng),
    )
    # rows 1 and 2 close the two sweeps; row 3, with no evaluation, opens the optimization
    _accept(swarm, objective, r1)
    _accept(swarm, objective, r2)
    swarm.trace.append((3, swarm.best_cost, swarm.eval_count))
    return swarm


def _row_values(objective: Objective, values, n: int, what: str) -> list[float]:
    """values as a list, ValueError unless they are a float64 array of n."""
    if getattr(values, "dtype", None) != np.float64 or np.shape(values) != (n,):
        raise ValueError(f"objective {objective.name!r} returned {values!r}, not {n} {what}")
    return values.tolist()


def _accept(swarm: Swarm, objective: Objective, points: np.ndarray, rhos=None) -> None:
    """Score the rows of points in order and take them: the one acceptance rule.

    Without rhos (init_swarm's r1, then r2) one block call scores every row and
    all are taken. With a wave's weights, points holds the wave's raw rows and
    ends holding its positions: each block of them is blended with the current
    best (blend_with_gbest) and scored, and its rows are taken and written back
    in pick order up to the first strict improvement; the rest are blended
    again, against the new best. The first block is the whole wave, each later
    one twice the rows the last kept and at least _MIN_BLOCK: where improvements
    are dense (sweep waves contracting onto the best) few rows are blended in vain.

    A cost strictly below best_cost (a NaN never is, a tie keeps the earlier
    point) becomes the best with a copy of its row. Each row taken counts one
    evaluation; a literal wave adds one trace row per row taken, a point set or
    a sweep wave one at its end.

    Each block gets one call first: an evaluate with the takes_rows mark (the
    benchmarks; functools.wraps copies it to a wrapper) scores every row, else
    the first of its lower_bounds (a symmetric FIR design, bound functions
    cheapest first; wraps copies them too) bounds every row, else every bound
    is NaN; ValueError unless the call returns a float64 array of one value per
    row. A later tier is called on one row only while the row's bound is below
    the best when the row is taken (a NaN bound goes on), with the same check,
    and only a row still below it after the last tier is evaluated, alone, so
    evaluate never sees a point the run discards; ValueError unless that cost
    is a real scalar, which a bool is not. A row whose bound reaches the best
    takes the bound as its cost, which cannot beat the best either.
    """
    evaluate = objective.evaluate
    takes_rows = getattr(evaluate, "takes_rows", False)
    tiers = () if takes_rows else getattr(evaluate, "lower_bounds", ())
    per_row = rhos is not None and swarm.config.mode == "literal"
    i = 0
    size = n = len(points)
    while i < n:
        end = min(i + size, n)
        block = points[i:end]
        if rhos is not None:
            block = blend_with_gbest(block, swarm.best_solution, rhos[i:end, None])
        if takes_rows:
            values = _row_values(objective, evaluate(block), len(block), "real costs")
        elif tiers:
            values = _row_values(objective, tiers[0](block), len(block), "real lower bounds")
        else:
            values = [math.nan] * len(block)
        taken = len(block)
        for j, cost in enumerate(values):
            for tier in tiers[1:]:
                if cost >= swarm.best_cost:
                    break
                cost = _row_values(objective, tier(block[j : j + 1]), 1, "real lower bounds")[0]
            if not (takes_rows or cost >= swarm.best_cost):
                cost = evaluate(block[j])
                # a plain float skips the much slower isinstance checks
                if type(cost) is not float and (
                    isinstance(cost, bool) or not isinstance(cost, numbers.Real)
                ):
                    raise ValueError(
                        f"objective {objective.name!r} returned {cost!r}, not a real scalar"
                    )
            swarm.eval_count += 1
            better = cost < swarm.best_cost
            if better:
                swarm.best_cost = float(cost)
                swarm.best_solution = block[j].copy()
            if per_row:
                swarm.trace.append((len(swarm.trace) + 1, swarm.best_cost, swarm.eval_count))
            if better and rhos is not None:
                taken = j + 1
                break
        points[i : i + taken] = block[:taken]
        size = max(_MIN_BLOCK, 2 * taken)
        i += taken
    if not per_row:
        swarm.trace.append((len(swarm.trace) + 1, swarm.best_cost, swarm.eval_count))


def _plan(cfg: SwarmConfig, rng: np.random.Generator) -> list[tuple]:
    """The (rows, thetas, rhos) of every wave after iteration 3, last wave first:
    index array, theta column, float64 weights, each in [0, 1) by construction
    (random() or its 53-bit form), so blend_with_gbest checks none. Literal
    waves slice one pick and one weight per iteration, a repeated pick opening
    a new wave; sweep mode has one random((max_iter - 3, P)) block, a row and a
    1x1 theta per iteration."""
    n = cfg.max_iter - 3
    thetas = learning_rate(np.arange(3, cfg.max_iter), cfg.max_iter, cfg.epsilon)[:, None]
    if cfg.mode == "sweep":
        rows = np.arange(cfg.population)
        block = rng.random((n, cfg.population))
        return [(rows, thetas[i : i + 1], block[i]) for i in reversed(range(n))]
    picks, rhos = _draw_literal(rng, cfg.population, n)
    cuts, wave = [], set()
    for i, p in enumerate(picks.tolist()):
        if p in wave:
            cuts.append(i)
            wave.clear()
        wave.add(p)
    bounds = zip([0] + cuts, cuts + [n])
    return [(picks[a:b], thetas[a:b], rhos[a:b]) for a, b in bounds if a < b][::-1]


def _draw_literal(rng: np.random.Generator, population: int, n: int):
    """n iterations' integers(population), random() draws, leaving rng as they
    would. On PCG64 these are 32-bit Lemire on the buffered next_uint32 and
    (word >> 11) * 2**-53, so one random_raw call draws them: iterations 2j, 2j+1
    pick from word 3j's low, high half and weigh with words 3j+1, 3j+2. Another
    bit generator, a buffered half, P = 1 (no draw) or a low product word below
    P (Lemire may reject) restores the state and draws one by one."""
    bitgen = rng.bit_generator
    state = bitgen.state
    pcg = state["bit_generator"] == "PCG64" and not state["has_uint32"]
    if pcg and 1 < population < 2**32 and n:
        raw = bitgen.random_raw((3 * n + 1) // 2)
        pairs = raw[::3]
        products = np.stack((pairs & 0xFFFFFFFF, pairs >> 32), axis=1).ravel()[:n] * population
        if not np.any((products & 0xFFFFFFFF) < population):
            bitgen.state = {**bitgen.state, "has_uint32": n % 2, "uinteger": int(pairs[-1] >> 32)}
            return (products >> 32).astype(np.intp), (np.delete(raw, np.s_[::3]) >> 11) * 2.0**-53
        bitgen.state = state
    draws = [(rng.integers(population), rng.random()) for _ in range(n)]
    return np.array([p for p, _ in draws], np.intp), np.array([w for _, w in draws])


def step(swarm: Swarm, objective: Objective) -> Swarm:
    """Apply the next planned wave: in literal mode the longest run of iterations
    whose picks are distinct, each adding a trace row; in sweep mode one iteration."""
    if not swarm.waves:
        raise ValueError(
            f"iteration {len(swarm.trace)} already reached max_iter {swarm.config.max_iter}"
        )
    rows, thetas, rhos = swarm.waves.pop()
    cfg = swarm.config
    dp = swarm.delta_prev[rows]
    dp2 = swarm.delta_prev2[rows]
    delta_new, fired = delta_update_arrays(dp, dp2, thetas, swarm.lam)
    positions, solved, fallbacks = solve_r_batch(delta_new, cfg.k)
    swarm.events["in_band"] += fired.size - int(np.count_nonzero(fired))
    swarm.events["solver_fallback"] += fallbacks
    if not solved.all():
        swarm.events["guard_clamp"] += solved.size - int(np.count_nonzero(solved))
        # a target delta with no solution, or whose solve hit the 200-round
        # cap (both count as guard_clamp): that dimension's raw position stays put
        positions = np.where(solved, positions, swarm.positions[rows])
        delta_new = np.where(solved, delta_new, dp)
    # the raw positions become the blended ones the wave takes
    _accept(swarm, objective, positions, rhos)
    swarm.positions[rows] = positions
    swarm.delta_prev2[rows] = dp
    if cfg.rebind == "post":
        swarm.delta_prev[rows] = delta_of_r(positions, cfg.k)
    else:
        swarm.delta_prev[rows] = delta_new
    return swarm


def run(config: SwarmConfig, objective: Objective) -> Swarm:
    """Initialize and step until the plan is empty; returns the finished swarm.

    Raises ValueError when no evaluation produced a finite best cost.
    """
    swarm = init_swarm(config, objective)
    while swarm.waves:
        step(swarm, objective)
    if not math.isfinite(swarm.best_cost):
        raise ValueError(
            f"no finite cost in {swarm.eval_count} evaluations of "
            f"{objective.name!r}: best_cost = {swarm.best_cost!r}"
        )
    return swarm
