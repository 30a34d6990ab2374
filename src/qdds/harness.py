"""Experiment harness: seeded trials, one report, artifacts on disk.

An experiment is `trials` independent runs of one objective, each seeded
deterministically from (master_seed, trial_index). Its result is the
report document: the resolved config, the mean/std/best/worst table row
of the trials' final best costs, each trial's seed and outcome, and for
filter designs the best design's scores. Artifacts are a stacked trace
CSV, a convergence SVG (plus a response SVG and coefficient CSV for
filter designs), and the report as canonical JSON; a preset sweep adds
one summary table per function, built from the reports. Identical
configs produce byte-identical artifacts except for the report's timing
block. This is the only module that writes files: an experiment's
artifacts, or a sweep's tables, are rendered to text first and then
written as one set through write_files.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from . import filters
from .engine import Swarm, SwarmConfig, run
from .filters import FilterSpec, evaluate_filter, make_filter_objective
from .objectives import BENCHMARK_NAMES, Objective, check_int, check_real, make_benchmark
from .svg import line_plot

__all__ = [
    "ExperimentConfig",
    "build_problem",
    "run_trial",
    "run_experiment",
    "emit_plot",
    "emit_tables",
    "build_report",
]

EMIT_KINDS = ("traces", "plots", "report")
# write_files' temporary name for an artifact and a pid; the longest, a label's
# coefficient file with a pid of up to 7 digits, must fit the 255-byte name limit
_TMP_NAME = ".{}.{}.tmp"
_LABEL_MAX = 255 - len(_TMP_NAME.format("_coefficients.csv", 1234567))
_INT_FIELDS = (
    ("population", 1),
    ("iterations", 3),
    ("trials", 1),
    ("master_seed", 0),
    ("order", 1),
    ("grid", 2),
    ("workers", 1),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, JSON-mirrorable.

    objective is a benchmark name or "fir". For "fir" the search
    dimension is derived from order/symmetric and a dimension, if given,
    is checked but unused. wp and ws are band edges as fractions of pi
    (0.3 means 0.3*pi radians). lam = None draws the step scale per run;
    emit selects which artifact kinds are written; label, when set,
    replaces the artifact basename and so holds no path separator.
    Construction builds trial 0's engine config, so a bad engine or
    filter value raises ValueError here rather than mid-run.
    """

    objective: str
    dimension: int | None = None
    population: int = 20
    iterations: int = 250
    trials: int = 10
    master_seed: int = 2023
    mode: str = "literal"
    rebind: str = "post"
    lambda_abs: bool = False
    k: float = 5.0
    epsilon: float = 0.3
    lam: float | None = None
    init_range: tuple[float, float] | None = None
    order: int = 10
    wp: float = 0.3
    ws: float = 0.6
    eta: float = 0.5
    grid: int = 2048
    symmetric: bool = True
    out_dir: str = "out"
    emit: tuple[str, ...] = EMIT_KINDS
    workers: int = 1
    label: str | None = None

    def __post_init__(self) -> None:
        if self.objective != "fir" and self.objective not in BENCHMARK_NAMES:
            raise ValueError(
                f"objective must be 'fir' or one of {', '.join(BENCHMARK_NAMES)}, "
                f"got {self.objective!r}"
            )
        if self.objective != "fir" or self.dimension is not None:
            object.__setattr__(self, "dimension", check_int("dimension", self.dimension, 1))
        # integer fields are stored as Python ints so the report serializes
        for name, minimum in _INT_FIELDS:
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        # real fields are stored as Python floats so the report serializes; every
        # report echoes the filter values, and build_problem scales wp and ws
        for name in ("k", "epsilon", "wp", "ws", "eta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0.0 < self.wp < self.ws < 1.0:
            raise ValueError(
                f"band edges in units of pi must satisfy 0 < wp < ws < 1, got {self.wp}, {self.ws}"
            )
        if self.lam is not None:
            object.__setattr__(self, "lam", check_real("lam", self.lam))
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        if "\0" in self.out_dir:
            raise ValueError("out_dir must not contain a NUL byte")
        # artifacts are ASCII, and the SVG title holds the label verbatim
        if self.label is not None and not (
            isinstance(self.label, str) and self.label != ""
            and self.label.isascii() and self.label.isprintable()
        ):
            raise ValueError(f"label must be non-empty printable ASCII, got {self.label!r}")
        if self.label is not None and len(self.label) > _LABEL_MAX:
            raise ValueError(f"label must be at most {_LABEL_MAX} characters long")
        if self.label is not None and os.path.basename(self.label) != self.label:
            raise ValueError(f"label must not contain a path separator, got {self.label!r}")
        if not self.emit or not isinstance(self.emit, (list, tuple)) or not all(
            isinstance(kind, str) for kind in self.emit
        ):
            raise ValueError(f"emit must be a non-empty list of artifact kinds, got {self.emit!r}")
        unknown = set(self.emit) - set(EMIT_KINDS)
        if unknown:
            raise ValueError(f"unknown emit kinds {sorted(unknown)}; allowed: {EMIT_KINDS}")
        object.__setattr__(self, "emit", tuple(self.emit))
        # every engine and filter value is checked here, before any run, a benchmark's too
        _swarm_config(self, build_problem(self)[0], 0)
        if self.init_range is not None:
            object.__setattr__(self, "init_range", tuple(map(float, self.init_range)))

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.objective == "fir":
            return f"fir-{self.order}"
        return f"{self.objective}-d{self.dimension}-p{self.population}"


def build_problem(config: ExperimentConfig) -> tuple[Objective, FilterSpec | None]:
    """Materialize the objective and, for filter runs, the design spec; a
    benchmark's spec is built too, so its echoed filter settings are checked."""
    spec = FilterSpec(
        n_coeff=config.order,
        omega_p=config.wp * math.pi,
        omega_s=config.ws * math.pi,
        eta=config.eta,
        grid_points=config.grid,
        symmetric=config.symmetric,
    )
    if config.objective == "fir":
        return make_filter_objective(spec), spec
    return make_benchmark(config.objective, config.dimension), None


def _swarm_config(config: ExperimentConfig, objective: Objective, trial: int) -> SwarmConfig:
    return SwarmConfig(
        population=config.population,
        init_range=objective.init_range if config.init_range is None else config.init_range,
        seed=[config.master_seed, trial],
        k=config.k,
        epsilon=config.epsilon,
        lam=config.lam,
        max_iter=config.iterations,
        mode=config.mode,
        rebind=config.rebind,
        lambda_abs=config.lambda_abs,
    )


def run_trial(config: ExperimentConfig, trial: int) -> Swarm:
    """One seeded run, returned as its finished swarm; rebuilds the objective
    locally so it can cross a process boundary (only the config and index
    are pickled)."""
    objective, _ = build_problem(config)
    return run(_swarm_config(config, objective, trial), objective)


def write_files(out_dir, texts: dict[str, str]) -> list[str]:
    """Write each ASCII text to out_dir/name as one set; returns the paths.

    Every text goes to a temporary file in out_dir first, and a directory
    in a target's place raises IsADirectoryError; only then is each
    temporary file moved over its target, so a failure before the first
    move leaves every target as it was. On any exception, KeyboardInterrupt
    included, the temporary files are removed; an OSError is raised again
    as "writing {path}: ...".
    """
    paths = [os.path.join(out_dir, name) for name in texts]
    tmps = [os.path.join(out_dir, _TMP_NAME.format(name, os.getpid())) for name in texts]
    try:
        for path, tmp, text in zip(paths, tmps, texts.values()):
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(text)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"writing {path}: {exc}") from exc
        raise
    return paths


def traces_csv(traces) -> str:
    """Trace CSV of all trials: trial,iter,best_cost,eval_count.

    traces is a sequence of trace row lists as stored on Swarm,
    indexed by trial; costs are written in repr precision so the file
    parses back bit-exactly.
    """
    rows = (
        f"{trial},{iteration},{best_cost!r},{eval_count}\n"
        for trial, trace in enumerate(traces)
        for iteration, best_cost, eval_count in trace
    )
    return "trial,iter,best_cost,eval_count\n" + "".join(rows)


def emit_plot(traces, *, title: str = "") -> str:
    """Convergence SVG text, one polyline per trace.

    traces is a sequence of trace row lists as stored on Swarm. Rows
    whose best cost is not finite (every cost so far overflowed) are
    left out, and the vertical axis is log-scaled when every plotted
    best cost is positive.
    """
    series = []
    for rows in traces:
        rows = [row for row in rows if math.isfinite(row[1])]
        series.append(([row[0] for row in rows], [row[1] for row in rows]))
    log_y = all(y > 0.0 for _, ys in series for y in ys)
    return line_plot(series, title=title, x_label="iteration", y_label="best cost", log_y=log_y)


def emit_response_plot(h, *, title: str = "") -> str:
    """Magnitude response SVG text: 20*log10|H| (floor -120 dB) at 1025 omega/pi points."""
    w = np.linspace(0.0, math.pi, 1025)
    mag = filters.fir_response_magnitude(h, w)
    db = 20.0 * np.log10(np.maximum(mag, 1e-6))
    return line_plot(
        [(list(w / math.pi), list(db))],
        title=title,
        x_label="omega / pi",
        y_label="magnitude (dB)",
    )


def canonical_json(payload) -> str:
    """Stable serialization: sorted keys, two-space indent, newline end.

    Strict JSON: a non-finite float raises ValueError.
    """
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def build_report(
    config: ExperimentConfig,
    swarms: list[Swarm],
    elapsed_seconds: float | None = None,
) -> dict:
    """Assemble the report document (pure data, ready for canonical_json).

    swarms are the trials' finished runs, in trial order. stats holds the
    mean, sample standard deviation (n-1; 0.0 for one trial), best and
    worst of their final best costs.
    """
    objective, spec = build_problem(config)
    cfg = asdict(config)
    cfg["emit"] = list(config.emit)
    cfg["init_range"] = list(swarms[0].config.init_range)
    cfg["resolved_dimension"] = objective.dimension
    costs = np.array([s.best_cost for s in swarms], dtype=float)
    report = {
        "config": cfg,
        "stats": {
            "mean": float(costs.mean()),
            "std": float(np.std(costs, ddof=1)) if costs.size > 1 else 0.0,
            "best": float(costs.min()),
            "worst": float(costs.max()),
        },
        "trials": [
            {
                "trial": i,
                "seed": s.config.seed,
                "best_cost": s.best_cost,
                "best_solution": [float(v) for v in s.best_solution],
                "lam": s.lam,
                "eval_count": s.eval_count,
                "events": dict(s.events),
            }
            for i, s in enumerate(swarms)
        ],
        "events_total": {
            key: sum(s.events[key] for s in swarms) for key in swarms[0].events
        },
    }
    if spec is not None:
        best_idx = int(np.argmin(costs))
        h = spec.taps(swarms[best_idx].best_solution)
        fir = {"best_trial": best_idx, "coefficients": [float(c) for c in h]}
        fir.update(evaluate_filter(h, spec))
        # an all-zero filter has no stopband level: -inf, written as null
        if not math.isfinite(fir["delta_db"]):
            fir["delta_db"] = None
        report["fir"] = fir
    if elapsed_seconds is not None:
        # excluded from the determinism contract
        report["timing"] = {"wall_clock_seconds": elapsed_seconds}
    return report


def emit_tables(reports, out_dir) -> list[str]:
    """Summary tables of a preset sweep; returns the paths written.

    reports are documents built by build_report, in run order. Each
    benchmark function gets {name}.csv with one dim,iters,pop row per
    cell; filter designs go to fir.csv with one order,pop,iters row and
    the best design's delta_db (a null one is written as -inf). Stats
    are written in repr precision.
    """
    tables = {name: ["dim,iters,pop,mean,std,best,worst\n"] for name in BENCHMARK_NAMES}
    tables["fir"] = ["order,pop,iters,gamma_mean,gamma_std,gamma_best,gamma_worst,delta_db\n"]
    for report in reports:
        cfg, st = report["config"], report["stats"]
        stats = f"{st['mean']!r},{st['std']!r},{st['best']!r},{st['worst']!r}"
        if cfg["objective"] == "fir":
            delta_db = report["fir"]["delta_db"]
            if delta_db is None:
                delta_db = -math.inf
            row = f"{cfg['order']},{cfg['population']},{cfg['iterations']},{stats},{delta_db!r}"
        else:
            row = f"{cfg['dimension']},{cfg['iterations']},{cfg['population']},{stats}"
        tables[cfg["objective"]].append(row + "\n")
    os.makedirs(out_dir, exist_ok=True)
    return write_files(out_dir, {f"{name}.csv": "".join(lines) for name, lines in tables.items()})


def run_experiment(config: ExperimentConfig) -> tuple[list[Swarm], dict]:
    """Run all trials, write the selected artifacts as one set, return
    the trials' finished swarms and the report.

    Output directory problems surface before any trial runs. Trials
    execute sequentially for workers = 1, otherwise across a process
    pool, joined in trial-index order either way.
    """
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory not writable: {out}")

    started = time.perf_counter()
    # the fork start method starts every worker on the first submit
    workers = min(config.workers, config.trials, os.cpu_count() or 1)
    if workers == 1:
        swarms = [run_trial(config, t) for t in range(config.trials)]
    else:
        # imported here: a sequential run, the common case, skips its start-up cost
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            swarms = list(pool.map(run_trial, repeat(config), range(config.trials)))
    elapsed = time.perf_counter() - started

    label = config.resolved_label()
    traces = [s.trace for s in swarms]
    report = build_report(config, swarms, elapsed)
    texts = {}
    if "traces" in config.emit:
        texts[f"{label}_traces.csv"] = traces_csv(traces)
    if "plots" in config.emit:
        texts[f"{label}_convergence.svg"] = emit_plot(traces, title=label)
    if "report" in config.emit:
        texts[f"{label}_report.json"] = canonical_json(report)
    if config.objective == "fir":
        h = report["fir"]["coefficients"]
        if "plots" in config.emit:
            texts[f"{label}_response.svg"] = emit_response_plot(h, title=f"{label} response")
        if "report" in config.emit:
            texts[f"{label}_coefficients.csv"] = "".join(f"{c:.17g}\n" for c in h)
    write_files(out, texts)
    return swarms, report
