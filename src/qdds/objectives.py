"""Benchmark cost functions and the common objective interface.

Four classic minimization benchmarks (all with a known zero optimum)
plus a small registry keyed by name. Each body is its formula over float64
rows, reduced along the last axis with np.add.reduce and np.multiply.reduce
(which ndarray.sum and .prod run under a wrapper); _row_form owns the calling
contract: one point gives a Python float, an (n, D) block n float64 costs.
Filter-design objectives live in :mod:`qdds.filters`, in the same shape.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "BENCHMARK_NAMES",
    "make_benchmark",
    "check_int",
    "check_real",
    "check_range",
]


def check_int(name: str, value, minimum: int | None = None) -> int:
    """value as a Python int; ValueError unless it is an integer >= minimum.

    Python and numpy integers pass; bool and integral floats (10.0) do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """value as a Python float; ValueError unless it is a finite real number.

    Python and numpy reals pass; bool and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def check_range(name: str, value) -> tuple[float, float]:
    """value as a pair (lo, hi) of Python floats; ValueError unless it is a pair
    of finite real numbers with lo <= hi."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}") from None
    lo, hi = check_real(name, lo), check_real(name, hi)
    if not lo <= hi:
        raise ValueError(f"{name} must be non-empty, got {value}")
    return lo, hi


@dataclass(frozen=True)
class Objective:
    """Named cost function with the metadata the engine needs.

    init_range is the canonical per-dimension initialization interval.
    evaluate may carry a takes_rows or a lower_bounds mark, which the
    engine reads (engine._accept).
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    init_range: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", check_int("dimension", self.dimension, 1))
        object.__setattr__(self, "init_range", check_range("init_range", self.init_range))


def _row_form(benchmark):
    """Wrap a benchmark written over rows: the argument is converted to float64
    once, a point's cost comes back as a Python float and an (n, D) block's as
    the n row costs in a float64 array, each with the bits of the 1-D call on
    its row. The takes_rows mark, which functools.wraps copies onto a wrapper,
    lets the engine score a block of rows in one call."""

    @functools.wraps(benchmark)
    def evaluate(x):
        costs = benchmark(np.asarray(x, dtype=float))
        return float(costs) if costs.ndim == 0 else costs

    evaluate.takes_rows = True
    return evaluate


@_row_form
def rastrigin(x):
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), -1)


@_row_form
def rosenbrock(x):
    if x.shape[-1] < 2:
        raise ValueError(f"rosenbrock needs n >= 2, got n={x.shape[-1]}")
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, -1)


@_row_form
def sphere(x):
    return np.add.reduce(x * x, -1)


@functools.lru_cache(maxsize=32)
def _griewank_roots(n: int) -> np.ndarray:
    roots = np.sqrt(np.arange(1, n + 1, dtype=float))
    roots.flags.writeable = False  # one array shared by every call at this n
    return roots


@_row_form
def griewank(x):
    cosines = np.cos(x / _griewank_roots(x.shape[-1]))
    return 1.0 + np.add.reduce(x * x, -1) / 4000.0 - np.multiply.reduce(cosines, -1)


# canonical initialization domains (community convention, per dimension)
_BENCHMARKS: dict[str, tuple[Callable[[np.ndarray], float], tuple[float, float]]] = {
    "rastrigin": (rastrigin, (-5.12, 5.12)),
    "rosenbrock": (rosenbrock, (-2.048, 2.048)),
    "sphere": (sphere, (-100.0, 100.0)),
    "griewank": (griewank, (-600.0, 600.0)),
}

BENCHMARK_NAMES = tuple(_BENCHMARKS)


def make_benchmark(name: str, dimension: int) -> Objective:
    """Build one of the named benchmarks at the given dimensionality."""
    if name not in _BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}"
        )
    if name == "rosenbrock" and dimension < 2:
        raise ValueError(f"rosenbrock needs dimension >= 2, got {dimension}")
    fn, init_range = _BENCHMARKS[name]
    return Objective(
        name=name,
        dimension=dimension,
        evaluate=fn,
        init_range=init_range,
    )
