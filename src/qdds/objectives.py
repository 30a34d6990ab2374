"""Benchmark cost functions and the common objective interface.

Four classic minimization benchmarks (all with a known zero optimum)
plus a small registry keyed by name. Filter-design objectives are built
separately in :mod:`qdds.filters` and share the same Objective shape.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Objective:
    """Named cost function with the metadata the engine needs.

    init_range is the canonical per-dimension initialization interval.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    init_range: tuple[float, float]

    def __post_init__(self) -> None:
        check_int("dimension", self.dimension, 1)
        lo, hi = self.init_range
        if not lo <= hi:
            raise ValueError(f"init_range must be non-empty, got {self.init_range}")


def rastrigin(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum())


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError(f"rosenbrock needs n >= 2, got n={x.size}")
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float((x * x).sum())


def griewank(x) -> float:
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1, dtype=float)
    return float(1.0 + (x * x).sum() / 4000.0 - np.cos(x / np.sqrt(i)).prod())


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
