"""Canned experiment presets: the full benchmark grid plus both filters.

Benchmarks cover every cell of the standard comparison grid: four
functions, populations 20/40/80, and the paired (dimension, iterations)
settings (10, 250), (20, 375), (30, 500), ten trials each. The two
filter presets search the 10- and 20-coefficient symmetric low-pass
designs with a 1000-particle swarm.
"""

from __future__ import annotations

from .harness import ExperimentConfig
from .objectives import BENCHMARK_NAMES

__all__ = ["PRESETS"]

_DIM_ITER = ((10, 250), (20, 375), (30, 500))
_POPULATIONS = (20, 40, 80)


def _build_presets() -> dict[str, ExperimentConfig]:
    presets: dict[str, ExperimentConfig] = {}
    for name in BENCHMARK_NAMES:
        for dim, iters in _DIM_ITER:
            for pop in _POPULATIONS:
                cfg = ExperimentConfig(
                    objective=name,
                    dimension=dim,
                    population=pop,
                    iterations=iters,
                    trials=10,
                )
                presets[cfg.resolved_label()] = cfg
    presets["fir-10"] = ExperimentConfig(
        objective="fir", order=10, population=1000, iterations=250, trials=10
    )
    presets["fir-20"] = ExperimentConfig(
        objective="fir", order=20, population=1000, iterations=500, trials=10
    )
    return presets


PRESETS = _build_presets()
