"""qdds: quantum double delta swarm optimization.

A derivative-free swarm optimizer whose particle dynamics come from the
bound state of a double Dirac-delta potential well: each dimension
carries a transcendental state value delta that is nudged by a gated
gradient rule, inverted back to a position, and blended toward the best
solution found so far. Ships with classic benchmark objectives, a
linear-phase low-pass FIR design objective, a seeded experiment harness
with CSV/SVG/JSON artifacts, and a CLI (`qdds`).
"""

from .engine import (
    EventCounters,
    RunResult,
    Swarm,
    SwarmConfig,
    blend_with_gbest,
    init_swarm,
    run,
    step,
)
from .filters import (
    ATTENUATION_GRID,
    FilterEval,
    FilterSpec,
    evaluate_filter,
    expand_symmetric,
    fir_band_errors,
    fir_cost,
    fir_response_magnitude,
    make_filter_objective,
    read_coefficients,
    stopband_attenuation_db,
    write_coefficients,
)
from .harness import (
    EMIT_KINDS,
    ExperimentConfig,
    TrialStats,
    aggregate_stats,
    build_problem,
    build_report,
    canonical_json,
    emit_plot,
    emit_report,
    emit_response_plot,
    emit_stacked_traces,
    emit_tables,
    run_experiment,
    run_trial,
)
from .objectives import (
    BENCHMARK_NAMES,
    Objective,
    griewank,
    make_benchmark,
    rastrigin,
    rosenbrock,
    sphere,
)
from .presets import PRESETS, get_preset, preset_names
from .validate import OracleResult, run_validation
from .well import (
    DELTA_MAX,
    DELTA_MIN,
    EXP_ARG_LIMIT,
    WaveProbe,
    confinement_integral,
    delta_of_r,
    delta_update_arrays,
    learning_rate,
    solve_r_batch,
)

__version__ = "0.1.0"
