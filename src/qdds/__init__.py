"""qdds: quantum double delta swarm optimization.

A derivative-free swarm optimizer whose particle dynamics come from the
bound state of a double Dirac-delta potential well: each dimension
carries a transcendental state value delta that is nudged by a gated
gradient rule, inverted back to a position, and blended toward the best
solution found so far. Ships with classic benchmark objectives, a
linear-phase low-pass FIR design objective, a seeded experiment harness
with CSV/SVG/JSON artifacts, and a CLI (`qdds`).
"""

from .engine import SwarmConfig, run
from .objectives import make_benchmark

__all__ = ["SwarmConfig", "make_benchmark", "run"]

__version__ = "0.1.0"
