"""Math-identity oracle suite behind the `validate` CLI subcommand.

Three families of checks, each independent of the code paths they
audit: the inverse state map is checked by round-tripping through the
forward map, the confinement closed form is checked by quadrature of
the bound state (confinement_integral), and the filter attenuation
metric is checked against two frozen reference designs.
The 10-coefficient reference target is known-inconsistent with its own
published coefficient listing (the coefficients' tallest stopband lobe
sits near -9.24 dB, not -13.65 dB), so that oracle fails by design
until the upstream figures are corrected; it is kept honest rather
than loosened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, stopband_attenuation_db
from .well import delta_of_r, solve_r_batch

__all__ = ["run_validation"]

# frozen half-coefficients of the two reference low-pass designs
REFERENCE_HALF_10 = (
    0.070824792496751651,
    -0.063184376757871669,
    -0.038806613903081974,
    0.013227497402604124,
    0.39889122413816075,
)
REFERENCE_HALF_20 = (
    0.011566963779404912,
    0.0077331878563942523,
    -0.0094736298940968737,
    -0.0068424142182682956,
    0.024047530227972496,
    0.04099248691610477,
    0.14983102243854188,
    0.0057626071427242216,
    -0.0038505536917844913,
    0.28023279944300716,
)
REFERENCE_DELTA_DB_10 = -13.6466
REFERENCE_DELTA_DB_20 = -17.7398
ATTENUATION_TOL_DB = 0.1


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    detail: str


def confinement_integral(
    r_boundary: float, g: float, k: float, quad_points: int = 10**5
) -> float:
    """Probability mass of psi^2 over (-r_boundary, r_boundary).

    The normalization is derived, not supplied: B^2 = k*g/delta(r_boundary),
    which ties the confinement probability 0.5*g to the state map, so the
    result equals 0.5*g up to quadrature error. g = 1 is the exact 50%
    confinement boundary; physically meaningful confinement has g in the
    open interval (1, 2). The composite trapezoid is split at x = 0, where
    psi is only C0; splitting restores the rule's order.
    """
    if not r_boundary > 0:
        raise ValueError(f"r_boundary must be > 0, got {r_boundary}")
    if not 1.0 <= g <= 2.0:
        raise ValueError(f"g must be in [1, 2], got {g}")
    if not k > 0:
        raise ValueError(f"k must be > 0, got {k}")
    # a Python float product overflows to inf silently, where delta_of_r's would warn
    if not np.isfinite(2.0 * float(k) * float(r_boundary)):
        raise ValueError(f"2*k*r_boundary must be finite, got k={k}, r_boundary={r_boundary}")
    if quad_points < 2:
        raise ValueError(f"quad_points must be >= 2, got {quad_points}")
    d = delta_of_r(r_boundary, k)
    if not d > 0:
        raise ValueError(f"delta(r_boundary) must be > 0 for a valid probe, got {d}")
    b2 = k * g / d
    n_side = max(2, quad_points // 2)
    x_neg = np.linspace(-r_boundary, 0.0, n_side)
    x_pos = np.linspace(0.0, r_boundary, n_side)
    psi2_neg = b2 * (np.exp(-k * x_neg) + np.exp(k * x_neg)) ** 2
    psi2_pos = 4.0 * b2 * np.exp(-2.0 * k * x_pos)
    return float(np.trapezoid(psi2_neg, x_neg) + np.trapezoid(psi2_pos, x_pos))


def check_round_trip(samples: int = 10**5, tol: float = 1e-9) -> OracleResult:
    """r -> delta -> r over random (r, k); error bound 1e-9*max(1, |r|)."""
    rng = np.random.default_rng(7)
    r = rng.uniform(-5.0, 5.0, samples)
    k = rng.uniform(1.0, 10.0, samples)
    deltas = delta_of_r(r, k)
    r_hat, solved, _ = solve_r_batch(deltas, k)
    err = np.abs(r_hat - r) / np.maximum(1.0, np.abs(r))
    worst = float(err.max())
    ok = bool(solved.all()) and worst <= tol
    return OracleResult(
        name="inverse-map round trip",
        passed=ok,
        detail=f"{samples} samples, worst scaled error {worst:.3e} (bound {tol:.0e})",
    )


def check_confinement(
    probes: int = 100, quad_points: int = 10**5, rel_tol: float = 1e-6
) -> OracleResult:
    """Quadrature of psi^2 over the vicinity must match 0.5*g."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(probes):
        r = rng.uniform(1e-3, 2.0)
        g = rng.uniform(1.0 + 1e-9, 2.0 - 1e-9)
        k = rng.uniform(1.0, 10.0)
        mass = confinement_integral(r, g, k, quad_points)
        worst = max(worst, abs(mass - 0.5 * g) / (0.5 * g))
    ok = worst <= rel_tol
    return OracleResult(
        name="confinement identity",
        passed=ok,
        detail=f"{probes} probes, worst relative error {worst:.3e} (bound {rel_tol:.0e})",
    )


def check_attenuation_goldens() -> list[OracleResult]:
    """Both reference designs against their frozen attenuation targets."""
    results = []
    for label, half, target, order in (
        ("attenuation golden, 10-tap", REFERENCE_HALF_10, REFERENCE_DELTA_DB_10, 10),
        ("attenuation golden, 20-tap", REFERENCE_HALF_20, REFERENCE_DELTA_DB_20, 20),
    ):
        spec = FilterSpec(n_coeff=order)
        got = stopband_attenuation_db(spec.taps(half), spec)
        ok = abs(got - target) <= ATTENUATION_TOL_DB
        results.append(
            OracleResult(
                name=label,
                passed=ok,
                detail=f"got {got:.4f} dB, target {target:.4f} +- {ATTENUATION_TOL_DB} dB",
            )
        )
    return results


def run_validation() -> list[OracleResult]:
    """Run every oracle at its full sample counts."""
    return [check_round_trip(), check_confinement(), *check_attenuation_goldens()]
