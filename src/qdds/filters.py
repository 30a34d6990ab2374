"""Low-pass FIR design objective: band errors, cost, and attenuation.

The design target is the ideal low-pass response (1 on the passband
[0, omega_p], 0 on the stopband [omega_s, pi]). Candidate filters are
scored by trapezoid-integrated squared band errors

    E_p = (1/pi) * integral_0^{omega_p} (1 - H(w))^2 dw
    E_s = (1/pi) * integral_{omega_s}^{pi} H(w)^2 dw

with H the magnitude response, combined as gamma = eta*E_p +
(1-eta)*E_s. Linear phase is enforced by mirroring the free half of the
coefficient vector. This module does no file I/O: the harness writes
the coefficient file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, check_int, check_real

__all__ = [
    "FilterSpec",
    "fir_response_magnitude",
    "stopband_attenuation_db",
    "evaluate_filter",
    "make_filter_objective",
]

# attenuation is a max statistic and needs a denser grid than the integrals
ATTENUATION_GRID = 8192


@dataclass(frozen=True)
class FilterSpec:
    """Design problem description.

    n_coeff is the total coefficient count of the filter (the design's
    advertised order); with symmetric=True only the first
    ceil(n_coeff/2) coefficients are free and the rest mirror them, the
    centre tap of an odd count included once. Band edges are in radians
    with 0 < omega_p < omega_s < pi.
    """

    n_coeff: int = 10
    omega_p: float = 0.3 * math.pi
    omega_s: float = 0.6 * math.pi
    eta: float = 0.5
    grid_points: int = 2048
    symmetric: bool = True

    def __post_init__(self) -> None:
        # stored as Python numbers, so that a numpy float32 band edge still
        # builds a float64 grid
        for name, minimum in (("n_coeff", 1), ("grid_points", 2)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if not isinstance(self.symmetric, bool):
            raise ValueError(f"symmetric must be true or false, got {self.symmetric!r}")
        for name in ("omega_p", "omega_s", "eta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0.0 < self.omega_p < self.omega_s < math.pi:
            raise ValueError(
                f"band edges must satisfy 0 < omega_p < omega_s < pi, "
                f"got omega_p={self.omega_p}, omega_s={self.omega_s}"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")

    @property
    def free_dimension(self) -> int:
        """Number of independent design variables."""
        return (self.n_coeff + 1) // 2 if self.symmetric else self.n_coeff

    def taps(self, x) -> np.ndarray:
        """The n_coeff filter taps for a vector of free design variables.

        Symmetric designs mirror the free half: an even count is the
        half and its reverse (linear-phase Type II), an odd count
        mirrors all but the last free variable, which becomes the
        centre tap (Type I).
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.free_dimension,):
            raise ValueError(
                f"expected {self.free_dimension} free variables, got shape {x.shape}"
            )
        if not self.symmetric:
            return x
        return np.concatenate([x, x[::-1][self.n_coeff % 2 :]])


def _basis(w, taps):
    """exp(-j w n) for every (w, n) with n = 0..taps-1, built in place."""
    b = -1j * np.multiply.outer(w, np.arange(taps))
    np.exp(b, out=b)
    return b


def fir_response_magnitude(h, omega):
    """|H(w)| = |sum_n h(n) exp(-j w n)| for scalar or array omega in [0, pi]."""
    h = np.asarray(h, dtype=float)
    w = np.asarray(omega, dtype=float)
    if not ((w >= 0.0) & (w <= np.pi)).all():
        raise ValueError("omega must lie in [0, pi]")
    mag = np.abs(_basis(w, h.size) @ h)
    if np.ndim(omega) == 0:
        return float(mag)
    return mag


def _band_bases(spec: FilterSpec, taps: int):
    """(B, d_pass, d_stop): both bands' bases stacked in one matrix, and their grid steps."""
    w_pass = np.linspace(0.0, spec.omega_p, spec.grid_points)
    w_stop = np.linspace(spec.omega_s, np.pi, spec.grid_points)
    return _basis(np.concatenate([w_pass, w_stop]), taps), np.diff(w_pass), np.diff(w_stop)


def _band_errors(h, bases) -> tuple[float, float]:
    """Trapezoid band errors (E_p, E_s) of float taps h on bases from _band_bases.

    One product serves both bands, each row giving the bits of a per-band product,
    and each sum is np.trapezoid's own arithmetic without its argument handling.
    """
    basis, d_pass, d_stop = bases
    mag = np.abs(basis @ h)
    y_pass = (1.0 - mag[: d_pass.size + 1]) ** 2
    y_stop = mag[d_pass.size + 1 :] ** 2
    e_p = float((d_pass * (y_pass[1:] + y_pass[:-1]) / 2.0).sum() / np.pi)
    e_s = float((d_stop * (y_stop[1:] + y_stop[:-1]) / 2.0).sum() / np.pi)
    return e_p, e_s


def _gamma(spec: FilterSpec, e_p: float, e_s: float) -> float:
    """Weighted design cost gamma = eta*E_p + (1 - eta)*E_s."""
    return spec.eta * e_p + (1.0 - spec.eta) * e_s


def fir_band_errors(h, spec: FilterSpec) -> tuple[float, float]:
    """Trapezoid band errors (E_p, E_s) on spec.grid_points samples per band."""
    h = np.asarray(h, dtype=float)
    return _band_errors(h, _band_bases(spec, h.size))


def stopband_attenuation_db(h, spec: FilterSpec, grid_points: int | None = None) -> float:
    """Attenuation of the tallest stopband lobe, in dB.

    The response is sampled densely on [omega_s, pi] and the reported
    level is 20*log10 of the highest strict interior local maximum,
    i.e. the peak of the worst sidelobe. Roll-off from the transition
    band can dominate the raw magnitude at the band edge without being
    a lobe, so it does not count; a response with no interior peak at
    all (monotone over the band, e.g. an impulse) falls back to the
    plain grid maximum. |H| is used as-is, with no renormalization.
    An all-zero filter reports -inf.
    """
    grid = ATTENUATION_GRID if grid_points is None else grid_points
    if grid < 3:
        raise ValueError(f"attenuation grid must be >= 3 points, got {grid}")
    w = np.linspace(spec.omega_s, np.pi, grid)
    m = fir_response_magnitude(h, w)
    top = float(m.max())
    if top == 0.0:
        return float("-inf")
    interior = m[1:-1]
    peaks = (interior > m[:-2]) & (interior > m[2:])
    if peaks.any():
        top = float(interior[peaks].max())
    return float(20.0 * np.log10(top))


def evaluate_filter(h, spec: FilterSpec) -> dict[str, float]:
    """Full scoring of one coefficient vector under a design spec: the band
    errors e_p and e_s, the weighted cost gamma and the stopband level
    delta_db."""
    e_p, e_s = fir_band_errors(h, spec)
    return {
        "e_p": e_p,
        "e_s": e_s,
        "gamma": _gamma(spec, e_p, e_s),
        "delta_db": stopband_attenuation_db(h, spec),
    }


def make_filter_objective(spec: FilterSpec) -> Objective:
    """Wrap a design spec as an engine objective over the free variables.

    The stacked band basis is built on the first evaluation and reused by
    every later one, so building an objective that never runs costs nothing.
    """
    bases = None

    def evaluate(x) -> float:
        nonlocal bases
        if bases is None:
            bases = _band_bases(spec, spec.n_coeff)
        return _gamma(spec, *_band_errors(spec.taps(x), bases))

    return Objective(
        name=f"fir-{spec.n_coeff}",
        dimension=spec.free_dimension,
        evaluate=evaluate,
        init_range=(-1.0, 1.0),
    )
