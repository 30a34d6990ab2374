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

The objective computes |H| as one complex product per point. A symmetric
design's |H| is also |x @ A| for the free half x and a real amplitude
basis A; the objective's lower_bounds scores rows that way, a few per
product, and takes off a rounding margin, so the engine computes the
exact cost only for rows that could beat its best.
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
# rows per product in the FIR screen: a chunk's (rows, 2*grid) amplitudes take
# 128 KiB at the default grid, and 4 or 8 rows scored 1,000 fir-20 rows fastest
_SCREEN_ROWS = 4
# the screen's margin is this many times the rounding bound _gamma_lower_bounds derives
_SCREEN_SAFETY = 1e3


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


def _band_grid(spec: FilterSpec):
    """(w, d_pass, d_stop): the passband grid then the stopband grid, and their steps."""
    w_pass = np.linspace(0.0, spec.omega_p, spec.grid_points)
    w_stop = np.linspace(spec.omega_s, np.pi, spec.grid_points)
    return np.concatenate([w_pass, w_stop]), np.diff(w_pass), np.diff(w_stop)


def _band_bases(spec: FilterSpec, taps: int):
    """(B, d_pass, d_stop): both bands' bases stacked in one matrix, and their grid steps."""
    w, d_pass, d_stop = _band_grid(spec)
    return _basis(w, taps), d_pass, d_stop


def _amplitude_basis(spec: FilterSpec) -> np.ndarray:
    """The real (free taps, 2*grid) matrix A of a symmetric spec on _band_grid's w.

    Pairing tap i with its mirror N-1-i gives H(w) = exp(-jw(N-1)/2) * (x @ A)(w)
    for the free half x, with A[i] = 2*cos(w*((N-1)/2 - i)) and, for odd N, the
    centre tap's row at 1; so |H| = |x @ A|, a real product half as wide.
    """
    n = spec.n_coeff
    basis = np.multiply.outer((n - 1) / 2.0 - np.arange(spec.free_dimension), _band_grid(spec)[0])
    np.cos(basis, out=basis)
    basis *= 2.0
    if n % 2:
        basis[-1] = 1.0
    return basis


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


def _screen_basis(spec: FilterSpec):
    """(basis, weights, counts) for _gamma_lower_bounds: the amplitude basis,
    the weight of each squared band error sample in gamma (the trapezoid's,
    times eta or 1 - eta, over pi), and each free tap's count in the taps (2,
    the centre tap 1)."""
    _, d_pass, d_stop = _band_grid(spec)
    trapezoid = [(np.append(d, 0.0) + np.insert(d, 0, 0.0)) / 2.0 for d in (d_pass, d_stop)]
    weights = np.concatenate([spec.eta * trapezoid[0], (1.0 - spec.eta) * trapezoid[1]]) / np.pi
    counts = np.full(spec.free_dimension, 2.0)
    counts[spec.free_dimension - spec.n_coeff % 2 :] = 1.0
    return _amplitude_basis(spec), weights, counts


def _gamma_lower_bounds(spec: FilterSpec, rows, screen) -> np.ndarray:
    """A float64 lower bound on the objective's cost of each row of free taps, or NaN.

    Each chunk of _SCREEN_ROWS rows is scored as |X @ A| on the same grid and
    trapezoid weights as the exact cost, then a margin is taken off. Let u be
    the unit roundoff, N the tap count and e = (6N + 8) * u * ||taps||_1.
    - Each computed magnitude is within e of the true |H(w)| on the computed w:
      an entry of either basis errs by at most (pi*(N - 1) + 2) * u times its
      tap's share of ||taps||_1 (its phase w*n is rounded once), the product's
      sum by at most (2N + 4) * u * ||taps||_1 and abs by 2u*|H|. So the
      screen's magnitude a and the exact one m differ by d, |d| <= 2e.
    - Per sample, |(1 - m)^2 - (1 - a)^2| <= 4e|1 - a| + 4e^2 and
      |m^2 - a^2| <= 4e*a + 4e^2. The trapezoid weights are positive, each
      band's sum to at most 1, so by Cauchy-Schwarz the band errors move by at
      most 4e*sqrt(E) + 4e^2, and gamma by at most
      4e*(eta*sqrt(E_p) + (1 - eta)*sqrt(E_s)) + 4e^2 <= 4e*sqrt(gamma) + 4e^2
      (sqrt is concave).
    - Each side's gamma sums at most 2*grid non-negative terms of a few
      roundings each, in any order, so rounds by at most (2*grid + 8) * u * gamma.
    The margin is _SCREEN_SAFETY times the sum of these bounds, with the
    screen's gamma in place of the exact one. A row with an inf or NaN tap, or
    one whose margin overflows, gets NaN or -inf.
    """
    basis, weights, counts = screen
    rows = np.asarray(rows, dtype=float)
    grid = spec.grid_points
    u = np.finfo(float).eps / 2.0
    gamma = np.empty(len(rows))
    chunk = np.empty((_SCREEN_ROWS, basis.shape[1]))
    # overflow and inf - inf only make a bound NaN or -inf, which the engine
    # sends to the exact evaluation, and that reports its own
    with np.errstate(all="ignore"):
        for a in range(0, len(rows), _SCREEN_ROWS):
            x = rows[a : a + _SCREEN_ROWS]
            amp = np.matmul(x, basis, out=chunk[: len(x)])
            np.abs(amp, out=amp)
            np.subtract(1.0, amp[:, :grid], out=amp[:, :grid])
            np.square(amp, out=amp)
            np.matmul(amp, weights, out=gamma[a : a + len(x)])
        e = (6 * spec.n_coeff + 8) * u * (np.abs(rows) @ counts)
        rounding = 2 * (2 * grid + 8) * u * gamma
        return gamma - _SCREEN_SAFETY * (4.0 * e * np.sqrt(gamma) + 4.0 * e * e + rounding)


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
    A symmetric spec's evaluate also carries lower_bounds(rows), one float64
    bound per row of free taps from _gamma_lower_bounds (its basis built on
    its first call too): the engine calls evaluate only on the rows whose
    bound does not rule out beating the best cost.
    """
    bases = screen = None

    def evaluate(x) -> float:
        nonlocal bases
        if bases is None:
            bases = _band_bases(spec, spec.n_coeff)
        return _gamma(spec, *_band_errors(spec.taps(x), bases))

    if spec.symmetric:

        def lower_bounds(rows) -> np.ndarray:
            nonlocal bases, screen
            if screen is None:
                # the exact bases first, so the temporaries of their build are
                # freed before the screen's basis exists: no higher peak memory
                if bases is None:
                    bases = _band_bases(spec, spec.n_coeff)
                screen = _screen_basis(spec)
            return _gamma_lower_bounds(spec, rows, screen)

        evaluate.lower_bounds = lower_bounds

    return Objective(
        name=f"fir-{spec.n_coeff}",
        dimension=spec.free_dimension,
        evaluate=evaluate,
        init_range=(-1.0, 1.0),
    )
