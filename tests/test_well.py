import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdds import well
from qdds.engine import SwarmConfig
from qdds.validate import confinement_integral
from qdds.well import (
    DELTA_MAX,
    DELTA_MIN,
    EXP_ARG_LIMIT,
    LAM_MAX,
    delta_of_r,
    delta_update_arrays,
    learning_rate,
    solve_r_batch,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


# Scalar reference oracle for the array gate delta_update_arrays: one
# dimension's two-deep delta window and the branch-by-branch update.
@dataclass
class DeltaHistory:
    """Two-deep delta window for one dimension: values at t-1 and t-2."""

    delta_prev: float
    delta_prev2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_prev) and math.isfinite(self.delta_prev2)):
            raise ValueError("delta history must be finite")


def delta_update(hist: DeltaHistory, theta: float, lam: float) -> float:
    """Gated delta update, one branch at a time, first match wins."""
    dp, dp2 = hist.delta_prev, hist.delta_prev2
    grad = dp - dp2
    if dp > 2.0 * dp2 and grad > 0.0:
        return dp - theta * grad * lam
    if dp > 2.0 * dp2 and grad < 0.0:
        return dp + theta * grad * lam
    if dp < 0.5 * dp2 and grad < 0.0:
        return dp - theta * grad * lam
    if dp < 0.5 * dp2 and grad > 0.0:
        return dp + theta * grad * lam
    return dp


# Array reference oracles for the two kernels, as written before they
# dropped converged elements and np.select: every element is masked in
# every round, and the gate takes the first matching of four conditions.
def _z_forward(z):
    return np.exp(z) - 5.0 * np.exp(-z) + 2.0 * z + 4.0


def solve_r_batch_reference(deltas, k, tol=1e-12):
    d = np.asarray(deltas, dtype=float)
    flat = d.ravel()
    solved = np.isfinite(flat) & (flat >= DELTA_MIN) & (flat <= DELTA_MAX)
    safe = np.where(solved, flat, 0.0)
    initial = np.where(
        safe >= 8.0,
        np.log(np.maximum(safe, 8.0)),
        np.where(safe <= -8.0, -np.log(np.maximum(-safe, 8.0) / 5.0), safe / 8.0),
    )
    z = np.clip(np.where(solved, initial, 0.0), -EXP_ARG_LIMIT, EXP_ARG_LIMIT)
    lo = np.full_like(flat, -EXP_ARG_LIMIT)
    hi = np.full_like(flat, EXP_ARG_LIMIT)
    target = np.where(solved, flat, 0.0)
    scale = np.maximum(1.0, np.abs(target))
    used_fallback = np.zeros(flat.shape, dtype=bool)
    active = solved.copy()
    for _ in range(200):
        if not active.any():
            break
        f = _z_forward(z) - target
        pos = f > 0.0
        hi = np.where(active & pos, np.minimum(hi, z), hi)
        lo = np.where(active & ~pos, np.maximum(lo, z), lo)
        conv = np.abs(f) <= tol * scale
        active &= ~conv
        if not active.any():
            break
        fp = np.exp(z) + 5.0 * np.exp(-z) + 2.0
        step = np.where(active, f / fp, 0.0)
        z_newton = z - step
        bad = active & ((z_newton <= lo) | (z_newton >= hi) | ~np.isfinite(z_newton))
        used_fallback |= bad
        z = np.where(active, np.where(bad, 0.5 * (lo + hi), z_newton), z)
    solved &= ~active
    k_flat = np.broadcast_to(np.asarray(k, dtype=float), d.shape).ravel()
    r = np.where(solved, z, 0.0) / (2.0 * k_flat)
    return r.reshape(d.shape), solved.reshape(d.shape), int(used_fallback.sum())


def delta_update_arrays_reference(delta_prev, delta_prev2, theta, lam):
    dp = np.asarray(delta_prev, dtype=float)
    dp2 = np.asarray(delta_prev2, dtype=float)
    grad = dp - dp2
    step = theta * grad * lam
    above = dp > 2.0 * dp2
    below = dp < 0.5 * dp2
    c1 = above & (grad > 0.0)
    c2 = above & (grad < 0.0)
    c3 = below & (grad < 0.0)
    c4 = below & (grad > 0.0)
    out = np.select([c1, c2, c3, c4], [dp - step, dp + step, dp - step, dp + step], dp)
    return out, c1 | c2 | c3 | c4


# the ends of the solvable range and just past them, the +-8 switch of the
# initial guess and its neighbours, signed zeros, subnormals, non-finite
EDGE_DELTAS = [
    DELTA_MIN,
    DELTA_MAX,
    np.nextafter(DELTA_MIN, -np.inf),
    np.nextafter(DELTA_MAX, np.inf),
    DELTA_MAX * 2.0,
    8.0,
    -8.0,
    np.nextafter(8.0, 0.0),
    np.nextafter(8.0, np.inf),
    np.nextafter(-8.0, 0.0),
    np.nextafter(-8.0, -np.inf),
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    float("nan"),
    float("inf"),
    float("-inf"),
]
deltas = st.one_of(
    st.floats(),
    st.floats(-60.0, 60.0),
    st.floats(DELTA_MIN, DELTA_MAX),
    st.sampled_from(EDGE_DELTAS),
)
delta_arrays = st.lists(deltas, max_size=40).map(lambda xs: np.array(xs, dtype=float))


def assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def solve_at(tol, deltas, k):
    """solve_r_batch with its module tolerance SOLVE_TOL set to tol."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(well, "SOLVE_TOL", tol)
        return solve_r_batch(deltas, k)


# NaN and infinite inputs warn in the kernels and the oracles alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestKernelsMatchReference:
    """Bit for bit: the kernels against the reference oracles above."""

    @settings(max_examples=300)
    @given(d=delta_arrays, k=st.sampled_from([5.0, 0.5, 3.7]))
    def test_solve(self, d, k):
        assert_bytes_equal(solve_r_batch(d, k), solve_r_batch_reference(d, k))

    @given(d=delta_arrays)
    def test_solve_round_cap(self, d):
        # tol = -1 is never met: every solvable element runs all 200 rounds
        assert_bytes_equal(solve_at(-1.0, d, 5.0), solve_r_batch_reference(d, 5.0, tol=-1.0))

    @pytest.mark.parametrize("tol", [1e-12, 0.0, -1.0])
    def test_solve_edges_in_one_batch(self, tol):
        d = np.array(EDGE_DELTAS * 2).reshape(6, 6)
        k = np.linspace(0.5, 6.0, 6)
        assert_bytes_equal(solve_at(tol, d, k), solve_r_batch_reference(d, k, tol))
        assert_bytes_equal(
            solve_at(tol, d[0, 0], 5.0), solve_r_batch_reference(d[0, 0], 5.0, tol)
        )

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_solve_counts_fallbacks(self, tol):
        # an exact tolerance lets Newton stall on a bracket end and bisect
        d = np.array([0.0, 3.0, -40.0, 1e200, DELTA_MAX, DELTA_MIN, 7.0])
        got = solve_at(tol, d, 5.0)
        assert got[2] > 0
        assert_bytes_equal(got, solve_r_batch_reference(d, 5.0, tol=tol))

    @settings(max_examples=300)
    @given(
        pairs=st.lists(st.tuples(deltas, deltas), max_size=30),
        theta=st.floats(0.0, 1.0),
        lam=st.one_of(st.floats(-0.01, 0.01), st.sampled_from([0.0, -0.0])),
    )
    def test_gate(self, pairs, theta, lam):
        dp = np.array([a for a, _ in pairs], dtype=float)
        dp2 = np.array([b for _, b in pairs], dtype=float)
        got = delta_update_arrays(dp, dp2, theta, lam)
        assert_bytes_equal(got, delta_update_arrays_reference(dp, dp2, theta, lam))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("lam", [0.0, -0.0, 1e-3, -1e-3, LAM_MAX, -LAM_MAX])
    def test_gate_edge_grid(self, theta, lam):
        # every pair of edge deltas and in-band, out-of-band and huge ones
        values = EDGE_DELTAS + [s * v for v in (1.0, 2.5, 0.4, 1e300) for s in (1, -1)]
        dp, dp2 = np.meshgrid(values, values)
        got = delta_update_arrays(dp, dp2, theta, lam)
        assert_bytes_equal(got, delta_update_arrays_reference(dp, dp2, theta, lam))

    def test_gate_both_bands_hold(self):
        # dp2 < 0 puts dp above 2*dp2 and below 0.5*dp2 at once, both signs of grad
        dp = np.array([1.0, -1.5, -2.5, 0.0, -0.0])
        dp2 = np.array([-1.0, -1.0, -1.0, -1.0, -1.0])
        got = delta_update_arrays(dp, dp2, 0.8, 1e-3)
        assert_bytes_equal(got, delta_update_arrays_reference(dp, dp2, 0.8, 1e-3))
        assert got[1].tolist() == [True, True, True, True, True]
        for a, b in zip(dp, dp2):
            got = delta_update_arrays(a, b, 0.8, 1e-3)
            assert_bytes_equal(got, delta_update_arrays_reference(a, b, 0.8, 1e-3))

    def test_gate_does_not_write_its_inputs(self):
        dp = np.array([2.5, 0.4, 1.0])
        dp2 = np.array([1.0, 1.0, 0.9])
        before = dp.copy(), dp2.copy()
        delta_update_arrays(dp, dp2, 1.0, 0.5)
        assert np.array_equal(dp, before[0]) and np.array_equal(dp2, before[1])


class TestDeltaOfR:
    def test_zero(self):
        assert delta_of_r(0.0, 5.0) == 0.0

    def test_frozen_values(self):
        assert delta_of_r(0.1, 5.0) == pytest.approx(6.878884622601833, rel=1e-15)
        assert delta_of_r(0.2, 5.0) == pytest.approx(14.712379682747587, rel=1e-15)
        assert delta_of_r(0.2, 5.0) > delta_of_r(0.1, 5.0)

    def test_guard_violation_names_inputs(self):
        with pytest.raises(ValueError, match="overflow guard"):
            delta_of_r(100.0, 5.0)
        with pytest.raises(ValueError, match="k=5.0"):
            delta_of_r(-100.0, 5.0)

    def test_array_input(self):
        r = np.array([0.0, 0.1, 0.2])
        out = delta_of_r(r, 5.0)
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_guard_catches_nan_and_passes_empty(self):
        with pytest.raises(ValueError, match="overflow guard"):
            delta_of_r(np.array([0.1, float("nan")]), 5.0)
        with pytest.raises(ValueError, match="overflow guard"):
            delta_of_r(np.array([float("-inf")]), 5.0)
        assert delta_of_r(np.empty((0, 3)), 5.0).shape == (0, 3)
        assert delta_of_r(70.0, 5.0) == delta_of_r(np.array([70.0]), 5.0)[0]

    @given(
        r1=st.floats(-5, 5),
        r2=st.floats(-5, 5),
        k=st.floats(0.1, 10),
    )
    def test_strict_monotonicity(self, r1, r2, k):
        # spacing below ~1e-15/k is invisible next to the map's O(1) terms
        assume(r2 - r1 > 1e-9)
        assert delta_of_r(r1, k) < delta_of_r(r2, k)

    @given(r=st.floats(-5, 5), k=st.floats(0.1, 10))
    def test_sign_correspondence(self, r, k):
        assume(r == 0.0 or abs(r) * k > 1e-12)
        d = delta_of_r(r, k)
        if r > 0:
            assert d > 0
        elif r < 0:
            assert d < 0
        else:
            assert d == 0.0


def r_of_delta(delta, k):
    """The inverse map at one delta, with its solved flag."""
    r, solved, _ = solve_r_batch(np.array([delta]), k)
    return float(r[0]), bool(solved[0])


class TestROfDelta:
    """The inverse map r(delta) as solve_r_batch computes it."""

    def test_zero(self):
        assert r_of_delta(0.0, 5.0) == (0.0, True)

    def test_frozen_round_trip(self):
        r, solved = r_of_delta(6.878884622601833, 5.0)
        assert solved
        assert r == pytest.approx(0.1, abs=1e-12)

    def test_negative_branch(self):
        r, _ = r_of_delta(-3.0, 5.0)
        assert r < 0
        assert delta_of_r(r, 5.0) == pytest.approx(-3.0, abs=1e-10)

    def test_range_extremes_solvable(self):
        for d in (DELTA_MAX, DELTA_MIN):
            r, solved = r_of_delta(d, 5.0)
            assert solved
            assert abs(2 * 5.0 * r) <= EXP_ARG_LIMIT + 1e-9

    @given(r=st.floats(-5, 5), k=st.floats(1, 10))
    def test_round_trip_property(self, r, k):
        r_hat, solved = r_of_delta(delta_of_r(r, k), k)
        assert solved
        assert abs(r_hat - r) <= 1e-9 * max(1.0, abs(r))

    def test_batch_matches_scalar(self):
        # each element is solved under its own mask, so batching changes no bit
        rng = np.random.default_rng(3)
        deltas = rng.uniform(-50, 50, 64)
        r_batch, solved, _ = solve_r_batch(deltas, 5.0)
        assert solved.all()
        assert r_batch.tolist() == [r_of_delta(float(d), 5.0)[0] for d in deltas]

    @given(st.floats(min_value=DELTA_MIN, max_value=DELTA_MAX))
    def test_whole_solvable_range_converges(self, delta):
        # the round cap is never what stops a solve in range
        r, solved, _ = solve_r_batch(np.array([delta]), 5.0)
        assert solved[0]
        assert delta_of_r(r[0], 5.0) == pytest.approx(delta, rel=1e-12, abs=1e-12)

    def test_round_cap_reports_unsolved(self):
        # a negative tolerance is never met, so every element hits the cap
        r, solved, _ = solve_at(-1.0, np.array([0.0, 3.0, -40.0]), 5.0)
        assert solved.tolist() == [False, False, False]
        assert r.tolist() == [0.0, 0.0, 0.0]

    def test_batch_flags_unsolvable(self):
        bad = [DELTA_MAX * 1.01, DELTA_MIN * 1.01, float("inf"), DELTA_MAX * 2]
        r, solved, _ = solve_r_batch(np.array([0.0, *bad]), 5.0)
        assert solved.tolist() == [True, False, False, False, False]
        assert r[1:].tolist() == [0.0] * len(bad)


class TestLearningRate:
    def test_endpoints_and_midpoint(self):
        assert learning_rate(0, 500, 0.3) == 1.0
        assert learning_rate(500, 500, 0.3) == pytest.approx(0.3, rel=1e-15)
        assert learning_rate(250, 500, 0.3) == pytest.approx(0.65, rel=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            learning_rate(501, 500, 0.3)
        with pytest.raises(ValueError):
            learning_rate(-1, 500, 0.3)

    @pytest.mark.parametrize("max_iter", [3, 4, 250, 375, 500])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.999])
    def test_array_matches_scalar_bits(self, max_iter, eps):
        iterations = np.arange(max_iter + 1)
        scalar = [learning_rate(i, max_iter, eps) for i in iterations.tolist()]
        got = learning_rate(iterations, max_iter, eps)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_array_out_of_range_raises(self):
        for bad in (501, -1):
            iterations = np.arange(0, 500, 7)
            iterations[5] = bad
            with pytest.raises(ValueError, match="iteration must be in"):
                learning_rate(iterations, 500, 0.3)

    def test_scalar_gives_python_float(self):
        assert type(learning_rate(3, 250, 0.3)) is float
        assert learning_rate(np.arange(3, 3), 3, 0.3).shape == (0,)

    def test_constant_decrement(self):
        eps, m = 0.3, 250
        steps = [
            learning_rate(i + 1, m, eps) - learning_rate(i, m, eps) for i in range(m)
        ]
        assert all(s == pytest.approx(-(1 - eps) / m, rel=1e-9) for s in steps)


class TestDeltaUpdate:
    def test_in_band_no_branch(self):
        assert delta_update(DeltaHistory(1.0, 0.9), 1.0, 0.001) == 1.0

    def test_above_band_positive_gradient(self):
        out = delta_update(DeltaHistory(2.5, 1.0), 1.0, 0.001)
        assert out == pytest.approx(2.4985, rel=1e-15)

    def test_below_band_negative_gradient(self):
        out = delta_update(DeltaHistory(0.4, 1.0), 0.5, 0.001)
        assert out == pytest.approx(0.40030000000000004, rel=1e-15)

    @given(
        dp2=st.floats(0, 1e6),
        frac=st.floats(0.5, 2.0),
    )
    def test_in_band_is_identity(self, dp2, frac):
        # the band is only non-empty for dp2 >= 0 under signed comparisons
        dp = frac * dp2
        assume(0.5 * dp2 <= dp <= 2.0 * dp2)
        assert delta_update(DeltaHistory(dp, dp2), 0.7, 0.001) == dp

    @given(
        dp=st.floats(1e-6, 1e6),
        dp2=st.floats(1e-6, 1e6),
        theta=st.floats(0, 1),
        lam=st.floats(0, 0.1),
    )
    def test_band_push_back(self, dp, dp2, theta, lam):
        out = delta_update(DeltaHistory(dp, dp2), theta, lam)
        if dp > 2.0 * dp2:
            assert out <= dp
        elif dp < 0.5 * dp2:
            assert out >= dp

    def test_zero_gradient_is_identity(self):
        # dp = dp2 = negative value sits outside the band but grad = 0
        assert delta_update(DeltaHistory(-4.0, -4.0), 1.0, 0.5) == -4.0

    @given(
        dp=st.floats(-1e8, 1e8),
        dp2=st.floats(-1e8, 1e8),
        theta=st.floats(0, 1),
        lam=st.floats(-0.01, 0.01),
    )
    def test_array_form_matches_scalar(self, dp, dp2, theta, lam):
        scalar = delta_update(DeltaHistory(dp, dp2), theta, lam)
        arr, _ = delta_update_arrays(np.array([dp]), np.array([dp2]), theta, lam)
        assert arr[0] == scalar

    def test_array_form_fired_flag(self):
        dp = np.array([1.0, 2.5, 0.4, -4.0])
        dp2 = np.array([0.9, 1.0, 1.0, -4.0])
        _, fired = delta_update_arrays(dp, dp2, 1.0, 0.0)
        # lam = 0 leaves values unchanged but branches still fire or not
        assert fired.tolist() == [False, True, True, False]

    def test_branch_order_on_negative_history(self):
        # dp2 < 0 makes both band tests true; the first branch must win
        dp, dp2 = 1.0, -1.0  # above 2*dp2 and below 0.5*dp2, grad = 2 > 0
        out = delta_update(DeltaHistory(dp, dp2), 1.0, 0.001)
        assert out == pytest.approx(1.0 - 1.0 * 2.0 * 0.001, rel=1e-15)

    @pytest.mark.parametrize("lam", [LAM_MAX, -LAM_MAX])
    def test_largest_accepted_lam_stays_finite(self, lam):
        # every ordered pair of band-edge deltas, so each branch meets its largest step
        ends = np.array([DELTA_MIN, DELTA_MAX, -1.0, 1.0])
        dp, dp2 = (a.ravel() for a in np.meshgrid(ends, ends))
        with np.errstate(over="raise"):
            out, fired = delta_update_arrays(dp, dp2, 1.0, lam)
        assert fired.any() and np.isfinite(out).all()
        SwarmConfig(population=1, init_range=(0.0, 0.0), lam=lam)


class TestWellParams:
    """The well constants k, epsilon, lam and max_iter of SwarmConfig."""

    def config(self, **kwargs):
        return SwarmConfig(population=4, init_range=(-2.0, 2.0), **kwargs)

    def test_defaults_valid(self):
        p = self.config()
        assert p.k == 5.0 and p.epsilon == 0.3 and p.lam is None and p.max_iter == 250

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0.0},
            {"k": -1.0},
            {"epsilon": 1.0},
            {"epsilon": -0.1},
            {"max_iter": 2},
            {"lam": float("nan")},
            {"k": float("inf")},
            {"max_iter": 10.5},
            {"max_iter": True},
            # finite, but 2*k overflows and the guard half-width becomes 0
            {"k": 1e308},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            self.config(**kwargs)


class TestConfinementIntegral:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"r_boundary": 0.0}, "r_boundary must be > 0, got 0.0"),
            ({"r_boundary": -1.0}, "r_boundary must be > 0, got -1.0"),
            ({"g": 0.5}, r"g must be in \[1, 2\], got 0.5"),
            ({"g": 2.5}, r"g must be in \[1, 2\], got 2.5"),
            ({"k": 0.0}, "k must be > 0, got 0.0"),
            ({"k": 1e308}, r"2\*k\*r_boundary must be finite, got k=1e\+308, r_boundary=0.1"),
            ({"quad_points": 1}, "quad_points must be >= 2, got 1"),
            # delta(5e-324) rounds to 0.0
            (
                {"r_boundary": 5e-324, "k": 1.0},
                r"delta\(r_boundary\) must be > 0 for a valid probe, got 0.0",
            ),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs, message):
        args = {"r_boundary": 0.1, "g": 1.5, "k": 5.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}$"):
            confinement_integral(**args)

    def test_matches_half_g(self):
        assert confinement_integral(0.1, 1.5, 5.0, 10**4) == pytest.approx(0.75, abs=1e-6)

    def test_exactly_half_at_g_one(self):
        assert confinement_integral(0.1, 1.0, 5.0, 10**4) == pytest.approx(0.5, abs=1e-6)

    def test_quadrature_converges(self):
        exact = 0.5 * 1.7
        err_n = abs(confinement_integral(0.5, 1.7, 3.0, 2000) - exact)
        err_2n = abs(confinement_integral(0.5, 1.7, 3.0, 4000) - exact)
        assert err_2n < err_n

    @settings(max_examples=20)
    @given(
        r=st.floats(0.01, 2.0),
        g=st.floats(1.001, 1.999),
        k=st.floats(1.0, 10.0),
    )
    def test_identity_random_probes(self, r, g, k):
        mass = confinement_integral(r, g, k, 10**4)
        assert abs(mass - 0.5 * g) / (0.5 * g) <= 1e-5


class TestDeltaHistory:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DeltaHistory(float("nan"), 0.0)
        with pytest.raises(ValueError):
            DeltaHistory(0.0, float("inf"))
