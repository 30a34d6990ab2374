"""Filter design objective: response, band errors, attenuation, symmetry."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdds import filters
from qdds.filters import (
    ATTENUATION_GRID,
    FilterSpec,
    evaluate_filter,
    fir_band_errors,
    fir_response_magnitude,
    make_filter_objective,
    stopband_attenuation_db,
)
from qdds.harness import ExperimentConfig, run_experiment
from qdds.validate import (
    REFERENCE_DELTA_DB_20,
    REFERENCE_HALF_10,
    REFERENCE_HALF_20,
)

coeff_vectors = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=24
)


def impulse(n=10):
    h = np.zeros(n)
    h[0] = 1.0
    return h


# Reference oracle: the response, cost and attenuation computed directly,
# building exp(-j w n) on every call. The objective's cached band bases
# must reproduce these bit for bit.
def direct_response(h, w):
    return np.abs(np.exp(-1j * np.multiply.outer(w, np.arange(h.size))) @ h)


def direct_cost(h, spec):
    w_pass = np.linspace(0.0, spec.omega_p, spec.grid_points)
    w_stop = np.linspace(spec.omega_s, np.pi, spec.grid_points)
    h_pass = direct_response(h, w_pass)
    h_stop = direct_response(h, w_stop)
    e_p = float(np.trapezoid((1.0 - h_pass) ** 2, w_pass) / np.pi)
    e_s = float(np.trapezoid(h_stop**2, w_stop) / np.pi)
    return spec.eta * e_p + (1.0 - spec.eta) * e_s


def direct_attenuation_db(h, spec):
    m = direct_response(h, np.linspace(spec.omega_s, np.pi, ATTENUATION_GRID))
    top = float(m.max())
    if top == 0.0:
        return float("-inf")
    interior = m[1:-1]
    peaks = (interior > m[:-2]) & (interior > m[2:])
    if peaks.any():
        top = float(interior[peaks].max())
    return float(20.0 * np.log10(top))


class TestFilterSpec:
    def test_defaults(self):
        spec = FilterSpec()
        assert spec.n_coeff == 10
        assert spec.omega_p == pytest.approx(0.3 * math.pi)
        assert spec.omega_s == pytest.approx(0.6 * math.pi)
        assert spec.eta == 0.5
        assert spec.grid_points == 2048
        assert spec.symmetric

    def test_free_dimension(self):
        assert FilterSpec(n_coeff=10).free_dimension == 5
        assert FilterSpec(n_coeff=20).free_dimension == 10
        assert FilterSpec(n_coeff=7).free_dimension == 4
        assert FilterSpec(n_coeff=10, symmetric=False).free_dimension == 10

    def test_taps(self):
        assert FilterSpec(n_coeff=4).taps([1.0, 2.0]).tolist() == [1.0, 2.0, 2.0, 1.0]
        assert FilterSpec(n_coeff=7).taps([1.0, 2.0, 3.0, 4.0]).tolist() == [
            1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0
        ]
        assert FilterSpec(n_coeff=3, symmetric=False).taps([1.0, 2.0, 3.0]).tolist() == [
            1.0, 2.0, 3.0
        ]
        with pytest.raises(ValueError, match="free variables"):
            FilterSpec(n_coeff=7).taps([1.0, 2.0, 3.0])

    def test_band_edge_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(omega_p=0.6 * math.pi, omega_s=0.3 * math.pi)
        with pytest.raises(ValueError):
            FilterSpec(omega_p=0.0)
        with pytest.raises(ValueError):
            FilterSpec(omega_s=math.pi)
        with pytest.raises(ValueError):
            FilterSpec(eta=1.5)
        with pytest.raises(ValueError):
            FilterSpec(grid_points=1)
        with pytest.raises(ValueError):
            FilterSpec(n_coeff=0)
        # mistyped values name their field instead of silently changing the design
        with pytest.raises(ValueError, match="symmetric"):
            FilterSpec(symmetric="false")
        with pytest.raises(ValueError, match="symmetric"):
            FilterSpec(symmetric=0)
        with pytest.raises(ValueError, match="eta"):
            FilterSpec(eta=True)
        with pytest.raises(ValueError, match="omega_p"):
            FilterSpec(omega_p=True, omega_s=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_coeff": 10.5},
            {"n_coeff": 10.0},
            {"n_coeff": True},
            {"grid_points": 64.5},
            {"grid_points": 64.0},
        ],
    )
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            FilterSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_coeff": np.int64(11), "grid_points": np.int32(64)},
            # a float32 band edge would build a float32 grid
            {"omega_p": np.float32(0.3 * math.pi)},
            # a float32 weight would make the cost a numpy float32
            {"eta": np.float32(0.3)},
        ],
        ids=["int-counts", "float32-omega_p", "float32-eta"],
    )
    def test_numpy_settings_stored_as_python_numbers(self, kwargs):
        spec = FilterSpec(**kwargs)
        plain = FilterSpec(**{name: value.item() for name, value in kwargs.items()})
        for name in ("n_coeff", "grid_points"):
            assert type(getattr(spec, name)) is int
        for name in ("omega_p", "omega_s", "eta"):
            assert type(getattr(spec, name)) is float
        x = np.full(spec.free_dimension, 0.1)
        cost = make_filter_objective(spec).evaluate(x)
        assert type(cost) is float
        assert cost.hex() == make_filter_objective(plain).evaluate(x).hex()


class TestResponseMagnitude:
    def test_single_tap_is_allpass(self):
        w = np.linspace(0.0, math.pi, 33)
        assert np.allclose(fir_response_magnitude([1.0], w), 1.0)

    def test_two_tap_dc(self):
        out = fir_response_magnitude([0.5, 0.5], np.array([0.0]))
        assert out == pytest.approx([1.0], abs=1e-15)

    def test_two_tap_nyquist(self):
        out = fir_response_magnitude([0.5, 0.5], np.array([math.pi]))
        assert out == pytest.approx([0.0], abs=1e-15)

    def test_omega_must_be_a_1d_array(self):
        with pytest.raises(ValueError, match="1-D array"):
            fir_response_magnitude([1.0, 0.5], 0.7)
        with pytest.raises(ValueError, match="1-D array"):
            fir_response_magnitude([1.0, 0.5], np.full((2, 3), 0.7))

    def test_rejects_omega_out_of_range(self):
        with pytest.raises(ValueError):
            fir_response_magnitude([1.0], np.array([-0.1]))
        with pytest.raises(ValueError):
            fir_response_magnitude([1.0], np.array([math.pi + 0.1]))
        # a NaN fails every comparison, so the range check must not pass it
        with pytest.raises(ValueError):
            fir_response_magnitude([1.0, 0.5], np.array([math.nan]))
        with pytest.raises(ValueError):
            fir_response_magnitude([1.0, 0.5], np.array([0.0, math.nan, 1.0]))

    @given(coeff_vectors)
    def test_matches_direct_expression(self, h):
        # grids below one block, across block edges and with a remainder of
        # one point: blocking must keep the bits of one product on the grid
        h = np.asarray(h)
        for n in (257, 513, 1025, ATTENUATION_GRID, ATTENUATION_GRID + 1):
            w = np.linspace(0.0, math.pi, n)
            assert np.array_equal(fir_response_magnitude(h, w), direct_response(h, w))
        w = np.array([0.7])
        assert np.array_equal(fir_response_magnitude(h, w), direct_response(h, w))

    @given(coeff_vectors)
    def test_dc_equals_abs_coefficient_sum(self, h):
        assert fir_response_magnitude(h, np.array([0.0]))[0] == pytest.approx(
            abs(float(np.sum(h))), rel=1e-12, abs=1e-9
        )


class TestBandErrors:
    def test_impulse_band_errors(self):
        e_p, e_s = fir_band_errors(impulse(), FilterSpec())
        assert e_p == pytest.approx(0.0, abs=1e-12)
        assert e_s == pytest.approx(0.4, abs=1e-6)

    def test_zero_filter_band_errors(self):
        e_p, e_s = fir_band_errors(np.zeros(10), FilterSpec())
        assert e_p == pytest.approx(0.3, abs=1e-6)
        assert e_s == pytest.approx(0.0, abs=1e-12)

    def test_grid_refinement_converges(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(-1.0, 1.0, 10)
        prev_change = None
        last = np.array(fir_band_errors(h, FilterSpec(grid_points=64)))
        for grid in (128, 256, 512, 1024):
            cur = np.array(fir_band_errors(h, FilterSpec(grid_points=grid)))
            change = np.abs(cur - last).max()
            if prev_change is not None:
                assert change <= prev_change + 1e-15
            prev_change = change
            last = cur

    @given(coeff_vectors)
    def test_errors_nonnegative(self, h):
        e_p, e_s = fir_band_errors(h, FilterSpec(n_coeff=len(h), grid_points=64))
        assert e_p >= 0.0
        assert e_s >= 0.0


class TestCost:
    def test_impulse_cost_balanced(self):
        assert evaluate_filter(impulse(), FilterSpec(eta=0.5))["gamma"] == pytest.approx(
            0.2, abs=1e-6
        )

    def test_zero_cost_balanced(self):
        assert evaluate_filter(np.zeros(10), FilterSpec(eta=0.5))["gamma"] == pytest.approx(
            0.15, abs=1e-6
        )

    def test_eta_endpoints(self):
        rng = np.random.default_rng(9)
        h = rng.uniform(-1.0, 1.0, 8)
        e_p, e_s = fir_band_errors(h, FilterSpec(n_coeff=8, eta=0.5))
        gamma_p = evaluate_filter(h, FilterSpec(n_coeff=8, eta=1.0))["gamma"]
        gamma_s = evaluate_filter(h, FilterSpec(n_coeff=8, eta=0.0))["gamma"]
        assert gamma_p == pytest.approx(e_p, rel=1e-12)
        assert gamma_s == pytest.approx(e_s, rel=1e-12)

    @given(coeff_vectors, st.floats(min_value=0.0, max_value=1.0))
    def test_gamma_is_convex_combination(self, h, eta):
        spec = FilterSpec(n_coeff=len(h), eta=eta, grid_points=64)
        e_p, e_s = fir_band_errors(h, spec)
        gamma = evaluate_filter(h, spec)["gamma"]
        assert min(e_p, e_s) - 1e-12 <= gamma <= max(e_p, e_s) + 1e-12


class TestAttenuation:
    def test_impulse_is_zero_db(self):
        # |H| == 1 everywhere: no interior lobe, falls back to the grid max
        assert stopband_attenuation_db(impulse(), FilterSpec()) == pytest.approx(0.0, abs=1e-9)

    def test_zero_filter_is_neg_inf(self):
        assert stopband_attenuation_db(np.zeros(10), FilterSpec()) == float("-inf")

    def test_twenty_tap_reference(self):
        h = FilterSpec(n_coeff=20).taps(REFERENCE_HALF_20)
        got = stopband_attenuation_db(h, FilterSpec(n_coeff=20))
        assert got == pytest.approx(REFERENCE_DELTA_DB_20, abs=0.1)

    def test_lobe_beats_band_edge_rolloff(self):
        # roll-off at the stopband edge dominates the raw max for this
        # reference design; the reported level must be the interior lobe
        h = FilterSpec(n_coeff=20).taps(REFERENCE_HALF_20)
        spec = FilterSpec(n_coeff=20)
        w = np.linspace(spec.omega_s, math.pi, ATTENUATION_GRID)
        edge_db = 20.0 * math.log10(fir_response_magnitude(h, w).max())
        got = stopband_attenuation_db(h, spec)
        assert got < edge_db

    def test_grid_override(self, monkeypatch):
        h = FilterSpec(n_coeff=20).taps(REFERENCE_HALF_20)
        spec = FilterSpec(n_coeff=20)
        levels = []
        for grid in (1024, 16384):
            monkeypatch.setattr(filters, "ATTENUATION_GRID", grid)
            levels.append(stopband_attenuation_db(h, spec))
        assert levels[0] == pytest.approx(levels[1], abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(coeff_vectors)
    def test_matches_direct_expression(self, h):
        h = np.asarray(h)
        spec = FilterSpec(n_coeff=h.size, symmetric=False)
        assert stopband_attenuation_db(h, spec) == direct_attenuation_db(h, spec)


class TestSymmetricTaps:
    def test_reference_halves_mirror(self):
        for half, order in ((REFERENCE_HALF_10, 10), (REFERENCE_HALF_20, 20)):
            full = FilterSpec(n_coeff=order).taps(half)
            assert np.array_equal(full, full[::-1])
            assert np.array_equal(full[: len(half)], half)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
        st.booleans(),
    )
    def test_mirror_is_exact(self, half, odd):
        # an odd count shares the last free variable as its centre tap
        full = FilterSpec(n_coeff=2 * len(half) - odd).taps(half)
        assert full.size == 2 * len(half) - odd
        assert np.array_equal(full[: len(half)], half)
        for n in range(full.size):
            assert full[n] == full[full.size - 1 - n]


class TestEvaluateFilter:
    def test_fields_consistent(self):
        spec = FilterSpec()
        ev = evaluate_filter(impulse(), spec)
        e_p, e_s = fir_band_errors(impulse(), spec)
        assert ev["e_p"] == e_p
        assert ev["e_s"] == e_s
        assert ev["gamma"] == pytest.approx(spec.eta * e_p + (1 - spec.eta) * e_s, rel=1e-15)
        assert ev["delta_db"] == stopband_attenuation_db(impulse(), spec)


objective_cases = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.booleans(),
        st.sampled_from([2, 3, 64, 257, 2048]),
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
    )
)


class TestObjectiveWrapper:
    @settings(max_examples=60, deadline=None)
    @given(objective_cases)
    def test_cost_matches_direct_expression(self, case):
        n_coeff, symmetric, grid, values = case
        spec = FilterSpec(n_coeff=n_coeff, symmetric=symmetric, grid_points=grid)
        obj = make_filter_objective(spec)
        # a second point checks the bases the first evaluation cached
        for x in (values[: spec.free_dimension], values[::-1][: spec.free_dimension]):
            h = spec.taps(x)
            assert obj.evaluate(np.asarray(x)) == direct_cost(h, spec)
            assert evaluate_filter(h, spec)["gamma"] == direct_cost(h, spec)

    def test_bases_built_once_per_spec(self, monkeypatch):
        # counts builds, not cache lookups: two objectives of one spec, their
        # evaluations and both screens, and the report's scoring share one
        # record; the report builds the attenuation grid's own basis, one
        # block at a time
        filters._bases.cache_clear()
        builds = []
        basis = filters._basis

        def counting_basis(w, taps):
            builds.append((w.size, taps))
            return basis(w, taps)

        monkeypatch.setattr(filters, "_basis", counting_basis)
        spec = FilterSpec(n_coeff=20)
        objectives = [make_filter_objective(spec), make_filter_objective(spec)]
        assert builds == []
        rng = np.random.default_rng(4)
        for i in range(50):
            objectives[i % 2].evaluate(rng.uniform(-1.0, 1.0, spec.free_dimension))
        for objective in objectives:
            for bounds in objective.evaluate.lower_bounds:
                bounds(rng.uniform(-1.0, 1.0, (6, spec.free_dimension)))
        evaluate_filter(spec.taps(rng.uniform(-1.0, 1.0, spec.free_dimension)), spec)
        block = filters._RESPONSE_BLOCK
        assert builds == [(2 * spec.grid_points, 20)] + [(block, 20)] * (ATTENUATION_GRID // block)
        assert filters._bases.cache_info().misses == 1

    def test_report_memory_is_bounded(self):
        # numpy reports its buffers to tracemalloc; with the bases cached, the
        # peak is the report's own: the attenuation grid's basis one block at
        # a time, not 8192 x 20 complex values (2.6 MB) at once
        spec = FilterSpec(n_coeff=20)
        h = spec.taps(np.full(spec.free_dimension, 0.1))
        evaluate_filter(h, spec)
        tracemalloc.start()
        try:
            evaluate_filter(h, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cached_bases_are_read_only(self):
        spec = FilterSpec(n_coeff=9, grid_points=64)
        *arrays, w_pass, w_stop = filters._bases(spec)
        assert len(arrays) == 6 and isinstance(w_pass, float) and isinstance(w_stop, float)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_record_build_peaks_before_the_screens_exist(self):
        # the exact basis B is built first, so the temporaries of its build
        # (its real phases, half its size, and numpy's cast buffer) are freed
        # before the amplitude basis A exists: the peak is B's build, short of
        # 1.5 B plus A, which building A first reaches
        spec = FilterSpec(n_coeff=20)
        filters._bases.cache_clear()
        tracemalloc.start()
        try:
            exact, _, _, amplitude, *_ = filters._bases(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * exact.nbytes + amplitude.nbytes

    def test_unconstrained_record_holds_only_the_exact_part(self):
        spec = FilterSpec(n_coeff=9, grid_points=64, symmetric=False)
        basis, d_pass, d_stop = filters._bases(spec)
        assert basis.shape == (2 * spec.grid_points, 9) and basis.dtype == np.complex128
        assert d_pass.shape == d_stop.shape == (spec.grid_points - 1,)

    def test_foreign_tap_count_rejected(self):
        spec = FilterSpec(n_coeff=10)
        for h in (np.zeros(9), np.zeros(11), np.zeros((2, 10))):
            with pytest.raises(ValueError, match="10 taps"):
                fir_band_errors(h, spec)
            with pytest.raises(ValueError, match="10 taps"):
                evaluate_filter(h, spec)

    def test_building_an_experiment_builds_no_bases(self, monkeypatch):
        from qdds.harness import build_problem

        calls = []
        monkeypatch.setattr(filters, "_bases", lambda *args: calls.append(args))
        config = ExperimentConfig(objective="fir", order=20, population=4, iterations=5)
        build_problem(config)
        assert calls == []

    def test_importing_presets_builds_no_bases(self, monkeypatch):
        from qdds import presets

        calls = []
        monkeypatch.setattr(filters, "_bases", lambda *args: calls.append(args))
        # re-runs the module body, which builds every preset's config
        importlib.reload(presets)
        assert "fir-20" in presets.PRESETS
        assert calls == []

    def test_symmetric_searches_half(self):
        spec = FilterSpec(n_coeff=10)
        obj = make_filter_objective(spec)
        assert obj.dimension == 5
        assert obj.init_range == (-1.0, 1.0)
        assert obj.name == "fir-10"
        half = np.asarray(REFERENCE_HALF_10)
        assert obj.evaluate(half) == pytest.approx(
            evaluate_filter(spec.taps(half), spec)["gamma"], rel=1e-15
        )

    def test_unconstrained_searches_full(self):
        spec = FilterSpec(n_coeff=10, symmetric=False)
        obj = make_filter_objective(spec)
        assert obj.dimension == 10
        h = FilterSpec(n_coeff=10).taps(REFERENCE_HALF_10)
        assert obj.evaluate(h) == pytest.approx(evaluate_filter(h, spec)["gamma"], rel=1e-15)


bound_cases = st.tuples(
    st.integers(min_value=1, max_value=24),
    st.sampled_from([2, 3, 64, 257, 2048]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=-8.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def exact_costs(objective, rows):
    """The objective's exact cost of each row; inf or huge taps make the
    exact path warn, which is not what these tests look at."""
    with np.errstate(invalid="ignore", over="ignore"):
        return [objective.evaluate(row) for row in rows]


def assert_bounds_below_cost(case, tier):
    """The objective's lower_bounds[tier] on rows drawn from a bound_cases case,
    the first row all zero: float64, one per row, none above the exact cost."""
    n_coeff, grid, eta, log_scale, seed = case
    spec = FilterSpec(n_coeff=n_coeff, grid_points=grid, eta=eta)
    obj = make_filter_objective(spec)
    rows = 10.0**log_scale * np.random.default_rng(seed).uniform(
        -1.0, 1.0, (7, spec.free_dimension)
    )
    rows[0] = 0.0
    bounds = obj.evaluate.lower_bounds[tier](rows)
    assert bounds.dtype == np.float64 and bounds.shape == (len(rows),)
    assert all(b <= c for b, c in zip(bounds.tolist(), exact_costs(obj, rows)))


def assert_non_finite_rows_bound_nan_or_below(n_coeff, eta, tier):
    spec = FilterSpec(n_coeff=n_coeff, eta=eta)
    obj = make_filter_objective(spec)
    rows = np.full((6, spec.free_dimension), 0.25)
    rows[0, 0] = np.inf
    rows[1, -1] = -np.inf
    rows[2, 1] = np.nan
    rows[3] = np.inf
    rows[4, :2] = (np.inf, -np.inf)
    rows[5, 0] = 1e300  # finite taps whose response overflows
    bounds = obj.evaluate.lower_bounds[tier](rows)
    for bound, cost in zip(bounds.tolist(), exact_costs(obj, rows)):
        assert math.isnan(bound) or bound <= cost


class TestLowerBounds:
    """A symmetric objective's lower_bounds, (gram, amplitude): each gives one
    float64 per row, never above the exact cost, NaN allowed."""

    def test_two_tiers_cheapest_first(self):
        tiers = make_filter_objective(FilterSpec(n_coeff=9)).evaluate.lower_bounds
        assert [tier.func for tier in tiers] == [
            filters._gram_lower_bounds, filters._gamma_lower_bounds
        ]

    @settings(max_examples=80, deadline=None)
    @given(bound_cases)
    def test_bound_never_exceeds_cost(self, case):
        assert_bounds_below_cost(case, tier=1)

    @settings(max_examples=80, deadline=None)
    @given(bound_cases)
    def test_gram_bound_never_exceeds_cost(self, case):
        assert_bounds_below_cost(case, tier=0)

    @pytest.mark.parametrize("n_coeff", [5, 6])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_non_finite_rows_bound_nan_or_below(self, n_coeff, eta):
        assert_non_finite_rows_bound_nan_or_below(n_coeff, eta, tier=1)

    @pytest.mark.parametrize("n_coeff", [5, 6])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_gram_non_finite_rows_bound_nan_or_below(self, n_coeff, eta):
        assert_non_finite_rows_bound_nan_or_below(n_coeff, eta, tier=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]))
    def test_near_optimal_designs(self, seed, eta):
        # the 20-tap reference design and neighbours 1e-9 away, where the
        # amplitude bound must stay below the cost with costs this close together
        spec = FilterSpec(n_coeff=20, eta=eta)
        obj = make_filter_objective(spec)
        half = np.asarray(REFERENCE_HALF_20)
        rows = half + 1e-9 * np.random.default_rng(seed).standard_normal((9, half.size))
        rows[0] = half
        bounds = obj.evaluate.lower_bounds[1](rows).tolist()
        costs = exact_costs(obj, rows)
        assert all(b <= c for b, c in zip(bounds, costs))
        # yet close enough to rule out every row that is not within 1e-6 of the best
        assert all(c - b < 1e-6 * c for b, c in zip(bounds, costs))

    @pytest.mark.parametrize("n_coeff", [9, 10, 20])
    def test_gram_bound_is_the_cost_at_eta_0(self, n_coeff):
        # with no passband weight the Gram bound is the stopband integral of
        # A^2, which is gamma itself: only the margin keeps it below the cost
        spec = FilterSpec(n_coeff=n_coeff, eta=0.0)
        obj = make_filter_objective(spec)
        rows = np.random.default_rng(n_coeff).uniform(-1.0, 1.0, (50, spec.free_dimension))
        bounds = obj.evaluate.lower_bounds[0](rows).tolist()
        costs = exact_costs(obj, rows)
        assert all(b <= c for b, c in zip(bounds, costs))
        assert all(c - b < 1e-6 * c for b, c in zip(bounds, costs))

    def test_amplitude_basis_gives_the_magnitude(self):
        for n_coeff in (9, 10):
            spec = FilterSpec(n_coeff=n_coeff, grid_points=64)
            x = np.random.default_rng(n_coeff).uniform(-1.0, 1.0, spec.free_dimension)
            exact, _, _, basis, *_ = filters._bases(spec)
            assert basis.shape == (spec.free_dimension, 2 * spec.grid_points)
            mag = np.abs(exact @ spec.taps(x))
            assert np.allclose(np.abs(x @ basis), mag, rtol=0.0, atol=1e-14)

    def test_gram_basis_gives_the_band_integrals(self):
        for n_coeff in (9, 10):
            spec = FilterSpec(n_coeff=n_coeff, grid_points=64, eta=0.3)
            x = np.random.default_rng(n_coeff).uniform(-1.0, 1.0, spec.free_dimension)
            _, _, _, basis, weights, gram, w_pass, w_stop = filters._bases(spec)
            squares = weights * (x @ basis) ** 2
            grid = spec.grid_points
            assert gram.shape == (spec.free_dimension, 2 * spec.free_dimension)
            assert np.allclose(
                [x @ gram[:, : x.size] @ x, x @ gram[:, x.size :] @ x],
                [squares[:grid].sum(), squares[grid:].sum()],
                rtol=1e-12,
                atol=0.0,
            )
            assert [w_pass, w_stop] == pytest.approx(
                [weights[:grid].sum(), weights[grid:].sum()], rel=1e-15
            )


class TestCoefficientFiles:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(
            objective="fir", order=20, population=4, iterations=5, trials=1,
            out_dir=str(tmp_path), emit=("report",),
        )
        swarms, report = run_experiment(config)
        h = FilterSpec(n_coeff=20).taps(swarms[0].best_solution)
        assert np.array_equal(np.loadtxt(tmp_path / "fir-20_coefficients.csv"), h)
        assert report["fir"]["coefficients"] == h.tolist()
