"""Benchmark functions: frozen example values, registry wiring, purity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdds.objectives import (
    BENCHMARK_NAMES,
    Objective,
    griewank,
    make_benchmark,
    rastrigin,
    rosenbrock,
    sphere,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


class TestRastrigin:
    def test_zero_vector_is_minimum(self):
        for n in (1, 2, 10):
            assert rastrigin(np.zeros(n)) == 0.0

    def test_all_ones_pair(self):
        assert rastrigin([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_half_point(self):
        # 10 + 0.25 - 10*cos(pi) = 20.25
        assert rastrigin([0.5]) == pytest.approx(20.25, abs=1e-12)

    @given(finite_vectors)
    def test_nonnegative(self, xs):
        # each term x^2 - 10cos(2pi x) + 10 >= 0
        assert rastrigin(xs) >= -1e-9


class TestRosenbrock:
    def test_ones_is_minimum(self):
        for n in (2, 5, 10):
            assert rosenbrock(np.ones(n)) == 0.0

    def test_origin_pair(self):
        assert rosenbrock([0.0, 0.0]) == 1.0

    def test_origin_ten(self):
        assert rosenbrock(np.zeros(10)) == 9.0

    def test_rejects_scalar_input(self):
        # a point and a block of rows alike
        for x in ([1.0], np.ones((3, 1))):
            with pytest.raises(ValueError, match="n >= 2"):
                rosenbrock(x)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8))
    def test_nonnegative(self, xs):
        assert rosenbrock(xs) >= 0.0


class TestSphere:
    def test_zero_vector_is_minimum(self):
        assert sphere(np.zeros(7)) == 0.0

    def test_three_four(self):
        assert sphere([3.0, 4.0]) == 25.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    def test_homogeneity(self, xs):
        x = np.asarray(xs)
        assert sphere(2.0 * x) == pytest.approx(4.0 * sphere(x), rel=1e-12, abs=1e-12)


class TestGriewank:
    def test_zero_vector_is_minimum(self):
        assert griewank(np.zeros(4)) == 0.0

    def test_pi_point(self):
        assert griewank([math.pi]) == pytest.approx(2.0 + math.pi**2 / 4000.0, abs=1e-12)


# each benchmark as written with ndarray.sum and .prod, the bits to keep
REFERENCE_BENCHMARKS = {
    "rastrigin": lambda x: float(10.0 * x.size + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum()),
    "rosenbrock": lambda x: float(
        (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum()
    ),
    "sphere": lambda x: float((x * x).sum()),
    "griewank": lambda x: float(
        1.0
        + (x * x).sum() / 4000.0
        - np.cos(x / np.sqrt(np.arange(1, x.size + 1, dtype=float))).prod()
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmarks_keep_reference_bits(name):
    fn, reference = make_benchmark(name, 2).evaluate, REFERENCE_BENCHMARKS[name]
    rng = np.random.default_rng(11)
    lo, hi = make_benchmark(name, 2).init_range
    for d in (2, 10, 20, 30, 100):
        for x in rng.uniform(lo, hi, (20, 2 * d)):
            # a contiguous row, a strided view and a Python list
            for arg in (x[:d], x[::2], x[:d].tolist()):
                assert fn(arg).hex() == reference(np.asarray(arg, dtype=float)).hex()


ROW_CASES = [
    (name, d)
    for name in BENCHMARK_NAMES
    for d in (1, 2, 3, 10, 30, 100, 200)
    if (name, d) != ("rosenbrock", 1)
]


@pytest.mark.parametrize("name, d", ROW_CASES)
def test_block_costs_match_row_costs(name, d):
    fn = make_benchmark(name, d).evaluate
    lo, hi = make_benchmark(name, d).init_range
    rng = np.random.default_rng(d)
    for n in (1, 2, 7, 80):
        block = rng.uniform(lo, hi, (n, d))
        for row, value in zip((0, n // 2, n - 1), (math.nan, math.inf, -math.inf)):
            block[row, rng.integers(d)] = value
        with np.errstate(invalid="ignore"):  # cos of an infinity
            costs = fn(block)
            rows = [fn(x) for x in block]
        assert isinstance(costs, np.ndarray) and costs.dtype == np.float64
        assert costs.shape == (n,)
        assert all(type(cost) is float for cost in rows)
        assert costs.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_row_form_converts_once(name):
    # a float32 or int point and a float32 block cost the bits of the same
    # values passed as float64
    fn = make_benchmark(name, 3).evaluate
    lo, hi = make_benchmark(name, 3).init_range
    block = np.random.default_rng(5).uniform(lo, hi, (4, 3)).astype(np.float32)
    for point in (block[1], np.array([1, -2, 3])):
        cost = fn(point)
        assert type(cost) is float
        assert cost.hex() == fn(point.astype(float)).hex()
    costs = fn(block)
    assert isinstance(costs, np.ndarray) and costs.dtype == np.float64
    assert costs.tobytes() == fn(block.astype(float)).tobytes()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_known_min_reproduced(name):
    obj = make_benchmark(name, 10)
    # every benchmark has minimum 0: at the ones for rosenbrock, the origin otherwise
    location = np.ones(10) if name == "rosenbrock" else np.zeros(10)
    assert obj.evaluate(location) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name, lo, hi",
    [
        ("rastrigin", -5.12, 5.12),
        ("rosenbrock", -2.048, 2.048),
        ("sphere", -100.0, 100.0),
        ("griewank", -600.0, 600.0),
    ],
)
def test_canonical_init_ranges(name, lo, hi):
    obj = make_benchmark(name, 3)
    assert obj.init_range == (lo, hi)
    assert obj.name == name
    assert obj.dimension == 3


def test_registry_names_stable():
    assert BENCHMARK_NAMES == ("rastrigin", "rosenbrock", "sphere", "griewank")


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        make_benchmark("ackley", 5)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(name="x", dimension=0, evaluate=sphere, init_range=(-1, 1))
    with pytest.raises(ValueError, match="dimension must be an integer"):
        Objective(name="x", dimension=2.5, evaluate=sphere, init_range=(-1, 1))
    with pytest.raises(ValueError, match="init_range must be non-empty"):
        Objective(name="x", dimension=2, evaluate=sphere, init_range=(1, -1))
    with pytest.raises(ValueError, match="init_range must be a finite real number, got 'a'"):
        Objective(name="x", dimension=2, evaluate=sphere, init_range="ab")
    with pytest.raises(ValueError, match="init_range must be a finite real number, got True"):
        Objective(name="x", dimension=2, evaluate=sphere, init_range=(True, 2))
    with pytest.raises(ValueError, match="init_range must be a finite real number, got inf"):
        Objective(name="x", dimension=2, evaluate=sphere, init_range=(0, math.inf))
    with pytest.raises(ValueError, match=r"init_range must be a pair of numbers, got \(1,\)"):
        Objective(name="x", dimension=2, evaluate=sphere, init_range=(1,))
    # stored as Python numbers, like SwarmConfig's
    obj = Objective(name="x", dimension=np.int64(2), evaluate=sphere, init_range=np.float32([-1, 1]))
    assert type(obj.dimension) is int
    assert obj.init_range == (-1.0, 1.0) and all(type(end) is float for end in obj.init_range)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_evaluation_is_pure(name):
    obj = make_benchmark(name, 5)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, 5)
    first = obj.evaluate(x)
    assert all(obj.evaluate(x) == first for _ in range(5))
