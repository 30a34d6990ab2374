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
        with pytest.raises(ValueError):
            rosenbrock([1.0])

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
    with pytest.raises(ValueError):
        Objective(name="x", dimension=2, evaluate=sphere, init_range=(1, -1))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_evaluation_is_pure(name):
    obj = make_benchmark(name, 5)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, 5)
    first = obj.evaluate(x)
    assert all(obj.evaluate(x) == first for _ in range(5))
