"""Experiment harness: report stats, artifacts, determinism, schema round trips."""

import concurrent.futures
import json
import math
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from qdds import harness
from qdds.harness import (
    EMIT_KINDS,
    ExperimentConfig,
    build_problem,
    build_report,
    canonical_json,
    emit_plot,
    emit_response_plot,
    emit_tables,
    run_experiment,
    run_trial,
    traces_csv,
    write_files,
)
from qdds.svg import line_plot


def fir_config(out_dir, **kwargs):
    return ExperimentConfig(
        objective="fir", order=4, population=3, iterations=5, trials=1, out_dir=str(out_dir),
        **kwargs,
    )


def tiny_config(**kwargs):
    defaults = dict(
        objective="sphere",
        dimension=2,
        population=3,
        iterations=12,
        trials=2,
        master_seed=77,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def polyline_points(svg_text):
    """All polylines in the SVG as lists of (x, y) floats."""
    out = []
    for match in re.finditer(r'<polyline points="([^"]*)"', svg_text):
        pairs = [pair.split(",") for pair in match.group(1).split()]
        out.append([(float(x), float(y)) for x, y in pairs])
    return out


class TestExperimentConfig:
    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            ExperimentConfig(objective="ackley", dimension=2)

    def test_benchmark_needs_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            ExperimentConfig(objective="sphere")

    def test_fir_ignores_dimension(self):
        cfg = ExperimentConfig(objective="fir", order=10)
        objective, spec = build_problem(cfg)
        assert objective.dimension == 5
        assert spec.n_coeff == 10

    @pytest.mark.parametrize("objective, dimension", [("fir", None), ("sphere", 2)])
    def test_one_filter_spec_per_build(self, monkeypatch, objective, dimension):
        built = []
        spec_type = harness.FilterSpec

        def counting(**kwargs):
            built.append(kwargs)
            return spec_type(**kwargs)

        monkeypatch.setattr(harness, "FilterSpec", counting)
        cfg = ExperimentConfig(objective=objective, dimension=dimension)
        assert len(built) == 1
        _, spec = build_problem(cfg)
        assert len(built) == 2
        assert (spec is None) == (objective != "fir")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(trials=0)
        with pytest.raises(ValueError):
            tiny_config(workers=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 2},
            {"k": 0.0},
            {"k": math.inf},
            {"population": 0},
            {"init_range": (-math.inf, math.inf)},
            {"objective": "fir", "wp": 0.7, "ws": 0.2},
            {"objective": "rosenbrock", "dimension": 1},
            {"lambda_abs": "false"},
            {"lambda_abs": 1},
            {"symmetric": "false"},
            {"objective": "fir", "symmetric": 0},
            {"k": True},
            {"epsilon": False},
            {"lam": True},
            {"wp": True},
            {"ws": True},
            {"eta": False},
            {"label": "a/b"},
            {"label": "/abs"},
            # values of the wrong type
            {"init_range": (1.0, 2.0, 3.0)},
            {"init_range": (True, 2.0)},
            {"init_range": []},
            {"label": 5},
            {"k": "5"},
            {"lam": "0.1"},
            {"emit": "traces"},
            {"emit": ()},
            {"emit": []},
            {"label": "caf\u00e9"},
            {"out_dir": 5},
            {"out_dir": None},
            {"out_dir": ""},
            # non-finite values, and a range too wide to draw from
            {"wp": math.nan},
            {"wp": math.inf},
            {"eta": math.nan},
            {"eta": math.inf},
            {"k": 1e-306, "init_range": (-1e308, 1e308)},
            {"label": ""},
            {"out_dir": "o\x00ut"},
            {"label": "a\x00b"},
            # a control character would reach the SVG title verbatim
            {"label": "a\x01b"},
            # the label's temporary coefficient file name would pass 255 bytes
            {"label": "a" * 226},
            # a benchmark's filter values are checked too: its report echoes them
            {"grid": 1},
            {"order": 0},
            {"wp": 0.9},
            {"ws": 0.1},
            {"eta": 5.0},
        ],
    )
    def test_engine_and_filter_values_checked_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 10.5},
            {"workers": 1.5},
            {"population": 2.0},
            {"trials": 1.5},
            {"master_seed": 1.5},
            {"objective": "fir", "order": 10.5},
            {"objective": "fir", "grid": 64.5},
            {"trials": True},
            {"iterations": True},
            {"dimension": 2.0},
            {"objective": "fir", "dimension": "x"},
            {"master_seed": -1},
        ],
    )
    def test_integer_fields_must_be_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer|seed"):
            tiny_config(**kwargs)

    def test_numpy_integers_stored_as_ints(self):
        cfg = tiny_config(
            population=np.int64(3), iterations=np.int32(12), master_seed=np.uint16(5)
        )
        assert type(cfg.population) is int and type(cfg.master_seed) is int
        report = build_report(cfg, [run_trial(cfg, 0)])
        assert json.loads(canonical_json(report))["config"]["iterations"] == 12

    @pytest.mark.parametrize(
        "kwargs",
        [{"k": np.float32(5.0)}, {"k": np.int64(5)}, {"epsilon": np.float32(0.3)}],
        ids=["k-float32", "k-int64", "epsilon-float32"],
    )
    def test_numpy_reals_stored_as_floats(self, tmp_path, kwargs):
        cfg = tiny_config(iterations=6, trials=1, out_dir=str(tmp_path), **kwargs)
        _, report = run_experiment(cfg)
        (name, value), = kwargs.items()
        assert type(getattr(cfg, name)) is float
        assert report["config"][name] == float(value)

    def test_unknown_emit_kind_rejected(self):
        with pytest.raises(ValueError, match="emit"):
            tiny_config(emit=("traces", "movies"))

    def test_longest_label_writes_every_artifact(self, tmp_path):
        label = "a" * 225
        run_experiment(tiny_config(objective="fir", order=4, out_dir=str(tmp_path), label=label))
        assert len(list(tmp_path.iterdir())) == 5

    def test_labels(self):
        assert tiny_config().resolved_label() == "sphere-d2-p3"
        assert ExperimentConfig(objective="fir", order=20).resolved_label() == "fir-20"
        assert tiny_config(label="custom").resolved_label() == "custom"


class TestBuildProblem:
    def test_benchmark(self):
        objective, spec = build_problem(tiny_config())
        assert spec is None
        assert objective.name == "sphere"
        assert objective.dimension == 2

    def test_fir_band_edges_scaled_by_pi(self):
        cfg = ExperimentConfig(objective="fir", order=10, wp=0.25, ws=0.5)
        _, spec = build_problem(cfg)
        assert spec.omega_p == pytest.approx(0.25 * math.pi)
        assert spec.omega_s == pytest.approx(0.5 * math.pi)

    def test_init_range_override(self):
        cfg = tiny_config(init_range=(-1.0, 1.0))
        report = build_report(cfg, [run_trial(cfg, 0)])
        assert report["config"]["init_range"] == [-1.0, 1.0]


class TestRunTrial:
    def test_deterministic(self):
        cfg = tiny_config()
        a = run_trial(cfg, 1)
        b = run_trial(cfg, 1)
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.best_solution, b.best_solution)
        assert a.trace == b.trace

    def test_trials_are_independent_of_order(self):
        cfg = tiny_config(trials=3)
        forward = [run_trial(cfg, t).best_cost for t in range(3)]
        backward = [run_trial(cfg, t).best_cost for t in reversed(range(3))]
        assert forward == backward[::-1]

    def test_distinct_trials_distinct_streams(self):
        cfg = tiny_config()
        assert run_trial(cfg, 0).best_cost != run_trial(cfg, 1).best_cost


class TestEmitTrace:
    def test_csv_contract(self, tmp_path):
        cfg = tiny_config(iterations=15)
        results = [run_trial(cfg, t) for t in range(2)]
        lines = traces_csv([r.trace for r in results]).splitlines()
        assert lines[0] == "trial,iter,best_cost,eval_count"
        assert len(lines) == 1 + 2 * 15
        rows = [line.split(",") for line in lines[1:]]
        for trial, result in enumerate(results):
            block = rows[trial * 15 : (trial + 1) * 15]
            assert all(row[0] == str(trial) for row in block)
            assert [int(row[1]) for row in block] == list(range(1, 16))
            costs = [float(row[2]) for row in block]
            assert costs == [r[1] for r in result.trace]  # repr round trip
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_re_emission_is_byte_identical(self, tmp_path):
        traces = [run_trial(tiny_config(), 0).trace]
        write_files(tmp_path, {"a.csv": traces_csv(traces)})
        write_files(tmp_path, {"b.csv": traces_csv(traces)})
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_io_error_names_path(self, tmp_path):
        traces = [run_trial(tiny_config(), 0).trace]
        with pytest.raises(OSError, match="trace"):
            write_files(tmp_path / "nope", {"trace.csv": traces_csv(traces)})

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            traces_csv([[(1, 1.0, 1)], [(0, 1.0)]])


class TestAtomicWrites:
    """A writer that fails part way leaves the previous file as it was."""

    def test_unencodable_text_leaves_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_files(tmp_path, {"t.csv": "old\n"})
        # artifacts are ASCII: the encoding fails after the temporary file is made
        with pytest.raises(UnicodeEncodeError):
            write_files(tmp_path, {"t.csv": "caf\u00e9\n"})
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize(
        "render",
        [
            lambda: "x\n",
            lambda: emit_plot([[(1, 1.0, 1)]]),
            lambda: emit_response_plot([1.0]),
        ],
        ids=["text", "plot", "response"],
    )
    def test_every_writer_names_path(self, tmp_path, render):
        missing = tmp_path / "nope" / "artifact"
        with pytest.raises(OSError, match=re.escape(f"writing {missing}: ")):
            write_files(missing.parent, {missing.name: render()})

    @pytest.mark.parametrize(
        "artifact",
        ["traces.csv", "convergence.svg", "report.json", "response.svg", "coefficients.csv"],
    )
    def test_experiment_names_failed_artifact(self, tmp_path, artifact):
        run_experiment(fir_config(tmp_path, master_seed=1))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # a directory in one artifact's place fails the seed-2 set before any replace
        blocker = tmp_path / f"fir-4_{artifact}"
        blocker.unlink()
        blocker.mkdir()
        del before[blocker.name]
        cfg = fir_config(tmp_path, master_seed=2)
        # seed 2 gives other artifacts, so a replaced seed-1 file would show
        assert run_trial(cfg, 0).trace != run_trial(fir_config(tmp_path, master_seed=1), 0).trace
        with pytest.raises(OSError, match=re.escape(f"writing {blocker}: ")):
            run_experiment(cfg)
        # every other file is the seed-1 artifact, and no temporary file is left
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_table_write_names_path(self, tmp_path):
        old = {f"{name}.csv": f"{name} old\n" for name in ("rastrigin", "rosenbrock", "fir")}
        write_files(tmp_path, old)
        (tmp_path / "sphere.csv").mkdir()
        with pytest.raises(OSError, match=re.escape(f"writing {tmp_path / 'sphere.csv'}: ")):
            emit_tables([], tmp_path)
        assert {p.name: p.read_text() for p in tmp_path.iterdir() if p.is_file()} == old

    def test_interrupt_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.txt"
        path.write_text("old\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_files(tmp_path, {"x.txt": "new\n"})
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


class TestPlots:
    def test_constant_trace_renders_horizontal_line(self):
        polylines = polyline_points(emit_plot([[(1, 5.0, 3), (2, 5.0, 4), (3, 5.0, 5)]]))
        assert len(polylines) == 1
        ys = {y for _, y in polylines[0]}
        assert len(ys) == 1

    def test_impulse_response_is_flat_zero_db(self):
        h = np.zeros(10)
        h[0] = 1.0
        polylines = polyline_points(emit_response_plot(h))
        assert len(polylines) == 1
        ys = {y for _, y in polylines[0]}
        assert len(ys) == 1

    def test_non_finite_rows_left_out(self):
        # rows before the first finite cost have best cost inf
        text = emit_plot([[(1, math.inf, 1), (2, 5.0, 2), (3, 4.0, 3)]])
        polylines = polyline_points(text)
        assert len(polylines) == 1
        assert len(polylines[0]) == 2
        assert "nan" not in text and "inf" not in text
        # a flat log axis near the float maximum is padded past it
        text = emit_plot([[(1, math.inf, 1), (2, 1.58e308, 2), (3, 1.58e308, 3)]])
        assert len(polyline_points(text)[0]) == 2
        assert "1.58e+309" in text
        assert "nan" not in text and "inf" not in text

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([])

    @pytest.mark.parametrize(
        "xs, ys, flat",
        [
            ([1, 2, 3], [-1e17] * 3, 1),
            ([1e17] * 3, [1, 2, 3], 0),
            ([1, 2, 3], [1.7976931348623157e308] * 3, 1),
        ],
        ids=["flat-y", "flat-x", "flat-y-at-float-max"],
    )
    def test_flat_axis_past_two_to_53(self, xs, ys, flat):
        # a pad of 1.0 is lost to rounding this far from zero
        text = line_plot([(xs, ys)])
        (points,) = polyline_points(text)
        assert len(points) == 3
        assert len({p[flat] for p in points}) == 1
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize(
        "xs, ys",
        [([0, 1], [-1e308, 1e308]), ([0, 1, 2], [1.0, math.nan, 2.0])],
        ids=["span-overflows", "nan-y"],
    )
    def test_non_finite_coordinates_rejected(self, xs, ys):
        with pytest.raises(ValueError):
            line_plot([(xs, ys)])

    def test_emit_plot_writes_line_plot_text(self):
        traces = [[(1, 5.0, 3), (2, 4.0, 4)], [(1, 6.0, 3), (2, 2.5, 4)]]
        series = [([1, 2], [5.0, 4.0]), ([1, 2], [6.0, 2.5])]
        expected = line_plot(
            series, title="t", x_label="iteration", y_label="best cost", log_y=True
        )
        assert emit_plot(traces, title="t") == expected

    def test_non_ascii_title_written_as_character_reference(self):
        text = emit_plot([[(1, 1.0, 1), (2, 0.5, 2)]], title="café")
        assert text.isascii() and ">caf&#233;</text>" in text

    def test_only_harness_writes_files(self):
        src = pathlib.Path(harness.__file__).parent
        writers = [
            p.name
            for p in sorted(src.glob("*.py"))
            if re.search(r"write_files|os\.replace", p.read_text())
        ]
        assert writers == ["harness.py"]


class TestReport:
    def test_canonical_round_trip(self):
        cfg = tiny_config()
        results = [run_trial(cfg, t) for t in range(cfg.trials)]
        report = build_report(cfg, results)
        text = canonical_json(report)
        assert canonical_json(json.loads(text)) == text
        assert json.loads(text) == report

    def test_echoes_resolved_lam_and_seeds(self):
        cfg = tiny_config()
        results = [run_trial(cfg, t) for t in range(2)]
        report = build_report(cfg, results)
        for t, entry in enumerate(report["trials"]):
            assert entry["seed"] == [77, t]
            assert entry["lam"] == results[t].lam
            assert set(entry["events"]) == {"in_band", "solver_fallback", "guard_clamp"}
        assert report["config"]["resolved_dimension"] == 2
        assert report["config"]["mode"] == "literal"
        assert report["config"]["rebind"] == "post"
        assert report["config"]["lambda_abs"] is False

    def test_fir_block(self):
        cfg = ExperimentConfig(
            objective="fir", order=10, population=6, iterations=10, trials=2
        )
        results = [run_trial(cfg, t) for t in range(2)]
        report = build_report(cfg, results)
        fir = report["fir"]
        assert len(fir["coefficients"]) == 10
        assert fir["coefficients"] == fir["coefficients"][::-1]
        assert {"best_trial", "e_p", "e_s", "gamma", "delta_db"} <= set(fir)

    def test_zero_filter_delta_db_is_null(self):
        cfg = ExperimentConfig(
            objective="fir", order=10, population=3, iterations=5, trials=1,
            init_range=(0.0, 0.0),
        )
        results = [run_trial(cfg, 0)]
        report = build_report(cfg, results)
        assert report["fir"]["coefficients"] == [0.0] * 10
        assert report["fir"]["delta_db"] is None
        assert json.loads(canonical_json(report)) == report

    def test_stats_from_trial_costs(self):
        def stats(costs):
            events = {"in_band": 0, "solver_fallback": 0, "guard_clamp": 0}
            swarms = [
                SimpleNamespace(
                    best_cost=c, best_solution=np.zeros(2), eval_count=0, events=events, lam=0.0
                )
                for c in costs
            ]
            return build_report(tiny_config(trials=len(costs)), swarms)["stats"]

        assert stats([1.0, 2.0, 3.0]) == {"mean": 2.0, "std": 1.0, "best": 1.0, "worst": 3.0}
        # one trial has no sample spread: std is 0 by convention
        assert stats([5.0]) == {"mean": 5.0, "std": 0.0, "best": 5.0, "worst": 5.0}
        assert stats([4.0, 4.0, 4.0])["std"] == 0.0
        base = [0.5, 1.25, 9.0, 3.5]
        shifted = [c + 100.0 for c in base]
        assert stats(base)["std"] == pytest.approx(stats(shifted)["std"], rel=1e-12)
        spread = stats(list(np.random.default_rng(1).uniform(0.0, 10.0, 7)))
        assert spread["best"] <= spread["mean"] <= spread["worst"]
        assert spread["std"] >= 0.0

    def test_canonical_json_is_strict(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                canonical_json({"x": value})

    def test_timing_only_with_elapsed(self):
        cfg = tiny_config(trials=1)
        results = [run_trial(cfg, 0)]
        assert "timing" not in build_report(cfg, results)
        assert build_report(cfg, results, 1.25)["timing"] == {
            "wall_clock_seconds": 1.25
        }


class TestRunExperiment:
    def test_artifacts_and_stats(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path), trials=1)
        results, report = run_experiment(cfg)
        stats = report["stats"]
        assert stats["mean"] == stats["best"] == stats["worst"] == results[0].best_cost
        assert stats["std"] == 0.0
        label = cfg.resolved_label()
        assert (tmp_path / f"{label}_traces.csv").exists()
        assert (tmp_path / f"{label}_convergence.svg").exists()
        assert (tmp_path / f"{label}_report.json").exists()
        on_disk = json.loads((tmp_path / f"{label}_report.json").read_text())
        assert on_disk == report

    def test_emit_subset(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path), emit=("report",))
        run_experiment(cfg)
        label = cfg.resolved_label()
        assert (tmp_path / f"{label}_report.json").exists()
        assert not (tmp_path / f"{label}_traces.csv").exists()
        assert not (tmp_path / f"{label}_convergence.svg").exists()

    @pytest.mark.parametrize(
        "emit, suffixes",
        [
            (("traces",), ["traces.csv"]),
            (("plots",), ["convergence.svg", "response.svg"]),
            (("report",), ["coefficients.csv", "report.json"]),
            (
                EMIT_KINDS,
                ["coefficients.csv", "convergence.svg", "report.json", "response.svg",
                 "traces.csv"],
            ),
        ],
        ids=["traces", "plots", "report", "all"],
    )
    def test_fir_emit_subset(self, tmp_path, emit, suffixes):
        run_experiment(fir_config(tmp_path, emit=emit))
        # no temporary file is left behind either
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"fir-4_{s}" for s in suffixes]

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        _, rep1 = run_experiment(tiny_config(out_dir=str(out1)))
        _, rep2 = run_experiment(tiny_config(out_dir=str(out2)))
        for rep in (rep1, rep2):
            rep.pop("timing")
            rep["config"].pop("out_dir")
        assert rep1 == rep2
        label = tiny_config().resolved_label()
        assert (out1 / f"{label}_traces.csv").read_bytes() == (
            out2 / f"{label}_traces.csv"
        ).read_bytes()
        assert (out1 / f"{label}_convergence.svg").read_bytes() == (
            out2 / f"{label}_convergence.svg"
        ).read_bytes()

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq_dir, pool_dir = tmp_path / "seq", tmp_path / "pool"
        _, seq = run_experiment(tiny_config(out_dir=str(seq_dir), workers=1))
        _, pooled = run_experiment(tiny_config(out_dir=str(pool_dir), workers=2))
        for rep in (seq, pooled):
            rep.pop("timing")
            rep["config"].pop("out_dir")
        pooled["config"]["workers"] = 1
        assert seq == pooled

    @pytest.mark.parametrize(
        "workers, trials, pool_size", [(8, 2, 2), (2, 3, 2), (4, 1, None), (8, 6, 3)]
    )
    def test_pool_size_clipped_to_trials(self, tmp_path, monkeypatch, workers, trials, pool_size):
        sizes = []
        # a fixed CPU count keeps the cases independent of the host
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_experiment imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = tiny_config(out_dir=str(tmp_path), workers=workers, trials=trials)
        _, report = run_experiment(cfg)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(report["trials"]) == trials
        assert report["config"]["workers"] == workers

    def test_fir_artifacts(self, tmp_path):
        cfg = ExperimentConfig(
            objective="fir",
            order=10,
            population=5,
            iterations=10,
            trials=1,
            out_dir=str(tmp_path),
        )
        _, report = run_experiment(cfg)
        assert (tmp_path / "fir-10_response.svg").exists()
        coeffs = np.loadtxt(tmp_path / "fir-10_coefficients.csv")
        assert np.allclose(coeffs, report["fir"]["coefficients"], rtol=0, atol=1e-16)

    def test_unwritable_output_dir_fails_before_running(self, tmp_path, monkeypatch):
        # a root process may write anywhere, so the permission check is made to fail
        monkeypatch.setattr(harness.os, "access", lambda path, mode: False)
        monkeypatch.setattr(harness, "run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(OSError, match="output directory not writable"):
            run_experiment(tiny_config(out_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_collision_fails_before_running(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            run_experiment(tiny_config(out_dir=str(blocker)))


def test_emit_kinds_frozen():
    assert EMIT_KINDS == ("traces", "plots", "report")
