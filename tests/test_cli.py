"""CLI: subcommands, exit codes, config-file merging, artifact wiring."""

import json
import runpy
import sys
from dataclasses import asdict
from xml.dom import minidom

import numpy as np
import pytest

from qdds import cli, harness
from qdds.cli import main
from qdds.filters import FilterSpec, fir_band_errors
from qdds.presets import PRESETS
from qdds.validate import OracleResult


def bench_args(tmp_path, *extra):
    return [
        "bench",
        "--function", "sphere",
        "--dim", "2",
        "--pop", "3",
        "--iters", "10",
        "--trials", "1",
        "--out", str(tmp_path),
        *extra,
    ]


class TestBench:
    def test_happy_path(self, tmp_path, capsys):
        assert main(bench_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "sphere-d2-p3: mean=" in out
        assert (tmp_path / "sphere-d2-p3_report.json").exists()
        assert (tmp_path / "sphere-d2-p3_traces.csv").exists()
        assert (tmp_path / "sphere-d2-p3_convergence.svg").exists()

    def test_emit_subset(self, tmp_path):
        assert main(bench_args(tmp_path, "--emit", "traces")) == 0
        assert (tmp_path / "sphere-d2-p3_traces.csv").exists()
        assert not (tmp_path / "sphere-d2-p3_report.json").exists()

    def test_label_override(self, tmp_path):
        assert main(bench_args(tmp_path, "--label", "smoke")) == 0
        assert (tmp_path / "smoke_report.json").exists()

    def test_label_markup_escaped_in_svg(self, tmp_path):
        label = "a&b<c>"
        assert main(bench_args(tmp_path, "--label", label)) == 0
        svg = minidom.parse(str(tmp_path / f"{label}_convergence.svg"))
        texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
        assert texts[0] == label

    def test_switches_echoed_in_report(self, tmp_path):
        args = bench_args(
            tmp_path, "--mode", "sweep", "--rebind", "pre", "--lambda-abs", "--seed", "9"
        )
        assert main(args) == 0
        report = json.loads((tmp_path / "sphere-d2-p3_report.json").read_text())
        cfg = report["config"]
        assert cfg["mode"] == "sweep"
        assert cfg["rebind"] == "pre"
        assert cfg["lambda_abs"] is True
        assert cfg["master_seed"] == 9
        assert report["trials"][0]["seed"] == [9, 0]

    def test_missing_dimension_is_config_error(self, tmp_path, capsys):
        code = main(["bench", "--function", "sphere", "--out", str(tmp_path)])
        assert code == 1
        assert "bad configuration" in capsys.readouterr().err

    def test_fir_objective_redirected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"objective": "fir"}))
        code = main(["bench", "--config", str(config)])
        assert code == 1
        assert "fir subcommand" in capsys.readouterr().err

    def test_output_collision_is_runtime_failure(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(bench_args(blocker)) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_unwritable_output_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a root process may write anywhere, so the permission check is made to fail
        monkeypatch.setattr(harness.os, "access", lambda path, mode: False)
        assert main(bench_args(tmp_path)) == 2
        assert "output directory not writable" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_run_without_finite_cost_is_runtime_failure(self, tmp_path, capsys):
        # a valid config whose every cost overflows: the run fails, not the settings
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        settings = {
            "objective": "sphere", "dimension": 2, "population": 3, "iterations": 5,
            "trials": 1, "k": 1e-300, "init_range": [-1e300, 1e300], "out_dir": str(out),
        }
        config.write_text(json.dumps(settings))
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure: no finite cost" in err
        assert "configuration error" not in err


class TestFir:
    def test_happy_path(self, tmp_path, capsys):
        args = [
            "fir",
            "--order", "10",
            "--pop", "4",
            "--iters", "10",
            "--trials", "1",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fir-10: delta_db=" in out
        assert (tmp_path / "fir-10_response.svg").exists()
        assert (tmp_path / "fir-10_coefficients.csv").exists()
        report = json.loads((tmp_path / "fir-10_report.json").read_text())
        assert len(report["fir"]["coefficients"]) == 10

    def test_odd_order_writes_that_many_taps(self, tmp_path):
        args = [
            "fir",
            "--order", "11",
            "--pop", "4",
            "--iters", "5",
            "--trials", "1",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        h = np.loadtxt(tmp_path / "fir-11_coefficients.csv")
        assert h.size == 11
        assert np.array_equal(h, h[::-1])
        report = json.loads((tmp_path / "fir-11_report.json").read_text())
        assert len(report["trials"][0]["best_solution"]) == 6
        assert report["fir"]["coefficients"] == h.tolist()
        spec = FilterSpec(n_coeff=11)
        e_p, e_s = fir_band_errors(h, spec)
        assert report["fir"]["e_p"] == e_p
        assert report["fir"]["gamma"] == spec.eta * e_p + (1.0 - spec.eta) * e_s

    def test_band_edges_are_pi_fractions(self, tmp_path):
        args = [
            "fir",
            "--order", "10",
            "--wp", "0.2",
            "--ws", "0.7",
            "--pop", "4",
            "--iters", "10",
            "--trials", "1",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        report = json.loads((tmp_path / "fir-10_report.json").read_text())
        assert report["config"]["wp"] == 0.2
        assert report["config"]["ws"] == 0.7

    def test_inverted_band_edges_rejected(self, tmp_path, capsys):
        args = [
            "fir", "--order", "10", "--wp", "0.7", "--ws", "0.2",
            "--trials", "1", "--out", str(tmp_path),
        ]
        assert main(args) == 1
        assert "configuration" in capsys.readouterr().err


    def test_zero_filter_report_is_strict_json(self, tmp_path, capsys):
        # init_range [0, 0] pins every tap at 0, whose stopband level is -inf
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"init_range": [0, 0]}))
        out = tmp_path / "out"
        args = ["fir", "--config", str(config), "--pop", "3", "--iters", "5",
                "--trials", "1", "--out", str(out)]
        assert main(args) == 0
        assert "fir-10: delta_db=-inf " in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        text = (out / "fir-10_report.json").read_text()
        assert json.loads(text, parse_constant=reject)["fir"]["delta_db"] is None


class TestBadSettings:
    """A bad engine or filter value fails before any output is written."""

    @pytest.mark.parametrize(
        "args",
        [
            ["bench", "--function", "sphere", "--dim", "2", "--iters", "2"],
            ["bench", "--function", "sphere", "--dim", "2", "--k", "0"],
            ["bench", "--function", "sphere", "--dim", "2", "--k", "inf"],
            ["bench", "--function", "sphere", "--dim", "2", "--pop", "0", "--workers", "2"],
            ["fir", "--wp", "0.7", "--ws", "0.2"],
            ["bench", "--function", "rosenbrock", "--dim", "1"],
            ["presets", "sphere-d10-p20", "--trials", "0"],
            ["bench", "--function", "sphere", "--dim", "2", "--label", "a/b"],
            ["bench", "--function", "sphere", "--dim", "2", "--emit", ","],
            ["bench", "--function", "sphere", "--dim", "2", "--label", "caf\u00e9"],
            ["bench", "--function", "sphere", "--dim", "2", "--out", ""],
            ["bench", "--function", "sphere", "--dim", "2", "--label", ""],
            ["bench", "--function", "sphere", "--dim", "2", "--label", "a\x00b"],
            ["bench", "--function", "sphere", "--dim", "2", "--label", "a\x01b"],
            ["bench", "--function", "sphere", "--dim", "2", "--label", "a" * 250],
            ["bench", "--function", "sphere", "--dim", "2", "--out", "o\x00ut"],
            ["bench", "--function", "sphere", "--dim", "2", "--k", "1e308"],
        ],
    )
    def test_flags(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        # an --out in args comes last, so it wins
        assert main([args[0], "--out", str(out), *args[1:]]) == 1
        assert "bad configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bench", "--function", "sphere", "--dim", "2", "--seed", "-1"],
             "master_seed must be >= 0, got -1"),
            (["bench", "--function", "sphere", "--dim", "2", "--iters", "2"],
             "iterations must be >= 3, got 2"),
            (["fir", "--order", "0"], "order must be >= 1, got 0"),
            (["fir", "--grid", "1"], "grid must be >= 2, got 1"),
            (["fir", "--wp", "0.7"],
             "band edges in units of pi must satisfy 0 < wp < ws < 1, got 0.7, 0.6"),
        ],
        ids=["seed", "iters", "order", "grid", "wp"],
    )
    def test_message_names_the_field_set(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert main([args[0], "--out", str(out), *args[1:]]) == 1
        assert capsys.readouterr().err == f"bad configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            '"k": Infinity',
            '"k": -Infinity',
            '"init_range": [-Infinity, Infinity]',
            '"init_range": [0, Infinity]',
            '"wp": NaN',
            '"eta": Infinity',
            # the solvable interval at this k is wider than the float range
            '"k": 1e-306, "init_range": [-1e308, 1e308]',
            # finite, but the gate step theta*grad*lam can overflow
            '"lam": 1e308',
            # a benchmark's filter settings are checked, as a filter design's are
            '"grid": 1, "order": 0, "wp": 0.9, "ws": 0.1, "eta": 5.0',
        ],
    )
    def test_non_finite_config_file_values(self, tmp_path, capsys, fields):
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(
            f'{{"objective": "sphere", "dimension": 2, "out_dir": "{out}", {fields}}}'
        )
        assert main(["bench", "--config", str(config)]) == 1
        assert "bad configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 10.5),
            ("workers", 1.5),
            ("population", 2.0),
            ("trials", True),
            ("master_seed", 1.5),
            # values of the wrong type for the other fields
            ("init_range", 5),
            ("init_range", [1, 2, 3]),
            ("init_range", [True, 2]),
            ("emit", 5),
            ("emit", "traces"),
            ("emit", []),
            ("label", 5),
            ("label", "caf\u00e9"),
            ("out_dir", 5),
            ("out_dir", None),
            ("lambda_abs", "false"),
            ("symmetric", "false"),
            ("k", True),
            ("k", "5"),
            ("epsilon", False),
            ("lam", True),
            ("lam", "0.1"),
            ("wp", True),
            ("ws", True),
            ("eta", True),
        ],
    )
    def test_non_integer_config_file_values(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        config = tmp_path / "cfg.json"
        settings = {"objective": "sphere", "dimension": 2, "population": 2, "trials": 1}
        settings.update({"out_dir": str(out), field: value})
        config.write_text(json.dumps(settings))
        assert main(["bench", "--config", str(config)]) == 1
        assert f"bad configuration: {field} must" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_provides_base_flags_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "objective": "sphere",
                    "dimension": 2,
                    "population": 3,
                    "iterations": 10,
                    "trials": 2,
                    "out_dir": str(tmp_path),
                }
            )
        )
        assert main(["bench", "--config", str(config), "--trials", "1"]) == 0
        report = json.loads((tmp_path / "sphere-d2-p3_report.json").read_text())
        assert report["config"]["trials"] == 1
        assert report["config"]["iterations"] == 10

    def test_missing_file(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "config file" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["bench", "--config", str(config)]) == 1
        assert "config file" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"objective": "\xff"}')
        assert main(["bench", "--config", str(config)]) == 1
        assert "config file" in capsys.readouterr().err

    def test_non_object_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        assert main(["bench", "--config", str(config)]) == 1
        assert "JSON object" in capsys.readouterr().err


class TestValidate:
    def test_quick_reports_known_inconsistency(self, capsys):
        # the 10-tap reference target disagrees with its own coefficients,
        # so the oracle suite honestly exits 3
        assert main(["validate"]) == 3
        out = capsys.readouterr().out
        assert "ok   inverse-map round trip" in out
        assert "ok   confinement identity" in out
        assert "FAIL attenuation golden, 10-tap" in out
        assert "ok   attenuation golden, 20-tap" in out
        assert "1 oracle check(s) failed" in out

    def test_all_passing_exits_zero(self, monkeypatch, capsys):
        passing = [OracleResult("check a", True, "fine"), OracleResult("check b", True, "fine")]
        monkeypatch.setattr(cli, "run_validation", lambda: passing)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == (
            "ok   check a: fine\nok   check b: fine\nall oracle checks passed\n"
        )


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == list(PRESETS)
        assert len(listed) == 38
        assert "rastrigin-d10-p20" in listed
        assert "griewank-d30-p80" in listed
        assert "fir-10" in listed and "fir-20" in listed

    def test_unknown_name(self, capsys):
        assert main(["presets", "bogus"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_run_single_with_overrides(self, tmp_path, capsys):
        code = main(
            ["presets", "sphere-d10-p20", "--trials", "1", "--out", str(tmp_path), "--seed", "5"]
        )
        assert code == 0
        assert "sphere-d10-p20: mean=" in capsys.readouterr().out
        report = json.loads((tmp_path / "sphere-d10-p20_report.json").read_text())
        assert report["config"]["trials"] == 1
        assert report["config"]["master_seed"] == 5
        assert report["config"]["iterations"] == 250


    def test_all_writes_tables(self, tmp_path, monkeypatch, capsys):
        configs = []

        def fake_run_experiment(config):
            report = {
                "config": asdict(config),
                # the cell's run index as its mean tells the rows apart
                "stats": {
                    "mean": float(len(configs)), "std": 0.5, "best": 0.1 + 0.2, "worst": 1 / 3,
                },
            }
            configs.append(config)
            if config.objective == "fir":
                delta_db = None if config.order == 10 else -17.25
                report["fir"] = {"delta_db": delta_db, "e_p": 0.1, "e_s": 0.2, "gamma": 0.15}
            return [], report

        monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
        out = tmp_path / "tables"
        assert main(["presets", "all", "--out", str(out), "--seed", "5", "--trials", "1"]) == 0
        assert [c.resolved_label() for c in configs] == list(PRESETS)
        assert all(c.out_dir == str(out) for c in configs)
        assert all((c.master_seed, c.trials, c.workers) == (5, 1, 1) for c in configs)
        assert "fir-10: delta_db=-inf " in capsys.readouterr().out

        cells = [
            "10,250,20", "10,250,40", "10,250,80",
            "20,375,20", "20,375,40", "20,375,80",
            "30,500,20", "30,500,40", "30,500,80",
        ]
        tail = ",0.5,0.30000000000000004,0.3333333333333333\n"
        for first, name in ((0, "rastrigin"), (9, "rosenbrock"), (18, "sphere"), (27, "griewank")):
            expected = "dim,iters,pop,mean,std,best,worst\n" + "".join(
                f"{cell},{first + i}.0{tail}" for i, cell in enumerate(cells)
            )
            assert (out / f"{name}.csv").read_text() == expected
        assert (out / "fir.csv").read_text() == (
            "order,pop,iters,gamma_mean,gamma_std,gamma_best,gamma_worst,delta_db\n"
            "10,1000,250,36.0,0.5,0.30000000000000004,0.3333333333333333,-inf\n"
            "20,1000,500,37.0,0.5,0.30000000000000004,0.3333333333333333,-17.25\n"
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "fir.csv", "griewank.csv", "rastrigin.csv", "rosenbrock.csv", "sphere.csv"
        ]


ENGINE_FLAG_FIELDS = [
    (["--pop", "4"], "population", 4),
    (["--iters", "7"], "iterations", 7),
    (["--trials", "2"], "trials", 2),
    (["--seed", "9"], "master_seed", 9),
    (["--mode", "sweep"], "mode", "sweep"),
    (["--rebind", "pre"], "rebind", "pre"),
    (["--lambda-abs"], "lambda_abs", True),
    (["--k", "4.5"], "k", 4.5),
    (["--epsilon", "0.25"], "epsilon", 0.25),
    (["--lam", "3"], "lam", 3.0),
    (["--out", "elsewhere"], "out_dir", "elsewhere"),
    (["--emit", "traces,,report"], "emit", ("traces", "report")),
    (["--workers", "2"], "workers", 2),
    (["--label", "named"], "label", "named"),
]
FLAG_FIELDS = [
    *(
        ("bench", *case)
        for case in [
            (["--function", "griewank"], "objective", "griewank"),
            (["--dim", "3"], "dimension", 3),
            *ENGINE_FLAG_FIELDS,
        ]
    ),
    *(
        ("fir", *case)
        for case in [
            (["--order", "12"], "order", 12),
            (["--wp", "0.2"], "wp", 0.2),
            (["--ws", "0.7"], "ws", 0.7),
            (["--eta", "0.25"], "eta", 0.25),
            (["--grid", "64"], "grid", 64),
            (["--no-symmetric"], "symmetric", False),
            *ENGINE_FLAG_FIELDS,
        ]
    ),
    ("presets", ["--out", "elsewhere"], "out_dir", "elsewhere"),
    ("presets", ["--seed", "9"], "master_seed", 9),
    ("presets", ["--trials", "2"], "trials", 2),
    ("presets", ["--workers", "2"], "workers", 2),
]
BASE_ARGS = {
    "bench": ["bench", "--function", "sphere", "--dim", "2"],
    "fir": ["fir"],
    "presets": ["presets", "sphere-d10-p20"],
}


@pytest.mark.parametrize(
    "command, flag, field, value",
    FLAG_FIELDS,
    ids=[f"{command}{''.join(flag[:1])}" for command, flag, _, _ in FLAG_FIELDS],
)
def test_flag_sets_its_config_field(monkeypatch, command, flag, field, value):
    configs = []

    class Captured(Exception):
        pass

    def capture(config):
        configs.append(config)
        raise Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    main([*BASE_ARGS[command], *flag])
    assert len(configs) == 1
    assert getattr(configs[0], field) == value
    if command == "presets":
        assert getattr(PRESETS["sphere-d10-p20"], field) != value


def test_module_entry_point(monkeypatch):
    # run_module warns when the module it runs as __main__ is already imported
    monkeypatch.delitem(sys.modules, "qdds.cli")
    monkeypatch.setattr(sys, "argv", ["qdds", "bench", "--function", "ackley"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qdds.cli", run_name="__main__")
    assert exc.value.code == 1


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["train"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["bench", "--pop", "many"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["bench", "--particles", "3"]) == 1
