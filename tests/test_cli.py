"""CLI: subcommands, exit codes, config-file merging, artifact wiring."""

import json

import numpy as np
import pytest

from qdds.cli import main
from qdds.filters import FilterSpec, fir_band_errors, read_coefficients
from qdds.presets import preset_names


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
        h = read_coefficients(tmp_path / "fir-11_coefficients.csv")
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

    def test_non_object_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        assert main(["bench", "--config", str(config)]) == 1
        assert "JSON object" in capsys.readouterr().err


class TestValidate:
    def test_quick_reports_known_inconsistency(self, capsys):
        # the 10-tap reference target disagrees with its own coefficients,
        # so the oracle suite honestly exits 3
        assert main(["validate", "--quick"]) == 3
        out = capsys.readouterr().out
        assert "ok   inverse-map round trip" in out
        assert "ok   confinement identity" in out
        assert "FAIL attenuation golden, 10-tap" in out
        assert "ok   attenuation golden, 20-tap" in out
        assert "1 oracle check(s) failed" in out


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == preset_names()
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


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["train"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["bench", "--pop", "many"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["bench", "--particles", "3"]) == 1
