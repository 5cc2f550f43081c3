"""Command-line interface: exit codes, report files, determinism."""

import json
import math
import subprocess
import sys


import numpy as np
import pytest

from tfnorms.cli import main
from tfnorms.grid import Grid, SampledSignal
from tfnorms.reporting import dumps_canonical, load_signal, save_signal

CLI = [sys.executable, "-m", "tfnorms.cli"]


def run_cli(args, cwd):
    return subprocess.run(
        CLI + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


class TestCanonicalJson:
    def test_float_formatting(self):
        text = dumps_canonical({"a": 0.1, "b": [1.0, 2], "c": None, "d": True})
        assert text == '{"a":0.10000000000000001,"b":[1,2],"c":null,"d":true}'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})

    def test_round_trips_as_json(self):
        payload = {"value": math.pi, "items": [{"k": -3, "v": 1e-12}]}
        again = json.loads(dumps_canonical(payload))
        assert again["value"] == math.pi
        assert again["items"][0]["v"] == 1e-12


class TestSignalFiles:
    def test_round_trip(self, tmp_path):
        grid = Grid(256, 8.0)
        f = SampledSignal.from_function(grid, lambda x: np.exp(-(x**2)) * (1 + 0.5j))
        path = tmp_path / "sig.csv"
        save_signal(path, f)
        assert path.exists() and path.with_suffix(".json").exists()
        g = load_signal(path)
        assert g.grid.compatible(grid)
        assert np.max(np.abs(g.samples - f.samples)) <= 1e-16

    def test_sidecar_mismatch_detected(self, tmp_path):
        grid = Grid(256, 8.0)
        f = SampledSignal.from_function(grid, lambda x: np.exp(-(x**2)))
        path = tmp_path / "sig.csv"
        save_signal(path, f)
        sidecar = path.with_suffix(".json")
        sidecar.write_text('{"n":512,"L":8}')
        with pytest.raises(ValueError):
            load_signal(path)


class TestCommands:
    def test_list(self, tmp_path):
        result = run_cli(["--list"], tmp_path)
        assert result.returncode == 0
        for name in ("moyal", "rudin-shapiro", "counterexample-l2", "all"):
            assert name in result.stdout

    def test_unknown_experiment(self, tmp_path):
        result = run_cli(["no-such-thing"], tmp_path)
        assert result.returncode == 2  # argparse usage error

    def test_rudin_shapiro_writes_reports(self, tmp_path):
        result = run_cli(["rudin-shapiro", "--m", "10", "--out", "out"], tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == 1
        assert report["experiment"] == "rudin-shapiro"
        assert report["config"]["m_max"] == 10
        assert all(a["pass"] for a in report["assertions"])
        csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "depth,identity_relative_error"
        assert len(csv_lines) == 12

    def test_counterexample_l2_example_flags(self, tmp_path):
        result = run_cli(
            ["counterexample-l2", "--k0", "3", "--checkpoints", "1e2,1e4,1e8", "--out", "out"],
            tmp_path,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"m_max": 6, "samples": 512}')
        result = run_cli(
            ["rudin-shapiro", "--config", str(config), "--m", "4", "--out", "out"],
            tmp_path,
        )
        assert result.returncode == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["m_max"] == 4  # flag wins
        assert report["config"]["samples"] == 512  # file survives

    def test_norm_accepts_signal_file(self, tmp_path):
        grid = Grid(1024, 16.0 * math.pi)
        f = SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / 2.0))
        save_signal(tmp_path / "sig.csv", f)
        result = run_cli(
            ["norm", "--signal", "sig.csv", "--space", "fourier_segal", "--p", "2", "--out", "out"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = math.pi**0.25 + 2.0 * math.pi
        assert abs(report["extras"]["value"] - expected) <= 1e-6 * expected

    def test_invalid_input_exits_one(self, tmp_path):
        result = run_cli(["norm", "--signal", "missing.csv", "--out", "out"], tmp_path)
        assert result.returncode == 1
        assert "error" in result.stderr.lower()

    def test_exhausted_search_exits_one(self, tmp_path, capsys):
        # n = 512 leaves the local composition too few dilations to converge.
        assert main(["reciprocal", "--n", "512", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: composition at x0")

    def test_assertion_failure_exits_two(self, tmp_path):
        # an impossible grid for the partition: L not a multiple of pi
        result = run_cli(["bupu-check", "--L", "40", "--out", "out"], tmp_path)
        assert result.returncode == 1  # rejected input with guidance
        assert "m * pi" in result.stderr

    def test_stft_matrix_dump(self, tmp_path):
        result = run_cli(
            ["stft", "--n", "512", "--L", "20", "--dump-matrix", "mat.csv", "--out", "out"],
            tmp_path,
        )
        assert result.returncode == 0
        data = np.loadtxt(tmp_path / "mat.csv", delimiter=",")
        assert data.shape == (512, 512)
        assert abs(data.max() - math.sqrt(math.pi)) <= 1e-6


class TestDeterminism:
    def test_single_experiment_reports_byte_identical(self, tmp_path):
        for out in ("a", "b"):
            result = run_cli(
                ["translation-bound", "--n", "1024", "--seed", "0", "--out", out], tmp_path
            )
            assert result.returncode == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
