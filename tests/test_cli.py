"""Command-line interface: exit codes, report files, determinism."""

import argparse
import importlib
import json
import math
import subprocess
import sys


import numpy as np
import pytest

from tfnorms.cli import build_parser, main
from tfnorms.grid import Grid, SampledSignal, upsample
from tfnorms.reporting import dumps_canonical, load_signal, save_signal

CLI = [sys.executable, "-m", "tfnorms.cli"]


GRID_FLAGS = {"--n", "--L"}
FILE_FLAGS = {"--seed", "--out", "--config"}

# Every subcommand's flags, spelled out so that renaming a runner parameter
# cannot rename a flag unnoticed.
EXPECTED_FLAGS = {
    "stft": GRID_FLAGS | FILE_FLAGS | {"--dump-matrix"},
    "moyal": GRID_FLAGS | FILE_FLAGS,
    "norm": GRID_FLAGS | FILE_FLAGS | {"--signal", "--space", "--p", "--q", "--s"},
    "bupu-check": GRID_FLAGS | FILE_FLAGS,
    "rudin-shapiro": FILE_FLAGS | {"--m", "--samples"},
    "plateau": GRID_FLAGS | FILE_FLAGS,
    "translation-bound": GRID_FLAGS | FILE_FLAGS,
    "compose": GRID_FLAGS | FILE_FLAGS | {"--function", "--p", "--s"},
    "reciprocal": GRID_FLAGS | FILE_FLAGS | {"--interval", "--p", "--s"},
    "approx-unit": GRID_FLAGS | FILE_FLAGS | {"--signal", "--p", "--q", "--s", "--halvings"},
    "embedding-sweep": GRID_FLAGS | FILE_FLAGS,
    "algebra-sweep": GRID_FLAGS | FILE_FLAGS | {"--pairs"},
    "counterexample-flat": FILE_FLAGS | {"--p", "--m", "--r"},
    "counterexample-l2": FILE_FLAGS | {"--k0", "--checkpoints"},
    "all": GRID_FLAGS | {"--seed", "--out", "--jobs"},
}


def run_cli(args, cwd):
    return subprocess.run(
        CLI + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


class TestImportCost:
    def test_import_loads_only_the_library_layers(self, tmp_path):
        # Every run pays for `import tfnorms`: the span pool (grid) is
        # imported on first use, and the experiments and the CLI only when
        # asked for.
        code = "import sys, tfnorms; print(*sorted(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert [m for m in loaded if m.split(".")[0] == "tfnorms"] == [
            "tfnorms",
            *(f"tfnorms.{layer}" for layer in (
                "compose", "corpus", "errors", "grid", "measures",
                "norms", "partition", "stft", "windows",
            )),
        ]
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]
        assert "concurrent.futures" not in loaded

    def test_cli_import_loads_no_scipy(self, tmp_path):
        # scipy is imported only where a run needs it (the exponential
        # integral of counterexample-l2).
        code = "import sys, tfnorms.cli; print(*sorted(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert not [m for m in result.stdout.split() if m.split(".")[0] == "scipy"]


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
            ["norm", "--signal", "sig.csv", "--space", "fourier_segal", "--p", "2",
             "--n", "1024", "--L", repr(16.0 * math.pi), "--out", "out"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = math.pi**0.25 + 2.0 * math.pi
        assert abs(report["extras"]["value"] - expected) <= 1e-6 * expected
        assert (report["config"]["n"], report["config"]["L"]) == (1024, 16.0 * math.pi)

    def test_norm_rejects_signal_file_on_another_grid(self, tmp_path):
        # The config must name the grid that was measured, not a flag's value.
        grid = Grid(1024, 16.0 * math.pi)
        save_signal(tmp_path / "sig.csv", SampledSignal.from_function(grid, lambda x: np.exp(-(x**2))))
        result = run_cli(["norm", "--signal", "sig.csv", "--n", "8192", "--out", "out"], tmp_path)
        assert result.returncode == 1
        assert f"n=1024, L={16.0 * math.pi!r}" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_invalid_input_exits_one(self, tmp_path):
        result = run_cli(["norm", "--signal", "missing.csv", "--out", "out"], tmp_path)
        assert result.returncode == 1
        assert "error" in result.stderr.lower()

    def test_exhausted_search_exits_one(self, tmp_path, capsys):
        # n = 512 leaves the local composition too few dilations to converge.
        assert main(["reciprocal", "--n", "512", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: composition at x0")

    def test_refined_grid_gate_exits_one(self, tmp_path):
        # The 11th halving reads the n = 4096 window off a 2^23-point grid.
        result = run_cli(["approx-unit", "--halvings", "11", "--out", "out"], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error: dilation needs a 8388608-point refined grid")
        assert not (tmp_path / "out").exists()

    def test_refined_grid_gate_builds_no_grid(self, tmp_path, monkeypatch, capsys):
        # The gate is known before the loop: no refined grid is built first.
        compose = importlib.import_module("tfnorms.compose")
        calls = []

        def counted(*args):
            calls.append(args)
            return upsample(*args)

        monkeypatch.setattr(compose, "upsample", counted)
        out = tmp_path / "out"
        assert main(["approx-unit", "--halvings", "11", "--out", str(out)]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: dilation needs a 8388608-point refined grid")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--n", "1024"], ["--L", "30"]])
    def test_all_rejects_grid_flags(self, tmp_path, capsys, flag):
        # `all` runs each experiment on its own grid; a grid flag would be ignored.
        out = tmp_path / "out"
        assert main(["all", *flag, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: `all` runs every experiment")
        assert not out.exists()

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


class TestRegistry:
    def test_flags_are_runner_parameters(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert flags == EXPECTED_FLAGS

    def test_flag_the_runner_lacks_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["rudin-shapiro", "--n", "4096", "--out", str(out)])
        assert exit_.value.code == 2  # argparse usage error
        assert "unrecognized arguments: --n" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"m_max": 6, "bogus": 1}')
        out = tmp_path / "out"
        assert main(["rudin-shapiro", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'bogus'" in err
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["1,2,3", "1"])
    def test_interval_needs_two_values(self, tmp_path, capsys, interval):
        out = tmp_path / "out"
        assert main(["reciprocal", "--interval", interval, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: interval needs two end points")
        assert not out.exists()

    def test_all_takes_no_config(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            main(["all", "--config", str(tmp_path / "x.json"), "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["rudin-shapiro", "--m", "6", "--samples", "512"],
            ["counterexample-l2", "--checkpoints", "1e2,1e4,1e8"],
        ],
    )
    def test_report_config_feeds_back(self, tmp_path, args):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*args, "--out", str(first)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads((first / "report.json").read_text())["config"]))
        assert main([args[0], "--config", str(config), "--out", str(second)]) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
