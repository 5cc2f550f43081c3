"""Command-line interface: exit codes, report files, determinism."""

import argparse
import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfnorms
from tfnorms import cli, experiments
from tfnorms.cli import build_parser, main
from tfnorms.grid import Grid, SampledSignal
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

    def test_no_module_imports_scipy(self):
        # Also covers code that no run reaches, such as resample_progression.
        paths = sorted(Path(tfnorms.__file__).parent.glob("*.py"))
        assert "compose.py" in [path.name for path in paths]
        imported = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.append((path.name, node.module))
        assert [(name, m) for name, m in imported if m.split(".")[0] == "scipy"] == []


class TestOptimizedMode:
    def test_no_module_asserts(self):
        # python -O drops assert statements, so every check raises instead,
        # and the reports are the same under -O.
        paths = sorted(Path(tfnorms.__file__).parent.glob("*.py"))
        asserts = [
            (path.name, node.lineno)
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert asserts == []


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

    def test_column_count_mismatch_detected(self, tmp_path):
        # The sidecar's row count with a fourth column is still the wrong shape.
        path = tmp_path / "sig.csv"
        save_signal(path, SampledSignal.zero(Grid(256, 8.0)))
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header + ",extra", *(row + ",0" for row in rows)]) + "\n")
        with pytest.raises(ValueError, match=r"has shape \(256, 4\), expected \(256, 3\)"):
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
        # The gate is known before the loop: no refined sample is computed first.
        compose = importlib.import_module("tfnorms.compose")
        calls = []

        def counted(*args):
            calls.append(args)
            return refined_samples(*args)

        refined_samples = compose._refined_samples
        monkeypatch.setattr(compose, "_refined_samples", counted)
        out = tmp_path / "out"
        assert main(["approx-unit", "--halvings", "11", "--out", str(out)]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: dilation needs a 8388608-point refined grid")
        assert not out.exists()

    # Each runner's largest grid against the one size gate, 2^22 samples,
    # or the STFT's own, 4096.  The child may map 1 GiB, less than one array
    # of 2^28 samples, so a gate that fires after the first allocation fails
    # in a traceback.
    @pytest.mark.parametrize(
        "args, message",
        [
            *(([name, "--n", str(1 << 28)], "the STFT is gated at n <= 4096 (got n=268435456); "
               "use the frequency-block norm path for larger grids") for name in ("stft", "moyal")),
            *(([name, "--n", str(1 << 28)], f"{name} needs a 268435456-point grid, above the "
               "4194304-point gate") for name in (
                "norm", "bupu-check", "plateau", "translation-bound", "compose",
            )),
            *(([name, "--n", str(1 << 28)], f"{name} needs a 536870912-point refined grid, above "
               "the 4194304-point gate") for name in ("reciprocal", "embedding-sweep", "algebra-sweep")),
            (["rudin-shapiro", "--samples", str(10**9)], "rudin-shapiro needs a 1000000000-point "
             "frequency grid, above the 4194304-point gate"),
            # Below the one gate: the STFT's corpus and per-row Grams are not built either.
            (["moyal", "--n", str(1 << 22)], "the STFT is gated at n <= 4096 (got n=4194304); "
             "use the frequency-block norm path for larger grids"),
            # Depths refused by their bit count, before 2^depth is formed: 2^1023 - 1
            # overflowed a float, and the grid sizes of the other two were too long to print.
            (["counterexample-flat", "--r", "1023"], "flat counterexample at m=4, r=1023 needs a "
             "grid of at least 2^1023 points (r = 1023), above the 2^22-point gate"),
            (["counterexample-flat", "--m", "20000"], "flat counterexample at m=20000, r=4 needs a "
             "grid of at least 2^20000 points (m = 20000), above the 2^22-point gate"),
            (["approx-unit", "--halvings", "100000"], "dilation needs a refined grid of at least "
             "2^100000 points (halvings = 100000), above the 2^22-point gate"),
            # Not a grid: the pair count, refused before any pair is drawn.
            (["algebra-sweep", "--pairs", str(10**6 + 1)], "algebra-sweep asks for 1000001 pairs, "
             "above the 1000000-pair gate"),
        ],
    )
    def test_grid_above_the_gate_is_refused_before_it_is_built(self, tmp_path, args, message):
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from tfnorms.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *args, "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["approx-unit", "--halvings", "-1"], "halvings must be >= 0, got -1"),
            (["algebra-sweep", "--pairs", "0"], "need at least one pair, got 0"),
            (["counterexample-l2", "--checkpoints", "5"], "need at least two checkpoints, got 1"),
            (["counterexample-l2", "--checkpoints", "1,2"], "checkpoints must be at least k0 = 3, got 1"),
            (["reciprocal", "--interval", "5,-5"], "interval needs a < b, got (5, -5)"),
            (["reciprocal", "--interval", "100,200"], "interval (100, 200) holds no grid point"),
            (["rudin-shapiro", "--samples", "0"], "need at least one frequency sample, got 0"),
            (
                ["rudin-shapiro", "--m", "1030", "--samples", "1"],
                "depth m must be <= 1022, so that 2^(m+1) is a finite float, got 1030",
            ),
            (["counterexample-flat", "--r", "-1"], "depth r must be >= 0, got -1"),
            (["rudin-shapiro", "--m", "-1"], "depth m must be >= 0, got -1"),
            (
                ["counterexample-l2", "--checkpoints", "1e150,1e200"],
                "checkpoints must be at most 5.64e+102, so that k^3 is a finite float, got 1e+200",
            ),
        ],
    )
    def test_bad_input_exits_one_with_its_message(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["counterexample-l2", "--checkpoints", "1e400", "--out", str(out)])
        assert exit_.value.code == 2  # argparse usage error
        assert "invalid comma_separated value: '1e400'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, spec",
        [
            (["compose", "--p", "1e308"], "p=1e+308, q=1, s=0"),
            (["reciprocal", "--s", "1e308"], "p=2, q=1, s=1e+308"),
        ],
    )
    def test_overflowing_norm_is_refused_by_its_spec(self, tmp_path, args, spec):
        # The measured algebra constant's first norm overflows.  In a child
        # process, since this suite turns the overflow's RuntimeWarning into
        # an exception; the warning is printed before the error line.
        result = subprocess.run(
            [sys.executable, "-m", "tfnorms.cli", *args, "--n", "512", "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr.splitlines()[-1] == (
            f"error: the modulation norm ({spec}) of bump-8 is inf, not a finite number"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--n", "1024"], ["--L", "30"]])
    def test_all_rejects_grid_flags(self, tmp_path, capsys, flag):
        # `all` runs each experiment on its own grid; a grid flag would be ignored.
        out = tmp_path / "out"
        assert main(["all", *flag, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: `all` runs every experiment")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_all_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert main(["all", "--jobs", jobs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (15, 15), (10**6, 15)])
    def test_all_starts_no_more_workers_than_runs(self, tmp_path, monkeypatch, jobs, workers):
        # A pool that records its size and runs inline, and runs that write
        # nothing, so that no process starts whatever --jobs asks for.
        sizes, ran = [], []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def run(task):
            ran.append(task[0])
            return experiments.SweepReport(task[0], axis="none")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_run_to_dir", run)
        assert main(["all", "--jobs", str(jobs), "--out", str(tmp_path)]) == 0
        assert sizes == [workers]
        assert ran == [name for name, _ in cli.ALL_RUNS] and len(ran) == 15

    def test_assertion_failure_exits_two(self, tmp_path):
        # an impossible grid for the partition: L not a multiple of pi
        result = run_cli(["bupu-check", "--L", "40", "--out", "out"], tmp_path)
        assert result.returncode == 1  # rejected input with guidance
        assert "m * pi" in result.stderr

    # The blocks in use miss part of the edge bands next to the Nyquist
    # frequency, which on these coarser grids carry more of bump-2 than the
    # 1e-8 reconstruction tolerance (5.7e-5 and 2.1e-6).  The wrapped block
    # k = N closes the gap; these markers go when it lands.
    @pytest.mark.xfail(strict=True, reason="the edge bands miss the wrapped block k = N")
    @pytest.mark.parametrize("n", ["1024", "2048"])
    def test_bupu_check_passes_on_coarse_grids(self, tmp_path, n):
        assert main(["bupu-check", "--n", n, "--out", str(tmp_path / "out")]) == 0

    def test_flat_counterexample_passes_at_depth_two(self, tmp_path):
        args = ["counterexample-flat", "--p", "1", "--m", "2", "--r", "4"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0

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

    def test_null_config_value_keeps_the_default(self, tmp_path):
        # null is read as a key left out, not converted as the text "None".
        config = tmp_path / "config.json"
        config.write_text('{"m_max": null, "samples": 512}')
        args = argparse.Namespace(config=str(config))
        assert cli._collect_params("rudin-shapiro", args) == {"samples": 512}

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("bupu-check", '{"n": 4096.0}', "config key 'n': invalid literal for int()"),
            ("rudin-shapiro", '{"m_max": [3]}', "config key 'm_max' takes one value"),
            ("counterexample-l2", '{"checkpoints": 5}', "need at least two checkpoints"),
        ],
    )
    def test_config_value_of_wrong_type_is_an_input_error(
        self, tmp_path, capsys, command, config, message
    ):
        # Config values go through the flags' converters, as their text.
        path = tmp_path / "config.json"
        path.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
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

    def test_infinite_exponents_are_written_and_fed_back(self, tmp_path):
        # The report writer spells inf as "inf", and --config reads it back.
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["norm", "--p", "inf", "--q", "inf", "--out", str(first)]) == 0
        written = (first / "report.json").read_text()
        assert '"p":"inf","q":"inf"' in written.split('"config":', 1)[1].split("}", 1)[0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(written)["config"]))
        assert main(["norm", "--config", str(config), "--out", str(second)]) == 0
        assert (second / "report.json").read_bytes() == written.encode()
