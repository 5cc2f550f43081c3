"""Failure counting and the metric names the benchmark prints."""

import json
from pathlib import Path

import pytest

import tfnorms.cli
from run import check_pass, print_result, summary_line
from tfnorms.errors import ToleranceNotReachedError
from tracing import layer_metrics
from worker import WORKLOADS, run_pass

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

CHEAP = [
    ("rudin-shapiro", ["rudin-shapiro", "--m", "3", "--samples", "64"]),
    ("counterexample-l2", ["counterexample-l2"]),
]


def test_workloads_cover_every_run_of_all():
    entries = [entry for runs in WORKLOADS.values() for entry, _ in runs]
    assert len(entries) == len(set(entries)) == len(tfnorms.cli.ALL_RUNS)


def test_clean_pass_has_no_failures(tmp_path):
    entries = CHEAP
    reference = {}
    for label in ("a", "b"):
        result = run_pass(entries, 3, tmp_path / label)
        assert check_pass(result, tmp_path / label, entries, 3, reference) == []
    assert set(reference) == {"rudin-shapiro", "counterexample-l2"}


def test_injected_failures_are_counted(tmp_path, monkeypatch):
    def exhausted(**kwargs):
        raise ToleranceNotReachedError("budget exhausted")

    _, defaults, anchor = tfnorms.cli.EXPERIMENTS["rudin-shapiro"]
    monkeypatch.setitem(tfnorms.cli.EXPERIMENTS, "rudin-shapiro", (exhausted, defaults, anchor))
    entries = [CHEAP[0], ("counterexample-flat-p3", ["counterexample-flat", "--p", "3"]), CHEAP[1]]
    result = run_pass(entries, 0, tmp_path)
    failures = check_pass(result, tmp_path, entries, 0, {})
    assert [f.split(":")[0] for f in failures] == ["rudin-shapiro", "counterexample-flat-p3"]
    assert "ToleranceNotReachedError" in failures[0]
    assert "exit 1" in failures[1]  # ValueError ends in a clean exit code 1


def test_changed_report_bytes_are_counted(tmp_path):
    entries = [CHEAP[1]]
    result = run_pass(entries, 0, tmp_path)
    reference = {"counterexample-l2": b"other bytes"}
    failures = check_pass(result, tmp_path, entries, 0, reference)
    assert failures == ["counterexample-l2: report.json differs from the first pass"]


def test_crashed_worker_fails_every_invocation(tmp_path):
    failures = check_pass(None, tmp_path, CHEAP, 0, {})
    assert len(failures) == len(CHEAP)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(capsys, trace):
    per_layer = {**layer_metrics([]), "trace.overhead_s": 0.1, "trace.absent": 0,
                 "fail_ratio": 0.0}
    result = {
        "meta": {"workload": "time-frequency", "seed": 0, "trace": int(trace),
                 "samples": {"setup_s": 7, "wall_s": 2, "peak_rss_mb": 2}},
        "attempted": 4, "failed": 0, "failures": [], "errors": [],
        "end_to_end": {"setup_s": 0.2, "wall_s": 4.5, "peak_rss_mb": 980.0},
        "per_layer": per_layer if trace else None,
    }
    print_result(result)
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")]
    declared = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                for m in BENCHMARK[key]}
    assert set(printed) <= set(declared)

    line = summary_line(result, trace)
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
