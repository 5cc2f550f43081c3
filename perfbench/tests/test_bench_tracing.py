"""Span arithmetic and the rebinding done by the traced pass."""

import math

import numpy as np
import numpy.fft
import pytest

import tfnorms.cli
import tfnorms.compose
import tfnorms.grid
import tfnorms.norms
from tfnorms.grid import Grid, SampledSignal
import tracing
from tracing import ENTRIES, Recorder, layer_metrics, self_times


def span(name, layer, start, end, parent=-1, attrs=None):
    return [name, layer, start, end, parent, 0, attrs]


class TestSelfTime:
    def test_children_union_is_subtracted(self):
        spans = [
            span("norms.modulation_norm", "norms", 0.0, 10.0),
            span("grid.fourier_forward", "grid", 1.0, 3.0, parent=0),
            span("grid.fourier_inverse", "grid", 2.0, 5.0, parent=0),  # overlaps the first
            span("grid.weighted_lp_norm", "grid", 8.0, 12.0, parent=0),  # clipped at 10
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 4.0])

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            span("cli.main", "cli", 0.0, 6.0),
            span("grid.fourier_forward", "grid", 1.0, 5.0, parent=0),
            span("fft", "fft", 2.0, 4.0, parent=1),
        ]
        m = layer_metrics(spans)
        assert m["cli.self_s"] == pytest.approx(2.0)
        assert m["grid.self_s"] == pytest.approx(2.0)
        assert m["fft.self_s"] == pytest.approx(2.0)
        assert (m["grid.calls"], m["fft.calls"]) == (1, 1)

    def test_counts_from_attributes(self):
        spans = [
            span("stft", "entry", 0.0, 9.0),
            span("norms.modulation_norm", "norms", 0.0, 2.0, 0, {"p": 2.0, "scanned": 10, "nonzero": 4}),
            span("norms.modulation_norm", "norms", 2.0, 5.0, 0, {"p": 1.0, "scanned": 10, "nonzero": 1}),
            span("compose.local_compose", "compose", 5.0, 6.0, 0),
            span("compose.local_compose", "compose", 6.0, 7.0, 0, {"error": "ToleranceNotReachedError"}),
        ] + [span("compose.dilation_difference_norm", "compose", 7.0, 7.5, 0) for _ in range(4)]
        m = layer_metrics(spans)
        assert m["norms.modulation_p2_s"] == pytest.approx(2.0)
        assert m["norms.modulation_lp_s"] == pytest.approx(3.0)
        assert (m["norms.blocks_scanned"], m["norms.blocks_nonzero"]) == (20, 5)
        assert m["norms.block_yield"] == pytest.approx(0.25)
        assert m["compose.dilation_yield"] == pytest.approx(0.25)
        assert m["experiments.stft.s"] == pytest.approx(9.0)
        assert m["experiments.moyal.s"] == 0.0

    def test_empty_trace_gives_every_metric(self):
        m = layer_metrics([])
        assert all(f"experiments.{entry}.s" in m for entry in ENTRIES)
        assert all(value == 0 for value in m.values())


def small_signal():
    grid = Grid(256, 4.0 * math.pi)
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2)))


class TestRebinding:
    def test_name_imported_into_another_module_is_traced(self):
        original = tfnorms.norms.fourier_forward
        fft = numpy.fft.fft
        registry = dict(tfnorms.cli.EXPERIMENTS)
        f = small_signal()
        part = tfnorms.norms.partition_for(f.grid)
        recorder = Recorder()
        recorder.install()
        try:
            assert tfnorms.norms.fourier_forward is not original
            assert tfnorms.norms.fourier_forward.__wrapped__ is original
            assert tfnorms.cli.EXPERIMENTS["moyal"][0].__wrapped__ is registry["moyal"][0]
            tfnorms.norms.modulation_norm(f, 1.5, 1.0, 0.0, part)
        finally:
            recorder.uninstall()
        assert tfnorms.norms.fourier_forward is original
        assert tfnorms.cli.EXPERIMENTS == registry
        assert numpy.fft.fft is fft

        names = [s[0] for s in recorder.spans]
        forward = names.index("grid.fourier_forward")
        assert recorder.spans[forward][4] == names.index("norms.modulation_norm")
        m = layer_metrics(recorder.spans)
        assert m["norms.modulation_calls"] == 1
        assert m["norms.blocks_scanned"] == 2 * part.max_block_index + 1
        assert m["fft.calls"] >= 2  # the forward transform and the batched inverses
        assert m["fft.points"] >= 2 * f.grid.n
        assert recorder.absent == []

    def test_missing_name_is_reported_absent(self, monkeypatch):
        monkeypatch.delattr(tfnorms.compose, "resample_progression")
        recorder = Recorder()
        recorder.install()
        recorder.uninstall()
        assert recorder.absent == ["resample_progression"]
        assert layer_metrics(recorder.spans)["compose.czt_calls"] == 0

    def test_hook_failure_does_not_break_the_call(self, monkeypatch):
        monkeypatch.setitem(tracing.HOOKS, "modulation_norm", lambda *args: 1 / 0)
        f = small_signal()
        part = tfnorms.norms.partition_for(f.grid)
        recorder = Recorder()
        recorder.install()
        try:
            value = tfnorms.norms.modulation_norm(f, 2.0, 1.0, 0.0, part).value
        finally:
            recorder.uninstall()
        assert value == tfnorms.norms.modulation_norm(f, 2.0, 1.0, 0.0, part).value
        hooked = [s for s in recorder.spans if s[0] == "norms.modulation_norm"]
        assert "ZeroDivisionError" in hooked[0][6]["hook_error"]
