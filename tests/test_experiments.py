"""Experiment-level checks, on light configurations where that is sound."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from tfnorms import experiments
from tfnorms.grid import NormSpec
from tfnorms.experiments import (
    PARTITION_L,
    algebra_sweep,
    approx_unit_experiment,
    bupu_experiment,
    counterexample_l2,
    embedding_sweep,
    flat_measurement,
    measured_algebra_constant,
    plateau_experiment,
    rudin_shapiro_experiment,
    stft_experiment,
    translation_bound_experiment,
    _series_partial,
)


class TestSeriesSums:
    def test_direct_matches_euler_maclaurin(self):
        # same partial sum computed directly and via the closed-form segment
        for kind in ("mod", "beurling", "l2"):
            direct = _series_partial(kind, 3, 2 * 10**6, direct_limit=2 * 10**6)
            hybrid = _series_partial(kind, 3, 2 * 10**6, direct_limit=10**5)
            assert direct == pytest.approx(hybrid, rel=1e-10)

    def test_segment_order(self):
        # ascending-k partial sums are reproducible bit for bit
        a = _series_partial("mod", 3, 10**5)
        b = _series_partial("mod", 3, 10**5)
        assert a == b


class TestCounterexampleL2:
    def test_default_assertions(self):
        report = counterexample_l2()
        assert report.all_passed
        increments = [a for a in report.assertions if a.name.startswith("squaring")]
        assert len(increments) == 2
        target = math.sqrt(2.0) * math.log(2.0)
        for a in increments:
            assert abs(a.measured - target) <= 0.1 * target

    def test_l2_sums_converge_below_1e6(self):
        report = counterexample_l2()
        l2_sums = [row["l2_sum"] for row in report.rows]
        assert l2_sums[-1] - l2_sums[-2] < 1e-6

    def test_k0_independence_of_increments(self):
        # divergence rate does not depend on where the sum starts
        r3 = counterexample_l2(k0=3)
        r11 = counterexample_l2(k0=11)
        for a3, a11 in zip(r3.assertions, r11.assertions):
            if a3.name.startswith("squaring"):
                assert a3.measured == pytest.approx(a11.measured, abs=5e-3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            counterexample_l2(k0=2)
        with pytest.raises(ValueError):
            counterexample_l2(checkpoints=(100, 100))


class TestCounterexampleFlat:
    def test_single_measurement_chain(self):
        run = flat_measurement(1.0, 3, 3)
        # B and C from the measured quantities
        assert run["fhat_l1"] <= run["nu_hat_sup"] * run["phi_l1"] * (1 + 1e-12)
        assert run["f_lp"] <= run["nu_hat_sup"] * run["invphi_lp"] * (1 + 1e-12)
        assert run["modulation_norm"] >= run["invphi_lp"] / 4.0

    def test_block_norm_is_translation_count_invariant(self):
        # the block-sum norm is essentially independent of the depth m
        a = flat_measurement(1.0, 2, 3)
        b = flat_measurement(1.0, 4, 3)
        assert a["modulation_norm"] == pytest.approx(b["modulation_norm"], rel=1e-3)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            flat_measurement(2.0, 3, 3)

    def test_peak_memory_stays_under_four_complex_arrays(self, monkeypatch):
        # Budgets shrunk as for the n = 2^21-2^22 runs, relative to n = 2^19,
        # and one CPU, so that no concurrent span temporaries count.
        monkeypatch.setattr("tfnorms.norms._BATCH_LIMIT", 1 << 16)
        monkeypatch.setattr("tfnorms.measures._RS_POOL_MIN", 1 << 16)
        monkeypatch.setattr(importlib.import_module("tfnorms.grid"), "_cpu_count", lambda: 1)
        tracemalloc.start()
        try:
            run = flat_measurement(1.5, 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run["n"] == 1 << 19
        assert peak <= 4 * 16 * run["n"]


class TestAlgebraConstantCache:
    def test_repeated_call_reuses_the_constant(self, monkeypatch):
        calls = []
        original = experiments.algebra_constant

        def counted(*args):
            calls.append(args)
            return original(*args)

        experiments._cached_algebra_constant.cache_clear()
        monkeypatch.setattr(experiments, "algebra_constant", counted)
        spec = NormSpec.modulation(2.0, 1.0, 0.0)
        try:
            first = measured_algebra_constant(spec, 512, PARTITION_L, 0, 4)
            assert measured_algebra_constant(spec, 512, PARTITION_L, 0, 4) == first
            assert len(calls) == 1
            measured_algebra_constant(spec, 512, PARTITION_L, 1, 4)
            assert len(calls) == 2
        finally:
            experiments._cached_algebra_constant.cache_clear()


class TestLightReports:
    def test_stft_report(self):
        report = stft_experiment(n=1024, L=25.0)
        assert report.all_passed

    def test_rudin_report(self):
        report = rudin_shapiro_experiment(m_max=8)
        assert report.all_passed
        assert len(report.rows) == 9

    def test_plateau_report(self):
        assert plateau_experiment().all_passed

    def test_translation_report(self):
        assert translation_bound_experiment(n=2048).all_passed

    def test_bupu_report(self):
        assert bupu_experiment().all_passed

    def test_approx_unit_report(self):
        report = approx_unit_experiment(n=2048, halvings=5)
        assert report.all_passed
        residuals = [row["residual"] for row in report.rows]
        assert residuals[-1] < residuals[0]

    def test_embedding_report(self):
        report = embedding_sweep(n=1024)
        assert report.all_passed
        names = {row["pair"] for row in report.rows}
        assert "M(1,1,1)->M(2,1,0)" in names

    def test_algebra_report_exports_constant(self):
        report = algebra_sweep(n=1024, count=12)
        assert report.all_passed
        assert report.rows[0]["c_hat"] > 0
        # homogeneity: constants do not move when the corpus is rescaled
        # (covered structurally: ratios are scale-free by construction)
