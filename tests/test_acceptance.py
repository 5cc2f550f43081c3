"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s or in the captured
output); the suite is the exit gate for the package.
"""

import math
import time

import numpy as np
import pytest


from tfnorms.experiments import (
    approx_unit_experiment,
    bupu_experiment,
    compose_experiment,
    counterexample_flat,
    counterexample_l2,
    moyal_experiment,
    reciprocal_experiment,
    rudin_shapiro_experiment,
    translation_bound_experiment,
)
from tfnorms.grid import (
    Grid,
    SampledSignal,
    convolve,
    fourier_forward,
    fourier_inverse,
    inner_product,
    weighted_lp_norm,
)


def _line(number: int, passed: bool, text: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {text}")
    assert passed, text


def _require(report, number: int, text: str) -> None:
    for a in report.assertions:
        if not a.passed:
            _line(number, False, f"{text} ({a.name}: {a.measured:.6g} vs {a.tolerance:.6g})")
    _line(number, True, text)


@pytest.fixture(scope="module")
def moyal_report():
    start = time.perf_counter()
    report = moyal_experiment(n=2048, L=30.0, seed=0)
    report.extras["elapsed"] = time.perf_counter() - start
    return report


class TestAcceptance:
    def test_criterion_01_fourier_core(self):
        start = time.perf_counter()
        grid = Grid(4096, 40.0)
        rng = np.random.default_rng(0)
        xi = grid.frequencies()
        envelope = np.exp(-((xi / (0.4 * grid.nyquist)) ** 2) * 8.0) * (
            np.abs(xi) < 0.8 * grid.nyquist
        )
        worst_round = worst_parseval = worst_conv = 0.0
        for seed in range(3):
            r = np.random.default_rng(seed)
            f = fourier_inverse(SampledSignal(grid.dual(), envelope * (
                r.standard_normal(grid.n) + 1j * r.standard_normal(grid.n))))
            g = fourier_inverse(SampledSignal(grid.dual(), envelope * (
                r.standard_normal(grid.n) + 1j * r.standard_normal(grid.n))))

            back = fourier_inverse(fourier_forward(f))
            worst_round = max(worst_round, float(
                np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples))))

            lhs = inner_product(f, g)
            rhs = inner_product(fourier_forward(f), fourier_forward(g)) / (2 * math.pi)
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / (
                weighted_lp_norm(f, 2.0) * weighted_lp_norm(g, 2.0)))

            conv_hat = fourier_forward(convolve(f, g)).samples
            product = fourier_forward(f).samples * fourier_forward(g).samples
            worst_conv = max(worst_conv, float(
                np.max(np.abs(conv_hat - product))
                / (np.max(np.abs(fourier_forward(f).samples))
                   * np.max(np.abs(fourier_forward(g).samples)))))
        elapsed = time.perf_counter() - start
        ok = worst_round <= 1e-10 and worst_parseval <= 1e-8 and worst_conv <= 1e-8 and elapsed < 5.0
        _line(1, ok, f"fourier core: roundtrip {worst_round:.2e} <= 1e-10, "
                     f"parseval {worst_parseval:.2e} <= 1e-8, convolution {worst_conv:.2e} <= 1e-8, "
                     f"{elapsed:.2f}s < 5s")

    def test_criterion_02_moyal(self, moyal_report):
        worst = max(a.measured for a in moyal_report.assertions if a.name == "moyal_max_residual")
        elapsed = moyal_report.extras["elapsed"]
        ok = worst <= 1e-6 and elapsed < 60.0
        _line(2, ok, f"moyal residual over corpus pairs {worst:.2e} <= 1e-6, {elapsed:.1f}s < 60s")

    def test_criterion_03_l2_identity_ratio(self, moyal_report):
        err = next(a for a in moyal_report.assertions if a.name == "l2_identity_ratio_error")
        spread = next(a for a in moyal_report.assertions if a.name == "l2_identity_ratio_spread")
        ok = err.passed and spread.passed
        _line(3, ok, f"ratio = sqrt(2 pi) ||phi||_2 within {err.measured:.2e} (<= 1e-6), "
                     f"spread {spread.measured:.2e} <= 1e-6")

    def test_criterion_04_partition(self):
        report = bupu_experiment(n=4096, seed=0)
        _require(report, 4, "partition sum = 1 within 1e-12 and reconstruction within 1e-8")

    def test_criterion_05_rudin_shapiro(self):
        start = time.perf_counter()
        report = rudin_shapiro_experiment(m_max=12, samples=4096)
        elapsed = time.perf_counter() - start
        identity = next(a for a in report.assertions if a.name == "identity_max_relative_error")
        flat = next(a for a in report.assertions if a.name == "tv_flatness_sup")
        ok = report.all_passed and elapsed < 5.0
        _line(5, ok, f"|mu^|^2+|nu^|^2 identity {identity.measured:.2e} <= 1e-12 for m <= 12, "
                     f"tv flatness {flat.measured:.4g} <= 2^(-4.5) = {flat.tolerance:.4g}, "
                     f"{elapsed:.2f}s < 5s")

    def test_criterion_06_flat_counterexample(self):
        start = time.perf_counter()
        reports = [counterexample_flat(p=1.0, seed=0), counterexample_flat(p=1.5, seed=0)]
        elapsed = time.perf_counter() - start
        ok = all(r.all_passed for r in reports) and elapsed < 120.0
        growths = [r.extras["ratio_growth"] for r in reports]
        _line(6, ok, f"flat train: inequalities hold, ratio growth "
                     f"{growths[0]:.3f} and {growths[1]:.3f} >= 1.6 at p in (1, 1.5), "
                     f"{elapsed:.1f}s < 120s")

    def test_criterion_07_l2_counterexample(self):
        start = time.perf_counter()
        report = counterexample_l2(k0=3, checkpoints=(10**3, 10**6, 10**12))
        elapsed = time.perf_counter() - start
        increments = [a for a in report.assertions if a.name.startswith("squaring")]
        l2_sums = [row["l2_sum"] for row in report.rows]
        literal_l2 = l2_sums[-1] - l2_sums[-2] < 1e-6
        ok = report.all_passed and len(increments) == 2 and literal_l2 and elapsed < 10.0
        _line(7, ok, f"block sums gain {increments[0].measured:.4f}, {increments[1].measured:.4f} "
                     f"per squaring (target 0.9803 +- 10%), transform-side sums converge, "
                     f"{elapsed:.2f}s < 10s")

    def test_criterion_08_wiener_levy(self):
        recip = reciprocal_experiment(n=8192, seed=0)
        comp = compose_experiment(function="square", n=8192, seed=0)
        sup = next(a for a in recip.assertions if a.name == "reciprocal_sup_residual")
        drift = next(a for a in recip.assertions if a.name == "norm_refinement_drift")
        square = next(a for a in comp.assertions if a.name == "composition_sup_error")
        ok = recip.all_passed and comp.all_passed
        _line(8, ok, f"reciprocal of 2+sin on [-5,5]: sup|fg-1| = {sup.measured:.2e} <= 1e-6, "
                     f"norm drift {drift.measured:.2e} <= 5%; square composition "
                     f"{square.measured:.2e} <= 1e-7")

    def test_criterion_09_approximate_units(self):
        report = approx_unit_experiment(signal="gaussian-unit", p=1.0, q=1.0, s=0.5, seed=0)
        final = next(a for a in report.assertions if a.name == "final_residual_relative")
        _require(report, 9, f"residuals decrease (5% slack) and final "
                            f"{final.measured:.2e} < 1e-3 of the signal norm")

    def test_criterion_10_translation_bound(self):
        report = translation_bound_experiment(n=4096, seed=0)
        fitted = report.extras["fitted_constant"]
        _require(report, 10, f"C = {fitted:.3f} fitted on half the sweep, "
                             "no violation on the held-out half")

    def test_criterion_11_determinism(self, all_seed0):
        # Two runs with --jobs 2 and one with --jobs 1: every report.json must
        # match byte for byte, so reports depend on neither repetition nor
        # concurrency.  The serial run, all in one process, also tells
        # whether any run loaded a scipy module; none needs one.  The
        # directories come from conftest's all_seed0, which test_golden.py
        # compares with the committed reports.
        runs, scipy_loaded = all_seed0
        codes = [code for _, code in runs.values()]
        first = runs["run1"][0]
        reports = sorted(path.relative_to(first) for path in first.rglob("report.json"))
        identical = len(reports) == 16 and all(
            (out / rel).read_bytes() == (first / rel).read_bytes()
            for out, _ in runs.values()
            for rel in reports
        )
        ok = codes == [0, 0, 0] and identical and scipy_loaded == "False"
        _line(11, ok, "`all --seed 0` with --jobs 2 twice and --jobs 1 produces byte-identical "
                      f"report.json files ({len(reports)} compared, exit codes {codes}); "
                      f"scipy loaded: {scipy_loaded}")
