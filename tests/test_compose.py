"""Power series, local/global composition, and window searches."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tfnorms.compose import (
    _dilated_window_samples,
    dilation_difference_norm,
    global_compose,
    glue_local,
    local_compose,
    named_series,
    pointwise_oracle,
    reciprocal_on_compact,
    resample_progression,
    series_expm1,
    series_identity,
    series_mobius,
    series_reciprocal,
    series_square,
)
from tfnorms.errors import CostGateError, CoverError, ToleranceNotReachedError
from tfnorms.grid import Grid, NormSpec, SampledSignal, fourier_forward
from tfnorms.norms import norm_value, partition_for
from tfnorms.partition import bump_profile
from tfnorms.windows import plateau_window

GRID = Grid(8192, 16.0 * math.pi)
PART = partition_for(GRID)
SPEC = NormSpec.modulation(2.0, 1.0, 0.0)


def gaussian(grid=GRID, width=1.0):
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


def base_cutoff(grid=GRID):
    return SampledSignal(grid, bump_profile(grid.points(), 1.0, 2.0).astype(complex))


class TestPowerSeries:
    def test_reciprocal_evaluates(self):
        s = series_reciprocal(2.0)
        z = np.array([1.5, 2.0, 2.8], dtype=complex)
        vals = s.evaluate(z, 200)
        assert np.max(np.abs(vals - 1.0 / z)) <= 1e-12

    def test_tail_bound_controls_truncation(self):
        s = series_reciprocal(2.0)
        w = 0.5
        terms = s.choose_truncation(w, 1e-8)
        assert s.tail_bound(w, terms) < 1e-8
        # the bound really dominates the dropped tail
        z = 2.0 + w
        exact = 1.0 / z
        truncated = s.evaluate(np.array([z]), terms)[0]
        assert abs(truncated - exact) <= s.tail_bound(w, terms)

    def test_polynomial_tail_is_zero(self):
        s = series_square(1.0)
        assert s.tail_bound(10.0, 2) == 0.0
        assert s.choose_truncation(3.0) <= 2

    def test_radius_guard(self):
        s = series_reciprocal(1.0)
        with pytest.raises(ToleranceNotReachedError):
            s.choose_truncation(1.5)

    def test_recenter_matches_function(self):
        s = series_mobius(0.0)
        moved = s.recenter(0.5)
        z = np.array([0.3, 0.5, 0.9], dtype=complex)
        vals = moved.evaluate(z, 120)
        oracle = pointwise_oracle("mobius")(z)
        assert np.max(np.abs(vals - oracle)) <= 1e-12
        # conservative recentered radius: original minus the shift
        assert moved.radius == pytest.approx(4.0 - 0.5)

    def test_expm1(self):
        s = series_expm1(0.0)
        z = np.array([0.1, -0.4, 1.2], dtype=complex)
        assert np.max(np.abs(s.evaluate(z, 60) - np.expm1(z))) <= 1e-12

    def test_named_registry(self):
        assert named_series("square", 2.0).constant == 4.0
        with pytest.raises(ValueError):
            named_series("tangent")


class TestResample:
    def test_progression_matches_closed_form(self):
        f = gaussian()
        vals = resample_progression(f, -1.0, 0.0123, 300)
        x = -1.0 + 0.0123 * np.arange(300)
        assert np.max(np.abs(vals - np.exp(-(x**2) / 2.0))) <= 1e-8


class TestRefinedGrid:
    """Dyadic dilations read off the refined grid of upsample."""

    # resample_progression is itself off by up to ~4e-10 on this grid; its
    # chirp-z error grows with n.
    COARSE = Grid(4096, 16.0 * math.pi)
    COARSE_BASE = plateau_window(0.0, 1.0, COARSE)
    BASE = plateau_window(0.0, 1.0, GRID)

    @pytest.mark.parametrize("lam", [2.0**k for k in range(1, 7)] + [0.5**k for k in range(1, 7)])
    @pytest.mark.parametrize("offset", [0, 300])
    def test_window_matches_resample_progression(self, lam, offset):
        grid, base = self.COARSE, self.COARSE_BASE
        x = grid.points()
        x0 = x[grid.n // 2 + offset]
        window = _dilated_window_samples(base, grid, x0, lam, base.support_radius)
        arg = lam * (x - x0)
        expected = resample_progression(base.window, arg[0], lam * grid.dx, grid.n).real
        # arguments outside [-L, L) would see the periodic extension
        expected[np.abs(arg) >= grid.half_width] = 0.0
        assert np.max(np.abs(window - expected)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.5**6, 0.5, 4.0])
    @pytest.mark.parametrize("offset", [0, 300])
    def test_window_matches_direct_interpolant_sum(self, lam, offset):
        # The reference sums the trigonometric interpolant
        # (dxi / 2 pi) sum_k Ff(xi_k) exp(i x xi_k) term by term, which is
        # exact to rounding on the n = 8192 grid, where chirp-z is not.  It
        # runs on every 7th argument inside [-L, L) (outside, the periodic
        # extension would be seen) to keep the O(n count) sum short.
        base = self.BASE
        x = GRID.points()
        x0 = x[GRID.n // 2 + offset]
        window = _dilated_window_samples(base, GRID, x0, lam, base.support_radius)
        arg = lam * (x - x0)
        near = np.flatnonzero(np.abs(arg) < GRID.half_width)[::7]
        spectrum = fourier_forward(base.window).samples
        xi = GRID.frequencies()
        direct = np.empty(near.size, dtype=complex)
        for lo in range(0, near.size, 256):
            direct[lo : lo + 256] = np.exp(1j * np.outer(arg[near[lo : lo + 256]], xi)) @ spectrum
        expected = np.clip((GRID.dxi / (2.0 * math.pi)) * direct.real, 0.0, None)
        assert np.max(np.abs(window[near] - expected)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gaussian_compression_matches_closed_form(self, k):
        # resample_progression is off by 3e-10 to 1e-9 here
        base = SimpleNamespace(center=0.0, window=gaussian())
        lam = 0.5**k
        for x0 in (0.0, GRID.points()[GRID.n // 2 + 300]):
            window = _dilated_window_samples(base, GRID, x0, lam, 10.0)
            exact = np.exp(-((lam * (GRID.points() - x0)) ** 2) / 2.0)
            assert np.max(np.abs(window - exact)) <= 1e-12

    def test_unaligned_center_rejected(self):
        x0 = 0.5 * GRID.dx
        with pytest.raises(ValueError, match="not a grid point"):
            _dilated_window_samples(self.BASE, GRID, x0, 2.0, self.BASE.support_radius)
        with pytest.raises(ValueError, match="not a grid point"):
            dilation_difference_norm(gaussian(), x0, base_cutoff(), 2.0, SPEC, PART)

    def test_non_dyadic_dilation_rejected(self):
        with pytest.raises(ValueError, match="reciprocal"):
            _dilated_window_samples(self.BASE, GRID, 0.0, 0.3, self.BASE.support_radius)
        with pytest.raises(ValueError, match="reciprocal"):
            dilation_difference_norm(gaussian(), 0.0, base_cutoff(), 0.3, SPEC, PART)

    def test_refined_grid_gate(self):
        # 8192 * 1024 = 2^23 samples, past the 2^22-sample gate
        with pytest.raises(CostGateError):
            _dilated_window_samples(self.BASE, GRID, 0.0, 1.0 / 1024, self.BASE.support_radius)
        with pytest.raises(CostGateError):
            dilation_difference_norm(gaussian(), 0.0, base_cutoff(), 1024.0, SPEC, PART)


class TestDilationDifference:
    def test_constant_signal_is_zero(self):
        f = SampledSignal(GRID, np.full(GRID.n, 1.5 + 0.0j))
        assert dilation_difference_norm(f, 0.0, base_cutoff(), 4.0, SPEC, PART) == 0.0

    def test_gaussian_sweep_decreases(self):
        f = gaussian()
        values = [
            dilation_difference_norm(f, 0.0, base_cutoff(), float(lam), SPEC, PART)
            for lam in (1, 2, 4, 8, 16, 32, 64)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a * 1.05
        assert values[-1] < values[0] / 100.0

    def test_linear_rate(self):
        # f equals x near the origin: the norm halves per doubling.
        plateau = bump_profile(GRID.points(), 4.0, 8.0)
        f = SampledSignal(GRID, GRID.points() * plateau + 0.0j)
        values = [
            dilation_difference_norm(f, 0.0, base_cutoff(), float(lam), SPEC, PART)
            for lam in (2, 4, 8, 16)
        ]
        for a, b in zip(values, values[1:]):
            assert b / a == pytest.approx(0.5, rel=0.10)

    def test_domain_guard(self):
        f = gaussian()
        with pytest.raises(ValueError, match="domain"):
            dilation_difference_norm(f, GRID.half_width - 1.0, base_cutoff(), 0.01, SPEC, PART)


class TestLocalCompose:
    def test_identity_series(self):
        f = gaussian()
        idx = int(round((0.25 + GRID.half_width) / GRID.dx))
        patch = local_compose(f, 0.25, series_identity(f.samples[idx]), SPEC, 1.0, PART)
        x = GRID.points()
        plateau = np.abs(x - patch.center) <= patch.plateau_radius
        err = np.max(np.abs(patch.values.samples[plateau] - f.samples[plateau]))
        assert err <= 1e-10

    def test_square_series(self):
        f = gaussian()
        idx = GRID.n // 2
        patch = local_compose(f, 0.0, series_square(f.samples[idx]), SPEC, 1.0, PART)
        x = GRID.points()
        plateau = np.abs(x - patch.center) <= patch.plateau_radius
        err = np.max(np.abs(patch.values.samples[plateau] - f.samples[plateau] ** 2))
        assert err <= 1e-8

    def test_reciprocal_series(self):
        f = SampledSignal(GRID, (2.0 + np.sin(GRID.points())).astype(complex))
        idx = GRID.n // 2 + 57
        x0 = float(GRID.points()[idx])
        patch = local_compose(f, x0, series_reciprocal(complex(f.samples[idx])), SPEC, 1.0, PART)
        x = GRID.points()
        plateau = np.abs(x - patch.center) <= patch.plateau_radius
        residual = np.max(np.abs(f.samples[plateau] * patch.values.samples[plateau] - 1.0))
        assert residual <= 1e-6

    def test_center_mismatch_rejected(self):
        f = gaussian()
        with pytest.raises(ValueError, match="centered"):
            local_compose(f, 0.0, series_square(0.123), SPEC, 1.0, PART)


class TestGlue:
    def test_single_patch_covers(self):
        f = gaussian()
        patch = local_compose(f, 0.0, series_square(f.samples[GRID.n // 2]), SPEC, 1.0, PART)
        rho = patch.glue_radius
        glued = glue_local((-rho / 2.0, rho / 2.0), [patch])
        x = GRID.points()
        inside = np.abs(x) <= rho / 2.0
        assert np.max(np.abs(glued.values.samples[inside] - patch.values.samples[inside])) == 0.0

    def test_two_overlapping_patches_square(self):
        f = gaussian()
        idx = GRID.n // 2
        p1 = local_compose(f, 0.0, series_square(f.samples[idx]), SPEC, 1.0, PART)
        x1 = p1.center + p1.glue_radius
        idx1 = int(round((x1 + GRID.half_width) / GRID.dx))
        p2 = local_compose(f, x1, series_square(f.samples[idx1]), SPEC, 1.0, PART)
        interval = (0.0, p2.center + p2.glue_radius)
        glued = glue_local(interval, [p1, p2])
        x = GRID.points()
        inside = (x >= interval[0]) & (x <= interval[1])
        err = np.max(np.abs(glued.values.samples[inside] - f.samples[inside] ** 2))
        assert err <= 1e-8
        assert glued.partition_defect <= 1e-10

    def test_cover_gap_detected(self):
        f = gaussian()
        patch = local_compose(f, 0.0, series_square(f.samples[GRID.n // 2]), SPEC, 1.0, PART)
        with pytest.raises(CoverError):
            glue_local((-10.0, 10.0), [patch])


class TestReciprocal:
    def test_constant_two(self):
        f = SampledSignal(GRID, np.full(GRID.n, 2.0 + 0.0j))
        g, glued, _ = reciprocal_on_compact(f, (-5.0, 5.0), SPEC, 1.0, PART)
        inside = np.abs(GRID.points()) <= 5.0
        assert np.max(np.abs(g.samples[inside] - 0.5)) <= 1e-10

    def test_two_plus_sine(self):
        f = SampledSignal(GRID, (2.0 + np.sin(GRID.points())).astype(complex))
        g, glued, _ = reciprocal_on_compact(f, (-5.0, 5.0), SPEC, 1.0, PART)
        inside = np.abs(GRID.points()) <= 5.0
        assert np.max(np.abs(f.samples[inside] * g.samples[inside] - 1.0)) <= 1e-6
        assert glued.partition_defect <= 1e-10

    def test_vanishing_rejected(self):
        f = SampledSignal(GRID, np.sin(GRID.points()).astype(complex))
        with pytest.raises(ValueError, match="vanishes"):
            reciprocal_on_compact(f, (-5.0, 5.0), SPEC, 1.0, PART)


class TestGlobalCompose:
    def test_square_on_gaussian(self):
        f = gaussian()
        g, diag, _ = global_compose(f, series_square(0.0), SPEC, 1.0, PART)
        assert np.max(np.abs(g.samples - f.samples**2)) <= 1e-7

    def test_identity(self):
        f = gaussian()
        g, _, _ = global_compose(f, series_identity(0.0), SPEC, 1.0, PART)
        assert np.max(np.abs(g.samples - f.samples)) <= 1e-9

    def test_mobius_on_gaussian(self):
        f = gaussian()
        g, _, _ = global_compose(f, series_mobius(0.0), SPEC, 1.0, PART)
        oracle = pointwise_oracle("mobius")(f.samples)
        assert np.max(np.abs(g.samples - oracle)) <= 1e-6

    def test_requires_vanishing_constant(self):
        f = gaussian()
        with pytest.raises(ValueError, match="F\\(0\\) = 0"):
            global_compose(f, series_reciprocal(1.0), SPEC, 1.0, PART)


class TestPointDitkin:
    BASE = plateau_window(0.0, 1.0, GRID)

    def test_constant_signal(self):
        f = SampledSignal(GRID, np.full(GRID.n, 3.0 + 0.0j))
        window, lam, residual = point_ditkin_window(
            f, 0.0, NormSpec.modulation(1.0, 1.0, 0.5), 1e-6, self.BASE, PART
        )
        assert residual == 0.0
        assert lam == 1.0

    def test_linear_slope_rate(self):
        plateau = bump_profile(GRID.points(), 4.0, 8.0)
        f = SampledSignal(GRID, GRID.points() * plateau + 0.0j)
        spec = NormSpec.modulation(math.inf, 1.0, 0.0)
        residuals = []
        for lam in (2.0, 4.0, 8.0, 16.0):
            window = _ditkin_window_at(f, lam, self.BASE)
            residuals.append(norm_value(SampledSignal(GRID, (f.samples - 0.0) * window), spec, PART))
        for a, b in zip(residuals, residuals[1:]):
            assert b / a == pytest.approx(0.5, rel=0.15)

    def test_gaussian_search_terminates(self):
        f = gaussian()
        spec = NormSpec.modulation(1.0, 1.0, 0.5)
        window, lam, residual = point_ditkin_window(f, 0.0, spec, 1e-3, self.BASE, PART)
        assert residual < 1e-3
        x = GRID.points()
        plateau = np.abs(x) <= self.BASE.inner_radius / lam
        assert np.max(np.abs(window.samples.real[plateau] - 1.0)) <= 1e-8


def _ditkin_window_at(f, lam, base):
    return _dilated_window_samples(base, f.grid, 0.0, lam, base.support_radius)


def point_ditkin_window(f, x0, spec, eps, base, part):
    """Double the dilation of a plateau window until ||(f - f(x0)) w|| < eps.

    x0 must be a grid point.  The dilated window w(x) = base(lam (x - x0))
    keeps the value 1 on a neighborhood of x0 of radius inner_radius / lam;
    returns (window, lam, residual).
    """
    grid = f.grid
    idx = int(np.argmin(np.abs(grid.points() - x0)))
    increment = f.samples - f.samples[idx]
    lam = 1.0
    for _ in range(24):
        window = _dilated_window_samples(base, grid, x0, lam, base.support_radius)
        residual = norm_value(SampledSignal(grid, increment * window), spec, part)
        if residual < eps:
            return SampledSignal(grid, window.astype(complex)), lam, residual
        lam *= 2.0
    raise ToleranceNotReachedError(f"residual never fell below {eps:.3g}")
