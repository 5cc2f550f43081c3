"""Power series, local/global composition, and window searches."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tfnorms.compose import (
    DEFAULT_TERMS,
    TAIL_TOLERANCE,
    _cutoff_samples,
    _dilated_window_samples,
    _refined_progression,
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
from tfnorms.grid import Grid, NormSpec, SampledSignal, upsample
from tfnorms.norms import norm_value, partition_for
from tfnorms.partition import bump_profile
from tfnorms.windows import plateau_window

GRID = Grid(8192, 16.0 * math.pi)
PART = partition_for(GRID)
SPEC = NormSpec.modulation(2.0, 1.0, 0.0)


def evaluate(series, z, terms=None):
    """series.constant + sum_{j <= terms} c_j (z - center)^j, all stored terms by default."""
    terms = series.max_terms if terms is None else terms
    return series.constant + series.evaluate_increment(np.asarray(z) - series.center, terms)


def gaussian(grid=GRID, width=1.0):
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


def base_cutoff(grid=GRID):
    return SampledSignal(grid, bump_profile(grid.points(), 1.0, 2.0).astype(complex))


def full_grid_glue(interval, patches):
    """glue_local's telescoping sums over the whole grid for every patch."""
    ordered = sorted(patches, key=lambda p: p.center)
    grid = ordered[0].grid
    remainder = np.ones(grid.n)
    total = np.zeros(grid.n, dtype=complex)
    hsum = np.zeros(grid.n)
    for p in ordered:
        sigma = p.glue_cutoff.samples.real
        h = sigma * remainder
        total += h * p.values.samples
        hsum += h
        remainder = remainder * (1.0 - sigma)
    inside = (grid.points() >= interval[0]) & (grid.points() <= interval[1])
    return total, float(np.max(np.abs(hsum[inside] - 1.0)))


class TestPowerSeries:
    def test_reciprocal_evaluates(self):
        s = series_reciprocal(2.0)
        z = np.array([1.5, 2.0, 2.8], dtype=complex)
        vals = evaluate(s, z, 200)
        assert np.max(np.abs(vals - 1.0 / z)) <= 1e-12

    def test_tail_bound_controls_truncation(self):
        s = series_reciprocal(2.0)
        w = 0.5
        terms = s.choose_truncation(w, 1e-8)
        assert s.tail_bound(w, terms) < 1e-8
        # the bound really dominates the dropped tail
        z = 2.0 + w
        exact = 1.0 / z
        truncated = evaluate(s, np.array([z]), terms)[0]
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
        vals = evaluate(moved, z, 120)
        oracle = pointwise_oracle("mobius")(z)
        assert np.max(np.abs(vals - oracle)) <= 1e-12
        # conservative recentered radius: original minus the shift
        assert moved.radius == pytest.approx(4.0 - 0.5)

    def test_expm1(self):
        s = series_expm1(0.0)
        z = np.array([0.1, -0.4, 1.2], dtype=complex)
        assert np.max(np.abs(evaluate(s, z, 60) - np.expm1(z))) <= 1e-12

    def test_named_registry(self):
        assert named_series("square", 2.0).constant == 4.0
        with pytest.raises(ValueError):
            named_series("tangent")


class TestTailBound:
    """The tail bound is never NaN, and a finite one holds at every |w| < radius."""

    def test_expm1_far_from_its_center(self):
        # At |w| = 3 the coefficients past j ~ 177 are 0 while 6^j overflows.
        s = named_series("expm1", 0.0)
        bound = s.tail_bound(3.0, 10)
        assert math.isfinite(bound)
        assert bound >= abs(np.expm1(3.0) - evaluate(s, np.array([3.0 + 0j]), 10)[0])
        terms = s.choose_truncation(3.0)
        assert s.tail_bound(3.0, terms) < TAIL_TOLERANCE
        # From |w| ~ 25 on, nonzero (subnormal) coefficients 1/j! meet an
        # r^j that overflows; their products are taken in log space.  At
        # |w| = 30 choose_truncation raised "no finite tail bound" before.
        for w_abs, count in [(30.0, 109), (100.0, 309)]:
            assert s.choose_truncation(w_abs) == count
            assert s.tail_bound(w_abs, count) < TAIL_TOLERANCE
            exact_tail = abs(np.expm1(w_abs) - evaluate(s, np.array([w_abs + 0j]), 10)[0])
            assert s.tail_bound(w_abs, 10) >= exact_tail
        # Far enough out the envelope overflows in log space too.
        assert s.tail_bound(1e6, 10) == math.inf
        with pytest.raises(ToleranceNotReachedError, match="no finite tail bound"):
            s.choose_truncation(1e6)

    def test_mobius_coefficients_stay_finite(self):
        # At center 2, a denom = 6 and 6^(j - 1) overflows for j >= 398:
        # those coefficients were NaN, and so was the sum at 2.1.
        s = named_series("mobius", 2.0)
        assert np.all(np.isfinite(s.coefficients))
        assert evaluate(s, np.array([2.1 + 0j]))[0] == pytest.approx(2.1 / 1.525, rel=1e-14)
        # c_j = (-1)^(j - 1) 6^-(j - 1) (1 - 2 / 6) / 1.5, subnormal there.
        j = np.arange(398, 401)
        exact = (-1.0) ** (j - 1) * 6.0 ** -(j - 1.0) * (2.0 / 3.0) / 1.5
        assert s.coefficients[j - 1] == pytest.approx(exact, rel=1e-9)
        # Below the overflow the coefficients are the plain formula's, bit for bit.
        with np.errstate(all="ignore"):
            plain = (-1.0) ** (j - 5) / (1.5 * (6.0 + 0j) ** (j - 5)) * (1.0 - 2.0 / 6.0)
        assert np.array_equal(s.coefficients[j - 5], plain)

    @pytest.mark.parametrize("center", [0.1, 0.1 + 0.1j, -1e-3])
    def test_reciprocal_inside_the_unit_disk_truncates_finitely(self, center):
        # z0^(j+1) underflows for |z0| < 1: the leading coefficients of
        # finite modulus are stored, the plain formula's bit for bit, and
        # they certify a finite truncation, with no warning on the way.
        w_abs = abs(center) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = series_reciprocal(center)
            terms = s.choose_truncation(w_abs)
            bound = s.tail_bound(w_abs, 40)
        assert 1 <= terms <= s.max_terms < DEFAULT_TERMS
        assert np.all(np.isfinite(np.abs(s.coefficients)))
        j = np.arange(1, s.max_terms + 1)
        assert np.array_equal(s.coefficients, (-1.0) ** j / complex(center) ** (j + 1))
        assert math.isfinite(bound)
        assert s.tail_bound(w_abs, terms) <= TAIL_TOLERANCE
        z = center + w_abs * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 9))
        assert np.max(np.abs(evaluate(s, z, terms) - 1.0 / z)) <= TAIL_TOLERANCE

    @pytest.mark.parametrize("family, center", [("expm1", 0j), ("expm1", 2 - 1j),
                                                ("reciprocal", 1 + 0j), ("mobius", 0j)])
    def test_finite_envelopes_are_the_plain_products(self, family, center):
        # The log-space products only replace products that overflowed, so
        # every envelope that was finite keeps its bits.
        s = named_series(family, center)
        mags = np.abs(s.coefficients)
        j = np.arange(1, s.max_terms + 1)
        top = 60.0 if math.isinf(s.radius) else s.radius
        finite = 0
        for w_abs in np.linspace(0.01, 0.99, 40) * top:
            envelope, _ = s._tail_envelope(w_abs)
            # The tail radius of _tail_envelope below 0.999 of the radius.
            r = 2.0 * w_abs if math.isinf(s.radius) else 0.5 * (w_abs + s.radius)
            with np.errstate(over="ignore", invalid="ignore"):
                plain = np.max(np.where(mags == 0.0, 0.0, mags * r**j))
            if math.isfinite(plain):
                finite += 1
                assert envelope == plain
        assert finite >= 10

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["expm1", "reciprocal", "mobius"]),
        center=st.complex_numbers(max_magnitude=8.0),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        angle=st.floats(0.0, 2.0 * math.pi),
        terms=st.integers(1, 400),
    )
    @example(family="expm1", center=0j, fraction=0.05, angle=0.0, terms=10)
    @example(family="expm1", center=0j, fraction=5e-324, angle=0.0, terms=1)
    @example(family="reciprocal", center=1 + 0j, fraction=0.9999999999999998, angle=0.0, terms=1)
    @example(family="reciprocal", center=-2.5 + 0j, fraction=0.9999999999999999, angle=0.0, terms=1)
    @example(family="reciprocal", center=0.1 + 0j, fraction=0.5, angle=0.0, terms=10)
    @example(family="reciprocal", center=1e-14 + 0j, fraction=0.5, angle=0.0, terms=40)
    @example(family="mobius", center=2.0 + 0j, fraction=0.5, angle=1.0, terms=10)
    def test_bound_dominates_the_exact_tail(self, family, center, fraction, angle, terms):
        with np.errstate(all="ignore"):
            try:
                s = named_series(family, center)
            except ValueError:  # 1/z at 0, or the Mobius center on its pole
                assume(False)
        if family == "mobius":
            # |c_j| = |a denom|^-(j - 1) / |denom|^2 and |denom| = radius / 4:
            # off the pole's unit disk every coefficient is finite; inside it
            # the coefficients themselves overflow.
            if s.radius >= 1.0:
                assert np.all(np.isfinite(s.coefficients))
            assume(np.all(np.isfinite(s.coefficients)))
        w_abs = fraction * (60.0 if math.isinf(s.radius) else s.radius)
        assume(w_abs > 0.0)  # at w = 0 there is no tail, and the bound is 0
        bound = s.tail_bound(w_abs, terms)
        assert not math.isnan(bound)
        try:
            count = s.choose_truncation(w_abs)
        except ToleranceNotReachedError:
            pass
        else:
            assert 1 <= count <= s.max_terms
        if math.isfinite(bound):
            w = w_abs * complex(math.cos(angle), math.sin(angle))
            z = np.array([s.center + w])
            exact = pointwise_oracle(family)(z)[0]
            tail = abs(exact - evaluate(s, z, terms)[0])
            # Rounding in the function, in the constant (exp(z0) - 1 is off
            # by up to eps e^z0), in the stored coefficients and in Horner's
            # sum, against sum_j |c_j| |w|^j, itself by Horner so that no
            # power overflows next to a coefficient that has underflowed.
            size = 0.0
            for c in np.abs(s.coefficients[:terms])[::-1]:
                size = size * w_abs + c
            size = abs(exact) + abs(s.constant) + 1.0 + size * w_abs
            assert tail <= bound + 16 * (terms + 2) * np.finfo(float).eps * size


class TestResample:
    def test_progression_matches_closed_form(self):
        f = gaussian()
        vals = resample_progression(f, -1.0, 0.0123, 300)
        x = -1.0 + 0.0123 * np.arange(300)
        assert np.max(np.abs(vals - np.exp(-(x**2) / 2.0))) <= 1e-14


class TestRefinedGrid:
    """Dyadic dilations read off the refined grid of upsample."""

    COARSE = Grid(4096, 16.0 * math.pi)
    COARSE_BASE = plateau_window(0.0, 1.0, COARSE)
    BASE = plateau_window(0.0, 1.0, GRID)

    @pytest.mark.parametrize("lam", [2.0**k for k in range(1, 7)] + [0.5**k for k in range(1, 7)])
    @pytest.mark.parametrize("offset", [0, 300])
    def test_window_matches_resample_progression(self, lam, offset):
        # The direct interpolant sum is O(n count), so it runs on every 7th
        # argument inside [-L, L); outside, the window is 0 where the
        # interpolant would see the periodic extension.
        grid, base = self.COARSE, self.COARSE_BASE
        x = grid.points()
        x0 = x[grid.n // 2 + offset]
        window = _dilated_window_samples(base, grid, x0, lam, base.support_radius)
        arg = lam * (x - x0)
        inside = np.abs(arg) < grid.half_width
        assert np.all(window[~inside] == 0.0)
        near = np.flatnonzero(inside)[::7]
        expected = resample_progression(base.window, arg[near[0]], 7 * lam * grid.dx, near.size)
        assert np.max(np.abs(window[near] - expected.real)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5**6, 0.5, 4.0])
    @pytest.mark.parametrize("offset", [0, 300])
    def test_window_matches_direct_interpolant_sum(self, lam, offset):
        # The same check on the n = 8192 grid, for a few dilations: the
        # interpolant sum there is exact to rounding, so the refined-grid
        # window must be too.
        base = self.BASE
        x = GRID.points()
        x0 = x[GRID.n // 2 + offset]
        window = _dilated_window_samples(base, GRID, x0, lam, base.support_radius)
        arg = lam * (x - x0)
        inside = np.abs(arg) < GRID.half_width
        assert np.all(window[~inside] == 0.0)
        near = np.flatnonzero(inside)[::7]
        direct = resample_progression(base.window, arg[near[0]], 7 * lam * GRID.dx, near.size)
        expected = np.clip(direct.real, 0.0, None)
        assert np.max(np.abs(window[near] - expected)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gaussian_compression_matches_closed_form(self, k):
        base = SimpleNamespace(center=0.0, window=gaussian())
        lam = 0.5**k
        for x0 in (0.0, GRID.points()[GRID.n // 2 + 300]):
            window = _dilated_window_samples(base, GRID, x0, lam, 10.0)
            exact = np.exp(-((lam * (GRID.points() - x0)) ** 2) / 2.0)
            assert np.max(np.abs(window - exact)) <= 1e-12

    @pytest.mark.parametrize("factor", [1, 2, 16])
    def test_refined_progression_is_upsample_bitwise(self, factor):
        # Indices below 0 and past n * factor wrap onto the periodic grid.
        h = SampledSignal(self.COARSE, self.COARSE_BASE.window.samples * (1.0 + 0.5j))
        size = self.COARSE.n * factor
        fine = upsample(h, factor).samples
        for first, stride, count in ((-5 * factor, 3, 40), (size - 7, 5, 30), (17, -factor, 2 * size)):
            values = _refined_progression(h, factor, first, stride, count)
            idx = (first + stride * np.arange(count)) % size
            assert np.array_equal(values.view(np.int64), fine[idx].view(np.int64))

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

    @pytest.mark.parametrize("source", ["reciprocal", "global"])
    def test_window_updates_are_the_full_grid_loop(self, source):
        if source == "reciprocal":
            f = SampledSignal(GRID, (2.0 + np.sin(GRID.points())).astype(complex))
            interval = (-5.0, 5.0)
            _, glued, patches = reciprocal_on_compact(f, interval, SPEC, 1.0, PART)
        else:
            f = gaussian()
            _, diag, patches = global_compose(f, series_mobius(0.0), SPEC, 1.0, PART)
            interval = (-2.0 * diag["tail_width"] - 2.0, 2.0 * diag["tail_width"] + 2.0)
            glued = glue_local(interval, patches)
        assert len(patches) > 5
        total, defect = full_grid_glue(interval, patches)
        assert np.array_equal(glued.values.samples.view(np.int64), total.view(np.int64))
        assert glued.partition_defect == defect

    def test_patch_windows_hold_the_full_grid_values(self):
        # The window is where the cutoff is nonzero, and there the values
        # are bitwise those of the full-grid series; outside they are 0.
        f = SampledSignal(GRID, (2.0 + np.sin(GRID.points())).astype(complex))
        _, _, patches = reciprocal_on_compact(f, (-5.0, 5.0), SPEC, 1.0, PART)
        for p in patches[::7]:
            idx = int(round((p.center + GRID.half_width) / GRID.dx))
            series = series_reciprocal(complex(f.samples[idx]))
            tau = _cutoff_samples(GRID, p.center, p.lam)
            full = series.constant * tau + series.evaluate_increment(
                (f.samples - f.samples[idx]) * tau, p.truncation
            )
            support = np.flatnonzero(tau)
            assert p.window == slice(support[0], support[-1] + 1)
            assert p.window_values.size < GRID.n // 20
            for got, want in ((p.values, full), (p.cutoff, tau)):
                assert np.array_equal(got.samples[p.window].view(np.int64),
                                      want[p.window].astype(complex).view(np.int64))
                outside = np.ones(GRID.n, dtype=bool)
                outside[p.window] = False
                assert np.all(got.samples[outside] == 0.0)
                assert np.all(want[outside] == 0.0)

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

    def test_patches_hold_only_their_windows(self):
        # 37 patches at the measured constant of the reciprocal run; three
        # full-grid complex arrays each would hold 37 * 3 * 16 n = 28 MiB.
        grid = Grid(16384, 16.0 * math.pi)
        part = partition_for(grid)
        f = SampledSignal(grid, (2.0 + np.sin(grid.points())).astype(complex))
        tracemalloc.start()
        try:
            _, glued, patches = reciprocal_on_compact(f, (-5.0, 5.0), SPEC, 0.43, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(patches) == glued.patch_count >= 30
        assert peak < 6 * 2**20

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
