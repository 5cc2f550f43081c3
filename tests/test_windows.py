"""Plateau windows and the translation-difference estimate."""

import dataclasses
import math

import numpy as np
import pytest

import tfnorms.windows as windows
from tfnorms.grid import Grid, SampledSignal, convolve
from tfnorms.windows import plateau_window, translation_difference_bound

GRID = Grid(4096, 16.0 * math.pi)
WINDOW_MATRIX = [(0.0, 1.0), (2.0, 0.5), (-3.0, 0.25)]


def window_invariants(w, grid):
    x = grid.points()
    psi = w.window.samples

    plateau = np.abs(x - w.center) <= w.inner_radius
    assert np.max(np.abs(psi[plateau] - 1.0)) <= 1e-6

    outside = np.abs(x - w.center) >= w.support_radius + grid.dx
    assert np.max(np.abs(psi[outside])) <= 1e-10

    # nonnegativity inherited from the nonnegative bump
    assert np.min(psi.real) >= -1e-10
    assert np.max(np.abs(psi.imag)) <= 1e-12


class TestPlateauWindow:
    @pytest.mark.parametrize("center,radius", WINDOW_MATRIX)
    def test_invariants(self, center, radius):
        w = plateau_window(center, radius, GRID)
        window_invariants(w, GRID)

    def test_factorization(self):
        for center, radius in WINDOW_MATRIX:
            assert plateau_window(center, radius, GRID).factorization_error() <= 1e-8

    @pytest.mark.parametrize("center,radius", WINDOW_MATRIX)
    def test_factorization_error_sees_a_scaled_piece(self, center, radius):
        # psi is 1 on its plateau, so 1.01 psi2 puts psi1 * psi2 1e-2 off psi there.
        w = plateau_window(center, radius, GRID)
        scaled = dataclasses.replace(w, piece2=SampledSignal(GRID, 1.01 * w.piece2.samples))
        assert scaled.factorization_error() == pytest.approx(1e-2, rel=1e-6)

    def test_factorization_error_sees_a_faulty_convolution(self, monkeypatch):
        # A window built by a convolution one sample off: the check sums the
        # convolution itself, so it does not repeat the fault.
        def shifted(f, g):
            return SampledSignal(f.grid, np.roll(convolve(f, g).samples, 1))

        monkeypatch.setattr(windows, "convolve", shifted)
        for center, radius in WINDOW_MATRIX:
            assert plateau_window(center, radius, GRID).factorization_error() > 1e-3

    def test_integral_factorizes(self):
        w = plateau_window(2.0, 0.5, GRID)
        dx = GRID.dx
        i1 = dx * np.sum(w.piece1.samples)
        i2 = dx * np.sum(w.piece2.samples)
        i = dx * np.sum(w.window.samples)
        assert abs(i - i1 * i2) <= 1e-8 * abs(i)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="domain too small"):
            plateau_window(0.0, GRID.half_width / 8.0, GRID)

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="resolution"):
            plateau_window(0.0, 2.0 * GRID.dx, GRID)

    def test_piece_support_radius(self):
        w = plateau_window(0.0, 1.0, GRID)
        assert w.piece_support_radius == 4.0
        w2 = plateau_window(-3.0, 0.25, GRID)
        assert w2.piece_support_radius == pytest.approx(3.25)


class TestTranslationBound:
    def setup_method(self):
        self.window = plateau_window(0.0, 1.0, GRID)

    def test_zero_shift(self):
        lhs, rhs = translation_difference_bound(self.window, 0.5, 0.0)
        assert lhs <= 1e-10
        assert rhs == 0.0

    def test_even_symmetry(self):
        for s in (0.0, 0.5):
            lp, _ = translation_difference_bound(self.window, s, 1.7)
            lm, _ = translation_difference_bound(self.window, s, -1.7)
            assert lp == pytest.approx(lm, rel=1e-10)

    def test_fitted_constant_is_stable(self):
        thetas = np.geomspace(0.1, 10.0, 16)
        by_s = {}
        for s in (0.0, 0.5, 0.9):
            row = []
            for theta in thetas:
                lhs, rhs = translation_difference_bound(self.window, s, float(theta))
                row.append(lhs / rhs)
            by_s[s] = np.array(row)
        ratios = np.concatenate(list(by_s.values()))
        assert np.all(np.isfinite(ratios))
        # within each weight power the ratio stays in a narrow band
        for s, row in by_s.items():
            assert np.max(row) / np.min(row) < 2.5
        # fit the constant on even-indexed sweep points, verify on the rest
        fit = np.max(ratios[::2])
        assert np.all(ratios[1::2] <= fit * (1.0 + 1e-9) + 1e-12)

    def test_invalid_weight_power(self):
        with pytest.raises(ValueError):
            translation_difference_bound(self.window, 1.0, 1.0)
