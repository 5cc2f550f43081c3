"""Frequency partition of unity: profile invariants and block projections."""

import math

import numpy as np
import pytest

from tfnorms.grid import Grid, SampledSignal, fourier_forward, fourier_inverse, weighted_lp_norm
from tfnorms.partition import (
    build_frequency_partition,
    frequency_block,
    partition_defect,
    partition_profile,
)

GRID = Grid(4096, 16.0 * math.pi)
PART = build_frequency_partition(GRID)


def band_limited(grid, seed, cutoff=20.0):
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    envelope = np.exp(-((xi / cutoff) ** 2) * 4.0) * (np.abs(xi) < cutoff)
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return fourier_inverse(SampledSignal(grid.dual(), coeffs))


class TestProfile:
    def test_partition_of_unity(self):
        assert partition_defect(PART) <= 1e-12

    def test_plateau_and_support(self):
        xi = np.array([0.0, 0.05, -0.1, 0.1])
        assert np.all(partition_profile(xi) == 1.0)
        edge = np.array([1.0, -1.0, 0.92, -1.5, 3.0])
        assert np.all(partition_profile(edge) == 0.0)

    def test_range_and_symmetry(self):
        xi = np.linspace(-1.2, 1.2, 4801)
        values = partition_profile(xi)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.max(np.abs(values - values[::-1])) <= 1e-15

    def test_half_integer_split(self):
        half = partition_profile(np.array([0.5, -0.5]))
        assert half[0] == pytest.approx(0.5, abs=1e-15)
        assert half[0] + half[1] == pytest.approx(1.0, abs=1e-15)

    def test_profile_samples_vanish_outside_unit(self):
        xi = GRID.frequencies()
        profile = partition_profile(xi)
        assert np.all(profile[np.abs(xi) >= 1.0] == 0.0)
        # The stored core is that grid profile on [-1, 1), bit for bit.
        n, w = GRID.n, PART.steps_per_unit
        assert np.array_equal(PART.core, profile[n // 2 - w : n // 2 + w])
        assert not PART.core.flags.writeable


class TestBuild:
    def test_rejects_incommensurate_grid(self):
        with pytest.raises(ValueError, match="m \\* pi"):
            build_frequency_partition(Grid(4096, 40.0))

    def test_steps_per_unit(self):
        assert PART.steps_per_unit == 16
        assert PART.max_block_index == GRID.n // 32 - 1


class TestBlocks:
    def test_plateau_signal_is_single_block(self):
        # Spectrum inside [-1/10, 1/10]: block 0 is the signal, others vanish.
        xi = GRID.frequencies()
        coeffs = np.where(np.abs(xi) <= 0.08, 1.0 + 0.5j, 0.0)
        f = fourier_inverse(SampledSignal(GRID.dual(), coeffs))
        b0 = frequency_block(f, 0, PART)
        assert np.max(np.abs(b0.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))
        for k in (-2, -1, 1, 2):
            assert np.max(np.abs(frequency_block(f, k, PART).samples)) <= 1e-14

    def test_reconstruction(self):
        f = band_limited(GRID, seed=3)
        spectrum = fourier_forward(f).samples
        total = np.zeros(GRID.n, dtype=complex)
        for k in PART.block_indices():
            total += frequency_block(f, k, PART, spectrum=spectrum).samples
        err = weighted_lp_norm(SampledSignal(GRID, total) - f, 2.0)
        assert err <= 1e-8 * weighted_lp_norm(f, 2.0)

    def test_blocks_are_band_limited(self):
        f = band_limited(GRID, seed=4)
        for k in (-7, 0, 11):
            block_hat = fourier_forward(frequency_block(f, k, PART))
            xi = GRID.frequencies()
            outside = (xi < k - 1.0) | (xi > k + 1.0)
            assert np.max(np.abs(block_hat.samples[outside])) <= 1e-12

    def test_block_index_bounds(self):
        f = band_limited(GRID, seed=5)
        with pytest.raises(ValueError):
            frequency_block(f, PART.max_block_index + 1, PART)

    def test_modulation_moves_blocks(self):
        # Blocks of exp(i m x) f at k match blocks of f at k - m in magnitude.
        f = band_limited(GRID, seed=6)
        m = 3
        mod = SampledSignal(GRID, np.exp(1j * m * GRID.points()) * f.samples)
        for k in (2, 5):
            lhs = np.abs(frequency_block(mod, k, PART).samples)
            rhs = np.abs(frequency_block(f, k - m, PART).samples)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(rhs), 1e-30)
