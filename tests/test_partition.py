"""Frequency partition of unity: profile invariants and block projections."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfnorms.grid as grid_module
from tfnorms.grid import Grid, SampledSignal, fourier_forward, fourier_inverse, weighted_lp_norm
from tfnorms.partition import (
    FrequencyPartition,
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

    @pytest.mark.parametrize("index", [0, 5, 16, 31])
    def test_defect_sees_a_moved_core_sample(self, index):
        core = PART.core.copy()
        core[index] += 1e-9
        moved = FrequencyPartition(GRID, core, PART.steps_per_unit)
        assert partition_defect(moved) > 1e-12

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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_core_is_built_in_span_sized_memory(self, monkeypatch, cpus):
        # The largest flat-counterexample core, 2 * 106500 samples at
        # n = 2^22.  Its profile in one pass held about ten temporaries of the
        # core's length (10.3 core sizes traced).
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            part = build_frequency_partition(Grid(1 << 22, 106500 * math.pi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.core.size == 2 * 106500
        assert peak < 3 * part.core.nbytes

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.integers(1, 3000),
        span=st.integers(16, 1 << 12),
        cpus=st.sampled_from([1, 3]),
    )
    def test_span_wise_core_is_the_one_pass_profile(self, steps, span, cpus):
        # The core is filled span by span, each span evaluating the profile
        # on its own frequencies; it has the bytes of one pass over them all.
        grid = Grid(1 << max(3, (4 * steps - 1).bit_length()), steps * math.pi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "_cpu_count", lambda: cpus)
            mp.setattr(grid_module, "_SPAN", span)
            core = build_frequency_partition(grid).core
        one_pass = partition_profile(grid.dxi * np.arange(-steps, steps))
        assert core.tobytes() == one_pass.tobytes()


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


@st.composite
def partitioned_grids(draw):
    n = 1 << draw(st.integers(6, 12))
    m = draw(st.sampled_from([1, 2, 3, 5, 16, n // 4]))
    return build_frequency_partition(Grid(n, m * math.pi))


class TestOverlapAdd:
    @settings(max_examples=60, deadline=None)
    @given(part=partitioned_grids(), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_of_block_rows(self, part, seed):
        # <block_rows(s), R> = <s, overlap_add(R)> for every spectrum s and rows R.
        rng = np.random.default_rng(seed)
        n, w = part.grid.n, part.steps_per_unit
        spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows = part.block_rows(spectrum)
        coeffs = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
        spread = part.overlap_add(coeffs)
        assert spread.shape == (n,) and rows.shape[1] == 2 * w
        lhs, rhs = np.vdot(rows, coeffs), np.vdot(spectrum, spread)
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(rows) * np.linalg.norm(coeffs)

    # The blocks in use, k = -(N - 1) .. N - 1 for the Nyquist frequency N,
    # leave the edge bands [-N, -N + 1) and [N - 1, N) covered by one
    # neighbour only.  Adding the wrapped block k = N closes the gap; these
    # markers go when it lands.
    @pytest.mark.xfail(strict=True, reason="the edge bands miss the wrapped block k = N")
    @pytest.mark.parametrize("n, m", [(64, 1), (1024, 16), (4096, 16), (4096, 5)])
    def test_blocks_in_use_cover_every_frequency(self, n, m):
        part = build_frequency_partition(Grid(n, m * math.pi))
        cover = part.overlap_add(np.tile(part.core, (len(part.block_indices()), 1)))
        assert np.max(np.abs(cover - 1.0)) <= 1e-12
