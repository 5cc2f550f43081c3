"""Norm engine: modulation, Fourier-Beurling, Fourier-Segal, ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfnorms.corpus import make_corpus
from tfnorms.grid import Grid, NormSpec, SampledSignal, fourier_inverse, weighted_lp_norm
from tfnorms.norms import (
    fourier_beurling_norm,
    fourier_segal_norm,
    modulation_norm,
    norm_value,
    partition_for,
)
from tfnorms.partition import frequency_block
from tfnorms.stft import gaussian_window

from test_stft import modulation_norm_stft

GRID = Grid(4096, 16.0 * math.pi)
PART = partition_for(GRID)
CORPUS = make_corpus(GRID, seed=0)


def gaussian(grid=GRID, width=1.0):
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


def plateau_band_signal(grid=GRID):
    """Signal whose spectrum sits inside the plateau [-1/10, 1/10]."""
    xi = grid.frequencies()
    coeffs = np.exp(-((xi / 0.06) ** 2)) * (np.abs(xi) <= 0.08) * (1.0 + 0.3j)
    return fourier_inverse(SampledSignal(grid.dual(), coeffs))


def algebra_ratio(f, g, spec):
    """Multiplicative defect ||f g|| / (||f|| ||g||)."""
    return norm_value(f * g, spec, PART) / (norm_value(f, spec, PART) * norm_value(g, spec, PART))


class TestModulationNorm:
    def test_zero_signal(self):
        report = modulation_norm(SampledSignal.zero(GRID), 2.0, 1.0, 0.0, PART)
        assert report.value == 0.0

    def test_homogeneity_exact(self):
        f = gaussian()
        r1 = modulation_norm(f, 2.0, 1.0, 0.5, PART)
        r2 = modulation_norm(2.0 * f, 2.0, 1.0, 0.5, PART)
        assert r2.value == pytest.approx(2.0 * r1.value, rel=1e-14)

    def test_single_block_collapse(self):
        # Plateau-band signal: the norm is the plain L^p norm for any (p, q, s).
        f = plateau_band_signal()
        for p, q, s in [(1.0, 1.0, 0.0), (2.0, 1.0, 1.5), (2.0, math.inf, 0.5), (math.inf, 2.0, 1.0)]:
            report = modulation_norm(f, p, q, s, PART)
            assert report.value == pytest.approx(weighted_lp_norm(f, p), rel=1e-12)

    def test_q1_value_is_sum_of_contributions(self):
        f = gaussian(width=0.5)
        report = modulation_norm(f, 2.0, 1.0, 0.5, PART)
        total = sum(c for _, c in report.block_contributions)
        assert report.value == pytest.approx(total, rel=1e-12)

    def test_monotone_in_s(self):
        f = gaussian(width=0.5)
        values = [modulation_norm(f, 2.0, 1.0, s, PART).value for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_nested_in_q(self):
        f = gaussian(width=0.5)
        values = [modulation_norm(f, 2.0, q, 0.0, PART).value for q in (1.0, 2.0, math.inf)]
        assert values[0] >= values[1] >= values[2]

    def test_triangle_inequality(self):
        for (name_f, f), (name_g, g) in zip(CORPUS[:4], CORPUS[4:8]):
            for spec in [NormSpec.modulation(1.0, 1.0, 0.5), NormSpec.modulation(2.0, 2.0, 0.0)]:
                nf = norm_value(f, spec, PART)
                ng = norm_value(g, spec, PART)
                nsum = norm_value(f + g, spec, PART)
                assert nsum <= (nf + ng) * (1 + 1e-12)

    def test_tail_estimate_small_for_smooth(self):
        report = modulation_norm(gaussian(), 2.0, 1.0, 0.0, PART)
        assert report.tail_estimate <= 1e-12 * report.value

    def test_report_serializes(self):
        report = modulation_norm(gaussian(), 2.0, 1.0, 0.0, PART)
        d = report.to_json_dict()
        assert d["space"] == "modulation"
        assert len(d["blocks"]) == len(report.block_contributions)


class TestStftNormCrossCheck:
    def test_m22_matches_moyal_constant(self):
        grid = Grid(2048, 16.0 * math.pi)
        w = gaussian_window(grid)
        f = gaussian(grid, width=1.3)
        value = modulation_norm_stft(f, 2.0, 2.0, 0.0, w)
        expected = math.sqrt(2.0 * math.pi) * math.pi**0.25 * weighted_lp_norm(f, 2.0)
        assert value == pytest.approx(expected, rel=1e-6)

    def test_zero(self):
        grid = Grid(1024, 16.0 * math.pi)
        assert modulation_norm_stft(SampledSignal.zero(grid), 1.0, 1.0, 0.0, gaussian_window(grid)) == 0.0

    def test_equivalence_band_is_refinement_stable(self):
        # The two norm engines are equivalent with a signal-dependent constant;
        # what must be stable is each signal's ratio under grid refinement.
        from tfnorms.corpus import make_signal

        g1, g2 = Grid(1024, 16.0 * math.pi), Grid(2048, 16.0 * math.pi)
        p1, p2 = partition_for(g1), partition_for(g2)
        w1, w2 = gaussian_window(g1), gaussian_window(g2)
        ratios = []
        for name, _ in make_corpus(g1, seed=0):
            f1, f2 = make_signal(name, g1, 0), make_signal(name, g2, 0)
            r1 = modulation_norm_stft(f1, 1, 1, 0, w1) / modulation_norm(f1, 1, 1, 0, p1).value
            r2 = modulation_norm_stft(f2, 1, 1, 0, w2) / modulation_norm(f2, 1, 1, 0, p2).value
            assert abs(r1 / r2 - 1.0) <= 0.10
            ratios.append(r2)
        # and the corpus-wide band stays bounded
        assert 1.0 <= min(ratios) and max(ratios) <= 10.0


class TestClassicalNorms:
    def test_beurling_gaussian(self):
        # integral sqrt(2 pi) exp(-xi^2/2) dxi = 2 pi
        assert fourier_beurling_norm(gaussian(), 0.0) == pytest.approx(2.0 * math.pi, rel=1e-10)

    def test_beurling_monotone_in_s(self):
        f = gaussian(width=0.7)
        v = [fourier_beurling_norm(f, s) for s in (0.0, 0.5, 1.0)]
        assert v[0] <= v[1] <= v[2]

    def test_beurling_even_symmetry(self):
        f = gaussian(width=1.2)
        xi = GRID.frequencies()
        from tfnorms.grid import fourier_forward

        spectrum = fourier_forward(f)
        half = 2.0 * GRID.dxi * np.sum(np.abs(spectrum.samples[xi > 0]))
        # the xi = 0 and xi = -nyquist samples are their own mirror images
        half += GRID.dxi * float(np.abs(spectrum.samples[xi == 0.0][0]))
        assert fourier_beurling_norm(f, 0.0) == pytest.approx(half, rel=1e-10)

    def test_segal_gaussian(self):
        assert fourier_segal_norm(gaussian(), 2.0) == pytest.approx(
            math.pi**0.25 + 2.0 * math.pi, rel=1e-10
        )

    def test_segal_zero(self):
        assert fourier_segal_norm(SampledSignal.zero(GRID), 2.0) == 0.0

    def test_segal_modulation_invariant(self):
        f = gaussian()
        eta = 4.0  # integer frequency, grid aligned on L = 16 pi
        mod = SampledSignal(GRID, np.exp(1j * eta * GRID.points()) * f.samples)
        assert fourier_segal_norm(mod, 2.0) == pytest.approx(
            fourier_segal_norm(f, 2.0), rel=1e-12
        )


INVARIANT_SPECS = [NormSpec.modulation(p, 1.0, 0.5) for p in (1.0, 2.0, math.inf)] + [
    NormSpec.fourier_beurling(0.5)
]


class TestRatios:
    def test_circular_shift_invariance(self):
        # A circular shift only changes the phase of every block's spectrum.
        for spec in INVARIANT_SPECS:
            for name, f in CORPUS:
                value = norm_value(f, spec, PART)
                for j in (1, 37, -500):
                    shifted = SampledSignal(GRID, np.roll(f.samples, j))
                    assert norm_value(shifted, spec, PART) == pytest.approx(value, rel=1e-12), name

    def test_absolute_homogeneity(self):
        c = -1.5 + 2.0j
        for spec in INVARIANT_SPECS:
            for name, f in CORPUS:
                expected = abs(c) * norm_value(f, spec, PART)
                assert norm_value(c * f, spec, PART) == pytest.approx(expected, rel=1e-12), name

    def test_embedding_111_to_210(self):
        frm = NormSpec.modulation(1.0, 1.0, 1.0)
        to = NormSpec.modulation(2.0, 1.0, 0.0)
        for name, f in CORPUS:
            assert norm_value(f, to, PART) / norm_value(f, frm, PART) <= 1.0 + 1e-9

    def test_algebra_scaling_invariance(self):
        f = gaussian()
        g = gaussian(width=0.6)
        spec = NormSpec.modulation(2.0, 1.0, 0.0)
        r1 = algebra_ratio(f, g, spec)
        r2 = algebra_ratio(3.0 * f, 0.5 * g, spec)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_algebra_single_block_reduction(self):
        f = plateau_band_signal()
        spec = NormSpec.modulation(2.0, 1.0, 0.0)
        ratio = algebra_ratio(f, f, spec)
        expected = weighted_lp_norm(f * f, 2.0) / weighted_lp_norm(f, 2.0) ** 2
        assert ratio == pytest.approx(expected, rel=1e-10)


class TestDilationBoundedness:
    def test_sup_type_norm_bounded_under_compression(self):
        # ||f(lam .)|| in the sup-type space stays bounded for 0 < lam <= 1;
        # only boundedness and refinement stability are asserted, the
        # constant itself is not pinned.
        spec = NormSpec.modulation(math.inf, 1.0, 0.5)
        base = norm_value(gaussian(), spec, PART)
        ratios = []
        for lam in (1.0, 0.5, 0.25, 0.125):
            f_lam = SampledSignal.from_function(
                GRID, lambda x: np.exp(-((lam * x) ** 2) / 2.0)
            )
            ratios.append(norm_value(f_lam, spec, PART) / base)
        assert max(ratios) <= 4.0
        fine = partition_for(Grid(2 * GRID.n, GRID.half_width))
        f_half = SampledSignal.from_function(
            fine.grid, lambda x: np.exp(-((0.5 * x) ** 2) / 2.0)
        )
        base_fine = norm_value(gaussian(fine.grid), spec, fine)
        refined = norm_value(f_half, spec, fine) / base_fine
        assert abs(refined / ratios[1] - 1.0) <= 0.05


def _check_blocks_against_oracle(n, m, lo, hi, p, s, seed):
    """Every block contribution against its full-length n-point inverse.

    The spectrum is random on [lo + 1/2, hi + 1/2] and exactly zero
    elsewhere, so a block is either well inside the band or exactly zero.
    """
    grid = Grid(n, m * math.pi)
    part = partition_for(grid)
    xi = grid.frequencies()
    rng = np.random.default_rng(seed)
    inside = (xi >= lo + 0.5) & (xi <= hi + 0.5)
    spectrum = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * inside
    f = fourier_inverse(SampledSignal(grid.dual(), spectrum))
    report = modulation_norm(None, p, 1.0, s, part, spectrum=SampledSignal(grid.dual(), spectrum))
    assert [k for k, _ in report.block_contributions] == list(part.block_indices())
    for k, value in report.block_contributions:
        block = frequency_block(f, k, part, spectrum=spectrum)
        oracle = (1.0 + k**2) ** (s / 2.0) * weighted_lp_norm(block, p)
        assert (value == 0.0) == (oracle == 0.0), (k, value, oracle)
        assert abs(value - oracle) <= 1e-12 * oracle, (k, value, oracle)


@st.composite
def banded_grids(draw):
    n = 1 << draw(st.integers(3, 9))
    m = draw(st.sampled_from([1, 2, 3, 5, n // 4]).filter(lambda m: 4 * m <= n))
    top = int(math.floor(n / (2.0 * m)))  # max_block_index + 1
    lo = draw(st.integers(-top, top - 1))
    hi = draw(st.integers(lo + 1, top))
    return n, m, lo, hi


class TestFoldedBlockNorms:
    @settings(max_examples=60, deadline=None)
    @given(
        case=banded_grids(),
        p=st.sampled_from([1.0, 1.5, 3.0, math.inf]),
        s=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_length_oracle(self, case, p, s, seed):
        _check_blocks_against_oracle(*case, p, s, seed)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize(
        "n, m, lo, hi",
        [
            (8, 2, -2, 2),  # W = M = n / 2: no zero padding, P = 2 is the least P
            (64, 2, 10, 16),  # band up to the grid edge: the top window ends there
            (256, 3, -43, -30),  # band down to the grid edge, odd steps per unit
        ],
    )
    def test_edge_cases(self, n, m, lo, hi, p):
        _check_blocks_against_oracle(n, m, lo, hi, p, 0.5, seed=n + m)


class TestPartitionCache:
    def test_equal_grids_share_one_partition(self):
        first = partition_for(Grid(1024, 4.0 * math.pi))
        assert partition_for(Grid(1024, 4.0 * math.pi)) is first

    def test_cache_is_bounded(self):
        first = partition_for(Grid(512, math.pi))
        for m in range(2, 12):
            partition_for(Grid(512, m * math.pi))
        assert partition_for(Grid(512, math.pi)) is not first
