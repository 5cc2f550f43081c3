"""Norm engine: modulation, Fourier-Beurling, Fourier-Segal, ratios."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfnorms.grid as grid_module
import tfnorms.norms as norms
from tfnorms.corpus import make_corpus
from tfnorms.experiments import PARTITION_L, _algebra_pairs
from tfnorms.grid import (
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    fourier_forward,
    fourier_inverse,
    weighted_lp_norm,
)
from tfnorms.norms import (
    NormReport,
    algebra_constant,
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


def spectrum_norm(spectrum, p, q, s, part):
    """The modulation norm of the signal whose transform is `spectrum`, a signal on the dual grid."""
    block_norms = norms._block_norm(spectrum.samples, p, part)
    return norms._norm_report(block_norms, NormSpec.modulation(p, q, s), part)
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
    return norm_value(f * g, spec) / (norm_value(f, spec) * norm_value(g, spec))


class TestModulationNorm:
    def test_zero_signal(self):
        report = modulation_norm(SampledSignal.zero(GRID), 2.0, 1.0, 0.0, PART)
        assert report.value == 0.0

    @pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
    def test_zero_signal_has_no_live_block(self, p):
        # No block rises above the noise floor, so no block is folded.
        report = modulation_norm(SampledSignal.zero(GRID), p, 1.0, 0.5, PART)
        assert report.value == report.tail_estimate == 0.0
        assert all(c == 0.0 for _, c in report.block_contributions)

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
                nf = norm_value(f, spec)
                ng = norm_value(g, spec)
                nsum = norm_value(f + g, spec)
                assert nsum <= (nf + ng) * (1 + 1e-12)

    def test_tail_estimate_small_for_smooth(self):
        report = modulation_norm(gaussian(), 2.0, 1.0, 0.0, PART)
        assert report.tail_estimate <= 1e-12 * report.value

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_call_forms_bitwise_equal(self, p):
        # The dual of this grid's dual is off in the last bit of L, so a norm
        # that took dx from the spectrum's grid would differ from one on f.
        grid = Grid(512, 30.0 * math.pi)
        assert grid.dual().dual().half_width != grid.half_width
        part = partition_for(grid)
        for name, f in make_corpus(grid, seed=0):
            on_signal = modulation_norm(f, p, 1.0, 0.5, part)
            on_spectrum = spectrum_norm(fourier_forward(f), p, 1.0, 0.5, part)
            assert on_signal.value == on_spectrum.value, name
            assert on_signal.block_contributions == on_spectrum.block_contributions, name

    def test_rejects_a_signal_of_another_grid(self):
        other = gaussian(Grid(4096, 15.0 * math.pi))
        with pytest.raises(ValueError, match="different grid"):
            modulation_norm(other, 2.0, 1.0, 0.0, PART)

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

    def test_beurling_refuses_a_negative_weight(self):
        with pytest.raises(ValueError, match="s must be >= 0"):
            fourier_beurling_norm(gaussian(), -0.5)

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
                value = norm_value(f, spec)
                for j in (1, 37, -500):
                    shifted = SampledSignal(GRID, np.roll(f.samples, j))
                    assert norm_value(shifted, spec) == pytest.approx(value, rel=1e-12), name

    def test_absolute_homogeneity(self):
        c = -1.5 + 2.0j
        for spec in INVARIANT_SPECS:
            for name, f in CORPUS:
                expected = abs(c) * norm_value(f, spec)
                assert norm_value(c * f, spec) == pytest.approx(expected, rel=1e-12), name

    def test_embedding_111_to_210(self):
        frm = NormSpec.modulation(1.0, 1.0, 1.0)
        to = NormSpec.modulation(2.0, 1.0, 0.0)
        for name, f in CORPUS:
            assert norm_value(f, to) / norm_value(f, frm) <= 1.0 + 1e-9

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
        base = norm_value(gaussian(), spec)
        ratios = []
        for lam in (1.0, 0.5, 0.25, 0.125):
            f_lam = SampledSignal.from_function(
                GRID, lambda x: np.exp(-((lam * x) ** 2) / 2.0)
            )
            ratios.append(norm_value(f_lam, spec) / base)
        assert max(ratios) <= 4.0
        fine = Grid(2 * GRID.n, GRID.half_width)
        f_half = SampledSignal.from_function(
            fine, lambda x: np.exp(-((0.5 * x) ** 2) / 2.0)
        )
        base_fine = norm_value(gaussian(fine), spec)
        refined = norm_value(f_half, spec) / base_fine
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
    report = spectrum_norm(SampledSignal(grid.dual(), spectrum), p, 1.0, s, part)
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

    def test_peak_follows_the_span_not_the_live_blocks(self, monkeypatch):
        # One CPU, so that one span's buffers are alive at a time, and a
        # budget of 2^16 samples, 8 blocks of n.
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 1)
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 16)
        grid = Grid(8192, PARTITION_L)
        part, n, xi = partition_for(grid), grid.n, grid.frequencies()
        rng = np.random.default_rng(5)
        peaks, live = [], []
        # About 13 live blocks, and all 511: both fill whole spans of
        # _SPAN / n = 8 blocks.
        for cutoff in (6.0, math.inf):
            samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (abs(xi) < cutoff)
            spectrum = SampledSignal(grid.dual(), samples)
            tracemalloc.start()
            try:
                report = spectrum_norm(spectrum, 1.0, 1.0, 0.5, part)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            live.append(sum(c > 0.0 for _, c in report.block_contributions))
        assert grid_module._SPAN // n <= live[0] < live[1] == len(part.block_indices())
        assert peaks[1] <= peaks[0] + 16 * n
        # One span's complex and float buffers; the rest is the liveness
        # scan's masked rows (about 2 n complex) or the twiddle table (n
        # complex at W = M = 32) next to the spectrum.
        assert peaks[1] <= 24 * grid_module._SPAN + 4 * 16 * n


    def test_large_block_builds_twiddle_rows_per_span(self, monkeypatch):
        # One block larger than a span, W = 820 of M = 1024 and P = 256, so
        # the whole (P, W) twiddle table would be 0.8 n complex.  One CPU, so
        # that one span's buffers are alive at a time, and a budget of 2^16
        # samples, 64 rows, so that the table would break the bound.
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 1)
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 16)
        n, width = 1 << 18, 820
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((1, width)) + 1j * rng.standard_normal((1, width))
        core = np.hanning(width)
        tracemalloc.start()
        try:
            norms._folded_lp(rows, np.array([0]), core, 1.5, n, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One span's complex and float buffers, its twiddle rows built in
        # place from two short tables (20 bytes a budget sample measured),
        # and the block's n / 128 leaf sums; no n floats of the block.
        assert peak <= 8 * n // 128 + 48 * grid_module._SPAN


def _twiddle_split(width):
    """(H, T) of the fold's two phase tables: T a power of two about sqrt(W), H = ceil(W / T)."""
    low = 1 << (width.bit_length() // 2)
    return -(-width // low), low


def _two_table_twiddle(p_len, width, n):
    """The fold's (P, W) table e^(2 pi i a m / n), m = T h + l, from its two short tables."""
    high, low = _twiddle_split(width)
    a = np.arange(p_len, dtype=float)[:, None]
    highs = np.exp(2j * math.pi / n * (a * (low * np.arange(high, dtype=float))))
    lows = np.exp(2j * math.pi / n * (a * np.arange(low, dtype=float)))
    return (highs[:, :, None] * lows[:, None, :]).reshape(p_len, -1)[:, :width]


def _fold_reference(row, core, p, n, dx, period):
    """The L^p norm of one block's inverse transform, times a periodic factor when given.

    The fold of the norms module on the whole (P, M) array at once: the
    two-table twiddle, inverse transforms, |.|^p, times |period|^p tiled to
    M when a period is given, and one np.sum over the block's values (or
    their maximum).
    """
    width = core.size
    m_len, p_len = norms._fold_lengths(width, n)
    z = np.zeros((p_len, m_len), dtype=complex)
    np.multiply((row * core)[None, :], _two_table_twiddle(p_len, width, n), out=z[:, :width])
    np.fft.ifft(z, axis=-1, out=z)
    mags = np.abs(z)
    if p != 1.0 and not math.isinf(p):
        mags **= p
    if period is not None:
        factor = np.abs(period)
        if p != 1.0 and not math.isinf(p):
            factor **= p
        mags *= np.tile(factor, (1, m_len // factor.shape[1]))
    if math.isinf(p):
        return float(np.max(mags)) * (m_len / n / dx)
    return float(((dx * np.array([np.sum(mags)])) ** (1.0 / p) * (m_len / n / dx))[0])


class TestSharedFold:
    # n = 2^12 is one span; n = 2^14 past a span of 2^12 splits each block
    # into spans of rows, two rows of M = 64 a leaf for W = 50.  The factor
    # has a period of M (the worst case) or M / 4 values.
    @pytest.mark.parametrize("copies", [1, 4])
    @pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
    @pytest.mark.parametrize("n, width", [(1 << 12, 50), (1 << 14, 50), (1 << 14, 300)])
    def test_both_outputs_are_bitwise_the_single_folds(self, monkeypatch, n, width, p, copies):
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 12)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(n + width)
        rows = rng.standard_normal((4, width)) + 1j * rng.standard_normal((4, width))
        core = np.hanning(width)
        m_len, p_len = norms._fold_lengths(width, n)
        per = m_len // copies
        values = rng.standard_normal((p_len, per)) + 1j * rng.standard_normal((p_len, per))
        which, dx = np.array([3, 0, 2]), 0.01

        def factor(r0, r1):
            return values[r0:r1]

        both = norms._folded_lp(rows, which, core, p, n, dx, factor)
        plain = norms._folded_lp(rows, which, core, p, n, dx)
        assert both.shape == (2, which.size)
        assert both[0].tobytes() == plain.tobytes()
        assert [_fold_reference(rows[b], core, p, n, dx, None) for b in which] == plain.tolist()
        assert [_fold_reference(rows[b], core, p, n, dx, values) for b in which] == both[1].tolist()
        assert not np.any(both[0] == both[1])


# (n, W) of the folds of F^-1 phi and of g at each default flat-counterexample
# run, (p, m, r) = (1, 4, 4), (1, 6, 6), (1.5, 2, 8) and (1.5, 4, 10), and a
# small fold of one span.
FLAT_FOLDS = [(1 << 12, 50), (1 << 17, 445), (1 << 21, 1773), (1 << 19, 5319), (1 << 22, 21271)]


class TestTwiddle:
    """The fold's twiddle rows: two short tables per row, one builder."""

    @pytest.mark.parametrize("n, width", FLAT_FOLDS)
    def test_matches_extended_precision_phases(self, n, width):
        # Each argument 2 pi / n times the integer a T h or a l is rounded
        # twice (math.pi, then the product), so it is off by at most 2 unit
        # times itself, and the two add up to 2 unit theta, theta =
        # 2 pi a m / n < 2 pi.  An exponential is within one ulp in each part
        # and the complex product within sqrt(5) unit, 3 unit each at most.
        # The reference reduces a m mod n exactly in integers and evaluates
        # the phase in long double, to a few of its own units.
        unit, unit_ld = 2.0**-53, float(np.finfo(np.longdouble).eps)
        high, low = _twiddle_split(width)
        m_len, p_len = norms._fold_lengths(width, n)
        assert low * high >= width and m_len % low == 0
        pi = 4 * np.arctan(np.longdouble(1))
        for r0, r1 in [(0, 3), (p_len - 3, p_len)]:
            got = norms._twiddle(r0, r1, n, np.empty((r1 - r0, high, low), dtype=complex))
            got = got.reshape(r1 - r0, -1)
            turns = np.arange(r0, r1)[:, None] * np.arange(high * low) % n
            theta = 2 * pi * turns.astype(np.longdouble) / n
            exact = np.cos(theta) + np.clongdouble(1j) * np.sin(theta)
            bound = (2.0 * theta + 9.0) * unit + 8.0 * unit_ld
            assert np.all(np.abs(got.astype(np.clongdouble) - exact) <= bound)

    @pytest.mark.parametrize("n, width", [(1 << 12, 50), (1 << 14, 300)])
    def test_span_rows_are_the_table_rows(self, n, width):
        # The shared table for n <= _SPAN and rows built span by span into a
        # transform buffer of M columns come from one builder: any run of
        # rows is the same bytes as those rows of the whole table.
        high, low = _twiddle_split(width)
        m_len, p_len = norms._fold_lengths(width, n)
        table = norms._twiddle(0, p_len, n, np.empty((p_len, high, low), dtype=complex))
        for r0, r1 in [(0, 1), (1, 4), (5, 12), (p_len - 3, p_len)]:
            z = np.empty((r1 - r0, m_len), dtype=complex)
            rows = norms._twiddle(r0, r1, n, z.reshape(r1 - r0, -1, low)[:, :high])
            assert rows.tobytes() == table[r0:r1].tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
    def test_table_and_span_rows_fold_to_the_same_bytes(self, monkeypatch, p, cpus):
        # n = 2^14 fits the default span, so the fold reads one table; with
        # a span of 2^12 each span builds its own rows.
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        n, width, dx = 1 << 14, 300, 0.01
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
        core, which = np.hanning(width), np.array([2, 0])
        m_len, p_len = norms._fold_lengths(width, n)
        values = rng.standard_normal((p_len, m_len // 8)) + 0j

        def factor(r0, r1):
            return values[r0:r1]

        assert n <= grid_module._SPAN
        table = norms._folded_lp(rows, which, core, p, n, dx, factor)
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 12)
        spans = norms._folded_lp(rows, which, core, p, n, dx, factor)
        assert table.tobytes() == spans.tobytes()

    @pytest.mark.parametrize("n, width", [(1 << 14, 300), (1 << 18, 820)])
    def test_one_fold_evaluates_two_short_tables(self, monkeypatch, n, width):
        # One block: n = 2^14 reads one table, n = 2^18 builds its rows span
        # by span.  Either way P (T + ceil(W / T)) exponentials, against
        # P W for the table evaluated entry by entry.
        evaluated = []
        real_exp = np.exp

        def counting_exp(x, *rest, **kwargs):
            evaluated.append(np.size(x))
            return real_exp(x, *rest, **kwargs)

        rng = np.random.default_rng(9)
        rows = rng.standard_normal((1, width)) + 1j * rng.standard_normal((1, width))
        monkeypatch.setattr(np, "exp", counting_exp)
        norms._folded_lp(rows, np.array([0]), np.hanning(width), 1.5, n, 0.01)
        monkeypatch.undo()
        high, low = _twiddle_split(width)
        p_len = norms._fold_lengths(width, n)[1]
        assert 0 < sum(evaluated) <= p_len * (low + high) < p_len * width / 4


# What each block of a spectrum of grouped_spectra holds, around its centre k:
# the base atom c a up to sign, near-duplicates of it, a fresh random atom,
# or nothing.
_ROW_KINDS = ["plus", "minus", "times-i", "conj", "mirror", "ulp", "random", "empty"]


@st.composite
def grouped_spectra(draw):
    """(grid, spectrum) whose blocks hold the kinds of _ROW_KINDS.

    Each atom lives on |xi - k| <= 1/10, where no other translate of phi
    reaches, so the masked row of block k is exactly phi(. - k) times its
    own atom, and zero (of either sign) elsewhere.
    """
    steps = draw(st.sampled_from([10, 20, 30]))
    n = 1 << draw(st.integers(8, 10))
    grid = Grid(n, steps * math.pi)
    part = partition_for(grid)
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=len(part.block_indices()),
                          max_size=len(part.block_indices())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = steps // 10

    def atom():
        values = rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1)
        return values * (rng.random(values.size) < 0.7)  # exact zeros, signed below

    base = complex(*rng.standard_normal(2)) * atom()
    ulp = base.copy()
    ulp[half] = complex(np.nextafter(ulp[half].real, np.inf), ulp[half].imag)
    rows = {"plus": base, "minus": -base, "times-i": 1j * base, "conj": np.conj(base),
            "mirror": base[::-1], "ulp": ulp}
    spectrum = np.zeros(n, dtype=complex)
    for k, kind in zip(part.block_indices(), kinds):
        centre = n // 2 + k * steps
        if kind != "empty":
            row = rows[kind] if kind in rows else complex(*rng.standard_normal(2)) * atom()
            spectrum[centre - half : centre + half + 1] = row
    return grid, spectrum


def _fold_every_live_row(signal, part, p, s):
    """modulation_norm's report on the spectrum `signal`, every live row folded in one call."""
    spectrum = signal.samples
    rows, core = part.block_rows(spectrum), part.core
    floor = norms._NOISE_FLOOR * np.max(np.abs(spectrum))
    live = np.flatnonzero(np.max(np.abs(rows * core), axis=1) > floor)
    block_norms = np.zeros(len(rows))
    block_norms[live] = norms._folded_lp(rows, live, core, p, part.grid.n, part.grid.dx)
    ks = np.array(part.block_indices())
    contributions = norms._index_weight(ks, s) * block_norms
    return NormReport(
        NormSpec.modulation(p, 1.0, s),
        norms._combine(contributions, 1.0),
        tuple((int(k), float(c)) for k, c in zip(ks, contributions)),
        norms._combine(np.array([contributions[0], contributions[-1]]), 1.0),
    )


def _bits(report):
    values = [report.value, report.tail_estimate, *(c for _, c in report.block_contributions)]
    return np.array(values).tobytes()


class TestGroupedFold:
    @settings(max_examples=40, deadline=None)
    @given(case=grouped_spectra(), p=st.sampled_from([1.0, 1.5, 3.0, math.inf]))
    def test_bitwise_equal_to_folding_every_row(self, case, p):
        grid, spectrum = case
        part, signal = partition_for(grid), SampledSignal(grid.dual(), spectrum)
        oracle = _fold_every_live_row(signal, part, p, 0.5)
        report = spectrum_norm(signal, p, 1.0, 0.5, part)
        assert report == oracle
        assert _bits(report) == _bits(oracle)
        # Blocks equal up to sign fold to bitwise equal norms (the negation
        # argument of the norms module).
        block_norms = norms._block_norm(spectrum, p, part)
        masked = part.block_rows(spectrum) * part.core
        for i, j in itertools.combinations(range(len(masked)), 2):
            if np.array_equal(masked[i], -masked[j]):
                assert block_norms[i] == block_norms[j]


class TestPartitionCache:
    def test_equal_grids_share_one_partition(self):
        first = partition_for(Grid(1024, 4.0 * math.pi))
        assert partition_for(Grid(1024, 4.0 * math.pi)) is first

    def test_cache_is_bounded(self):
        first = partition_for(Grid(512, math.pi))
        for m in range(2, 12):
            partition_for(Grid(512, m * math.pi))
        assert partition_for(Grid(512, math.pi)) is not first


class TestSharedBlockNorms:
    SPECS = [
        NormSpec.modulation(1.0, 1.0, 1.0),
        NormSpec.modulation(1.0, 1.0, 0.0),
        NormSpec.modulation(1.0, 2.0, 0.5),
        NormSpec.modulation(2.0, 1.0, 0.0),
        NormSpec.modulation(2.0, 2.0, 0.0),
        NormSpec.modulation(1.5, math.inf, 0.0),
        NormSpec.modulation(math.inf, 1.0, 0.0),
        NormSpec.fourier_beurling(0.0),
        NormSpec.fourier_beurling(0.5),
        NormSpec(Space.FOURIER_SEGAL, p=1.5),
        NormSpec.weighted_lebesgue(2.0),
        NormSpec.weighted_lebesgue(1.0, 0.5),
    ]

    def test_values_are_bitwise_norm_value(self):
        # Each p is folded once and combined for each (q, s).
        for name, f in CORPUS[::3]:
            with mock.patch.object(norms, "_block_norm", wraps=norms._block_norm) as body:
                values = norms._norm_values(f, self.SPECS)
            assert [call.args[1] for call in body.call_args_list] == [1.0, 2.0, 1.5, math.inf]
            assert list(values) == self.SPECS
            for spec, value in values.items():
                assert value == norm_value(f, spec), (name, spec)


def _plain_constant(pairs, spec):
    """algebra_constant without reuse: every signal and every product normed."""
    best = 0.0
    for _, f, _, g in pairs:
        nf, ng = norm_value(f, spec), norm_value(g, spec)
        if nf == 0.0 or ng == 0.0:
            continue
        best = max(best, norm_value(f * g, spec) / (nf * ng))
    return best


ALGEBRA_GRID = Grid(512, PARTITION_L)
ALGEBRA_CORPUS = make_corpus(ALGEBRA_GRID, seed=0)
# Ordered pairs of corpus signals whose products f g and g f differ in the
# last bit, as numpy's SIMD complex multiply can round the two orders
# differently (50 of the 144 at n = 512 on an AVX-512 host).  A host whose
# multiply commutes bitwise has none; the off-diagonal pairs stand in there.
REVERSALS = [
    (i, j)
    for i, (_, f) in enumerate(ALGEBRA_CORPUS)
    for j, (_, g) in enumerate(ALGEBRA_CORPUS)
    if (f * g).samples.tobytes() != (g * f).samples.tobytes()
] or [(i, j) for i in range(12) for j in range(12) if i != j]


class TestAlgebraConstantReuse:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(1, 8),
        pick=st.integers(0, len(REVERSALS) - 1),
        spec=st.sampled_from([NormSpec.modulation(1.0, 1.0, 0.5), NormSpec.modulation(2.0, 1.0, 0.0)]),
    )
    def test_reuse_is_bitwise_the_plain_loop(self, seed, count, pick, spec):
        drawn = list(_algebra_pairs(ALGEBRA_CORPUS, seed, count))
        (a, f), (b, g) = (ALGEBRA_CORPUS[i] for i in REVERSALS[pick])
        fg, gf = (a, f, b, g), (b, g, a, f)
        # A reversed pair alone, in both orders, so that its ratio is the maximum once.
        for pairs in (drawn, [fg, *drawn, gf], [fg, gf], [gf, fg]):
            assert algebra_constant(pairs, spec) == _plain_constant(pairs, spec)

    def test_nested_plateaus_reuse_the_factor(self):
        # bump-4 is 1 on the support of bump-2, so their product is bump-2.
        corpus = dict(ALGEBRA_CORPUS)
        f, g = corpus["bump-4"], corpus["bump-2"]
        assert (f * g).samples.tobytes() == g.samples.tobytes()
        spec = NormSpec.modulation(1.0, 1.0, 0.5)
        pairs = [("bump-4", f, "bump-2", g), ("bump-2", g, "bump-4", f), ("bump-4", f, "bump-2", g)]
        with mock.patch.object(norms, "norm_value", wraps=norms.norm_value) as value:
            got = algebra_constant(pairs, spec)
        normed = [call.args[0] for call in value.call_args_list]
        assert len(normed) == 2 and normed[0] is f and normed[1] is g
        assert got == _plain_constant(pairs, spec)
