"""STFT values, covariance, the Moyal identity, and the passes in spans of rows."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfnorms.grid as grid_module
import tfnorms.stft as stft_module
from tfnorms.corpus import make_corpus
from tfnorms.errors import CostGateError
from tfnorms.experiments import _gaussian_closed_form, stft_experiment
from tfnorms.grid import (
    Grid,
    SampledSignal,
    convolve,
    fourier_inverse,
    inner_product,
    weighted_lp_norm,
)
from tfnorms.stft import _stft_rows, gaussian_window, stft, stft_gram

GRID = Grid(1024, 20.0)


def gaussian(grid, width=1.0):
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


def band_limited(grid, seed, fraction=0.4):
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    cutoff = fraction * grid.nyquist
    envelope = np.exp(-((xi / cutoff) ** 2) * 8.0) * (np.abs(xi) < cutoff)
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    f = fourier_inverse(SampledSignal(grid.dual(), coeffs))
    # localize in space as well so translated windows never wrap
    return f * SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / 60.0))


def dense_oracle(f, window):
    """The one-shot formula: an n x n shift-index gather, one batched transform."""
    grid = f.grid
    n = grid.n
    t_idx = np.arange(n)
    shift = (t_idx[None, :] - t_idx[:, None] + n // 2) % n
    windowed = f.samples[None, :] * np.conj(window.samples[shift])
    return grid.dx * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(windowed, axes=1), axis=1), axes=1
    )


def vdot_gram(signals, windows):
    """G[a, b] = dx dxi vdot(V_b, V_a) from dense oracle matrices."""
    grid = signals[0].grid
    mats = [dense_oracle(f, w) for f, w in zip(signals, windows)]
    return grid.dx * grid.dxi * np.array([[np.vdot(b, a) for b in mats] for a in mats])


def moyal_residual(f, g, phi, psi):
    """|<V_phi f, V_psi g> - 2 pi <psi, phi> <f, g>| over the four L2 norms."""
    lhs = stft_gram([f, g], [phi, psi])[0, 1]
    rhs = 2.0 * math.pi * inner_product(psi, phi) * inner_product(f, g)
    return abs(lhs - rhs) / math.prod(weighted_lp_norm(h, 2.0) for h in (f, g, phi, psi))


def identity_ratio(f, window):
    """(integral |V f|^2)^(1/2) / ||f||_2, which equals sqrt(2 pi) ||window||_2."""
    return math.sqrt(stft_gram([f], window)[0, 0].real) / weighted_lp_norm(f, 2.0)


def modulation_norm_stft(f, p, q, s, window):
    """Direct time-frequency modulation norm, by tensor quadrature over the STFT.

    An independent cross-check of the block norm: each span of STFT rows
    leaves its per-frequency partial L^p sum over x (or maximum), and the
    partials are combined in span order, so no n x n array is formed.
    """
    grid = f.grid
    partials = {}

    def partial(j0, rows):
        mags = np.abs(rows[0])
        if math.isinf(p):
            partials[j0] = np.max(mags, axis=0)
        else:
            mags **= p
            partials[j0] = np.sum(mags, axis=0)

    _stft_rows([f], [window], partial)
    in_order = [partials[j0] for j0 in sorted(partials)]
    if math.isinf(p):
        per_xi = np.max(in_order, axis=0)
    else:
        per_xi = np.zeros(grid.n)
        for part in in_order:
            per_xi += part
        per_xi = (grid.dx * per_xi) ** (1.0 / p)
    per_xi = np.fft.fftshift(per_xi)  # span columns come in FFT order
    weighted = (1.0 + grid.frequencies() ** 2) ** (s / 2.0) * per_xi
    if math.isinf(q):
        return float(np.max(weighted))
    return float((grid.dxi * np.sum(weighted**q)) ** (1.0 / q))


def span_rows(monkeypatch, rows, stack, n):
    """Shrink the spans so that a pass over `stack` signals takes `rows` rows per span."""
    monkeypatch.setattr(grid_module, "_SPAN", rows * stack * n)


@pytest.fixture
def two_cpu_pool(monkeypatch):
    """Two CPUs, so a span pool of two threads."""
    monkeypatch.setattr(grid_module, "_cpu_count", lambda: 2)


class TestStftValues:
    def test_gaussian_closed_form(self):
        # With f = window = exp(-t^2/2), completing the square gives
        # V(x, xi) = sqrt(pi) exp(-i x xi / 2) exp(-(x^2 + xi^2)/4).
        g = gaussian(GRID)
        tfm = stft(g, g)
        x = GRID.points()[:, None]
        xi = GRID.frequencies()[None, :]
        expected = (
            math.sqrt(math.pi)
            * np.exp(-1j * x * xi / 2.0)
            * np.exp(-(x**2 + xi**2) / 4.0)
        )
        assert np.max(np.abs(tfm.values - expected)) <= 1e-8

    def test_zero_signal(self):
        tfm = stft(SampledSignal.zero(GRID), gaussian_window(GRID))
        assert np.all(tfm.values == 0)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            stft(gaussian(GRID), SampledSignal.zero(GRID))

    def test_cost_gate(self):
        big = Grid(8192, 20.0)
        with pytest.raises(CostGateError):
            stft(gaussian(big), gaussian_window(big))

    def test_agrees_with_convolution_form(self):
        # V f(x, xi) = exp(-i x xi) (f * M_xi window~)(x), window~(t) = conj(window(-t))
        f = band_limited(GRID, seed=9)
        w = gaussian_window(GRID)
        tfm = stft(f, w)
        x = GRID.points()
        xi_all = GRID.frequencies()
        wconj = np.conj(w.samples[::-1])
        wconj = np.roll(wconj, 1)  # align reversal with the grid convention
        for k in [GRID.n // 2 - 64, GRID.n // 2, GRID.n // 2 + 17]:
            xi = xi_all[k]
            modulated = SampledSignal(GRID, np.exp(1j * xi * x) * wconj)
            row = np.exp(-1j * x * xi) * convolve(f, modulated).samples
            assert np.max(np.abs(row - tfm.values[:, k])) <= 1e-8 * max(
                1.0, np.max(np.abs(tfm.values))
            )


class TestCovariance:
    def test_modulation_covariance(self):
        f = band_limited(GRID, seed=21)
        w = gaussian_window(GRID)
        shift = 40  # eta = shift * dxi, grid aligned
        eta = shift * GRID.dxi
        mod = SampledSignal(GRID, np.exp(1j * eta * GRID.points()) * f.samples)
        lhs = np.abs(stft(mod, w).values)
        rhs = np.roll(np.abs(stft(f, w).values), shift, axis=1)
        interior = slice(64, GRID.n - 64)
        scale = np.max(rhs)
        assert np.max(np.abs(lhs[:, interior] - rhs[:, interior])) <= 1e-8 * scale

    def test_translation_covariance(self):
        f = band_limited(GRID, seed=22)
        w = gaussian_window(GRID)
        shift = 25  # u = shift * dx, grid aligned
        trans = SampledSignal(GRID, np.roll(f.samples, shift))
        lhs = np.abs(stft(trans, w).values)
        rhs = np.roll(np.abs(stft(f, w).values), shift, axis=0)
        interior = slice(64, GRID.n - 64)
        scale = np.max(rhs)
        assert np.max(np.abs(lhs[interior, :] - rhs[interior, :])) <= 1e-8 * scale


class TestMoyal:
    def test_gaussian_quadruple(self):
        g = gaussian(GRID)
        assert moyal_residual(g, g, g, g) <= 1e-6

    def test_orthogonal_pair(self):
        f = gaussian(GRID)
        g = SampledSignal.from_function(GRID, lambda x: x * np.exp(-(x**2) / 2.0))
        w = gaussian_window(GRID)
        assert moyal_residual(f, g, w, w) <= 1e-6

    def test_scaling_leaves_residual_unchanged(self):
        f = band_limited(GRID, seed=31)
        g = band_limited(GRID, seed=32)
        w = gaussian_window(GRID)
        r1 = moyal_residual(f, g, w, w)
        r2 = moyal_residual(2.0 * f, g, w, w)
        assert abs(r1 - r2) <= 1e-12 + 1e-6 * r1

    def test_mixed_windows(self):
        f = band_limited(GRID, seed=33)
        g = band_limited(GRID, seed=34)
        phi = gaussian_window(GRID)
        psi = gaussian(GRID, width=1.5)
        assert moyal_residual(f, g, phi, psi) <= 1e-6


class TestIdentityRatio:
    def test_gaussian_window_constant(self):
        w = gaussian_window(GRID)
        expected = math.sqrt(2.0 * math.pi) * math.pi**0.25
        for seed in [41, 42]:
            f = band_limited(GRID, seed=seed)
            ratio = identity_ratio(f, w)
            assert abs(ratio - expected) <= 1e-6 * expected

    def test_ratio_independent_of_signal(self):
        w = gaussian_window(GRID)
        ratios = [
            identity_ratio(band_limited(GRID, seed=s), w) for s in range(50, 60)
        ]
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread <= 1e-6

    def test_ratio_linear_in_window(self):
        f = band_limited(GRID, seed=61)
        w = gaussian_window(GRID)
        r1 = identity_ratio(f, w)
        r3 = identity_ratio(f, 3.0 * w)
        assert r3 == pytest.approx(3.0 * r1, rel=1e-12)


class TestChunkedPasses:
    @pytest.mark.parametrize("rows", [None, 7, 160])
    def test_dense_matrix_bitwise_equals_oracle(self, monkeypatch, rows):
        # 7 and 160 do not divide n = 1024, so the last span is short.
        if rows is not None:
            span_rows(monkeypatch, rows, 1, GRID.n)
        f = band_limited(GRID, seed=71)
        w = gaussian(GRID, width=1.3)
        assert stft(f, w).values.tobytes() == dense_oracle(f, w).tobytes()

    @pytest.mark.parametrize("rows", [None, 5])
    def test_gram_matches_vdot_oracle(self, monkeypatch, rows):
        grid = Grid(512, 20.0)
        signals = [band_limited(grid, seed=s) for s in (81, 82, 83)]
        signals.append(gaussian(grid, width=0.7))
        if rows is not None:
            span_rows(monkeypatch, rows, len(signals), grid.n)
        w = gaussian_window(grid)
        oracle = vdot_gram(signals, [w] * len(signals))
        gram = stft_gram(signals, w)
        assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_gram_with_one_window_per_signal(self, monkeypatch):
        grid = Grid(256, 16.0)
        signals = [band_limited(grid, seed=84), band_limited(grid, seed=85)]
        windows = [gaussian_window(grid), gaussian(grid, width=1.5)]
        span_rows(monkeypatch, 3, len(signals), grid.n)
        oracle = vdot_gram(signals, windows)
        gram = stft_gram(signals, windows)
        assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_gram_bits_do_not_depend_on_spans_or_cpus(self, monkeypatch):
        # The corpus at n = 512 in spans of 1, 5 and 7 rows (5 and 7 do not
        # divide n) and the default span, at 1 and 3 CPUs, and once more
        # with the spans run last first, so that they finish in reverse row
        # order: every Gram has the same bits.
        grid = Grid(512, 30.0)
        signals = [signal for _, signal in make_corpus(grid, seed=0)]
        window = gaussian_window(grid)
        default = grid_module._SPAN
        grams = set()
        for cpus in (1, 3):
            monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
            for rows in (1, 5, 7, None):
                span = default if rows is None else rows * len(signals) * grid.n
                monkeypatch.setattr(grid_module, "_SPAN", span)
                grams.add(stft_gram(signals, window).tobytes())

        def last_first(fn, count, size):
            span = max(1, grid_module._SPAN // size)
            for lo in reversed(range(0, count, span)):
                fn(lo, min(lo + span, count))

        monkeypatch.setattr(stft_module, "_each_span", last_first)
        grams.add(stft_gram(signals, window).tobytes())
        assert len(grams) == 1

    @pytest.mark.parametrize(
        "p, q, s", [(1.0, 1.0, 0.0), (2.0, 1.5, 1.0), (math.inf, 1.0, 0.5), (1.5, math.inf, 0.0)]
    )
    def test_modulation_norm_stft_matches_dense_quadrature(self, monkeypatch, p, q, s):
        span_rows(monkeypatch, 7, 1, GRID.n)
        f = band_limited(GRID, seed=87)
        w = gaussian_window(GRID)
        mags = np.abs(dense_oracle(f, w))
        if math.isinf(p):
            per_xi = np.max(mags, axis=0)
        else:
            per_xi = (GRID.dx * np.sum(mags**p, axis=0)) ** (1.0 / p)
        weighted = (1.0 + GRID.frequencies() ** 2) ** (s / 2.0) * per_xi
        if math.isinf(q):
            expected = np.max(weighted)
        else:
            expected = (GRID.dxi * np.sum(weighted**q)) ** (1.0 / q)
        assert modulation_norm_stft(f, p, q, s, w) == pytest.approx(expected, rel=1e-12)

    def test_gram_rejects_window_count(self):
        f = band_limited(GRID, seed=86)
        w = gaussian_window(GRID)
        with pytest.raises(ValueError, match="one window"):
            stft_gram([f, f, f], [w, w])

    def test_gram_shares_the_size_gate(self):
        big = Grid(8192, 20.0)
        with pytest.raises(CostGateError):
            stft_gram([gaussian(big)], gaussian_window(big))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([256, 512]),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        fraction=st.floats(0.05, 0.8),
        widths=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    )
    def test_moyal_identity_property(self, n, seeds, fraction, widths):
        grid = Grid(n, 16.0)
        f = band_limited(grid, seed=seeds[0], fraction=fraction)
        g = band_limited(grid, seed=seeds[1], fraction=fraction)
        phi, psi = (gaussian(grid, width=w) for w in widths)
        assert moyal_residual(f, g, phi, psi) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([256, 512, 1024, 2048, 4096]),
        L=st.floats(4.0, 40.0),
        where=st.floats(0.0, 1.0),
        count=st.integers(1, 16),
    )
    def test_exact_phase_closed_form_matches_float_phase(self, n, L, where, count):
        # The stft experiment's closed form takes its phase from a table of
        # roots of unity at exact integer indices; the float-phase form
        # evaluates exp(-i x xi / 2) on the products of grid points.
        grid = Grid(n, L)
        j0 = min(int(where * n), n - count)
        x = grid.points()[j0 : j0 + count, None]
        xi = np.fft.ifftshift(grid.frequencies())[None, :]  # FFT column order
        float_phase = (
            math.sqrt(math.pi) * np.exp(-1j * x * xi / 2.0) * np.exp(-(x**2 + xi**2) / 4.0)
        )
        exact = _gaussian_closed_form(grid)(j0, j0 + count)
        assert np.max(np.abs(exact - float_phase)) <= 1e-14

    def test_matrix_dump_bytes_equal_dense_savetxt(self, monkeypatch, tmp_path):
        # Spans of 5 rows, which does not divide 512.
        n = 512
        span_rows(monkeypatch, 5, 1, n)
        streamed = tmp_path / "streamed.csv"
        report = stft_experiment(n=n, L=20.0, dump_matrix=str(streamed))
        assert report.all_passed
        g = gaussian_window(Grid(n, 20.0))
        dense = tmp_path / "dense.csv"
        np.savetxt(dense, np.abs(dense_oracle(g, g)), delimiter=",", fmt="%.17g")
        assert streamed.read_bytes() == dense.read_bytes()


class TestSpanHook:
    """The per-span hook of _stft_rows, what is checked before it runs, and its memory."""

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_hook_sees_each_final_row_once(self, monkeypatch, cpus):
        # Spans of 7 rows, which does not divide n = 1024.
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        span_rows(monkeypatch, 7, 1, GRID.n)
        f = band_limited(GRID, seed=72)
        w = gaussian(GRID, width=1.3)
        seen = np.zeros(GRID.n, dtype=int)
        plane = np.empty((GRID.n, GRID.n), dtype=complex)

        def hook(j0, rows):
            assert rows.shape[:2] == (1, min(7, GRID.n - j0))
            seen[j0 : j0 + 7] += 1
            plane[j0 : j0 + 7] = rows[0]

        _stft_rows([f], [w], hook)
        assert np.all(seen == 1)
        assert np.fft.fftshift(plane, axes=-1).tobytes() == dense_oracle(f, w).tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_hook_error_reaches_the_consumer(self, monkeypatch, cpus):
        # n = 1024 rows in spans of 64: the second span fails.
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        span_rows(monkeypatch, 64, 1, GRID.n)
        g = gaussian(GRID)

        def hook(j0, rows):
            if j0 + rows.shape[1] > 100:
                raise RuntimeError("hook failed")

        with pytest.raises(RuntimeError, match="hook failed"):
            _stft_rows([g], [g], hook)

    def test_bad_inputs_raise_before_any_chunk(self, monkeypatch):
        def no_span(*args):
            raise AssertionError("a span was computed")

        monkeypatch.setattr(stft_module, "_each_span", no_span)
        f = band_limited(GRID, seed=73)
        w = gaussian_window(GRID)
        zero = SampledSignal.zero(GRID)
        big = Grid(8192, 20.0)
        with pytest.raises(ValueError, match="nonzero"):
            _stft_rows([f], [zero], no_span)
        with pytest.raises(ValueError, match="nonzero"):
            stft_gram([f, f], [w, zero])
        with pytest.raises(ValueError, match="one window"):
            _stft_rows([f, f, f], [w, w], no_span)
        for windows in (w, [w], []):
            with pytest.raises(ValueError, match="at least one signal"):
                stft_gram([], windows)
        with pytest.raises(CostGateError):
            _stft_rows([gaussian(big)], [gaussian_window(big)], no_span)
        with pytest.raises(CostGateError):
            stft_gram([gaussian(big)], gaussian_window(big))
        with pytest.raises(CostGateError):
            stft_experiment(n=8192)

    def test_gram_peak_stays_within_span_buffers(self, two_cpu_pool):
        # The 12-signal corpus at n = 2048: each of the two pool threads
        # holds one span of rows (2 MiB at 2^17 samples) and its 12 x 12
        # per-row Grams, which are added to the running total as the spans
        # finish.  The rest (the stacked and shifted signals, 0.75 MiB, the
        # span futures and a fresh pool's start-up) stays under one more span
        # per thread: 5.4 MiB measured, 6.1 MiB on a new pool.  An (n, 12, 12)
        # array of per-row Grams (4.5 MiB) or a conjugated copy of each span
        # (2 MiB per thread) breaks the bound.
        grid = Grid(2048, 30.0)
        signals = [signal for _, signal in make_corpus(grid, seed=0)]
        window = gaussian_window(grid)
        span_bytes = 16 * grid_module._SPAN
        tracemalloc.start()
        try:
            stft_gram(signals, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(signals) == 12 and span_bytes == 2 << 20
        assert peak <= 2 * 2 * span_bytes

    def test_experiment_peak_stays_within_span_buffers(self, two_cpu_pool):
        # The closed form is checked span by span in the hook.  Each of the
        # two pool threads holds its span of rows, the closed form and the
        # difference in one span-sized buffer, and half a span more (the
        # integer phase indices, then |v - closed|): 2.5 spans.  The rest,
        # n-length tables and a fresh pool's start-up, stays under half a
        # span per thread: 10.4 MiB measured, 11.1 MiB on a new pool.  A
        # phase evaluated as a complex exponential of the span breaks it.
        span_bytes = 16 * grid_module._SPAN
        tracemalloc.start()
        try:
            report = stft_experiment(n=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert span_bytes == 2 << 20
        assert peak <= 2 * 3 * span_bytes


def test_package_attribute_is_the_module():
    # The package root re-exports no name `stft`, so the submodule stays visible.
    import tfnorms

    assert isinstance(stft_module, types.ModuleType)
    assert tfnorms.stft is stft_module
    assert stft_module.stft is stft
