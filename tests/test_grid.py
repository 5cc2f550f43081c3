"""Fourier core: transform pair, convolution, quadrature, inner products."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfnorms.compose import resample_progression
from tfnorms.errors import GridMismatchError
import tfnorms.grid as grid_module
from tfnorms.grid import (
    _centered_transform,
    _split_sum,
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    convolve,
    fourier_forward,
    fourier_inverse,
    inner_product,
    support_leakage,
    weighted_lp_norm,
)

GRID = Grid(4096, 20.0)


def spec_from_json(d: dict) -> NormSpec:
    """The NormSpec whose to_json_dict() is d."""

    def dec(v):
        return math.inf if v == "inf" else float(v)

    return NormSpec(Space(d["space"]), p=dec(d["p"]), q=dec(d["q"]), s=float(d["s"]))


def gaussian(grid, width=1.0):
    return SampledSignal.from_function(grid, lambda x: np.exp(-(x**2) / (2.0 * width**2)))


def band_limited(grid, seed, fraction=0.5):
    """Random signal whose spectrum sits well inside the frequency grid."""
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    cutoff = fraction * grid.nyquist
    envelope = np.exp(-((xi / cutoff) ** 2) * 8.0) * (np.abs(xi) < cutoff)
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return fourier_inverse(SampledSignal(grid.dual(), coeffs))


class TestGrid:
    def test_spacing_identity(self):
        for n, L in [(8, 1.0), (4096, 20.0), (1024, 16 * math.pi)]:
            g = Grid(n, L)
            assert abs(g.dx * g.dxi * n - 2.0 * math.pi) < 1e-12

    def test_rejects_bad_sample_counts(self):
        for n in [7, 12, 4]:
            with pytest.raises(ValueError):
                Grid(n, 1.0)

    def test_dual_involution(self):
        g = Grid(256, 11.5)
        assert g.dual().dual().compatible(g)
        assert np.allclose(g.dual().points(), g.frequencies())


class TestSampledSignal:
    def test_rejects_non_finite(self):
        bad = np.ones(GRID.n, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            SampledSignal(GRID, bad)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SampledSignal(GRID, np.ones(GRID.n - 1))

    def test_samples_frozen(self):
        f = gaussian(GRID)
        with pytest.raises(ValueError):
            f.samples[0] = 1.0


class TestForward:
    def test_gaussian_pair(self):
        # F[exp(-x^2/2)](xi) = sqrt(2 pi) exp(-xi^2/2)
        fh = fourier_forward(gaussian(GRID))
        expected = math.sqrt(2.0 * math.pi) * np.exp(-GRID.frequencies() ** 2 / 2.0)
        assert np.max(np.abs(fh.samples - expected)) <= 1e-8

    def test_zero_maps_to_zero(self):
        fh = fourier_forward(SampledSignal.zero(GRID))
        assert np.all(fh.samples == 0)

    def test_modulated_gaussian(self):
        # cos(3x) splits the Gaussian line into two shifted copies.
        f = SampledSignal.from_function(GRID, lambda x: np.exp(-(x**2) / 2.0) * np.cos(3.0 * x))
        xi = GRID.frequencies()
        expected = (
            math.sqrt(2.0 * math.pi)
            / 2.0
            * (np.exp(-((xi - 3.0) ** 2) / 2.0) + np.exp(-((xi + 3.0) ** 2) / 2.0))
        )
        assert np.max(np.abs(fourier_forward(f).samples - expected)) <= 1e-8


class TestInverse:
    def test_round_trip_band_limited(self):
        f = band_limited(GRID, seed=7)
        back = fourier_inverse(fourier_forward(f))
        scale = np.max(np.abs(f.samples))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-10 * scale

    def test_gaussian_pair(self):
        h = SampledSignal.from_function(
            GRID.dual(), lambda xi: math.sqrt(2.0 * math.pi) * np.exp(-(xi**2) / 2.0)
        )
        back = fourier_inverse(h)
        expected = np.exp(-GRID.points() ** 2 / 2.0)
        assert np.max(np.abs(back.samples - expected)) <= 1e-10

    def test_linearity(self):
        h = fourier_forward(band_limited(GRID, seed=3))
        # Scaling by a power of two commutes exactly with rounding.
        left = fourier_inverse(2.0 * h)
        right = 2.0 * fourier_inverse(h)
        assert np.array_equal(left.samples, right.samples)
        a = 2.5 - 0.5j
        left = fourier_inverse(a * h).samples
        right = (a * fourier_inverse(h)).samples
        assert np.max(np.abs(left - right)) <= 1e-14 * np.max(np.abs(right))


class TestConvolve:
    def test_gaussian_identity(self):
        # exp(-x^2) * exp(-x^2) = sqrt(pi/2) exp(-x^2/2)
        f = SampledSignal.from_function(GRID, lambda x: np.exp(-(x**2)))
        conv = convolve(f, f)
        expected = math.sqrt(math.pi / 2.0) * np.exp(-GRID.points() ** 2 / 2.0)
        assert np.max(np.abs(conv.samples - expected)) <= 1e-10

    def test_zero_annihilates(self):
        f = gaussian(GRID)
        conv = convolve(f, SampledSignal.zero(GRID))
        assert np.all(conv.samples == 0)

    def test_transform_of_convolution(self):
        f = band_limited(GRID, seed=1)
        g = band_limited(GRID, seed=2)
        lhs = fourier_forward(convolve(f, g)).samples
        rhs = fourier_forward(f).samples * fourier_forward(g).samples
        bound = 1e-8 * np.max(np.abs(rhs)) + 1e-14
        assert np.max(np.abs(lhs - rhs)) <= bound

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            convolve(gaussian(GRID), gaussian(Grid(2048, 20.0)))


class TestWeightedNorm:
    def test_gaussian_l2(self):
        assert abs(weighted_lp_norm(gaussian(GRID), 2.0) - math.pi**0.25) <= 1e-10

    def test_zero_signal(self):
        assert weighted_lp_norm(SampledSignal.zero(GRID), 1.5, s=2.0) == 0.0

    def test_weighted_l1_against_refined_trapezoid(self):
        # Independent oracle: Richardson-extrapolated trapezoid at 4x and 8x
        # resolution for integral <x> exp(-x^2/2) dx.
        value = weighted_lp_norm(gaussian(GRID), 1.0, s=1.0)

        def trapz(factor):
            m = GRID.n * factor
            x = np.linspace(-GRID.half_width, GRID.half_width, m + 1)
            y = np.sqrt(1.0 + x * x) * np.exp(-(x**2) / 2.0)
            return np.trapezoid(y, x)

        t4, t8 = trapz(4), trapz(8)
        oracle = t8 + (t8 - t4) / 3.0
        assert abs(value - oracle) <= 1e-6 * oracle

    def test_norm_axioms(self):
        rng = np.random.default_rng(0)
        for trial in range(4):
            f = band_limited(GRID, seed=10 + trial)
            g = band_limited(GRID, seed=20 + trial)
            a = complex(rng.standard_normal(), rng.standard_normal())
            for p, s in [(1.0, 0.0), (2.0, 1.0), (math.inf, 0.5)]:
                nf = weighted_lp_norm(f, p, s)
                ng = weighted_lp_norm(g, p, s)
                nsum = weighted_lp_norm(f + g, p, s)
                assert nsum <= nf + ng + 1e-12 * (nf + ng)
                assert abs(weighted_lp_norm(a * f, p, s) - abs(a) * nf) <= 1e-12 * abs(a) * nf

    def test_infinity_norm_is_grid_max(self):
        f = gaussian(GRID)
        assert weighted_lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 128, 4096, 1 << 16])
    @pytest.mark.parametrize("p, s", [(1.0, 0.0), (1.5, 0.5), (3.0, 0.0), (math.inf, 0.5)])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_spans_match_one_full_length_pass(self, monkeypatch, n, p, s, cpus):
        # Spans of two leaves of 128 samples, and the pass over all n samples
        # that the spans replace.
        monkeypatch.setattr(grid_module, "_SPAN", 256)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        f = band_limited(Grid(n, 7.3), seed=n)
        weighted = np.abs(f.samples)
        if s != 0.0:
            x = f.grid.points()
            weighted *= (1.0 + x * x) ** (s / 2.0)
        if math.isinf(p):
            expected = float(np.max(weighted))
        else:
            weighted **= p
            expected = float((f.grid.dx * np.sum(weighted)) ** (1.0 / p))
        assert weighted_lp_norm(f, p, s) == expected

    @pytest.mark.parametrize("p, s", [(1.0, 0.0), (1.5, 0.5), (math.inf, 0.0)])
    def test_holds_no_array_of_the_grid_length(self, monkeypatch, p, s):
        # One CPU and spans of 2^14 samples at n = 2^20: the spans' |f|,
        # weights and powers, and n / 128 leaf sums, stay under an eighth of
        # one float array of the grid's length (0.07 of it measured; the
        # full-length pass held 1 to 4 such arrays).
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 14)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 1)
        f = band_limited(Grid(1 << 20, 20.0), seed=4)
        tracemalloc.start()
        try:
            weighted_lp_norm(f, p, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * f.grid.n / 8

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_peak_is_one_float_array(self, p):
        # At the default spans no more than one float array of the grid's length.
        f = band_limited(Grid(1 << 16, 20.0), seed=3)
        tracemalloc.start()
        try:
            weighted_lp_norm(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * f.grid.n


@st.composite
def grid_signals(draw):
    """A random complex signal on a grid with n from 2^3 to 2^14."""
    n = 1 << draw(st.integers(3, 14))
    half_width = draw(st.sampled_from([1.0, 7.3, 16.0 * math.pi, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SampledSignal(Grid(n, half_width), samples)


class TestPairwiseTotal:
    """numpy's sum of m floats is the sums of its parts added along its split.

    The span-wise norms rest on this; if a numpy release changes the order
    of its pairwise sum, these tests fail and the norms' bits may move.
    """

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_leaf_sums_give_numpys_sum(self, monkeypatch, p):
        # _split_sum's parts are whole leaves of numpy's pairwise sum, and
        # whole rows: a size of _SPAN / (n / 256) samples a value gives parts
        # of max(row, 128, n / 256) values, one span each.
        rng = np.random.default_rng(int(10 * p))
        for cpus in (1, 3):
            monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
            for log_n in range(3, 23):
                n = 1 << log_n
                values = rng.random(n) ** p
                total, peak = np.sum(values), np.max(values)
                size = max(1, grid_module._SPAN * 256 // n)
                for row in (r for r in (1, 32, 1024) if r <= n):
                    parts = []

                    def read(lo, hi):
                        parts.append((lo, hi))
                        return (values[lo:hi],)

                    sums = _split_sum(read, n, size, row)
                    assert sums.tolist() == [[total]], f"numpy's pairwise sum changed at n = {n}"
                    assert _split_sum(read, n, size, row, maximum=True).tolist() == [[peak]]
                    assert all(lo % row == hi % row == 0 for lo, hi in parts), f"n = {n}"
                    # A part of a fold's values is a (1, rows, M) block.
                    block = values.reshape(1, n // row, row)
                    assert np.sum(block) == total, f"n = {n}, M = {row}"

    @pytest.mark.parametrize("count, outputs", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_leaf_reduce_gives_numpys_reduction_of_each_run(self, monkeypatch, count, outputs, cpus):
        # _split_sum over `count` runs laid end to end.  A budget of 2^12
        # samples, 2 a value: runs of n <= max(row, 2^11) values go whole
        # into spans, and larger runs in parts of whole rows, one run each.
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 12)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        rng = np.random.default_rng(count + outputs)
        for log_n in range(3, 21):
            n = 1 << log_n
            runs = rng.random((outputs, count * n))
            runs **= 1.5
            sums = [[np.sum(run) for run in output.reshape(count, n)] for output in runs]
            maxima = [[np.max(run) for run in output.reshape(count, n)] for output in runs]
            for row in (r for r in (1, 32, 1024) if r <= n):
                most = max(row, grid_module._LEAF, grid_module._SPAN // 2)
                reads = []

                def values(lo, hi):
                    reads.append((lo, hi))
                    return runs[:, lo:hi]

                for maximum, expected in ((False, sums), (True, maxima)):
                    got = _split_sum(values, n, 2, row, maximum, runs=count)
                    assert got.tolist() == expected, f"n = {n}, row = {row}"
                # Whole runs, or parts of whole rows of one run: each value
                # read once a reduction.
                if n <= most:
                    assert all(lo % n == hi % n == 0 for lo, hi in reads)
                else:
                    assert all(lo // n == (hi - 1) // n for lo, hi in reads)
                    assert all(lo % row == hi % row == 0 for lo, hi in reads)
                    assert all(hi - lo <= most for lo, hi in reads)
                assert sum(hi - lo for lo, hi in reads) == 2 * count * n

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 7), st.integers(8, 128), st.integers(129, 3 * 10**6)),
        size=st.sampled_from([1, 4, 1 << 10, 1 << 17]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=999998, size=4, seed=0)  # counterexample-l2's direct terms
    @example(n=3 * 10**6 - 3, size=1, seed=2)
    @example(n=1001, size=1 << 17, seed=1)  # no multiple of 8, parts of 128 values
    def test_split_sum_gives_numpys_sum(self, n, size, seed):
        # numpy splits m > 128 values at m / 2 rounded down to a multiple of
        # 8; _split_sum follows that split down to parts of at most
        # max(128, _SPAN // size) values, each one np.sum.
        values = np.random.default_rng(seed).random(n) ** 1.5
        most = max(grid_module._LEAF, grid_module._SPAN // size)
        parts = []

        def read(lo, hi):
            parts.append((lo, hi))
            return (values[lo:hi],)

        assert _split_sum(read, n, size).tolist() == [[np.sum(values)]]
        parts.sort()  # pool threads may read the parts in any order
        assert [lo for lo, _ in parts] == [0, *(hi for _, hi in parts[:-1])]
        assert parts[-1][1] == n and all(hi - lo <= most for lo, hi in parts)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pieces_sharing_a_leaf_give_numpys_sum(self, monkeypatch, cpus):
        # Translates placed on a grid of 2^12 points, two of them in one
        # 128-value leaf, one across a part boundary, in parts of 256
        # values: the parts that no translate meets are empty.
        monkeypatch.setattr(grid_module, "_SPAN", 256)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        base = np.random.default_rng(5).random(10) ** 1.5
        starts, weights = np.array([0, grid_module._LEAF - 15, 250, 3000]), [1.0, -0.5, 2.0, 0.25]
        dense = np.zeros(1 << 12)
        for start, w in zip(starts, weights):
            dense[start : start + base.size] = np.abs(w * base)

        def values(a, b):
            # The slices of the translates that meet [a, b), each computed on
            # its own; a part that none meets is an empty array.
            meets = [(s, w) for s, w in zip(starts, weights) if s < b and s + base.size > a]
            out = np.zeros(b - a if meets else 0)
            for s, w in meets:
                s0, s1 = max(a, s), min(b, s + base.size)
                out[s0 - a : s1 - a] = np.abs(w * base[s0 - s : s1 - s])
            return (out,)

        assert _split_sum(values, dense.size, 1).tolist() == [[np.sum(dense)]]
        assert values(1024, 1280)[0].size == 0


class TestAgainstShiftFormulas:
    """The half-swapping transforms and the weight-free sum change no bit."""

    @settings(max_examples=60, deadline=None)
    @given(grid_signals())
    def test_transforms_bitwise(self, f):
        x, grid = f.samples, f.grid
        forward = grid.dx * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x)))
        inverse = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(x))) / grid.dual().dx
        assert fourier_forward(f).samples.tobytes() == forward.tobytes()
        assert fourier_inverse(f).samples.tobytes() == inverse.tobytes()

    @pytest.mark.parametrize("log_n", range(1, 17))
    def test_in_place_inverse_bitwise(self, log_n):
        # The centered inverse transforms its swapped copy of the input in
        # place: bitwise the shift formula at every even length, including
        # those below a grid's 8 samples, and the input stays as it was.
        n = 1 << log_n
        rng = np.random.default_rng(log_n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        before = x.tobytes()
        out = _centered_transform(x, np.fft.ifft)
        assert out is not x and x.tobytes() == before
        assert out.tobytes() == np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(x))).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        grid_signals(),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_weighted_lp_norm_bitwise(self, f, p, s):
        x = f.grid.points()
        weight = np.ones_like(x) if s == 0.0 else (1.0 + x * x) ** (s / 2.0)
        weighted = weight * np.abs(f.samples)
        if math.isinf(p):
            expected = float(np.max(weighted))
        else:
            expected = float((f.grid.dx * np.sum(weighted**p)) ** (1.0 / p))
        assert weighted_lp_norm(f, p, s) == expected


class TestInnerProduct:
    def test_self_pairing_is_squared_norm(self):
        f = band_limited(GRID, seed=5)
        ip = inner_product(f, f)
        assert ip.imag == pytest.approx(0.0, abs=1e-12 * ip.real)
        assert ip.real == pytest.approx(weighted_lp_norm(f, 2.0) ** 2, rel=1e-12)

    def test_even_odd_orthogonality(self):
        f = gaussian(GRID)
        g = SampledSignal.from_function(GRID, lambda x: x * np.exp(-(x**2) / 2.0))
        assert abs(inner_product(f, g)) <= 1e-12

    def test_parseval(self):
        f = band_limited(GRID, seed=11)
        g = band_limited(GRID, seed=12)
        lhs = inner_product(f, g)
        rhs = inner_product(fourier_forward(f), fourier_forward(g)) / (2.0 * math.pi)
        bound = 1e-8 * weighted_lp_norm(f, 2.0) * weighted_lp_norm(g, 2.0)
        assert abs(lhs - rhs) <= bound

    def test_conjugate_linearity_second_slot(self):
        f = band_limited(GRID, seed=13)
        g = band_limited(GRID, seed=14)
        a = 1.5 + 0.25j
        assert inner_product(f, a * g) == pytest.approx(np.conj(a) * inner_product(f, g))


class TestResample:
    def test_matches_closed_form_gaussian(self):
        f = gaussian(GRID)
        pts = -5.0 + 0.123456 + 0.1 * np.arange(101)
        values = resample_progression(f, pts[0], 0.1, pts.size)
        assert np.max(np.abs(values - np.exp(-(pts**2) / 2.0))) <= 1e-14

    def test_reproduces_grid_samples(self):
        f = band_limited(GRID, seed=4)
        values = resample_progression(f, GRID.points()[100], GRID.dx, 10)
        assert np.max(np.abs(values - f.samples[100:110])) <= 1e-13 * np.max(np.abs(f.samples))


class TestSupportLeakage:
    def test_centered_bump_has_tiny_leakage(self):
        assert support_leakage(gaussian(GRID)) <= 1e-12

    def test_edge_mass_is_flagged(self):
        f = SampledSignal.from_function(
            GRID, lambda x: np.exp(-((x - 19.0) ** 2) * 4.0)
        )
        assert support_leakage(f) > 1e-3


class TestNormSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec.modulation(0.5, 1.0)
        with pytest.raises(ValueError):
            NormSpec.modulation(2.0, 1.0, s=-1.0)

    def test_algebra_regime(self):
        assert NormSpec.modulation(2.0, 1.0, 0.0).in_algebra_regime()
        assert NormSpec.modulation(2.0, 2.0, 0.75).in_algebra_regime()
        assert not NormSpec.modulation(2.0, 2.0, 0.25).in_algebra_regime()
        assert not NormSpec.fourier_beurling(0.0).in_algebra_regime()

    def test_json_round_trip(self):
        spec = NormSpec.modulation(math.inf, 1.0, 0.5)
        again = spec_from_json(spec.to_json_dict())
        assert again == spec
        assert again.space is Space.MODULATION
