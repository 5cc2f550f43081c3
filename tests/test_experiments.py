"""Experiment-level checks, on light configurations where that is sound."""

import hashlib
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfnorms.grid as grid_module
from tfnorms import compose, experiments, norms
from tfnorms.corpus import make_corpus
from tfnorms.errors import CostGateError
from tfnorms.grid import (
    Grid,
    NormSpec,
    SampledSignal,
    convolve,
    fourier_forward,
    fourier_inverse,
    weighted_lp_norm,
)
from tfnorms.experiments import (
    PARTITION_L,
    algebra_sweep,
    approx_unit_experiment,
    bupu_experiment,
    counterexample_l2,
    embedding_sweep,
    flat_measurement,
    measured_algebra_constant,
    plateau_experiment,
    rudin_shapiro_experiment,
    stft_experiment,
    translation_bound_experiment,
    _exp_integral_e1,
    _series_partial,
)
from tfnorms.measures import (
    Normalization,
    rudin_shapiro,
    rudin_shapiro_sup,
    rudin_shapiro_transforms,
)
from tfnorms.norms import partition_for
from tfnorms.partition import bump_profile, frequency_block
from tfnorms.stft import gaussian_window, stft
from tfnorms.windows import plateau_window

from test_norms import spectrum_norm


class TestSeriesSums:
    def test_direct_matches_euler_maclaurin(self):
        # same partial sum computed directly and via the closed-form segment
        for kind in ("mod", "beurling", "l2"):
            direct = _series_partial(kind, 3, 2 * 10**6, direct_limit=2 * 10**6)
            hybrid = _series_partial(kind, 3, 2 * 10**6, direct_limit=10**5)
            assert direct == pytest.approx(hybrid, rel=1e-10)

    @pytest.mark.parametrize("kind", ["mod", "beurling", "l2"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_direct_part_holds_one_budget_per_cpu(self, monkeypatch, kind, cpus):
        # The 10^6 direct terms are summed in the parts of grid._split_sum,
        # one span each, holding k, its logarithm and two temporaries: one
        # budget of 16 _SPAN bytes (2 MiB) per CPU, and half a MiB of slack
        # for the part totals and the pool.  Measured 1.2 MiB at one CPU and
        # 2.2 MiB at two; an array of all the terms alone is 7.6 MiB.
        grid_module = importlib.import_module("tfnorms.grid")
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            _series_partial(kind, 3, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cpus * 16 * grid_module._SPAN + 2**19

    def test_closed_forms_start_at_k0_past_the_direct_limit(self):
        # k0 > direct_limit: no term is summed directly, and the closed
        # forms cover k0..K, not direct_limit + 1..K.
        k = np.arange(500, 200001, dtype=float)
        dense = {
            "mod": math.sqrt(2.0) / (k * np.log(k)),
            "beurling": 2.0 / (k * np.log(k) ** 2),
            "l2": 2.0 / (k**2 * np.log(k) ** 2),
        }
        for kind, terms in dense.items():
            got = _series_partial(kind, 500, 200000, direct_limit=100)
            assert got == pytest.approx(float(np.sum(terms)), rel=1e-11, abs=0.0), kind

    def test_segment_order(self):
        # ascending-k partial sums are reproducible bit for bit
        a = _series_partial("mod", 3, 10**5)
        b = _series_partial("mod", 3, 10**5)
        assert a == b

    def test_exp_integral_matches_gauss_laguerre(self):
        # E1(x) = exp(-x) integral_0^inf exp(-u) / (x + u) du, by 80-point
        # Gauss-Laguerre quadrature; the integrand is smooth for x >= 1.
        nodes, weights = np.polynomial.laguerre.laggauss(80)
        for x in np.linspace(1.0, math.log(1e18), 200):
            reference = math.exp(-x) * float(np.sum(weights / (x + nodes)))
            assert _exp_integral_e1(float(x)) == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", [0.999, 0.0, -1.0, math.nan, math.inf])
    def test_exp_integral_domain(self, x):
        with pytest.raises(ValueError, match="E1"):
            _exp_integral_e1(x)


class TestCounterexampleL2:
    def test_default_assertions(self):
        report = counterexample_l2()
        assert report.all_passed
        increments = [a for a in report.assertions if a.name.startswith("squaring")]
        assert len(increments) == 2
        target = math.sqrt(2.0) * math.log(2.0)
        for a in increments:
            assert abs(a.measured - target) <= 0.1 * target

    def test_l2_sums_converge_below_1e6(self):
        report = counterexample_l2()
        l2_sums = [row["l2_sum"] for row in report.rows]
        assert l2_sums[-1] - l2_sums[-2] < 1e-6

    def test_k0_independence_of_increments(self):
        # divergence rate does not depend on where the sum starts
        r3 = counterexample_l2(k0=3)
        r11 = counterexample_l2(k0=11)
        for a3, a11 in zip(r3.assertions, r11.assertions):
            if a3.name.startswith("squaring"):
                assert a3.measured == pytest.approx(a11.measured, abs=5e-3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            counterexample_l2(k0=2)
        with pytest.raises(ValueError):
            counterexample_l2(checkpoints=(100, 100))


# Layouts of at most 2^17 samples on which the measurement meets its dense reference.
DENSE_LAYOUTS = [
    (1.0, 2, 2), (1.0, 0, 4), (1.0, 3, 3), (1.0, 4, 4),
    (1.5, 2, 4), (1.5, 1, 6), (1.5, 3, 5), (1.5, 2, 6),
]


class TestCounterexampleFlat:
    def test_single_measurement_chain(self):
        run = flat_measurement(1.0, 3, 3)
        # B and C from the measured quantities
        assert run["fhat_l1"] <= run["nu_hat_sup"] * run["phi_l1"] * (1 + 1e-12)
        assert run["f_lp"] <= experiments._signal_lp_bound(1.0, run) * (1 + 1e-12)
        assert run["modulation_norm"] >= run["invphi_lp"] / 4.0

    def test_block_norm_is_translation_count_invariant(self):
        # the block-sum norm is essentially independent of the depth m
        a = flat_measurement(1.0, 2, 3)
        b = flat_measurement(1.0, 4, 3)
        assert a["modulation_norm"] == pytest.approx(b["modulation_norm"], rel=1e-3)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            flat_measurement(2.0, 3, 3)

    # p, m and r on grids of 2^12-2^15 points, a few ms each.
    SWEEP = [(p, m, r) for p in (1.0, 1.5) for m in (0, 2) for r in (2, 4)]

    @staticmethod
    def holds_bound_c(p, m, r):
        run = flat_measurement(p, m, r)
        return run["f_lp"] <= experiments._signal_lp_bound(p, run)

    @pytest.mark.parametrize("p, m, r", SWEEP)
    def test_bound_c_holds_at_every_depth(self, p, m, r):
        assert self.holds_bound_c(p, m, r)

    def test_the_old_bound_c_fails_the_sweep(self, monkeypatch):
        # nu_hat_sup falls like 2^(-r (1/p - 1/2)) while f_lp does not
        # depend on r, so the bound it gave fails once r is large enough.
        monkeypatch.setattr(experiments, "_signal_lp_bound",
                            lambda p, run: run["nu_hat_sup"] * run["invphi_lp"])
        failed = {(p, m, r) for p, m, r in self.SWEEP if not self.holds_bound_c(p, m, r)}
        assert {(1.0, 2, 4), (1.0, 0, 2)} <= failed

    @pytest.mark.parametrize(
        "p, m, r, n", [(1.0, 6, 12, 1 << 27), (1.0, 8, 8, 1 << 25), (1.0, 22, 4, 1 << 35)]
    )
    def test_layout_above_the_gate_is_refused(self, p, m, r, n):
        # The layout only computes n, so a missing gate fails here without
        # allocating anything.
        with pytest.raises(CostGateError, match=f"needs a {n}-point grid, above the 4194304-point"):
            experiments._flat_layout(p, m, r)

    def test_default_layouts_stay_within_the_gate(self):
        # Both depths of both default runs; the largest sits on the gate.
        sizes = [
            experiments._flat_layout(p, m, r)[0].n
            for p, m, r in [(1.0, 4, 4), (1.0, 6, 6), (1.5, 2, 8), (1.5, 4, 10)]
        ]
        assert max(sizes) == 1 << 22

    def test_holds_no_array_of_the_grid_length(self, monkeypatch):
        # The span budget shrunk to 2^15, so that the span temporaries stay
        # small next to n = 2^19 as they do at n = 2^21-2^22, and one CPU, so
        # that no concurrent span temporaries count.  The partition is built
        # before, as the second depth of a run finds it cached.  The spectrum
        # of f is never built, so what is held is span buffers, n / 128 leaf
        # sums for g and for f, and the fold's rows (0.36 of one complex
        # n-array measured; 0.54 with a block row of the core's width folded
        # as well, 1.47 with the spectrum built).
        grid = experiments._flat_layout(1.5, 2, 8)[0]
        partition_for(grid)
        grid_module = importlib.import_module("tfnorms.grid")
        monkeypatch.setattr(grid_module, "_SPAN", 1 << 15)
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 1)
        tracemalloc.start()
        try:
            run = flat_measurement(1.5, 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run["n"] == grid.n == 1 << 19
        assert peak < 8 * run["n"]

    def test_each_fold_peaks_within_one_budget_per_cpu(self, monkeypatch):
        # A span holds at most one budget, 16 _SPAN bytes, of buffers: the
        # plain fold's transform buffer and its float magnitudes (1.5 complex
        # a sample, counted as 2), or the transform buffer and mu-check's
        # three (rows, M) complex buffers.  With one span in flight per CPU a
        # fold peaks within one budget per CPU, and a quarter budget more for
        # the block's n / 128 leaf sums and the spans' twiddle indices.  With
        # the magnitudes left out of the count, the plain fold traced 3.4 and
        # 6.4 MiB at one and two CPUs.
        grid_module = importlib.import_module("tfnorms.grid")
        p, m = 1.5, 2
        grid = experiments._flat_layout(p, m, 8)[0]
        phi = bump_profile(grid.frequencies(), 0.025, 0.1)
        phi = phi[phi > 0.0]
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((1, phi.size)) + 1j * rng.standard_normal((1, phi.size))
        m_len = norms._fold_lengths(phi.size, grid.n)[0]
        mu_check = experiments._mu_check_rows(m, partition_for(grid).steps_per_unit, grid.n, m_len)
        assert grid.n > grid_module._SPAN  # spans of rows of the one block

        def peak(*factor):
            tracemalloc.start()
            try:
                norms._folded_lp(rows, np.array([0]), phi, p, grid.n, grid.dx, *factor)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        budget = 16 * grid_module._SPAN
        for cpus in (1, 2):
            monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
            assert peak() <= (cpus + 0.25) * budget
            assert peak(mu_check) <= (cpus + 0.25) * budget

    @pytest.mark.parametrize("p, m, r", DENSE_LAYOUTS)
    def test_translate_rows_are_the_spectrum_rows(self, monkeypatch, p, m, r):
        # At each atom w_k delta_k, the masked block row of the assembled
        # spectrum is w_k base on the plateau and 0 elsewhere, and every
        # other block is 0.  So the dense block norm of each atom is
        # |w_k| ||g||_p, the value that the fold of base gives with f's.
        folded = []
        fold = experiments._folded_lp

        def recorded(rows, which, core, *args):
            out = fold(rows, which, core, *args)
            folded.append((rows[which] * core, out))
            return out

        monkeypatch.setattr(experiments, "_folded_lp", recorded)
        flat_measurement(p, m, r)
        (base,), ((g_lp,), _) = folded[-1]
        part, _, phi, fhat = _dense_flat_spectra(p, m, r)
        offset = int(np.flatnonzero(phi.samples)[0]) - part.window_start(0)
        dense = part.block_rows(fhat.samples) * part.core
        block_norms = norms._block_norm(fhat.samples, p, part)
        mu = rudin_shapiro(m, 1, Normalization.TOTAL_VARIATION).mu
        atoms = np.round(mu.locations).astype(int) + part.max_block_index
        for i, w in zip(atoms, mu.weights):
            row = np.zeros(part.core.size, dtype=complex)
            row[offset : offset + base.size] = w * base
            assert np.array_equal(dense[i], row)
            assert block_norms[i] == pytest.approx(abs(w) * g_lp, rel=1e-14, abs=0.0)
        others = np.ones(len(dense), dtype=bool)
        others[atoms] = False
        assert not np.any(dense[others])
        assert not np.any(block_norms[others])

    def test_a_base_off_the_plateau_is_refused(self, monkeypatch):
        # A bump wider than the plateau of phi puts each translate on the
        # slopes of its block's core, where the block is no longer the
        # weighted translate alone.  The layout runs first, so that the tail
        # width it caches is the true bump's.
        experiments._flat_layout(1.0, 2, 2)
        monkeypatch.setattr(
            experiments,
            "bump_profile",
            lambda xi, inner, outer: bump_profile(xi, inner, outer + 0.05),
        )
        with pytest.raises(ValueError, match="plateau"):
            flat_measurement(1.0, 2, 2)

    @pytest.mark.parametrize("p, m, r", DENSE_LAYOUTS)
    def test_span_norms_match_the_dense_reference(self, p, m, r):
        run, dense = flat_measurement(p, m, r), _dense_flat_measurement(p, m, r)
        assert run["n"] <= 1 << 17
        assert run.keys() == dense.keys()
        moved = ("invphi_lp", "modulation_norm", "f_lp", "segal_norm", "headline_ratio")
        for key in moved:
            assert run[key] == pytest.approx(dense[key], rel=1e-14, abs=0.0), key
        assert {k: v for k, v in run.items() if k not in moved} == {
            k: v for k, v in dense.items() if k not in moved
        }

    @pytest.mark.parametrize("p, m, r", [(1.0, 4, 4), (1.0, 3, 3), (1.5, 2, 6)])
    def test_mu_check_matches_the_atom_sum(self, p, m, r):
        # Rows at both ends of the fold, so that the grid index t = b + P a
        # runs up to n - 1, where t dx is largest.
        grid = experiments._flat_layout(p, m, r)[0]
        steps = partition_for(grid).steps_per_unit
        m_len = 1 << 11
        p_len = grid.n // m_len
        at = experiments._mu_check_rows(m, steps, grid.n, m_len)
        mu = rudin_shapiro(m, 1, Normalization.TOTAL_VARIATION).mu
        for r0, r1 in [(0, 3), (p_len - 3, p_len)]:
            t = np.arange(r0, r1)[:, None] + p_len * np.arange(m_len)
            direct = sum(
                w * np.exp(2j * math.pi / grid.n * (int(loc) * steps * t % grid.n))
                for loc, w in zip(mu.locations, mu.weights)
            )
            got = at(r0, r1)
            assert got.shape == (r1 - r0, m_len)
            assert np.max(np.abs(np.abs(got) - np.abs(direct))) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("p, m, r", [(1.0, 4, 4), (1.0, 6, 6), (1.5, 2, 8), (1.5, 4, 10)])
    def test_mu_check_period_is_the_whole_row_pass(self, p, m, r):
        # The rows at both ends of the fold of each default run, against the
        # recursion run on whole rows of M values.
        grid = experiments._flat_layout(p, m, r)[0]
        steps = partition_for(grid).steps_per_unit
        phi = bump_profile(grid.frequencies(), 0.025, 0.1)
        m_len, p_len = norms._fold_lengths(int(np.count_nonzero(phi)), grid.n)
        at = experiments._mu_check_rows(m, steps, grid.n, m_len)
        columns = [np.exp(2j * math.pi / m_len * (2 ** (j - 1) * steps * np.arange(m_len) % m_len))
                   for j in range(1, m + 1)]
        for r0, r1 in [(0, 3), (p_len - 3, p_len)]:
            b = np.arange(r0, r1)
            mu = np.ones((r1 - r0, m_len), dtype=complex)
            nu = np.ones_like(mu)
            for j, column in enumerate(columns, 1):
                row = np.exp(2j * math.pi / grid.n * (2 ** (j - 1) * steps * b % grid.n))
                shifted = row[:, None] * column * nu
                mu, nu = mu + shifted, mu - shifted
            assert at(r0, r1).tobytes() == (mu * 2.0**-m).tobytes()

    def test_no_transform_of_the_grid_length(self, monkeypatch):
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):

            def recorded(a, n=None, axis=-1, *args, _real=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[axis] if n is None else n)
                return _real(a, n, axis, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        run = flat_measurement(1.5, 2, 8)
        assert lengths
        assert run["n"] not in lengths

    def test_translates_fold_one_row(self, monkeypatch):
        # The folds of F^-1 phi and of g, which gives f too, each of one row
        # of phi's width: the 16 translates' blocks fold nothing of the
        # core's width.
        folded = []
        fold = norms._folded_lp

        def counted(rows, which, *args):
            folded.append(rows[which].shape)
            return fold(rows, which, *args)

        monkeypatch.setattr(norms, "_folded_lp", counted)
        monkeypatch.setattr(experiments, "_folded_lp", counted)
        flat_measurement(1.0, 4, 4)
        grid = experiments._flat_layout(1.0, 4, 4)[0]
        phi_width = int(np.count_nonzero(bump_profile(grid.frequencies(), 0.025, 0.1)))
        assert folded == [(1, phi_width), (1, phi_width)]
        assert phi_width < 2 * partition_for(grid).steps_per_unit

    @pytest.mark.parametrize(
        "p, flags, depths",
        [(1.0, {"m": 2}, [(2, 4), (4, 6)]), (1.5, {"r": 6}, [(2, 6), (4, 8)])],
    )
    def test_lone_depth_flag_keeps_the_other_default(self, monkeypatch, p, flags, depths):
        asked = []

        def measured(p, m, r):
            asked.append((m, r))
            quantities = ("modulation_norm", "invphi_lp", "fhat_l1", "nu_hat_sup", "phi_l1", "f_lp")
            return {"m": m, "r": r, "headline_ratio": 2.0 ** m, **dict.fromkeys(quantities, 1.0)}

        monkeypatch.setattr(experiments, "flat_measurement", measured)
        experiments.counterexample_flat(p, **flags)
        assert asked == depths


def _dense_flat_spectra(p: float, m: int, r: int) -> tuple:
    """(part, n_nu, phi, f-hat) of flat_measurement(p, m, r), phi and f-hat on the whole dual grid."""
    grid, n_nu = experiments._flat_layout(p, m, r)
    part = partition_for(grid)
    half = grid.n // 2
    reach = min(int(0.1 / grid.dxi) + 2, half)
    xi = grid.dxi * np.arange(-reach, reach)
    phi = bump_profile(xi, 0.025, 0.1)
    inside = np.flatnonzero(phi > 0)
    first, last = int(inside[0]), int(inside[-1]) + 1
    lo, hi = first + half - reach, last + half - reach
    nu_hat = rudin_shapiro_transforms(r, n_nu, xi[first:last], Normalization.LP_ATOMS, p=p)[1]
    base = nu_hat * phi[first:last]
    phi_samples = np.zeros(grid.n, dtype=complex)
    phi_samples[lo:hi] = phi[first:last]
    fhat = np.zeros(grid.n, dtype=complex)
    mu = rudin_shapiro(m, 1, Normalization.TOTAL_VARIATION).mu
    for loc, w in zip(mu.locations, mu.weights):
        shift = int(round(loc)) * part.steps_per_unit
        fhat[lo + shift : hi + shift] += w * base
    return part, n_nu, SampledSignal(grid.dual(), phi_samples), SampledSignal(grid.dual(), fhat)


def _dense_flat_measurement(p: float, m: int, r: int) -> dict:
    """flat_measurement on full-length arrays: F^-1 phi and f by n-point inverse transforms."""
    part, n_nu, phi_sig, fhat_sig = _dense_flat_spectra(p, m, r)
    grid = part.grid
    nu_inf = rudin_shapiro_sup(r, n_nu, grid, Normalization.LP_ATOMS, p=p)
    phi_l1 = weighted_lp_norm(phi_sig, 1.0)
    invphi_lp = weighted_lp_norm(fourier_inverse(phi_sig), p)
    f_lp = weighted_lp_norm(fourier_inverse(fhat_sig), p)
    mod = spectrum_norm(fhat_sig, p, 1.0, 0.0, part).value
    fhat_l1 = weighted_lp_norm(fhat_sig, 1.0)
    return {
        "p": p,
        "m": m,
        "r": r,
        "n": grid.n,
        "L": grid.half_width,
        "nu_spacing": n_nu,
        "nu_hat_sup": nu_inf,
        "phi_l1": phi_l1,
        "invphi_lp": invphi_lp,
        "modulation_norm": mod,
        "f_lp": f_lp,
        "fhat_l1": fhat_l1,
        "segal_norm": f_lp + fhat_l1,
        "headline_ratio": mod / (f_lp + fhat_l1),
    }


def _dense_invphi_tail_halfwidth(p: float, frac: float) -> float:
    """experiments._invphi_tail_halfwidth on full-length arrays.

    F^-1 phi by fourier_inverse, the radii of all grid points sorted by
    np.argsort, and the running sum of the sorted masses by one np.cumsum.
    argsort does not fix the order of equal radii, which the walk of the
    package fixes (left point first).
    """
    ref = Grid(1 << 17, 2048.0 * math.pi)
    half = ref.n // 2
    reach = int(0.1 / ref.dxi) + 2
    spectrum = np.zeros(ref.n, dtype=complex)
    xi = ref.dxi * np.arange(-reach, reach)
    spectrum[half - reach : half + reach] = bump_profile(xi, 0.025, 0.1)
    mags = np.abs(fourier_inverse(SampledSignal(ref.dual(), spectrum)).samples)
    mags **= p
    radii = np.abs(ref.points())
    order = np.argsort(radii)
    sorted_mass = np.cumsum(mags[order])
    sorted_mass *= ref.dx
    total = sorted_mass[-1]
    pos = int(np.searchsorted(sorted_mass, (1.0 - frac) * total))
    return float(radii[order[min(pos, ref.n - 1)]])


class TestInvphiTailHalfwidth:
    @pytest.mark.parametrize(
        "p, frac",
        [(1.0, 1e-2), (1.5, 1e-3),
         *((1.0 + i / 8, frac) for i in range(8) for frac in (3e-3, 1e-4))],
    )
    def test_walk_gives_the_dense_radius(self, p, frac):
        assert experiments._invphi_tail_halfwidth.__wrapped__(p, frac) == (
            _dense_invphi_tail_halfwidth(p, frac)
        )

    def test_holds_the_transform_and_its_magnitudes_only(self):
        # One complex and one float array of the 2^17-point grid, 3 MiB; the
        # dense version held 5 MiB.
        tracemalloc.start()
        try:
            experiments._invphi_tail_halfwidth.__wrapped__(1.5, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * (1 << 17) + 2**17


class TestAlgebraConstantCache:
    def test_repeated_call_reuses_the_constant(self, monkeypatch):
        calls = []
        original = experiments.algebra_constant

        def counted(*args):
            calls.append(args)
            return original(*args)

        experiments._cached_algebra_constant.cache_clear()
        monkeypatch.setattr(experiments, "algebra_constant", counted)
        spec = NormSpec.modulation(2.0, 1.0, 0.0)
        try:
            first = measured_algebra_constant(spec, 512, PARTITION_L, 0, 4)
            assert measured_algebra_constant(spec, 512, PARTITION_L, 0, 4) == first
            assert len(calls) == 1
            measured_algebra_constant(spec, 512, PARTITION_L, 1, 4)
            assert len(calls) == 2
        finally:
            experiments._cached_algebra_constant.cache_clear()


PAIR_CORPUS = make_corpus(Grid(256, PARTITION_L), seed=0)


def _pairs_one_by_one(corpus, seed: int, count: int) -> list:
    """The algebra pairs drawn with one rng.choice call per pair."""
    rng = np.random.default_rng(seed)
    names = [name for name, _ in corpus]
    by_name = dict(corpus)
    pairs = []
    for _ in range(count):
        a, b = rng.choice(len(names), size=2, replace=True)
        pairs.append((names[a], by_name[names[a]], names[b], by_name[names[b]]))
    return pairs


class TestAlgebraPairs:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 5000))
    def test_one_draw_gives_the_pairs_of_one_draw_per_pair(self, seed, count):
        drawn = experiments._algebra_pairs(PAIR_CORPUS, seed, count)
        assert iter(drawn) is drawn  # yielded one by one, not a list
        got, want = list(drawn), _pairs_one_by_one(PAIR_CORPUS, seed, count)
        assert [(a, b) for a, _, b, _ in got] == [(a, b) for a, _, b, _ in want]
        assert all(f is f0 and g is g0 for (_, f, _, g), (_, f0, _, g0) in zip(got, want))

    def test_the_gate_admits_its_cap(self, monkeypatch):
        asked = []

        def measured(spec, n, L, seed, count):
            asked.append(count)
            return 1.0

        monkeypatch.setattr(experiments, "measured_algebra_constant", measured)
        assert algebra_sweep(count=experiments._MAX_PAIRS).all_passed
        assert asked == [experiments._MAX_PAIRS] * 4
        with pytest.raises(CostGateError, match="above the 1000000-pair gate"):
            algebra_sweep(count=experiments._MAX_PAIRS + 1)
        assert len(asked) == 4


def _digest(signal: SampledSignal) -> bytes:
    return hashlib.sha256(signal.samples.tobytes()).digest()


class TestFoldOnce:
    def test_no_head_is_folded_twice_in_one_run(self, monkeypatch):
        # Every head that _folded_lp folds, as (masked row bytes, p, n),
        # with the signal that norm_value was norming when it was folded.
        fold, value = norms._folded_lp, norms.norm_value
        owner = [None]
        heads = {}  # head -> the digests of the signals whose norms folded it

        def folded(rows, which, core, p, n, *args):
            for b in which:
                heads.setdefault(((rows[b] * core).tobytes(), p, n), []).append(owner[0])
            return fold(rows, which, core, p, n, *args)

        def valued(f, spec):
            owner[0] = _digest(f)
            return value(f, spec)

        monkeypatch.setattr(norms, "_folded_lp", folded)
        monkeypatch.setattr(norms, "norm_value", valued)
        embedding_sweep()
        assert len(heads) == 2208
        assert all(len(owners) == 1 for owners in heads.values())

        heads.clear()
        experiments._cached_algebra_constant.cache_clear()
        try:
            algebra_sweep()
        finally:
            experiments._cached_algebra_constant.cache_clear()
        assert len(heads) == 13811
        # A head folded twice may only be a block row that f g and g f
        # share where the two products differ in the last bit elsewhere,
        # so that both are normed (gaussian-unit and modgauss-8: 23 rows on
        # each grid on an AVX-512 host).
        reversals = set()
        for n in (4096, 8192):
            corpus = make_corpus(Grid(n, PARTITION_L), seed=0)
            for _, f in corpus:
                for _, g in corpus:
                    fg, gf = _digest(f * g), _digest(g * f)
                    if fg != gf:
                        reversals.add(frozenset((fg, gf)))
        shared = [owners for owners in heads.values() if len(owners) > 1]
        assert all(len(owners) == 2 and frozenset(owners) in reversals for owners in shared)


class TestLightReports:
    def test_stft_report(self):
        report = stft_experiment(n=1024, L=25.0)
        assert report.all_passed

    def test_stft_rows_hold_their_own_columns_error(self):
        # Each row's conv_form_error is that of its own column of the dense
        # STFT against the convolution form, and the assertion is the
        # largest of them.  The last column's error is below the first two,
        # so a running maximum in the rows would show.
        n, L = 1024, 25.0
        report = stft_experiment(n=n, L=L)
        grid = Grid(n, L)
        g = gaussian_window(grid)
        x = grid.points()
        dense = stft(g, g).values
        wconj = np.roll(np.conj(g.samples[::-1]), 1)
        errors = []
        for k in (n // 2 - n // 8, n // 2, n // 2 + n // 16):
            xi = grid.frequencies()[k]
            modulated = SampledSignal(grid, np.exp(1j * xi * x) * wconj)
            row = np.exp(-1j * x * xi) * convolve(g, modulated).samples
            errors.append(float(np.max(np.abs(row - dense[:, k]))))
        assert [row["conv_form_error"] for row in report.rows] == errors
        assert errors[2] < max(errors[:2])
        (conv,) = [a for a in report.assertions if a.name == "convolution_form_sup_error"]
        assert conv.measured == max(errors)

    def test_rudin_report(self):
        report = rudin_shapiro_experiment(m_max=8)
        assert report.all_passed
        assert len(report.rows) == 9

    def test_plateau_report(self):
        assert plateau_experiment().all_passed

    def test_translation_report(self):
        assert translation_bound_experiment(n=2048).all_passed

    def test_bupu_report(self):
        assert bupu_experiment().all_passed

    def test_bupu_rows_match_the_per_block_sum(self):
        # Each row against the signal rebuilt from one inverse per block.
        report = bupu_experiment()
        grid = Grid(4096, PARTITION_L)
        part = partition_for(grid)
        corpus = make_corpus(grid, seed=0)
        assert [row["signal"] for row in report.rows] == [name for name, _ in corpus]
        for row, (_, f) in zip(report.rows, corpus):
            spectrum = fourier_forward(f).samples
            total = np.zeros(grid.n, dtype=complex)
            for k in part.block_indices():
                total += frequency_block(f, k, part, spectrum=spectrum).samples
            err = weighted_lp_norm(SampledSignal(grid, total) - f, 2.0) / weighted_lp_norm(f, 2.0)
            assert abs(row["reconstruction_error"] - err) <= 1e-15, row

    def test_approx_unit_report(self):
        report = approx_unit_experiment(n=2048, halvings=5)
        assert report.all_passed
        residuals = [row["residual"] for row in report.rows]
        assert residuals[-1] < residuals[0]

    def test_approx_unit_transforms_the_window_once(self, monkeypatch):
        # Every halving refines the same base window, from one transform of it.
        window = plateau_window(0.0, 1.0, Grid(2048, PARTITION_L)).window.samples
        of_window = []

        def counted(sig):
            of_window.append(np.array_equal(sig.samples, window))
            return fourier_forward(sig)

        for module in (grid_module, compose, experiments):
            monkeypatch.setattr(module, "fourier_forward", counted)
        report = approx_unit_experiment(n=2048, halvings=5)
        assert report.all_passed
        assert sum(of_window) == 1

    def test_embedding_report(self):
        report = embedding_sweep(n=1024)
        assert report.all_passed
        names = {row["pair"] for row in report.rows}
        assert "M(1,1,1)->M(2,1,0)" in names

    def test_algebra_report_exports_constant(self):
        report = algebra_sweep(n=1024, count=12)
        assert report.all_passed
        assert report.rows[0]["c_hat"] > 0
        # homogeneity: constants do not move when the corpus is rescaled
        # (covered structurally: ratios are scale-free by construction)
