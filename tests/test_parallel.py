"""Span runner: pooled and inline runs give bit-identical results.

The Rudin-Shapiro transform recursion, its maximum over a grid, the noise
floor and the folded block inverses of modulation_norm, and the rows of the
STFT split their work into spans (grid._each_span) that run on a thread pool
when there are several spans and several CPUs.  Every span is sized from one budget,
grid._SPAN.  These tests shrink it so small inputs split many ways, then
compare a pooled run with the same spans forced inline and with the default
spans.
"""

import concurrent.futures
import contextlib
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfnorms.grid as grid_module
import tfnorms.measures as measures
import tfnorms.norms as norms
import tfnorms.stft as stft_module
from tfnorms.experiments import _flat_layout, flat_measurement, stft_experiment
from tfnorms.grid import Grid, SampledSignal, fourier_inverse
from tfnorms.measures import (
    Normalization,
    _scale_factor,
    rudin_shapiro_sup,
    rudin_shapiro_transforms,
)
from tfnorms.norms import modulation_norm, partition_for
from tfnorms.partition import bump_profile
from tfnorms.stft import gaussian_window, stft, stft_gram

from test_measures import sup_error, table_shape, transforms_error

GRID = Grid(4096, 16.0 * math.pi)
PART = partition_for(GRID)
XIS = np.linspace(-40.0, 40.0, 10007)


def band_limited(grid, seed, cutoff=20.0):
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    envelope = np.exp(-((xi / cutoff) ** 2) * 4.0) * (np.abs(xi) < cutoff)
    coeffs = envelope * (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return fourier_inverse(SampledSignal(grid.dual(), coeffs))


def fold_rows(part):
    """(M, P) of the fold for a partition: row length and rows per block."""
    m_len = 1 << (2 * part.steps_per_unit - 1).bit_length()
    return m_len, part.grid.n // m_len


def split_parts(n, most):
    """Parts of grid._split_sum over n = 2^k values, each one span: halves of at most `most`."""
    part = n
    while part > most:
        part //= 2
    return n // part


@contextlib.contextmanager
def spans(cpus, budget=None):
    """Run with `cpus` CPUs and, when given, a span budget of `budget` samples.

    Yields a log of (module, count, items per span, ran_off_main_thread) per
    runner call.  The runner calls of grid._split_sum are logged under the
    module that called it; grid's own (the parts of weighted_lp_norm) and
    direct calls of grid._each_span are not logged.
    The calling thread takes spans too, so in a call with several spans and
    several CPUs it waits in its first span until a pool thread has taken
    one: the log then says whether the call pooled, whatever the timing of
    the threads.
    """
    log = []
    real = grid_module._each_span
    reducer = grid_module._split_sum.__code__

    def recording(module):
        def runner(fn, count, size):
            threads = set()
            span = max(1, grid_module._SPAN // size)
            helped = threading.Event()

            def traced(lo, hi):
                threads.add(threading.get_ident())
                if threading.current_thread() is not threading.main_thread():
                    helped.set()
                elif cpus > 1 and count > span:
                    helped.wait(timeout=10.0)
                fn(lo, hi)

            real(traced, count, size)
            off_main = any(t != threading.main_thread().ident for t in threads)
            log.append((module, count, span, off_main))

        return runner

    def grid_runner(fn, count, size):
        caller = frame = sys._getframe(1)
        if frame.f_code is reducer:
            frame = frame.f_back
        module = frame.f_globals["__name__"].rpartition(".")[2]
        if frame is not caller and module != "grid":
            return recording(module)(fn, count, size)
        return real(fn, count, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "_cpu_count", lambda: cpus)
        mp.setattr(grid_module, "_each_span", grid_runner)
        mp.setattr(measures, "_each_span", recording("measures"))
        mp.setattr(norms, "_each_span", recording("norms"))
        mp.setattr(stft_module, "_each_span", recording("stft"))
        if budget is not None:
            mp.setattr(grid_module, "_SPAN", budget)
        yield log


def full_length_transforms(m, base_spacing, xis, scale):
    """The recursion in one full-length pass, as a reference."""
    mu_hat = np.ones(xis.size, dtype=complex)
    nu_hat = np.ones(xis.size, dtype=complex)
    for j in range(1, m + 1):
        phase = np.exp(-1j * (2 ** (j - 1) * base_spacing) * xis)
        shifted = phase * nu_hat
        mu_hat, nu_hat = mu_hat + shifted, mu_hat - shifted
    return scale * mu_hat, scale * nu_hat


class TestSpanRunner:
    @staticmethod
    def covered(cpus, budget, count, size):
        """The sorted spans of one runner call, checking that each index is hit once."""
        hits = np.zeros(count, dtype=int)
        bounds = []

        def fn(lo, hi):
            assert 0 <= lo < hi <= count
            hits[lo:hi] += 1
            bounds.append((lo, hi))

        with spans(cpus, budget):
            grid_module._each_span(fn, count, size)
        assert np.all(hits == 1)
        return sorted(bounds)

    @pytest.mark.parametrize("count, span", [(0, 4), (1, 4), (10, 3), (12, 4), (5, 8)])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_covers_each_index_once(self, count, span, cpus):
        # Items of one sample, so a budget of `span` samples is `span` items.
        bounds = self.covered(cpus, span, count, 1)
        assert bounds == [(lo, min(lo + span, count)) for lo in range(0, count, span)]

    @pytest.mark.parametrize(
        "count, budget, size, items",
        [
            (12, 8, 2, 4),
            (11, 9, 2, 4),  # the budget is no multiple of the item size
            (7, 3, 5, 1),  # an item larger than the budget spans alone
        ],
    )
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_items_per_span_follow_the_item_size(self, count, budget, size, items, cpus):
        bounds = self.covered(cpus, budget, count, size)
        assert bounds == [(lo, min(lo + items, count)) for lo in range(0, count, items)]

    def test_each_span_is_taken_once_under_contention(self):
        # Four takers of one-item spans, threads switched every microsecond:
        # a span taken twice or lost from the queue breaks the count of 1.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert self.covered(4, 1, 500, 1) == [(i, i + 1) for i in range(500)]
        finally:
            sys.setswitchinterval(interval)

    def test_errors_reach_the_caller(self):
        def fn(lo, hi):
            if lo == 4:
                raise ValueError("span failed")

        # Spans of 2 items of 2 samples each.
        with spans(3, 4), pytest.raises(ValueError, match="span failed"):
            grid_module._each_span(fn, 10, 2)

    def test_pool_follows_the_cpu_count(self):
        # Every span waits at a barrier of `cpus` parties, so the spans pass
        # only when `cpus` of them are in flight at once: the caller's and
        # one on each of the cpus - 1 pool threads, and never more.
        pools = []
        for cpus in (2, 3):
            threads, in_flight, most = set(), [0], [0]
            lock = threading.Lock()
            barrier = threading.Barrier(cpus, timeout=10.0)

            def fn(lo, hi):
                with lock:
                    threads.add(threading.get_ident())
                    in_flight[0] += 1
                    most[0] = max(most[0], in_flight[0])
                barrier.wait()
                with lock:
                    in_flight[0] -= 1

            with spans(cpus, 1):
                grid_module._each_span(fn, 4 * cpus, 1)
                pools.append(grid_module._pool)
            assert pools[-1]._max_workers == cpus - 1
            assert len(threads) == most[0] == cpus
            assert threading.main_thread().ident in threads
        assert pools[1] is not pools[0] and pools[0]._shutdown


class TestBitIdentical:
    def test_rudin_shapiro_transforms(self):
        scale = 2.0 ** (-7 / 1.5)
        args = (7, 3, XIS, Normalization.LP_ATOMS, 1.5)
        with spans(3, 1000) as log:
            pooled = rudin_shapiro_transforms(*args)
        with spans(1, 1000):
            inline = rudin_shapiro_transforms(*args)
        default = rudin_shapiro_transforms(*args)
        # 10007 frequencies in spans of 1000: the last span is ragged.
        assert log == [("measures", XIS.size, 1000, True)]
        oracle = full_length_transforms(7, 3, XIS, scale)
        for got in (pooled, inline, default):
            for a, b in zip(got, oracle):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    def test_modulation_norm(self, p):
        f = band_limited(GRID, seed=91)
        m_len = fold_rows(PART)[0]
        width, blocks = 2 * PART.steps_per_unit, len(PART.block_indices())
        # A block too large for a span is folded in the parts of
        # _split_sum: halves of at most max(M, 128, budget / 2) values, whole
        # rows and whole 128-value leaves.
        assert m_len < grid_module._LEAF
        default = modulation_norm(f, p, 1.0, 0.5, PART)
        live = sum(c != 0.0 for _, c in default.block_contributions)
        # Three whole blocks per span (2 n samples each: the transform
        # buffer and the magnitudes), then each block in parts of 128 values
        # (a budget of 5 M samples) or of 512 (a budget of 56 M).
        for budget in (6 * GRID.n, 5 * m_len, 56 * m_len):
            with spans(3, budget) as log:
                pooled = modulation_norm(f, p, 1.0, 0.5, PART)
            with spans(1, budget):
                inline = modulation_norm(f, p, 1.0, 0.5, PART)
            # First the noise floor's maximum over the spectrum, in parts of
            # at most the budget (or whole, in one span), then the liveness
            # scan over all blocks, W samples each.
            floor, scan = log.pop(0), log.pop(0)
            parts = split_parts(GRID.n, max(grid_module._LEAF, budget))
            span = 1 if parts > 1 else budget // GRID.n
            assert floor == ("norms", parts, span, parts > 1)
            assert scan == ("norms", blocks, budget // width, blocks > budget // width)
            # One runner call over the distinct live blocks: whole blocks,
            # or the parts of each block, one a span.
            ((module, count, span, off_main),) = log
            if budget >= 2 * GRID.n:
                assert (module, count, span, off_main) == ("norms", live, 3, True)
                assert count % span != 0  # ragged last span
            else:
                most = max(m_len, grid_module._LEAF, budget // 2)
                assert split_parts(GRID.n, most) > 1
                assert (module, count, span, off_main) == (
                    "norms", live * split_parts(GRID.n, most), 1, True)
            assert pooled.value == inline.value == default.value
            assert pooled.block_contributions == inline.block_contributions
            assert pooled.block_contributions == default.block_contributions

    def test_flat_measurement(self):
        grid = _flat_layout(1.0, 3, 3)[0]
        part = partition_for(grid)
        # A budget of three rows of a block's fold, M samples: the
        # Rudin-Shapiro chains in spans of 3 M samples; F^-1 phi, and g and f
        # together, folds of phi's W coefficients, in parts of whole rows of
        # M_phi values.
        budget = 3 * fold_rows(part)[0]
        phi_width = int(np.count_nonzero(bump_profile(grid.frequencies(), 0.025, 0.1)))
        phi_m_len = norms._fold_lengths(phi_width, grid.n)[0]
        assert phi_m_len >= grid_module._LEAF  # rows hold whole leaves
        with spans(3, budget) as log:
            pooled = flat_measurement(1.0, 3, 3)
        with spans(1, budget):
            inline = flat_measurement(1.0, 3, 3)
        default = flat_measurement(1.0, 3, 3)
        modules = {module for module, _, _, off_main in log if off_main}
        assert modules == {"measures", "norms", "experiments"}
        # rudin_shapiro_sup at depth 3: one runner call over the rows of its
        # phase tables, each row holding width values of mu^, nu^, the
        # product and the modulus, pooled since they make several spans.
        width, height = table_shape(grid.n)
        span = budget // (4 * width)
        assert log[0] == ("measures", height, span, True)
        assert height > span
        # The folds of F^-1 phi and of g, which gives f too.  The block norm
        # folds nothing, and no pass runs over the blocks or over the n
        # samples of the spectrum.  The plain fold holds the transform
        # buffer and its magnitudes, counted as two complex buffers, and the
        # fold with mu-check the transform buffer and mu-check's three, so
        # each runs in the parts of one _split_sum of at most a half and a
        # quarter of the budget's values.
        phi_fold = ("norms", split_parts(grid.n, budget // 2), 1, True)
        product_fold = ("norms", split_parts(grid.n, budget // 4), 1, True)
        assert budget // 4 > phi_m_len
        assert [entry for entry in log if entry[0] == "norms"] == [phi_fold, product_fold]
        # The L^1 norms of phi and of f-hat, in parts of the budget's values.
        l1 = ("experiments", split_parts(grid.n, budget), 1, True)
        assert [entry for entry in log if entry[0] == "experiments"] == [l1, l1]
        assert pooled == inline == default


STFT_GRID = Grid(256, 16.0)


def stft_runs(run, stack):
    """run() in spans of 7 rows pooled and inline, and in the default spans.

    7 does not divide n = 256, so the last span is ragged; the default spans
    hold at least 170 rows.  stack is the number of signals of the pass.
    """
    n = STFT_GRID.n
    with spans(3, 7 * stack * n) as log:
        pooled = run()
    with spans(1, 7 * stack * n):
        inline = run()
    default = run()
    assert log == [("stft", n, 7, True)]
    assert grid_module._SPAN // (stack * n) >= 170
    return pooled, inline, default


class TestStftBitIdentical:
    def test_gram_with_a_shared_window(self):
        signals = [band_limited(STFT_GRID, seed=s) for s in (93, 94, 95)]
        w = gaussian_window(STFT_GRID)
        grams = stft_runs(lambda: stft_gram(signals, w), len(signals))
        assert len({gram.tobytes() for gram in grams}) == 1

    def test_gram_with_one_window_per_signal(self):
        signals = [band_limited(STFT_GRID, seed=s) for s in (96, 97)]
        windows = [
            gaussian_window(STFT_GRID),
            SampledSignal.from_function(STFT_GRID, lambda t: np.exp(-(t**2) / 4.5)),
        ]
        grams = stft_runs(lambda: stft_gram(signals, windows), len(signals))
        assert len({gram.tobytes() for gram in grams}) == 1

    def test_dense_stft(self):
        f = band_limited(STFT_GRID, seed=98)
        w = gaussian_window(STFT_GRID)
        matrices = stft_runs(lambda: stft(f, w).values, 1)
        assert len({values.tobytes() for values in matrices}) == 1

    def test_experiment_report(self):
        def run():
            report = stft_experiment(n=STFT_GRID.n, L=STFT_GRID.half_width)
            return report.rows, report.assertions

        pooled, inline, default = stft_runs(run, 1)
        assert pooled == inline == default

    def test_matrix_dump_bytes(self, tmp_path):
        def run():
            path = tmp_path / "matrix.csv"
            stft_experiment(n=STFT_GRID.n, L=STFT_GRID.half_width, dump_matrix=str(path))
            return path.read_bytes()

        pooled, inline, default = stft_runs(run, 1)
        assert pooled == inline == default


class TestRudinShapiroSup:
    @settings(max_examples=40, deadline=None)
    @given(
        log_n=st.integers(3, 16),
        m=st.integers(0, 12),
        base_spacing=st.integers(1, 500),
        half_width=st.floats(0.5, 1e5),
        normalization=st.sampled_from(list(Normalization)),
        pieces=st.integers(1, 40),
    )
    # L = n/2 puts -pi at k = -n/2, where |nu_1^| = 2 is largest.
    @example(3, 1, 1, 4.0, Normalization.RAW, 3)
    @example(10, 1, 1, 512.0, Normalization.RAW, 1)
    def test_pooled_inline_and_default_agree_bitwise(
        self, log_n, m, base_spacing, half_width, normalization, pieces
    ):
        grid = Grid(1 << log_n, half_width)
        p = 1.5 if normalization is Normalization.LP_ATOMS else None
        args = (m, base_spacing, grid, normalization, p)
        # The rows of the tables in about `pieces` spans, the last one often ragged.
        width, height = table_shape(grid.n)
        budget = 4 * width * max(1, height // pieces)
        with spans(3, budget):
            pooled = rudin_shapiro_sup(*args)
        with spans(1, budget):
            inline = rudin_shapiro_sup(*args)
        default = rudin_shapiro_sup(*args)
        assert pooled == inline == default
        full = rudin_shapiro_transforms(m, base_spacing, grid.frequencies(), normalization, p)
        scale = _scale_factor(m, normalization, p)
        bound = sup_error(m, base_spacing, grid, scale) + transforms_error(
            m, base_spacing, grid, scale
        )
        assert abs(default - float(np.max(np.abs(full[1])))) <= bound


class TestFlatnessIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 12),
        base_spacing=st.integers(1, 64),
        xis=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
    )
    def test_identity_on_pooled_path(self, m, base_spacing, xis):
        with spans(3, 7):
            mu_hat, nu_hat = rudin_shapiro_transforms(m, base_spacing, np.array(xis))
        identity = np.abs(mu_hat) ** 2 + np.abs(nu_hat) ** 2
        target = 2.0 ** (m + 1)
        assert np.max(np.abs(identity - target)) <= 1e-12 * target


def _pooled_transform_bytes():
    with spans(2, 1000):
        mu_hat, nu_hat = rudin_shapiro_transforms(5, 2, XIS)
    return mu_hat.tobytes() + nu_hat.tobytes()


class TestFork:
    def test_pool_used_before_fork_works_in_child(self):
        parent = _pooled_transform_bytes()  # the parent's pool now has threads
        before = set(multiprocessing.active_children())
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            future = pool.submit(_pooled_transform_bytes)
            try:
                child = future.result(timeout=60)
            except concurrent.futures.TimeoutError:
                for proc in set(multiprocessing.active_children()) - before:
                    proc.kill()  # a hung child would block the pool's shutdown
                raise
        assert child == parent
