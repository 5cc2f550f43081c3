"""Atomic measures, exact transforms, and the flat-measure recursion."""

import math
import tracemalloc

import numpy as np
import pytest

import tfnorms.grid as grid_module
from tfnorms.errors import CostGateError
from tfnorms.experiments import _flat_layout
from tfnorms.grid import Grid
from tfnorms.measures import (
    _scale_factor,
    DiscreteMeasure,
    Normalization,
    convolve_measures,
    dirac,
    disjointness_spacing,
    rudin_shapiro,
    rudin_shapiro_sup,
    rudin_shapiro_transforms,
)

XIS = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)


def atom_equal(a, b):
    """The two measures have the same atoms, locations and weights, in the same order."""
    return (
        a.atom_count == b.atom_count
        and np.array_equal(a.locations, b.locations)
        and np.array_equal(a.weights, b.weights)
    )


def flatness_bound(pair):
    """Bound on ||mu^||_inf implied by the exact identity."""
    return _scale_factor(pair.depth, pair.normalization, pair.p) * 2.0 ** ((pair.depth + 1) / 2.0)


def identity_value(pair):
    """The constant |mu^|^2 + |nu^|^2 equals at every frequency."""
    return _scale_factor(pair.depth, pair.normalization, pair.p) ** 2 * 2.0 ** (pair.depth + 1)


def fourier_stieltjes(mu, xis):
    """Exact transform values sum_j w_j exp(-i x_j xi), summed over the atoms."""
    return np.exp(-1j * np.outer(xis, mu.locations)) @ mu.weights


class TestDiscreteMeasure:
    def test_dirac_total_variation(self):
        assert dirac(0.0).total_variation == 1.0

    def test_dirac_transform(self):
        a = 1.75
        values = fourier_stieltjes(dirac(a), XIS)
        assert np.max(np.abs(values - np.exp(-1j * a * XIS))) <= 1e-14

    def test_merging_is_exact(self):
        m = DiscreteMeasure(np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, -1.0]))
        assert m.atom_count == 1
        assert m.locations[0] == 2.0

    def test_transform_bounded_by_total_variation(self):
        rng = np.random.default_rng(3)
        m = DiscreteMeasure(rng.integers(0, 50, 8).astype(float), rng.standard_normal(8))
        assert np.max(np.abs(fourier_stieltjes(m, XIS))) <= m.total_variation + 1e-12

    def test_periodicity_on_integer_support(self):
        gap = 3.0
        m = DiscreteMeasure(gap * np.arange(4), np.array([1.0, -2.0, 0.5, 1.0j]))
        xis = np.linspace(0.0, 1.0, 64)
        lhs = fourier_stieltjes(m, xis)
        rhs = fourier_stieltjes(m, xis + 2.0 * math.pi / gap)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestConvolution:
    def test_dirac_addition(self):
        conv = convolve_measures(dirac(1.0) + dirac(2.0), dirac(3.0))
        assert np.array_equal(conv.locations, [4.0, 5.0])
        assert np.allclose(conv.weights, [1.0, 1.0])

    def test_identity_element(self):
        m = DiscreteMeasure(np.array([0.0, 2.0, 7.0]), np.array([1.0, -1.0j, 2.0]))
        assert atom_equal(convolve_measures(m, dirac(0.0)), m)

    def test_transform_multiplicativity(self):
        rng = np.random.default_rng(5)
        a = DiscreteMeasure(rng.integers(0, 40, 8).astype(float), rng.standard_normal(8))
        b = DiscreteMeasure(rng.integers(0, 40, 8).astype(float), rng.standard_normal(8))
        xis = np.linspace(-4.0, 4.0, 512)
        lhs = fourier_stieltjes(convolve_measures(a, b), xis)
        rhs = fourier_stieltjes(a, xis) * fourier_stieltjes(b, xis)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * a.total_variation * b.total_variation

    def test_commutative_and_associative_atom_exact(self):
        # Integer-valued weights make every merge sum exact, so equality
        # holds atom for atom.
        def random_measure(seed):
            r = np.random.default_rng(seed)
            return DiscreteMeasure(
                r.integers(0, 30, 5).astype(float),
                (r.integers(-5, 6, 5) + 1j * r.integers(-5, 6, 5)).astype(complex),
            )

        for seed in range(3):
            a, b, c = (random_measure(100 + 3 * seed + i) for i in range(3))
            ab = convolve_measures(a, b)
            assert atom_equal(ab, convolve_measures(b, a))
            lhs = convolve_measures(ab, c)
            rhs = convolve_measures(a, convolve_measures(b, c))
            assert atom_equal(lhs, rhs)

    def test_commutative_float_weights(self):
        # Generic complex weights: merge order may differ in the last ulp.
        def random_measure(seed):
            r = np.random.default_rng(seed)
            return DiscreteMeasure(
                r.integers(0, 30, 5).astype(float),
                r.standard_normal(5) + 1j * r.standard_normal(5),
            )

        a, b = random_measure(200), random_measure(201)
        ab, ba = convolve_measures(a, b), convolve_measures(b, a)
        assert np.array_equal(ab.locations, ba.locations)
        assert np.max(np.abs(ab.weights - ba.weights)) <= 1e-12

    def test_cost_gate(self):
        big = DiscreteMeasure(np.arange(4000.0), np.ones(4000))
        with pytest.raises(CostGateError):
            convolve_measures(big, big)


class TestRudinShapiro:
    def test_depth_zero(self):
        pair = rudin_shapiro(0)
        assert atom_equal(pair.mu, dirac(0.0))
        assert atom_equal(pair.nu, dirac(0.0))
        assert identity_value(pair) == 2.0

    def test_depth_one_explicit(self):
        pair = rudin_shapiro(1, base_spacing=4)
        assert np.array_equal(pair.mu.locations, [0.0, 4.0])
        assert np.allclose(pair.mu.weights, [1.0, 1.0])
        assert np.allclose(pair.nu.weights, [1.0, -1.0])
        mu_hat, nu_hat = rudin_shapiro_transforms(1, 4, XIS)
        identity = np.abs(mu_hat) ** 2 + np.abs(nu_hat) ** 2
        assert np.max(np.abs(identity - 4.0)) <= 1e-12 * 4.0

    def test_exact_identity_all_depths(self):
        for m in range(13):
            mu_hat, nu_hat = rudin_shapiro_transforms(m, 1, XIS)
            identity = np.abs(mu_hat) ** 2 + np.abs(nu_hat) ** 2
            target = 2.0 ** (m + 1)
            assert np.max(np.abs(identity - target)) <= 1e-12 * target

    def test_support_structure(self):
        m, N = 6, 3
        pair = rudin_shapiro(m, base_spacing=N)
        assert pair.mu.atom_count == 2**m
        expected = sorted(
            sum(alpha[j] * 2**j * N for j in range(m))
            for alpha in np.ndindex(*(2,) * m)
        )
        assert np.array_equal(pair.mu.locations, np.array(expected, dtype=float))
        assert np.all(np.abs(np.abs(pair.mu.weights) - 1.0) == 0.0)

    def test_atom_and_transform_recursions_agree(self):
        pair = rudin_shapiro(7, base_spacing=2)
        xis = np.linspace(-3.0, 3.0, 257)
        direct = fourier_stieltjes(pair.mu, xis)
        fast, _ = rudin_shapiro_transforms(7, 2, xis)
        assert np.max(np.abs(direct - fast)) <= 1e-10 * 2**7

    def test_total_variation_normalization(self):
        pair = rudin_shapiro(10, normalization=Normalization.TOTAL_VARIATION)
        assert pair.mu.total_variation == pytest.approx(1.0, rel=1e-12)
        mu_hat, _ = rudin_shapiro_transforms(
            10, 1, XIS, normalization=Normalization.TOTAL_VARIATION
        )
        assert np.max(np.abs(mu_hat)) <= 2.0 ** (-4.5)
        assert flatness_bound(pair) == pytest.approx(2.0 ** (-4.5))

    def test_lp_atoms_normalization(self):
        p = 1.5
        r = 8
        pair = rudin_shapiro(r, normalization=Normalization.LP_ATOMS, p=p)
        assert np.sum(np.abs(pair.nu.weights) ** p) == pytest.approx(1.0, rel=1e-12)
        _, nu_hat = rudin_shapiro_transforms(r, 1, XIS, Normalization.LP_ATOMS, p=p)
        bound = 2.0 ** (0.5 - r * (1.0 / p - 0.5))
        assert np.max(np.abs(nu_hat)) <= bound

    def test_weights_have_equal_magnitude(self):
        for norm, p in [(Normalization.RAW, None), (Normalization.LP_ATOMS, 1.2)]:
            pair = rudin_shapiro(5, normalization=norm, p=p)
            mags = np.abs(pair.mu.weights)
            assert np.max(mags) == np.min(mags)


# The (p, m, r) of the two depths of each default counterexample-flat run.
FLAT_RUNS = [(1.0, 4, 4), (1.0, 6, 6), (1.5, 2, 8), (1.5, 4, 10)]

UNIT = 2.0**-53  # unit roundoff of float64


def value_error(m, spacing, grid, scale, argument_roundings, roundings, unit=UNIT):
    """Bound on the error of |scale nu_m^| at any grid point, derived from phase errors.

    Step j's phase exp(-i c_j k dxi), c_j = 2^(j-1) spacing, is off by at
    most argument_roundings unit A_j + roundings unit: A_j = c_j (n/2) dxi
    bounds the argument on the grid and each rounding of it moves it by at
    most unit times itself (none when dxi is a power of two, since then
    every product is exact); an exponential is within one ulp in each part
    and a complex product within sqrt(5) unit, 3 unit each at most.  A step
    (mu, nu) -> (mu + e nu, mu - e nu) with |e| = 1 grows an error of the
    pair by sqrt(2), and |nu_(j-1)^| <= 2^(j/2) by the flatness identity, so
    step j adds at most 2^((j+1)/2) (delta_j + 4 unit) to the pair's error,
    its product with nu and its sum counted: after m steps the error is
    2^((m+1)/2) sum_j (delta_j + 4 unit).  The scaling and the modulus add
    3 unit of the value.
    """
    exact = math.frexp(grid.dxi)[0] == 0.5
    spans = [2 ** (j - 1) * spacing * (grid.n // 2) * grid.dxi for j in range(1, m + 1)]
    deltas = [(0.0 if exact else argument_roundings * a) + roundings for a in spans]
    return scale * 2.0 ** ((m + 1) / 2) * (sum(d + 4.0 for d in deltas) + 3.0) * unit


def sup_error(m, spacing, grid, scale):
    """The sup's bound: arguments rounded once, two exponentials and their product."""
    return value_error(m, spacing, grid, scale, 1, 9)


def transforms_error(m, spacing, grid, scale):
    """The transforms' bound: arguments rounded twice (dxi k, then c_j xi), one exponential."""
    return value_error(m, spacing, grid, scale, 2, 3)


def table_shape(n):
    """(width, height) of the sup's phase tables on an n-point grid."""
    half = n // 2
    width = 1 << (half.bit_length() // 2)
    return width, half // width


def counted_sup(monkeypatch, cpus, *args):
    """rudin_shapiro_sup(*args) at `cpus` CPUs, and the number of exponentials it evaluated."""
    evaluated = []
    real_exp = np.exp

    def counting_exp(x, *rest, **kwargs):
        evaluated.append(np.size(x))
        return real_exp(x, *rest, **kwargs)

    monkeypatch.setattr(grid_module, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(np, "exp", counting_exp)
    value = rudin_shapiro_sup(*args)
    monkeypatch.undo()
    return value, sum(evaluated)


class TestRudinShapiroSup:
    """The identity rudin_shapiro_sup rests on, and what it holds."""

    @pytest.mark.parametrize("p, m, r", FLAT_RUNS)
    def test_mirrored_frequencies_conjugate_nu_hat(self, p, m, r):
        grid, spacing = _flat_layout(p, m, r)
        half = grid.n // 2
        xi = grid.frequencies()
        k = np.random.default_rng(r).integers(1, half, 4096)
        assert np.array_equal(xi[half - k], -xi[half + k])
        above = rudin_shapiro_transforms(r, spacing, xi[half + k], Normalization.LP_ATOMS, p)[1]
        below = rudin_shapiro_transforms(r, spacing, xi[half - k], Normalization.LP_ATOMS, p)[1]
        assert below.tobytes() == np.conj(above).tobytes()
        assert np.abs(below).tobytes() == np.abs(above).tobytes()

    @pytest.mark.parametrize("n", [8, 1024])
    def test_lowest_frequency_counts(self, n):
        # With L = n/2 the lowest frequency is -pi, the only grid point where
        # |nu_1^(xi)| = |1 - exp(-i xi)| reaches 2; it has no mirror on the grid.
        grid = Grid(n, n / 2.0)
        assert grid.frequencies()[0] == -math.pi
        assert rudin_shapiro_sup(1, 1, grid) == 2.0
        inner = rudin_shapiro_transforms(1, 1, grid.frequencies()[1:])[1]
        assert np.max(np.abs(inner)) < 2.0

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            rudin_shapiro_sup(-1, 1, Grid(64, 1.0))

    @pytest.mark.parametrize(
        "n, m, spacing, half_width",
        [
            (8, 1, 1, 4.0),  # L = n/2: the sup sits at k = -n/2
            (512, 2, 3, 17.0),
            (8192, 5, 284, 3000.0),
            (1 << 17, 7, 11, 1e4),
            (1 << 19, 8, 57, 2.0**18),
        ],
    )
    def test_matches_the_full_grid_with_counted_exponentials(
        self, monkeypatch, n, m, spacing, half_width
    ):
        grid = Grid(n, half_width)
        scale = _scale_factor(m, Normalization.LP_ATOMS, 1.5)
        full = rudin_shapiro_transforms(m, spacing, grid.frequencies(), "lp_atoms", 1.5)[1]
        value, evaluated = counted_sup(monkeypatch, 3, m, spacing, grid, "lp_atoms", 1.5)
        bound = sup_error(m, spacing, grid, scale) + transforms_error(m, spacing, grid, scale)
        assert abs(value - float(np.max(np.abs(full)))) <= bound
        # One table of each size per step, and one step per depth at k = -n/2.
        width, height = table_shape(n)
        assert evaluated == m * (width + height) + m

    def test_matches_an_extended_precision_maximum(self):
        # The maximum sits at |k| > n/2 - width, in the last row of the
        # tables, so a table that reads another k misses it (by 5.8e-5).
        n, m, spacing = 1 << 17, 7, 124
        grid = Grid(n, 1234.567)
        half, width = n // 2, table_shape(n)[0]
        k = np.arange(-half, half)
        mu_hat = np.ones(n, dtype=np.clongdouble)
        nu_hat = np.ones(n, dtype=np.clongdouble)
        for j in range(1, m + 1):
            # c_j k is exact in long double, and the product with dxi keeps 64 bits.
            argument = np.longdouble(2 ** (j - 1) * spacing) * k * np.longdouble(grid.dxi)
            shifted = np.exp(np.clongdouble(-1j) * argument) * nu_hat
            mu_hat, nu_hat = mu_hat + shifted, mu_hat - shifted
        moduli = np.abs(nu_hat)
        assert abs(k[np.argmax(moduli)]) > half - width
        reference = value_error(m, spacing, grid, 1.0, 1, 3, unit=2.0**-64)
        value = rudin_shapiro_sup(m, spacing, grid)
        assert abs(value - np.max(moduli)) <= sup_error(m, spacing, grid, 1.0) + reference

    def test_large_depth_does_not_overflow(self):
        # c_j = 2^59 3 at m = 60: c_j l for l >= 6 is past int64, and float64
        # holds it exactly.  dxi = 2^-5 keeps every argument exact, so both
        # evaluations are within their exponentials' roundings.  The maximum
        # sits at k = -29, which the tables cover.
        m, spacing = 60, 3
        grid = Grid(64, 32.0 * math.pi)
        assert grid.dxi == 2.0**-5
        scale = _scale_factor(m, Normalization.LP_ATOMS, 1.5)
        full = rudin_shapiro_transforms(m, spacing, grid.frequencies(), "lp_atoms", 1.5)[1]
        assert np.argmax(np.abs(full)) == 32 - 29
        value = rudin_shapiro_sup(m, spacing, grid, "lp_atoms", 1.5)
        bound = sup_error(m, spacing, grid, scale) + transforms_error(m, spacing, grid, scale)
        assert abs(value - float(np.max(np.abs(full)))) <= bound

    def test_holds_span_buffers_only(self, monkeypatch):
        # One CPU and short spans, so that the span buffers stay small next
        # to one array of the grid's length.
        n, span = 1 << 16, 1 << 10
        monkeypatch.setattr(grid_module, "_cpu_count", lambda: 1)
        monkeypatch.setattr(grid_module, "_SPAN", span)
        grid = Grid(n, 3000.0)

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def full_grid():
            nu_hat = rudin_shapiro_transforms(10, 284, grid.frequencies(), "lp_atoms", 1.5)[1]
            return float(np.max(np.abs(nu_hat)))

        value, peak = peak_bytes(lambda: rudin_shapiro_sup(10, 284, grid, "lp_atoms", 1.5))
        # The tables, 10 (128 + 256) complex values, and a span of rows of
        # mu^, nu^, the product and the modulus, span / 4 values each.
        width, height = table_shape(n)
        assert peak <= 10 * (width + height) * 16 + 4 * 16 * span
        # The full-grid path holds mu^, nu^ and the frequencies: 2.5 arrays.
        full, full_peak = peak_bytes(full_grid)
        scale = _scale_factor(10, Normalization.LP_ATOMS, 1.5)
        assert abs(full - value) <= sup_error(10, 284, grid, scale) + transforms_error(
            10, 284, grid, scale
        )
        assert full_peak > 2.5 * 16 * n


class TestDisjointnessSpacing:
    def test_small_interval(self):
        assert disjointness_spacing(0.1, 5) == 1

    def test_matches_brute_force(self):
        K, m = 3.0, 2
        N = disjointness_spacing(K, m)
        assert N == 7
        support = rudin_shapiro(m, base_spacing=N).mu.locations
        intervals = [(-x - K, -x + K) for x in support]
        for i in range(len(intervals)):
            for j in range(i + 1, len(intervals)):
                lo = max(intervals[i][0], intervals[j][0])
                hi = min(intervals[i][1], intervals[j][1])
                assert lo > hi  # strictly disjoint

    def test_tiny_interval(self):
        assert disjointness_spacing(1e-9, 3) == 1


class TestSerialization:
    def test_measure_json(self):
        m = DiscreteMeasure(np.array([0.0, 2.0]), np.array([1.0, -0.5 + 0.25j]))
        d = m.to_json_dict()
        assert d == {
            "atoms": [
                {"x": 0.0, "re": 1.0, "im": 0.0},
                {"x": 2.0, "re": -0.5, "im": 0.25},
            ]
        }
