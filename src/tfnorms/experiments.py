"""Scripted experiments: each returns a SweepReport with named assertions.

Every quantitative claim the package reproduces lives here as a pass/fail
assertion with an explicit tolerance, so the command-line runner and the
acceptance tests share one implementation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .corpus import make_corpus, make_signal
from .errors import CostGateError
from .grid import (
    _each_span,
    _split_sum,
    Grid,
    NormSpec,
    SampledSignal,
    convolve,
    fourier_forward,
    fourier_inverse,
    inner_product,
    support_leakage,
    weighted_lp_norm,
)
from .measures import (
    _scale_factor,
    _transform_depths,
    Normalization,
    disjointness_spacing,
    rudin_shapiro,
    rudin_shapiro_sup,
    rudin_shapiro_transforms,
)
from .norms import (
    _fold_lengths,
    _folded_lp,
    _norm_report,
    _norm_values,
    algebra_constant,
    modulation_norm,
    norm_value,
    partition_for,
)
from .partition import bump_profile, partition_defect, partition_profile
from .compose import (
    _check_depth,
    _check_grid_size,
    _dilated_window_samples,
    global_compose,
    named_series,
    pointwise_oracle,
    reciprocal_on_compact,
)
from .reporting import load_signal
from .stft import _check_stft_size, _in_row_order, _stft_rows, gaussian_window, stft_gram
from .windows import plateau_window, translation_difference_bound

__all__ = [
    "Assertion",
    "SweepReport",
    "stft_experiment",
    "moyal_experiment",
    "norm_experiment",
    "bupu_experiment",
    "rudin_shapiro_experiment",
    "plateau_experiment",
    "translation_bound_experiment",
    "compose_experiment",
    "reciprocal_experiment",
    "approx_unit_experiment",
    "embedding_sweep",
    "algebra_sweep",
    "counterexample_flat",
    "counterexample_l2",
]

# Grid on which integer frequency shifts are grid-aligned; the partition
# resolves blocks |k| <= 127 here.
PARTITION_L = 16.0 * math.pi


@dataclass
class Assertion:
    name: str
    tolerance: float
    measured: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "measured": self.measured,
            "pass": bool(self.passed),
        }


@dataclass
class SweepReport:
    name: str
    rows: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def check(self, name: str, measured: float, tolerance: float, passed: bool) -> None:
        self.assertions.append(Assertion(name, float(tolerance), float(measured), bool(passed)))

    def check_le(self, name: str, measured: float, bound: float) -> None:
        self.check(name, measured, bound, measured <= bound)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)


# ----------------------------------------------------------------------
# STFT and Moyal


def _gaussian_closed_form(grid: Grid):
    """closed(j0, j1): rows j0 .. j1 - 1 of the Gaussian STFT's closed form.

    With f = window = exp(-t^2/2), completing the square gives
    V(x, xi) = sqrt(pi) exp(-i x xi / 2) exp(-(x^2 + xi^2) / 4).  The rows
    come with the frequencies in FFT order, as the rows of ``_stft_rows``.
    On the grid x_j = (j - n/2) dx and xi_k = k dxi with dx dxi = 2 pi / n,
    so x_j xi_k / 2 = pi (j - n/2) k / n exactly: the phase is the root of
    unity exp(-i pi m / n) at the integer m = (j - n/2) k mod 2n, from a
    table of 2n roots, and the Gaussian is the outer product of
    exp(-x^2/4) and exp(-xi^2/4).
    """
    n = grid.n
    signed = np.arange(n) - n // 2
    k = np.fft.ifftshift(signed)
    roots = np.exp(-1j * (math.pi / n) * np.arange(2 * n))
    x_gauss = np.exp(-grid.points() ** 2 / 4.0)
    xi_gauss = math.sqrt(math.pi) * np.exp(-np.fft.ifftshift(grid.frequencies()) ** 2 / 4.0)

    def closed(j0, j1):
        rows = np.take(roots, np.multiply.outer(signed[j0:j1], k), mode="wrap")
        rows *= x_gauss[j0:j1, None]
        rows *= xi_gauss
        return rows

    return closed


def stft_experiment(
    n: int = 2048, L: float = 30.0, seed: int = 0, dump_matrix: str | None = None
) -> SweepReport:
    """Gaussian STFT against its closed form, plus the convolution-form identity.

    The plane is checked one span of rows at a time in the hook of
    ``_stft_rows``, as the spans are finished, so only span-sized arrays of
    it are live; the closed form is built and compared 8 rows at a time, so
    that its temporaries stay small next to the span's rows.  With
    dump_matrix the hook also formats each span's magnitude rows as text on
    its own thread, as ``np.savetxt(..., delimiter=",", fmt="%.17g")``
    would, and hands the lines to ``_in_row_order``, which writes them to
    the CSV file in row order, so the dump holds no n x n array either.
    """
    _check_stft_size(n)
    report = SweepReport("stft")
    grid = Grid(n, L)
    g = gaussian_window(grid)
    x = grid.points()
    closed = _gaussian_closed_form(grid)
    columns = (n // 2 - n // 8, n // 2, n // 2 + n // 16)
    fft_columns = [(k + n // 2) % n for k in columns]
    picked = np.empty((n, len(columns)), dtype=complex)
    span_errors = []  # one max per 8 rows; the spans may finish in any order
    half = n // 2
    line = ",".join(["%.17g"] * n) + "\n"  # np.savetxt's row format
    dump = None  # with dump_matrix, the in-order writer of the lines

    def check(j0, rows):
        v = rows[0]
        for a in range(0, len(v), 8):
            diff = closed(j0 + a, j0 + min(a + 8, len(v)))
            np.subtract(v[a : a + 8], diff, out=diff)
            span_errors.append(float(np.max(np.abs(diff))))
        picked[j0 : j0 + len(v)] = v[:, fft_columns]
        if dump is not None:
            magnitudes = np.empty(v.shape)
            np.abs(v[:, half:], out=magnitudes[:, :half])
            np.abs(v[:, :half], out=magnitudes[:, half:])
            dump(j0, [line % tuple(row) for row in magnitudes])

    if dump_matrix:
        report.extras["matrix_dump"] = str(dump_matrix)
        with open(dump_matrix, "w") as out:
            dump = _in_row_order(out.writelines)
            _stft_rows([g], [g], check)
    else:
        _stft_rows([g], [g], check)
    closed_error = max(span_errors)
    report.check_le("gaussian_closed_form_sup_error", closed_error, 1e-6)

    # convolution form exp(-i x xi) (f * M_xi w~)(x) at sampled columns
    wconj = np.roll(np.conj(g.samples[::-1]), 1)
    worst = 0.0
    for k, column in zip(columns, picked.T):
        xi_k = grid.frequencies()[k]
        modulated = SampledSignal(grid, np.exp(1j * xi_k * x) * wconj)
        row = np.exp(-1j * x * xi_k) * convolve(g, modulated).samples
        error = float(np.max(np.abs(row - column)))
        worst = max(worst, error)
        report.rows.append({"xi": float(xi_k), "conv_form_error": error})
    report.check_le("convolution_form_sup_error", worst, 1e-8)
    return report


def moyal_experiment(n: int = 2048, L: float = 30.0, seed: int = 0) -> SweepReport:
    """Moyal residuals over all corpus pairs and the L2 identity ratio.

    Both come from one Gram matrix of the corpus STFTs (:func:`stft_gram`).
    """
    _check_stft_size(n)
    report = SweepReport("moyal")
    grid = Grid(n, L)
    window = gaussian_window(grid)
    corpus = make_corpus(grid, seed=seed)
    names = [name for name, _ in corpus]
    signals = [sig for _, sig in corpus]

    gram = stft_gram(signals, window)
    l2 = [weighted_lp_norm(sig, 2.0) for sig in signals]
    w_l2 = weighted_lp_norm(window, 2.0)

    worst = 0.0
    for i in range(len(signals)):
        for j in range(i, len(signals)):
            rhs = 2.0 * math.pi * (w_l2**2) * inner_product(signals[i], signals[j])
            residual = abs(gram[i, j] - rhs) / (l2[i] * l2[j] * w_l2**2)
            worst = max(worst, residual)
            report.rows.append({"pair": f"{names[i]}|{names[j]}", "residual": float(residual)})
    report.check_le("moyal_max_residual", worst, 1e-6)

    expected = math.sqrt(2.0 * math.pi) * w_l2
    ratios = [math.sqrt(gram[i, i].real) / nf for i, nf in enumerate(l2)]
    report.extras["identity_ratio_expected"] = expected
    report.check_le(
        "l2_identity_ratio_error",
        max(abs(r - expected) / expected for r in ratios),
        1e-6,
    )
    report.check_le("l2_identity_ratio_spread", (max(ratios) - min(ratios)) / max(ratios), 1e-6)
    return report


# ----------------------------------------------------------------------
# Partition and norms


def norm_experiment(
    signal: str = "gaussian-unit",
    space: str = "modulation",
    p: float = 2.0,
    q: float = 1.0,
    s: float = 0.0,
    n: int = 4096,
    L: float = PARTITION_L,
    seed: int = 0,
) -> SweepReport:
    """Evaluate one norm and dump its block breakdown.

    The signal is either a corpus name or a path to a signal CSV, whose JSON
    sidecar must name the grid Grid(n, L), so that the config names the grid
    that was measured.
    """
    _check_grid_size(n, "norm")
    report = SweepReport("norm")
    grid = Grid(n, L)
    if str(signal).endswith(".csv"):
        f = load_signal(signal)
        if not f.grid.compatible(grid):
            raise ValueError(
                f"{signal} holds a grid with n={f.grid.n}, L={f.grid.half_width!r}, "
                f"not the requested n={n}, L={L!r}"
            )
    else:
        f = make_signal(signal, grid, seed)
    spec = NormSpec(space, p=p, q=q, s=s)
    if spec.space.value == "modulation":
        result = modulation_norm(f, p, q, s, partition_for(f.grid))
        report.extras = result.to_json_dict()
        report.rows = report.extras.pop("blocks")
    else:
        report.extras = spec.to_json_dict()
        report.extras["value"] = norm_value(f, spec)
    report.extras["signal"] = signal
    return report


def bupu_experiment(n: int = 4096, L: float = PARTITION_L, seed: int = 0) -> SweepReport:
    """Partition-of-unity identity and reconstruction from the block rows on the corpus."""
    _check_grid_size(n, "bupu-check")
    report = SweepReport("bupu-check")
    grid = Grid(n, L)
    part = partition_for(grid)
    report.check_le("partition_sum_defect", partition_defect(part), 1e-12)

    xi = np.array([0.0, 0.1, -0.1, 1.0, -1.0])
    vals = partition_profile(xi)
    report.check("plateau_and_support_exact", float(np.max(np.abs(vals - [1, 1, 1, 0, 0]))), 0.0,
                 bool(np.all(vals == [1, 1, 1, 0, 0])))

    worst = 0.0
    for name, f in make_corpus(grid, seed=seed):
        spectrum = fourier_forward(f)
        rows = part.block_rows(spectrum.samples) * part.core
        total = fourier_inverse(SampledSignal(spectrum.grid, part.overlap_add(rows))).samples
        err = weighted_lp_norm(SampledSignal(grid, total) - f, 2.0) / weighted_lp_norm(f, 2.0)
        worst = max(worst, err)
        report.rows.append({"signal": name, "reconstruction_error": float(err)})
    report.check_le("reconstruction_relative_error", worst, 1e-8)
    return report


# ----------------------------------------------------------------------
# Flat measures


def rudin_shapiro_experiment(m_max: int = 12, samples: int = 4096, seed: int = 0) -> SweepReport:
    """Exact flatness identity and the total-variation flatness bound."""
    if samples < 1:
        raise ValueError(f"need at least one frequency sample, got {samples}")
    # The identity's target 2^(m+1) overflows a float past this depth.
    deepest = sys.float_info.max_exp - 2
    if m_max < 0:
        raise ValueError(f"depth m must be >= 0, got {m_max}")
    if m_max > deepest:
        raise ValueError(
            f"depth m must be <= {deepest}, so that 2^(m+1) is a finite float, got {m_max}"
        )
    _check_grid_size(samples, "rudin-shapiro", "frequency grid")
    report = SweepReport("rudin-shapiro")
    xis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    tv_scale = _scale_factor(m_max, Normalization.TOTAL_VARIATION, None)
    # One pass over the depths, span by span.  Per span: the largest
    # |identity - 2^(m+1)| at each depth m, and the largest |mu^| at depth
    # m_max scaled to total variation 1, bitwise what
    # rudin_shapiro_transforms gives (its RAW scale is 1.0).
    identity_peaks, tv_peaks = [], []

    def run(lo: int, hi: int) -> None:
        peaks = np.empty(m_max + 1)
        for m, (mu_hat, nu_hat) in enumerate(_transform_depths(m_max, 1, xis[lo:hi])):
            identity = np.abs(mu_hat) ** 2 + np.abs(nu_hat) ** 2
            peaks[m] = np.max(np.abs(identity - 2.0 ** (m + 1)))
        identity_peaks.append(peaks)
        tv_peaks.append(np.max(np.abs(np.multiply(tv_scale, mu_hat))))

    _each_span(run, samples, 1)
    worst = 0.0
    for m, peak in enumerate(np.max(identity_peaks, axis=0)):
        target = 2.0 ** (m + 1)
        err = float(peak) / target
        worst = max(worst, err)
        report.rows.append({"depth": m, "identity_relative_error": err})
    report.check_le("identity_max_relative_error", worst, 1e-12)

    bound = 2.0 ** ((1.0 - m_max) / 2.0)
    report.check_le("tv_flatness_sup", float(max(tv_peaks)), bound)

    pair = rudin_shapiro(min(m_max, 10), 1, Normalization.TOTAL_VARIATION)
    report.check("tv_total_variation", pair.mu.total_variation, 1e-12,
                 abs(pair.mu.total_variation - 1.0) <= 1e-12)
    report.check("support_size", float(pair.mu.atom_count), 0.0,
                 pair.mu.atom_count == 2**pair.depth)
    return report


# ----------------------------------------------------------------------
# Plateau windows


def plateau_experiment(n: int = 4096, L: float = PARTITION_L, seed: int = 0) -> SweepReport:
    """Plateau, support, and factorization invariants over the test matrix."""
    _check_grid_size(n, "plateau")
    report = SweepReport("plateau")
    grid = Grid(n, L)
    for center, radius in [(0.0, 1.0), (2.0, 0.5), (-3.0, 0.25)]:
        w = plateau_window(center, radius, grid)
        x = grid.points()
        psi = w.window.samples
        plateau_err = float(np.max(np.abs(psi[np.abs(x - center) <= radius] - 1.0)))
        outside = np.abs(x - center) >= w.support_radius + grid.dx
        tail = float(np.max(np.abs(psi[outside])))
        negativity = max(0.0, -float(np.min(psi.real)))
        refactor = w.factorization_error()
        report.rows.append(
            {
                "center": center,
                "radius": radius,
                "plateau_error": plateau_err,
                "tail": tail,
                "negativity": negativity,
                "factorization_error": refactor,
                "support_leakage": support_leakage(w.window),
            }
        )
        tag = f"t0={center:g}_R={radius:g}"
        report.check_le(f"plateau_error[{tag}]", plateau_err, 1e-6)
        report.check_le(f"support_tail[{tag}]", tail, 1e-10)
        report.check_le(f"negativity[{tag}]", negativity, 1e-10)
        report.check_le(f"factorization_error[{tag}]", refactor, 1e-8)
    return report


def translation_bound_experiment(
    n: int = 4096, L: float = PARTITION_L, seed: int = 0
) -> SweepReport:
    """Fit the translation-difference constant on half the sweep, verify on the rest."""
    _check_grid_size(n, "translation-bound")
    report = SweepReport("translation-bound")
    grid = Grid(n, L)
    w = plateau_window(0.0, 1.0, grid)
    thetas = np.geomspace(0.1, 10.0, 16)
    entries = []
    for s in (0.0, 0.5, 0.9):
        for theta in thetas:
            lhs, rhs = translation_difference_bound(w, s, float(theta))
            entries.append((s, float(theta), lhs, rhs))
            report.rows.append({"s": s, "theta": float(theta), "lhs": lhs, "rhs": rhs})
    ratios = np.array([lhs / rhs for _, _, lhs, rhs in entries])
    fitted = float(np.max(ratios[::2]))
    holdout = ratios[1::2]
    violations = int(np.sum(holdout > fitted * (1.0 + 1e-9)))
    report.extras["fitted_constant"] = fitted
    report.check("holdout_violations", float(violations), 0.0, violations == 0)
    report.check_le("ratio_band", float(np.max(ratios) / np.min(ratios)), 10.0)
    return report


# ----------------------------------------------------------------------
# Composition


_MAX_PAIRS = 10**6


def _algebra_pairs(corpus, seed: int, count: int):
    names = [name for name, _ in corpus]
    by_name = dict(corpus)
    # One draw of all indices gives those of one draw per pair: the
    # generator keeps the unused half of each 64-bit word in its state.
    for a, b in np.random.default_rng(seed).choice(len(names), size=(count, 2), replace=True):
        yield names[a], by_name[names[a]], names[b], by_name[names[b]]


# measured_algebra_constant stays a plain function in front of the cache so
# that perfbench's tracer, which wraps functions by name, still sees each call.
# compose, reciprocal (twice) and algebra-sweep's first spec share one key.
@functools.lru_cache(maxsize=8)
def _cached_algebra_constant(spec: NormSpec, n: int, L: float, seed: int, count: int) -> float:
    grid = Grid(n, L)
    corpus = make_corpus(grid, seed=seed)
    return algebra_constant(_algebra_pairs(corpus, seed + 17, count), spec)


def measured_algebra_constant(
    spec: NormSpec, n: int, L: float, seed: int, count: int = 50
) -> float:
    """Empirical multiplication constant of spec on the seeded corpus of the
    (n, L) grid, computed once per argument set in each process."""
    return _cached_algebra_constant(spec, n, L, seed, count)


def compose_experiment(
    function: str = "square",
    n: int = 8192,
    L: float = PARTITION_L,
    seed: int = 0,
    p: float = 2.0,
    s: float = 0.0,
) -> SweepReport:
    """Global composition of a named analytic function with a Gaussian."""
    _check_grid_size(n, "compose")
    report = SweepReport("compose")
    grid = Grid(n, L)
    spec = NormSpec.modulation(p, 1.0, s)
    c_hat = measured_algebra_constant(spec, min(n, 4096), L, seed)
    f = make_signal("gaussian-unit", grid, seed)
    series = named_series(function, 0.0)
    g, diag, patches = global_compose(f, series, spec, c_hat)
    oracle = pointwise_oracle(function)(f.samples)
    sup_error = float(np.max(np.abs(g.samples - oracle)))
    tolerance = 1e-7 if function in ("square", "identity") else 1e-6
    report.extras = {
        "function": function,
        "c_hat": c_hat,
        "norm_of_result": norm_value(g, spec),
        **{k: float(v) for k, v in diag.items()},
    }
    report.rows = [
        {"patch_center": p_.center, "lam": p_.lam, "terms": p_.truncation, "tail_bound": p_.tail_bound}
        for p_ in patches
    ]
    report.check_le("composition_sup_error", sup_error, tolerance)
    report.check_le("partition_defect", diag["partition_defect"], 1e-10)
    return report


def reciprocal_experiment(
    n: int = 8192,
    L: float = PARTITION_L,
    seed: int = 0,
    interval: tuple = (-5.0, 5.0),
    p: float = 2.0,
    s: float = 0.0,
) -> SweepReport:
    """Reciprocal of 2 + sin x on a compact interval, with refinement stability."""
    if len(interval) != 2:
        raise ValueError(f"interval needs two end points, got {len(interval)}")
    a, b = map(float, interval)
    _check_grid_size(2 * n, "reciprocal", "refined grid")
    report = SweepReport("reciprocal")
    spec = NormSpec.modulation(p, 1.0, s)

    def run(n_run):
        grid = Grid(n_run, L)
        c_hat = measured_algebra_constant(spec, min(n_run, 4096), L, seed)
        f = SampledSignal(grid, (2.0 + np.sin(grid.points())).astype(complex))
        g, glued, _ = reciprocal_on_compact(f, (a, b), spec, c_hat)
        inside = (grid.points() >= a) & (grid.points() <= b)
        sup = float(np.max(np.abs(f.samples[inside] * g.samples[inside] - 1.0)))
        return sup, norm_value(g, spec), glued

    sup_coarse, norm_coarse, glued = run(n)
    sup_fine, norm_fine, _ = run(2 * n)
    report.rows = [
        {"n": n, "sup_residual": sup_coarse, "norm": norm_coarse},
        {"n": 2 * n, "sup_residual": sup_fine, "norm": norm_fine},
    ]
    report.extras = {"patch_count": glued.patch_count, "partition_defect": glued.partition_defect}
    report.check_le("reciprocal_sup_residual", max(sup_coarse, sup_fine), 1e-6)
    report.check_le("norm_refinement_drift", abs(norm_fine / norm_coarse - 1.0), 0.05)
    report.check_le("partition_defect", glued.partition_defect, 1e-10)
    return report


def approx_unit_experiment(
    signal: str = "gaussian-unit",
    n: int = 4096,
    L: float = PARTITION_L,
    seed: int = 0,
    p: float = 1.0,
    q: float = 1.0,
    s: float = 0.5,
    halvings: int = 6,
) -> SweepReport:
    """Widening plateau multipliers: the residual ||f - psi_lam f|| must fall."""
    report = SweepReport("approx-unit")
    grid = Grid(n, L)
    spec = NormSpec.modulation(p, q, s)
    if not spec.in_algebra_regime():
        raise ValueError("approximate-unit sweep needs an algebra-regime spec")
    if halvings < 0:
        raise ValueError(f"halvings must be >= 0, got {halvings}")
    # The smallest lam, 2^-halvings, samples the window on the finest
    # refined grid; refuse it before computing the coarser ones.
    _check_depth(halvings, "halvings", "dilation", "refined grid")
    _check_grid_size(n * 2**halvings, "dilation", "refined grid")
    f = make_signal(signal, grid, seed)
    base = plateau_window(0.0, 1.0, grid)
    f_norm = norm_value(f, spec)

    # Every halving refines the same base window, from one transform of it.
    spectrum = functools.cache(lambda: fourier_forward(base.window).samples)
    residuals = []
    lams = [0.5**k for k in range(halvings + 1)]
    for lam in lams:
        window = _dilated_window_samples(base, 0.0, lam, spectrum)
        residual = norm_value(SampledSignal(grid, (1.0 - window) * f.samples), spec)
        residuals.append(residual)
        report.rows.append({"lam": lam, "residual": residual})

    # 5 percent slack on the decrease; once the residual reaches the
    # quadrature noise floor it only has to stay there.
    floor = 1e-8 * f_norm
    monotone = all(
        b <= max(a * 1.05, floor) for a, b in zip(residuals, residuals[1:])
    )
    live = [b / a for a, b in zip(residuals, residuals[1:]) if a > floor and b > floor]
    report.check("residuals_decreasing_5pct", float(max(live, default=0.0)), 1.05, monotone)
    report.check_le("final_residual_relative", residuals[-1] / f_norm, 1e-3)
    report.extras["signal_norm"] = f_norm
    report.extras["noise_floor"] = floor
    return report


# ----------------------------------------------------------------------
# Embedding and algebra sweeps


def embedding_sweep(
    n: int = 4096, L: float = PARTITION_L, seed: int = 0
) -> SweepReport:
    """Corpus maxima of norm ratios for the standard embeddings, with
    refinement verdicts."""
    _check_grid_size(2 * n, "embedding-sweep", "refined grid")
    report = SweepReport("embedding-sweep")

    mod = NormSpec.modulation
    fb = NormSpec.fourier_beurling
    lebesgue = NormSpec.weighted_lebesgue
    cases = [
        ("M(1,1,1)->M(2,1,0)", mod(1.0, 1.0, 1.0), mod(2.0, 1.0, 0.0), None),
        ("M(1,1,0)->FL1", mod(1.0, 1.0, 0.0), fb(0.0), None),
        ("M(2,1,0)->FL1", mod(2.0, 1.0, 0.0), fb(0.0), None),
        ("FL1->M(1,1,0)[compact]", fb(0.0), mod(1.0, 1.0, 0.0), "bump"),
        ("FL1->M(2,1,0)[compact]", fb(0.0), mod(2.0, 1.0, 0.0), "bump"),
        ("M(2,2,0)->L2", mod(2.0, 2.0, 0.0), lebesgue(2.0), None),
        ("L2->M(2,2,0)", lebesgue(2.0), mod(2.0, 2.0, 0.0), None),
    ]

    specs = list(dict.fromkeys(spec for _, frm, to, _ in cases for spec in (frm, to)))
    maxima = {}
    for n_run in (n, 2 * n):
        grid = Grid(n_run, L)
        best = [0.0] * len(cases)
        for sig_name, f in make_corpus(grid, seed=seed):
            values = _norm_values(f, specs)
            for i, (_, frm, to, only) in enumerate(cases):
                if only is None or sig_name.startswith(only):
                    best[i] = max(best[i], values[to] / values[frm])
        maxima[n_run] = best

    for i, (name, _, _, _) in enumerate(cases):
        coarse, fine = maxima[n][i], maxima[2 * n][i]
        drift = abs(fine / coarse - 1.0)
        report.rows.append({"pair": name, "max_ratio": coarse, "max_ratio_refined": fine, "drift": drift})
        report.check_le(f"refinement_drift[{name}]", drift, 0.05)
        if name == "M(1,1,1)->M(2,1,0)":
            report.check_le("contractive_embedding_max_ratio", fine, 1.0 + 1e-9)
    return report


def algebra_sweep(
    n: int = 4096,
    L: float = PARTITION_L,
    seed: int = 0,
    count: int = 50,
) -> SweepReport:
    """Empirical multiplication constants, exported for the composition ops."""
    if count < 1:
        raise ValueError(f"need at least one pair, got {count}")
    if count > _MAX_PAIRS:
        raise CostGateError(f"algebra-sweep asks for {count} pairs, above the {_MAX_PAIRS}-pair gate")
    _check_grid_size(2 * n, "algebra-sweep", "refined grid")
    report = SweepReport("algebra-sweep")
    specs = [NormSpec.modulation(2.0, 1.0, 0.0), NormSpec.modulation(1.0, 1.0, 0.5)]
    for spec in specs:
        coarse = measured_algebra_constant(spec, n, L, seed, count)
        fine = measured_algebra_constant(spec, 2 * n, L, seed, count)
        drift = abs(fine / coarse - 1.0)
        tag = f"p={spec.p:g},q={spec.q:g},s={spec.s:g}"
        report.rows.append({"spec": tag, "c_hat": coarse, "c_hat_refined": fine, "drift": drift})
        report.check_le(f"c_hat_refinement_drift[{tag}]", drift, 0.10)
        report.check(f"c_hat_positive[{tag}]", coarse, 0.0, coarse > 0.0)
    return report


# ----------------------------------------------------------------------
# The two counterexamples


# Both depths of a counterexample run ask for the same (p, frac).
@functools.lru_cache(maxsize=8)
def _invphi_tail_halfwidth(p: float, frac: float) -> float:
    """Half-width containing all but `frac` of the L^p mass of F^-1 phi.

    The grid points x_(n/2 - i) and x_(n/2 + i) sit at the same radius
    i dx, so the mass |F^-1 phi|^p at radius i dx is the sum of that pair
    (the single point x = 0 at i = 0), and the far point x_0 = -L comes
    last, at i = n/2.  The masses are added up outward in i by one
    np.cumsum, and the first radius i dx at which the running sum reaches
    (1 - frac) of the total is returned.  The pair sums and the running
    sum are taken in place in the magnitudes of the one n-point inverse
    transform, so no other array of the grid's length is built.
    """
    ref = Grid(1 << 17, 2048.0 * math.pi)
    n, half = ref.n, ref.n // 2
    # The bump vanishes on |xi| >= 0.1, so it is evaluated at the frequencies
    # k dxi with |k| < reach only (as in flat_measurement), the same floats as
    # at those entries of ref.frequencies().  They go to index k mod n, where
    # fourier_inverse puts them before its transform, so the values have its
    # bits; output index t holds the point x_((t + n/2) mod n).
    reach = int(0.1 / ref.dxi) + 2
    bump = bump_profile(ref.dxi * np.arange(-reach, reach), 0.025, 0.1)
    values = np.zeros(n, dtype=complex)
    values[:reach], values[n - reach :] = bump[reach:], bump[:reach]
    np.fft.ifft(values, out=values)
    values /= ref.dual().dual().dx
    mags = np.abs(values)
    del values
    mags **= p
    # Output indices i and n - i hold the pair at radius i dx, and n/2 holds x_0.
    mass = mags[: half + 1]
    mass[1:half] += mags[:half:-1]
    np.cumsum(mass, out=mass)
    return ref.dx * float(np.searchsorted(mass, (1.0 - frac) * mass[-1]))


_TAIL_FRACTION = {1.0: 1e-2, 1.5: 1e-3}


def _flat_layout(p: float, m: int, r: int) -> tuple[Grid, int]:
    """Grid and nu spacing of one flat-counterexample run.

    The spacing keeps the translates of F^-1 phi by the support of nu
    disjoint; the grid fits the translate train with margin, and its
    frequency grid resolves every occupied block.  A negative depth, a depth
    whose power alone is above compose's refined-grid gate, both named, and
    a grid above that gate are refused before anything is built.
    """
    for name, depth in (("m", m), ("r", r)):
        if depth < 0:
            raise ValueError(f"depth {name} must be >= 0, got {depth}")
        # The grid has more than 2^m and more than 2^r samples.
        _check_depth(depth, name, f"flat counterexample at m={m}, r={r}")
    r_half = _invphi_tail_halfwidth(p, _TAIL_FRACTION.get(p, 1e-3))
    n_nu = disjointness_spacing(r_half, r)
    support = n_nu * (2**r - 1) + 2.2 * r_half
    m_int = int(math.ceil(1.15 * support / math.pi))
    nyq_needed = 2**m + 2
    n = 1 << int(math.ceil(math.log2(2 * m_int * nyq_needed)))
    _check_grid_size(n, f"flat counterexample at m={m}, r={r}")
    return Grid(n, m_int * math.pi), n_nu


def _mu_check_rows(m: int, steps: int, n: int, m_len: int):
    """The Rudin-Shapiro polynomial mu-check on the rows of a fold.

    mu-check(x) = sum_l w_l e^(i l x) for the atoms w_l delta_l of the
    depth-m measure ``rudin_shapiro(m, 1, TOTAL_VARIATION).mu``.  Its
    frequencies are integers and `steps` grid samples make one unit of
    frequency, so at grid index t (x = t dx modulo the period) its phases
    are reduced exactly in integers, l x = 2 pi (l steps t mod n) / n; the
    float t dx would be off by t dx times the rounding unit, about 1e-10 at
    n = 2^22.

    Returns at(r0, r1): mu-check at the indices t = b + P a of fold rows
    r0 <= b < r1, P = n / M, M = m_len, on one period in a: an
    (r1 - r0, per) array, per = M / gcd(steps, M), whose column a holds the
    values at every a' < M with a' = a mod per, the factor of
    ``norms._folded_lp``.  It runs the recursion of :func:`rudin_shapiro`
    on values, mu_j = mu_(j-1) + e^(i s x) nu_(j-1) and
    nu_j = mu_(j-1) - e^(i s x) nu_(j-1) for s = 2^(j-1), whose phase at t
    is the product of e^(2 pi i (s steps b mod n) / n) and
    e^(2 pi i (s steps a mod M) / M).  The column of rate s repeats after
    M / gcd(s steps, M) values, which divides per, so mu-check repeats after
    per values and the recursion runs on the first per columns, each value
    computed as in a whole-row pass.  On the large default grids (one CPU,
    numpy 2.4) the whole-row pass took 0.47 of the time of Horner's rule on
    the 2^m weights at m = 6 and 0.8 of it at m = 4, with 1.7e-15 against
    3e-14 and 6e-15 of error.
    """
    rates = [2 ** (j - 1) * steps for j in range(1, m + 1)]
    per = m_len // math.gcd(steps, m_len)
    # Only the period of each column is kept: at most 2 M values for all
    # rates together, against m M for whole columns (2 MiB at m = 4 on the
    # 2^22 grid).
    columns = [np.exp(2j * math.pi / m_len * (rate * np.arange(m_len // math.gcd(rate, m_len))
                                              % m_len)) for rate in rates]

    def at(r0: int, r1: int) -> np.ndarray:
        b = np.arange(r0, r1)
        mu = np.ones((r1 - r0, per), dtype=complex)
        nu = np.ones_like(mu)
        shifted = np.empty_like(mu)
        for rate, column in zip(rates, columns):
            row = np.exp(2j * math.pi / n * (rate * b % n))
            np.multiply(row[:, None, None], column, out=shifted.reshape(r1 - r0, -1, column.size))
            shifted *= nu
            np.subtract(mu, shifted, out=nu)
            mu += shifted
        mu *= 2.0**-m
        return mu

    return at


def flat_measurement(p: float, m: int, r: int) -> dict:
    """One run of the flat-spectrum construction; returns measured quantities.

    Builds the transform as exact integer translates of nu-hat times the
    frequency bump and measures every norm in the inequality chain, on the
    grid of :func:`_flat_layout`, 2^17-2^22 samples here.  No transform of
    the grid's length runs:

    - phi and nu-hat are evaluated on phi's support only, and the maximum
      of |nu-hat| over the whole grid comes from :func:`rudin_shapiro_sup`,
      which takes its phases from two tables of about sqrt(n/2) values per
      step and holds span buffers only.
    - The L^p norms of F^-1 phi, of g = F^-1(nu-hat phi) and of f are
      folds of phi's W coefficients (``norms._folded_lp``): P = n / M
      inverse transforms of length M >= W.  f = mu-check g, where mu-check
      is the Rudin-Shapiro polynomial of the translates (see
      :func:`_mu_check_rows`), so one fold of nu-hat phi gives ||g||_p and,
      with |g|^p multiplied by |mu-check|^p at every grid point, ||f||_p.
      mu-check is computed on one period of each fold row, per <= M
      values, and broadcast over the row.
    - The spectrum of f is 2^m disjoint translates of base = nu-hat phi,
      weighted +-2^-m, and is never built.  base lives on |xi| < 0.1, where
      the partition's cutoff of block 0 is 1 and those of its neighbours
      are 0, so block k of f-hat is w_k base(. - k) for each atom
      w_k delta_k of mu, and 0 for every other k.  A shift in frequency
      only modulates the inverse transform, so that block's L^p norm is
      |w_k| ||g||_p, and |w_k| = 2^-m for every atom.
    - The L^1 norm of phi is dxi times the sum of phi over its support.
      The 2^m translates of base in f-hat are disjoint, since the plateau
      check below holds only for a base narrower than the unit shift, and
      their |w_k| sum to exactly 1, so the L^1 norm of f-hat is dxi times
      the sum of |base|.  No array of the grid's length is built.
    """
    if not 1.0 <= p < 2.0:
        raise ValueError("the flat counterexample needs p in [1, 2)")
    grid, n_nu = _flat_layout(p, m, r)
    part = partition_for(grid)

    # The bump vanishes on |xi| >= 0.1, so only the frequencies k dxi with
    # |k| < reach are built; they and the bump are elementwise, so their
    # values are those of a full-grid evaluation.  [first, last) is the
    # bump's support in xi; it starts at grid index lo.
    half = grid.n // 2
    reach = min(int(0.1 / grid.dxi) + 2, half)
    xi = grid.dxi * np.arange(-reach, reach)
    phi = bump_profile(xi, 0.025, 0.1)
    inside = np.flatnonzero(phi > 0)
    first, last = int(inside[0]), int(inside[-1]) + 1
    lo = first + half - reach
    phi = phi[first:last]
    nu_inf = rudin_shapiro_sup(r, n_nu, grid, Normalization.LP_ATOMS, p=p)
    nu_hat = rudin_shapiro_transforms(r, n_nu, xi[first:last], Normalization.LP_ATOMS, p=p)[1]

    phi_l1 = grid.dxi * float(np.sum(phi))
    # phi masks both rows: a row of ones gives phi, the row nu-hat base.
    invphi_lp = float(_folded_lp(np.ones((1, phi.size)), np.array([0]), phi, p, grid.n, grid.dx)[0])
    steps = part.steps_per_unit
    mu_check = _mu_check_rows(m, steps, grid.n, _fold_lengths(phi.size, grid.n)[0])
    g_lp, f_lp = _folded_lp(nu_hat[None], np.array([0]), phi, p, grid.n, grid.dx,
                            mu_check)[:, 0].tolist()
    del mu_check  # mu_check holds one period of each of its m columns
    base = nu_hat * phi

    # f-hat is w base from lo + shift on for each atom w delta_loc
    # of mu, shift = loc * steps; block loc is that alone, of norm |w| g_lp,
    # if base sits on its core's plateau: at `offset` in the block window the
    # core must be 1 and the neighbouring cores, half a window away, 0.
    mu = rudin_shapiro(m, 1, Normalization.TOTAL_VARIATION).mu
    locations = np.round(mu.locations).astype(int)
    core, offset = part.core, lo - part.window_start(0)
    taken = np.arange(offset, offset + base.size)
    if (offset < 0 or taken[-1] >= core.size or np.any(core[taken] != 1.0)
            or np.any(core[(taken + steps) % core.size] != 0.0)):
        raise ValueError("a translate of f-hat leaves the plateau of its block")
    block_norms = np.zeros(len(part.block_indices()))
    block_norms[locations + part.max_block_index] = abs(mu.weights[0]) * g_lp
    mod = _norm_report(block_norms, NormSpec.modulation(p, 1.0, 0.0), part).value
    fhat_l1 = grid.dxi * float(np.sum(np.abs(base)))
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


def _signal_lp_bound(p: float, run: dict) -> float:
    """Bound C on f_lp of one :func:`flat_measurement` run at exponent p, at every depth.

    f = mu-check g pointwise, and with TOTAL_VARIATION weights the flatness
    identity gives |mu-check| <= 2^((1 - m) / 2).  g is the sum of 2^r
    translates of F^-1 phi, with weights of modulus 2^(-r/p), spaced more
    than 2 r_half apart (:func:`_flat_layout`).  Split F^-1 phi at r_half:
    the inner parts are disjoint, so their sum has L^p norm at most
    invphi_lp, and by Minkowski the 2^r tails, each at most frac^(1/p)
    invphi_lp, add at most 2^(r (1 - 1/p)) frac^(1/p) invphi_lp.  frac is
    the tail fraction as measured on the reference grid of
    :func:`_invphi_tail_halfwidth`.
    """
    m, r = run["m"], run["r"]
    tails = 2.0 ** (r * (1.0 - 1.0 / p)) * _TAIL_FRACTION.get(p, 1e-3) ** (1.0 / p)
    return 2.0 ** ((1 - m) / 2) * run["invphi_lp"] * (1.0 + tails)


def counterexample_flat(
    p: float = 1.0,
    m: int | None = None,
    r: int | None = None,
    seed: int = 0,
) -> SweepReport:
    """Scaling run of the flat counterexample at (m, r) and (m+2, r+2).

    Checks the inequality chain at both depths and the growth of the
    headline ratio (block norm over Segal norm).
    """
    default_m, default_r = (4, 4) if p == 1.0 else (2, 8)
    m = default_m if m is None else m
    r = default_r if r is None else r
    report = SweepReport("counterexample-flat")
    runs = [flat_measurement(p, m, r), flat_measurement(p, m + 2, r + 2)]
    for run in runs:
        report.rows.append(run)
        tag = f"m={run['m']},r={run['r']}"
        report.check(
            f"lower_bound_A[{tag}]",
            run["modulation_norm"],
            run["invphi_lp"] / 2.0 ** (1.0 + 1.0 / p),
            run["modulation_norm"] >= run["invphi_lp"] / 2.0 ** (1.0 + 1.0 / p),
        )
        report.check_le(
            f"transform_l1_B[{tag}]",
            run["fhat_l1"],
            run["nu_hat_sup"] * run["phi_l1"] * (1.0 + 1e-12),
        )
        report.check_le(
            f"signal_lp_C[{tag}]",
            run["f_lp"],
            _signal_lp_bound(p, run) * (1.0 + 1e-12),
        )
    growth = runs[1]["headline_ratio"] / runs[0]["headline_ratio"]
    report.extras["ratio_growth"] = growth
    report.check("headline_ratio_growth", growth, 1.6, growth >= 1.6)
    return report


def _exp_integral_e1(x: float) -> float:
    """E1(x) = integral_x^inf exp(-t) / t dt, for 1 <= x < inf.

    The continued fraction of Abramowitz & Stegun 5.1.22 by the modified
    Lentz method: 88 terms at x = 1, and at most 12 for x >= ln 10^6.
    """
    if not 1.0 <= x < math.inf:
        raise ValueError(f"E1 is evaluated for 1 <= x < inf only, got {x}")
    b, c, d = x + 1.0, math.inf, 1.0 / (x + 1.0)  # c starts at Lentz's 1 / tiny
    h, delta, i = d, 0.0, 0
    while abs(delta - 1.0) > sys.float_info.epsilon:
        i += 1
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        delta = c * d
        h *= delta
    return h * math.exp(-x)


# g and g' of each series of counterexample_l2 from k and ln k: math.log's
# float in the closed forms, np.log's array in the direct sums.
_SERIES_TERMS = {
    "mod": (lambda k, lk: math.sqrt(2.0) / (k * lk),
            lambda k, lk: -math.sqrt(2.0) * (lk + 1.0) / (k * lk) ** 2),
    "beurling": (lambda k, lk: 2.0 / (k * lk**2),
                 lambda k, lk: -2.0 * (lk + 2.0) / (k**2 * lk**3)),
    "l2": (lambda k, lk: 2.0 / (k**2 * lk**2),
           lambda k, lk: -2.0 * (2.0 * lk + 2.0) / (k**3 * lk**3)),
}


def _series_segment(kind: str, a: int, b: int) -> float:
    """Closed-form Euler-Maclaurin value of sum_{k=a+1}^{b} g(k).

    kind selects g: 'mod' -> sqrt(2)/(k ln k), 'beurling' -> 2/(k ln^2 k),
    'l2' -> 2/(k^2 ln^2 k).  Valid far from the lower summation limit.
    """
    g, gp = _SERIES_TERMS[kind]
    la, lb = math.log(a), math.log(b)
    if kind == "mod":
        integral = math.sqrt(2.0) * (math.log(lb) - math.log(la))
    elif kind == "beurling":
        integral = 2.0 / la - 2.0 / lb
    else:
        # integral 2/(k^2 ln^2 k) dk = 2 [ -1/(k ln k) + E1(ln k) ]
        term = lambda k, lk: -1.0 / (k * lk) + _exp_integral_e1(lk)
        integral = 2.0 * (term(b, lb) - term(a, la))
    return integral + (g(b, lb) - g(a, la)) / 2.0 + (gp(b, lb) - gp(a, la)) / 12.0


def _series_partial(kind: str, k0: int, K: int, direct_limit: int = 10**6) -> float:
    """Partial sum from k0 to K in ascending order, closed forms only.

    The terms up to direct_limit are summed as one np.sum of them would be,
    bit for bit, in the parts of ``grid._split_sum``, one span budget each,
    so no array of all the terms is built.  With k0 > direct_limit, the
    closed forms give the whole sum.
    """
    cut = max(k0 - 1, min(K, direct_limit))
    g = _SERIES_TERMS[kind][0]

    def terms(lo: int, hi: int) -> tuple:
        k = np.arange(k0 + lo, k0 + hi, dtype=float)
        return (g(k, np.log(k)),)

    # Each term holds k, its log and two temporaries.
    total = float(_split_sum(terms, cut + 1 - k0, 4)[0, 0])
    if K > cut:
        total += _series_segment(kind, cut, K)
    return total


def counterexample_l2(
    k0: int = 3,
    checkpoints: tuple = (10**3, 10**6, 10**12),
    seed: int = 0,
) -> SweepReport:
    """Per-block closed-form sums for the p = 2 membership gap.

    The block norms are sqrt(2)/(k ln k) (diverges like sqrt(2) ln ln K)
    against the convergent transform-side sums 2/(k ln^2 k) and
    2/(k^2 ln^2 k).
    """
    if k0 < 3:
        raise ValueError("k0 must be at least 3 so ln k stays above 1")
    checkpoints = tuple(int(c) for c in checkpoints)
    if len(checkpoints) < 2:
        raise ValueError(f"need at least two checkpoints, got {len(checkpoints)}")
    if checkpoints[0] < k0:
        raise ValueError(f"checkpoints must be at least k0 = {k0}, got {checkpoints[0]}")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    # The closed forms of the l2 series take k^3 as a float.
    if checkpoints[-1] ** 3 > sys.float_info.max:
        raise ValueError(
            f"checkpoints must be at most {sys.float_info.max ** (1 / 3):.3g}, so that k^3 is a "
            f"finite float, got {float(checkpoints[-1]):.3g}"
        )
    report = SweepReport("counterexample-l2")

    mod_sums = [_series_partial("mod", k0, K) for K in checkpoints]
    fb_sums = [_series_partial("beurling", k0, K) for K in checkpoints]
    l2_sums = [_series_partial("l2", k0, K) for K in checkpoints]
    for K, sm, sf, s2 in zip(checkpoints, mod_sums, fb_sums, l2_sums):
        report.rows.append({"K": K, "block_sum": sm, "transform_l1_sum": sf, "l2_sum": s2})

    target = math.sqrt(2.0) * math.log(2.0)
    for i in range(len(checkpoints) - 1):
        expected = math.sqrt(2.0) * math.log(
            math.log(checkpoints[i + 1]) / math.log(checkpoints[i])
        )
        increment = mod_sums[i + 1] - mod_sums[i]
        if checkpoints[i] >= 10**3 and abs(expected - target) < 1e-9:
            report.check(
                f"squaring_increment[K={checkpoints[i]:.0e}]",
                increment,
                0.1 * target,
                abs(increment - target) <= 0.1 * target,
            )

    tail_bound = 2.0 / math.log(checkpoints[0])
    measured_tail = fb_sums[-1] - fb_sums[0]
    report.check_le("transform_l1_tail_vs_integral_bound", measured_tail, tail_bound)
    l2_diffs = [b - a for a, b in zip(l2_sums, l2_sums[1:])]
    decreasing = all(b <= a for a, b in zip(l2_diffs, l2_diffs[1:])) if len(l2_diffs) > 1 else True
    report.check("l2_differences_decreasing", float(l2_diffs[-1]), float(l2_diffs[0]), decreasing)
    # integral tail bound past the second-to-last checkpoint
    K_prev = checkpoints[-2]
    l2_bound = 2.0 / (K_prev * math.log(K_prev) ** 2)
    report.check_le("l2_last_difference_vs_tail_bound", float(l2_diffs[-1]), l2_bound)
    report.extras["divergent_target_increment"] = target
    report.extras["last_checkpoint"] = float(checkpoints[-1])
    return report
