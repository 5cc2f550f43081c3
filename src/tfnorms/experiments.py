"""Scripted experiments: each returns a SweepReport with named assertions.

Every quantitative claim the package reproduces lives here as a pass/fail
assertion with an explicit tolerance, so the command-line runner and the
acceptance tests share one implementation.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import make_corpus, make_signal
from .grid import (
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
    Normalization,
    disjointness_spacing,
    rudin_shapiro,
    rudin_shapiro_transforms,
)
from .norms import (
    algebra_constant,
    modulation_norm,
    norm_value,
    partition_for,
)
from .partition import bump_profile, frequency_block, partition_defect, partition_profile
from .compose import (
    _check_refined_size,
    _dilated_window_samples,
    global_compose,
    named_series,
    pointwise_oracle,
    reciprocal_on_compact,
)
from .reporting import load_signal
from .stft import _stft_rows, gaussian_window, stft_gram
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
    axis: str
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


def _corpus_on(n: int, L: float, seed: int):
    return make_corpus(Grid(n, L), seed=seed)


# ----------------------------------------------------------------------
# STFT and Moyal


def stft_experiment(
    n: int = 2048, L: float = 30.0, seed: int = 0, dump_matrix: str | None = None
) -> SweepReport:
    """Gaussian STFT against its closed form, plus the convolution-form identity.

    The plane is checked one row chunk at a time; with dump_matrix the
    magnitude rows go to the CSV file as they come.
    """
    report = SweepReport("stft", axis="xi")
    grid = Grid(n, L)
    g = gaussian_window(grid)
    x = grid.points()
    xi = np.fft.ifftshift(grid.frequencies())[None, :]  # chunk columns come in FFT order
    columns = (n // 2 - n // 8, n // 2, n // 2 + n // 16)
    fft_columns = [(k + n // 2) % n for k in columns]
    picked = np.empty((n, len(columns)), dtype=complex)
    closed_error = 0.0
    if dump_matrix:
        report.extras["matrix_dump"] = str(dump_matrix)
    with open(dump_matrix, "w") if dump_matrix else contextlib.nullcontext() as dump:
        for j0, block in _stft_rows([g], [g], buffers=4):
            v = block[0]
            xj = x[j0 : j0 + v.shape[0], None]
            closed = (
                math.sqrt(math.pi) * np.exp(-1j * xj * xi / 2.0) * np.exp(-(xj**2 + xi**2) / 4.0)
            )
            closed_error = max(closed_error, float(np.max(np.abs(v - closed))))
            picked[j0 : j0 + v.shape[0]] = v[:, fft_columns]
            if dump is not None:
                np.savetxt(dump, np.abs(np.fft.fftshift(v, axes=-1)), delimiter=",", fmt="%.17g")
    report.check_le("gaussian_closed_form_sup_error", closed_error, 1e-6)

    # convolution form exp(-i x xi) (f * M_xi w~)(x) at sampled columns
    wconj = np.roll(np.conj(g.samples[::-1]), 1)
    worst = 0.0
    for k, column in zip(columns, picked.T):
        xi_k = grid.frequencies()[k]
        modulated = SampledSignal(grid, np.exp(1j * xi_k * x) * wconj)
        row = np.exp(-1j * x * xi_k) * convolve(g, modulated).samples
        worst = max(worst, float(np.max(np.abs(row - column))))
        report.rows.append({"xi": float(xi_k), "conv_form_error": worst})
    report.check_le("convolution_form_sup_error", worst, 1e-8)
    return report


def moyal_experiment(n: int = 2048, L: float = 30.0, seed: int = 0) -> SweepReport:
    """Moyal residuals over all corpus pairs and the L2 identity ratio.

    Both come from one Gram matrix of the corpus STFTs (:func:`stft_gram`).
    """
    report = SweepReport("moyal", axis="pair")
    grid = Grid(n, L)
    window = gaussian_window(grid)
    corpus = _corpus_on(n, L, seed)
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
    report = SweepReport("norm", axis="k")
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
    """Partition-of-unity identity and block reconstruction on the corpus."""
    report = SweepReport("bupu-check", axis="signal")
    grid = Grid(n, L)
    part = partition_for(grid)
    report.check_le("partition_sum_defect", partition_defect(part), 1e-12)

    xi = np.array([0.0, 0.1, -0.1, 1.0, -1.0])
    vals = partition_profile(xi)
    report.check("plateau_and_support_exact", float(np.max(np.abs(vals - [1, 1, 1, 0, 0]))), 0.0,
                 bool(np.all(vals == [1, 1, 1, 0, 0])))

    worst = 0.0
    for name, f in _corpus_on(n, L, seed):
        spectrum = fourier_forward(f).samples
        total = np.zeros(grid.n, dtype=complex)
        for k in part.block_indices():
            total += frequency_block(f, k, part, spectrum=spectrum).samples
        err = weighted_lp_norm(SampledSignal(grid, total) - f, 2.0) / weighted_lp_norm(f, 2.0)
        worst = max(worst, err)
        report.rows.append({"signal": name, "reconstruction_error": float(err)})
    report.check_le("reconstruction_relative_error", worst, 1e-8)
    return report


# ----------------------------------------------------------------------
# Flat measures


def rudin_shapiro_experiment(m_max: int = 12, samples: int = 4096, seed: int = 0) -> SweepReport:
    """Exact flatness identity and the total-variation flatness bound."""
    report = SweepReport("rudin-shapiro", axis="depth")
    xis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    worst = 0.0
    for m in range(m_max + 1):
        mu_hat, nu_hat = rudin_shapiro_transforms(m, 1, xis)
        identity = np.abs(mu_hat) ** 2 + np.abs(nu_hat) ** 2
        target = 2.0 ** (m + 1)
        err = float(np.max(np.abs(identity - target))) / target
        worst = max(worst, err)
        report.rows.append({"depth": m, "identity_relative_error": err})
    report.check_le("identity_max_relative_error", worst, 1e-12)

    mu_hat, _ = rudin_shapiro_transforms(m_max, 1, xis, Normalization.TOTAL_VARIATION)
    bound = 2.0 ** ((1.0 - m_max) / 2.0)
    report.check_le("tv_flatness_sup", float(np.max(np.abs(mu_hat))), bound)

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
    report = SweepReport("plateau", axis="window")
    grid = Grid(n, L)
    for center, radius in [(0.0, 1.0), (2.0, 0.5), (-3.0, 0.25)]:
        w = plateau_window(center, radius, grid)
        x = grid.points()
        psi = w.window.samples
        plateau_err = float(np.max(np.abs(psi[np.abs(x - center) <= radius] - 1.0)))
        outside = np.abs(x - center) >= w.support_radius + grid.dx
        tail = float(np.max(np.abs(psi[outside])))
        negativity = max(0.0, -float(np.min(psi.real)))
        refactor = float(
            np.max(np.abs(convolve(w.piece1, w.piece2).samples - psi))
        )
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
    report = SweepReport("translation-bound", axis="theta")
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


def _algebra_pairs(corpus, seed: int, count: int):
    rng = np.random.default_rng(seed)
    names = [name for name, _ in corpus]
    by_name = dict(corpus)
    pairs = []
    for _ in range(count):
        a, b = rng.choice(len(names), size=2, replace=True)
        pairs.append((names[a], by_name[names[a]], names[b], by_name[names[b]]))
    return pairs


# measured_algebra_constant stays a plain function in front of the cache so
# that perfbench's tracer, which wraps functions by name, still sees each call.
# compose, reciprocal (twice) and algebra-sweep's first spec share one key.
@functools.lru_cache(maxsize=8)
def _cached_algebra_constant(spec: NormSpec, n: int, L: float, seed: int, count: int) -> float:
    grid = Grid(n, L)
    corpus = make_corpus(grid, seed=seed)
    return algebra_constant(_algebra_pairs(corpus, seed + 17, count), spec, partition_for(grid))


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
    report = SweepReport("compose", axis="x")
    grid = Grid(n, L)
    part = partition_for(grid)
    spec = NormSpec.modulation(p, 1.0, s)
    c_hat = measured_algebra_constant(spec, min(n, 4096), L, seed)
    f = make_signal("gaussian-unit", grid, seed)
    series = named_series(function, 0.0)
    g, diag, patches = global_compose(f, series, spec, c_hat, part)
    oracle = pointwise_oracle(function)(f.samples)
    sup_error = float(np.max(np.abs(g.samples - oracle)))
    tolerance = 1e-7 if function in ("square", "identity") else 1e-6
    report.extras = {
        "function": function,
        "c_hat": c_hat,
        "norm_of_result": norm_value(g, spec, part),
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
    report = SweepReport("reciprocal", axis="n")
    spec = NormSpec.modulation(p, 1.0, s)

    def run(n_run):
        grid = Grid(n_run, L)
        part = partition_for(grid)
        c_hat = measured_algebra_constant(spec, min(n_run, 4096), L, seed)
        f = SampledSignal(grid, (2.0 + np.sin(grid.points())).astype(complex))
        g, glued, _ = reciprocal_on_compact(f, (a, b), spec, c_hat, part)
        inside = (grid.points() >= a) & (grid.points() <= b)
        sup = float(np.max(np.abs(f.samples[inside] * g.samples[inside] - 1.0)))
        return sup, norm_value(g, spec, part), glued

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
    report = SweepReport("approx-unit", axis="lam")
    grid = Grid(n, L)
    part = partition_for(grid)
    spec = NormSpec.modulation(p, q, s)
    if not spec.in_algebra_regime():
        raise ValueError("approximate-unit sweep needs an algebra-regime spec")
    # The smallest lam, 2^-halvings, reads the window off the largest
    # refined grid; refuse it before building the smaller ones.
    _check_refined_size(n * 2**halvings)
    f = make_signal(signal, grid, seed)
    base = plateau_window(0.0, 1.0, grid)
    f_norm = norm_value(f, spec, part)

    residuals = []
    lams = [0.5**k for k in range(halvings + 1)]
    for lam in lams:
        window = _dilated_window_samples(base, grid, 0.0, lam, base.support_radius)
        residual = norm_value(SampledSignal(grid, (1.0 - window) * f.samples), spec, part)
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
    report = SweepReport("embedding-sweep", axis="pair")

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

    def corpus_max(name, frm, to, only, n_run):
        grid = Grid(n_run, L)
        part = partition_for(grid)
        best = 0.0
        for sig_name, f in make_corpus(grid, seed=seed):
            if only is not None and not sig_name.startswith(only):
                continue
            ratio = norm_value(f, to, part) / norm_value(f, frm, part)
            best = max(best, ratio)
        return best

    for name, frm, to, only in cases:
        coarse = corpus_max(name, frm, to, only, n)
        fine = corpus_max(name, frm, to, only, 2 * n)
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
    report = SweepReport("algebra-sweep", axis="spec")
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
    """Half-width containing all but `frac` of the L^p mass of F^-1 phi."""
    ref = Grid(1 << 17, 2048.0 * math.pi)
    phi = SampledSignal(ref.dual(), bump_profile(ref.frequencies(), 0.025, 0.1).astype(complex))
    inv = fourier_inverse(phi)
    mags = np.abs(inv.samples) ** p
    order = np.argsort(np.abs(ref.points()))
    sorted_mass = np.cumsum(mags[order]) * ref.dx
    total = sorted_mass[-1]
    pos = int(np.searchsorted(sorted_mass, (1.0 - frac) * total))
    return float(np.abs(ref.points())[order][min(pos, ref.n - 1)])


_TAIL_FRACTION = {1.0: 1e-2, 1.5: 1e-3}


def flat_measurement(p: float, m: int, r: int, tail_frac: float | None = None) -> dict:
    """One run of the flat-spectrum construction; returns measured quantities.

    Builds the transform as exact integer translates of nu-hat times the
    frequency bump, inverts once, and measures every norm in the inequality
    chain.  The grid is sized so the translate train fits with margin and
    the frequency grid resolves every occupied block.

    The grid holds 2^21-2^22 samples here, so each full-length array is
    released as soon as its norms are taken: the bump phi is evaluated on
    its support only, nu-hat is kept on that support once its maximum is
    taken, the signal f is released after its L^p norm, and the block norm
    runs on the transform alone.  At most about three complex n-length
    arrays are live at any point.
    """
    if not 1.0 <= p < 2.0:
        raise ValueError("the flat counterexample needs p in [1, 2)")
    if tail_frac is None:
        tail_frac = _TAIL_FRACTION.get(p, 1e-3)
    r_half = _invphi_tail_halfwidth(p, tail_frac)
    n_nu = disjointness_spacing(r_half, r)
    support = n_nu * (2**r - 1) + 2.2 * r_half
    m_int = int(math.ceil(1.15 * support / math.pi))
    nyq_needed = 2**m + 2
    n = 1 << int(math.ceil(math.log2(2 * m_int * nyq_needed)))
    grid = Grid(n, m_int * math.pi)
    part = partition_for(grid)

    # The bump vanishes on |xi| >= 0.1; it is elementwise, so its values on
    # that window are those of a full-grid evaluation.  [lo, hi) is its
    # support.
    xi = grid.frequencies()
    near = np.flatnonzero(np.abs(xi) < 0.1)
    phi = bump_profile(xi[near[0] : near[-1] + 1], 0.025, 0.1)
    inside = np.flatnonzero(phi > 0)
    lo, hi = int(near[0] + inside[0]), int(near[0] + inside[-1]) + 1
    phi = phi[inside[0] : inside[-1] + 1]
    nu_hat = rudin_shapiro_transforms(r, n_nu, xi, Normalization.LP_ATOMS, p=p)[1]
    del xi
    nu_inf = float(np.max(np.abs(nu_hat)))
    base = nu_hat[lo:hi] * phi
    del nu_hat

    phi_samples = np.zeros(grid.n, dtype=complex)
    phi_samples[lo:hi] = phi
    phi_sig = SampledSignal(grid.dual(), phi_samples)
    phi_l1 = weighted_lp_norm(phi_sig, 1.0)
    invphi_lp = weighted_lp_norm(fourier_inverse(phi_sig), p)
    del phi_sig, phi_samples

    mu = rudin_shapiro(m, 1, Normalization.TOTAL_VARIATION).mu
    fhat = np.zeros(grid.n, dtype=complex)
    steps = part.steps_per_unit
    for loc, w in zip(mu.locations, mu.weights):
        shift = int(round(loc)) * steps
        fhat[lo + shift : hi + shift] += w * base
    fhat_sig = SampledSignal(grid.dual(), fhat)
    f = fourier_inverse(fhat_sig)
    f_lp = weighted_lp_norm(f, p)
    del f

    mod = modulation_norm(None, p, 1.0, 0.0, part, spectrum=fhat_sig).value
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
    if m is None or r is None:
        m, r = (4, 4) if p == 1.0 else (2, 8)
    report = SweepReport("counterexample-flat", axis="depth")
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
            run["nu_hat_sup"] * run["invphi_lp"] * (1.0 + 1e-12),
        )
    growth = runs[1]["headline_ratio"] / runs[0]["headline_ratio"]
    report.extras["ratio_growth"] = growth
    report.check("headline_ratio_growth", growth, 1.6, growth >= 1.6)
    return report


def _series_segment(kind: str, a: int, b: int) -> float:
    """Closed-form Euler-Maclaurin value of sum_{k=a+1}^{b} g(k).

    kind selects g: 'mod' -> sqrt(2)/(k ln k), 'beurling' -> 2/(k ln^2 k),
    'l2' -> 2/(k^2 ln^2 k).  Valid far from the lower summation limit.
    """
    # Imported here: only counterexample-l2 needs it, and scipy is slow to load.
    from scipy.special import expi

    la, lb = math.log(a), math.log(b)
    if kind == "mod":
        integral = math.sqrt(2.0) * (math.log(lb) - math.log(la))
        g = lambda k: math.sqrt(2.0) / (k * math.log(k))
        gp = lambda k: -math.sqrt(2.0) * (math.log(k) + 1.0) / (k * math.log(k)) ** 2 * 1.0
    elif kind == "beurling":
        integral = 2.0 / la - 2.0 / lb
        g = lambda k: 2.0 / (k * math.log(k) ** 2)
        gp = lambda k: -2.0 * (math.log(k) + 2.0) / (k**2 * math.log(k) ** 3)
    elif kind == "l2":
        # integral 2/(k^2 ln^2 k) dk = 2 [ -1/(k ln k) - Ei(-ln k) ]
        term = lambda k: -1.0 / (k * math.log(k)) - expi(-math.log(k))
        integral = 2.0 * (term(b) - term(a))
        g = lambda k: 2.0 / (k**2 * math.log(k) ** 2)
        gp = lambda k: -2.0 * (2.0 * math.log(k) + 2.0) / (k**3 * math.log(k) ** 3)
    else:
        raise ValueError(kind)
    return integral + (g(b) - g(a)) / 2.0 + (gp(b) - gp(a)) / 12.0


def _series_partial(kind: str, k0: int, K: int, direct_limit: int = 10**6) -> float:
    """Partial sum from k0 to K in ascending order, closed forms only."""
    cut = min(K, direct_limit)
    k = np.arange(k0, cut + 1, dtype=float)
    logs = np.log(k)
    if kind == "mod":
        total = float(np.sum(math.sqrt(2.0) / (k * logs)))
    elif kind == "beurling":
        total = float(np.sum(2.0 / (k * logs**2)))
    else:
        total = float(np.sum(2.0 / (k**2 * logs**2)))
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
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    report = SweepReport("counterexample-l2", axis="K")

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
