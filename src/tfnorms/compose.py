"""Analytic functions applied to signals through norm-controlled power series.

The construction is local: around a point x0, pick a smooth cutoff tau that
is 1 near the origin, find a dilation lambda so the rescaled increment

    (f(x0 + x / lambda) - f(x0)) tau(x)

has spec-norm below radius / (2 c_hat), where c_hat is the measured
multiplication constant of the algebra, and then sum the series

    g(x) = F(f(x0)) tau_l(x) + sum_j c_j ((f(x) - f(x0)) tau_l(x))^j,

with tau_l(x) = tau(lambda (x - x0)).  On the cutoff plateau g equals F(f).
Local patches are glued with the telescoping partition h_j = tau_j
prod_{i<j} (1 - tau_i), and a global variant splits f into a small-tail part
(handled by the series at 0) plus a compactly supported part (handled by
gluing).  Truncation is certified by an explicit geometric tail bound; norm
convergence is gated on the measured constant with a 2x safety factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CostGateError, CoverError, ToleranceNotReachedError
from .grid import (
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    _each_span,
    _refined_samples,
    fourier_forward,
)
from .norms import norm_value
from .partition import bump_profile
from .windows import PlateauWindow

__all__ = [
    "PowerSeries",
    "series_identity",
    "series_square",
    "series_reciprocal",
    "series_mobius",
    "series_expm1",
    "named_series",
    "dilation_difference_norm",
    "resample_progression",
    "LocalPatch",
    "local_compose",
    "GlueResult",
    "glue_local",
    "reciprocal_on_compact",
    "global_compose",
]

DEFAULT_TERMS = 400
TAIL_TOLERANCE = 1e-8

# Local cutoff: 1 on [-1, 1], supported in [-2, 2], dilated per patch.
CUTOFF_PLATEAU = 1.0
CUTOFF_SUPPORT = 2.0

# No run builds a grid of more than this many samples, and no dilation
# refines by more: a factor-F dilation of an n-point grid takes up to F - 1
# inverses of n points each (one per nonzero residue class it reads), so
# n * F bounds its work (approx-unit at n = 4096 takes at most 10
# halvings).  The runners check their largest grid, twice n for the
# refinement runs, before they build anything (the STFT runners check the
# STFT's smaller gate instead).
_MAX_REFINED_SIZE = 1 << 22


def _cutoff_samples(grid: Grid, center: float, lam: float) -> np.ndarray:
    return bump_profile(
        lam * (grid.points() - center), inner=CUTOFF_PLATEAU, outer=CUTOFF_SUPPORT
    )


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated expansion F(z) = constant + sum_j c_j (z - center)^j.

    `complete` marks polynomial expansions whose stored coefficients are the
    whole function; only then is the tail beyond the last stored term exactly
    zero.  For truncated transcendental series the geometric tail bound

        |sum_{j>J} c_j w^j| <= max_j |c_j| r^j * (|w|/r)^(J+1) / (1 - |w|/r)

    is evaluated with r strictly between |w| and the radius; the stored range
    must contain the maximizing index, which holds for the shipped families.
    """

    name: str
    center: complex
    constant: complex
    coefficients: np.ndarray
    radius: float
    complete: bool = False

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("need at least one series coefficient")
        if not self.radius > 0:
            raise ValueError("convergence radius must be positive")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def max_terms(self) -> int:
        return self.coefficients.size

    def _tail_envelope(self, w_abs: float) -> tuple[float, float]:
        """(max_j |c_j| r^j, |w| / r) for the tail radius r between |w| and the radius.

        A zero coefficient contributes 0 even where r^j overflows, and a
        finite one exp(log |c_j| + j log r) there, so a tiny coefficient
        keeps the envelope finite.  A product that is no number (an
        overflowed coefficient against an underflowed r^j) bounds nothing,
        so the envelope is then infinite.  So it is
        when 1 - |w| / r, which the bound divides by and rounding knows to
        eps / 2 only, falls below 1e-8.
        """
        if math.isinf(self.radius):
            r = 2.0 * w_abs if w_abs > 0 else 1.0
        else:
            r = min(0.5 * (w_abs + self.radius), 0.999 * self.radius)
            if r <= w_abs:  # |w| within 0.1% of the radius
                r = 0.5 * (w_abs + self.radius)
        rho = w_abs / r
        if 1.0 - rho < 1e-8:
            return math.inf, rho
        j = np.arange(1, self.max_terms + 1)
        mags = np.abs(self.coefficients)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = r**j
            products = mags * powers
            # Where r^j overflows against a finite coefficient, in log space.
            logs = np.isinf(powers) & (mags > 0.0) & np.isfinite(mags)
            products[logs] = np.exp(np.log(mags[logs]) + j[logs] * math.log(r))
        products[mags == 0.0] = 0.0
        envelope = float(np.max(products))
        return (math.inf if math.isnan(envelope) else envelope), rho

    def tail_bound(self, w_abs: float, terms: int) -> float:
        """Upper bound on the dropped tail for |w| <= w_abs after `terms` terms."""
        if w_abs == 0.0:
            return 0.0
        if self.complete and terms >= self.max_terms:
            return 0.0
        if w_abs >= self.radius:
            return math.inf
        envelope, rho = self._tail_envelope(w_abs)
        if math.isinf(envelope):
            return math.inf
        # Terms past the stored ones are never summed, so they stay in the tail.
        return envelope * rho ** (min(terms, self.max_terms) + 1) / (1.0 - rho)

    def choose_truncation(self, w_abs: float, tol: float = TAIL_TOLERANCE) -> int:
        """Smallest term count whose tail bound is below tol max(1, |F(center)|).

        The tolerance is relative where F is large, as 1/z is near its pole.
        """
        if w_abs == 0.0:
            return 1
        if w_abs >= self.radius:
            raise ToleranceNotReachedError(
                f"series {self.name}: |w| = {w_abs:.4g} reaches the radius {self.radius:.4g}"
            )
        envelope, rho = self._tail_envelope(w_abs)
        if envelope == 0.0:
            return 1
        if math.isinf(envelope):
            if self.complete:
                return self.max_terms
            raise ToleranceNotReachedError(
                f"series {self.name}: no finite tail bound at |w| = {w_abs:.4g}"
            )
        ratio = tol * max(1.0, abs(complex(self.constant))) * (1.0 - rho) / envelope
        if math.isinf(ratio):  # a subnormal envelope: one term is within tol
            return 1
        needed = math.log(ratio) / math.log(rho) - 1.0
        terms = max(1, int(math.ceil(needed)))
        if terms > self.max_terms:
            if self.complete:
                return self.max_terms
            raise ToleranceNotReachedError(
                f"series {self.name}: needs {terms} terms, only {self.max_terms} stored"
            )
        return terms

    def evaluate_increment(self, w: np.ndarray, terms: int) -> np.ndarray:
        """sum_{j=1..terms} c_j w^j by Horner evaluation."""
        c = self.coefficients[:terms]
        out = np.full_like(w, c[-1], dtype=complex)
        for coeff in c[-2::-1]:
            out = out * w + coeff
        return out * w

    def recenter(self, new_center: complex) -> "PowerSeries":
        """Taylor-shift the stored expansion to a new center inside the disk."""
        d = complex(new_center) - complex(self.center)
        if d == 0.0:
            return self
        if math.isfinite(self.radius):
            remaining = self.radius - abs(d)
            if remaining <= 0:
                raise ValueError(
                    f"new center is outside the convergence disk of {self.name}"
                )
        else:
            remaining = math.inf
        full = np.concatenate([[self.constant], self.coefficients])
        # synthetic division: full[i] becomes the i-th Taylor coefficient at d
        for i in range(full.size):
            for j in range(full.size - 2, i - 1, -1):
                full[j] += d * full[j + 1]
        return PowerSeries(
            self.name, new_center, full[0], full[1:], remaining, self.complete
        )


def series_identity(center: complex = 0.0) -> PowerSeries:
    return PowerSeries("identity", center, complex(center), np.array([1.0 + 0j]), math.inf, True)


def series_square(center: complex = 0.0) -> PowerSeries:
    c = complex(center)
    return PowerSeries("square", c, c * c, np.array([2.0 * c, 1.0 + 0j]), math.inf, True)


def series_reciprocal(center: complex) -> PowerSeries:
    """1/z expanded at a nonzero center; radius is the distance to the pole.

    c_j = (-1)^j / z0^(j+1).  Near the pole (|z0| < 1), where z0^(j+1)
    underflows, c_j or its modulus is too large for a float, so only the
    leading coefficients of finite modulus are stored: |c_j| r^j =
    (r / |z0|)^j / |z0| falls with j for every tail radius r < |z0|, so the
    tail envelope is still taken over those.
    """
    z0 = complex(center)
    if z0 == 0.0:
        raise ValueError("1/z has no expansion at 0")
    j = np.arange(1, DEFAULT_TERMS + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = (-1.0) ** j / z0 ** (j + 1)
        finite = np.isfinite(np.abs(coeffs))
    if abs(z0) < 1.0 and not finite.all():
        if not finite[0]:
            raise ValueError(f"1/z has no finite expansion at {z0}")
        coeffs = coeffs[: np.argmin(finite)]
    return PowerSeries("reciprocal", z0, 1.0 / z0, coeffs, abs(z0))


def series_mobius(center: complex = 0.0, scale: float = 4.0) -> PowerSeries:
    """z / (1 + z/scale) expanded at the center; pole at -scale."""
    z0 = complex(center)
    a = float(scale)
    denom = 1.0 + z0 / a
    if denom == 0.0:
        raise ValueError("expansion center sits on the pole")
    j = np.arange(1, DEFAULT_TERMS + 1)
    tilt = 1.0 - z0 / (a * denom)
    with np.errstate(over="ignore", invalid="ignore"):
        power = (a * denom) ** (j - 1)
        coeffs = (-1.0) ** (j - 1) / (denom * power) * tilt
    # Where the power, or its product with denom, overflows, the coefficient
    # comes from exp of the power's log, which underflows instead; every
    # finite coefficient keeps its bits.  Within 1 of the pole (|a denom| < 1)
    # the coefficients grow, and those too large for a float stay non-finite.
    big = ~np.isfinite(coeffs)
    coeffs[big] = (-1.0) ** (j[big] - 1) * np.exp(-(j[big] - 1) * np.log(a * denom)) / denom * tilt
    return PowerSeries("mobius", z0, z0 / denom, coeffs, abs(a + z0))


def series_expm1(center: complex = 0.0) -> PowerSeries:
    """exp(z) - 1 expanded at the center."""
    z0 = complex(center)
    j = np.arange(1, DEFAULT_TERMS + 1)
    log_fact = np.cumsum(np.log(j))
    coeffs = np.exp(z0) * np.exp(-log_fact)
    return PowerSeries("expm1", z0, np.exp(z0) - 1.0, coeffs, math.inf)


# name -> (expansion at a center, the function itself), for composition
# and for its error checks.
_SERIES = {
    "identity": (series_identity, lambda z: z),
    "square": (series_square, lambda z: z * z),
    "mobius": (series_mobius, lambda z: z / (1.0 + z / 4.0)),
    "expm1": (series_expm1, np.expm1),
    "reciprocal": (series_reciprocal, lambda z: 1.0 / z),
}

# The families expanded at 0, where 1/z has none.
SERIES_BUILDERS = {name: expand for name, (expand, _) in _SERIES.items() if name != "reciprocal"}


def named_series(name: str, center: complex = 0.0) -> PowerSeries:
    if name not in _SERIES:
        raise ValueError(f"unknown series {name!r}; choose from {sorted(_SERIES)}")
    return _SERIES[name][0](center)


def pointwise_oracle(name: str):
    """Direct evaluation of the named function, for composition error checks."""
    return _SERIES[name][1]


def _snap_to_grid(grid: Grid, x0: float) -> tuple[int, float]:
    idx = int(round((x0 + grid.half_width) / grid.dx))
    idx = min(max(idx, 0), grid.n - 1)
    return idx, float(grid.points()[idx])


def _grid_index(grid: Grid, x0: float) -> int:
    pos = (x0 + grid.half_width) / grid.dx
    idx = int(round(pos))
    if abs(pos - idx) > 1e-9 or not 0 <= idx < grid.n:
        raise ValueError(f"dilation center {x0!r} is not a grid point")
    return idx


def _integer_ratio(lam: float) -> tuple[int, int]:
    """(num, den) with lam = num / den and one of them 1."""
    if not lam > 0:
        raise ValueError("dilation parameter must be positive")
    num, den = (round(lam), 1) if lam >= 1 else (1, round(1.0 / lam))
    if not math.isclose(num / den, lam, rel_tol=1e-12):
        raise ValueError(f"dilation {lam!r} is neither an integer nor the reciprocal of one")
    return num, den


def _check_grid_size(size: int, what: str, grid: str = "grid") -> None:
    """Raise CostGateError when `what` needs a `grid` of more than _MAX_REFINED_SIZE samples.

    The size gate of every run but the STFT's, which has a smaller one: each
    caller checks the largest grid it will build before it builds anything,
    so a refused size allocates nothing.
    """
    if size > _MAX_REFINED_SIZE:
        raise CostGateError(
            f"{what} needs a {size}-point {grid}, above the {_MAX_REFINED_SIZE}-point gate"
        )


def _check_depth(depth: int, name: str, what: str, grid: str = "grid") -> None:
    """Raise CostGateError when `what` needs a `grid` of at least 2^depth samples, above the gate.

    The depth is refused by its bit count, before 2^depth is formed: the
    power of a large depth is too large to print, or to build at all.  A
    depth the gate admits is left to :func:`_check_grid_size`.
    """
    bits = _MAX_REFINED_SIZE.bit_length() - 1
    if depth > bits:
        raise CostGateError(
            f"{what} needs a {grid} of at least 2^{depth} points ({name} = {depth}), "
            f"above the 2^{bits}-point gate"
        )


def _dilated(h: SampledSignal, num: int, den: int, x_to: float, x_from: float, lo: int,
             count: int, spectrum=None) -> np.ndarray:
    """h(x_to + (num / den) (x_j - x_from)) at h's grid points x_j, lo <= j < lo + count.

    x_to and x_from must be grid points, i_to and i_from their indices, and
    num, den positive integers.  The point of index j is then the point
    den i_to + num (j - i_from) of h's den-refined grid, -L + i dx / den
    with i taken mod n den (the periodic extension), so consecutive j step
    num refined points.  The values are those of ``upsample(h, den).samples``
    there, from :func:`tfnorms.grid._refined_samples`: one n-point inverse
    per nonzero residue mod den that the indices meet, none where they all
    lie on h's own grid.  `spectrum`, when given, returns h's centered
    spectrum (see ``_refined_samples``).
    """
    grid = h.grid
    first = den * _grid_index(grid, x_to) + num * (lo - _grid_index(grid, x_from))
    size = grid.n * den
    _check_grid_size(size, "dilation", "refined grid")
    return _refined_samples(h, den, (first + num * np.arange(count)) % size, spectrum)[1]


def dilation_difference_norm(
    f: SampledSignal,
    x0: float,
    tau: SampledSignal,
    lam: float,
    spec: NormSpec,
    *,
    _spectrum=None,
) -> float:
    """Spec-norm of (f(x0 + x / lam) - f(x0)) tau(x), with the partition of f's grid.

    f is evaluated off the grid by band-limited interpolation, so the
    spectral support assumptions behind the block norms survive the
    rescaling.  x0 must be a grid point and lam an integer or the reciprocal
    of one; the values f(x0 + x_j / lam) are read by :func:`_dilated`,
    without building the refined grid.
    ``_spectrum`` is private: it returns f's centered spectrum, for a caller
    that refines f many times.
    """
    grid = f.grid
    num, den = _integer_ratio(lam)
    support = np.nonzero(np.abs(tau.samples) > 0.0)[0]
    if support.size == 0:
        return 0.0
    lo, hi = int(support[0]), int(support[-1])
    x = grid.points()
    start = x0 + x[lo] / lam
    stop = x0 + x[hi] / lam
    if start < -grid.half_width or stop >= grid.half_width:
        raise ValueError(
            "rescaled cutoff support leaves the domain: "
            f"[{start:.3g}, {stop:.3g}] vs [{-grid.half_width:.3g}, {grid.half_width:.3g})"
        )

    fx0 = complex(f.samples[_grid_index(grid, x0)])
    values = _dilated(f, den, num, x0, 0.0, lo, hi - lo + 1, _spectrum)
    samples = np.zeros(grid.n, dtype=complex)
    samples[lo : hi + 1] = (values - fx0) * tau.samples[lo : hi + 1]
    return norm_value(SampledSignal(grid, samples), spec)


def resample_progression(
    f: SampledSignal, start: float, step: float, count: int
) -> np.ndarray:
    """Trigonometric interpolation of f at start + m*step, m = 0 .. count-1.

    The interpolant is the band-limited extension determined by the samples,
    f(x) = (dxi / 2 pi) * sum_k Ff(xi_k) exp(i x xi_k), summed term by term
    (O(n count), exact to rounding) over spans of points; points outside
    [-L, L) see the periodic extension.
    """
    grid = f.grid
    spectrum = fourier_forward(f).samples
    xi = grid.frequencies()
    x = start + step * np.arange(count)
    out = np.empty(count, dtype=complex)

    def run(lo: int, hi: int) -> None:
        out[lo:hi] = np.exp(1j * np.outer(x[lo:hi], xi)) @ spectrum

    _each_span(run, count, grid.n)
    return (grid.dxi / (2.0 * math.pi)) * out


@dataclass(frozen=True, eq=False)
class LocalPatch:
    """One local composition around a grid point.

    The patch equals F(f) on the cutoff plateau (radius plateau_radius).
    Its glue cutoff, window_glue, is a second, narrower bump inside that plateau;
    the telescoping partition must be built from these subordinate cutoffs,
    because outside its plateau a patch no longer represents F(f).

    The cutoff tau_l is nonzero on one run of grid indices, `window`, and
    the patch stores its values and both cutoffs on that run only: outside
    it all three are 0.
    """

    center: float
    lam: float
    grid: Grid
    window: slice
    window_values: np.ndarray
    window_cutoff: np.ndarray
    window_glue: np.ndarray
    plateau_radius: float
    glue_radius: float
    truncation: int
    tail_bound: float
    increment_norm: float
    increment_sup: float
    series_name: str

    def __post_init__(self):
        for samples in (self.window_values, self.window_cutoff, self.window_glue):
            samples.setflags(write=False)


def local_compose(
    f: SampledSignal,
    x0: float,
    series: PowerSeries,
    spec: NormSpec,
    c_hat: float,
    lam_start: float = 1.0,
    *,
    _spectrum=None,
) -> LocalPatch:
    """Compose F with f near x0, returning g = F(f) on the cutoff plateau.

    The dilation doubles until the rescaled increment norm falls below
    radius / (2 c_hat) (the measured algebra constant with a 2x safety
    factor) and the pointwise increment stays inside the disk.  The
    increment norms use the partition of f's grid.
    ``_spectrum`` is private: it returns f's centered spectrum, for a caller
    that refines f many times.
    """
    if spec.space is not Space.MODULATION or not spec.in_algebra_regime():
        raise ValueError("composition requires a modulation spec in the algebra regime")
    if c_hat <= 0:
        raise ValueError("need a positive measured algebra constant")
    grid = f.grid
    idx, x0g = _snap_to_grid(grid, x0)
    fx0 = complex(f.samples[idx])
    if abs(series.center - fx0) > 1e-9 * (1.0 + abs(fx0)):
        raise ValueError(
            f"series is centered at {series.center:.6g} but f(x0) = {fx0:.6g}"
        )
    threshold = series.radius / (2.0 * c_hat)
    lam_cap = 1.0 / (8.0 * grid.dx)  # keep the cutoff resolved on the grid
    base_tau = SampledSignal(grid, _cutoff_samples(grid, 0.0, 1.0).astype(complex))

    lam = float(lam_start)
    history = []
    while True:
        increment_norm = dilation_difference_norm(
            f, x0g, base_tau, lam, spec, _spectrum=_spectrum
        )
        tau_l = _cutoff_samples(grid, x0g, lam)
        support = np.flatnonzero(tau_l)  # one run: the cutoff does not wrap
        window = slice(int(support[0]), int(support[-1]) + 1)
        tau_l = tau_l[window].copy()
        w = (f.samples[window] - fx0) * tau_l
        wsup = float(np.max(np.abs(w)))
        history.append((lam, increment_norm, wsup))
        if increment_norm < threshold and wsup < 0.95 * series.radius:
            break
        lam *= 2.0
        if lam > lam_cap:
            raise ToleranceNotReachedError(
                f"composition at x0 = {x0g:.4g}: increment norm still "
                f"{increment_norm:.4g} (threshold {threshold:.4g}) at the grid's "
                f"resolution budget; history = {history}"
            )

    terms = series.choose_truncation(wsup, TAIL_TOLERANCE)
    tail = series.tail_bound(wsup, terms)
    values = series.constant * tau_l + series.evaluate_increment(w, terms)
    glue = bump_profile(
        lam * (grid.points()[window] - x0g), inner=CUTOFF_PLATEAU / 2.0, outer=CUTOFF_PLATEAU
    )
    return LocalPatch(
        center=x0g,
        lam=lam,
        grid=grid,
        window=window,
        window_values=values,
        window_cutoff=tau_l,
        window_glue=glue,
        plateau_radius=CUTOFF_PLATEAU / lam,
        glue_radius=CUTOFF_PLATEAU / (2.0 * lam),
        truncation=terms,
        tail_bound=tail,
        increment_norm=increment_norm,
        increment_sup=wsup,
        series_name=series.name,
    )


@dataclass(frozen=True, eq=False)
class GlueResult:
    values: SampledSignal
    partition_defect: float
    patch_count: int


def glue_local(interval: tuple, patches: list) -> GlueResult:
    """Combine local patches with the telescoping partition of unity.

    h_1 = sigma_1 and h_j = sigma_j (1 - sigma_1) ... (1 - sigma_{j-1}),
    built from each patch's subordinate glue cutoff so that every h_j is
    supported where its patch equals F(f).  The sum of the h_j equals 1
    wherever some glue plateau covers the point, so the glue plateaus must
    cover the interval.

    Each patch updates the sums on its own window only: outside it sigma_j
    is 0, where the update would add 0 and multiply by 1, so the result is
    bitwise that of full-grid updates.
    """
    a, b = float(interval[0]), float(interval[1])
    if not patches:
        raise CoverError("no patches supplied")
    ordered = sorted(patches, key=lambda p: p.center)
    covered = a
    for p in ordered:
        left, right = p.center - p.glue_radius, p.center + p.glue_radius
        if left > covered + 1e-12:
            raise CoverError(
                f"cover gap: plateaus reach {covered:.6g} but next starts {left:.6g}"
            )
        covered = max(covered, right)
    if covered < b - 1e-12:
        raise CoverError(f"plateaus end at {covered:.6g}, interval ends at {b:.6g}")

    grid = ordered[0].grid
    remainder = np.ones(grid.n)
    total = np.zeros(grid.n, dtype=complex)
    hsum = np.zeros(grid.n)
    for p in ordered:
        sigma = p.window_glue
        h = sigma * remainder[p.window]
        total[p.window] += h * p.window_values
        hsum[p.window] += h
        remainder[p.window] *= 1.0 - sigma
    inside = (grid.points() >= a) & (grid.points() <= b)
    defect = float(np.max(np.abs(hsum[inside] - 1.0))) if np.any(inside) else 0.0
    return GlueResult(SampledSignal(grid, total), defect, len(ordered))


def _patch_cover(
    f: SampledSignal,
    interval: tuple,
    make_series,
    spec: NormSpec,
    c_hat: float,
) -> list:
    """Greedy left-to-right patch placement until the interval is covered.

    The patches are normed with the partition of f's grid.

    Every dilation of every patch refines f, from one transform of f, made
    when the first dilation needs it.
    """
    a, b = float(interval[0]), float(interval[1])
    spectrum = functools.cache(lambda: fourier_forward(f).samples)
    patches = []
    x = a
    lam_hint = 1.0
    while True:
        idx, xg = _snap_to_grid(f.grid, x)
        patch = local_compose(
            f,
            xg,
            make_series(complex(f.samples[idx])),
            spec,
            c_hat,
            lam_start=lam_hint,
            _spectrum=spectrum,
        )
        patches.append(patch)
        lam_hint = patch.lam
        if patch.center + patch.glue_radius >= b:
            return patches
        x = patch.center + patch.glue_radius


def reciprocal_on_compact(
    f: SampledSignal,
    interval: tuple,
    spec: NormSpec,
    c_hat: float,
) -> tuple:
    """g with f g = 1 on the interval, from glued local 1/z expansions.

    The patches are normed with the partition of f's grid.
    """
    grid = f.grid
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"interval needs a < b, got ({a:g}, {b:g})")
    inside = (grid.points() >= a) & (grid.points() <= b)
    if not np.any(inside):
        raise ValueError(f"interval ({a:g}, {b:g}) holds no grid point")
    minimum = float(np.min(np.abs(f.samples[inside])))
    if minimum <= 0.0:
        raise ValueError("f vanishes on the interval; no reciprocal exists there")
    patches = _patch_cover(f, (a, b), series_reciprocal, spec, c_hat)
    glued = glue_local((a, b), patches)
    return glued.values, glued, patches


def global_compose(
    f: SampledSignal,
    series: PowerSeries,
    spec: NormSpec,
    c_hat: float,
) -> tuple:
    """Compose F (analytic near the closed range of f, F(0) = 0) with f globally.

    Splits f into a small-tail part handled by the series at 0 and a
    compactly supported part handled by glued local patches:
    g = (1 - tau0) g0 + tau0 g1.  The tail and the patches are normed with
    the partition of f's grid.
    """
    if abs(series.center) > 0 or abs(series.constant) > 1e-14:
        raise ValueError("global composition needs a series at 0 with F(0) = 0")
    if c_hat <= 0:
        raise ValueError("need a positive measured algebra constant")
    grid = f.grid
    threshold = series.radius / (2.0 * c_hat)

    width = 1.0
    history = []
    while True:
        plateau = bump_profile(grid.points() / width, inner=1.0, outer=2.0)
        tail = SampledSignal(grid, (1.0 - plateau) * f.samples)
        tail_norm = norm_value(tail, spec)
        tail_sup = float(np.max(np.abs(tail.samples)))
        history.append((width, tail_norm, tail_sup))
        if tail_norm < threshold and tail_sup < 0.95 * series.radius:
            break
        width *= 2.0
        if 2.0 * width + 2.0 >= 0.9 * grid.half_width:
            raise ToleranceNotReachedError(
                f"tail norm never met the threshold {threshold:.4g}; history = {history}"
            )

    terms0 = series.choose_truncation(float(np.max(np.abs(tail.samples))), TAIL_TOLERANCE)
    g0 = series.evaluate_increment(tail.samples, terms0)

    support_radius = 2.0 * width  # cutoff plateau ends here
    tau0 = bump_profile(grid.points(), inner=support_radius, outer=support_radius + 2.0)
    patch_interval = (-support_radius - 2.0, support_radius + 2.0)
    patches = _patch_cover(f, patch_interval, series.recenter, spec, c_hat)
    glued = glue_local(patch_interval, patches)

    values = (1.0 - tau0) * g0 + tau0 * glued.values.samples
    diagnostics = {
        "tail_width": width,
        "tail_norm": tail_norm,
        "series_terms_tail": terms0,
        "patch_count": glued.patch_count,
        "partition_defect": glued.partition_defect,
    }
    return SampledSignal(grid, values), diagnostics, patches


def _dilated_window_samples(base: PlateauWindow, x0: float, lam: float, spectrum=None) -> np.ndarray:
    """Samples of base(lam (x - x0)) on the base window's grid, for a grid point x0.

    lam must be an integer or the reciprocal of one; the samples are read
    by :func:`_dilated` where lam (x - x0) is within the window's support
    radius of its center, give or take one sample, and are 0 elsewhere.
    `spectrum`, when given, returns the base window's centered spectrum
    (see ``grid._refined_samples``), so that several dilations of one
    window transform it once.
    """
    num, den = _integer_ratio(lam)
    grid = base.window.grid
    _grid_index(grid, x0)  # an off-grid center is refused even where the window is empty
    x = grid.points()
    out = np.zeros(grid.n)
    scaled_lo = (base.center - base.support_radius) / lam + x0
    scaled_hi = (base.center + base.support_radius) / lam + x0
    inside = np.nonzero((x >= scaled_lo - grid.dx) & (x <= scaled_hi + grid.dx))[0]
    if inside.size == 0:
        return out

    values = _dilated(base.window, num, den, 0.0, x0, int(inside[0]), inside.size, spectrum)
    out[inside] = np.clip(values.real, 0.0, None)
    return out
