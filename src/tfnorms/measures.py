"""Finite atomic measures, their transforms, and flat-spectrum constructions.

A :class:`DiscreteMeasure` is sum_j w_j delta_{x_j} with exact transform
mu^(xi) = sum_j w_j exp(-i x_j xi).  The sign-flip recursion

    mu_j = mu_{j-1} + nu_{j-1} * delta_{N_j},
    nu_j = mu_{j-1} - nu_{j-1} * delta_{N_j},      N_j = 2^(j-1) N,

starting from mu_0 = nu_0 = delta_0 produces measures supported on 2^m
points with all weights +-1 and satisfies the exact flatness identity

    |mu_m^(xi)|^2 + |nu_m^(xi)|^2 = 2^(m+1)   for every xi,

so ||mu_m^||_inf <= 2^((m+1)/2) against total variation 2^m.  Locations are
integers, so atom merging compares exactly, never by float tolerance.

The transform recursion is elementwise in xi, so it runs in spans of
``grid._SPAN`` frequencies (see ``grid._each_span``), concurrently on the
CPUs of the process's affinity mask.  Each span writes its slice of the
scaled outputs, so the values are bitwise those of one full-length pass
whatever the number of CPUs.

The maximum of |nu_m^| over the dual grid xi_k = k dxi, k = -n/2 .. n/2 - 1
(:func:`rudin_shapiro_sup`) takes its phases from two small tables per step:

- Tables.  Write k = 0 .. n/2 - 1 as k = width h + l, 0 <= l < width, in
  rows h < height = n / (2 width) of width = 2^floor(bits(n/2) / 2) values,
  about sqrt(n/2) each.  The phase exp(-i N_j k dxi) of step j is the
  product of highs_j[h] = exp(-i (N_j width h) dxi) and lows_j[l] =
  exp(-i (N_j l) dxi).  N_j width h and N_j l are integers, exact in
  float64, so each argument is rounded once, where the transforms round
  twice (dxi k, then N_j times it).  That argument error, which dominates
  once N_j k dxi exceeds a few radians, is at most half the transforms';
  the second exponential and the product add a few roundings.  So the
  maximum agrees with the transforms' to within their phase errors, not
  bit for bit.
- Mirror.  nu_m^(-xi) = conj nu_m^(xi), because every operation of the
  recursion commutes with conjugation, so the k < 0 side repeats the
  moduli of the k > 0 side.  Only k = -n/2 has no mirror on the grid; it
  runs through :func:`rudin_shapiro_transforms` on its own.

Together they cut the exponentials from m n to m (width + height + 1),
about 2 m sqrt(n/2).  The rows run in spans, each forming its phases from
the tables, running the recursion and keeping only its largest modulus, so
no array of the grid's length is built.  The maximum is exact, so neither
the spans nor the CPUs move a bit of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CostGateError
from .grid import Grid, _each_span

__all__ = [
    "DiscreteMeasure",
    "Normalization",
    "RudinShapiroPair",
    "dirac",
    "convolve_measures",
    "rudin_shapiro",
    "rudin_shapiro_transforms",
    "rudin_shapiro_sup",
    "disjointness_spacing",
]

CONVOLUTION_ATOM_GATE = 10**7


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite atomic measure with sorted, pairwise-distinct locations."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locations = np.asarray(self.locations, dtype=float)
        weights = np.asarray(self.weights, dtype=complex)
        if locations.ndim != 1 or locations.shape != weights.shape:
            raise ValueError("locations and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(locations)):
            raise ValueError("atom locations must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("atom weights must be finite")
        # merge duplicates by exact location equality, drop zero weights
        order = np.argsort(locations, kind="stable")
        locations, weights = locations[order], weights[order]
        if locations.size:
            unique, inverse = np.unique(locations, return_inverse=True)
            merged = np.zeros(unique.size, dtype=complex)
            np.add.at(merged, inverse, weights)
            keep = merged != 0.0
            locations, weights = unique[keep], merged[keep]
        locations.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "weights", weights)

    @property
    def atom_count(self) -> int:
        return self.locations.size

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def scaled(self, factor: complex) -> "DiscreteMeasure":
        return DiscreteMeasure(self.locations, factor * self.weights)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure(
            np.concatenate([self.locations, other.locations]),
            np.concatenate([self.weights, other.weights]),
        )

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + other.scaled(-1.0)

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"x": float(x), "re": float(w.real), "im": float(w.imag)}
                for x, w in zip(self.locations, self.weights)
            ]
        }


def dirac(a: float) -> DiscreteMeasure:
    """Unit mass at the point a."""
    return DiscreteMeasure(np.array([a]), np.array([1.0 + 0.0j]))


def convolve_measures(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Bilinear extension of delta_a * delta_b = delta_{a+b}."""
    pairs = mu.atom_count * nu.atom_count
    if pairs > CONVOLUTION_ATOM_GATE:
        raise CostGateError(
            f"measure convolution gated at {CONVOLUTION_ATOM_GATE} atom pairs, got {pairs}"
        )
    locations = np.add.outer(mu.locations, nu.locations).ravel()
    weights = np.multiply.outer(mu.weights, nu.weights).ravel()
    return DiscreteMeasure(locations, weights)


class Normalization(str, Enum):
    RAW = "raw"
    TOTAL_VARIATION = "total_variation"
    LP_ATOMS = "lp_atoms"


def _scale_factor(m: int, normalization: Normalization, p: float | None) -> float:
    if normalization is Normalization.RAW:
        return 1.0
    if normalization is Normalization.TOTAL_VARIATION:
        return 2.0**-m
    if p is None or not (1.0 <= p < 2.0):
        raise ValueError("lp_atoms normalization needs an exponent p in [1, 2)")
    return 2.0 ** (-m / p)


@dataclass(frozen=True, eq=False)
class RudinShapiroPair:
    """Companion measures from the sign-flip recursion at depth m."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    depth: int
    base_spacing: int
    normalization: Normalization
    p: float | None = None


def rudin_shapiro(
    m: int,
    base_spacing: int = 1,
    normalization: Normalization | str = Normalization.RAW,
    p: float | None = None,
) -> RudinShapiroPair:
    """Run the sign-flip recursion to depth m with spacings N_j = 2^(j-1) N."""
    if m < 0:
        raise ValueError("depth m must be >= 0")
    if base_spacing < 1:
        raise ValueError("base spacing N must be a positive integer")
    normalization = Normalization(normalization)
    mu, nu = dirac(0.0), dirac(0.0)
    for j in range(1, m + 1):
        shift = dirac(float(2 ** (j - 1) * base_spacing))
        shifted = convolve_measures(nu, shift)
        mu, nu = mu + shifted, mu - shifted
    scale = _scale_factor(m, normalization, p)
    if scale != 1.0:
        mu, nu = mu.scaled(scale), nu.scaled(scale)
    return RudinShapiroPair(mu, nu, m, base_spacing, normalization, p)


def _transform_depths(m: int, base_spacing: int, x: np.ndarray):
    """Yield the unscaled (mu_j^, nu_j^) at the frequencies x for j = 0 .. m, in order.

    Each depth is one step of the recursion from the one before, so a caller
    that reads every depth pays for depth m only.
    """
    mu_hat = np.ones(x.size, dtype=complex)
    nu_hat = np.ones(x.size, dtype=complex)
    yield mu_hat, nu_hat
    for j in range(1, m + 1):
        phase = np.exp(-1j * (2 ** (j - 1) * base_spacing) * x)
        shifted = phase * nu_hat
        mu_hat, nu_hat = mu_hat + shifted, mu_hat - shifted
        yield mu_hat, nu_hat


def rudin_shapiro_transforms(
    m: int,
    base_spacing: int,
    xis: np.ndarray,
    normalization: Normalization | str = Normalization.RAW,
    p: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate mu_m^ and nu_m^ on a frequency sample set in O(m len(xis)).

    Runs the recursion on transform values directly,
    mu_j^ = mu_{j-1}^ + exp(-i N_j xi) nu_{j-1}^, avoiding the 2^m atom sum.
    Every step is elementwise, so large sets run the whole recursion span by
    span (see the module docstring) with the same values as one pass.
    """
    if m < 0:
        raise ValueError("depth m must be >= 0")
    normalization = Normalization(normalization)
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    scale = _scale_factor(m, normalization, p)
    mu_out = np.empty(xis.size, dtype=complex)
    nu_out = np.empty(xis.size, dtype=complex)

    def run(lo: int, hi: int) -> None:
        for mu_hat, nu_hat in _transform_depths(m, base_spacing, xis[lo:hi]):
            pass  # up to depth m
        np.multiply(scale, mu_hat, out=mu_out[lo:hi])
        np.multiply(scale, nu_hat, out=nu_out[lo:hi])

    _each_span(run, xis.size, 1)
    return mu_out, nu_out


def rudin_shapiro_sup(
    m: int,
    base_spacing: int,
    grid: Grid,
    normalization: Normalization | str = Normalization.RAW,
    p: float | None = None,
) -> float:
    """max |nu_m^| over ``grid.frequencies()``, with m (width + height + 1) exponentials.

    The maximum of ``np.abs(rudin_shapiro_transforms(m, base_spacing,
    grid.frequencies(), normalization, p)[1])`` to within their phase
    errors, not bit for bit: the phases of k = 0 .. n/2 - 1 are products of
    two tables per step, width and height about sqrt(n/2) (see the module
    docstring), the k < 0 side mirrors them, and k = -n/2 runs on its own.
    A span of table rows runs the recursion and keeps only its largest
    modulus.
    """
    if m < 0:
        raise ValueError("depth m must be >= 0")
    normalization = Normalization(normalization)
    scale = _scale_factor(m, normalization, p)
    half = grid.n // 2
    width = 1 << (half.bit_length() // 2)
    height = half // width
    rates = [2 ** (j - 1) * base_spacing for j in range(1, m + 1)]

    def phases(count: int, stride: int) -> list:
        # exp(-i c_j stride q dxi) for q < count, each step j: c_j stride q
        # is an integer, exact in float64 below 2^53, so each argument is
        # rounded once, at the product with dxi.
        q = np.arange(count, dtype=float)
        return [np.exp(-1j * (float(rate * stride) * q * grid.dxi)) for rate in rates]

    highs, lows = phases(height, width), phases(width, 1)
    peaks = []  # one per span, in any order

    def run(h0: int, h1: int) -> None:
        # Rows h0 <= h < h1: k = width h + l, 0 <= l < width.
        mu_hat = np.ones((h1 - h0, width), dtype=complex)
        nu_hat = np.ones_like(mu_hat)
        shifted = np.empty_like(mu_hat)
        for high, low in zip(highs, lows):
            np.multiply(high[h0:h1, None], low, out=shifted)
            shifted *= nu_hat
            np.subtract(mu_hat, shifted, out=nu_hat)
            mu_hat += shifted
        peaks.append(np.max(np.abs(np.multiply(scale, nu_hat, out=nu_hat))))

    # A value holds mu^, nu^, the product and the modulus.
    _each_span(run, height, 4 * width)
    lowest = rudin_shapiro_transforms(m, base_spacing, grid.dxi * np.array([-half]),
                                      normalization, p)[1]
    return float(max(*peaks, *np.abs(lowest)))


def disjointness_spacing(k_halfwidth: float, m: int) -> int:
    """Smallest integer spacing N making the translates {-x + [-K, K]} of the
    depth-m support pairwise disjoint.

    Distinct support points differ by at least N, so disjointness needs
    N > 2K; the depth only affects how many translates there are.
    """
    if k_halfwidth <= 0:
        raise ValueError("interval half-width must be positive")
    if m < 0:
        raise ValueError("depth m must be >= 0")
    return int(math.floor(2.0 * k_halfwidth)) + 1

