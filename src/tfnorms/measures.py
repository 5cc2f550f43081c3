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
(:func:`rudin_shapiro_sup`) rests on two identities that hold bit for bit in
floating point:

- Doubling.  xi_{2k} = 2 xi_k exactly, since scaling by 2 commutes with
  rounding, so the phase exp(-i N_j xi_k) of step j at k is that of step
  j - 1 at 2k.  Write k = 1 .. n/2 - 1 as o 2^u with o odd: the chain of o
  runs over u = 0 .. t, t the largest with o 2^t < n/2, and its phase at
  step j and k = o 2^u is F(o 2^(u + j - 1)), F(K) = exp(-i N_1 dxi K).
  So each chain evaluates t + m exponentials, one table row per power of
  two, and every k of it reads its m phases off rows u .. u + m - 1.
- Mirror.  nu_m^(-xi) = conj nu_m^(xi), because every operation of the
  recursion commutes with conjugation, so the k < 0 side repeats the
  moduli of the k > 0 side.  Only k = -n/2 has no mirror on the grid; it
  and k = 0 are evaluated on their own.

Together they cut the exponentials from m n to about n (m + 1) / 4.  The
chains of one length t + 1 (the odd o in [n / 2^(t+2), n / 2^(t+1))) run in
spans of chains, each building its table, running the recursion for each u
and keeping only the largest modulus, so no array of the grid's length is
built.  Moduli are taken on contiguous arrays only, since numpy's modulus
of a strided view can differ in the last bit.
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
    """max |nu_m^| over ``grid.frequencies()``, with about n (m + 1) / 4 exponentials.

    Bitwise equal to ``np.max(np.abs(rudin_shapiro_transforms(m,
    base_spacing, grid.frequencies(), normalization, p)[1]))``: the
    recursion runs on k = 1 .. n/2 - 1 only, in odd-part chains that share
    their phases at doubled frequencies (see the module docstring), and
    k = 0 and k = -n/2 run on their own.  A span holds the phase table of
    its chains and keeps only its largest modulus.
    """
    if m < 0:
        raise ValueError("depth m must be >= 0")
    normalization = Normalization(normalization)
    scale = _scale_factor(m, normalization, p)
    half = grid.n // 2
    dxi = grid.dxi
    peaks = []  # one per span, in any order

    def chains(t: int) -> None:
        # The odd o in [half / 2^(t+1), half / 2^t), whose chains o 2^u,
        # u = 0 .. t, stay below half.  Row w of the table holds F(o 2^w),
        # evaluated as the phase of step w + 1 at o; with m = 0 no phase is
        # read.
        first, height = (half >> (t + 1)) | 1, t + m if m else 0

        def run(lo: int, hi: int) -> None:
            x = dxi * np.arange(first + 2 * lo, first + 2 * hi, 2)
            table = np.empty((height, hi - lo), dtype=complex)
            for w in range(height):
                np.multiply(-1j * (2**w * base_spacing), x, out=table[w])
            np.exp(table, out=table)
            shifted = np.empty(hi - lo, dtype=complex)
            best = 0.0
            for u in range(t + 1):
                mu_hat = np.ones(hi - lo, dtype=complex)
                nu_hat = np.ones(hi - lo, dtype=complex)
                for phase in table[u : u + m]:
                    np.multiply(phase, nu_hat, out=shifted)
                    np.subtract(mu_hat, shifted, out=nu_hat)
                    np.add(mu_hat, shifted, out=mu_hat)
                best = max(best, np.max(np.abs(np.multiply(scale, nu_hat, out=nu_hat))))
            peaks.append(best)

        # A chain holds its table column and one value of mu^, nu^ and the product.
        _each_span(run, max(1, half >> (t + 2)), height + 3)

    for t in range(half.bit_length() - 1):
        chains(t)
    lone = dxi * np.array([-half, 0])
    ends = rudin_shapiro_transforms(m, base_spacing, lone, normalization, p)[1]
    return float(max(*peaks, *np.abs(ends)))


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

