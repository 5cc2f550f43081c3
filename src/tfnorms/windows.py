"""Plateau windows built as convolutions of two smooth bumps.

A plateau window equals 1 on an inner ball B_R(t0) and is supported in
B_5R(t0).  It is realized as psi = psi1 * psi2 where

    psi1(x) = g(x / 2),
    psi2(x) = g(2 (x - t0)) / integral g(2 (. - t0)),

for a smooth g >= 0 with g = 1 on B_R(0) and supp g in B_2R(0).  The
factorized form matters: the transform splits as psi^ = psi1^ psi2^, which is
what the translation-difference estimate

    integral <xi>^s |psi^(xi - theta) - psi^(xi)| dxi
        <= C |theta|^s (max_{|t| <= R0} |e^(i theta t) - 1|)^(1-s)

for 0 <= s < 1 exploits (R0 is the common support radius of the two pieces).
psi2 is normalized against its discrete integral, so the plateau value is 1
to machine precision on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SampledSignal, convolve, fourier_forward
from .partition import bump_profile

__all__ = ["PlateauWindow", "plateau_window", "translation_difference_bound"]


@dataclass(frozen=True, eq=False)
class PlateauWindow:
    """The convolution pair and their product window."""

    piece1: SampledSignal
    piece2: SampledSignal
    window: SampledSignal
    center: float
    inner_radius: float

    @property
    def support_radius(self) -> float:
        """Support radius of the assembled window around its center."""
        return 5.0 * self.inner_radius

    @property
    def piece_support_radius(self) -> float:
        """Common support radius R0 of the two pieces around the origin."""
        return max(4.0 * self.inner_radius, abs(self.center) + self.inner_radius)

    def factorization_error(self) -> float:
        """max |psi - psi1 * psi2| at 111 grid points spread over the window's support.

        The convolution is the direct circular sum
        dx sum_i psi1(x_i) psi2(x_(j - i + n/2 mod n)), not the FFT that
        built the window.
        """
        grid = self.window.grid
        n, i = grid.n, np.arange(grid.n)
        inside = np.flatnonzero(np.abs(grid.points() - self.center) <= self.support_radius)
        points = inside[np.linspace(0, inside.size - 1, 111).round().astype(int)]
        piece1, piece2 = self.piece1.samples, self.piece2.samples
        return float(max(
            abs(self.window.samples[j] - grid.dx * np.sum(piece1 * piece2[(j + n // 2 - i) % n]))
            for j in points
        ))


def plateau_window(center: float, inner_radius: float, grid: Grid) -> PlateauWindow:
    """Construct the window equal to 1 on [center - R, center + R].

    Requires 5R + |center| < L/2 so the convolution cannot wrap around the
    periodic domain.
    """
    R = float(inner_radius)
    if R <= 0:
        raise ValueError("inner radius must be positive")
    if 5.0 * R + abs(center) >= grid.half_width / 2.0:
        raise ValueError(
            f"domain too small: need 5*R + |t0| < L/2, got "
            f"{5.0 * R + abs(center):.3g} >= {grid.half_width / 2.0:.3g}"
        )
    if R < 8.0 * grid.dx:
        raise ValueError(
            f"inner radius {R:.4g} is below the grid resolution ({grid.dx:.4g}); "
            "dilate a well-resolved window instead"
        )
    x = grid.points()
    piece1 = SampledSignal(grid, bump_profile(x / 2.0, inner=R, outer=2.0 * R).astype(complex))
    raw2 = bump_profile(2.0 * (x - center), inner=R, outer=2.0 * R)
    mass = grid.dx * float(np.sum(raw2))
    piece2 = SampledSignal(grid, (raw2 / mass).astype(complex))
    window = convolve(piece1, piece2)
    return PlateauWindow(piece1, piece2, window, float(center), R)


def _max_phase_gap(theta: float, radius: float) -> float:
    """max over |t| <= radius of |exp(i theta t) - 1| = 2 sin(min(|theta| r / 2, pi/2))."""
    u = abs(theta) * radius / 2.0
    if u >= math.pi / 2.0:
        return 2.0
    return 2.0 * math.sin(u)


def translation_difference_bound(
    w: PlateauWindow, s: float, theta: float
) -> tuple[float, float]:
    """Measured and predicted sides of the translation-difference estimate.

    Returns (lhs, rhs) with
    lhs = integral <xi>^s |psi^(xi - theta) - psi^(xi)| dxi (by quadrature;
    the shifted transform is evaluated exactly as the transform of the
    modulated window) and rhs = |theta|^s (max_{|t|<=R0} |e^(i theta t)-1|)^(1-s).
    Callers fit the constant C from sweeps of (theta, s).
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"weight power must satisfy 0 <= s < 1, got {s}")
    grid = w.window.grid
    psi_hat = fourier_forward(w.window).samples
    modulated = SampledSignal(
        grid, w.window.samples * np.exp(1j * theta * grid.points())
    )
    shifted_hat = fourier_forward(modulated).samples
    xi = grid.frequencies()
    weight = (1.0 + xi**2) ** (s / 2.0)
    lhs = grid.dxi * float(np.sum(weight * np.abs(shifted_hat - psi_hat)))
    rhs = abs(theta) ** s * _max_phase_gap(theta, w.piece_support_radius) ** (1.0 - s)
    return lhs, rhs
