"""Smooth partition of unity on the frequency line and frequency blocks.

The family {phi(. - k)}_{k in Z} slices the frequency axis into unit blocks:
phi is smooth, 0 <= phi <= 1, phi = 1 on [-1/10, 1/10], supp phi inside
[-9/10, 9/10], and sum_k phi(xi - k) = 1 everywhere.  The profile is built
by normalizing a smooth bump b against its own integer translates,

    phi(xi) = b(xi) / sum_k b(xi - k),

which makes the partition identity hold to machine precision because the
denominator is 1-periodic.  Frequency blocks are

    block_k(f) = F^-1( phi(. - k) . Ff ),

band-limited to [k-1, k+1] and summing back to f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, SampledSignal, fourier_forward, fourier_inverse

__all__ = [
    "smooth_step",
    "bump_profile",
    "partition_profile",
    "FrequencyPartition",
    "build_frequency_partition",
    "frequency_block",
    "partition_defect",
]

PLATEAU_HALF_WIDTH = 0.1
SUPPORT_HALF_WIDTH = 0.9


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    rising = np.zeros_like(t)
    falling = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    rising[inside] = np.exp(-1.0 / t[inside])
    falling[inside] = np.exp(-1.0 / (1.0 - t[inside]))
    out = np.where(t >= 1.0, 1.0, 0.0)
    out[inside] = rising[inside] / (rising[inside] + falling[inside])
    return out


def bump_profile(
    xi: np.ndarray,
    inner: float = PLATEAU_HALF_WIDTH,
    outer: float = SUPPORT_HALF_WIDTH,
) -> np.ndarray:
    """Even smooth bump: 1 on |xi| <= inner, 0 on |xi| >= outer."""
    a = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((outer - a) / (outer - inner))


def partition_profile(xi: np.ndarray) -> np.ndarray:
    """The normalized profile phi; exact plateau, support, and summation."""
    xi = np.asarray(xi, dtype=float)
    # supp b is within one unit, so only the adjacent translates contribute
    # on supp phi; off the support the quotient is 0/0 and phi is 0.
    num = bump_profile(xi)
    denom = bump_profile(xi - 1.0) + num + bump_profile(xi + 1.0)
    out = np.zeros_like(num)
    inside = num > 0.0
    out[inside] = num[inside] / denom[inside]
    return out


@dataclass(frozen=True, eq=False)
class FrequencyPartition:
    """Partition data bound to one grid.

    steps_per_unit is the number of frequency samples per unit shift, so the
    translate phi(. - k) is the stored profile moved by k * steps_per_unit
    index positions.
    """

    grid: Grid
    profile: SampledSignal
    steps_per_unit: int

    @property
    def max_block_index(self) -> int:
        return int(math.floor(self.grid.nyquist)) - 1

    def block_indices(self) -> range:
        return range(-self.max_block_index, self.max_block_index + 1)

    @property
    def core(self) -> np.ndarray:
        """phi on [-1, 1): the 2 * steps_per_unit samples of its window."""
        n, w = self.grid.n, self.steps_per_unit
        return self.profile.samples.real[n // 2 - w : n // 2 + w]

    def window_start(self, k: int) -> int:
        """Frequency-grid index of k - 1, where the window of phi(. - k) starts."""
        return self.grid.n // 2 + (k - 1) * self.steps_per_unit

    def block_rows(self, spectrum: np.ndarray) -> np.ndarray:
        """Read-only (K, 2 * steps_per_unit) view of a centered spectrum.

        Row i holds the spectrum on [k - 1, k + 1) for k = block_indices()[i],
        so consecutive rows start steps_per_unit samples apart.  phi(. - k)
        vanishes at k + 1, so the half-open window carries all of it and the
        top window still ends inside the grid.
        """
        w = self.steps_per_unit
        first = self.window_start(-self.max_block_index)
        count = 2 * self.max_block_index + 1
        return sliding_window_view(spectrum, 2 * w)[first : first + count * w : w]


def build_frequency_partition(grid: Grid) -> FrequencyPartition:
    """Build the partition for a grid whose frequency spacing divides 1.

    Integer frequency shifts must land on grid points, which needs
    L = m * pi for an integer m (then 1 / dxi = m).
    """
    steps = grid.half_width / math.pi
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValueError(
            "frequency partition needs integer shifts on the grid: "
            f"choose L = m * pi for an integer m >= 1 (got L = {grid.half_width}, "
            f"L / pi = {steps:.6f})"
        )
    steps = int(round(steps))
    xi = grid.frequencies()
    # Precompute profile values centered in its own unit window.
    profile = SampledSignal(grid.dual(), partition_profile(xi).astype(complex))
    part = FrequencyPartition(grid, profile, steps)
    if part.max_block_index < 1:
        raise ValueError(
            f"grid resolves no frequency blocks: nyquist = {grid.nyquist:.3f}"
        )
    return part


def frequency_block(
    f: SampledSignal, k: int, part: FrequencyPartition, spectrum: np.ndarray | None = None
) -> SampledSignal:
    """Project f onto the frequency block centered at integer k.

    Accepts a precomputed forward transform to avoid repeated FFTs when
    iterating over k.
    """
    if not part.grid.compatible(f.grid):
        raise ValueError("partition was built for a different grid")
    if abs(k) > part.max_block_index:
        raise ValueError(
            f"block index {k} outside the frequency grid "
            f"(|k| <= {part.max_block_index})"
        )
    if spectrum is None:
        spectrum = fourier_forward(f).samples
    start = part.window_start(k)
    masked = np.zeros_like(spectrum)
    masked[start : start + 2 * part.steps_per_unit] = (
        part.block_rows(spectrum)[k + part.max_block_index] * part.core
    )
    return fourier_inverse(SampledSignal(f.grid.dual(), masked))


def partition_defect(part: FrequencyPartition) -> float:
    """Max |sum_k phi(xi - k) - 1| over all grid frequencies."""
    xi = part.grid.frequencies()
    total = np.zeros_like(xi)
    kmin = int(math.floor(xi[0])) - 1
    kmax = int(math.ceil(xi[-1])) + 1
    for k in range(kmin, kmax + 1):
        total += partition_profile(xi - k)
    return float(np.max(np.abs(total - 1.0)))
