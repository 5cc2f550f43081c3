"""Smooth partition of unity on the frequency line and frequency blocks.

The family {phi(. - k)}_{k in Z} slices the frequency axis into unit blocks:
phi is smooth, 0 <= phi <= 1, phi = 1 on [-1/10, 1/10], supp phi inside
[-9/10, 9/10], and sum_k phi(xi - k) = 1 everywhere.  The profile is built
by normalizing a smooth bump b against its own integer translates,

    phi(xi) = b(xi) / sum_k b(xi - k),

which makes the partition identity hold to machine precision because the
denominator is 1-periodic.  Frequency blocks are

    block_k(f) = F^-1( phi(. - k) . Ff ),

band-limited to [k-1, k+1] and summing back to f.  A partition stores only
the core of phi (see FrequencyPartition) and alone knows the block layout:
block_rows reads the windows of all blocks as rows of a spectrum, and
overlap_add, its adjoint, puts such rows back on their windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, SampledSignal, _each_span, fourier_forward, fourier_inverse

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
    translate phi(. - k) is the stored core moved by k * steps_per_unit
    index positions.  core (read-only) holds phi on [-1, 1): its
    2 * steps_per_unit samples at the grid frequencies j * dxi,
    j = -steps_per_unit .. steps_per_unit - 1, which carry all of supp phi.
    """

    grid: Grid
    core: np.ndarray
    steps_per_unit: int

    @property
    def max_block_index(self) -> int:
        return int(math.floor(self.grid.nyquist)) - 1

    def block_indices(self) -> range:
        return range(-self.max_block_index, self.max_block_index + 1)

    def window_start(self, k: int) -> int:
        """Frequency-grid index of k - 1, where the window of phi(. - k) starts."""
        return self.grid.n // 2 + (k - 1) * self.steps_per_unit

    def block_rows(self, spectrum: np.ndarray) -> np.ndarray:
        """(K, 2 * steps_per_unit) rows of a centered spectrum, as a read-only strided view.

        Row i holds the spectrum on [k - 1, k + 1) for k = block_indices()[i],
        so consecutive rows start steps_per_unit samples apart.  phi(. - k)
        vanishes at k + 1, so the half-open window carries all of it and the
        top window still ends inside the grid.
        """
        w, first = self.steps_per_unit, self.window_start(-self.max_block_index)
        return sliding_window_view(spectrum, 2 * w)[first::w][: 2 * self.max_block_index + 1]

    def overlap_add(self, rows: np.ndarray) -> np.ndarray:
        """Adjoint of block_rows: each row summed back onto its window of an n-length spectrum."""
        w, first = self.steps_per_unit, self.window_start(-self.max_block_index)
        out = np.zeros(self.grid.n, dtype=rows.dtype)
        # Windows overlap by halves: segment i of w samples is the upper half
        # of row i - 1 plus the lower half of row i, for i = 0 .. K.
        segments = out[first : first + (len(rows) + 1) * w].reshape(-1, w)
        segments[:-1] += rows[:, :w]
        segments[1:] += rows[:, w:]
        return out


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
    # The same floats as grid.frequencies()[n/2 - steps : n/2 + steps].  The
    # profile is elementwise, so span by span it gives the one-pass core bit
    # for bit; its temporaries, about ten floats and masks per sample, are
    # counted as 16 samples, so that a span holds no more than _SPAN.
    core = np.empty(2 * steps)

    def fill(lo: int, hi: int) -> None:
        core[lo:hi] = partition_profile(grid.dxi * np.arange(lo - steps, hi - steps))

    _each_span(fill, core.size, 16)
    core.setflags(write=False)
    part = FrequencyPartition(grid, core, steps)
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
    window = slice(part.window_start(k), part.window_start(k + 2))
    masked = np.zeros_like(spectrum)
    masked[window] = spectrum[window] * part.core
    return fourier_inverse(SampledSignal(f.grid.dual(), masked))


def partition_defect(part: FrequencyPartition) -> float:
    """Max |sum_k phi(xi - k) - 1| over the grid: the stored core against its unit translate.

    On [0, 1) only phi(xi - 1) = core[:w] and phi(xi) = core[w:] are nonzero,
    and every grid frequency is an integer shift of one there.
    """
    w = part.steps_per_unit
    return float(np.max(np.abs(part.core[:w] + part.core[w:] - 1.0)))
