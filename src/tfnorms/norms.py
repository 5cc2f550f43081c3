"""Norms built from frequency blocks, plus embedding and algebra diagnostics.

The canonical modulation norm is the block characterization

    ||f||_(p,q,s) = ( sum_k <k>^(sq) ||block_k(f)||_p^q )^(1/q),

computed with the partition of unity from :mod:`tfnorms.partition`.

All blocks are read at once from a block tensor: the window of phi(. - k) is
[k - 1, k + 1), W = 2w samples of the frequency grid (w samples per unit),
and consecutive windows start w samples apart, so the windows of all K
blocks form one (K, W) strided view of the spectrum.  Blocks whose masked
spectrum sits at the FFT rounding floor are skipped, and p = 2 needs no
inverse transform (Parseval on each row).

For p != 2 each block's inverse transform is folded: with M the smallest
power of two >= W and P = n / M, grid index j = b + P a gives

    |block_k(x_j)| = (M / n) |IFFT_M(c_m e^(2 pi i m b / n))[a]| / dx

for the block's W masked coefficients c_m, so one (P, M) batch of length-M
transforms gives the block at all n grid points exactly, the same values as
a zero-padded length-n inverse up to rounding, for n log M work instead of
n log n.

The direct time-frequency definition (an integral over the STFT magnitude)
is kept as a cross-check; the two are equivalent norms whose ratio is
measured, never assumed.  The sum over blocks is truncated at the frequency
grid edge and the mass of the outermost two blocks is reported as a tail
estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    fourier_forward,
    weighted_lp_norm,
)
from .partition import FrequencyPartition, build_frequency_partition
from .stft import stft

__all__ = [
    "NormReport",
    "modulation_norm",
    "modulation_norm_stft",
    "fourier_beurling_norm",
    "fourier_segal_norm",
    "norm_value",
    "partition_for",
    "embedding_ratio",
    "algebra_ratio",
    "algebra_constant",
]

# Batched inverse FFTs keep block loops fast on desk-scale grids; the batch
# is chunked so the working set never exceeds about this many samples.
_BATCH_LIMIT = 1 << 22

# Relative magnitude below which a masked block is double-rounding noise.
_NOISE_FLOOR = 1e-13


def _index_weight(k: np.ndarray, s: float) -> np.ndarray:
    if s == 0.0:
        return np.ones_like(k, dtype=float)
    return (1.0 + k.astype(float) ** 2) ** (s / 2.0)


def _combine(contributions: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(np.max(contributions)) if contributions.size else 0.0
    return float(np.sum(contributions**q) ** (1.0 / q))


@dataclass(frozen=True)
class NormReport:
    """Value of a norm together with its per-block breakdown."""

    spec: NormSpec
    value: float
    block_contributions: tuple
    tail_estimate: float

    def to_json_dict(self) -> dict:
        d = self.spec.to_json_dict()
        d["value"] = self.value
        d["tail_estimate"] = self.tail_estimate
        d["blocks"] = [{"k": int(k), "contribution": float(c)} for k, c in self.block_contributions]
        return d


def modulation_norm(
    f: SampledSignal,
    p: float,
    q: float,
    s: float,
    part: FrequencyPartition,
    spectrum: np.ndarray | None = None,
) -> NormReport:
    """Block-characterization modulation norm of f.

    A caller that already knows the transform (for instance because the
    signal was synthesized in the frequency domain) can pass it to keep
    exact zero blocks exactly zero.
    """
    spec = NormSpec.modulation(p, q, s)
    if not part.grid.compatible(f.grid):
        raise ValueError("partition was built for a different grid")
    if spectrum is None:
        spectrum = fourier_forward(f).samples
    # Blocks whose masked spectrum sits at the FFT rounding floor carry no
    # signal content; skipping them changes the value below reporting
    # precision and keeps the inverse transforms proportional to the
    # occupied band.
    floor = _NOISE_FLOOR * float(np.max(np.abs(spectrum)))
    ks = np.array(part.block_indices())
    rows, core = part.block_rows(spectrum), part.core
    live = np.zeros(ks.size, dtype=bool)
    block_norms = np.zeros(ks.size)
    scale = part.grid.dxi / (2.0 * math.pi)
    step = max(1, _BATCH_LIMIT // core.size)
    for lo in range(0, ks.size, step):
        mags = np.abs(rows[lo : lo + step] * core)
        live[lo : lo + step] = np.max(mags, axis=1) > floor
        if p == 2.0:
            # Parseval on the masked rows: no inverse transform needed.
            block_norms[lo : lo + step] = np.sqrt(scale * np.sum(mags**2, axis=1))
    del mags  # the inverse transforms below need the room
    if p == 2.0:
        block_norms *= live
    else:
        block_norms[live] = _folded_lp(
            rows, np.flatnonzero(live), core, p, part.grid.n, f.grid.dx
        )

    contributions = _index_weight(ks, s) * block_norms
    value = _combine(contributions, q)
    outer = np.array([contributions[0], contributions[-1]])
    tail = _combine(outer, q)
    return NormReport(
        spec,
        value,
        tuple((int(k), float(c)) for k, c in zip(ks, contributions)),
        tail,
    )


def _folded_lp(
    rows: np.ndarray, which: np.ndarray, core: np.ndarray, p: float, n: int, dx: float
) -> np.ndarray:
    """L^p norms of the n-point inverse transforms of the blocks rows[which] * core.

    Uses the fold described in the module docstring, in batches of at most
    _BATCH_LIMIT samples.
    """
    width = core.size
    m_len = 1 << (width - 1).bit_length()
    p_len = n // m_len
    twiddle = np.exp((2j * math.pi / n) * np.outer(np.arange(p_len), np.arange(width)))
    out = np.empty(which.size)
    step = max(1, _BATCH_LIMIT // n)
    stack = np.empty((min(step, which.size), p_len, m_len), dtype=complex)
    mags = np.empty(stack.shape)
    for lo in range(0, which.size, step):
        coeffs = rows[which[lo : lo + step]] * core
        z, a = stack[: coeffs.shape[0]], mags[: coeffs.shape[0]]
        z[:, :, width:] = 0.0
        np.multiply(coeffs[:, None, :], twiddle, out=z[:, :, :width])
        np.fft.ifft(z, axis=-1, out=z)
        np.abs(z, out=a)
        if math.isinf(p):
            out[lo : lo + step] = np.max(a, axis=(1, 2))
        else:
            a **= p
            out[lo : lo + step] = (dx * np.sum(a, axis=(1, 2))) ** (1.0 / p)
    return out * (m_len / n / dx)


def modulation_norm_stft(
    f: SampledSignal, p: float, q: float, s: float, window: SampledSignal
) -> float:
    """Direct time-frequency modulation norm, by tensor quadrature over the STFT.

    Diagnostic cross-check of :func:`modulation_norm`; inherits the dense-STFT
    size gate.
    """
    NormSpec.modulation(p, q, s)  # validate exponents
    tfm = stft(f, window)
    grid = f.grid
    mags = np.abs(tfm.values)
    if math.isinf(p):
        per_xi = np.max(mags, axis=0)
    else:
        per_xi = (grid.dx * np.sum(mags**p, axis=0)) ** (1.0 / p)
    xi = grid.frequencies()
    weighted = (1.0 + xi**2) ** (s / 2.0) * per_xi
    if math.isinf(q):
        return float(np.max(weighted))
    return float((grid.dxi * np.sum(weighted**q)) ** (1.0 / q))


def fourier_beurling_norm(f: SampledSignal, s: float = 0.0) -> float:
    """Weighted L1 norm of the transform, integral <xi>^s |Ff(xi)| dxi."""
    if s < 0:
        raise ValueError("weight power s must be >= 0")
    return weighted_lp_norm(fourier_forward(f), 1.0, s)


def fourier_segal_norm(f: SampledSignal, p: float) -> float:
    """||f||_p + ||Ff||_1, finite p."""
    if math.isinf(p):
        raise ValueError("the Fourier-Segal norm needs a finite exponent p")
    return weighted_lp_norm(f, p) + weighted_lp_norm(fourier_forward(f), 1.0)


# partition_for stays a plain function in front of the cache so that
# perfbench's tracer, which wraps functions by name, still sees each lookup.
@functools.lru_cache(maxsize=8)
def _cached_partition(grid: Grid) -> FrequencyPartition:
    return build_frequency_partition(grid)


def partition_for(grid: Grid) -> FrequencyPartition:
    """Build (and cache) the frequency partition for a grid.

    The cache holds the partitions of the 8 grids used last; equal grids
    share one partition object.
    """
    return _cached_partition(grid)


def norm_value(
    f: SampledSignal, spec: NormSpec, part: FrequencyPartition | None = None
) -> float:
    """Evaluate any NormSpec on a signal."""
    if spec.space is Space.MODULATION:
        if part is None:
            part = partition_for(f.grid)
        return modulation_norm(f, spec.p, spec.q, spec.s, part).value
    if spec.space is Space.FOURIER_BEURLING:
        return fourier_beurling_norm(f, spec.s)
    if spec.space is Space.FOURIER_SEGAL:
        return fourier_segal_norm(f, spec.p)
    return weighted_lp_norm(f, spec.p, spec.s)


def embedding_ratio(
    f: SampledSignal,
    from_spec: NormSpec,
    to_spec: NormSpec,
    part: FrequencyPartition | None = None,
) -> float:
    """||f||_to / ||f||_from for a nonzero signal."""
    denom = norm_value(f, from_spec, part)
    if denom == 0.0:
        raise ValueError("embedding ratio needs a nonzero signal")
    return norm_value(f, to_spec, part) / denom


def algebra_ratio(
    f: SampledSignal,
    g: SampledSignal,
    spec: NormSpec,
    part: FrequencyPartition | None = None,
    mixed: bool = False,
) -> float:
    """Multiplicative defect ||f g|| / (||f|| ||g||) in an algebra regime.

    With mixed=True the first factor is measured in the sup-type companion
    space (p = inf, same q and s).
    """
    if not spec.in_algebra_regime():
        raise ValueError(
            "algebra ratio is only asserted for modulation specs with q = 1 "
            "and s >= 0, or s > 1 - 1/q"
        )
    if part is None:
        part = partition_for(f.grid)
    nf = (
        norm_value(f, NormSpec.modulation(math.inf, spec.q, spec.s), part)
        if mixed
        else norm_value(f, spec, part)
    )
    ng = norm_value(g, spec, part)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("algebra ratio needs nonzero signals")
    return norm_value(f * g, spec, part) / (nf * ng)


def algebra_constant(pairs, spec: NormSpec, part: FrequencyPartition) -> float:
    """Empirical multiplication constant: max algebra ratio over signal pairs.

    Downstream series constructions gate convergence on this measured value
    (with their own safety margin); it is an estimate, not a proof.
    """
    best = 0.0
    cache: dict = {}

    def cached_norm(tag, sig):
        if tag not in cache:
            cache[tag] = norm_value(sig, spec, part)
        return cache[tag]

    for tag_f, f, tag_g, g in pairs:
        nf = cached_norm(tag_f, f)
        ng = cached_norm(tag_g, g)
        if nf == 0.0 or ng == 0.0:
            continue
        ratio = norm_value(f * g, spec, part) / (nf * ng)
        best = max(best, ratio)
    return best
