"""Norms built from frequency blocks, and the measured algebra constant.

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
n log n.  The (b P, M) rows of a batch of b blocks are independent, so they
are transformed in spans of at least 2^18 samples (a span may cross a block
boundary), concurrently on the CPUs of the process's affinity mask once a
batch holds two spans or more.  Each span writes its own rows of one shared
buffer, and the per-block sums and maxima run over the whole batch in the
calling thread, so every value is bitwise the same whatever the number of
CPUs.

The sum over blocks is truncated at the frequency grid edge and the mass of
the outermost two blocks is reported as a tail estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    _BATCH_LIMIT,
    _each_span,
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    fourier_forward,
    weighted_lp_norm,
)
from .partition import FrequencyPartition, build_frequency_partition

__all__ = [
    "NormReport",
    "modulation_norm",
    "fourier_beurling_norm",
    "fourier_segal_norm",
    "norm_value",
    "partition_for",
    "algebra_constant",
]

# Relative magnitude below which a masked block is double-rounding noise.
_NOISE_FLOOR = 1e-13

# Least samples per span of folded inverse transforms (see _folded_lp).
_FOLD_SPAN = 1 << 18


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
    f: SampledSignal | None,
    p: float,
    q: float,
    s: float,
    part: FrequencyPartition,
    spectrum: SampledSignal | None = None,
) -> NormReport:
    """Block-characterization modulation norm of f.

    A caller that already holds the transform (for instance because the
    signal was synthesized in the frequency domain) passes it as
    `spectrum`, a signal on the dual grid; exact zero blocks then stay
    exactly zero, and f may be None, so the caller need not keep the signal
    alive.
    """
    spec = NormSpec.modulation(p, q, s)
    grid = spectrum.grid.dual() if f is None else f.grid
    if not part.grid.compatible(grid):
        raise ValueError("partition was built for a different grid")
    spectrum = (fourier_forward(f) if spectrum is None else spectrum).samples
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
            rows, np.flatnonzero(live), core, p, part.grid.n, grid.dx
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
    _BATCH_LIMIT samples whose (b P, M) rows are transformed in spans of at
    least _FOLD_SPAN samples.
    """
    width = core.size
    m_len = 1 << (width - 1).bit_length()
    p_len = n // m_len
    twiddle = np.exp((2j * math.pi / n) * np.outer(np.arange(p_len), np.arange(width)))
    out = np.empty(which.size)
    step = max(1, _BATCH_LIMIT // n)
    stack = np.empty((min(step, which.size), p_len, m_len), dtype=complex)
    mags = np.empty(stack.shape)
    span = -(-_FOLD_SPAN // m_len)  # rows of M samples
    for lo in range(0, which.size, step):
        coeffs = rows[which[lo : lo + step]] * core
        count = coeffs.shape[0] * p_len
        z, a = stack[: coeffs.shape[0]], mags[: coeffs.shape[0]]
        z_rows, a_rows = z.reshape(count, m_len), a.reshape(count, m_len)

        def run(r0: int, r1: int) -> None:
            # Row b * P + a of the batch is block b at fold offset a.
            for b in range(r0 // p_len, (r1 - 1) // p_len + 1):
                b0, b1 = max(r0, b * p_len), min(r1, (b + 1) * p_len)
                np.multiply(
                    coeffs[b],
                    twiddle[b0 - b * p_len : b1 - b * p_len],
                    out=z_rows[b0:b1, :width],
                )
            zs, az = z_rows[r0:r1], a_rows[r0:r1]
            zs[:, width:] = 0.0
            np.fft.ifft(zs, axis=-1, out=zs)
            np.abs(zs, out=az)
            if not math.isinf(p):
                az **= p

        _each_span(run, count, span)
        # The reductions stay whole-batch, so their order does not depend
        # on the spans.
        if math.isinf(p):
            out[lo : lo + step] = np.max(a, axis=(1, 2))
        else:
            out[lo : lo + step] = (dx * np.sum(a, axis=(1, 2))) ** (1.0 / p)
    return out * (m_len / n / dx)


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


def algebra_constant(pairs, spec: NormSpec, part: FrequencyPartition) -> float:
    """Empirical multiplication constant: max ||f g|| / (||f|| ||g||) over signal pairs.

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
