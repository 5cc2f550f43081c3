"""Norms built from frequency blocks, and the measured algebra constant.

The canonical modulation norm is the block characterization

    ||f||_(p,q,s) = ( sum_k <k>^(sq) ||block_k(f)||_p^q )^(1/q),

computed with the partition of unity from :mod:`tfnorms.partition`.  Each
grid has one partition, cached by :func:`partition_for`.
:func:`modulation_norm` takes it as an argument; :func:`norm_value`,
``_norm_values`` and :func:`algebra_constant` look up the one of the
signal's grid.

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
n log n.  The fold runs in the spans of ``grid._split_sum``, each block
one run of n values in rows of M: whole blocks a span, or the parts of a
block too large for a span (see :mod:`tfnorms.grid` for numpy's summation
order).  A span's size counts every buffer it holds:
the complex transform buffer and the float magnitudes, 1.5 complex a
sample, counted as 2; or with a factor h (below) the transform buffer and
the three complex buffers h holds while it is computed, 4 a sample, whose
memory the magnitudes reuse.  So a span holds at most ``grid._SPAN``
samples of buffers (or one row, when M is larger).  Each span does all of
its work while the data is still in cache: twiddle product, length-M
inverse transforms into span-local buffers, and |.|^p, which the helper
reduces.  The (P, W) twiddle table e^(2 pi i a m / n) comes from two short
tables: with m = T h + l for T a power of two about sqrt(W), row a is the
outer product of e^(2 pi i a T h / n), h < ceil(W / T), and
e^(2 pi i a l / n), l < T, so P (T + ceil(W / T)) exponentials give it.
One builder makes it, and row a depends on a alone: once per call when n
fits in a span (n samples at most), each span reading its rows, and
otherwise span by span, each span writing its own rows in place in its
transform buffer.  One fold gives the L^p norms of both g, the inverse
transform of one row, and h g, with h known at every grid point (the flat
counterexample's Rudin-Shapiro polynomial) and periodic in a with a
period that divides M: each span reduces |g|^p, multiplies it in place by
|h|^p, computed on one period of each row and broadcast over the M / per
copies, and reduces again.

The body, ``_block_norm``, stops at the vector of block L^p norms for one
p, since q and s enter only when ``_norm_report`` combines that vector:
sum_k (<k>^s ||block_k||_p)^q, and the two outermost blocks as the tail.  So
a caller that needs several (q, s) of one spectrum folds each p once;
``_norm_values`` gives every spec of one signal from one transform and one
partition lookup that way (the embedding sweep), and
:func:`algebra_constant` norms each signal and each product once.  Nothing
is cached across calls by the bytes of a spectrum or a row.  A block holding
-c_m folds to the negated intermediates of one holding c_m, because under
round-to-nearest negation commutes with the twiddle product, every FFT
butterfly and abs, and a zero of either sign stays a zero; so the two norms
are bitwise equal.  The flat counterexample folds no block: its blocks are
+-2^-m times frequency translates of g-hat, whose norms are 2^-m ||g||_p
(:func:`tfnorms.experiments.flat_measurement`).

The sum over blocks is truncated at the frequency grid edge and the mass of
the outermost two blocks is reported as a tail estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .grid import (
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
    f: SampledSignal, p: float, q: float, s: float, part: FrequencyPartition
) -> NormReport:
    """Block-characterization modulation norm of f."""
    if not part.grid.compatible(f.grid):
        raise ValueError("partition was built for a different grid")
    lp = _block_norm(fourier_forward(f).samples, p, part)
    return _norm_report(lp, NormSpec.modulation(p, q, s), part)


def _block_norm(spectrum: np.ndarray, p: float, part: FrequencyPartition) -> np.ndarray:
    """The L^p norms of the blocks of a centered spectrum, in block order, 0 for dead blocks."""
    # Blocks whose masked spectrum sits at the FFT rounding floor carry no
    # signal content; skipping them changes the value below reporting
    # precision and keeps the inverse transforms proportional to the
    # occupied band.
    peak = _grid._split_sum(lambda lo, hi: (np.abs(spectrum[lo:hi]),), spectrum.size, 1,
                            maximum=True)[0, 0]
    floor = _NOISE_FLOOR * float(peak)
    rows, core = part.block_rows(spectrum), part.core
    count = len(rows)
    block_norms = np.zeros(count)
    scale = part.grid.dxi / (2.0 * math.pi)
    # The maximum of each masked row is its liveness test.  Every reduction
    # is per row, so the rows are scanned span by span.
    peaks = np.empty(count)

    def scan(lo: int, hi: int) -> None:
        mags = np.abs(rows[lo:hi] * core)
        np.max(mags, axis=1, out=peaks[lo:hi])
        if p == 2.0:
            # Parseval on the masked rows: no inverse transform needed.
            block_norms[lo:hi] = np.sqrt(scale * np.sum(np.square(mags, out=mags), axis=1))

    _each_span(scan, count, core.size)
    live = peaks > floor
    if p == 2.0:
        block_norms *= live
    elif live.any():
        which = np.flatnonzero(live)
        block_norms[which] = _folded_lp(rows, which, core, p, part.grid.n, part.grid.dx)
    return block_norms


def _norm_report(block_norms: np.ndarray, spec: NormSpec, part: FrequencyPartition) -> NormReport:
    """The modulation norm `spec` from the L^p block norms of ``_block_norm`` at p = spec.p."""
    ks = np.array(part.block_indices())
    contributions = _index_weight(ks, spec.s) * block_norms
    value = _combine(contributions, spec.q)
    outer = np.array([contributions[0], contributions[-1]])
    tail = _combine(outer, spec.q)
    return NormReport(spec, value, tuple(zip(ks.tolist(), contributions.tolist())), tail)


def _fold_lengths(width: int, n: int) -> tuple[int, int]:
    """(M, P) of the fold of W = width coefficients on an n-point grid."""
    m_len = 1 << (width - 1).bit_length()
    return m_len, n // m_len


def _twiddle(r0: int, r1: int, n: int, out: np.ndarray) -> np.ndarray:
    """Write rows r0 <= a < r1 of the fold's table e^(2 pi i a m / n) into `out`; return it.

    out is an (r1 - r0, H, T) array, m = T h + l for h < H and l < T, and
    row a is the outer product of e^(2 pi i a T h / n) and
    e^(2 pi i a l / n): (r1 - r0) (H + T) exponentials.  a T h and a l are
    integers, exact in float64 below 2^53, so each argument is rounded once,
    at the product with 2 pi / n.  Row a depends on a alone.
    """
    high, low = out.shape[1:]
    a = np.arange(r0, r1, dtype=float)[:, None]
    highs = np.exp(2j * math.pi / n * (a * np.arange(0, high * low, low, dtype=float)))
    lows = np.exp(2j * math.pi / n * (a * np.arange(low, dtype=float)))
    return np.multiply(highs[:, :, None], lows[:, None, :], out=out)


def _folded_lp(
    rows: np.ndarray,
    which: np.ndarray,
    core: np.ndarray,
    p: float,
    n: int,
    dx: float,
    factor=None,
) -> np.ndarray:
    """L^p norms of the n-point inverse transforms of the blocks rows[which] * core.

    Uses the fold of the module docstring, each block one run of
    ``grid._split_sum`` in rows of M values.  With `factor`, returns a
    (2, which.size) array: those norms, bitwise, and the norms of the
    inverse transforms multiplied by a function h.  h is periodic in a with
    a period `per` that divides M, and factor(r0, r1) gives its values on a
    period, the (r1 - r0, per) values h(b + P a) for r0 <= b < r1 and
    a < per; factor may hold three complex (r1 - r0, M) buffers while it
    runs.
    """
    width = core.size
    m_len, p_len = _fold_lengths(width, n)
    products = factor is not None
    # m = T h + l for T = low, a power of two about sqrt(W), so that it
    # divides M, and h < high = ceil(W / T).
    low = 1 << (width.bit_length() // 2)
    high = -(-width // low)
    # One table of n samples at most, shared by every span, when spans hold
    # whole blocks; otherwise each span builds its own rows in place.
    table = None
    if n <= _grid._SPAN:
        table = _twiddle(0, p_len, n, np.empty((p_len, high, low), dtype=complex))
        table = table.reshape(p_len, -1)[:, :width]

    def blocks(lo: int, hi: int):
        # Yields |IFFT_M(c * twiddle row r)|^p for the values [lo, hi) of the
        # blocks laid end to end, whole blocks or rows r0 <= r < r1 of one,
        # and, with a factor, |IFFT_M(...) * factor|^p.
        i0, a = divmod(lo, n)
        i1 = i0 + max(1, (hi - lo) // n)
        r0 = a // m_len
        r1 = r0 + min(n, hi - lo) // m_len
        coeffs = rows[which[i0:i1]]  # a copy, masked in place
        coeffs *= core
        z = np.empty((i1 - i0, r1 - r0, m_len), dtype=complex)
        head = z[..., :width]
        if table is None:
            _twiddle(r0, r1, n, z[0].reshape(r1 - r0, -1, low)[:, :high])
        np.multiply(coeffs[:, None, :], head[0] if table is None else table[r0:r1], out=head)
        del coeffs  # gone before the transforms and the factor's buffers
        z[..., width:] = 0.0
        np.fft.ifft(z, axis=-1, out=z)
        # mags comes after the factor, so that it may take the memory of the
        # factor's temporaries.
        h = factor(r0, r1) if products else None
        mags = np.abs(z)
        if p != 1.0 and not math.isinf(p):
            mags **= p
        yield mags
        if products:
            # |g h|^p = |g|^p |h|^p, with |h|^p on one period of each row
            # broadcast over the M / per copies.
            h = np.abs(h)
            if p != 1.0 and not math.isinf(p):
                h **= p
            copies = mags.reshape(*mags.shape[:2], -1, h.shape[1])
            np.multiply(copies, h[:, None, :], out=copies)
            yield mags

    # Complex buffers per fold sample: z and mags, 1.5, or z and the factor's three.
    out = _grid._split_sum(blocks, n, 4 if products else 2, m_len, math.isinf(p), runs=which.size)
    if not math.isinf(p):
        out = (dx * out) ** (1.0 / p)
    return (out if products else out[0]) * (m_len / n / dx)


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


def norm_value(f: SampledSignal, spec: NormSpec) -> float:
    """Evaluate any NormSpec on a signal; block norms use ``partition_for(f.grid)``."""
    if spec.space is Space.MODULATION:
        return modulation_norm(f, spec.p, spec.q, spec.s, partition_for(f.grid)).value
    if spec.space is Space.FOURIER_BEURLING:
        return fourier_beurling_norm(f, spec.s)
    if spec.space is Space.FOURIER_SEGAL:
        return fourier_segal_norm(f, spec.p)
    return weighted_lp_norm(f, spec.p, spec.s)


def _norm_values(f: SampledSignal, specs) -> dict:
    """{spec: norm_value(f, spec)} for each spec, bit for bit, from one transform of f.

    The modulation specs share their block norms: each p is folded once,
    with the partition of f's grid, and combined for each (q, s).
    """
    part = partition_for(f.grid)
    spectrum = fourier_forward(f)
    blocks: dict = {}  # p -> block norms

    def value(spec: NormSpec) -> float:
        if spec.space is Space.MODULATION:
            if spec.p not in blocks:
                blocks[spec.p] = _block_norm(spectrum.samples, spec.p, part)
            return _norm_report(blocks[spec.p], spec, part).value
        if spec.space is Space.FOURIER_BEURLING:
            return weighted_lp_norm(spectrum, 1.0, spec.s)
        return norm_value(f, spec)

    return {spec: value(spec) for spec in specs}


def algebra_constant(pairs, spec: NormSpec) -> float:
    """Empirical multiplication constant: max ||f g|| / (||f|| ||g||) over signal pairs.

    Downstream series constructions gate convergence on this measured value
    (with their own safety margin); it is an estimate, not a proof.  Each
    norm is :func:`norm_value`'s, with the partition of the signal's grid.

    Each tag's signal is normed once, and each product once per ordered
    pair of tags.  A product reuses a norm only when its samples are bitwise
    those of the signal that was normed: one of its factors (nested
    plateaus, such as bump-4 times bump-2, which is bump-2), or g f for a
    reversed pair normed before.  f g and g f are compared, not assumed
    equal, because numpy's SIMD complex multiply can round the two orders
    differently in the last bit.

    A norm that is not a finite number (one that overflowed, say at
    p = 1e308) is refused with a ValueError naming the spec and the signal.
    """
    best = 0.0
    signal_norms: dict = {}  # tag -> norm
    product_norms: dict = {}  # (tag_f, tag_g) -> norm of f g

    def finite(value: float, what: str) -> float:
        if not math.isfinite(value):
            raise ValueError(
                f"the {spec.space.value} norm (p={spec.p:g}, q={spec.q:g}, s={spec.s:g}) "
                f"of {what} is {value}, not a finite number"
            )
        return value

    def signal_norm(tag, sig):
        if tag not in signal_norms:
            signal_norms[tag] = finite(norm_value(sig, spec), tag)
        return signal_norms[tag]

    def product_norm(tag_f, f, tag_g, g):
        fg = f * g
        bits = fg.samples.tobytes()
        if bits == f.samples.tobytes():
            return signal_norm(tag_f, f)
        if bits == g.samples.tobytes():
            return signal_norm(tag_g, g)
        if (tag_g, tag_f) in product_norms and bits == (g * f).samples.tobytes():
            return product_norms[tag_g, tag_f]
        return finite(norm_value(fg, spec), f"{tag_f} * {tag_g}")

    for tag_f, f, tag_g, g in pairs:
        nf = signal_norm(tag_f, f)
        ng = signal_norm(tag_g, g)
        if nf == 0.0 or ng == 0.0:
            continue
        if (tag_f, tag_g) not in product_norms:
            product_norms[tag_f, tag_g] = product_norm(tag_f, f, tag_g, g)
        best = max(best, product_norms[tag_f, tag_g] / (nf * ng))
    return best
