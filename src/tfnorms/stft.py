"""Short-time Fourier transform on the grid and Moyal-identity diagnostics.

The STFT with window phi is

    V f(x, xi) = integral f(t) conj(phi(t - x)) exp(-i t xi) dt,

equivalently exp(-i x xi) (f * M_xi phi~)(x) with phi~(t) = conj(phi(-t)).
For fixed x_j the integrand is a windowed copy of f, so row j of the
time-frequency plane is one forward transform.  Every consumer walks the
plane in chunks of rows from one generator, ``_stft_rows``: it gathers r
translated windows as a strided view of the doubled window, multiplies in
the signals, and transforms the chunk in place in one reused buffer.  The
rows per chunk keep every live chunk-sized buffer within ``_BATCH_LIMIT``
samples, so no pass needs n^2 memory.  Each chunk is worked in spans of at
most ``_STFT_SPAN`` samples (one row at least) on the span pool
(``grid._each_span``): a span multiplies, transforms and scales its own rows,
with the same values, bit for bit, as the batched calls, and then hands them
to the consumer's per-span hook while they are still in cache:

- ``stft`` copies the chunks into the dense matrix, with the same values,
  bit for bit, as one batched transform of the whole plane;
- ``stft_gram`` accumulates the Gram matrix <V f_a, V f_b> of a stack of
  signals: its hook conjugates each span, and one matrix product per chunk
  adds the chunk's share, which is where the Moyal residual and the L2
  identity ratio come from;
- the ``stft`` experiment checks the closed form span by span in its hook.

On the periodic grid the discrete Moyal identity

    <V_phi f, V_psi g> = 2 pi <psi, phi> <f, g>

holds exactly up to rounding.  Its left side is a sum over x-rows, so the
chunked accumulation is exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CostGateError
from .grid import (
    _BATCH_LIMIT,
    Grid,
    SampledSignal,
    _check_same_grid,
    _each_span,
    weighted_lp_norm,
)

__all__ = [
    "TimeFrequencyMatrix",
    "gaussian_window",
    "stft",
    "stft_gram",
]

# A pass over the plane costs O(n^2 log n) time; its memory is bounded by the
# row chunks, so this gate is a time budget, not a memory wall.  Block-based
# norm computation is the intended path for anything larger.
MAX_STFT_SIZE = 4096

# Samples per span of rows within a chunk: a span's rows stay in cache from
# the multiply through the transform to the consumer's hook.
_STFT_SPAN = 1 << 16


@dataclass(frozen=True)
class TimeFrequencyMatrix:
    """Dense STFT samples V[j, k] = V f(x_j, xi_k) on grid x grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got {self.values.shape}")
        self.values.setflags(write=False)


def gaussian_window(grid: Grid) -> SampledSignal:
    """Default analysis window exp(-t^2 / 2)."""
    return SampledSignal.from_function(grid, lambda t: np.exp(-(t**2) / 2.0))


def _chunk_rows(n: int, stack: int, buffers: int) -> int:
    """Rows per chunk of _stft_rows: `buffers` chunks of S x r x n fit in _BATCH_LIMIT."""
    return min(n, max(1, _BATCH_LIMIT // (buffers * stack * n)))


def _stft_rows(
    signals: Sequence[SampledSignal],
    windows: Sequence[SampledSignal],
    buffers: int = 1,
    hook=None,
):
    """Iterator over row chunks (j0, block) of the STFTs V_{w_s} f_s.

    windows holds one window per signal, or a single window for all of them.
    block has shape (S, r, n) and holds rows j0 .. j0 + r - 1 of the S
    transforms, with the frequencies in FFT order: column c is xi_k for
    k = c - n if c >= n/2, else k = c, so ``np.fft.fftshift(block, axes=-1)``
    gives rows of :func:`stft`.  block is one reused buffer, overwritten by
    the next chunk.  ``buffers`` counts the chunk-sized arrays the caller
    keeps alive, this one included; r is chosen so that together they hold
    at most ``_BATCH_LIMIT`` samples.  Work done in the hook is span-sized
    and does not count.

    Each chunk is computed in spans of at most ``_STFT_SPAN`` samples (one
    row at least), which may run concurrently.  When hook is given,
    ``hook(j0, block, lo, hi)`` is called on the span's thread once rows
    lo .. hi - 1 of block are final; calls for one chunk touch disjoint rows
    and all return before the chunk is yielded, and an exception in one
    reaches the consumer of the iterator.  The inputs are checked here,
    before the first chunk is computed.
    """
    if len(windows) not in (1, len(signals)):
        raise ValueError(
            f"need one window or one per signal, got {len(windows)} for {len(signals)}"
        )
    grid = signals[0].grid
    for h in (*signals, *windows):
        _check_same_grid(signals[0], h, "stft")
    n = grid.n
    if n > MAX_STFT_SIZE:
        raise CostGateError(
            f"the STFT is gated at n <= {MAX_STFT_SIZE} (got n={n}); "
            "use the frequency-block norm path for larger grids"
        )
    if any(weighted_lp_norm(w, 2.0) == 0.0 for w in windows):
        raise ValueError("stft window must be nonzero")

    # ifftshift puts x = 0 at t = 0 before the transform: shifted[s, t] = f_s(x_{t + n/2}).
    shifted = np.fft.ifftshift(np.stack([f.samples for f in signals]), axes=-1)
    doubled = np.conj(np.stack([w.samples for w in windows]))
    # translates[s, m, t] = conj(w_s(x_{(m + t) mod n})); row j needs m = n - j.
    translates = sliding_window_view(np.concatenate([doubled, doubled], axis=-1), n, axis=-1)
    stack = len(signals)
    rows = _chunk_rows(n, stack, buffers)
    span = max(1, _STFT_SPAN // (stack * n))
    buf = np.empty(stack * rows * n, dtype=complex)

    def chunks():
        for j0 in range(0, n, rows):
            r = min(rows, n - j0)
            block = buf[: stack * r * n].reshape(stack, r, n)

            def run(lo, hi):
                part = block[:, lo:hi]
                m0 = n - j0 - lo
                np.multiply(shifted[:, None, :], translates[:, m0 : m0 - (hi - lo) : -1], out=part)
                np.fft.fft(part, axis=-1, out=part)
                part *= grid.dx
                if hook is not None:
                    hook(j0, block, lo, hi)

            _each_span(run, r, span)
            yield j0, block

    return chunks()


def stft(f: SampledSignal, window: SampledSignal) -> TimeFrequencyMatrix:
    """Dense STFT of f against the given window.

    Row j of the result fixes x_j and holds the forward transform of
    t -> f(t) conj(window(t - x_j)); the translated windows wrap
    periodically, so the window should decay inside the domain.
    """
    chunks = _stft_rows([f], [window])
    n = f.grid.n
    half = n // 2
    values = np.empty((n, n), dtype=complex)
    for j0, block in chunks:
        rows = values[j0 : j0 + block.shape[1]]
        rows[:, :half] = block[0, :, half:]
        rows[:, half:] = block[0, :, :half]
    return TimeFrequencyMatrix(f.grid, values)


def stft_gram(
    signals: Sequence[SampledSignal], window: SampledSignal | Sequence[SampledSignal]
) -> np.ndarray:
    """Gram matrix G[a, b] = <V f_a, V f_b> of the STFTs of a stack of signals.

    G[a, b] = dx dxi sum V f_a conj(V f_b) over the whole plane, accumulated
    in one chunked pass: each span of rows is conjugated into a second
    chunk-sized buffer as it is finished, and one matrix product per chunk
    adds the chunk's share, so the sums do not depend on the spans.  The
    diagonal holds the squared L2 norms of the transforms.  window is shared
    by all signals, or is a sequence with one window per signal.
    """
    windows = [window] if isinstance(window, SampledSignal) else list(window)
    grid = signals[0].grid
    stack = len(signals)

    def conjugate(j0, block, lo, hi):
        c = conj[:, : block.shape[1] * grid.n].reshape(stack, -1, grid.n)
        np.conjugate(block[:, lo:hi], out=c[:, lo:hi])

    chunks = _stft_rows(signals, windows, buffers=2, hook=conjugate)
    conj = np.empty((stack, _chunk_rows(grid.n, stack, 2) * grid.n), dtype=complex)
    gram = np.zeros((stack, stack), dtype=complex)
    for _, block in chunks:
        flat = block.reshape(stack, -1)
        gram += flat @ conj[:, : flat.shape[1]].T
    return grid.dx * grid.dxi * gram
