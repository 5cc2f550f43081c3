"""Short-time Fourier transform on the grid and Moyal-identity diagnostics.

The STFT with window phi is

    V f(x, xi) = integral f(t) conj(phi(t - x)) exp(-i t xi) dt,

equivalently exp(-i x xi) (f * M_xi phi~)(x) with phi~(t) = conj(phi(-t)).
For fixed x_j the integrand is a windowed copy of f, so row j of the
time-frequency plane is one forward transform.  Every consumer walks the
plane through one pass, ``_stft_rows``, on the span runner
(``grid._each_span``), in spans of at most ``grid._SPAN`` samples of the
stack's rows (one row at least), concurrently on several CPUs: a span
gathers its translated windows as a strided view of the doubled window,
multiplies in the signals, transforms and scales its rows in a buffer of its
own, and hands them to the consumer's hook while they are still in cache.
No pass keeps more than span-sized buffers of the plane:

- ``stft`` copies each span into the dense matrix, with the same values,
  bit for bit, as one batched transform of the whole plane;
- ``stft_gram`` computes the Gram matrix <V f_a, V f_b> of a stack of
  signals, which is where the Moyal residual and the L2 identity ratio come
  from: its hook takes the S x S Gram of each row, and ``_in_row_order``
  adds them to one running total in row order as the spans finish, so the
  sum does not depend on the spans;
- the ``stft`` experiment checks the closed form span by span in its hook,
  and ``--dump-matrix`` writes the magnitude rows through ``_in_row_order``.

On the periodic grid the discrete Moyal identity

    <V_phi f, V_psi g> = 2 pi <psi, phi> <f, g>

holds exactly up to rounding.  Its left side is a sum over x-rows, so the
per-row accumulation is exact too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CostGateError
from .grid import (
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
# spans, so this gate is a time budget, not a memory wall.  Block-based
# norm computation is the intended path for anything larger.
MAX_STFT_SIZE = 4096


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


def _check_stft_size(n: int) -> None:
    """Raise CostGateError for an STFT on more than MAX_STFT_SIZE grid points."""
    if n > MAX_STFT_SIZE:
        raise CostGateError(
            f"the STFT is gated at n <= {MAX_STFT_SIZE} (got n={n}); "
            "use the frequency-block norm path for larger grids"
        )


def _stft_rows(signals: Sequence[SampledSignal], windows: Sequence[SampledSignal], hook) -> None:
    """Hand every row of the STFTs V_{w_s} f_s to ``hook(j0, rows)``, span by span.

    windows holds one window per signal, or a single window for all of them.
    The inputs are checked first, before any row is computed.  Then one pass
    covers the n rows in spans of at most ``grid._SPAN`` samples (S n per
    row, one row at least), which may run concurrently on the span pool.  A
    span multiplies, transforms and scales its rows in a buffer of its own
    and calls the hook on its thread: rows has shape (S, r, n) and holds rows
    j0 .. j0 + r - 1 of the S transforms, with the frequencies in FFT order
    (column c is xi_k for k = c - n if c >= n/2, else k = c, so
    ``np.fft.fftshift(rows, axes=-1)`` gives rows of :func:`stft`).  Hook calls touch disjoint rows and may come
    in any order; they all return before this does, and an exception in one
    reaches the caller.  The values are bit for bit those of one batched
    transform of the whole plane, whatever the spans.
    """
    if not signals:
        raise ValueError("need at least one signal")
    if len(windows) not in (1, len(signals)):
        raise ValueError(
            f"need one window or one per signal, got {len(windows)} for {len(signals)}"
        )
    grid = signals[0].grid
    for h in (*signals, *windows):
        _check_same_grid(signals[0], h, "stft")
    n = grid.n
    _check_stft_size(n)
    if any(weighted_lp_norm(w, 2.0) == 0.0 for w in windows):
        raise ValueError("stft window must be nonzero")

    # ifftshift puts x = 0 at t = 0 before the transform: shifted[s, t] = f_s(x_{t + n/2}).
    shifted = np.fft.ifftshift(np.stack([f.samples for f in signals]), axes=-1)
    doubled = np.conj(np.stack([w.samples for w in windows]))
    # translates[s, m, t] = conj(w_s(x_{(m + t) mod n})); row j needs m = n - j.
    translates = sliding_window_view(np.concatenate([doubled, doubled], axis=-1), n, axis=-1)

    def run(lo, hi):
        rows = np.multiply(shifted[:, None, :], translates[:, n - lo : n - hi : -1])
        np.fft.fft(rows, axis=-1, out=rows)
        rows *= grid.dx
        hook(lo, rows)

    _each_span(run, n, len(signals) * n)


def stft(f: SampledSignal, window: SampledSignal) -> TimeFrequencyMatrix:
    """Dense STFT of f against the given window.

    Row j of the result fixes x_j and holds the forward transform of
    t -> f(t) conj(window(t - x_j)); the translated windows wrap
    periodically, so the window should decay inside the domain.
    """
    n = f.grid.n
    half = n // 2
    values = np.empty((n, n), dtype=complex)

    def copy(j0, rows):
        span = values[j0 : j0 + rows.shape[1]]
        span[:, :half] = rows[0, :, half:]
        span[:, half:] = rows[0, :, :half]

    _stft_rows([f], [window], copy)
    return TimeFrequencyMatrix(f.grid, values)


def _in_row_order(consume):
    """A hook-side feed that hands each span's rows to ``consume`` in row order.

    Returns put(j0, items), where items holds one entry per row j0, j0 + 1,
    ...; spans may call it in any order and from any thread.  A span that
    arrives early waits in a map of pending spans; under a lock, each span
    that completes the prefix of rows 0 .. j - 1 is consumed, in row order,
    so ``consume(items)`` sees the rows in the same order whatever the spans
    and the CPU count.
    """
    pending = {}
    lock = threading.Lock()
    next_row = 0

    def put(j0, items):
        nonlocal next_row
        with lock:
            pending[j0] = items
            while next_row in pending:
                items = pending.pop(next_row)
                consume(items)
                next_row += len(items)

    return put


def stft_gram(
    signals: Sequence[SampledSignal], window: SampledSignal | Sequence[SampledSignal]
) -> np.ndarray:
    """Gram matrix G[a, b] = <V f_a, V f_b> of the STFTs of a stack of signals.

    G[a, b] = dx dxi sum V f_a conj(V f_b) over the whole plane.  Each span
    of rows takes the S x S Gram of each of its rows in one batched
    ``np.vecdot``, which conjugates inside its loop, so no conjugated copy
    of the span is made.  The per-row Grams go through ``_in_row_order``
    and are added to one running S x S total a row at a time, in row order,
    so the bits depend neither on the spans nor on the CPU count.  The
    diagonal holds the squared L2 norms of the transforms.  window is
    shared by all signals, or is a sequence with one window per signal.
    """
    windows = [window] if isinstance(window, SampledSignal) else list(window)
    total = np.zeros((len(signals), len(signals)), dtype=complex)

    def add(grams):
        for gram in grams:
            np.add(total, gram, out=total)

    add_in_order = _in_row_order(add)

    def gram_rows(j0, rows):
        by_row = rows.transpose(1, 0, 2)
        # [j, a, b] = sum conj(by_row[j, b]) by_row[j, a]
        add_in_order(j0, np.vecdot(by_row[:, None], by_row[:, :, None]))

    _stft_rows(signals, windows, gram_rows)
    grid = signals[0].grid
    return grid.dx * grid.dxi * total
