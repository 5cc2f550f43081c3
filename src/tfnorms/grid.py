"""Uniform-grid signals and Fourier transforms in the integral convention.

The transform pair used throughout the package is

    (F f)(xi)    = integral f(x) exp(-i x xi) dx
    (F^-1 h)(x)  = (2 pi)^-1 integral h(xi) exp(+i x xi) dxi

so that <f, g> = (2 pi)^-1 <Ff, Fg> and (f * g)^ = Ff * Fg hold without
extra constants.  A signal lives on the uniform grid

    x_j = -L + j * dx,   dx = 2 L / n,   j = 0 .. n-1,

and its transform lives on the dual grid

    xi_k = k * dxi,      dxi = pi / L,   k = -n/2 .. n/2 - 1.

With these spacings dx * dxi * n = 2 pi, and the quadrature rule
dx * sum (trapezoid on the periodic extension) makes the discrete
transform pair exactly unitary up to the 2 pi factor.

The large computations (folded block inverses, the Rudin-Shapiro recursion,
STFT rows, the Lebesgue norms) run through ``_each_span``: spans of whole
items, at most ``_SPAN`` = 2^17 samples of every buffer a span holds (one
item at least).  The calling thread and a pool of one thread per other CPU
take the spans from one queue, so no more spans are in flight than there
are CPUs, and the scratch of a run is bounded by one ``_SPAN`` budget per
CPU.  With one span or one CPU the caller runs them all.

numpy sums a contiguous float array of m values pairwise: up to ``_LEAF`` =
128 values in one fixed loop, more in two parts split at m/2 rounded down to
a multiple of 8, each summed the same way, whose sums are added.
``_split_sum`` is the one place that follows this order: it sums each part
of one span with one ``np.sum`` and adds the parts back along the split, so
every span-wise total, of one array or of each of a sequence of runs, is
bitwise ``np.sum`` of all its values, whatever the spans and the CPUs that
run them.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "SampledSignal",
    "Space",
    "NormSpec",
    "fourier_forward",
    "fourier_inverse",
    "convolve",
    "weighted_lp_norm",
    "inner_product",
    "upsample",
    "support_leakage",
]

# Samples per span of _each_span, so that a span's temporaries stay in cache.
# On the 12-signal STFT corpus at n = 2048 (2 CPUs) the Gram took 1.1 s in
# spans of 2^16 samples, 0.64 s at 2^17 and 0.59 s at 2^18, with twice the
# span buffers.  With the calling thread taking spans too, perfbench's
# time-frequency workload took 0.62-0.66 s a pass at 2^17 and 0.80-0.83 s at
# 2^16 (2 CPUs), for 46.6 against 44.6 MB of peak resident memory.
_SPAN = 1 << 17

# Values per leaf of numpy's pairwise sum (see the module docstring).
_LEAF = 128

# Thread pool for _each_span, one thread per CPU besides the caller's,
# created on first use in each process (a pool inherited through fork has no
# threads behind it) and again when the CPU count changes.
_pool = None
_pool_key = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _span_pool(cpus: int):
    global _pool, _pool_key
    key = (os.getpid(), cpus)
    with _pool_lock:
        if _pool_key != key:
            # Imported here so that importing the package loads no new module.
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None and _pool_key[0] == key[0]:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(max_workers=cpus - 1)
            _pool_key = key
        return _pool


def _each_span(fn, count: int, size: int) -> None:
    """Call fn(lo, hi) for spans [lo, hi) covering [0, count), items of `size` samples.

    `size` counts the samples of every buffer a span holds at once per item,
    not those of its output alone, so that a span's scratch stays near _SPAN
    samples.  Each span holds max(1, _SPAN // size) items.  The spans wait in
    one queue, in order.  The calling thread takes them one by one; with more
    than one span and more than one CPU (counted on every call), so does one
    pool thread per other CPU, so that at most one span per CPU is in flight.
    The call returns when every span has returned, and the first exception
    of a span reaches the caller (the queue is then emptied).  Callers keep
    each span's work independent of the others (numpy releases the
    interpreter lock inside it), so the results do not depend on which
    thread ran which span.
    """
    span = max(1, _SPAN // size)
    queue = collections.deque((lo, min(lo + span, count)) for lo in range(0, count, span))

    def take() -> None:
        while True:
            try:
                lo, hi = queue.popleft()  # atomic: each span is taken once
            except IndexError:
                return
            try:
                fn(lo, hi)
            except BaseException:
                queue.clear()
                raise

    cpus = _cpu_count()
    helpers = []
    if cpus > 1 and len(queue) > 1:
        pool = _span_pool(cpus)
        helpers = [pool.submit(take) for _ in range(min(cpus, len(queue)) - 1)]
    try:
        take()
    finally:
        # The queue is empty: a helper that has not started has nothing left
        # to take, and one that has is waited for.
        helpers = [helper for helper in helpers if not helper.cancel()]
        for helper in helpers:
            helper.exception()
    for helper in helpers:
        helper.result()


def _split_sum(values, count: int, size: int, row=1, maximum=False, runs=1) -> np.ndarray:
    """np.sum (or np.max) of each of `runs` runs of `count` floats, bit for bit, read in parts.

    The runs lie end to end: values(lo, hi) returns (or yields) arrays of
    the values [lo, hi) of that sequence, one per output, and the result is
    an (outputs, runs) array.  numpy's split (see the module docstring) is
    followed down to parts of at most max(row, _LEAF, _SPAN // size) values,
    so parts of a power-of-two count hold whole rows of a power-of-two
    `row`.  A run of one part is read whole, as many runs to a span of
    ``_each_span`` as the budget holds; otherwise each part of each run is
    one span.  Every array is reduced with one np.sum (or np.max) per run,
    the totals are stored by the span's first item, and the part totals are
    added back along the split, so neither the spans nor the CPUs move a
    bit.  `size` counts the samples values(lo, hi) holds per value while it
    runs.
    """
    most = max(row, _LEAF, _SPAN // size)
    reduce = np.max if maximum else np.sum
    parts = []

    def split(lo: int, hi: int):
        # A part's index, or the splits of the two halves.
        if hi - lo <= most:
            parts.append((lo, hi))
            return len(parts) - 1
        half = (hi - lo) // 2
        half -= half % 8
        return split(lo, lo + half), split(lo + half, hi)

    plan = split(0, count)
    totals = {}

    def run(i0: int, i1: int) -> None:
        # Items [i0, i1): whole runs, or one part of one run.
        r, j = divmod(i0, len(parts))
        lo, hi = parts[j]
        start = r * count + lo
        arrays = values(start, start + (i1 - i0) * (hi - lo))
        totals[i0] = np.array([reduce(v.reshape(i1 - i0, -1), axis=1) for v in arrays])

    # An item is a run when it is one part, and a part of at most `most`
    # values otherwise, which fills a span.
    _each_span(run, runs * len(parts), max(1, min(count, most)) * size)
    sums = np.concatenate([totals[i] for i in sorted(totals)], axis=1)
    sums = sums.reshape(len(sums), runs, len(parts))

    def total(node) -> np.ndarray:
        if not isinstance(node, tuple):
            return sums[..., node]
        left, right = total(node[0]), total(node[1])
        return np.maximum(left, right) if maximum else left + right

    return total(plan)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L) with a power-of-two sample count."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"sample count must be a power of two >= 8, got {self.n}")
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError(f"half width must be positive and finite, got {self.half_width}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def dxi(self) -> float:
        return math.pi / self.half_width

    @property
    def nyquist(self) -> float:
        return self.n * math.pi / (2.0 * self.half_width)

    def points(self) -> np.ndarray:
        """Sample locations -L + j*dx for j = 0..n-1."""
        return -self.half_width + self.dx * np.arange(self.n)

    def frequencies(self) -> np.ndarray:
        """Dual sample locations k*dxi for k = -n/2..n/2-1."""
        return self.dxi * np.arange(-(self.n // 2), self.n // 2)

    def dual(self) -> "Grid":
        """Grid carrying the Fourier transform of a signal on this grid."""
        return Grid(self.n, self.nyquist)

    def compatible(self, other: "Grid") -> bool:
        return self.n == other.n and math.isclose(
            self.half_width, other.half_width, rel_tol=1e-12
        )


def _check_same_grid(a: "SampledSignal", b: "SampledSignal", what: str) -> None:
    if not a.grid.compatible(b.grid):
        raise GridMismatchError(
            f"{what} requires matching grids: "
            f"(n={a.grid.n}, L={a.grid.half_width}) vs (n={b.grid.n}, L={b.grid.half_width})"
        )


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on a :class:`Grid`.

    samples[j] holds the value at x_j = -L + j*dx.  Instances are immutable;
    the sample array is frozen after construction and every operation returns
    a new signal.
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples.real)) or not np.all(np.isfinite(samples.imag)):
            raise ValueError("signal samples must be finite (no NaN/Inf)")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "SampledSignal":
        """Sample a callable fn(x) on the grid."""
        return cls(grid, np.asarray(fn(grid.points()), dtype=np.complex128))

    @classmethod
    def zero(cls, grid: Grid) -> "SampledSignal":
        return cls(grid, np.zeros(grid.n, dtype=np.complex128))

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        _check_same_grid(self, other, "addition")
        return SampledSignal(self.grid, self.samples + other.samples)

    def __sub__(self, other: "SampledSignal") -> "SampledSignal":
        _check_same_grid(self, other, "subtraction")
        return SampledSignal(self.grid, self.samples - other.samples)

    def __mul__(self, other):
        if isinstance(other, SampledSignal):
            _check_same_grid(self, other, "pointwise product")
            return SampledSignal(self.grid, self.samples * other.samples)
        return SampledSignal(self.grid, self.samples * other)

    __rmul__ = __mul__


class Space(str, Enum):
    """Which norm family a :class:`NormSpec` selects."""

    MODULATION = "modulation"
    FOURIER_BEURLING = "fourier_beurling"
    FOURIER_SEGAL = "fourier_segal"
    WEIGHTED_LEBESGUE = "weighted_lebesgue"


@dataclass(frozen=True)
class NormSpec:
    """Exponents (p, q) and weight power s together with a space tag.

    The Fourier-Beurling norm ignores p and q; the Fourier-Segal norm
    ignores q and s.
    """

    space: Space
    p: float = 2.0
    q: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "space", Space(self.space))
        for name, value in (("p", self.p), ("q", self.q)):
            if not value >= 1.0:
                raise ValueError(f"exponent {name} must lie in [1, inf], got {value}")
        if not (self.s >= 0.0 and math.isfinite(self.s)):
            raise ValueError(f"weight power s must be finite and >= 0, got {self.s}")

    @classmethod
    def modulation(cls, p: float, q: float, s: float = 0.0) -> "NormSpec":
        return cls(Space.MODULATION, p=p, q=q, s=s)

    @classmethod
    def fourier_beurling(cls, s: float = 0.0) -> "NormSpec":
        return cls(Space.FOURIER_BEURLING, p=1.0, q=1.0, s=s)

    @classmethod
    def weighted_lebesgue(cls, p: float, s: float = 0.0) -> "NormSpec":
        return cls(Space.WEIGHTED_LEBESGUE, p=p, q=1.0, s=s)

    def in_algebra_regime(self) -> bool:
        """True when pointwise multiplication is bounded for this spec."""
        if self.space is not Space.MODULATION:
            return False
        if self.q == 1.0 and self.s >= 0.0:
            return True
        return self.s > 1.0 - 1.0 / self.q

    def to_json_dict(self) -> dict:
        def enc(v):
            return "inf" if math.isinf(v) else v

        return {"space": self.space.value, "p": enc(self.p), "q": enc(self.q), "s": self.s}


def _swap_halves(buf: np.ndarray) -> None:
    """fftshift of an even-length buffer, in place through a half-length temporary."""
    half = buf.size // 2
    head = buf[:half].copy()
    buf[:half] = buf[half:]
    buf[half:] = head


def _centered_transform(samples: np.ndarray, transform) -> np.ndarray:
    """fftshift(transform(ifftshift(samples))) in one n-length buffer.

    For the even lengths of a :class:`Grid` both shifts swap the two halves,
    so the swapped input is copied into a new buffer, transformed in place,
    and swapped back.
    """
    half = samples.size // 2
    out = np.concatenate((samples[half:], samples[:half]))
    transform(out, out=out)
    _swap_halves(out)
    return out


def fourier_forward(f: SampledSignal) -> SampledSignal:
    """Forward transform of f, sampled on the dual grid.

    Computed as dx times the DFT with the phase bookkeeping for the grid
    origin at -L folded into an ifftshift/fftshift pair.  Spectrally accurate
    for smooth signals that decay inside [-L, L).

    The working set is the input, one n-length output buffer that is
    shifted, transformed and scaled in place, and a half-length temporary
    (plus the FFT library's own scratch); the values are bitwise those of
    ``dx * fftshift(fft(ifftshift(samples)))``.
    """
    spectrum = _centered_transform(f.samples, np.fft.fft)
    spectrum *= f.grid.dx
    return SampledSignal(f.grid.dual(), spectrum)


def fourier_inverse(h: SampledSignal) -> SampledSignal:
    """Inverse transform with the 1/(2 pi) factor; exact inverse of
    :func:`fourier_forward` up to rounding.

    Same working set as :func:`fourier_forward`; the values are bitwise those
    of ``fftshift(ifft(ifftshift(samples))) / dx``.
    """
    out_grid = h.grid.dual()
    values = _centered_transform(h.samples, np.fft.ifft)
    values /= out_grid.dx
    return SampledSignal(out_grid, values)


def convolve(f: SampledSignal, g: SampledSignal) -> SampledSignal:
    """Circular convolution scaled by dx, so (f * g)^ = Ff * Fg.

    The caller keeps the combined essential supports inside the domain;
    wraparound is the dominant hazard on a periodic grid (see
    :func:`support_leakage`).
    """
    _check_same_grid(f, g, "convolution")
    fh = np.fft.fft(np.fft.ifftshift(f.samples))
    gh = np.fft.fft(np.fft.ifftshift(g.samples))
    values = f.grid.dx * np.fft.fftshift(np.fft.ifft(fh * gh))
    return SampledSignal(f.grid, values)


def weighted_lp_norm(f: SampledSignal, p: float, s: float = 0.0) -> float:
    """Weighted Lebesgue norm (integral of (<x>^s |f|)^p)^(1/p).

    Riemann-sum quadrature for finite p, grid maximum for p = inf.  With
    s = 0 the weight is 1 and is not built.  The parts of ``_split_sum``
    each take |f|, the weight and the power of their own samples, so no
    array of the grid's length is built; the value is bitwise that of one
    full-length pass.
    """
    if not p >= 1.0:
        raise ValueError(f"exponent p must lie in [1, inf], got {p}")
    grid = f.grid

    def values(a: int, b: int):
        weighted = np.abs(f.samples[a:b])
        if s != 0.0:
            x = -grid.half_width + grid.dx * np.arange(a, b)  # grid.points()[a:b]
            weighted *= (1.0 + x * x) ** (s / 2.0)
        if not math.isinf(p):
            weighted **= p
        return (weighted,)

    total = _split_sum(values, grid.n, 1, maximum=math.isinf(p))[0, 0]
    return float(total if math.isinf(p) else (grid.dx * total) ** (1.0 / p))


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """L2 pairing integral f conj(g), conjugate-linear in the second slot."""
    _check_same_grid(f, g, "inner product")
    return complex(f.grid.dx * np.vdot(g.samples, f.samples))


def upsample(f: SampledSignal, factor: int) -> SampledSignal:
    """Exact band-limited upsampling onto the factor-refined grid.

    The result samples the trigonometric interpolant of f (its spectrum
    zero-padded to n * factor points) at the refined grid points; it is
    computed by :func:`_refined_samples`, as are the dilations of
    :mod:`tfnorms.compose`.
    """
    if factor < 1 or factor != int(factor):
        raise ValueError(f"upsampling factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return f
    fine_grid, values = _refined_samples(f, factor, np.arange(f.grid.n * factor))
    return SampledSignal(fine_grid, values)


def _refined_samples(
    f: SampledSignal, factor: int, indices: np.ndarray, spectrum=None
) -> tuple[Grid, np.ndarray]:
    """(fine grid, values) with f's interpolant at the given factor-refined grid indices.

    The one interpolator behind :func:`upsample` and the dilations of
    :mod:`tfnorms.compose`.  The refined point i (0 <= i < size = n * factor)
    is index b = (i + size / 2) % size = factor * j + r of the inverse FFT of
    f's spectrum zero-padded to size points.  That spectrum has only the n
    coefficients c_k of f, k signed (-n/2 <= k < n/2), so

        ifft_size(padded)[factor * j + r] = ifft_n(c_k exp(2 pi i k r / size))[j] / factor

    and each residue r > 0 among the indices takes one n-point inverse, which
    gives all of r's points; residue 0 is f's own grid, where the values are
    f's samples.  The residues run one at a time, so the working set is a
    few n-length rows; no size-length buffer is built.  The phase comes from
    the exact integer k * r for k = 0 .. n/2 (|k r| <= size / 2), and the
    phase at -k is its conjugate.  f is transformed at the first residue
    r > 0, so indices that all lie on f's own grid cost no transform.
    `spectrum`, when given, returns f's centered spectrum
    ``fourier_forward(f).samples``, so that a caller that refines one f many
    times transforms it once.
    """
    n, half = f.grid.n, f.grid.n // 2
    size = n * factor
    fine_grid = Grid(size, f.grid.half_width).dual().dual()
    rows, residues = np.divmod((indices + size // 2) % size, factor)
    coefficients = None  # f's spectrum in slots k and n - k: k and -k
    k = np.arange(half + 1)
    values = np.empty(indices.size, dtype=complex)
    # The residues that occur, without np.unique, which imports numpy.ma.
    for r in np.flatnonzero(np.bincount(residues)):
        at = np.flatnonzero(residues == r)
        if r == 0:
            values[at] = f.samples[(rows[at] + half) % n]
            continue
        if coefficients is None:
            centered = fourier_forward(f).samples if spectrum is None else spectrum()
            coefficients = np.fft.ifftshift(centered)
        angle = (k * int(r)) * (2.0 * math.pi / size)
        cos, sin = np.cos(angle), np.sin(angle)
        twisted = np.empty(n, dtype=complex)
        twisted.real[:half], twisted.imag[:half] = cos[:half], sin[:half]
        twisted.real[half:], twisted.imag[half:] = cos[half:0:-1], -sin[half:0:-1]
        twisted *= coefficients
        # A new array: ifft in place (out=) measured slower.
        values[at] = np.fft.ifft(twisted)[rows[at]] / (factor * fine_grid.dx)
    return fine_grid, values


def support_leakage(f: SampledSignal, outer_fraction: float = 0.1) -> float:
    """Fraction of the |f| mass sitting in the outer part of the domain.

    Values above ~1e-6 indicate that periodic wraparound may contaminate
    convolutions; experiment reports surface this number.
    """
    n = f.grid.n
    edge = max(1, int(round(n * outer_fraction / 2.0)))
    mass = np.abs(f.samples)
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    outer = float(np.sum(mass[:edge]) + np.sum(mass[-edge:]))
    return outer / total
