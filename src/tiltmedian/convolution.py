"""Discrete convolution against the kernel |y| e^{-y^2/2} / 2 and its iteration.

The kernel is a probability density whose two-sided Laplace transform, in
closed form 1 + s sqrt(pi/2) e^{s^2/2} erf(s/sqrt(2)) (``kernel_laplace``), is
even, strictly convex, and equal to 1 only at the origin.  Fixed points of
convolution with such a kernel are constant among bounded functions, and
iterating the convolution on the catalog density ratios flattens them
visibly; the iteration trace records that empirical decay.

Grid semantics: the kernel is truncated at a halfwidth where it falls below
1e-10, renormalized to unit discrete mass (trapezoid weights, plus a centre
weight step^2 / 12 for the Euler-Maclaurin term the trapezoid rule loses at
the kink of |y|; Kapur & Rokhlin 1997), and applied only where the full
stencil fits, so the valid window of the result shrinks by the kernel
halfwidth on each side.  The weights' multiplier on cos(w x) is within
1.1e-9 of the kernel's for w <= 5 at the default step.

The stencil is applied by real FFT (Cooley & Tukey 1965): window and weights
are zero-padded to the smallest 5-smooth length that holds their full linear
convolution, so nothing wraps around, and only the entries whose stencil lies
inside the window are kept.  The padding zeros feed only the entries that are
thrown away, so no boundary value is ever fabricated.  The window's mid-range
c = (max + min) / 2 is subtracted before the transform and added back after,
so a constant comes back exactly.  The transform's rounding is absolute: about
log2(length) * eps * max|g - c| at every point, however small the value there.
Where that could exceed 1e-12 of the value, the point is recomputed as the
direct stencil sum, so every entry keeps the relative accuracy of the direct
sum even when g spans many decades across the window.  When the window's own
values say that most points would be recomputed, the transform is skipped.

The direct sums are blocked matrix products (Goto & van de Geijn 2008): each
stretch of recomputed points is cut into rows of 16 outputs, and the window
values under each row, taps + 15 of them and a strided view of the window,
are multiplied by a banded (taps + 15) x 16 kernel matrix, 16 rows per
product.  The kernel weights and that matrix are formed once per step size
and kept read-only; at the default 0.01 step (1395 taps) the matrix takes
0.18 MB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import GridFunction
from .tilting import T_MAX

__all__ = [
    "ConvolutionSetup",
    "IterationTrace",
    "WindowTooNarrowError",
    "convolve",
    "iterate_fixed_point",
    "kernel",
    "kernel_laplace",
]


# Largest relative error a transform value may carry; points where the
# transform's rounding bound exceeds it take the direct stencil sum.
_FFT_RTOL = 1e-12
# The transform's rounding at any point, in units of log2(length) * eps *
# max|g - c|: measured below 0.4 on noise, ramps, spikes and quadratics of
# 1500 to 60000 points; 2 leaves a factor 5 of margin.
_FFT_ROUNDING = 2.0 * np.finfo(float).eps


class WindowTooNarrowError(ValueError):
    """The valid window cannot absorb another kernel-width shrink."""


def kernel(y) -> np.ndarray:
    """Probability density |y| * exp(-y^2/2) / 2: even, zero at 0, peaked at |y|=1."""
    y = np.asarray(y, dtype=float)
    return 0.5 * np.abs(y) * np.exp(-0.5 * y**2)


def kernel_laplace(s: float) -> float:
    """Two-sided Laplace transform of the kernel, 1 + s sqrt(pi/2) e^{s^2/2} erf(s/sqrt(2))."""
    s = float(s)
    if not abs(s) <= T_MAX:
        raise ValueError(f"argument {s!r} outside the working range [-{T_MAX}, {T_MAX}]")
    gain = math.sqrt(0.5 * math.pi) * math.exp(0.5 * s * s)
    return 1.0 + s * gain * math.erf(s / math.sqrt(2.0))


def _tail_radius(tol: float) -> float:
    """Smallest radius beyond which the kernel stays below ``tol``."""
    radius = 3.0
    for _ in range(64):
        radius = math.sqrt(2.0 * math.log(max(radius, 1.0) / (2.0 * tol)))
    return radius


# the kernel is truncated where it drops below this value
_KERNEL_TOL = 1e-10
_KERNEL_RADIUS = _tail_radius(_KERNEL_TOL)


@dataclass(frozen=True)
class ConvolutionSetup:
    """Grid step of the discrete convolution, which fixes the kernel truncation.

    ``kernel_halfwidth`` is the smallest whole number of grid steps at which
    the kernel drops below 1e-10.  A step must leave a tap inside that
    radius: the taps of a longer one sit at the center, where the kernel is 0,
    or where it is below 1e-10, so their renormalized weights mean nothing or
    are nan.
    """

    step: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.kernel_steps() < 2:
            raise ValueError(
                f"step {self.step!r} leaves no kernel tap inside the radius {_KERNEL_RADIUS!r}"
            )

    @property
    def kernel_halfwidth(self) -> float:
        return self.kernel_steps() * self.step

    def kernel_steps(self) -> int:
        """Number of grid steps from the kernel center to its truncation edge."""
        return math.ceil(_KERNEL_RADIUS / self.step - 1e-9)

    def weights(self) -> np.ndarray:
        """Kink-corrected trapezoid kernel weights at unit mass (a fresh copy)."""
        return _kernel_tables(self)[0].copy()


# Direct stencil sums come _BLOCK outputs at a time, as rows of _BLOCK + taps - 1
# window values times the banded kernel matrix, _BLOCK_ROWS rows per product.
# At the default step one product is 16 x 1410 by 1410 x 16 (361k multiply-adds),
# which OpenBLAS 0.3.31 runs on one thread; it split products of 1.4M across two.
_BLOCK = 16
_BLOCK_ROWS = 16


@functools.lru_cache(maxsize=4)
def _kernel_tables(setup: ConvolutionSetup) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kernel weights and banded kernel matrix of one step size.

    Column r of the band holds the reversed weights from row r down, so a row
    of window values times the band gives the stencil sums at _BLOCK
    consecutive points, as ``np.convolve(..., mode="valid")`` defines them.
    """
    steps = setup.kernel_steps()
    offsets = setup.step * np.arange(-steps, steps + 1)
    w = kernel(offsets) * setup.step
    w[0] *= 0.5
    w[-1] *= 0.5
    # the Euler-Maclaurin term the trapezoid rule loses at the kink of |y|:
    # q' jumps by 1 at 0, so the sum is short by step^2 / 12 times g(x)
    w[steps] = setup.step**2 / 12.0
    weights = w / w.sum()
    band = np.zeros((_BLOCK + weights.size - 1, _BLOCK))
    for r in range(_BLOCK):
        band[r : r + weights.size, r] = weights[::-1]
    weights.flags.writeable = False
    band.flags.writeable = False
    return weights, band


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c not below n; the FFT is fast at such lengths."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def _stencil_sums(
    window: np.ndarray, direct: np.ndarray, out: np.ndarray, band: np.ndarray
) -> None:
    """Write the direct stencil sums of ``window`` into ``out`` where ``direct`` is set.

    Each stretch of set points is cut into rows of ``_BLOCK`` outputs.  The
    overlapping input rows are a strided view of the window; ``_BLOCK_ROWS`` of
    them at a time are copied into one buffer, which BLAS needs contiguous, and
    multiplied by the band.  The window is zero-padded so the last row of a
    stretch may run past it: those zeros feed only outputs beyond the stretch,
    which are dropped.
    """
    edges = np.flatnonzero(np.diff(direct, prepend=False, append=False))
    if not edges.size:
        return
    width = band.shape[0]
    padded = np.zeros(window.size + _BLOCK - 1)
    padded[: window.size] = window
    # row i is padded[i : i + width], a view that copies nothing
    rows = np.ndarray((padded.size - width + 1, width), buffer=padded, strides=padded.strides * 2)
    chunk = np.empty((_BLOCK_ROWS, width))
    products = np.empty((_BLOCK_ROWS, _BLOCK))
    span = _BLOCK_ROWS * _BLOCK
    for lo, hi in zip(edges[::2], edges[1::2]):
        for start in range(lo, hi, span):
            stop = min(start + span, hi)
            count = -(-(stop - start) // _BLOCK)
            np.copyto(chunk[:count], rows[start:stop:_BLOCK])
            np.matmul(chunk[:count], band, out=products[:count])
            out[start:stop] = products.ravel()[: stop - start]


def convolve(grid: GridFunction, setup: ConvolutionSetup) -> GridFunction:
    """Convolve the grid samples with the truncated kernel.

    The output lives on the same grid; its valid window loses one kernel
    halfwidth on each side.  Entries outside the new window are nan.  Each
    entry is within 1e-12 of the direct stencil sum relative to its own
    size, or is that sum, formed as a blocked matrix product against the
    banded kernel matrix of ``setup``'s step (see the module docstring).
    """
    if abs(grid.step - setup.step) > 1e-12 * max(1.0, setup.step):
        raise ValueError(
            f"grid step {grid.step!r} does not match convolution step {setup.step!r}"
        )
    steps = setup.kernel_steps()
    new_lo = grid.window_lo + steps
    new_hi = grid.window_hi - steps
    if new_lo > new_hi:
        raise WindowTooNarrowError(
            f"window of {grid.window_hi - grid.window_lo + 1} points cannot lose "
            f"{2 * steps} points to the kernel stencil"
        )
    # imported here so that importing the package does not load numpy.fft
    from numpy import fft

    window = grid.window_values()
    weights, band = _kernel_tables(setup)
    top, bottom = window.max(), window.min()
    # halves first: the sum of two values near the float64 limit would overflow
    centre = 0.5 * top + 0.5 * bottom
    size = _fft_length(window.size + weights.size - 1)
    rounding = _FFT_ROUNDING * math.log2(size) * (0.5 * top - 0.5 * bottom)
    # the transform costs 0.4-0.6 of a blocked direct pass over the window:
    # skip it when the window's own values say that most points would be
    # recomputed anyway
    if 2 * np.count_nonzero(_FFT_RTOL * np.abs(window) >= rounding) > window.size:
        # sums of values near the float64 limit may overflow; a non-finite
        # transform value fails the comparison below and is recomputed
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = fft.rfft(window - centre, size) * fft.rfft(weights, size)
            smoothed = fft.irfft(spectrum, size)[weights.size - 1 : window.size] + centre
        direct = ~(_FFT_RTOL * np.abs(smoothed) >= rounding)
    else:
        smoothed = np.empty(new_hi - new_lo + 1)
        direct = np.ones(smoothed.size, dtype=bool)
    _stencil_sums(window, direct, smoothed, band)
    values = np.full(grid.values.size, np.nan)
    values[new_lo : new_hi + 1] = smoothed
    return GridFunction(
        x_min=grid.x_min,
        step=grid.step,
        values=values,
        window_lo=new_lo,
        window_hi=new_hi,
    )


@dataclass(frozen=True)
class IterationTrace:
    """Oscillation record of repeated convolution.

    ``oscillations[k]`` is max - min of the iterate over its valid window
    after k+1 applications and ``windows[k]`` is that window's
    ``(window_lo, window_hi)`` indices; the window loses
    ``window_shrink_per_step`` grid points (both sides combined) per
    application.
    """

    oscillations: tuple[float, ...]
    windows: tuple[tuple[int, int], ...]
    window_shrink_per_step: int
    final_iterate: GridFunction

    def __post_init__(self) -> None:
        if any(osc < 0 for osc in self.oscillations):
            raise ValueError("oscillations must be nonnegative")


def iterate_fixed_point(
    grid: GridFunction, steps: int, setup: ConvolutionSetup
) -> IterationTrace:
    """Apply the kernel convolution repeatedly, recording the oscillation decay."""
    if steps < 1:
        raise ValueError("need at least one step")
    oscillations: list[float] = []
    windows: list[tuple[int, int]] = []
    current = grid
    for _ in range(steps):
        current = convolve(current, setup)
        window = current.window_values()
        oscillations.append(float(window.max() - window.min()))
        windows.append((current.window_lo, current.window_hi))
    return IterationTrace(
        oscillations=tuple(oscillations),
        windows=tuple(windows),
        window_shrink_per_step=2 * setup.kernel_steps(),
        final_iterate=current,
    )
