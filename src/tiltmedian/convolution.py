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

The direct sums are block-Toeplitz matrix products (Goto & van de Geijn
2008): the banded matrix that maps taps + 47 window values to 48 consecutive
stencil sums is cut into 48 x 48 blocks, 31 of them at the default 0.01 step
(1395 taps, 0.57 MB).  Each stretch of recomputed points takes rows of 48
outputs, and the window values from its first point, reshaped into rows of
48, are multiplied block by block where they lie: no window value is copied
for a product.  Before the products the window is scaled by the power of two
that lifts its largest magnitude to just below 2^1000, and the sums are scaled
back after.  Both scalings are exact, so the sums are those of the unscaled
window wherever its arithmetic stays normal, and tails that underflow through
the subnormal floats are summed at full speed.  The kernel weights and the block table are formed
once per step size, and the weights' spectrum once per FFT length; all are
kept read-only.
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


# Direct stencil sums come in rows of _BLOCK outputs.  The banded kernel matrix,
# taps + _BLOCK - 1 rows by _BLOCK, is zero-padded to whole _BLOCK x _BLOCK
# blocks: at the default step 31 of them (0.57 MB).  BLAS sums each block's
# _BLOCK products in one chain; 64 ran 6% faster but put one sum of a steep
# Gaussian tail 8.4 eps from its exact value, 48 keeps them within 5.2 eps.
_BLOCK = 48
# The direct sums scale the window by a power of two so that its largest
# magnitude has this binary exponent: products and sums of values that would
# underflow into the subnormal floats, which run 1.6-1.8x slower, stay normal,
# and the largest sum stays far below the float64 limit.
_TOP_EXPONENT = 1000


@functools.lru_cache(maxsize=4)
def _kernel_tables(setup: ConvolutionSetup) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kernel weights and block table of one step size.

    Column r of the banded kernel matrix holds the reversed weights from row r
    down, so window values [i, i + taps + _BLOCK - 1) times the band give the
    stencil sums at the _BLOCK points from i, as ``np.convolve(...,
    mode="valid")`` defines them.  The block table is that band, zero-padded
    to a whole number of rows of _BLOCK and cut into ``(blocks, _BLOCK,
    _BLOCK)``: block q multiplies the window values [i + q _BLOCK, i + (q + 1)
    _BLOCK).
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
    count = -(-(weights.size + _BLOCK - 1) // _BLOCK)
    band = np.zeros((count * _BLOCK, _BLOCK))
    for r in range(_BLOCK):
        band[r : r + weights.size, r] = weights[::-1]
    weights.flags.writeable = False
    band.flags.writeable = False
    return weights, band.reshape(count, _BLOCK, _BLOCK)


@functools.lru_cache(maxsize=16)
def _kernel_spectrum(setup: ConvolutionSetup, size: int) -> np.ndarray:
    """Read-only real FFT of the kernel weights zero-padded to ``size``.

    A window of n points takes the FFT length of n + taps - 1, and each
    iteration step shrinks the window by the same amount, so the same few
    lengths recur for every ratio sampled on the same grid.
    """
    from numpy import fft

    spectrum = fft.rfft(_kernel_tables(setup)[0], size)
    spectrum.flags.writeable = False
    return spectrum


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
    window: np.ndarray, direct: np.ndarray, out: np.ndarray, blocks: np.ndarray
) -> None:
    """Write the direct stencil sums of ``window`` into ``out`` where ``direct`` is set.

    Each stretch of set points is cut into rows of ``_BLOCK`` outputs; the
    window values from its first point, reshaped into rows of ``_BLOCK``, are a
    view P, and the stretch's sums are the sum over q of ``P[q : q + rows] @
    blocks[q]``.  The window is first scaled by 2^k, the largest power that
    keeps it below 2^_TOP_EXPONENT (none if k <= 0), and zero-padded, so the
    last rows of a stretch may run past it: those zeros feed only outputs
    beyond the stretch, which are dropped, as are the sums in the gaps that
    join nearby stretches.
    """
    edges = np.flatnonzero(np.diff(direct, prepend=False, append=False))
    if not edges.size:
        return
    count, size, _ = blocks.shape
    # a stretch costs count products whatever its length: summing a gap
    # narrower than the block table's span and dropping it is cheaper
    apart = edges[2::2] - edges[1:-1:2] >= count * size
    starts = edges[::2][np.r_[True, apart]]
    stops = edges[1::2][np.r_[apart, True]]
    shift = max(_TOP_EXPONENT - int(np.frexp(np.max(np.abs(window)))[1]), 0)
    padded = np.zeros(window.size + count * size)
    np.ldexp(window, shift, out=padded[: window.size])
    for lo, hi in zip(starts, stops):
        rows = -(-(hi - lo) // size)
        values = padded[lo : lo + (rows + count - 1) * size].reshape(-1, size)
        sums = values[:rows] @ blocks[0]
        part = np.empty_like(sums)
        for q in range(1, count):
            sums += np.matmul(values[q : q + rows], blocks[q], out=part)
        np.copyto(out[lo:hi], np.ldexp(sums.ravel()[: hi - lo], -shift), where=direct[lo:hi])


def convolve(grid: GridFunction, setup: ConvolutionSetup) -> GridFunction:
    """Convolve the grid samples with the truncated kernel.

    The output lives on the same grid; its valid window loses one kernel
    halfwidth on each side.  Entries outside the new window are nan.  Each
    entry is within 1e-12 of the direct stencil sum relative to its own
    size, or is that sum, formed by products with the kernel's block table
    at ``setup``'s step (see the module docstring).
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
    weights, blocks = _kernel_tables(setup)
    top, bottom = window.max(), window.min()
    # halves first: the sum of two values near the float64 limit would overflow
    centre = 0.5 * top + 0.5 * bottom
    size = _fft_length(window.size + weights.size - 1)
    rounding = _FFT_ROUNDING * math.log2(size) * (0.5 * top - 0.5 * bottom)
    # the transform costs 0.4-0.6 of a direct pass over the window:
    # skip it when the window's own values say that most points would be
    # recomputed anyway
    if 2 * np.count_nonzero(_FFT_RTOL * np.abs(window) >= rounding) > window.size:
        # sums of values near the float64 limit may overflow; a non-finite
        # transform value fails the comparison below and is recomputed
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = fft.rfft(window - centre, size) * _kernel_spectrum(setup, size)
            smoothed = fft.irfft(spectrum, size)[weights.size - 1 : window.size] + centre
        direct = ~(_FFT_RTOL * np.abs(smoothed) >= rounding)
    else:
        smoothed = np.empty(new_hi - new_lo + 1)
        direct = np.ones(smoothed.size, dtype=bool)
    _stencil_sums(window, direct, smoothed, blocks)
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
