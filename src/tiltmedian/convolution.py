"""Discrete convolution against the kernel |y| e^{-y^2/2} / 2 and its iteration.

The kernel is a probability density whose two-sided Laplace transform, in
closed form 1 + s sqrt(pi/2) e^{s^2/2} erf(s/sqrt(2)) (``kernel_laplace``), is
even, strictly convex, and equal to 1 only at the origin.  Fixed points of
convolution with such a kernel are constant among bounded functions, and
iterating the convolution on the catalog density ratios flattens them
visibly; the iteration trace records that empirical decay.

Grid semantics: the kernel is truncated at a halfwidth where it falls below
a tolerance, renormalized to unit discrete mass (trapezoid weights), and
applied only where the full stencil fits, so the valid window of the result
shrinks by the kernel halfwidth on each side.

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
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ConvolutionSetup:
    """Kernel truncation and grid geometry for the discrete convolution.

    ``kernel_halfwidth`` defaults to the smallest whole number of grid steps
    at which the kernel drops below ``kernel_tol``; an explicit value is
    rounded up to a whole number of steps and must also satisfy that bound.
    """

    step: float = 0.01
    kernel_tol: float = 1e-10
    kernel_halfwidth: float | None = None

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.kernel_tol > 0:
            raise ValueError("kernel_tol must be positive")
        if self.kernel_halfwidth is None:
            steps = math.ceil(_tail_radius(self.kernel_tol) / self.step - 1e-9)
        else:
            if not self.kernel_halfwidth > 0:
                raise ValueError("kernel_halfwidth must be positive")
            steps = math.ceil(self.kernel_halfwidth / self.step - 1e-9)
        halfwidth = steps * self.step
        if float(kernel(halfwidth)) > self.kernel_tol:
            raise ValueError(
                f"kernel exceeds tolerance {self.kernel_tol!r} at halfwidth {halfwidth!r}"
            )
        object.__setattr__(self, "kernel_halfwidth", halfwidth)

    def kernel_steps(self) -> int:
        """Number of grid steps from the kernel center to its truncation edge."""
        return round(self.kernel_halfwidth / self.step)

    def weights(self) -> np.ndarray:
        """Trapezoid-rule kernel weights renormalized to exact unit mass."""
        steps = self.kernel_steps()
        offsets = self.step * np.arange(-steps, steps + 1)
        w = kernel(offsets) * self.step
        w[0] *= 0.5
        w[-1] *= 0.5
        return w / w.sum()


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


def convolve(grid: GridFunction, setup: ConvolutionSetup) -> GridFunction:
    """Convolve the grid samples with the truncated kernel.

    The output lives on the same grid; its valid window loses one kernel
    halfwidth on each side.  Entries outside the new window are nan.  Each
    entry is within 1e-12 of the direct stencil sum relative to its own
    size, or is that sum (see the module docstring).
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
    weights = setup.weights()
    top, bottom = window.max(), window.min()
    # halves first: the sum of two values near the float64 limit would overflow
    centre = 0.5 * top + 0.5 * bottom
    size = _fft_length(window.size + weights.size - 1)
    rounding = _FFT_ROUNDING * math.log2(size) * (0.5 * top - 0.5 * bottom)
    # the transform costs about half a direct pass: skip it when the window's
    # own values say that most points would be recomputed anyway
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
    edges = np.flatnonzero(np.diff(direct, prepend=False, append=False))
    for lo, hi in zip(edges[::2], edges[1::2]):
        stencil = window[lo : hi + weights.size - 1]
        smoothed[lo:hi] = np.convolve(stencil, weights, mode="valid")
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
