"""Discrete convolution against the kernel |y| e^{-y^2/2} / 2 and its iteration.

The kernel is a probability density whose two-sided Laplace transform is
even, strictly convex, and equal to 1 only at the origin.  Fixed points of
convolution with such a kernel are constant among bounded functions, and
iterating the convolution on the catalog density ratios flattens them
visibly; the iteration trace records that empirical decay.

Grid semantics: the kernel is truncated at a halfwidth where it falls below
a tolerance, renormalized to unit discrete mass (trapezoid weights), and
applied only where the full stencil fits, so the valid window of the result
shrinks by the kernel halfwidth on each side.  No boundary values are ever
fabricated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import GridFunction
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate
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


class WindowTooNarrowError(Exception):
    """The valid window cannot absorb another kernel-width shrink."""


def kernel(y) -> np.ndarray:
    """Probability density |y| * exp(-y^2/2) / 2: even, zero at 0, peaked at |y|=1."""
    y = np.asarray(y, dtype=float)
    return 0.5 * np.abs(y) * np.exp(-0.5 * y**2)


def kernel_laplace(s: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Two-sided Laplace transform of the kernel, by quadrature."""
    s = float(s)
    if not abs(s) <= T_MAX:
        raise ValueError(f"argument {s!r} outside the working range [-{T_MAX}, {T_MAX}]")
    halfwidth = cfg.truncation_halfwidth + abs(s)
    return integrate(
        lambda y: np.exp(s * np.asarray(y, dtype=float)) * kernel(y),
        (-halfwidth, halfwidth),
        cfg,
    ).value


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


def convolve(grid: GridFunction, setup: ConvolutionSetup) -> GridFunction:
    """Convolve the grid samples with the truncated kernel.

    The output lives on the same grid; its valid window loses one kernel
    halfwidth on each side.  Entries outside the new window are nan.
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
    smoothed = np.convolve(grid.window_values(), setup.weights(), mode="valid")
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
