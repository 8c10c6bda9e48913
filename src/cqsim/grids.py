"""Phase-space grids and finite-difference stencils.

A `PhaseGrid` discretizes the classical manifold carrying the hybrid state:
either a full (q, p) phase space (two axes) or a single classical variable
such as a continuous measurement signal (one axis).  Cells are centered on
the grid points; the cell volume is the product of spacings.

Derivatives are 2nd-order central stencils in the interior.  Under the
``truncate`` boundary policy one-sided 2nd-order stencils are used at the
edges (probability reaching the boundary is monitored by callers); under
``periodic`` the stencils wrap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["GridAxis", "PhaseGrid", "TRUNCATE", "PERIODIC"]

TRUNCATE = "truncate"
PERIODIC = "periodic"

# Stencils are 3 points wide; axes shorter than this cannot be differenced.
MIN_POINTS = 3


@dataclass(frozen=True)
class GridAxis:
    """One uniformly spaced classical axis."""

    name: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(
                f"axis {self.name!r} needs an integer point count, got {self.n!r}"
            ) from None
        if self.n < MIN_POINTS:
            raise ValueError(f"axis {self.name!r} needs at least {MIN_POINTS} points, got {self.n}")
        if not self.hi > self.lo:
            raise ValueError(f"axis {self.name!r} needs hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class PhaseGrid:
    """A 1- or 2-axis classical grid with a boundary policy."""

    axes: tuple
    boundary: str = TRUNCATE

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) not in (1, 2):
            raise ValueError("PhaseGrid supports 1 or 2 classical axes")
        if self.boundary not in (TRUNCATE, PERIODIC):
            raise ValueError(f"unknown boundary policy {self.boundary!r}")
        object.__setattr__(self, "axes", axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n for ax in self.axes)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for ax in self.axes:
            vol *= ax.spacing
        return vol

    def axis(self, name: str) -> GridAxis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(f"grid has no axis {name!r}")

    def meshes(self):
        """Coordinate arrays broadcast to the grid shape (indexing='ij')."""
        return np.meshgrid(*[ax.points for ax in self.axes], indexing="ij")

    def edges(self, name: str) -> np.ndarray:
        """Cell edges for histogram binning: points +- spacing/2."""
        ax = self.axis(name)
        h = ax.spacing
        return np.linspace(ax.lo - 0.5 * h, ax.hi + 0.5 * h, ax.n + 1)


def d_dx(f: np.ndarray, axis: int, spacing: float, boundary: str) -> np.ndarray:
    """2nd-order first derivative of ``f`` along ``axis``."""
    if boundary == PERIODIC:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * spacing)
    out = np.empty_like(f)
    n = f.shape[axis]
    sl = _slicer(f.ndim, axis)
    out[sl(slice(1, n - 1))] = (f[sl(slice(2, n))] - f[sl(slice(0, n - 2))]) / (2.0 * spacing)
    out[sl(0)] = (-3.0 * f[sl(0)] + 4.0 * f[sl(1)] - f[sl(2)]) / (2.0 * spacing)
    out[sl(n - 1)] = (3.0 * f[sl(n - 1)] - 4.0 * f[sl(n - 2)] + f[sl(n - 3)]) / (2.0 * spacing)
    return out


def d2_dx2(f: np.ndarray, axis: int, spacing: float, boundary: str) -> np.ndarray:
    """2nd-order second derivative of ``f`` along ``axis``."""
    h2 = spacing * spacing
    if boundary == PERIODIC:
        return (np.roll(f, -1, axis=axis) - 2.0 * f + np.roll(f, 1, axis=axis)) / h2
    out = np.empty_like(f)
    n = f.shape[axis]
    sl = _slicer(f.ndim, axis)
    out[sl(slice(1, n - 1))] = (
        f[sl(slice(2, n))] - 2.0 * f[sl(slice(1, n - 1))] + f[sl(slice(0, n - 2))]
    ) / h2
    if n >= 4:
        out[sl(0)] = (2.0 * f[sl(0)] - 5.0 * f[sl(1)] + 4.0 * f[sl(2)] - f[sl(3)]) / h2
        out[sl(n - 1)] = (
            2.0 * f[sl(n - 1)] - 5.0 * f[sl(n - 2)] + 4.0 * f[sl(n - 3)] - f[sl(n - 4)]
        ) / h2
    else:
        out[sl(0)] = (f[sl(0)] - 2.0 * f[sl(1)] + f[sl(2)]) / h2
        out[sl(n - 1)] = out[sl(0)]
    return out


def _slicer(ndim: int, axis: int):
    def sl(index):
        full = [slice(None)] * ndim
        full[axis] = index
        return tuple(full)

    return sl
