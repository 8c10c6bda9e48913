"""Phase-space grids and finite-difference stencils.

A `PhaseGrid` discretizes the classical manifold carrying the hybrid state:
either a full (q, p) phase space (two axes) or a single classical variable
such as a continuous measurement signal (one axis).  Cells are centered on
the grid points; the cell volume is the product of spacings.

Derivatives are 2nd-order central stencils in the interior and one-sided
2nd-order stencils at the edges: the grid truncates phase space, and
probability reaching its edge is monitored by callers.

`d_dx` and `d2_dx2` write into a caller's ``out`` array when one is given,
so a kernel that differentiates every RK4 stage can reuse one scratch
buffer instead of allocating a grid-sized result and 3-4 grid-sized
temporaries per call.  The arithmetic is the allocating expression's,
operation for operation, so results are bit-for-bit the same.  Both also
evaluate a window of first-axis ``rows`` only, reading the neighbour rows
that the window's stencils need; the whole grid is the window of all rows,
so a kernel that works one slab of rows at a time gets, row for row, the
whole-grid numbers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["GridAxis", "PhaseGrid"]

# Stencils are 3 points wide; axes shorter than this cannot be differenced.
MIN_POINTS = 3
# Bytes of cells per slab: the unit in which a kernel works through the
# first-axis rows of a grid (the generator's rate slabs, RK4 windows and
# operator chunks, the positivity monitor's eigenvalue slabs).  It bounds
# their buffers and temporaries, and a slab's rows stay in cache between
# the terms that read them.
SLAB_BYTES = 1 << 20


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
    """A 1- or 2-axis classical grid."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) not in (1, 2):
            raise ValueError("PhaseGrid supports 1 or 2 classical axes")
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


def slab_rows(n: int, row_bytes: int) -> int:
    """Rows per slab of ``row_bytes``-byte rows: about `SLAB_BYTES`, at least 1, at most ``n``."""
    return min(n, max(1, SLAB_BYTES // row_bytes))


def d_dx(f: np.ndarray, axis: int, spacing: float, out=None, rows=None) -> np.ndarray:
    """2nd-order first derivative of ``f`` along ``axis``, written into ``out``.

    ``rows`` (a slice of the first axis; all rows when None) selects the
    rows of the result; differencing along the first axis reads their
    neighbour rows of ``f``.  ``out`` (a new array when None) must have the
    shape and dtype of ``f[rows]``, be C-contiguous and not overlap ``f``;
    it is returned.
    """
    f, out, lo, hi = _window(f, axis, rows, out)
    n = f.shape[axis]
    sl = _slicer(f.ndim, axis)
    a, b = max(lo, 1), min(hi, n - 1)  # the window's interior points
    np.subtract(
        f[sl(slice(a + 1, b + 1))], f[sl(slice(a - 1, b - 1))], out=out[sl(slice(a - lo, b - lo))]
    )

    def edge(i):
        if i == 0:
            return -3.0 * f[sl(0)] + 4.0 * f[sl(1)] - f[sl(2)]
        return 3.0 * f[sl(n - 1)] - 4.0 * f[sl(n - 2)] + f[sl(n - 3)]

    _fill_edges(out, lo, hi, n, sl, edge)
    return _divide(out, 2.0 * spacing)


def d2_dx2(f: np.ndarray, axis: int, spacing: float, out=None, rows=None) -> np.ndarray:
    """2nd-order second derivative of ``f`` along ``axis``, written into ``out``.

    ``rows`` and ``out`` are as for `d_dx`.
    """
    f, out, lo, hi = _window(f, axis, rows, out)
    n = f.shape[axis]
    sl = _slicer(f.ndim, axis)
    a, b = max(lo, 1), min(hi, n - 1)
    # (f[i+1] - 2 f[i]) + f[i-1], accumulated in the interior of ``out``
    inner = out[sl(slice(a - lo, b - lo))]
    np.multiply(f[sl(slice(a, b))], 2.0, out=inner)
    np.subtract(f[sl(slice(a + 1, b + 1))], inner, out=inner)
    inner += f[sl(slice(a - 1, b - 1))]

    def edge(i):
        if n < 4:  # three points: both edges take the one second difference
            return f[sl(0)] - 2.0 * f[sl(1)] + f[sl(2)]
        s = 1 if i == 0 else -1  # inward
        return 2.0 * f[sl(i)] - 5.0 * f[sl(i + s)] + 4.0 * f[sl(i + 2 * s)] - f[sl(i + 3 * s)]

    _fill_edges(out, lo, hi, n, sl, edge)
    return _divide(out, spacing * spacing)


def _window(f, axis, rows, out):
    """(f, out, lo, hi): ``out`` holds points lo..hi-1 of ``f``'s differenced axis.

    Along the first axis that window is ``rows``, and ``f`` stays whole for
    the neighbour rows; along another axis ``f`` is cut to ``rows`` and the
    window is the whole axis.
    """
    lo, hi, _ = (slice(None) if rows is None else rows).indices(f.shape[0])
    if out is None:
        out = np.empty((hi - lo,) + f.shape[1:], dtype=f.dtype)
    if axis != 0:
        f, lo, hi = f[lo:hi], 0, f.shape[axis]
    return f, out, lo, hi


def _fill_edges(out, lo, hi, n, sl, edge):
    """Write the stencil ``edge(i)`` at each end point i of the axis inside [lo, hi)."""
    for i in (0, n - 1):
        if lo <= i < hi:
            out[sl(i - lo)] = edge(i)


def _divide(out, denom):
    """``out /= denom`` in place, with the bits of numpy's ``out / denom``; returns ``out``.

    numpy divides a complex array by the complex ``denom + 0j`` as
    (re + im * 0) * (1 / denom) and (im - re * 0) * (1 / denom): scaling
    the float view of a C-contiguous complex ``out`` by 1 / denom gives
    those numbers (only the sign of a zero can differ) at half the
    arithmetic.
    """
    if np.iscomplexobj(out):
        flat = out.view(out.real.dtype)
        flat *= 1.0 / denom
    else:
        out /= denom
    return out


def _slicer(ndim: int, axis: int):
    def sl(index):
        full = [slice(None)] * ndim
        full[axis] = index
        return tuple(full)

    return sl
