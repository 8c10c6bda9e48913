"""The discretized hybrid classical-quantum state.

A `HybridState` attaches one un-normalized d x d density matrix to every
cell of a `PhaseGrid`: the array ``cells[..., :, :]`` is the density
varrho(z) per unit phase-space volume, so that

    total trace = sum_cells Tr varrho(z) * cell_volume = 1

for a normalized state.  The per-cell trace is simultaneously the classical
probability density, and the volume-weighted sum of cells is the quantum
marginal density operator; the two marginals tie together through the
total trace, which diagnostics monitor during evolution.

States are immutable snapshots: evolution produces new instances and cells
may be read concurrently.
"""

from __future__ import annotations

import io
import json
import operator
from dataclasses import dataclass

import numpy as np

from .grids import PhaseGrid, GridAxis

__all__ = [
    "HybridState",
    "hermiticity_defect",
    "total_trace",
    "classical_marginal",
    "quantum_marginal",
    "purity_of_marginal",
    "coherence",
    "normalize",
    "expectation",
    "min_cell_eigenvalue",
    "gaussian_product_state",
    "save_state",
    "load_state",
]

HERMITICITY_TOL = 1e-12
# Evolution at finite step size is only approximately positive.
POSITIVITY_TOL = 1e-8
# Truncate-boundary leakage beyond this aborts a run.
LEAK_LIMIT = 1e-4


@dataclass(frozen=True)
class HybridState:
    """Hybrid state: grid plus one complex Hermitian matrix per cell."""

    grid: PhaseGrid
    cells: np.ndarray  # shape grid.shape + (d, d)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=complex)
        expected = self.grid.shape
        if cells.ndim != len(expected) + 2 or cells.shape[: len(expected)] != expected:
            raise ValueError(
                f"cells shape {cells.shape} does not match grid shape {expected} + (d, d)"
            )
        if cells.shape[-1] != cells.shape[-2]:
            raise ValueError("cells must be square matrices")
        object.__setattr__(self, "cells", cells)

    @property
    def hilbert_dim(self) -> int:
        return self.cells.shape[-1]

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    def validate(self, herm_tol=HERMITICITY_TOL, positivity_tol=POSITIVITY_TOL):
        defect = hermiticity_defect(self)
        scale = 1.0 + np.abs(self.cells).max()
        if defect > herm_tol * scale:
            raise ValueError(f"cells not Hermitian: defect {defect:.3e}")
        low = min_cell_eigenvalue(self)
        if low < -positivity_tol:
            raise ValueError(f"cell negativity {low:.3e} beyond {positivity_tol:.1e}")
        return self


def hermiticity_defect(state: HybridState) -> float:
    """Max entrywise deviation of the cells from Hermiticity."""
    swapped = np.conj(np.swapaxes(state.cells, -1, -2))
    return float(np.abs(state.cells - swapped).max())


def total_trace(state: HybridState) -> float:
    """Volume-weighted total trace; 1 for a normalized state."""
    tr = np.einsum("...ii->...", state.cells)
    return float(tr.real.sum() * state.cell_volume)


def classical_marginal(state: HybridState) -> np.ndarray:
    """Probability density p(z) = Tr varrho(z) over the grid."""
    return np.einsum("...ii->...", state.cells).real


def quantum_marginal(state: HybridState) -> np.ndarray:
    """The d x d density matrix obtained by integrating out the grid."""
    axes = tuple(range(state.grid.ndim))
    rho = state.cells.sum(axis=axes) * state.cell_volume
    return 0.5 * (rho + rho.conj().T)


def purity_of_marginal(state: HybridState) -> float:
    """Tr(rho^2) of the trace-normalized quantum marginal, in [0, 1]."""
    rho = quantum_marginal(state)
    tr = np.trace(rho).real
    if tr == 0.0:
        return 0.0
    rho = rho / tr
    return float(np.trace(rho @ rho).real)


def coherence(state: HybridState, i: int, j: int) -> np.ndarray:
    """The field |varrho_ij(z)| over the grid."""
    return np.abs(state.cells[..., i, j])


def normalize(state: HybridState) -> HybridState:
    tr = total_trace(state)
    if tr <= 0.0:
        raise ValueError(f"cannot normalize state with total trace {tr}")
    return HybridState(state.grid, state.cells / tr)


def expectation(state: HybridState, f, operator) -> complex:
    """Expectation sum_z f(z) Tr(varrho(z) A) * cell_volume.

    ``f`` may be a scalar, an array over the grid, or a callable taking the
    coordinate meshes.  ``operator`` is a d x d matrix.
    """
    if callable(f):
        fz = f(*state.grid.meshes())
    else:
        fz = np.asarray(f)
    a = np.asarray(operator, dtype=complex)
    tr_rho_a = np.einsum("...ij,ji->...", state.cells, a)
    return complex((fz * tr_rho_a).sum() * state.cell_volume)


def min_cell_eigenvalue(state: HybridState) -> float:
    """Smallest eigenvalue over all cell matrices (positivity monitor)."""
    flat = state.cells.reshape(-1, state.hilbert_dim, state.hilbert_dim)
    flat = 0.5 * (flat + np.conj(np.swapaxes(flat, -1, -2)))
    return float(np.linalg.eigvalsh(flat).min())


def gaussian_product_state(
    grid: PhaseGrid, centers, sigmas, rho_q=None, normalize_output=True
) -> HybridState:
    """Gaussian classical density times a fixed quantum density matrix.

    ``centers`` and ``sigmas`` give one (mean, width) pair per grid axis;
    ``rho_q`` defaults to the trivial 1 x 1 matrix [[1.0]].
    """
    meshes = grid.meshes()
    weight = np.ones(grid.shape)
    for mesh, c, s in zip(meshes, centers, sigmas):
        weight = weight * np.exp(-0.5 * ((mesh - c) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    if rho_q is None:
        rho_q = np.array([[1.0 + 0.0j]])
    rho_q = np.asarray(rho_q, dtype=complex)
    tr = np.trace(rho_q).real
    if tr != 0.0:
        rho_q = rho_q / tr
    cells = weight[..., None, None] * rho_q
    state = HybridState(grid, cells)
    return normalize(state) if normalize_output else state


# -- columnar text serialization -------------------------------------------
#
# Every artifact table is one float array written by `write_table`: '#'
# header lines, then one row per line in FLOAT_FMT, which reads back as the
# same float64.  A state dump has one row per cell: the cell coordinates,
# then the d*d matrix entries in row-major order as (re, im) pairs (the
# complex cells viewed as floats).  Its header carries the grid metadata
# and, for provenance, an optional resolved-scenario JSON blob.

FLOAT_FMT = "%.17g"


def write_table(fh, header_lines, table):
    """Write ``header_lines``, then one FLOAT_FMT row per table row, to a file name or stream."""
    np.savetxt(fh, table, fmt=FLOAT_FMT, delimiter=",", header="\n".join(header_lines), comments="")


def save_state(state: HybridState, path, scenario=None):
    _write_state(path, state, scenario)


def state_to_text(state: HybridState, scenario=None) -> str:
    buf = io.StringIO()
    _write_state(buf, state, scenario)
    return buf.getvalue()


def _write_state(fh, state, scenario):
    meta = {
        "axes": [
            {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n} for ax in state.grid.axes
        ],
        "boundary": state.grid.boundary,
        "hilbert_dim": state.hilbert_dim,
    }
    header = ["# cqsim-state " + json.dumps(meta, sort_keys=True)]
    if scenario is not None:
        header.append("# scenario " + json.dumps(scenario, sort_keys=True))
    d = state.hilbert_dim
    names = [ax.name for ax in state.grid.axes]
    cols = names + [f"{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    header.append("# columns: " + ",".join(cols))
    coords = [m.reshape(-1) for m in state.grid.meshes()]
    entries = state.cells.reshape(coords[0].size, d * d).view(float)
    write_table(fh, header, np.column_stack(coords + [entries]))


def load_state(path) -> HybridState:
    with open(path) as fh:
        text = fh.read()
    return state_from_text(text)


def state_from_text(text: str) -> HybridState:
    # loadtxt reads the list of lines; an io.StringIO(text) copy would hold
    # four bytes per character of a dump that can run to tens of megabytes
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# cqsim-state "):
        raise ValueError("not a cqsim state file (missing header)")
    meta = json.loads(lines[0][len("# cqsim-state ") :])
    try:
        axes = tuple(GridAxis(a["name"], a["lo"], a["hi"], a["n"]) for a in meta["axes"])
        grid = PhaseGrid(axes, boundary=meta["boundary"])
        d = operator.index(meta["hilbert_dim"])
    except KeyError as exc:
        raise ValueError(f"state header lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed state header: {exc}") from None
    if d < 1:
        raise ValueError(f"state header hilbert_dim must be positive, got {d}")
    ncoord = len(axes)
    width = ncoord + 2 * d * d
    # loadtxt warns on input without data rows; those fail the row count
    if any(line.strip() and not line.startswith("#") for line in lines):
        table = np.loadtxt(lines, delimiter=",", ndmin=2)
    else:
        table = np.empty((0, width))
    if table.shape[1] != width:
        raise ValueError(
            f"state rows have {table.shape[1]} columns, expected {width} "
            f"({ncoord} coordinates + 2 x {d}^2 entries for hilbert_dim {d})"
        )
    if table.shape[0] != int(np.prod(grid.shape)):
        raise ValueError(f"row count {table.shape[0]} does not match grid shape {grid.shape}")
    cells = table[:, ncoord:].view(complex).reshape(grid.shape + (d, d))
    return HybridState(grid, cells)
