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

A state dump is text, formatted a block of `BLOCK_FLOATS` floats at a
time.  The blocks of a dump larger than one block are formatted in forked
workers (`pool._map_chunks`) and written in order, so a dump's bytes do not
depend on the number of workers; a smaller dump is written straight to its
file and starts no pool.
"""

from __future__ import annotations

import io
import itertools
import json
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grids import PhaseGrid, GridAxis
from .pool import _map_chunks

__all__ = [
    "HybridState",
    "hermiticity_defect",
    "total_trace",
    "classical_marginal",
    "edge_mass",
    "quantum_marginal",
    "purity_of_marginal",
    "coherence",
    "cell_min_eigenvalues",
    "min_cell_eigenvalue",
    "gaussian_product_state",
    "save_state",
    "scenario_json",
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

    def validate(self):
        defect = hermiticity_defect(self)
        scale = 1.0 + np.abs(self.cells).max()
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(f"cells not Hermitian: defect {defect:.3e}")
        low = min_cell_eigenvalue(self)
        if low < -POSITIVITY_TOL:
            raise ValueError(f"cell negativity {low:.3e} beyond {POSITIVITY_TOL:.1e}")
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


def edge_mass(state: HybridState) -> float:
    """Probability in the outermost cells of the grid (first and last along each axis)."""
    dens = classical_marginal(state)
    edge = np.ones(dens.shape, dtype=bool)
    edge[tuple(slice(1, -1) for _ in dens.shape)] = False
    return float(dens[edge].sum() * state.cell_volume)


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


def cell_min_eigenvalues(state: HybridState) -> np.ndarray:
    """Each cell's smallest eigenvalue (of its Hermitian part), shaped like the grid."""
    herm = 0.5 * (state.cells + np.conj(np.swapaxes(state.cells, -1, -2)))
    return np.linalg.eigvalsh(herm)[..., 0]


def min_cell_eigenvalue(state: HybridState) -> float:
    """Smallest eigenvalue over all cell matrices (positivity monitor)."""
    return float(cell_min_eigenvalues(state).min())


def gaussian_product_state(grid: PhaseGrid, centers, sigmas, rho_q=None) -> HybridState:
    """Gaussian classical density times a fixed quantum density matrix, total trace 1.

    ``centers`` and ``sigmas`` give one finite (mean, width > 0) pair per
    grid axis; ``rho_q`` defaults to the trivial 1 x 1 matrix [[1.0]].  The
    Gaussian is normalized on the grid itself, so a truncated one still has
    total trace 1; other centers or widths, a ``rho_q`` that is not finite
    with a trace > 0, and a state with no positive total trace on the grid,
    are refused with a ValueError.
    """
    centers, sigmas = np.asarray(centers, dtype=float), np.asarray(sigmas, dtype=float)
    if centers.shape != (grid.ndim,) or not np.all(np.isfinite(centers)):
        raise ValueError(f"centers must be one finite number per grid axis, got {centers}")
    if sigmas.shape != (grid.ndim,) or not np.all((0.0 < sigmas) & (sigmas < np.inf)):
        raise ValueError(f"sigmas must be one finite number > 0 per grid axis, got {sigmas}")
    weight = np.ones(grid.shape)
    for mesh, c, s in zip(grid.meshes(), centers, sigmas):
        weight = weight * np.exp(-0.5 * ((mesh - c) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    if rho_q is None:
        rho_q = np.array([[1.0 + 0.0j]])
    rho_q = np.asarray(rho_q, dtype=complex)
    tr = np.trace(rho_q).real
    if not (np.all(np.isfinite(rho_q)) and tr > 0.0):
        raise ValueError(f"rho_q must be finite with a trace > 0, got trace {tr}")
    rho_q = rho_q / tr
    state = HybridState(grid, weight[..., None, None] * rho_q)
    total = total_trace(state)
    if not total > 0.0:
        raise ValueError(f"cannot normalize state with total trace {total}")
    return HybridState(grid, state.cells / total)


# -- columnar text serialization -------------------------------------------
#
# Every artifact table is one float array written by `write_table`: '#'
# header lines, then one row per line in FLOAT_FMT, which reads back as the
# same float64.  A state dump has one row per cell: the cell coordinates,
# then the d*d matrix entries in row-major order as (re, im) pairs (the
# complex cells viewed as floats).  Its header carries the grid metadata
# and, for provenance, an optional resolved-scenario JSON blob.

FLOAT_FMT = "%.17g"
# Floats per block of state text IO.  Work of one block or less starts no
# pool: 121^2 cells at d = 2 are 146410 floats.
BLOCK_FLOATS = 1 << 19


def write_table(fh, header_lines, table):
    """Write ``header_lines``, then one FLOAT_FMT row per table row, to a file name or stream."""
    np.savetxt(fh, table, fmt=FLOAT_FMT, delimiter=",", header="\n".join(header_lines), comments="")


def scenario_json(resolved) -> str:
    """A resolved scenario as strict JSON, for the provenance header of an artifact.

    A non-finite number (``mass: .inf``) is written as its YAML spelling,
    the string ".inf", "-.inf" or ".nan", since JSON has no such numbers.
    """
    return json.dumps(_yaml_non_finite(resolved), sort_keys=True, allow_nan=False)


def _yaml_non_finite(value):
    if isinstance(value, float) and not np.isfinite(value):
        return ".nan" if np.isnan(value) else (".inf" if value > 0 else "-.inf")
    if isinstance(value, dict):
        return {key: _yaml_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_yaml_non_finite(item) for item in value]
    return value


def save_state(state: HybridState, path, scenario=None):
    """Write the dump of ``state`` to the file ``path``, with ``scenario`` as its provenance."""
    with open(path, "w") as fh:
        _write_state(fh, state, scenario)


def _write_state(fh, state, scenario):
    """Write the dump of ``state`` to the stream ``fh``, in blocks of about `BLOCK_FLOATS`.

    Each block is the rows of one whole-table `write_table`, so the bytes
    are the same and no table larger than a block is built.  A dump of one
    block is written straight to ``fh``; the blocks of a larger one are
    formatted by `_map_chunks`, in forked workers, and written in order.
    """
    meta = {
        "axes": [
            {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n} for ax in state.grid.axes
        ],
        "boundary": "truncate",
        "hilbert_dim": state.hilbert_dim,
    }
    header = ["# cqsim-state " + json.dumps(meta, sort_keys=True)]
    if scenario is not None:
        header.append("# scenario " + scenario_json(scenario))
    d = state.hilbert_dim
    header.append("# columns: " + ",".join(_state_columns(state.grid, d)))
    coords = [m.reshape(-1) for m in state.grid.meshes()]
    n = coords[0].size
    entries = state.cells.reshape(n, d * d).view(float)
    rows = max(1, BLOCK_FLOATS // (len(coords) + entries.shape[1]))
    blocks = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    if len(blocks) == 1:
        # no pool, so no copy of the text either
        _write_block(fh, header, coords, entries, 0, n)
        return
    # the header is block 0's text, so nothing is buffered in fh when the
    # pool forks
    for text in _map_chunks(partial(_block_text, header, coords, entries), blocks):
        fh.write(text)


def _write_block(out, header, coords, entries, lo, hi):
    """`write_table` of dump rows lo..hi-1 to the stream ``out``, after ``header`` at row 0."""
    table = np.column_stack([c[lo:hi] for c in coords] + [entries[lo:hi]])
    write_table(out, header if lo == 0 else [], table)


def _block_text(header, coords, entries, lo, hi):
    """The text `_write_block` writes of dump rows lo..hi-1."""
    out = io.StringIO()
    _write_block(out, header, coords, entries, lo, hi)
    return out.getvalue()


def _state_columns(grid, d):
    """Column names of a state dump: the axis names, then re_ij, im_ij per entry."""
    names = [ax.name for ax in grid.axes]
    return names + [f"{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]


def load_state(path) -> HybridState:
    """Read the state dump in the file ``path``; refuses what `state_from_text` refuses.

    The table is parsed from the file itself, so neither its text nor its
    lines are held beside it; they are read back only to name the file
    line of a refused entry.
    """
    with open(path) as fh:
        grid, d = _state_header(fh.readline().splitlines())
        # loadtxt warns on input without data rows; those fail the row count
        has_data = any(map(_is_data, fh))
    table = np.loadtxt(path, delimiter=",", ndmin=2) if has_data else None
    return _checked_state(grid, d, table, lambda: _file_lines(path))


def dump_floats(path) -> int:
    """Floats in the table of the state dump ``path``, by its header line.

    0 when the header cannot be read or is refused, which is left to
    `load_state` to report.
    """
    try:
        with open(path) as fh:
            grid, d = _state_header(fh.readline().splitlines())
    except (OSError, ValueError):
        return 0
    return int(np.prod(grid.shape)) * (grid.ndim + 2 * d * d)


def state_from_text(text: str) -> HybridState:
    """Parse a state dump; raises ValueError naming what is malformed.

    Beside the header and the table's shape, every number must be finite
    and every row's coordinates must be its cell's grid point exactly (a
    FLOAT_FMT dump reads back bit for bit), so a row out of place fails.
    """
    # loadtxt reads the list of lines; an io.StringIO(text) copy would hold
    # four bytes per character of a dump that can run to tens of megabytes
    lines = text.splitlines()
    grid, d = _state_header(lines)
    table = np.loadtxt(lines, delimiter=",", ndmin=2) if any(map(_is_data, lines)) else None
    return _checked_state(grid, d, table, lambda: lines)


def _state_header(lines):
    """(grid, hilbert_dim) from the first of a dump's ``lines``."""
    if not lines or not lines[0].startswith("# cqsim-state "):
        raise ValueError("not a cqsim state file (missing header)")
    meta = json.loads(lines[0][len("# cqsim-state ") :])
    try:
        axes = tuple(GridAxis(a["name"], a["lo"], a["hi"], a["n"]) for a in meta["axes"])
        grid = PhaseGrid(axes)
        boundary = meta["boundary"]
        d = operator.index(meta["hilbert_dim"])
    except KeyError as exc:
        raise ValueError(f"state header lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed state header: {exc}") from None
    if boundary != "truncate":
        raise ValueError(f"state header boundary must be 'truncate', got {boundary!r}")
    if d < 1:
        raise ValueError(f"state header hilbert_dim must be positive, got {d}")
    return grid, d


def _checked_state(grid, d, table, lines):
    """The state of a dump's data ``table`` (None without data rows), once it passes.

    ``lines()`` returns the dump's lines, for naming the file line of a
    refused entry.
    """
    ncoord = grid.ndim
    width = ncoord + 2 * d * d
    if table is None:
        table = np.empty((0, width))
    if table.shape[1] != width:
        raise ValueError(
            f"state rows have {table.shape[1]} columns, expected {width} "
            f"({ncoord} coordinates + 2 x {d}^2 entries for hilbert_dim {d})"
        )
    if table.shape[0] != int(np.prod(grid.shape)):
        raise ValueError(f"row count {table.shape[0]} does not match grid shape {grid.shape}")

    finite = np.isfinite(table)
    if not finite.all():
        row, col = divmod(int(finite.argmin()), width)
        problem = f"{FLOAT_FMT % table[row, col]} is not a finite number"
        _refuse_entry(lines(), grid, d, row, col, problem)
    del finite
    coords = table[:, :ncoord].reshape(grid.shape + (ncoord,))
    for k, ax in enumerate(grid.axes):
        # in row-major cell order, axis k's coordinate varies along grid axis k only
        wrong = coords[..., k] != ax.points.reshape([-1 if i == k else 1 for i in range(ncoord)])
        if wrong.any():
            row = int(wrong.argmax())
            point = ax.points[np.unravel_index(row, grid.shape)[k]]
            problem = f"{FLOAT_FMT % table[row, k]} is not the grid point {FLOAT_FMT % point}"
            _refuse_entry(lines(), grid, d, row, k, problem)
    cells = table[:, ncoord:].view(complex).reshape(grid.shape + (d, d))
    return HybridState(grid, cells)


def _file_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def _refuse_entry(lines, grid, d, row, col, problem):
    """Raise the ValueError of a bad entry, naming its data row, file line and column."""
    data_lines = (i for i, line in enumerate(lines) if _is_data(line))
    line = next(itertools.islice(data_lines, row, None)) + 1
    name = _state_columns(grid, d)[col]
    raise ValueError(f"state row {row + 1} (line {line}), column {name}: {problem}")


def _is_data(line):
    """Whether loadtxt reads a row from ``line`` ('#' starts a comment)."""
    return bool(line.split("#", 1)[0].strip())
