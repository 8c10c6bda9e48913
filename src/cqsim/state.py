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

A state dump is text, a FLOAT_FMT table like every artifact table
(`write_table`).  A numpy kernel (`_fields`) formats `TEXT_FLOATS` floats
at a time with the bytes of CPython's ``%``, which formats the entries the
kernel leaves: NaN, +-inf, |x| >= 1e290, and the rare entry whose 17-digit
rounding lies too near a tie to decide.  A dump of at most `BLOCK_FLOATS`
floats is written straight to its file and starts no pool; a larger one is
formatted in forked workers (`pool._map_chunks`), in jobs of `JOB_FLOATS`
floats, and written in order, so a dump's bytes depend on neither the
number of workers, the job size nor the kernel's block size.  The main
process then holds the text of a few jobs at a time, never that of the
whole dump.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .grids import PhaseGrid, GridAxis, slab_rows
from .pool import _map_chunks

__all__ = [
    "HybridState",
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
        defect = np.abs(self.cells - np.conj(np.swapaxes(self.cells, -1, -2))).max()
        scale = 1.0 + np.abs(self.cells).max()
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(f"cells not Hermitian: defect {defect:.3e}")
        low = min_cell_eigenvalue(self)
        if low < -POSITIVITY_TOL:
            raise ValueError(f"cell negativity {low:.3e} beyond {POSITIVITY_TOL:.1e}")
        return self


def total_trace(state: HybridState) -> float:
    """Volume-weighted total trace; 1 for a normalized state."""
    return float(cell_traces(state.cells).real.sum() * state.cell_volume)


def classical_marginal(state: HybridState) -> np.ndarray:
    """Probability density p(z) = Tr varrho(z) over the grid."""
    return cell_traces(state.cells).real


def cell_traces(cells) -> np.ndarray:
    """The complex trace of each of the cells (..., d, d)."""
    return np.einsum("...ii->...", cells)


def edge_mass(state: HybridState) -> float:
    """Probability in the outermost cells of the grid (first and last along each axis)."""
    dens = classical_marginal(state)
    edge = np.ones(dens.shape, dtype=bool)
    edge[tuple(slice(1, -1) for _ in dens.shape)] = False
    return float(dens[edge].sum() * state.cell_volume)


def quantum_marginal(state: HybridState) -> np.ndarray:
    """The d x d density matrix obtained by integrating out the grid."""
    return _marginal(state.cells.sum(axis=tuple(range(state.grid.ndim))), state.cell_volume)


def _marginal(cell_sum, cell_volume):
    """The quantum marginal of cells whose sum over the grid is ``cell_sum``."""
    rho = cell_sum * cell_volume
    return 0.5 * (rho + rho.conj().T)


def purity_of_marginal(state: HybridState) -> float:
    """Tr(rho^2) of the trace-normalized quantum marginal, in [0, 1]."""
    return marginal_purity(state.cells.sum(axis=tuple(range(state.grid.ndim))), state.cell_volume)


def marginal_purity(cell_sum, cell_volume) -> float:
    """`purity_of_marginal` of cells whose sum over the grid is ``cell_sum``."""
    rho = _marginal(cell_sum, cell_volume)
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
    low = np.empty(state.grid.shape)
    min_cell_eigenvalue(state, out=low)
    return low


def min_cell_eigenvalue(state, out=None, hermitian=False) -> float:
    """Smallest eigenvalue over all cell matrices (positivity monitor).

    ``state`` is a HybridState or an array of cells (..., d, d), such as
    one slab of an evolution's record.  The Hermitian parts are formed and
    diagonalized one slab of first-axis rows at a time, so no grid-sized
    temporary exists; each cell's numbers are those of the whole-grid
    expression.  ``out``, of the cells' leading shape, receives each cell's
    smallest eigenvalue.  ``hermitian`` cells are exactly Hermitian, like
    a slab of an evolution's record, so each is its own Hermitian part, bit
    for bit: they are diagonalized as they are, in one call.
    """
    cells = state.cells if isinstance(state, HybridState) else state
    low = np.empty(cells.shape[:-2]) if out is None else out
    if hermitian:
        low[...] = np.linalg.eigvalsh(cells)[..., 0]
        return float(low.min())
    step = slab_rows(len(cells), cells[0].nbytes)
    for lo in range(0, len(cells), step):
        c = cells[lo : lo + step]
        herm = 0.5 * (c + np.conj(np.swapaxes(c, -1, -2)))
        low[lo : lo + step] = np.linalg.eigvalsh(herm)[..., 0]
    return float(low.min())


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
    cells = weight[..., None, None] * rho_q
    total = total_trace(HybridState(grid, cells))
    if not total > 0.0:
        raise ValueError(f"cannot normalize state with total trace {total}")
    cells /= total  # in place: the bits of cells / total, and one cells-sized array
    return HybridState(grid, cells)


# -- columnar text serialization -------------------------------------------
#
# Every artifact table is one float array written by `write_table`: '#'
# header lines, then one row per line in FLOAT_FMT, which reads back as the
# same float64.  A state dump has one row per cell: the cell coordinates,
# then the d*d matrix entries in row-major order as (re, im) pairs (the
# complex cells viewed as floats).  Its header carries the grid metadata
# and, for provenance, an optional resolved-scenario JSON blob.

FLOAT_FMT = "%.17g"
# State text IO of at most this many floats runs in this process and starts
# no pool: 121^2 cells at d = 2 are 146410 floats.
BLOCK_FLOATS = 1 << 19
# Floats per job of a pooled dump: the text that waits in the main process
# to be written comes a job, about a megabyte, at a time.
JOB_FLOATS = 1 << 16
# Floats formatted into one string of table text, by one `_fields` call:
# their 32-byte fields (128 kB) and temporaries stay in cache, and a dump
# written in-process holds no more than a row-at-a-time writer would.
TEXT_FLOATS = 1 << 12


def write_table(fh, header_lines, table):
    """Write ``header_lines``, then one FLOAT_FMT row per table row, to a file name or stream.

    The bytes of ``np.savetxt(fh, table, fmt=FLOAT_FMT, delimiter=",",
    header="\\n".join(header_lines), comments="")``: a 1-D table is one
    column, and an empty header writes no line.
    """
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, "w") as out:
            out.writelines(_table_text(header_lines, table))
    else:
        fh.writelines(_table_text(header_lines, table))


def _table_text(header_lines, table):
    """The text `write_table` writes, as strings of about `TEXT_FLOATS` table entries each.

    Each string is the `_fields` of its rows, a separator written into
    each field's last byte, with every NUL byte then dropped.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    header = "\n".join(header_lines)
    if header:
        yield header + "\n"
    step = max(1, TEXT_FLOATS // table.shape[1])
    for lo in range(0, len(table), step):
        rows = table[lo : lo + step]
        fields = _fields(rows.ravel())
        fields[:, 3] |= _COMMA
        fields.reshape(rows.shape + (4,))[:, -1, 3] ^= _COMMA ^ _NEWLINE
        yield fields.tobytes().translate(None, b"\0").decode("ascii")


# -- the FLOAT_FMT kernel ---------------------------------------------------
#
# `_fields` writes FLOAT_FMT of a float64 block without a Python float per
# entry.  A finite nonzero |x| < _FAST_MAX is scaled to y = |x| 10^(16-E),
# with 10^16 <= y < 10^17, in double-double arithmetic (Dekker, Numer. Math.
# 18, 224 (1971)): |x| times a (hi, lo) pair of 10^(16-E) has an absolute
# error near 1e-14 at most, so round(y) is the correctly rounded 17-digit
# significand of |x| unless y's fraction lies within _TIE of 1/2.  Those
# entries, like NaN, +-inf and |x| >= _FAST_MAX, go through FLOAT_FMT % x, so
# CPython's formatter is both the kernel's fallback and its test oracle.
#
# A field is four little-endian words of NUL-padded ASCII, dropped NULs
# giving the text: the head word (sign, the "0.000" of a fixed-point value
# below 1, the first digit and a point), two words of eight more digits, and
# the exponent suffix with the separator in the last byte.  C's %g picks the
# layout from the decimal exponent alone: fixed-point for -4 <= E < 17,
# d.ddd...e+XX otherwise, with trailing zeros after the point dropped.

_FAST_MAX = 1e290  # 134217729 |x| must not overflow in the Dekker split
_TIE = 1e-9
_E_MIN = -330  # the suffix table's first exponent
# 10^k for k in [_K_MIN, _K_MAX] covers the scaling exponent 16 - E of every
# |x| in [5e-324, _FAST_MAX), after E's correction; 10^k above 10^_SHIFT_K
# is stored divided by 2^200, and |x| multiplied by it, so that neither the
# table nor its split overflows
_K_MIN, _K_MAX, _SHIFT_K = -280, 345, 280
# a field's words are read as bytes in little-endian order on every host
_WORD = np.dtype("<u8")
_COMMA = _WORD.type(ord(",") << 56)
_NEWLINE = _WORD.type(ord("\n") << 56)


def _word(text: bytes):
    """The value of a `_WORD` whose bytes are ``text`` (at most 8), NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@cache
def _kernel_tables():
    """The kernel's lookup tables, built on its first call (not at import).

    The scales and the (hi, head, tail, lo) of each 10^k, from exact
    rationals: hi + lo is 10^k to about 2^-106, and head + tail is hi split
    into halves of 26 bits; then four-digit words and their trailing zeros,
    masks keeping a word's first 8 - j digits, exponent suffixes and head
    words.
    """
    split = 134217729.0  # 2^27 + 1
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 200 if k > _SHIFT_K else 0
        # 10^k / 2^shift = num / den; int / int is correctly rounded
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0) << shift
        hi = num / den
        n, d = hi.as_integer_ratio()
        t = split * hi
        head = t - (t - hi)
        columns.append((2.0**shift, hi, head, hi - head, (num * d - n * den) / (den * d)))
    pow10 = tuple(np.array(column) for column in zip(*columns))
    text = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype=np.uint8).reshape(-1, 4)
    quads = text.view("<u4")[:, 0].astype(_WORD)
    nonzero = text[:, ::-1] != ord("0")
    zeros = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), 4).astype(np.int8)
    masks = np.array([_word(b"\xff" * (8 - j)) for j in range(9)], dtype=_WORD)
    suffixes = np.array([_word(b"e%+03d" % e) for e in range(_E_MIN, 310)] + [0], dtype=_WORD)
    # indexed by 100 sign + 20 p + 2 first digit + point, where p = -E for a
    # fixed-point value below 1 ("0.", "0.0", ...) and 0 otherwise
    heads = np.array([_word(sign + b"\0" * (5 - len(pre)) + pre + b"%d" % d + point)
                      for sign in (b"\0", b"-") for pre in (b"", b"0.", b"0.0", b"0.00", b"0.000")
                      for d in range(10) for point in (b"\0", b".")], dtype=_WORD)
    return pow10, quads, zeros, masks, suffixes, heads


def _scaled(a, e):
    """a 10^(16 - e) as a double-double (hi, lo): an exact product, then one rounded term."""
    scale, hi, head, tail, lo = (np.take(t, 16 - _K_MIN - e) for t in _kernel_tables()[0])
    x = a * scale
    t = 134217729.0 * x
    x_head = t - (t - x)
    x_tail = x - x_head
    p = x * hi
    err = ((x_head * head - p) + x_head * tail + x_tail * head) + x_tail * tail + x * lo
    s = p + err
    return s, err - (s - p)


def _fields(x):
    """The FLOAT_FMT text of each entry of the 1-D float64 array ``x``, as (n, 4) `_WORD` fields.

    See the kernel's notes above; a field's separator byte is left NUL.
    """
    _, quads, zeros, masks, suffixes, heads = _kernel_tables()
    out = np.zeros((x.size, 4), dtype=_WORD)
    a = np.abs(x)
    head = np.signbit(x) * 100  # a zero is its head word: the sign and "0"
    fast = a < _FAST_MAX  # False for NaN
    idx = np.flatnonzero(fast & (a != 0.0))
    a = a[idx]
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    for attempt in range(2):
        # log10 may miss E by one: then y lies outside [10^16, 10^17)
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        redo = np.flatnonzero(low | high)
        if attempt or not redo.size:
            break
        e[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scaled(a[redo], e[redo])
    floor = np.floor(lo)
    frac = lo - floor
    fallback = low | high | (np.abs(frac - 0.5) <= _TIE)
    hi[fallback], floor[fallback], frac[fallback], e[fallback] = 1e16, 0.0, 0.0, 0
    # hi >= 2^53 is an integer, and |lo| <= 8
    m = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = m == 10**17
    m[carry] = 10**16
    e += carry
    first, rest = np.divmod(m, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    upper_hi, upper_lo = np.divmod(upper, 10**4)
    lower_hi, lower_lo = np.divmod(lower, 10**4)
    upper_zeros = np.where(upper_lo != 0, zeros[upper_lo], 4 + zeros[upper_hi])
    lower_zeros = np.where(lower_lo != 0, zeros[lower_lo], 4 + zeros[lower_hi])
    digits = 17 - lower_zeros - (lower == 0) * upper_zeros
    fixed = (e >= -4) & (e < 17)
    # digits written: the integer digits of a fixed-point value stay
    keep = np.where(fixed & (e > 0), np.maximum(digits, e + 1), digits)
    upper_word = (quads[upper_hi] | quads[upper_lo] << 32) & masks[8 - np.clip(keep - 1, 0, 8)]
    lower_word = (quads[lower_hi] | quads[lower_lo] << 32) & masks[8 - np.clip(keep - 9, 0, 8)]
    head[idx] += 20 * np.where(fixed & (e < 0), -e, 0) + 2 * first + ((~fixed | (e == 0)) & (digits > 1))
    out[:, 0] = heads[head]
    out[idx, 1] = upper_word
    out[idx, 2] = lower_word
    out[idx, 3] = suffixes[np.where(fixed, len(suffixes) - 1, e - _E_MIN)]
    inner = np.flatnonzero(fixed & (e > 0))
    if inner.size:
        # from 10 up the point follows digit e, among the digit words; the
        # last digit moves into the suffix word, which is empty
        rows, point = idx[inner], e[inner]
        digit_words = out[rows, 1:3].view(np.uint8)
        body = np.zeros((inner.size, 24), dtype=np.uint8)
        body[:, :16] = digit_words
        np.copyto(body[:, 1:17], digit_words, where=np.arange(1, 17) > point[:, None])
        body[np.arange(inner.size), point] = (keep[inner] > point + 1) * np.uint8(ord("."))
        out[rows, 1:4] = body.view(_WORD)
    text = out.view(np.uint8)
    for i in itertools.chain(np.flatnonzero(~fast), idx[fallback]):
        field = (FLOAT_FMT % x[i]).encode()
        text[i] = 0
        text[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
    return out


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
    """Write the dump of ``state`` to the stream ``fh``, the bytes of one whole-table `write_table`.

    A dump of at most `BLOCK_FLOATS` floats is written straight to ``fh``.
    A larger one is cut into jobs of about `JOB_FLOATS` floats, each the
    rows of one whole-table `write_table`, so the bytes are the same; the
    jobs are formatted by `_map_chunks`, in forked workers, and written in
    order.  No table larger than a block is built, and the main process
    holds the text of the jobs that have come back and wait their turn:
    a few jobs' text, however large the dump.
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
    width = len(coords) + entries.shape[1]
    if n * width <= BLOCK_FLOATS:
        # no pool, so no copy of the text either, and the table of one
        # string of text at a time
        rows = max(1, TEXT_FLOATS // width)
        for lo in range(0, n, rows):
            fh.writelines(_block_lines(header, coords, entries, lo, min(lo + rows, n)))
        return
    _kernel_tables()  # built once here, for the workers to inherit
    rows = max(1, JOB_FLOATS // width)
    jobs = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    # the header is job 0's text, so nothing is buffered in fh when the
    # pool forks
    for text in _map_chunks(partial(_block_text, header, coords, entries), jobs):
        fh.write(text)


def _block_lines(header, coords, entries, lo, hi):
    """The `_table_text` strings of dump rows lo..hi-1, after ``header`` at row 0."""
    table = np.column_stack([c[lo:hi] for c in coords] + [entries[lo:hi]])
    return _table_text(header if lo == 0 else [], table)


def _block_text(header, coords, entries, lo, hi):
    """The text of dump rows lo..hi-1, after ``header`` at row 0, as one string."""
    return "".join(_block_lines(header, coords, entries, lo, hi))


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
