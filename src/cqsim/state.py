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

A Hermitian cell is d x d real numbers, its coordinates
(`_real_coordinates`): the floats Re varrho_ij on and above the diagonal
and Im varrho_ij below it, half the numbers of the complex cell and exact
both ways for an exactly Hermitian cell (`_hermitian_cells`).  The grid
equations step these coordinates, and a state built from them
(`HybridState._from_coordinates`) holds them instead of complex cells:
`gaussian_product_state` forms its coordinates one slab of rows at a time,
a grid run's final state is its last coordinates, and a dump of such a
state forms the cells of one job's rows at a time.  Its ``cells`` are
formed only when read.

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

A dump is read back by a second numpy kernel (`_read_table`), a block of
whole lines at a time, into one preallocated table: bit for bit the table
``np.loadtxt`` reads, with ``float()`` for the rare field it cannot decide
and ``np.loadtxt`` itself for a dump with a field outside its grammar.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from functools import cache, partial

import numpy as np

from .grids import PhaseGrid, GridAxis, slab_rows
from .pool import _map_chunks

__all__ = [
    "HybridState",
    "total_trace",
    "classical_marginal",
    "edge_mass",
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


class HybridState:
    """Hybrid state: grid plus one complex Hermitian matrix per cell.

    ``HybridState(grid, cells)`` holds the cells given, of shape
    grid.shape + (d, d).  A state built by `_from_coordinates` holds the
    real coordinates of exactly Hermitian cells instead; its ``cells`` are
    formed from them on first read, and kept.  The arrays a state holds
    are not to be written: those it forms or takes over are read-only.
    """

    def __init__(self, grid: PhaseGrid, cells):
        cells = np.asarray(cells, dtype=complex)
        _check_cells_shape(grid, cells.shape)
        self.__dict__.update(grid=grid, _cells=cells, _x=None)

    @classmethod
    def _from_coordinates(cls, grid, x):
        """The state whose cells have the real coordinates ``x`` (`_real_coordinates`).

        It keeps a read-only view of ``x``, which its caller must no longer
        write.
        """
        x = np.asarray(x, dtype=float).view()
        _check_cells_shape(grid, x.shape)
        x.flags.writeable = False
        state = cls.__new__(cls)
        state.__dict__.update(grid=grid, _cells=None, _x=x)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"a HybridState is immutable: cannot set {name!r}")

    @property
    def cells(self) -> np.ndarray:
        """The cells, shape grid.shape + (d, d); formed from the coordinates on first read."""
        if self._cells is None:
            cells = _hermitian_cells(self._x)
            cells.flags.writeable = False
            self.__dict__["_cells"] = cells
        return self._cells

    def _coordinates(self, fresh=False) -> np.ndarray:
        """The real coordinates of the cells' Hermitian parts (`_real_coordinates`).

        The state's own read-only array when it holds them, else a new
        array; with ``fresh``, always a new array.
        """
        if self._x is None:
            return _real_coordinates(self._cells)
        return self._x.copy() if fresh else self._x

    def _row_cells(self):
        """A function of (lo, hi): the cells of flat (row-major) cell indices lo..hi-1.

        They are a view of the cells the state holds, or, from its
        coordinates, the cells of those rows alone, so no grid of cells
        is formed.
        """
        held = self._x if self._x is not None else self._cells
        flat = held.reshape((-1,) + held.shape[-2:])
        if self._x is None:
            return lambda lo, hi: flat[lo:hi]
        return lambda lo, hi: _hermitian_cells(flat[lo:hi])

    @property
    def hilbert_dim(self) -> int:
        return (self._x if self._x is not None else self._cells).shape[-1]

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


def _check_cells_shape(grid, shape):
    """A ValueError unless ``shape`` is grid.shape + (d, d)."""
    expected = grid.shape
    if len(shape) != len(expected) + 2 or shape[: len(expected)] != expected:
        raise ValueError(f"cells shape {shape} does not match grid shape {expected} + (d, d)")
    if shape[-1] != shape[-2]:
        raise ValueError("cells must be square matrices")


def _t(a):
    """Transpose of the trailing matrix axes (no conjugation)."""
    return np.swapaxes(a, -1, -2)


def _triangles(d):
    """(lower, diagonal): the masks of the entries of a d x d matrix below and on its diagonal."""
    i, j = np.indices((d, d))
    return i > j, i == j


def _real_coordinates(cells, out=None):
    """The real coordinates of the Hermitian parts of ``cells`` (..., d, d): floats of that shape.

    A cell's coordinates are the real parts of H = (c + c^dagger)/2 on and
    above the diagonal and its imaginary parts below it.  For an exactly
    Hermitian cell each is the entry's own real or imaginary part, bit for
    bit.  They are formed one slab of first-axis rows at a time, so no
    grid-sized temporary exists, into ``out`` (a new array when None),
    which is returned.
    """
    x = np.empty(cells.shape) if out is None else out
    step = slab_rows(len(cells), cells[0].nbytes)
    for lo in range(0, len(cells), step):
        c, xs = cells[lo : lo + step], x[lo : lo + step]
        # the real parts of c + c^dagger, then the imaginary parts below the
        # diagonal, a row at a time
        np.add(c.real, _t(c.real), out=xs)
        for i in range(1, c.shape[-1]):
            np.subtract(c.imag[..., i, :i], c.imag[..., :i, i], out=xs[..., i, :i])
        xs *= 0.5
    return x


def _hermitian_cells(x):
    """The Hermitian cells (..., d, d) of the real coordinates ``x``, one slab at a time.

    The cells are exactly Hermitian, and no imaginary part is -0: a zero
    comes back as +0, any other coordinate bit for bit.
    """
    cells = np.empty(x.shape, dtype=complex)
    step = slab_rows(len(x), cells[0].nbytes)
    for lo in range(0, len(x), step):
        re, im, xs = cells.real[lo : lo + step], cells.imag[lo : lo + step], x[lo : lo + step]
        np.copyto(re, xs)
        # a row at a time: below the diagonal, the real parts above it and
        # the imaginary parts y + 0.0; above it, 0.0 - y of those below
        # (y itself and -y, with a zero as +0); on it, 0.0
        for i in range(x.shape[-1]):
            np.copyto(re[..., i, :i], xs[..., :i, i])
            np.add(xs[..., i, :i], 0.0, out=im[..., i, :i])
            im[..., i, i] = 0.0
            np.subtract(0.0, xs[..., i + 1 :, i], out=im[..., i, i + 1 :])
    return cells


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


def marginal_purity(cell_sum, cell_volume) -> float:
    """Tr(rho^2), in [0, 1], of the trace-normalized quantum marginal.

    The marginal is the Hermitian part of ``cell_sum``, the cells summed
    over the grid, times ``cell_volume``: the cells integrated out.
    """
    rho = cell_sum * cell_volume
    rho = 0.5 * (rho + rho.conj().T)
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

    The state holds real coordinates (`HybridState._from_coordinates`):
    those of the Hermitian parts of the cells weight * rho_q / total, where
    total is the volume-weighted sum of the cells' real traces.  They are
    formed one slab of first-axis rows at a time, in a slab-sized buffer
    of complex cells, with each element's operations those of the
    whole-grid expression, so no grid of complex cells exists.  Its cells
    are exactly Hermitian: a ``rho_q`` that is not gives the cells of its
    Hermitian part, normalized by the real traces of the cells of
    ``rho_q`` itself.
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
    _check_cells_shape(grid, grid.shape + rho_q.shape)
    d = rho_q.shape[-1]
    step = slab_rows(len(weight), weight[0].size * d * d * 16)
    buf = np.empty((step,) + weight.shape[1:] + (d, d), dtype=complex)
    # a trace reads its cell's diagonal alone, so only that is formed for it
    diagonals = buf.reshape(buf.shape[:-2] + (d * d,))[..., :: d + 1]
    traces = np.empty(grid.shape, dtype=complex)
    for lo in range(0, len(weight), step):
        w = weight[lo : lo + step, ..., None]
        np.multiply(w, rho_q.diagonal(), out=diagonals[: len(w)])
        traces[lo : lo + step] = cell_traces(buf[: len(w)])
    total = float(traces.real.sum() * grid.cell_volume)
    if not total > 0.0:
        raise ValueError(f"cannot normalize state with total trace {total}")
    x = np.empty(grid.shape + (d, d))
    for lo in range(0, len(weight), step):
        w = weight[lo : lo + step, ..., None, None]
        cells = np.multiply(w, rho_q, out=buf[: len(w)])
        cells /= total
        _real_coordinates(cells, out=x[lo : lo + step])
    return HybridState._from_coordinates(grid, x)


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

    `_powers_of_ten`; then four-digit words and their trailing zeros, masks
    keeping a word's first 8 - j digits, exponent suffixes and head words.
    """
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
    return _powers_of_ten(), quads, zeros, masks, suffixes, heads


@cache
def _powers_of_ten():
    """The scales and the (hi, head, tail, lo) of each 10^k, k in [_K_MIN, _K_MAX], built on first call.

    From exact rationals: hi + lo is 10^k to about 2^-106, and head + tail
    is hi split into halves of 26 bits.  The reader needs these alone.
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
    return tuple(np.array(column) for column in zip(*columns))


def _scaled(a, k, a_lo=None):
    """(a + a_lo) 10^k as a double-double (hi, lo): an exact product, then rounded terms.

    ``a_lo`` is a small correction to ``a`` (None: none), such as the
    remainder of an integer that ``a`` rounds.
    """
    scale, hi, head, tail, lo = (np.take(t, k - _K_MIN) for t in _powers_of_ten())
    x = a * scale
    if a_lo is not None:
        a_lo = a_lo * scale * hi
    del scale
    t = 134217729.0 * x
    x_head = t - (t - x)
    del t
    x_tail = x - x_head
    p = x * hi
    del hi
    err = ((x_head * head - p) + x_head * tail + x_tail * head) + x_tail * tail + x * lo
    if a_lo is not None:
        err += a_lo
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
    hi, lo = _scaled(a, 16 - e)
    for attempt in range(2):
        # log10 may miss E by one: then y lies outside [10^16, 10^17)
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        redo = np.flatnonzero(low | high)
        if attempt or not redo.size:
            break
        e[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scaled(a[redo], 16 - e[redo])
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


# -- the FLOAT_FMT reader ---------------------------------------------------
#
# `_read_table` reads a table's data rows without a Python float per entry,
# in blocks of whole lines of about READ_BYTES each.  numpy finds a block's
# ',' and '\n' delimiters, which must give every line the table's width, and
# a field "0" or "-0" is written as it stands.  Every other field must be in
# the grammar
#
#     [-] digit {digit} [. {digit}] [e (+|-) digit digit [digit]]
#
# with at most 24 characters before the exponent, whose digits, the point
# dropped, value M < 10^19.  Three 8-byte words of those characters, read
# from the block where the mantissa ends, hold them right-aligned: the bytes
# before the mantissa are filled with '0', the point is found and shifted out,
# and each word gives its 8 digits with SWAR arithmetic (Lemire, "Number
# parsing at a gigabyte per second", Softw. Pract. Exp. 51, 1700 (2021)).
# The field's value is M 10^k, k the exponent less the digits after the
# point, which `_scaled` forms as a double-double (M's rounding to a double,
# plus its exact remainder) with an error below 2^-100 of it; its rounding to
# a double is then the correctly rounded value unless the remainder lies
# within _TIE of the gap to a neighbour from half of it.  Those fields, and
# those with k outside [-_K_READ, _K_READ] (all values below 1e-262 and some
# from 1e281 up, near where the double-double's terms would underflow or the
# gap to a neighbour overflow), go through float(): the correctly rounded
# strtod that loadtxt calls too, so every field reads as loadtxt reads it.  A field outside the grammar
# (a space, "+1", "1E5", "nan", ...) makes `_read_table` return None, and
# its caller reads the whole table with loadtxt.

# a block of table text: whole lines of about this many bytes, whose
# fields' temporaries come to about 1 MB
READ_BYTES = 1 << 17
# |k| of a field read by the double-double: M 10^k stays within [1e-280, 1e299)
_K_READ = 280
# bytes before a block: a field's mantissa words start up to 24 bytes before it
_PAD = 32
# fields of a block read together, at most
FIELD_BATCH = 1 << 13
# words of bytes and shift counts, as numpy scalars
_BYTES = 0x0101010101010101
_ZEROS, _DOTS, _SIXES, _THREES = (np.uint64(c * _BYTES) for c in (0x30, 0x2E, 0x06, 0x33))
_LOW7, _HIGH4 = np.uint64(0x7F * _BYTES), np.uint64(0xF0 * _BYTES)
_PAIRS = np.uint64(0x000000FF000000FF)
_U255 = np.uint64(255)
# an "e" in byte 4 or byte 3 of a word
_E, _E2, _E3 = np.uint64(ord("e") * _BYTES), np.uint64(0xFF << 32), np.uint64(0xFF << 24)
_U4, _U8, _U16, _U32, _U56 = (np.uint64(s) for s in (4, 8, 16, 32, 56))


def _read_table(readinto, rows, width):
    """The (rows, width) table of the data rows that ``readinto`` reads, or None.

    ``readinto(buffer)`` fills a writable buffer with the next bytes of the
    rows and returns their count, 0 at the end.  None when any field is
    outside the grammar of the reader's notes above, or the rows are not
    ``rows`` lines of ``width`` fields.
    """
    _powers_of_ten(), _first_bytes()  # built before the blocks' temporaries
    # A block's temporaries take about 1 MB of heap and give it back.  At
    # each free, glibc returns a heap top beyond its trim threshold (128 kB
    # at first) to the system, and the next block faults those pages in
    # again.  Freeing a mapped chunk raises that threshold to twice the
    # chunk (mallopt(3), M_MMAP_THRESHOLD), so 2 MB, allocated and freed
    # untouched here, let the blocks reuse their heap.
    np.empty(1 << 18)
    size = max(READ_BYTES, 32 * width)  # the longest line of the grammar fits
    buf = bytearray(_PAD + size + 1)  # and a newline closes a last line without one
    view = memoryview(buf)
    text = np.frombuffer(buf, dtype=np.uint8)
    words = np.ndarray((len(buf) - 7,), dtype=_WORD, buffer=buf, strides=(1,))
    table = np.empty((rows, width))
    flat = table.reshape(-1)
    done, end = 0, _PAD
    while True:
        got = readinto(view[end : _PAD + size])
        if got:
            end += got
            cut = buf.rfind(b"\n", _PAD, end) + 1
            if not cut:
                continue
        elif end == _PAD:
            break
        elif end == _PAD + size:
            return None  # a line longer than any of the grammar
        else:
            buf[end] = ord("\n")  # the last line has none
            end = cut = end + 1
        fields = _read_block(text, words, cut, width, flat[done:])
        if fields is None:
            return None
        done += fields
        buf[_PAD : _PAD + end - cut] = buf[cut:end]
        end = _PAD + end - cut
    return table if done == flat.size else None


def _read_block(text, words, cut, width, out):
    """Read the lines text[_PAD:cut] into ``out``'s first entries; their count, or None.

    ``words[i]`` is the `_WORD` of text[i:i + 8].
    """
    block = text[_PAD:cut]
    # the bytes below '-' end fields, except an exponent's '+'; each must
    # be a ',', or a '\n' after every width-th field
    ends = np.flatnonzero(block < ord("-"))
    enders = block[ends]
    plus = enders == ord("+")
    if plus.any():
        ends, enders = ends[~plus], enders[~plus]
    n = ends.size
    newline = enders == ord("\n")
    if (n % width or n > out.size or np.count_nonzero(newline) * width != n
            or not newline[width - 1 :: width].all() or not (newline | (enders == ord(","))).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = _PAD
    np.add(ends[:-1], _PAD + 1, out=starts[1:])
    ends += _PAD
    neg = text[starts] == ord("-")
    zero = ends - starts == neg + 1
    zero &= text[ends - 1] == ord("0")  # "0" or "-0", written as it stands
    vals = out[:n]
    vals.fill(0.0)
    vals[np.flatnonzero(zero & neg)] = -0.0
    rest = np.flatnonzero(~zero)
    for lo in range(0, rest.size, FIELD_BATCH):
        i = rest[lo : lo + FIELD_BATCH]
        x = _read_fields(text, words, starts[i], ends[i], neg[i])
        if x is None:
            return None
        vals[i] = np.where(neg[i], -x, x)
    return n


def _read_fields(text, words, starts, ends, neg):
    """The absolute values of the fields text[starts:ends], or None if one is outside the grammar.

    Each array is dropped once spent, so that a batch's temporaries stay
    few.
    """
    # an exponent: "e", a sign and two or three digits end the field.  An
    # "e" read before a short field's start leaves it no mantissa, which is
    # refused, and a valid field before it holds none there
    tail = words[ends - 8]
    exp_len = np.where(tail & _E2 == _E2 & _E, 4, np.where(tail & _E3 == _E3 & _E, 5, 0))
    sign = (tail >> (72 - 8 * exp_len).astype(np.uint64)) & _U255
    minus = sign == ord("-")
    size = ends - starts - exp_len - neg
    if ((size < 1) | (size > 24) | ((exp_len > 0) & ~minus & (sign != ord("+")))).any():
        return None  # the mantissa has 1-24 characters; a sign precedes the exponent digits
    del sign
    # four rows of words: the mantissa's three, right-aligned where it
    # stops, and the exponent's; the bytes before the mantissa, and those
    # before the exponent's digits (all of them without one), read as '0'
    stop = ends - exp_len
    w = np.empty((4, len(ends)), dtype=np.uint64)
    for k in range(3):
        w[k] = words[stop - (24 - 8 * k)]
    del stop
    w[3] = tail
    del tail
    lead = 24 - size  # bytes before the mantissa in its words
    del size
    first_bytes = _first_bytes()
    fill = first_bytes.take(lead, axis=1)
    mant = w[:3]
    _replace(mant, _ZEROS, fill)
    _replace(w[3], _ZEROS, first_bytes[2, 24 - np.maximum(exp_len - 2, 0)])
    # the point: the top byte that is one, exact for one point; a second is
    # left among the digits, which then fail their check
    dots = _zero_bytes(mant ^ _DOTS).astype(float)
    point = (np.frexp(dots[0] + dots[1] * 2.0**64 + dots[2] * 2.0**128)[1] - 8) >> 3
    del dots
    if ((point >= 0) & (point <= lead)).any():
        return None  # no digit before the point
    del lead
    # the bytes before the point move one up, over it
    up = mant << _U8
    up[0] |= _ZEROS & _U255
    up[1:] |= mant[:2] >> _U56
    first_bytes.take(point + 1, axis=1, out=fill)
    _replace(mant, up, fill)
    del up, fill, mant
    if _digit_check(w).any():
        return None
    v = _digit_values(w)
    del w
    if (v[0] >= 1000).any():
        return None  # M >= 10^19
    exp = v[3].astype(np.int64)
    k = np.where(minus, -exp, exp)
    k -= np.where(point >= 0, 23 - point, 0)
    del minus, point, exp
    m = v[0] * np.uint64(10**16)
    m += v[1] * np.uint64(10**8)
    m += v[2]
    del v
    slow = (k < -_K_READ) | (k > _K_READ)
    np.clip(k, -_K_READ, _K_READ, out=k)
    m_hi = m.astype(float)
    m -= m_hi.astype(np.uint64)
    x, r = _scaled(m_hi, k, m.view(np.int64).astype(float))
    del m, m_hi, k
    # the gap from x to its neighbour on r's side
    gap = np.abs((x.view(np.int64) + np.where(r < 0.0, -1, 1)).view(float) - x)
    slow |= np.abs(r) >= (0.5 - _TIE) * gap
    for i in np.flatnonzero(slow):
        x[i] = abs(float(text[starts[i] : ends[i]].tobytes()))
    return x


def _replace(w, new, mask):
    """Give the bits ``mask`` of the words ``w`` those of ``new``, in place."""
    new = w ^ new
    new &= mask
    w ^= new


@cache
def _first_bytes():
    """Masks (3, 25): row k, column c, the bits of word k of three that lie in their first c bytes."""
    return np.array([[(1 << min(max(8 * c - 64 * k, 0), 64)) - 1 for c in range(25)] for k in range(3)],
                    dtype=np.uint64)


def _zero_bytes(x):
    """The high bit of each zero byte of the words ``x``, exactly; ``x`` is spent."""
    low = x & _LOW7
    low += _LOW7
    x |= low
    x |= _LOW7
    return np.invert(x, out=x)


def _digit_check(w):
    """Nonzero where a byte of the words ``w`` is not an ASCII digit."""
    t = w + _SIXES
    t &= _HIGH4
    t >>= _U4
    t |= w & _HIGH4
    t ^= _THREES
    return t


def _digit_values(w):
    """The 8-digit numbers of the digit words ``w``, the first digit in the lowest byte; ``w`` is spent."""
    w -= _ZEROS
    t = w >> _U8
    w *= np.uint64(10)
    w += t
    np.right_shift(w, _U16, out=t)
    t &= _PAIRS
    t *= np.uint64(1 + (10000 << 32))
    w &= _PAIRS
    w *= np.uint64(100 + (1000000 << 32))
    w += t
    w >>= _U32
    return w


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
    a few jobs' text, however large the dump.  The cells of a state that
    holds coordinates are formed one block's or job's rows at a time
    (`HybridState._row_cells`), element for element those of the whole
    grid, so the bytes are those of its ``cells``.
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
    cells = state._row_cells()
    width = len(coords) + 2 * d * d
    if n * width <= BLOCK_FLOATS:
        # no pool, so no copy of the text either, and the table of one
        # string of text at a time
        rows = max(1, TEXT_FLOATS // width)
        for lo in range(0, n, rows):
            fh.writelines(_block_lines(header, coords, cells, lo, min(lo + rows, n)))
        return
    _kernel_tables()  # built once here, for the workers to inherit
    rows = max(1, JOB_FLOATS // width)
    jobs = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    # the header is job 0's text, so nothing is buffered in fh when the
    # pool forks
    for text in _map_chunks(partial(_block_text, header, coords, cells), jobs):
        fh.write(text)


def _block_lines(header, coords, cells, lo, hi):
    """The `_table_text` strings of dump rows lo..hi-1, after ``header`` at row 0.

    ``cells(lo, hi)`` gives the rows' cells (`HybridState._row_cells`).
    """
    entries = cells(lo, hi).reshape(hi - lo, -1).view(float)
    table = np.column_stack([c[lo:hi] for c in coords] + [entries])
    return _table_text(header if lo == 0 else [], table)


def _block_text(header, coords, cells, lo, hi):
    """The text of dump rows lo..hi-1, after ``header`` at row 0, as one string."""
    return "".join(_block_lines(header, coords, cells, lo, hi))


def _state_columns(grid, d):
    """Column names of a state dump: the axis names, then re_ij, im_ij per entry."""
    names = [ax.name for ax in grid.axes]
    return names + [f"{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]


def load_state(path) -> HybridState:
    """Read the state dump in the file ``path``; refuses what `state_from_text` refuses.

    The reader kernel (`_read_table`) reads the data rows from the file in
    binary blocks of about READ_BYTES, straight into the table, so neither
    the dump's text nor its lines are held beside the table.  When a field
    is outside the kernel's grammar, ``np.loadtxt`` reads the whole table
    from the file instead; both give the table bit for bit, so every value
    and every refusal is loadtxt's.  The lines are read back only to name
    the file line of a refused entry.
    """
    with open(path) as fh:
        grid, d = _state_header(fh.readline().splitlines())
    table = None
    with open(path, "rb") as fh:
        while (line := fh.readline()).startswith(b"#") and _one_line(line):
            pass
        if not line.startswith(b"#"):
            fh.seek(-len(line), os.SEEK_CUR)
            table = _read_table(fh.readinto, *_table_shape(grid, d))
    if table is None:
        with open(path) as fh:
            fh.readline()
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
    rows, width = _table_shape(grid, d)
    return rows * width


def state_from_text(text: str) -> HybridState:
    """Parse a state dump; raises ValueError naming what is malformed.

    Beside the header and the table's shape, every number must be finite
    and every row's coordinates must be its cell's grid point exactly (a
    FLOAT_FMT dump reads back bit for bit), so a row out of place fails.
    The data rows are read as `load_state` reads them: by the reader
    kernel (`_read_table`), from ASCII slices of ``text`` of about
    READ_BYTES, so neither a copy of the text nor a list of its lines is
    made; or, for a text that is not ASCII or has a field outside the
    kernel's grammar, by ``np.loadtxt`` from the list of its lines.  The
    table is loadtxt's either way, bit for bit.
    """
    end = text.find("\n")
    grid, d = _state_header(text[: end if end >= 0 else None].splitlines())
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start) + 1
        if not (end and _one_line(text[start:end])):
            break
        start = end
    table = None
    if text.isascii() and not text.startswith("#", start):
        table = _read_table(_string_reader(text, start), *_table_shape(grid, d))
    if table is not None:
        return _checked_state(grid, d, table, text.splitlines)
    # loadtxt reads the list of lines; an io.StringIO(text) copy would hold
    # four bytes per character of a dump that can run to tens of megabytes
    lines = text.splitlines()
    table = np.loadtxt(lines, delimiter=",", ndmin=2) if any(map(_is_data, lines)) else None
    return _checked_state(grid, d, table, lambda: lines)


def _one_line(line):
    """Whether ``line`` (str or bytes) is one line, ended by a newline."""
    return line.endswith(b"\n" if isinstance(line, bytes) else "\n") and len(line.splitlines()) == 1


def _string_reader(text, start):
    """A ``readinto`` of the ASCII ``text`` from index ``start``, for `_read_table`."""

    def readinto(buf):
        nonlocal start
        chunk = text[start : start + len(buf)].encode("ascii")
        buf[: len(chunk)] = chunk
        start += len(chunk)
        return len(chunk)

    return readinto


def _table_shape(grid, d):
    """(rows, columns) of the table of a dump of ``grid`` with hilbert_dim ``d``."""
    return int(np.prod(grid.shape)), grid.ndim + 2 * d * d


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
