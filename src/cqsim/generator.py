"""Grid application and time stepping of the continuous CQ master equation.

`apply_generator` evaluates the right-hand side

    d varrho/dt = {H_c, varrho} - (i/hbar)[H_q, varrho]
                  + (1/2) d^2(D2(q) varrho)/dp^2
                  + (1/2){L(q), d varrho/dp}
                  + D0(q) (L varrho L - (1/2){L^2, varrho}),   L = dV_I/dq

cellwise with 2nd-order central differences (one-sided at the grid
edges), where {H_c, varrho} = V'(q) d varrho/dp - (p/m) d varrho/dq.  It
is the general completely positive CQ master equation with Hamiltonian
H_q, L(q) = sum_a c_a(q) M_a of fixed channels (`models.CQModel`) and
back-reaction coupling D1 = 1/2: it reads V', H_q, the channels, D2 and
D0, never V(q) or V_I(q).  The n = 2 diffusion term carries the 1/n!
normalization, so a classical increment has variance D2 * dt.

Both grid equations evolve each cell's Hermitian part, in real
coordinates.  The equation is linear and maps Hermitian cells to Hermitian
cells, and its stencils and coefficients are real, so on the real vector
space of Hermitian matrices it is real (the coherence-vector picture of a
Lindbladian).  A cell's coordinates (`_real_coordinates`) are the d x d
floats Re varrho_ij on and above the diagonal and Im varrho_ij below it:
half the numbers of the complex cell, exact both ways for an exactly
Hermitian cell.  The steps carry these coordinates; the diagnostics and
the final state convert back to Hermitian cells (`_hermitian_cells`),
which are so exactly Hermitian.

The kernel is stencil transport plus a per-cell superoperator.  With the
coordinates viewed as fvec of shape (nq, np, d^2) (row-major in each cell),

    rate = fvec @ L'(q)^T + (d fvec/dp) @ B'(q)^T - (p/m) d fvec/dq
           + (1/2) D2(q) d^2 fvec/dp^2,

where L' = T L T^-1 and B' = T B T^-1 are real d^2 x d^2 matrices: T
takes the row-major vec of a Hermitian cell to its coordinates, the
Liouvillian L(q) holds the commutator and dissipator and
B(q) = V'(q) I + (1/2)(L kron I + I kron L^T) the back-reaction.  With L
a sum of channels, each is a combination of fixed real matrices (`_kernel`):
L'(q) = C' + sum_{a <= b} D0 c_a c_b(q) K'_ab and B'(q) = V' I + sum c_a A'_a.

The equation is local, so both grid kernels take a model and a state and
return the state's rate, a new array.  Each builds, and audits, a fresh
kernel (`_Kernel`): the fixed matrices, their weights at each point and
the height of a window of q rows, about `grids.SLAB_BYTES` of cells.  Each
evaluation of a window builds its operators into the kernel's two
window-sized buffers, beside one window-sized scratch buffer, and a window
is evaluated in one pass.  Every element sees the whole-grid expression's
operations, so the window height changes no bit.

Time stepping is classical RK4 of the real coordinates, `_rk4` for both
equations.  A run builds its kernel once and hands it each window of the
sweep in a `_Band`, with the rows of the window's stencil neighbours and
the buffer its rate goes into.  A step holds two grid arrays of floats (the
coordinates and the caller's accumulator) and a fixed number of
window-sized bands: it sweeps the four stages together as a wavefront,
and is bit-for-bit cells + (dt/6)(k1 + 2 k2 + 2 k3 + k4).
`evolve` and `evolve_measurement` take a step dt and a whole number of
steps, which the caller decides.  A run allocates its two coordinate
arrays once and swaps them at each step; its diagnostics records read
them a slab at a time, so the only complex grid array of a run is its
final state's.  A trace-drift abort reports the probability found in the
outermost grid cells.

`branch_generator` provides an independent evolution route for models
diagonal in a fixed basis: each matrix element varrho_ab is transported by
the (a,b)-averaged force, rotated by the energy gap, and damped at the
Feynman-Vernon rate (D0/2)(l_a - l_b)^2.  It is the module's internal
oracle: where applicable, it must agree with `apply_generator` cellwise.

`measurement_generator` evaluates the linear master equation of an ideal
continuous measurement on a one-axis signal grid: the saturated special
case of the CQ equation along z, used for cross-validation against
stochastic unraveling.  Its kernel builds with L = Z, D0 = 2k, H = h and
no force -- the superoperator -k(z)[Z,[Z,.]] - (i/hbar)[H,.] and the drift
-d(fvec @ A'(z)^T)/dz, A(z) = (1/2)(Z kron I + I kron Z^T), both in real
coordinates -- beside the
diffusion (1/2) d^2(D2 varrho)/dz^2 with D2 = 1/(8k).  Its drift
differentiates the flux of the whole grid, so the kernel's one window,
and its RK4 sweep's, is the whole grid.  Both equations share one set of
named step limits, `cfl_terms`, whose minimum is `cfl_limit`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .grids import PhaseGrid, d_dx, d2_dx2, slab_rows
from .models import (
    CQModel,
    MeasurementModel,
    ModelValidationError,
    classical_force,
    diagonalize_model,
    profile_values,
    validate_model,
)
from .psd import spectral_norm
from .state import (
    LEAK_LIMIT,
    HybridState,
    cell_min_eigenvalues,
    cell_traces,
    edge_mass,
    marginal_purity,
    min_cell_eigenvalue,
)

__all__ = [
    "EvolutionDiagnostics",
    "EvolutionError",
    "apply_generator",
    "branch_generator",
    "measurement_generator",
    "step_rk4",
    "evolve",
    "evolve_measurement",
    "cfl_limit",
    "cfl_terms",
    "measurement_cfl_limit",
]

TRACE_DRIFT_ABORT = 1e-6
POSITIVITY_ABORT = 1e-7  # 10 x the hybrid-state positivity tolerance


class EvolutionError(RuntimeError):
    """Evolution aborted on an invariant breach (trace drift, negativity, NaN)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class EvolutionDiagnostics:
    """Per-stride time series recorded during evolution."""

    t: list
    trace: list
    min_eig: list
    purity: list
    mean_p: list
    var_p: list
    coh_01: list

    @classmethod
    def empty(cls):
        return cls([], [], [], [], [], [], [])

    def record(self, t, grid, x):
        """Append the diagnostics at time ``t`` of the real coordinates ``x`` of cells on ``grid``.

        ``x`` (`_real_coordinates`) is read one slab of first-axis rows at
        a time: each slab's Hermitian cells (`_hermitian_cells`) give their
        traces, |varrho_01| and smallest eigenvalues (`min_cell_eigenvalue`,
        which diagonalizes these exactly Hermitian cells as they are),
        into grid-shaped arrays that the whole-grid reductions read.  The
        quantum marginal is the Hermitian cell of the coordinates summed
        over the grid, which is the sum of the cells in the whole grid's
        order.  So no grid-sized complex array exists, and each column has
        the bits of the same expressions on the whole grid's cells.  (At
        d = 1 the sum is ordered otherwise, but a 1 x 1 marginal's purity
        is 1 whatever its bits.)
        """
        traces = np.empty(grid.shape, dtype=complex)
        coh = np.zeros(grid.shape)  # |varrho_01|, 0 for d = 1
        low = np.empty(grid.shape)
        # a slab's work holds two arrays of its complex cells (the cells
        # and eigvalsh's copy): together about half of SLAB_BYTES
        step = slab_rows(len(x), 4 * 2 * x[0].nbytes)
        for lo in range(0, len(x), step):
            rows = slice(lo, lo + step)
            cells = _hermitian_cells(x[rows])
            traces[rows] = cell_traces(cells)
            if x.shape[-1] >= 2:
                np.abs(cells[..., 0, 1], out=coh[rows])
            min_cell_eigenvalue(cells, out=low[rows], hermitian=True)
        volume = grid.cell_volume
        dens = traces.real
        # density along the momentum-like (last) axis
        p_axis = grid.axes[-1]
        dens_p = dens.sum(axis=0) * grid.axes[0].spacing if grid.ndim == 2 else dens
        w = dens_p * p_axis.spacing
        total = w.sum()
        pts = p_axis.points
        if total > 0:
            mean_p = float((w * pts).sum() / total)
            var_p = float((w * (pts - mean_p) ** 2).sum() / total)
        else:
            mean_p = var_p = float("nan")
        cell_sum = _hermitian_cells(x.sum(axis=tuple(range(grid.ndim)))[None])[0]
        self.t.append(float(t))
        self.trace.append(float(dens.sum() * volume))
        self.min_eig.append(float(low.min()))
        self.purity.append(marginal_purity(cell_sum, volume))
        self.mean_p.append(mean_p)
        self.var_p.append(var_p)
        self.coh_01.append(float(coh.sum() * volume))

    def table(self):
        return np.column_stack([getattr(self, name) for name in self.COLUMNS])

    COLUMNS = ("t", "trace", "min_eig", "purity", "mean_p", "var_p", "coh_01")


@dataclass(frozen=True)
class _Band:
    """A window of `_rk4`'s sweep: q rows ``rows`` of a stage state, and their rate's ``out``.

    ``cells`` holds the real coordinates (`_real_coordinates`) of q rows
    ``first``, ``first`` + 1, ..., q rows first and p second: at least the
    rows that the q-stencils of ``rows`` read (`_reach`).  ``out`` is a
    C-contiguous float array of the shape of the window's cells, and
    ``kernel`` is the run's.
    """

    grid: PhaseGrid
    cells: np.ndarray
    first: int
    kernel: _Kernel
    rows: slice
    out: np.ndarray


def apply_generator(model: CQModel, state: HybridState) -> np.ndarray:
    """d varrho/dt of ``state`` under ``model``: a new C-contiguous array of the cells' shape.

    The rate is that of the cells' Hermitian parts, evaluated in their real
    coordinates (`_real_coordinates`) and returned as Hermitian cells.
    `validate_model` audits the model on the q points as a fresh kernel is
    built (`_cq_kernel`), so a direct call audits its model every time.
    The rows are evaluated one window of the kernel's height at a time, with
    the superoperators the kernel builds for it.  ``state`` may also be a
    `_Band` of real coordinates, through which `_rk4` asks for one window's
    rate with the run's kernel (`_request`); the rate then goes into the
    band's ``out``.
    """
    band = _request(_cq_kernel, model, state)
    kernel, first, rows, grid = band.kernel, band.first, band.rows, band.grid
    p_over_m, half_d2 = kernel.coeffs
    f = band.cells
    fvec = f.reshape((len(f),) + grid.shape[1:] + (-1,))
    rate = band.out.reshape((len(band.out),) + fvec.shape[1:])
    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    scratch = kernel.scratch((kernel.height,) + fvec.shape[1:])

    for lo in range(rows.start, rows.stop, kernel.height):
        hi = min(lo + kernel.height, rows.stop)
        liou_t, back_t = kernel.window(lo, hi)
        q = slice(lo - first, hi - first)  # the window's rows of the band
        r, d = rate[lo - rows.start : hi - rows.start], scratch[: hi - lo]
        # the back-reaction product first, then fvec @ L(q)^T added to
        # it: addition commutes, so each element gets the bits of their sum
        np.matmul(d_dx(fvec, 1, hp_ax, out=d, rows=q), back_t, out=r)
        r += np.matmul(fvec[q], liou_t, out=d)
        r -= np.multiply(d_dx(fvec, 0, hq_ax, out=d, rows=q), p_over_m, out=d)
        r += np.multiply(d2_dx2(fvec, 1, hp_ax, out=d, rows=q), half_d2[lo:hi], out=d)
    return _answer(state, band)


def _reach(lo, hi, n):
    """The q rows [a, b) that the q-stencils of rows [lo, hi) of an n-row grid read.

    An inner row reads its two neighbours; the edge rows 0 and n-1 read the
    two rows inward.  A band holding these rows starts before the window
    unless the window starts at row 0, and ends after it unless the window
    ends at row n, so the stencils put edge rules on the grid's edge rows
    only.
    """
    a = min(lo - 1, n - 3) if hi == n else lo - 1
    b = max(hi + 1, 3) if lo == 0 else hi + 1
    return max(a, 0), min(b, n)


@dataclass(eq=False)
class _Kernel:
    """A run's audited operator inputs (`_kernel`), two window-sized operator buffers, a slab.

    ``fixed`` is (C'^T, the K'_ab^T, the A'_a^T) and ``weights`` their
    weights at each point of the grid's first axis, ``force`` V' there;
    ``coeffs`` the equation's other coefficients; ``height`` the q rows of
    a window (a grid's last window may hold fewer), about
    `grids.SLAB_BYTES` of real coordinates.  `window` builds into ``ops``;
    the slab is the kernel's float scratch buffer.
    """

    fixed: tuple
    weights: tuple
    force: np.ndarray
    coeffs: tuple
    height: int
    ops: tuple
    slab: np.ndarray | None = None

    def window(self, lo, hi):
        """(L'^T, B'^T) of rows [lo, hi), built into ``ops`` (valid until the next call).

        The weighted terms (`_weighted_sum`), then C'^T, or V' on the
        diagonal: every element sees the same operations whatever the rows.
        """
        x = slice(lo, hi)
        (base, pairs, drifts), (w, c) = self.fixed, self.weights
        liou, back = (op[: hi - lo] for op in self.ops)
        _weighted_sum(liou, w[x], pairs)
        liou += base
        _weighted_sum(back, c[x], drifts)
        diagonal = back.reshape(hi - lo, -1)[:, :: base.shape[0] + 1]
        diagonal += self.force[x, None]
        return liou, back

    def scratch(self, shape):
        """An uninitialized float array of ``shape``, kept for the next call."""
        if self.slab is None or self.slab.shape != shape:
            self.slab = np.empty(shape)
        return self.slab


def _weighted_sum(out, weights, mats):
    """``out`` = sum_p weights[:, p] mats[p], term by term (0 for none), the first in place."""
    if not len(mats):
        out.fill(0.0)
    for p, m in enumerate(mats):
        if p == 0:
            np.multiply(weights[:, 0, None, None], m, out=out)
        else:
            out += weights[:, p, None, None] * m


def _request(build, model, state):
    """The `_Band` that a rate of ``state`` is evaluated on, with its rows as ``slice(lo, hi)``.

    A `_Band`'s own, once its cells are found to hold the rows that the
    q-stencils of its window read; for a plain state, its real coordinates
    as one band of all rows, with a fresh ``build(model, grid)`` and a new
    ``out``.
    """
    if not isinstance(state, _Band):
        kernel = build(model, state.grid)
        x = _real_coordinates(state.cells)
        return _Band(state.grid, x, 0, kernel, slice(0, len(x)), np.empty(x.shape))
    nq, first, end = state.grid.shape[0], state.first, state.first + len(state.cells)
    lo, hi, _ = state.rows.indices(nq)
    a, b = _reach(lo, hi, nq)
    if not first <= a < b <= end:
        raise ValueError(
            f"q rows [{lo}, {hi}) read rows [{a}, {b}), not all in the band [{first}, {end})"
        )
    return replace(state, rows=slice(lo, hi))


def _answer(state, band):
    """``band.out`` for a `_Band` ``state``; for a plain state, the Hermitian cells it holds."""
    return band.out if isinstance(state, _Band) else _hermitian_cells(band.out)


def _triangles(d):
    """(lower, diagonal): the masks of the entries of a d x d matrix below and on its diagonal."""
    i, j = np.indices((d, d))
    return i > j, i == j


def _real_coordinates(cells):
    """The real coordinates of the Hermitian parts of ``cells`` (..., d, d): floats of that shape.

    A cell's coordinates are the real parts of H = (c + c^dagger)/2 on and
    above the diagonal and its imaginary parts below it.  For an exactly
    Hermitian cell each is the entry's own real or imaginary part, bit for
    bit.  They are formed one slab of first-axis rows at a time, so no
    grid-sized temporary exists.
    """
    lower, _ = _triangles(cells.shape[-1])
    x = np.empty(cells.shape)
    step = slab_rows(len(cells), cells[0].nbytes)
    for lo in range(0, len(cells), step):
        c, xs = cells[lo : lo + step], x[lo : lo + step]
        # the real and imaginary parts of c + c^dagger
        np.add(c.real, _t(c.real), out=xs)
        np.subtract(c.imag, _t(c.imag), out=xs, where=lower)
        xs *= 0.5
    return x


def _hermitian_cells(x):
    """The Hermitian cells (..., d, d) of the real coordinates ``x``, one slab at a time.

    The cells are exactly Hermitian, and no imaginary part is -0: a zero
    comes back as +0, any other coordinate bit for bit.
    """
    lower, diagonal = _triangles(x.shape[-1])
    upper = ~(lower | diagonal)
    cells = np.empty(x.shape, dtype=complex)
    step = slab_rows(len(x), cells[0].nbytes)
    for lo in range(0, len(x), step):
        re, im, xs = cells.real[lo : lo + step], cells.imag[lo : lo + step], x[lo : lo + step]
        np.copyto(re, xs)
        np.copyto(re, _t(xs), where=lower)
        # y + 0.0 and 0.0 - y are y and -y, with a zero as +0
        np.add(xs, 0.0, out=im, where=lower)
        np.subtract(0.0, _t(xs), out=im, where=upper)
        np.copyto(im, 0.0, where=diagonal)
    return cells


def _cq_kernel(model: CQModel, grid: PhaseGrid) -> _Kernel:
    """`apply_generator`'s kernel of ``model`` on ``grid``, after auditing the model.

    `_kernel` of the channels, D0(q) and V'(q); p/m and D2(q)/2,
    broadcastable against (nq, np, d^2) cells.  A window is a slab of cells
    (`slab_rows`), and at least two rows: the edge stencils read two rows
    inward, so every window of `_rk4`'s sweep but the last holds at least
    two, and a band's outer rows lie in the adjacent windows.
    """
    if grid.ndim != 2:
        raise ValueError("apply_generator needs a (q, p) grid with two axes")
    qs = grid.axes[0].points
    validate_model(model, qs)
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None]
    half_d2 = 0.5 * np.asarray(model.d2(qs), dtype=float)[:, None, None]
    nq = len(qs)
    # a q row of cells holds grid.shape[1] d^2 float64 coordinates
    height = min(nq, max(2, slab_rows(nq, grid.shape[1] * model.hilbert_dim**2 * 8)))
    force = np.asarray(classical_force(model, qs), dtype=float)
    return _kernel(model.h_q, model.hbar, model.channels, qs, model.d0(qs), force,
                   (p_over_m, half_d2), height)


def _kernel(h, hbar, channels, xs, d0, force, coeffs, height):
    """The `_Kernel` of Hamiltonian ``h`` and ``channels`` (M_a, c_a) at the points ``xs``.

    With vec(A X C) = (A kron C^T) vec(X) on row-major vecs, its fixed
    matrices are the real forms (`_real_form`) of

      C = -(i/hbar)(H kron I - I kron H^T),
      K_ab = S_ab + S_ba (K_aa = S_aa),
          S_ab = M_a kron M_b^T - (1/2)(M_a M_b kron I + I kron (M_a M_b)^T),
      A_a = (1/2)(M_a kron I + I kron M_a^T),

    so that, with L = sum c_a M_a, D0 = ``d0`` and V' = ``force``, the
    Liouvillian is C + sum_{a <= b} D0 c_a c_b K_ab and the back-reaction
    V' I + sum c_a A_a at each point.
    """
    d = h.shape[0]
    eye = np.eye(d)
    ms = [m for m, _ in channels]
    c = profile_values(channels, xs)
    pairs = [(a, b) for b in range(len(ms)) for a in range(b + 1)]

    def cross(a, b):
        mm = ms[a] @ ms[b]
        return _kron(ms[a], ms[b].T) - 0.5 * (_kron(mm, eye) + _kron(eye, mm.T))

    def real_t(ops):
        ops = np.asarray(ops, dtype=complex).reshape(-1, d * d, d * d)
        return np.ascontiguousarray(_t(_real_form(ops)))

    base = real_t((-1j / hbar) * (_kron(h, eye) - _kron(eye, h.T)))[0]
    k = real_t([cross(a, a) if a == b else cross(a, b) + cross(b, a) for a, b in pairs])
    drift = real_t([0.5 * (_kron(m, eye) + _kron(eye, m.T)) for m in ms])
    pair_weights = np.array([d0 * (c[a] * c[b]) for a, b in pairs]).reshape(len(pairs), len(xs)).T
    ops = tuple(np.empty((height, d * d, d * d)) for _ in range(2))
    return _Kernel((base, k, drift), (pair_weights, c.T), force, coeffs, height, ops)


def _real_form(m):
    """T m T^-1 for superoperators ``m`` (..., d^2, d^2) on row-major vecs: a float array.

    T takes vec(rho) of a Hermitian rho to its real coordinates
    (`_real_coordinates`): row ij of T is (e_ij + e_ji)/2 above the
    diagonal, (e_ij - e_ji)/(2i) below it and e_ii on it; column ij of
    T^-1 is e_ij + e_ji above, i(e_ij - e_ji) below and e_ii on it.  Each
    entry of T m T^-1 is so half a sum of at most four entries of m, and
    its real part is formed from the real and imaginary parts of m alone.
    For an m that maps Hermitian matrices to Hermitian matrices T m T^-1
    is real: its imaginary part, roundoff, is dropped.
    """
    n = m.shape[-1]
    d = math.isqrt(n)
    lower, diagonal = _triangles(d)
    # rows ij and ji of m: twice the real and imaginary parts of T m
    rows = m.reshape(m.shape[:-2] + (d, d, n))
    flipped = np.swapaxes(rows, -3, -2)
    below = lower[:, :, None]
    re = np.add(rows.real, flipped.real)
    np.subtract(rows.imag, flipped.imag, out=re, where=below)
    im = np.add(rows.imag, flipped.imag)
    np.subtract(flipped.real, rows.real, out=im, where=below)
    # columns ij and ji of T m, then the real part of the product by T^-1
    re, im = (part.reshape(m.shape[:-1] + (d, d)) for part in (re, im))
    out = re + _t(re)
    np.copyto(out, re, where=diagonal)
    np.subtract(_t(im), im, out=out, where=lower)
    out *= 0.5
    return out.reshape(m.shape)


def _t(a):
    """Transpose of the trailing matrix axes (no conjugation)."""
    return np.swapaxes(a, -1, -2)


def _kron(a, b):
    """Kronecker product over the trailing matrix axes, broadcasting the rest."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n, m = a.shape[-1], b.shape[-1]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def branch_generator(model: CQModel, state: HybridState) -> np.ndarray:
    """Branch-decomposed rate for models diagonal in a fixed basis.

    Valid only when H_q and L(q) = dV_I/dq at every q are diagonal in one
    q-independent basis; refuses otherwise.  In that basis, with h_a the
    levels of H_q and l_a(q) those of L, each component obeys

      d varrho_ab/dt = (V' + (l_a + l_b)/2) d varrho_ab/dp
                       - (p/m) d varrho_ab/dq
                       + (1/2) d^2(D2 varrho_ab)/dp^2
                       - (i/hbar)(h_a - h_b) varrho_ab
                       - (D0/2)(l_a - l_b)^2 varrho_ab.
    """
    grid = state.grid
    if grid.ndim != 2:
        raise ValueError("branch_generator needs a (q, p) grid with two axes")
    qs = grid.axes[0].points
    diag = diagonalize_model(model)

    u = diag.basis
    f = np.einsum("ia,...ij,jb->...ab", u.conj(), state.cells, u)

    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    df_dq = d_dx(f, 0, hq_ax)
    df_dp = d_dx(f, 1, hp_ax)
    d2f_dp2 = d2_dx2(f, 1, hp_ax)

    lvals = diag.dv_eigs(qs)  # (nq, d), audited at every q
    vprime = np.asarray(classical_force(model, qs), dtype=float)
    # (a,b)-averaged force V' + (l_a + l_b)/2, per q and branch pair
    force = vprime[:, None, None] + 0.5 * (lvals[:, :, None] + lvals[:, None, :])
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None, None]

    rate = force[:, None, :, :] * df_dp - p_over_m * df_dq

    d2_of_q = np.asarray(model.d2(qs), dtype=float)[:, None, None, None]
    rate = rate + 0.5 * d2_of_q * d2f_dp2

    gap = diag.h[:, None] - diag.h[None, :]
    rate = rate - (1j / model.hbar) * gap[None, None, :, :] * f

    damp = 0.5 * (lvals[:, :, None] - lvals[:, None, :]) ** 2
    d0_of_q = np.asarray(model.d0(qs), dtype=float)[:, None, None]
    rate = rate - (d0_of_q * damp)[:, None, :, :] * f

    return np.einsum("ai,...ij,bj->...ab", u, rate, u.conj())


def measurement_generator(m: MeasurementModel, state: HybridState) -> np.ndarray:
    """Rate of the linear measurement master equation on a 1-axis signal grid.

    d varrho/dt = -(1/2) d({Z, varrho})/dz + (1/2) d^2(D2(z) varrho)/dz^2
                  - k(z) [Z, [Z, varrho]] - (i/hbar)[H, varrho].

    The drift sign follows from the signal equation dz = <Z> dt + noise;
    the couplings D0 = 2k, D2 = 1/(8k) saturate the trade-off.  The rate
    and ``state`` are as for `apply_generator`, except that a `_Band`
    holds the whole grid: the drift differentiates the flux of the whole
    grid, so the kernel's one window is the whole grid.
    """
    band = _request(_measurement_kernel, m, state)
    (d2_of_z,) = band.kernel.coeffs
    grid, rows, out = band.grid, band.rows, band.out
    sup_t, flux_t = band.kernel.window(0, grid.shape[0])
    h_ax = grid.axes[0].spacing
    fvec = band.cells.reshape(grid.shape + (1, -1))
    rate = np.matmul(fvec[rows], sup_t[rows], out=out.reshape((len(out),) + fvec.shape[1:]))
    rate -= d_dx(fvec @ flux_t, 0, h_ax, rows=rows)
    rate += 0.5 * d2_dx2(d2_of_z * fvec, 0, h_ax, rows=rows)
    return _answer(state, band)


def _measurement_kernel(m: MeasurementModel, grid: PhaseGrid) -> _Kernel:
    """`measurement_generator`'s kernel of ``m`` on ``grid``, after auditing the model.

    L = Z(z), D0 = 2k(z), H = h (zero when absent) and no force, so its
    window holds (M'(z)^T, A'(z)^T), the real forms of
    M(z) = -k(z)[Z,[Z,.]] - (i/hbar)[H,.] and of the drift's A(z); its
    coefficient is D2(z), broadcastable against (nz, 1, d^2) cells,
    and its one window is the whole signal grid.
    """
    if grid.ndim != 1:
        raise ValueError("measurement_generator needs a single-axis signal grid")
    zs = grid.axes[0].points
    m.validate(zs)
    h = np.zeros((m.hilbert_dim, m.hilbert_dim)) if m.h is None else m.h
    d2_of_z = m.d2(zs)[:, None, None]
    return _kernel(h, m.hbar, m.channels, zs, m.d0(zs), np.zeros(len(zs)), (d2_of_z,), len(zs))


# -- time stepping -----------------------------------------------------------


def cfl_limit(model: CQModel | MeasurementModel, grid: PhaseGrid) -> float:
    """Largest stable-looking dt for explicit stepping of either grid equation.

    The minimum of `cfl_terms` (inf when there are none).  Callers should
    apply a safety factor below 1.
    """
    return min(cfl_terms(model, grid).values(), default=np.inf)


def cfl_terms(model: CQModel | MeasurementModel, grid: PhaseGrid) -> dict:
    """The step limits that `cfl_limit` takes the minimum of, by term name.

    diffusion dp^2/max D2, force dp/max|force|, hamiltonian hbar/||H||,
    transport dq*m/max|p| and dissipator 1/(2 max D0 (2 ||L||)^2); a term
    whose rate is zero sets no limit and is left out.  For a `CQModel`,
    L = dV_I/dq and the force is max|V'| + ||L||.  A `MeasurementModel`'s
    equation is the same along its signal axis z, with L = Z, D0 = 2k,
    D2 = 1/(8k), H = h, the signal drift ||Z|| as force and no transport.
    A channel profile that is not finite at a grid point is refused as
    `profile_values` does; a coefficient that is not finite there (V', D2
    or D0), a negative D2 or D0, and a measurement strength k <= 0 (refused
    before D2 = 1/(8k) is formed) are refused with a ModelValidationError
    naming the coefficient and the first such point.
    """
    xs = grid.axes[0].points
    var = "z" if isinstance(model, MeasurementModel) else "q"
    profile_values(model.channels, xs, var)
    # dp: the spacing of the axis that diffusion and force act along (p, or z)
    if isinstance(model, MeasurementModel):
        dp = grid.axes[0].spacing
        lop, h, force, transport = model.z_op(xs), model.h, 0.0, None
        k = np.broadcast_to(np.asarray(model.k(xs), dtype=float), xs.shape)
        _refuse_first("k", var, xs, k, k <= 0, "must be positive, got {:g}")
    else:
        dq, dp = grid.axes[0].spacing, grid.axes[1].spacing
        lop, h = model.lindblad(xs), model.h_q
        force = classical_force(model, xs)
        pmax = float(np.max(np.abs(grid.axes[1].points)))
        transport = dq * model.mass / pmax if np.isfinite(model.mass) and pmax > 0 else None
    d2, d0 = model.d2(xs), model.d0(xs)
    for name, values in (("dpotential", force), ("d2", d2), ("d0", d0)):
        values = np.atleast_1d(values)
        _refuse_first(name, var, xs, values, ~np.isfinite(values), "is not finite")
    for name, values in (("d2", d2), ("d0", d0)):
        values = np.broadcast_to(values, xs.shape)
        _refuse_first(name, var, xs, values, values < 0, "must be nonnegative, got {:g}")
    terms = {}
    d2max = float(np.max(d2))
    if d2max > 0:
        terms["diffusion"] = dp**2 / d2max
    lmax = spectral_norm(np.asarray(lop, dtype=complex))
    fmax = float(np.max(np.abs(force))) + lmax
    if fmax > 0:
        terms["force"] = dp / fmax
    hnorm = 0.0 if h is None else spectral_norm(h)
    if hnorm > 0:
        terms["hamiltonian"] = model.hbar / hnorm
    if transport is not None:
        terms["transport"] = transport
    d0max = float(np.max(d0))
    if d0max > 0 and lmax > 0:
        terms["dissipator"] = 1.0 / (2.0 * d0max * (2.0 * lmax) ** 2)
    return terms


def _refuse_first(name, var, xs, values, bad, problem):
    """A ModelValidationError naming ``name`` at the first point of ``xs`` where ``bad`` holds.

    ``bad`` has a leading axis along ``xs``; ``problem`` is formatted with
    the value of ``values`` there.
    """
    where = np.argwhere(bad)
    if len(where):
        first = tuple(where[0])
        detail = problem.format(values[first])
        raise ModelValidationError(f"{name}({var}={xs[first[0]]:g}) {detail}")


def measurement_cfl_limit(m: MeasurementModel, grid: PhaseGrid) -> float:
    """`cfl_limit` of the measurement equation on its signal grid."""
    return cfl_limit(m, grid)


def _rk4(rate_fn, cells, dt, height, acc):
    """One classical RK4 step of ``cells``, written into ``acc`` and returned.

    ``acc`` is the caller's C-contiguous array of the cells' shape and
    dtype, which does not overlap them: the step allocates no grid array.
    The grid equations step the real coordinates of their cells
    (`_real_coordinates`), float arrays; the arithmetic is elementwise, so
    any dtype steps alike.

    ``rate_fn(band, first, rows, out)`` writes the rate of q rows ``rows``
    into ``out`` and returns it, reading the stage state from ``band``,
    which holds q rows first, first + 1, ...: at least the rows that the
    q-stencils of ``rows`` read (`_reach`).  The grid is cut into windows
    of ``height`` q rows, the kernel's (`_Kernel`), and one sweep carries
    the four stages as a wavefront: while window i gets k1, windows i-1,
    i-2 and i-3 get k2, k3 and k4.  k1 reads ``cells``, which is never
    written, and goes straight into the accumulator ``acc``, the step's
    one grid array; k2-k4 go into one window-sized stage buffer.  A
    window's stage rows cells + h k go into its band, which also holds
    copies of the neighbour rows its stencils read, traded with the
    adjacent bands as each stage's rows appear; four band buffers serve
    the windows in turn (one, as tall as the grid, for a one-window
    grid).  Every element sees
    the operations of cells + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in that order,
    so a step is bit-for-bit that expression.
    """
    nq = len(cells)
    windows = [(lo, min(lo + height, nq)) for lo in range(0, nq, height)]
    bands = [_reach(lo, hi, nq) for lo, hi in windows]
    band_rows = max(b - a for a, b in bands)
    pool = [np.empty((band_rows,) + cells.shape[1:], dtype=cells.dtype) for _ in windows[:4]]
    k = np.empty((height,) + cells.shape[1:], dtype=cells.dtype)

    def band(j):
        a, b = bands[j]
        return pool[j % len(pool)][: b - a]

    def stage_rows(j, rate, h):
        # window j's rows of its next stage, then the rows that bands j-1
        # and j read of each other's window: band j-1 took this stage one
        # sweep step earlier and keeps it until its own next rate
        (lo, hi), a = windows[j], bands[j][0]
        rows = band(j)[lo - a : hi - a]
        np.add(cells[lo:hi], np.multiply(rate, h, out=rows), out=rows)
        if j:
            pa, pb = bands[j - 1]
            band(j)[: lo - a] = band(j - 1)[a - pa : lo - pa]
            band(j - 1)[lo - pa :] = band(j)[lo - a : pb - a]

    steps = (0.5 * dt, 0.5 * dt, dt)  # the stage step h after k1, k2, k3
    for t in range(len(windows) + 3):
        for s in range(4):
            j = t - s  # k_{s+1} on window j
            if not 0 <= j < len(windows):
                continue
            (lo, hi), (a, b) = windows[j], bands[j]
            if s == 0:
                r = rate_fn(cells[a:b], a, slice(lo, hi), acc[lo:hi])
            else:
                r = rate_fn(band(j), a, slice(lo, hi), k[: hi - lo])
            if s < 3:
                stage_rows(j, r, steps[s])
            if s in (1, 2):
                acc[lo:hi] += np.multiply(r, 2.0, out=r)
            elif s == 3:
                done = acc[lo:hi]
                done += r
                done *= dt / 6.0
                done += cells[lo:hi]
    return acc


def _stepper(model, state: HybridState, dt: float):
    """(rate_fn, window height) of `_rk4` for ``model`` on ``state``'s grid, for an admissible dt.

    Builds the run's kernel, which audits the model and sets the window
    height, then requires 0 < dt <= the CFL-style limit.  The rate function
    hands each window to the module's `apply_generator` or
    `measurement_generator` as a `_Band`.
    """
    grid = state.grid
    if isinstance(model, MeasurementModel):
        build, generate = _measurement_kernel, measurement_generator
    else:
        build, generate = _cq_kernel, apply_generator
    kernel = build(model, grid)

    def rate_fn(band, first, rows, out):
        return generate(model, _Band(grid, band, first, kernel, rows, out))

    limit = cfl_limit(model, grid)
    _check_dt(dt)
    if dt > limit:
        raise ValueError(f"dt={float(dt)!r} exceeds the CFL-style limit {limit!r}")
    return rate_fn, kernel.height


def step_rk4(model: CQModel, state: HybridState, dt: float) -> HybridState:
    """One classical 4th-order Runge-Kutta step of the full generator, in real coordinates.

    The step is taken on the real coordinates of the cells' Hermitian parts,
    and the stepped state's cells are exactly Hermitian.
    """
    rate_fn, height = _stepper(model, state, dt)
    x = _real_coordinates(state.cells)
    x = _rk4(rate_fn, x, dt, height, np.empty(x.shape))
    return HybridState(state.grid, _hermitian_cells(x))


def _count(name, value, least):
    """``value`` as an int of at least ``least``; a ValueError naming ``name`` otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _check_dt(dt):
    """A ValueError naming dt unless ``dt`` is a finite number > 0."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")


def _most_negative_cell(state):
    """Where ``state``'s most negative cell eigenvalue lies, for an abort message."""
    low = cell_min_eigenvalues(state)
    index = np.unravel_index(np.argmin(low), low.shape)
    where = ", ".join(f"{ax.name}={ax.points[i]:g}" for ax, i in zip(state.grid.axes, index))
    outer = any(i in (0, n - 1) for i, n in zip(index, low.shape))
    return (
        f"most negative in the cell at {where} ({'an' if outer else 'not an'} outermost "
        f"grid cell), with probability {edge_mass(state):.3e} in the outermost grid cells"
    )


def _evolve_loop(model, initial, dt, n_steps, stride, trace_abort):
    """The stepping loop of `evolve` and `evolve_measurement`.

    ``initial`` is a one-item list holding the initial state, which the
    loop takes out and converts to the real coordinates of its cells'
    Hermitian parts (`_real_coordinates`), the cells that the steps carry.
    The t = 0 record reads those coordinates; when the caller kept no
    reference either, the initial cells are freed before the first step.
    The run then holds two coordinate arrays, allocated once: each step
    reads one and writes the other (`_rk4`), and each record reads the
    step's output a slab at a time (`EvolutionDiagnostics.record`).  The
    final state's Hermitian cells are formed only after the spare array is
    freed, and an abort forms them only for its message.  The run's kernel
    (`_stepper`) goes with the loop's frame when it returns or raises, so
    its operators do not stay resident beside the final state (nor in the
    forked workers that dump it).
    """
    n_steps = _count("n_steps", n_steps, 0)
    stride = _count("stride", stride, 1)
    state = initial.pop()
    grid = state.grid
    rate_fn, height = _stepper(model, state, dt)
    x = _real_coordinates(state.cells)
    diags = EvolutionDiagnostics.empty()
    diags.record(0.0, grid, x)
    if n_steps == 0:
        return state, diags
    del state
    initial_trace = diags.trace[0]
    spare = np.empty(x.shape)
    for step in range(1, n_steps + 1):
        x, spare = _rk4(rate_fn, x, dt, height, spare), x
        if step % stride and step != n_steps:
            continue
        diags.record(step * dt, grid, x)
        if not np.isfinite(diags.trace[-1]):
            raise EvolutionError("non-finite total trace encountered", diags)
        drift = abs(diags.trace[-1] - initial_trace)
        if drift > trace_abort:
            state = HybridState(grid, _hermitian_cells(x))
            raise EvolutionError(
                f"trace drift {drift:.3e} exceeds {trace_abort:.1e} "
                f"at t={step * dt:g}, with probability {edge_mass(state):.3e} "
                "in the outermost grid cells",
                diags,
            )
        if diags.min_eig[-1] < -POSITIVITY_ABORT:
            state = HybridState(grid, _hermitian_cells(x))
            raise EvolutionError(
                f"negativity {diags.min_eig[-1]:.3e} beyond {POSITIVITY_ABORT:.1e} "
                f"at t={step * dt:g}, {_most_negative_cell(state)}",
                diags,
            )
    del spare, rate_fn
    return HybridState(grid, _hermitian_cells(x)), diags


def evolve(
    model: CQModel,
    state: HybridState,
    dt: float,
    n_steps: int,
    stride: int = 10,
    trace_abort: float = TRACE_DRIFT_ABORT,
):
    """``n_steps`` RK4 steps of ``dt`` with diagnostics; aborts on invariant breach.

    Returns (final_state, diagnostics).  Diagnostics are recorded every
    ``stride`` steps and at the final time.  ``n_steps`` must be an
    integer >= 0 (0 returns the initial state) and ``stride`` one >= 1;
    anything else raises ValueError, as does a ``trace_abort`` outside
    (0, LEAK_LIMIT], the cap on boundary leakage.  The steps carry the
    real coordinates of the cells' Hermitian parts, and the diagnostics
    are those of the Hermitian parts, t = 0's included; ``state`` is not
    referenced after its coordinates are formed and recorded.  A run holds
    two coordinate arrays for its whole length, which its records read a
    slab at a time; the final state's cells, exactly Hermitian for
    n_steps >= 1, are formed after the spare array is freed.
    """
    if not 0.0 < trace_abort <= LEAK_LIMIT:
        raise ValueError(
            f"trace_abort must lie in (0, {LEAK_LIMIT:.0e}] (the leakage cap), got {trace_abort!r}"
        )
    initial = [state]
    del state
    return _evolve_loop(model, initial, dt, n_steps, stride, trace_abort)


def evolve_measurement(
    m: MeasurementModel, state: HybridState, dt: float, n_steps: int, stride: int = 10
):
    """`evolve` of the measurement master equation on a signal grid."""
    return _evolve_loop(m, [state], dt, n_steps, stride, TRACE_DRIFT_ABORT)
