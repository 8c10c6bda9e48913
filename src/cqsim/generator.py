"""Grid application and time stepping of the continuous CQ master equation.

`apply_generator` evaluates the right-hand side

    d varrho/dt = {H_c, varrho} - (i/hbar)[H_q, varrho]
                  + (1/2) d^2(D2(q) varrho)/dp^2
                  + (1/2)({V_I, varrho} - {varrho, V_I})
                  + D0(q) (L varrho L - (1/2){L^2, varrho}),   L = dV_I/dq

cellwise with 2nd-order central differences (one-sided at the grid
edges).  The symmetrized Poisson term is the Alexandrov-Gerasimenko
back-reaction; for p-independent V_I it reduces to the anticommutator
(1/2){dV_I/dq, d varrho/dp}.  The n = 2 diffusion term carries the 1/n!
normalization, so a classical increment has variance D2 * dt.

The kernel is stencil transport plus a per-cell superoperator.  With the
cells viewed as fvec of shape (nq, np, d^2) (row-major vec of each cell),

    rate = fvec @ L(q)^T + (d fvec/dp) @ B(q)^T - (p/m) d fvec/dq
           + (1/2) D2(q) d^2 fvec/dp^2,

where the d^2 x d^2 Liouvillian L(q) holds the commutator and dissipator
and B(q) = V'(q) I + (1/2)(L kron I + I kron L^T) the back-reaction.
`_cell_operators` builds both, for either equation, once per (model,
grid), after auditing the model on the grid's points; a failure is never
cached.  `apply_generator` evaluates a window of q rows one slab of about
`_SLAB_BYTES` of cells at a time, through one scratch slab it keeps beside
the operators.  Every element sees the whole-grid expression's operations,
so neither the window nor the slab size changes a bit.

Time stepping is classical RK4, `_rk4` for both equations.  A step holds
three grid arrays (the cells, the stage state and the accumulator), sweeps
its stages through windows of q rows that it cuts itself, and is
bit-for-bit cells + (dt/6)(k1 + 2 k2 + 2 k3 + k4).  `evolve` and
`evolve_measurement` take a step dt and a whole number of steps, which the
caller decides; a trace-drift abort reports the probability found in the
outermost grid cells.

`branch_generator` provides an independent evolution route for models
diagonal in a fixed basis: each matrix element varrho_ab is transported by
the (a,b)-averaged force, rotated by the energy gap, and damped at the
Feynman-Vernon rate (D0/2)(l_a - l_b)^2.  It is the module's internal
oracle: where applicable, it must agree with `apply_generator` cellwise.

`measurement_generator` evaluates the linear master equation of an ideal
continuous measurement on a one-axis signal grid: the saturated special
case of the CQ equation along z, used for cross-validation against
stochastic unraveling.  Its operators come from the same builder with
L = Z, D0 = 2k, H = h and no force -- the superoperator -k(z)[Z,[Z,.]]
- (i/hbar)[H,.] and the drift -d(fvec @ A(z)^T)/dz, A(z) = (1/2)(Z kron I
+ I kron Z^T) -- beside the diffusion (1/2) d^2(D2 varrho)/dz^2 with
D2 = 1/(8k).  Its drift differentiates the flux of the whole grid, so its
RK4 sweep is one window.  Both equations share one set of named step
limits, `cfl_terms`, whose minimum is `cfl_limit`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grids import PhaseGrid, d_dx, d2_dx2, times_real
from .models import (
    CQModel,
    DiagonalizedModel,
    MeasurementModel,
    classical_force,
    diagonalize_model,
    validate_model,
)
from .psd import spectral_norm
from .state import (
    LEAK_LIMIT,
    HybridState,
    cell_min_eigenvalues,
    classical_marginal,
    coherence,
    edge_mass,
    min_cell_eigenvalue,
    purity_of_marginal,
    total_trace,
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
# Bytes of cells per `apply_generator` slab, per RK4 sweep window and per
# operator-build chunk (each holds at least one q row, a window two).  It
# bounds their buffers, and a slab's scratch and rate rows stay in cache
# between the terms that read them.
_SLAB_BYTES = 1 << 20


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

    def record(self, t, state):
        p_axis = state.grid.axes[-1]
        dens = classical_marginal(state)
        # density along the momentum-like (last) axis
        if state.grid.ndim == 2:
            dens_p = dens.sum(axis=0) * state.grid.axes[0].spacing
        else:
            dens_p = dens
        w = dens_p * p_axis.spacing
        total = w.sum()
        pts = p_axis.points
        if total > 0:
            mean_p = float((w * pts).sum() / total)
            var_p = float((w * (pts - mean_p) ** 2).sum() / total)
        else:
            mean_p = var_p = float("nan")
        if state.hilbert_dim >= 2:
            coh = float(coherence(state, 0, 1).sum() * state.cell_volume)
        else:
            coh = 0.0
        self.t.append(float(t))
        self.trace.append(total_trace(state))
        self.min_eig.append(min_cell_eigenvalue(state))
        self.purity.append(purity_of_marginal(state))
        self.mean_p.append(mean_p)
        self.var_p.append(var_p)
        self.coh_01.append(coh)

    def table(self):
        return np.column_stack([getattr(self, name) for name in self.COLUMNS])

    COLUMNS = ("t", "trace", "min_eig", "purity", "mean_p", "var_p", "coh_01")


def apply_generator(
    model: CQModel, state: HybridState, rows=None, out=None
) -> np.ndarray:
    """Evaluate d varrho/dt on q rows ``rows`` of the grid, written into ``out``.

    ``rows`` is a slice of the first (q) axis, all rows when None; ``out``
    (a new array when None) must have the shape of ``state.cells[rows]``,
    be C-contiguous and not overlap the cells; it is returned.  The per-q
    operators are built (and `validate_model` run on the q points) on the
    first call for a (model, grid) pair and reused while the same model
    and grid keep coming back.  The rows are evaluated one slab at a time
    through one slab-sized scratch buffer, kept beside the operators; the
    q-transport of a slab reads the cells of its neighbour rows.
    """
    grid = state.grid
    liou_t, back_t, p_over_m, half_d2 = _operators(model, grid, _cq_operators)

    f = state.cells
    fvec = f.reshape(grid.shape + (-1,))
    lo, hi, _ = (slice(None) if rows is None else rows).indices(grid.shape[0])
    if out is None:
        out = np.empty((hi - lo,) + f.shape[1:], dtype=complex)
    rate = out.reshape((hi - lo,) + fvec.shape[1:])
    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    slab = _slab_rows(f)
    scratch = _scratch((slab,) + fvec.shape[1:])

    for start in range(lo, hi, slab):
        q = slice(start, min(start + slab, hi))
        r, d = rate[start - lo : q.stop - lo], scratch[: q.stop - start]
        # the back-reaction product first, then fvec @ L(q)^T added to it:
        # addition commutes, so each element gets the bits of their sum
        np.matmul(d_dx(fvec, 1, hp_ax, out=d, rows=q), back_t[q], out=r)
        r += np.matmul(fvec[q], liou_t[q], out=d)
        r -= times_real(d_dx(fvec, 0, hq_ax, out=d, rows=q), p_over_m)
        r += times_real(d2_dx2(fvec, 1, hp_ax, out=d, rows=q), half_d2[q])
    return out


def _slab_rows(cells):
    """q rows per `apply_generator` slab: about `_SLAB_BYTES` of cells, at least one row."""
    return min(len(cells), max(1, _SLAB_BYTES // cells[0].nbytes))


def _cq_operators(model: CQModel, grid: PhaseGrid):
    """Per-q operators of `apply_generator`, broadcastable against (nq, np, d^2) cells.

    (L(q)^T, B(q)^T), the `_cell_operators` of H_q, L = dV_I/dq, D0(q) and
    the force V'(q), then p/m and D2(q)/2.
    """
    if grid.ndim != 2:
        raise ValueError("apply_generator needs a (q, p) grid with two axes")
    qs = grid.axes[0].points
    validate_model(model, qs)
    force = classical_force(model, qs)
    liou_t, back_t = _cell_operators(model.h_q, model.hbar, model.dv_i(qs), model.d0(qs), force)
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None]
    half_d2 = 0.5 * np.asarray(model.d2(qs), dtype=float)[:, None, None]
    return liou_t, back_t, p_over_m, half_d2


def _cell_operators(h, hbar, lop, d0, force):
    """L(x)^T and B(x)^T at each grid point x, in the row-major vec basis.

    For the Hamiltonian ``h`` and per point L = ``lop``, real D0 = ``d0``
    and V' = ``force``, with vec(A X C) = (A kron C^T) vec(X):

      L(x) = -(i/hbar)(H kron I - I kron H^T)
             + D0(x)(L kron L^T - (1/2)(L^2 kron I + I kron (L^2)^T)),
      B(x) = V'(x) I + (1/2)(L kron I + I kron L^T).

    A chunk of about `_SLAB_BYTES` per operator is evaluated at a time,
    straight into the returned arrays: no operator-sized temporary exists.
    """
    lop = np.asarray(lop, dtype=complex)
    n, d = lop.shape[0], lop.shape[-1]
    eye = np.eye(d)
    l2 = lop @ lop
    d0, force = (np.asarray(c, dtype=float)[:, None, None] for c in (d0, force))
    commutator = (-1j / hbar) * (_kron(h, eye) - _kron(eye, h.T))
    liou_t = np.empty((n, d * d, d * d), dtype=complex)
    back_t = np.empty_like(liou_t)
    chunk = max(1, _SLAB_BYTES // liou_t[0].nbytes)
    for lo in range(0, n, chunk):
        x = slice(lo, lo + chunk)
        lx, l2x = lop[x], l2[x]
        liou_t[x] = _t(
            commutator
            + d0[x] * (_kron(lx, _t(lx)) - 0.5 * (_kron(l2x, eye) + _kron(eye, _t(l2x))))
        )
        back_t[x] = _t(force[x] * np.eye(d * d) + 0.5 * (_kron(lx, eye) + _kron(eye, _t(lx))))
    return liou_t, back_t


def _t(a):
    """Transpose of the trailing matrix axes (no conjugation)."""
    return np.swapaxes(a, -1, -2)


def _kron(a, b):
    """Kronecker product over the trailing matrix axes, broadcasting the rest."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n, m = a.shape[-1], b.shape[-1]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


# One entry: every RK4 stage of a run asks for the same (model, grid), and
# models are frozen with read-only matrices, so identity is a sound key.
# Beside the operators it keeps `apply_generator`'s slab scratch buffer.
_memo = (None, None, None, None)


def _operators(model, grid, build):
    global _memo
    cached_model, cached_grid, ops, _ = _memo
    if cached_model is not model or cached_grid != grid:
        ops = build(model, grid)
        _memo = (model, grid, ops, None)
    return ops


def _scratch(shape):
    """An uninitialized complex array of ``shape``, kept in the memo entry for the next call."""
    global _memo
    model, grid, ops, scratch = _memo
    if scratch is None or scratch.shape != shape:
        scratch = np.empty(shape, dtype=complex)
        _memo = (model, grid, ops, scratch)
    return scratch


def branch_generator(
    model: CQModel, state: HybridState, diag: DiagonalizedModel | None = None
) -> np.ndarray:
    """Branch-decomposed rate for models diagonal in a fixed basis.

    Valid only when [H_q, V_I(q)] = 0 for all q in a common q-independent
    eigenbasis; refuses otherwise.  In that basis each component obeys

      d varrho_ab/dt = {H_c + (V^a + V^b)/2, varrho_ab}
                       + (1/2) d^2(D2 varrho_ab)/dp^2
                       - (i/hbar)(h_a - h_b) varrho_ab
                       - (D0/2)(dV^a/dq - dV^b/dq)^2 varrho_ab.
    """
    grid = state.grid
    if grid.ndim != 2:
        raise ValueError("branch_generator needs a (q, p) grid with two axes")
    qs = grid.axes[0].points
    if diag is None:
        diag = diagonalize_model(model, qs)

    u = diag.basis
    f = np.einsum("ia,...ij,jb->...ab", u.conj(), state.cells, u)

    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    df_dq = d_dx(f, 0, hq_ax)
    df_dp = d_dx(f, 1, hp_ax)
    d2f_dp2 = d2_dx2(f, 1, hp_ax)

    lvals = np.asarray(diag.dv_eigs(qs), dtype=float)  # (nq, d)
    vprime = np.asarray(classical_force(model, qs), dtype=float)
    # (a,b)-averaged force d(H_c + Vbar)/dq, per q and branch pair
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


def measurement_generator(
    m: MeasurementModel, state: HybridState, rows=None, out=None
) -> np.ndarray:
    """Rate of the linear measurement master equation on a 1-axis signal grid.

    d varrho/dt = -(1/2) d({Z, varrho})/dz + (1/2) d^2(D2(z) varrho)/dz^2
                  - k(z) [Z, [Z, varrho]] - (i/hbar)[H, varrho].

    The drift sign follows from the signal equation dz = <Z> dt + noise;
    the couplings D0 = 2k, D2 = 1/(8k) saturate the trade-off.  ``rows``
    and ``out`` are as for `apply_generator`; the drift differentiates the
    flux of the whole grid, so a call always forms that.
    """
    grid = state.grid
    sup_t, flux_t, d2_of_z = _operators(m, grid, _measurement_operators)
    h_ax = grid.axes[0].spacing
    f = state.cells
    fvec = f.reshape(grid.shape + (1, -1))
    rows = slice(None) if rows is None else rows
    lo, hi, _ = rows.indices(grid.shape[0])
    if out is None:
        out = np.empty((hi - lo,) + f.shape[1:], dtype=complex)
    rate = np.matmul(fvec[rows], sup_t[rows], out=out.reshape((hi - lo,) + fvec.shape[1:]))
    rate -= d_dx(fvec @ flux_t, 0, h_ax, rows=rows)
    rate += 0.5 * d2_dx2(d2_of_z * fvec, 0, h_ax, rows=rows)
    return out


def _measurement_operators(m: MeasurementModel, grid: PhaseGrid):
    """Per-z operators of `measurement_generator`, broadcastable against (nz, 1, d^2) cells.

    (M(z)^T, A(z)^T), the `_cell_operators` with L = Z(z), D0 = 2k(z), H = h
    (zero when absent) and no force, so M(z) = -k(z)[Z,[Z,.]] - (i/hbar)[H,.];
    then D2(z).
    """
    if grid.ndim != 1:
        raise ValueError("measurement_generator needs a single-axis signal grid")
    zs = grid.axes[0].points
    m.validate(zs)
    h = np.zeros((m.hilbert_dim, m.hilbert_dim)) if m.h is None else m.h
    sup_t, flux_t = _cell_operators(h, m.hbar, m.z_op(zs), m.d0(zs), np.zeros(len(zs)))
    return sup_t, flux_t, np.asarray(m.d2(zs), dtype=float)[:, None, None]


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
    """
    xs = grid.axes[0].points
    # dp: the spacing of the axis that diffusion and force act along (p, or z)
    if isinstance(model, MeasurementModel):
        dp = grid.axes[0].spacing
        lop, h, drift, transport = model.z_op(xs), model.h, 0.0, None
    else:
        dq, dp = grid.axes[0].spacing, grid.axes[1].spacing
        lop, h = model.dv_i(xs), model.h_q
        drift = float(np.max(np.abs(classical_force(model, xs))))
        pmax = float(np.max(np.abs(grid.axes[1].points)))
        transport = dq * model.mass / pmax if np.isfinite(model.mass) and pmax > 0 else None
    terms = {}
    d2max = float(np.max(model.d2(xs)))
    if d2max > 0:
        terms["diffusion"] = dp**2 / d2max
    lmax = spectral_norm(np.asarray(lop, dtype=complex))
    fmax = drift + lmax
    if fmax > 0:
        terms["force"] = dp / fmax
    hnorm = 0.0 if h is None else spectral_norm(h)
    if hnorm > 0:
        terms["hamiltonian"] = model.hbar / hnorm
    if transport is not None:
        terms["transport"] = transport
    d0max = float(np.max(model.d0(xs)))
    if d0max > 0 and lmax > 0:
        terms["dissipator"] = 1.0 / (2.0 * d0max * (2.0 * lmax) ** 2)
    return terms


def measurement_cfl_limit(m: MeasurementModel, grid: PhaseGrid) -> float:
    """`cfl_limit` of the measurement equation on its signal grid."""
    return cfl_limit(m, grid)


def _rk4(rate_fn, cells, dt, height):
    """One classical RK4 step of ``cells`` through three grid arrays.

    ``rate_fn(cells, rows, out)`` writes the rate of q rows ``rows`` (all
    rows for ``slice(None)``) into the C-contiguous ``out`` and returns
    it.  k1 is written straight into the accumulator, the stage state is
    formed in a second array, and ``cells`` is never written.  k2, k3 and
    k4 are swept in windows of ``height`` q rows (the last may hold fewer),
    which take turns in two rate buffers (one, for a one-window grid).  For
    k2 and k3 a window's stage rows cells + h k and accumulator rows += 2 k
    are written one window behind the sweep, once the next window has read
    the old stage rows as q-stencil neighbours; the edge stencil of the last
    row n-1 reads row n-3, so a window holds at least two rows.  Every
    element sees the operations of cells + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in
    that order, so a step is bit-for-bit that expression.
    """
    nq = len(cells)
    height = min(nq, max(2, height))
    windows = [slice(lo, min(lo + height, nq)) for lo in range(0, nq, height)]
    bufs = [np.empty((height,) + cells.shape[1:], dtype=complex) for _ in windows[:2]]
    acc = rate_fn(cells, slice(None), np.empty(cells.shape, dtype=complex))
    stage = np.empty(cells.shape, dtype=complex)
    np.add(cells, np.multiply(acc, 0.5 * dt, out=stage), out=stage)

    def fold(rows, k, h):
        s = stage[rows]
        np.add(cells[rows], np.multiply(k, h, out=s), out=s)
        acc[rows] += np.multiply(k, 2.0, out=k)

    for h in (0.5 * dt, dt):
        for i, rows in enumerate(windows):
            k = rate_fn(stage, rows, bufs[i % len(bufs)][: rows.stop - rows.start])
            if i:
                fold(windows[i - 1], bufs[(i - 1) % len(bufs)], h)
        fold(windows[-1], k, h)
    for rows in windows:
        acc[rows] += rate_fn(stage, rows, bufs[0][: rows.stop - rows.start])
    acc *= dt / 6.0
    acc += cells
    return acc


def _stepper(model, state: HybridState, dt: float):
    """(rate_fn, window height) of `_rk4` for ``model`` on ``state``'s grid, for an admissible dt.

    Audits the model by building its operators, then requires 0 < dt <= the
    CFL-style limit.  The kernel is looked up when the rate function is
    called.  The CQ kernel's windows are its slabs; the measurement kernel
    takes the whole grid as its one window, since its drift differentiates
    the whole flux.
    """
    grid = state.grid
    if isinstance(model, MeasurementModel):
        _operators(model, grid, _measurement_operators)
        height = grid.shape[0]

        def rate_fn(cells, rows, out):
            return measurement_generator(model, HybridState(grid, cells), rows, out)

    else:
        _operators(model, grid, _cq_operators)
        height = _slab_rows(state.cells)

        def rate_fn(cells, rows, out):
            return apply_generator(model, HybridState(grid, cells), rows, out)

    limit = cfl_limit(model, grid)
    _check_dt(dt)
    if dt > limit:
        raise ValueError(f"dt={float(dt)!r} exceeds the CFL-style limit {limit!r}")
    return rate_fn, height


def step_rk4(model: CQModel, state: HybridState, dt: float) -> HybridState:
    """One classical 4th-order Runge-Kutta step of the full generator."""
    rate_fn, height = _stepper(model, state, dt)
    return HybridState(state.grid, _rk4(rate_fn, state.cells, dt, height))


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
    loop takes out: when the caller kept no reference either, the initial
    cells are freed as soon as the first step has consumed them.
    """
    n_steps = _count("n_steps", n_steps, 0)
    stride = _count("stride", stride, 1)
    state = initial.pop()
    grid = state.grid
    rate_fn, height = _stepper(model, state, dt)
    diags = EvolutionDiagnostics.empty()
    diags.record(0.0, state)
    initial_trace = diags.trace[0]
    cells = state.cells
    del state
    for step in range(1, n_steps + 1):
        cells = _rk4(rate_fn, cells, dt, height)
        if step % stride == 0 or step == n_steps:
            # no reference to the recorded state outlives this block: the
            # next step would otherwise hold a fourth grid array
            diags.record(step * dt, HybridState(grid, cells))
            if not np.isfinite(diags.trace[-1]):
                raise EvolutionError("non-finite total trace encountered", diags)
            drift = abs(diags.trace[-1] - initial_trace)
            if drift > trace_abort:
                raise EvolutionError(
                    f"trace drift {drift:.3e} exceeds {trace_abort:.1e} "
                    f"at t={step * dt:g}, with probability "
                    f"{edge_mass(HybridState(grid, cells)):.3e} "
                    "in the outermost grid cells",
                    diags,
                )
            if diags.min_eig[-1] < -POSITIVITY_ABORT:
                raise EvolutionError(
                    f"negativity {diags.min_eig[-1]:.3e} beyond {POSITIVITY_ABORT:.1e} "
                    f"at t={step * dt:g}, {_most_negative_cell(HybridState(grid, cells))}",
                    diags,
                )
    return HybridState(grid, cells), diags


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
    (0, LEAK_LIMIT], the cap on boundary leakage.  ``state`` is not
    referenced after the first step.
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
