"""Grid application and time stepping of the continuous CQ master equation.

`apply_generator` evaluates the right-hand side

    d varrho/dt = {H_c, varrho} - (i/hbar)[H_q, varrho]
                  + (1/2) d^2(D2(q) varrho)/dp^2
                  + (1/2)({V_I, varrho} - {varrho, V_I})
                  + D0(q) (L varrho L - (1/2){L^2, varrho}),   L = dV_I/dq

cellwise with 2nd-order central differences (one-sided at truncate
boundaries).  The symmetrized Poisson term is the Alexandrov-Gerasimenko
back-reaction; for p-independent V_I it reduces to the anticommutator
(1/2){dV_I/dq, d varrho/dp}.  The n = 2 diffusion term carries the 1/n!
normalization, so a classical increment has variance D2 * dt.

The kernel is stencil transport plus a per-cell superoperator.  With the
cells viewed as fvec of shape (nq, np, d^2) (row-major vec of each cell),

    rate = fvec @ L(q)^T + (d fvec/dp) @ B(q)^T - (p/m) d fvec/dq
           + (1/2) D2(q) d^2 fvec/dp^2,

where the d^2 x d^2 Liouvillian L(q) holds the commutator and dissipator
and B(q) = V'(q) I + (1/2)(L kron I + I kron L^T) the back-reaction.  These
operators are built once per (model, grid) -- on the first call for that
pair -- and reused by every later RK4 stage.

`branch_generator` provides an independent evolution route for models
diagonal in a fixed basis: each matrix element varrho_ab is transported by
the (a,b)-averaged force, rotated by the energy gap, and damped at the
Feynman-Vernon rate (D0/2)(l_a - l_b)^2.  It is the module's internal
oracle: where applicable, it must agree with `apply_generator` cellwise.

`measurement_generator` evaluates the linear master equation of an ideal
continuous measurement on a one-axis signal grid, with couplings
D0 = 2k(z), D2 = 1/(8k(z)) -- the saturated special case used for
cross-validation against stochastic unraveling.  It has the same shape: a
per-cell superoperator -k(z)[Z,[Z,.]] - (i/hbar)[H,.], the conservative
drift -d(fvec @ A(z)^T)/dz with A(z) = (1/2)(Z kron I + I kron Z^T), and
the diffusion (1/2) d^2(D2 varrho)/dz^2, with operators built once per
(model, grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PhaseGrid, d_dx, d2_dx2
from .models import (
    CQModel,
    DiagonalizedModel,
    MeasurementModel,
    classical_force,
    diagonalize_model,
    validate_model,
)
from .state import (
    LEAK_LIMIT,
    HybridState,
    classical_marginal,
    coherence,
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


def apply_generator(model: CQModel, state: HybridState, validated=False) -> np.ndarray:
    """Evaluate d varrho/dt on the grid; returns a cells-shaped rate array.

    The model must pass `validate_model` (done here unless ``validated``).
    The per-q operators are built on the first call for a (model, grid)
    pair and reused while the same model and grid keep coming back.
    """
    grid = state.grid
    if grid.ndim != 2:
        raise ValueError("apply_generator needs a (q, p) grid with two axes")
    if not validated:
        validate_model(model, grid.axes[0].points)
    liou_t, back_t, p_over_m, half_d2 = _operators(model, grid, _cq_operators)

    f = state.cells
    fvec = f.reshape(grid.shape + (-1,))
    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    bdry = grid.boundary

    # a one-level (purely classical) model acts alike on every matrix
    # element, so it applies elementwise to cells of any dimension
    product = np.matmul if model.hilbert_dim > 1 else np.multiply
    rate = product(fvec, liou_t)
    rate += product(d_dx(fvec, 1, hp_ax, bdry), back_t)
    transport = d_dx(fvec, 0, hq_ax, bdry)
    transport *= p_over_m
    rate -= transport
    diffusion = d2_dx2(fvec, 1, hp_ax, bdry)
    diffusion *= half_d2
    rate += diffusion
    return rate.reshape(f.shape)


def _cq_operators(model: CQModel, grid: PhaseGrid):
    """Per-q operators of `apply_generator` in the row-major vec basis.

    Returns (L(q)^T, B(q)^T, p/m, D2(q)/2), broadcastable against cells
    viewed as (nq, np, d^2), where vec(A X C) = (A kron C^T) vec(X) and

      L(q) = -(i/hbar)(H kron I - I kron H^T)
             + D0(q)(L kron L^T - (1/2)(L^2 kron I + I kron (L^2)^T)),
      B(q) = V'(q) I + (1/2)(L kron I + I kron L^T),   L = dV_I/dq.
    """
    qs = grid.axes[0].points
    eye = np.eye(model.hilbert_dim)
    lop = np.asarray(model.dv_i(qs), dtype=complex)
    l2 = lop @ lop
    d0_of_q = np.asarray(model.d0(qs), dtype=float)[:, None, None]
    vprime = np.asarray(classical_force(model, qs), dtype=float)[:, None, None]
    h = model.h_q

    liou = (-1j / model.hbar) * (_kron(h, eye) - _kron(eye, h.T)) + d0_of_q * (
        _kron(lop, _t(lop)) - 0.5 * (_kron(l2, eye) + _kron(eye, _t(l2)))
    )
    back = vprime * np.eye(eye.size) + 0.5 * (_kron(lop, eye) + _kron(eye, _t(lop)))
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None]
    half_d2 = 0.5 * np.asarray(model.d2(qs), dtype=float)[:, None, None]
    return _t(liou).copy(), _t(back).copy(), p_over_m, half_d2


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
_memo = (None, None, None)


def _operators(model, grid, build):
    global _memo
    cached_model, cached_grid, ops = _memo
    if cached_model is not model or cached_grid != grid:
        ops = build(model, grid)
        _memo = (model, grid, ops)
    return ops


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
    bdry = grid.boundary
    df_dq = d_dx(f, 0, hq_ax, bdry)
    df_dp = d_dx(f, 1, hp_ax, bdry)
    d2f_dp2 = d2_dx2(f, 1, hp_ax, bdry)

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


def measurement_generator(m: MeasurementModel, state: HybridState) -> np.ndarray:
    """Rate of the linear measurement master equation on a 1-axis signal grid.

    d varrho/dt = -(1/2) d({Z, varrho})/dz + (1/2) d^2(D2(z) varrho)/dz^2
                  - k(z) [Z, [Z, varrho]] - (i/hbar)[H, varrho].

    The drift sign follows from the signal equation dz = <Z> dt + noise;
    the couplings D0 = 2k, D2 = 1/(8k) saturate the trade-off.
    """
    grid = state.grid
    if grid.ndim != 1:
        raise ValueError("measurement_generator needs a single-axis signal grid")
    sup_t, flux_t, d2_of_z = _operators(m, grid, _measurement_operators)
    h_ax = grid.axes[0].spacing
    bdry = grid.boundary
    f = state.cells
    fvec = f.reshape(grid.shape + (1, -1))

    rate = fvec @ sup_t
    rate -= d_dx(fvec @ flux_t, 0, h_ax, bdry)
    rate += 0.5 * d2_dx2(d2_of_z * fvec, 0, h_ax, bdry)
    return rate.reshape(f.shape)


def _measurement_operators(m: MeasurementModel, grid: PhaseGrid):
    """Per-z operators of `measurement_generator` in the row-major vec basis.

    Returns (M(z)^T, A(z)^T, D2(z)) broadcastable against cells viewed as
    (nz, 1, d^2), with the superoperator M(z) = -k(z)[Z,[Z,.]] - (i/hbar)[H,.]
    and the signal-flux matrix A(z) = (1/2)(Z kron I + I kron Z^T).
    """
    zs = grid.axes[0].points
    eye = np.eye(m.hilbert_dim)
    z_op = np.asarray(m.z_op(zs), dtype=complex)
    z2 = z_op @ z_op
    k_of_z = np.asarray(m.k(zs), dtype=float)[:, None, None]
    sup = -k_of_z * (_kron(z2, eye) - 2.0 * _kron(z_op, _t(z_op)) + _kron(eye, _t(z2)))
    if m.h is not None:
        sup = sup - (1j / m.hbar) * (_kron(m.h, eye) - _kron(eye, m.h.T))
    flux = 0.5 * (_kron(z_op, eye) + _kron(eye, _t(z_op)))
    d2_of_z = np.asarray(m.d2(zs), dtype=float)[:, None, None]
    return _t(sup).copy(), _t(flux).copy(), d2_of_z


# -- time stepping -----------------------------------------------------------


def cfl_limit(model: CQModel, grid: PhaseGrid) -> float:
    """Largest stable-looking dt for explicit stepping of `apply_generator`.

    min over: dp^2/max D2, dp/max|force|, hbar/||H_q||, dq*m/max|p|, and
    the inverse of the fastest dissipator rate.  Callers should apply a
    safety factor below 1.
    """
    qs = grid.axes[0].points
    dq_ax, dp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    terms = []
    d2max = float(np.max(model.d2(qs)))
    if d2max > 0:
        terms.append(dp_ax**2 / d2max)
    lmax = _spectral_max(np.asarray(model.dv_i(qs), dtype=complex))
    fmax = float(np.max(np.abs(classical_force(model, qs)))) + lmax
    if fmax > 0:
        terms.append(dp_ax / fmax)
    hnorm = _spectral_max(model.h_q[None])
    if hnorm > 0:
        terms.append(model.hbar / hnorm)
    pmax = float(np.max(np.abs(grid.axes[1].points)))
    if np.isfinite(model.mass) and pmax > 0:
        terms.append(dq_ax * model.mass / pmax)
    d0max = float(np.max(model.d0(qs)))
    if d0max > 0 and lmax > 0:
        terms.append(1.0 / (2.0 * d0max * (2.0 * lmax) ** 2))
    return min(terms) if terms else np.inf


def measurement_cfl_limit(m: MeasurementModel, grid: PhaseGrid) -> float:
    zs = grid.axes[0].points
    dz_ax = grid.axes[0].spacing
    znorm = _spectral_max(np.asarray(m.z_op(zs), dtype=complex))
    kmax = float(np.max(m.k(zs)))
    d2max = float(np.max(m.d2(zs)))
    terms = [dz_ax**2 / d2max]
    if znorm > 0:
        terms.append(dz_ax / znorm)
        terms.append(1.0 / (4.0 * kmax * (2.0 * znorm) ** 2))
    if m.h is not None:
        hnorm = _spectral_max(m.h[None])
        if hnorm > 0:
            terms.append(m.hbar / hnorm)
    return min(terms)


def _spectral_max(mats) -> float:
    if mats.size == 0 or np.abs(mats).max() == 0.0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(mats)).max())


def _rk4(rate_fn, cells, dt):
    k1 = rate_fn(cells)
    k2 = rate_fn(cells + 0.5 * dt * k1)
    k3 = rate_fn(cells + 0.5 * dt * k2)
    k4 = rate_fn(cells + dt * k3)
    return cells + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(model: CQModel, state: HybridState, dt: float, validated=False) -> HybridState:
    """One classical 4th-order Runge-Kutta step of the full generator."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    limit = cfl_limit(model, state.grid)
    if dt > limit:
        raise ValueError(f"dt={dt:g} exceeds the CFL-style limit {limit:g}")
    if not validated:
        validate_model(model, state.grid.axes[0].points)
    rate_fn = lambda cells: apply_generator(model, HybridState(state.grid, cells), validated=True)
    return HybridState(state.grid, _rk4(rate_fn, state.cells, dt))


def _evolve_loop(rate_fn, state, t_final, dt, stride, trace_abort, positivity_abort):
    diags = EvolutionDiagnostics.empty()
    diags.record(0.0, state)
    initial_trace = diags.trace[0]
    n_steps = int(round(t_final / dt))
    cells = state.cells
    grid = state.grid
    for step in range(1, n_steps + 1):
        cells = _rk4(rate_fn, cells, dt)
        if step % stride == 0 or step == n_steps:
            current = HybridState(grid, cells)
            diags.record(step * dt, current)
            if not np.isfinite(diags.trace[-1]):
                raise EvolutionError("non-finite total trace encountered", diags)
            drift = abs(diags.trace[-1] - initial_trace)
            # LEAK_LIMIT is a hard cap on boundary leakage, regardless of how
            # loose the configured trace_abort is
            if drift > min(trace_abort, LEAK_LIMIT):
                raise EvolutionError(
                    f"trace drift {drift:.3e} exceeds {min(trace_abort, LEAK_LIMIT):.1e} "
                    f"at t={step * dt:g} (probability leaking past the grid boundary?)",
                    diags,
                )
            if diags.min_eig[-1] < -positivity_abort:
                raise EvolutionError(
                    f"negativity {diags.min_eig[-1]:.3e} beyond {positivity_abort:.1e} "
                    f"at t={step * dt:g}",
                    diags,
                )
    return HybridState(grid, cells), diags


def evolve(
    model: CQModel,
    state: HybridState,
    t_final: float,
    dt: float,
    stride: int = 10,
    trace_abort: float = TRACE_DRIFT_ABORT,
    positivity_abort: float = POSITIVITY_ABORT,
):
    """Repeated RK4 stepping with diagnostics; aborts on invariant breach.

    Returns (final_state, diagnostics).  Diagnostics are recorded every
    ``stride`` steps and at the final time.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    limit = cfl_limit(model, state.grid)
    if dt > limit:
        raise ValueError(f"dt={dt:g} exceeds the CFL-style limit {limit:g}")
    validate_model(model, state.grid.axes[0].points)
    grid = state.grid
    rate_fn = lambda cells: apply_generator(model, HybridState(grid, cells), validated=True)
    return _evolve_loop(rate_fn, state, t_final, dt, stride, trace_abort, positivity_abort)


def evolve_measurement(
    m: MeasurementModel,
    state: HybridState,
    t_final: float,
    dt: float,
    stride: int = 10,
    trace_abort: float = TRACE_DRIFT_ABORT,
    positivity_abort: float = POSITIVITY_ABORT,
):
    """RK4 evolution of the measurement master equation on a signal grid."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    limit = measurement_cfl_limit(m, state.grid)
    if dt > limit:
        raise ValueError(f"dt={dt:g} exceeds the CFL-style limit {limit:g}")
    m.validate(state.grid.axes[0].points)
    grid = state.grid
    rate_fn = lambda cells: measurement_generator(m, HybridState(grid, cells))
    return _evolve_loop(rate_fn, state, t_final, dt, stride, trace_abort, positivity_abort)
