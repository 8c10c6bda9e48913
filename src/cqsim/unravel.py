"""Stochastic trajectory unraveling of the saturated dynamics.

A continuous measurement of a Hermitian operator Z(z) at strength k(z)
drives the coupled Ito equations

    d|psi> = [ -(i/hbar) H dt - k(z)(Z - <Z>)^2 dt
               + sqrt(2 k(z)) (Z - <Z>) dxi ] |psi>,
    dz     = <Z> dt + dxi / sqrt(8 k(z)),

with <Z> = <psi|Z(z)|psi> and dxi a Wiener increment.  Each realization
keeps the quantum state pure conditioned on the classical signal; the
ensemble average over signals reconstructs the hybrid state solving the
linear measurement master equation (couplings D0 = 2k, D2 = 1/(8k)), which
is how trajectories are cross-validated against the grid evolution.

Integration is Euler-Maruyama with per-step renormalization of the state,
one vectorized pass over an ensemble's rows that also keeps row 0's full
history; a single trajectory is a one-row ensemble.  Randomness comes from
counter-based Philox streams keyed on (master_seed, trajectory_index), so
ensembles are order-independent and bitwise reproducible; ensemble
reductions always run in trajectory-index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import PhaseGrid
from .models import MeasurementModel
from .state import HybridState

__all__ = [
    "Trajectory",
    "EnsembleResult",
    "trajectory_rng",
    "trajectory_normals",
    "unravel_step",
    "run_trajectory",
    "run_ensemble",
    "bin_ensemble",
    "ensemble_to_hybrid",
    "estimate_km_moments",
]

_MASK64 = (1 << 64) - 1

# Trajectories integrated together; bounds the (chunk, n_steps + 1) noise
# buffer, which is drawn per chunk (1e5 rows of 151 draws at once would take
# 120 MB).  Outputs do not depend on it: each row draws from its own stream.
_CHUNK = 1024
# Largest fraction of trajectories `bin_ensemble` lets fall outside its grid.
OUTSIDE_LIMIT = 1e-3


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory."""
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trajectory_normals(master_seed: int, start: int, n_rows: int, n_draws: int) -> np.ndarray:
    """(n_rows, n_draws) normals; row i is the start of trajectory_rng(master_seed, start + i).

    One generator replays every row: its Philox state is reset to a fresh one with the row's key.
    """
    rng = trajectory_rng(master_seed, start)
    bits = rng.bit_generator
    fresh = bits.state
    key = fresh["state"]["key"]
    out = np.empty((n_rows, n_draws))
    for i in range(n_rows):
        key[1] = (start + i) & _MASK64
        bits.state = fresh
        out[i] = rng.standard_normal(n_draws)
    return out


@dataclass(frozen=True)
class Trajectory:
    """One realization of the coupled signal/state equations."""

    times: np.ndarray
    z: np.ndarray
    psi: np.ndarray  # (n_steps + 1, d), unit rows
    norm_defect: np.ndarray  # (n_steps,), per-step |  ||psi_raw|| - 1 |

    def at_time(self, t: float):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * (1.0 + abs(t)):
            raise ValueError(f"trajectory has no sample at t={t}")
        return self.z[idx], self.psi[idx]


@dataclass(frozen=True)
class EnsembleResult:
    """Final-time snapshot of an ensemble, row 0's history, optional signal history."""

    z: np.ndarray  # (n,)
    psi: np.ndarray  # (n, d)
    first: Trajectory  # row 0, every step
    z_series: Optional[np.ndarray] = None  # (n, n_recorded) signal history


def _step_arrays(m: MeasurementModel, psi, z, dt, xi):
    """Vectorized Euler-Maruyama update; psi (n, d), z (n,), xi (n,)."""
    k = np.asarray(m.k(z), dtype=float)
    if np.any(k <= 0.0):
        bad = z[np.argmin(k)]
        raise ValueError(f"measurement strength k(z) <= 0 at visited z={bad:g}")
    z_op = np.asarray(m.z_op(z), dtype=complex)
    d_xi = xi * np.sqrt(dt)

    z_psi = np.einsum("nij,nj->ni", z_op, psi)
    exp_z = np.einsum("ni,ni->n", psi.conj(), z_psi).real
    a_psi = z_psi - exp_z[:, None] * psi
    a2_psi = np.einsum("nij,nj->ni", z_op, a_psi) - exp_z[:, None] * a_psi

    delta = (-k * dt)[:, None] * a2_psi + (np.sqrt(2.0 * k) * d_xi)[:, None] * a_psi
    if m.h is not None and np.abs(m.h).max() > 0.0:
        delta = delta + (-1j / m.hbar) * dt * np.einsum("ij,nj->ni", m.h, psi)
    psi_raw = psi + delta
    norms = np.sqrt(np.einsum("ni,ni->n", psi_raw.conj(), psi_raw).real)
    psi_new = psi_raw / norms[:, None]
    z_new = z + exp_z * dt + d_xi / np.sqrt(8.0 * k)
    return psi_new, z_new, norms


def unravel_step(m: MeasurementModel, psi, z, dt, xi):
    """Single-trajectory step; returns (psi', z').

    ``xi`` is a standard normal draw; the Wiener increment is xi*sqrt(dt).
    """
    psi = np.asarray(psi, dtype=complex)
    psi_new, z_new, _ = _step_arrays(m, psi[None, :], np.atleast_1d(float(z)), float(dt), np.atleast_1d(float(xi)))
    return psi_new[0], float(z_new[0])


def run_trajectory(m: MeasurementModel, psi0, z0, dt, n_steps, seed, z0_sigma=0.0) -> Trajectory:
    """Integrate one trajectory: row 0 of a one-row `run_ensemble`.

    ``z0_sigma`` > 0 draws the initial signal from N(z0, z0_sigma^2) using
    the trajectory's own stream (initial classical uncertainty).
    """
    return run_ensemble(m, psi0, z0, dt, n_steps, seed, 1, z0_sigma=z0_sigma).first


def run_ensemble(
    m: MeasurementModel,
    psi0,
    z0,
    dt,
    n_steps,
    master_seed,
    n_trajectories,
    signal_stride=0,
    z0_sigma=0.0,
) -> EnsembleResult:
    """Integrate an ensemble with per-trajectory Philox streams.

    ``signal_stride`` > 0 records the signal every that many steps (plus the
    endpoints) for moment estimation.  ``z0_sigma`` > 0 draws each initial
    signal from N(z0, z0_sigma^2) with the first draw of its row's stream.
    Trajectories are integrated in chunks of fixed size, each writing its
    slice of the preallocated results; row 0's signal, state and norm
    defect are recorded at every step as ``first``.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    d = psi0.shape[0]
    n = int(n_trajectories)
    if n < 1:
        raise ValueError(f"an ensemble needs at least one trajectory, got {n}")
    z_final = np.empty(n)
    psi_final = np.empty((n, d), dtype=complex)
    first_z = np.empty(n_steps + 1)
    first_psi = np.empty((n_steps + 1, d), dtype=complex)
    defects = np.empty(n_steps)
    record_idx = None
    z_series = None
    if signal_stride > 0:
        record_idx = np.unique(np.r_[0, np.arange(signal_stride, n_steps, signal_stride), n_steps])
        z_series = np.empty((n, record_idx.size))

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        xis = trajectory_normals(master_seed, lo, hi - lo, n_steps + (z0_sigma > 0.0))
        z = np.full(hi - lo, float(z0))
        if z0_sigma > 0.0:
            z += z0_sigma * xis[:, 0]
            xis = xis[:, 1:]
        psi = np.broadcast_to(psi0, (hi - lo, d)).copy()
        if lo == 0:
            first_z[0], first_psi[0] = z[0], psi[0]
        col = 0
        if record_idx is not None and record_idx[0] == 0:
            z_series[lo:hi, 0] = z
            col = 1
        for step in range(n_steps):
            psi, z, norms = _step_arrays(m, psi, z, dt, xis[:, step])
            if lo == 0:
                first_z[step + 1], first_psi[step + 1] = z[0], psi[0]
                defects[step] = abs(norms[0] - 1.0)
            if record_idx is not None and col < record_idx.size and record_idx[col] == step + 1:
                z_series[lo:hi, col] = z
                col += 1
        z_final[lo:hi] = z
        psi_final[lo:hi] = psi

    return EnsembleResult(
        z=z_final,
        psi=psi_final,
        first=Trajectory(np.arange(n_steps + 1) * dt, first_z, first_psi, defects),
        z_series=z_series,
    )


def bin_ensemble(z, psi, grid: PhaseGrid) -> HybridState:
    """Reconstruct the hybrid state by binning signals on a 1-axis grid.

    cell(z) = (1/N) sum_{trajectories in cell} |psi><psi| / cell_volume, so
    the total trace is exactly 1 before float error.  Aborts when more than
    `OUTSIDE_LIMIT` of the trajectories fall outside the grid.
    """
    if grid.ndim != 1:
        raise ValueError("bin_ensemble needs a single-axis grid (the signal axis)")
    z = np.asarray(z, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    n, d = psi.shape
    edges = grid.edges(grid.axes[0].name)
    idx = np.searchsorted(edges, z, side="right") - 1
    inside = (idx >= 0) & (idx < grid.axes[0].n)
    frac_out = 1.0 - inside.sum() / n
    if frac_out > OUTSIDE_LIMIT:
        raise ValueError(
            f"{frac_out:.2%} of trajectories fall outside the grid (limit {OUTSIDE_LIMIT:.2%})"
        )
    cells = np.zeros((grid.axes[0].n, d, d), dtype=complex)
    outer = psi[inside][:, :, None] * psi[inside].conj()[:, None, :]
    np.add.at(cells, idx[inside], outer)
    cells /= inside.sum() * grid.cell_volume
    return HybridState(grid, cells)


def ensemble_to_hybrid(trajectories, grid: PhaseGrid, t: float) -> HybridState:
    """Bin a collection of `Trajectory` objects at the common time ``t``."""
    zs = []
    psis = []
    for traj in trajectories:
        z, psi = traj.at_time(t)
        zs.append(z)
        psis.append(psi)
    return bin_ensemble(np.array(zs), np.array(psis), grid)


def estimate_km_moments(trajectories, dt, n_bins=20, bin_range=None):
    """Empirical Kramers-Moyal drift and diffusion, binned over z.

    Per bin, D1 = mean(dz)/dt and D2 = Var(dz)/dt, conditioned on the bin
    of the pre-step value (second moment convention: variance D2*dt).
    Accepts a signal array (one row per trajectory), a single Trajectory,
    or a sequence of them sharing the lag ``dt``.
    Returns (bin_centers, d1, d2, counts); empty bins hold NaN.
    """
    if isinstance(trajectories, Trajectory):
        z_series = trajectories.z
    elif isinstance(trajectories, (list, tuple)) and trajectories and isinstance(
        trajectories[0], Trajectory
    ):
        z_series = np.stack([t.z for t in trajectories])
    else:
        z_series = trajectories
    z_series = np.atleast_2d(np.asarray(z_series, dtype=float))
    starts = z_series[:, :-1].ravel()
    increments = (z_series[:, 1:] - z_series[:, :-1]).ravel()
    if bin_range is None:
        bin_range = (starts.min(), starts.max() + 1e-12)
    edges = np.linspace(bin_range[0], bin_range[1], n_bins + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    which = np.digitize(starts, edges) - 1
    d1 = np.full(n_bins, np.nan)
    d2 = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = increments[which == b]
        counts[b] = sel.size
        if sel.size >= 2:
            d1[b] = sel.mean() / dt
            d2[b] = sel.var(ddof=1) / dt
    return centers, d1, d2, counts
