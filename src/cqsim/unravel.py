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

`bin_ensemble` is cqsim's one ensemble histogram: it turns an ensemble of
grid points -- signals here, (q, p) path endpoints in `paths` -- with
optional pure states and weights into a `HybridState` on a grid of any
dimension.
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
    "run_trajectory",
    "run_ensemble",
    "bin_ensemble",
    "estimate_km_moments",
]

_MASK64 = (1 << 64) - 1

# Trajectories integrated together; bounds the (chunk, n_steps + 1) noise
# buffer, which is drawn per chunk (1e5 rows of 151 draws at once would take
# 120 MB).  Outputs do not depend on it: each row draws from its own stream.
_CHUNK = 1024
# Largest share of an ensemble (by weight when weighted) `bin_ensemble` lets fall outside its grid.
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


def bin_ensemble(z, psi, grid: PhaseGrid, weights=None) -> HybridState:
    """Reconstruct the hybrid state by binning an ensemble on the grid.

    ``z`` holds each member's grid coordinates, shape (n, grid.ndim), or
    (n,) on a 1-axis grid.  ``psi`` (n, d) holds each member's state, or
    None for a classical ensemble (d = 1).  ``weights`` (n,), when given,
    scales each member's |psi><psi|, and the outside share and the
    normalization count weight instead of members:

        cell(z) = sum_{members in cell} w |psi><psi| / (W_inside * cell_volume),

    so the total trace is exactly 1 before float error.  Aborts when more
    than `OUTSIDE_LIMIT` of the ensemble falls outside the grid.
    """
    z = np.asarray(z, dtype=float)
    coords = z[:, None] if z.ndim == 1 else z
    if coords.ndim != 2 or coords.shape[1] != grid.ndim:
        raise ValueError(f"z of shape {z.shape} does not fit a {grid.ndim}-axis grid")
    n = coords.shape[0]
    psi = np.ones((n, 1), dtype=complex) if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape[0] != n:
        raise ValueError(f"psi has {psi.shape[0]} rows but z has {n}")
    if n == 0:
        raise ValueError("cannot bin an empty ensemble")
    d = psi.shape[1]
    idx = []
    inside = np.ones(n, dtype=bool)
    for k, ax in enumerate(grid.axes):
        i = np.searchsorted(grid.edges(ax.name), coords[:, k], side="right") - 1
        inside &= (i >= 0) & (i < ax.n)
        idx.append(i)
    if weights is None:
        total, kept = n, inside.sum()
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights has {w.size} entries but z has {n}")
        total, kept = w.sum(), w[inside].sum()
        if not total > 0.0:
            raise ValueError(f"total ensemble weight must be positive, got {total:g}")
    frac_out = 1.0 - kept / total
    if frac_out > OUTSIDE_LIMIT:
        raise ValueError(
            f"{frac_out:.2%} of the ensemble falls outside the grid (limit {OUTSIDE_LIMIT:.2%})"
        )
    cells = np.zeros(grid.shape + (d, d), dtype=complex)
    outer = psi[inside][:, :, None] * psi[inside].conj()[:, None, :]
    if weights is not None:
        outer *= w[inside][:, None, None]
    np.add.at(cells, tuple(i[inside] for i in idx), outer)
    cells /= kept * grid.cell_volume
    return HybridState(grid, cells)


def estimate_km_moments(z_series, dt, n_bins=20, bin_range=None):
    """Empirical Kramers-Moyal drift and diffusion, binned over z.

    Per bin, D1 = mean(dz)/dt and D2 = Var(dz)/dt, conditioned on the bin
    of the pre-step value (second moment convention: variance D2*dt).
    ``z_series`` is a signal array, one row per trajectory sampled at the
    lag ``dt`` (a 1-d array is one trajectory).
    Returns (bin_centers, d1, d2, counts); empty bins hold NaN.
    """
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
