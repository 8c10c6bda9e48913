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
history; a single trajectory is a one-row ensemble.  The pass works in
component-major layout: a chunk's states are a (d, n) array and Z(z) is
copied once per step to (d, d, n), so each operation of the step is one
long loop over the chunk's trajectories rather than n loops of length d.
The ensemble's results are row-major, psi (n, d).  Randomness comes from
counter-based Philox streams keyed on (master_seed, trajectory_index), so
ensembles are order-independent and bitwise reproducible; ensemble
reductions always run in trajectory-index order.  Chunks are therefore
independent: they run in forked worker processes, one per CPU in the
affinity mask, and are put back together in chunk order, so the outputs do
not depend on the number of workers.

`bin_ensemble` is cqsim's one ensemble histogram: it turns an ensemble of
grid points -- signals here, (q, p) path endpoints in `paths` -- with
optional pure states and weights into a `HybridState` on a grid of any
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .generator import _check_dt, _count
from .grids import PhaseGrid
from .models import MeasurementModel
from .pool import _map_chunks
from .state import HybridState

__all__ = [
    "Trajectory",
    "EnsembleResult",
    "trajectory_rng",
    "trajectory_normals",
    "run_trajectory",
    "run_ensemble",
    "bin_ensemble",
    "outside_frac",
    "estimate_km_moments",
]

# Seeds and row indices are the two 64-bit words of a Philox key.
SEED_LIMIT = 1 << 64

# Trajectories integrated together, as the n of the step's (d, n) states.
# Bounds the (chunk, n_steps + 1) noise buffer, which is drawn per chunk:
# 4096 x 151 floats is 4.9 MB at 150 steps, where 1e5 rows at once would take
# 120 MB.  Outputs do not depend on it: each row draws from its own stream.
_CHUNK = 4096
# Largest share of an ensemble (by weight when weighted) `bin_ensemble` lets fall outside its grid.
OUTSIDE_LIMIT = 1e-3


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory, keyed by two words in [0, 2^64)."""
    for name, word in (("master_seed", master_seed), ("index", index)):
        if not 0 <= word < SEED_LIMIT:
            raise ValueError(f"{name} must lie in [0, 2**64), got {word!r}")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trajectory_normals(master_seed: int, start: int, n_rows: int, n_draws: int) -> np.ndarray:
    """(n_rows, n_draws) normals; row i is the start of trajectory_rng(master_seed, start + i).

    One generator replays every row: its Philox state is reset to a fresh one with the row's key,
    from a state of plain ints, which the setter reads faster than numpy arrays.
    """
    rng = trajectory_rng(master_seed, start)
    if start + n_rows > SEED_LIMIT:
        raise ValueError(f"index must lie in [0, 2**64), got {start + n_rows - 1!r}")
    bits = rng.bit_generator
    fresh = bits.state
    # its arrays (counter, key, buffer) as lists of ints
    fresh = dict(fresh, state={k: a.tolist() for k, a in fresh["state"].items()},
                 buffer=fresh["buffer"].tolist())
    key = fresh["state"]["key"]
    out = np.empty((n_rows, n_draws))
    for i in range(n_rows):
        key[1] = start + i
        bits.state = fresh
        rng.standard_normal(out=out[i])
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
    """Final-time snapshot of an ensemble and row 0's history: what a run reads."""

    z: np.ndarray  # (n,)
    psi: np.ndarray  # (n, d)
    first: Trajectory  # row 0, every step
    max_norm_defect: float  # largest |  ||psi_raw|| - 1 | over all rows and steps


def _step_arrays(m: MeasurementModel, psi, z, dt, xi):
    """Vectorized Euler-Maruyama update; psi (d, n), z (n,), xi (n,).

    Component-major: every operation runs over the n trajectories in one
    long contiguous loop, with z_op(z) copied to a (d, d, n) array.
    """
    k = np.asarray(m.k(z), dtype=float)
    if not 0.0 < k.min() <= k.max() < np.inf:  # NaN fails too: min and max propagate it
        at = int(np.argmax(~((k > 0.0) & (k < np.inf))))
        what = "<= 0" if k.flat[at] <= 0.0 else "not finite"
        raise ValueError(f"measurement strength k(z) {what} at visited z={z[at]:g}")
    z_op = np.asarray(m.z_op(z), dtype=complex).transpose(1, 2, 0).copy()
    d_xi = xi * np.sqrt(dt)

    z_psi = np.einsum("ijn,jn->in", z_op, psi)
    exp_z = np.einsum("in,in->n", psi.conj(), z_psi).real
    # The products go into the (d, n) buffers z_psi, a_psi and a2_psi: the
    # arithmetic of fresh-array expressions, without a new array (and its
    # page faults) per operation.
    a_psi = exp_z * psi
    np.subtract(z_psi, a_psi, out=a_psi)  # (Z - <Z>) psi
    a2_psi = np.einsum("ijn,jn->in", z_op, a_psi)
    a2_psi -= np.multiply(exp_z, a_psi, out=z_psi)  # (Z - <Z>)^2 psi

    delta = np.multiply(-k * dt, a2_psi, out=a2_psi)
    delta += np.multiply(np.sqrt(2.0 * k) * d_xi, a_psi, out=a_psi)
    if m.h is not None and np.abs(m.h).max() > 0.0:
        delta += (-1j / m.hbar) * dt * np.einsum("ij,jn->in", m.h, psi)
    psi_new = np.add(psi, delta, out=delta)
    norms = np.sqrt(np.einsum("in,in->n", psi_new.conj(), psi_new).real)
    # renormalize in place: both parts times 1/norm, the bits of dividing by norm
    inv = 1.0 / norms
    psi_new.real *= inv
    psi_new.imag *= inv
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
    z0_sigma=0.0,
) -> EnsembleResult:
    """Integrate an ensemble with per-trajectory Philox streams.

    Returns every row's final signal ``z`` and state ``psi``, row 0's
    signal, state and norm defect at every step as ``first``, and the
    largest norm defect over all rows and steps.  ``z0_sigma`` > 0 draws
    each initial signal from N(z0, z0_sigma^2) with the first draw of its
    row's stream.  Trajectories are integrated in chunks of fixed size by
    `_integrate_chunk`, in forked workers when there are several chunks and
    CPUs (see `_map_chunks`), and the chunks' results are put together in
    chunk order.  A ``psi0`` that does not fit the model's levels, or is not
    finite, or has no norm, a ``dt`` that is not a finite number > 0 and a
    count that is not a whole number in range are refused with a ValueError.
    """
    _check_dt(dt)
    n_steps = _count("n_steps", n_steps, 0)
    n = _count("n_trajectories", n_trajectories, 1)
    psi0 = np.asarray(psi0, dtype=complex)
    d = m.hilbert_dim
    if psi0.shape != (d,):
        raise ValueError(f"psi0 of shape {psi0.shape} does not fit a model of {d} levels")
    if not np.all(np.isfinite(psi0)):
        raise ValueError("psi0 entries must be finite")
    norm = np.linalg.norm(psi0)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"psi0 must have a finite nonzero norm, got {norm:g}")
    psi0 = psi0 / norm

    job = partial(_integrate_chunk, m, psi0, float(z0), dt, n_steps, master_seed, z0_sigma)
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    z_final = np.empty(n)
    psi_final = np.empty((n, d), dtype=complex)
    worst = 0.0
    for (lo, hi), (z, psi, chunk_worst, first) in zip(bounds, _map_chunks(job, bounds)):
        z_final[lo:hi] = z
        psi_final[lo:hi] = psi
        worst = max(worst, chunk_worst)
        if lo == 0:
            first_z, first_psi, defects = first

    return EnsembleResult(
        z=z_final,
        psi=psi_final,
        first=Trajectory(np.arange(n_steps + 1) * dt, first_z, first_psi, defects),
        max_norm_defect=float(worst),
    )


def _integrate_chunk(m, psi0, z0, dt, n_steps, master_seed, z0_sigma, lo, hi):
    """Integrate rows lo..hi-1 of an ensemble: the one Euler-Maruyama loop.

    Returns (z (rows,), psi (rows, d), worst |norm - 1|, and for the chunk
    at lo = 0 row 0's (z, psi, norm defect) at every step, else None).  Row
    0's history is the only thing recorded along the way.
    """
    xis = trajectory_normals(master_seed, lo, hi - lo, n_steps + (z0_sigma > 0.0))
    z = np.full(hi - lo, z0)
    if z0_sigma > 0.0:
        z += z0_sigma * xis[:, 0]
        xis = xis[:, 1:]
    psi = np.broadcast_to(psi0[:, None], (psi0.size, hi - lo)).copy()
    if lo == 0:
        first_z = np.empty(n_steps + 1)
        first_psi = np.empty((n_steps + 1, psi0.size), dtype=complex)
        defects = np.empty(n_steps)
        first_z[0], first_psi[0] = z[0], psi[:, 0]
    worst = 0.0
    for step in range(n_steps):
        psi, z, norms = _step_arrays(m, psi, z, dt, xis[:, step])
        # max |norm - 1| from the extremes, as x - 1 rounds monotonically
        worst = max(worst, norms.max() - 1.0, 1.0 - norms.min())
        if lo == 0:
            first_z[step + 1], first_psi[step + 1] = z[0], psi[:, 0]
            defects[step] = abs(norms[0] - 1.0)
    return z, psi.T, worst, (first_z, first_psi, defects) if lo == 0 else None


def _locate(z, grid: PhaseGrid):
    """(per-axis cell indices, inside mask) of the members with grid coordinates ``z``."""
    z = np.asarray(z, dtype=float)
    coords = z[:, None] if z.ndim == 1 else z
    if coords.ndim != 2 or coords.shape[1] != grid.ndim:
        raise ValueError(f"z of shape {z.shape} does not fit a {grid.ndim}-axis grid")
    idx = []
    inside = np.ones(coords.shape[0], dtype=bool)
    for k, ax in enumerate(grid.axes):
        i = np.searchsorted(grid.edges(ax.name), coords[:, k], side="right") - 1
        inside &= (i >= 0) & (i < ax.n)
        idx.append(i)
    return idx, inside


def outside_frac(z, grid: PhaseGrid) -> float:
    """Share of the members with grid coordinates ``z`` that fall outside ``grid``.

    The members are located as `bin_ensemble` locates them; an empty
    ensemble has none outside.
    """
    _, inside = _locate(z, grid)
    return 1.0 - inside.sum() / inside.size if inside.size else 0.0


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
    idx, inside = _locate(z, grid)
    n = inside.size
    psi = np.ones((n, 1), dtype=complex) if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape[0] != n:
        raise ValueError(f"psi has {psi.shape[0]} rows but z has {n}")
    if n == 0:
        raise ValueError("cannot bin an empty ensemble")
    d = psi.shape[1]
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
    members = psi[inside]
    outer = members[:, :, None] * members.conj()[:, None, :]
    if weights is not None:
        outer *= w[inside][:, None, None]
    np.add.at(cells, tuple(i[inside] for i in idx), outer)
    cells /= kept * grid.cell_volume
    return HybridState(grid, cells)


def estimate_km_moments(z_series, dt, n_bins=20):
    """Empirical Kramers-Moyal drift and diffusion, binned over z.

    Per bin, D1 = mean(dz)/dt and D2 = Var(dz)/dt, conditioned on the bin
    of the pre-step value (second moment convention: variance D2*dt).
    ``z_series`` is a signal array, one row per trajectory sampled at the
    lag ``dt`` (a 1-d array is one trajectory, such as `Trajectory.z`); the
    ``n_bins`` equal bins span its pre-step values.
    Returns (bin_centers, d1, d2, counts); empty bins hold NaN.
    """
    z_series = np.atleast_2d(np.asarray(z_series, dtype=float))
    starts = z_series[:, :-1].ravel()
    increments = (z_series[:, 1:] - z_series[:, :-1]).ravel()
    # the largest start must lie below the last edge, also where 1e-12 rounds away
    top = starts.max()
    edges = np.linspace(starts.min(), max(top + 1e-12, np.nextafter(top, np.inf)), n_bins + 1)
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
