"""Discretized path weights: Onsager-Machlup, Feynman-Vernon, anomalous.

A classical path enters the hybrid path integral with weight
exp(-OM - FV - anomalous), where for a (q, p) path with steps dt:

  * the Onsager-Machlup part sums (dt/2) r_k^2 / D2(q_k) with residual
    r_k = (p_{k+1} - p_k)/dt + dH_c/dq(q_k) (+ the branch-averaged
    interaction force (l_a + l_b)/2 when a branch pair is supplied) --
    paths are suppressed by their deviation from the averaged drift;
  * the q-component is constrained, not weighted: q_{k+1} - q_k must equal
    (p_k/m) dt exactly (the zero-diffusion direction yields a delta
    functional), otherwise the path is rejected;
  * the anomalous part sums (1/2) log D2(q_k) per step, the state-dependent
    normalization of the Gaussian increments (constant for constant D2);
  * the Feynman-Vernon part sums dt (D0/2)(l_a - l_b)^2, damping
    cross-branch components.

All q-dependent coefficients are evaluated at the pre-point (Ito), matching
the Euler-Maruyama sampler `sample_path_ensemble` (one step for all paths
at once, path i's noise from the stream keyed (seed, i)); the
weight/transition-density duality is exact step by step, which is the
module's core consistency check.  Branch pairs index the fixed eigenbasis of dV_I/dq, whose labels
depend on the model alone, and stay constant along a path (diagonal
models).  Functions taking ``diag`` accept a `diagonalize_model` result so
that a caller evaluating many paths diagonalizes once.

A `ClassicalPath` is one path (q, p of shape (n_steps + 1,)) or a batch
(shape (n_paths, n_steps + 1)); the exponents sum over the last axis, one
value per row, each bit-equal to scoring that row alone.

Configuration-space weights replace the residual by the Euler-Lagrange
defect m qddot + dV/dq + averaged force, with qddot the central second
difference.

The weighted endpoint histogram of an ensemble is
``unravel.bin_ensemble(np.column_stack([q_end, p_end]), None, grid, weights)``
on a (q, p) grid, the same binning the trajectory unraveling uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generator import _check_dt, _count
from .models import CQModel, DiagonalizedModel, diagonalize_model
from .unravel import trajectory_normals

__all__ = [
    "ClassicalPath",
    "BranchPair",
    "PathRejectedError",
    "om_action",
    "anomalous_term",
    "fv_action",
    "sample_path",
    "sample_path_ensemble",
    "config_action",
]

CONSTRAINT_TOL = 1e-12


class PathRejectedError(ValueError):
    """Path violates the q-constraint or visits non-positive diffusion."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ClassicalPath:
    """Uniformly sampled classical path or batch of rows; p is optional for q-space use."""

    dt: float
    q: np.ndarray
    p: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim not in (1, 2) or q.shape[-1] < 2:
            raise ValueError("q must be a 1-d or 2-d array with at least 2 samples per path")
        object.__setattr__(self, "q", q)
        if self.p is not None:
            p = np.asarray(self.p, dtype=float)
            if p.shape != q.shape:
                raise ValueError("p must match the shape of q")
            object.__setattr__(self, "p", p)
        if not (self.dt > 0):
            raise ValueError("dt must be positive")

    @property
    def n_steps(self) -> int:
        return self.q.shape[-1] - 1


@dataclass(frozen=True)
class BranchPair:
    """Pair of eigenbranch indices (bra/ket) held fixed along a path."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("branch indices must be nonnegative")


def _branch_levels(model: CQModel, qs, pair: BranchPair, diag: Optional[DiagonalizedModel] = None):
    """Eigenvalues l_a(q), l_b(q) of dV_I/dq along the path."""
    if diag is None:
        diag = diagonalize_model(model, np.unique(qs))
    d = model.hilbert_dim
    if pair.a >= d or pair.b >= d:
        raise ValueError(f"branch pair {pair} out of range for Hilbert dimension {d}")
    levels = np.asarray(diag.dv_eigs(qs), dtype=float)
    return levels[..., pair.a], levels[..., pair.b]


def _drift_force(
    model: CQModel, qs, pair: Optional[BranchPair], diag: Optional[DiagonalizedModel] = None
):
    """dH_c/dq plus the branch-averaged interaction force."""
    force = np.asarray(model.dpotential(qs), dtype=float)
    if pair is not None:
        la, lb = _branch_levels(model, qs, pair, diag)
        force = force + 0.5 * (la + lb)
    return force


def _first_bad(bad):
    """(index tuple, step, " of path i" for a batch) of the first True entry."""
    where = np.unravel_index(int(np.argmax(bad)), bad.shape)
    step = int(where[-1])
    return where, step, (f" of path {int(where[0])}" if bad.ndim == 2 else "")


def _check_constraint(path: ClassicalPath, model: CQModel):
    if path.p is None:
        raise PathRejectedError("phase-space action needs a path with a p array")
    gap = path.q[..., 1:] - path.q[..., :-1] - (path.p[..., :-1] / model.mass) * path.dt
    bad = np.abs(gap) > CONSTRAINT_TOL
    if np.any(bad):
        where, step, row = _first_bad(bad)
        raise PathRejectedError(
            f"q-constraint violated at step {step}{row}: |gap| = {np.abs(gap[where]):.3e}",
            index=step,
        )


def _positive_d2(model: CQModel, qs):
    d2 = np.asarray(model.d2(qs), dtype=float)
    if np.any(d2 <= 0.0):
        where, step, row = _first_bad(d2 <= 0.0)
        raise PathRejectedError(
            f"D2(q) <= 0 at step {step}{row} (q={qs[where]:g}); positive-eigenvalue branch only",
            index=step,
        )
    return d2


def om_action(
    path: ClassicalPath,
    model: CQModel,
    pair: Optional[BranchPair] = None,
    diag: Optional[DiagonalizedModel] = None,
) -> float:
    """Onsager-Machlup suppression exponent of a constraint-satisfying path."""
    _check_constraint(path, model)
    q_pre = path.q[..., :-1]
    d2 = _positive_d2(model, q_pre)
    r = (path.p[..., 1:] - path.p[..., :-1]) / path.dt + _drift_force(model, q_pre, pair, diag)
    return np.sum(0.5 * path.dt * r * r / d2, axis=-1)


def anomalous_term(path: ClassicalPath, model: CQModel) -> float:
    """Per-step (1/2) log D2(q_k); the state-dependent measure contribution."""
    d2 = _positive_d2(model, path.q[..., :-1])
    return np.sum(0.5 * np.log(d2), axis=-1)


def fv_action(
    path: ClassicalPath,
    model: CQModel,
    pair: BranchPair,
    diag: Optional[DiagonalizedModel] = None,
) -> float:
    """Feynman-Vernon damping exponent sum dt (D0/2)(l_a - l_b)^2 >= 0."""
    q_pre = path.q[..., :-1]
    la, lb = _branch_levels(model, q_pre, pair, diag)
    d0 = np.asarray(model.d0(q_pre), dtype=float)
    return np.sum(path.dt * 0.5 * d0 * (la - lb) ** 2, axis=-1)


def sample_path(
    model: CQModel,
    q0: float,
    p0: float,
    n_steps: int,
    dt: float,
    pair: Optional[BranchPair] = None,
    seed: int = 0,
) -> ClassicalPath:
    """Euler-Maruyama sample of the path measure implied by the OM weight.

    p_{k+1} = p_k - force(q_k) dt + sqrt(D2(q_k) dt) xi_k and
    q_{k+1} = q_k + (p_k/m) dt; deterministic per seed.
    """
    qs, ps = sample_path_ensemble(model, q0, p0, n_steps, dt, 1, pair, seed)
    return ClassicalPath(dt=dt, q=qs[0], p=ps[0])


def sample_path_ensemble(
    model: CQModel,
    q0: float,
    p0: float,
    n_steps: int,
    dt: float,
    n_paths: int,
    pair: Optional[BranchPair] = None,
    seed: int = 0,
):
    """Ensemble of sampled paths; returns (q, p) arrays of shape (n, steps+1).

    Path i draws its noise from the stream keyed (seed, i); ``q0`` and
    ``p0`` are scalars or per-path arrays.  A ``dt`` that is not a finite
    number > 0, ``n_steps`` < 0 or ``n_paths`` < 1 is refused with a ValueError.
    """
    _check_dt(dt)
    n_steps = _count("n_steps", n_steps, 0)
    n_paths = _count("n_paths", n_paths, 1)
    diag = None if pair is None else diagonalize_model(model, np.unique(q0))
    xis = trajectory_normals(seed, 0, n_paths, n_steps)
    qs = np.empty((n_paths, n_steps + 1))
    ps = np.empty((n_paths, n_steps + 1))
    qs[:, 0] = q0  # scalar or per-path array, broadcast either way
    ps[:, 0] = p0
    for k in range(n_steps):
        qk = qs[:, k]
        pk = ps[:, k]
        d2 = np.asarray(model.d2(qk), dtype=float)
        if np.any(d2 <= 0.0):
            raise PathRejectedError(f"D2(q) <= 0 visited at step {k}", index=k)
        force = _drift_force(model, qk, pair, diag)
        ps[:, k + 1] = pk - force * dt + np.sqrt(d2 * dt) * xis[:, k]
        qs[:, k + 1] = qk + (pk / model.mass) * dt
    return qs, ps


def config_action(path: ClassicalPath, model: CQModel, pair: Optional[BranchPair] = None) -> float:
    """Configuration-space weight from the Euler-Lagrange residual.

    Uses second differences qddot_k = (q_{k+1} - 2 q_k + q_{k-1})/dt^2 at
    the interior points; the path must carry no p array.
    """
    if path.p is not None:
        raise ValueError("config_action expects a q-only path (no p array)")
    q = path.q
    if q.size < 3:
        raise ValueError("config_action needs at least 3 samples")
    dt = path.dt
    q_in = q[1:-1]
    qddot = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / (dt * dt)
    d2 = _positive_d2(model, q_in)
    residual = model.mass * qddot + _drift_force(model, q_in, pair)
    return float(np.sum(0.5 * dt * residual * residual / d2))
