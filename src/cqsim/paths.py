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
the Euler-Maruyama sampler `sample_path`; the weight/transition-density
duality is exact step by step, which is the module's core consistency
check.  Branch pairs index the fixed eigenbasis of dV_I/dq, whose labels
depend on the model alone, and stay constant along a path (diagonal
models).  Functions taking ``diag`` accept a `diagonalize_model` result so
that a caller evaluating many paths diagonalizes once.

Configuration-space weights replace the residual by the Euler-Lagrange
defect m qddot + dV/dq + averaged force, with qddot the central second
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import PhaseGrid
from .models import CQModel, DiagonalizedModel, diagonalize_model

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
    "marginal_from_paths",
]

CONSTRAINT_TOL = 1e-12


class PathRejectedError(ValueError):
    """Path violates the q-constraint or visits non-positive diffusion."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ClassicalPath:
    """Uniformly sampled classical path; p is optional for q-space use."""

    dt: float
    q: np.ndarray
    p: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("q must be a 1-d array with at least 2 samples")
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
        return self.q.size - 1


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


def _check_constraint(path: ClassicalPath, model: CQModel):
    if path.p is None:
        raise PathRejectedError("phase-space action needs a path with a p array")
    gap = path.q[1:] - path.q[:-1] - (path.p[:-1] / model.mass) * path.dt
    bad = np.abs(gap) > CONSTRAINT_TOL
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PathRejectedError(
            f"q-constraint violated at step {idx}: |gap| = {np.abs(gap[idx]):.3e}", index=idx
        )


def _positive_d2(model: CQModel, qs):
    d2 = np.asarray(model.d2(qs), dtype=float)
    if np.any(d2 <= 0.0):
        idx = int(np.argmax(d2 <= 0.0))
        raise PathRejectedError(
            f"D2(q) <= 0 at step {idx} (q={qs[idx]:g}); positive-eigenvalue branch only",
            index=idx,
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
    q_pre = path.q[:-1]
    d2 = _positive_d2(model, q_pre)
    r = (path.p[1:] - path.p[:-1]) / path.dt + _drift_force(model, q_pre, pair, diag)
    return float(np.sum(0.5 * path.dt * r * r / d2))


def anomalous_term(path: ClassicalPath, model: CQModel) -> float:
    """Per-step (1/2) log D2(q_k); the state-dependent measure contribution."""
    q_pre = path.q[:-1]
    d2 = _positive_d2(model, q_pre)
    return float(np.sum(0.5 * np.log(d2)))


def fv_action(
    path: ClassicalPath,
    model: CQModel,
    pair: BranchPair,
    diag: Optional[DiagonalizedModel] = None,
) -> float:
    """Feynman-Vernon damping exponent sum dt (D0/2)(l_a - l_b)^2 >= 0."""
    q_pre = path.q[:-1]
    la, lb = _branch_levels(model, q_pre, pair, diag)
    d0 = np.asarray(model.d0(q_pre), dtype=float)
    return float(np.sum(path.dt * 0.5 * d0 * (la - lb) ** 2))


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
    ``p0`` are scalars or per-path arrays.
    """
    from .unravel import trajectory_rng

    diag = None if pair is None else diagonalize_model(model, np.unique(q0))
    xis = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        xis[i] = trajectory_rng(seed, i).standard_normal(n_steps)
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


def marginal_from_paths(q_end, p_end, weights, grid: PhaseGrid) -> np.ndarray:
    """Weighted endpoint histogram as a classical density over a (q, p) grid."""
    if grid.ndim != 2:
        raise ValueError("marginal_from_paths needs a (q, p) grid")
    w = np.ones_like(np.asarray(q_end, dtype=float)) if weights is None else np.asarray(weights, dtype=float)
    hist, _, _ = np.histogram2d(
        np.asarray(q_end, dtype=float),
        np.asarray(p_end, dtype=float),
        bins=[grid.edges(grid.axes[0].name), grid.edges(grid.axes[1].name)],
        weights=w,
    )
    total = w.sum() * grid.cell_volume
    if total <= 0:
        raise ValueError("total path weight must be positive")
    return hist / total
