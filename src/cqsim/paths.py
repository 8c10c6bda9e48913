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
module's core consistency check.  Branch pairs index the eigenbasis that
`diagonalize_model` fixes once from the model alone, and stay constant
along a path.  Every branch level comes from its `dv_eigs`, which checks
each profile value it reads: the sampler refuses a model at the first step
that reads a non-finite one, a weight any such path.

A `ClassicalPath` is one path (q, p of shape (n_steps + 1,)) or a batch
(shape (n_paths, n_steps + 1)); the exponents sum over the last axis, one
value per row, each bit-equal to scoring that row alone.  `path_exponent`
scores OM + anomalous (+ FV for a pair) in one pass that reads D2 and the
branch levels once, with the bits of the three separate calls' sum.

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
    "path_exponent",
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
        _check_dt(self.dt)

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
    """Eigenvalues l_a(q), l_b(q) of dV_I/dq along the path, each profile value checked finite."""
    d = model.hilbert_dim
    if pair.a >= d or pair.b >= d:
        raise ValueError(f"branch pair {pair} out of range for Hilbert dimension {d}")
    levels = (diag or diagonalize_model(model)).dv_eigs(qs)
    return levels[..., pair.a], levels[..., pair.b]


def _drift_force(
    model: CQModel,
    qs,
    pair: Optional[BranchPair],
    diag: Optional[DiagonalizedModel] = None,
    levels=None,
):
    """dH_c/dq plus the branch-averaged interaction force (of ``levels``, when already read)."""
    force = np.asarray(model.dpotential(qs), dtype=float)
    if pair is not None:
        la, lb = levels or _branch_levels(model, qs, pair, diag)
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
    bad = ~((d2 > 0.0) & (d2 < np.inf))
    if np.any(bad):
        where, step, row = _first_bad(bad)
        what = "<= 0" if d2[where] <= 0.0 else "not finite"
        raise PathRejectedError(
            f"D2(q) {what} at step {step}{row} (q={qs[where]:g}); positive-eigenvalue branch only",
            index=step,
        )
    return d2


def om_action(path: ClassicalPath, model: CQModel, pair: Optional[BranchPair] = None) -> float:
    """Onsager-Machlup suppression exponent of a constraint-satisfying path."""
    _check_constraint(path, model)
    q_pre = path.q[..., :-1]
    return _om_sum(path, model, pair, _positive_d2(model, q_pre))


def anomalous_term(path: ClassicalPath, model: CQModel) -> float:
    """Per-step (1/2) log D2(q_k); the state-dependent measure contribution."""
    return _anomalous_sum(_positive_d2(model, path.q[..., :-1]))


def fv_action(path: ClassicalPath, model: CQModel, pair: BranchPair) -> float:
    """Feynman-Vernon damping exponent sum dt (D0/2)(l_a - l_b)^2 >= 0."""
    return _fv_sum(path, model, _branch_levels(model, path.q[..., :-1], pair))


def path_exponent(path: ClassicalPath, model: CQModel, pair: Optional[BranchPair] = None):
    """om_action + anomalous_term, + fv_action for a pair, in that order of addition.

    D2 and the branch levels are read (and the levels audited) once for the
    three; each value has the bits of the three calls' sum.
    """
    _check_constraint(path, model)
    q_pre = path.q[..., :-1]
    d2 = _positive_d2(model, q_pre)
    levels = None if pair is None else _branch_levels(model, q_pre, pair)
    total = _om_sum(path, model, pair, d2, levels) + _anomalous_sum(d2)
    if pair is not None:
        total += _fv_sum(path, model, levels)
    return total


def _om_sum(path, model, pair, d2, levels=None):
    q_pre = path.q[..., :-1]
    force = _drift_force(model, q_pre, pair, levels=levels)
    r = (path.p[..., 1:] - path.p[..., :-1]) / path.dt + force
    return np.sum(0.5 * path.dt * r * r / d2, axis=-1)


def _anomalous_sum(d2):
    return np.sum(0.5 * np.log(d2), axis=-1)


def _fv_sum(path, model, levels):
    la, lb = levels
    d0 = np.asarray(model.d0(path.q[..., :-1]), dtype=float)
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
    ``p0`` are finite scalars or per-path arrays.  A ``dt`` that is not a finite
    number > 0, ``n_steps`` < 0 or ``n_paths`` < 1 is refused with a ValueError,
    and a D2(q) that is not finite and > 0 at a visited q with a
    PathRejectedError that names the step, the path and q.
    """
    _check_dt(dt)
    n_steps = _count("n_steps", n_steps, 0)
    n_paths = _count("n_paths", n_paths, 1)
    if not (np.isfinite(q0).all() and np.isfinite(p0).all()):
        raise ValueError(f"q0 and p0 must be finite, got {q0!r} and {p0!r}")
    diag = None if pair is None else diagonalize_model(model)
    xis = trajectory_normals(seed, 0, n_paths, n_steps)
    qs = np.empty((n_paths, n_steps + 1))
    ps = np.empty((n_paths, n_steps + 1))
    qs[:, 0] = q0  # scalar or per-path array, broadcast either way
    ps[:, 0] = p0
    for k in range(n_steps):
        qk = qs[:, k]
        pk = ps[:, k]
        d2 = np.asarray(model.d2(qk), dtype=float)
        if not 0.0 < d2.min() <= d2.max() < np.inf:  # NaN fails too: min and max propagate it
            i = int(np.argmax(~((d2 > 0.0) & (d2 < np.inf))))
            what = "<= 0" if d2.flat[i] <= 0.0 else "not finite"
            raise PathRejectedError(f"D2(q) {what} at step {k} of path {i} (q={qk[i]:g})", index=k)
        force = _drift_force(model, qk, pair, diag)
        ps[:, k + 1] = pk - force * dt + np.sqrt(d2 * dt) * xis[:, k]
        qs[:, k + 1] = qk + (pk / model.mass) * dt
    return qs, ps


def config_action(path: ClassicalPath, model: CQModel, pair: Optional[BranchPair] = None) -> float:
    """Configuration-space weight from the Euler-Lagrange residual.

    Uses second differences qddot_k = (q_{k+1} - 2 q_k + q_{k-1})/dt^2 at
    the interior points of each row; the path must carry no p array and at
    least 3 samples per row.
    """
    if path.p is not None:
        raise ValueError("config_action expects a q-only path (no p array)")
    q = path.q
    if q.shape[-1] < 3:
        raise ValueError("config_action needs at least 3 samples per path")
    dt = path.dt
    q_in = q[..., 1:-1]
    qddot = (q[..., 2:] - 2.0 * q_in + q[..., :-2]) / (dt * dt)
    d2 = _positive_d2(model, q_in)
    residual = model.mass * qddot + _drift_force(model, q_in, pair)
    return np.sum(0.5 * dt * residual * residual / d2, axis=-1)
