"""Exact populations of both grid equations for Gaussian data, from the continuum.

Independent of the kernels they check: nothing here comes from
`cqsim.generator`.  Only populations are given, because they see neither
D0 nor the unitary part.

CQ family: V = 0, V_I = q L with L diagonal, H_q diagonal, constant D2
and D0.  Population a drifts under the constant force -l_a and diffuses
in p, so from a Gaussian of mean (q0, p0) and covariance
Sigma0 = diag(sigma_q^2, sigma_p^2) it stays a Gaussian with

    mean       (q0 + p0 t/m - l_a t^2/2m,  p0 - l_a t),
    covariance Phi Sigma0 Phi^T + D2 [[t^3/3m^2, t^2/2m], [t^2/2m, t]],

Phi = [[1, t/m], [0, 1]].  Measurement family: constant diagonal Z,
constant k and diagonal h.  Population a drifts at z_a and diffuses with
D2 = 1/(8k): a Gaussian N(z0 + z_a t, sigma0^2 + t/(8k)).
"""

import numpy as np

from cqsim.models import CQModel, MeasurementModel


def _constant(values, name):
    values = np.asarray(values)
    if not np.array_equal(values, np.broadcast_to(values[0], values.shape)):
        raise ValueError(f"{name} must be constant on the grid")
    return values[0]


def _diagonal(matrix, name):
    matrix = np.asarray(matrix)
    if np.any(matrix - np.diag(np.diag(matrix))):
        raise ValueError(f"{name} must be diagonal")
    return np.diag(matrix).real


def _gaussian(x, mean, cov):
    """The density of N(mean, cov) at the points x (..., k)."""
    dev = x - mean
    form = np.einsum("...i,ij,...j->...", dev, np.linalg.inv(cov), dev)
    return np.exp(-0.5 * form) / np.sqrt(np.linalg.det(2.0 * np.pi * cov))


def cq_populations(model: CQModel, grid, t, centers, sigmas, weights):
    """Populations (nq, np, d) at time t of the CQ family, from weights w_a times N(centers, diag(sigmas^2)).

    Refuses a model outside the family, as probed at the grid's q points.
    """
    qs = grid.axes[0].points
    if np.any(model.dpotential(qs)):
        raise ValueError("V must be 0")
    levels = _diagonal(_constant(model.dv_i(qs), "dV_I/dq"), "dV_I/dq")
    _diagonal(model.h_q, "H_q")
    d2 = _constant(model.d2(qs), "D2")
    _constant(model.d0(qs), "D0")
    m = model.mass
    (q0, p0), (sq, sp) = centers, sigmas
    phi = np.array([[1.0, t / m], [0.0, 1.0]])
    noise = d2 * np.array([[t**3 / (3 * m**2), t**2 / (2 * m)], [t**2 / (2 * m), t]])
    cov = phi @ np.diag([sq**2, sp**2]) @ phi.T + noise
    points = np.stack(grid.meshes(), axis=-1)
    return np.stack(
        [
            w * _gaussian(points, [q0 + p0 * t / m - l * t**2 / (2 * m), p0 - l * t], cov)
            for w, l in zip(weights, levels)
        ],
        axis=-1,
    )


def measurement_populations(m: MeasurementModel, grid, t, z0, sigma0, weights):
    """Populations (nz, d) at time t of the measurement family, from weights w_a times N(z0, sigma0^2).

    Refuses a model outside the family, as probed at the grid's z points.
    """
    zs = grid.axes[0].points
    levels = _diagonal(_constant(m.z_op(zs), "Z"), "Z")
    k = _constant(m.k(zs), "k")
    if m.h is not None:
        _diagonal(m.h, "h")
    var = np.array([[sigma0**2 + t / (8.0 * k)]])
    return np.stack(
        [w * _gaussian(zs[:, None], [z0 + z * t], var) for w, z in zip(weights, levels)], axis=-1
    )
