"""The exact state of both grid equations for Gaussian data, from the continuum.

Independent of the kernels they check: nothing here comes from
`cqsim.generator`.

CQ family: V' = c1 + 2 c2 q, L = dV_I/dq and H_q constant and diagonal
(levels l_a and h_a), constant D2 and D0.  From rho_q times a Gaussian of
mean (q0, p0) and covariance Sigma0 = diag(sigma_q^2, sigma_p^2), each
branch pair (a, b) evolves on its own:

    rho_ab(t) = rho_ab(0) exp(-i (h_a - h_b) t / hbar - (D0/2) (l_a - l_b)^2 t)
                N(mu_ab(t), Sigma(t)),

    mu'    = A mu + (0, -(c1 + (l_a + l_b)/2)),     A = [[0, 1/m], [-2 c2, 0]],
    Sigma' = A Sigma + Sigma A^T + diag(0, D2),

so the mean follows Hamilton's equations under the force V' + (l_a + l_b)/2
and the covariance the Lyapunov equation; both are solved by a matrix
exponential (Van Loan's method for Sigma).  Measurement family: constant
diagonal Z (levels z_a), constant k and diagonal h.  It is the same
equation along the signal axis with L = Z, D0 = 2k, D2 = 1/(8k), no
transport and the drift (z_a + z_b)/2 in place of the force: pair (a, b)
is damped at k (z_a - z_b)^2, turns at (h_a - h_b)/hbar, and is a Gaussian
N(z0 + (z_a + z_b) t/2, sigma0^2 + t/(8k)).  The populations are the
diagonals of these states.
"""

import numpy as np
from scipy.linalg import expm

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


def _affine(xs, values, name):
    """(c1, c2) with values = c1 + 2 c2 x at the points xs; anything else is refused."""
    values = np.asarray(values, dtype=float)
    slope = (values[-1] - values[0]) / (xs[-1] - xs[0])
    c1 = values[0] - slope * xs[0]
    if np.abs(c1 + slope * xs - values).max() > 1e-9 * (1.0 + np.abs(values).max()):
        raise ValueError(f"{name} must be affine")
    return c1, slope / 2.0


def _gaussian(x, mean, cov):
    """The density of N(mean, cov) at the points x (..., k)."""
    dev = x - mean
    form = np.einsum("...i,ij,...j->...", dev, np.linalg.inv(cov), dev)
    return np.exp(-0.5 * form) / np.sqrt(np.linalg.det(2.0 * np.pi * cov))


def _pairs(points, t, rho0, h, hbar, levels, d0, mean, cov):
    """Cells (..., d, d) at the points (..., k): the one formula of both families.

    Pair (a, b) is rho0_ab exp(-i(h_a - h_b)t/hbar - (d0/2)(l_a - l_b)^2 t)
    times N(mean((l_a + l_b)/2), cov).
    """
    d = len(levels)
    cells = np.empty(points.shape[:-1] + (d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            rate = 1j * (h[a] - h[b]) / hbar + 0.5 * d0 * (levels[a] - levels[b]) ** 2
            density = _gaussian(points, mean(0.5 * (levels[a] + levels[b])), cov)
            cells[..., a, b] = rho0[a, b] * np.exp(-rate * t) * density
    return cells


def cq_state(model: CQModel, grid, t, centers, sigmas, rho_q):
    """Cells (nq, np, d, d) at time t of the CQ family, from rho_q (trace 1) times N(centers, diag(sigmas^2)).

    Refuses a model outside the family, as probed at the grid's q points.
    """
    qs = grid.axes[0].points
    c1, c2 = _affine(qs, model.dpotential(qs), "V'")
    levels = _diagonal(_constant(model.lindblad(qs), "dV_I/dq"), "dV_I/dq")
    h = _diagonal(model.h_q, "H_q")
    d2 = _constant(model.d2(qs), "D2")
    d0 = _constant(model.d0(qs), "D0")
    a = np.array([[0.0, 1.0 / model.mass], [-2.0 * c2, 0.0]])
    # expm([[-A, Q], [0, A^T]] t) = [[., F], [0, e^(A^T t)]], and e^(A t) F is
    # the noise's covariance, the integral of e^(A s) Q e^(A^T s) over [0, t]
    van_loan = expm(t * np.block([[-a, np.diag([0.0, d2])], [np.zeros((2, 2)), a.T]]))
    phi = van_loan[2:, 2:].T
    cov = phi @ np.diag(np.square(sigmas)) @ phi.T + phi @ van_loan[:2, 2:]

    def mean(level):
        # (mu, 1)' = [[A, b], [0, 0]] (mu, 1), with b = (0, -(c1 + level))
        drift = np.zeros((3, 3))
        drift[:2, :2], drift[1, 2] = a, -(c1 + level)
        return (expm(t * drift) @ np.append(centers, 1.0))[:2]

    points = np.stack(grid.meshes(), axis=-1)
    return _pairs(points, t, np.asarray(rho_q), h, model.hbar, levels, d0, mean, cov)


def measurement_state(m: MeasurementModel, grid, t, z0, sigma0, rho_q):
    """Cells (nz, d, d) at time t of the measurement family, from rho_q (trace 1) times N(z0, sigma0^2).

    Refuses a model outside the family, as probed at the grid's z points.
    """
    zs = grid.axes[0].points
    levels = _diagonal(_constant(m.z_op(zs), "Z"), "Z")
    k = _constant(m.k(zs), "k")
    h = np.zeros(len(levels)) if m.h is None else _diagonal(m.h, "h")
    cov = np.array([[sigma0**2 + t / (8.0 * k)]])
    return _pairs(zs[:, None], t, np.asarray(rho_q), h, m.hbar, levels, 2.0 * k,
                  lambda level: [z0 + level * t], cov)


def cq_populations(model: CQModel, grid, t, centers, sigmas, weights):
    """Populations (nq, np, d): the diagonal of `cq_state` from rho_q = diag(weights)."""
    cells = cq_state(model, grid, t, centers, sigmas, np.diag(weights))
    return np.diagonal(cells, axis1=-2, axis2=-1).real


def measurement_populations(m: MeasurementModel, grid, t, z0, sigma0, weights):
    """Populations (nz, d): the diagonal of `measurement_state` from rho_q = diag(weights)."""
    cells = measurement_state(m, grid, t, z0, sigma0, np.diag(weights))
    return np.diagonal(cells, axis1=-2, axis2=-1).real
