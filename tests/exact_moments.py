"""Exact operator moments of the CQ and the measurement master equations.

For V'(q) = c1 + 2 c2 q, a constant Lindblad operator L and constant D2
and D0 (H_q may be anything), integrating the CQ equation against q^r p^s
by parts closes the operator-valued moments M_rs = int q^r p^s varrho of
total degree r + s <= 2:

    dM_rs/dt = (r/m) M_{r-1,s+1} - s c1 M_{r,s-1} - 2 s c2 M_{r+1,s-1}
               - (s/2){L, M_{r,s-1}} + (s(s-1)/2) D2 M_{r,s-2}
               - (i/hbar)[H_q, M_rs] + D0 (L M_rs L - (1/2){L^2, M_rs})

Six d x d unknowns, solved by one matrix exponential.  The measurement
equation with constant Z and k closes the same way for N_s = int z^s varrho,
s <= 2:

    dN_s/dt = (s/2){Z, N_{s-1}} + (s(s-1)/2) D2 N_{s-2}
              - k[Z, [Z, N_s]] - (i/hbar)[h, N_s],        D2 = 1/(8k).

Central differences are exact on quadratics, so by summation by parts a
grid's discrete moments obey the same equations up to edge rows weighted
by the edge mass, and the time-stepping error: the oracle checks the
operator algebra of the equation at any resolution.  It pins the equation
with the unitary part -(i/hbar)[H_q, varrho] alone: a q-dependent
Hamiltonian H_q + V_I(q) would add -(i/hbar)[L, M_{r+1,s}] to dM_rs/dt,
which no longer closes at degree 2.  Imports nothing from
`cqsim.generator`.
"""

from functools import reduce

import numpy as np
from scipy.linalg import expm

CQ_DEGREES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
MEASUREMENT_DEGREES = ((0,), (1,), (2,))


def _commutator(a, b):
    return a @ b - b @ a


def _anticommutator(a, b):
    return a @ b + b @ a


def _flow(rate, start, t):
    """exp(t A) start, where A is the linear map ``rate`` on stacks shaped like ``start``."""
    basis = np.eye(start.size, dtype=complex).reshape((start.size,) + start.shape)
    a = np.column_stack([rate(e).ravel() for e in basis])
    return (expm(t * a) @ start.ravel()).reshape(start.shape)


def grid_moments(cells, points, volume, degrees):
    """int x^r y^s ... varrho of grid ``cells`` on axes ``points``, one d x d matrix per degree."""
    out = []
    for powers in degrees:
        weight = reduce(np.multiply, np.ix_(*(x**k for x, k in zip(points, powers))))
        out.append(np.tensordot(weight, cells, axes=len(points)) * volume)
    return np.array(out)


def cq_moments(start, t, mass, c1, c2, h_q, lop, d2, d0, hbar=1.0):
    """The moments of CQ_DEGREES at ``t``, from the (6, d, d) moments ``start`` at 0."""
    at = {rs: i for i, rs in enumerate(CQ_DEGREES)}
    h_q, lop = np.asarray(h_q, dtype=complex), np.asarray(lop, dtype=complex)
    l2 = lop @ lop

    def rate(m):
        out = np.empty_like(m)
        for (r, s), i in at.items():
            x = m[i]
            dx = -(1j / hbar) * _commutator(h_q, x) + d0 * (lop @ x @ lop - 0.5 * _anticommutator(l2, x))
            if r:
                dx = dx + (r / mass) * m[at[r - 1, s + 1]]
            if s:
                below = m[at[r, s - 1]]
                dx = dx - s * (c1 * below + 2.0 * c2 * m[at[r + 1, s - 1]])
                dx = dx - 0.5 * s * _anticommutator(lop, below)
            if s > 1:
                dx = dx + 0.5 * s * (s - 1) * d2 * m[at[r, s - 2]]
            out[i] = dx
        return out

    return _flow(rate, np.asarray(start, dtype=complex), t)


def measurement_moments(start, t, z_op, k, h=None, hbar=1.0):
    """The moments of MEASUREMENT_DEGREES at ``t``, from the (3, d, d) moments ``start`` at 0."""
    z_op = np.asarray(z_op, dtype=complex)
    h = np.zeros_like(z_op) if h is None else np.asarray(h, dtype=complex)
    d2 = 1.0 / (8.0 * k)

    def rate(n):
        out = np.empty_like(n)
        for s in range(len(MEASUREMENT_DEGREES)):
            x = n[s]
            dx = -k * _commutator(z_op, _commutator(z_op, x)) - (1j / hbar) * _commutator(h, x)
            if s:
                dx = dx + 0.5 * s * _anticommutator(z_op, n[s - 1])
            if s > 1:
                dx = dx + 0.5 * s * (s - 1) * d2 * n[s - 2]
            out[s] = dx
        return out

    return _flow(rate, np.asarray(start, dtype=complex), t)
