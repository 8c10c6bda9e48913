"""Model definitions: what a concrete hybrid master equation consists of.

`CQModel` fixes one continuous classical-quantum master equation on phase
space: a classical Hamiltonian H_c = p^2/2m + V(q), a quantum Hamiltonian
H_q, a Hermitian interaction potential V_I(q) whose q-derivative plays the
role of the Lindblad operator (back-reaction coupling fixed to 1/2), a
momentum-diffusion coefficient D2(q) and a Lindbladian coupling D0(q).
Complete positivity requires 4 D2(q) >= 1/D0(q) wherever the interaction
is switched on; `validate_model` audits this pointwise with the psd module
before evolution is permitted.

`diagonalize_model` admits a model to the branch-decomposed evolution and
the branch-pair path weights by one rule: H_q, and V_I(q) and dV_I(q) at
the caller's points, must each be diagonal in one basis fixed by the model
alone, within DIAGONAL_TOL = 1e-10 relative to the matrix.

`MeasurementModel` describes the continuous measurement of a Hermitian
operator Z with strength k, both optionally dependent on the measurement
signal (closed-loop feedback).  Its induced couplings are
D1 = 1/2, D0 = 2k, D2 = 1/(8k), which saturate the trade-off.

`ToyParams` collects the parameters of the zero-dimensional toy theory.

Potentials and couplings are supplied as numpy-vectorized callables; the
derivative of V_I is supplied analytically so the Lindblad operator stays
exactly Hermitian.  Helper constructors build models from polynomial
coefficient lists, deriving the derivatives analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .psd import CouplingTriple, Verdict, require_hermitian, schur_cp_check

__all__ = [
    "CQModel",
    "MeasurementModel",
    "ToyParams",
    "ModelValidationError",
    "validate_model",
    "classical_force",
    "polynomial_cq_model",
    "constant_measurement_model",
    "diagonalize_model",
    "BACKREACTION_COUPLING",
]

# The master equation fixes the back-reaction block D1 = 1/2 once the
# Lindblad operator is chosen as dV_I/dq.
BACKREACTION_COUPLING = 0.5

# H_q, V_I(q) and dV_I(q) count as diagonal in a model's fixed basis u when
# no off-diagonal entry of u^dag M u exceeds DIAGONAL_TOL * (1 + max|u^dag M u|).
DIAGONAL_TOL = 1e-10

# Fixed q values whose V_I and dV_I, with H_q, build the combination that
# fixes the branch basis and its order, so labels depend on the model alone.
_BASIS_QS = np.array([-1.37, 0.41, 2.23])
# One weight per matrix of that combination (H_q, then V_I and dV_I at each
# of _BASIS_QS): the first seven normal draws of
# np.random.default_rng(20230817), written out so that no call pays for
# a generator.
_BASIS_WEIGHTS = (
    -0.4812556804272031,
    1.1060938679505348,
    1.7290790220211196,
    -0.04204650136231247,
    -0.6279832719697106,
    -1.0687199177974025,
    0.037897669918088114,
)


class ModelValidationError(ValueError):
    """The model fails an invariant (non-Hermitian V_I, CP violation, ...)."""


@dataclass(frozen=True)
class CQModel:
    """One concrete continuous CQ master equation (see module docstring).

    ``potential``/``dpotential`` are V(q) and its analytic derivative;
    ``v_i``/``dv_i`` map an array of q values to (..., d, d) Hermitian
    matrices; ``d2`` and ``d0`` map q to nonnegative coefficients.
    """

    mass: float
    potential: Callable
    dpotential: Callable
    h_q: np.ndarray
    v_i: Callable
    dv_i: Callable
    d2: Callable
    d0: Callable
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0):
            raise ModelValidationError(f"mass must be positive, got {self.mass}")
        if not (self.hbar > 0):
            raise ModelValidationError(f"hbar must be positive, got {self.hbar}")
        h_q = require_hermitian(self.h_q, name="h_q")
        # read-only: the generator caches operators built from it per model
        h_q.setflags(write=False)
        object.__setattr__(self, "h_q", h_q)

    @property
    def hilbert_dim(self) -> int:
        return self.h_q.shape[0]


def classical_force(model: CQModel, q):
    """dH_c/dq = V'(q), the (negated) classical drift of p."""
    return model.dpotential(np.asarray(q, dtype=float))


def _matrix_field(fn, qs, d, name):
    out = np.asarray(fn(qs), dtype=complex)
    want = np.shape(qs) + (d, d)
    if out.shape != want:
        raise ModelValidationError(f"{name}(q) returned shape {out.shape}, expected {want}")
    defect = np.abs(out - np.conj(np.swapaxes(out, -1, -2))).max()
    if defect > 1e-10 * (1.0 + np.abs(out).max()):
        raise ModelValidationError(f"{name}(q) is not Hermitian (defect {defect:.3e})")
    return out


def validate_model(model: CQModel, qs) -> None:
    """Audit a model on sampled q values; raise ModelValidationError on failure.

    Checks Hermiticity of V_I and dV_I, nonnegativity of D2 and D0, and --
    when the interaction is switched on -- that the coupling triple
    (D2(q), 1/2, D0(q)) passes the complete-positivity check at every
    sampled point.  A model with dV_I identically zero has no back-reaction
    and no Lindblad sector, so only D2 >= 0 is demanded there.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    d = model.hilbert_dim
    _matrix_field(model.v_i, qs, d, "v_i")
    dv = _matrix_field(model.dv_i, qs, d, "dv_i")
    d2 = np.asarray(model.d2(qs), dtype=float)
    d0 = np.asarray(model.d0(qs), dtype=float)
    if np.any(d2 < 0):
        raise ModelValidationError("d2(q) must be nonnegative on the sampled range")
    if np.any(d0 < 0):
        raise ModelValidationError("d0(q) must be nonnegative on the sampled range")
    interacting = np.abs(dv).max() > 0.0
    if not interacting:
        return
    for i, q in enumerate(qs):
        triple = CouplingTriple(
            d2=np.array([[d2.flat[i]]]),
            d1=np.array([[BACKREACTION_COUPLING]]),
            d0=np.array([[d0.flat[i]]]),
        )
        report = schur_cp_check(triple)
        if report.verdict is Verdict.VIOLATED:
            raise ModelValidationError(
                f"coupling triple violates complete positivity at q={q:g}: "
                f"margin {report.tradeoff_margin:.3e} (need 4*D2 >= 1/D0)"
            )


def polynomial_cq_model(
    mass,
    potential_coeffs,
    h_q,
    v_i_matrix=None,
    v_i_profile=(0.0,),
    d2_coeffs=(0.0,),
    d0_coeffs=(0.0,),
    hbar=1.0,
) -> CQModel:
    """Build a CQModel from polynomial coefficient lists (low order first).

    V_I(q) = profile(q) * M with M a fixed Hermitian matrix, so the
    analytic derivative is profile'(q) * M.
    """
    h_q = require_hermitian(h_q, name="h_q")
    d = h_q.shape[0]
    v = Polynomial(list(potential_coeffs))
    dv = v.deriv()
    prof = Polynomial(list(v_i_profile))
    dprof = prof.deriv()
    if v_i_matrix is None:
        m = np.zeros((d, d), dtype=complex)
    else:
        m = require_hermitian(v_i_matrix, name="v_i_matrix")
        if m.shape != (d, d):
            raise ModelValidationError("v_i_matrix dimension must match h_q")
    d2p = Polynomial(list(d2_coeffs))
    d0p = Polynomial(list(d0_coeffs))

    def v_i(q):
        return prof(np.asarray(q, dtype=float))[..., None, None] * m

    def dv_i(q):
        return dprof(np.asarray(q, dtype=float))[..., None, None] * m

    return CQModel(
        mass=mass,
        potential=lambda q: v(np.asarray(q, dtype=float)),
        dpotential=lambda q: dv(np.asarray(q, dtype=float)),
        h_q=h_q,
        v_i=v_i,
        dv_i=dv_i,
        d2=lambda q: d2p(np.asarray(q, dtype=float)),
        d0=lambda q: d0p(np.asarray(q, dtype=float)),
        hbar=hbar,
    )


# -- diagonal models ---------------------------------------------------------


@dataclass(frozen=True)
class DiagonalizedModel:
    """Fixed-basis data of a model that `diagonalize_model` admits.

    ``basis`` U maps eigen-components to the original basis.  ``h`` holds
    the eigenvalues of H_q; ``dv_eigs`` maps q arrays to (..., d)
    eigenvalue arrays of dV_I in the same fixed order.
    """

    basis: np.ndarray
    h: np.ndarray
    dv_eigs: Callable


def diagonalize_model(model: CQModel, qs) -> DiagonalizedModel:
    """Extract the fixed eigenbasis u of H_q, V_I(q) and dV_I(q), or refuse.

    The basis and the order of its branches depend on the model alone.  H_q,
    and V_I(q) and dV_I(q) at up to 8 of the caller's ``qs``, must each be
    diagonal in u (see DIAGONAL_TOL); else ModelValidationError names the
    first matrix and q that is not.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    d = model.hilbert_dim
    probe = qs if qs.size <= 8 else qs[np.linspace(0, qs.size - 1, 8).astype(int)]
    vs = _matrix_field(model.v_i, probe, d, "v_i")
    dvs = _matrix_field(model.dv_i, probe, d, "dv_i")

    # A generic fixed-weight combination splits shared eigenspaces; taken at
    # fixed q values, it orders the branches the same for every caller.
    fixed = (
        [model.h_q]
        + list(_matrix_field(model.v_i, _BASIS_QS, d, "v_i"))
        + list(_matrix_field(model.dv_i, _BASIS_QS, d, "dv_i"))
    )
    _, u = np.linalg.eigh(sum(w * s for w, s in zip(_BASIS_WEIGHTS, fixed, strict=True)))

    def _require_diagonal(name, mat):
        td = u.conj().T @ mat @ u
        off = np.abs(td - np.diag(np.diag(td))).max()
        if off > DIAGONAL_TOL * (1.0 + np.abs(td).max()):
            raise ModelValidationError(
                "model is not diagonal in a common q-independent basis: "
                f"{name} has off-diagonal {off:.3e}"
            )
        return np.diag(td).real

    h = _require_diagonal("h_q", model.h_q)
    for q, v, dv in zip(probe, vs, dvs):
        _require_diagonal(f"v_i(q={q:g})", v)
        _require_diagonal(f"dv_i(q={q:g})", dv)

    def dv_eigs(q):
        m = np.asarray(model.dv_i(np.asarray(q, dtype=float)), dtype=complex)
        return np.einsum("ia,...ij,ja->...a", u.conj(), m, u).real

    return DiagonalizedModel(basis=u, h=h, dv_eigs=dv_eigs)


# -- continuous measurement ---------------------------------------------------


@dataclass(frozen=True)
class MeasurementModel:
    """Continuous measurement of a Hermitian operator Z(z) at strength k(z).

    ``z_op`` maps an array of signal values to (..., d, d) Hermitian
    matrices; ``k`` maps signal values to positive strengths.  ``h`` is an
    optional unitary part.  The induced master-equation couplings are
    D1 = 1/2, D0(z) = 2 k(z), D2(z) = 1/(8 k(z)); the trade-off is
    saturated, so conditional states stay pure.
    """

    z_op: Callable
    k: Callable
    h: Optional[np.ndarray] = None
    hbar: float = 1.0
    hilbert_dim: int = 0

    def __post_init__(self):
        if self.h is not None:
            h = require_hermitian(self.h, name="h")
            h.setflags(write=False)
            object.__setattr__(self, "h", h)
        if self.hilbert_dim <= 0:
            probe = np.asarray(self.z_op(np.zeros(1)), dtype=complex)
            object.__setattr__(self, "hilbert_dim", probe.shape[-1])

    def d0(self, z):
        return 2.0 * np.asarray(self.k(z), dtype=float)

    def d2(self, z):
        return 1.0 / (8.0 * np.asarray(self.k(z), dtype=float))

    def validate(self, zs) -> None:
        zs = np.atleast_1d(np.asarray(zs, dtype=float))
        _matrix_field(self.z_op, zs, self.hilbert_dim, "z_op")
        k = np.asarray(self.k(zs), dtype=float)
        if np.any(k <= 0):
            bad = int(np.argmin(k))
            raise ModelValidationError(
                f"measurement strength k(z) must be positive, got k({zs[bad]:g}) = {k[bad]:g}"
            )


def constant_measurement_model(z_matrix, k, h=None, hbar=1.0, z_feedback=None,
                               k_slope=0.0) -> MeasurementModel:
    """Measurement model with constant Z and k, or mild linear feedback.

    ``z_feedback`` adds z * Z1 to the measured operator; ``k_slope`` adds
    k_slope * z to the strength (caller must keep k positive on the
    visited range).
    """
    z0 = require_hermitian(z_matrix, name="z_matrix")
    z1 = None if z_feedback is None else require_hermitian(z_feedback, name="z_feedback")
    k0 = float(k)

    def z_op(z):
        z = np.asarray(z, dtype=float)
        if z1 is None:
            return np.broadcast_to(z0, z.shape + z0.shape)  # read-only view, no copy
        return z0 + z[..., None, None] * z1

    def k_fn(z):
        z = np.asarray(z, dtype=float)
        return k0 + k_slope * z

    return MeasurementModel(z_op=z_op, k=k_fn, h=h, hbar=hbar, hilbert_dim=z0.shape[0])


# -- zero-dimensional toy ------------------------------------------------------


@dataclass(frozen=True)
class ToyParams:
    """Parameters of the zero-dimensional CQ toy theory."""

    m_phi: float
    m_q: float
    lam: float
    hbar: float = 1.0
    d2: float = 1.0

    def __post_init__(self):
        for name in ("m_phi", "m_q", "hbar", "d2"):
            if not (getattr(self, name) > 0):
                raise ModelValidationError(f"{name} must be positive")
