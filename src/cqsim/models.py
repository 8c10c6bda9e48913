"""Model definitions: what a concrete hybrid master equation consists of.

`CQModel` fixes one continuous classical-quantum master equation on phase
space by the inputs it reads (see `generator`): the mass m and force V'(q)
of H_c = p^2/2m + V(q), a quantum Hamiltonian H_q, a Hermitian Lindblad
operator L(q) = dV_I/dq (back-reaction coupling D1 = 1/2), a
momentum-diffusion coefficient D2(q) and a Lindbladian coupling D0(q).
V(q) and V_I(q) enter only through V' and L, so a model carries neither.
Complete positivity requires 4 D2(q) >= 1/D0(q) wherever the interaction
is switched on; `validate_model` audits this at every point it is given,
in one stacked `psd.schur_cp_check`, before evolution is permitted.

`diagonalize_model` admits a model to the branch-decomposed evolution and
the branch-pair path weights by one rule: H_q, and dV_I(q) at every q
whose branch levels are read, must each be diagonal in one basis fixed by
the model alone, within DIAGONAL_TOL = 1e-10 relative to the matrix;
`dv_eigs` audits each q before it returns its levels, so no level leaves
this module unaudited.  Both audits judge dV_I finite and Hermitian point
by point (`psd.require_hermitian`).

`MeasurementModel` describes the continuous measurement of a Hermitian
operator Z with strength k, both optionally dependent on the measurement
signal (closed-loop feedback).  Its induced couplings are
D1 = 1/2, D0 = 2k, D2 = 1/(8k), which saturate the trade-off.

`ToyParams` collects the parameters of the zero-dimensional toy theory.

Callables are numpy-vectorized, and L is analytic so it stays exactly
Hermitian: `polynomial_cq_model` derives V' and L = profile'(q) M from
coefficient lists for V(q) and V_I(q) = profile(q) M.
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
# Lindblad operator is chosen as L = dV_I/dq.
BACKREACTION_COUPLING = 0.5

# H_q and dV_I(q) count as diagonal in a model's fixed basis u when no
# off-diagonal entry of u^dag M u exceeds DIAGONAL_TOL * (1 + max|u^dag M u|).
DIAGONAL_TOL = 1e-10

# Fixed q values whose dV_I, with H_q, builds the combination that fixes
# the branch basis and its order, so labels depend on the model alone.
_BASIS_QS = np.array([-1.37, 0.41, 2.23])
# One weight per matrix of that combination (H_q, then dV_I at each of
# _BASIS_QS): normal draws 0, 4, 5 and 6 of np.random.default_rng(20230817),
# which keep the branch labels those matrices have always had, written out
# so that no call pays for a generator.
_BASIS_WEIGHTS = (
    -0.4812556804272031,
    -0.6279832719697106,
    -1.0687199177974025,
    0.037897669918088114,
)


class ModelValidationError(ValueError):
    """The model fails an invariant (non-finite V', non-Hermitian dV_I, CP violation, ...)."""


@dataclass(frozen=True)
class CQModel:
    """One concrete continuous CQ master equation (see module docstring).

    ``dpotential`` maps q to the force V'(q); ``dv_i`` maps an array of q
    values to (..., d, d) Hermitian matrices, the Lindblad operator
    L(q) = dV_I/dq; ``d2`` and ``d0`` map q to nonnegative coefficients.
    """

    mass: float
    dpotential: Callable
    h_q: np.ndarray
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
        if h_q.ndim != 2:
            raise ModelValidationError(f"h_q must be one square matrix, got shape {h_q.shape}")
        # read-only: a run's kernel holds it, and its operators are built from it
        h_q.setflags(write=False)
        object.__setattr__(self, "h_q", h_q)

    @property
    def hilbert_dim(self) -> int:
        return self.h_q.shape[0]


def classical_force(model: CQModel, q):
    """dH_c/dq = V'(q), the (negated) classical drift of p."""
    return model.dpotential(np.asarray(q, dtype=float))


def require_finite_hamiltonian(h, name):
    """Refuse a Hamiltonian ``h`` with an entry that is not finite, naming ``name`` and the entry.

    None (no Hamiltonian) passes.  `require_hermitian` lets such an entry
    through, since a NaN defect exceeds no tolerance.
    """
    if h is not None and not np.isfinite(h).all():
        i, j = np.argwhere(~np.isfinite(h))[0]
        raise ModelValidationError(f"{name}[{i}, {j}] is not finite, got {h[i, j]}")


def _matrix_field(qs, d, name, fn, var="q"):
    """``fn`` at ``qs`` as (n, d, d), finite and Hermitian; a refusal names ``name`` and the point."""
    out, want = np.asarray(fn(qs), dtype=complex), np.shape(qs) + (d, d)
    if out.shape != want:
        raise ModelValidationError(f"{name}({var}) returned shape {out.shape}, expected {want}")
    label = lambda at: f"{name}({var}={qs[at[0]]:g})"
    if not np.isfinite(out).all():
        raise ModelValidationError(f"{label(np.argwhere(~np.isfinite(out))[0])} has a non-finite entry")
    try:
        require_hermitian(out, name=label)
    except ValueError as exc:
        raise ModelValidationError(str(exc)) from None
    return out


def validate_model(model: CQModel, qs) -> None:
    """Audit a model at every given q; raise ModelValidationError on failure.

    Checks that H_q is finite, that dV_I is finite and Hermitian, that
    V', D2 and D0 are finite and that D2 and D0 are nonnegative, naming
    the coefficient and the first failing entry or q, and -- when the
    interaction is switched on -- that the coupling triple
    (D2(q), 1/2, D0(q)) passes one `schur_cp_check` of all the points
    stacked; the refusal names the first violating q.  A model with dV_I identically zero has no
    back-reaction and no Lindblad sector, so only D2 >= 0 is demanded
    there.
    """
    require_finite_hamiltonian(model.h_q, "h_q")
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    dv = _matrix_field(qs, model.hilbert_dim, "dv_i", model.dv_i)
    values = {}
    for name, fn in (("dpotential", model.dpotential), ("d2", model.d2), ("d0", model.d0)):
        v = values[name] = np.broadcast_to(np.asarray(fn(qs), dtype=float), qs.shape)
        # the force takes either sign; D2 and D0 are nonnegative
        bad = np.flatnonzero(~np.isfinite(v) | ((v < 0) & (name != "dpotential")))
        if bad.size:
            need = "nonnegative" if np.isfinite(v[bad[0]]) else "finite"
            raise ModelValidationError(f"{name}(q={qs[bad[0]]:g}) must be {need}, got {v[bad[0]]:g}")
    d2, d0 = values["d2"], values["d0"]
    if not np.abs(dv).max() > 0.0:  # no interaction
        return
    report = schur_cp_check(CouplingTriple(
        d2=d2[:, None, None],
        d1=np.full(qs.shape + (1, 1), BACKREACTION_COUPLING),
        d0=d0[:, None, None],
    ))
    bad = np.flatnonzero(report.verdict == Verdict.VIOLATED)
    if bad.size:
        raise ModelValidationError(
            f"coupling triple violates complete positivity at q={qs[bad[0]]:g}: "
            f"margin {report.tradeoff_margin[bad[0]]:.3e} (need 4*D2 >= 1/D0)"
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

    The model keeps the force V' of the potential and, for
    V_I(q) = profile(q) * M with M a fixed Hermitian matrix, the Lindblad
    operator L(q) = profile'(q) * M, both derived analytically.
    """
    h_q = require_hermitian(h_q, name="h_q")
    d = h_q.shape[0]
    dv = Polynomial(list(potential_coeffs)).deriv()
    dprof = Polynomial(list(v_i_profile)).deriv()
    if v_i_matrix is None:
        m = np.zeros((d, d), dtype=complex)
    else:
        m = require_hermitian(v_i_matrix, name="v_i_matrix")
        if m.shape != (d, d):
            raise ModelValidationError("v_i_matrix dimension must match h_q")
    d2p = Polynomial(list(d2_coeffs))
    d0p = Polynomial(list(d0_coeffs))

    def dv_i(q):
        return dprof(np.asarray(q, dtype=float))[..., None, None] * m

    return CQModel(
        mass=mass,
        dpotential=lambda q: dv(np.asarray(q, dtype=float)),
        h_q=h_q,
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
    the eigenvalues of H_q; ``dv_eigs`` audits q arrays and maps them to
    (..., d) eigenvalue arrays of dV_I in the same fixed order.
    """

    basis: np.ndarray
    h: np.ndarray
    dv_eigs: Callable


def diagonalize_model(model: CQModel) -> DiagonalizedModel:
    """Extract the fixed eigenbasis u of H_q and dV_I(q), or refuse.

    The basis and the order of its branches depend on the model alone.  H_q
    must be diagonal in u (see DIAGONAL_TOL).  ``dv_eigs(q)`` audits each q
    it is given first: dV_I there must be finite, Hermitian and diagonal
    in u.  ModelValidationError names the first failure: H_q, or the first
    failing point in flattened ``q`` order.
    """
    d = model.hilbert_dim

    # A generic fixed-weight combination splits shared eigenspaces; taken at
    # fixed q values, it orders the branches the same for every caller.
    fixed = [model.h_q, *_matrix_field(_BASIS_QS, d, "dv_i", model.dv_i)]
    _, u = np.linalg.eigh(sum(w * s for w, s in zip(_BASIS_WEIGHTS, fixed, strict=True)))

    # with row-major vec, one product rotates a stack of matrices:
    # vec(u^dag M u) = vec(M) @ kron(conj(u), u), here transposed; dv_eigs
    # rotates blocks of 256 kB of dV_I, which keep the temporaries small
    rotate, off_diagonal = np.kron(u.conj(), u), ~np.eye(d, dtype=bool).ravel()
    step = max(1, (1 << 18) // (16 * d * d))

    def rotated(mats, name):
        """The diagonals (leading) of each u^dag M u; refuses the first M not diagonal in u."""
        entries = rotate.T @ mats.reshape(-1, d * d).T
        size = np.abs(entries)  # entries leading: fast maxima
        off = size[off_diagonal].max(0, initial=0.0)
        bad = np.flatnonzero(off > DIAGONAL_TOL * (1.0 + size.max(0)))
        if bad.size:
            raise ModelValidationError(
                "model is not diagonal in a common q-independent basis: "
                f"{name(bad[0])} has off-diagonal {off[bad[0]]:.3e}"
            )
        return entries[~off_diagonal].real

    h = rotated(model.h_q, lambda i: "h_q")[:, 0]

    def dv_eigs(q):
        flat = np.asarray(q, dtype=float).ravel()
        levels = np.empty((flat.size, d))
        for lo in range(0, flat.size, step):
            block = flat[lo : lo + step]
            dv = _matrix_field(block, d, "dv_i", model.dv_i)
            levels[lo : lo + step] = rotated(dv, lambda i: f"dv_i(q={block[i]:g})").T
        return levels.reshape(np.shape(q) + (d,))

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
        """Audit ``h`` (finite), and Z (finite, Hermitian) and k (finite, > 0) at each of ``zs``."""
        require_finite_hamiltonian(self.h, "h")
        zs = np.atleast_1d(np.asarray(zs, dtype=float))
        _matrix_field(zs, self.hilbert_dim, "z_op", self.z_op, var="z")
        k = np.broadcast_to(np.asarray(self.k(zs), dtype=float), zs.shape)
        bad = np.flatnonzero(~(np.isfinite(k) & (k > 0)))
        if bad.size:
            need = "positive" if np.isfinite(k[bad[0]]) else "finite"
            raise ModelValidationError(
                f"measurement strength k(z) must be {need}, got k({zs[bad[0]]:g}) = {k[bad[0]]:g}"
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
