"""Model definitions: what a concrete hybrid master equation consists of.

`CQModel` fixes one continuous classical-quantum master equation on phase
space by the inputs it reads (see `generator`): the mass m and force V'(q)
of H_c = p^2/2m + V(q), a quantum Hamiltonian H_q, a Hermitian Lindblad
operator L(q) = dV_I/dq (back-reaction coupling D1 = 1/2), a
momentum-diffusion coefficient D2(q) and a Lindbladian coupling D0(q).
V(q) and V_I(q) enter only through V' and L, so a model carries neither.
As in the general CQ master equation, L is a sum of fixed channels,
L(q) = sum_a c_a(q) M_a: a fixed Hermitian matrix M_a, audited (finite,
Hermitian) and made read-only at construction like H_q, and a real
profile c_a, whose values are refused by name where read if not finite
(`profile_values`).  Complete positivity requires 4 D2(q) >= 1/D0(q)
wherever the interaction is switched on; `validate_model` audits this at
every point it is given, in one stacked `psd.schur_cp_check`, before
evolution is permitted.

`diagonalize_model` admits a model to the branch-decomposed evolution and
the branch-pair path weights by one rule, decided once: H_q and every M_a
must be diagonal in the eigenbasis of a fixed generic combination of
them, within DIAGONAL_TOL = 1e-10 relative to the matrix, so they must
commute.  The levels of L are then sum_a c_a(q) m_a, with m_a those of M_a.

`MeasurementModel` describes the continuous measurement of a Hermitian
operator Z(z) = sum_a c_a(z) M_a with strength k, both optionally
dependent on the measurement signal (closed-loop feedback).  Its induced
couplings are D1 = 1/2, D0 = 2k, D2 = 1/(8k), which saturate the trade-off.

`ToyParams` collects the parameters of the zero-dimensional toy theory.

Callables are numpy-vectorized: `polynomial_cq_model` derives V' and the
channel (M, profile') from coefficient lists for V(q) and V_I(q) = profile(q) M.
"""

from __future__ import annotations

import itertools
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
    "profile_values",
    "polynomial_cq_model",
    "constant_measurement_model",
    "diagonalize_model",
    "BACKREACTION_COUPLING",
]

# The master equation fixes the back-reaction block D1 = 1/2 once the
# Lindblad operator is chosen as L = dV_I/dq.
BACKREACTION_COUPLING = 0.5

# H_q and each M_a count as diagonal in a model's fixed basis u when no
# off-diagonal entry of u^dag M u exceeds DIAGONAL_TOL * (1 + max|u^dag M u|).
DIAGONAL_TOL = 1e-10

class ModelValidationError(ValueError):
    """The model fails an invariant (non-finite V', a non-Hermitian channel, CP violation, ...)."""


def _audit_channels(channels, d):
    """``channels`` as a tuple of (read-only M, profile), each M a finite Hermitian d x d matrix."""
    audited = []
    for i, (m, profile) in enumerate(channels):
        m = require_hermitian(m, name=f"channel {i} matrix")
        if m.shape != (d, d):
            raise ModelValidationError(f"channel {i} matrix must be {d} x {d}, got shape {m.shape}")
        m.setflags(write=False)
        audited.append((m, profile))
    return tuple(audited)


def _channel_sum(channels, x, d):
    """sum_a c_a(x) M_a at each of ``x``: (..., d, d), a read-only view where it is constant."""
    x = np.asarray(x, dtype=float)
    terms = [np.asarray(profile(x), dtype=float)[..., None, None] * m for m, profile in channels]
    total = sum(terms[1:], terms[0]) if terms else np.zeros((d, d), dtype=complex)
    return np.broadcast_to(total, x.shape + (d, d))


def profile_values(channels, xs, var="q"):
    """Each channel's profile at ``xs``: floats of shape (len(channels),) + xs.shape.

    A value that is not finite is refused with a ModelValidationError that
    names the first such channel and its first such point.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.empty((len(channels),) + xs.shape)
    for i, (_, profile) in enumerate(channels):
        values[i] = np.asarray(profile(xs), dtype=float)
        bad = np.flatnonzero(~np.isfinite(values[i]))
        if bad.size:
            raise ModelValidationError(
                f"channel {i} profile({var}={xs.flat[bad[0]]:g}) must be finite, "
                f"got {values[i].flat[bad[0]]:g}"
            )
    return values


@dataclass(frozen=True)
class CQModel:
    """One concrete continuous CQ master equation (see module docstring).

    ``dpotential`` maps q to the force V'(q); ``channels`` is a tuple of
    (M, c), a Hermitian d x d matrix and a profile of q, the terms of
    L(q) = dV_I/dq (`lindblad`); ``d2`` and ``d0`` map q to nonnegative
    coefficients.
    """

    mass: float
    dpotential: Callable
    h_q: np.ndarray
    channels: tuple
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
        object.__setattr__(self, "channels", _audit_channels(self.channels, h_q.shape[0]))

    @property
    def hilbert_dim(self) -> int:
        return self.h_q.shape[0]

    def lindblad(self, q):
        """L(q) = sum_a c_a(q) M_a at each q: (..., d, d) complex."""
        return _channel_sum(self.channels, q, self.hilbert_dim)


def classical_force(model: CQModel, q):
    """dH_c/dq = V'(q), the (negated) classical drift of p."""
    return model.dpotential(np.asarray(q, dtype=float))


def validate_model(model: CQModel, qs) -> None:
    """Audit a model at every given q; raise ModelValidationError on failure.

    Checks that each channel's profile, V', D2 and D0 are finite and that
    D2 and D0 are nonnegative, naming the channel or coefficient and the
    first failing q, and -- when the interaction is switched on -- that the
    coupling triple (D2(q), 1/2, D0(q)) passes one `schur_cp_check` of all
    the points stacked; the refusal names the first violating q.  A model
    whose L is zero at every given q has no back-reaction and no Lindblad
    sector there, so only D2 >= 0 is demanded.  (The fixed matrices were
    audited when the model was built.)
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    profile_values(model.channels, qs)
    values = {}
    for name, fn in (("dpotential", model.dpotential), ("d2", model.d2), ("d0", model.d0)):
        v = values[name] = np.broadcast_to(np.asarray(fn(qs), dtype=float), qs.shape)
        # the force takes either sign; D2 and D0 are nonnegative
        bad = np.flatnonzero(~np.isfinite(v) | ((v < 0) & (name != "dpotential")))
        if bad.size:
            need = "nonnegative" if np.isfinite(v[bad[0]]) else "finite"
            raise ModelValidationError(f"{name}(q={qs[bad[0]]:g}) must be {need}, got {v[bad[0]]:g}")
    d2, d0 = values["d2"], values["d0"]
    if not np.abs(model.lindblad(qs)).max() > 0.0:  # no interaction
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
    V_I(q) = profile(q) * M with M a fixed Hermitian matrix, the one
    channel (M, profile'), so L(q) = profile'(q) * M; both derivatives are
    analytic.  Without ``v_i_matrix`` the model has no channel.
    """
    dv = Polynomial(list(potential_coeffs)).deriv()
    dprof = Polynomial(list(v_i_profile)).deriv()
    d2p = Polynomial(list(d2_coeffs))
    d0p = Polynomial(list(d0_coeffs))
    channels = ()
    if v_i_matrix is not None:
        m = require_hermitian(v_i_matrix, name="v_i_matrix")
        if m.shape != np.shape(h_q)[:1] * 2:
            raise ModelValidationError("v_i_matrix dimension must match h_q")
        channels = ((m, dprof),)
    return CQModel(
        mass=mass,
        dpotential=lambda q: dv(np.asarray(q, dtype=float)),
        h_q=h_q,
        channels=channels,
        d2=lambda q: d2p(np.asarray(q, dtype=float)),
        d0=lambda q: d0p(np.asarray(q, dtype=float)),
        hbar=hbar,
    )


# -- diagonal models ---------------------------------------------------------


@dataclass(frozen=True)
class DiagonalizedModel:
    """Fixed-basis data of a model that `diagonalize_model` admits.

    ``basis`` U maps eigen-components to the original basis.  ``h`` holds
    the eigenvalues of H_q; ``dv_eigs`` maps q arrays to (..., d) arrays of
    the levels of L(q) = dV_I/dq in the same fixed order.
    """

    basis: np.ndarray
    h: np.ndarray
    dv_eigs: Callable


def diagonalize_model(model: CQModel) -> DiagonalizedModel:
    """Extract the fixed eigenbasis u of H_q and the channel matrices, or refuse.

    u is the eigenbasis of one fixed generic combination of H_q and the M_a,
    so the basis and the order of its branches depend on the model alone.
    H_q and every M_a must be diagonal in u (see DIAGONAL_TOL), which holds
    exactly when they commute; ModelValidationError names, before any q is
    read, the first pair that does not commute (`_non_commuting`), or else
    the first matrix that is not diagonal (``h_q``, or ``channel i``).  ``dv_eigs(q)``
    is sum_a c_a(q) m_a; it refuses a profile value that is not finite
    (`profile_values`).
    """
    d = model.hilbert_dim
    named = [("h_q", model.h_q)] + [(f"channel {i}", m) for i, (m, _) in enumerate(model.channels)]
    # weights cos 1, cos 2, ... (H_q first): cos k = T_k(cos 1) with cos 1
    # transcendental, so no rational relation cancels distinct levels, and
    # the combination splits shared eigenspaces; the same weights order the
    # branches the same for every caller.  cos 2 < 0 keeps the labels every
    # shipped model has had (with H_q = 0, branch 0 is M's largest level)
    weights = np.cos(np.arange(1.0, len(named) + 1.0))
    _, u = np.linalg.eigh(sum(w * s for w, (_, s) in zip(weights, named, strict=True)))

    diagonals = np.empty((len(named), d))
    for i, (name, s) in enumerate(named):
        rotated = u.conj().T @ s @ u
        off = np.abs(rotated - np.diag(rotated.diagonal())).max()
        if off > DIAGONAL_TOL * (1.0 + np.abs(rotated).max()):
            raise ModelValidationError(
                "model is not diagonal in a common q-independent basis: "
                + (_non_commuting(named) or f"{name} has off-diagonal {off:.3e}")
            )
        diagonals[i] = rotated.diagonal().real
    h, levels = diagonals[0], diagonals[1:]

    def dv_eigs(q):
        out = np.zeros(np.shape(q) + (d,))
        for c, m in zip(profile_values(model.channels, q), levels):
            out += c[..., None] * m
        return out

    return DiagonalizedModel(basis=u, h=h, dv_eigs=dv_eigs)


def _non_commuting(named):
    """The refusal "a and b do not commute" of the first pair of ``named`` matrices
    whose commutator has an entry beyond DIAGONAL_TOL * (1 + max|A|) * (1 + max|B|),
    or None."""
    for (name_a, a), (name_b, b) in itertools.combinations(named, 2):
        gap = np.abs(a @ b - b @ a).max()
        if gap > DIAGONAL_TOL * (1.0 + np.abs(a).max()) * (1.0 + np.abs(b).max()):
            return f"{name_a} and {name_b} do not commute"
    return None


# -- continuous measurement ---------------------------------------------------


@dataclass(frozen=True)
class MeasurementModel:
    """Continuous measurement of a Hermitian operator Z(z) at strength k(z).

    ``channels`` is a nonempty tuple of (M, c), fixed Hermitian d x d
    matrices and profiles of the signal, with Z(z) = sum c(z) M (`z_op`);
    ``k`` maps signal values to positive strengths.  ``h`` is an optional
    unitary part.  The induced master-equation couplings are D1 = 1/2,
    D0(z) = 2 k(z), D2(z) = 1/(8 k(z)); the trade-off is saturated, so
    conditional states stay pure.
    """

    channels: tuple
    k: Callable
    h: Optional[np.ndarray] = None
    hbar: float = 1.0

    def __post_init__(self):
        if not self.channels:
            raise ModelValidationError("a measurement model needs at least one channel")
        d = np.shape(self.channels[0][0])[-1]
        object.__setattr__(self, "channels", _audit_channels(self.channels, d))
        if self.h is not None:
            h = require_hermitian(self.h, name="h")
            if h.shape != (d, d):
                raise ModelValidationError(f"h must be {d} x {d}, like Z, got shape {h.shape}")
            h.setflags(write=False)
            object.__setattr__(self, "h", h)

    @property
    def hilbert_dim(self) -> int:
        return self.channels[0][0].shape[0]

    def z_op(self, z):
        """Z(z) = sum_a c_a(z) M_a at each signal value: (..., d, d) complex."""
        return _channel_sum(self.channels, z, self.hilbert_dim)

    def d0(self, z):
        return 2.0 * np.asarray(self.k(z), dtype=float)

    def d2(self, z):
        return 1.0 / (8.0 * np.asarray(self.k(z), dtype=float))

    def validate(self, zs) -> None:
        """Audit each channel's profile (finite) and k (finite, > 0) at each of ``zs``."""
        zs = np.atleast_1d(np.asarray(zs, dtype=float))
        profile_values(self.channels, zs, var="z")
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

    Its channels are (Z0, 1) and, with ``z_feedback`` Z1, (Z1, z): the
    measured operator Z0 + z * Z1.  ``k_slope`` adds k_slope * z to the
    strength (caller must keep k positive on the visited range).
    """
    channels = [(require_hermitian(z_matrix, name="z_matrix"), lambda z: 1.0)]
    if z_feedback is not None:
        channels.append((require_hermitian(z_feedback, name="z_feedback"), lambda z: z))
    k0 = float(k)

    def k_fn(z):
        z = np.asarray(z, dtype=float)
        return k0 + k_slope * z

    return MeasurementModel(channels=tuple(channels), k=k_fn, h=h, hbar=hbar)


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
