"""Positive-semidefinite linear algebra for hybrid coupling matrices.

Consistency of continuous classical-quantum dynamics reduces to positivity
of the block coupling matrix

    D = [[D2, D1], [D1^dag, D0]]  >= 0,

where D2 is the classical diffusion matrix, D0 the Lindbladian coupling and
D1 the back-reaction block.  By the Schur complement this is equivalent to

    D0 >= 0,   D2 - D1 D0^{-1} D1^dag >= 0,   (I - D0 D0^{-1}) D1^dag = 0,

with the generalized (Moore-Penrose) inverse throughout, since the blocks
are only required to be positive *semi*-definite.  The second condition is
the decoherence-diffusion trade-off: back-reaction forces a diffusion floor
on the classical system given a decoherence rate.  Equality is the
"saturated" regime in which the conditional quantum state stays pure.

This module provides the eigendecomposition-based primitives (`is_psd`,
`pseudo_inverse`) and the two-route complete-positivity audit
(`schur_cp_check`, `tradeoff_verdict`).  All functions are pure and operate
on immutable inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Verdict",
    "CouplingTriple",
    "CPReport",
    "is_psd",
    "pseudo_inverse",
    "schur_cp_check",
    "tradeoff_verdict",
    "spectral_norm",
]

# Relative eigenvalue cutoff for the generalized inverse; the margin below
# which the trade-off is declared saturated is SATURATION_TOL * (1 + ||D2||).
RANK_TOL = 1e-10
SATURATION_TOL = 1e-9
HERMITICITY_TOL = 1e-12


class Verdict(enum.Enum):
    """Outcome of a complete-positivity audit."""

    VIOLATED = "Violated"
    SATISFIED = "Satisfied"
    SATURATED = "Saturated"


def _as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    return a


def require_hermitian(m, name="matrix"):
    """Return ``m`` as a complex square array, rejecting non-Hermitian input.

    The defect ``max|m - m^dag|`` must not exceed ``HERMITICITY_TOL * (1 + max|m|)``.
    """
    a = _as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
    defect = np.abs(a - a.conj().T).max() if a.size else 0.0
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e}*(1+max|entry|)"
        )
    return 0.5 * (a + a.conj().T)


def is_psd(m):
    """True iff the Hermitian matrix ``m`` is positive semi-definite.

    The test is ``min eig >= -RANK_TOL * (1 + spectral radius)``, via a full
    Hermitian eigendecomposition so that boundary-of-cone cases (zero
    eigenvalues) are accepted.
    """
    a = require_hermitian(m)
    if a.size == 0:
        return True
    w = np.linalg.eigvalsh(a)
    radius = np.abs(w).max()
    return bool(w.min() >= -RANK_TOL * (1.0 + radius))


def pseudo_inverse(m):
    """Moore-Penrose inverse of a Hermitian matrix via eigendecomposition.

    Eigenvalues of magnitude below ``RANK_TOL * max|eig|`` are treated as
    exact zeros (mapped to 0 in the inverse); the rest are reciprocated.
    """
    a = require_hermitian(m)
    if a.size == 0:
        return a
    w, v = np.linalg.eigh(a)
    scale = np.abs(w).max()
    if scale == 0.0:
        return np.zeros_like(a)
    inv_w = np.where(np.abs(w) > RANK_TOL * scale, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (v * inv_w) @ v.conj().T


@dataclass(frozen=True)
class CouplingTriple:
    """Coupling blocks (D2, D1, D0) of a continuous hybrid master equation.

    ``d2`` (classical diffusion) is n_c x n_c Hermitian, ``d0`` (Lindbladian
    coupling) is n_l x n_l Hermitian and ``d1`` (back-reaction) is the
    rectangular n_c x n_l block, with units such that d1 * d0^{-1} * d1^dag
    is commensurate with d2.
    """

    d2: np.ndarray
    d1: np.ndarray
    d0: np.ndarray

    def __post_init__(self):
        d2 = require_hermitian(self.d2, name="d2")
        d0 = require_hermitian(self.d0, name="d0")
        d1 = _as_matrix(self.d1, name="d1")
        if d1.shape != (d2.shape[0], d0.shape[0]):
            raise ValueError(
                f"d1 shape {d1.shape} not conformable with d2 {d2.shape} and d0 {d0.shape}"
            )
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d0", d0)

    @property
    def block(self):
        """The assembled block matrix [[D2, D1], [D1^dag, D0]]."""
        top = np.hstack([self.d2, self.d1])
        bottom = np.hstack([self.d1.conj().T, self.d0])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class CPReport:
    """Result of the two-route complete-positivity audit of a CouplingTriple.

    ``tradeoff_margin`` is the smallest eigenvalue of the Schur complement
    D2 - D1 D0^{-1} D1^dag; zero margin (within tolerance) with all checks
    passing is the saturated trade-off.
    """

    block_psd: bool
    d0_psd: bool
    d2_psd: bool
    schur_ok: bool
    support_ok: bool
    tradeoff_margin: float
    verdict: Verdict

    def to_dict(self):
        return {
            "block_psd": self.block_psd,
            "d0_psd": self.d0_psd,
            "d2_psd": self.d2_psd,
            "schur_ok": self.schur_ok,
            "support_ok": self.support_ok,
            "tradeoff_margin": self.tradeoff_margin,
            "verdict": self.verdict.value,
        }


def schur_cp_check(triple: CouplingTriple) -> CPReport:
    """Audit complete positivity of a coupling triple along both routes.

    Route one checks the assembled block matrix directly for positive
    semi-definiteness.  Route two checks the equivalent Schur conditions
    {D0 >= 0, D2 - D1 D0^{-1} D1^dag >= 0, (I - D0 D0^{-1}) D1^dag = 0}.
    The two routes must agree; the report carries enough detail for tests
    to assert that equivalence.
    """
    d2, d1, d0 = triple.d2, triple.d1, triple.d0

    d0_psd = is_psd(d0)
    d2_psd = is_psd(d2)

    d0_pinv = pseudo_inverse(d0)
    schur = d2 - d1 @ d0_pinv @ d1.conj().T
    schur = 0.5 * (schur + schur.conj().T)
    schur_eigs = np.linalg.eigvalsh(schur) if schur.size else np.zeros(0)
    margin = float(schur_eigs.min()) if schur_eigs.size else 0.0
    schur_scale = 1.0 + (np.abs(schur_eigs).max() if schur_eigs.size else 0.0)
    schur_ok = bool(margin >= -RANK_TOL * schur_scale)

    # Support condition: columns of D1^dag must lie in the range of D0.
    residual = (np.eye(d0.shape[0]) - d0 @ d0_pinv) @ d1.conj().T
    support_scale = 1.0 + (np.abs(d1).max() if d1.size else 0.0)
    support_ok = bool(np.abs(residual).max() <= 1e3 * RANK_TOL * support_scale)

    block_psd = is_psd(triple.block)

    if not block_psd:
        verdict = Verdict.VIOLATED
    elif abs(margin) <= SATURATION_TOL * (1.0 + spectral_norm(d2)):
        verdict = Verdict.SATURATED
    else:
        verdict = Verdict.SATISFIED

    return CPReport(
        block_psd=block_psd,
        d0_psd=d0_psd,
        d2_psd=d2_psd,
        schur_ok=schur_ok,
        support_ok=support_ok,
        tradeoff_margin=margin,
        verdict=verdict,
    )


def tradeoff_verdict(triple: CouplingTriple) -> Verdict:
    """Classify the decoherence-diffusion trade-off for a coupling triple.

    Violated if the block matrix fails positivity; Saturated when
    D0 = D1^dag D2^{-1} D1 within ``SATURATION_TOL`` (the purity-preserving regime);
    Satisfied otherwise.
    """
    if not is_psd(triple.block):
        return Verdict.VIOLATED
    d2_pinv = pseudo_inverse(triple.d2)
    target = triple.d1.conj().T @ d2_pinv @ triple.d1
    gap = np.abs(triple.d0 - target).max()
    if gap <= SATURATION_TOL * (1.0 + np.abs(triple.d0).max()):
        return Verdict.SATURATED
    return Verdict.SATISFIED


def spectral_norm(mats) -> float:
    """Largest |eigenvalue| of a Hermitian matrix or a stack of them (0 for none)."""
    if mats.size == 0 or not mats.any():
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(mats)).max())
