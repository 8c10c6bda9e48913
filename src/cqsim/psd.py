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
on immutable inputs.  Each also takes a stack of matrices or triples
(leading axes) and judges every matrix or triple of it on its own.
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
    if a.ndim < 2:
        raise ValueError(f"{name} must be a 2-d array or a stack of them, got shape {a.shape}")
    return a


def _dagger(a):
    """Conjugate transpose over the trailing matrix axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _max_abs(a):
    """Largest |entry| of each matrix of a stack (0 for an empty matrix)."""
    # entries leading: numpy reduces short trailing axes one matrix at a time
    entries = np.abs(a).reshape(a.shape[:-2] + (-1,))
    return np.ascontiguousarray(np.moveaxis(entries, -1, 0)).max(0, initial=0.0)


def require_hermitian(m, name="matrix"):
    """Return ``m`` as a complex square array, rejecting non-finite or non-Hermitian input.

    An entry that is not finite is refused first, before any arithmetic,
    as ``name[k][i, j]`` (k the index of its matrix in a stack).  The defect
    ``max|m - m^dag|`` must not exceed ``HERMITICITY_TOL * (1 + max|m|)``;
    the refusal names the first failing matrix, ``name[k]``.
    """
    a = _as_matrix(m, name)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = "".join(f"[{i}]" for i in at[:-2])
        raise ValueError(f"{name}{where}[{at[-2]}, {at[-1]}] is not finite, got {a[at]}")
    a_dag = _dagger(a)
    defect = _max_abs(a - a_dag)
    bad = np.argwhere(defect > HERMITICITY_TOL * (1.0 + _max_abs(a)))
    if len(bad):
        at = tuple(bad[0])
        where = "".join(f"[{i}]" for i in at)
        raise ValueError(
            f"{name}{where} is not Hermitian: defect {defect[at]:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e}*(1+max|entry|)"
        )
    return 0.5 * (a + a_dag)


def is_psd(m):
    """Whether the Hermitian matrix ``m`` (each matrix of a stack) is positive semi-definite.

    The test is ``min eig >= -RANK_TOL * (1 + spectral radius)``, via a full
    Hermitian eigendecomposition so that boundary-of-cone cases (zero
    eigenvalues) are accepted.
    """
    w = np.linalg.eigvalsh(require_hermitian(m))
    radius = np.abs(w).max(-1, initial=0.0)
    return w.min(-1, initial=np.inf) >= -RANK_TOL * (1.0 + radius)


def pseudo_inverse(m):
    """Moore-Penrose inverse of a Hermitian matrix (of each matrix of a stack).

    Eigenvalues of magnitude below ``RANK_TOL * max|eig|`` are treated as
    exact zeros (mapped to 0 in the inverse); the rest are reciprocated.
    """
    w, v = np.linalg.eigh(require_hermitian(m))
    scale = np.abs(w).max(-1, keepdims=True, initial=0.0)
    inv_w = np.where(np.abs(w) > RANK_TOL * scale, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (v * inv_w[..., None, :]) @ _dagger(v)


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
        if d1.shape != d2.shape[:-1] + d0.shape[-1:] or d0.shape[:-2] != d2.shape[:-2]:
            raise ValueError(
                f"d1 shape {d1.shape} not conformable with d2 {d2.shape} and d0 {d0.shape}"
            )
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d0", d0)

    @property
    def block(self):
        """The assembled block matrix [[D2, D1], [D1^dag, D0]]."""
        return np.block([[self.d2, self.d1], [_dagger(self.d1), self.d0]])


@dataclass(frozen=True)
class CPReport:
    """Result of the two-route complete-positivity audit of a CouplingTriple.

    ``tradeoff_margin`` is the smallest eigenvalue of the Schur complement
    D2 - D1 D0^{-1} D1^dag; zero margin (within tolerance) with all checks
    passing is the saturated trade-off.  A stack's report holds arrays.
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
            "block_psd": bool(self.block_psd),
            "d0_psd": bool(self.d0_psd),
            "d2_psd": bool(self.d2_psd),
            "schur_ok": bool(self.schur_ok),
            "support_ok": bool(self.support_ok),
            "tradeoff_margin": float(self.tradeoff_margin),
            "verdict": self.verdict.value,
        }


def schur_cp_check(triple: CouplingTriple) -> CPReport:
    """Audit complete positivity of a coupling triple along both routes.

    Route one checks the assembled block matrix directly for positive
    semi-definiteness.  Route two checks the equivalent Schur conditions
    {D0 >= 0, D2 - D1 D0^{-1} D1^dag >= 0, (I - D0 D0^{-1}) D1^dag = 0}.
    The two routes must agree; the report carries enough detail for tests
    to assert that equivalence.  A stack of triples is audited in one pass.
    """
    d2, d1, d0 = triple.d2, triple.d1, triple.d0
    d0_pinv = pseudo_inverse(d0)
    schur = d2 - d1 @ d0_pinv @ _dagger(d1)
    schur = 0.5 * (schur + _dagger(schur))
    schur_eigs = np.linalg.eigvalsh(schur)
    margin = schur_eigs.min(-1)
    schur_ok = margin >= -RANK_TOL * (1.0 + np.abs(schur_eigs).max(-1))

    # Support condition: columns of D1^dag must lie in the range of D0.
    residual = (np.eye(d0.shape[-1]) - d0 @ d0_pinv) @ _dagger(d1)
    support_ok = _max_abs(residual) <= 1e3 * RANK_TOL * (1.0 + _max_abs(d1))

    block_psd = is_psd(triple.block)

    d2_norm = np.abs(np.linalg.eigvalsh(d2)).max(-1, initial=0.0)
    saturated = np.abs(margin) <= SATURATION_TOL * (1.0 + d2_norm)
    trade = np.where(saturated, Verdict.SATURATED, Verdict.SATISFIED)

    return CPReport(
        block_psd=block_psd,
        d0_psd=is_psd(d0),
        d2_psd=is_psd(d2),
        schur_ok=schur_ok,
        support_ok=support_ok,
        tradeoff_margin=margin,
        verdict=np.where(block_psd, trade, Verdict.VIOLATED)[()],
    )


def tradeoff_verdict(triple: CouplingTriple) -> Verdict:
    """Classify the decoherence-diffusion trade-off for a coupling triple.

    Violated if the block matrix fails positivity; Saturated when
    D0 = D1^dag D2^{-1} D1 within ``SATURATION_TOL`` (the purity-preserving regime);
    Satisfied otherwise.
    """
    target = _dagger(triple.d1) @ pseudo_inverse(triple.d2) @ triple.d1
    saturated = _max_abs(triple.d0 - target) <= SATURATION_TOL * (1.0 + _max_abs(triple.d0))
    trade = np.where(saturated, Verdict.SATURATED, Verdict.SATISFIED)
    return np.where(is_psd(triple.block), trade, Verdict.VIOLATED)[()]


def spectral_norm(mats) -> float:
    """Largest |eigenvalue| of a Hermitian matrix or a stack of them (0 for none)."""
    if mats.size == 0 or not mats.any():
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(mats)).max())
