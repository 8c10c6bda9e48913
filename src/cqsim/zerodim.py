"""Zero-dimensional toy theory: exact free theory, Wick engine, quadrature.

The toy couples one classical variable q to a doubled quantum pair
(phi+, phi-) through the weight exp(I) with

    I = -(i/hbar) m_phi^2 (phi+)^2 / 2 + (i/hbar) m_phi^2 (phi-)^2 / 2
        - (1/(2 D2)) [ q^2 m_q^4
                       + (1/2) lambda^2 q^2 ((phi+)^4 + (phi-)^4)
                       + (1/2) lambda q m_q^2 ((phi+)^2 + (phi-)^2) ].

D2 plays the role hbar plays in a quantum theory: moments are computed
perturbatively in the interaction with free propagators

    <phi+ phi+> = -i hbar / m_phi^2,  <phi- phi-> = +i hbar / m_phi^2,
    <q q> = D2 / m_q^4,

all cross-pairings vanishing, and the perturbative engine automates the
Wick/Isserlis pairing sum.  The independent oracle integrates the same
weight directly: the oscillatory phi directions are rotated onto damped
contours phi+- -> e^{-+ i theta} s, turning Fresnel factors into Gaussians
(theta = pi/4 exactly Gaussianizes the free theory; the interacting quartic
requires theta <= pi/8 to stay damped, so pi/12 is used when lambda != 0).
Wherever a printed vertex factor and the Wick engine disagree, the
quadrature is the arbiter.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np

from .models import ToyParams

__all__ = [
    "SourceTriple",
    "z_free",
    "free_propagators",
    "vertex_factors",
    "interaction_terms",
    "wick_moment",
    "moment_perturbative",
    "moment_quadrature",
    "QuadratureError",
]

from dataclasses import dataclass

WICK_DEGREE_CAP = 12
PERTURBATIVE_ORDER_CAP = 3
FREE_ROTATION = math.pi / 4.0
INTERACTING_ROTATION = math.pi / 12.0
# `moment_quadrature`'s box spans this many Gaussian widths per direction,
# and the integrand on its faces must stay below TAIL_TOL x its peak.
BOX_WIDTHS = 8.0
TAIL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """The requested configuration does not converge inside the box."""


@dataclass(frozen=True)
class SourceTriple:
    """Sources conjugate to phi+, phi- and q in the partition function."""

    j_plus: float = 0.0
    j_minus: float = 0.0
    j_q: float = 0.0


def z_free(p: ToyParams, s: SourceTriple) -> complex:
    """Exact free partition function with sources.

    Z0 * exp(i J+^2 / (2 hbar m_phi^2)) * exp(-i J-^2 / (2 hbar m_phi^2))
       * exp(J_q^2 / (2 D2 m_q^4)),
    with prefactor Z0 = (-2 pi i hbar/m_phi^2)(2 pi i hbar/m_phi^2)
    (pi D2/m_q^4).  Z0 cancels from every normalized moment.
    """
    mphi2 = p.m_phi**2
    mq4 = p.m_q**4
    z0 = (-2.0j * math.pi * p.hbar / mphi2) * (2.0j * math.pi * p.hbar / mphi2) * (
        math.pi * p.d2 / mq4
    )
    return z0 * complex(
        np.exp(1j * s.j_plus**2 / (2.0 * p.hbar * mphi2))
        * np.exp(-1j * s.j_minus**2 / (2.0 * p.hbar * mphi2))
        * np.exp(s.j_q**2 / (2.0 * p.d2 * mq4))
    )


def free_propagators(p: ToyParams):
    """(<phi+ phi+>, <phi- phi->, <q q>) of the source-free theory."""
    g_plus = -1j * p.hbar / p.m_phi**2
    g_minus = +1j * p.hbar / p.m_phi**2
    g_q = p.d2 / p.m_q**4
    return g_plus, g_minus, g_q


def vertex_factors(p: ToyParams):
    """Vertex values per branch: tri q phi^2 and sextic q^2 phi^4.

    tri = -(2! / (4 D2)) lambda m_q^2, sextic = -(lambda^2 4! 2!) / (4 D2),
    one of each per +- branch.
    """
    tri = -(math.factorial(2) / (4.0 * p.d2)) * p.lam * p.m_q**2
    sextic = -(p.lam**2 * math.factorial(4) * math.factorial(2)) / (4.0 * p.d2)
    return {
        "tri_plus": tri,
        "tri_minus": tri,
        "sextic_plus": sextic,
        "sextic_minus": sextic,
    }


def interaction_terms(p: ToyParams):
    """The interaction as monomial terms (coefficient, (n_q, n_plus, n_minus)).

    exp(I_int) with I_int = sum coeff * q^nq (phi+)^np (phi-)^nm.
    """
    c_quartic = -p.lam**2 / (4.0 * p.d2)
    c_cross = -p.lam * p.m_q**2 / (4.0 * p.d2)
    return [
        (c_quartic, (2, 4, 0)),
        (c_quartic, (2, 0, 4)),
        (c_cross, (1, 2, 0)),
        (c_cross, (1, 0, 2)),
    ]


def wick_moment(powers, propagators=None, params: ToyParams | None = None, degree_cap=WICK_DEGREE_CAP) -> complex:
    """Gaussian moment <q^a (phi+)^b (phi-)^c> by exact pairing enumeration.

    The monomial is a multiset of field labels; the recursion pairs the
    first unpaired label with every admissible partner (zero propagators
    pruned), which reproduces the Isserlis double-factorial combinatorics.
    ``propagators`` is a 3x3 symmetric matrix of contractions in the order
    (q, phi+, phi-); by default the free theory of ``params`` with
    vanishing cross-pairings.
    """
    a, b, c = powers
    if a < 0 or b < 0 or c < 0:
        raise ValueError("monomial powers must be nonnegative")
    if a + b + c > degree_cap:
        raise ValueError(f"monomial degree {a + b + c} exceeds the pairing cap {degree_cap}")
    if propagators is None:
        if params is None:
            raise ValueError("need either propagators or params")
        gp, gm, gq = free_propagators(params)
        propagators = np.zeros((3, 3), dtype=complex)
        propagators[0, 0] = gq
        propagators[1, 1] = gp
        propagators[2, 2] = gm
    prop = np.asarray(propagators, dtype=complex)

    cache = {}

    def pair(counts):
        if sum(counts) == 0:
            return 1.0 + 0.0j
        if counts in cache:
            return cache[counts]
        t = next(i for i, n in enumerate(counts) if n > 0)
        acc = 0.0 + 0.0j
        base = list(counts)
        base[t] -= 1
        if base[t] > 0 and prop[t, t] != 0:
            dec = base.copy()
            dec[t] -= 1
            acc += base[t] * prop[t, t] * pair(tuple(dec))
        for s in range(3):
            if s == t or base[s] == 0 or prop[t, s] == 0:
                continue
            dec = base.copy()
            dec[s] -= 1
            acc += counts[s] * prop[t, s] * pair(tuple(dec))
        cache[counts] = acc
        return acc

    return complex(pair((a, b, c)))


def moment_perturbative(p: ToyParams, observable, order: int) -> complex:
    """Interacting moment of q^a (phi+)^b (phi-)^c at a given order.

    Expands exp(I_int) to the requested order in the interaction, reduces
    every resulting monomial with the Wick engine, and normalizes by the
    identical expansion of the partition function.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > PERTURBATIVE_ORDER_CAP:
        raise ValueError(
            f"order {order} exceeds the cap {PERTURBATIVE_ORDER_CAP} (combinatorial blow-up)"
        )
    a, b, c = observable
    terms = interaction_terms(p)
    # the pairing cap must admit every monomial this order can generate
    max_term_degree = max(sum(pw) for _, pw in terms)
    cap = a + b + c + max_term_degree * order

    numer = 0.0 + 0.0j
    denom = 0.0 + 0.0j
    for k in range(order + 1):
        for combo in combinations_with_replacement(range(len(terms)), k):
            counts = Counter(combo)
            weight = 1.0
            powers = np.array([a, b, c])
            powers0 = np.array([0, 0, 0])
            coeff = 1.0 + 0.0j
            for idx, mult in counts.items():
                coeff *= terms[idx][0] ** mult / math.factorial(mult)
                powers = powers + mult * np.array(terms[idx][1])
                powers0 = powers0 + mult * np.array(terms[idx][1])
            numer += coeff * wick_moment(tuple(powers), params=p, degree_cap=cap)
            denom += coeff * wick_moment(tuple(powers0), params=p, degree_cap=cap)
    if denom == 0:
        raise ZeroDivisionError("perturbative partition function vanished")
    return numer / denom


# -- direct quadrature oracle --------------------------------------------------


def _phi_exponent(p: ToyParams, q, s, theta, branch):
    """Exponent of the phi integrand on the rotated contour, without Jacobian.

    branch +1 rotates phi+ = e^{-i theta} s; branch -1 rotates
    phi- = e^{+i theta} s.  q may broadcast against s.
    """
    rot2 = np.exp(-2j * branch * theta)
    rot4 = rot2 * rot2
    quad_free = (-1j * branch) * p.m_phi**2 / (2.0 * p.hbar)
    quartic = -(p.lam**2) * q**2 / (4.0 * p.d2)
    cross = -(p.lam * p.m_q**2 * q) / (4.0 * p.d2)
    return (quad_free + cross) * rot2 * s**2 + quartic * rot4 * s**4


def moment_quadrature(p: ToyParams, observable, n_nodes=240, full_output=False):
    """Interacting moment by direct integration over (phi+, phi-, q).

    The three-variable integral factorizes per q slice, so nested
    Gauss-Legendre rules over a truncated box (`BOX_WIDTHS` Gaussian widths
    per direction) evaluate it; the box is doubled to estimate the
    truncation error.  Refuses configurations whose integrand has not
    decayed at the box boundary.
    """
    a, b, c = observable
    theta = FREE_ROTATION if p.lam == 0.0 else INTERACTING_ROTATION

    def evaluate(scale, nodes):
        # one Gauss-Legendre rule, scaled to the q box and to the s box
        x, w = np.polynomial.legendre.leggauss(nodes)
        sigma_q = math.sqrt(p.d2) / p.m_q**2
        lq = BOX_WIDTHS * scale * sigma_q
        q = x * lq
        wq = w * lq

        alpha = (p.m_phi**2 / (2.0 * p.hbar)) * math.sin(2.0 * theta)
        sigma_s = 1.0 / math.sqrt(2.0 * alpha)
        ls = BOX_WIDTHS * scale * sigma_s
        s = x * ls
        ws = w * ls

        # (nq, ns) integrands per branch; overflow is tolerated here because
        # the tail check below rejects any non-decayed configuration
        with np.errstate(over="ignore", invalid="ignore"):
            gp = np.exp(_phi_exponent(p, q[:, None], s[None, :], theta, +1))
            gm = np.exp(_phi_exponent(p, q[:, None], s[None, :], theta, -1))
        # tail responsibility first: |integrand| = q_weight |gp(s+)| |gm(s-)|
        # must be finite and decayed on every face of the truncated box
        q_weight = np.exp(-(q**2) * p.m_q**4 / (2.0 * p.d2))
        abs_p, abs_m = np.abs(gp), np.abs(gm)
        if not (np.isfinite(abs_p).all() and np.isfinite(abs_m).all()):
            raise QuadratureError("integrand overflowed in the box; configuration rejected")
        max_p, max_m = abs_p.max(axis=1), abs_m.max(axis=1)
        edge_p = np.maximum(abs_p[:, 0], abs_p[:, -1])
        edge_m = np.maximum(abs_m[:, 0], abs_m[:, -1])
        peak = (q_weight * max_p * max_m).max()
        faces = max(
            (q_weight * edge_p * max_m).max(),
            (q_weight * max_p * edge_m).max(),
            q_weight[0] * max_p[0] * max_m[0],
            q_weight[-1] * max_p[-1] * max_m[-1],
        )
        if peak == 0.0:
            raise QuadratureError("integrand vanished in the box; configuration rejected")
        if faces > TAIL_TOL * peak:
            raise QuadratureError(
                f"integrand not decayed at box boundary (ratio {faces / peak:.2e}); "
                "configuration refused as non-convergent"
            )

        jac_p = np.exp(-1j * theta)
        jac_m = np.exp(+1j * theta)

        def phi_integral(g, jac, power):
            mono = s[None, :] ** power if power else 1.0
            return jac ** (power + 1) * (g * mono) @ ws

        a_num = phi_integral(gp, jac_p, b)
        b_num = phi_integral(gm, jac_m, c)
        a_den = phi_integral(gp, jac_p, 0)
        b_den = phi_integral(gm, jac_m, 0)

        numer = np.sum(wq * (q**a) * q_weight * a_num * b_num)
        denom = np.sum(wq * q_weight * a_den * b_den)
        if denom == 0:
            raise QuadratureError("partition function quadrature vanished")
        return numer / denom

    coarse = evaluate(1.0, n_nodes)
    fine = evaluate(2.0, 2 * n_nodes)
    err = abs(fine - coarse)
    if full_output:
        return complex(fine), float(err)
    return complex(fine)
