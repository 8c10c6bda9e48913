"""The configuration-space path weight as the density of a chain in q alone.

`config_action` evaluates the force and D2 at the interior point q_k of
each three-sample window.  It is then exactly the log transition density
of the Euler-Maruyama Stoermer-Verlet chain

    q_{k+1} = 2 q_k - q_{k-1} - (dt^2/m) F(q_k) + (dt/m) sqrt(D2(q_k) dt) xi_k,

with F = V', plus (l_a + l_b)/2 for a branch pair: per step,

    -config term - (1/2) log D2(q_k) - log(dt^{3/2}/m) - (1/2) log 2 pi
        = log N(q_{k+1}; 2 q_k - q_{k-1} - (dt^2/m) F(q_k), (dt^3/m^2) D2(q_k)).

This is criterion 09's identity moved to configuration space.  The chain
is sampled here with numpy, its force and D2 taken from the models'
coefficients, and nothing is imported from `cqsim.generator`.  The route
check compares the chain's endpoints with the exact q-marginal of
`tests/exact_gaussian.py`.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy import stats

from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import polynomial_cq_model
from cqsim.paths import BranchPair, ClassicalPath, config_action

from exact_gaussian import cq_populations

# name: (mass, V coefficients, V_I profile coefficients, diag(M), D2 coefficients, pair)
MODELS = {
    "constant_d2": (1.2, [0.0, 0.0, 0.4], [0.0], [0.0], [0.5], None),
    "q_dependent_d2": (1.2, [0.0, 0.3, 0.4], [0.0], [0.0], [0.5, 0.1, 0.1], None),
    "branch_pair": (0.9, [0.0, 0.0, 0.3], [0.0, 0.5, 0.2], [1.0, -0.4], [0.25, 0.05], (0, 1)),
}


def build(mass, potential, profile, levels, d2, pair):
    """The model, F(q) and D2(q) from the coefficients, and the BranchPair or None."""
    d = len(levels)
    model = polynomial_cq_model(
        mass=mass,
        potential_coeffs=potential,
        h_q=np.diag(np.arange(d, dtype=float)),
        v_i_matrix=np.diag(levels),
        v_i_profile=profile,
        d2_coeffs=d2,
        d0_coeffs=[4.0],
    )
    dv, dprof = Polynomial(potential).deriv(), Polynomial(profile).deriv()
    mean_level = 0.0 if pair is None else 0.5 * (levels[pair[0]] + levels[pair[1]])
    force = lambda q: dv(q) + mean_level * dprof(q)
    return model, force, Polynomial(d2), None if pair is None else BranchPair(*pair)


def sample_chain(force, d2, mass, q0, p0, dt, n, n_chains, rng):
    """(n_chains, n + 1) samples q_0 ... q_n of the chain, from (q0, q0 + p0 dt/m)."""
    q = np.empty((n_chains, n + 1))
    q[:, 0] = q0
    q[:, 1] = q0 + p0 * dt / mass
    for k in range(1, n):
        qk = q[:, k]
        noise = (dt / mass) * np.sqrt(d2(qk) * dt) * rng.standard_normal(n_chains)
        q[:, k + 1] = 2.0 * qk - q[:, k - 1] - (dt * dt / mass) * force(qk) + noise
    return q


@pytest.mark.parametrize("name", list(MODELS))
def test_config_weight_is_the_chain_density(name):
    mass = MODELS[name][0]
    model, force, d2, pair = build(*MODELS[name])
    dt, n = 0.01, 60  # 59 steps of the chain
    q = sample_chain(force, d2, mass, 0.2, -0.1, dt, n, 100, np.random.default_rng(9))
    worst = 0.0
    for k in range(1, n):
        qk = q[:, k]
        term = config_action(ClassicalPath(dt=dt, q=q[:, k - 1 : k + 2]), model, pair)
        ours = -term - 0.5 * np.log(d2(qk)) - np.log(dt**1.5 / mass) - 0.5 * np.log(2.0 * np.pi)
        mean = 2.0 * qk - q[:, k - 1] - (dt * dt / mass) * force(qk)
        oracle = stats.norm.logpdf(q[:, k + 1], loc=mean, scale=(dt / mass) * np.sqrt(d2(qk) * dt))
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    assert worst < 1e-10, f"{name}: chain density gap {worst:.2e}"


@pytest.mark.parametrize("branch", [0, 1])
def test_chain_endpoints_match_the_exact_populations(branch):
    # V = 0, V_I = lam q sigma_z and constant D2: on the pair (a, a) the chain
    # feels the constant force l_a = +-lam, and population a's q-marginal is
    # a Gaussian at every t
    lam, d2, mass, t, n, n_chains = 0.5, 0.25, 1.0, 0.5, 100, 200_000
    q0, p0 = 0.1, 0.3
    pair = (branch, branch)
    model, force, d2_of_q, _ = build(mass, [0.0], [0.0, lam], [1.0, -1.0], [d2], pair)
    rng = np.random.default_rng(31 + branch)
    q = sample_chain(force, d2_of_q, mass, q0, p0, t / n, n, n_chains, rng)
    grid = PhaseGrid((GridAxis("q", -0.6, 0.8, 57), GridAxis("p", -2.5, 2.5, 201)))
    exact = cq_populations(model, grid, t, (q0, p0), (0.0, 0.0), (1.0, 1.0))[..., branch]
    marginal = exact.sum(axis=1) * grid.axes[1].spacing
    counts, _ = np.histogram(q[:, -1], bins=grid.edges("q"))
    hq = grid.axes[0].spacing
    assert counts.sum() > 0.999 * n_chains  # the grid holds the endpoints
    l1 = float(np.sum(np.abs(counts / (n_chains * hq) - marginal)) * hq)
    assert l1 <= 0.03, f"branch {branch}: endpoint L1 {l1:.3f}"
