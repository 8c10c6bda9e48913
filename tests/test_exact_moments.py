"""`evolve` and `evolve_measurement` against the exact operator moments of `exact_moments`.

The grid's moments of degree <= 2 must agree with the closed moment
equations within BOUND on a non-commuting d = 2 model, a random d = 3
model and the measurement equation; oracles whose equation has one term
flipped or dropped must not.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from cqsim.generator import cfl_limit, evolve, evolve_measurement
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import constant_measurement_model, polynomial_cq_model
from cqsim.state import gaussian_product_state

from conftest import SIGMA_X, SIGMA_Z, random_psd
from exact_moments import (
    CQ_DEGREES,
    MEASUREMENT_DEGREES,
    cq_moments,
    grid_moments,
    measurement_moments,
)

BOUND = 1e-6
RHO = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def _cq_case(name):
    """(equation parameters of the oracle, model, rho_q) of one CQ case."""
    if name == "non_commuting_d2":
        # grid_long's model: V = q^2/2, H_q = 0.5 sigma_x, V_I = 0.8 q sigma_z
        h_q, matrix, rho = 0.5 * SIGMA_X, SIGMA_Z, RHO
        coeffs, slope, d2 = (0.0, 0.0, 0.5), 0.8, 0.25
    else:
        rng = np.random.default_rng(3)
        h_q, matrix = _random_hermitian(rng, 3), _random_hermitian(rng, 3)
        rho = random_psd(rng, 3)
        rho = rho / np.trace(rho).real
        coeffs, slope, d2 = (0.1, 0.2, 0.5), 0.6, 0.3
    model = polynomial_cq_model(
        mass=1.0, potential_coeffs=coeffs, h_q=h_q, v_i_matrix=matrix,
        v_i_profile=[0.0, slope], d2_coeffs=[d2], d0_coeffs=[1.0],
    )
    params = dict(mass=1.0, c1=coeffs[1], c2=coeffs[2], h_q=h_q, lop=slope * matrix, d2=d2, d0=1.0)
    return params, model, rho


def _steps(t, limit):
    n = math.ceil(t / (0.4 * limit))
    return t / n, n


@lru_cache(maxsize=None)
def _cq_run(name, n=61, t=0.2):
    """(oracle parameters, moments at 0, grid moments at t) of a CQ case on n x n cells."""
    # p reaches -6: on [-4, 4] the d = 3 case aborts on edge negativity at p = -4
    grid = PhaseGrid((GridAxis("q", -5, 5, n), GridAxis("p", -6, 6, n)))
    params, model, rho = _cq_case(name)
    state = gaussian_product_state(grid, (0.3, -0.2), (0.6, 0.6), rho_q=rho)
    points = tuple(axis.points for axis in grid.axes)
    start = grid_moments(state.cells, points, grid.cell_volume, CQ_DEGREES)
    dt, steps = _steps(t, cfl_limit(model, grid))
    final, _ = evolve(model, state, dt, steps, stride=steps)
    return params, start, grid_moments(final.cells, points, grid.cell_volume, CQ_DEGREES)


@lru_cache(maxsize=None)
def _measurement_run(n, t=0.15):
    """(oracle parameters, moments at 0, grid moments at t) of the measurement case on n points."""
    grid = PhaseGrid((GridAxis("z", -3, 3, n),))
    params = dict(z_op=SIGMA_Z, k=1.0, h=0.5 * SIGMA_X)
    m = constant_measurement_model(params["z_op"], params["k"], h=params["h"])
    state = gaussian_product_state(grid, (0.2,), (0.4,), rho_q=RHO)
    points = (grid.axes[0].points,)
    start = grid_moments(state.cells, points, grid.cell_volume, MEASUREMENT_DEGREES)
    dt, steps = _steps(t, cfl_limit(m, grid))
    final, _ = evolve_measurement(m, state, dt, steps, stride=steps)
    return params, start, grid_moments(final.cells, points, grid.cell_volume, MEASUREMENT_DEGREES)


@pytest.mark.parametrize("name", ["non_commuting_d2", "random_d3"])
def test_evolve_matches_the_exact_moments(name):
    params, start, got = _cq_run(name)
    want = cq_moments(start, 0.2, **params)
    assert np.abs(got - want).max() < BOUND


@pytest.mark.parametrize("n", [61, 121])
def test_evolve_measurement_matches_the_exact_moments(n):
    params, start, got = _measurement_run(n)
    want = measurement_moments(start, 0.15, **params)
    assert np.abs(got - want).max() < BOUND


# Each mutant is the oracle's equation with one term changed, written as a
# change of its inputs: -L flips the back-reaction (the Lindblad term is
# even in L), D0 = 0 drops the Lindblad term, -H_q flips the commutator,
# and -Z flips the measurement drift (its double commutator is even in Z).
@pytest.mark.parametrize(
    "mutant",
    [
        {"lop": lambda p: -p["lop"]},
        {"d0": lambda p: 0.0},
        {"h_q": lambda p: -p["h_q"]},
    ],
    ids=["flipped_backreaction", "dropped_lindblad", "flipped_commutator"],
)
def test_cq_mutants_fail_the_bound(mutant):
    params, start, got = _cq_run("non_commuting_d2")
    mutated = dict(params, **{key: change(params) for key, change in mutant.items()})
    assert np.abs(got - cq_moments(start, 0.2, **mutated)).max() > 100 * BOUND


def test_measurement_mutant_fails_the_bound():
    params, start, got = _measurement_run(61)
    mutated = dict(params, z_op=-params["z_op"])
    assert np.abs(got - measurement_moments(start, 0.15, **mutated)).max() > 100 * BOUND
