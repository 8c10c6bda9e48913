"""Both grid equations against the exact Gaussian states of `exact_gaussian`.

Raw `step_rk4` loops: `evolve` would abort on the coarse grids, where the
edge stencils leave a negativity beyond its positivity bound.  The
full-matrix L1 distance falls at second order; mutants of the oracle, each
with one term of the formula wrong, land at least 10x above the bound.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cqsim.generator import cfl_limit, step_rk4
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import constant_measurement_model, polynomial_cq_model
from cqsim.scenario import parse_scenario_file
from cqsim.state import gaussian_product_state

import exact_gaussian
from conftest import SIGMA_Z
from exact_gaussian import cq_populations, cq_state, measurement_populations, measurement_state

RHO_Q = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
# V = q^2/2, V_I = 0.5 q sigma_z, H_q = diag(0.4, -0.4), D2 = 0.25 and D0 = 1:
# every term of the CQ formula is on
QUADRATIC = polynomial_cq_model(
    mass=1.0, potential_coeffs=[0.0, 0.0, 0.5], h_q=np.diag([0.4, -0.4]), v_i_matrix=SIGMA_Z,
    v_i_profile=[0.0, 0.5], d2_coeffs=[0.25], d0_coeffs=[1.0],
)
MEASUREMENT = constant_measurement_model(SIGMA_Z, 1.0, h=np.diag([0.5, -0.5]))
# full-matrix L1 bounds at 81 points
CQ_BOUND, MEASUREMENT_BOUND = 6e-3, 8e-3


def cells_at(model, state, t):
    """The cells of ``state`` after RK4 steps of 0.4 x the CFL limit to time t."""
    n = int(np.ceil(t / (0.4 * cfl_limit(model, state.grid))))
    for _ in range(n):
        state = step_rk4(model, state, t / n)
    return state.cells


def populations(cells):
    return np.diagonal(cells, axis1=-2, axis2=-1).real


def l1_errors(model, grids, t, centers, sigmas, exact, rho_q=RHO_Q, part=populations):
    """L1 distances of ``part`` of the grid's cells from ``exact(grid)``, one per grid."""
    errors = []
    for grid in grids:
        state = gaussian_product_state(grid, centers, sigmas, rho_q=rho_q)
        got = part(cells_at(model, state, t))
        errors.append(float(np.abs(got - exact(grid)).sum() * grid.cell_volume))
    return errors


def assert_second_order(errors):
    order = np.log2(errors[-2] / errors[-1])
    assert 1.8 <= order <= 2.2, (order, errors)


def square_grid(half_width, n):
    return PhaseGrid((GridAxis("q", -half_width, half_width, n),
                      GridAxis("p", -half_width, half_width, n)))


def signal_grid(n):
    return PhaseGrid((GridAxis("z", -2.5, 2.5, n),))


def test_cq_populations_converge_at_second_order():
    # V = 0, V_I = 0.5 q sigma_z, diagonal H_q, D2 = 0.25 and D0 = 1: the
    # populations feel neither D0 nor H_q
    model = polynomial_cq_model(
        mass=1.0, potential_coeffs=[0.0], h_q=np.diag([0.4, -0.4]), v_i_matrix=SIGMA_Z,
        v_i_profile=[0.0, 0.5], d2_coeffs=[0.25], d0_coeffs=[1.0],
    )
    centers, sigmas, t = (0.3, -0.2), (0.6, 0.6), 0.25
    grids = [square_grid(5.0, n) for n in (41, 81, 161)]

    def exact(grid):
        return cq_populations(model, grid, t, centers, sigmas, np.diag(RHO_Q).real)

    errors = l1_errors(model, grids, t, centers, sigmas, exact)
    assert_second_order(errors)
    assert errors[1] < 3.5e-3, errors


def test_measurement_populations_converge_at_second_order():
    z0, sigma0, t = 0.1, 0.25, 0.15
    grids = [signal_grid(n) for n in (41, 81, 161, 321)]

    def exact(grid):
        return measurement_populations(MEASUREMENT, grid, t, z0, sigma0, np.diag(RHO_Q).real)

    errors = l1_errors(MEASUREMENT, grids, t, (z0,), (sigma0,), exact)
    assert_second_order(errors)
    assert errors[1] < 8e-3, errors


@pytest.mark.parametrize("change", ["potential", "off-diagonal L", "q-dependent D2"])
def test_oracle_refuses_models_outside_its_family(change):
    fields = dict(mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
                  v_i_profile=[0.0, 0.5], d2_coeffs=[0.25], d0_coeffs=[1.0])
    if change == "potential":
        fields["potential_coeffs"] = [0.0, 0.0, 0.0, 0.5]  # a quadratic V is inside
    elif change == "off-diagonal L":
        fields["v_i_matrix"] = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        fields["d2_coeffs"] = [0.25, 0.01]
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 5), GridAxis("p", -1.0, 1.0, 5)))
    with pytest.raises(ValueError):
        cq_populations(polynomial_cq_model(**fields), grid, 0.1, (0.0, 0.0), (0.5, 0.5), (0.5, 0.5))


def _shipped_case():
    scenario = parse_scenario_file(SCENARIO_DIR / "evolve_qubit_decoherence.yaml")
    init = scenario.initial
    return (scenario.model, 4.0, (init["q0"], init["p0"]), (init["sigma_q"], init["sigma_p"]),
            init["rho_q"])


@pytest.mark.parametrize(
    "case",
    [_shipped_case, lambda: (QUADRATIC, 5.0, (0.3, -0.2), (0.6, 0.6), RHO_Q)],
    ids=["evolve_qubit_decoherence", "quadratic_v"],
)
def test_cq_state_converges_at_second_order(case):
    model, half_width, centers, sigmas, rho_q = case()
    t = 0.25
    grids = [square_grid(half_width, n) for n in (41, 81, 161)]
    errors = l1_errors(model, grids, t, centers, sigmas, part=lambda cells: cells, rho_q=rho_q,
                       exact=lambda grid: cq_state(model, grid, t, centers, sigmas, rho_q))
    assert_second_order(errors)
    assert errors[1] < CQ_BOUND, errors


def test_measurement_state_converges_at_second_order():
    z0, sigma0, t = 0.1, 0.25, 0.15
    grids = [signal_grid(n) for n in (41, 81, 161, 321)]
    errors = l1_errors(MEASUREMENT, grids, t, (z0,), (sigma0,), part=lambda cells: cells,
                       exact=lambda grid: measurement_state(MEASUREMENT, grid, t, z0, sigma0, RHO_Q))
    assert_second_order(errors)
    assert errors[1] < MEASUREMENT_BOUND, errors


def _mutant(change):
    """`exact_gaussian._pairs` with one term of the formula wrong."""
    pairs = exact_gaussian._pairs

    def wrong(points, t, rho0, h, hbar, levels, d0, mean, cov):
        if change == "no damping":
            d0 = 0.0
        elif change == "flipped phase":
            h = -h
        elif change == "flipped drift":
            right = mean
            mean = lambda level: right(-level)
        return pairs(points, t, rho0, h, hbar, levels, d0, mean, cov)

    return wrong


def mutant_errors(monkeypatch, model, grid, t, centers, sigmas, exact, mutants):
    """Full-matrix L1 distance at ``grid`` from each mutant oracle ``exact(read, grid)``.

    ``mutants`` maps each change to the model the oracle reads; a change of
    `_pairs` is made while it runs, and any other leaves `_pairs` as it is.
    """
    state = gaussian_product_state(grid, centers, sigmas, rho_q=RHO_Q)
    cells = cells_at(model, state, t)
    errors = {}
    for change, read in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(exact_gaussian, "_pairs", _mutant(change))
            errors[change] = float(np.abs(cells - exact(read, grid)).sum() * grid.cell_volume)
    return errors


def test_every_cq_mutant_misses_the_bound_tenfold(monkeypatch):
    centers, sigmas, t = (0.3, -0.2), (0.6, 0.6), 0.25
    # flipping the drift flips the back-reaction (l_a + l_b)/2, not V'
    mutants = dict.fromkeys(["no damping", "flipped phase", "flipped drift"], QUADRATIC)
    mutants["force ignored"] = dataclasses.replace(QUADRATIC, dpotential=np.zeros_like)

    def exact(model, grid):
        return cq_state(model, grid, t, centers, sigmas, RHO_Q)

    errors = mutant_errors(monkeypatch, QUADRATIC, square_grid(5.0, 81), t, centers, sigmas,
                           exact, mutants)
    assert min(errors.values()) > 10 * CQ_BOUND, errors


def test_every_measurement_mutant_misses_the_bound_tenfold(monkeypatch):
    z0, sigma0, t = 0.1, 0.25, 0.15
    mutants = dict.fromkeys(["no damping", "flipped phase", "flipped drift"], MEASUREMENT)

    def exact(m, grid):
        return measurement_state(m, grid, t, z0, sigma0, RHO_Q)

    errors = mutant_errors(monkeypatch, MEASUREMENT, signal_grid(81), t, (z0,), (sigma0,), exact,
                           mutants)
    assert min(errors.values()) > 10 * MEASUREMENT_BOUND, errors
