"""Both grid equations against the exact Gaussian populations of `exact_gaussian`.

Raw `step_rk4` loops: `evolve` would abort on the coarse grids, where the
edge stencils leave a negativity beyond its positivity bound.
"""

import numpy as np
import pytest

from cqsim.generator import cfl_limit, step_rk4
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import constant_measurement_model, polynomial_cq_model
from cqsim.state import gaussian_product_state

from conftest import SIGMA_Z
from exact_gaussian import cq_populations, measurement_populations

RHO_Q = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])


def populations_at(model, state, t):
    """The populations (..., d) of ``state`` after RK4 steps of 0.4 x the CFL limit to time t."""
    n = int(np.ceil(t / (0.4 * cfl_limit(model, state.grid))))
    for _ in range(n):
        state = step_rk4(model, state, t / n)
    return np.diagonal(state.cells, axis1=-2, axis2=-1).real


def l1_errors(model, grids, t, centers, sigmas, exact):
    errors = []
    for grid in grids:
        state = gaussian_product_state(grid, centers, sigmas, rho_q=RHO_Q)
        got = populations_at(model, state, t)
        errors.append(float(np.abs(got - exact(grid)).sum() * grid.cell_volume))
    return errors


def assert_second_order(errors):
    order = np.log2(errors[-2] / errors[-1])
    assert 1.8 <= order <= 2.2, (order, errors)


def test_cq_populations_converge_at_second_order():
    # V = 0, V_I = 0.5 q sigma_z, diagonal H_q, D2 = 0.25 and D0 = 1: the
    # populations feel neither D0 nor H_q
    model = polynomial_cq_model(
        mass=1.0, potential_coeffs=[0.0], h_q=np.diag([0.4, -0.4]), v_i_matrix=SIGMA_Z,
        v_i_profile=[0.0, 0.5], d2_coeffs=[0.25], d0_coeffs=[1.0],
    )
    centers, sigmas, t = (0.3, -0.2), (0.6, 0.6), 0.25
    grids = [PhaseGrid((GridAxis("q", -5.0, 5.0, n), GridAxis("p", -5.0, 5.0, n)))
             for n in (41, 81, 161)]

    def exact(grid):
        return cq_populations(model, grid, t, centers, sigmas, np.diag(RHO_Q).real)

    errors = l1_errors(model, grids, t, centers, sigmas, exact)
    assert_second_order(errors)
    assert errors[1] < 3.5e-3, errors


def test_measurement_populations_converge_at_second_order():
    m = constant_measurement_model(SIGMA_Z, 1.0, h=np.diag([0.5, -0.5]))
    z0, sigma0, t = 0.1, 0.25, 0.15
    grids = [PhaseGrid((GridAxis("z", -2.5, 2.5, n),)) for n in (41, 81, 161, 321)]

    def exact(grid):
        return measurement_populations(m, grid, t, z0, sigma0, np.diag(RHO_Q).real)

    errors = l1_errors(m, grids, t, (z0,), (sigma0,), exact)
    assert_second_order(errors)
    assert errors[1] < 8e-3, errors


@pytest.mark.parametrize("change", ["potential", "off-diagonal L", "q-dependent D2"])
def test_oracle_refuses_models_outside_its_family(change):
    fields = dict(mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
                  v_i_profile=[0.0, 0.5], d2_coeffs=[0.25], d0_coeffs=[1.0])
    if change == "potential":
        fields["potential_coeffs"] = [0.0, 0.0, 0.5]
    elif change == "off-diagonal L":
        fields["v_i_matrix"] = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        fields["d2_coeffs"] = [0.25, 0.01]
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 5), GridAxis("p", -1.0, 1.0, 5)))
    with pytest.raises(ValueError):
        cq_populations(polynomial_cq_model(**fields), grid, 0.1, (0.0, 0.0), (0.5, 0.5), (0.5, 0.5))
