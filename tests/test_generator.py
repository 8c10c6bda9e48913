import dataclasses
import inspect
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cqsim import generator, grids, runner
from cqsim.generator import (
    EvolutionError,
    _Band,
    _cq_kernel,
    _hermitian_cells,
    _measurement_kernel,
    _real_coordinates,
    _real_form,
    apply_generator,
    branch_generator,
    cfl_limit,
    evolve,
    evolve_measurement,
    measurement_cfl_limit,
    measurement_generator,
    step_rk4,
)
from cqsim.grids import GridAxis, PhaseGrid, d_dx, d2_dx2
from cqsim import models
from cqsim.models import (
    ModelValidationError,
    classical_force,
    constant_measurement_model,
    diagonalize_model,
    polynomial_cq_model,
    validate_model,
)
from cqsim.psd import schur_cp_check
from cqsim.scenario import parse_scenario_file
from cqsim.state import (
    HybridState,
    classical_marginal,
    coherence,
    edge_mass,
    gaussian_product_state,
    min_cell_eigenvalue,
    purity_of_marginal,
    total_trace,
)

from conftest import SIGMA_X, SIGMA_Z, free_diffusion_model, qubit_decoherence_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scalar_fp_oracle(dens, grid, model):
    """Independent scalar Fokker-Planck rate: np.gradient + explicit stencil.

    V'(q) d_p rho - (p/m) d_q rho + (D2/2) d^2_p rho on the same grid.
    """
    qs, ps = grid.axes[0].points, grid.axes[1].points
    hq, hp = grid.axes[0].spacing, grid.axes[1].spacing
    d_q = np.gradient(dens, hq, axis=0, edge_order=2)
    d_p = np.gradient(dens, hp, axis=1, edge_order=2)
    d2_p = np.empty_like(dens)
    d2_p[:, 1:-1] = (dens[:, 2:] - 2.0 * dens[:, 1:-1] + dens[:, :-2]) / hp**2
    d2_p[:, 0] = (2.0 * dens[:, 0] - 5.0 * dens[:, 1] + 4.0 * dens[:, 2] - dens[:, 3]) / hp**2
    d2_p[:, -1] = (2.0 * dens[:, -1] - 5.0 * dens[:, -2] + 4.0 * dens[:, -3] - dens[:, -4]) / hp**2
    vprime = model.dpotential(qs)[:, None]
    return vprime * d_p - (ps[None, :] / model.mass) * d_q + 0.5 * model.d2(qs)[:, None] * d2_p


def batched_matmul_rate(model, state):
    """Reference rate: the cellwise batched d x d matrix form of the generator."""
    grid = state.grid
    qs = grid.axes[0].points
    f = state.cells
    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing

    df_dq = d_dx(f, 0, hq_ax)
    df_dp = d_dx(f, 1, hp_ax)
    d2f_dp2 = d2_dx2(f, 1, hp_ax)

    vprime = np.asarray(classical_force(model, qs), dtype=float)[:, None, None, None]
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None, None]
    rate = vprime * df_dp - p_over_m * df_dq

    h = model.h_q
    if np.abs(h).max() > 0.0:
        rate = rate - (1j / model.hbar) * (h @ f - f @ h)

    d2_of_q = np.asarray(model.d2(qs), dtype=float)[:, None, None, None]
    rate = rate + 0.5 * d2_of_q * d2f_dp2

    lop = np.asarray(model.lindblad(qs), dtype=complex)[:, None, :, :]
    if np.abs(lop).max() > 0.0:
        rate = rate + 0.5 * (lop @ df_dp + df_dp @ lop)
        d0_of_q = np.asarray(model.d0(qs), dtype=float)[:, None, None, None]
        l2 = lop @ lop
        rate = rate + d0_of_q * (lop @ f @ lop - 0.5 * (l2 @ f + f @ l2))
    return rate


def batched_matmul_measurement_rate(m, state):
    """Reference rate of the measurement master equation in d x d matrix form."""
    grid = state.grid
    zs = grid.axes[0].points
    h_ax = grid.axes[0].spacing
    f = state.cells

    z_op = np.asarray(m.z_op(zs), dtype=complex)
    flow = 0.5 * (z_op @ f + f @ z_op)
    rate = -d_dx(flow, 0, h_ax)

    d2_of_z = np.asarray(m.d2(zs), dtype=float)[:, None, None]
    rate = rate + 0.5 * d2_dx2(d2_of_z * f, 0, h_ax)

    k_of_z = np.asarray(m.k(zs), dtype=float)[:, None, None]
    comm = z_op @ f - f @ z_op
    rate = rate - k_of_z * (z_op @ comm - comm @ z_op)

    if m.h is not None and np.abs(m.h).max() > 0.0:
        rate = rate - (1j / m.hbar) * (m.h @ f - f @ m.h)
    return rate


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return a + np.conj(np.swapaxes(a, -1, -2))


def random_cq_model(rng, d, h_zero=False, dv_zero=False):
    return polynomial_cq_model(
        mass=0.7 + rng.random(),
        potential_coeffs=[0.0, 0.3 * rng.normal(), 0.5 * rng.random()],
        h_q=np.zeros((d, d)) if h_zero else random_hermitian(rng, (d, d)),
        v_i_matrix=random_hermitian(rng, (d, d)),
        v_i_profile=[0.0] if dv_zero else [0.1, 0.4 * rng.normal(), 0.2 * rng.normal()],
        d2_coeffs=[0.5 + rng.random(), 0.0, 0.05],
        d0_coeffs=[1.0 + rng.random(), 0.1 * rng.normal(), 0.1],
        hbar=0.5 + rng.random(),
    )


def laid_out(cells, layout):
    """``cells`` as they are, or as a view of every other row of a larger array."""
    if layout == "contiguous":
        return cells
    parent = np.zeros((2 * cells.shape[0],) + cells.shape[1:], dtype=cells.dtype)
    parent[::2] = cells
    view = parent[::2]
    assert not view.flags.c_contiguous
    return view


class TestSuperoperatorKernel:
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("case", ["full", "h_zero", "dv_zero"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_batched_matmul_reference(self, d, case, layout):
        rng = np.random.default_rng(d)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, 13), GridAxis("p", -2.0, 3.0, 11)))
        model = random_cq_model(rng, d, h_zero=case == "h_zero", dv_zero=case == "dv_zero")
        cells = laid_out(random_hermitian(rng, grid.shape + (d, d)), layout)
        state = HybridState(grid, cells)
        want = batched_matmul_rate(model, state)
        got = apply_generator(model, state)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_measurement_matches_batched_matmul_reference(self, d, layout):
        rng = np.random.default_rng(d)
        grid = PhaseGrid((GridAxis("z", -2.0, 2.0, 17),))
        m = constant_measurement_model(
            random_hermitian(rng, (d, d)),
            1.0,
            h=random_hermitian(rng, (d, d)),
            z_feedback=0.2 * random_hermitian(rng, (d, d)),
            k_slope=0.1,
        )
        cells = laid_out(random_hermitian(rng, grid.shape + (d, d)), layout)
        state = HybridState(grid, cells)
        want = batched_matmul_measurement_rate(m, state)
        got = measurement_generator(m, state)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_operators_follow_model_and_grid(self):
        # alternating models and grids must never reuse another pair's operators
        rng = np.random.default_rng(5)
        grids = [
            PhaseGrid((GridAxis("q", -3, 3, 9), GridAxis("p", -3, 3, 9))),
            PhaseGrid((GridAxis("q", -2, 4, 9), GridAxis("p", -3, 3, 9))),
        ]
        models = [random_cq_model(rng, 2), random_cq_model(rng, 2)]
        cells = random_hermitian(rng, (9, 9, 2, 2))
        for model, grid in [(models[0], grids[0]), (models[1], grids[0]),
                            (models[1], grids[1]), (models[0], grids[0])]:
            state = HybridState(grid, cells)
            want = batched_matmul_rate(model, state)
            got = apply_generator(model, state)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_liouvillian_block_is_trace_annihilating_and_hermiticity_preserving(self, d):
        rng = np.random.default_rng(d)
        grid = PhaseGrid((GridAxis("q", -3.0, 3.0, 7), GridAxis("p", -3.0, 3.0, 5)))
        model = random_cq_model(rng, d)
        liou = np.swapaxes(whole_grid_cq_operators(model, grid)[0], -1, -2)  # (nq, d^2, d^2)
        scale = np.abs(liou).max()
        vec_eye = np.eye(d).reshape(-1)
        assert np.abs(vec_eye @ liou).max() <= 1e-13 * scale
        x = random_hermitian(rng, (grid.shape[0], d, d))
        image = (liou @ x.reshape(grid.shape[0], -1, 1)).reshape(x.shape)
        defect = np.abs(image - np.conj(np.swapaxes(image, -1, -2))).max()
        assert defect <= 1e-13 * scale * np.abs(x).max()

    def test_model_matrices_are_read_only(self):
        model = qubit_decoherence_model()
        with pytest.raises(ValueError, match="read-only"):
            model.h_q[0, 1] = 0.5
        m = constant_measurement_model(SIGMA_Z, 1.0, h=SIGMA_X)
        with pytest.raises(ValueError, match="read-only"):
            m.h[0, 0] = 1.0


@pytest.fixture
def audits(monkeypatch):
    """The argument tuples of every `validate_model` call the generator makes."""
    calls = []

    def audit(*args):
        calls.append(args)
        validate_model(*args)

    monkeypatch.setattr(generator, "validate_model", audit)
    return calls


class TestApplyGenerator:
    def test_reduces_to_classical_fokker_planck(self, small_grid):
        model = polynomial_cq_model(
            mass=1.3, potential_coeffs=[0.0, 0.0, 0.4], h_q=[[0.0]], d2_coeffs=[0.6]
        )
        state = gaussian_product_state(small_grid, (0.3, -0.2), (0.8, 0.9))
        rate = apply_generator(model, state)[..., 0, 0].real
        oracle = scalar_fp_oracle(classical_marginal(state), small_grid, model)
        assert np.abs(rate - oracle).max() < 1e-12 * (1.0 + np.abs(oracle).max())

    def test_discrete_rate_converges_to_continuum(self):
        # smooth Gaussian against the hand-derived continuum rate; the
        # 2nd-order stencils must converge at order ~2 under refinement
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0, 0.0, 0.5], h_q=[[0.0]], d2_coeffs=[0.5]
        )
        sq = sp = 0.8
        errs = []
        for n in (41, 81, 161):
            grid = PhaseGrid((GridAxis("q", -4, 4, n), GridAxis("p", -4, 4, n)))
            state = gaussian_product_state(grid, (0.0, 0.0), (sq, sp))
            qs, ps = grid.meshes()
            rho = classical_marginal(state)
            analytic = (
                -model.dpotential(qs) * ps / sp**2
                + (ps / model.mass) * qs / sq**2
                + 0.25 * (ps**2 / sp**4 - 1.0 / sp**2)
            ) * rho
            rate = apply_generator(model, state)[..., 0, 0].real
            errs.append(np.abs(rate - analytic).max())
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.7

    def test_uniform_state_rate_zero(self):
        # the one-sided edge stencils annihilate a constant, as the central ones do
        grid = PhaseGrid((GridAxis("q", -3, 3, 13), GridAxis("p", -3, 3, 13)))
        model = free_diffusion_model(d2=0.4)
        cells = np.full(grid.shape + (1, 1), 0.25 + 0j)
        rate = apply_generator(model, HybridState(grid, cells))
        assert np.abs(rate).max() == 0.0

    def test_qubit_dissipator_element(self, small_grid):
        lam, d0 = 0.7, 1.2
        model = qubit_decoherence_model(lam=lam, d0=d0)
        state = gaussian_product_state(
            small_grid, (0.0, 0.0), (0.7, 0.7), rho_q=np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        rate = apply_generator(model, state)
        # transport and AG vanish for the (0,1) element of this model up to
        # the free-streaming piece, which the two-level free model shares
        free = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), d2_coeffs=[0.25 / d0]
        )
        free_rate = apply_generator(
            free, HybridState(small_grid, state.cells.copy())
        )
        dissipator_01 = rate[..., 0, 1] - free_rate[..., 0, 1]
        expected = -2.0 * d0 * lam**2 * state.cells[..., 0, 1]
        assert np.abs(dissipator_01 - expected).max() < 1e-12

    def test_refuses_unvalidated_model(self, small_grid):
        # back-reaction with D0 = 0 violates the trade-off
        bad = polynomial_cq_model(
            mass=1.0,
            potential_coeffs=[0.0],
            h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 1.0],
            d2_coeffs=[0.5],
            d0_coeffs=[0.0],
        )
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7), rho_q=np.eye(2) / 2)
        with pytest.raises(ModelValidationError, match="complete positivity"):
            apply_generator(bad, state)

    def test_free_model_without_interaction_is_valid(self):
        validate_model(free_diffusion_model(), np.linspace(-3, 3, 7))

    def test_audits_each_model_and_grid_once(self, small_grid, audits):
        # once per run, however many steps; a direct call audits every time
        model = qubit_decoherence_model()
        state = gaussian_product_state(small_grid, (0, 0), (0.45, 0.45), rho_q=np.eye(2) / 2)
        evolve(model, state, 0.4 * cfl_limit(model, small_grid), 5, stride=2)
        assert len(audits) == 1
        for _ in range(3):
            apply_generator(model, state)
        step_rk4(model, state, 0.4 * cfl_limit(model, small_grid))
        assert len(audits) == 5

    def test_failed_audit_is_not_cached(self, small_grid, audits):
        bad = qubit_decoherence_model(d0=1.0, d2=0.1)  # 4 D2 D0 = 0.4 < 1
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7), rho_q=np.eye(2) / 2)
        for expected_calls in (1, 2):
            with pytest.raises(ModelValidationError, match="complete positivity"):
                apply_generator(bad, state)
            assert len(audits) == expected_calls


class TestModelAudit:
    @pytest.fixture
    def cp_checks(self, monkeypatch):
        """The triples of every `schur_cp_check` call that `validate_model` makes."""
        calls = []

        def spy(triple):
            calls.append(triple)
            return schur_cp_check(triple)

        monkeypatch.setattr(models, "schur_cp_check", spy)
        return calls

    def test_one_cp_check_names_the_first_violating_q(self, cp_checks):
        # 4 D2 D0 = 1.2 q^2 < 1 for |q| < 0.913: q = 0.7 and q = 0 violate, and
        # q = 0.7 is named because it comes first, although q = 0 violates more
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 1.0], d2_coeffs=[0.0, 0.0, 0.3], d0_coeffs=[1.0],
        )
        validate_model(model, [2.0, -3.0])
        with pytest.raises(
            ModelValidationError,
            match=r"^coupling triple violates complete positivity at q=0\.7: "
            r"margin -1\.030e-01 \(need 4\*D2 >= 1/D0\)$",
        ):
            validate_model(model, [2.0, 0.7, 0.0, -3.0])
        assert [triple.d2.shape for triple in cp_checks] == [(2, 1, 1), (4, 1, 1)]

    def test_a_grid_run_makes_two_cp_checks(self, cp_checks, tmp_path):
        # the gate and the generator each audit the 81 grid points in one call
        scenario = parse_scenario_file(SCENARIO_DIR / "evolve_qubit_decoherence.yaml")
        runner.run_scenario(scenario, tmp_path / "out")
        assert [triple.d2.shape for triple in cp_checks] == [(81, 1, 1)] * 2

    @pytest.mark.parametrize("qs", [[0.0], np.linspace(-5.0, 5.0, 11)])
    def test_hermiticity_is_judged_at_each_point(self, qs):
        # dV_I = 2e5 q^2 sigma_z reaches 5e6 at |q| = 5; that must not hide a
        # non-Hermitian defect of 1e-5 at q = 0.  L(q) is a sum of fixed
        # channels, so each channel matrix is judged once, on its own scale,
        # when the model is built, whatever its profile and the points given
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 0.0, 0.0, 2e5 / 3.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        skew = np.array([[0.0, 1e-5], [0.0, 0.0]])
        at_zero = (skew, lambda q: (np.asarray(q) == 0.0).astype(float))
        with pytest.raises(
            ValueError, match=r"^channel 1 matrix is not Hermitian: defect 1\.000e-05 "
        ):
            dataclasses.replace(base, channels=base.channels + (at_zero,))
        with pytest.raises(
            ModelValidationError, match=r"^channel 0 matrix must be 2 x 2, got shape \(3, 3\)$"
        ):
            dataclasses.replace(base, channels=((np.eye(3), np.ones_like),))
        # the admitted model's L is Hermitian, bit for bit, at each given point
        validate_model(base, qs)
        lindblad = base.lindblad(np.asarray(qs))
        np.testing.assert_array_equal(lindblad, np.conj(np.swapaxes(lindblad, -1, -2)))
        assert np.abs(lindblad).max() == (2e5 * 25.0 if len(qs) > 1 else 0.0)

    @pytest.mark.parametrize("name", ["d2", "d0"])
    def test_negative_coefficient_names_the_first_q(self, name):
        # 1 - 0.1 q^2 is negative at |q| = 4 and 5; q = -5 comes first
        coeffs = {"d2_coeffs": [0.5], "d0_coeffs": [1.0], f"{name}_coeffs": [1.0, 0.0, -0.1]}
        model = polynomial_cq_model(mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), **coeffs)
        with pytest.raises(
            ModelValidationError, match=rf"^{name}\(q=-5\) must be nonnegative, got -1\.5$"
        ):
            validate_model(model, np.linspace(-5.0, 5.0, 11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["dpotential", "d2", "d0"])
    def test_non_finite_coefficient_names_the_first_q(self, name, bad):
        # the coefficient turns non-finite above q = 1; q = 1.5 comes first.  A
        # run is refused by the same audit, before any arithmetic warns
        base = qubit_decoherence_model(lam=0.6, d0=1.0)
        fn = getattr(base, name)
        model = dataclasses.replace(
            base, **{name: lambda q: np.where(np.asarray(q) > 1.0, bad, fn(q))}
        )
        message = rf"^{name}\(q=1\.5\) must be finite, got {bad}$"
        with pytest.raises(ModelValidationError, match=message):
            validate_model(model, np.linspace(-2.0, 2.0, 9))
        grid = PhaseGrid((GridAxis("q", -2, 2, 9), GridAxis("p", -2, 2, 9)))
        state = gaussian_product_state(grid, (0, 0), (0.7, 0.7), rho_q=np.diag([0.5, 0.5]))
        with pytest.raises(ModelValidationError, match=message):
            evolve(model, state, 1e-3, 1)
        # the step limits refuse it too, rather than drop the term it sets
        with pytest.raises(ModelValidationError, match=rf"^{name}\(q=1\.5\) is not finite$"):
            cfl_limit(model, grid)

    @pytest.mark.parametrize("slope", [np.nan, np.inf, -1.0])
    def test_measurement_strength_refusal_names_the_first_z(self, slope):
        # k = slope * z above z = 0.2: z = 0.5 is named, not the most negative
        # z = 1; a run is refused by the same audit, before any arithmetic warns
        m = models.MeasurementModel(
            channels=((SIGMA_Z, lambda z: 1.0),),
            k=lambda z: np.where(np.asarray(z) > 0.2, slope * np.maximum(z, 0.2), 1.0),
        )
        need = "positive" if np.isfinite(slope) else "finite"
        message = rf"^measurement strength k\(z\) must be {need}, got k\(0\.5\) = {0.5 * slope:g}$"
        with pytest.raises(ModelValidationError, match=message):
            m.validate([-0.5, 0.0, 0.5, 1.0])
        grid = PhaseGrid((GridAxis("z", -1, 1, 5),))
        state = gaussian_product_state(grid, (0.0,), (0.5,), rho_q=np.diag([0.5, 0.5]))
        with pytest.raises(ModelValidationError, match=message):
            evolve_measurement(m, state, 1e-3, 1)
        if not np.isfinite(slope):
            # the step limits refuse it as D2 = 1/(8k) (NaN) or D0 = 2k (inf)
            name = "d2" if np.isnan(slope) else "d0"
            with pytest.raises(ModelValidationError, match=rf"^{name}\(z=0\.5\) is not finite$"):
                cfl_limit(m, grid)

    def test_step_limits_refuse_a_non_finite_operator(self):
        # L = Z(z) or dV_I/dq turns NaN above 1 through its channel's profile:
        # refused at the first such grid point, like any other audit of it
        base = qubit_decoherence_model(lam=0.6, d0=1.0)
        nan_above_1 = lambda x: np.where(np.asarray(x) > 1.0, np.nan, 0.6)
        model = dataclasses.replace(base, channels=((SIGMA_Z, nan_above_1),))
        grid = PhaseGrid((GridAxis("q", -2, 2, 9), GridAxis("p", -2, 2, 9)))
        message = r"^channel 0 profile\({}=1\.5\) must be finite, got nan$"
        for refused in (lambda: cfl_limit(model, grid),
                        lambda: validate_model(model, grid.axes[0].points)):
            with pytest.raises(ModelValidationError, match=message.format("q")):
                refused()
        m = models.MeasurementModel(channels=((SIGMA_Z, nan_above_1),), k=lambda z: np.ones_like(z))
        signal = PhaseGrid((GridAxis("z", -2, 2, 9),))
        for refused in (lambda: cfl_limit(m, signal), lambda: m.validate(signal.axes[0].points)):
            with pytest.raises(ModelValidationError, match=message.format("z")):
                refused()

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_hamiltonian_is_refused_by_name(self, entry):
        # every fixed matrix of a model is refused at construction, by name,
        # before any arithmetic warns: a NaN would pass the Hermiticity
        # tolerance (a NaN defect exceeds none), and inf - inf warns
        for bad in (np.nan, np.inf, -np.inf):
            h = np.zeros((2, 2))
            h[entry] = h[entry[::-1]] = bad
            message = rf"^{{}}\[{entry[0]}, {entry[1]}\] is not finite, got \({bad}\+0j\)$"
            for name, refused in (
                ("h_q", lambda: polynomial_cq_model(1.0, [0.0], h)),
                ("h_q", lambda: dataclasses.replace(qubit_decoherence_model(), h_q=h)),
                ("v_i_matrix", lambda: polynomial_cq_model(1.0, [0.0], SIGMA_Z, v_i_matrix=h)),
                ("channel 1 matrix", lambda: dataclasses.replace(
                    qubit_decoherence_model(), channels=((SIGMA_Z, np.ones_like), (h, np.ones_like)))),
                ("h", lambda: constant_measurement_model(SIGMA_Z, 1.0, h=h)),
                ("z_matrix", lambda: constant_measurement_model(h, 1.0)),
                ("z_feedback", lambda: constant_measurement_model(SIGMA_Z, 1.0, z_feedback=h)),
                ("channel 0 matrix", lambda: models.MeasurementModel(
                    channels=((h, np.ones_like),), k=np.ones_like)),
            ):
                with pytest.raises(ValueError, match=message.format(re.escape(name))):
                    refused()

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_step_limits_refuse_a_strength_that_is_not_positive(self, value):
        # k(z) = value above z = 1: refused at z = 1.5, before D2 = 1/(8k) is
        # formed (k = 0 would divide by zero), not read as k = 1's limits
        m = models.MeasurementModel(
            channels=((SIGMA_Z, lambda z: 1.0),),
            k=lambda z: np.where(np.asarray(z) > 1.0, value, 1.0),
        )
        grid = PhaseGrid((GridAxis("z", -2, 2, 9),))
        with pytest.raises(
            ModelValidationError, match=rf"^k\(z=1\.5\) must be positive, got {value:g}$"
        ):
            cfl_limit(m, grid)

    @pytest.mark.parametrize("name", ["d2", "d0"])
    def test_step_limits_refuse_a_negative_coefficient(self, name):
        # -0.5 above q = 1: refused at q = 1.5, where max would skip it
        base = qubit_decoherence_model(lam=0.6, d0=1.0)
        fn = getattr(base, name)
        model = dataclasses.replace(
            base, **{name: lambda q: np.where(np.asarray(q) > 1.0, -0.5, fn(q))}
        )
        grid = PhaseGrid((GridAxis("q", -2, 2, 9), GridAxis("p", -2, 2, 9)))
        with pytest.raises(
            ModelValidationError, match=rf"^{name}\(q=1\.5\) must be nonnegative, got -0\.5$"
        ):
            cfl_limit(model, grid)

    def test_measurement_refusal_names_the_signal(self):
        m = models.MeasurementModel(
            channels=((SIGMA_Z, lambda z: np.where(np.asarray(z) == 0.5, np.nan, 1.0)),),
            k=lambda z: np.ones_like(z),
        )
        m.validate([0.0, 1.0])
        with pytest.raises(
            ModelValidationError, match=r"^channel 0 profile\(z=0\.5\) must be finite, got nan$"
        ):
            m.validate([0.0, 0.5])

    def test_matrices_must_fit_one_dimension(self):
        # a 3 x 3 h beside a 2 x 2 Z passed construction and `cqsim check`,
        # and a run then failed in the kernel with a numpy broadcast error
        with pytest.raises(ModelValidationError, match=r"^h must be 2 x 2, like Z, got shape \(3, 3\)$"):
            constant_measurement_model(SIGMA_Z, 1.0, h=np.eye(3))
        with pytest.raises(ModelValidationError, match=r"^v_i_matrix dimension must match h_q$"):
            polynomial_cq_model(mass=1.0, potential_coeffs=[0.0], h_q=SIGMA_Z, v_i_matrix=np.eye(3))

    def test_h_q_must_be_one_matrix(self):
        with pytest.raises(ModelValidationError, match="h_q must be one square matrix"):
            polynomial_cq_model(mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((3, 2, 2)))


class TestBranchGenerator:
    def test_basis_weights_keep_the_shipped_labels(self):
        # with H_q = 0 and M = sigma_z, branch 0 is the level of M's +1, as
        # in every shipped model, whatever the sign of the profile: the
        # labels depend on the matrices alone
        for lam in (0.5, -0.5):
            diag = diagonalize_model(qubit_decoherence_model(lam=lam))
            assert np.array_equal(diag.dv_eigs([0.0, 2.0]), [[lam, -lam], [lam, -lam]])

    def test_a_model_carries_only_what_its_equation_reads(self):
        names = tuple(f.name for f in dataclasses.fields(models.CQModel))
        assert names == ("mass", "dpotential", "h_q", "channels", "d2", "d0", "hbar")

    def test_matches_full_generator_on_random_diagonal_models(self):
        rng = np.random.default_rng(99)
        grid = PhaseGrid((GridAxis("q", -3, 3, 21), GridAxis("p", -3, 3, 23)))
        for trial in range(10):
            d = int(rng.integers(2, 5))
            w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            u, _ = np.linalg.qr(w)
            h_q = u @ np.diag(rng.normal(size=d)) @ u.conj().T
            v_mat = u @ np.diag(rng.normal(size=d)) @ u.conj().T
            model = polynomial_cq_model(
                mass=1.0 + rng.random(),
                potential_coeffs=[0.0, 0.0, 0.5 * rng.random()],
                h_q=h_q,
                v_i_matrix=v_mat,
                v_i_profile=[0.0, 0.4 * rng.random()],
                d2_coeffs=[0.5 + rng.random()],
                d0_coeffs=[0.5 + rng.random()],
            )
            cells = rng.normal(size=grid.shape + (d, d)) + 1j * rng.normal(
                size=grid.shape + (d, d)
            )
            cells = cells + np.conj(np.swapaxes(cells, -1, -2))
            state = HybridState(grid, cells)
            diff = np.abs(apply_generator(model, state) - branch_generator(model, state)).max()
            assert diff < 1e-10, f"trial {trial}: {diff}"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dv_eigs_is_the_full_product_diagonal_bitwise(self, d):
        rng = np.random.default_rng(40 + d)
        u0, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        diagonal = lambda: u0 @ np.diag(rng.normal(size=d)) @ u0.conj().T
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=diagonal(), v_i_matrix=diagonal(),
            v_i_profile=[0.0, 0.7, 0.2], d2_coeffs=[1.0], d0_coeffs=[1.0],
        )
        # a second, commuting channel with another profile
        model = dataclasses.replace(base, channels=base.channels + ((diagonal(), np.cos),))
        diag = diagonalize_model(model)
        u = diag.basis
        qs = rng.uniform(-2.0, 2.0, size=(6, 5))
        # each channel's levels m_a are the diagonal of the full product
        # u^dag M u, and the levels at q are sum_a c_a(q) m_a, in channel order
        m0, m1 = ((u.conj().T @ m @ u).diagonal().real for m, _ in model.channels)
        c = [np.asarray(profile(qs), dtype=float) for _, profile in model.channels]
        oracle = 0.0 + c[0][..., None] * m0 + c[1][..., None] * m1
        got = diag.dv_eigs(qs)
        assert got.shape == oracle.shape == (6, 5, d) and got.dtype == oracle.dtype
        assert got.tobytes() == oracle.tobytes()
        # every entry of U^dag L U, then its diagonal: the same levels to rounding
        einsum = np.einsum("ia,...ij,ja->...a", u.conj(), model.lindblad(qs), u).real
        assert np.abs(got - einsum).max() < 1e-14

    def test_diagonal_pair_damping_vanishes(self):
        # (a, a) components carry no Feynman-Vernon damping: a pure-dephasing
        # model must leave a diagonal-in-sigma_z state's populations with
        # zero dissipator rate
        model = qubit_decoherence_model(lam=0.9, d0=1.0)
        grid = PhaseGrid((GridAxis("q", -3, 3, 21), GridAxis("p", -3, 3, 21)))
        state = gaussian_product_state(grid, (0, 0), (0.7, 0.7), rho_q=np.diag([0.5, 0.5]))
        rate_full = apply_generator(model, state)
        # diagonal elements: dissipator contribution is exactly zero, so
        # scaling D0 (within the CP-allowed region) must not change them
        stronger = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.9],
            d2_coeffs=[0.25], d0_coeffs=[4.0],
        )
        rate_other = apply_generator(stronger, state)
        assert np.abs(rate_full[..., 0, 0] - rate_other[..., 0, 0]).max() < 1e-13
        assert np.abs(rate_full[..., 1, 1] - rate_other[..., 1, 1]).max() < 1e-13

    def test_offdiagonal_damping_rate(self):
        # qubit lam q sigma_z: damping (D0/2)(l0 - l1)^2 = 2 D0 lam^2 on (0,1)
        lam, d0 = 0.8, 1.1
        model = qubit_decoherence_model(lam=lam, d0=d0)
        grid = PhaseGrid((GridAxis("q", -3, 3, 21), GridAxis("p", -3, 3, 21)))
        cells = np.zeros(grid.shape + (2, 2), dtype=complex)
        cells[..., 0, 1] = 0.3  # constant coherence field: transport vanishes
        cells[..., 1, 0] = 0.3
        rate = branch_generator(model, HybridState(grid, cells))
        assert np.allclose(rate[..., 0, 1], -2.0 * d0 * lam**2 * 0.3, atol=1e-12)

    def test_refuses_non_commuting_model(self, small_grid):
        model = polynomial_cq_model(
            mass=1.0,
            potential_coeffs=[0.0],
            h_q=SIGMA_X,
            v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 0.5],
            d2_coeffs=[0.5],
            d0_coeffs=[1.0],
        )
        with pytest.raises(ModelValidationError, match="common"):
            diagonalize_model(model)

    @staticmethod
    def _fields(base, extra):
        """``base`` with a second channel, sigma_x with profile extra(q)."""
        return dataclasses.replace(base, channels=base.channels + ((SIGMA_X, extra),))

    def test_refuses_dv_i_that_leaves_the_basis(self):
        # dV_I(q) = (2q - 2) sigma_z for q >= 0 and sigma_x below, H_q = 0: the
        # two channels do not commute, so the model is refused at once, with
        # the pair named, before any q is read
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, -2.0, 1.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        read = []

        def below(q):
            read.append(q)
            return (np.asarray(q) < 0).astype(float)

        model = dataclasses.replace(base, channels=(
            (SIGMA_Z, lambda q: np.where(np.asarray(q) >= 0, 2.0 * np.asarray(q) - 2.0, 0.0)),
            (SIGMA_X, below),
        ))
        with pytest.raises(
            ModelValidationError,
            match=r"^model is not diagonal in a common q-independent basis: "
            r"channel 0 and channel 1 do not commute$",
        ):
            diagonalize_model(model)
        assert read == []

    def test_refusal_names_h_q(self):
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=SIGMA_X, v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 0.5], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        with pytest.raises(ModelValidationError, match=r"basis: h_q and channel 0 do not commute$"):
            diagonalize_model(model)

    def test_refusal_without_a_non_commuting_pair_names_the_matrix(self):
        # H_q = h sigma_z and M = h sigma_z + eps sigma_x at h = 1e-3: in the
        # basis of their combination H_q has an off-diagonal entry of about
        # 3.35 eps, beyond 1e-10 * (1 + h), while their commutator, 2 h eps,
        # is within 1e-10 * (1 + h)^2: no pair is named, the matrix is
        h, eps = 1e-3, 1e-9
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=h * SIGMA_Z, v_i_matrix=h * SIGMA_Z + eps * SIGMA_X,
            v_i_profile=[0.0, 1.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        with pytest.raises(
            ModelValidationError,
            match=r"^model is not diagonal in a common q-independent basis: "
            r"h_q has off-diagonal 3\.352e-09$",
        ):
            diagonalize_model(model)

    @pytest.mark.parametrize("extra", [np.zeros_like, np.ones_like])
    def test_refusal_names_the_channel(self, extra):
        # a sigma_x channel beside sigma_z is refused whatever its profile,
        # even one that is 0 at every q: the rule reads no q.  H_q = 0
        # commutes with both, so the pair of channels is named
        model = self._fields(qubit_decoherence_model(lam=0.6, d0=1.0), extra)
        with pytest.raises(
            ModelValidationError,
            match=r"^model is not diagonal in a common q-independent basis: "
            r"channel 0 and channel 1 do not commute$",
        ):
            diagonalize_model(model)

    def test_commuting_channels_with_different_profiles_are_admitted(self):
        # d = 3: H_q, M1 and M2 share an eigenbasis, and their levels vary
        # differently with q; the branch route agrees with the full generator
        rng = np.random.default_rng(7)
        u0, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        diagonal = lambda *levels: u0 @ np.diag(levels) @ u0.conj().T
        model = models.CQModel(
            mass=1.3,
            dpotential=lambda q: 0.4 * np.asarray(q),
            h_q=diagonal(0.5, -0.2, 0.1),
            channels=((diagonal(1.0, 0.0, -1.0), lambda q: 0.3 * np.asarray(q)),
                      (diagonal(0.2, 1.0, -0.5), lambda q: 0.5 + 0.1 * np.asarray(q) ** 2)),
            d2=lambda q: np.full(np.shape(q), 0.8),
            d0=lambda q: np.full(np.shape(q), 1.0),
        )
        grid = PhaseGrid((GridAxis("q", -3, 3, 21), GridAxis("p", -3, 3, 23)))
        cells = random_hermitian(rng, grid.shape + (3, 3))
        state = HybridState(grid, cells)
        want = apply_generator(model, state)
        got = branch_generator(model, state)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    def test_every_given_point_is_audited(self):
        # the second channel's profile is NaN only for |q - 3| < 0.25: on
        # linspace(-4, 4, 9) q = 3 is the one point an 8-point probe of the
        # points skipped
        model = dataclasses.replace(
            qubit_decoherence_model(lam=0.6, d0=1.0),
            channels=((SIGMA_Z, lambda q: np.where(np.abs(np.asarray(q) - 3.0) < 0.25, np.nan, 0.6)),),
        )
        dv_eigs = diagonalize_model(model).dv_eigs
        with pytest.raises(
            ModelValidationError, match=r"^channel 0 profile\(q=3\) must be finite, got nan$"
        ):
            dv_eigs(np.linspace(-4.0, 4.0, 9))

    @pytest.mark.parametrize("order", [1, -1])
    def test_refusal_names_the_first_failing_matrix_in_qs_order(self, order):
        # the profile of L is NaN near q = 3 and above q = 3.5: ascending, the
        # first point near 3 is named; descending, q = 4
        bad = lambda q: (np.abs(q - 3.0) < 0.25) | (q > 3.5)
        model = dataclasses.replace(
            qubit_decoherence_model(lam=0.6, d0=1.0),
            channels=((SIGMA_Z, lambda q: np.where(bad(np.asarray(q)), np.nan, 0.6)),),
        )
        qs = np.linspace(-4.0, 4.0, 20001)[::order]
        first = qs[bad(qs)][0]
        assert (first == 4.0) == (order == -1)
        with pytest.raises(
            ModelValidationError,
            match="^" + re.escape(f"channel 0 profile(q={first:g}) must be finite, got nan") + "$",
        ):
            diagonalize_model(model).dv_eigs(qs)

    def test_tolerance_is_relative_to_the_matrix(self):
        # H_q = 100 sigma_z and M = 100 sigma_z + eps sigma_x: in the basis of
        # their combination each has an off-diagonal entry of about 1.7 eps,
        # against a bound of 1e-10 * 101: eps = 1e-9 passes and 1e-7 does not,
        # with a commutator of 200 eps beyond 1e-10 * 101^2
        for eps, ok in ((1e-9, True), (1e-7, False)):
            model = polynomial_cq_model(
                mass=1.0, potential_coeffs=[0.0], h_q=100.0 * SIGMA_Z,
                v_i_matrix=100.0 * SIGMA_Z + eps * SIGMA_X,
                v_i_profile=[0.0, 1.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
            )
            if ok:
                diagonalize_model(model)
            else:
                with pytest.raises(ModelValidationError,
                                   match=r"basis: h_q and channel 0 do not commute$"):
                    diagonalize_model(model)

    def test_non_finite_profile_values_are_refused(self):
        # NaN passes every comparison, so the levels refuse it by name: a NaN
        # q, or a NaN profile value at q = 1
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        with pytest.raises(
            ModelValidationError, match=r"^channel 0 profile\(q=nan\) must be finite, got nan$"
        ):
            diagonalize_model(model).dv_eigs([0.0, np.nan])
        nan_at_1 = lambda q: np.where(np.asarray(q) == 1.0, np.nan, 0.0)
        model = dataclasses.replace(model, channels=model.channels + ((SIGMA_Z, nan_at_1),))
        with pytest.raises(
            ModelValidationError, match=r"^channel 1 profile\(q=1\) must be finite, got nan$"
        ):
            diagonalize_model(model).dv_eigs([0.0, 1.0])


class TestStepping:
    def test_trace_drift_per_step(self):
        # per-step drift is pure boundary flux; a well-contained state
        # (tails ~8 sigma inside the box) keeps it below 1e-10
        grid = PhaseGrid((GridAxis("q", -4, 4, 41), GridAxis("p", -4, 4, 41)))
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(
            grid, (0, 0), (0.45, 0.45), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = 0.4 * cfl_limit(model, grid)
        stepped = step_rk4(model, state, dt)
        assert abs(total_trace(stepped) - total_trace(state)) < 1e-10

    def test_hermiticity_preserved_over_steps(self, small_grid):
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(
            small_grid, (0, 0), (0.7, 0.7), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = 0.4 * cfl_limit(model, small_grid)
        cells = state.cells
        for _ in range(20):
            state = step_rk4(model, HybridState(small_grid, cells), dt)
            cells = state.cells
        # the steps carry real coordinates: the cells are Hermitian by construction
        assert np.array_equal(state.cells, np.conj(np.swapaxes(state.cells, -1, -2)))

    def test_thousand_step_invariants(self):
        # trace drift <= 1e-6, exact hermiticity and negativity >= -1e-6
        # over 1000 RK4 steps on a well-contained interacting state
        grid = PhaseGrid((GridAxis("q", -4, 4, 41), GridAxis("p", -4, 4, 41)))
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(
            grid, (0, 0), (0.45, 0.45), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = min(0.4 * cfl_limit(model, grid), 2.5e-4)
        final, diags = evolve(model, state, dt, 1000, stride=100)
        assert abs(diags.trace[-1] - 1.0) <= 1e-6
        assert min(diags.min_eig) >= -1e-6
        assert np.array_equal(final.cells, np.conj(np.swapaxes(final.cells, -1, -2)))

    def test_cfl_guard(self, small_grid):
        model = free_diffusion_model(d2=0.5)
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7))
        limit = cfl_limit(model, small_grid)
        with pytest.raises(ValueError, match="CFL"):
            step_rk4(model, state, 100.0 * limit)
        # one ulp above the limit: the message tells the two apart
        dt = np.nextafter(limit, np.inf)
        with pytest.raises(ValueError) as err:
            step_rk4(model, state, dt)
        assert str(err.value) == f"dt={float(dt)!r} exceeds the CFL-style limit {limit!r}"
        assert repr(float(dt)) != repr(limit)

    def test_variance_growth_small_grid(self):
        grid = PhaseGrid((GridAxis("q", -5, 5, 81), GridAxis("p", -5, 5, 101)))
        model = free_diffusion_model(d2=0.5)
        state = gaussian_product_state(grid, (0, 0), (0.5, 0.5))
        dt = 0.4 * cfl_limit(model, grid)
        n = int(round(0.5 / dt))
        final, diags = evolve(model, state, 0.5 / n, n, stride=n)
        expected = diags.var_p[0] + 0.5 * 0.5
        assert diags.var_p[-1] == pytest.approx(expected, rel=0.02)

    def test_evolve_aborts_on_leakage(self):
        # a box far too small for the diffusing state must abort via the
        # trace-drift monitor rather than report silently wrong numbers
        grid = PhaseGrid((GridAxis("q", -2, 2, 21), GridAxis("p", -1.5, 1.5, 21)))
        model = free_diffusion_model(d2=1.0)
        state = gaussian_product_state(grid, (0, 0), (0.4, 0.4))
        dt = 0.4 * cfl_limit(model, grid)
        with pytest.raises(EvolutionError, match="trace drift|negativity"):
            evolve(model, state, dt, 250, stride=5)

    def test_leakage_abort_reports_edge_mass(self):
        grid = PhaseGrid((GridAxis("q", -2, 2, 21), GridAxis("p", -1.5, 1.5, 21)))
        model = free_diffusion_model(d2=1.0)
        state = gaussian_product_state(grid, (0, 0), (0.4, 0.4))
        dt = 0.4 * cfl_limit(model, grid)
        with pytest.raises(EvolutionError, match="trace drift") as err:
            evolve(model, state, dt, 10, stride=1)
        match = re.search(r"at t=(\S+), with probability (\S+) in the outermost grid cells",
                          str(err.value))
        steps = int(round(float(match.group(1)) / dt))
        for _ in range(steps):
            state = step_rk4(model, state, dt)
        dens = classical_marginal(state)
        edges = dens[0].sum() + dens[-1].sum() + dens[1:-1, 0].sum() + dens[1:-1, -1].sum()
        assert edges != 0.0
        assert edge_mass(state) == pytest.approx(edges * grid.cell_volume, rel=1e-12)
        assert float(match.group(2)) == pytest.approx(edge_mass(state), rel=1e-3)

    def test_positivity_abort_names_the_most_negative_cell(self):
        # the Gaussian keeps 7e-8 in the edge cell z = 3, where the
        # one-sided stencil drives that cell's eigenvalue negative first
        grid = PhaseGrid((GridAxis("z", -3.0, 3.0, 41),))
        m = constant_measurement_model(SIGMA_Z, 0.7, h=0.5 * SIGMA_X, k_slope=0.1)
        state = gaussian_product_state(
            grid, (0.2,), (0.5,), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = 0.4 * measurement_cfl_limit(m, grid)
        with pytest.raises(EvolutionError) as err:
            evolve_measurement(m, state, dt, 3, stride=1)
        match = re.fullmatch(
            r"negativity (\S+) beyond 1\.0e-07 at t=(\S+), most negative in the cell at "
            r"z=3 \(an outermost grid cell\), with probability (\S+) in the outermost grid cells",
            str(err.value),
        )
        assert match, str(err.value)
        # the first step breaks positivity, and the cell is where it does
        assert float(match.group(2)) == pytest.approx(dt, rel=1e-5)
        assert float(match.group(1)) == pytest.approx(err.value.diagnostics.min_eig[-1], rel=1e-3)
        stepped = step_rk4(m, state, dt)
        assert float(match.group(3)) == pytest.approx(edge_mass(stepped), rel=1e-3)
        lowest = [np.linalg.eigvalsh(cell)[0] for cell in stepped.cells]
        assert np.argmin(lowest) == 40
        assert lowest[40] == pytest.approx(min_cell_eigenvalue(stepped), rel=1e-12)

    @pytest.mark.parametrize("trace_abort", [1e-3, 0.0, -1e-6, float("nan")])
    def test_evolve_refuses_trace_abort_beyond_the_leak_cap(self, small_grid, trace_abort):
        # a trace_abort above the 1e-4 leakage cap is refused, never clamped
        model = free_diffusion_model(d2=0.5)
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7))
        with pytest.raises(ValueError, match=r"^trace_abort must lie in \(0, 1e-04\]"):
            evolve(model, state, 0.4 * cfl_limit(model, small_grid), 3, trace_abort=trace_abort)

    @pytest.mark.parametrize("name,value", [("n_steps", -1), ("n_steps", 2.0), ("n_steps", 2.5),
                                            ("stride", 0), ("stride", -1), ("stride", 2.5)])
    def test_evolve_refuses_a_count_that_is_not_whole(self, small_grid, name, value):
        # stride 0 used to divide by zero, -1 to record every step and 2.5
        # every fifth; a step count is given, never derived
        model = free_diffusion_model(d2=0.5)
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7))
        counts = {"n_steps": 3, "stride": 1, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {value}$"):
            evolve(model, state, 0.4 * cfl_limit(model, small_grid), **counts)

    def test_zero_steps_return_the_initial_state(self, small_grid):
        model = free_diffusion_model(d2=0.5)
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7))
        final, diags = evolve(model, state, 0.4 * cfl_limit(model, small_grid), 0)
        assert final.cells is state.cells
        assert diags.t == [0.0]


def kron_measurement_operators(m, grid):
    """M(z)^T and A(z)^T of the measurement equation from their own Kronecker expressions.

    M(z) = -k(z)(Z^2 kron I - 2 Z kron Z^T + I kron (Z^2)^T) - (i/hbar)[H, .]
    and A(z) = (1/2)(Z kron I + I kron Z^T), written apart from the CQ builder.
    """
    zs = grid.axes[0].points
    eye = np.eye(m.hilbert_dim)
    kron, t = generator._kron, generator._t
    z_op = np.asarray(m.z_op(zs), dtype=complex)
    z2 = z_op @ z_op
    k_of_z = np.asarray(m.k(zs), dtype=float)[:, None, None]
    sup = -k_of_z * (kron(z2, eye) - 2.0 * kron(z_op, t(z_op)) + kron(eye, t(z2)))
    if m.h is not None:
        sup = sup - (1j / m.hbar) * (kron(m.h, eye) - kron(eye, m.h.T))
    flux = 0.5 * (kron(z_op, eye) + kron(eye, t(z_op)))
    return t(sup), t(flux)


class TestMeasurementGenerator:
    @pytest.mark.parametrize("with_h", [True, False], ids=["h", "no_h"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_operators_match_the_kronecker_expressions(self, d, with_h):
        # the CQ builder with L = Z, D0 = 2k, H = h and no force is the
        # measurement superoperator and flux, up to rounding
        rng = np.random.default_rng(70 + d)
        grid = PhaseGrid((GridAxis("z", -2.0, 2.5, 23),))
        m = constant_measurement_model(
            random_hermitian(rng, (d, d)),
            0.8,
            h=random_hermitian(rng, (d, d)) if with_h else None,
            z_feedback=0.2 * random_hermitian(rng, (d, d)),
            k_slope=0.1,
        )
        kernel = _measurement_kernel(m, grid)
        sup_t, flux_t = kernel.window(0, grid.shape[0])
        (d2_of_z,) = kernel.coeffs
        for got, want in zip((sup_t, flux_t), real_operators(kron_measurement_operators(m, grid))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * (1.0 + np.abs(want).max())
        assert d2_of_z.tobytes() == m.d2(grid.axes[0].points)[:, None, None].tobytes()

    def test_shipped_feedback_operators_equal_the_kronecker_expressions(self):
        # sigma_z with k(z) = 1 + 0.3 z: the same values (zeros may differ in sign)
        scenario = parse_scenario_file(SCENARIO_DIR / "unravel_feedback.yaml")
        got = _measurement_kernel(scenario.model, scenario.grid).window(0, scenario.grid.shape[0])
        want = real_operators(kron_measurement_operators(scenario.model, scenario.grid))
        for op, want in zip(got, want):
            assert np.array_equal(op, want)

    @pytest.mark.parametrize("kernel", ["measurement_generator", "evolve_measurement"])
    def test_refuses_invalid_model(self, kernel):
        # k(z) = 1 + z vanishes at z = -1, inside the grid: an invalid model,
        # reported as such before any step-size check
        grid = PhaseGrid((GridAxis("z", -2.0, 2.0, 41),))
        m = constant_measurement_model(SIGMA_Z, 1.0, k_slope=1.0)
        state = gaussian_product_state(grid, (0.0,), (0.3,), rho_q=np.eye(2) / 2)
        with pytest.raises(ModelValidationError, match=r"k\(z\) must be positive"):
            if kernel == "measurement_generator":
                measurement_generator(m, state)
            else:
                evolve_measurement(m, state, 1e-4, 100)

    def test_trace_preserving(self):
        grid = PhaseGrid((GridAxis("z", -2.5, 2.5, 81),))
        m = constant_measurement_model(SIGMA_Z, 1.0)
        state = gaussian_product_state(
            grid, (0.0,), (0.3,), rho_q=np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        rate = measurement_generator(m, state)
        tr_rate = np.einsum("...ii->...", rate).real.sum() * grid.cell_volume
        assert abs(tr_rate) < 1e-10

    def test_dephasing_rate_matches_couplings(self):
        # -k [Z, [Z, rho]] on the (0,1) element of sigma_z: rate 4k
        grid = PhaseGrid((GridAxis("z", -2, 2, 61),))
        k = 0.8
        m = constant_measurement_model(SIGMA_Z, k)
        cells = np.zeros(grid.shape + (2, 2), dtype=complex)
        cells[..., 0, 1] = 0.2
        cells[..., 1, 0] = 0.2
        cells[..., 0, 0] = 0.5
        cells[..., 1, 1] = 0.5
        rate = measurement_generator(m, HybridState(grid, cells))
        # uniform fields kill the drift and diffusion terms entirely
        assert np.allclose(rate[..., 0, 1], -4.0 * k * 0.2, atol=1e-12)
        assert np.allclose(rate[..., 0, 0], 0.0, atol=1e-12)

    def test_signal_drift_direction(self):
        # an eigenstate-z0 packet must drift toward +z for <Z> = +1
        grid = PhaseGrid((GridAxis("z", -3, 3, 181),))
        m = constant_measurement_model(SIGMA_Z, 1.0)
        rho_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        state = gaussian_product_state(grid, (0.0,), (0.25,), rho_q=rho_up)
        dt = 0.4 * measurement_cfl_limit(m, grid)
        t_final = 0.4
        n = int(round(t_final / dt))
        final, diags = evolve_measurement(m, state, t_final / n, n, stride=n)
        assert diags.mean_p[-1] == pytest.approx(t_final, rel=0.02)


# -- the separate measurement step limit `cfl_terms` replaced, as a bit reference


def _eig_max(mats):
    if mats.size == 0 or np.abs(mats).max() == 0.0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(mats)).max())


def separate_measurement_cfl_limit(m, grid):
    """The measurement equation's step limit as its own formula computed it."""
    zs = grid.axes[0].points
    dz_ax = grid.axes[0].spacing
    znorm = _eig_max(np.asarray(m.z_op(zs), dtype=complex))
    kmax = float(np.max(m.k(zs)))
    d2max = float(np.max(m.d2(zs)))
    terms = [dz_ax**2 / d2max]
    if znorm > 0:
        terms.append(dz_ax / znorm)
        terms.append(1.0 / (4.0 * kmax * (2.0 * znorm) ** 2))
    if m.h is not None:
        hnorm = _eig_max(m.h[None])
        if hnorm > 0:
            terms.append(m.hbar / hnorm)
    return min(terms)


def random_measurement_case(rng):
    d = int(rng.integers(1, 5))
    lo = -0.5 - 3.0 * rng.random()
    hi = 0.5 + 3.0 * rng.random()
    grid = PhaseGrid((GridAxis("z", lo, hi, int(rng.integers(5, 200))),))
    k = 0.05 + 3.0 * rng.random()
    # k + k_slope z stays positive on the grid
    k_slope = rng.uniform(-1.0, 1.0) * 0.9 * k / max(-lo, hi)
    m = constant_measurement_model(
        np.zeros((d, d)) if rng.random() < 0.1 else random_hermitian(rng, (d, d)),
        k,
        h=None if rng.random() < 0.3 else random_hermitian(rng, (d, d)),
        hbar=0.5 + rng.random(),
        z_feedback=None if rng.random() < 0.5 else 0.2 * random_hermitian(rng, (d, d)),
        k_slope=0.0 if rng.random() < 0.3 else k_slope,
    )
    return m, grid


class TestMeasurementStepLimit:
    @pytest.mark.parametrize("name", ["unravel_qubit.yaml", "unravel_feedback.yaml"])
    def test_shipped_limit_is_the_separate_formula_bit_for_bit(self, name):
        scenario = parse_scenario_file(SCENARIO_DIR / name)
        want = separate_measurement_cfl_limit(scenario.model, scenario.grid)
        assert measurement_cfl_limit(scenario.model, scenario.grid) == want
        assert cfl_limit(scenario.model, scenario.grid) == want

    def test_random_limit_is_the_separate_formula_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            m, grid = random_measurement_case(rng)
            want = separate_measurement_cfl_limit(m, grid)
            assert measurement_cfl_limit(m, grid) == want
            assert cfl_limit(m, grid) == want

    def test_terms_follow_the_measurement_couplings(self):
        grid = PhaseGrid((GridAxis("z", -2.0, 2.0, 101),))
        k, hbar = 1.5, 0.8
        m = constant_measurement_model(SIGMA_Z, k, h=2.0 * SIGMA_X, hbar=hbar)
        dz = grid.axes[0].spacing
        # L = Z with ||Z|| = 1, D0 = 2k, D2 = 1/(8k), drift ||Z||, no transport
        assert generator.cfl_terms(m, grid) == {
            "diffusion": dz**2 / (1.0 / (8.0 * k)),
            "force": dz / 1.0,
            "hamiltonian": hbar / 2.0,
            "dissipator": 1.0 / (2.0 * (2.0 * k) * (2.0 * 1.0) ** 2),
        }


# -- the allocating kernels the in-place ones replaced, as bit references -----


def _axis_slicer(ndim, axis):
    def sl(index):
        full = [slice(None)] * ndim
        full[axis] = index
        return tuple(full)

    return sl


def allocating_d_dx(f, axis, spacing):
    out = np.empty_like(f)
    n = f.shape[axis]
    sl = _axis_slicer(f.ndim, axis)
    out[sl(slice(1, n - 1))] = (f[sl(slice(2, n))] - f[sl(slice(0, n - 2))]) / (2.0 * spacing)
    out[sl(0)] = (-3.0 * f[sl(0)] + 4.0 * f[sl(1)] - f[sl(2)]) / (2.0 * spacing)
    out[sl(n - 1)] = (3.0 * f[sl(n - 1)] - 4.0 * f[sl(n - 2)] + f[sl(n - 3)]) / (2.0 * spacing)
    return out


def allocating_d2_dx2(f, axis, spacing):
    h2 = spacing * spacing
    out = np.empty_like(f)
    n = f.shape[axis]
    sl = _axis_slicer(f.ndim, axis)
    out[sl(slice(1, n - 1))] = (
        f[sl(slice(2, n))] - 2.0 * f[sl(slice(1, n - 1))] + f[sl(slice(0, n - 2))]
    ) / h2
    if n >= 4:
        out[sl(0)] = (2.0 * f[sl(0)] - 5.0 * f[sl(1)] + 4.0 * f[sl(2)] - f[sl(3)]) / h2
        out[sl(n - 1)] = (
            2.0 * f[sl(n - 1)] - 5.0 * f[sl(n - 2)] + 4.0 * f[sl(n - 3)] - f[sl(n - 4)]
        ) / h2
    else:
        out[sl(0)] = (f[sl(0)] - 2.0 * f[sl(1)] + f[sl(2)]) / h2
        out[sl(n - 1)] = out[sl(0)]
    return out


def allocating_rate(model, state):
    """The complex Kronecker reference: the rate of ``state`` from whole-grid operators."""
    ops = whole_grid_cq_operators(model, state.grid)
    return _allocating_rate(model, state.grid, state.cells, ops)


def allocating_real_rate(model, grid, x):
    """`allocating_rate` in real coordinates: the rate of ``x`` by the kernel's operators.

    It checks the in-place sweep, not the operators, which `TestChannelForm`
    checks against the complex Kronecker products.
    """
    return _allocating_rate(model, grid, x, kernel_operators(model, grid))


def kernel_operators(model, grid):
    """The kernel's (L'(q)^T, B'(q)^T) at every q row of ``grid``, copied window by window."""
    kernel = _cq_kernel(model, grid)
    nq = grid.shape[0]
    ops = tuple(np.empty((nq,) + op.shape[1:]) for op in kernel.ops)
    for lo in range(0, nq, kernel.height):
        for whole, part in zip(ops, kernel.window(lo, min(lo + kernel.height, nq))):
            whole[lo : lo + len(part)] = part
    return ops


def _allocating_rate(model, grid, f, ops):
    liou_t, back_t = ops
    p_over_m = (grid.axes[1].points / model.mass)[None, :, None]
    half_d2 = 0.5 * np.asarray(model.d2(grid.axes[0].points), dtype=float)[:, None, None]
    fvec = f.reshape(grid.shape + (-1,))
    hq_ax, hp_ax = grid.axes[0].spacing, grid.axes[1].spacing
    product = np.matmul if model.hilbert_dim > 1 else np.multiply
    rate = product(fvec, liou_t)
    rate += product(allocating_d_dx(fvec, 1, hp_ax), back_t)
    transport = allocating_d_dx(fvec, 0, hq_ax)
    transport *= p_over_m
    rate -= transport
    diffusion = allocating_d2_dx2(fvec, 1, hp_ax)
    diffusion *= half_d2
    rate += diffusion
    return rate.reshape(f.shape)


def allocating_measurement_rate(m, state):
    """The complex Kronecker reference of the measurement equation's rate of ``state``."""
    grid = state.grid
    sup_t, flux_t = kron_measurement_operators(m, grid)
    h = grid.axes[0].spacing
    d2_of_z = np.asarray(m.d2(grid.axes[0].points), dtype=float)[:, None, None]
    fvec = state.cells.reshape(grid.shape + (1, -1))
    rate = fvec @ sup_t - allocating_d_dx(fvec @ flux_t, 0, h)
    rate += 0.5 * allocating_d2_dx2(d2_of_z * fvec, 0, h)
    return rate.reshape(state.cells.shape)


def whole_grid_record(t, state):
    """A diagnostics row computed from ``state``'s whole grid of cells: the record's reference."""
    grid, vol = state.grid, state.cell_volume
    dens = classical_marginal(state)
    dens_p = dens.sum(axis=0) * grid.axes[0].spacing if grid.ndim == 2 else dens
    w, pts = dens_p * grid.axes[-1].spacing, grid.axes[-1].points
    total = w.sum()
    mean_p = (w * pts).sum() / total if total > 0 else np.nan
    var_p = (w * (pts - mean_p) ** 2).sum() / total if total > 0 else np.nan
    coh = coherence(state, 0, 1).sum() * vol if state.hilbert_dim >= 2 else 0.0
    row = (t, total_trace(state), min_cell_eigenvalue(state), purity_of_marginal(state),
           mean_p, var_p, coh)
    return np.array([row], dtype=float)


def band_rate(model, grid):
    """The kernel's rate function of real coordinates x: all rows of x in one `_Band`."""
    if isinstance(model, models.MeasurementModel):
        kernel, generate = _measurement_kernel(model, grid), measurement_generator
    else:
        kernel, generate = _cq_kernel(model, grid), apply_generator
    return lambda x: generate(model, _Band(grid, x, 0, kernel, slice(0, len(x)), np.empty(x.shape)))


def allocating_rk4(rate_fn, cells, dt):
    k1 = rate_fn(cells)
    k2 = rate_fn(cells + 0.5 * dt * k1)
    k3 = rate_fn(cells + 0.5 * dt * k2)
    k4 = rate_fn(cells + dt * k3)
    return cells + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# (model levels, cell dimension): the cells fit the model, as a scenario's must
LEVELS_AND_CELLS = [(1, 1), (2, 2), (8, 8), (3, 3)]


# the p axis has as many points as the q axis, or more: an oblong grid
# catches a stencil or window that takes one axis's length for the other's
SHAPES = pytest.mark.parametrize("shape", ["square", "oblong"])


def kernel_case(levels, d, n, real, shape="square"):
    rng = np.random.default_rng(100 * levels + 10 * d + n)
    n_p = n if shape == "square" else n + 3
    grid = PhaseGrid((GridAxis("q", -3.0, 2.5, n), GridAxis("p", -2.0, 3.0, n_p)))
    cells = random_hermitian(rng, grid.shape + (d, d))
    if real:
        cells = cells.real + 0.0j
    return random_cq_model(rng, levels), HybridState(grid, cells)


def measurement_kernel_case(d, n, real):
    rng = np.random.default_rng(1000 + 10 * d + n)
    grid = PhaseGrid((GridAxis("z", -2.0, 2.5, n),))
    m = constant_measurement_model(
        random_hermitian(rng, (d, d)), 0.8, h=random_hermitian(rng, (d, d)), k_slope=0.1
    )
    cells = random_hermitian(rng, grid.shape + (d, d))
    if real:
        cells = cells.real + 0.0j
    return m, HybridState(grid, cells)


def whole_grid_cq_operators(model, grid):
    """(L(q)^T, B(q)^T) at every q of the grid, one np.kron per product: no kernel code.

    L = dV_I/dq; L^2 is one batched product over the whole grid.
    """
    qs = grid.axes[0].points
    eye = np.eye(model.hilbert_dim)
    lop = np.asarray(model.lindblad(qs), dtype=complex)
    l2 = lop @ lop
    h = model.h_q
    commutator = (-1j / model.hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
    liou, back = [], []
    for lx, l2x, d0x, fx in zip(lop, l2, model.d0(qs), classical_force(model, qs)):
        liou.append(
            commutator
            + float(d0x) * (np.kron(lx, lx.T) - 0.5 * (np.kron(l2x, eye) + np.kron(eye, l2x.T)))
        )
        back.append(float(fx) * np.eye(eye.size) + 0.5 * (np.kron(lx, eye) + np.kron(eye, lx.T)))
    return tuple(np.ascontiguousarray(np.swapaxes(op, -1, -2)) for op in (liou, back))


def real_operators(ops):
    """Transposed superoperators ``ops`` in real coordinates: (T O T^-1)^T of each O^T.

    `_real_form` is checked against the explicit matrices T and T^-1 in
    `TestRealCoordinates`.
    """
    return tuple(np.ascontiguousarray(generator._t(_real_form(generator._t(op)))) for op in ops)


def coordinate_matrices(d):
    """T, which takes vec(rho) of a Hermitian rho to its real coordinates, and T^-1.

    Written entry by entry: coordinate ij is Re rho_ij on and above the
    diagonal and Im rho_ij below it.
    """
    t = np.zeros((d * d, d * d), dtype=complex)
    t_inv = np.zeros_like(t)
    for i in range(d):
        for j in range(d):
            k, flipped = i * d + j, j * d + i
            if i == j:
                t[k, k] = t_inv[k, k] = 1.0
            elif i < j:  # Re rho_ij = (rho_ij + rho_ji)/2; rho_ij = Re - i Im rho_ji
                t[k, k] = t[k, flipped] = 0.5
                t_inv[k, k] = t_inv[flipped, k] = 1.0
            else:  # Im rho_ij = (rho_ij - rho_ji)/(2i); rho_ij = Re rho_ji + i Im
                t[k, k], t[k, flipped] = -0.5j, 0.5j
                t_inv[k, k], t_inv[flipped, k] = 1j, -1j
    return t, t_inv


FINITE = st.floats(-1e300, 1e300, allow_nan=False)


class TestRealCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 8]), st.data())
    def test_round_trip(self, d, data):
        lower = np.tril(np.ones((d, d), dtype=bool), -1)
        x = data.draw(hnp.arrays(float, (3, d, d), elements=FINITE))
        cells = _hermitian_cells(x)
        assert np.array_equal(cells, np.conj(np.swapaxes(cells, -1, -2)))
        assert not np.any(np.signbit(cells.imag) & (cells.imag == 0.0))  # no -0
        # Hermitian cells round-trip bit for bit; so do the coordinates,
        # but for a -0 below the diagonal, which comes back as +0
        back = _real_coordinates(cells)
        assert back.tobytes() == np.where(lower, x + 0.0, x).tobytes()
        assert _hermitian_cells(back).tobytes() == cells.tobytes()
        # any Hermitian cell: its real parts bit for bit, its imaginary parts
        # too but for a -0, which comes back as +0
        re = data.draw(hnp.arrays(float, (3, d, d), elements=FINITE))
        im = data.draw(hnp.arrays(float, (3, d, d), elements=FINITE))
        diag_im = data.draw(hnp.arrays(float, (3, d), elements=st.sampled_from([0.0, -0.0])))
        rho = np.empty((3, d, d), dtype=complex)
        rho.real = np.where(lower, generator._t(re), re)
        rho.imag = np.where(lower, im, -generator._t(im))
        rho.imag[:, np.arange(d), np.arange(d)] = diag_im
        again = _hermitian_cells(_real_coordinates(rho))
        assert again.real.tobytes() == rho.real.tobytes()
        assert again.imag.tobytes() == (rho.imag + 0.0).tobytes()
        # a cell that is not Hermitian maps to its Hermitian part
        c = re + 1j * im
        hermitian_part = 0.5 * (c + np.conj(generator._t(c)))
        assert np.array_equal(_hermitian_cells(_real_coordinates(c)), hermitian_part)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_real_form_is_t_m_t_inverse(self, d):
        rng = np.random.default_rng(300 + d)
        grid = PhaseGrid((GridAxis("q", -3.0, 3.0, 5), GridAxis("p", -3.0, 3.0, 5)))
        t, t_inv = coordinate_matrices(d)
        for op_t in whole_grid_cq_operators(random_cq_model(rng, d), grid):
            op = generator._t(op_t)
            dense = t @ op @ t_inv
            # the superoperators preserve Hermiticity, so T O T^-1 is real
            assert np.abs(dense.imag).max() <= 1e-15 * np.abs(op).max()
            # each entry is half a sum of at most four entries of O, and the
            # dense products add the same terms and exact zeros: the same
            # values, but for the sign of a zero
            assert np.array_equal(_real_form(op), dense.real)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [3, 4, 41])
    @pytest.mark.parametrize("levels,d", LEVELS_AND_CELLS)
    def test_kernels_match_the_complex_kronecker_reference(self, levels, d, n, real):
        model, state = kernel_case(levels, d, n, real)
        want = allocating_rate(model, state)
        got = apply_generator(model, state)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        m, signal = measurement_kernel_case(d, n, real)
        want = allocating_measurement_rate(m, signal)
        got = measurement_generator(m, signal)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def channel_model(channels, h_q):
    """A CQ model with the given channels, and q-dependent V', D2 and D0 inside the CP region."""
    return models.CQModel(
        mass=1.3,
        dpotential=lambda q: 0.4 * np.asarray(q) - 0.1,
        h_q=h_q,
        channels=channels,
        d2=lambda q: 0.6 + 0.05 * np.asarray(q) ** 2,
        d0=lambda q: 1.0 + 0.1 * np.asarray(q) ** 2,
    )


def two_channel_model():
    # sigma_z q and sigma_x (1 + q^2): the channels do not commute
    return channel_model(
        ((SIGMA_Z, lambda q: np.asarray(q)), (SIGMA_X, lambda q: 1.0 + np.asarray(q) ** 2)),
        h_q=0.3 * SIGMA_X + 0.2 * SIGMA_Z,
    )


def three_channel_model():
    rng = np.random.default_rng(33)
    profiles = (lambda q: 0.3 * np.asarray(q), np.cos, lambda q: 0.5 - 0.2 * np.asarray(q) ** 2)
    return channel_model(
        tuple((0.5 * random_hermitian(rng, (3, 3)), c) for c in profiles),
        h_q=random_hermitian(rng, (3, 3)),
    )


class TestChannelForm:
    MODELS = pytest.mark.parametrize("make", [two_channel_model, three_channel_model])

    @MODELS
    def test_window_operators_are_t_l_t_inverse(self, make):
        # the Liouvillian and the back-reaction of L(q) = sum c(q) M at each
        # q, from complex Kronecker products and the explicit matrices T and
        # T^-1, against the kernel's sums of fixed real matrices
        model = make()
        grid = PhaseGrid((GridAxis("q", -2.5, 2.0, 11), GridAxis("p", -2.0, 2.0, 5)))
        d = model.hilbert_dim
        eye, h = np.eye(d), model.h_q
        t, t_inv = coordinate_matrices(d)
        got = [op.copy() for op in _cq_kernel(model, grid).window(0, 11)]
        for i, q in enumerate(grid.axes[0].points):
            lop = sum(float(c(q)) * m for m, c in model.channels)
            assert np.abs(model.lindblad(q) - lop).max() <= 1e-15 * np.abs(lop).max()
            l2 = lop @ lop
            liou = -(1j / model.hbar) * (np.kron(h, eye) - np.kron(eye, h.T)) + float(
                model.d0(q)) * (np.kron(lop, lop.T) - 0.5 * (np.kron(l2, eye) + np.kron(eye, l2.T)))
            back = float(model.dpotential(q)) * np.eye(d * d) + 0.5 * (
                np.kron(lop, eye) + np.kron(eye, lop.T))
            for op, want in zip((liou, back), got):
                dense = t @ op @ t_inv
                assert np.abs(dense.imag).max() <= 1e-14 * np.abs(dense).max()
                assert np.abs(want[i].T - dense.real).max() <= 1e-13 * np.abs(dense.real).max()

    @MODELS
    def test_rate_matches_batched_matmul_reference(self, make):
        model = make()
        rng = np.random.default_rng(model.hilbert_dim)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, 13), GridAxis("p", -2.0, 3.0, 11)))
        state = HybridState(grid, random_hermitian(rng, grid.shape + (model.hilbert_dim,) * 2))
        want = batched_matmul_rate(model, state)
        got = apply_generator(model, state)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_constant_channels_are_their_sum(self):
        # c1 M1 and c2 M2 as two channels, or M = c1 M1 + c2 M2 as one: the
        # same L, so the same rate
        rng = np.random.default_rng(12)
        m1, m2 = random_hermitian(rng, (3, 3)), random_hermitian(rng, (3, 3))
        h_q = random_hermitian(rng, (3, 3))
        two = channel_model(((m1, lambda q: 0.3), (m2, lambda q: -0.45)), h_q)
        one = channel_model(((0.3 * m1 - 0.45 * m2, np.ones_like),), h_q)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, 13), GridAxis("p", -2.0, 3.0, 11)))
        state = HybridState(grid, random_hermitian(rng, grid.shape + (3, 3)))
        want = apply_generator(one, state)
        assert np.abs(apply_generator(two, state) - want).max() <= 1e-13 * np.abs(want).max()


class TestInPlaceKernel:
    @pytest.mark.parametrize("n", [3, 4, 41])
    def test_stencils_exact_on_quadratics_up_to_the_edges(self, n):
        # central and one-sided 2nd-order stencils both differentiate a
        # quadratic exactly, so no row of the truncated grid is special
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, n), GridAxis("p", -2.0, 3.0, n + 3)))
        qs, ps = grid.meshes()
        for axis, x in ((0, qs), (1, ps)):
            f = (0.3 - 1.1 * x + 0.7 * x**2)[..., None, None]
            h = grid.axes[axis].spacing
            first = d_dx(f, axis, h)[..., 0, 0]
            second = d2_dx2(f, axis, h)[..., 0, 0]
            # rounding only: a first-order edge stencil would miss by ~0.7 h
            np.testing.assert_allclose(first, -1.1 + 1.4 * x, rtol=0, atol=1e-11)
            np.testing.assert_allclose(second, np.full_like(x, 1.4), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_stencils_match_allocating_expressions(self, d, shape, n, real):
        _, state = kernel_case(1, d, n, real, shape)
        f = state.cells
        for stencil, reference in ((d_dx, allocating_d_dx), (d2_dx2, allocating_d2_dx2)):
            for axis in (0, 1):
                want = reference(f, axis, 0.137).tobytes()
                assert stencil(f, axis, 0.137).tobytes() == want
                # every entry of a reused destination is written
                out = np.full(f.shape, np.nan, dtype=f.dtype)
                assert stencil(f, axis, 0.137, out=out) is out
                assert out.tobytes() == want

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    @pytest.mark.parametrize("levels,d", LEVELS_AND_CELLS)
    def test_step_matches_allocating_expressions(self, levels, d, shape, n, real):
        model, state = kernel_case(levels, d, n, real, shape)
        grid, x = state.grid, _real_coordinates(state.cells)
        dt = 0.4 * cfl_limit(model, grid)
        # the same rate values, where only the sign of a zero may differ
        rate = _hermitian_cells(allocating_real_rate(model, grid, x))
        assert np.array_equal(apply_generator(model, state), rate)
        rate_fn = band_rate(model, grid)
        want = _hermitian_cells(allocating_rk4(rate_fn, x, dt)).tobytes()
        assert step_rk4(model, state, dt).cells.tobytes() == want

    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    @pytest.mark.parametrize("levels,d", LEVELS_AND_CELLS)
    def test_sweep_windows_never_change_a_bit(self, levels, d, shape, n, monkeypatch):
        model, state = kernel_case(levels, d, n, False, shape)
        x = _real_coordinates(state.cells)
        dt = 0.4 * cfl_limit(model, state.grid)
        rate_fn = band_rate(model, state.grid)
        want = _hermitian_cells(allocating_rk4(rate_fn, x, dt)).tobytes()
        # the allocating step's four stage states, to tell which one a band holds
        stages = [x]
        for h in (0.5 * dt, 0.5 * dt, dt):
            stages.append(x + h * rate_fn(stages[-1]))
        evaluated = []
        kernel = generator.apply_generator

        def spy(model, band):
            held = band.cells.tobytes()
            rows_of = lambda stage: stage[band.first : band.first + len(band.cells)].tobytes()
            matches = [s for s, stage in enumerate(stages) if rows_of(stage) == held]
            evaluated.append((matches, band.rows.indices(n)[:2]))
            return kernel(model, band)

        monkeypatch.setattr(generator, "apply_generator", spy)
        # one-row slabs still sweep two rows at a time; 2, 3 and 5 rows leave
        # a shorter last window, of one row for some n; n rows are one window
        for rows in (1, 2, 3, 5, n):
            monkeypatch.setattr(grids, "SLAB_BYTES", rows * x[0].nbytes)
            evaluated.clear()
            assert step_rk4(model, state, dt).cells.tobytes() == want
            size = min(n, max(2, rows))
            sweep = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
            # each band holds the rows of exactly one stage, and each stage
            # is evaluated once on each window
            assert all(len(matches) == 1 for matches, _ in evaluated)
            got = sorted((matches[0], window) for matches, window in evaluated)
            assert got == sorted((s, window) for s in range(4) for window in sweep)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [3, 4, 41])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_measurement_step_matches_allocating_expressions(self, d, n, real):
        m, state = measurement_kernel_case(d, n, real)
        x = _real_coordinates(state.cells)
        dt = 0.4 * measurement_cfl_limit(m, state.grid)
        rate_fn = band_rate(m, state.grid)
        want = _hermitian_cells(allocating_rk4(rate_fn, x, dt))
        assert step_rk4(m, state, dt).cells.tobytes() == want.tobytes()
        # a band's window of the kernel gives the rows of the whole-grid rate
        whole = rate_fn(x)
        out = np.full((n - 1,) + x.shape[1:], np.nan)
        kernel = _measurement_kernel(m, state.grid)
        band = _Band(state.grid, x, 0, kernel, slice(1, n), out)
        assert measurement_generator(m, band) is out
        assert out.tobytes() == whole[1:].tobytes()

    def test_evolve_measurement_matches_allocating_rk4(self):
        # tails ~7.6 sigma inside the edges: a truncated tail would trip the
        # positivity abort before the third step
        grid = PhaseGrid((GridAxis("z", -4.0, 4.0, 41),))
        m = constant_measurement_model(SIGMA_Z, 0.7, h=0.5 * SIGMA_X, k_slope=0.1)
        state = gaussian_product_state(
            grid, (0.2,), (0.5,), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = 0.4 * measurement_cfl_limit(m, grid)
        rate_fn = band_rate(m, grid)
        want = _real_coordinates(state.cells)
        for _ in range(3):
            want = allocating_rk4(rate_fn, want, dt)
        final, _ = evolve_measurement(m, state, dt, 3, stride=1)
        assert final.cells.tobytes() == _hermitian_cells(want).tobytes()

    def test_evolve_matches_allocating_rk4_on_many_windows(self, monkeypatch):
        grid = PhaseGrid((GridAxis("q", -4.0, 4.0, 41), GridAxis("p", -4.0, 4.0, 41)))
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(
            grid, (0.3, -0.2), (0.6, 0.6), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        dt = 0.4 * cfl_limit(model, grid)
        rate_fn = band_rate(model, grid)  # one window of 41 rows
        want = _real_coordinates(state.cells)
        for _ in range(4):
            want = allocating_rk4(rate_fn, want, dt)
        # windows of three rows of real coordinates: 14 windows, the last of two rows
        monkeypatch.setattr(grids, "SLAB_BYTES", 3 * want[0].nbytes)
        final, _ = evolve(model, state, dt, 4, stride=2)
        assert final.cells.tobytes() == _hermitian_cells(want).tobytes()

    def test_step_holds_one_grid_array(self, monkeypatch):
        # one grid width, two heights: beyond its one grid array, the
        # caller's accumulator, and the kernel (the fixed matrices, their
        # per-q weights and the two window buffers the operators are built
        # into), a step of real coordinates holds a fixed number of slabs
        rng = np.random.default_rng(23)
        model = random_cq_model(rng, 8)
        row_bytes = 41 * 64 * 8
        slab_bytes = 3 * row_bytes
        band_bytes = slab_bytes + 2 * row_bytes  # a window and its neighbour rows
        window_bytes = 3 * 2 * 64 * 64 * 8  # L(q)'^T and B(q)'^T of a window's q rows
        monkeypatch.setattr(grids, "SLAB_BYTES", slab_bytes)
        kernels = []
        build = generator._cq_kernel

        def spy(*args):
            kernels.append(build(*args))
            return kernels[-1]

        monkeypatch.setattr(generator, "_cq_kernel", spy)
        held = []
        for nq in (40, 120):
            grid = PhaseGrid((GridAxis("q", -3.0, 2.5, nq), GridAxis("p", -2.0, 3.0, 41)))
            # any real coordinates are those of Hermitian cells
            x = np.swapaxes(rng.normal(size=(41, nq, 8, 8)), 0, 1)
            assert not x.flags.c_contiguous  # k1 reads a copy of one band at a time
            x.flags.writeable = False  # the input cells are never written
            grid_bytes = x.nbytes
            assert grid_bytes > 12 * slab_bytes
            dt = 0.4 * cfl_limit(model, grid)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                # the audit and the kernel
                rate_fn, height = generator._stepper(model, HybridState(grid, np.zeros(
                    grid.shape + (8, 8), dtype=complex)), dt)
                inputs = tracemalloc.get_traced_memory()[0] - base
                acc = np.empty(x.shape)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                stepped = generator._rk4(rate_fn, x, dt, height, acc)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # three fixed d^4 matrices (C', K' and A'), one window's operators,
            # a few floats a q row and 16 kB of small objects, where every q
            # row's operators take 2 d^4
            assert [op.shape for op in kernels[-1].ops] == [(height, 64, 64)] * 2
            assert inputs < 3 * 64 * 64 * 8 + window_bytes + nq * 8 * 8 + (1 << 14), inputs
            assert stepped is acc and acc.nbytes == grid_bytes
            held.append(peak)
        # the step allocates no grid array, and a one-channel model's
        # windows are built without a temporary: four bands, the rate
        # window, the kernel's scratch, k1's band of the input cells and a
        # few rows of kernel temporaries
        bound = 5 * band_bytes + 2 * slab_bytes + 8 * row_bytes
        assert max(held) < bound, held
        assert abs(held[1] - held[0]) < row_bytes, held

    def test_evolve_holds_two_coordinate_arrays(self, monkeypatch):
        # a stride-1 run on 67 windows of three q rows: the steps alternate
        # between two coordinate arrays and each record reads one a slab at
        # a time, so no complex grid array exists before the final state's
        rng = np.random.default_rng(29)
        model = random_cq_model(rng, 8)
        nq, row_bytes = 200, 41 * 64 * 8  # a q row of real coordinates
        slab_bytes = 3 * row_bytes
        band_bytes = slab_bytes + 2 * row_bytes
        window_bytes = 3 * 2 * 64 * 64 * 8
        monkeypatch.setattr(grids, "SLAB_BYTES", slab_bytes)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, nq), GridAxis("p", -2.0, 3.0, 41)))
        state = gaussian_product_state(grid, (-0.25, 0.5), (0.5, 0.5), rho_q=np.eye(8) / 8)
        grid_bytes = state.cells.nbytes // 2
        dt = 0.4 * cfl_limit(model, grid)
        before = []
        to_cells = generator._hermitian_cells

        def spy(x):
            if len(x) == nq:  # the final state's, not a record's slab
                before.append(tracemalloc.get_traced_memory()[1] - base)
            return to_cells(x)

        monkeypatch.setattr(generator, "_hermitian_cells", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # the random model leaks 1.5e-6 of the trace in two steps of this coarse grid
            final, diags = evolve(model, state, dt, 2, stride=1, trace_abort=1e-4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(diags.t) == 3 and len(before) == 1
        # test_step_holds_one_grid_array's step slack and kernel; a record's
        # grid-shaped traces, |varrho_01| and eigenvalues (32 bytes a cell)
        # and a few slabs of complex cells
        slack = 5 * band_bytes + 2 * slab_bytes + 8 * row_bytes
        slack += 3 * 64 * 64 * 8 + window_bytes + nq * 8 * 8 + (1 << 14)
        slack += 32 * nq * 41 + 8 * 2 * row_bytes
        assert before[0] < 2 * grid_bytes + slack, (before, grid_bytes)
        # the spare array and the kernel go before the final
        # cells are formed (10.4 and 12.7 MB were measured, for 4.2 MB
        # coordinate arrays)
        final_bytes = grid_bytes + final.cells.nbytes + 32 * nq * 41 + 8 * row_bytes
        assert peak < max(before[0], final_bytes), (peak, grid_bytes)

    @pytest.mark.parametrize("rows", [1, 3, 41])
    def test_rk4_writes_into_the_callers_buffer(self, rows, monkeypatch):
        model, state = kernel_case(8, 8, 41, False)
        x = _real_coordinates(state.cells)
        dt = 0.4 * cfl_limit(model, state.grid)
        want = allocating_rk4(band_rate(model, state.grid), x, dt)
        monkeypatch.setattr(grids, "SLAB_BYTES", rows * x[0].nbytes)
        rate_fn, height = generator._stepper(model, state, dt)
        acc = np.full(x.shape, np.nan)
        assert generator._rk4(rate_fn, x, dt, height, acc) is acc
        assert acc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("axes", [1, 2])
    def test_record_has_the_bits_of_the_whole_grid_expressions(self, axes, d, monkeypatch):
        rng = np.random.default_rng(10 * axes + d)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, 23), GridAxis("p", -2.0, 3.0, 26))[:axes])
        # exactly Hermitian cells of positive trace and widely spread
        # magnitudes, as a run records
        x = rng.normal(size=grid.shape + (d, d)) + 3.0 * np.eye(d)
        x *= np.exp(rng.normal(size=grid.shape + (1, 1)))
        state = HybridState(grid, _hermitian_cells(x))
        slabs = []
        to_cells = generator._hermitian_cells

        def spy(y):
            slabs.append(len(y))
            return to_cells(y)

        monkeypatch.setattr(generator, "_hermitian_cells", spy)
        for rows in (1, 2, 5, 23):
            # a record's slab is a quarter of SLAB_BYTES of complex cells
            monkeypatch.setattr(grids, "SLAB_BYTES", 4 * rows * state.cells[0].nbytes)
            diags = generator.EvolutionDiagnostics.empty()
            slabs.clear()
            diags.record(0.25, grid, x)
            # the slabs of complex cells, then the one cell of the marginal
            assert slabs == [min(rows, 23 - lo) for lo in range(0, 23, rows)] + [1]
            assert diags.table().tobytes() == whole_grid_record(0.25, state).tobytes()
        assert np.isfinite(diags.table()).all()

    def test_operator_build_has_no_operator_sized_temporary(self):
        # 131 q rows of d = 8 fit one window: a one-channel model's operators
        # are built straight into the kernel's buffers, and each further
        # channel term takes one window-sized temporary at a time
        rng = np.random.default_rng(131)
        grid = PhaseGrid((GridAxis("q", -3.0, 2.5, 131), GridAxis("p", -2.0, 3.0, 3)))
        one = random_cq_model(rng, 8)
        three = dataclasses.replace(one, channels=one.channels + tuple(
            (random_hermitian(rng, (8, 8)), np.cos) for _ in range(2)))
        for model, temporaries in ((one, 0), (three, 1)):
            kernel = _cq_kernel(model, grid)
            assert kernel.height == 131
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ops = kernel.window(0, 131)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            op_bytes = ops[0].nbytes
            assert op_bytes > 4 * grids.SLAB_BYTES
            assert all(np.shares_memory(op, buffer) for op, buffer in zip(ops, kernel.ops))
            # beside numpy's iteration buffers, three of 8192 floats
            assert temporaries * op_bytes <= peak < temporaries * op_bytes + 4 * 8192 * 8

    @pytest.mark.parametrize("levels,d", [(2, 2), (8, 8), (1, 2)])
    def test_chunked_operators_match_the_whole_grid_expression(self, levels, d):
        # random_cq_model's D0 and L depend on q, so a window of the wrong
        # rows would not match; a window of any height has the bits of the
        # whole grid's, which match the complex Kronecker products
        model, state = kernel_case(levels, d, 41, False)
        kernel = _cq_kernel(model, state.grid)
        assert kernel.height == 41
        whole = [op.copy() for op in kernel.window(0, 41)]
        want = real_operators(whole_grid_cq_operators(model, state.grid))
        for got, op in zip(whole, want):
            assert np.abs(got - op).max() <= 1e-13 * np.abs(op).max()
        # windows of one, and of three q rows (a shorter last window)
        for rows in (1, 3):
            for lo in range(0, 41, rows):
                hi = min(lo + rows, 41)
                got = kernel.window(lo, hi)
                assert [op.tobytes() for op in got] == [op[lo:hi].tobytes() for op in whole]

    @pytest.mark.parametrize("levels,d", [(2, 2), (8, 8)])
    def test_each_window_is_built_at_each_evaluation(self, levels, d, monkeypatch):
        n = 41
        model, state = kernel_case(levels, d, n, False)
        state = gaussian_product_state(state.grid, (0.0, 0.5), (0.4, 0.4), rho_q=np.eye(d) / d)
        dt = 0.4 * cfl_limit(model, state.grid)
        built = []
        build = generator._Kernel.window

        def spy(kernel, lo, hi):
            built.append((lo, hi))
            return build(kernel, lo, hi)

        monkeypatch.setattr(generator._Kernel, "window", spy)
        row_bytes = state.cells[0].nbytes // 2  # a q row of real coordinates
        for rows in (1, 2, 3, 5, n):
            monkeypatch.setattr(grids, "SLAB_BYTES", rows * row_bytes)
            size = min(n, max(2, rows))
            windows = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
            built.clear()
            evolve(model, state, dt, 2)
            # a window's operators are built for each of its four stages
            # of each step, into the same two buffers: nothing is kept
            assert sorted(built) == sorted(windows * 8)

    def test_kernels_take_a_model_and_a_state(self):
        # a window's rows and its output buffer are `_rk4`'s, carried by a `_Band`
        assert list(inspect.signature(apply_generator).parameters) == ["model", "state"]
        assert list(inspect.signature(measurement_generator).parameters) == ["m", "state"]
        model, state = kernel_case(2, 2, 9, False)
        m, signal = measurement_kernel_case(2, 9, False)
        for rate, given in ((apply_generator(model, state), state),
                            (measurement_generator(m, signal), signal)):
            assert rate.flags.c_contiguous and rate.flags.owndata
            assert rate.shape == given.cells.shape
        # a band without a row that its window's q-stencils read is refused
        kernel = _cq_kernel(model, state.grid)
        out = np.empty((2, 9, 2, 2))
        x = _real_coordinates(state.cells)
        band = _Band(state.grid, x[3:6], 3, kernel, slice(3, 5), out)
        with pytest.raises(ValueError, match=r"read rows \[2, 6\), not all in the band \[3, 6\)"):
            apply_generator(model, band)

    def test_rates_are_new_arrays(self):
        model, state = kernel_case(2, 2, 9, False)
        first = apply_generator(model, state)
        kept = first.copy()
        second = apply_generator(model, state)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    def test_input_cells_untouched(self, small_grid):
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(
            small_grid, (0, 0), (0.45, 0.45), rho_q=np.array([[0.6, 0.3], [0.3, 0.4]])
        )
        before = state.cells.copy()
        dt = 0.4 * cfl_limit(model, small_grid)
        step_rk4(model, state, dt)
        evolve(model, state, dt, 3, stride=1)
        assert state.cells.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    def test_stencil_windows_are_rows_of_the_whole_grid(self, shape, n):
        _, state = kernel_case(1, 2, n, False, shape)
        f = state.cells
        for stencil in (d_dx, d2_dx2):
            for axis in (0, 1):
                whole = stencil(f, axis, 0.137)
                for lo in range(n):
                    for hi in range(lo + 1, n + 1):
                        window = stencil(f, axis, 0.137, rows=slice(lo, hi))
                        assert window.tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    @pytest.mark.parametrize("levels,d", LEVELS_AND_CELLS)
    def test_slab_size_never_changes_a_bit(self, levels, d, shape, n, monkeypatch):
        model, state = kernel_case(levels, d, n, False, shape)
        windows = []

        def spy(*args, rows, **kwargs):
            windows.append((rows.start, rows.stop))
            return d_dx(*args, rows=rows, **kwargs)

        monkeypatch.setattr(generator, "d_dx", spy)
        x = _real_coordinates(state.cells)
        rates = {}
        # one-row slabs are windows of two rows; 2 and 3 rows leave a
        # shorter last window for some n; n rows is the whole grid
        for rows in (1, 2, 3, n):
            monkeypatch.setattr(grids, "SLAB_BYTES", rows * x[0].nbytes)
            windows.clear()
            rates[rows] = apply_generator(model, state)
            size = min(n, max(2, rows))
            sweep = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
            # one pass a window: its p and q derivatives
            assert windows == [w for window in sweep for w in (window, window)]
        want = _hermitian_cells(allocating_real_rate(model, state.grid, x))
        assert np.array_equal(rates[n], want)
        for rows in (1, 2, 3):
            assert rates[rows].tobytes() == rates[n].tobytes()

    def test_no_grid_sized_memory_kept_between_calls(self):
        model, state = kernel_case(8, 8, 131, False)
        # C-ordered real coordinates, as every RK4 stage has: their vec view needs no copy
        x = _real_coordinates(state.cells)
        nq, grid_bytes = len(x), x.nbytes
        assert grid_bytes > 8 * grids.SLAB_BYTES
        rows = grids.slab_rows(nq, x[0].nbytes)  # a window's q rows
        window_bytes = rows * 2 * 64 * 64 * 8  # its L(q)'^T and B(q)'^T
        tracemalloc.start()
        try:
            # a direct call audits the model and builds a kernel and every
            # window, and keeps none of them
            before = tracemalloc.get_traced_memory()[0]
            rate = apply_generator(model, state)
            del rate
            kept = tracemalloc.get_traced_memory()[0] - before
            assert kept < x[0].nbytes / 4, kept
            # a run's kernel keeps one window's operators, three fixed d^4
            # matrices and a few floats a q row: nothing of nq d^4
            kernel = _cq_kernel(model, state.grid)
            whole = slice(0, nq)
            band = _Band(state.grid, x, 0, kernel, whole, np.empty_like(x))
            apply_generator(model, band)
            held = sum(op.nbytes for op in kernel.ops)
            fixed = sum(op.nbytes for op in kernel.fixed)
            inputs = sum(a.nbytes for a in (*kernel.weights, kernel.force))
            assert held == window_bytes and fixed == 3 * 64 * 64 * 8
            assert inputs <= nq * 3 * 8
            # a later call builds every window again, into the same buffers:
            # the rate, plus slab buffers and row temporaries
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = np.empty_like(x)
            rate = apply_generator(model, _Band(state.grid, x, 0, kernel, whole, out))
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < grid_bytes + 4 * grids.SLAB_BYTES
        finally:
            tracemalloc.stop()

    def test_scratch_slab_is_kept_between_calls(self):
        model, state = kernel_case(8, 8, 101, False)
        x = _real_coordinates(state.cells)
        row_bytes = x[0].nbytes
        rows = grids.slab_rows(len(x), row_bytes)
        window = slice(rows, 2 * rows)  # one window of `_rk4`'s sweep
        kernel = _cq_kernel(model, state.grid)
        out = np.empty_like(x[window])
        band = _Band(state.grid, x, 0, kernel, window, out)
        first = apply_generator(model, band).copy()
        tracemalloc.start()
        try:
            apply_generator(model, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only stencil edge-row temporaries and numpy's iteration buffers:
        # the slab buffer and the window's operators are the kernel's, which
        # builds them into the same two buffers at each call
        assert peak < rows * row_bytes / 2
        assert out.tobytes() == first.tobytes()

    def test_recorded_cells_are_freed_after_the_next_step(self, monkeypatch, small_grid):
        # a record makes the Hermitian cells of one slab at a time, and none
        # outlives it; the steps alternate between the run's two coordinate
        # arrays, and each record reads the step's output
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        made, inside = [], []
        to_cells = generator._hermitian_cells

        def spy_cells(x):
            cells = to_cells(x)
            if inside:
                made.append(weakref.ref(cells))
            return cells

        read = []
        record = generator.EvolutionDiagnostics.record

        def spy_record(self, t, grid, x):
            inside.append(True)
            try:
                return record(self, t, grid, x)
            finally:
                inside.pop()
                read.append(x)
                stale.append(sum(ref() is not None for ref in made))

        stale, steps = [], []
        rk4 = generator._rk4

        def spy_step(rate_fn, cells, dt, height, acc):
            steps.append((cells, acc))
            return rk4(rate_fn, cells, dt, height, acc)

        monkeypatch.setattr(generator, "_hermitian_cells", spy_cells)
        monkeypatch.setattr(generator.EvolutionDiagnostics, "record", spy_record)
        monkeypatch.setattr(generator, "_rk4", spy_step)
        # record slabs of 3 rows of complex cells, a quarter of SLAB_BYTES
        monkeypatch.setattr(grids, "SLAB_BYTES", 4 * 3 * 41 * 4 * 16)
        dt = 0.4 * cfl_limit(model, small_grid)
        rho_q = np.array([[0.6, 0.3], [0.3, 0.4]])
        evolve(model, gaussian_product_state(small_grid, (0, 0), (0.45, 0.45), rho_q=rho_q),
               dt, 7, stride=3)
        assert len(read) == 4 and len(steps) == 7
        assert stale == [0] * 4 and len(made) == 4 * 14 + 4  # 14 slabs and the marginal
        first, second = steps[0]
        assert read[0] is first
        for n, (cells, acc) in enumerate(steps):
            want = (first, second) if n % 2 == 0 else (second, first)
            assert cells is want[0] and acc is want[1]
        # the records at steps 3, 6 and 7
        assert all(x is steps[n][1] for x, n in zip(read[1:], (2, 5, 6)))

    def test_evolve_lets_go_of_its_operators(self, small_grid, monkeypatch):
        # they would stay resident beside the final state, and in the
        # workers that fork to dump it; or, after an abort, until the next run
        kernels = []
        build = generator._cq_kernel

        def spy(*args):
            kernel = build(*args)
            kernels.append(weakref.ref(kernel))
            return kernel

        monkeypatch.setattr(generator, "_cq_kernel", spy)
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        state = gaussian_product_state(small_grid, (0, 0), (0.45, 0.45), rho_q=np.eye(2) / 2)
        dt = 0.4 * cfl_limit(model, small_grid)
        evolve(model, state, dt, 2)
        assert len(kernels) == 1 and kernels[0]() is None
        with pytest.raises(EvolutionError, match="trace drift"):
            evolve(model, state, dt, 2, stride=1, trace_abort=1e-15)
        assert len(kernels) == 2 and kernels[1]() is None

    def test_runner_frees_the_initial_cells_after_the_first_step(self, monkeypatch, tmp_path):
        initial = []
        build = runner.gaussian_product_state

        def tracked(*args, **kwargs):
            state = build(*args, **kwargs)
            initial.append(weakref.ref(state.cells))
            return state

        alive = []
        kernel = generator.apply_generator

        def rate(model, state, *window):
            alive.append(initial[0]() is not None)
            return kernel(model, state, *window)

        monkeypatch.setattr(runner, "gaussian_product_state", tracked)
        monkeypatch.setattr(generator, "apply_generator", rate)
        path = SCENARIO_DIR / "evolve_qubit_decoherence.yaml"
        runner.run_scenario(parse_scenario_file(str(path)), tmp_path)
        # four rate evaluations per RK4 step (one window: the grid fits one
        # slab): the steps read the initial cells' real coordinates, and
        # the initial cells are gone before the first of them
        assert len(alive) == 4 * 25
        assert not any(alive)
