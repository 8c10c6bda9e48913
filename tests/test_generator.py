import dataclasses
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cqsim import generator, runner
from cqsim.generator import (
    EvolutionError,
    _cq_operators,
    _measurement_operators,
    _operators,
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
from cqsim.scenario import parse_scenario_file
from cqsim.state import (
    HybridState,
    classical_marginal,
    edge_mass,
    gaussian_product_state,
    hermiticity_defect,
    min_cell_eigenvalue,
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

    lop = np.asarray(model.dv_i(qs), dtype=complex)[:, None, :, :]
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
        liou = np.swapaxes(_cq_operators(model, grid)[0], -1, -2)  # (nq, d^2, d^2)
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
        model = qubit_decoherence_model()  # a fresh model is never in the operator memo
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7), rho_q=np.eye(2) / 2)
        for _ in range(3):
            apply_generator(model, state)
        step_rk4(model, state, 0.4 * cfl_limit(model, small_grid))
        assert len(audits) == 1

    def test_failed_audit_is_not_cached(self, small_grid, audits):
        bad = qubit_decoherence_model(d0=1.0, d2=0.1)  # 4 D2 D0 = 0.4 < 1
        state = gaussian_product_state(small_grid, (0, 0), (0.7, 0.7), rho_q=np.eye(2) / 2)
        for expected_calls in (1, 2):
            with pytest.raises(ModelValidationError, match="complete positivity"):
                apply_generator(bad, state)
            assert len(audits) == expected_calls


class TestBranchGenerator:
    def test_basis_weights_are_the_seeded_normals(self):
        # the literals keep the branch labels of the draws they replace
        rng = np.random.default_rng(20230817)
        assert models._BASIS_WEIGHTS == tuple(rng.normal() for _ in range(7))

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
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=u0 @ np.diag(rng.normal(size=d)) @ u0.conj().T,
            v_i_matrix=u0 @ np.diag(rng.normal(size=d)) @ u0.conj().T,
            v_i_profile=[0.0, 0.7, 0.2], d2_coeffs=[1.0], d0_coeffs=[1.0],
        )
        # once the basis is fixed, dv_i may hand dv_eigs any Hermitian field
        fields = []
        model = dataclasses.replace(base, dv_i=lambda q: fields[-1] if fields else base.dv_i(q))
        diag = diagonalize_model(model, np.linspace(-2.0, 2.0, 9))
        u = diag.basis
        qs = rng.uniform(-2.0, 2.0, size=(6, 5))
        for field in (base.dv_i(qs), random_hermitian(rng, (6, 5, d, d))):
            fields.append(field)
            # the expression dv_eigs replaced: every entry of U^dag M U, then its diagonal
            oracle = np.einsum("ia,...ij,jb->...ab", u.conj(), field, u).real.diagonal(
                axis1=-2, axis2=-1
            )
            got = diag.dv_eigs(qs)
            assert got.shape == oracle.shape == (6, 5, d) and got.dtype == oracle.dtype
            assert got.tobytes() == oracle.tobytes()

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
            diagonalize_model(model, np.linspace(-3, 3, 5))

    @staticmethod
    def _fields(base, v_extra, dv_extra):
        """``base`` with sigma_x terms v_extra(q), dv_extra(q) added to V_I and dV_I."""
        def field(fn, extra):
            def out(q):
                q = np.asarray(q, dtype=float)
                return fn(q) + np.asarray(extra(q), dtype=float)[..., None, None] * SIGMA_X
            return out
        return dataclasses.replace(
            base, v_i=field(base.v_i, v_extra), dv_i=field(base.dv_i, dv_extra)
        )

    def test_refuses_dv_i_that_leaves_the_basis(self):
        # V_I(q) = q(q - 2) sigma_z for q >= 0 and q sigma_x below, H_q = 0: at
        # q = 2, V_I vanishes and every matrix there commutes, but dV_I = 2 sigma_z
        # is not diagonal in the basis the model fixes; its branch levels are
        # +-2, not the +-0.191 that basis would read off
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, -2.0, 1.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )

        def piecewise(fn, below):
            def out(q):
                q = np.asarray(q, dtype=float)
                return np.where((q >= 0)[..., None, None], fn(q), below(q))
            return out

        model = dataclasses.replace(
            base,
            v_i=piecewise(base.v_i, lambda q: q[..., None, None] * SIGMA_X),
            dv_i=piecewise(base.dv_i, lambda q: np.ones_like(q)[..., None, None] * SIGMA_X),
        )
        with pytest.raises(
            ModelValidationError,
            match=r"^model is not diagonal in a common q-independent basis: "
            r"dv_i\(q=2\) has off-diagonal 1\.991e\+00$",
        ):
            diagonalize_model(model, [2.0])

    def test_refusal_names_h_q(self):
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=SIGMA_X, v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 0.5], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        with pytest.raises(ModelValidationError, match=r"basis: h_q has off-diagonal "):
            diagonalize_model(model, np.linspace(-3, 3, 5))

    @pytest.mark.parametrize("name", ["v_i", "dv_i"])
    def test_refusal_names_the_field_and_q(self, name):
        # a sigma_x term switched on above q = 3, away from the points that fix
        # the basis, in V_I or in dV_I alone; q = 4 is the first probe it reaches
        def step(q):
            return 0.25 * (q > 3.0)

        extra = (step, np.zeros_like) if name == "v_i" else (np.zeros_like, step)
        model = self._fields(qubit_decoherence_model(lam=0.6, d0=1.0), *extra)
        diagonalize_model(model, np.linspace(-3.0, 3.0, 7))
        with pytest.raises(
            ModelValidationError, match=rf"basis: {name}\(q=4\) has off-diagonal 2\.500e-01$"
        ):
            diagonalize_model(model, np.linspace(-4.0, 4.0, 9))

    def test_tolerance_is_relative_to_the_matrix(self):
        # beside a sigma_z of size 1e2 the bound is 1e-10 * 101: an off-diagonal
        # entry of 1e-9 passes and one of 1e-7 does not (near q = 1 only, so
        # the basis stays that of sigma_z)
        base = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)), v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 100.0], d2_coeffs=[0.5], d0_coeffs=[1.0],
        )
        qs = np.array([1.0])
        for eps, ok in ((1e-9, True), (1e-7, False)):
            model = self._fields(base, lambda q: eps * (np.abs(q - 1.0) < 0.5), np.zeros_like)
            if ok:
                diagonalize_model(model, qs)
            else:
                with pytest.raises(ModelValidationError, match=r"v_i\(q=1\)"):
                    diagonalize_model(model, qs)


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
        assert hermiticity_defect(state) < 1e-10

    def test_thousand_step_invariants(self):
        # trace drift <= 1e-6, hermiticity <= 1e-10 and negativity >= -1e-6
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
        assert hermiticity_defect(final) <= 1e-10

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
        sup_t, flux_t, d2_of_z = _measurement_operators(m, grid)
        for got, want in zip((sup_t, flux_t), kron_measurement_operators(m, grid)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * (1.0 + np.abs(want).max())
        assert d2_of_z.tobytes() == m.d2(grid.axes[0].points)[:, None, None].tobytes()

    def test_shipped_feedback_operators_equal_the_kronecker_expressions(self):
        # sigma_z with k(z) = 1 + 0.3 z: the same values (zeros may differ in sign)
        scenario = parse_scenario_file(SCENARIO_DIR / "unravel_feedback.yaml")
        got = _measurement_operators(scenario.model, scenario.grid)[:2]
        for op, want in zip(got, kron_measurement_operators(scenario.model, scenario.grid)):
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
    grid = state.grid
    liou_t, back_t, p_over_m, half_d2 = _operators(model, grid, _cq_operators)
    fvec = state.cells.reshape(grid.shape + (-1,))
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
    return rate.reshape(state.cells.shape)


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
    """`_cq_operators` as one whole-grid expression per operator."""
    qs = grid.axes[0].points
    eye = np.eye(model.hilbert_dim)
    lop = np.asarray(model.dv_i(qs), dtype=complex)
    l2 = lop @ lop
    d0_of_q = np.asarray(model.d0(qs), dtype=float)[:, None, None]
    vprime = np.asarray(classical_force(model, qs), dtype=float)[:, None, None]
    h = model.h_q
    kron, t = generator._kron, generator._t
    liou = (-1j / model.hbar) * (kron(h, eye) - kron(eye, h.T)) + d0_of_q * (
        kron(lop, t(lop)) - 0.5 * (kron(l2, eye) + kron(eye, t(l2)))
    )
    back = vprime * np.eye(eye.size) + 0.5 * (kron(lop, eye) + kron(eye, t(lop)))
    return t(liou).copy(), t(back).copy()


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
        dt = 0.4 * cfl_limit(model, state.grid)
        # the same rate values, where only the sign of a zero may differ
        assert np.array_equal(apply_generator(model, state), allocating_rate(model, state))
        rate_fn = lambda cells: apply_generator(model, HybridState(state.grid, cells))
        want = allocating_rk4(rate_fn, state.cells, dt).tobytes()
        assert step_rk4(model, state, dt).cells.tobytes() == want

    @pytest.mark.parametrize("n", [3, 4, 41])
    @SHAPES
    @pytest.mark.parametrize("levels,d", LEVELS_AND_CELLS)
    def test_sweep_windows_never_change_a_bit(self, levels, d, shape, n, monkeypatch):
        model, state = kernel_case(levels, d, n, False, shape)
        dt = 0.4 * cfl_limit(model, state.grid)
        rate_fn = lambda cells: apply_generator(model, HybridState(state.grid, cells))
        want = allocating_rk4(rate_fn, state.cells, dt).tobytes()
        windows = []
        kernel = generator.apply_generator

        def spy(model, state, rows, out):
            windows.append(rows.indices(n)[:2])
            return kernel(model, state, rows, out)

        monkeypatch.setattr(generator, "apply_generator", spy)
        # one-row slabs still sweep two rows at a time; 3 rows leave a
        # shorter last window for some n
        for rows in (1, 2, 3):
            monkeypatch.setattr(generator, "_SLAB_BYTES", rows * state.cells[0].nbytes)
            windows.clear()
            assert step_rk4(model, state, dt).cells.tobytes() == want
            size = max(2, rows)
            sweep = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
            # k1 over the whole grid, then k2, k3 and k4 window by window
            assert windows == [(0, n)] + 3 * sweep

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("n", [3, 4, 41])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_measurement_step_matches_allocating_expressions(self, d, n, real):
        m, state = measurement_kernel_case(d, n, real)
        dt = 0.4 * measurement_cfl_limit(m, state.grid)
        rate_fn = lambda cells: measurement_generator(m, HybridState(state.grid, cells))
        want = allocating_rk4(rate_fn, state.cells, dt)
        assert step_rk4(m, state, dt).cells.tobytes() == want.tobytes()
        # the window form of the kernel gives the rows of the whole-grid rate
        whole = rate_fn(state.cells)
        out = np.full((n - 1,) + state.cells.shape[1:], np.nan, dtype=complex)
        assert measurement_generator(m, state, slice(1, n), out) is out
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
        rate_fn = lambda cells: measurement_generator(m, HybridState(grid, cells))
        want = state.cells
        for _ in range(3):
            want = allocating_rk4(rate_fn, want, dt)
        final, _ = evolve_measurement(m, state, dt, 3, stride=1)
        assert final.cells.tobytes() == want.tobytes()

    def test_step_holds_three_grid_arrays(self, monkeypatch):
        model, state = kernel_case(8, 8, 101, False)
        cells = np.ascontiguousarray(state.cells)
        grid_bytes = cells.nbytes
        row_bytes = cells[0].nbytes
        slab_bytes = generator._slab_rows(cells) * row_bytes
        assert grid_bytes > 8 * slab_bytes
        dt = 0.4 * cfl_limit(model, state.grid)
        # the operators are built inside the step
        monkeypatch.setattr(generator, "_memo", (None, None, None, None))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stepped = step_rk4(model, HybridState(state.grid, cells), dt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        operators = sum(op.nbytes for op in generator._memo[2])
        # the input cells are not counted: accumulator and stage state, two
        # window buffers, the kernel's scratch, and a few rows of stencil
        # edge temporaries
        assert peak < 2 * grid_bytes + operators + 3 * slab_bytes + 8 * row_bytes
        assert stepped.cells.nbytes == grid_bytes

    def test_operator_build_has_no_operator_sized_temporary(self):
        model, state = kernel_case(8, 8, 101, False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops = _cq_operators(model, state.grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = sum(op.nbytes for op in ops)
        assert outputs > 8 * generator._SLAB_BYTES
        assert peak < 1.5 * outputs

    @pytest.mark.parametrize("levels,d", [(2, 2), (8, 8), (1, 2)])
    def test_chunked_operators_match_the_whole_grid_expression(self, levels, d, monkeypatch):
        model, state = kernel_case(levels, d, 41, False)
        want = [op.tobytes() for op in whole_grid_cq_operators(model, state.grid)]
        # chunks of one, and of three q rows (a shorter last chunk)
        for rows in (1, 3):
            monkeypatch.setattr(generator, "_SLAB_BYTES", rows * 16 * d**4)
            assert [op.tobytes() for op in _cq_operators(model, state.grid)[:2]] == want

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
        rates = {}
        # 2 and 3 rows leave a shorter last slab for some n; n rows is the whole grid
        for rows in (1, 2, 3, n):
            monkeypatch.setattr(generator, "_SLAB_BYTES", rows * state.cells[0].nbytes)
            windows.clear()
            rates[rows] = apply_generator(model, state)
            slabs = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
            assert windows == [w for slab in slabs for w in (slab, slab)]
        assert np.array_equal(rates[n], allocating_rate(model, state))
        for rows in (1, 2, 3):
            assert rates[rows].tobytes() == rates[n].tobytes()

    def test_no_grid_sized_memory_kept_between_calls(self):
        model, state = kernel_case(8, 8, 101, False)
        # C-ordered cells, as every RK4 stage has: their vec view needs no copy
        state = HybridState(state.grid, np.ascontiguousarray(state.cells))
        grid_bytes = state.cells.nbytes
        assert grid_bytes > 8 * generator._SLAB_BYTES
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rate = apply_generator(model, state)
            del rate
            kept = tracemalloc.get_traced_memory()[0] - before
            operators = sum(op.nbytes for op in generator._memo[2])
            assert kept < operators + grid_bytes / 4
            # a later call: the rate, plus slab buffers and row temporaries
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rate = apply_generator(model, state)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < grid_bytes + 4 * generator._SLAB_BYTES
        finally:
            tracemalloc.stop()

    def test_scratch_slab_is_kept_between_calls(self):
        model, state = kernel_case(8, 8, 101, False)
        state = HybridState(state.grid, np.ascontiguousarray(state.cells))
        out = np.empty_like(state.cells)
        first = apply_generator(model, state, out=out).copy()
        slab_bytes = generator._slab_rows(state.cells) * state.cells[0].nbytes
        tracemalloc.start()
        try:
            apply_generator(model, state, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only stencil edge-row temporaries: the slab buffer is the memo's
        assert peak < slab_bytes / 2
        assert out.tobytes() == first.tobytes()

    def test_recorded_cells_are_freed_after_the_next_step(self, monkeypatch, small_grid):
        model = qubit_decoherence_model(lam=0.6, d0=1.0)
        recorded = []
        record = generator.EvolutionDiagnostics.record

        def spy_record(self, t, state):
            recorded.append(weakref.ref(state.cells))
            return record(self, t, state)

        stale = []
        rk4 = generator._rk4

        def spy_step(rate_fn, cells, dt, height):
            # a step reads its input cells; every cells recorded before them are garbage
            stale.append(sum(ref() is not None and ref() is not cells for ref in recorded))
            return rk4(rate_fn, cells, dt, height)

        monkeypatch.setattr(generator.EvolutionDiagnostics, "record", spy_record)
        monkeypatch.setattr(generator, "_rk4", spy_step)
        dt = 0.4 * cfl_limit(model, small_grid)
        rho_q = np.array([[0.6, 0.3], [0.3, 0.4]])
        evolve(model, gaussian_product_state(small_grid, (0, 0), (0.45, 0.45), rho_q=rho_q),
               dt, 7, stride=3)
        assert len(recorded) == 4 and len(stale) == 7
        assert stale == [0] * 7

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
        # slab): only the first step reads the initial cells
        assert len(alive) == 4 * 25
        assert alive[:4] == [True] * 4 and not any(alive[4:])
