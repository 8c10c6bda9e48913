import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cqsim import paths, runner
from cqsim.generator import cfl_limit, evolve
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import ModelValidationError, diagonalize_model, polynomial_cq_model
from cqsim.paths import (
    BranchPair,
    ClassicalPath,
    PathRejectedError,
    anomalous_term,
    config_action,
    fv_action,
    om_action,
    path_exponent,
    sample_path_ensemble,
)
from cqsim.scenario import parse_scenario_file
from cqsim.state import classical_marginal, gaussian_product_state, total_trace
from cqsim.unravel import bin_ensemble

from conftest import SIGMA_X, SIGMA_Z, free_diffusion_model, qubit_decoherence_model


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def harmonic_model(d2_coeffs=(0.4,), mass=1.0, spring=0.5):
    return polynomial_cq_model(
        mass=mass, potential_coeffs=[0.0, 0.0, 0.5 * spring], h_q=[[0.0]], d2_coeffs=list(d2_coeffs)
    )


def first_path(model, q0, p0, n_steps, dt, pair=None, seed=0):
    """Row 0 of a one-path `sample_path_ensemble`, as a ClassicalPath."""
    qs, ps = sample_path_ensemble(model, q0, p0, n_steps, dt, 1, pair, seed)
    return ClassicalPath(dt=dt, q=qs[0], p=ps[0])


def em_step_logpdf(model, q, p, p_next, dt, pair=None):
    """Independent per-step Euler-Maruyama transition density (scipy)."""
    from cqsim.paths import _drift_force

    mean = p - _drift_force(model, np.atleast_1d(q), pair)[0] * dt
    sd = np.sqrt(model.d2(q) * dt)
    return stats.norm.logpdf(p_next, loc=mean, scale=sd)


class TestOmAction:
    def test_exact_hamiltonian_path_has_zero_action(self):
        model = harmonic_model()
        dt = 0.01
        q, p = [0.5], [0.8]
        for _ in range(100):
            q.append(q[-1] + p[-1] / model.mass * dt)
            p.append(p[-1] - model.dpotential(q[-2]) * dt)
        path = ClassicalPath(dt=dt, q=np.array(q), p=np.array(p))
        assert om_action(path, model) < 1e-20

    def test_single_step_residual(self):
        model = free_diffusion_model(d2=0.8)
        dt = 0.02
        r = 1.7  # engineered residual: p jumps by r*dt with no force
        path = ClassicalPath(dt=dt, q=np.array([0.0, 0.0]), p=np.array([0.0, r * dt]))
        assert om_action(path, model) == pytest.approx(dt * r**2 / (2.0 * 0.8), rel=1e-12)

    def test_constraint_violation_rejected_with_index(self):
        model = harmonic_model()
        path = ClassicalPath(dt=0.01, q=np.array([0.0, 0.5, 0.5]), p=np.zeros(3))
        with pytest.raises(PathRejectedError, match="step 0") as err:
            om_action(path, model)
        assert err.value.index == 0

    def test_nonpositive_diffusion_refused(self):
        model = harmonic_model(d2_coeffs=[0.0])
        path = first_path(harmonic_model(), 0.0, 0.0, 10, 0.01, seed=1)
        with pytest.raises(PathRejectedError, match="D2"):
            om_action(path, model)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_nonnegative(self, seed):
        model = harmonic_model(d2_coeffs=[0.3, 0.02])
        path = first_path(model, 0.1, -0.3, 40, 0.01, seed=seed)
        assert om_action(path, model) >= 0.0


class TestWeightDensityDuality:
    @pytest.mark.parametrize("d2_coeffs", [(0.5,), (0.5, 0.1)])
    def test_per_step_identity(self, d2_coeffs):
        # exp(-(OM + anomalous)) equals the EM transition density per step
        # up to the never-materialized (2 pi dt)^{-1/2} factors
        model = harmonic_model(d2_coeffs=d2_coeffs)
        dt, n_steps = 0.01, 120
        for seed in range(30):
            path = first_path(model, 0.2, 0.1, n_steps, dt, seed=seed)
            q, p = path.q, path.p
            for k in range(n_steps):
                step_path = ClassicalPath(dt=dt, q=q[k : k + 2], p=p[k : k + 2])
                weight_exp = -(om_action(step_path, model) + anomalous_term(step_path, model))
                oracle = em_step_logpdf(model, q[k], p[k], p[k + 1], dt)
                assert abs(weight_exp - 0.5 * np.log(2.0 * np.pi * dt) - oracle) < 1e-10

    def test_weight_ratio_between_paths(self):
        # same-length paths: the density ratio is the action difference
        model = harmonic_model(d2_coeffs=(0.5, 0.1))
        dt, n_steps = 0.01, 80
        a = first_path(model, 0.0, 0.0, n_steps, dt, seed=100)
        b = first_path(model, 0.0, 0.0, n_steps, dt, seed=200)

        def log_density(path):
            return sum(
                em_step_logpdf(model, path.q[k], path.p[k], path.p[k + 1], dt)
                for k in range(n_steps)
            )

        delta_action = om_action(a, model) + anomalous_term(a, model) - (
            om_action(b, model) + anomalous_term(b, model)
        )
        assert log_density(b) - log_density(a) == pytest.approx(delta_action, abs=1e-9)


class TestAnomalousTerm:
    def test_constant_unity_diffusion_vanishes(self):
        model = free_diffusion_model(d2=1.0)
        path = first_path(model, 0.0, 0.0, 25, 0.01, seed=2)
        assert anomalous_term(path, model) == 0.0

    def test_constant_diffusion_counts_steps(self):
        model = free_diffusion_model(d2=0.7)
        path = first_path(model, 0.0, 0.0, 25, 0.01, seed=2)
        assert anomalous_term(path, model) == pytest.approx(25 * 0.5 * np.log(0.7), rel=1e-12)

    def test_reweighting_to_q_dependent_diffusion(self):
        # sample at constant reference D2, importance-reweight to D2(q):
        # the weighted marginal must match the grid Fokker-Planck solution,
        # and dropping the anomalous term must visibly spoil it
        t_final, dt = 0.3, 0.005
        n_steps = int(round(t_final / dt))
        target = harmonic_model(d2_coeffs=(0.5, 0.12))
        reference = harmonic_model(d2_coeffs=(0.5,))
        n_paths = 20_000
        rng = np.random.default_rng(77)
        q0 = rng.normal(0.0, 0.45, size=n_paths)
        p0 = rng.normal(0.0, 0.45, size=n_paths)
        qs, ps = sample_path_ensemble(reference, q0, p0, n_steps, dt, n_paths=n_paths, seed=404)

        # batch evaluation of the same weights, spot-checked against the
        # production single-path functions below
        q_pre = qs[:, :-1]
        residual = (ps[:, 1:] - ps[:, :-1]) / dt + target.dpotential(q_pre)
        om_t = (0.5 * dt * residual**2 / target.d2(q_pre)).sum(axis=1)
        an_t = (0.5 * np.log(target.d2(q_pre))).sum(axis=1)
        om_r = (0.5 * dt * residual**2 / reference.d2(q_pre)).sum(axis=1)
        an_r = (0.5 * np.log(reference.d2(q_pre))).sum(axis=1)
        log_w = (om_r + an_r) - (om_t + an_t)
        log_w_no_anom = om_r - om_t
        for i in range(0, n_paths, n_paths // 50):
            path = ClassicalPath(dt=dt, q=qs[i], p=ps[i])
            assert om_action(path, target) == pytest.approx(om_t[i], rel=1e-12)
            assert anomalous_term(path, target) == pytest.approx(an_t[i], rel=1e-12)
            assert om_action(path, reference) == pytest.approx(om_r[i], rel=1e-12)

        grid = PhaseGrid((GridAxis("q", -4, 4, 81), GridAxis("p", -4, 4, 81)))
        state = gaussian_product_state(grid, (0.0, 0.0), (0.45, 0.45))
        dtg = 0.4 * cfl_limit(target, grid)
        ng = int(round(t_final / dtg))
        final, _ = evolve(target, state, t_final / ng, ng, stride=ng)
        dens_q = classical_marginal(final).sum(axis=1) * grid.axes[1].spacing

        endpoints = np.column_stack([qs[:, -1], ps[:, -1]])

        def weighted_marginal(lw):
            w = np.exp(lw - lw.max())
            hist = classical_marginal(bin_ensemble(endpoints, None, grid, w))
            return hist.sum(axis=1) * grid.axes[1].spacing

        def rebin(dens_1d):
            # 80 intervals -> 20 coarse bins keeps the MC noise below the gate
            return dens_1d[:-1].reshape(20, 4).sum(axis=1) * grid.axes[0].spacing

        l1_good = np.abs(rebin(weighted_marginal(log_w)) - rebin(dens_q)).sum()
        l1_bad = np.abs(rebin(weighted_marginal(log_w_no_anom)) - rebin(dens_q)).sum()
        assert l1_good < 0.05
        assert l1_bad > 2.0 * l1_good  # the anomalous term is load-bearing


class TestPathMeasureConsistency:
    def test_unweighted_ensemble_follows_fokker_planck(self):
        # constant D2: raw Euler-Maruyama samples already carry the path
        # measure; their binned q and p marginals match the grid evolution
        model = harmonic_model(d2_coeffs=(0.4,))
        t_final, dt = 0.5, 0.005
        n_steps = int(round(t_final / dt))
        n_paths = 10_000
        rng = np.random.default_rng(31)
        q0 = rng.normal(0.0, 0.5, size=n_paths)
        p0 = rng.normal(0.0, 0.5, size=n_paths)
        qs, ps = sample_path_ensemble(model, q0, p0, n_steps, dt, n_paths=n_paths, seed=55)

        grid = PhaseGrid((GridAxis("q", -4, 4, 81), GridAxis("p", -4, 4, 81)))
        state = gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5))
        dtg = 0.4 * cfl_limit(model, grid)
        ng = int(round(t_final / dtg))
        final, _ = evolve(model, state, t_final / ng, ng, stride=ng)
        dens = classical_marginal(final)
        hist = classical_marginal(bin_ensemble(np.column_stack([qs[:, -1], ps[:, -1]]), None, grid))

        hq, hp = grid.axes[0].spacing, grid.axes[1].spacing
        # marginals rebinned 80 -> 20 so the N = 1e4 MC noise sits below 0.05
        diff_q = ((hist - dens).sum(axis=1) * hp)[:-1].reshape(20, 4).sum(axis=1) * hq
        diff_p = ((hist - dens).sum(axis=0) * hq)[:-1].reshape(20, 4).sum(axis=1) * hp
        assert np.abs(diff_q).sum() < 0.05
        assert np.abs(diff_p).sum() < 0.05


def histogram2d_density(qp, grid, weights=None):
    """Reference endpoint density: np.histogram2d over the grid's cell edges."""
    w = np.ones(len(qp)) if weights is None else weights
    hist, _, _ = np.histogram2d(
        qp[:, 0], qp[:, 1], bins=[grid.edges(ax.name) for ax in grid.axes], weights=w
    )
    return hist / (w.sum() * grid.cell_volume)


class TestEndpointBinning:
    """`bin_ensemble` on a (q, p) grid against a histogram2d reference."""

    grid = PhaseGrid((GridAxis("q", -2.0, 2.0, 21), GridAxis("p", -3.0, 1.0, 11)))

    def endpoints(self, n, seed):
        # strictly inside the outer edges: histogram2d closes its last bin on
        # the right, bin_ensemble does not
        rng = np.random.default_rng(seed)
        lo = [self.grid.edges(ax.name)[0] for ax in self.grid.axes]
        hi = [self.grid.edges(ax.name)[-1] for ax in self.grid.axes]
        return rng.uniform(np.add(lo, 1e-9), np.subtract(hi, 1e-9), size=(n, 2))

    def test_unweighted_matches_histogram2d(self):
        qp = self.endpoints(5000, seed=1)
        state = bin_ensemble(qp, None, self.grid)
        assert state.hilbert_dim == 1
        assert np.abs(classical_marginal(state) - histogram2d_density(qp, self.grid)).max() < 1e-12
        assert total_trace(state) == pytest.approx(1.0, rel=1e-12)

    def test_weighted_matches_histogram2d(self):
        qp = self.endpoints(5000, seed=2)
        w = np.random.default_rng(3).exponential(size=len(qp))
        state = bin_ensemble(qp, None, self.grid, weights=w)
        ref = histogram2d_density(qp, self.grid, w)
        assert np.abs(classical_marginal(state) - ref).max() < 1e-12
        assert total_trace(state) == pytest.approx(1.0, rel=1e-12)


class TestFeynmanVernon:
    def qubit_model(self, lam=1.5, d0=0.5, d2=0.5):
        # V_I = (lam/2) q^2 sigma_z so the Lindblad eigenvalues lam*q depend
        # on the path; constant couplings keep the triple CP everywhere
        return polynomial_cq_model(
            mass=1.0,
            potential_coeffs=[0.0, 0.0, 0.5],
            h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z,
            v_i_profile=[0.0, 0.0, 0.5 * lam],
            d2_coeffs=[d2],
            d0_coeffs=[d0],
        )

    def test_equal_branches_vanish(self):
        model = self.qubit_model()
        path = first_path(model, 0.3, 0.0, 30, 0.01, pair=BranchPair(0, 0), seed=6)
        assert fv_action(path, model, BranchPair(0, 0)) == 0.0
        assert fv_action(path, model, BranchPair(1, 1)) == 0.0

    def test_branch_averaged_drift_cancels_for_coherence(self):
        # qubit lam q sigma_z, a != b: the +-lam interaction forces cancel,
        # leaving the purely classical force dV/dq on the (0, 1) pair
        from cqsim.paths import _drift_force

        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0, 0.0, 0.5], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.9],
            d2_coeffs=[0.3], d0_coeffs=[1.0],
        )
        qs = np.linspace(-2.0, 2.0, 9)
        off_diag = _drift_force(model, qs, BranchPair(0, 1))
        assert np.allclose(off_diag, model.dpotential(qs), atol=1e-14)
        # while the diagonal pairs feel the full +-lam branch force
        diag0 = _drift_force(model, qs, BranchPair(0, 0))
        assert np.allclose(np.abs(diag0 - model.dpotential(qs)), 0.9, atol=1e-12)

    def test_linear_coupling_rate(self):
        # V_I = lam q sigma_z: constant damping 2 D0 lam^2 per unit time
        lam, d0 = 0.7, 1.2
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, lam],
            d2_coeffs=[0.25 / d0], d0_coeffs=[d0],
        )
        n_steps, dt = 50, 0.01
        path = first_path(model, 0.0, 0.0, n_steps, dt, pair=BranchPair(0, 1), seed=3)
        assert fv_action(path, model, BranchPair(0, 1)) == pytest.approx(
            n_steps * dt * 2.0 * d0 * lam**2, rel=1e-12
        )

    def test_monte_carlo_matches_grid_coherence_decay(self):
        # Feynman-Kac: E[exp(-fv)] over transport paths equals the decay of
        # the integrated (0,1) coherence from the grid evolution
        model = self.qubit_model(lam=1.5, d0=0.5, d2=0.5)
        t_final, dt = 0.4, 0.004
        n_steps = int(round(t_final / dt))
        n_paths = 20_000
        rng = np.random.default_rng(88)
        q0 = rng.normal(0.0, 0.5, size=n_paths)
        p0 = rng.normal(0.0, 0.5, size=n_paths)
        pair = BranchPair(0, 1)
        qs, ps = sample_path_ensemble(model, q0, p0, n_steps, dt, n_paths=n_paths, pair=pair, seed=99)
        # batch fv: Lindblad eigenvalues +-lam*q give (l0 - l1)^2 = 4 lam^2 q^2
        lam, d0 = 1.5, 0.5
        fv_batch = (dt * 0.5 * d0 * (2.0 * lam * qs[:, :-1]) ** 2).sum(axis=1)
        for i in range(0, n_paths, n_paths // 40):
            path = ClassicalPath(dt=dt, q=qs[i], p=ps[i])
            assert fv_action(path, model, pair) == pytest.approx(fv_batch[i], rel=1e-10)
        weights = np.exp(-fv_batch)

        grid = PhaseGrid((GridAxis("q", -4, 4, 121), GridAxis("p", -4, 4, 121)))
        rho_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5), rho_q=rho_plus)
        dtg = 0.4 * cfl_limit(model, grid)
        ng = int(round(t_final / dtg))
        final, diags = evolve(model, state, t_final / ng, ng, stride=ng)
        decay_grid = diags.coh_01[-1] / diags.coh_01[0]
        assert weights.mean() == pytest.approx(decay_grid, rel=0.05)


class TestBranchLabels:
    # V_I = 0.9 q sigma_z: a basis ordered by the caller's q values labelled
    # the two branches differently on either side of q = -1.56
    def linear_qubit_model(self):
        return polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0, 0.0, 0.5], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.9],
            d2_coeffs=[0.3], d0_coeffs=[1.0],
        )

    def test_labels_do_not_depend_on_probe_points(self):
        from cqsim.paths import _drift_force

        # the levels read at a q are the same whichever other q share the call
        model = self.linear_qubit_model()
        qs = np.linspace(-4.0, 4.0, 17)
        eigs = diagonalize_model(model).dv_eigs(qs)
        for probe in ([0], [3, 7], [16, 2, 9], slice(None, None, -1)):
            assert np.array_equal(diagonalize_model(model).dv_eigs(qs[probe]), eigs[probe])
        pair = BranchPair(0, 0)
        forces = [_drift_force(model, np.array([q]), pair)[0] for q in (-3.0, -1.0)]
        assert forces[0] - forces[1] == pytest.approx(-2.0, abs=1e-12)

    def test_pair_00_path_across_old_flip_point_keeps_duality(self):
        # the whole-path weight (one diagonalization over the path) equals
        # the product of per-step transition densities (one per step)
        model = self.linear_qubit_model()
        pair = BranchPair(0, 0)
        dt, n_steps = 0.01, 100
        path = first_path(model, -2.5, 2.5, n_steps, dt, pair=pair, seed=4)
        assert path.q[0] < -1.6 and path.q[-1] > -1.5
        weight_exp = -(om_action(path, model, pair) + anomalous_term(path, model))
        oracle = sum(
            em_step_logpdf(model, path.q[k], path.p[k], path.p[k + 1], dt, pair)
            for k in range(n_steps)
        )
        assert abs(weight_exp - n_steps * 0.5 * np.log(2.0 * np.pi * dt) - oracle) < 1e-10


class TestLevelsAreAuditedWhereRead:
    # a second channel, sigma_z, commutes with the first, so the model is
    # admitted; its profile is 0, but NaN for |q - 3| < 0.25, and paths from
    # q0 = 2.5 with p0 = 0.5 run into that bump
    base = qubit_decoherence_model(lam=0.6, d0=1.0)
    pair = BranchPair(0, 1)

    def bump_model(self):
        def bump(q):
            return np.where(np.abs(np.asarray(q, dtype=float) - 3.0) < 0.25, np.nan, 0.0)
        return dataclasses.replace(self.base, channels=self.base.channels + ((SIGMA_Z, bump),))

    def visited(self):
        # until a path enters the bump, the bump model's sampler draws the
        # base model's paths
        return sample_path_ensemble(self.base, 2.5, 0.5, 200, 0.01, n_paths=64, pair=self.pair, seed=1)

    @staticmethod
    def refusal(q):
        return "^" + re.escape(f"channel 1 profile(q={q:g}) must be finite, got nan") + "$"

    def test_sampler_refuses_at_the_first_visited_q_in_the_bump(self):
        qs, _ = self.visited()
        inside = np.abs(qs[:, :-1] - 3.0) < 0.25
        step = np.flatnonzero(inside.any(axis=0))[0]
        first = qs[np.flatnonzero(inside[:, step])[0], step]
        with pytest.raises(ModelValidationError, match=self.refusal(first)):
            sample_path_ensemble(self.bump_model(), 2.5, 0.5, 200, 0.01, n_paths=64,
                                 pair=self.pair, seed=1)

    def test_weights_refuse_a_path_through_the_bump(self):
        qs, ps = self.visited()
        inside = np.abs(qs[:, :-1] - 3.0) < 0.25
        row = np.flatnonzero(inside.any(axis=1))[0]
        path = ClassicalPath(dt=0.01, q=qs[row], p=ps[row])
        first = qs[row, np.flatnonzero(inside[row])[0]]
        for action in (om_action, fv_action, path_exponent):
            with pytest.raises(ModelValidationError, match=self.refusal(first)):
                action(path, self.bump_model(), self.pair)

    def test_the_gate_refuses_the_bump(self):
        # a sample_paths scenario without a grid is audited at 41 points of
        # [-5, 5], of which q = 3 is in the bump
        scenario = parse_scenario_file(str(SCENARIO_DIR / "sample_paths_qdep.yaml"))
        scenario = dataclasses.replace(scenario, model=self.bump_model())
        with pytest.raises(ModelValidationError, match=self.refusal(3.0)):
            runner.check_scenario(scenario)


class TestPathExponent:
    @pytest.mark.parametrize("pair", [None, BranchPair(0, 1)])
    def test_is_the_sum_of_the_three_weights_bitwise(self, pair):
        model = qubit_decoherence_model(lam=0.6, d0=1.0, d2=0.4)
        qs, ps = sample_path_ensemble(model, 0.1, -0.2, 50, 0.01, n_paths=7, pair=pair, seed=3)
        for path in (ClassicalPath(dt=0.01, q=qs, p=ps), ClassicalPath(dt=0.01, q=qs[2], p=ps[2])):
            want = om_action(path, model, pair) + anomalous_term(path, model)
            if pair is not None:
                want += fv_action(path, model, pair)
            got = path_exponent(path, model, pair)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_a_sample_paths_run_reads_the_levels_once_per_block(self, monkeypatch, tmp_path):
        text = (SCENARIO_DIR / "sample_paths_qdep.yaml").read_text()
        # three scored blocks of 655, 655 and 190 paths of 100 steps
        path = tmp_path / "three_blocks.yaml"
        path.write_text(text.replace("n_paths: 300", "n_paths: 1500"))
        shapes = []
        build = paths.diagonalize_model

        def spy(model):
            diag = build(model)

            def dv_eigs(qs):
                shapes.append(np.shape(qs))
                return diag.dv_eigs(qs)

            return dataclasses.replace(diag, dv_eigs=dv_eigs)

        monkeypatch.setattr(paths, "diagonalize_model", spy)
        out = tmp_path / "out"
        out.mkdir()
        runner.run_scenario(parse_scenario_file(str(path)), out)
        # the sampler reads one step of every path at a time, the scorer
        # one block of pre-points
        assert shapes == [(1500,)] * 100 + [(655, 100), (655, 100), (190, 100)]


class TestConfigAction:
    def test_euler_lagrange_solution_vanishes(self):
        model = harmonic_model(d2_coeffs=(0.4,), spring=0.8)
        dt = 0.01
        # discrete EL solution: m(q_{k+1} - 2q_k + q_{k-1})/dt^2 = -V'(q_k)
        q = [0.4, 0.4]
        for _ in range(60):
            q.append(2 * q[-1] - q[-2] - model.dpotential(q[-1]) * dt * dt / model.mass)
        assert config_action(ClassicalPath(dt=dt, q=np.array(q)), model) < 1e-22

    def test_displaced_interior_point(self):
        # hand-evaluated: the 3-point stencil spreads eps into second
        # differences (1, -2, 1)/dt^2, squared contributions 1 + 4 + 1
        model = free_diffusion_model(d2=0.4)
        dt, eps = 0.01, 1e-3
        q = np.zeros(21)
        q[10] = eps
        expected = 3.0 * model.mass**2 * eps**2 / (0.4 * dt**3)
        assert config_action(ClassicalPath(dt=dt, q=q), model) == pytest.approx(expected, rel=1e-12)

    def test_rejects_phase_space_path(self):
        model = harmonic_model()
        path = first_path(model, 0.0, 0.0, 10, 0.01, seed=0)
        with pytest.raises(ValueError, match="q-only"):
            config_action(path, model)

    def test_matches_om_action_to_first_order_in_dt(self):
        model = harmonic_model(d2_coeffs=(0.5,), spring=0.3)
        gaps = []
        dts = [1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            n = int(round(1.0 / dt))
            ts = np.arange(n + 2) * dt
            q_full = np.cos(1.3 * ts) + 0.2 * ts  # smooth non-solution path
            p = model.mass * (q_full[1:] - q_full[:-1]) / dt
            q = q_full[:-1]
            om = om_action(ClassicalPath(dt=dt, q=q, p=p), model)
            cfg = config_action(ClassicalPath(dt=dt, q=q), model)
            gaps.append(abs(cfg - om))
        slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)


class TestSaturatedFactorization:
    def test_cross_term_assembly_factorizes(self):
        # at saturation D0 = 1/(4 D2) the pair weight exponent splits into
        # single-branch terms sum dt (r + l_a)^2 / (4 D2)
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0, 0.0, 0.3], h_q=np.diag([0.2, -0.1]),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.5],
            d2_coeffs=[0.5], d0_coeffs=[0.5],
        )
        from cqsim.paths import _branch_levels

        dt = 0.01
        pair = BranchPair(0, 1)
        path = first_path(model, 0.1, 0.0, 60, dt, pair=pair, seed=9)
        total = om_action(path, model, pair) + fv_action(path, model, pair)
        q_pre = path.q[:-1]
        residual = (path.p[1:] - path.p[:-1]) / dt + model.dpotential(q_pre)
        la, lb = _branch_levels(model, q_pre, pair)
        d2 = model.d2(q_pre)
        g = lambda lev: np.sum(dt * (residual + lev) ** 2 / (4.0 * d2))
        assert total == pytest.approx(g(la) + g(lb), rel=1e-12)

    def test_factorization_fails_off_saturation(self):
        model = polynomial_cq_model(
            mass=1.0, potential_coeffs=[0.0, 0.0, 0.3], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.5],
            d2_coeffs=[0.5], d0_coeffs=[2.0],  # over-damped: not saturated
        )
        from cqsim.paths import _branch_levels

        dt = 0.01
        pair = BranchPair(0, 1)
        path = first_path(model, 0.1, 0.0, 60, dt, pair=pair, seed=9)
        total = om_action(path, model, pair) + fv_action(path, model, pair)
        q_pre = path.q[:-1]
        residual = (path.p[1:] - path.p[:-1]) / dt + model.dpotential(q_pre)
        la, lb = _branch_levels(model, q_pre, pair)
        d2 = model.d2(q_pre)
        g = lambda lev: np.sum(dt * (residual + lev) ** 2 / (4.0 * d2))
        assert abs(total - (g(la) + g(lb))) > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_fv_nonnegative(seed):
    model = polynomial_cq_model(
        mass=1.0, potential_coeffs=[0.0], h_q=np.zeros((2, 2)),
        v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.0, 0.4],
        d2_coeffs=[0.6], d0_coeffs=[0.5],
    )
    pair = BranchPair(0, 1)
    path = first_path(model, 0.2, 0.0, 30, 0.01, pair=pair, seed=seed)
    assert fv_action(path, model, pair) >= 0.0


class TestPathBatches:
    # a qubit with a nonlinear coupling profile and q-dependent D2, D0, so
    # every term of every exponent varies along the path
    def model(self):
        return polynomial_cq_model(
            mass=1.3, potential_coeffs=[0.0, 0.1, 0.4], h_q=np.zeros((2, 2)),
            v_i_matrix=SIGMA_Z, v_i_profile=[0.0, 0.7, 0.2],
            d2_coeffs=[0.6, 0.05], d0_coeffs=[0.8, 0.0, 0.1],
        )

    def batch(self, n_paths=9, n_steps=30):
        model = self.model()
        pair = BranchPair(0, 1)
        q0 = np.linspace(-0.5, 0.5, n_paths)
        qs, ps = sample_path_ensemble(model, q0, 0.2, n_steps, 0.01, n_paths=n_paths, pair=pair, seed=5)
        return model, pair, qs, ps

    def test_batched_exponents_equal_per_row_calls_bitwise(self):
        model, pair, qs, ps = self.batch()
        batch = ClassicalPath(dt=0.01, q=qs, p=ps)
        assert batch.n_steps == 30
        om = om_action(batch, model, pair)
        an = anomalous_term(batch, model)
        fv = fv_action(batch, model, pair)
        cfg = config_action(ClassicalPath(dt=0.01, q=qs), model, pair)
        for values in (om, an, fv, cfg):
            assert values.shape == (qs.shape[0],)
        for i in range(qs.shape[0]):
            path = ClassicalPath(dt=0.01, q=qs[i], p=ps[i])
            assert om[i] == om_action(path, model, pair)
            assert an[i] == anomalous_term(path, model)
            assert fv[i] == fv_action(path, model, pair)
            assert cfg[i] == config_action(ClassicalPath(dt=0.01, q=qs[i]), model, pair)
            assert isinstance(om_action(path, model, pair), float)

    def test_config_action_needs_three_samples_per_row(self):
        model = free_diffusion_model()
        with pytest.raises(ValueError, match="at least 3 samples per path"):
            config_action(ClassicalPath(dt=0.01, q=np.zeros((2, 2))), model)

    def test_one_bad_step_rejects_the_batch_and_names_it(self):
        model, pair, qs, ps = self.batch()
        qs = qs.copy()
        qs[4, 7] += 1e-6  # breaks the steps into and out of sample 7 of path 4
        batch = ClassicalPath(dt=0.01, q=qs, p=ps)
        with pytest.raises(PathRejectedError, match="at step 6 of path 4") as err:
            om_action(batch, model, pair)
        assert err.value.index == 6

    def test_nonpositive_diffusion_in_a_batch_names_the_step(self):
        _, _, qs, ps = self.batch()
        # D2(q) = 0.6 - q crosses zero where path 2 first reaches q = 0.6
        model = polynomial_cq_model(mass=1.3, potential_coeffs=[0.0], h_q=[[0.0]], d2_coeffs=[0.6, -1.0])
        qs = np.zeros_like(qs)
        qs[2, 11:] = 0.6
        with pytest.raises(PathRejectedError, match="D2\\(q\\) <= 0 at step 11 of path 2") as err:
            anomalous_term(ClassicalPath(dt=0.01, q=qs, p=ps), model)
        assert err.value.index == 11
        # a D2 that is not finite is refused, not carried into the sums
        nan_model = dataclasses.replace(
            model, d2=lambda q: np.where(np.asarray(q) > 0.3, np.nan, 1.0))
        with pytest.raises(PathRejectedError, match="D2\\(q\\) not finite at step 11 of path 2"):
            anomalous_term(ClassicalPath(dt=0.01, q=qs, p=ps), nan_model)

    def test_non_finite_dt_is_refused(self):
        with pytest.raises(ValueError, match=r"^dt must be a finite number > 0, got inf$"):
            ClassicalPath(dt=np.inf, q=np.zeros(4), p=np.zeros(4))

    def test_batch_shape_is_checked(self):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            ClassicalPath(dt=0.01, q=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="p must match"):
            ClassicalPath(dt=0.01, q=np.zeros((2, 4)), p=np.zeros(4))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"dt": 0.0}, r"^dt must be a finite number > 0, got 0.0$"),
        ({"dt": -0.01}, r"^dt must be a finite number > 0, got -0.01$"),
        ({"dt": np.nan}, r"^dt must be a finite number > 0, got nan$"),
        ({"n_steps": -1}, r"^n_steps must be an integer >= 0, got -1$"),
        ({"n_steps": 2.5}, r"^n_steps must be an integer >= 0, got 2.5$"),
        ({"n_paths": 0}, r"^n_paths must be an integer >= 1, got 0$"),
        ({"q0": np.nan}, r"^q0 and p0 must be finite, got nan and 0.0$"),
        ({"p0": [0.0, 0.0, np.inf, 0.0]}, r"^q0 and p0 must be finite, got 0.0 and \[0.0, 0.0, inf, 0.0\]$"),
    ],
    ids=["zero_dt", "negative_dt", "nan_dt", "negative_steps", "fractional_steps", "no_paths",
         "nan_q0", "inf_p0"],
)
def test_sample_path_ensemble_refuses_bad_inputs(kwargs, message):
    args = dict(q0=0.0, p0=0.0, n_steps=10, dt=0.01, n_paths=4)
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        sample_path_ensemble(free_diffusion_model(), args["q0"], args["p0"], args["n_steps"],
                             args["dt"], n_paths=args["n_paths"], seed=1)


@pytest.mark.parametrize("bad, what", [(np.nan, "not finite"), (np.inf, "not finite"), (-1.0, "<= 0")])
def test_sampler_refuses_a_visited_d2_that_is_not_finite_and_positive(bad, what):
    # D2 = bad above q = 0.25; at p0 = 10 every path first visits it at step 3 (q ~ 0.3)
    model = dataclasses.replace(
        free_diffusion_model(), d2=lambda q: np.where(np.asarray(q) > 0.25, bad, 0.5))
    message = rf"^D2\(q\) {what} at step 3 of path 0 \(q=0\.3"
    with pytest.raises(PathRejectedError, match=message) as err:
        sample_path_ensemble(model, 0.0, 10.0, 10, 0.01, n_paths=4, seed=1)
    assert err.value.index == 3
