import numpy as np
import pytest

from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import MeasurementModel, constant_measurement_model
from cqsim.state import classical_marginal, total_trace
from cqsim.unravel import (
    _CHUNK,
    _step_arrays,
    bin_ensemble,
    estimate_km_moments,
    run_ensemble,
    run_trajectory,
    trajectory_normals,
    trajectory_rng,
)

from conftest import PLUS, SIGMA_Z, overlap_rebin


def test_eigenstate_is_collapse_fixed_point():
    m = constant_measurement_model(SIGMA_Z, k=2.0)
    psi = np.array([[1.0, 0.0]], dtype=complex)
    psi2, z2, _ = _step_arrays(m, psi, np.array([0.3]), 1e-3, np.array([1.7]))
    assert np.abs(psi2 - psi).max() == 0.0
    # z' - z = z_v dt + dxi/sqrt(8k)
    assert z2[0] - 0.3 == pytest.approx(1.0 * 1e-3 + 1.7 * np.sqrt(1e-3) / np.sqrt(16.0))


def test_nonpositive_strength_aborts():
    m = MeasurementModel(
        z_op=lambda z: np.broadcast_to(SIGMA_Z, np.shape(z) + (2, 2)),
        k=lambda z: np.asarray(z, dtype=float),  # k(z) = z crosses zero
        hilbert_dim=2,
    )
    with pytest.raises(ValueError, match="k\\(z\\)"):
        _step_arrays(m, np.array([[1.0, 0.0]]), np.array([-0.5]), 1e-3, np.array([0.1]))


def test_trajectory_determinism_bitwise():
    m = constant_measurement_model(SIGMA_Z, 1.0)
    a = run_trajectory(m, PLUS, 0.0, 1e-3, 500, seed=123)
    b = run_trajectory(m, PLUS, 0.0, 1e-3, 500, seed=123)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.psi, b.psi)
    c = run_trajectory(m, PLUS, 0.0, 1e-3, 500, seed=124)
    assert not np.array_equal(a.z, c.z)


def test_trajectory_normalization():
    m = constant_measurement_model(SIGMA_Z, 5.0)
    traj = run_trajectory(m, PLUS, 0.0, 2e-4, 2000, seed=5)
    norms = np.linalg.norm(traj.psi, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_ensemble_matches_trajectory_streams():
    # ensemble row i consumes the (master_seed, i) stream; the vectorized
    # update may associate float sums differently than the scalar path, so
    # agreement is to rounding, while reruns of either path are bitwise
    m = constant_measurement_model(SIGMA_Z, 1.0)
    res = run_ensemble(m, PLUS, 0.0, 1e-3, 50, master_seed=9, n_trajectories=4)
    res2 = run_ensemble(m, PLUS, 0.0, 1e-3, 50, master_seed=9, n_trajectories=4)
    assert np.array_equal(res.z, res2.z) and np.array_equal(res.psi, res2.psi)
    for i in range(4):
        rng = trajectory_rng(9, i)
        xis = rng.standard_normal(50)
        psi, z = PLUS[None, :].astype(complex), np.zeros(1)
        for k in range(50):
            psi, z, _ = _step_arrays(m, psi, z, 1e-3, xis[k : k + 1])
        assert z[0] == pytest.approx(res.z[i], abs=1e-12)
        assert np.abs(psi[0] - res.psi[i]).max() < 1e-12


def test_eigenstate_signal_variance():
    k = 1.0
    m = constant_measurement_model(SIGMA_Z, k)
    psi0 = np.array([1.0, 0.0])
    t_final, dt = 0.2, 1e-3
    res = run_ensemble(m, psi0, 0.0, dt, int(t_final / dt), master_seed=1, n_trajectories=10_000)
    dev = res.z - 1.0 * t_final
    assert dev.mean() == pytest.approx(0.0, abs=3.0 * np.sqrt(t_final / (8 * k) / 10_000))
    assert dev.var() == pytest.approx(t_final / (8.0 * k), rel=0.05)


def test_born_rule_moderate_ensemble():
    theta = np.pi / 3
    psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    m = constant_measurement_model(SIGMA_Z, 25.0)
    res = run_ensemble(m, psi0, 0.0, 2e-4, 1200, master_seed=2, n_trajectories=2000)
    collapsed_up = (np.abs(res.psi[:, 0]) ** 2 > 0.5).mean()
    p = np.cos(theta / 2) ** 2
    assert abs(collapsed_up - p) < 3.0 * np.sqrt(p * (1 - p) / 2000)


def test_martingale_mean_expectation():
    # with H = 0 and constant k, the ensemble mean of <Z> is constant
    m = constant_measurement_model(SIGMA_Z, 4.0)
    psi0 = np.array([np.cos(0.4), np.sin(0.4)])
    res = run_ensemble(m, psi0, 0.0, 5e-4, 800, master_seed=3, n_trajectories=4000)
    z_exp = (np.abs(res.psi[:, 0]) ** 2 - np.abs(res.psi[:, 1]) ** 2).mean()
    initial = np.cos(0.4) ** 2 - np.sin(0.4) ** 2
    sigma = 1.0 / np.sqrt(4000)  # <Z> in [-1, 1], generous bound
    assert abs(z_exp - initial) < 3.0 * sigma


def test_norm_drift_is_order_dt():
    m = constant_measurement_model(SIGMA_Z, 2.0)
    psi0 = np.array([0.8, 0.6])
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = run_trajectory(m, psi0, 0.0, dt, int(0.2 / dt), seed=17)
        drifts.append(np.mean(traj.norm_defect))
    slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(drifts), 1)[0]
    assert 0.7 < slope < 1.3


class TestBinEnsemble:
    def grid(self):
        return PhaseGrid((GridAxis("z", -2.0, 2.0, 41),))

    def test_single_eigenstate_trajectory(self):
        m = constant_measurement_model(SIGMA_Z, 1.0)
        traj = run_trajectory(m, np.array([1.0, 0.0]), 0.0, 1e-3, 100, seed=6)
        state = bin_ensemble(traj.z[-1:], traj.psi[-1:], self.grid())
        dens = classical_marginal(state)
        assert (dens > 0).sum() == 1
        assert total_trace(state) == pytest.approx(1.0)
        occupied = state.cells[np.argmax(dens)]
        assert np.abs(occupied / occupied[0, 0] - np.array([[1, 0], [0, 0]])).max() < 1e-12

    def test_reconstructed_cells_are_rank_one(self):
        m = constant_measurement_model(SIGMA_Z, 3.0)
        traj = run_trajectory(m, PLUS, 0.0, 1e-3, 200, seed=8)
        state = bin_ensemble(traj.z[-1:], traj.psi[-1:], self.grid())
        for cell in state.cells:
            tr = np.trace(cell).real
            if tr > 0:
                purity = np.trace(cell @ cell).real / tr**2
                assert purity == pytest.approx(1.0, abs=1e-12)

    def test_ensemble_average_linearity(self):
        m = constant_measurement_model(SIGMA_Z, 1.0)
        res = run_ensemble(m, PLUS, 0.0, 1e-3, 100, master_seed=4, n_trajectories=60)
        grid = self.grid()
        full = bin_ensemble(res.z, res.psi, grid)
        first = bin_ensemble(res.z[:20], res.psi[:20], grid)
        rest = bin_ensemble(res.z[20:], res.psi[20:], grid)
        recombined = (20 * first.cells + 40 * rest.cells) / 60.0
        assert np.abs(recombined - full.cells).max() < 1e-15

    def test_outside_fraction_aborts(self):
        grid = PhaseGrid((GridAxis("z", -0.01, 0.01, 3),))
        z = np.array([0.0, 5.0, 6.0, 7.0])
        psi = np.tile(PLUS, (4, 1)).astype(complex)
        with pytest.raises(ValueError, match="outside"):
            bin_ensemble(z, psi, grid)

    def test_lengths_must_match(self):
        psi = np.tile(PLUS, (3, 1)).astype(complex)
        with pytest.raises(ValueError, match="psi has 3 rows but z has 2"):
            bin_ensemble(np.zeros(2), psi, self.grid())
        with pytest.raises(ValueError, match="weights has 2 entries but z has 3"):
            bin_ensemble(np.zeros(3), psi, self.grid(), weights=np.ones(2))

    def test_empty_ensemble_refused(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            bin_ensemble(np.zeros(0), np.zeros((0, 2), dtype=complex), self.grid())

    def test_zero_total_weight_refused(self):
        psi = np.tile(PLUS, (3, 1)).astype(complex)
        with pytest.raises(ValueError, match="weight must be positive"):
            bin_ensemble(np.zeros(3), psi, self.grid(), weights=np.zeros(3))

    def test_z_width_must_match_grid(self):
        qp = PhaseGrid((GridAxis("q", -1.0, 1.0, 5), GridAxis("p", -1.0, 1.0, 5)))
        for z, grid in ((np.zeros((4, 2)), self.grid()), (np.zeros((4, 1, 1)), self.grid()),
                        (np.zeros(4), qp)):
            with pytest.raises(ValueError, match=f"does not fit a {grid.ndim}-axis grid"):
                bin_ensemble(z, None, grid)


class TestCrossValidation:
    """Ensemble averages against the grid master equation, beyond densities."""

    def test_quantum_marginal_matches_grid(self):
        from cqsim.generator import evolve_measurement, measurement_cfl_limit
        from cqsim.state import gaussian_product_state, quantum_marginal

        m = constant_measurement_model(SIGMA_Z, 1.0)
        t_final, dt, sig = 0.3, 5e-4, 0.25
        res = run_ensemble(
            m, PLUS, 0.0, dt, int(t_final / dt), master_seed=42, n_trajectories=10_000,
            z0_sigma=sig,
        )
        rho_ens = np.einsum("ni,nj->ij", res.psi, res.psi.conj()) / res.psi.shape[0]
        grid = PhaseGrid((GridAxis("z", -2, 2, 161),))
        s0 = gaussian_product_state(grid, (0.0,), (sig,), rho_q=np.outer(PLUS, PLUS))
        dtg = 0.4 * measurement_cfl_limit(m, grid)
        ng = int(round(t_final / dtg))
        ref, _ = evolve_measurement(m, s0, t_final, t_final / ng, stride=ng)
        rho_grid = quantum_marginal(ref)
        assert np.abs(rho_ens - rho_grid).max() < 0.01
        # and the coherence sits on the analytic dephasing curve e^{-4kT}
        assert rho_grid[0, 1].real == pytest.approx(0.5 * np.exp(-4.0 * t_final), rel=1e-3)

    def test_feedback_strength_cross_validates(self):
        # k(z) = 1 + 0.3 z exercises the z-dependent D2(z) = 1/(8k(z))
        # inside the conservative second derivative; the SDE ensemble and the
        # grid solution are each other's only oracle here
        from cqsim.generator import evolve_measurement, measurement_cfl_limit
        from cqsim.state import classical_marginal as cm
        from cqsim.state import gaussian_product_state, quantum_marginal

        m = constant_measurement_model(SIGMA_Z, 1.0, k_slope=0.3)
        t_final, dt, sig = 0.3, 5e-4, 0.25
        res = run_ensemble(
            m, PLUS, 0.0, dt, int(t_final / dt), master_seed=43, n_trajectories=8_000,
            z0_sigma=sig,
        )
        fine = PhaseGrid((GridAxis("z", -2, 2, 201),))
        s0 = gaussian_product_state(fine, (0.0,), (sig,), rho_q=np.outer(PLUS, PLUS))
        dtg = 0.35 * measurement_cfl_limit(m, fine)
        ng = int(round(t_final / dtg))
        ref, _ = evolve_measurement(m, s0, t_final, t_final / ng, stride=ng)
        coarse = PhaseGrid((GridAxis("z", -2, 2, 41),))
        dens_ref = overlap_rebin(cm(ref), fine, coarse)
        binned = bin_ensemble(res.z, res.psi, coarse)
        l1 = np.abs(cm(binned) - dens_ref).sum() * coarse.cell_volume
        assert l1 < 0.05
        rho_ens = np.einsum("ni,nj->ij", res.psi, res.psi.conj()) / res.psi.shape[0]
        assert np.abs(rho_ens - quantum_marginal(ref)).max() < 0.01


class TestKramersMoyal:
    def test_eigenstate_drift_and_diffusion(self):
        k = 1.0
        m = constant_measurement_model(SIGMA_Z, k)
        traj = run_trajectory(m, np.array([1.0, 0.0]), 0.0, 1e-3, 100_000, seed=11)
        centers, d1, d2, counts = estimate_km_moments(traj.z, 1e-3, n_bins=12)
        good = counts > 3000
        assert np.nanmean(d1[good]) == pytest.approx(1.0, abs=0.05)
        assert np.nanmean(d2[good]) == pytest.approx(1.0 / (8.0 * k), rel=0.05)

    def test_doubling_k_halves_diffusion(self):
        res = {}
        for k in (1.0, 2.0):
            m = constant_measurement_model(SIGMA_Z, k)
            traj = run_trajectory(m, np.array([1.0, 0.0]), 0.0, 1e-3, 50_000, seed=12)
            _, _, d2, counts = estimate_km_moments(traj.z, 1e-3, n_bins=10)
            res[k] = np.nanmean(d2[counts > 2000])
        assert res[2.0] / res[1.0] == pytest.approx(0.5, rel=0.1)

    def test_zero_measurement_control(self):
        # Z = c * identity: pure drift at c, no state change at all
        c, k, dt = 0.7, 1.5, 1e-3
        m = constant_measurement_model(c * np.eye(2), k=k)
        res = run_ensemble(
            m, PLUS, 0.0, dt, 10_000, master_seed=13, n_trajectories=20, signal_stride=1
        )
        assert np.abs(res.psi - PLUS).max() < 1e-12  # no decoherence, purity 1
        _, d1, _, counts = estimate_km_moments(res.z_series, dt, n_bins=8)
        pooled = np.nansum(d1 * counts) / counts.sum()
        sigma = 1.0 / np.sqrt(8.0 * k * dt * counts.sum())
        assert pooled == pytest.approx(c, abs=3.0 * sigma)


@pytest.mark.parametrize("start", [0, 5, 2**63 + 7])
def test_trajectory_normals_replay_per_index_streams(start):
    xis = trajectory_normals(31, start, 6, 17)
    assert xis.shape == (6, 17)
    for i, row in enumerate(xis):
        assert np.array_equal(row, trajectory_rng(31, start + i).standard_normal(17))
        # the z0_sigma layout: column 0 is the initial-signal draw, then the steps
        rng = trajectory_rng(31, start + i)
        assert np.array_equal(row[:1], [rng.standard_normal()])
        assert np.array_equal(row[1:], rng.standard_normal(16))


@pytest.mark.parametrize("z0_sigma", [0.0, 0.3])
def test_ensemble_first_is_row_zero_of_a_long_ensemble(z0_sigma):
    # more rows than one chunk, with a z-dependent strength and a Hamiltonian
    m = constant_measurement_model(SIGMA_Z, 1.0, h=0.5 * np.array([[0, 1], [1, 0]]), k_slope=0.2)
    n_steps, dt = 40, 1e-3
    res = run_ensemble(m, PLUS, 0.1, dt, n_steps, master_seed=21, n_trajectories=_CHUNK + 3,
                       signal_stride=1, z0_sigma=z0_sigma)
    first = res.first
    assert np.array_equal(first.times, np.arange(n_steps + 1) * dt)
    assert np.array_equal(first.z, res.z_series[0])
    assert first.z[-1] == res.z[0] and np.array_equal(first.psi[-1], res.psi[0])
    # bit for bit the single-row steps on the (master_seed, 0) stream
    rng = trajectory_rng(21, 0)
    z = np.array([0.1 + (z0_sigma * rng.standard_normal() if z0_sigma > 0.0 else 0.0)])
    xis = rng.standard_normal(n_steps)
    psi = (PLUS / np.linalg.norm(PLUS) + 0j)[None, :]
    assert first.z[0] == z[0] and np.array_equal(first.psi[0], psi[0])
    for k in range(n_steps):
        psi, z, _ = _step_arrays(m, psi, z, dt, xis[k : k + 1])
        assert first.z[k + 1] == z[0] and np.array_equal(first.psi[k + 1], psi[0])
    assert first.norm_defect.shape == (n_steps,) and np.all(first.norm_defect < 10 * dt)
    single = run_trajectory(m, PLUS, 0.1, dt, n_steps, seed=21, z0_sigma=z0_sigma)
    assert np.array_equal(single.z, first.z) and np.array_equal(single.psi, first.psi)
    assert np.array_equal(single.norm_defect, first.norm_defect)
