import dataclasses
import inspect
import os
import re
import signal

import numpy as np
import pytest

from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import MeasurementModel, constant_measurement_model
from cqsim.pool import ChildDied, _map_chunks, _workers
from cqsim.state import classical_marginal, total_trace
from cqsim.unravel import (
    _CHUNK,
    EnsembleResult,
    _step_arrays,
    bin_ensemble,
    estimate_km_moments,
    outside_frac,
    run_ensemble,
    run_trajectory,
    trajectory_normals,
    trajectory_rng,
)

from conftest import (
    PLUS,
    SIGMA_X,
    SIGMA_Z,
    in_child,
    no_child_left,
    on_one_cpu,
    overlap_rebin,
)


def test_eigenstate_is_collapse_fixed_point():
    m = constant_measurement_model(SIGMA_Z, k=2.0)
    psi = np.array([[1.0], [0.0]], dtype=complex)  # (d, n): one trajectory
    psi2, z2, _ = _step_arrays(m, psi, np.array([0.3]), 1e-3, np.array([1.7]))
    assert np.abs(psi2 - psi).max() == 0.0
    # z' - z = z_v dt + dxi/sqrt(8k)
    assert z2[0] - 0.3 == pytest.approx(1.0 * 1e-3 + 1.7 * np.sqrt(1e-3) / np.sqrt(16.0))


def test_constant_z_op_is_a_read_only_view():
    zs = np.linspace(-1.0, 1.0, 7)
    z_op = constant_measurement_model(SIGMA_Z, 1.0).z_op(zs)
    assert z_op.shape == (7, 2, 2) and not z_op.flags.writeable
    assert np.array_equal(z_op, np.broadcast_to(SIGMA_Z, (7, 2, 2)))
    # with feedback the operator is Z0 + z Z1, one fresh array
    fed = constant_measurement_model(SIGMA_Z, 1.0, z_feedback=SIGMA_X).z_op(zs)
    assert np.array_equal(fed, SIGMA_Z + zs[:, None, None] * SIGMA_X)


def test_nonpositive_strength_aborts():
    m = MeasurementModel(
        channels=((SIGMA_Z, lambda z: 1.0),),
        k=lambda z: np.asarray(z, dtype=float),  # k(z) = z crosses zero
    )
    with pytest.raises(ValueError, match="k\\(z\\)"):
        _step_arrays(m, np.array([[1.0], [0.0]]), np.array([-0.5]), 1e-3, np.array([0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_strength_is_refused_not_propagated(bad):
    # k = bad above z = 0.05: a NaN row would pass unnoticed (max_norm_defect
    # drops NaN), and binning it would blame the grid
    m = MeasurementModel(
        channels=((SIGMA_Z, lambda z: 1.0),),
        k=lambda z: np.where(np.asarray(z) > 0.05, bad, 1.0),
    )
    psi = np.tile(PLUS[:, None] + 0j, 3)
    message = r"^measurement strength k\(z\) not finite at visited z=0\.1$"
    with pytest.raises(ValueError, match=message):
        _step_arrays(m, psi, np.array([0.0, 0.1, 0.2]), 1e-3, np.zeros(3))
    with pytest.raises(ValueError, match=r"^measurement strength k\(z\) not finite at visited z="):
        run_ensemble(m, PLUS, 0.0, 1e-3, 50, master_seed=3, n_trajectories=50)


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
        psi, z = PLUS[:, None].astype(complex), np.zeros(1)
        for k in range(50):
            psi, z, _ = _step_arrays(m, psi, z, 1e-3, xis[k : k + 1])
        assert z[0] == pytest.approx(res.z[i], abs=1e-12)
        assert np.abs(psi[:, 0] - res.psi[i]).max() < 1e-12


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


def grid_marginal(state):
    """The quantum marginal of a one-axis grid state: its cells summed, times the cell volume."""
    rho = state.cells.sum(axis=0) * state.cell_volume
    return 0.5 * (rho + rho.conj().T)


class TestCrossValidation:
    """Ensemble averages against the grid master equation, beyond densities."""

    def test_quantum_marginal_matches_grid(self):
        from cqsim.generator import evolve_measurement, measurement_cfl_limit
        from cqsim.state import gaussian_product_state

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
        ref, _ = evolve_measurement(m, s0, t_final / ng, ng, stride=ng)
        rho_grid = grid_marginal(ref)
        assert np.abs(rho_ens - rho_grid).max() < 0.01
        # and the coherence sits on the analytic dephasing curve e^{-4kT}
        assert rho_grid[0, 1].real == pytest.approx(0.5 * np.exp(-4.0 * t_final), rel=1e-3)

    def test_feedback_strength_cross_validates(self):
        # k(z) = 1 + 0.3 z exercises the z-dependent D2(z) = 1/(8k(z))
        # inside the conservative second derivative; the SDE ensemble and the
        # grid solution are each other's only oracle here
        from cqsim.generator import evolve_measurement, measurement_cfl_limit
        from cqsim.state import classical_marginal as cm
        from cqsim.state import gaussian_product_state

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
        ref, _ = evolve_measurement(m, s0, t_final / ng, ng, stride=ng)
        coarse = PhaseGrid((GridAxis("z", -2, 2, 41),))
        dens_ref = overlap_rebin(cm(ref), fine, coarse)
        binned = bin_ensemble(res.z, res.psi, coarse)
        l1 = np.abs(cm(binned) - dens_ref).sum() * coarse.cell_volume
        assert l1 < 0.05
        rho_ens = np.einsum("ni,nj->ij", res.psi, res.psi.conj()) / res.psi.shape[0]
        assert np.abs(rho_ens - grid_marginal(ref)).max() < 0.01


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
        c, k, dt, n_steps, n = 0.7, 1.5, 1e-3, 100, 2000
        m = constant_measurement_model(c * np.eye(2), k=k)
        res = run_ensemble(m, PLUS, 0.0, dt, n_steps, master_seed=13, n_trajectories=n)
        assert np.abs(res.psi - PLUS).max() < 1e-12  # no decoherence, purity 1
        # the drift from the final signals, mean(z_T - z0) / T: over a total
        # time n T = 200 its standard error is 1 / sqrt(8 k n T)
        t = n_steps * dt
        sigma = 1.0 / np.sqrt(8.0 * k * n * t)
        assert res.z.mean() / t == pytest.approx(c, abs=3.0 * sigma)

    @pytest.mark.parametrize("offset", [0.0, 1e5, -1e5, 1e9])
    def test_default_range_counts_the_largest_start(self, offset):
        # the maximum must fall in the last bin wherever the signal sits; for
        # an O(1) signal the range still ends 1e-12 above it
        z = offset + np.array([0.0, -1.0, 2.0, 1.0, 3.0])
        centers, _, _, counts = estimate_km_moments(z, 1.0, n_bins=3)
        assert counts.sum() == 4 and counts[-1] > 0
        if offset == 0.0:
            edges = np.linspace(-1.0, 2.0 + 1e-12, 4)
            assert np.array_equal(centers, 0.5 * (edges[1:] + edges[:-1]))


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
                       z0_sigma=z0_sigma)
    first = res.first
    assert np.array_equal(first.times, np.arange(n_steps + 1) * dt)
    assert first.z[-1] == res.z[0] and np.array_equal(first.psi[-1], res.psi[0])
    # bit for bit the single-row steps on the (master_seed, 0) stream
    rng = trajectory_rng(21, 0)
    z = np.array([0.1 + (z0_sigma * rng.standard_normal() if z0_sigma > 0.0 else 0.0)])
    xis = rng.standard_normal(n_steps)
    psi = (PLUS / np.linalg.norm(PLUS) + 0j)[:, None]
    assert first.z[0] == z[0] and np.array_equal(first.psi[0], psi[:, 0])
    for k in range(n_steps):
        psi, z, _ = _step_arrays(m, psi, z, dt, xis[k : k + 1])
        assert first.z[k + 1] == z[0] and np.array_equal(first.psi[k + 1], psi[:, 0])
    assert first.norm_defect.shape == (n_steps,) and np.all(first.norm_defect < 10 * dt)
    single = run_trajectory(m, PLUS, 0.1, dt, n_steps, seed=21, z0_sigma=z0_sigma)
    assert np.array_equal(single.z, first.z) and np.array_equal(single.psi, first.psi)
    assert np.array_equal(single.norm_defect, first.norm_defect)


# -- byte-level oracle: the row-major step the component-major one replaced ---


def _frozen_row_major_step(m, psi, z, dt, xi):
    """The Euler-Maruyama step on (n, d) rows, kept verbatim as the oracle."""
    k = np.asarray(m.k(z), dtype=float)
    z_op = np.asarray(m.z_op(z), dtype=complex)
    d_xi = xi * np.sqrt(dt)

    z_psi = np.einsum("nij,nj->ni", z_op, psi)
    exp_z = np.einsum("ni,ni->n", psi.conj(), z_psi).real
    a_psi = z_psi - exp_z[:, None] * psi
    a2_psi = np.einsum("nij,nj->ni", z_op, a_psi) - exp_z[:, None] * a_psi

    delta = (-k * dt)[:, None] * a2_psi + (np.sqrt(2.0 * k) * d_xi)[:, None] * a_psi
    if m.h is not None and np.abs(m.h).max() > 0.0:
        delta = delta + (-1j / m.hbar) * dt * np.einsum("ij,nj->ni", m.h, psi)
    psi_raw = psi + delta
    norms = np.sqrt(np.einsum("ni,ni->n", psi_raw.conj(), psi_raw).real)
    psi_new = psi_raw / norms[:, None]
    z_new = z + exp_z * dt + d_xi / np.sqrt(8.0 * k)
    return psi_new, z_new, norms


def _frozen_histories(m, psi0, z0, dt, n_steps, seed, n, z0_sigma=0.0):
    """Every row's (z, psi) at every step and its norm defects, by the frozen step."""
    xis = trajectory_normals(seed, 0, n, n_steps + (z0_sigma > 0.0))
    z = np.full(n, float(z0))
    if z0_sigma > 0.0:
        z += z0_sigma * xis[:, 0]
        xis = xis[:, 1:]
    psi0 = np.asarray(psi0, dtype=complex)
    psi = np.tile(psi0 / np.linalg.norm(psi0), (n, 1))
    zs, psis, defects = [z], [psi], []
    for step in range(n_steps):
        psi, z, norms = _frozen_row_major_step(m, psi, z, dt, xis[:, step])
        zs.append(z)
        psis.append(psi)
        defects.append(np.abs(norms - 1.0))
    return np.array(zs), np.array(psis), np.array(defects)


def _same_bits(a, b):
    # tobytes, not array_equal: a signed zero must match too
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_Z3 = np.diag([1.0, 0.0, -1.0])
# dense, so that each component of Z psi sums three nonzero products
_F3 = np.array([[0.2, 0.4j, 0.3 - 0.1j], [-0.4j, -0.1, 0.5], [0.3 + 0.1j, 0.5, 0.2]])
_H3 = np.array([[0.3, 0.1 - 0.2j, 0.0], [0.1 + 0.2j, 0.0, 1j], [0.0, -1j, -0.4]])


@pytest.mark.parametrize(
    "m, psi0, n, n_steps, z0_sigma",
    [
        (constant_measurement_model(_Z3, 1.2, h=_H3, z_feedback=_F3, k_slope=0.1),
         np.array([0.6, 0.3j, -0.5 + 0.2j]), 9, 40, 0.0),
        (constant_measurement_model(SIGMA_Z, 1.0), np.array([1.0, 0.0]), 9, 40, 0.0),
        (constant_measurement_model(_Z3, 0.7, h=np.zeros((3, 3))), np.array([0.0, -1j, 0.0]),
         9, 40, 0.0),
        (constant_measurement_model(SIGMA_Z, 1.0, h=0.5 * np.array([[0, 1], [1, 0]]), k_slope=0.2),
         np.array([0.8, 0.6]), 2 * _CHUNK + 5, 20, 0.3),
    ],
    ids=["d3_complex_feedback", "eigenstate", "d3_eigenstate", "three_chunks"],
)
def test_ensemble_matches_frozen_row_major_step_bitwise(m, psi0, n, n_steps, z0_sigma):
    dt = 1e-3
    res = run_ensemble(m, psi0, 0.1, dt, n_steps, master_seed=77, n_trajectories=n,
                       z0_sigma=z0_sigma)
    zs, psis, defects = _frozen_histories(m, psi0, 0.1, dt, n_steps, 77, n, z0_sigma)
    assert _same_bits(res.z, zs[-1]) and _same_bits(res.psi, psis[-1])
    first = res.first
    assert _same_bits(first.times, np.arange(n_steps + 1) * dt)
    assert _same_bits(first.z, zs[:, 0]) and _same_bits(first.psi, psis[:, 0])
    assert _same_bits(first.norm_defect, defects[:, 0])
    assert res.max_norm_defect == defects.max()


def test_ensemble_result_holds_what_a_run_reads():
    # the final (signal, state) pairs, row 0's history and the worst norm defect
    fields = [f.name for f in dataclasses.fields(EnsembleResult)]
    assert fields == ["z", "psi", "first", "max_norm_defect"]
    assert "signal_stride" not in inspect.signature(run_ensemble).parameters


# -- chunks in forked workers: the same bits as one process --------------------


def _assert_same_ensemble(a, b):
    assert _same_bits(a.z, b.z) and _same_bits(a.psi, b.psi)
    assert _same_bits(a.first.z, b.first.z) and _same_bits(a.first.psi, b.first.psi)
    assert _same_bits(a.first.norm_defect, b.first.norm_defect)
    assert a.max_norm_defect == b.max_norm_defect


_POOL_CASE = dict(
    m=constant_measurement_model(SIGMA_Z, 1.0, h=0.5 * SIGMA_X, k_slope=0.2),
    psi0=np.array([0.8, 0.6]), z0=0.1, dt=1e-3, n_steps=20, master_seed=77,
    n_trajectories=2 * _CHUNK + 5, z0_sigma=0.3,
)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_pooled_ensemble_matches_one_cpu_run_bitwise():
    pooled = run_ensemble(**_POOL_CASE)  # three chunks over at least two workers
    one_cpu = on_one_cpu(lambda: run_ensemble(**_POOL_CASE))
    _assert_same_ensemble(pooled, one_cpu)


def test_daemonic_caller_integrates_in_process():
    # a daemonic process may not have children: the pool would refuse to start
    in_daemon = in_child(lambda: run_ensemble(**_POOL_CASE), daemon=True)
    _assert_same_ensemble(in_daemon, run_ensemble(**_POOL_CASE))


def _pid_of(i):
    return i, os.getpid()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_worker_w_takes_every_w_th_chunk_in_order():
    workers = _workers(5)
    results = list(_map_chunks(_pid_of, [(i,) for i in range(5)]))
    assert [i for i, _ in results] == list(range(5))
    pids = [pid for _, pid in results]
    assert len(set(pids)) == workers and os.getpid() not in pids
    assert all(pids[i] == pids[i % workers] for i in range(5))
    assert no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_a_killed_worker_is_named():
    def job(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    results = _map_chunks(job, [(i,) for i in range(4)])
    assert next(results) == 0
    with pytest.raises(ChildDied, match=r"^forked child \d+ was killed by signal 9 \(SIGKILL\) "
                                        r"before sending a result$"):
        next(results)
    assert no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_an_unpicklable_result_is_named():
    results = _map_chunks(lambda i: lambda: i, [(i,) for i in range(2)])
    with pytest.raises(RuntimeError, match="^a forked job's result could not be pickled: "):
        next(results)
    assert no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_a_closed_map_reaps_its_workers():
    results = _map_chunks(_pid_of, [(i,) for i in range(6)])
    assert next(results)[0] == 0
    results.close()
    assert no_child_left()


def test_first_failing_chunk_raises_its_error():
    # k(z) <= 0 only at two initial signals, one in chunk 1 and one in chunk 2:
    # both chunks fail at their first step, and chunk 1's error is the one raised
    n, seed = 3 * _CHUNK, 5
    z_init = 0.0 + 1.0 * trajectory_normals(seed, 0, n, 3)[:, 0]
    bad = z_init[[_CHUNK + 17, 2 * _CHUNK + 3]]
    assert not np.isin(z_init[:_CHUNK], bad).any() and f"{bad[0]:g}" != f"{bad[1]:g}"
    m = MeasurementModel(
        channels=((SIGMA_Z, lambda z: 1.0),),
        k=lambda z: np.where(np.isin(z, bad), -1.0, 1.0),
    )

    def run():
        return run_ensemble(m, PLUS, 0.0, 1e-3, 2, master_seed=seed, n_trajectories=n,
                            z0_sigma=1.0)

    message = "^" + re.escape(f"measurement strength k(z) <= 0 at visited z={bad[0]:g}") + "$"
    with pytest.raises(ValueError, match=message):
        run()
    with pytest.raises(ValueError, match=message):  # the in-process path
        in_child(run, daemon=True)


# -- library inputs are refused, not coerced -----------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"psi0": [0.0, 0.0]}, "psi0 must have a finite nonzero norm, got 0"),
        ({"psi0": [np.nan, 1.0]}, "psi0 entries must be finite"),
        ({"psi0": [1.0, 0.0, 0.0]}, r"psi0 of shape \(3,\) does not fit a model of 2 levels"),
        ({"n_trajectories": 2.7}, r"^n_trajectories must be an integer >= 1, got 2.7$"),
        ({"n_steps": -1}, r"^n_steps must be an integer >= 0, got -1$"),
        ({"dt": 0.0}, r"^dt must be a finite number > 0, got 0.0$"),
        ({"dt": -1e-3}, r"^dt must be a finite number > 0, got -0.001$"),
        ({"dt": np.nan}, r"^dt must be a finite number > 0, got nan$"),
        ({"dt": np.inf}, r"^dt must be a finite number > 0, got inf$"),
    ],
    ids=["zero_psi0", "nan_psi0", "psi0_size", "fractional_count", "negative_steps",
         "zero_dt", "negative_dt", "nan_dt", "infinite_dt"],
)
def test_run_ensemble_refuses_bad_inputs(kwargs, message):
    args = dict(psi0=PLUS, dt=1e-3, n_steps=10, n_trajectories=4)
    args.update(kwargs)
    m = constant_measurement_model(SIGMA_Z, 1.0)
    with pytest.raises(ValueError, match=message):
        run_ensemble(m, args["psi0"], 0.0, args["dt"], args["n_steps"], master_seed=1,
                     n_trajectories=args["n_trajectories"])


def test_outside_frac_locates_as_bin_ensemble_does():
    grid = PhaseGrid((GridAxis("z", -0.01, 0.01, 3),))
    edges = grid.edges("z")
    # the upper edge itself is outside, the lower edge inside
    z = np.array([0.0, edges[0], edges[-1], 5.0])
    assert outside_frac(z, grid) == 0.5
    qp = PhaseGrid((GridAxis("q", -1.0, 1.0, 5), GridAxis("p", -1.0, 1.0, 5)))
    assert outside_frac(np.array([[0.0, 0.0], [0.0, 3.0], [0.5, -0.5], [-2.0, 0.0]]), qp) == 0.5
    with pytest.raises(ValueError, match="does not fit a 2-axis grid"):
        outside_frac(np.zeros(3), qp)


@pytest.mark.parametrize(
    "seed, index, name, bad",
    [(-1, 0, "master_seed", -1), (2**64, 0, "master_seed", 2**64),
     (0, -1, "index", -1), (0, 2**64, "index", 2**64)],
)
def test_stream_key_words_outside_64_bits_are_refused(seed, index, name, bad):
    # masking would alias seed 2^64 with seed 0 and seed -1 with 2^64 - 1
    message = rf"^{name} must lie in \[0, 2\*\*64\), got {bad}$"
    with pytest.raises(ValueError, match=message):
        trajectory_rng(seed, index)
    with pytest.raises(ValueError, match=message):
        trajectory_normals(seed, index, 1, 3)


def test_normals_rows_must_stay_below_2_64():
    top = 2**64 - 1
    # the largest key words are streams of their own
    rows = trajectory_normals(top, top - 1, 2, 4)
    want = [trajectory_rng(top, index).standard_normal(4) for index in (top - 1, top)]
    assert rows.tobytes() == np.stack(want).tobytes()
    with pytest.raises(ValueError, match=rf"^index must lie in \[0, 2\*\*64\), got {2**64}$"):
        trajectory_normals(top, top - 1, 3, 4)
