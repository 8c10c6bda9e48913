"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints one PASS line (after its assertions) so a `-s` run reads
as a checklist.  Runtime budgets are asserted where the criterion carries
one.
"""

import filecmp
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cqsim.generator import apply_generator, branch_generator, cfl_limit, evolve, evolve_measurement, measurement_cfl_limit
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import constant_measurement_model, diagonalize_model, polynomial_cq_model
from cqsim.paths import ClassicalPath, anomalous_term, config_action, om_action, sample_path
from cqsim.psd import CouplingTriple, Verdict, schur_cp_check, tradeoff_verdict
from cqsim.runner import run_scenario
from cqsim.scenario import parse_scenario_file
from cqsim.state import HybridState, classical_marginal, gaussian_product_state
from cqsim.unravel import bin_ensemble, run_ensemble, run_trajectory
from cqsim.zerodim import ToyParams, free_propagators, moment_perturbative, moment_quadrature

from conftest import PLUS, SIGMA_Z, free_diffusion_model, overlap_rebin, qubit_decoherence_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_cp_checker_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for trial in range(200):
        rank = int(rng.integers(2, 7))
        b = rng.normal(size=(rank, 6)) + 1j * rng.normal(size=(rank, 6))
        block = b.conj().T @ b
        if trial % 2 == 1:
            scale = np.abs(np.linalg.eigvalsh(block)).max()
            block = block - 0.3 * scale * np.eye(6)
        triple = CouplingTriple(d2=block[:3, :3], d1=block[:3, 3:], d0=block[3:, 3:])
        rep = schur_cp_check(triple)
        schur_route = rep.d0_psd and rep.schur_ok and rep.support_ok
        assert schur_route == rep.block_psd, f"routes disagree on trial {trial}"
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(1, f"Schur route == block route on 200 random 6x6 blocks in {elapsed:.2f}s")


def test_criterion_02_saturation_identity():
    for k in (0.1, 1.0, 10.0):
        triple = CouplingTriple(d2=[[1.0 / (8.0 * k)]], d1=[[0.5]], d0=[[2.0 * k]])
        rep = schur_cp_check(triple)
        assert rep.verdict is Verdict.SATURATED, k
        assert abs(rep.tradeoff_margin) < 1e-12, k
        assert tradeoff_verdict(triple) is Verdict.SATURATED, k
    report(2, "measurement triple (1/(8k), 1/2, 2k) saturated with |margin| < 1e-12")


def test_criterion_03_classical_diffusion_law():
    t0 = time.monotonic()
    d2 = 0.5
    grid = PhaseGrid((GridAxis("q", -6.0, 6.0, 201), GridAxis("p", -5.0, 5.0, 201)))
    model = free_diffusion_model(d2=d2)
    state = gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.35))
    t_final = 1.0
    dt = 0.45 * cfl_limit(model, grid)
    n = int(round(t_final / dt))
    final, diags = evolve(model, state, t_final / n, n, stride=max(1, n // 10))
    expected = diags.var_p[0] + d2 * t_final
    rel_err = abs(diags.var_p[-1] - expected) / expected
    elapsed = time.monotonic() - t0
    assert rel_err < 0.02, f"Var(p) off by {rel_err:.2%}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    report(3, f"Var(p) growth D2*t within {rel_err:.3%} on 201x201 in {elapsed:.1f}s")


def test_criterion_04_decoherence_rate():
    lam, d0 = 1.0, 1.0
    rate_expected = 2.0 * d0 * lam**2
    model = qubit_decoherence_model(lam=lam, d0=d0, mass=1.0)
    grid = PhaseGrid((GridAxis("q", -4.0, 4.0, 121), GridAxis("p", -4.0, 4.0, 121)))
    rho_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    state = gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5), rho_q=rho_plus)
    t_final = 1.0 / rate_expected  # one decay time
    dt = 0.4 * cfl_limit(model, grid)
    n = int(round(t_final / dt))
    final, diags = evolve(model, state, t_final / n, n, stride=max(1, n // 20))
    ts = np.array(diags.t)
    coh = np.array(diags.coh_01)
    fitted = -np.polyfit(ts, np.log(coh), 1)[0]
    rel_err = abs(fitted - rate_expected) / rate_expected
    assert rel_err < 0.03, f"fitted rate {fitted:.4f} vs {rate_expected} ({rel_err:.2%})"
    report(4, f"coherence decay rate 2*D0*lam^2 within {rel_err:.3%}")


def test_criterion_05_branch_decomposition_oracle():
    rng = np.random.default_rng(505)
    d = 3
    w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(w)
    model = polynomial_cq_model(
        mass=1.4,
        potential_coeffs=[0.0, 0.0, 0.35],
        h_q=u @ np.diag(rng.normal(size=d)) @ u.conj().T,
        v_i_matrix=u @ np.diag(rng.normal(size=d)) @ u.conj().T,
        v_i_profile=[0.0, 0.3],
        d2_coeffs=[0.8],
        d0_coeffs=[0.9],
    )
    grid = PhaseGrid((GridAxis("q", -3.0, 3.0, 25), GridAxis("p", -3.0, 3.0, 27)))
    diag = diagonalize_model(model, grid.axes[0].points)
    worst = 0.0
    for _ in range(50):
        cells = rng.normal(size=grid.shape + (d, d)) + 1j * rng.normal(size=grid.shape + (d, d))
        cells = cells + np.conj(np.swapaxes(cells, -1, -2))
        state = HybridState(grid, cells)
        gap = np.abs(
            apply_generator(model, state)
            - branch_generator(model, state, diag=diag)
        ).max()
        worst = max(worst, gap)
    assert worst < 1e-10, f"single-application gap {worst:.2e}"

    from cqsim.generator import _rk4, step_rk4

    state = gaussian_product_state(grid, (0, 0), (0.6, 0.6), rho_q=np.full((d, d), 1.0 / d))
    dt = 0.4 * cfl_limit(model, grid)

    def branch_fn(c, rows, out):
        out[...] = branch_generator(model, HybridState(grid, c), diag=diag)[rows]
        return out

    cf = cb = state.cells
    for _ in range(100):
        cf = step_rk4(model, HybridState(grid, cf), dt).cells
        # the branch rate of the whole grid is one window, as tall as the grid
        cb = _rk4(branch_fn, cb, dt, grid.shape[0])
    drift = np.abs(cf - cb).max()
    assert drift < 1e-8, f"100-step drift {drift:.2e}"
    report(5, f"branch oracle gap {worst:.2e} single / {drift:.2e} after 100 RK4 steps")


def test_criterion_06_unraveling_vs_master_equation():
    t0 = time.monotonic()
    k = 1.0
    m = constant_measurement_model(SIGMA_Z, k)
    t_final, dt = 0.3, 5e-4
    n_steps = int(round(t_final / dt))
    z0_sigma = 0.25
    res = run_ensemble(
        m, PLUS, 0.0, dt, n_steps, master_seed=606, n_trajectories=10_000, z0_sigma=z0_sigma
    )
    # master equation solved on a fine signal grid, then conservatively
    # rebinned onto the coarser comparison cells the ensemble is binned into
    coarse = PhaseGrid((GridAxis("z", -2.0, 2.0, 41),))
    fine = PhaseGrid((GridAxis("z", -2.0, 2.0, 201),))
    rho0 = np.outer(PLUS, PLUS.conj())
    ref0 = gaussian_product_state(fine, (0.0,), (z0_sigma,), rho_q=rho0)
    dtg = 0.4 * measurement_cfl_limit(m, fine)
    ng = int(round(t_final / dtg))
    ref, _ = evolve_measurement(m, ref0, t_final / ng, ng, stride=ng)
    dens_ref = overlap_rebin(classical_marginal(ref), fine, coarse)

    l1s = {}
    for n in (100, 1_000, 10_000):
        sub = bin_ensemble(res.z[:n], res.psi[:n], coarse)
        l1s[n] = float(np.abs(classical_marginal(sub) - dens_ref).sum() * coarse.cell_volume)
    slope = np.polyfit(np.log10(list(l1s)), np.log10(list(l1s.values())), 1)[0]
    elapsed = time.monotonic() - t0
    assert l1s[10_000] <= 0.05, f"L1 at N=1e4 is {l1s[10_000]:.4f}"
    assert -0.65 <= slope <= -0.35, f"convergence exponent {slope:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"
    report(
        6,
        f"ensemble vs grid: L1(N=1e4) = {l1s[10_000]:.4f}, exponent {slope:.2f} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_07_conditional_purity():
    m = constant_measurement_model(SIGMA_Z, 4.0)
    psi0 = np.array([np.cos(0.55), np.sin(0.55)])
    # every unraveled trajectory: post-normalization norm exact to 1e-12
    for seed in range(40):
        traj = run_trajectory(m, psi0, 0.0, 5e-4, 400, seed=seed)
        norms_sq = np.einsum("ti,ti->t", traj.psi.conj(), traj.psi).real
        assert np.abs(norms_sq - 1.0).max() <= 1e-12
    # pre-normalization drift per step is O(dt): step-halving slope ~ 1.
    # Weak measurement keeps Var(Z) of order one over the window so the
    # per-step defect k Var(Z) (xi^2 - 1) dt is not dominated by collapse
    # transients; averaging over trajectories tames the noise in the fit.
    m_weak = constant_measurement_model(SIGMA_Z, 0.5)
    dts = (2e-3, 1e-3, 5e-4, 2.5e-4)
    drifts = []
    for dt in dts:
        per_traj = [
            run_trajectory(m_weak, psi0, 0.0, dt, int(0.1 / dt), seed=1000 + s).norm_defect.mean()
            for s in range(30)
        ]
        drifts.append(np.mean(per_traj))
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    assert 0.7 < slope < 1.3, f"norm-drift order {slope:.2f}"
    report(7, f"conditional purity exact to 1e-12; norm drift order {slope:.2f} in dt")


def test_criterion_08_born_rule_collapse():
    n = 10_000
    k = 25.0
    m = constant_measurement_model(SIGMA_Z, k)
    for idx, theta in enumerate((np.pi / 6, np.pi / 3, np.pi / 2)):
        psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        res = run_ensemble(m, psi0, 0.0, 2e-4, 1500, master_seed=808 + idx, n_trajectories=n)
        p_up = np.abs(res.psi[:, 0]) ** 2
        assert np.minimum(p_up, 1 - p_up).max() < 1e-3, "ensemble not collapsed"
        freq = (p_up > 0.5).mean()
        born = np.cos(theta / 2) ** 2
        sigma = np.sqrt(born * (1 - born) / n)
        assert abs(freq - born) <= 3.0 * sigma, f"theta={theta}: {freq} vs {born}"
    report(8, "collapse frequencies match cos^2(theta/2) within binomial 3 sigma")


def test_criterion_09_path_weight_duality():
    for d2_coeffs in ((0.5,), (0.5, 0.1)):
        model = polynomial_cq_model(
            mass=1.2, potential_coeffs=[0.0, 0.0, 0.4], h_q=[[0.0]], d2_coeffs=list(d2_coeffs)
        )
        dt, n_steps = 0.01, 60
        worst = 0.0
        for seed in range(500):
            path = sample_path(model, 0.2, -0.1, n_steps, dt, seed=seed)
            q, p = path.q, path.p
            means = p[:-1] - model.dpotential(q[:-1]) * dt
            sds = np.sqrt(model.d2(q[:-1]) * dt)
            oracle = stats.norm.logpdf(p[1:], loc=means, scale=sds)
            for k in range(n_steps):
                step = ClassicalPath(dt=dt, q=q[k : k + 2], p=p[k : k + 2])
                ours = -(om_action(step, model) + anomalous_term(step, model))
                gap = abs(ours - 0.5 * np.log(2.0 * np.pi * dt) - oracle[k])
                worst = max(worst, gap)
        assert worst < 1e-10, f"duality gap {worst:.2e} for d2={d2_coeffs}"
    report(9, "per-step exp(-(OM+anomalous)) == EM density, constant and q-dependent D2")


def test_criterion_10_config_phase_space_consistency():
    model = polynomial_cq_model(
        mass=1.0, potential_coeffs=[0.0, 0.0, 0.15], h_q=[[0.0]], d2_coeffs=[0.5]
    )
    dts = (1e-2, 5e-3, 2.5e-3)
    gaps = []
    for dt in dts:
        n = int(round(1.2 / dt))
        ts = np.arange(n + 2) * dt
        q_full = np.cos(1.4 * ts) + 0.1 * ts**2
        p = model.mass * (q_full[1:] - q_full[:-1]) / dt
        q = q_full[:-1]
        om = om_action(ClassicalPath(dt=dt, q=q, p=p), model)
        cfg = config_action(ClassicalPath(dt=dt, q=q), model)
        gaps.append(abs(cfg - om))
    slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert abs(slope - 1.0) <= 0.2, f"measured slope {slope:.3f}"
    report(10, f"config vs phase-space action difference shrinks at order {slope:.3f}")


def test_criterion_11_zero_dim_free_theory():
    for params in (
        ToyParams(m_phi=1.0, m_q=1.0, lam=0.0, hbar=1.0, d2=1.0),
        ToyParams(m_phi=1.3, m_q=0.9, lam=0.0, hbar=0.7, d2=0.5),
    ):
        gp_expect = -1j * params.hbar / params.m_phi**2
        gm_expect = +1j * params.hbar / params.m_phi**2
        gq_expect = params.d2 / params.m_q**4
        gp, gm, gq = free_propagators(params)
        assert gp == gp_expect and gm == gm_expect and gq == gq_expect
        assert abs(moment_quadrature(params, (2, 0, 0)) - gq_expect) / abs(gq_expect) < 1e-6
        assert abs(moment_quadrature(params, (0, 2, 0)) - gp_expect) / abs(gp_expect) < 1e-6
        assert abs(moment_quadrature(params, (0, 0, 2)) - gm_expect) / abs(gm_expect) < 1e-6
    report(11, "free propagators reproduced analytically and by quadrature to 1e-6")


def test_criterion_12_perturbation_vs_quadrature():
    t0 = time.monotonic()
    params = ToyParams(m_phi=1.0, m_q=1.0, lam=0.05, hbar=1.0, d2=0.1)
    qq_pert = moment_perturbative(params, (2, 0, 0), order=2)
    qq_quad = moment_quadrature(params, (2, 0, 0))
    rel = abs(qq_pert - qq_quad) / abs(qq_quad)
    assert rel < 0.01, f"<q^2> disagreement {rel:.3%}"
    # <phi+ phi-> is exactly zero by the phi+ -> -phi+ parity of the action:
    # both engines must agree on it (absolute floor stands in for the
    # ill-defined relative error at zero)
    pm_pert = moment_perturbative(params, (0, 1, 1), order=2)
    pm_quad = moment_quadrature(params, (0, 1, 1))
    assert abs(pm_pert - pm_quad) <= max(0.01 * max(abs(pm_pert), abs(pm_quad)), 1e-10)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    report(
        12,
        f"order-2 <q^2> vs quadrature {rel:.4%}; <phi+ phi-> agrees at its exact zero "
        f"in {elapsed:.1f}s",
    )


@pytest.mark.parametrize(
    "scenario_path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem
)
def test_criterion_13_determinism(scenario_path, tmp_path):
    run_scenario(parse_scenario_file(scenario_path), tmp_path / "a")
    run_scenario(parse_scenario_file(scenario_path), tmp_path / "b")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name
    report(13, f"scenario {scenario_path.stem} rerun byte-identical")
