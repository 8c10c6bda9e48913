"""Dispatch validated scenarios to the five run types and write artifacts.

Every artifact embeds the fully resolved scenario (defaults filled) in its
header for provenance, and all floats are written with 17 significant
digits so that a rerun with the same master seed is byte-identical.
unravel integrates its ensemble once and takes trajectory 0 from it;
sample_paths scores its sampled paths as `ClassicalPath` batches.

Artifacts per run type:

* cp_check:     report.json (the CPReport + both-route detail)
* evolve:       diagnostics.csv, final_state.txt
* unravel:      ensemble_summary.txt, convergence.csv, trajectory0.csv
* sample_paths: ensemble.csv (per-path weight and endpoint), path0.csv
* zerodim:      moments.json
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .generator import (
    EvolutionError,
    cfl_limit,
    evolve,
    evolve_measurement,
    measurement_cfl_limit,
)
from .models import ModelValidationError, diagonalize_model, validate_model
from .paths import BranchPair, anomalous_term, fv_action, om_action, sample_path_ensemble, ClassicalPath
from .psd import schur_cp_check, tradeoff_verdict
from .scenario import Scenario
from .state import (
    classical_marginal,
    gaussian_product_state,
    load_state,
    save_state,
    total_trace,
    write_table,
)
from .unravel import bin_ensemble, run_ensemble
from .zerodim import QuadratureError, moment_perturbative, moment_quadrature

__all__ = ["run_scenario", "check_scenario", "compare_artifacts", "RunFailure"]


class RunFailure(RuntimeError):
    """An invariant was breached mid-run; the process should exit nonzero."""


def _write_csv(path, header_lines, columns, table):
    write_table(path, ["# " + line for line in header_lines] + [",".join(columns)], table)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _provenance(scenario: Scenario) -> str:
    return "scenario " + json.dumps(scenario.resolved, sort_keys=True)


def _steps(t_final, dt):
    """(dt, n_steps): ``dt`` shrunk so that n_steps whole steps reach t_final."""
    n = t_final / dt
    if not np.isfinite(n):
        raise ValueError(f"t_final {t_final:g} is not a finite number of steps of {dt:g}")
    n = max(1, int(round(n)))
    return t_final / n, n


def _pick_dt(numerics, limit):
    """`_steps` of the given dt, or else of safety x the stability limit."""
    dt = numerics["dt"]
    return _steps(numerics["t_final"], numerics["safety"] * limit if dt is None else dt)


def _within(steps, limit):
    """A grid integration's `_steps`, which must not exceed its stability limit."""
    if steps[0] > limit:
        raise ValueError(
            f"grid step {steps[0]:g} (from numerics dt or safety, and t_final) exceeds "
            f"the CFL-style limit {limit:g}"
        )
    return steps


def _reference_steps(scenario):
    """Steps of unravel's grid reference: safety x the measurement CFL limit."""
    limit = measurement_cfl_limit(scenario.model, scenario.grid)
    return _within(_steps(scenario.numerics["t_final"], scenario.numerics["safety"] * limit), limit)


def check_scenario(scenario: Scenario) -> dict:
    """The gate every run type passes before it starts: audit the model and steps.

    cp_check returns its CP report (a Violated verdict is a result, not a
    failure); evolve and sample_paths audit the CQ model on the grid's q
    points, or on 41 points of [-5, 5] without a grid; unravel audits the
    measurement model on the z points.  Raises ModelValidationError when
    the model fails, and ValueError when t_final is not a finite number of
    steps or a grid integration's step would exceed its CFL-style limit.
    """
    if scenario.run_type == "cp_check":
        report = schur_cp_check(scenario.model)
        out = report.to_dict()
        out["tradeoff_verdict"] = tradeoff_verdict(scenario.model).value
        return out
    if scenario.run_type in ("evolve", "sample_paths"):
        qs = (
            scenario.grid.axes[0].points
            if scenario.grid is not None
            else np.linspace(-5.0, 5.0, 41)
        )
        validate_model(scenario.model, qs)
    if scenario.run_type == "evolve":
        limit = cfl_limit(scenario.model, scenario.grid)
        _within(_pick_dt(scenario.numerics, limit), limit)
    if scenario.run_type == "unravel":
        scenario.model.validate(scenario.grid.axes[0].points)
        _pick_dt(scenario.numerics, measurement_cfl_limit(scenario.model, scenario.grid))
        if scenario.numerics["z0_sigma"] > 0.0:
            _reference_steps(scenario)
    return {"model": "valid"}


def run_scenario(scenario: Scenario, out_dir, seed=None) -> dict:
    """Gate a scenario through `check_scenario`, then execute it into ``out_dir``.

    ``seed`` replaces the master seed of the run types that have one
    (unravel, sample_paths); the others ignore it.  Returns a small summary
    dict.  A scenario the gate rejects raises ModelValidationError or
    ValueError before ``out_dir`` is created.  Raises RunFailure on
    invariant breaches (after dumping whatever diagnostics exist).
    """
    audit = check_scenario(scenario)
    if seed is not None and "seed" in scenario.numerics:
        numerics = dict(scenario.numerics, seed=seed)
        resolved = dict(scenario.resolved, numerics=numerics)
        scenario = dataclasses.replace(scenario, numerics=numerics, resolved=resolved)
    os.makedirs(out_dir, exist_ok=True)
    if scenario.run_type == "cp_check":
        return _run_cp_check(scenario, out_dir, audit)
    runner = {
        "evolve": _run_evolve,
        "unravel": _run_unravel,
        "sample_paths": _run_sample_paths,
        "zerodim": _run_zerodim,
    }[scenario.run_type]
    return runner(scenario, out_dir)


def _run_cp_check(scenario, out_dir, audit):
    payload = dict(audit, scenario=dict(scenario.resolved))
    _write_json(os.path.join(out_dir, "report.json"), payload)
    return {"verdict": payload["verdict"]}


def _run_evolve(scenario, out_dir):
    init = scenario.initial
    numerics = scenario.numerics
    state = gaussian_product_state(
        scenario.grid,
        centers=(init["q0"], init["p0"]),
        sigmas=(init["sigma_q"], init["sigma_p"]),
        rho_q=init["rho_q"],
    )
    dt, _ = _pick_dt(numerics, cfl_limit(scenario.model, scenario.grid))
    prov = _provenance(scenario)
    try:
        final, diags = evolve(
            scenario.model,
            state,
            numerics["t_final"],
            dt,
            stride=scenario.output["stride"],
            trace_abort=numerics["trace_abort"],
        )
    except (EvolutionError, ModelValidationError) as exc:
        diags = getattr(exc, "diagnostics", None)
        if diags is not None:
            _write_csv(
                os.path.join(out_dir, "diagnostics.csv"), [prov, f"aborted: {exc}"],
                diags.COLUMNS, diags.table(),
            )
        raise RunFailure(str(exc)) from exc
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), [prov], diags.COLUMNS, diags.table())
    save_state(final, os.path.join(out_dir, "final_state.txt"), scenario=scenario.resolved)
    return {"trace": diags.trace[-1], "min_eig": min(diags.min_eig)}


def _run_unravel(scenario, out_dir):
    m = scenario.model
    grid = scenario.grid
    init = scenario.initial
    numerics = scenario.numerics
    t_final = numerics["t_final"]
    dt, n_steps = _pick_dt(numerics, measurement_cfl_limit(m, grid))
    n_traj = numerics["n_trajectories"]
    z0_sigma = numerics["z0_sigma"]
    seed = numerics["seed"]
    prov = _provenance(scenario)

    result = run_ensemble(
        m,
        init["psi"],
        init["z0"],
        dt,
        n_steps,
        seed,
        n_traj,
        z0_sigma=z0_sigma,
    )
    try:
        binned = bin_ensemble(result.z, result.psi, grid)
    except ValueError as exc:
        raise RunFailure(str(exc)) from exc
    save_state(binned, os.path.join(out_dir, "ensemble_summary.txt"), scenario=scenario.resolved)

    # grid solution of the same master equation, for the convergence table
    rho0 = np.outer(init["psi"], np.conj(init["psi"]))
    rho0 = rho0 / np.trace(rho0).real
    if z0_sigma > 0.0:
        ref0 = gaussian_product_state(grid, centers=(init["z0"],), sigmas=(z0_sigma,), rho_q=rho0)
        dt_grid, ngrid = _reference_steps(scenario)
        try:
            ref, _ = evolve_measurement(m, ref0, t_final, dt_grid, stride=ngrid)
        except EvolutionError as exc:
            raise RunFailure(str(exc)) from exc
        ref_density = classical_marginal(ref)
        rows = []
        n = 100
        while n <= n_traj:
            sub = bin_ensemble(result.z[:n], result.psi[:n], grid)
            l1 = float(np.abs(classical_marginal(sub) - ref_density).sum() * grid.cell_volume)
            rows.append((n, l1))
            n *= 10
        _write_csv(os.path.join(out_dir, "convergence.csv"), [prov], ("n", "l1"), rows)

    traj = result.first
    d = traj.psi.shape[1]
    cols = ["t", "z"] + [f"{part}_psi{i}" for i in range(d) for part in ("re", "im")]
    table = np.column_stack((traj.times, traj.z, traj.psi.view(float)))
    _write_csv(os.path.join(out_dir, "trajectory0.csv"), [prov], cols, table)
    return {"trace": total_trace(binned)}


def _run_sample_paths(scenario, out_dir):
    model = scenario.model
    init = scenario.initial
    numerics = scenario.numerics
    dt = numerics["dt"]
    n_steps = numerics["n_steps"]
    n_paths = numerics["n_paths"]
    pair = BranchPair(*init["pair"]) if init["pair"] else None
    prov = _provenance(scenario)

    qs, ps = sample_path_ensemble(
        model, init["q0"], init["p0"], n_steps, dt, n_paths=n_paths, pair=pair,
        seed=numerics["seed"],
    )
    diag = None if pair is None else diagonalize_model(model, np.unique(qs[:, :-1]))
    # blocks of ~64k path steps keep the scoring temporaries small
    rows = max(1, (1 << 16) // n_steps)
    exponents = np.empty(n_paths)
    for lo in range(0, n_paths, rows):
        block = ClassicalPath(dt=dt, q=qs[lo : lo + rows], p=ps[lo : lo + rows])
        block_exp = om_action(block, model, pair, diag=diag) + anomalous_term(block, model)
        if pair is not None:
            block_exp += fv_action(block, model, pair, diag=diag)
        exponents[lo : lo + rows] = block_exp
    # the raw weight can under/overflow for long paths; the exponent column
    # carries the lossless value
    _write_csv(
        os.path.join(out_dir, "ensemble.csv"), [prov],
        ("weight", "q_end", "p_end", "weight_exponent"),
        np.column_stack((np.exp(-exponents), qs[:, -1], ps[:, -1], exponents)),
    )
    path0 = np.column_stack((np.arange(n_steps + 1) * dt, qs[0], ps[0]))
    _write_csv(os.path.join(out_dir, "path0.csv"), [prov], ("t", "q", "p"), path0)
    return {"n_paths": n_paths}


def _run_zerodim(scenario, out_dir):
    params = scenario.model["params"]
    obs = scenario.model["observable"]
    engine = scenario.model["engine"]
    order = scenario.numerics["order"]
    payload = {
        "parameters": {
            "m_phi": params.m_phi,
            "m_q": params.m_q,
            "lambda": params.lam,
            "hbar": params.hbar,
            "d2": params.d2,
        },
        "observable": list(obs),
        "scenario": dict(scenario.resolved),
        "results": {},
    }
    try:
        if engine in ("perturbative", "both"):
            val = moment_perturbative(params, obs, order=order)
            payload["results"]["perturbative"] = {
                "order": order,
                "value": {"re": val.real, "im": val.imag},
            }
        if engine in ("quadrature", "both"):
            val, err = moment_quadrature(params, obs, full_output=True)
            payload["results"]["quadrature"] = {
                "value": {"re": val.real, "im": val.imag},
                "error_estimate": err,
            }
    except (QuadratureError, ValueError) as exc:
        raise RunFailure(str(exc)) from exc
    _write_json(os.path.join(out_dir, "moments.json"), payload)
    return {"results": payload["results"]}


def compare_artifacts(path_a, path_b, metric="l1") -> float:
    """Distance between the classical marginals of two state artifacts.

    Both files must be state dumps on identical grids (axes, extents, point
    counts and boundary); the metric is over the classical probability
    densities (l1 is volume-weighted).
    """
    a, b = load_state(path_a), load_state(path_b)
    if a.grid != b.grid:
        raise ValueError(f"grids differ: {a.grid} vs {b.grid}")
    pa, pb = classical_marginal(a), classical_marginal(b)
    if metric == "l1":
        return float(np.abs(pa - pb).sum() * a.grid.cell_volume)
    if metric == "linf":
        return float(np.abs(pa - pb).max())
    raise ValueError(f"unknown metric {metric!r} (use l1 or linf)")
