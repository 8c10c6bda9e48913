"""Dispatch validated scenarios to the five run types and write artifacts.

Every artifact embeds the fully resolved scenario (defaults filled) in its
header for provenance, and all floats are written with 17 significant
digits so that a rerun with the same master seed is byte-identical.
`_plan` is the one place that turns numerics t_final, dt and safety into
the (dt, n_steps) of evolve, unravel and sample_paths, the fewest whole
steps none longer than dt, and for the grid equations the CFL-style limit
and its binding term; the gate runs it before any output exists, and each
run reports it in its summary.
unravel integrates its ensemble once and takes trajectory 0 from it;
sample_paths scores its sampled paths as `ClassicalPath` batches.
`compare_artifacts` parses two large dumps in two forked workers, with the
value and every refusal of parsing them in this process.

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
import math
import os

import numpy as np

from .generator import EvolutionError, cfl_terms, evolve, evolve_measurement
from .models import ModelValidationError, diagonalize_model, validate_model
from .paths import BranchPair, anomalous_term, fv_action, om_action, sample_path_ensemble, ClassicalPath
from .pool import _map_chunks
from .psd import schur_cp_check, tradeoff_verdict
from .scenario import Scenario
from .state import (
    BLOCK_FLOATS,
    classical_marginal,
    dump_floats,
    gaussian_product_state,
    load_state,
    save_state,
    scenario_json,
    total_trace,
    write_table,
)
from .unravel import SEED_LIMIT, bin_ensemble, outside_frac, run_ensemble
from .zerodim import QuadratureError, moment_perturbative, moment_quadrature

__all__ = ["run_scenario", "check_scenario", "compare_artifacts", "RunFailure"]

# Relative slack a step may exceed its dt by: round-off only
# (t_final / (t_final / n) is within a few ulp of n).
STEP_ROUNDOFF = 1e-9


class RunFailure(RuntimeError):
    """An invariant was breached mid-run; the process should exit nonzero."""


def _write_csv(path, header_lines, columns, table):
    write_table(path, ["# " + line for line in header_lines] + [",".join(columns)], table)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _provenance(scenario: Scenario) -> str:
    return "scenario " + scenario_json(scenario.resolved)


def _steps(t_final, dt, limit=None):
    """(dt, n_steps): the fewest whole steps that reach t_final, none longer than ``dt``.

    A step may exceed ``dt`` by round-off only (`STEP_ROUNDOFF`), so a
    ``dt`` that divides t_final keeps its count.  A grid integration's step
    must stay within its CFL-style ``limit``.
    """
    n = t_final / dt
    if not np.isfinite(n):
        raise ValueError(f"t_final {t_final:g} is not a finite number of steps of {dt:g}")
    n = max(1, math.ceil(n * (1.0 - STEP_ROUNDOFF)))
    if t_final / n > dt * (1.0 + STEP_ROUNDOFF):
        n += 1  # the ratio's round-off left the count one short
    dt = t_final / n
    if limit is not None and dt > limit:
        raise ValueError(
            f"grid step {dt!r} (from numerics dt or safety, and t_final) exceeds "
            f"the CFL-style limit {limit!r}"
        )
    return dt, n


def _plan(scenario):
    """(steps, reference) of an evolve, unravel or sample_paths run.

    ``steps`` is what the run's summary reports: dt and n_steps, from
    `_steps` of numerics t_final and dt (sample_paths given n_steps keeps
    its dt).  The grid equations' runs (evolve, unravel) step at numerics
    dt, or else at safety x the CFL-style limit, and add that limit,
    cfl_limit, and the name of its binding `cfl_terms` term, cfl_term.
    ``reference`` is the (dt, n_steps) of unravel's grid reference, at
    safety x the limit, when z0_sigma > 0; otherwise None.  The grid
    integrations, evolve's steps and the reference, are held to the limit.
    """
    numerics = scenario.numerics
    t_final, dt = numerics["t_final"], numerics["dt"]
    if scenario.run_type == "sample_paths":
        dt, n_steps = (dt, numerics["n_steps"]) if t_final is None else _steps(t_final, dt)
        return {"dt": dt, "n_steps": n_steps}, None
    terms = cfl_terms(scenario.model, scenario.grid)
    term = min(terms, key=terms.get, default=None)
    limit = terms.get(term, np.inf)
    safe = numerics["safety"] * limit
    held = limit if scenario.run_type == "evolve" else None
    dt, n_steps = _steps(t_final, safe if dt is None else dt, held)
    reference = None
    if scenario.run_type == "unravel" and numerics["z0_sigma"] > 0.0:
        reference = _steps(t_final, safe, limit)
    return {"dt": dt, "n_steps": n_steps, "cfl_limit": limit, "cfl_term": term}, reference


def check_scenario(scenario: Scenario) -> dict:
    """The gate every run type passes before it starts: audit the model and steps.

    cp_check returns its CP report (a Violated verdict is a result, not a
    failure); evolve and sample_paths audit the CQ model on the grid's q
    points, or on 41 points of [-5, 5] without a grid (with a branch pair,
    diagonalized there too); unravel audits the measurement model on the z
    points.  Raises ModelValidationError when the model fails, and
    ValueError when `_plan` does.
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
        if scenario.initial.get("pair"):
            diagonalize_model(scenario.model, qs)
    if scenario.run_type == "unravel":
        scenario.model.validate(scenario.grid.axes[0].points)
    if scenario.run_type in ("evolve", "unravel", "sample_paths"):
        _plan(scenario)
    return {"model": "valid"}


def run_scenario(scenario: Scenario, out_dir, seed=None) -> dict:
    """Gate a scenario through `check_scenario`, then execute it into ``out_dir``.

    ``seed`` replaces the master seed of the run types that have one
    (unravel, sample_paths); the others ignore it.  Returns a small summary
    dict.  A scenario the gate rejects, or a seed outside [0, 2^64), raises
    ModelValidationError or ValueError before ``out_dir`` is created.
    Raises RunFailure on invariant breaches (after dumping whatever
    diagnostics exist).
    """
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
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
    steps, _ = _plan(scenario)
    prov = _provenance(scenario)
    try:
        # the initial state is built in the call, so that evolve holds its
        # only reference and frees it after the first step
        final, diags = evolve(
            scenario.model,
            gaussian_product_state(
                scenario.grid,
                centers=(init["q0"], init["p0"]),
                sigmas=(init["sigma_q"], init["sigma_p"]),
                rho_q=init["rho_q"],
            ),
            steps["dt"],
            steps["n_steps"],
            stride=scenario.output["stride"],
            trace_abort=scenario.numerics["trace_abort"],
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
    return {"trace": diags.trace[-1], "min_eig": min(diags.min_eig), **steps}


def _run_unravel(scenario, out_dir):
    m = scenario.model
    grid = scenario.grid
    init = scenario.initial
    numerics = scenario.numerics
    steps, reference = _plan(scenario)
    n_traj = numerics["n_trajectories"]
    z0_sigma = numerics["z0_sigma"]
    seed = numerics["seed"]
    prov = _provenance(scenario)

    result = run_ensemble(
        m,
        init["psi"],
        init["z0"],
        steps["dt"],
        steps["n_steps"],
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
    if reference is not None:
        ref0 = gaussian_product_state(grid, centers=(init["z0"],), sigmas=(z0_sigma,), rho_q=rho0)
        dt_grid, ngrid = reference
        try:
            ref, _ = evolve_measurement(m, ref0, dt_grid, ngrid, stride=ngrid)
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
    return {
        "trace": total_trace(binned),
        "outside_frac": outside_frac(result.z, grid),
        "max_norm_defect": result.max_norm_defect,
        **steps,
    }


def _run_sample_paths(scenario, out_dir):
    model = scenario.model
    init = scenario.initial
    numerics = scenario.numerics
    steps, _ = _plan(scenario)
    dt, n_steps = steps["dt"], steps["n_steps"]
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
    return {"n_paths": n_paths, **steps}


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

    Both files must be state dumps on identical grids (axis names, extents
    and point counts); the metric is over the classical probability
    densities (l1 is volume-weighted).  Each dump is read by `load_state`
    and reduced to its grid and marginal; dumps that together hold more
    than `BLOCK_FLOATS` floats are read in two forked workers, which send
    back only that.
    """
    paths = (path_a, path_b)
    if sum(map(dump_floats, paths)) > BLOCK_FLOATS:
        read = _map_chunks(_grid_and_marginal, [(path,) for path in paths])
    else:
        read = map(_grid_and_marginal, paths)
    (grid_a, pa), (grid_b, pb) = read
    if grid_a != grid_b:
        raise ValueError(f"grids differ: {grid_a} vs {grid_b}")
    if metric == "l1":
        return float(np.abs(pa - pb).sum() * grid_a.cell_volume)
    if metric == "linf":
        return float(np.abs(pa - pb).max())
    raise ValueError(f"unknown metric {metric!r} (use l1 or linf)")


def _grid_and_marginal(path):
    state = load_state(path)
    return state.grid, classical_marginal(state)
