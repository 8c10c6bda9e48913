"""Self-tests of the benchmark harness (not of cqsim).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS, make_workload, write_scenarios  # noqa: E402


def _written(name, seed, directory):
    paths = write_scenarios(make_workload(name, seed), str(directory))
    out = {}
    for fname, path in paths.items():
        with open(path, "rb") as fh:
            out[fname] = fh.read()
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_reproduces_and_changes_inputs(name, tmp_path):
    first = _written(name, 7, tmp_path / "a")
    again = _written(name, 7, tmp_path / "b")
    other = _written(name, 8, tmp_path / "c")
    assert first == again
    assert first != other
    assert first.keys() == other.keys()


@pytest.mark.parametrize("name", WORKLOADS)
def test_generated_scenarios_use_only_their_run_types_keys(name, tmp_path):
    from cqsim.scenario import parse_scenario_file

    read_by = {
        "evolve": {"t_final", "safety"},
        "unravel": {"dt", "t_final", "n_trajectories", "z0_sigma", "seed", "safety"},
        "sample_paths": {"dt", "n_steps", "n_paths", "seed"},
        "zerodim": {"order"},
        "cp_check": set(),
    }
    for path in write_scenarios(make_workload(name, 3), str(tmp_path)).values():
        scenario = parse_scenario_file(path)
        with open(path) as fh:
            numerics = (yaml.safe_load(fh).get("numerics") or {})
        assert set(numerics) <= read_by[scenario.run_type], (path, sorted(numerics))
        if "safety" in read_by[scenario.run_type]:
            assert numerics.get("safety", 0) > 0


def test_self_times_subtract_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    out = traced.self_times(spans)
    assert out["a"] == pytest.approx((6.0, 1))
    assert out["b"] == pytest.approx((3.0, 2))
    assert out["c"] == pytest.approx((1.0, 1))


EVOLVE = """run: evolve
model:
  mass: 1.0
  h_q: [[0.0, 0.5], [0.5, 0.0]]
  v_i_matrix: [[1.0, 0.0], [0.0, -1.0]]
  v_i_profile: [0.0, 0.8]
  d2: [0.25]
  d0: [1.0]
grid:
  q_min: -4.0
  q_max: 4.0
  q_points: 41
  p_min: -4.0
  p_max: 4.0
  p_points: 41
initial:
  sigma_q: 0.6
  sigma_p: 0.6
  rho_q: [[0.5, 0.5], [0.5, 0.5]]
numerics:
  t_final: 0.02
  safety: 0.4
output:
  stride: 2
"""


def test_traced_spans_nest(tmp_path):
    scenario = tmp_path / "evolve.yaml"
    scenario.write_text(EVOLVE)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced.py"), str(spans_path),
         "run", str(scenario), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {name for name, _, _, _ in spans}
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    roots = [s for s in spans if s[3] < 0]
    assert [r[0] for r in roots] == ["cli.main"]
    # references held by importing modules are traced too
    parents = {(name, spans[parent][0]) for name, _, _, parent in spans if parent >= 0}
    assert ("generator.evolve", "runner.run_scenario") in parents
    assert ("grids.d_dx", "generator.apply_generator") in parents
    assert ("state.save_state", "runner.run_scenario") in parents
    assert ("psd.schur_cp_check", "models.validate_model") in parents
    assert {"generator.EvolutionDiagnostics.record", "state.min_cell_eigenvalue"} <= names
    selfs = traced.self_times(spans)
    assert all(total >= 0.0 for total, _ in selfs.values())
    root_wall = roots[0][2] - roots[0][1]
    assert sum(total for total, _ in selfs.values()) == pytest.approx(root_wall, rel=1e-9)


ISSUE_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "cell_steps_per_s", "traj_steps_per_s",
                    "path_steps_per_s", "failed_frac", "trace_drift", "neg_eig", "ens_l1",
                    "zerodim_gap")
ISSUE_PER_LAYER = (
    "generator.apply_generator.self_s", "generator.apply_generator.calls",
    "generator.apply_generator.cell_evals", "grids.d_dx.self_s", "grids.d2_dx2.self_s",
    "generator.evolve.self_s", "generator.EvolutionDiagnostics.record.self_s",
    "generator.EvolutionDiagnostics.record.calls", "state.min_cell_eigenvalue.self_s",
    "generator.measurement_generator.self_s", "generator.measurement_generator.calls",
    "generator.evolve_measurement.self_s", "generator.cfl_limit.self_s",
    "state.save_state.self_s", "state.save_state.bytes", "state.state_from_text.self_s",
    "state.state_from_text.bytes", "state.gaussian_product_state.self_s",
    "scenario.parse_scenario_file.self_s", "models.validate_model.self_s",
    "models.validate_model.calls", "psd.schur_cp_check.self_s", "psd.schur_cp_check.calls",
    "models.diagonalize_model.self_s", "models.diagonalize_model.calls",
    "paths.sample_path_ensemble.self_s", "paths.om_action.self_s", "paths.om_action.calls",
    "paths.anomalous_term.self_s", "paths.anomalous_term.calls", "paths.fv_action.self_s",
    "paths.fv_action.calls", "paths.accepted_frac", "unravel.run_ensemble.self_s",
    "unravel.trajectory_rng.self_s", "unravel.trajectory_rng.calls",
    "unravel.bin_ensemble.self_s", "unravel.run_trajectory.self_s", "unravel.inside_frac",
    "zerodim.moment_quadrature.self_s", "zerodim.moment_perturbative.self_s",
    "runner.run_scenario.self_s", "runner.compare_artifacts.self_s",
    "trace.overhead_s",
)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert layer == run.PER_LAYER
    # failed_frac is 0 at a healthy commit and end-to-end metrics must never be
    # 0, so it sits with the per-layer metrics (the result's attempted and
    # failed fields carry it on every run); the two ensemble rates spread
    # beyond any end-to-end bound and sit there too
    moved = {"failed_frac", "traj_steps_per_s", "path_steps_per_s"}
    assert set(ISSUE_END_TO_END) - moved <= set(e2e)
    assert set(ISSUE_PER_LAYER) | moved <= set(layer)
    assert next(m for m in bench["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in bench["end_to_end"])
