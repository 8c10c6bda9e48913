import filecmp
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqsim import runner
from cqsim.cli import main
from cqsim.generator import cfl_limit, cfl_terms, measurement_cfl_limit
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.runner import check_scenario, compare_artifacts, run_scenario
from cqsim.scenario import ScenarioError, parse_scenario, parse_scenario_file
from cqsim.state import gaussian_product_state, save_state
from cqsim.unravel import outside_frac, run_ensemble

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ALL_SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))

# what a parsed value of each bounded numerics key (or output.stride) obeys
NUMERIC_BOUNDS = {
    "dt": lambda v: 0.0 < v < float("inf"),
    "t_final": lambda v: 0.0 < v < float("inf"),
    "trace_abort": lambda v: 0.0 < v <= 1e-4,
    "n_steps": lambda v: v >= 1,
    "n_trajectories": lambda v: v >= 1,
    "n_paths": lambda v: v >= 1,
    "stride": lambda v: v >= 1,
    "safety": lambda v: 0.0 < v <= 1.0,
    "z0_sigma": lambda v: 0.0 <= v < float("inf"),
    "order": lambda v: 0 <= v <= 3,
}

# the sections and numerics keys each run type reads, and nothing else
SECTIONS = {
    "evolve": {"model", "grid", "initial", "numerics", "output"},
    "unravel": {"model", "grid", "initial", "numerics"},
    "sample_paths": {"model", "grid", "initial", "numerics"},
    "zerodim": {"model", "numerics"},
    "cp_check": {"model"},
}
NUMERICS_KEYS = {
    "evolve": {"t_final", "dt", "safety", "trace_abort"},
    "unravel": {"t_final", "dt", "safety", "n_trajectories", "z0_sigma", "seed"},
    "sample_paths": {"dt", "t_final", "n_steps", "n_paths", "seed"},
    "zerodim": {"order"},
    "cp_check": set(),
}
ANY_NUMERICS_KEY = sorted(set().union(*NUMERICS_KEYS.values()) | {"stride"})

# one shipped scenario per run type
SHIPPED = {
    "evolve": "evolve_free_diffusion.yaml",
    "unravel": "unravel_qubit.yaml",
    "sample_paths": "sample_paths.yaml",
    "zerodim": "zerodim_perturbative.yaml",
    "cp_check": "cp_check_saturated.yaml",
}

# a shipped scenario whose run type reads the key
BOUND_SCENARIO = {
    "dt": "evolve_free_diffusion.yaml",
    "t_final": "evolve_free_diffusion.yaml",
    "trace_abort": "evolve_free_diffusion.yaml",
    "stride": "evolve_free_diffusion.yaml",
    "n_steps": "sample_paths.yaml",
    "n_paths": "sample_paths.yaml",
    "n_trajectories": "unravel_qubit.yaml",
    "z0_sigma": "unravel_qubit.yaml",
    "order": "zerodim_perturbative.yaml",
}

NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.lists(st.integers(), max_size=3),
)


def with_key(name, section, key, value):
    """Shipped scenario ``name`` with ``key: value`` set in ``section`` (a
    section it lacks is appended).  Returns the text and the key's line."""
    lines = (SCENARIO_DIR / name).read_text().splitlines()
    if f"{section}:" not in lines:
        lines.append(f"{section}:")
    start = lines.index(f"{section}:")
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    at = next((i for i in range(start + 1, end) if lines[i].split(":")[0].strip() == key), None)
    if at is None:
        at = start + 1
        lines.insert(at, "")
    lines[at] = f"  {key}: {value}"
    return "\n".join(lines) + "\n", at + 1


def shipped_doc(run_type):
    return yaml.safe_load((SCENARIO_DIR / SHIPPED[run_type]).read_text())


def read_table(path):
    """The numbers of a CSV artifact: '#' header lines, a column line, rows."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(x) for x in row.split(",")] for row in rows[1:]])

MINIMAL_CP_CHECK = """\
run: cp_check
model:
  d2: [[0.125]]
  d1: [[0.5]]
  d0: [[2.0]]
"""


class TestParsing:
    def test_minimal_cp_check_parses_and_runs(self, tmp_path):
        scenario = parse_scenario(MINIMAL_CP_CHECK)
        summary = run_scenario(scenario, tmp_path)
        assert summary["verdict"] == "Saturated"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "Saturated"
        assert abs(report["tradeoff_margin"]) < 1e-12
        assert report["scenario"]["run"] == "cp_check"

    def test_no_diffusion_with_backreaction_is_violated(self, tmp_path):
        text = MINIMAL_CP_CHECK.replace("[[0.125]]", "[[0.0]]")
        summary = run_scenario(parse_scenario(text), tmp_path)
        assert summary["verdict"] == "Violated"

    def test_duplicate_key_names_the_key(self):
        text = MINIMAL_CP_CHECK + "model:\n  d2: [[1.0]]\n"
        with pytest.raises(ScenarioError, match="duplicate key 'model'"):
            parse_scenario(text)

    def test_unknown_key_reported_with_line(self):
        text = MINIMAL_CP_CHECK + "  d9: [[1.0]]\n"
        with pytest.raises(ScenarioError, match="unknown key 'd9'.*line 6"):
            parse_scenario(text)

    def test_missing_key_reported(self):
        with pytest.raises(ScenarioError, match="missing required key 'd0'"):
            parse_scenario("run: cp_check\nmodel:\n  d2: [[1.0]]\n  d1: [[0.5]]\n")

    def test_type_mismatch_reported_with_line(self):
        bad = MINIMAL_CP_CHECK.replace("[[2.0]]", "banana")
        with pytest.raises(ScenarioError, match="'d0'.*matrix.*line 5"):
            parse_scenario(bad)

    def test_bad_run_type(self):
        with pytest.raises(ScenarioError, match="'run'.*one of"):
            parse_scenario("run: fly\nmodel: {}\n")

    def test_multiple_problems_accumulate(self):
        text = (
            "run: evolve\n"
            "model:\n"
            "  mass: heavy\n"
            "grid:\n"
            "  q_min: 0.0\n"
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        joined = "\n".join(err.value.problems)
        assert "mass" in joined and "q_max" in joined and "h_q" in joined

    @pytest.mark.parametrize("value", ["0.0", "-0.2", "1.5", ".nan"])
    def test_safety_outside_unit_interval_rejected(self, value):
        text = (SCENARIO_DIR / "evolve_free_diffusion.yaml").read_text()
        text = text.replace("safety: 0.4", f"safety: {value}")
        with pytest.raises(ScenarioError, match="'safety'.*\\(0, 1\\].*line 20"):
            parse_scenario(text)

    def test_safety_of_one_accepted(self):
        text = (SCENARIO_DIR / "evolve_free_diffusion.yaml").read_text()
        scenario = parse_scenario(text.replace("safety: 0.4", "safety: 1"))
        assert scenario.numerics["safety"] == 1.0

    @pytest.mark.parametrize("obs", ["[1.5, 0, 0]", "[2, 0, 0.25]", "[-1, 0, 0]", "[2, 0]"])
    def test_observable_needs_three_nonnegative_integer_powers(self, obs):
        text = (SCENARIO_DIR / "zerodim_free.yaml").read_text()
        text = text.replace("observable: [2, 0, 0]", f"observable: {obs}")
        with pytest.raises(ScenarioError, match="'observable'.*integer powers"):
            parse_scenario(text)

    def test_integral_float_observable_accepted(self):
        text = (SCENARIO_DIR / "zerodim_free.yaml").read_text()
        scenario = parse_scenario(text.replace("[2, 0, 0]", "[2.0, 0, 0]"))
        assert scenario.model["observable"] == (2, 0, 0)

    def test_infinite_mass_accepted(self):
        # the one number of a model that may be infinite: it freezes q
        text = (SCENARIO_DIR / "evolve_free_diffusion.yaml").read_text()
        scenario = parse_scenario(text.replace("mass: 1.0", "mass: .inf"))
        assert scenario.model.mass == float("inf")
        assert check_scenario(scenario) == {"model": "valid"}

    def test_infinite_mass_provenance_is_strict_json(self, tmp_path):
        text = (SCENARIO_DIR / "evolve_free_diffusion.yaml").read_text()
        text = text.replace("mass: 1.0", "mass: .inf").replace("t_final: 0.3", "t_final: 0.01")
        run_scenario(parse_scenario(text), tmp_path)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        names = sorted(os.listdir(tmp_path))
        assert names == ["diagnostics.csv", "final_state.txt"]
        for name in names:
            headers = [
                line.split(" ", 2)[2]
                for line in (tmp_path / name).read_text().splitlines()
                if line.startswith(("# scenario ", "# cqsim-state "))
            ]
            parsed = [json.loads(header, parse_constant=refuse) for header in headers]
            assert [p["model"]["mass"] for p in parsed if "model" in p] == [".inf"]

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("numerics", "dt", "0.0"),
            ("numerics", "dt", ".nan"),
            ("numerics", "t_final", "-1.0"),
            ("numerics", "t_final", ".inf"),
            ("numerics", "trace_abort", "0"),
            ("numerics", "n_steps", "0"),
            ("numerics", "n_paths", "0"),
            ("numerics", "n_trajectories", "-3"),
            ("output", "stride", "0"),
            ("numerics", "z0_sigma", "-0.25"),
            ("numerics", "order", "-1"),
            ("numerics", "order", "7"),
        ],
    )
    def test_out_of_range_numerics_rejected(self, section, key, value):
        text, line = with_key(BOUND_SCENARIO[key], section, key, value)
        with pytest.raises(
            ScenarioError, match=rf"key '{key}' in section '{section}' must .*\(line {line}\)"
        ):
            parse_scenario(text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(
            [(run, "numerics", key) for run in NUMERICS_KEYS for key in sorted(NUMERICS_KEYS[run])]
            + [("evolve", "output", "stride")]
        ),
        NUMBERS,
    )
    def test_any_numerics_value_parses_within_bounds_or_is_rejected(self, where, value):
        run_type, section, key = where
        doc = shipped_doc(run_type)
        doc[section][key] = value
        if run_type == "sample_paths" and key == "t_final":
            del doc["numerics"]["n_steps"]  # the two exclude each other
        try:
            scenario = parse_scenario(yaml.safe_dump(doc))
        except ScenarioError:
            return
        resolved = scenario.output if section == "output" else scenario.numerics
        if key in NUMERIC_BOUNDS:
            assert NUMERIC_BOUNDS[key](resolved[key]), (key, value)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(SHIPPED)),
        st.booleans(),
        st.dictionaries(
            st.one_of(st.sampled_from(ANY_NUMERICS_KEY), st.text(max_size=6)), NUMBERS, max_size=6
        ),
    )
    def test_any_numerics_mapping_parses_to_the_schema_or_is_rejected(
        self, run_type, on_shipped, mapping
    ):
        doc = shipped_doc(run_type)
        doc["numerics"] = dict(doc.get("numerics") or {}, **mapping) if on_shipped else mapping
        try:
            scenario = parse_scenario(yaml.safe_dump(doc))
        except ScenarioError:
            return
        assert set(doc["numerics"]) <= NUMERICS_KEYS[run_type]
        assert set(scenario.numerics) == NUMERICS_KEYS[run_type]
        assert set(scenario.resolved) == {"run"} | SECTIONS[run_type]
        for key, value in scenario.numerics.items():
            if key in NUMERIC_BOUNDS and value is not None:
                assert NUMERIC_BOUNDS[key](value), (key, value)
        if run_type == "sample_paths":
            # one horizon; the runner's plan, not the parser, derives the steps
            assert (scenario.numerics["t_final"] is None) != (scenario.numerics["n_steps"] is None)

    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_resolve_exactly_their_schema(self, path):
        scenario = parse_scenario_file(path)
        assert set(scenario.resolved) == {"run"} | SECTIONS[scenario.run_type]
        assert set(scenario.numerics) == NUMERICS_KEYS[scenario.run_type]
        assert scenario.resolved.get("numerics", {}) == scenario.numerics

    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_resolved_records_every_given_key(self, path):
        doc = yaml.safe_load(path.read_text())
        resolved = parse_scenario_file(path).resolved
        assert resolved["run"] == doc.pop("run")
        for section, block in doc.items():
            for key, value in block.items():
                # key_im is recorded exactly when the imaginary part is nonzero
                given = bool(np.any(value)) if key.endswith("_im") else True
                assert (key in resolved[section]) == given, (section, key)
            for key in resolved[section]:
                if key.endswith("_im"):
                    assert np.any(block.get(key, 0.0)), (section, key)

    @pytest.mark.parametrize(
        "im", ["[[0.0, 0.0], [0.0, 0.0]]", "[[0.0, -0.5], [0.5, 0.0]]"], ids=["zero", "nonzero"]
    )
    def test_h_q_im_beside_h_q_parses(self, im):
        h_q = "h_q: [[0.0, 0.0], [0.0, 0.0]]\n"
        text = (SCENARIO_DIR / "evolve_qubit_decoherence.yaml").read_text()
        assert h_q in text
        scenario = parse_scenario(text.replace(h_q, f"{h_q}  h_q_im: {im}\n"))
        want = np.array(yaml.safe_load(im))
        assert np.array_equal(scenario.model.h_q, 1j * want)
        model = scenario.resolved["model"]
        assert model["h_q"] == [[0.0, 0.0], [0.0, 0.0]]
        assert model.get("h_q_im") == (want.tolist() if want.any() else None)

    @pytest.mark.parametrize("run_type", ["evolve", "unravel", "sample_paths", "zerodim"])
    def test_keys_of_other_run_types_rejected(self, run_type):
        for key in sorted(set(ANY_NUMERICS_KEY) - NUMERICS_KEYS[run_type]):
            text, line = with_key(SHIPPED[run_type], "numerics", key, "1")
            with pytest.raises(
                ScenarioError, match=rf"unknown key '{key}' in section 'numerics' \(line {line}\)"
            ):
                parse_scenario(text)

    # cp_check's extra sections: TestGate::test_run_rejects_like_check_before_out
    @pytest.mark.parametrize("run_type", ["sample_paths", "unravel", "zerodim"])
    def test_sections_of_other_run_types_rejected(self, run_type):
        shipped = (SCENARIO_DIR / SHIPPED[run_type]).read_text()
        line = len(shipped.splitlines()) + 1
        for section in sorted(SECTIONS["evolve"] - SECTIONS[run_type]):
            text = shipped + f"{section}:\n  t_final: 1.0\n"
            with pytest.raises(
                ScenarioError, match=rf"unknown key '{section}' in section '<top>' \(line {line}\)"
            ):
                parse_scenario(text)

    @pytest.mark.parametrize(
        "name,old,new,line",
        [
            ("evolve_free_diffusion.yaml", "d2: [0.5]", "d2: [1" + "0" * 400 + "]", 7),
            ("cp_check_saturated.yaml", "d2: [[0.125]]", "d2: [[1" + "0" * 400 + "]]", 5),
        ],
        ids=["vector", "matrix"],
    )
    def test_list_entry_too_large_for_a_float_rejected(self, name, old, new, line):
        text = (SCENARIO_DIR / name).read_text()
        assert old in text
        too_large = rf"key 'd2' in section 'model' is too large for a float \(line {line}\)"
        with pytest.raises(ScenarioError, match=too_large):
            parse_scenario(text.replace(old, new))


class TestShippedScenarios:
    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_runs_and_is_deterministic(self, path, tmp_path):
        scenario = parse_scenario_file(path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_scenario(scenario, out_a)
        run_scenario(parse_scenario_file(path), out_b)
        files_a = sorted(os.listdir(out_a))
        assert files_a, "run produced no artifacts"
        assert files_a == sorted(os.listdir(out_b))
        for name in files_a:
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
            # provenance: every artifact embeds the resolved scenario
            content = (out_a / name).read_text()
            assert "scenario" in content

    def test_seed_override_is_recorded_in_every_artifact(self, tmp_path):
        run_scenario(parse_scenario_file(SCENARIO_DIR / "unravel_qubit.yaml"), tmp_path, seed=8)
        for name in sorted(os.listdir(tmp_path)):
            lines = (tmp_path / name).read_text().splitlines()
            provenance = [line for line in lines if line.startswith("# scenario ")]
            assert len(provenance) == 1, name
            assert json.loads(provenance[0][len("# scenario "):])["numerics"]["seed"] == 8, name

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused_before_out(self, seed, tmp_path, capsys):
        path = SCENARIO_DIR / "unravel_qubit.yaml"
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            run_scenario(parse_scenario_file(path), tmp_path / "lib", seed=seed)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path), "--out", str(tmp_path / "cli"), "--seed", str(seed)])
        assert exit_info.value.code == 2
        assert f"argument --seed: must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "lib").exists() and not (tmp_path / "cli").exists()

    def test_seed_changes_unravel_output(self, tmp_path):
        path = SCENARIO_DIR / "unravel_qubit.yaml"
        run_scenario(parse_scenario_file(path), tmp_path / "a", seed=7)
        run_scenario(parse_scenario_file(path), tmp_path / "b", seed=8)
        a = (tmp_path / "a" / "ensemble_summary.txt").read_text()
        b = (tmp_path / "b" / "ensemble_summary.txt").read_text()
        assert a != b


GATE_REJECTS = {
    # 4 D2 D0 = 0.08 < 1 everywhere: the CP trade-off fails
    "sample_paths_cp_violated": (
        "sample_paths_qdep.yaml", ("d2: [0.4, 0.05]", "d2: [0.01]"), "violates complete positivity",
    ),
    # k(z) = 1 + z vanishes at z = -1, inside the z grid
    "unravel_k_vanishes": (
        "unravel_feedback.yaml", ("k_slope: 0.3", "k_slope: 1.0"), "k(z) must be positive",
    ),
    # one step of 0.3 where the CFL-style limit is 0.0128
    "evolve_dt_above_cfl": (
        "evolve_free_diffusion.yaml", ("safety: 0.4", "dt: 0.5"),
        "grid step 0.3 (from numerics dt or safety, and t_final) exceeds the CFL-style limit",
    ),
    # ten steps of 0.0128 x (1 + 5e-10): %g would print the step as the limit
    "evolve_step_just_above_cfl": (
        "evolve_free_diffusion.yaml",
        ("t_final: 0.3\n  safety: 0.4", "t_final: 0.128000000064\n  safety: 1.0"),
        "grid step 0.012800000006400001 (from numerics dt or safety, and t_final) exceeds the "
        "CFL-style limit 0.0128\n",
    ),
    "evolve_infinitely_many_steps": (
        "evolve_free_diffusion.yaml",
        ("t_final: 0.3\n  safety: 0.4", "t_final: 1.0e+300\n  dt: 1.0e-300"),
        "t_final 1e+300 is not a finite number of steps of 1e-300",
    ),
    "sample_paths_infinitely_many_steps": (
        "sample_paths.yaml",
        ("dt: 1.0e-2\n  n_steps: 100", "dt: 1.0e-300\n  t_final: 1.0e+300"),
        "t_final 1e+300 is not a finite number of steps of 1e-300",
    ),
    # H_q does not commute with V_I, so branch (0, 1) has no fixed eigenbasis
    "sample_paths_pair_without_common_basis": (
        "sample_paths_qdep.yaml",
        ("h_q: [[0.0, 0.0], [0.0, 0.0]]", "h_q: [[0.0, 0.5], [0.5, 0.0]]"),
        "model is not diagonal in a common q-independent basis",
    ),
}

# numerics a run type does not read, or lacks, or may not have: rejected by
# the parser (exit 2) for check and run alike
PARSE_REJECTS = {
    "evolve_without_t_final": (
        "evolve_free_diffusion.yaml", ("  t_final: 0.3\n", ""),
        r"missing required key 't_final' in section 'numerics'",
    ),
    "evolve_with_n_paths": (
        "evolve_free_diffusion.yaml", ("safety: 0.4\n", "safety: 0.4\n  n_paths: 10\n"),
        r"unknown key 'n_paths' in section 'numerics' \(line 21\)",
    ),
    "sample_paths_without_dt": (
        "sample_paths.yaml", ("  dt: 1.0e-2\n", ""),
        r"missing required key 'dt' in section 'numerics'",
    ),
    "sample_paths_t_final_and_n_steps": (
        "sample_paths.yaml", ("n_steps: 100\n", "n_steps: 100\n  t_final: 1.0\n"),
        r"key 't_final' \(line 15\) and key 'n_steps' \(line 14\) in section 'numerics'",
    ),
    "zerodim_order_negative": (
        "zerodim_perturbative.yaml", ("order: 2", "order: -1"),
        r"key 'order' in section 'numerics' must lie in \[0, 3\].* \(line 13\)",
    ),
    "zerodim_order_above_cap": (
        "zerodim_perturbative.yaml", ("order: 2", "order: 7"),
        r"key 'order' in section 'numerics' must lie in \[0, 3\].* \(line 13\)",
    ),
    # model, grid and initial numbers are finite; widths are positive
    "unravel_k_nan": (
        "unravel_qubit.yaml", ("k: 1.0", "k: .nan"),
        r"key 'k' in section 'model' must be finite, got nan \(line 6\)",
    ),
    "unravel_z0_nan": (
        "unravel_qubit.yaml", ("z0: 0.0", "z0: .nan"),
        r"key 'z0' in section 'initial' must be finite, got nan \(line 12\)",
    ),
    "evolve_h_q_infinite": (
        "evolve_qubit_decoherence.yaml",
        ("h_q: [[0.0, 0.0], [0.0, 0.0]]", "h_q: [[.inf, 0.0], [0.0, 0.0]]"),
        r"key 'h_q' in section 'model' must be finite, got inf \(line 7\)",
    ),
    "evolve_mass_nan": (
        "evolve_free_diffusion.yaml", ("mass: 1.0", "mass: .nan"),
        r"key 'mass' in section 'model' must not be nan, got nan \(line 4\)",
    ),
    # the grid truncates phase space; no other boundary is accepted
    "grid_boundary_periodic": (
        "evolve_free_diffusion.yaml", ("grid:\n", "grid:\n  boundary: periodic\n"),
        r"key 'boundary' in section 'grid' must be one of \['truncate'\], got 'periodic' "
        r"\(line 9\)",
    ),
    # trace_abort may not exceed the 1e-4 leakage cap
    "evolve_trace_abort_above_leak_cap": (
        "evolve_free_diffusion.yaml", ("safety: 0.4\n", "safety: 0.4\n  trace_abort: 1.0e-3\n"),
        r"key 'trace_abort' in section 'numerics' must lie in \(0, 1e-04\] \(the leakage cap\), "
        r"got 0\.001 \(line 21\)",
    ),
    # <key>_im is read only beside a matrix key <key>
    "evolve_t_final_im": (
        "evolve_free_diffusion.yaml", ("safety: 0.4\n", "safety: 0.4\n  t_final_im: 7\n"),
        r"unknown key 't_final_im' in section 'numerics' \(line 21\)",
    ),
    "evolve_mass_im": (
        "evolve_free_diffusion.yaml", ("mass: 1.0\n", "mass: 1.0\n  mass_im: 2.0\n"),
        r"unknown key 'mass_im' in section 'model' \(line 5\)",
    ),
    "evolve_stride_im": (
        "evolve_free_diffusion.yaml", ("stride: 10\n", "stride: 10\n  stride_im: 3\n"),
        r"unknown key 'stride_im' in section 'output' \(line 23\)",
    ),
    "evolve_rho_q_im_without_rho_q": (
        "evolve_free_diffusion.yaml", ("sigma_p: 0.5\n", "sigma_p: 0.5\n  rho_q_im: [[0.5]]\n"),
        r"key 'rho_q_im' in section 'initial' is given without key 'rho_q' \(line 18\)",
    ),
    "evolve_v_i_matrix_im_without_v_i_matrix": (
        "evolve_free_diffusion.yaml",
        ("h_q: [[0.0]]\n", "h_q: [[0.0]]\n  v_i_matrix_im: [[1.0]]\n"),
        r"key 'v_i_matrix_im' in section 'model' is given without key 'v_i_matrix' \(line 7\)",
    ),
    "evolve_h_q_im_of_another_shape": (
        "evolve_qubit_decoherence.yaml",
        ("h_q: [[0.0, 0.0], [0.0, 0.0]]\n",
         "h_q: [[0.0, 0.0], [0.0, 0.0]]\n  h_q_im: [[0.0, 0.5, 0.0]]\n"),
        r"key 'h_q_im' in section 'model' must match the shape of 'h_q' \(line 8\)",
    ),
    "evolve_sigma_q_zero": (
        "evolve_free_diffusion.yaml", ("sigma_q: 0.5", "sigma_q: 0.0"),
        r"key 'sigma_q' in section 'initial' must be > 0, got 0.0 \(line 16\)",
    ),
    # the initial quantum data must be a state of the model's levels
    **{
        f"evolve_rho_q_{name}": (
            "evolve_qubit_decoherence.yaml", ("rho_q: [[0.5, 0.5], [0.5, 0.5]]", f"rho_q: {rho}"),
            rf"key 'rho_q' in section 'initial' must {why} \(line 22\)",
        )
        for name, rho, why in (
            ("not_hermitian", "[[0.5, 0.9], [0.1, 0.5]]", "be Hermitian"),
            ("negative", "[[1.0, 0.0], [0.0, -0.5]]", "be positive semidefinite"),
            ("3x3", "[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]",
             "be 2 x 2 to fit the model, got 3 x 3"),
            ("zero", "[[0.0, 0.0], [0.0, 0.0]]", "have a positive trace"),
        )
    },
    "evolve_rho_q_missing": (
        "evolve_qubit_decoherence.yaml", ("  rho_q: [[0.5, 0.5], [0.5, 0.5]]\n", ""),
        r"key 'rho_q' in section 'initial' must be given: its default \[\[1.0\]\] does not fit "
        r"a 2-level model",
    ),
    "unravel_psi_zero": (
        "unravel_qubit.yaml",
        ("psi: [[0.70710678118654746], [0.70710678118654746]]", "psi: [[0.0], [0.0]]"),
        r"key 'psi' in section 'initial' must have a nonzero norm \(line 13\)",
    ),
    "unravel_psi_3_entries": (
        "unravel_qubit.yaml",
        ("psi: [[0.70710678118654746], [0.70710678118654746]]", "psi: [[0.6], [0.8], [0.0]]"),
        r"key 'psi' in section 'initial' must have 2 entries to fit the model, got 3 \(line 13\)",
    ),
    **{
        f"sample_paths_branch_b_{b}": (
            "sample_paths_qdep.yaml", ("branch_b: 1", f"branch_b: {b}"),
            rf"key 'branch_b' in section 'initial' must lie in \[0, 2\) to fit the model, "
            rf"got {b} \(line 16\)",
        )
        for b in (5, -1)
    },
    **{
        f"{base[:-5]}_seed_{seed}": (
            base, (f"seed: {old}", f"seed: {seed}"),
            rf"key 'seed' in section 'numerics' must lie in \[0, 2\*\*64\), got {seed} "
            rf"\(line {line}\)",
        )
        for base, old, line in (("unravel_qubit.yaml", 7, 19), ("sample_paths.yaml", 3, 16))
        for seed in (-1, 2**64)
    },
    **{
        f"cp_check_with_{section}": (
            "cp_check_saturated.yaml", ("[[2.0]]\n", f"[[2.0]]\n{section}:\n  banana: 1\n"),
            rf"unknown key '{section}' in section '<top>' \(line 8\)",
        )
        for section in ("grid", "initial", "numerics", "output")
    },
}


class TestGate:
    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_run_and_check_agree_on_shipped_scenarios(self, path, tmp_path):
        run_status = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert main(["check", str(path)]) == run_status == 0

    @pytest.mark.parametrize("name", sorted(GATE_REJECTS))
    def test_run_fails_like_check_and_writes_nothing(self, name, tmp_path, capsys):
        base, (old, new), cause = GATE_REJECTS[name]
        text = (SCENARIO_DIR / base).read_text()
        assert old in text
        path = tmp_path / "variant.yaml"
        path.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["check", str(path)]) == 1
        check_err = capsys.readouterr().err
        assert main(["run", str(path), "--out", str(out)]) == 1
        run_err = capsys.readouterr().err
        assert cause in check_err
        assert run_err == check_err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(PARSE_REJECTS))
    def test_run_rejects_like_check_before_out(self, name, tmp_path, capsys):
        base, (old, new), cause = PARSE_REJECTS[name]
        text = (SCENARIO_DIR / base).read_text()
        assert old in text
        path = tmp_path / "variant.yaml"
        path.write_text(text.replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["check", str(path)]) == 2
        check_err = capsys.readouterr().err
        assert main(["run", str(path), "--out", str(out)]) == 2
        run_err = capsys.readouterr().err
        assert re.search(cause, check_err), check_err
        assert run_err == check_err
        assert not out.exists()


class TestCli:
    def test_run_and_compare(self, tmp_path, capsys):
        scenario = str(SCENARIO_DIR / "unravel_qubit.yaml")
        assert main(["run", scenario, "--out", str(tmp_path / "x")]) == 0
        assert main(["run", scenario, "--out", str(tmp_path / "y")]) == 0
        code = main([
            "compare",
            str(tmp_path / "x" / "ensemble_summary.txt"),
            str(tmp_path / "y" / "ensemble_summary.txt"),
            "--metric", "l1",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(out) == 0.0

    def test_evolve_summary_reports_steps_and_binding_cfl_term(self, tmp_path, capsys):
        path = SCENARIO_DIR / "evolve_qubit_decoherence.yaml"
        scenario = parse_scenario_file(str(path))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        terms = cfl_terms(scenario.model, scenario.grid)
        limit = cfl_limit(scenario.model, scenario.grid)
        assert isinstance(limit, float)
        assert summary["cfl_limit"] == limit == terms[summary["cfl_term"]] == min(terms.values())
        assert summary["cfl_term"] == "transport"
        t_final = scenario.numerics["t_final"]
        assert (summary["dt"], summary["n_steps"]) == (0.01, 25)
        assert summary["dt"] * summary["n_steps"] == pytest.approx(t_final, rel=1e-12)
        # the summary is stdout only: no artifact carries it
        for artifact in out.iterdir():
            assert "cfl_term" not in artifact.read_text()

    @pytest.mark.parametrize("name", ["unravel_qubit.yaml", "unravel_feedback.yaml"])
    def test_unravel_summary_reports_steps_and_binding_cfl_term(self, name, tmp_path, capsys):
        path = SCENARIO_DIR / name
        scenario = parse_scenario_file(str(path))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        terms = cfl_terms(scenario.model, scenario.grid)
        limit = measurement_cfl_limit(scenario.model, scenario.grid)
        assert isinstance(limit, float)
        assert summary["cfl_limit"] == limit == terms[summary["cfl_term"]] == min(terms.values())
        assert "transport" not in terms
        # the trajectories step at numerics dt, shrunk to whole steps of t_final
        numerics = scenario.numerics
        assert summary["n_steps"] == round(numerics["t_final"] / numerics["dt"])
        assert summary["dt"] == numerics["t_final"] / summary["n_steps"]
        # trajectory0.csv has one row per step, at the planned dt
        times = read_table(out / "trajectory0.csv")[:, 0]
        assert len(times) == summary["n_steps"] + 1
        assert times[-1] == summary["n_steps"] * summary["dt"]
        # the ensemble's outside share and worst norm defect, from the same ensemble
        init = scenario.initial
        res = run_ensemble(scenario.model, init["psi"], init["z0"], summary["dt"],
                           summary["n_steps"], numerics["seed"], numerics["n_trajectories"],
                           z0_sigma=numerics["z0_sigma"])
        assert summary["outside_frac"] == outside_frac(res.z, scenario.grid) == 0.0
        assert summary["max_norm_defect"] == res.max_norm_defect
        # about 2 k dt xi^2 at the largest of n_trajectories x n_steps normals xi
        assert 0.0 < summary["max_norm_defect"] < 0.1
        for artifact in out.iterdir():
            text = artifact.read_text()
            assert "cfl_term" not in text
            assert "outside_frac" not in text and "max_norm_defect" not in text

    def test_sample_paths_summary_resolves_n_steps_from_t_final(self, tmp_path, capsys):
        # n_steps is derived by the run's plan (the parser keeps t_final only)
        text = (SCENARIO_DIR / "sample_paths.yaml").read_text()
        path = tmp_path / "horizon.yaml"
        path.write_text(text.replace("n_steps: 100", "t_final: 0.996"))
        scenario = parse_scenario_file(str(path))
        assert (scenario.numerics["t_final"], scenario.numerics["n_steps"]) == (0.996, None)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["dt"], summary["n_steps"]) == (0.996 / 100, 100)
        times = read_table(out / "path0.csv")[:, 0]
        assert len(times) == 101
        assert times[-1] == pytest.approx(0.996, rel=1e-12)
        # the provenance header records the scenario as given
        assert '"n_steps": null' in (out / "path0.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize(
        "horizon,n_steps", [("n_steps: 100", 100), ("t_final: 1.0", 100)], ids=["n_steps", "t_final"]
    )
    def test_sample_paths_summary_reports_steps(self, horizon, n_steps, tmp_path, capsys):
        text = (SCENARIO_DIR / "sample_paths.yaml").read_text()
        path = tmp_path / "paths.yaml"
        path.write_text(text.replace("n_steps: 100", horizon))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"n_paths": 300, "dt": 0.01, "n_steps": n_steps}

    def test_sample_paths_shrink_dt_to_end_at_t_final(self, tmp_path, capsys):
        # 1.0 / 0.3 rounds up to 4 steps, which reach t_final (not t = 0.9)
        # without a step longer than dt
        text = (SCENARIO_DIR / "sample_paths.yaml").read_text()
        path = tmp_path / "short.yaml"
        path.write_text(text.replace("dt: 1.0e-2\n  n_steps: 100", "dt: 0.3\n  t_final: 1.0"))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["dt"], summary["n_steps"]) == (0.25, 4)
        times = read_table(out / "path0.csv")[:, 0]
        assert len(times) == 5
        assert times[-1] == pytest.approx(1.0, rel=1e-12)

    # (scenario, replaced, replacement, planned steps): the Euler-Maruyama
    # steps, evolve's grid steps and unravel's grid reference alike
    NEVER_LONGER_THAN_DT = {
        # 0.44 / 0.3 = 1.47 rounds to one step of 0.44; two of 0.22 stay within dt
        "sample_paths": ("sample_paths.yaml", "dt: 1.0e-2\n  n_steps: 100",
                         "dt: 0.3\n  t_final: 0.44", "steps", (0.22, 2)),
        "unravel_trajectories": ("unravel_qubit.yaml", "dt: 1.0e-3\n  t_final: 0.2",
                                 "dt: 0.3\n  t_final: 0.44", "steps", (0.22, 2)),
        # 0.25 / 0.0078 = 32.05: 32 steps would each be 0.0078125 long
        "evolve": ("evolve_qubit_decoherence.yaml", "safety: 0.4", "dt: 0.0078", "steps",
                   (0.25 / 33, 33)),
        # 0.2 / (0.4 x 0.0128) = 39.06: 39 steps would each be 0.005128 long
        "unravel_reference": ("unravel_qubit.yaml", "", "", "reference", (0.005, 40)),
    }

    @pytest.mark.parametrize("name", sorted(NEVER_LONGER_THAN_DT))
    def test_euler_maruyama_steps_never_exceed_dt(self, name, tmp_path):
        base, old, new, which, want = self.NEVER_LONGER_THAN_DT[name]
        text = (SCENARIO_DIR / base).read_text()
        assert old in text
        path = tmp_path / base
        path.write_text(text.replace(old, new))
        steps, reference = runner._plan(parse_scenario_file(str(path)))
        planned = (steps["dt"], steps["n_steps"]) if which == "steps" else reference
        assert planned == want

    def test_reference_may_shrink_below_the_limit(self, tmp_path):
        # one reference step of 0.0179 would exceed the limit 0.0128; two of
        # 0.00895 reach t_final within it
        text = (SCENARIO_DIR / "unravel_qubit.yaml").read_text()
        path = tmp_path / "short.yaml"
        path.write_text(text.replace("t_final: 0.2", "t_final: 0.0179\n  safety: 1.0"))
        _, reference = runner._plan(parse_scenario_file(str(path)))
        assert reference == (0.00895, 2)
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "convergence.csv").exists()

    @pytest.mark.parametrize("t_final,dt,n", [(0.15, 1e-3, 150), (0.2, 1e-3, 200), (1.0, 0.01, 100),
                                              (0.3, 0.1, 3), (0.7, 0.1, 7)])
    def test_whole_ratios_keep_their_step_count(self, t_final, dt, n):
        # round-off above a whole count (0.3 / 0.1 = 2.9999999999999996,
        # 0.7 / 0.1 = 6.999999999999999) adds no step
        assert runner._steps(t_final, dt) == (t_final / n, n)

    def test_steps_of_a_dividing_dt_are_kept(self):
        # t_final / (t_final / n) can exceed n by round-off (0.1 / (0.1 / 95)
        # = 95.00000000000001): that is no reason for another step
        for t_final in (0.1, 0.44, 2.5):
            for n in range(1, 3001):
                assert runner._steps(t_final, t_final / n) == (t_final / n, n)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    # the ratio 87.000000087 x (1 - 1e-9) rounds to 87 on the dot, and 87
    # steps would be one ulp longer than dt x (1 + 1e-9)
    @example(0.08700000008700001, 0.001)
    def test_steps_are_the_fewest_not_longer_than_dt(self, t_final, dt):
        dt_n, n = runner._steps(t_final, dt)
        assert n >= 1 and dt_n == t_final / n
        assert t_final / n <= dt * (1 + runner.STEP_ROUNDOFF)
        # one step fewer would be longer than dt
        assert n == 1 or t_final / (n - 1) > dt

    def test_check_command(self, capsys):
        assert main(["check", str(SCENARIO_DIR / "cp_check_saturated.yaml")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "Saturated"
        assert payload["tradeoff_verdict"] == "Saturated"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: cp_check\nmodel:\n  d2: [[1.0]]\n  d2: [[1.0]]\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "duplicate key" in capsys.readouterr().err

    def test_unreadable_input_path_exits_2(self, tmp_path, capsys):
        # a directory where an input file belongs: a usage error naming it, no traceback
        d = str(tmp_path)
        for argv in (["check", d], ["run", d, "--out", str(tmp_path / "o")], ["compare", d, d]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and d in err
        assert not (tmp_path / "o").exists()

    def test_invariant_breach_exits_nonzero(self, tmp_path, capsys):
        # a box far too small: mass leaks, trace drifts, run must abort
        leaky = tmp_path / "leaky.yaml"
        leaky.write_text(
            "run: evolve\n"
            "model:\n"
            "  mass: 1.0\n"
            "  h_q: [[0.0]]\n"
            "  d2: [1.0]\n"
            "grid:\n"
            "  q_min: -2.0\n"
            "  q_max: 2.0\n"
            "  q_points: 21\n"
            "  p_min: -1.5\n"
            "  p_max: 1.5\n"
            "  p_points: 21\n"
            "initial:\n"
            "  sigma_q: 0.4\n"
            "  sigma_p: 0.4\n"
            "numerics:\n"
            "  t_final: 2.0\n"
        )
        assert main(["run", str(leaky), "--out", str(tmp_path / "o")]) == 1
        assert "run failed" in capsys.readouterr().err
        # partial diagnostics are still dumped for post-mortem
        assert (tmp_path / "o" / "diagnostics.csv").exists()

    def test_compare_grid_mismatch(self, tmp_path, capsys):
        s1 = SCENARIO_DIR / "unravel_qubit.yaml"
        s2 = SCENARIO_DIR / "evolve_free_diffusion.yaml"
        main(["run", str(s1), "--out", str(tmp_path / "u")])
        main(["run", str(s2), "--out", str(tmp_path / "e")])
        code = main([
            "compare",
            str(tmp_path / "u" / "ensemble_summary.txt"),
            str(tmp_path / "e" / "final_state.txt"),
        ])
        assert code == 1
        assert "grids differ" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q_lo_b, p_lo_b",
    [(-4.0, -4.0), (-4.0, -1.0), (-1.0, -4.0)],
    ids=["q-and-p-extents", "q-extents", "p-extents"],
)
def test_compare_rejects_different_grids_of_one_shape(tmp_path, capsys, q_lo_b, p_lo_b):
    def dump(name, q_lo, p_lo):
        grid = PhaseGrid((GridAxis("q", q_lo, -q_lo, 9), GridAxis("p", p_lo, -p_lo, 9)))
        path = tmp_path / name
        save_state(gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5)), path)
        return str(path)

    a = dump("a.txt", -1.0, -1.0)
    b = dump("b.txt", q_lo_b, p_lo_b)
    assert main(["compare", a, b]) == 1
    err = capsys.readouterr().err
    assert "grids differ" in err and "lo=-4.0" in err
    with pytest.raises(ValueError, match="grids differ"):
        compare_artifacts(a, b)


def test_compare_artifacts_l1_linf(tmp_path):
    scenario = parse_scenario_file(SCENARIO_DIR / "evolve_free_diffusion.yaml")
    run_scenario(scenario, tmp_path / "a")
    run_scenario(scenario, tmp_path / "b", seed=1)  # evolve is seed-free
    a = tmp_path / "a" / "final_state.txt"
    b = tmp_path / "b" / "final_state.txt"
    assert compare_artifacts(a, b, "l1") == 0.0
    assert compare_artifacts(a, b, "linf") == 0.0
