import filecmp
import json
import os
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsim.cli import main
from cqsim.runner import compare_artifacts, run_scenario
from cqsim.scenario import ScenarioError, parse_scenario, parse_scenario_file

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ALL_SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))

# what a parsed value of each bounded numerics key (or output.stride) obeys
NUMERIC_BOUNDS = {
    "dt": lambda v: 0.0 < v < float("inf"),
    "t_final": lambda v: 0.0 < v < float("inf"),
    "trace_abort": lambda v: 0.0 < v < float("inf"),
    "n_steps": lambda v: v >= 1,
    "n_trajectories": lambda v: v >= 1,
    "n_paths": lambda v: v >= 1,
    "stride": lambda v: v >= 1,
    "safety": lambda v: 0.0 < v <= 1.0,
    "z0_sigma": lambda v: 0.0 <= v < float("inf"),
}

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
            ("numerics", "stride", "0"),
            ("output", "stride", "0"),
            ("numerics", "z0_sigma", "-0.25"),
        ],
    )
    def test_out_of_range_numerics_rejected(self, section, key, value):
        text = MINIMAL_CP_CHECK + f"{section}:\n  {key}: {value}\n"
        with pytest.raises(ScenarioError, match=f"'{key}' in section '{section}'.*line 7"):
            parse_scenario(text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(
            [("numerics", key) for key in NUMERIC_BOUNDS] + [("numerics", "seed"),
             ("numerics", "order"), ("output", "stride")]
        ),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.integers(-(10**400), 10**400),
            st.floats(),
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
            st.lists(st.integers(), max_size=3),
        ),
    )
    def test_any_numerics_value_parses_within_bounds_or_is_rejected(self, where, value):
        section, key = where
        text = MINIMAL_CP_CHECK + yaml.safe_dump({section: {key: value}})
        try:
            scenario = parse_scenario(text)
        except ScenarioError:
            return
        resolved = scenario.output if section == "output" else scenario.numerics
        if key in NUMERIC_BOUNDS:
            assert NUMERIC_BOUNDS[key](resolved[key]), (key, value)


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


def test_compare_artifacts_l1_linf(tmp_path):
    scenario = parse_scenario_file(SCENARIO_DIR / "evolve_free_diffusion.yaml")
    run_scenario(scenario, tmp_path / "a")
    run_scenario(scenario, tmp_path / "b", seed=1)  # evolve is seed-free
    a = tmp_path / "a" / "final_state.txt"
    b = tmp_path / "b" / "final_state.txt"
    assert compare_artifacts(a, b, "l1") == 0.0
    assert compare_artifacts(a, b, "linf") == 0.0
