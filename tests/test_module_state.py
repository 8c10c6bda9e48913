"""A run leaves cqsim's module state as it found it, whether it finishes or aborts."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import cqsim
from cqsim import runner
from cqsim.scenario import parse_scenario_file

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def module_globals():
    """(module name, global name) -> the object bound to it, for every cqsim module."""
    modules = [cqsim] + [
        importlib.import_module(f"cqsim.{info.name}") for info in pkgutil.iter_modules(cqsim.__path__)
    ]
    return {(mod.__name__, name): value for mod in modules for name, value in vars(mod).items()}


def test_runs_leave_every_module_global_bound_as_before(tmp_path):
    before = module_globals()
    for name in ("evolve_qubit_decoherence", "unravel_qubit"):
        runner.run_scenario(parse_scenario_file(SCENARIO_DIR / f"{name}.yaml"), tmp_path / name)
    aborting = tmp_path / "abort.yaml"
    aborting.write_text(
        (SCENARIO_DIR / "evolve_qubit_decoherence.yaml").read_text()
        .replace("numerics:\n", "numerics:\n  trace_abort: 1.0e-15\n")
    )
    with pytest.raises(runner.RunFailure, match="trace drift"):
        runner.run_scenario(parse_scenario_file(aborting), tmp_path / "abort")
    after = module_globals()
    assert after.keys() == before.keys()
    rebound = sorted(key for key, value in before.items() if after[key] is not value)
    assert rebound == []
