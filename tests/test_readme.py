"""The README's library sketch runs as written, and its scenario table matches the schema."""

import pathlib
import re

import pytest

from cqsim.generator import EvolutionDiagnostics
from cqsim.scenario import _BOUNDS, _SCHEMA
from cqsim.state import total_trace

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert total_trace(namespace["final"]) == pytest.approx(1.0, abs=1e-6)


def test_readme_scenarios_table_matches_the_schema():
    text = README.read_text()
    table = text[text.index("## Scenarios"):text.index("### Outputs per run type")]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]+)\| ([^|]+)\|$", table, flags=re.M)
    assert sorted(run for run, _, _ in rows) == sorted(_SCHEMA)
    for run_type, sections, keys in rows:
        schema = _SCHEMA[run_type]
        named = [re.sub(r" \(.*\)", "", name).strip() for name in sections.split(",")]
        assert named == list(schema), run_type
        output = {f"output.{key}" for key in schema.get("output", ())}
        want = set(schema.get("numerics", ())) | output
        assert set(re.findall(r"`([\w.]+)`", keys)) == want, run_type


def test_readme_bounds_paragraph_names_every_bounded_key():
    text = README.read_text()
    start = text.index("\nBounds: ")
    paragraph = text[start:text.index("\n\n", start)]
    named = {name.removeprefix("output.") for name in re.findall(r"`([\w.]+)`", paragraph)}
    assert set(_BOUNDS) <= named, sorted(set(_BOUNDS) - named)


def test_readme_diagnostics_columns_match_the_recorder():
    text = " ".join(README.read_text().split())
    columns = re.search(r"Diagnostics CSV columns are `([^`]+)`\.", text)
    assert columns is not None
    assert tuple(columns.group(1).split(", ")) == EvolutionDiagnostics.COLUMNS
