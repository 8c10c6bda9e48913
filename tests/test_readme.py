"""The README's library sketch runs as written."""

import pathlib
import re

import pytest

from cqsim.state import total_trace

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert total_trace(namespace["final"]) == pytest.approx(1.0, abs=1e-6)
