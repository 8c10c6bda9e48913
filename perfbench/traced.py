"""Run one ``cqsim`` command with spans around the public functions of each layer.

    python3 traced.py SPANS.json run scenario.yaml --out DIR

The wrappers live here, not in cqsim: each traced function is replaced at
every cqsim module that holds a reference to it (``runner`` imports
``evolve`` by name, ``generator`` imports ``d_dx``, ``paths`` imports
``diagonalize_model``, ...), so a call is recorded whichever module makes
it.  Spans (name, start, end, parent) are kept in memory and written to
SPANS.json when the command ends; `self_times` turns them into per-name
self time, the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (module, function) pairs; span names are "module.function" after the
# module that defines the function.
TRACED = (
    ("cli", "main"),
    ("scenario", "parse_scenario_file"),
    ("runner", "run_scenario"),
    ("runner", "check_scenario"),
    ("runner", "compare_artifacts"),
    ("psd", "schur_cp_check"),
    ("models", "validate_model"),
    ("models", "diagonalize_model"),
    ("grids", "d_dx"),
    ("grids", "d2_dx2"),
    ("state", "gaussian_product_state"),
    ("state", "min_cell_eigenvalue"),
    ("state", "save_state"),
    ("state", "state_from_text"),
    ("generator", "apply_generator"),
    ("generator", "measurement_generator"),
    ("generator", "evolve"),
    ("generator", "evolve_measurement"),
    ("generator", "cfl_limit"),
    ("generator", "measurement_cfl_limit"),
    ("unravel", "trajectory_rng"),
    ("unravel", "run_ensemble"),
    ("unravel", "bin_ensemble"),
    ("unravel", "run_trajectory"),
    ("paths", "sample_path_ensemble"),
    ("paths", "om_action"),
    ("paths", "anomalous_term"),
    ("paths", "fv_action"),
    ("zerodim", "moment_perturbative"),
    ("zerodim", "moment_quadrature"),
)
# (module, class, method)
TRACED_METHODS = (("generator", "EvolutionDiagnostics", "record"),)
# cqsim's modules, which are the benchmark's layers
LAYERS = ("cli", "runner", "scenario", "psd", "models", "grids", "state",
          "generator", "unravel", "paths", "zerodim")


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# -- counters taken at the traced calls ---------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _cells(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 1, "state")
    tracer.count("generator.apply_generator.cell_evals", state.cells.shape[0] * state.cells.shape[1])


def _saved_bytes(tracer, args, kwargs, result):
    tracer.count("state.save_state.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _read_bytes(tracer, args, kwargs, result):
    tracer.count("state.state_from_text.bytes", len(_arg(args, kwargs, 0, "text").encode()))


def _inside(tracer, args, kwargs, result):
    import numpy as np

    z = np.asarray(_arg(args, kwargs, 0, "z"), dtype=float)
    grid = _arg(args, kwargs, 2, "grid")
    edges = grid.edges(grid.axes[0].name)
    tracer.count("unravel.inside", int(((z >= edges[0]) & (z < edges[-1])).sum()))
    tracer.count("unravel.binned", int(z.size))


def _accepted(tracer, args, kwargs, result):
    # observers run only on return: a path that raised PathRejectedError has
    # an om_action span but is not counted here
    tracer.count("paths.accepted")


OBSERVERS = {
    "generator.apply_generator": _cells,
    "state.save_state": _saved_bytes,
    "state.state_from_text": _read_bytes,
    "unravel.bin_ensemble": _inside,
    "paths.om_action": _accepted,
}


def install(tracer: Tracer) -> None:
    """Replace every traced function at each cqsim module referencing it."""
    modules = [importlib.import_module("cqsim." + m) for m in LAYERS]
    modules.append(importlib.import_module("cqsim"))
    for mod_name, fn_name in TRACED:
        original = getattr(importlib.import_module("cqsim." + mod_name), fn_name)
        name = f"{mod_name}.{fn_name}"
        wrapped = tracer.wrap(name, original, OBSERVERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    for mod_name, cls_name, meth in TRACED_METHODS:
        cls = getattr(importlib.import_module("cqsim." + mod_name), cls_name)
        setattr(cls, meth, tracer.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))


# -- analysis -----------------------------------------------------------------


def self_times(spans) -> dict:
    """name -> (total self seconds, calls).

    Self time is a span's duration minus the union of its children's
    intervals, so it is never negative even for overlapping children.
    """
    children = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + max(0.0, (end - start) - covered), calls + 1)
    return out


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS.json <cqsim arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import cqsim.cli

    try:
        return cqsim.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
