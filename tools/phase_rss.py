"""Resident memory of one in-process ``cqsim run``, phase by phase.

    python3 tools/phase_rss.py --workload grid_wide --seed 7 [--work DIR]

Writes the workload's scenario files for ``--seed`` (`write_scenarios` of
``perfbench/workloads.py``) and runs its first ``run`` invocation's
scenario in this process, through `cqsim.cli.main`, from this checkout's
``src``.  A thread samples this process's VmRSS (``/proc/self/status``)
every millisecond.  One JSON line is printed per phase as it ends: the
initial state (``gaussian_product_state``), each RK4 step (``_rk4``), each
diagnostics record, each conversion of the coordinates to cells outside a
record (``to_cells``: the final state's) and ``save_state``.  Each line
holds the phase's wall seconds, and the VmRSS at its end and the largest
sampled during it, in MB (10^6 bytes).  The run's own summary line comes
before the last line, which holds ``ru_maxrss`` of this process and of its
children (the pool's workers), in MB.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import make_workload, write_scenarios  # noqa: E402

from cqsim import cli, generator, runner  # noqa: E402


def vm_rss_mb():
    """This process's VmRSS, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmRSS line in /proc/self/status")


class Sampler:
    """The largest VmRSS sampled since the last `take`, read every ``period`` seconds."""

    def __init__(self, period=0.001):
        self.peak = vm_rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(period,), daemon=True)
        self._thread.start()

    def _run(self, period):
        while not self._stop.wait(period):
            self.peak = max(self.peak, vm_rss_mb())

    def take(self):
        """(VmRSS now, the largest sampled since the last call, now included)."""
        now = vm_rss_mb()
        peak, self.peak = max(self.peak, now), now
        return now, peak

    def stop(self):
        self._stop.set()
        self._thread.join()


def install(sampler):
    """Wrap each phase's function so that its end prints a line; returns the undo."""
    undo = []
    counts = {}
    depth = [0]  # inside a record, whose slabs are converted too

    def phase(name, fn, nested=False):
        def wrapped(*args, **kwargs):
            if nested and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                depth[0] -= 1
                counts[name] = counts.get(name, 0) + 1
                rss, peak = sampler.take()
                print(json.dumps({"phase": name, "call": counts[name], "wall_s": round(wall, 4),
                                  "rss_mb": round(rss, 1), "peak_mb": round(peak, 1)}),
                      flush=True)

        return wrapped

    def patch(owner, attr, name, nested=False):
        original = getattr(owner, attr)
        setattr(owner, attr, phase(name, original, nested))
        undo.append(lambda: setattr(owner, attr, original))

    sampler.take()
    patch(runner, "gaussian_product_state", "gaussian_product_state")
    patch(generator, "_rk4", "_rk4")
    patch(generator.EvolutionDiagnostics, "record", "record")
    patch(generator, "_hermitian_cells", "to_cells", nested=True)
    patch(runner, "save_state", "save_state")
    return lambda: [fn() for fn in reversed(undo)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seed", type=int, required=True, help="the workload's seed")
    parser.add_argument("--work", help="a directory to run in, kept afterwards")
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    scenario = next(inv.scenario for inv in workload.invocations if inv.kind != "compare")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        path = write_scenarios(workload, work)[scenario]
        sampler = Sampler()
        undo = install(sampler)
        try:
            code = cli.main(["run", path, "--out", os.path.join(work, "out")])
        finally:
            undo()
            sampler.stop()
    maxrss = {who: resource.getrusage(getattr(resource, who)).ru_maxrss * 1024 / 1e6
              for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}
    print(json.dumps({"exit": code, "ru_maxrss_mb": round(maxrss["RUSAGE_SELF"], 1),
                      "children_ru_maxrss_mb": round(maxrss["RUSAGE_CHILDREN"], 1)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
