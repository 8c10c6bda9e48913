"""Resident memory of one in-process ``cqsim run``, phase by phase.

    python3 tools/phase_rss.py --workload grid_wide --seed 7 [--work DIR] [--compare]

Writes the workload's scenario files for ``--seed`` (`write_scenarios` of
``perfbench/workloads.py``) and runs its first ``run`` invocation's
scenario in this process, through `cqsim.cli.main`, from this checkout's
``src``.  A thread samples this process's VmRSS (``/proc/self/status``)
every millisecond.  One JSON line is printed per phase as it ends: the
initial state's coordinates, built a slab of q rows at a time
(``gaussian_product_state``), each RK4 step (``_rk4``), each diagnostics
record and the dump of the final state, written from its coordinates a
job's rows at a time (``save_state``).  An evolve run forms no grid of
complex cells; a formation outside a record or a dump, such as an abort
message's, prints a ``to_cells`` line.  Each line holds the phase's wall
seconds, and the VmRSS at its end and the largest sampled during it, in
MB (10^6 bytes).  Only this process prints.  A ``record`` line says
whether the record ran in a forked child (``forked``); if it did, the
line comes when this process has its row, and its seconds are this
process's wait for it.  A ``_rk4`` line says whether a forked record ran
beside the step (``beside_record``).  The run's own summary line comes
before the last line, which holds ``ru_maxrss`` of this process and of
its children (the forked workers and records), in MB.  With ``--compare``,
``python -m cqsim compare`` of the run's final state against itself then
runs in a fresh process, as a workload's ``compare`` invocation does, and
one more line gives its exit code, wall seconds and ``ru_maxrss`` (from
``wait4``, so its forked workers count), in MB.  A small launcher process
starts it, so that this process's memory does not count.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import make_workload, write_scenarios  # noqa: E402

from cqsim import cli, generator, runner, state  # noqa: E402


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
    depth = [0]  # inside a phase: a record or a dump converts its own slabs
    parent = os.getpid()
    forked = []  # the records running in forked children

    def phase(name, fn, nested=False, **extra):
        def wrapped(*args, **kwargs):
            if os.getpid() != parent or (nested and depth[0]):
                return fn(*args, **kwargs)  # a forked child prints nothing
            beside = {"beside_record": bool(forked)} if name == "_rk4" else {}
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
                                  "rss_mb": round(rss, 1), "peak_mb": round(peak, 1),
                                  **extra, **beside}),
                      flush=True)

        return wrapped

    def patch(owner, attr, name, nested=False, **extra):
        original = getattr(owner, attr)
        setattr(owner, attr, phase(name, original, nested, **extra))
        undo.append(lambda: setattr(owner, attr, original))

    child = generator._Child

    class RecordChild(child):
        """A forked record: its line comes when the parent has its row, timing the wait."""

        def __init__(self, job, calls):
            super().__init__(job, calls)
            forked.append(self)

        result = phase("record", child.result, forked=True)

        def close(self):
            if self in forked:
                forked.remove(self)
            super().close()

    sampler.take()
    patch(runner, "gaussian_product_state", "gaussian_product_state")
    patch(generator, "_rk4", "_rk4")
    patch(generator.EvolutionDiagnostics, "record", "record", forked=False)
    patch(state, "_hermitian_cells", "to_cells", nested=True)
    patch(runner, "save_state", "save_state")
    generator._Child = RecordChild
    undo.append(lambda: setattr(generator, "_Child", child))
    return lambda: [fn() for fn in reversed(undo)]


# Runs its command line and prints its exit code, wall seconds and wait4
# ru_maxrss (KiB).  A child forked from this process would count this
# process's memory in its ru_maxrss, so a small launcher starts it.
_LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def compare(state_path):
    """(exit code, wall seconds, ru_maxrss in MB) of ``cqsim compare`` of a dump against itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "cqsim", "compare", state_path, state_path, "--metric", "l1"]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER] + args, env=env, check=True,
                              capture_output=True, text=True)
    code, wall, maxrss = launched.stdout.split()
    return int(code), float(wall), int(maxrss) * 1024 / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--seed", type=int, required=True, help="the workload's seed")
    parser.add_argument("--work", help="a directory to run in, kept afterwards")
    parser.add_argument("--compare", action="store_true",
                        help="then time `cqsim compare` of the final state against itself")
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    scenario = next(inv.scenario for inv in workload.invocations if inv.kind != "compare")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        path = write_scenarios(workload, work)[scenario]
        out = os.path.join(work, "out")
        sampler = Sampler()
        undo = install(sampler)
        try:
            code = cli.main(["run", path, "--out", out])
        finally:
            undo()
            sampler.stop()
        maxrss = {who: resource.getrusage(getattr(resource, who)).ru_maxrss * 1024 / 1e6
                  for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}
        print(json.dumps({"exit": code, "ru_maxrss_mb": round(maxrss["RUSAGE_SELF"], 1),
                          "children_ru_maxrss_mb": round(maxrss["RUSAGE_CHILDREN"], 1)}), flush=True)
        if args.compare and code == 0:
            code, wall, rss = compare(os.path.join(out, "final_state.txt"))
            print(json.dumps({"phase": "compare", "exit": code, "wall_s": round(wall, 4),
                              "ru_maxrss_mb": round(rss, 1)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
