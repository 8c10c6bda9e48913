"""Digests of every artifact of the shipped and the benchmark scenarios.

    python3 tools/artifact_digests.py --seed 7 [--work DIR] [--reference FINAL_STATE]

Runs ``python3 -m cqsim run``, from this checkout's ``src``, on the shipped
scenarios in ``scenarios/`` and on the benchmark workloads' scenario files
for ``--seed`` (written by `write_scenarios` of ``perfbench/workloads.py``),
then ``cqsim compare --metric l1`` of the ``grid_wide`` final state against
``--reference`` (by default, against itself).  Prints one JSON line per
artifact (scenario, file, sha256, size) and one per invocation (its exit
code and the sha256 of its stdout).  Every invocation runs in ``--work``
(a temporary directory, removed at the end, by default) with relative
paths, so the output of two checkouts that write the same bytes is the
same: run it in each and diff the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, make_workload, write_scenarios  # noqa: E402


def _cqsim(label, args, work, env):
    """Run one ``cqsim`` command in ``work`` and print its exit code and stdout digest."""
    proc = subprocess.run(
        [sys.executable, "-m", "cqsim", *args], cwd=work, env=env, capture_output=True
    )
    print(json.dumps({"scenario": label, "exit": proc.returncode,
                      "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}))


def _artifacts(label, out_dir):
    """Print the digest and size of every file under ``out_dir``, in sorted order."""
    for dirpath, dirnames, names in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            print(json.dumps({"scenario": label, "file": os.path.relpath(path, out_dir),
                              "sha256": digest, "size": os.path.getsize(path)}))


def digests(seed, work, reference=None):
    """Run every scenario in ``work`` and print the digests."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = []  # (label, scenario path and out dir, relative to work)
    shipped = os.path.join(work, "scenarios")
    os.makedirs(shipped)
    for fname in sorted(os.listdir(os.path.join(ROOT, "scenarios"))):
        shutil.copy(os.path.join(ROOT, "scenarios", fname), shipped)
        runs.append((f"scenarios/{fname}", os.path.join("scenarios", fname)))
    for name in WORKLOADS:
        for fname in sorted(write_scenarios(make_workload(name, seed), os.path.join(work, name))):
            runs.append((f"{name}/{fname}", os.path.join(name, fname)))
    for label, scenario in runs:
        out = os.path.splitext(scenario)[0] + ".out"
        _cqsim(label, ["run", scenario, "--out", out], work, env)
        _artifacts(label, os.path.join(work, out))
    state = os.path.join("grid_wide", "evolve.out", "final_state.txt")
    other = state if reference is None else os.path.abspath(reference)
    _cqsim("grid_wide/compare", ["compare", state, other, "--metric", "l1"], work, env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the workloads' seed")
    parser.add_argument("--work", help="an absent directory to run in, kept afterwards")
    parser.add_argument("--reference", help="a grid_wide final_state.txt to compare with")
    args = parser.parse_args(argv)
    if args.work is not None:
        os.makedirs(args.work)
        digests(args.seed, args.work, args.reference)
    else:
        with tempfile.TemporaryDirectory() as work:
            digests(args.seed, work, args.reference)


if __name__ == "__main__":
    main()
