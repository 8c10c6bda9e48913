"""Ordered map over independent jobs, in forked worker processes.

cqsim's one process pool: the unravel ensemble's chunks, the jobs of a
state dump being written and the two dumps `cqsim compare` reads all go
through `_map_chunks`.  Each job's result depends only on its arguments,
and results come back in job order, so an output never depends on the
number of workers.  Every job is submitted at once; a result that comes
back before its turn waits in this process, so what waits is bounded by
the size of a job's result, which the caller chooses (a dump's jobs are
small for that reason), not by the number of jobs.
"""

from __future__ import annotations

import os

# A pool worker's job, set by the pool's initializer.  Under the fork start
# method the initializer's arguments are inherited, not pickled: a job may
# hold a model, whose callables are lambdas, or a whole grid of cells.
_JOB = None


def _set_job(job):
    global _JOB
    _JOB = job


def _run_job(*args):
    return _JOB(*args)


def _map_chunks(job, chunks):
    """``job(*chunk)`` for each tuple in ``chunks``, yielded in order.

    Runs in one forked worker per CPU of the affinity mask, at most one per
    chunk; in this process when that is one worker, or when this process is
    daemonic and so may not have children.  A chunk's exception is raised
    when its turn comes, so the first failing chunk's error is the one seen.
    """
    workers = min(len(os.sched_getaffinity(0)), len(chunks))
    if workers > 1:
        # imported here: they cost every cqsim process about 10 ms and 2 MB,
        # so only a run that may start a pool loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if not multiprocessing.current_process().daemon:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_set_job, initargs=(job,)) as pool:
                yield from pool.map(_run_job, *zip(*chunks))
            return
    for chunk in chunks:
        yield job(*chunk)
