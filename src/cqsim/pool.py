"""Forked children: jobs run beside this process, results back through a pipe.

cqsim's one way to use more than one CPU is `os.fork`.  `_Child` forks a
child that calls a job on each of a list of argument tuples in turn and
sends each result, or the job's exception, back pickled through its own
pipe, where `_Child.result` reads them in order.  A child inherits what
this process holds, so a job may close over a model (whose callables are
lambdas) or a whole grid of cells: only results are pickled.  A child
leaves with `os._exit`, so it runs no exit handler and flushes none of
this process's streams.  One that ends before sending a result it owes
raises `ChildDied`, naming its exit status, and never hangs the reader.
`_Child.close` reaps a child, killing it first if results are still owed,
so every path out of a caller (a return, an error, a closed generator)
leaves no child behind.

Two kinds of work go through it:

* `_map_chunks`: the unravel ensemble's chunks, the jobs of a state dump
  being written and the two dumps `cqsim compare` reads.  Each job's
  result depends only on its arguments and results come back in job
  order, so an output never depends on the number of workers.
* a grid run's diagnostics records (`generator._evolve_loop`): on a grid
  of more than a block of coordinates each record but the last is taken
  in a child while this process takes the next RK4 step.

`_workers` keeps work in this process on one CPU and in a daemonic caller.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys

# the byte length of each pickled message, before it
_HEADER = struct.Struct("<Q")


class ChildDied(RuntimeError):
    """A forked child ended without sending a result it owed."""


def _workers(n_jobs):
    """How many forked children ``n_jobs`` independent jobs run in; 1 is this process.

    One per CPU of the affinity mask, at most one per job; 1 in a daemonic
    process, which may not have children.  Only `multiprocessing` makes a
    process daemonic, so it is asked only when it is already loaded: a run
    that never needs it does not pay for its import (about 10 ms and 2 MB).
    """
    workers = min(len(os.sched_getaffinity(0)), n_jobs)
    mp = sys.modules.get("multiprocessing")
    if workers > 1 and mp is not None and mp.current_process().daemon:
        return 1
    return workers


class _Child:
    """A forked child calling ``job(*args)`` for each tuple of ``calls``; `result` reads them in turn.

    The child sends each result as soon as it has it, and blocks while the
    pipe is full, so what waits for the reader is about one result.  After
    sending an exception it stops.
    """

    def __init__(self, job, calls):
        calls = list(calls)
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            _serve(job, calls, write)  # never returns
        os.close(write)
        self.pid = pid
        self._pipe = os.fdopen(read, "rb")
        self._owed = len(calls)
        self._status = None

    def result(self):
        """The next call's result; raises its exception, or `ChildDied` if the child ended first."""
        head = self._pipe.read(_HEADER.size)
        size = _HEADER.unpack(head)[0] if len(head) == _HEADER.size else -1
        body = self._pipe.read(size) if size > 0 else b""
        if len(body) != size:  # the pipe closed short of a whole message
            self.close()
            raise ChildDied(f"forked child {self.pid} {_ending(self._status)} before sending "
                            "a result")
        self._owed -= 1
        ok, value = pickle.loads(body)
        if not ok:
            raise value
        return value

    def close(self):
        """Reap the child, killed first if it still owes results; a second call does nothing."""
        if self._status is not None:
            return
        if self._owed:
            os.kill(self.pid, signal.SIGKILL)  # a zombie takes it harmlessly
        self._pipe.close()
        self._status = os.waitpid(self.pid, 0)[1]


def _ending(status):
    """How a child with wait status ``status`` ended, in words."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code} ({signal.Signals(-code).name})"
    return f"exited with status {code}"


def _serve(job, calls, fd):
    """The child's side of `_Child`: send each call's result, or its exception and stop; leave."""
    status = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            for args in calls:
                try:
                    ok, value = True, job(*args)
                except BaseException as exc:  # the caller raises it in its turn
                    ok, value = False, exc
                try:
                    body = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    what = "result" if ok else "error"
                    ok = False
                    body = pickle.dumps((False, RuntimeError(
                        f"a forked job's {what} could not be pickled: {exc!r}")))
                pipe.write(_HEADER.pack(len(body)))
                pipe.write(body)
                pipe.flush()
                if not ok:
                    break
        status = 0
    finally:
        os._exit(status)


def _map_chunks(job, chunks):
    """``job(*chunk)`` for each tuple in ``chunks``, yielded in order.

    Runs in `_workers` forked children, W of them: child w calls the job
    on chunks w, w + W, ... (`_Child`), and the results are read in chunk
    order.  A chunk's exception is raised when its turn comes, so the
    first failing chunk's error is the one seen.  With one worker every
    chunk runs in this process.  However the generator ends, its children
    are reaped.
    """
    chunks = list(chunks)
    workers = _workers(len(chunks))
    if workers <= 1:
        for chunk in chunks:
            yield job(*chunk)
        return
    children = []
    try:
        for w in range(workers):
            children.append(_Child(job, chunks[w::workers]))
        for i in range(len(chunks)):
            yield children[i % workers].result()
    finally:
        for child in children:
            child.close()
