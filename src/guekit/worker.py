"""The two-core split of `verify --suite all` and of the sampler's draw
(`sample`, `verify --suite density`): tasks run in this process and in
one forked child (POSIX fork), each pinned to its own CPU before any task
loads numpy, or all in this process where a split cannot help.

Callers import this module on those paths only, so the table commands
never load pickle.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys


def _split_cpus() -> list[int] | None:
    """Two CPUs of this process's affinity mask, one per process of a
    split, or None where a split cannot help: numpy has loaded already
    (its BLAS thread pool is sized and running), os.sched_setaffinity is
    missing, or the mask holds fewer than two CPUs."""
    if "numpy" in sys.modules or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))[:2]
    return cpus if len(cpus) == 2 else None


def run_beside(tasks):
    """The results of `tasks` (description -> callable without arguments),
    in task order.  The first task in that order to raise raises here, as
    when the tasks run in turn, which they do in this process if
    _split_cpus() finds no split.

    Otherwise the last task runs in this process and the others, in order,
    in a forked child; each process is pinned to one CPU first, so numpy,
    loaded by a task, sizes OpenBLAS for one thread.  The child starts
    with this process's modules, pickles each outcome, the result or the
    exception raised, to a pipe, stops after the first exception and
    leaves through os._exit alone, so no cleanup or stream buffer of this
    process runs or flushes in it.  A child that exits before reporting a
    task is a RuntimeError naming it.  The child is killed if need be and
    waited for, and this process's affinity mask restored, on every path.
    """
    cpus = _split_cpus()
    if cpus is None:
        return [task() for task in tasks.values()]
    *theirs, (_, last) = tasks.items()
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[1]})  # the child's CPU, which the fork inherits
    try:
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as received, open(write_fd, "wb") as sent:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for _, task in theirs:
                        try:
                            outcome = task()
                        except Exception as exc:
                            outcome = exc
                        sent.write(pickle.dumps(outcome))
                        sent.flush()
                        if isinstance(outcome, Exception):
                            break
                    status = 0
                finally:
                    os._exit(status)
            sent.close()  # so the child's exit ends the pipe
            reaped = False
            try:
                os.sched_setaffinity(0, {cpus[0]})
                try:
                    mine = last()
                except Exception as exc:  # raised below, unless an earlier task raised
                    mine = exc
                results = []
                for what, _ in theirs:
                    try:
                        outcome = pickle.load(received)
                    except (EOFError, pickle.UnpicklingError):
                        _, status = os.waitpid(pid, 0)
                        reaped = True
                        code = os.waitstatus_to_exitcode(status)
                        raise RuntimeError(f"worker exited with status {code} "
                                           f"before reporting {what}") from None
                    if isinstance(outcome, Exception):
                        raise outcome
                    results.append(outcome)
                if isinstance(mine, Exception):
                    raise mine
                return results + [mine]
            finally:
                if not reaped:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    finally:
        os.sched_setaffinity(0, mask)
