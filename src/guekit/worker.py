"""A forked worker process that runs tasks and sends their outcomes back
through a pipe (POSIX fork).

`verify --suite all` runs its pure-Python suites in one; `sample` draws
half of its samples in one.  Callers import this module on those paths
only, so the table commands never load pickle.
"""

from __future__ import annotations

import os
import pickle
import signal


class Worker:
    """A forked child process that runs `tasks` (description -> callable
    without arguments) in order and pickles each one's outcome, its result
    or the exception it raised, to a pipe; it stops after the first
    exception.

    A fork starts with this process's modules, so the worker imports
    only what its tasks import; the child leaves through os._exit alone,
    so no cleanup or stream buffer of the parent runs or flushes in it.
    Call close() on every path, which kills the child if need be and
    waits for it.
    """

    def __init__(self, tasks):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    for task in tasks.values():
                        try:
                            outcome = task()
                        except Exception as exc:
                            outcome = exc
                        out.write(pickle.dumps(outcome))
                        out.flush()
                        if isinstance(outcome, Exception):
                            break
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pending = iter(tasks)  # descriptions of the outcomes not yet received
        self._results = open(read_fd, "rb")
        self._reaped = False

    def receive(self):
        """The result of the next task.  Raises the exception the task
        raised, or RuntimeError naming the task if the worker exited
        without reporting it."""
        what = next(self._pending)
        try:
            outcome = pickle.load(self._results)
        except (EOFError, pickle.UnpicklingError):
            _, status = os.waitpid(self.pid, 0)
            self._reaped = True
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(
                f"worker exited with status {code} before reporting {what}") from None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def close(self):
        """Kill the worker if it has not been waited for, and wait for it."""
        self._results.close()
        if not self._reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._reaped = True
