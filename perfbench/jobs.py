"""Run one guekit CLI process per job, isolated, with its rusage.

Every job gets a fresh empty directory as its working directory, HOME,
XDG_CACHE_HOME and TMPDIR, so no state or disk cache survives from one job
to the next; it is removed, with the job's captured output, when the job
ends.  BLAS and OpenMP
pools are capped at the CPUs this process may use.  A job that outlives
its timeout is killed with its process group and counts as failed.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import Job

JOB_TIMEOUT_S = 60.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TRACER = Path(__file__).with_name("tracer.py")


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class JobResult:
    """One finished process.  `problems` and `parse_s` (the time
    OutputRecord.from_csv took on its output) are filled by the check,
    `slot_s` (the whole run() call, sandbox set-up included) by the loop
    that times jobs_per_s."""

    job: Job | None
    args: tuple[str, ...]
    spawn_t: float
    wall_s: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    maxrss_kib: int
    cpu_s: float
    spans: bytes | None = None
    problems: list[str] = field(default_factory=list)
    parse_s: float = 0.0
    slot_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.timed_out or self.returncode != 0 or bool(self.problems)


class Runner:
    """Spawns guekit from `src_dir` with a per-job sandbox under `work_dir`."""

    def __init__(self, src_dir: Path, work_dir: Path, blas_threads: int,
                 timeout_s: float = JOB_TIMEOUT_S):
        self.src_dir = src_dir
        self.jobs_dir = work_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.blas_threads = blas_threads
        self.timeout_s = timeout_s

    def env(self, home: str) -> dict[str, str]:
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "LANG": "C.UTF-8",
            "HOME": home,
            "XDG_CACHE_HOME": home,
            "TMPDIR": home,
            "PYTHONPATH": str(self.src_dir),
        }
        env.update({name: str(self.blas_threads) for name in BLAS_ENV})
        return env

    def argv(self, args: tuple[str, ...], spans_path: str | None, job_id: str) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "guekit.cli", *args]
        return [sys.executable, str(TRACER), spans_path, job_id, "--", *args]

    def run(self, args: tuple[str, ...], job: Job | None = None, traced: bool = False,
            argv: list[str] | None = None) -> JobResult:
        job_dir = tempfile.mkdtemp(prefix="job-", dir=self.jobs_dir)
        try:
            home = os.path.join(job_dir, "home")
            os.mkdir(home)
            spans_path = os.path.join(job_dir, "spans.bin") if traced else None
            job_id = f"{job.round}.{job.index}" if job else "setup"
            command = argv or self.argv(args, spans_path, job_id)
            out_path = os.path.join(job_dir, "stdout")
            err_path = os.path.join(job_dir, "stderr")
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = clock()
                proc = subprocess.Popen(command, cwd=home, env=self.env(home),
                                        stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                        start_new_session=True)
            timed_out, status, usage = _wait(proc, self.timeout_s)
            wall = clock() - t0
            spans = None
            if spans_path and os.path.exists(spans_path):
                spans = Path(spans_path).read_bytes()
            return JobResult(
                job=job, args=args, spawn_t=t0, wall_s=wall,
                returncode=os.waitstatus_to_exitcode(status), timed_out=timed_out,
                stdout=Path(out_path).read_text(errors="replace"),
                stderr=Path(err_path).read_text(errors="replace"),
                maxrss_kib=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime,
                spans=spans,
            )
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)


def _wait(proc: subprocess.Popen, timeout_s: float):
    """wait4 on the child, killing its process group after timeout_s."""
    done = threading.Event()
    fired = threading.Event()

    def kill():
        if not done.is_set():
            fired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: take the job down with us
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        done.set()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return fired.is_set(), status, usage
