"""guekit benchmark: each job is a fresh `guekit` CLI process.

    python3 perfbench/run.py --workload {tables,sample,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a guekit checkout.  It byte-compiles `src/`, times
`guekit --help` (set-up), then runs whole rounds of the workload's jobs as
a closed loop with one client, RUN_JOBS[workload] jobs for S=25 and
proportionally more or fewer for other S.  Every job's output is checked
against the oracles in checks.py.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs each job of about S/2 seconds
of rounds twice in a row, untraced and under tracer.py, and reports the
per-layer metrics and the tracing overhead.  On tables it then runs the
wilson and density shapes that fail their checks at seed once each,
outside the timed phase, and reports whether each still fails; they count
in no metric and not in attempted/failed.  Human-readable lines come
first; the last line of stdout is one JSON object.  A results file with
provenance goes to .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, layers  # noqa: E402
from perfbench.jobs import JobResult, Runner, clock, cpu_count  # noqa: E402
from perfbench.workloads import WORKLOADS, known_defect_jobs, round_jobs  # noqa: E402

# (metric, unit): the end-to-end metrics of BENCHMARK.json, in print order.
END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
# failed_frac is printed with them; the JSON carries it as attempted/failed.
E2E_UNITS = dict(END_TO_END, failed_frac="ratio")
SETUP_RUNS = 5
TAIL_BEYOND = 10
# Jobs in a run of REFERENCE_SECONDS; --seconds scales them.  They put the
# tail at or above the median as far as the run budget allows (all runs of
# all workloads must fit in under an hour).  On tables it is p70.6, among
# the Harer-Zagier jobs.  On sample it is p58.3, among the N=8 and N=32
# jobs: the N=64 third lies above it, so a slowdown confined to N=64 moves
# jobs_per_s only.  A verify job takes about 3 s, too long for the 21 jobs
# the median would need, so verify runs TAIL_BEYOND jobs and its tail is
# their maximum.
RUN_JOBS = {"tables": 34, "sample": 24, "verify": TAIL_BEYOND}
REFERENCE_SECONDS = 25.0
# No new round starts after this many seconds, so a run ends well within 180 s.
HARD_STOP_S = 120.0
# Calibration job: a fresh interpreter that imports numpy and then does
# fixed work of the kinds the jobs do, no guekit code: Fraction sums, an
# interpreter loop and a batch of 64x64 eigvalsh under the BLAS thread cap.
# It prints how long that work took, which splits its wall time into a
# start-up part (interpreter and imports) and a compute part.  A shared VM
# changes speed by up to 1.7x for minutes at a time, and start-up and
# compute can drift apart.  A calibration job runs before each set-up run,
# before the first job and then before any job that starts
# CALIBRATE_EVERY_S or more after the last one.  Each phase's host speed is
# the median of each part over its nominal value (HostSpeed), and the raw
# values are printed beside the scaled ones.
CALIBRATION = ("import time\n"
               "from fractions import Fraction\n"
               "import numpy as np\n"
               "t0 = time.perf_counter()\n"
               "total = Fraction(0)\n"
               "for i in range(1, 8000):\n"
               "    total += Fraction(1, i)\n"
               "x = 0\n"
               "for i in range(400_000):\n"
               "    x += i * i % 7\n"
               "a = np.random.default_rng(1).standard_normal((240, 64, 64))\n"
               "np.linalg.eigvalsh(a + a.transpose(0, 2, 1))\n"
               "print(time.perf_counter() - t0)\n")
CALIBRATION_STARTUP_NOMINAL_S = 0.2
CALIBRATION_COMPUTE_NOMINAL_S = 0.2
CALIBRATE_EVERY_S = 2.0
WORK_DIR = ".perfbench-work"


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n - k


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds holding about RUN_JOBS * seconds / REFERENCE_SECONDS jobs.

    The count depends only on the arguments, so every run of a workload
    has the same job mix and the same tail percentile."""
    per_round = len(round_jobs(workload, 0, 0))
    return max(1, round(RUN_JOBS[workload] * seconds / REFERENCE_SECONDS / per_round))


@dataclass(frozen=True)
class HostSpeed:
    """How much slower than nominal the host ran process start-up and compute."""

    startup: float
    compute: float

    def scale(self, wall: float, startup_s: float) -> float:
        """`wall` in nominal seconds: its first `startup_s` at the start-up
        speed, the rest at the compute speed."""
        head = min(wall, startup_s)
        return head / self.startup + (wall - head) / self.compute


class Calibrator:
    """Runs calibration jobs and keeps their wall and compute times."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.walls: list[float] = []
        self.computes: list[float] = []
        self.last = float("-inf")

    def maybe(self) -> None:
        if clock() - self.last >= CALIBRATE_EVERY_S:
            self.run()

    def run(self) -> None:
        result = self.runner.run(("calibrate",), argv=[sys.executable, "-c", CALIBRATION])
        if result.returncode != 0:
            raise SystemExit(f"error: calibration job failed: {result.stderr.strip()}")
        self.walls.append(result.wall_s)
        self.computes.append(float(result.stdout.split()[-1]))
        self.last = clock()

    @property
    def speed(self) -> HostSpeed:
        startups = [w - c for w, c in zip(self.walls, self.computes)]
        return HostSpeed(statistics.median(startups) / CALIBRATION_STARTUP_NOMINAL_S,
                         statistics.median(self.computes) / CALIBRATION_COMPUTE_NOMINAL_S)


def run_rounds(runner: Runner, workload: str, seed: int, rounds: int, calibrator: Calibrator,
               paired: bool = False):
    """Rounds 0 .. rounds-1, back to back; none starts after HARD_STOP_S.

    With `paired`, every job runs twice in a row, untraced and traced, in
    an order that alternates from job to job, so that a change of host
    speed cancels in the ratio of the two.  Returns the untraced and the
    traced results."""
    results: list[JobResult] = []
    traced: list[JobResult] = []
    t0 = clock()
    for r in range(rounds):
        if clock() - t0 >= HARD_STOP_S:
            break
        for job in round_jobs(workload, seed, r):
            calibrator.maybe()
            modes = ((False, True) if job.index % 2 == 0 else (True, False)) if paired else (False,)
            for mode in modes:
                t1 = clock()
                result = runner.run(job.args, job, traced=mode)
                result.slot_s = clock() - t1
                (traced if mode else results).append(result)
    return results, traced


def check_all(results: list[JobResult]) -> None:
    """Fill in each result's problems; time OutputRecord.from_csv on tables."""
    from guekit.records import OutputRecord

    for result in results:
        seed = result.job.check_seed if result.job else 0
        result.problems = checks.check_job(result.args, result.returncode, result.stdout,
                                           result.stderr, seed)
        if result.timed_out:
            result.problems.insert(0, "timed out")
        if result.returncode == 0 and result.stdout.startswith("# command: "):
            try:
                t0 = clock()
                rows = OutputRecord.from_csv(result.stdout).rows
                result.parse_s = clock() - t0
                agrees = checks.same_cells(rows, checks.parse_csv(result.stdout)[3])
            except (ValueError, TypeError, IndexError, KeyError, StopIteration):
                agrees = False
            if not agrees:
                result.problems.append("OutputRecord.from_csv disagrees with the table")


def known_defects(runner: Runner, seed: int) -> list[JobResult]:
    """Run and check each shape of known_defect_jobs once."""
    results = [runner.run(job.args, job) for job in known_defect_jobs(seed)]
    check_all(results)
    return results


def end_to_end(results: list[JobResult], speed: HostSpeed, setup: list[JobResult],
               setup_speed: HostSpeed) -> dict:
    """(value, note) for every end-to-end metric and failed_frac.

    Times are scaled by their phase's host speed: the first setup_s of a
    job (raw, the start-up every job shares) at the start-up speed, the
    rest at the compute speed; the rate is jobs per scaled second."""
    setup_s = statistics.median(r.wall_s for r in setup)
    walls = [r.wall_s for r in results]
    tail_s, pct, beyond = tail(walls)
    p50 = statistics.median(walls)
    elapsed = sum(r.slot_s for r in results)
    rate = len(results) / elapsed
    scaled = sum(speed.scale(r.slot_s, setup_s) for r in results)
    failed = sum(r.failed for r in results)
    return {
        "jobs_per_s": (len(results) / scaled,
                       f"raw {rate:.4f}; n={len(results)} jobs in {elapsed:.2f} s"),
        "job_p50_s": (speed.scale(p50, setup_s), f"raw {p50:.4f}; n={len(walls)}"),
        "job_tail_s": (speed.scale(tail_s, setup_s),
                       f"raw {tail_s:.4f}; p{pct:.1f}, n={len(walls)}, {beyond} beyond"
                       + ("; the maximum, too few jobs for a percentile with "
                          f"{TAIL_BEYOND} beyond" if beyond < TAIL_BEYOND else "")),
        "setup_s": (setup_speed.scale(setup_s, setup_s),
                    f"raw {setup_s:.4f}; median of n={len(setup)} `guekit --help` runs"),
        "peak_rss_mb": (max(r.maxrss_kib for r in results) * 1024 / 1e6,
                        f"max over n={len(results)} jobs"),
        "failed_frac": (failed / len(results), f"{failed} of {len(results)} jobs failed"),
    }


def print_failures(results: list[JobResult]) -> None:
    by_label: dict[str, list[JobResult]] = {}
    for r in results:
        if r.failed:
            by_label.setdefault(r.job.label if r.job else " ".join(r.args), []).append(r)
    for label, failed in sorted(by_label.items()):
        print(f"  FAILED x{len(failed)} {label}: {failed[0].problems[0]}")


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                         capture_output=True, text=True)
    return out.stdout.strip() or None if out.returncode == 0 else None


def prepare(root: Path) -> Runner:
    """Check the checkout, byte-compile src/ and confirm guekit loads from it."""
    src = root / "src"
    if not (src / "guekit" / "cli.py").is_file():
        raise SystemExit(f"error: no guekit sources under {src}; run from a guekit checkout")
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                              capture_output=True, text=True)
    if compiled.returncode != 0:
        raise SystemExit(f"error: byte-compiling src failed:\n{compiled.stdout}{compiled.stderr}")
    runner = Runner(src, root / WORK_DIR, blas_threads=cpu_count())
    probe = runner.run(("probe",), argv=[sys.executable, "-c",
                                         "import guekit; print(guekit.__file__)"])
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"error: guekit does not import from {src}: {probe.stderr.strip()}")
    sys.path.insert(0, str(src))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact table cells can exceed 4300 digits
    return runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    runner = prepare(root)
    import numpy

    runner.run(("--help",))  # warm the page cache; not timed
    setup_calibrator = Calibrator(runner)
    setup = []
    for _ in range(SETUP_RUNS):
        setup_calibrator.run()
        setup.append(runner.run(("--help",)))
    calibrator = Calibrator(runner)
    rounds = round_count(args.workload, args.seconds / 2 if args.trace else args.seconds)
    results, traced = run_rounds(runner, args.workload, args.seed, rounds, calibrator,
                                 paired=bool(args.trace))
    check_all(setup + results + traced)
    defects = known_defects(runner, args.seed) if args.workload == "tables" else []

    provenance = {
        "git_commit": git_commit(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": cpu_count(),
        "blas_threads": runner.blas_threads, "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "rounds": rounds, "jobs_per_run": len(results) + len(traced),
        "job_timeout_s": runner.timeout_s,
        "host_speed": asdict(calibrator.speed),
        "setup_host_speed": asdict(setup_calibrator.speed),
        "calibration_jobs": len(calibrator.walls) + len(setup_calibrator.walls),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    e2e = end_to_end(results, calibrator.speed, setup, setup_calibrator.speed)
    print(f"end-to-end ({'untraced run of each pair' if args.trace else 'closed loop, 1 client'}):")
    for name, (value, note) in e2e.items():
        print(f"  {name:<12} {value:12.6g} {E2E_UNITS[name]:<5} ({note})")
    print_failures(setup + results + traced)
    if defects:
        print("known defects (untimed; in no metric, not in attempted/failed):")
        for r in defects:
            status = f"still fails: {r.problems[0]}" if r.failed else "now passes"
            print(f"  {' '.join(r.args)}: {status}")

    if args.trace:
        metrics, accounting = per_layer(results, traced)
        print("per-job accounting: wall = startup + layer self times + remainder "
              "(remainder: tracer set-up, interpreter exit, span writing)")
        for line in accounting:
            print("  " + line)
        print("per-layer (mean per traced job):")
        units = dict(layers.PER_LAYER)
        for name, value in metrics.items():
            print(f"  {name:<30} {value:14.6g} {units[name]}")
        report = {name: {"value": metrics[name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        report = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}

    checked = setup + results + traced
    failed = sum(r.failed for r in checked)
    summary = {"correct": failed == 0, "attempted": len(checked), "failed": failed,
               "metrics": report}
    out_dir = root / WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": provenance, **summary,
        "end_to_end": {name: {"value": v, "unit": E2E_UNITS[name], "note": note}
                       for name, (v, note) in e2e.items()},
        "jobs": [{"label": r.job.label if r.job else " ".join(r.args), "args": r.args,
                  "traced": r.spans is not None, "wall_s": r.wall_s,
                  "returncode": r.returncode, "maxrss_kib": r.maxrss_kib, "cpu_s": r.cpu_s,
                  "problems": r.problems} for r in checked],
        "known_defects": [{"args": r.args, "returncode": r.returncode, "problems": r.problems}
                          for r in defects],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def per_layer(untraced: list[JobResult], traced: list[JobResult]):
    """Per-layer metrics of the traced jobs; the overhead compares each
    job's traced and untraced runs, which ran back to back."""
    per_job = []
    accounting = []
    for r in traced:
        if r.spans is None:
            accounting.append(f"{r.job.label}: no spans written ({r.problems[:1]})")
            continue
        trace = layers.load(r.spans)
        job = layers.job_layers(trace)
        startup = trace.imported_t - r.spawn_t
        remainder = r.wall_s - startup - job["self_total_s"]
        job.update({"cli.startup_s": startup, "records.parse_s": r.parse_s,
                    "trace.remainder_s": remainder})
        per_job.append(job)
        accounting.append(f"job {trace.job:<6} {r.job.label:<22} wall {r.wall_s:.4f} s = "
                          f"startup {startup:.4f} + layers {job['self_total_s']:.4f} "
                          f"+ remainder {remainder:.4f} (tracer set-up {trace.install_s:.4f}; "
                          f"{len(trace.starts)} spans)")
    overhead = 1.0 - sum(r.wall_s for r in untraced) / sum(r.wall_s for r in traced)
    metrics = layers.per_layer_metrics(per_job, [r.cpu_s for r in untraced],
                                       [r.wall_s for r in untraced], overhead)
    return metrics, accounting


if __name__ == "__main__":
    sys.exit(main())
