"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, layers, run, workloads  # noqa: E402
from perfbench.jobs import JobResult, Runner  # noqa: E402


def cli_output(args: tuple[str, ...]) -> str:
    from guekit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(args)) == 0
    return buf.getvalue()


def fake_result(args, returncode=0, stdout="", job=None) -> JobResult:
    return JobResult(job=job, args=tuple(args), spawn_t=0.0, wall_s=1.0,
                     returncode=returncode, timed_out=False, stdout=stdout,
                     stderr="Traceback\nValueError: boom\n", maxrss_kib=1000, cpu_s=0.5,
                     slot_s=1.1)


def moments_csv(N: int, l_max: int, wrong_row: int | None = None) -> str:
    values = checks.moments_exact(N, l_max)
    lines = ["# command: moments", json.dumps({"N": N, "l_max": l_max}).join(["# parameters: ", ""]),
             "l,moment,moment_float,catalan"]
    for l, m in enumerate(values):
        if l == wrong_row:
            m += Fraction(1, 3)
        text = f"{m.numerator}/{m.denominator}" if m.denominator != 1 else str(m.numerator)
        lines.append(f"{l},{text},{float(m)!r},{checks.math.comb(2 * l, l) // (l + 1)}")
    return "\n".join(lines) + "\n"


def test_same_seed_gives_same_job_list():
    for name in workloads.WORKLOADS:
        first = [workloads.round_jobs(name, 7, r) for r in range(3)]
        assert first == [workloads.round_jobs(name, 7, r) for r in range(3)]
        assert first != [workloads.round_jobs(name, 8, r) for r in range(3)]


def test_every_round_carries_the_same_mix():
    def shapes(jobs):
        return sorted(j.args[:-2] if j.args[-2] == "--seed" else j.args for j in jobs)

    for name in workloads.WORKLOADS:
        assert shapes(workloads.round_jobs(name, 1, 0)) == shapes(workloads.round_jobs(name, 2, 5))
    assert len(workloads.round_jobs("tables", 1, 0)) == 17


def test_failed_frac_counts_nonzero_exit_and_wrong_value():
    args = ("moments", "--N", "6", "--l-max", "9")
    results = [
        fake_result(args, stdout=moments_csv(6, 9)),
        fake_result(args, stdout=moments_csv(6, 9, wrong_row=4)),
        fake_result(args, returncode=1),
    ]
    run.check_all(results)
    assert [bool(r.problems) for r in results] == [False, True, True]
    same = run.HostSpeed(1.0, 1.0)
    e2e = run.end_to_end(results, same, results[:1], same)
    assert e2e["failed_frac"][0] == pytest.approx(2 / 3)


def test_runner_counts_exit_code_and_timeout(tmp_path):
    runner = Runner(ROOT / "src", tmp_path, blas_threads=1, timeout_s=1.0)
    exited = runner.run(("x",), argv=[sys.executable, "-c", "import sys; sys.exit(3)"])
    assert exited.returncode == 3 and exited.failed
    hung = runner.run(("x",), argv=[sys.executable, "-c", "import time; time.sleep(30)"])
    assert hung.timed_out and hung.failed and hung.wall_s < 10
    probe = ("import os, json; print(json.dumps([os.getcwd(), os.environ['HOME'], "
             "os.environ['XDG_CACHE_HOME'], os.listdir('.'), os.environ['OMP_NUM_THREADS']]))")
    cwd, home, cache, listing, threads = json.loads(
        runner.run(("x",), argv=[sys.executable, "-c", probe]).stdout)
    assert cwd == home == cache and listing == [] and threads == "1"
    assert not Path(cwd).exists()


def test_checks_accept_correct_guekit_output():
    for args in [
        ("wilson", "--N", "8", "--t-min", "0", "--t-max", "10", "--steps", "101"),
        ("density", "--N", "8", "--lambda-min", "-3", "--lambda-max", "3", "--steps", "101"),
        ("moments", "--N", "5", "--l-max", "12"),
        ("harer-zagier", "--N", "4", "--p-max", "9"),
        ("rosettes", "--l", "9"),
        ("sample", "--N", "4", "--samples", "300", "--seed", "11"),
    ]:
        assert checks.check_job(args, 0, cli_output(args), "", check_seed=3) == [], args


def test_checks_catch_known_large_n_defect():
    args = ("density", "--N", "40", "--lambda-min", "-3", "--lambda-max", "3", "--steps", "2001")
    problems = checks.check_job(args, 0, cli_output(args), "", check_seed=3)
    assert problems and "density=" in problems[0]


def test_known_defect_shapes_are_the_untimed_evaluator_shapes():
    timed = {j.args for j in workloads.round_jobs("tables", 1, 0)}
    defects = [j.args for j in workloads.known_defect_jobs(1)]
    assert len(defects) == 8 and not timed & set(defects)
    assert {(a[0], a[2]) for a in defects} == {(c, str(N)) for c in ("wilson", "density")
                                              for N in (40, 100, 300, 1000)}
    assert [j.check_seed for j in workloads.known_defect_jobs(1)] == \
        [j.check_seed for j in workloads.known_defect_jobs(1)]


def test_oracles_agree_with_small_cases():
    assert checks.moments_exact(3, 2) == [1, 1, Fraction(19, 9)]  # 2 + 1/N^2
    assert checks.rosette_counts(4) == [14, 70, 21]
    assert checks.wilson_exact(1, 0.5) == pytest.approx(2.718281828459045 ** -0.125, rel=1e-15)


def test_self_times_on_synthetic_tree():
    #   0 [0,10]: children 1 [1,4] and 3 [5,7];  1 has child 2 [2,3];  4 [8,9] is a root
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 7.0, 9.0]
    parents = [-1, 0, 1, 0, -1]
    assert layers.self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0, 1.0]

    names = ["cli.self:main", "montecarlo.estimate:estimate_wilson",
             "montecarlo.philox_init:Philox", "observables.eval:wilson_eval",
             "exact.partition:enumerate_partition_terms/next"]
    trace = layers.Trace("0.0", 0.0, 0.0, names, {"montecarlo.cold_estimates": 1},
                         starts, ends, [0, 1, 2, 3, 4], parents)
    job = layers.job_layers(trace)
    assert job["cli.self_s"] == 5.0
    assert job["montecarlo.other_s"] == 2.0 and job["montecarlo.estimate_s"] == 3.0
    assert job["montecarlo.philox_init_s"] == 1.0 and job["montecarlo.philox_inits"] == 1.0
    assert job["observables.eval_calls"] == 1.0 and job["exact.partition_s"] == 1.0
    assert job["self_total_s"] == 11.0  # durations of the two roots


def test_traced_job_accounts_for_its_wall_time(tmp_path):
    runner = Runner(ROOT / "src", tmp_path, blas_threads=1)
    args = ("moments", "--N", "4", "--l-max", "6")
    result = runner.run(args, traced=True)
    assert result.returncode == 0 and checks.check_job(args, 0, result.stdout, "", 0) == []
    trace = layers.load(result.spans)
    job = layers.job_layers(trace)
    startup = trace.imported_t - result.spawn_t
    assert 0 < startup and 0 < job["self_total_s"] < result.wall_s - startup
    assert job["observables.moment_s"] > 0 and job["records.bytes"] == len(result.stdout)


def test_round_count_depends_only_on_arguments():
    assert run.round_count("tables", 25) == 2
    assert run.round_count("sample", 25) == 8
    assert run.round_count("verify", 25) == run.TAIL_BEYOND
    assert run.round_count("sample", 12.5) == 4


def test_tail_is_at_or_above_the_median_in_every_workload():
    for name in workloads.WORKLOADS:
        n = run.round_count(name, 25) * len(workloads.round_jobs(name, 0, 0))
        assert run.tail([float(i) for i in range(n)])[1] >= 50.0, name


def test_paired_rounds_alternate_traced_and_untraced():
    order = []

    class FakeRunner:
        def run(self, args, job=None, traced=False, argv=None):
            if argv is None:
                order.append(traced)
            return fake_result(args, job=job, stdout="" if argv is None else "0.1\n")

    runner = FakeRunner()
    untraced, traced = run.run_rounds(runner, "sample", 1, 2, run.Calibrator(runner), paired=True)
    assert len(untraced) == len(traced) == 6
    assert order == [False, True, True, False, False, True] * 2
    assert all(r.slot_s > 0 for r in untraced + traced)
    assert run.run_rounds(runner, "sample", 1, 2, run.Calibrator(runner))[1] == []


def test_tracer_fails_the_job_when_a_listed_function_is_gone(tmp_path):
    runner = Runner(ROOT / "src", tmp_path, blas_threads=1)
    script = ("import sys; sys.path.insert(0, %r); import tracer; "
              "tracer.SPAN_GROUPS['guekit.cli']['no_such_function'] = 'cli.self'; "
              "sys.argv = ['tracer.py', 'spans.bin', '0.0', '--', 'moments', '--N', '4']; "
              "sys.exit(tracer.main())" % str(ROOT / "perfbench"))
    result = runner.run(("moments",), argv=[sys.executable, "-c", script])
    assert result.returncode != 0 and "no_such_function" in result.stderr


def test_host_speed_scales_start_up_and_compute_apart():
    speed = run.HostSpeed(startup=2.0, compute=0.5)
    assert speed.scale(3.0, 1.0) == pytest.approx(1.0 / 2.0 + 2.0 / 0.5)
    assert speed.scale(0.5, 1.0) == pytest.approx(0.25)


def test_tail_has_ten_samples_beyond():
    walls = [float(i) for i in range(1, 26)]
    assert run.tail(walls) == (15.0, 60.0, 10)
    assert run.tail(walls[:5]) == (5.0, 100.0, 0)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    metrics = layers.per_layer_metrics([{}], [1.0], [2.0], 0.1)
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
