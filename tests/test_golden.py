"""Byte-for-byte CLI output for the README commands and two multi-batch
`sample` runs.

Each file under tests/golden/ holds the stdout of one command; a change to
the printed numbers or to their formatting fails here.  The `sample`
goldens are also checked from fresh processes: in-process, numpy has
loaded before `sample` runs, so it draws every sample in this process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from guekit.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "wilson.csv": ["wilson", "--N", "8", "--t-min", "0", "--t-max", "4", "--steps", "81"],
    "wilson.json": ["wilson", "--N", "8", "--t-min", "0", "--t-max", "4", "--steps", "81",
                    "--format", "json"],
    "density.csv": ["density", "--N", "8", "--lambda-min", "-3", "--lambda-max", "3",
                    "--steps", "241"],
    "moments.csv": ["moments", "--N", "4", "--l-max", "8"],
    "rosettes.csv": ["rosettes", "--l", "6"],
    "harer-zagier.csv": ["harer-zagier", "--N", "3", "--p-max", "7"],
    "rosettes.json": ["rosettes", "--l", "6", "--format", "json"],
    "harer-zagier.json": ["harer-zagier", "--N", "3", "--p-max", "7", "--format", "json"],
    # the shape the benchmark's `tables` workload times
    "harer-zagier-n1000.csv": ["harer-zagier", "--N", "1000", "--p-max", "40"],
    "sample.csv": ["sample", "--N", "8", "--samples", "10000",
                   "--t", "0.5", "--t", "1.0", "--t", "2.0"],
    # several sampler batches each: 600 / 32 at N=32 and 300 / 8 at N=64
    "sample-n32.csv": ["sample", "--N", "32", "--samples", "600", "--seed", "7"],
    "sample-n64.csv": ["sample", "--N", "64", "--samples", "300", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, capsys):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


SRC = Path(__file__).resolve().parent.parent / "src"
# Pins the process to one CPU of its mask before guekit, and so numpy,
# loads: `sample` then draws every sample in one process.
ONE_CPU = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from guekit.cli import main; sys.exit(main(sys.argv[1:]))")
needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="needs CPU affinity")


def _fresh_stdout(argv, one_cpu):
    """stdout of `guekit argv` run in a new Python process; one_cpu pins it
    to one CPU first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = ["-c", ONE_CPU] if one_cpu else ["-m", "guekit.cli"]
    result = subprocess.run([sys.executable, *code, *argv], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", sorted(n for n in COMMANDS if not n.startswith("sample")))
def test_table_golden_output_from_a_fresh_process(name):
    # `python -m guekit.cli` leaves through os._exit once stdout is flushed
    assert _fresh_stdout(COMMANDS[name], one_cpu=False) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("one_cpu", [False, pytest.param(True, marks=needs_affinity)])
@pytest.mark.parametrize("name", ["sample.csv", "sample-n32.csv", "sample-n64.csv"])
def test_sample_golden_output_from_a_fresh_process(name, one_cpu):
    # unpinned with two CPUs in the mask, the samples are split over two processes
    assert _fresh_stdout(COMMANDS[name], one_cpu) == (GOLDEN / name).read_bytes()


@needs_affinity
def test_verify_all_runs_in_turn_from_a_fresh_process():
    # numpy has not loaded, but the mask holds one CPU, so every suite runs here in turn
    assert _fresh_stdout(["verify", "--suite", "all"], one_cpu=True) == b"PASS all\n"


@needs_affinity
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="splits only with two CPUs in the mask")
def test_sample_split_into_unequal_shares_prints_the_one_share_bytes():
    argv = ["sample", "--N", "3", "--samples", "101", "--seed", "5"]
    assert _fresh_stdout(argv, one_cpu=False) == _fresh_stdout(argv, one_cpu=True)
