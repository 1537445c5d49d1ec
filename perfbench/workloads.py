"""Workload job lists, derived from the workload seed alone.

A run is a sequence of rounds.  Every round holds each job shape of the
workload once, in an order shuffled by (workload, seed, round), so whole
rounds always carry the same mix of work whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The N values the roadmap tracks, from small to the large-N regime.
TABLE_N = (8, 40, 100, 300, 1000)
# wilson and density are timed only at the N where their outputs are right.
# At every larger N of TABLE_N they fail the checks (density negative or
# NaN, wilson off the oracle or |I| > 1, wilson N=1000 exits 1), so those
# shapes run outside the timed phase as known_defect_jobs, are checked and
# reported there, and count in no metric.
EVALUATOR_N = (8,)
ROSETTE_L = (20, 30, 40, 50, 60)
# (N, samples): Philox set-up and assembly dominate at N=8, eigvalsh at N=64.
SAMPLE_SHAPES = ((8, 10000), (32, 4000), (64, 2000))

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("tables", "sample", "verify")


@dataclass(frozen=True)
class Job:
    """One guekit invocation; check_seed picks the rows the oracle checks."""

    workload: str
    round: int
    index: int
    args: tuple[str, ...]
    check_seed: int

    @property
    def label(self) -> str:
        flags = dict(zip(self.args[1::2], self.args[2::2]))
        keep = [f"{k.lstrip('-')}={v}" for k, v in flags.items()
                if k in ("--N", "--l", "--samples")]
        return " ".join([self.args[0], *keep])


def _evaluator_shapes(N: int) -> list[tuple[str, ...]]:
    n = str(N)
    return [("wilson", "--N", n, "--t-min", "0", "--t-max", "40", "--steps", "4001"),
            ("density", "--N", n, "--lambda-min", "-3", "--lambda-max", "3", "--steps", "2001")]


def _shapes(workload: str) -> list[tuple[str, ...]]:
    if workload == "tables":
        shapes = []
        for N, l in zip(TABLE_N, ROSETTE_L):
            n = str(N)
            if N in EVALUATOR_N:
                shapes += _evaluator_shapes(N)
            shapes += [
                ("moments", "--N", n, "--l-max", "60"),
                ("harer-zagier", "--N", n, "--p-max", "40"),
                ("rosettes", "--l", str(l)),
            ]
        return shapes
    if workload == "sample":
        return [("sample", "--N", str(N), "--samples", str(s)) for N, s in SAMPLE_SHAPES]
    if workload == "verify":
        return [("verify", "--suite", "all")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def round_jobs(workload: str, seed: int, round_index: int) -> list[Job]:
    """The jobs of one round: every shape once, seeded order and job seeds."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    shapes = _shapes(workload)
    rng.shuffle(shapes)
    jobs = []
    for i, args in enumerate(shapes):
        if workload != "tables":
            args = (*args, "--seed", str(rng.randrange(1, 2**32)))
        jobs.append(Job(workload, round_index, i, args, rng.randrange(2**32)))
    return jobs


def known_defect_jobs(seed: int) -> list[Job]:
    """The wilson and density shapes left out of `tables`, one job each."""
    rng = random.Random(f"tables/{seed}/known-defects")
    shapes = [args for N in TABLE_N if N not in EVALUATOR_N for args in _evaluator_shapes(N)]
    return [Job("tables", -1, i, args, rng.randrange(2**32)) for i, args in enumerate(shapes)]
