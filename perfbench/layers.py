"""Per-layer metrics from the spans of traced jobs.

A span's self time is its duration minus the durations of its direct
children (spans of one process nest strictly).  Summed over every span of
a job, self times equal the time inside `cli.main`; with the start-up time
before it they account for the job's wall time, and the rest is reported
as the remainder (wrapper installation, interpreter exit, span writing).
"""

from __future__ import annotations

import array
import json
from dataclasses import dataclass

# (metric, unit) in the order they are printed.
PER_LAYER = [
    ("cli.startup_s", "s"), ("cli.self_s", "s"),
    ("proc.cpu_s", "s"), ("proc.cpu_per_wall", "ratio"),
    ("observables.ladder_s", "s"), ("observables.ladder_calls", "count"),
    ("observables.eval_s", "s"), ("observables.eval_calls", "count"),
    ("observables.moment_s", "s"), ("observables.fourier_s", "s"),
    ("observables.other_s", "s"),
    ("exact.simpson_s", "s"), ("exact.simpson_calls", "count"),
    ("exact.simpson_evals", "count"),
    ("exact.partition_s", "s"), ("exact.partition_terms", "count"),
    ("rosettes.census_s", "s"), ("rosettes.census_calls", "count"),
    ("rosettes.pairings", "count"),
    ("rosettes.closed_form_s", "s"), ("rosettes.wick_s", "s"),
    ("multigraph.enum_s", "s"), ("multigraph.graphs", "count"),
    ("multigraph.eulerian_s", "s"), ("multigraph.eulerian_calls", "count"),
    ("multigraph.oracle_s", "s"), ("multigraph.identity_s", "s"),
    ("bijection.maps_s", "s"), ("bijection.trees_s", "s"),
    ("bijection.forward_s", "s"), ("bijection.inverse_s", "s"), ("bijection.calls", "count"),
    ("montecarlo.estimate_s", "s"), ("montecarlo.estimate_calls", "count"),
    ("montecarlo.philox_init_s", "s"), ("montecarlo.philox_inits", "count"),
    ("montecarlo.eigvalsh_s", "s"), ("montecarlo.eigvalsh_matrices", "count"),
    ("montecarlo.other_s", "s"), ("montecarlo.matrices_per_s", "1/s"),
    ("montecarlo.cold_ratio", "ratio"),
    ("records.render_s", "s"), ("records.bytes", "B"), ("records.parse_s", "s"),
    ("verify.wick_s", "s"), ("verify.best_s", "s"), ("verify.initial_s", "s"),
    ("verify.hz_s", "s"), ("verify.density_s", "s"), ("verify.bound_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.remainder_s", "s"),
]

# Span groups whose self time is reported under a different metric name.
SELF_METRIC = {"montecarlo.estimate": "montecarlo.other_s"}
# Call counts: metric -> span groups or "group:function" names counted.
CALLS = {
    "observables.ladder_calls": ("observables.ladder",),
    "observables.eval_calls": ("observables.eval",),
    "exact.simpson_calls": ("exact.simpson:integrate_real",),
    "rosettes.census_calls": ("rosettes.census",),
    "multigraph.eulerian_calls": ("multigraph.eulerian",),
    "bijection.calls": ("bijection.forward", "bijection.inverse"),
    "montecarlo.estimate_calls": ("montecarlo.estimate",),
    "montecarlo.philox_inits": ("montecarlo.philox_init",),
}
COUNTERS = ("exact.simpson_evals", "exact.partition_terms", "rosettes.pairings",
            "multigraph.graphs", "montecarlo.eigvalsh_matrices", "records.bytes")


@dataclass
class Trace:
    """Spans of one traced job: span i has name names[name_of[i]]."""

    job: str
    imported_t: float
    install_s: float
    names: list[str]
    counters: dict[str, int]
    starts: list[float]
    ends: list[float]
    name_of: list[int]
    parent_of: list[int]


def load(data: bytes) -> Trace:
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    n = header["count"]
    starts, ends = array.array("d"), array.array("d")
    name_of, parent_of = array.array("i"), array.array("i")
    offset = 0
    for arr in (starts, ends, name_of, parent_of):
        size = arr.itemsize * n
        arr.frombytes(body[offset:offset + size])
        offset += size
    if offset != len(body):
        raise ValueError("span file length does not match its header")
    return Trace(header["job"], header["imported_t"], header["install_s"], header["names"],
                 header["counters"], starts.tolist(), ends.tolist(), name_of.tolist(),
                 parent_of.tolist())


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def group_of(name: str) -> str:
    return name.split(":", 1)[0]


def job_layers(trace: Trace) -> dict[str, float]:
    """Self time per span group ("<group>_s"), call counts, counters and
    the inclusive estimator time, for one traced job."""
    out: dict[str, float] = {}
    groups = [group_of(n) for n in trace.names]
    selfs = self_times(trace.starts, trace.ends, trace.parent_of)
    calls: dict[str, int] = {}
    for i, nid in enumerate(trace.name_of):
        group = groups[nid]
        metric = SELF_METRIC.get(group, group + "_s")
        out[metric] = out.get(metric, 0.0) + selfs[i]
        name = trace.names[nid]
        if not name.endswith("/next"):
            calls[group] = calls.get(group, 0) + 1
            calls[name] = calls.get(name, 0) + 1
        if group == "montecarlo.estimate":
            p = trace.parent_of[i]
            if p < 0 or groups[trace.name_of[p]] != group:
                out["montecarlo.estimate_s"] = (out.get("montecarlo.estimate_s", 0.0)
                                                + trace.ends[i] - trace.starts[i])
    for metric, keys in CALLS.items():
        out[metric] = float(sum(calls.get(k, 0) for k in keys))
    for name in COUNTERS:
        out[name] = float(trace.counters.get(name, 0))
    out["montecarlo.cold_estimates"] = float(trace.counters.get("montecarlo.cold_estimates", 0))
    out["self_total_s"] = sum(selfs)
    return out


def per_layer_metrics(traced: list[dict[str, float]], untraced_cpu: list[float],
                      untraced_wall: list[float], overhead_frac: float) -> dict[str, float]:
    """Mean per traced job of every per-layer metric, plus the ratios.

    `traced` holds job_layers() of each job with "cli.startup_s",
    "records.parse_s" and "trace.remainder_s" added by the caller.
    """
    n = len(traced) or 1
    total = {}
    for layers in traced:
        for key, value in layers.items():
            total[key] = total.get(key, 0.0) + value
    out = {metric: total.get(metric, 0.0) / n for metric, _ in PER_LAYER}
    out["proc.cpu_s"] = sum(untraced_cpu) / len(untraced_cpu)
    out["proc.cpu_per_wall"] = sum(untraced_cpu) / sum(untraced_wall)
    estimate_s = total.get("montecarlo.estimate_s", 0.0)
    calls = total.get("montecarlo.estimate_calls", 0.0)
    out["montecarlo.matrices_per_s"] = (total.get("montecarlo.eigvalsh_matrices", 0.0) / estimate_s
                                        if estimate_s else 0.0)
    out["montecarlo.cold_ratio"] = total.get("montecarlo.cold_estimates", 0.0) / calls if calls else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
