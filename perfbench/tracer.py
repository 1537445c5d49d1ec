"""Run one guekit command with spans around each module's public functions.

    python3 tracer.py SPANS_FILE JOB_ID -- GUEKIT_ARGS...

The wrappers live here, not in guekit: after `guekit.cli` is imported,
every reference to a listed function in any guekit module is replaced by a
wrapper that records a span (name, start, end, parent) in memory.  So are
`numpy.random.Philox` and `numpy.linalg.eigvalsh`.  A function that
returns a generator gets one span per item drawn from it.  The spans and a
few counters are written to SPANS_FILE, under JOB_ID, when the command
exits.  A listed function that guekit no longer has stops the job with
exit code 1, so a renamed function fails the run instead of reading as a
bypassed layer.

Span names are "<layer>.<group>:<function>"; the layer metric of a span is
"<layer>.<group>".
"""

from __future__ import annotations

import array
import functools
import json
import math
import sys
import time
import types

SPAN_GROUPS = {
    "guekit.cli": {
        "main": "cli.self", "cmd_wilson": "cli.self", "cmd_density": "cli.self",
        "cmd_moments": "cli.self", "cmd_rosettes": "cli.self",
        "cmd_harer_zagier": "cli.self", "cmd_sample": "cli.self", "cmd_verify": "cli.self",
    },
    "guekit.observables": {
        "wilson_loop": "observables.ladder", "density": "observables.ladder",
        "wilson_eval": "observables.eval", "density_eval": "observables.eval",
        "moment_exact": "observables.moment", "moment_table": "observables.moment",
        "moment_genus_expansion": "observables.moment",
        "density_fourier_check": "observables.fourier",
        "wigner_density": "observables.other", "wilson_bound": "observables.other",
        "wilson_taylor_coefficients": "observables.other",
        "wilson_limit_partial": "observables.other", "truncation_time": "observables.other",
    },
    "guekit.exact": {
        "integrate_real": "exact.simpson",
        "enumerate_partition_terms": "exact.partition", "partition_term_sum": "exact.partition",
    },
    "guekit.maps.rosettes": {
        "rosette_census": "rosettes.census",
        "rosette_count_formula": "rosettes.closed_form",
        "harer_zagier_closed": "rosettes.closed_form",
        "moment_wick": "rosettes.wick", "enumerate_pairings": "rosettes.wick",
        "rosette_genus": "rosettes.wick",
    },
    "guekit.maps.multigraph": {
        "enumerate_connected_multigraphs": "multigraph.enum", "directed_double": "multigraph.enum",
        "eulerian_count_rooted": "multigraph.eulerian",
        "eulerian_count_normalized": "multigraph.eulerian",
        "trace_derivative_value": "multigraph.oracle",
        "initial_identity_report": "multigraph.identity",
        "verify_initial_identity": "multigraph.identity",
    },
    "guekit.maps.bijection": {
        "enumerate_maps": "bijection.maps", "spanning_trees": "bijection.trees",
        "best_forward": "bijection.forward", "best_inverse": "bijection.inverse",
    },
    "guekit.montecarlo": {
        "estimate_wilson": "montecarlo.estimate",
        "estimate_density_histogram": "montecarlo.estimate",
    },
    "guekit.verify": {
        "suite_wick": "verify.wick", "suite_best": "verify.best",
        "suite_initial": "verify.initial", "suite_hz": "verify.hz",
        "suite_density": "verify.density", "suite_bound": "verify.bound",
    },
}
# Generators whose items are counted.
ITEM_COUNTERS = {
    "enumerate_partition_terms": "exact.partition_terms",
    "enumerate_connected_multigraphs": "multigraph.graphs",
}

_clock_gettime = time.clock_gettime
_MONOTONIC = time.CLOCK_MONOTONIC

names: list[str] = []
_name_ids: dict[str, int] = {}
starts: list[float] = []
ends: list[float] = []
name_of: list[int] = []
parent_of: list[int] = []
_stack = [-1]
counters: dict[str, int] = {}


def _intern(name: str) -> int:
    if name not in _name_ids:
        _name_ids[name] = len(names)
        names.append(name)
    return _name_ids[name]


def _count(name: str, amount: int = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def _open(nid: int) -> int:
    i = len(name_of)
    name_of.append(nid)
    parent_of.append(_stack[-1])
    ends.append(0.0)
    _stack.append(i)
    starts.append(_clock_gettime(_MONOTONIC))
    return i


def _close(i: int) -> None:
    ends[i] = _clock_gettime(_MONOTONIC)
    _stack.pop()


def _iterate(gen, nid: int, counter: str | None):
    """Re-yield gen's items with one span around each step."""
    while True:
        i = _open(nid)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            _close(i)
        if counter:
            _count(counter)
        yield item


def wrap(fn, name: str, on_call=None, counter: str | None = None):
    """fn with a span per call; on_call(args, kwargs) may return an after(result) hook."""
    nid = _intern(name)
    nid_next = _intern(name + "/next")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        after = on_call(args, kwargs) if on_call else None
        i = _open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(i)
        if after:
            after(result)
        if isinstance(result, types.GeneratorType):
            return _iterate(result, nid_next, counter)
        return result

    return wrapper


def _count_integrand(fn):
    """integrate_real with its integrand wrapped to count evaluations."""
    @functools.wraps(fn)
    def integrate(f, *rest, **kwargs):
        def counted(x):
            _count("exact.simpson_evals")
            return f(x)
        return fn(counted, *rest, **kwargs)
    return integrate


def _on_cold(cached, counter, amount):
    """Hook adding amount(args, kwargs) to counter when `cached` misses."""
    if not hasattr(cached, "cache_info"):
        return None

    def on_call(args, kwargs):
        misses = cached.cache_info().misses

        def after(result):
            if cached.cache_info().misses > misses:
                _count(counter, amount(args, kwargs))
        return after
    return on_call


def install() -> None:
    import numpy
    import guekit.cli  # noqa: F401  (imports every guekit module)
    from guekit import montecarlo, records
    from guekit.maps import rosettes

    hooks = {
        "rosette_census": _on_cold(
            rosettes.rosette_census, "rosettes.pairings",
            lambda a, k: math.prod(range(2 * (a[0] if a else k["l"]) - 1, 0, -2))),
    }
    samples_cache = getattr(montecarlo, "_eigenvalue_samples", None)
    for estimator in ("estimate_wilson", "estimate_density_histogram"):
        hooks[estimator] = _on_cold(samples_cache, "montecarlo.cold_estimates", lambda a, k: 1)
    modules = [m for key, m in list(sys.modules.items())
               if (key == "guekit" or key.startswith("guekit.")) and m is not None]
    for module_name, table in SPAN_GROUPS.items():
        module = sys.modules[module_name]
        for func, group in table.items():
            original = getattr(module, func, None)
            if original is None:  # fail the job rather than report the layer as 0
                raise RuntimeError(f"tracer: {module_name}.{func} not found; "
                                   "update SPAN_GROUPS in perfbench/tracer.py")
            target = _count_integrand(original) if func == "integrate_real" else original
            wrapped = wrap(target, f"{group}:{func}", hooks.get(func), ITEM_COUNTERS.get(func))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def render_bytes(args, kwargs):
        return lambda text: _count("records.bytes", len(text.encode()))

    records.OutputRecord.render = wrap(records.OutputRecord.render,
                                       "records.render:OutputRecord.render", render_bytes)

    def matrices(args, kwargs):
        shape = numpy.shape(args[0] if args else kwargs["a"])
        _count("montecarlo.eigvalsh_matrices", math.prod(shape[:-2]))
        return None

    numpy.random.Philox = wrap(numpy.random.Philox, "montecarlo.philox_init:Philox")
    numpy.linalg.eigvalsh = wrap(numpy.linalg.eigvalsh, "montecarlo.eigvalsh:eigvalsh", matrices)


def write(path: str, job_id: str, imported_t: float, install_s: float) -> None:
    """Header line (JSON), then starts, ends (float64), names, parents (int32)."""
    header = {"job": job_id, "imported_t": imported_t, "install_s": install_s,
              "names": names, "counters": counters, "count": len(name_of)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        array.array("d", starts).tofile(fh)
        array.array("d", ends).tofile(fh)
        array.array("i", name_of).tofile(fh)
        array.array("i", parent_of).tofile(fh)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: tracer.py SPANS_FILE JOB_ID -- GUEKIT_ARGS...", file=sys.stderr)
        return 2
    spans_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    import guekit.cli
    imported_t = _clock_gettime(_MONOTONIC)
    install()
    install_s = _clock_gettime(_MONOTONIC) - imported_t
    try:
        return guekit.cli.main(argv)
    finally:
        write(spans_path, job_id, imported_t, install_s)


if __name__ == "__main__":
    sys.exit(main())
