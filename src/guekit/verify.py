"""Named invariant suites behind the `verify` command.

Each suite returns a list of failure dicts (module, operation, inputs,
expected, actual); an empty list means the suite passed.  Each runs at the
budget its module fixes.
"""

from __future__ import annotations

import itertools
import math
import random

from .exact import catalan, integrate_real
from .observables import (
    _genus_rows,
    density_eval,
    density_fourier_check,
    harer_zagier_closed,
    harer_zagier_from_counts,
    moment_exact,
    rosette_count_formula,
    wilson_bound,
    wilson_eval,
)

# The enumeration oracles of guekit.maps are imported inside the suites that
# run them, so the table commands, which import this module, do not load them.

SUITES = ("all", "wick", "best", "initial", "hz", "bound", "density")

DEFAULT_SEED = 20240901


def check_seed(seed: int) -> None:
    """Refuse a seed outside 0 .. 2^64 - 1, the range of the Philox key word
    it fills; any other seed would draw the samples of another."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in 0 .. 2^64 - 1, got {seed}")


# the density suite's Monte Carlo histogram: rho_N on HISTOGRAM_RANGE
HISTOGRAM_N = 8
HISTOGRAM_RANGE = (-3.0, 3.0)
HISTOGRAM_SAMPLES = 4000
HISTOGRAM_BINS = 40

WICK_L_MAX = 7
HZ_P_MAX = 7
# C_g(l) from the closed form against the Harer-Zagier recursion, l <= this
HZ_RECURSION_L_MAX = 20


def _failure(failures, module, operation, inputs, expected, actual):
    failures.append({"module": module, "operation": operation, "inputs": inputs,
                     "expected": str(expected), "actual": str(actual)})


def _check(failures, module, operation, inputs, expected, actual, tol=0, shown=None):
    """Record a failure unless |actual - expected| <= tol, so a NaN fails; the
    record shows `shown`, where given, as what was expected."""
    if not abs(actual - expected) <= tol:
        _failure(failures, module, operation, inputs,
                 expected if shown is None else shown, actual)


def suite_wick():
    from .maps.rosettes import moment_wick

    failures = []
    for l in range(WICK_L_MAX + 1):
        for N in range(1, 7):
            _check(failures, "map_combinatorics", "moment_wick", {"N": N, "l": l},
                   moment_exact(N, l), moment_wick(N, l))
    return failures


def suite_best():
    from .maps.bijection import best_forward, best_inverse, enumerate_maps, spanning_trees
    from .maps.multigraph import (
        directed_double,
        enumerate_connected_multigraphs,
        eulerian_count_rooted,
    )

    failures = []
    for v in range(1, 4):
        for l in range(max(1, v - 1), 4):
            for graph in enumerate_connected_multigraphs(v, l):
                dd = directed_double(graph)
                maps = list(enumerate_maps(graph))
                trees = spanning_trees(graph)
                for root in range(len(dd.arcs)):
                    inputs = {"graph": graph.multiplicity, "root": root}
                    produced = set()
                    for m in maps:
                        for tree in trees:
                            cycle = best_forward(m, tree, root)
                            back_m, back_t = best_inverse(cycle)
                            if (back_m.rotation, back_t) != (m.rotation, tree):
                                _failure(failures, "map_combinatorics", "best_inverse", inputs,
                                         (m.rotation, sorted(tree)),
                                         (back_m.rotation, sorted(back_t)))
                            produced.add(cycle.arc_sequence)
                    count = eulerian_count_rooted(dd, root)
                    if len(produced) != len(maps) * len(trees) or len(produced) != count:
                        _failure(failures, "map_combinatorics", "best_forward", inputs,
                                 f"{count} distinct cycles",
                                 f"{len(produced)} from {len(maps)} maps x {len(trees)} trees")
    return failures


def suite_initial():
    from .maps.multigraph import (
        DERIVATIVE_EDGE_BUDGET,
        INITIAL_IDENTITY_EDGE_BUDGET,
        enumerate_connected_multigraphs,
        eulerian_count_normalized,
        initial_identity_report,
        trace_derivative_value,
    )

    failures = []
    for l in range(1, INITIAL_IDENTITY_EDGE_BUDGET + 1):
        for N in range(1, 7):
            for message in initial_identity_report(l, N):
                _failure(failures, "map_combinatorics", "verify_initial_identity",
                         {"l": l, "N": N}, "exact identity", message)
    for l in range(1, DERIVATIVE_EDGE_BUDGET + 1):
        for v in range(1, l + 2):  # a connected graph with l edges has <= l + 1 vertices
            for graph in enumerate_connected_multigraphs(v, l):
                _check(failures, "map_combinatorics", "eulerian_count_normalized",
                       {"graph": graph.multiplicity}, trace_derivative_value(graph),
                       eulerian_count_normalized(graph))
    return failures


def suite_hz():
    # the closed forms stay this module's globals, which a test may replace
    from .maps.rosettes import rosette_census

    failures = []
    for N in range(1, 6):
        columns = zip(harer_zagier_closed(N, HZ_P_MAX), harer_zagier_from_counts(N, HZ_P_MAX))
        for p, (closed, rebuilt) in enumerate(columns, 1):
            _check(failures, "map_combinatorics", "harer_zagier_closed", {"N": N, "p": p},
                   rebuilt, closed)
            if N == 1:
                _check(failures, "map_combinatorics", "harer_zagier_closed", {"N": 1, "p": p},
                       1, closed)
    # C_g(l) from the closed form against each count source: the census and
    # Catalan (g = 0 only) for l <= HZ_P_MAX, then the recursion for l <= HZ_RECURSION_L_MAX
    rows = [row for l in range(1, HZ_P_MAX + 1)
            for row in ((l, rosette_census(l)), (l, [catalan(l)]))]
    rows += enumerate(itertools.islice(_genus_rows(), 1, HZ_RECURSION_L_MAX + 1), 1)
    for l, counts in rows:
        for g, count in enumerate(counts):
            _check(failures, "map_combinatorics", "rosette_count_formula", {"l": l, "g": g},
                   count, rosette_count_formula(l, g))
    return failures


# 20 (N, lambda) points for the Fourier-route spot check
FOURIER_POINTS = [
    (1, 0.0), (1, 1.3), (2, -1.3), (2, 0.4), (2, 2.1),
    (3, 0.0), (3, -0.8), (4, 1.0), (4, -2.2), (5, 0.5),
    (5, 1.6), (6, -0.3), (6, 2.4), (7, 0.9), (7, -1.7),
    (8, 0.0), (8, 0.7), (8, -1.2), (8, 1.9), (8, 2.8),
]


def suite_density(seed=DEFAULT_SEED):
    # drawn first: the draw splits over two processes before the integrals load numpy
    from .montecarlo import estimate_density_histogram

    stats = estimate_density_histogram(HISTOGRAM_N, HISTOGRAM_SAMPLES, HISTOGRAM_BINS,
                                       HISTOGRAM_RANGE, seed)
    failures = []
    for N in range(1, 11):
        # one pass over shared nodes: the normalization, the moments l = 1 .. 4
        # and the odd moment, each row to the target it had as an integral alone
        def moments(x):
            rho, x2 = density_eval(N, x), x * x
            x4 = x2 * x2
            return [rho, x2 * rho, x4 * rho, x4 * x2 * rho, x4 * x4 * rho, x2 * x * rho]

        total, *even, odd = integrate_real(moments, -12.0, 12.0, [1e-10] + [1e-9] * 4 + [1e-10])
        _check(failures, "observables", "density", {"N": N}, 1.0, total, 1e-9,
               "normalization 1 +- 1e-9")
        for lam in (0.37, 1.21, 2.44):
            _check(failures, "observables", "density_eval", {"N": N, "lambda": lam}, 0,
                   abs(density_eval(N, lam) - density_eval(N, -lam)), 1e-12, "even in lambda")
        for l, got in enumerate(even, 1):  # l = 0 is the normalization above
            _check(failures, "observables", "density moments", {"N": N, "l": l},
                   float(moment_exact(N, l)), got, 1e-7)
        _check(failures, "observables", "density moments", {"N": N, "order": 3}, 0.0, odd, 1e-9)
    fourier = {}  # the points of each N, for one pass per N
    for N, lam in FOURIER_POINTS:
        fourier.setdefault(N, []).append(lam)
    for N, lams in fourier.items():
        for lam, got in zip(lams, density_fourier_check(N, lams)):
            _check(failures, "observables", "density_fourier_check", {"N": N, "lambda": lam},
                   density_eval(N, lam), got, 1e-8)
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / HISTOGRAM_BINS
    bad = 0
    for j, st in enumerate(stats):  # a NaN mean is an outlier
        center = lo + (j + 0.5) * width
        reference = density_eval(HISTOGRAM_N, center)
        if st.std_error > 0 and not abs(st.mean - reference) <= 4 * st.std_error:
            bad += 1
    if bad > 0.05 * HISTOGRAM_BINS:
        _failure(failures, "montecarlo", "estimate_density_histogram",
                 {"N": HISTOGRAM_N, "samples": HISTOGRAM_SAMPLES, "bins": HISTOGRAM_BINS,
                  "seed": seed},
                 "within 4 std errors in >= 95% of bins", f"{bad} outliers")
    return failures


def suite_bound(seed=DEFAULT_SEED):
    failures = []
    rng = random.Random(seed)
    for N in range(1, 17):
        for _ in range(500):
            radius = rng.uniform(0.0, 10.0)
            angle = rng.uniform(0.0, 2 * math.pi)
            t = complex(radius * math.cos(angle), radius * math.sin(angle))
            value = abs(wilson_eval(N, t))
            bound = wilson_bound(N, t)
            if not value <= bound * (1 + 1e-12):  # a NaN fails
                _failure(failures, "observables", "wilson_bound", {"N": N, "t": str(t)},
                         bound, value)
    return failures


def run_suite(name, seed=DEFAULT_SEED):
    """The failures of suite `name`.  "all" gives those of every suite, in
    SUITES order, through worker.run_beside: the pure-Python "wick",
    "best", "initial", "hz" and "bound", then "density", the one suite
    that loads numpy, as its last task."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    check_seed(seed)  # before the split, and before bound's draw too
    suites = {
        "wick": suite_wick,
        "best": suite_best,
        "initial": suite_initial,
        "hz": suite_hz,
        "bound": lambda: suite_bound(seed=seed),
        "density": lambda: suite_density(seed=seed),
    }
    if name != "all":
        return suites[name]()
    from .worker import run_beside

    outcomes = run_beside({f"suite {each!r}": suites[each] for each in SUITES[1:]})
    return [failure for failures in outcomes for failure in failures]
