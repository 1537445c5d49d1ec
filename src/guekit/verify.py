"""Named invariant suites behind the `verify` command.

Each suite returns a list of failure dicts (module, operation, inputs,
expected, actual); an empty list means the suite passed.  Budgets can be
lowered through the keyword arguments but never raised past the module
limits.
"""

from __future__ import annotations

import math
import random

from .exact import catalan, integrate_real, pointwise
from .observables import (
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
# run them, so the table commands, which import this module for its
# constants, do not load them.

SUITES = ("all", "wick", "best", "initial", "hz", "density", "bound")

DEFAULT_SEED = 20240901
# the density suite's Monte Carlo histogram: rho_N on HISTOGRAM_RANGE
HISTOGRAM_N = 8
HISTOGRAM_RANGE = (-3.0, 3.0)
HISTOGRAM_SAMPLES = 4000
HISTOGRAM_BINS = 40
# The largest samples x bins of the histogram, which holds a (samples, bins)
# array of counts and one of densities; 16384 x 40 is inside.
HISTOGRAM_CELL_BUDGET = 2**20

# The largest max(N, 32)^3 x samples of a draw: `sample`'s, and the density
# suite's at HISTOGRAM_N.  Its eigvalsh work grows as N^3 x samples; below
# N = 32 the per-sample Philox set-up and assembly set the cost, and N^3
# alone would let N = 1 through with 2^29 samples.  At the budget's edges
# `sample` takes, from a fresh process on a 2-core AVX-512 Xeon (median of
# 5), 2.0 s at N = 32 with 16384 samples, 1.0 s at N = 64 with 2048 and
# 0.55 s at N = 128 with 256; N = 128 with 2000 samples, about 8 times the
# budget, takes 3.3 s through estimate_wilson.
SAMPLE_WORK_BUDGET = 2**29


def refuse_past(used, budget, shape, rule, note=""):
    """Refuse, as a usage error, a command whose `used` is past `budget`:
    "<shape> is past the budget of <rule> <= <budget><note>"."""
    if used > budget:
        raise ValueError(f"{shape} is past the budget of {rule} <= {budget}{note}")


def refuse_draw(N, samples, shape, note=""):
    """Refuse a draw of `samples` N x N matrices past SAMPLE_WORK_BUDGET."""
    refuse_past(max(N, 32)**3 * samples, SAMPLE_WORK_BUDGET, shape, "max(N, 32)^3 x samples", note)


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


def _cap(requested, default, flag):
    if requested is None:
        return default
    if requested > default:
        raise ValueError(f"{flag} can lower the budget but not raise it past {default}")
    if requested < 1:
        raise ValueError(f"{flag} must be at least 1")
    return requested


def suite_wick(l_max=None):
    from .maps.rosettes import moment_wick

    l_max = _cap(l_max, WICK_L_MAX, "--l-max")
    failures = []
    for l in range(l_max + 1):
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
                            back_m, back_t = best_inverse(cycle, graph, root)
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


def suite_initial(l_max=None):
    from .maps.multigraph import (
        DERIVATIVE_EDGE_BUDGET,
        INITIAL_IDENTITY_EDGE_BUDGET,
        enumerate_connected_multigraphs,
        eulerian_count_normalized,
        initial_identity_report,
        trace_derivative_value,
    )

    l_max = _cap(l_max, INITIAL_IDENTITY_EDGE_BUDGET, "--l-max")
    failures = []
    for l in range(1, l_max + 1):
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


def suite_hz(p_max=None):
    # the closed forms stay this module's globals, which a test may replace
    from .maps.rosettes import harer_zagier_recursion, rosette_census

    l_top = HZ_RECURSION_L_MAX if p_max is None else min(p_max, HZ_RECURSION_L_MAX)
    p_max = _cap(p_max, HZ_P_MAX, "--l-max")
    failures = []
    for N in range(1, 6):
        coeffs = harer_zagier_closed(N, p_max)
        for p in range(1, p_max + 1):
            _check(failures, "map_combinatorics", "harer_zagier_closed", {"N": N, "p": p},
                   harer_zagier_from_counts(N, p), coeffs[p - 1])
            if N == 1:
                _check(failures, "map_combinatorics", "harer_zagier_closed", {"N": 1, "p": p},
                       1, coeffs[p - 1])
    # C_g(l) from the closed form against each count source: the census and
    # Catalan (g = 0 only) for l <= p_max, then the recursion for l <= l_top
    rows = [row for l in range(1, p_max + 1)
            for row in ((l, rosette_census(l).counts), (l, [catalan(l)]))]
    recursion = harer_zagier_recursion(l_top)
    for l, counts in rows + [(l, recursion[l]) for l in range(1, l_top + 1)]:
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


def suite_density(samples=HISTOGRAM_SAMPLES, bins=HISTOGRAM_BINS, seed=DEFAULT_SEED):
    # drawn first: a usage error in samples or bins comes before the integrals,
    # and the draw splits over two processes before they load numpy
    from .montecarlo import estimate_density_histogram

    stats = estimate_density_histogram(HISTOGRAM_N, samples, bins, HISTOGRAM_RANGE, seed)
    failures = []
    for N in range(1, 11):
        total = integrate_real(lambda x: density_eval(N, x), -12.0, 12.0, 1e-10)
        _check(failures, "observables", "density", {"N": N}, 1.0, total, 1e-9,
               "normalization 1 +- 1e-9")
        for lam in (0.37, 1.21, 2.44):
            _check(failures, "observables", "density_eval", {"N": N, "lambda": lam}, 0,
                   abs(density_eval(N, lam) - density_eval(N, -lam)), 1e-12, "even in lambda")
        for l in range(1, 5):  # l = 0 is the normalization above
            got = integrate_real(
                lambda x: pointwise(lambda v: v ** (2 * l), x) * density_eval(N, x),
                -12.0, 12.0, 1e-9)
            _check(failures, "observables", "density moments", {"N": N, "l": l},
                   float(moment_exact(N, l)), got, 1e-7)
        odd = integrate_real(lambda x: pointwise(lambda v: v**3, x) * density_eval(N, x),
                             -12.0, 12.0, 1e-10)
        _check(failures, "observables", "density moments", {"N": N, "order": 3}, 0.0, odd, 1e-9)
    for N, lam in FOURIER_POINTS:
        _check(failures, "observables", "density_fourier_check", {"N": N, "lambda": lam},
               density_eval(N, lam), density_fourier_check(N, lam), 1e-8)
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / bins
    bad = 0
    for j, st in enumerate(stats):  # a NaN mean is an outlier
        center = lo + (j + 0.5) * width
        reference = density_eval(HISTOGRAM_N, center)
        if st.std_error > 0 and not abs(st.mean - reference) <= 4 * st.std_error:
            bad += 1
    if bad > 0.05 * bins:
        _failure(failures, "montecarlo", "estimate_density_histogram",
                 {"N": HISTOGRAM_N, "samples": samples, "bins": bins, "seed": seed},
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


def run_suite(name, l_max=None, samples=HISTOGRAM_SAMPLES, bins=HISTOGRAM_BINS,
              seed=DEFAULT_SEED):
    """The failures of suite `name`.  "all" gives those of every suite, in
    SUITES order, through worker.run_beside: "density", the one suite that
    loads numpy, in this process and the pure-Python rest in a forked
    child beside it, or every suite here in turn where numpy has loaded
    already or no two CPUs can be pinned."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if name in ("all", "density"):  # the suites that draw, checked before any fork
        refuse_draw(HISTOGRAM_N, samples, f"--samples {samples}", f" at N = {HISTOGRAM_N}")
        refuse_past(max(samples, 0) * bins, HISTOGRAM_CELL_BUDGET,
                    f"--samples {samples} with --bins {bins}", "samples x bins")
    if name == "all":  # then the usage errors of wick and density, in suite order
        from .montecarlo import refuse_histogram

        _cap(l_max, WICK_L_MAX, "--l-max")
        refuse_histogram(samples, bins, HISTOGRAM_RANGE)

    def budget(top):
        # under "all", one --l-max lowers each enumeration budget to at most its own maximum
        return l_max if name != "all" or l_max is None else min(l_max, top)

    def initial():
        from .maps.multigraph import INITIAL_IDENTITY_EDGE_BUDGET

        return suite_initial(budget(INITIAL_IDENTITY_EDGE_BUDGET))

    suites = {
        "wick": lambda: suite_wick(l_max),
        "best": lambda: suite_best(),
        "initial": initial,
        "hz": lambda: suite_hz(budget(HZ_P_MAX)),
        "density": lambda: suite_density(samples=samples, bins=bins, seed=seed),
        "bound": lambda: suite_bound(seed=seed),
    }
    if name != "all":
        return suites[name]()
    from .worker import run_beside

    outcomes = run_beside({f"suite {each!r}": suite for each, suite in suites.items()},
                          here="suite 'density'")
    return [failure for failures in outcomes for failure in failures]
