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
from .maps.bijection import best_forward, best_inverse, enumerate_maps, spanning_trees
from .maps.multigraph import (
    DERIVATIVE_EDGE_BUDGET,
    INITIAL_IDENTITY_EDGE_BUDGET,
    directed_double,
    enumerate_connected_multigraphs,
    eulerian_count_normalized,
    eulerian_count_rooted,
    initial_identity_report,
    trace_derivative_value,
)
from .maps.rosettes import (
    harer_zagier_closed,
    harer_zagier_from_counts,
    harer_zagier_recursion,
    moment_wick,
    rosette_census,
    rosette_count_formula,
)
from .observables import (
    density_eval,
    density_fourier_check,
    moment_exact,
    wilson_bound,
    wilson_eval,
)

SUITES = ("all", "wick", "best", "initial", "hz", "density", "bound")

DEFAULT_SEED = 20240901
HISTOGRAM_SAMPLES = 4000  # the density suite's Monte Carlo histogram of rho_8 on [-3, 3]
HISTOGRAM_BINS = 40

WICK_L_MAX = 7
HZ_P_MAX = 7
# C_g(l) from the closed form against the Harer-Zagier recursion, l <= this
HZ_RECURSION_L_MAX = 20


def _failure(module, operation, inputs, expected, actual):
    return {
        "module": module,
        "operation": operation,
        "inputs": inputs,
        "expected": str(expected),
        "actual": str(actual),
    }


def _cap(requested, default, flag):
    if requested is None:
        return default
    if requested > default:
        raise ValueError(f"{flag} can lower the budget but not raise it past {default}")
    if requested < 1:
        raise ValueError(f"{flag} must be at least 1")
    return requested


def suite_wick(l_max=None):
    l_max = _cap(l_max, WICK_L_MAX, "--l-max")
    failures = []
    for l in range(l_max + 1):
        for N in range(1, 7):
            wick = moment_wick(N, l)
            exact = moment_exact(N, l)
            if wick != exact:
                failures.append(_failure(
                    "map_combinatorics", "moment_wick", {"N": N, "l": l}, exact, wick))
    return failures


def suite_best():
    failures = []
    for v in range(1, 4):
        for l in range(max(1, v - 1), 4):
            for graph in enumerate_connected_multigraphs(v, l):
                dd = directed_double(graph)
                maps = list(enumerate_maps(graph))
                trees = spanning_trees(graph)
                for root in range(len(dd.arcs)):
                    produced = set()
                    for m in maps:
                        for tree in trees:
                            cycle = best_forward(m, tree, root)
                            back_m, back_t = best_inverse(cycle, graph, root)
                            if (back_m.rotation, back_t) != (m.rotation, tree):
                                failures.append(_failure(
                                    "map_combinatorics", "best_inverse",
                                    {"graph": graph.multiplicity, "root": root},
                                    (m.rotation, sorted(tree)),
                                    (back_m.rotation, sorted(back_t))))
                            produced.add(cycle.arc_sequence)
                    count = eulerian_count_rooted(dd, root)
                    if len(produced) != len(maps) * len(trees) or len(produced) != count:
                        failures.append(_failure(
                            "map_combinatorics", "best_forward",
                            {"graph": graph.multiplicity, "root": root},
                            f"{count} distinct cycles",
                            f"{len(produced)} from {len(maps)} maps x {len(trees)} trees"))
    return failures


def suite_initial(l_max=None):
    l_max = _cap(l_max, INITIAL_IDENTITY_EDGE_BUDGET, "--l-max")
    failures = []
    for l in range(1, l_max + 1):
        for N in range(1, 7):
            for message in initial_identity_report(l, N):
                failures.append(_failure(
                    "map_combinatorics", "verify_initial_identity",
                    {"l": l, "N": N}, "exact identity", message))
    for l in range(1, DERIVATIVE_EDGE_BUDGET + 1):
        for v in range(1, l + 2):  # a connected graph with l edges has <= l + 1 vertices
            for graph in enumerate_connected_multigraphs(v, l):
                oracle = trace_derivative_value(graph)
                counted = eulerian_count_normalized(graph)
                if oracle != counted:
                    failures.append(_failure(
                        "map_combinatorics", "eulerian_count_normalized",
                        {"graph": graph.multiplicity}, oracle, counted))
    return failures


def suite_hz(p_max=None):
    l_top = HZ_RECURSION_L_MAX if p_max is None else min(p_max, HZ_RECURSION_L_MAX)
    p_max = _cap(p_max, HZ_P_MAX, "--l-max")
    failures = []
    for N in range(1, 6):
        coeffs = harer_zagier_closed(N, p_max)
        for p in range(1, p_max + 1):
            rebuilt = harer_zagier_from_counts(N, p)
            if coeffs[p - 1] != rebuilt:
                failures.append(_failure(
                    "map_combinatorics", "harer_zagier_closed",
                    {"N": N, "p": p}, rebuilt, coeffs[p - 1]))
            if N == 1 and coeffs[p - 1] != 1:
                failures.append(_failure(
                    "map_combinatorics", "harer_zagier_closed",
                    {"N": 1, "p": p}, 1, coeffs[p - 1]))
    for l in range(1, p_max + 1):
        census = rosette_census(l)
        for g, count in enumerate(census.counts):
            formula = rosette_count_formula(l, g)
            if formula != count:
                failures.append(_failure(
                    "map_combinatorics", "rosette_count_formula",
                    {"l": l, "g": g}, count, formula))
        if rosette_count_formula(l, 0) != catalan(l):
            failures.append(_failure(
                "map_combinatorics", "rosette_count_formula",
                {"l": l, "g": 0}, catalan(l), rosette_count_formula(l, 0)))
    recursion = harer_zagier_recursion(l_top)
    for l in range(1, l_top + 1):
        for g, count in enumerate(recursion[l]):
            formula = rosette_count_formula(l, g)
            if formula != count:
                failures.append(_failure(
                    "map_combinatorics", "rosette_count_formula",
                    {"l": l, "g": g}, count, formula))
    return failures


# 20 (N, lambda) points for the Fourier-route spot check
FOURIER_POINTS = [
    (1, 0.0), (1, 1.3), (2, -1.3), (2, 0.4), (2, 2.1),
    (3, 0.0), (3, -0.8), (4, 1.0), (4, -2.2), (5, 0.5),
    (5, 1.6), (6, -0.3), (6, 2.4), (7, 0.9), (7, -1.7),
    (8, 0.0), (8, 0.7), (8, -1.2), (8, 1.9), (8, 2.8),
]


def suite_density(samples=HISTOGRAM_SAMPLES, bins=HISTOGRAM_BINS, seed=DEFAULT_SEED):
    # drawn first, so a usage error in samples or bins comes before the integrals
    from .montecarlo import estimate_density_histogram  # loads numpy

    stats = estimate_density_histogram(8, samples, bins, (-3.0, 3.0), seed)
    failures = []
    for N in range(1, 11):
        total = integrate_real(lambda x: density_eval(N, x), -12.0, 12.0, 1e-10)
        if abs(total - 1.0) > 1e-9:
            failures.append(_failure(
                "observables", "density", {"N": N}, "normalization 1 +- 1e-9", total))
        for lam in (0.37, 1.21, 2.44):
            gap = abs(density_eval(N, lam) - density_eval(N, -lam))
            if gap > 1e-12:
                failures.append(_failure(
                    "observables", "density_eval", {"N": N, "lambda": lam},
                    "even in lambda", gap))
        for l in range(1, 5):  # l = 0 is the normalization above
            got = integrate_real(
                lambda x: pointwise(lambda v: v ** (2 * l), x) * density_eval(N, x),
                -12.0, 12.0, 1e-9)
            want = float(moment_exact(N, l))
            if abs(got - want) > 1e-7:
                failures.append(_failure(
                    "observables", "density moments", {"N": N, "l": l}, want, got))
        odd = integrate_real(lambda x: pointwise(lambda v: v**3, x) * density_eval(N, x),
                             -12.0, 12.0, 1e-10)
        if abs(odd) > 1e-9:
            failures.append(_failure(
                "observables", "density moments", {"N": N, "order": 3}, 0.0, odd))
    for N, lam in FOURIER_POINTS:
        via_fourier = density_fourier_check(N, lam)
        via_hermite = density_eval(N, lam)
        if abs(via_fourier - via_hermite) > 1e-8:
            failures.append(_failure(
                "observables", "density_fourier_check", {"N": N, "lambda": lam},
                via_hermite, via_fourier))
    width = 6.0 / bins
    bad = 0
    for j, st in enumerate(stats):
        center = -3.0 + (j + 0.5) * width
        if st.std_error > 0 and abs(st.mean - density_eval(8, center)) > 4 * st.std_error:
            bad += 1
    if bad > 0.05 * bins:
        failures.append(_failure(
            "montecarlo", "estimate_density_histogram",
            {"N": 8, "samples": samples, "bins": bins, "seed": seed},
            "within 4 std errors in >= 95% of bins", f"{bad} outliers"))
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
            if value > bound * (1 + 1e-12):
                failures.append(_failure(
                    "observables", "wilson_bound", {"N": N, "t": str(t)}, bound, value))
    return failures


def _run_all(suites):
    """The failures of every suite in `suites` (name -> callable), in its
    order: "density", the one suite that loads numpy, in this process and
    the pure-Python rest in one forked Worker beside it.  The first suite
    in that order to raise raises here, as when the suites run in turn.
    """
    from .worker import Worker

    worker = Worker({f"suite {name!r}": suite
                     for name, suite in suites.items() if name != "density"})
    try:
        try:
            density = suites["density"]()
        except Exception as exc:  # raised below, unless an earlier suite raised
            density = exc
        failures = []
        for name in suites:
            outcome = density if name == "density" else worker.receive()
            if isinstance(outcome, Exception):
                raise outcome
            failures += outcome
        return failures
    finally:
        worker.close()


def run_suite(name, l_max=None, samples=HISTOGRAM_SAMPLES, bins=HISTOGRAM_BINS,
              seed=DEFAULT_SEED):
    """The failures of suite `name`; "all" runs every suite, in SUITES
    order, split over two processes by _run_all (POSIX fork)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")

    def budget(top):
        # under "all", one --l-max lowers each enumeration budget to at most its own maximum
        return l_max if name != "all" or l_max is None else min(l_max, top)

    suites = {
        "wick": lambda: suite_wick(l_max),
        "best": lambda: suite_best(),
        "initial": lambda: suite_initial(budget(INITIAL_IDENTITY_EDGE_BUDGET)),
        "hz": lambda: suite_hz(budget(HZ_P_MAX)),
        "density": lambda: suite_density(samples=samples, bins=bins, seed=seed),
        "bound": lambda: suite_bound(seed=seed),
    }
    if name != "all":
        return suites[name]()
    return _run_all(suites)
