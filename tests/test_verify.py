"""Every failure record of the verify suites, pinned.

Each test breaks one oracle per check of a suite, at known inputs, and
asserts the suite's failure dicts in full and in order: what a broken
check reports is part of `guekit verify`'s output.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

import guekit.maps.bijection as bijection
import guekit.maps.multigraph as multigraph
import guekit.montecarlo as montecarlo
import guekit.verify as verify
from guekit.exact import catalan
from guekit.maps.rosettes import moment_wick
from guekit.observables import (
    density_eval,
    harer_zagier_closed,
    harer_zagier_from_counts,
    moment_exact,
    rosette_count_formula,
    wilson_bound,
    wilson_eval,
)


def _record(module, operation, inputs, expected, actual):
    return {"module": module, "operation": operation, "inputs": inputs,
            "expected": str(expected), "actual": str(actual)}


def test_suite_wick_records_each_wrong_moment(monkeypatch):
    off = {(5, 1), (2, 3)}
    monkeypatch.setattr(verify, "moment_exact",
                        lambda N, l: moment_exact(N, l) + ((N, l) in off))
    assert verify.suite_wick() == [  # l outer, N inner
        _record("map_combinatorics", "moment_wick", {"N": N, "l": l},
                moment_exact(N, l) + 1, moment_wick(N, l))
        for N, l in [(5, 1), (2, 3)]]


def test_suite_best_records_a_failed_inverse_and_a_wrong_cycle_count(monkeypatch):
    # the first graph is one vertex with one loop: one map, the empty tree,
    # and one Eulerian cycle from each of its two root arcs
    inverse, count = bijection.best_inverse, multigraph.eulerian_count_rooted
    calls = []

    def wrong_inverse(cycle):
        calls.append(cycle)
        back_m, back_t = inverse(cycle)
        return back_m, (frozenset({5}) if len(calls) == 1 else back_t)

    monkeypatch.setattr(bijection, "best_inverse", wrong_inverse)
    monkeypatch.setattr(multigraph, "eulerian_count_rooted",
                        lambda dd, root: count(dd, root) + (len(calls) == 2))
    loop = {"graph": ((1,),)}
    assert verify.suite_best() == [
        _record("map_combinatorics", "best_inverse", {**loop, "root": 0},
                (((0, 1),), []), (((0, 1),), [5])),
        _record("map_combinatorics", "best_forward", {**loop, "root": 1},
                "2 distinct cycles", "1 from 1 maps x 1 trees"),
    ]


def test_suite_initial_records_a_wrong_identity_and_a_wrong_derivative(monkeypatch):
    report, derivative = multigraph.initial_identity_report, multigraph.trace_derivative_value
    two_loops = multigraph.Multigraph.from_edges(1, [(0, 0), (0, 0)])
    monkeypatch.setattr(multigraph, "initial_identity_report",
                        lambda l, N: ["off"] if (l, N) == (2, 3) else report(l, N))
    monkeypatch.setattr(multigraph, "trace_derivative_value",
                        lambda graph: derivative(graph) + (graph.multiplicity == ((2,),)))
    assert verify.suite_initial() == [
        _record("map_combinatorics", "verify_initial_identity", {"l": 2, "N": 3},
                "exact identity", "off"),
        _record("map_combinatorics", "eulerian_count_normalized", {"graph": ((2,),)},
                derivative(two_loops) + 1, derivative(two_loops)),
    ]


def test_suite_hz_records_each_check_in_order(monkeypatch):
    def closed(N, p_max):
        coeffs = harer_zagier_closed(N, p_max)
        return [Fraction(2), *coeffs[1:]] if N == 1 else coeffs

    def from_counts(N, p_max):
        rebuilt = harer_zagier_from_counts(N, p_max)
        if N == 1:
            rebuilt[0] = Fraction(2)
        if N == 2:
            rebuilt[2] += 1
        return rebuilt

    off = {(2, 0), (9, 2)}
    monkeypatch.setattr(verify, "harer_zagier_closed", closed)
    monkeypatch.setattr(verify, "harer_zagier_from_counts", from_counts)
    monkeypatch.setattr(verify, "rosette_count_formula",
                        lambda l, g: rosette_count_formula(l, g) + ((l, g) in off))
    monkeypatch.setattr(verify, "catalan", lambda l: catalan(l) + (l == 4))

    def formula(l, g):
        return _record("map_combinatorics", "rosette_count_formula", {"l": l, "g": g},
                       rosette_count_formula(l, g), rosette_count_formula(l, g) + 1)

    assert verify.suite_hz() == [
        _record("map_combinatorics", "harer_zagier_closed", {"N": 1, "p": 1}, 1, 2),
        _record("map_combinatorics", "harer_zagier_closed", {"N": 2, "p": 3},
                harer_zagier_from_counts(2, 3)[2] + 1, harer_zagier_closed(2, 3)[2]),
        formula(2, 0),  # against the census
        formula(2, 0),  # against Catalan
        _record("map_combinatorics", "rosette_count_formula", {"l": 4, "g": 0},
                catalan(4) + 1, catalan(4)),
        formula(2, 0),  # against the recursion, from l = 1 again
        formula(9, 2),
    ]


def test_suite_density_records_each_check_in_order(monkeypatch):
    # integrate_real makes one pass per N, whose six rows are, in order: the
    # normalization, the moments l = 1 .. 4 and the odd moment
    passes, integrate_real = [], verify.integrate_real

    def integrate(f, a, b, tol):
        passes.append(integrate_real(f, a, b, tol))
        broken = {1: (0, 0.5), 5: (5, 0.25)}.get(len(passes) - 1)
        return [broken[1] if broken and row == broken[0] else value
                for row, value in enumerate(passes[-1])]

    centres = {-3.0 + (j + 0.5) * (6.0 / 40) for j in range(22, 26)}

    def density(N, lam):
        if isinstance(lam, float) and N == 4 and abs(lam) == 0.37:
            return 1.0 if lam > 0 else 0.75
        return density_eval(N, lam) + (N == 8 and isinstance(lam, float) and lam in centres)

    monkeypatch.setattr(verify, "integrate_real", integrate)
    monkeypatch.setattr(verify, "density_eval", density)
    monkeypatch.setattr(verify, "moment_exact",
                        lambda N, l: moment_exact(N, l) + ((N, l) == (5, 2)))
    monkeypatch.setattr(verify, "density_fourier_check", lambda N, lams: [
        0.5 if (N, lam) == (7, 0.9) else density_eval(N, lam) for lam in lams])
    failures = verify.suite_density()
    assert failures == [
        _record("observables", "density", {"N": 2}, "normalization 1 +- 1e-9", 0.5),
        _record("observables", "density_eval", {"N": 4, "lambda": 0.37}, "even in lambda", 0.25),
        _record("observables", "density moments", {"N": 5, "l": 2},
                float(moment_exact(5, 2) + 1), passes[4][2]),
        _record("observables", "density moments", {"N": 6, "order": 3}, 0.0, 0.25),
        _record("observables", "density_fourier_check", {"N": 7, "lambda": 0.9},
                density_eval(7, 0.9), 0.5),
        _record("montecarlo", "estimate_density_histogram",
                {"N": 8, "samples": 4000, "bins": 40, "seed": verify.DEFAULT_SEED},
                "within 4 std errors in >= 95% of bins", "4 outliers"),
    ]
    assert len(passes) == 10
    assert all(len(values) == 6 for values in passes)


def test_suite_density_records_a_nan_from_the_fourier_route(monkeypatch):
    monkeypatch.setattr(verify, "density_fourier_check", lambda N, lams: [
        math.nan if (N, lam) == (7, 0.9) else density_eval(N, lam) for lam in lams])
    assert verify.suite_density() == [
        _record("observables", "density_fourier_check", {"N": 7, "lambda": 0.9},
                density_eval(7, 0.9), "nan")]


def test_suite_density_makes_one_pass_per_n_and_evaluates_each_node_once(monkeypatch):
    # 10 passes for the normalization and the moments, 8 for the Fourier
    # points (one per N of FOURIER_POINTS); within a pass every node is
    # evaluated once, for all of its rows
    import guekit.observables as observables

    passes = {verify: [], observables: []}

    def passing(module, integrate):
        def pass_(f, a, b, tol):
            passes[module].append([])
            return integrate(f, a, b, tol)
        return pass_

    def counted(module, evaluate):
        def at(N, x):
            if not isinstance(x, (int, float)):
                passes[module][-1].extend(x.tolist())
            return evaluate(N, x)
        return at

    for module, evaluate in ((verify, density_eval), (observables, wilson_eval)):
        monkeypatch.setattr(module, "integrate_real", passing(module, module.integrate_real))
        monkeypatch.setattr(module, evaluate.__name__, counted(module, evaluate))
    assert verify.suite_density() == []
    assert [len(passes[verify]), len(passes[observables])] == [10, 8]
    for nodes in passes[verify] + passes[observables]:
        assert nodes and len(nodes) == len(set(nodes))


def test_suite_density_counts_a_nan_bin_mean_as_an_outlier(monkeypatch):
    estimate = montecarlo.estimate_density_histogram

    def nan_means(*args):
        stats = estimate(*args)
        for j in (12, 20, 27):
            stats[j] = dataclasses.replace(stats[j], mean=math.nan)
        return stats

    monkeypatch.setattr(montecarlo, "estimate_density_histogram", nan_means)
    assert verify.suite_density() == [
        _record("montecarlo", "estimate_density_histogram",
                {"N": 8, "samples": 4000, "bins": 40, "seed": verify.DEFAULT_SEED},
                "within 4 std errors in >= 95% of bins", "3 outliers")]


def test_suite_bound_records_each_value_past_the_bound(monkeypatch):
    points = []

    def bound(N, t):
        points.append((N, t))
        return -1.0 if len(points) in (1001, 8000) else wilson_bound(N, t)

    monkeypatch.setattr(verify, "wilson_bound", bound)
    failures = verify.suite_bound()
    assert len(points) == 16 * 500
    assert failures == [
        _record("observables", "wilson_bound", {"N": N, "t": str(t)}, -1.0,
                abs(wilson_eval(N, t)))
        for N, t in (points[1000], points[7999])]
    assert [N for N, _ in (points[1000], points[7999])] == [3, 16]


def test_suite_bound_records_a_nan_bound(monkeypatch):
    points = []

    def bound(N, t):
        points.append((N, t))
        return math.nan if len(points) == 2345 else wilson_bound(N, t)

    monkeypatch.setattr(verify, "wilson_bound", bound)
    failures = verify.suite_bound()
    N, t = points[2344]
    assert failures == [
        _record("observables", "wilson_bound", {"N": N, "t": str(t)}, math.nan,
                abs(wilson_eval(N, t)))]


def test_run_suite_refuses_an_unknown_suite_name():
    with pytest.raises(ValueError) as refusal:
        verify.run_suite("wicks")
    assert str(refusal.value) == ("unknown suite 'wicks'; choose from "
                                  "all, wick, best, initial, hz, bound, density")
