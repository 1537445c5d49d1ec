"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is sized to finish in well under ten minutes.
"""

import math
import random
from fractions import Fraction

from guekit.exact import catalan, double_factorial, integrate_real
from guekit.maps.bijection import best_forward, best_inverse, enumerate_maps, spanning_trees
from guekit.maps.multigraph import (
    directed_double,
    enumerate_connected_multigraphs,
    eulerian_count_normalized,
    eulerian_cycles_rooted,
    trace_derivative_value,
    verify_initial_identity,
)
from guekit.maps.rosettes import (
    harer_zagier_closed,
    moment_wick,
    rosette_census,
    rosette_count_formula,
)
from guekit.montecarlo import estimate_density_histogram, estimate_wilson, zscore
from guekit.observables import (
    DEFAULT_RESOLVENT_NODES,
    density_eval,
    density_fourier_check,
    moment_exact,
    moment_genus_expansion,
    resolvent_laplace,
    resolvent_quadrature,
    wilson_bound,
    wilson_eval,
    wilson_limit_partial,
    wilson_taylor_coefficients,
)

SEED = 20240901


def _report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_taylor_coefficients_match_both_oracles():
    for N in range(1, 7):
        coeffs = wilson_taylor_coefficients(N, 7)
        for l in range(8):
            factor = math.factorial(2 * l)
            assert coeffs[l] == moment_exact(N, l) / factor
            assert coeffs[l] == moment_wick(N, l) / factor
    _report(1, "I(t,N) Taylor coefficients equal exact and Wick moments, l<=7, N<=6")


def test_criterion_02_limit_cases():
    for N in [1, 2, 5, 32]:
        assert wilson_eval(N, 0.0) == 1.0
    for k in range(41):
        t = -4.0 + 0.2 * k
        assert abs(wilson_eval(1, t) - math.exp(-t * t / 2)) <= 1e-14
    for k in range(21):
        t = -2.0 + 0.2 * k
        assert abs(wilson_limit_partial(t, 60) - wilson_eval(4096, t)) <= 1e-3
    _report(2, "I(0,N)=1, I(t,1)=exp(-t^2/2) to 1e-14, limit series matches N=4096")


def test_criterion_03_upper_bound():
    rng = random.Random(SEED)
    for N in range(1, 17):
        for _ in range(500):
            radius = rng.uniform(0.0, 10.0)
            angle = rng.uniform(0.0, 2 * math.pi)
            t = complex(radius * math.cos(angle), radius * math.sin(angle))
            assert abs(wilson_eval(N, t)) <= wilson_bound(N, t) * (1 + 1e-12)
    _report(3, "|I(t,N)| <= exp(-Re t^2/2N) exp(2|t|), 500 random t per N<=16")


def test_criterion_04_spectral_density():
    for N in range(1, 11):
        total = integrate_real(lambda x: density_eval(N, x), -12.0, 12.0, 1e-10)
        assert abs(total - 1.0) <= 1e-9
        for l in range(1, 5):
            got = integrate_real(lambda x: x ** (2 * l) * density_eval(N, x),
                                 -12.0, 12.0, 1e-9)
            assert abs(got - float(moment_exact(N, l))) <= 1e-7
    from guekit.verify import FOURIER_POINTS

    assert len(FOURIER_POINTS) == 20
    for N, lam in FOURIER_POINTS:
        assert abs(density_fourier_check(N, lam)
                   - density_eval(N, lam)) <= 1e-8
    _report(4, "rho_N normalized to 1e-9, moments to 1e-7 (N<=10), Fourier route to 1e-8")


def test_criterion_05_wigner_limit():
    for N in range(1, 17):
        assert moment_exact(N, 2) - 2 == Fraction(1, N**2)  # K = 1, bit-exact
    assert [catalan(l) for l in range(1, 6)] == [1, 2, 5, 14, 42]
    for l in range(1, 6):
        cat = catalan(l)
        k_l = double_factorial(2 * l - 1) - cat  # error at N=1, hence a valid K
        for N in range(1, 9):
            assert abs(moment_exact(N, l) - cat) <= Fraction(k_l, N**2)
    _report(5, "m_4 - 2 = 1/N^2 exactly; Catalan limit values 1, 2, 5, 14, 42")


def test_criterion_06_genus_expansion_resums_exactly():
    for l in range(1, 9):
        coeffs = moment_genus_expansion(l)
        assert all(c >= 0 for c in coeffs)
        for N in range(1, 9):
            total = sum(c * Fraction(1, N ** (2 * g)) for g, c in enumerate(coeffs))
            assert total == moment_exact(N, l)
    _report(6, "m_2l = sum_g c_g N^(-2g) bit-exact for l<=8, N<=8 (odd powers cancel)")


def test_criterion_07_rosette_counts():
    for l in range(1, 8):
        census = rosette_census(l)
        assert sum(census) == double_factorial(2 * l - 1)
        for g, count in enumerate(census):
            assert rosette_count_formula(l, g) == count
    for l in range(1, 11):
        assert rosette_count_formula(l, 0) == catalan(l)
        total = sum(rosette_count_formula(l, g) for g in range(l // 2 + 1))
        assert total == double_factorial(2 * l - 1)
    _report(7, "C_g(l) formula equals census for l<=7; Catalan and (2l-1)!! sums to l<=10")


def test_criterion_08_harer_zagier_series():
    for N in range(1, 6):
        coeffs = harer_zagier_closed(N, 7)
        for p in range(1, 8):
            rebuilt = sum(
                Fraction(rosette_count_formula(p, g), N ** (2 * g))
                for g in range(p // 2 + 1)
            ) / double_factorial(2 * p - 1)
            assert coeffs[p - 1] == rebuilt
    assert harer_zagier_closed(1, 7) == [Fraction(1)] * 7
    _report(8, "closed-form series equals sum_g C_g(p) N^(-2g)/(2p-1)!! for p<=7, N<=5")


def test_criterion_09_initial_identity_dual_oracle():
    for l in range(1, 5):
        for N in range(1, 7):
            assert verify_initial_identity(l, N)
    for v in range(1, 5):
        for l in range(1, 4):
            for graph in enumerate_connected_multigraphs(v, l):
                assert trace_derivative_value(graph) == eulerian_count_normalized(graph)
    _report(9, "derivative/Eulerian moment identity for l<=4, N<=6; oracle certified l<=3")


def test_criterion_10_best_bijection():
    checked = 0
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
                            back_m, back_t = best_inverse(cycle)
                            assert (back_m.rotation, back_t) == (m.rotation, tree)
                            produced.add(cycle.arc_sequence)
                    all_cycles = set(eulerian_cycles_rooted(dd, root))
                    assert produced == all_cycles
                    assert len(produced) == len(maps) * len(trees)
                    checked += 1
    assert checked > 0
    _report(10, "BEST round-trip and count equality on all graphs with <=3 vertices/edges")


def test_criterion_11_monte_carlo_validation():
    grid = [0.5 * k for k in range(1, 9)]
    outliers = 0
    points = 0
    for N in (2, 8, 32):
        for t, st in zip(grid, estimate_wilson(N, grid, 10000, SEED)):  # one draw per N
            z = zscore(st, wilson_eval(N, t).real)
            points += 1
            if abs(z) > 4:
                outliers += 1
    assert outliers <= 0.05 * points

    bins = 40
    stats = estimate_density_histogram(8, 10000, bins, (-3.0, 3.0), SEED)
    width = 6.0 / bins
    bad = 0
    for j, st in enumerate(stats):
        center = -3.0 + (j + 0.5) * width
        if st.std_error > 0 and abs(st.mean - density_eval(8, center)) > 4 * st.std_error:
            bad += 1
    assert bad <= 0.05 * bins
    _report(11, "Wilson z-scores within +-4 at >=95% of grid; histogram bins within 4 se")


def test_criterion_12_resolvent_cross_check():
    for N in range(1, 9):
        for z in (1.0, 2.0, 3 + 1j):
            a = resolvent_quadrature(N, z)
            b = resolvent_laplace(N, z)
            assert abs(a - b) <= 1e-6, (N, z, abs(a - b))
            doubled = resolvent_quadrature(N, z, nodes=2 * DEFAULT_RESOLVENT_NODES)
            assert abs(a - doubled) <= 1e-8, (N, z, abs(a - doubled))
    _report(12, "resolvent integral equals Laplace route to 1e-6; node doubling < 1e-8")
