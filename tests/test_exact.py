import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import guekit.exact
from guekit.exact import (
    SIMPSON_INITIAL_PANELS,
    SIMPSON_PANEL_BUDGET,
    QuadratureError,
    catalan,
    double_factorial,
    enumerate_partition_terms,
    integrate_real,
    moment_term,
    partition_term_sum,
    pointwise,
)


def brute_force_partition_terms(l, g):
    """Independent oracle: filter every k-vector with k_q <= l+1, q <= g."""
    found = set()
    qs = list(range(g + 1))
    if not qs:
        return found
    for ks in product(range(l + 2), repeat=len(qs)):
        if sum(q * k for q, k in zip(qs, ks)) != g:
            continue
        if sum(ks) != l - 2 * g + 1:
            continue
        found.add(tuple((q, k) for q, k in zip(qs, ks) if k > 0))
    return found


def test_rational_arithmetic_properties():
    rng = random.Random(11)
    draws = [
        Fraction(rng.randrange(-20, 21), rng.randrange(1, 13)) for _ in range(60)
    ]
    for a, b, c in zip(draws[::3], draws[1::3], draws[2::3]):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1
        total = a + b
        assert math.gcd(total.numerator, total.denominator) == 1
        assert total.denominator > 0


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_double_factorial_links_to_factorial():
    for l in range(13):
        assert double_factorial(2 * l - 1) * 2**l * math.factorial(l) == math.factorial(2 * l)


def test_catalan_values():
    assert [catalan(l) for l in range(6)] == [1, 1, 2, 5, 14, 42]


def test_moment_term_values():
    # binom(3, q+1) weights: 3 * 3 + 3 * 12 + 12 = 57 = 3^3 m_4(3)
    assert [moment_term(2, q) for q in range(3)] == [3, 12, 12]
    for l in range(8):
        assert moment_term(l, 0) == double_factorial(2 * l - 1)
        assert moment_term(l, l) == math.factorial(2 * l) // math.factorial(l)
    for l, q in [(2, 3), (2, -1)]:
        with pytest.raises(ValueError):
            moment_term(l, q)


def test_partition_terms_examples():
    assert list(enumerate_partition_terms(1, 0)) == [((0, 2),)]
    assert list(enumerate_partition_terms(2, 1)) == [((1, 1),)]
    # l=4, g=2: brute-force filter leaves only {k_2 = 1}
    assert brute_force_partition_terms(4, 2) == {((2, 1),)}
    assert list(enumerate_partition_terms(4, 2)) == [((2, 1),)]


def test_partition_terms_empty_when_overshooting():
    assert list(enumerate_partition_terms(1, 1)) == []
    assert list(enumerate_partition_terms(2, 2)) == []


def test_partition_terms_match_brute_force_and_constraints():
    for l in range(1, 9):
        for g in range(5):
            terms = list(enumerate_partition_terms(l, g))
            seen = set()
            for t in terms:
                assert sum(q * k for q, k in t) == g
                assert sum(k for _, k in t) == l - 2 * g + 1
                assert all(k > 0 for _, k in t)
                assert t not in seen
                seen.add(t)
            assert seen == brute_force_partition_terms(l, g)


def test_partition_term_sum_small():
    # l=2, g=0: only {k_0 = 3} -> 1/3! ; l=2, g=1: only {k_1 = 1} -> 1/3
    assert partition_term_sum(2, 0) == Fraction(1, 6)
    assert partition_term_sum(2, 1) == Fraction(1, 3)


def test_partition_term_sum_equals_enumerated_sum():
    # the series coefficient against the sum over the enumerated terms,
    # up to g = l//2 + 1 so that the empty cases (n = 0 and n < 0) are included
    for l in range(1, 25):
        for g in range(l // 2 + 2):
            enumerated = sum(
                (Fraction(1, math.prod(math.factorial(k) * (2 * q + 1) ** k for q, k in term))
                 for term in enumerate_partition_terms(l, g)),
                start=Fraction(0),
            )
            assert partition_term_sum(l, g) == enumerated, (l, g)


def test_partition_term_sum_validates_arguments():
    with pytest.raises(ValueError):
        partition_term_sum(0, 0)
    with pytest.raises(ValueError):
        partition_term_sum(3, -1)


@pytest.mark.parametrize("l, g, reason", [(0, 0, "l >= 1, got 0"), (3, -1, "g >= 0, got -1")])
def test_partition_terms_validate_arguments(l, g, reason):
    # a generator: the refusal comes at the first term
    with pytest.raises(ValueError, match=f"^enumerate_partition_terms requires {reason}$"):
        next(enumerate_partition_terms(l, g))


def test_integrate_constant_and_parabola():
    assert integrate_real(lambda x: np.ones_like(x), 0.0, 1.0, 1e-10) == pytest.approx(
        1.0, abs=1e-12)
    assert integrate_real(lambda x: x * x, -1.0, 1.0, 1e-10) == pytest.approx(2 / 3, abs=1e-10)


def test_integrate_sums_its_accepted_panels_exactly():
    # the 16 initial panels of 1/3 on [0, 16] all pass; their correctly
    # rounded sum is 16/3, where adding them one at a time gives 1 ulp less
    def third(x):
        return np.full(x.shape, 1 / 3)

    assert integrate_real(third, 0.0, 16.0, 1e-10) == 16 / 3
    assert integrate_real(lambda x: [x, third(x)], 0.0, 16.0, 1e-10) == [128.0, 16 / 3]


def test_integrate_gaussian_normalization():
    val = integrate_real(
        lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi), -12.0, 12.0, 1e-10
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_real(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        integrate_real(lambda x: x, 0.0, 1.0, 0.0)


def test_integrate_reports_budget_exhaustion():
    with pytest.raises(QuadratureError):
        integrate_real(lambda x: np.sin(1e9 * x), 0.0, 1.0, 1e-12)


# ------------------------------------------- breadth-first Simpson, bit for bit

def reference_simpson(f, a, b, tol, budget=SIMPSON_PANEL_BUDGET, depths=None):
    """The depth-first adaptive Simpson that integrate_real replaced: f is
    called on one float at a time.  Kept as the oracle for the bits of the
    breadth-first form: both accept the same panels, and each integral is
    the math.fsum of its accepted panels.  f returns one value per node,
    or a list of k values for k integrands; then tol is one number or k, a
    panel splits while any of the k misses its share of its own tol, each
    is summed on its own, and the result is a list of k integrals.  depths,
    if given, collects the depth of every panel tested (0 for the initial
    panels)."""
    panels = [SIMPSON_INITIAL_PANELS]
    first = f(a)
    one = not isinstance(first, list)
    k = 1 if one else len(first)

    def g(x):
        return [f(x)] if one else f(x)

    def simpson(x0, x2, f0, f1, f2):
        return [(x2 - x0) * (u + 4.0 * v + w) / 6.0 for u, v, w in zip(f0, f1, f2)]

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        if depths is not None:
            depths.append(depth)
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = g(xl)
        fr = g(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = [p + q - w for p, q, w in zip(left, right, whole)]
        if all(abs(d) <= 15.0 * e for d, e in zip(delta, eps)):
            for row, p, q, d in zip(accepted, left, right, delta):
                row.append(p + q + d / 15.0)
            return
        panels[0] += 2
        if panels[0] > budget:
            raise QuadratureError("budget")
        half = [0.5 * e for e in eps]
        recurse(x0, xm, f0, fl, f1, left, half, depth + 1)
        recurse(xm, x2, f1, fr, f2, right, half, depth + 1)

    accepted = [[] for _ in range(k)]  # per integrand: the results of its accepted panels
    step = (b - a) / SIMPSON_INITIAL_PANELS
    eps = [t / SIMPSON_INITIAL_PANELS for t in (tol if isinstance(tol, list) else [tol] * k)]
    x0, f0 = a, [first] if one else first
    for n in range(1, SIMPSON_INITIAL_PANELS + 1):
        x2 = a + n * step if n < SIMPSON_INITIAL_PANELS else b
        xm = 0.5 * (x0 + x2)
        f1, f2 = g(xm), g(x2)
        recurse(x0, x2, f0, f1, f2, simpson(x0, x2, f0, f1, f2), eps, 0)
        x0, f0 = x2, f2
    total = [math.fsum(row) for row in accepted]
    return total[0] if one else total


def test_suite_density_integrals_keep_their_bits(monkeypatch):
    # one pass per N for the normalization and the moments, and one per N
    # of FOURIER_POINTS for the Fourier route, each against the reference
    from guekit import observables, verify
    from guekit.observables import density_eval, truncation_time, wilson_eval

    def moments(N, x):  # rho_N times 1, x^2, x^4, x^6, x^8 and x^3, as the suite forms them
        rho, x2 = density_eval(N, x), x * x
        x4 = x2 * x2
        return [rho, x2 * rho, x4 * rho, x4 * x2 * rho, x4 * x4 * rho, x2 * x * rho]

    passes = {verify: [], observables: []}

    def recorded(module):
        def integrate(f, a, b, tol):
            passes[module].append(integrate_real(f, a, b, tol))
            return passes[module][-1]
        return integrate

    for module in passes:
        monkeypatch.setattr(module, "integrate_real", recorded(module))
    assert verify.suite_density() == []
    tols = [1e-10] + [1e-9] * 4 + [1e-10]
    want = [reference_simpson(lambda x: moments(N, x), -12.0, 12.0, tols) for N in range(1, 11)]
    assert passes[verify] == want
    fourier = {}
    for N, lam in verify.FOURIER_POINTS:
        fourier.setdefault(N, []).append(lam)
    want = [reference_simpson(lambda t: [math.cos(lam * t) * wilson_eval(N, t).real
                                         for lam in lams], 0.0, truncation_time(N), 1e-11)
            for N, lams in fourier.items()]
    assert passes[observables] == want
    assert [len(row) for row in want] == [2, 3, 2, 2, 2, 2, 2, 5]


def test_fourier_points_keep_their_bits():
    from guekit.observables import density_fourier_check, truncation_time, wilson_eval
    from guekit.verify import FOURIER_POINTS

    for N, lam in FOURIER_POINTS:
        want = reference_simpson(lambda t: math.cos(lam * t) * wilson_eval(N, t).real,
                                 0.0, truncation_time(N), 1e-11) / math.pi
        assert density_fourier_check(N, lam) == want, (N, lam)


@pytest.mark.parametrize("N", [1, 2, 8, 40, 120])
def test_resolvent_laplace_keeps_its_bits(N):
    from guekit.observables import TAIL_EPSILON, resolvent_laplace, truncation_time, wilson_eval

    for z in (1, 2, 3 + 1j, 1 + 2j, 1 + 5j):
        # the tail past T is below exp(-T Re z)/Re z, since |I| <= 1
        T = min(truncation_time(N), math.log(1 / (TAIL_EPSILON * min(z.real, 1))) / z.real)
        # one pass over the two rows [Re e^{-zt} I, Im e^{-zt} I]
        want = complex(*reference_simpson(lambda t: [take(cmath.exp(-z * t) * wilson_eval(N, t))
                                                     for take in (lambda v: v.real,
                                                                  lambda v: v.imag)],
                                          0.0, T, 1e-10))
        assert resolvent_laplace(N, z) == want, z


def test_integrate_calls_once_per_level():
    def smooth(x):
        return math.exp(-x * x) * math.cos(3 * x)

    def peaked(x):
        return 1.0 / (1e-4 + x * x)

    for g, a, b, tol in [(smooth, -4.0, 4.0, 1e-12), (peaked, -1.0, 2.0, 1e-8),
                         (lambda x: 1.0, 0.0, 1.0, 1e-10)]:
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return pointwise(g, x)

        scalar_calls = []

        def counted_scalar(x):
            scalar_calls.append(x)
            return g(x)

        depths = []
        want = reference_simpson(counted_scalar, a, b, tol, depths=depths)
        assert integrate_real(counted, a, b, tol) == want
        assert sizes[0] == 2 * SIMPSON_INITIAL_PANELS + 1
        assert len(sizes) == 1 + max(depths) + 1  # the initial nodes, then one call per level
        assert sum(sizes) == len(scalar_calls)


def test_integrate_refuses_with_the_same_budgets(monkeypatch):
    cases = [(lambda x: math.sin(40 * x), 0.0, 3.0, 1e-10),
             (lambda x: abs(x - 0.3) ** 0.5, 0.0, 1.0, 1e-9),
             (lambda x: math.exp(x), 0.0, 1.0, 1e-12)]
    for g, a, b, tol in cases:
        depths = []
        reference_simpson(g, a, b, tol, depths=depths)
        used = len(depths)  # every panel tested, split or not
        for budget in (16, 100, used - 1, used, 2 * used):
            monkeypatch.setattr(guekit.exact, "SIMPSON_PANEL_BUDGET", budget)
            try:
                want = reference_simpson(g, a, b, tol, budget=budget)
            except QuadratureError:
                assert budget < used
                with pytest.raises(QuadratureError):
                    integrate_real(lambda x: pointwise(g, x), a, b, tol)
            else:
                assert budget >= used
                assert integrate_real(lambda x: pointwise(g, x), a, b, tol) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_a_non_finite_integrand(bad):
    # no panel holding such a node can converge, so the first level that
    # meets one names it
    with pytest.raises(QuadratureError, match="at x = 0.0"):
        integrate_real(lambda x: np.where(x == 0, bad, 1.0), -1.0, 1.0, 1e-12)
    with pytest.raises(QuadratureError, match="at x = 0.015625"):  # a quarter point
        integrate_real(lambda x: np.where(x == 1 / 64, bad, 1.0), 0.0, 1.0, 1e-12)


def test_integrate_refuses_a_complex_integrand():
    with pytest.raises(TypeError, match="real and imaginary parts apart"):
        integrate_real(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-10)

    # sqrt(-(32x - round(32x))^2) is 0.0 at the 33 initial nodes (x = k/32)
    # and i|32x - round(32x)| at every later one
    def g(x):
        return math.exp(x) + (-(32 * x - round(32 * x)) ** 2) ** 0.5

    calls = []

    def f(x):
        calls.append(pointwise(g, x))
        return calls[-1]

    with pytest.raises(TypeError, match="real and imaginary parts apart"):
        integrate_real(f, 0.0, 1.0, 1e-10)
    assert len(calls) == 2
    assert not np.iscomplexobj(calls[0]) and np.iscomplexobj(calls[1])


def test_integrate_wants_one_value_per_node():
    with pytest.raises(ValueError):
        integrate_real(lambda x: 1.0, 0.0, 1.0, 1e-10)


# ------------------------------------------- k integrands over shared nodes

def _rows(x):
    """Three integrands of unlike difficulty at one node."""
    return [math.exp(-x * x) * math.cos(3 * x), 1.0 / (1e-4 + x * x), x**3]


def _array_rows(x):
    return np.array([_rows(v) for v in x.tolist()]).T


@pytest.mark.parametrize("tol", [1e-9, [1e-12, 1e-8, 1e-10], [1e-6, 1e-12, 1e-6]])
def test_integrate_k_rows_keeps_the_bits_of_the_reference(tol):
    got = integrate_real(_array_rows, -1.0, 2.0, tol)
    assert got == reference_simpson(_rows, -1.0, 2.0, tol)
    assert isinstance(got, list) and len(got) == 3
    assert all(isinstance(value, float) for value in got)


def test_integrate_one_row_equals_the_one_dimensional_call():
    def g(v):
        return math.exp(-v * v) * math.cos(3 * v)

    for tol in (1e-12, [1e-12]):
        assert integrate_real(lambda x: [pointwise(g, x)], -4.0, 4.0, tol) == [
            integrate_real(lambda x: pointwise(g, x), -4.0, 4.0, 1e-12)]


def test_integrate_each_row_takes_its_own_tolerance():
    # the same integrand twice: the tighter row sets the panels, so both rows
    # get the tight result, which differs from the loose one
    def g(v):
        return 1.0 / (1e-4 + v * v)

    def twice(x):
        return [pointwise(g, x)] * 2

    tight = integrate_real(lambda x: pointwise(g, x), -1.0, 2.0, 1e-10)
    loose = integrate_real(lambda x: pointwise(g, x), -1.0, 2.0, 1e-4)
    assert tight != loose
    assert integrate_real(twice, -1.0, 2.0, [1e-4, 1e-10]) == [tight, tight]
    assert integrate_real(twice, -1.0, 2.0, [1e-10, 1e-4]) == [tight, tight]
    assert integrate_real(twice, -1.0, 2.0, [1e-4, 1e-4]) == [loose, loose]
    assert integrate_real(twice, -1.0, 2.0, 1e-4) == [loose, loose]


@pytest.mark.parametrize("f, tol", [
    (lambda x: np.ones((2, x.size + 1)), 1e-10),   # (k, m) with m != n
    (lambda x: np.ones((2, 3, x.size)), 1e-10),    # 3-d
    (lambda x: np.ones((2, x.size)), [1e-10] * 3),  # k tolerances for other than k rows
    (lambda x: np.ones(x.size), [1e-10] * 2),
    (lambda x: np.ones((1 + (x.size != 33), x.size)), 1e-10),  # k moves after the first call
])
def test_integrate_wants_k_rows_of_n_values(f, tol):
    with pytest.raises(ValueError):
        integrate_real(lambda x: f(x) * np.sin(40 * x), 0.0, 3.0, tol)


def test_integrate_refuses_a_non_positive_row_tolerance():
    for tol in ([1e-10, 0.0], [1e-10, math.nan], []):
        with pytest.raises(ValueError, match="tol > 0"):
            integrate_real(lambda x: [x, x], 0.0, 1.0, tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_refuses_a_non_finite_value_in_any_row(bad):
    with pytest.raises(QuadratureError, match=f"integrand is {bad} at x = 0.0 "):
        integrate_real(lambda x: [np.ones_like(x), np.where(x == 0, bad, 1.0)], -1.0, 1.0, 1e-12)
    with pytest.raises(QuadratureError, match="at x = 0.015625"):  # a quarter point
        integrate_real(lambda x: [np.where(x == 1 / 64, bad, 1.0), x], 0.0, 1.0, 1e-12)

