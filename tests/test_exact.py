import math
import random
from fractions import Fraction
from itertools import product

import pytest

from guekit.exact import (
    QuadratureError,
    binomial,
    catalan,
    double_factorial,
    enumerate_partition_terms,
    integrate_real,
    partition_term_sum,
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


def test_binomial_small_cases():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_symmetry_and_row_sums():
    for n in range(31):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


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


def test_integrate_constant_and_parabola():
    assert integrate_real(lambda x: 1.0, 0.0, 1.0, 1e-10) == pytest.approx(1.0, abs=1e-12)
    assert integrate_real(lambda x: x * x, -1.0, 1.0, 1e-10) == pytest.approx(2 / 3, abs=1e-10)


def test_integrate_gaussian_normalization():
    val = integrate_real(
        lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -12.0, 12.0, 1e-10
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_real(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        integrate_real(lambda x: x, 0.0, 1.0, 0.0)


def test_integrate_reports_budget_exhaustion():
    with pytest.raises(QuadratureError):
        integrate_real(lambda x: math.sin(1e9 * x), 0.0, 1.0, 1e-12)
