"""Exact integer/rational primitives and shared numerical utilities.

Everything in this module is either bit-exact (integer and rational
combinatorics) or carries an explicit tolerance (quadrature).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

# Adaptive Simpson gives up once the interval has been split into more
# panels than this.
SIMPSON_PANEL_BUDGET = 2**20


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature exhausts its subdivision budget."""


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double_factorial requires n >= -1, got {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def catalan(l: int) -> int:
    """l-th Catalan number binom(2l, l) / (l + 1)."""
    return binomial(2 * l, l) // (l + 1)


def enumerate_partition_terms(l: int, g: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All {k_q} with sum q*k_q = g and sum k_q = l - 2g + 1, each once,
    as the sorted pairs (q, k_q) with k_q > 0.

    Brute-force oracle for partition_term_sum, kept for tests and the
    benchmark tracer; no command path calls it.  Enumerates k_q for
    q = 1..g (q > g is impossible since q*k_q <= g), then fixes
    k_0 = l - 2g + 1 - sum_{q>=1} k_q, dropping assignments that would
    force k_0 < 0.
    """
    if l < 1:
        raise ValueError(f"enumerate_partition_terms requires l >= 1, got {l}")
    if g < 0:
        raise ValueError(f"enumerate_partition_terms requires g >= 0, got {g}")
    budget = l - 2 * g + 1
    if budget < 0:
        return

    def assign(q: int, weight_left: int,
               parts: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
        if q > g or weight_left == 0:
            if weight_left != 0:
                return
            k0 = budget - sum(k for _, k in parts)
            if k0 < 0:
                return
            entries = ([(0, k0)] if k0 > 0 else []) + parts
            yield tuple(entries)
            return
        for k in range(weight_left // q + 1):
            yield from assign(q + 1, weight_left - q * k, parts + ([(q, k)] if k else []))

    yield from assign(1, g, [])


def partition_term_sum(l: int, g: int) -> Fraction:
    """[x^g] S(x)^n / n!, where S(x) = sum_{q>=0} x^q / (2q+1) and n = l - 2g + 1.

    By the exponential formula this is the sum over the terms {k_q} of
    enumerate_partition_terms(l, g) of prod_q 1 / (k_q! (2q+1)^k_q); it is
    0 when n < 0.  S^n comes from J.C.P. Miller's power recurrence
    p_0 = 1, p_k = (1/k) sum_{j=1..k} ((n+1) j - k) s_j p_{k-j}, run on the
    integers r_k = p_k k! M^k with M = lcm(1, 3, .., 2g+1): O(g^2) integer
    steps and one reduction at the end.
    """
    if l < 1:
        raise ValueError(f"partition_term_sum requires l >= 1, got {l}")
    if g < 0:
        raise ValueError(f"partition_term_sum requires g >= 0, got {g}")
    n = l - 2 * g + 1
    if n < 0:
        return Fraction(0)
    M = math.lcm(*range(1, 2 * g + 2, 2))
    Ms = [M // (2 * j + 1) for j in range(g + 1)]  # M s_j
    r = [1]
    for k in range(1, g + 1):
        total = 0
        scale = 1  # M^(j-1) (k-1)! / (k-j)!
        for j in range(1, k + 1):
            total += ((n + 1) * j - k) * Ms[j] * scale * r[k - j]
            scale *= M * (k - j)
        r.append(total)
    return Fraction(r[g], math.factorial(g) * M**g * math.factorial(n))


# Fixed first-stage split; guards against false convergence when the three
# whole-interval probes all land where the integrand is negligible.
SIMPSON_INITIAL_PANELS = 16


def integrate_real(f: Callable[[float], complex], a: float, b: float, tol: float) -> complex:
    """Adaptive composite Simpson integral of f over [a, b].

    The interval is first cut into SIMPSON_INITIAL_PANELS equal panels,
    each refined adaptively against its share of the absolute error
    target tol; raises QuadratureError once the panel budget is spent.
    f may be real or complex valued: the rule is linear and the error
    test takes the modulus, so a complex f is integrated in one pass.
    """
    if not a < b:
        raise ValueError(f"integrate_real requires a < b, got [{a}, {b}]")
    if not tol > 0:
        raise ValueError(f"integrate_real requires tol > 0, got {tol}")

    panels = [SIMPSON_INITIAL_PANELS]  # mutable counter shared by the recursion

    def simpson(x0: float, x2: float, f0: complex, f1: complex, f2: complex) -> complex:
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0: float, x2: float, f0: complex, f1: complex, f2: complex,
                whole: complex, eps: float) -> complex:
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        panels[0] += 2
        if panels[0] > SIMPSON_PANEL_BUDGET:
            raise QuadratureError(
                f"adaptive Simpson exceeded {SIMPSON_PANEL_BUDGET} panels on [{a}, {b}]"
            )
        half = 0.5 * eps
        return (recurse(x0, xm, f0, fl, f1, left, half)
                + recurse(xm, x2, f1, fr, f2, right, half))

    total = 0.0
    step = (b - a) / SIMPSON_INITIAL_PANELS
    eps = tol / SIMPSON_INITIAL_PANELS
    x0, f0 = a, f(a)
    for k in range(1, SIMPSON_INITIAL_PANELS + 1):
        x2 = a + k * step if k < SIMPSON_INITIAL_PANELS else b
        xm = 0.5 * (x0 + x2)
        f1, f2 = f(xm), f(x2)
        total += recurse(x0, x2, f0, f1, f2, simpson(x0, x2, f0, f1, f2), eps)
        x0, f0 = x2, f2  # the right end of panel k is the left end of panel k+1
    return total
