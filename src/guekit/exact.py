"""Exact integer/rational primitives and shared numerical utilities.

Everything in this module is either bit-exact (integer and rational
combinatorics) or carries an explicit tolerance (quadrature).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add
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


def moment_term(l: int, q: int) -> int:
    """(2l)! / (2^{l-q} q! (l-q)!), the weight of binom(N, q+1) in N^{l+1} m_2l."""
    if not 0 <= q <= l:
        raise ValueError(f"moment_term requires 0 <= q <= l, got ({l}, {q})")
    return math.factorial(2 * l) // (2 ** (l - q) * math.factorial(q) * math.factorial(l - q))


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


def pointwise(fn: Callable[[float], float], x):
    """fn at each point of a 1-d float64 array, as an array: for integrands
    of integrate_real built from scalar math (math.exp, math.cos, float
    powers), whose numpy counterparts can round differently."""
    import numpy as np

    return np.array([fn(v) for v in x.tolist()])


# Fixed first-stage split; guards against false convergence when the three
# whole-interval probes all land where the integrand is negligible.
SIMPSON_INITIAL_PANELS = 16


def integrate_real(f: Callable, a: float, b: float, tol):
    """Adaptive composite Simpson integral of a real f over [a, b], or of k
    real integrands over the same nodes.

    f takes a float64 array of nodes and returns an array of its real
    values there, of shape (n,) for one integrand or (k, n) for k of them
    (a list of k arrays will do); a complex array raises TypeError (give
    the real and imaginary parts apart, as the two rows of one integrand,
    so one pass calls f once per node for both).  tol is the absolute
    error target, one number or one per row.  The interval is first cut
    into SIMPSON_INITIAL_PANELS equal panels, each refined adaptively
    against its share of the target: a panel splits while any row misses
    its share of its own tol, so each row passes the test it would pass
    alone.  The refinement runs breadth first: f is called once on the 33
    nodes of the initial panels, then once per level on the quarter points
    of every panel still open.  The accepted panels of each row are then
    added in tree order (a split panel is the sum of its halves, left +
    right; the initial panels left to right), so one integrand has the
    bits of the depth-first recursion with f called per node.  Returns a
    float for an (n,) integrand and a list of k floats for a (k, n) one.
    Raises QuadratureError once the panel budget is spent, or at a node
    where a row is not finite, since no panel holding it can converge.
    """
    if not a < b:
        raise ValueError(f"integrate_real requires a < b, got [{a}, {b}]")
    import numpy as np

    tols = np.array(tol, dtype=float).reshape(-1, 1)  # one row per integrand
    if not (tols > 0).all() or not tols.size:
        raise ValueError(f"integrate_real requires tol > 0, got {tol}")
    rows = None  # () for an (n,) integrand, (k,) for a (k, n) one: fixed by f's first call

    def values(x):
        nonlocal rows
        fx = np.asarray(f(x))
        rows = fx.shape[:-1] if rows is None else rows
        if fx.shape != rows + x.shape or fx.ndim > 2 or tols.size not in (1, fx.size // x.size):
            raise ValueError(f"integrand returned shape {fx.shape} for {x.size} nodes "
                             f"and {tols.size} tolerances")
        if np.iscomplexobj(fx):
            raise TypeError("complex integrand: give real and imaginary parts apart as two rows")
        fx = np.array(fx, dtype=float).reshape(-1, x.size)
        bad = ~np.isfinite(fx)
        if bad.any():
            i = np.flatnonzero(bad.any(axis=0))[0]
            raise QuadratureError(f"integrand is {fx[bad[:, i], i][0]} at x = {float(x[i])!r} "
                                  f"on [{a}, {b}]")
        return fx

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    n = SIMPSON_INITIAL_PANELS
    step = (b - a) / n
    x2 = np.array([a + k * step for k in range(1, n)] + [b])
    x0 = np.concatenate(([a], x2[:-1]))  # the right end of panel k is the left end of panel k+1
    fx = values(np.concatenate((x0[:1], x2, 0.5 * (x0 + x2))))
    f0, f2, f1 = fx[:, :n], fx[:, 1:n + 1], fx[:, n + 1:]
    whole = simpson(x0, x2, f0, f1, f2)
    eps = tols / n
    panels = n
    levels = []  # per level: the open panels' results, and which of them split
    while x0.size:
        xm = 0.5 * (x0 + x2)
        fl, fr = np.split(values(np.concatenate((0.5 * (x0 + xm), 0.5 * (xm + x2)))), 2, axis=1)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        split = np.flatnonzero(~(abs(delta) <= 15.0 * eps).all(axis=0))
        levels.append((left + right + delta / 15.0, split))
        panels += 2 * split.size
        if panels > SIMPSON_PANEL_BUDGET:
            raise QuadratureError(
                f"adaptive Simpson exceeded {SIMPSON_PANEL_BUDGET} panels on [{a}, {b}]"
            )
        # the next level's panels: every split panel's left half, then every right half
        x0 = np.concatenate((x0[split], xm[split]))
        x2 = np.concatenate((xm[split], x2[split]))
        f0, f1, f2 = (np.concatenate((u[:, split], v[:, split]), axis=1)
                      for u, v in ((f0, f1), (fl, fr), (f1, f2)))
        whole = np.concatenate((left[:, split], right[:, split]), axis=1)
        eps = 0.5 * eps
    below = None  # results of the level under the current one
    for result, split in reversed(levels):
        if below is not None:
            result[:, split] = below[:, :split.size] + below[:, split.size:]
        below = result
    # each row left to right; not sum(): from Python 3.12 it compensates, which moves bits
    totals = [reduce(add, row, 0.0) for row in below.tolist()]
    return totals if rows else totals[0]
