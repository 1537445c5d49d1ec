"""Wick pairings on one vertex: rosette enumeration, genus census, counting.

A pairing of the 2l darts around a single vertex of coordination 2l is a
rooted rosette; its genus comes from tracing faces of the permutation
gamma o alpha, gamma the cyclic step i -> i+1 and alpha the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from ..exact import binomial, double_factorial
from ..observables import _genus_coefficient

# (2l-1)!! grows superexponentially; l = 8 already means 2,027,025 pairings.
PAIRING_BUDGET = 8


@dataclass(frozen=True, slots=True)
class Pairing:
    """Fixed-point-free involution on darts 0 .. 2l-1, partner[i] = j."""

    partner: tuple[int, ...]

    def __post_init__(self):
        n = len(self.partner)
        if n == 0 or n % 2:
            raise ValueError("pairing needs a positive even number of darts")
        for i, j in enumerate(self.partner):
            if not 0 <= j < n or j == i or self.partner[j] != i:
                raise ValueError(f"not a fixed-point-free involution at dart {i}")


def _iter_partner_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All involution tables on n darts, lexicographic in pair choices."""
    partner = [-1] * n

    def rec(lo: int) -> Iterator[tuple[int, ...]]:
        while lo < n and partner[lo] >= 0:
            lo += 1
        if lo == n:
            yield tuple(partner)
            return
        for j in range(lo + 1, n):
            if partner[j] < 0:
                partner[lo], partner[j] = j, lo
                yield from rec(lo + 1)
                partner[lo] = partner[j] = -1

    yield from rec(0)


def enumerate_pairings(l: int) -> Iterator[Pairing]:
    """All (2l-1)!! pairings of 2l darts, in a fixed deterministic order."""
    if not 1 <= l <= PAIRING_BUDGET:
        raise ValueError(f"pairing enumeration supports 1 <= l <= {PAIRING_BUDGET}, got {l}")
    return (Pairing(partner) for partner in _iter_partner_tuples(2 * l))


def _euler_genus(l: int, faces: int) -> int:
    """Genus g = (l + 1 - F) / 2 of a one-vertex map with l edges and F faces."""
    genus, odd = divmod(l + 1 - faces, 2)
    assert not odd and genus >= 0, f"Euler formula violated: l={l}, F={faces}"
    return genus


def _genus(partner: tuple[int, ...]) -> int:
    """Genus g with F = l + 1 - 2g faces, F the cycles of i -> partner[i] + 1 (mod 2l)."""
    n = len(partner)
    seen = [False] * n
    faces = 0
    for start in range(n):
        if seen[start]:
            continue
        faces += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = partner[i] + 1
            if i == n:
                i = 0
    return _euler_genus(n // 2, faces)


def rosette_genus(p: Pairing) -> int:
    """Genus of the rooted rosette drawn by the pairing."""
    return _genus(p.partner)


@dataclass(frozen=True, slots=True)
class RosetteCensus:
    """counts[g] = number of genus-g rosettes with l edges."""

    l: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if sum(self.counts) != double_factorial(2 * self.l - 1):
            raise ValueError(f"census total must be (2l-1)!! for l={self.l}")


@lru_cache(maxsize=None)
def rosette_census(l: int) -> RosetteCensus:
    """Genus histogram over every pairing of 2l darts (brute force).

    Visits all (2l-1)!! pairings, in the order of _iter_partner_tuples, and
    counts the faces of each (the cycles of phi(x) = partner[x] + 1 mod 2l)
    while it pairs darts.  Each unpaired dart ends an open path of phi:
    start[x] is the first dart of the path ending at x, end[y] the last
    dart of the path starting at y.  Pairing lo with j adds the arrows
    lo -> j+1 and j -> lo+1.  An arrow whose target starts the path it
    leaves closes a face; any other arrow joins two paths, and backtracking
    restores both entries it changed.  The last pair a < b closes two faces
    if the path ending at a starts at b+1, else one.
    """
    if not 1 <= l <= PAIRING_BUDGET:
        raise ValueError(f"census supports 1 <= l <= {PAIRING_BUDGET}, got {l}")
    n = 2 * l
    start = list(range(n))
    end = list(range(n))
    by_faces = [0] * (l + 2)

    def pair(free: tuple[int, ...], faces: int) -> None:
        lo = free[0]
        lo1 = lo + 1  # lo is the smallest unpaired dart, so lo + 1 < n
        last = len(free) == 4
        for k in range(1, len(free)):
            j = free[k]
            j1 = j + 1 if j + 1 < n else 0
            f = faces
            s = start[lo]
            if s == j1:
                f += 1
            else:
                e = end[j1]
                end[s] = e
                start[e] = s
            s2 = start[j]
            if s2 == lo1:
                f += 1
            else:
                e2 = end[lo1]
                end[s2] = e2
                start[e2] = s2
            rest = free[1:k] + free[k + 1:]
            if last:
                a, b = rest
                by_faces[f + (2 if start[a] == (b + 1) % n else 1)] += 1
            else:
                pair(rest, f)
            if s2 != lo1:
                end[s2] = j
                start[e2] = lo1
            if s != j1:
                end[s] = lo
                start[e] = j1

    if l == 1:
        by_faces[2] = 1  # the one pairing (0 1): two faces
    else:
        pair(tuple(range(n)), 0)
    counts = [0] * (l // 2 + 1)
    for faces, count in enumerate(by_faces):
        if count:
            counts[_euler_genus(l, faces)] += count
    return RosetteCensus(l, tuple(counts))


def rosette_count_formula(l: int, g: int) -> int:
    """Closed-form C_g(l), the coefficient of N^{-2g} in m_2l, as an integer."""
    if l < 1 or g < 0:
        raise ValueError(f"rosette_count_formula requires l >= 1, g >= 0, got ({l}, {g})")
    value = _genus_coefficient(l, g)
    assert value.denominator == 1, f"C_g(l) must be an integer, got {value}"
    return int(value)


def harer_zagier_recursion(l_max: int) -> list[list[int]]:
    """counts[l][g] = C_g(l) for 0 <= l <= l_max, 0 <= g <= l // 2.

    Integer Harer-Zagier recursion, independent of the closed form:
    (l+1) C_g(l) = 2(2l-1) C_g(l-1) + (l-1)(2l-1)(2l-3) C_{g-1}(l-2),
    with C_0(0) = 1 and C_g(l) = 0 for g > l // 2.
    """
    if l_max < 0:
        raise ValueError(f"harer_zagier_recursion requires l_max >= 0, got {l_max}")
    counts = [[1]]
    for l in range(1, l_max + 1):
        row = []
        for g in range(l // 2 + 1):
            same = counts[l - 1][g] if 2 * g <= l - 1 else 0
            lower = counts[l - 2][g - 1] if g >= 1 else 0
            total = 2 * (2 * l - 1) * same + (l - 1) * (2 * l - 1) * (2 * l - 3) * lower
            count, rest = divmod(total, l + 1)
            assert rest == 0, f"Harer-Zagier recursion left a remainder at l={l}, g={g}"
            row.append(count)
        counts.append(row)
    return counts


def _genus_series(counts, N: int) -> Fraction:
    """sum_g counts[g] N^{-2g}, as one integer sum over N^{2G}, G the top genus."""
    total = 0
    for count in counts:
        total = total * N * N + count
    return Fraction(total, N ** (2 * (len(counts) - 1)))


def harer_zagier_from_counts(N: int, p: int) -> Fraction:
    """Coefficient of x^{p+1} rebuilt as sum_g C_g(p) N^{-2g} / (2p-1)!!."""
    counts = [rosette_count_formula(p, g) for g in range(p // 2 + 1)]
    return _genus_series(counts, N) / double_factorial(2 * p - 1)


def moment_wick(N: int, l: int) -> Fraction:
    """Wick oracle for m_2l: sum over all pairings of N^(-2 genus)."""
    if N < 1:
        raise ValueError(f"moment_wick requires N >= 1, got {N}")
    if l == 0:
        return Fraction(1)
    return _genus_series(rosette_census(l).counts, N)


def harer_zagier_closed(N: int, p_max: int) -> list[Fraction]:
    """Coefficients of x^{p+1}, p = 1 .. p_max, in (1/2)((1+x/N)/(1-x/N))^N - 1/2 - x.

    With y = x/N, ((1+y)/(1-y))^N = (1 + 2y/(1-y))^N
    = sum_j binom(N, j) (2y)^j (1-y)^{-j}, and [y^k] (1-y)^{-j} y^j is
    binom(k-1, j-1); so the coefficient of x^k, k >= 1, is the integer
    sum_{j=1..min(k,N)} binom(N, j) binom(k-1, j-1) 2^{j-1} over N^k.
    """
    if N < 1 or p_max < 1:
        raise ValueError(f"harer_zagier_closed requires N >= 1, p_max >= 1, got ({N}, {p_max})")
    return [
        Fraction(sum(binomial(N, j) * binomial(k - 1, j - 1) << (j - 1)
                     for j in range(1, min(k, N) + 1)), N**k)
        for k in range(2, p_max + 2)
    ]
