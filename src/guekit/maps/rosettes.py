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

from ..exact import double_factorial
# the closed forms live beside C_g(l) in observables; they are served here too
from ..observables import _genus_series, harer_zagier_closed, rosette_count_formula  # noqa: F401

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

    counts: tuple[int, ...]


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
    if sum(counts) != double_factorial(2 * l - 1):
        raise ValueError(f"census total must be (2l-1)!! for l={l}")
    return RosetteCensus(tuple(counts))


def moment_wick(N: int, l: int) -> Fraction:
    """Wick oracle for m_2l: sum over all pairings of N^(-2 genus)."""
    if N < 1:
        raise ValueError(f"moment_wick requires N >= 1, got {N}")
    if l == 0:
        return Fraction(1)
    return _genus_series(rosette_census(l).counts, N)
