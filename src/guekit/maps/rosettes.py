"""Wick pairings on one vertex: rosette enumeration, genus census, counting.

A pairing of the 2l darts around a single vertex of coordination 2l is a
rooted rosette; its genus comes from tracing faces of the permutation
gamma o alpha, gamma the cyclic step i -> i+1 and alpha the pairing.
enumerate_pairings and rosette_genus do so pairing by pairing; the census
counts faces by genus over all pairings at once, memoizing on the open
paths of gamma o alpha that the darts paired so far leave.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from ..exact import double_factorial
# the closed forms live beside C_g(l) in observables; they are served here too
from ..observables import _genus_series, harer_zagier_closed, rosette_count_formula  # noqa: F401

# (2l-1)!! grows superexponentially: at l = 8 the reference enumerates
# 2,027,025 pairings, while the census memoizes 2598 open-path states.
PAIRING_BUDGET = 8


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


def enumerate_pairings(l: int) -> Iterator[tuple[int, ...]]:
    """All (2l-1)!! pairings of 2l darts, in a fixed deterministic order, each
    as its partner tuple: partner[i] = j pairs dart i with dart j."""
    if not 1 <= l <= PAIRING_BUDGET:
        raise ValueError(f"pairing enumeration supports 1 <= l <= {PAIRING_BUDGET}, got {l}")
    return _iter_partner_tuples(2 * l)


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


def rosette_genus(partner: tuple[int, ...]) -> int:
    """Genus of the rooted rosette drawn by the pairing partner[i] = j of
    darts 0 .. 2l-1, which must be a fixed-point-free involution."""
    n = len(partner)
    if n == 0 or n % 2:
        raise ValueError("pairing needs a positive even number of darts")
    for i, j in enumerate(partner):
        if not 0 <= j < n or j == i or partner[j] != i:
            raise ValueError(f"not a fixed-point-free involution at dart {i}")
    return _genus(partner)


@lru_cache(maxsize=None)
def _faces_closed(after: tuple[int, ...]) -> tuple[int, ...]:
    """by_faces[f] = pairings of the free darts that close f faces of phi.

    Free dart i ends an open path of phi(x) = partner[x] + 1, and that path
    starts just after free dart after[i].  Pairing free dart 0 with k adds
    the arrows 0 -> k+1 and k -> 0+1; an arrow x -> y+1 closes a face if the
    path starting after y is the one ending at x, and otherwise joins the
    two paths.  The other free darts, relabelled by rank, pose the same
    problem again.
    """
    if not after:
        return (1,)
    by_faces = [0] * (len(after) + 1)  # len(after) arrows, each closing one face at most
    for k in range(1, len(after)):
        aft = list(after)
        closed = 0
        for x, y in ((0, k), (k, 0)):
            e = aft.index(y)  # the path starting just after y ends at e
            if e == x:
                closed += 1
            else:
                aft[e] = aft[x]
            aft[x] = -1  # x no longer ends a path
        rest = tuple(v - 1 - (v > k) for v in aft if v >= 0)
        for f, count in enumerate(_faces_closed(rest)):
            by_faces[closed + f] += count
    return tuple(by_faces)


@lru_cache(maxsize=None)
def rosette_census(l: int) -> tuple[int, ...]:
    """Genus histogram over every pairing of 2l darts: entry g is the
    number of genus-g rosettes with l edges.

    Counts the faces (the cycles of phi(x) = partner[x] + 1 mod 2l) of all
    (2l-1)!! pairings by one memoized recursion over the open paths of
    phi.  Before any dart is paired, each dart x is a path of its own,
    which starts just after dart x - 1.
    """
    if not 1 <= l <= PAIRING_BUDGET:
        raise ValueError(f"census supports 1 <= l <= {PAIRING_BUDGET}, got {l}")
    n = 2 * l
    counts = [0] * (l // 2 + 1)
    for faces, count in enumerate(_faces_closed(tuple((x - 1) % n for x in range(n)))):
        if count:
            counts[_euler_genus(l, faces)] += count
    if sum(counts) != double_factorial(2 * l - 1):
        raise ValueError(f"census total must be (2l-1)!! for l={l}")
    return tuple(counts)


def moment_wick(N: int, l: int) -> Fraction:
    """Wick oracle for m_2l: sum over all pairings of N^(-2 genus)."""
    if N < 1:
        raise ValueError(f"moment_wick requires N >= 1, got {N}")
    if l == 0:
        return Fraction(1)
    return _genus_series(rosette_census(l), N)
