"""Labeled multigraphs, their directed doubles, and Eulerian-cycle counting.

Vertices carry labels 0 .. v-1.  Every parallel edge and self loop gets
its own edge id, so arcs of the directed double are fully distinguishable;
symmetry factors are divided out only in the normalized count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from ..exact import moment_term
from ..observables import moment_exact
from .rosettes import moment_wick

MULTIGRAPH_VERTEX_BUDGET = 5
MULTIGRAPH_EDGE_BUDGET = 5
EULERIAN_ARC_BUDGET = 12
INITIAL_IDENTITY_EDGE_BUDGET = 4
DERIVATIVE_EDGE_BUDGET = 3


def _joins_all(v: int, edges) -> bool:
    """Whether the edges (a, b) put all of the vertices 0 .. v-1 in one component."""
    parent = list(range(v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joins += 1
    return joins == v - 1


@dataclass(frozen=True, slots=True)
class Multigraph:
    """Symmetric multiplicity matrix; diagonal entries count self loops."""

    vertex_count: int
    multiplicity: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        v = self.vertex_count
        if v < 1:
            raise ValueError("need at least one vertex")
        if len(self.multiplicity) != v or any(len(row) != v for row in self.multiplicity):
            raise ValueError("multiplicity must be a v x v matrix")
        for a in range(v):
            for b in range(v):
                if self.multiplicity[a][b] < 0:
                    raise ValueError("multiplicities must be non-negative")
                if self.multiplicity[a][b] != self.multiplicity[b][a]:
                    raise ValueError("multiplicity matrix must be symmetric")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Multigraph":
        m = [[0] * vertex_count for _ in range(vertex_count)]
        for a, b in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a}, {b}) has a vertex outside 0 .. {vertex_count - 1}")
            m[a][b] += 1
            if a != b:
                m[b][a] += 1
        return cls(vertex_count, tuple(tuple(row) for row in m))

    @property
    def edge_count(self) -> int:
        return len(self.edges())

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Labeled edge list (a, b) with a <= b; parallel copies are adjacent."""
        out = []
        v = self.vertex_count
        for a in range(v):
            for b in range(a, v):
                out.extend([(a, b)] * self.multiplicity[a][b])
        return tuple(out)


class Arc(NamedTuple):
    tail: int
    head: int


@dataclass(frozen=True, slots=True)
class DirectedDouble:
    """Arcs of di(G), two per edge of G.edges().

    Edge e = (a, b) gives arcs[2e] = (a, b) and arcs[2e + 1] = (b, a), so
    arc d runs along edge d // 2 and d ^ 1 is the same edge walked the
    other way.  A self loop gives two arcs (a, a).
    """

    graph: Multigraph
    arcs: tuple[Arc, ...]


def directed_double(G: Multigraph) -> DirectedDouble:
    """Split each edge {a, b} into arcs (a, b) and (b, a)."""
    arcs = []
    for a, b in G.edges():
        arcs.extend((Arc(a, b), Arc(b, a)))
    return DirectedDouble(G, tuple(arcs))


def _out_arcs(D: DirectedDouble) -> tuple[list[list[int]], list[int]]:
    out = [[] for _ in range(D.graph.vertex_count)]
    heads = []
    for i, arc in enumerate(D.arcs):
        out[arc.tail].append(i)
        heads.append(arc.head)
    return out, heads


def _check_root_arc(D: DirectedDouble, root: int) -> None:
    if not 0 <= root < len(D.arcs):
        raise ValueError(f"root arc index {root} out of range")


def eulerian_cycles_rooted(D: DirectedDouble, root: int) -> Iterator[tuple[int, ...]]:
    """Arc sequences starting with `root` using every labeled arc exactly once.

    Backtracking over the arcs left unused.  Every vertex of di(G) has as
    many arcs in as out, so a walk that uses every arc is back where it
    began.  D and root are checked at call time, not at the first next().
    """
    n = len(D.arcs)
    if n > EULERIAN_ARC_BUDGET:
        raise ValueError(f"Eulerian backtracking supports <= {EULERIAN_ARC_BUDGET} arcs, got {n}")
    _check_root_arc(D, root)
    out, heads = _out_arcs(D)
    used = [False] * n
    used[root] = True
    seq = [root]

    def walks(at: int, left: int) -> Iterator[tuple[int, ...]]:
        if not left:
            yield tuple(seq)
            return
        for arc in out[at]:
            if not used[arc]:
                used[arc] = True
                seq.append(arc)
                yield from walks(heads[arc], left - 1)
                seq.pop()
                used[arc] = False

    return walks(heads[root], n - 1)


def eulerian_count_rooted(D: DirectedDouble, root: int) -> int:
    """Number of Eulerian cycles of di(G) rooted at the given arc: the walks
    that eulerian_cycles_rooted yields.  Zero whenever G is disconnected, as
    no walk can reach every arc."""
    return sum(1 for _ in eulerian_cycles_rooted(D, root))


def _symmetry_divisor(G: Multigraph) -> int:
    div = 1
    v = G.vertex_count
    for a in range(v):
        laa = G.multiplicity[a][a]
        div *= 2**laa * math.factorial(laa)
        for b in range(a + 1, v):
            div *= math.factorial(G.multiplicity[a][b])
    return div


def eulerian_count_normalized(G: Multigraph) -> int:
    """All-root labeled Eulerian count divided by prod l_ab! * prod 2^l_aa l_aa!.

    This is exactly what the Gaussian derivative operator attached to G
    produces when applied to Tr H^{2l}; see trace_derivative_value for the
    independent certification.

    The all-root count is 2l times the count rooted at arc 0: an Eulerian
    cycle of di(G) uses every labeled arc exactly once, so rotating it to
    start at arc r is a bijection between the cycles rooted at arc 0 and
    those rooted at r.  suite_best and the acceptance tests count from
    every root, against the BEST bijection.
    """
    D = directed_double(G)
    total = len(D.arcs) * eulerian_count_rooted(D, 0) if D.arcs else 0
    div = _symmetry_divisor(G)
    assert total % div == 0, f"labeled count {total} not divisible by symmetry factor {div}"
    return total // div


def enumerate_connected_multigraphs(v: int, l: int) -> Iterator[Multigraph]:
    """All connected multigraphs on the labeled vertex set {0..v-1} with l edges."""
    if not 1 <= v <= MULTIGRAPH_VERTEX_BUDGET:
        raise ValueError(f"vertex budget is 1 <= v <= {MULTIGRAPH_VERTEX_BUDGET}, got {v}")
    if not 0 <= l <= MULTIGRAPH_EDGE_BUDGET:
        raise ValueError(f"edge budget is 0 <= l <= {MULTIGRAPH_EDGE_BUDGET}, got {l}")
    return _connected_multigraphs(v, l)


def _connected_multigraphs(v: int, l: int) -> Iterator[Multigraph]:
    slots = [(a, b) for a in range(v) for b in range(a, v)]
    # edge multisets in descending order, i.e. slot counts ascending lexicographically
    for edges in reversed(list(combinations_with_replacement(slots, l))):
        if _joins_all(v, edges):
            yield Multigraph.from_edges(v, edges)


# ------------------------------------------------------ differentiation oracle

@lru_cache(maxsize=None)
def _trace_power(n: int, l: int) -> Mapping[tuple[tuple[int, int], ...], int]:
    """Tr H^{2l} over n x n H: sorted tuple of entries (i, j) -> coefficient.

    Expanded by brute force over the n^{2l} index sequences; Tr H^0 is the
    constant n.  Read-only, since every caller of one shape shares it.
    """
    if l == 0:
        return MappingProxyType({(): n})
    poly: dict[tuple[tuple[int, int], ...], int] = {}
    for seq in product(range(n), repeat=2 * l):
        mono = tuple(sorted((seq[k], seq[(k + 1) % (2 * l)]) for k in range(2 * l)))
        poly[mono] = poly.get(mono, 0) + 1
    return MappingProxyType(poly)


def trace_derivative_value(G: Multigraph) -> Fraction:
    """Apply G's normalized Gaussian derivative operator to Tr H^{2l} at H = 0.

    The operator differentiates once by H_ab and once by H_ba per edge ab,
    twice by H_aa per loop at a: once by H_xy per arc (x, y) of di(G), 2l
    derivatives of a polynomial of degree 2l.  With k_xy of them by H_xy,
    only the monomial holding each H_xy exactly k_xy times survives at
    H = 0, and it gives its coefficient times prod k_xy!.  The coefficient
    is read from Tr H^{2l} expanded by brute force over index sequences
    (|V|^{2l} of them, once per shape (|V|, l), shared by every graph of
    that shape), so the oracle stays independent of the Eulerian counts it
    certifies.  Limited to l <= DERIVATIVE_EDGE_BUDGET.
    """
    l = G.edge_count
    if l > DERIVATIVE_EDGE_BUDGET:
        raise ValueError(f"differentiation oracle supports l <= {DERIVATIVE_EDGE_BUDGET}, got {l}")
    mono = tuple(sorted(directed_double(G).arcs))
    weight = math.prod(math.factorial(mono.count(xy)) for xy in set(mono))
    return Fraction(_trace_power(G.vertex_count, l).get(mono, 0) * weight, _symmetry_divisor(G))


# ----------------------------------------------------------- moment identity

@lru_cache(maxsize=None)
def _graph_side_sum(v: int, l: int) -> int:
    return sum(eulerian_count_normalized(G) for G in enumerate_connected_multigraphs(v, l))


def initial_identity_report(l: int, N: int) -> list[str]:
    """Failure messages for the dual-oracle moment identity; empty means pass.

    Checks, in exact arithmetic, that N^{l+1} m_2l from the Wick census
    equals the binomial sum sum_{q2} binom(N, q2+1) moment_term(l, q2) of
    moment_exact, and that for each q2 the normalized Eulerian counts of
    all connected multigraphs on q2+1 labeled vertices add up to the q2
    term moment_term(l, q2) = (2l)! / (2^{l-q2} q2! (l-q2)!).
    """
    if not 1 <= l <= INITIAL_IDENTITY_EDGE_BUDGET:
        raise ValueError(
            f"identity check supports 1 <= l <= {INITIAL_IDENTITY_EDGE_BUDGET}, got {l}"
        )
    if N < 1:
        raise ValueError(f"identity check requires N >= 1, got {N}")
    failures = []
    lhs = N ** (l + 1) * moment_wick(N, l)
    rhs = N ** (l + 1) * moment_exact(N, l)
    if lhs != rhs:
        failures.append(f"moment side: N^(l+1) m_2l = {lhs} but binomial sum = {rhs}")
    for q2 in range(l + 1):
        graph_sum = _graph_side_sum(q2 + 1, l)
        expected = moment_term(l, q2)
        if graph_sum != expected:
            failures.append(
                f"graph side at q2={q2}: Eulerian sum {graph_sum} != {expected}"
            )
            break
    return failures


def verify_initial_identity(l: int, N: int) -> bool:
    return not initial_identity_report(l, N)
