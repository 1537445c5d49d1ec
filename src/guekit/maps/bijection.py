"""Rotation systems on multigraphs and the Eulerian-cycle correspondence.

Darts are the arcs of DirectedDouble, 2e and 2e+1 for edge id e of the
underlying multigraph: the arc along dart d exits through d and enters
through its partner.  A rooted map plus a plane spanning tree determines
an Eulerian cycle of di(G) by always leaving a vertex on the first unused
outgoing dart counterclockwise after the reference dart (the tree dart
toward the root, or the root dart at the root vertex itself); the inverse
reads rotations off the order in which the cycle exits each vertex and
marks each vertex's last exit as its tree edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator

from .multigraph import DirectedDouble, Multigraph, _joins_all, _out_arcs, directed_double

MAP_DEGREE_BUDGET = 8


@dataclass(frozen=True, slots=True)
class CombinatorialMap:
    """Rotation system: a cyclic counterclockwise dart order at each vertex.

    Rotations are stored linearized to start at their smallest dart, so
    equal cyclic orders compare equal.
    """

    vertex_of: tuple[int, ...]
    rotation: tuple[tuple[int, ...], ...]
    partner: tuple[int, ...]

    def __post_init__(self):
        n = len(self.vertex_of)
        seen = set()
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if self.vertex_of[d] != v:
                    raise ValueError(f"dart {d} listed at vertex {v} but lives elsewhere")
                seen.add(d)
            if rot and rot[0] != min(rot):
                raise ValueError("rotations must be linearized to start at their smallest dart")
        if seen != set(range(n)):
            raise ValueError("every dart must appear in exactly one rotation")
        for d, p in enumerate(self.partner):
            if p == d or self.partner[p] != d:
                raise ValueError("partner must be a fixed-point-free involution")

    @property
    def dart_count(self) -> int:
        return len(self.vertex_of)

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    def graph(self) -> Multigraph:
        v = len(self.rotation)
        edges = [
            (min(self.vertex_of[2 * e], self.vertex_of[2 * e + 1]),
             max(self.vertex_of[2 * e], self.vertex_of[2 * e + 1]))
            for e in range(self.edge_count)
        ]
        return Multigraph.from_edges(v, edges)


@dataclass(frozen=True, slots=True)
class EulerianCycle:
    """Arc sequence visiting every arc of a directed double exactly once."""

    double: DirectedDouble
    arc_sequence: tuple[int, ...]

    def __post_init__(self):
        arcs = self.double.arcs
        if sorted(self.arc_sequence) != list(range(len(arcs))):
            raise ValueError("cycle must use every arc exactly once")
        for i, a in enumerate(self.arc_sequence):
            b = self.arc_sequence[(i + 1) % len(self.arc_sequence)]
            if arcs[a].head != arcs[b].tail:
                raise ValueError(f"arcs {a} and {b} are not head-to-tail incident")


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    if not seq:
        return seq
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def enumerate_maps(G: Multigraph) -> Iterator[CombinatorialMap]:
    """All rotation systems over the (labeled) darts of G, each exactly once.

    A vertex of degree d contributes (d-1)! cyclic orders, generated with
    the smallest dart held first.
    """
    D = directed_double(G)
    darts, _ = _out_arcs(D)
    for ds in darts:
        if len(ds) > MAP_DEGREE_BUDGET:
            raise ValueError(f"map enumeration supports <= {MAP_DEGREE_BUDGET} darts per vertex")
    return _rotation_systems(D, darts)


def _rotation_systems(D: DirectedDouble, darts: list[list[int]]) -> Iterator[CombinatorialMap]:
    vertex_of = tuple(arc.tail for arc in D.arcs)
    partner = tuple(d ^ 1 for d in range(len(D.arcs)))
    choices = [
        [tuple([ds[0], *rest]) for rest in permutations(ds[1:])] if ds else [()]
        for ds in darts
    ]
    for rots in product(*choices):
        yield CombinatorialMap(vertex_of, rots, partner)


def spanning_trees(G: Multigraph) -> list[frozenset[int]]:
    """Edge-id subsets forming spanning trees (self loops never qualify)."""
    edges = G.edges()
    non_loops = [e for e, (a, b) in enumerate(edges) if a != b]
    v = G.vertex_count
    return [
        frozenset(subset) for subset in combinations(non_loops, v - 1)
        if _joins_all(v, [edges[e] for e in subset])
    ]


def _tree_darts_toward(M: CombinatorialMap, T: frozenset[int], root_vertex: int) -> dict[int, int]:
    """For each non-root vertex, the dart of its tree edge toward the root."""
    v_count = len(M.rotation)
    if len(T) != v_count - 1:
        raise ValueError("spanning tree must have exactly v-1 edges")
    by_vertex: dict[int, list[int]] = {v: [] for v in range(v_count)}
    for e in T:
        a, b = M.vertex_of[2 * e], M.vertex_of[2 * e + 1]
        if a == b:
            raise ValueError("a spanning tree cannot contain self loops")
        by_vertex[a].append(2 * e)
        by_vertex[b].append(2 * e + 1)
    toward: dict[int, int] = {}
    seen = {root_vertex}
    queue = deque([root_vertex])
    while queue:
        v = queue.popleft()
        for d in by_vertex[v]:
            u = M.vertex_of[M.partner[d]]
            if u not in seen:
                seen.add(u)
                toward[u] = M.partner[d]
                queue.append(u)
    if len(seen) != v_count:
        raise ValueError("edge subset does not span the graph")
    return toward


def best_forward(M: CombinatorialMap, T: frozenset[int], root: int) -> EulerianCycle:
    """Eulerian cycle of di(Gr(M)) from a rooted map with a plane spanning tree.

    Starting along the root dart, each visit to a vertex v departs on the
    first unused dart counterclockwise after v's reference dart (tree dart
    toward the root, or the root dart itself at the root vertex); the
    reference dart itself is taken last.
    """
    G = M.graph()
    root_vertex = M.vertex_of[root]
    reference = _tree_darts_toward(M, T, root_vertex)
    reference[root_vertex] = root

    position = [
        {d: i for i, d in enumerate(rot)}
        for rot in M.rotation
    ]
    n = M.dart_count
    used = [False] * n
    used[root] = True
    seq = [root]
    at = M.vertex_of[M.partner[root]]
    for _ in range(n - 1):
        rot = M.rotation[at]
        k = len(rot)
        i = position[at][reference[at]]
        chosen = -1
        for j in range(1, k + 1):
            cand = rot[(i + j) % k]
            if not used[cand]:
                chosen = cand
                break
        assert chosen >= 0, "walk stalled before exhausting the arcs"
        used[chosen] = True
        seq.append(chosen)
        at = M.vertex_of[M.partner[chosen]]
    assert at == root_vertex, "walk must close at the root vertex"
    return EulerianCycle(directed_double(G), tuple(seq))


def best_inverse(c: EulerianCycle, G: Multigraph, root: int
                 ) -> tuple[CombinatorialMap, frozenset[int]]:
    """Rebuild (map, spanning tree) from an Eulerian cycle rooted at `root`.

    Rotations list each vertex's outgoing darts in traversal order; the
    last edge exiting a non-root vertex is its tree edge toward the root.
    """
    if c.arc_sequence[0] != root:
        raise ValueError("cycle does not start with the requested root arc")
    arcs = c.double.arcs
    v_count = G.vertex_count
    exit_order: list[list[int]] = [[] for _ in range(v_count)]
    for d in c.arc_sequence:
        exit_order[arcs[d].tail].append(d)

    rotation = tuple(_canonical_rotation(tuple(order)) for order in exit_order)
    vertex_of = tuple(arc.tail for arc in arcs)
    partner = tuple(d ^ 1 for d in range(len(arcs)))

    root_vertex = arcs[root].tail
    tree = frozenset(
        order[-1] // 2 for v, order in enumerate(exit_order) if v != root_vertex
    )
    edges = G.edges()
    if not _joins_all(v_count, [edges[e] for e in tree]):
        raise ValueError("last-exit edges do not form a spanning tree")

    M = CombinatorialMap(vertex_of, rotation, partner)
    return M, tree
