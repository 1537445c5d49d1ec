"""Rotation systems on multigraphs and the Eulerian-cycle correspondence.

A map holds the directed double its darts come from: dart d is arc d of
DirectedDouble, laid out as its docstring states.  A rooted map plus a
plane spanning tree determines an Eulerian cycle of di(G) by always
leaving a vertex on the first unused outgoing dart counterclockwise after
the reference dart (the tree dart toward the root, or the root dart at the
root vertex itself); the inverse reads the graph and the root arc off the
cycle (its directed double and its first arc), rotations off the order in
which the cycle exits each vertex, and marks each vertex's last exit as
its tree edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator

from .multigraph import (DirectedDouble, Multigraph, _check_root_arc, _joins_all, _out_arcs,
                         directed_double)

MAP_DEGREE_BUDGET = 8


@dataclass(frozen=True, slots=True)
class CombinatorialMap:
    """Rotation system: a cyclic counterclockwise dart order at each vertex.

    rotation[v] lists the arcs of `double` that leave v.  Rotations are
    stored linearized to start at their smallest dart, so equal cyclic
    orders compare equal.
    """

    double: DirectedDouble
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        arcs = self.double.arcs
        if len(self.rotation) != self.double.graph.vertex_count:
            raise ValueError("need exactly one rotation per vertex of the graph")
        if sorted(d for rot in self.rotation for d in rot) != list(range(len(arcs))):
            raise ValueError("every arc of the double must appear in exactly one rotation")
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if arcs[d].tail != v:
                    raise ValueError(f"dart {d} listed at vertex {v} but lives elsewhere")
            if rot and rot[0] != min(rot):
                raise ValueError("rotations must be linearized to start at their smallest dart")


@dataclass(frozen=True, slots=True)
class EulerianCycle:
    """Arc sequence visiting every arc of a directed double exactly once."""

    double: DirectedDouble
    arc_sequence: tuple[int, ...]

    def __post_init__(self):
        arcs = self.double.arcs
        if not self.arc_sequence:
            raise ValueError("cycle has no root arc: its graph has no edge")
        if sorted(self.arc_sequence) != list(range(len(arcs))):
            raise ValueError("cycle must use every arc exactly once")
        for i, a in enumerate(self.arc_sequence):
            b = self.arc_sequence[(i + 1) % len(self.arc_sequence)]
            if arcs[a].head != arcs[b].tail:
                raise ValueError(f"arcs {a} and {b} are not head-to-tail incident")


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def enumerate_maps(G: Multigraph) -> Iterator[CombinatorialMap]:
    """All rotation systems over the (labeled) darts of G, each exactly once.

    A vertex of degree d contributes (d-1)! cyclic orders, generated with
    the smallest dart held first.  Every map shares one directed double.
    """
    D = directed_double(G)
    darts, _ = _out_arcs(D)
    for ds in darts:
        if len(ds) > MAP_DEGREE_BUDGET:
            raise ValueError(f"map enumeration supports <= {MAP_DEGREE_BUDGET} darts per vertex")
    choices = [
        [(ds[0], *rest) for rest in permutations(ds[1:])] if ds else [()]
        for ds in darts
    ]
    return (CombinatorialMap(D, rots) for rots in product(*choices))


def _is_spanning_tree(v: int, edges, T) -> bool:
    """Whether the ids T into `edges` are v-1 edges joining all v vertices in one component."""
    return (len(T) == v - 1 and all(0 <= e < len(edges) for e in T)
            and _joins_all(v, [edges[e] for e in T]))


def spanning_trees(G: Multigraph) -> list[frozenset[int]]:
    """Edge-id subsets forming spanning trees (self loops never qualify)."""
    edges = G.edges()
    v = G.vertex_count
    return [
        frozenset(subset) for subset in combinations(range(len(edges)), v - 1)
        if _is_spanning_tree(v, edges, subset)
    ]


def _tree_darts_toward(M: CombinatorialMap, T: frozenset[int], root_vertex: int) -> dict[int, int]:
    """For each non-root vertex, the dart of its tree edge toward the root."""
    arcs = M.double.arcs
    toward: dict[int, int] = {}
    stack = [root_vertex]
    while stack:
        v = stack.pop()
        for d in M.rotation[v]:
            u = arcs[d].head
            if d // 2 in T and u != root_vertex and u not in toward:
                toward[u] = d ^ 1
                stack.append(u)
    return toward


def best_forward(M: CombinatorialMap, T: frozenset[int], root: int) -> EulerianCycle:
    """Eulerian cycle of M's directed double from a rooted map with a plane spanning tree.

    Starting along the root dart, each visit to a vertex v departs on the
    first unused dart counterclockwise after v's reference dart (tree dart
    toward the root, or the root dart itself at the root vertex); the
    reference dart itself is taken last.  A vertex is left only through
    its own darts, so v's exits are its rotation read from just after the
    reference dart, and the walk takes the next one at each visit (at the
    root vertex the root dart, the first step, is left out).
    """
    _check_root_arc(M.double, root)
    arcs = M.double.arcs
    if not _is_spanning_tree(len(M.rotation), arcs[::2], T):
        raise ValueError("edge ids do not form a spanning tree of the map's graph")
    root_vertex = arcs[root].tail
    reference = _tree_darts_toward(M, T, root_vertex)
    reference[root_vertex] = root
    exits = []
    for v, rot in enumerate(M.rotation):
        i = rot.index(reference[v]) + 1
        order = rot[i:] + rot[:i]
        exits.append(iter(order[:-1] if v == root_vertex else order))

    seq = [root]
    at = arcs[root].head
    for _ in range(len(arcs) - 1):
        chosen = next(exits[at], None)
        assert chosen is not None, "walk stalled before exhausting the arcs"
        seq.append(chosen)
        at = arcs[chosen].head
    return EulerianCycle(M.double, tuple(seq))


def best_inverse(c: EulerianCycle) -> tuple[CombinatorialMap, frozenset[int]]:
    """Rebuild (map, spanning tree) from an Eulerian cycle, rooted at its first arc.

    The map lives on the cycle's own directed double, so its graph is
    c.double.graph.  Rotations list each vertex's outgoing darts in
    traversal order; the last edge exiting a non-root vertex is its tree
    edge toward the root.
    """
    arcs = c.double.arcs
    G = c.double.graph
    exit_order: list[list[int]] = [[] for _ in range(G.vertex_count)]
    for d in c.arc_sequence:
        exit_order[arcs[d].tail].append(d)

    root_vertex = arcs[c.arc_sequence[0]].tail
    tree = frozenset(
        order[-1] // 2 for v, order in enumerate(exit_order) if v != root_vertex and order
    )
    if not _is_spanning_tree(G.vertex_count, G.edges(), tree):
        raise ValueError("last-exit edges do not form a spanning tree")

    rotation = tuple(_canonical_rotation(tuple(order)) for order in exit_order)
    return CombinatorialMap(c.double, rotation), tree
