import math
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from guekit.exact import catalan, double_factorial, moment_term
from guekit.maps.bijection import (
    CombinatorialMap,
    EulerianCycle,
    best_forward,
    best_inverse,
    enumerate_maps,
    spanning_trees,
)
from guekit.maps.multigraph import (
    Multigraph,
    _connected_multigraphs,
    directed_double,
    enumerate_connected_multigraphs,
    eulerian_count_normalized,
    eulerian_count_rooted,
    eulerian_cycles_rooted,
    trace_derivative_value,
    verify_initial_identity,
)
from guekit.maps.rosettes import (
    PAIRING_BUDGET,
    enumerate_pairings,
    moment_wick,
    rosette_census,
    rosette_genus,
)
from guekit.observables import (
    harer_zagier_closed,
    harer_zagier_from_counts,
    moment_exact,
    moment_genus_expansion,
    rosette_count_formula,
)
from guekit.verify import WICK_L_MAX


def _is_connected(g):
    """Breadth-first search from vertex 0 over the multiplicity matrix."""
    seen = {0}
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b in range(g.vertex_count):
            if g.multiplicity[a][b] and b not in seen:
                seen.add(b)
                queue.append(b)
    return len(seen) == g.vertex_count


def _face_count(m):
    """Cycles of rotation-successor composed with the edge involution."""
    nxt = {}
    for rot in m.rotation:
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % len(rot)]
    seen = set()
    faces = 0
    for start in range(len(m.double.arcs)):
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = nxt[d ^ 1]
    return faces


def _map_genus(m):
    """From V - E + F = 2 - 2g; requires a connected underlying graph."""
    excess = 2 - len(m.rotation) + m.double.graph.edge_count - _face_count(m)
    assert excess >= 0 and excess % 2 == 0, "Euler formula violated"
    return excess // 2


# ------------------------------------------------------------------- pairings

def test_pairing_counts():
    assert len(list(enumerate_pairings(1))) == 1
    assert len(list(enumerate_pairings(2))) == 3
    assert len(list(enumerate_pairings(5))) == 945 == double_factorial(9)


def test_pairing_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_pairings(3))
    second = list(enumerate_pairings(3))
    assert first == second
    assert len(set(first)) == len(first) == 15


def test_pairing_validation():
    with pytest.raises(ValueError, match="^not a fixed-point-free involution at dart 0$"):
        rosette_genus((0, 1))  # fixed point
    with pytest.raises(ValueError, match="^pairing needs a positive even number of darts$"):
        rosette_genus((1, 0, 3))  # odd size
    with pytest.raises(ValueError):
        enumerate_pairings(9)
    with pytest.raises(ValueError):
        enumerate_pairings(0)


@pytest.mark.parametrize("l", [0, 9])
def test_rosette_census_refuses_an_l_outside_its_budget(l):
    with pytest.raises(ValueError, match=f"^census supports 1 <= l <= 8, got {l}$"):
        rosette_census(l)


def test_rosette_census_refuses_a_total_that_is_not_every_pairing(monkeypatch):
    import guekit.maps.rosettes as rosettes

    monkeypatch.setattr(rosettes, "double_factorial", lambda n: double_factorial(n) + 1)
    with pytest.raises(ValueError, match=r"^census total must be \(2l-1\)!! for l=3$"):
        rosettes.rosette_census.__wrapped__(3)  # past the cache, which holds the true l = 3


def test_rosette_genus_small_diagrams():
    assert rosette_genus((1, 0)) == 0
    assert rosette_genus((2, 3, 0, 1)) == 1  # crossing
    assert rosette_genus((1, 0, 3, 2)) == 0  # nested-adjacent
    assert rosette_genus((3, 2, 1, 0)) == 0


def test_rosette_census_values():
    assert rosette_census(2) == (2, 1)
    assert rosette_census(3) == (5, 10)
    for l in range(1, WICK_L_MAX + 1):
        assert type(rosette_census(l)) is tuple
        assert sum(rosette_census(l)) == double_factorial(2 * l - 1)
        # the census counts open-path states; the reference traces faces per pairing
        histogram = [0] * (l // 2 + 1)
        for p in enumerate_pairings(l):
            histogram[rosette_genus(p)] += 1
        assert rosette_census(l) == tuple(histogram), l


def test_rosette_genus_parity_everywhere():
    for l in range(1, 5):
        for p in enumerate_pairings(l):
            g = rosette_genus(p)
            assert 0 <= g <= l // 2


def test_rosette_formula_matches_census():
    for l in range(1, 7):
        census = rosette_census(l)
        for g, count in enumerate(census):
            assert rosette_count_formula(l, g) == count
    assert rosette_count_formula(2, 1) == 1
    assert rosette_count_formula(6, 2) == rosette_census(6)[2]


def test_harer_zagier_recursion_matches_census():
    for l in range(1, PAIRING_BUDGET + 1):
        assert moment_genus_expansion(l) == list(rosette_census(l))


def test_rosette_formula_matches_harer_zagier_recursion():
    # the tables read the recursion; the paper's exponential formula is
    # held to it at every l <= 60 and at two rows up to l = 120
    for l in [*range(1, 61), 90, 120]:
        assert [rosette_count_formula(l, g) for g in range(l // 2 + 1)] == \
            moment_genus_expansion(l), l


def test_suite_hz_catches_a_wrong_count_beyond_the_census(monkeypatch):
    import guekit.verify as verify

    def off_by_one(l, g):
        return rosette_count_formula(l, g) + ((l, g) == (15, 3))

    monkeypatch.setattr(verify, "rosette_count_formula", off_by_one)
    failures = verify.suite_hz()
    assert [(f["operation"], f["inputs"]) for f in failures] == [
        ("rosette_count_formula", {"l": 15, "g": 3})]
    assert failures[0]["expected"] == str(rosette_count_formula(15, 3))


def test_rosette_formula_catalan_and_total():
    for l in range(1, 11):
        assert rosette_count_formula(l, 0) == catalan(l)
        total = sum(rosette_count_formula(l, g) for g in range(l // 2 + 1))
        assert total == double_factorial(2 * l - 1)


def test_rosette_count_formula_is_zero_past_the_top_genus_at_once():
    # 0 before any 4^g is formed: at g = 10^12 that power alone would not fit in memory
    assert rosette_count_formula(5, 3) == 0
    assert rosette_count_formula(5, 10**12) == 0
    for l, g in [(0, 0), (1, -1)]:
        with pytest.raises(ValueError, match=r"^rosette_count_formula requires l >= 1, g >= 0"):
            rosette_count_formula(l, g)


def test_moment_wick_values():
    for N in [1, 2, 7]:
        assert moment_wick(N, 1) == 1
    assert moment_wick(2, 2) == Fraction(9, 4)
    assert moment_wick(3, 3) == 5 + Fraction(10, 9)
    assert moment_wick(4, 0) == 1
    with pytest.raises(ValueError, match="^moment_wick requires N >= 1, got 0$"):
        moment_wick(0, 2)


def test_moment_wick_agrees_with_exact_formula():
    for l in range(8):
        for N in range(1, 5):
            assert moment_wick(N, l) == moment_exact(N, l)


# --------------------------------------------------------------- Harer-Zagier

def test_harer_zagier_all_ones_at_n1():
    assert harer_zagier_closed(1, 8) == [Fraction(1)] * 8


def test_harer_zagier_specific_coefficient():
    # p=2 at N=2: (C_0(2) + C_1(2)/4) / 3!! = (2 + 1/4) / 3
    assert harer_zagier_closed(2, 3)[1] == Fraction(3, 4)


def test_harer_zagier_matches_rosette_counts():
    # the closed form against the recursion's rows, up to the table sizes
    for N in [*range(1, 9), 40, 100, 300, 1000]:
        rebuilt = harer_zagier_from_counts(N, 40)
        assert len(rebuilt) == 40, N
        for p, (closed, count) in enumerate(zip(harer_zagier_closed(N, 40), rebuilt), 1):
            assert closed == count, (N, p)


@pytest.mark.parametrize("N, p_max", [(-3, 2), (0, 1), (3, 0)])
def test_harer_zagier_from_counts_refuses_a_bad_shape(N, p_max):
    # the sum over N^{-2g} reads N = -3 as N = 3; no column may come back
    with pytest.raises(ValueError) as refusal:
        harer_zagier_from_counts(N, p_max)
    assert str(refusal.value) == (
        f"harer_zagier_from_counts requires N >= 1, p_max >= 1, got ({N}, {p_max})")


# ----------------------------------------------------------------- multigraph

def test_multigraph_validation_and_properties():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1), (0, 0)])
    assert g.edge_count == 3
    assert g.edges() == ((0, 0), (0, 1), (0, 1))
    assert _is_connected(g)
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 1), (0, 0)))  # asymmetric
    with pytest.raises(ValueError):
        Multigraph(1, ((-1,),))
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(-1, 0)])  # not read as vertex 1
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        Multigraph(0, ())
    for rows in (((0, 1),), ((0, 1), (1,))):  # one row; a short row
        with pytest.raises(ValueError, match="^multiplicity must be a v x v matrix$"):
            Multigraph(2, rows)


def test_multigraph_disconnected_flag():
    g = Multigraph.from_edges(2, [(0, 0), (1, 1)])
    assert not _is_connected(g)
    assert not _is_connected(Multigraph.from_edges(3, [(0, 1), (0, 1)]))


def test_enumerate_connected_multigraphs_examples():
    assert len(list(enumerate_connected_multigraphs(1, 2))) == 1
    two_vertex = list(enumerate_connected_multigraphs(2, 2))
    assert len(two_vertex) == 3
    seen = {g.multiplicity for g in two_vertex}
    assert seen == {
        ((0, 2), (2, 0)),          # double edge
        ((1, 1), (1, 0)),          # loop at 0 plus edge
        ((0, 1), (1, 1)),          # edge plus loop at 1
    }
    assert len(list(enumerate_connected_multigraphs(3, 2))) == 3


def test_enumerate_connected_multigraphs_order():
    # reference: every fill of the slots (a, b), a <= b, built and then filtered;
    # count vectors ascend lexicographically, i.e. slot multisets descend
    for v in range(1, 6):
        slots = [(a, b) for a in range(v) for b in range(a, v)]
        for l in range(6):
            fills = reversed(list(combinations_with_replacement(range(len(slots)), l)))
            built = (Multigraph.from_edges(v, [slots[i] for i in fill]) for fill in fills)
            expected = [g.multiplicity for g in built if _is_connected(g)]
            got = [g.multiplicity for g in enumerate_connected_multigraphs(v, l)]
            assert got == expected, (v, l)


def test_enumerate_connected_multigraphs_budget():
    with pytest.raises(ValueError):
        list(enumerate_connected_multigraphs(6, 2))
    with pytest.raises(ValueError):
        list(enumerate_connected_multigraphs(2, 6))


def test_directed_double_layout():
    g = Multigraph.from_edges(2, [(0, 1)])
    arcs = directed_double(g).arcs
    assert [(a.tail, a.head) for a in arcs] == [(0, 1), (1, 0)]

    loop = Multigraph.from_edges(1, [(0, 0)])
    arcs = directed_double(loop).arcs
    assert [(a.tail, a.head) for a in arcs] == [(0, 0), (0, 0)]

    double = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    arcs = directed_double(double).arcs
    assert len(arcs) == 4
    assert sorted((a.tail, a.head) for a in arcs) == [(0, 1), (0, 1), (1, 0), (1, 0)]


# ----------------------------------------------------------- Eulerian counting

def test_eulerian_count_single_edge():
    d = directed_double(Multigraph.from_edges(2, [(0, 1)]))
    assert eulerian_count_rooted(d, 0) == 1


def test_eulerian_count_double_edge():
    d = directed_double(Multigraph.from_edges(2, [(0, 1), (0, 1)]))
    assert eulerian_count_rooted(d, 0) == 2


def test_eulerian_count_edge_plus_loop():
    g = Multigraph.from_edges(2, [(0, 0), (0, 1)])
    d = directed_double(g)
    # edge ids: 0 = loop at 0, 1 = {0,1}; arc 2 is (0 -> 1)
    assert d.arcs[2].tail == 0 and d.arcs[2].head == 1
    assert eulerian_count_rooted(d, 2) == 2


def test_eulerian_count_disconnected_is_zero():
    d = directed_double(Multigraph.from_edges(2, [(0, 0), (1, 1)]))
    for r in range(4):
        assert eulerian_count_rooted(d, r) == 0


def test_eulerian_budget():
    g = Multigraph.from_edges(2, [(0, 1)] * 7)  # 14 arcs
    with pytest.raises(ValueError):
        eulerian_count_rooted(directed_double(g), 0)


def test_eulerian_root_must_be_an_arc():
    d = directed_double(Multigraph.from_edges(2, [(0, 1), (0, 0)]))
    for root in (-1, len(d.arcs)):
        with pytest.raises(ValueError):
            eulerian_count_rooted(d, root)
        with pytest.raises(ValueError):
            eulerian_cycles_rooted(d, root)


def test_eulerian_count_normalized_examples():
    assert eulerian_count_normalized(Multigraph.from_edges(2, [(0, 1), (0, 1)])) == 4
    assert eulerian_count_normalized(Multigraph.from_edges(1, [(0, 0), (0, 0)])) == 3
    assert eulerian_count_normalized(Multigraph.from_edges(2, [(0, 0), (0, 1)])) == 4


def test_eulerian_count_is_the_same_from_every_root():
    for v in range(1, 6):
        for l in range(5):
            for g in enumerate_connected_multigraphs(v, l):
                d = directed_double(g)
                counts = [eulerian_count_rooted(d, r) for r in range(len(d.arcs))]
                assert len(set(counts)) <= 1, g
                for r in range(len(d.arcs)):
                    assert counts[r] == len(set(eulerian_cycles_rooted(d, r))), (g, r)
                symmetry = 1
                for a in range(v):
                    loops = g.multiplicity[a][a]
                    symmetry *= 2**loops * math.factorial(loops)
                    for b in range(a + 1, v):
                        symmetry *= math.factorial(g.multiplicity[a][b])
                assert sum(counts) % symmetry == 0, g
                assert eulerian_count_normalized(g) == sum(counts) // symmetry, g


def test_eulerian_count_is_the_best_theorem():
    # BEST (van Aardenne-Ehrenfest and de Bruijn 1951): di(G) has
    # t(G) prod_v (d_v - 1)! Eulerian cycles through any one arc, t(G) its
    # spanning trees and d_v the arcs leaving v (a loop leaves twice)
    graphs = 0
    for v in range(1, 6):
        for l in range(1, 6):
            for g in enumerate_connected_multigraphs(v, l):
                out = [sum(g.multiplicity[a]) + g.multiplicity[a][a] for a in range(v)]
                best = len(spanning_trees(g)) * math.prod(math.factorial(d - 1) for d in out)
                assert eulerian_count_rooted(directed_double(g), 0) == best, g
                graphs += 1
    assert graphs == 2425


def test_derivative_oracle_certifies_normalized_counts():
    for v in range(1, 5):
        for l in range(1, 4):
            for g in enumerate_connected_multigraphs(v, l):
                val = trace_derivative_value(g)
                assert val.denominator == 1
                assert int(val) == eulerian_count_normalized(g), g


def test_derivative_oracle_single_edge():
    assert trace_derivative_value(Multigraph.from_edges(2, [(0, 1)])) == 2


def test_derivative_oracle_refuses_l_past_its_budget():
    with pytest.raises(ValueError, match="^differentiation oracle supports l <= 3, got 4$"):
        trace_derivative_value(Multigraph.from_edges(2, [(0, 1)] * 4))


def test_derivative_oracle_matches_literal_differentiation():
    # d^2/dH_aa^2 per loop at a and d^2/dH_ab dH_ba per edge ab, applied by
    # sympy to Tr H^{2l} over independent entries H_ij, then H = 0; every
    # graph on n <= 3 vertices with l <= 3 edges, connected or not
    sympy = pytest.importorskip("sympy")
    for n in range(1, 4):
        H = sympy.Matrix(n, n, lambda i, j: sympy.Symbol(f"H{i}{j}"))
        zero = dict.fromkeys(H, 0)
        slots = [(a, b) for a in range(n) for b in range(a, n)]
        for l in range(4):
            trace = sympy.expand((H ** (2 * l)).trace())
            for edges in combinations_with_replacement(slots, l):
                g = Multigraph.from_edges(n, edges)
                wrt = [x for a, b in edges for x in (H[a, b], H[b, a])]
                symmetry = 1
                for a in range(n):
                    loops = g.multiplicity[a][a]
                    symmetry *= 2**loops * math.factorial(loops)
                    for b in range(a + 1, n):
                        symmetry *= math.factorial(g.multiplicity[a][b])
                value = sympy.diff(trace, *wrt).subs(zero) if wrt else trace.subs(zero)
                assert trace_derivative_value(g) == Fraction(int(value), symmetry), g


# ------------------------------------------------------- moment identity

def test_initial_identity_examples():
    assert verify_initial_identity(1, 1)
    assert verify_initial_identity(1, 5)
    assert verify_initial_identity(2, 3)
    # worked decomposition at l=2, N=3: 27 * (2 + 1/9) = 57 = 9 + 36 + 12
    assert 3 ** 3 * moment_wick(3, 2) == 57


def test_initial_identity_small_range():
    for l in range(1, 4):
        for N in range(1, 5):
            assert verify_initial_identity(l, N)


def test_eulerian_identity_holds_at_l5():
    # the graph side of the identity one edge past INITIAL_IDENTITY_EDGE_BUDGET;
    # q2 = 5 needs six vertices, past MULTIGRAPH_VERTEX_BUDGET
    for q2 in range(6):
        graph_sum = sum(eulerian_count_normalized(G) for G in _connected_multigraphs(q2 + 1, 5))
        assert graph_sum == moment_term(5, q2), q2


def test_initial_identity_budget():
    with pytest.raises(ValueError):
        verify_initial_identity(5, 2)
    with pytest.raises(ValueError, match="^identity check requires N >= 1, got 0$"):
        verify_initial_identity(1, 0)


def test_initial_identity_report_names_the_side_that_fails(monkeypatch):
    import guekit.maps.multigraph as multigraph

    report = multigraph.initial_identity_report
    assert report(2, 3) == []
    # 3^3 m_4 = 57 at N = 3; one more from the Wick side is 27 more
    monkeypatch.setattr(multigraph, "moment_wick", lambda N, l: moment_wick(N, l) + 1)
    assert report(2, 3) == ["moment side: N^(l+1) m_2l = 84 but binomial sum = 57"]
    monkeypatch.setattr(multigraph, "moment_wick", moment_wick)
    # every term from q2 = 1 on is off by one, and only the first is reported
    monkeypatch.setattr(multigraph, "moment_term", lambda l, q2: moment_term(l, q2) + (q2 > 0))
    assert report(2, 3) == ["graph side at q2=1: Eulerian sum 12 != 13"]


# ------------------------------------------------------------------ best maps

def test_enumerate_maps_single_edge():
    maps = list(enumerate_maps(Multigraph.from_edges(2, [(0, 1)])))
    assert len(maps) == 1
    assert maps[0].rotation == ((0,), (1,))
    assert _map_genus(maps[0]) == 0


def test_enumerate_maps_two_loops_resolved_count():
    # One vertex with two labeled self loops: exhaustive generation gives the
    # (4-1)! = 6 distinct rotations; their genus census doubles the l=2
    # rosette census (2, 1) because each position-pairing arises twice.
    maps = list(enumerate_maps(Multigraph.from_edges(1, [(0, 0), (0, 0)])))
    assert len(maps) == 6
    genus_counts = [0, 0]
    for m in maps:
        genus_counts[_map_genus(m)] += 1
    assert genus_counts == [4, 2]
    assert [2 * c for c in rosette_census(2)] == genus_counts


def test_enumerate_maps_invariants():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1), (0, 0)])
    maps = list(enumerate_maps(g))
    # degrees 4 and 2: (4-1)! * (2-1)! rotations
    assert len(maps) == 6
    for m in maps:
        assert m.double.graph == g
        assert m.double is maps[0].double
        assert _map_genus(m) >= 0
        for tree in spanning_trees(g):
            assert best_forward(m, tree, 0).double is m.double


def test_enumerate_maps_budget():
    # four loops put 8 darts at the vertex, 7! rotations, drawn lazily
    assert len(next(enumerate_maps(Multigraph.from_edges(1, [(0, 0)] * 4))).rotation[0]) == 8
    with pytest.raises(ValueError, match="^map enumeration supports <= 8 darts per vertex$"):
        enumerate_maps(Multigraph.from_edges(2, [(0, 1)] * 9))


def test_map_validation():
    edge = directed_double(Multigraph.from_edges(2, [(0, 1)]))
    loop = directed_double(Multigraph.from_edges(1, [(0, 0)]))
    CombinatorialMap(edge, ((0,), (1,)))
    with pytest.raises(ValueError, match="lives elsewhere"):
        CombinatorialMap(edge, ((0, 1), ()))  # dart 1 at wrong vertex
    with pytest.raises(ValueError, match="linearized"):
        CombinatorialMap(loop, ((1, 0),))  # not canonical
    with pytest.raises(ValueError, match="exactly one rotation"):
        CombinatorialMap(edge, ((0,), (5,)))  # dart outside the double
    with pytest.raises(ValueError, match="exactly one rotation"):
        CombinatorialMap(loop, ((0, 0, 1),))  # dart listed twice
    with pytest.raises(ValueError, match="one rotation per vertex"):
        CombinatorialMap(edge, ((0,), (1,), ()))  # three rotations, two vertices


def test_spanning_trees():
    double = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    assert sorted(spanning_trees(double)) == [frozenset({0}), frozenset({1})]
    loop_only = Multigraph.from_edges(1, [(0, 0)])
    assert spanning_trees(loop_only) == [frozenset()]
    triangle = Multigraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert len(spanning_trees(triangle)) == 3


def test_best_forward_single_edge():
    g = Multigraph.from_edges(2, [(0, 1)])
    (m,) = enumerate_maps(g)
    cycle = best_forward(m, frozenset({0}), 0)
    assert cycle.arc_sequence == (0, 1)


def test_best_forward_single_loop():
    g = Multigraph.from_edges(1, [(0, 0)])
    (m,) = enumerate_maps(g)
    cycle = best_forward(m, frozenset(), 0)
    assert cycle.arc_sequence == (0, 1)


def test_best_forward_double_edge_covers_both_cycles():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    (m,) = enumerate_maps(g)
    cycles = {
        best_forward(m, tree, 0).arc_sequence for tree in spanning_trees(g)
    }
    expected = set(eulerian_cycles_rooted(directed_double(g), 0))
    assert cycles == expected
    assert len(cycles) == 2


@pytest.mark.parametrize("tree, root, reason", [
    ({3}, 0, "spanning tree"),  # edge id past the last edge
    ({-1}, 0, "spanning tree"),  # negative edge id
    ({0}, 5, "root arc"),  # root arc past the last arc
    ({0}, -1, "root arc"),  # negative root arc
    (set(), 0, "spanning tree"),  # fewer than v-1 edges
])
def test_best_forward_rejects_input_outside_the_single_edge_map(tree, root, reason):
    (m,) = enumerate_maps(Multigraph.from_edges(2, [(0, 1)]))
    with pytest.raises(ValueError, match=reason):
        best_forward(m, frozenset(tree), root)


@pytest.mark.parametrize("edges, tree", [
    ([(0, 0), (0, 1)], {0}),  # edge 0 is a self loop
    ([(0, 1), (0, 1)], {0, 1}),  # more than v-1 edges
    ([(0, 1), (0, 1), (1, 2)], {0, 1}),  # v-1 edges that leave vertex 2 out
])
def test_best_forward_rejects_edges_that_are_no_spanning_tree(edges, tree):
    g = Multigraph.from_edges(max(max(e) for e in edges) + 1, edges)
    m = next(enumerate_maps(g))
    with pytest.raises(ValueError):
        best_forward(m, frozenset(tree), 0)


def _budget_graphs(max_vertices=3, max_edges=3):
    for v in range(1, max_vertices + 1):
        for l in range(max(1, v - 1), max_edges + 1):
            yield from enumerate_connected_multigraphs(v, l)


def test_best_bijection_round_trip_small():
    for g in _budget_graphs(2, 2):
        d = directed_double(g)
        for root in range(len(d.arcs)):
            for m in enumerate_maps(g):
                for tree in spanning_trees(g):
                    cycle = best_forward(m, tree, root)
                    m2, t2 = best_inverse(cycle)
                    assert (m2.rotation, t2) == (m.rotation, tree)


def test_best_bijection_counting_corollary_small():
    for g in _budget_graphs(2, 2):
        d = directed_double(g)
        n_pairs = len(list(enumerate_maps(g))) * len(spanning_trees(g))
        for root in range(len(d.arcs)):
            assert eulerian_count_rooted(d, root) == n_pairs


def test_eulerian_cycle_type_invariants():
    g = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    d = directed_double(g)
    EulerianCycle(d, (0, 1, 2, 3))  # (0->1) e0, (1->0) e0, (0->1) e1, (1->0) e1
    with pytest.raises(ValueError):
        EulerianCycle(d, (0, 1, 2))  # misses an arc
    with pytest.raises(ValueError):
        EulerianCycle(d, (0, 2, 1, 3))  # 0 and 2 are not head-to-tail


def test_best_inverse_rejects_a_vertex_the_cycle_never_leaves():
    g = Multigraph.from_edges(2, [(0, 0)])  # vertex 1 has no edge
    cycle = EulerianCycle(directed_double(g), (0, 1))
    with pytest.raises(ValueError, match="spanning tree"):
        best_inverse(cycle)


def test_best_inverse_refuses_a_root_arc_of_the_edgeless_graph():
    g = Multigraph(1, ((0,),))
    # the edgeless graph's empty cycle is refused as it is built, before best_inverse
    with pytest.raises(ValueError, match="^cycle has no root arc: its graph has no edge$"):
        best_inverse(EulerianCycle(directed_double(g), ()))
