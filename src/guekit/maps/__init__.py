"""Enumerative oracles: pairings, rosettes, multigraphs, Eulerian cycles."""

from .bijection import (
    CombinatorialMap,
    EulerianCycle,
    best_forward,
    best_inverse,
    enumerate_maps,
    spanning_trees,
)
from .multigraph import (
    Arc,
    DirectedDouble,
    Multigraph,
    directed_double,
    enumerate_connected_multigraphs,
    eulerian_count_normalized,
    eulerian_count_rooted,
    eulerian_cycles_rooted,
    initial_identity_report,
    trace_derivative_value,
    verify_initial_identity,
)
from .rosettes import (
    Pairing,
    RosetteCensus,
    enumerate_pairings,
    moment_wick,
    rosette_census,
    rosette_genus,
)

__all__ = [
    "Arc",
    "CombinatorialMap",
    "DirectedDouble",
    "EulerianCycle",
    "Multigraph",
    "Pairing",
    "RosetteCensus",
    "best_forward",
    "best_inverse",
    "directed_double",
    "enumerate_connected_multigraphs",
    "enumerate_maps",
    "enumerate_pairings",
    "eulerian_count_normalized",
    "eulerian_count_rooted",
    "eulerian_cycles_rooted",
    "initial_identity_report",
    "moment_wick",
    "rosette_census",
    "rosette_genus",
    "spanning_trees",
    "trace_derivative_value",
    "verify_initial_identity",
]
