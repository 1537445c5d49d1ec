"""Finite-N GUE workbench: exact observables, counting oracles, Monte Carlo.

Closed-form quantities (Wilson loop, spectral density, resolvent, moments,
genus-indexed map counts) are held in exact rational arithmetic and
cross-checked three independent ways: brute-force pairing enumeration,
numerical quadrature, and seeded matrix sampling.
"""

from .exact import (
    QuadratureError,
    binomial,
    catalan,
    double_factorial,
    enumerate_partition_terms,
    integrate_real,
)
from .maps import (
    CombinatorialMap,
    DirectedDouble,
    EulerianCycle,
    Multigraph,
    Pairing,
    RosetteCensus,
    best_forward,
    best_inverse,
    directed_double,
    enumerate_connected_multigraphs,
    enumerate_maps,
    enumerate_pairings,
    eulerian_count_normalized,
    eulerian_count_rooted,
    harer_zagier_closed,
    harer_zagier_from_counts,
    harer_zagier_recursion,
    moment_wick,
    rosette_census,
    rosette_count_formula,
    rosette_genus,
    verify_initial_identity,
)
from .observables import (
    density,
    density_eval,
    density_fourier_check,
    moment_exact,
    moment_genus_expansion,
    moment_table,
    resolvent_laplace,
    resolvent_quadrature,
    wigner_density,
    wilson_bound,
    wilson_eval,
    wilson_limit_partial,
    wilson_loop,
    wilson_taylor_coefficients,
)
from .records import OutputRecord

__version__ = "0.1.0"

# The sampler is the only module that needs numpy; its names load it on
# first use (PEP 562), so the exact observables start without it.
_MONTECARLO = frozenset(
    {"SampleStats", "estimate_density_histogram", "estimate_wilson", "sample_gue", "zscore"})


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
