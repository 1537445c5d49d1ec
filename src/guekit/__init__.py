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
from .observables import (
    density,
    density_eval,
    density_fourier_check,
    harer_zagier_closed,
    harer_zagier_from_counts,
    harer_zagier_recursion,
    moment_exact,
    moment_genus_expansion,
    moment_table,
    resolvent_laplace,
    resolvent_quadrature,
    rosette_count_formula,
    wigner_density,
    wilson_bound,
    wilson_eval,
    wilson_limit_partial,
    wilson_loop,
    wilson_taylor_coefficients,
)
from .records import OutputRecord

__version__ = "0.1.0"

# Names of the sampler and of the enumeration oracles in guekit.maps,
# which no table command runs, resolve on first use (PEP 562): name -> the
# submodule that defines it.  The sampler's names load numpy on their
# first draw, not on import.  The exact observables, the closed forms and
# the Harer-Zagier recursion among them, and the records load with the
# package.
_LAZY = {
    **dict.fromkeys(("SampleStats", "estimate_density_histogram", "estimate_wilson",
                     "sample_gue", "zscore"), "montecarlo"),
    **dict.fromkeys(("CombinatorialMap", "DirectedDouble", "EulerianCycle", "Multigraph",
                     "Pairing", "RosetteCensus", "best_forward", "best_inverse",
                     "directed_double", "enumerate_connected_multigraphs", "enumerate_maps",
                     "enumerate_pairings", "eulerian_count_normalized",
                     "eulerian_count_rooted", "moment_wick", "rosette_census",
                     "rosette_genus", "verify_initial_identity"), "maps"),
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
