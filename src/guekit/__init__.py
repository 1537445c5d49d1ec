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
