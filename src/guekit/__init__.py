"""Finite-N GUE workbench: exact observables, counting oracles, Monte Carlo.

Closed-form quantities (Wilson loop, spectral density, resolvent, moments,
genus-indexed map counts) are held in exact rational arithmetic and
cross-checked three independent ways: a genus census of Wick pairings,
numerical quadrature, and seeded matrix sampling.

The package serves no name of its own but `__version__`: each is imported
from the module that defines it (`guekit.observables`, `guekit.exact`, ...).
"""

__version__ = "0.1.0"
