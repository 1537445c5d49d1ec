"""Enumerative oracles: pairings, rosettes, multigraphs, Eulerian cycles.

Each oracle is imported from the module that defines it: `rosettes`
(Wick pairings and the rosette census), `multigraph` (connected
multigraphs and their Eulerian counts) or `bijection` (combinatorial
maps and the BEST bijection).  Importing this package loads all three,
and re-exports none of their names.
"""

from . import bijection, multigraph, rosettes
