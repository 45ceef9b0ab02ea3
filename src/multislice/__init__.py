"""Multislice graphs: exact spectral structure of the transposition Laplacian.

Multiset permutations with fixed level counts, connected by pair swaps,
carry a graph Laplacian whose least nonzero eigenvalue equals the particle
count N, with an explicit eigenbasis built from centered level functions.
This package enumerates the graphs, assembles their operators, certifies
the spectral facts exactly, audits level coarsenings, and simulates the
random transposition walk against the certified relaxation rate.
"""

from .core import Composition, vertices
from .spectral import certification_suite, gap_certificate, gap_eigenbasis, spectral_gap
from .walk import WalkConfig, relaxation_estimate, simulate

__version__ = "0.1.0"
