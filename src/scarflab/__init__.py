"""Exact Scarf-complex toolkit for t-connected and t-path ideals of small graphs.

The Python API lives in the submodules: monomials, graphs, ideals, complexes,
homology, analysis and cli.
"""

__version__ = "0.1.0"
