"""Deterministic laboratory for finite prefixes of the countable random graph.

The ambient graph on the positive integers is produced by a seeded,
counter-based PRF, so every experiment is exactly reproducible from its
seed.  Subpackages cover the edge oracle and vertex types, finite-graph
values and graph6 I/O, largeness checkers, greedy type-based embedding,
universality audits, thick/block constructions, and Monte Carlo checks
of the underlying probability bounds.
"""

__version__ = "0.1.0"

from .oracle import EdgeOracle, TypeSpec, extension_check, induced_subgraph, type_of
from .sets import VertexSet
from .graphs import FiniteGraph, canonical_form, enumerate_unlabeled, graph6_decode, graph6_encode

__all__ = [
    "EdgeOracle",
    "TypeSpec",
    "VertexSet",
    "FiniteGraph",
    "canonical_form",
    "enumerate_unlabeled",
    "graph6_decode",
    "graph6_encode",
    "extension_check",
    "induced_subgraph",
    "type_of",
    "__version__",
]
