"""Deterministic distributed dominating-set approximation toolkit.

A library plus CLI implementing derandomized rounding of fractional
dominating sets (color-ordered and cluster-ordered conditional
expectations), CONGEST round accounting, and a
connected-dominating-set extension, with exact rational arithmetic on every
invariant-bearing path.
"""

from .errors import (
    CongestDSError,
    DomainError,
    InvariantViolation,
    PrecisionError,
    PreconditionError,
    StructuralError,
)
from .graph import Graph, format_graph, load_graph, parse_graph
from .values import fractionality
from .pipeline import PipelineParams, RunReport, run_cds, run_mds_delta, run_mds_n
from .oracles import brute_force_cds, brute_force_mds
from .generators import generate_graph

__version__ = "1.0.0"

__all__ = [
    "CongestDSError",
    "DomainError",
    "Graph",
    "InvariantViolation",
    "PipelineParams",
    "PrecisionError",
    "PreconditionError",
    "RunReport",
    "StructuralError",
    "brute_force_cds",
    "brute_force_mds",
    "format_graph",
    "fractionality",
    "generate_graph",
    "load_graph",
    "parse_graph",
    "run_cds",
    "run_mds_delta",
    "run_mds_n",
]
