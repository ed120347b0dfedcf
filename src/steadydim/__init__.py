"""Exact steady-state dimension and finiteness analysis for mass-action networks.

The pipeline: parse a reaction network, build its matrix quadruple
(stoichiometric matrix, reactant exponents, row basis, conservation
laws), decide positive-kernel-cone feasibility by exact simplex, and run
randomized-plus-symbolic generic-rank tests on the two parametric
Jacobians.  Everything is computed in exact rational arithmetic.
"""

from .cone import ConeResult, ConeStatus
from .netmodel import (
    Complex,
    NetworkMatrices,
    ParseError,
    Reaction,
    ReactionNetwork,
    parse_network,
)
from .nondegen import (
    AnalysisReport,
    BudgetExhausted,
    ClassesConclusion,
    DimensionMismatch,
    GenericRankVerdict,
    RankTestStatus,
    SamplerConfig,
    SteadyStateCheck,
    VarietyConclusion,
    analyze,
    analyze_matrices,
    check_steady_state,
)
from .ratmat import RatMatrix

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BudgetExhausted",
    "ClassesConclusion",
    "Complex",
    "ConeResult",
    "ConeStatus",
    "DimensionMismatch",
    "GenericRankVerdict",
    "NetworkMatrices",
    "ParseError",
    "RankTestStatus",
    "RatMatrix",
    "Reaction",
    "ReactionNetwork",
    "SamplerConfig",
    "SteadyStateCheck",
    "VarietyConclusion",
    "analyze",
    "analyze_matrices",
    "check_steady_state",
    "parse_network",
]
