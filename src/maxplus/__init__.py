"""Max-plus matrix algebra: powers, Kleene stars, CSR expansions of
matrix powers, and orbit periodicity of reducible matrices."""

from .core import (CRIT_TOL, NEG_INF, UNITY, ZERO, TropicalMatrix, as_vector,
                   mat_eq, mat_mul, mat_oplus, mat_power, mat_scalar_mul,
                   vec_eq)
from .csr import (CsrProduct, CsrTriple, csr_build, csr_product,
                  csr_product_literal)
from .errors import (AnalysisError, DimensionError, DivergentStarError,
                     DomainError, MaxplusError, NoCyclesError, NonFiniteError,
                     NotDefiniteError, NotOrbitPeriodicError,
                     OracleSizeError, ParseError, ThresholdError,
                     TrivialColumnError, ZeroVectorError)
from .expansions import (DeflationStep, Expansion, ExpansionEvaluation, Term,
                         evaluate, fast_terms, nachtigall_expand,
                         ultimate_expand, ultimate_threshold)
from .graphs import (CriticalStructure, CritSubgraph, SccDecomposition,
                     critical_structure, gamma_u, max_cycle_mean,
                     scc_decompose, strong_access, strong_access_matrix,
                     wielandt)
from .kleene import kleene_star
from .oracle import (PathClassQuery, best_path_weight, boolean_power_reach,
                     enumerate_small)
from .orbit import (OrbitReport, OrbitTrace, column_periodicity,
                    is_orbit_periodic, orbit_growth_rate, pair_periodicity,
                    simulate_orbit)

__version__ = "0.1.0"

__all__ = [
    "CRIT_TOL", "NEG_INF", "UNITY", "ZERO", "TropicalMatrix", "as_vector",
    "mat_eq", "mat_mul", "mat_oplus", "mat_power", "mat_scalar_mul",
    "vec_eq",
    "CsrProduct", "CsrTriple", "csr_build", "csr_product",
    "csr_product_literal",
    "AnalysisError", "DimensionError", "DivergentStarError", "MaxplusError",
    "DomainError", "NoCyclesError", "NonFiniteError",
    "NotDefiniteError", "NotOrbitPeriodicError", "OracleSizeError",
    "ParseError", "ThresholdError", "TrivialColumnError", "ZeroVectorError",
    "DeflationStep", "Expansion", "ExpansionEvaluation", "Term", "evaluate",
    "fast_terms", "nachtigall_expand", "ultimate_expand", "ultimate_threshold",
    "CriticalStructure", "CritSubgraph", "SccDecomposition",
    "critical_structure", "gamma_u", "max_cycle_mean", "scc_decompose",
    "strong_access", "strong_access_matrix", "wielandt",
    "kleene_star",
    "PathClassQuery", "best_path_weight", "boolean_power_reach",
    "enumerate_small",
    "OrbitReport", "OrbitTrace", "column_periodicity", "is_orbit_periodic",
    "orbit_growth_rate", "pair_periodicity", "simulate_orbit",
]
