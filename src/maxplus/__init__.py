"""Max-plus matrix algebra: powers, Kleene stars, CSR expansions of
matrix powers, and orbit periodicity of reducible matrices.

Public names resolve on first access (PEP 562), so importing the package,
or one of its modules, loads only the modules that are used."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "core": ("CRIT_TOL", "NEG_INF", "UNITY", "ZERO", "TropicalMatrix",
             "as_vector", "mat_eq", "mat_mul", "mat_oplus", "mat_power",
             "mat_scalar_mul", "vec_eq"),
    "csr": ("CsrProduct", "CsrTriple", "csr_build", "csr_product",
            "csr_product_literal"),
    "errors": ("AnalysisError", "DimensionError", "DivergentStarError",
               "MaxplusError", "DomainError", "NoCyclesError",
               "NonFiniteError", "NotDefiniteError", "NotOrbitPeriodicError",
               "OracleSizeError", "ParseError", "ThresholdError",
               "TrivialColumnError", "ZeroVectorError"),
    "expansions": ("DeflationStep", "Expansion", "ExpansionEvaluation", "Term",
                   "evaluate", "fast_terms", "nachtigall_expand",
                   "ultimate_expand", "ultimate_threshold"),
    "graphs": ("CriticalStructure", "CritSubgraph", "SccDecomposition",
               "critical_structure", "gamma_u", "max_cycle_mean",
               "scc_decompose", "strong_access", "strong_access_matrix",
               "wielandt"),
    "kleene": ("kleene_star",),
    "oracle": ("PathClassQuery", "best_path_weight", "boolean_power_reach",
               "enumerate_small"),
    "orbit": ("OrbitReport", "OrbitTrace", "column_periodicity",
              "is_orbit_periodic", "orbit_growth_rate", "pair_periodicity",
              "simulate_orbit"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # Not cached here: the value is always the module's current binding.
    if name in _EXPORTS or name == "cli":
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__),
                       name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
