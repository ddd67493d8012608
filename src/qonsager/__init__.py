"""Exact kernel for the alternating central extension of the q-Onsager algebra.

The exports below, and the submodules that define them, are looked up on
first access (PEP 562), so importing the package, or one submodule, loads
no other.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "qfield": ("G0", "RHO", "QRat", "q_int", "q_pow"),
    "words": ("Family", "Generator", "NCPoly", "Weight", "dagger",
              "is_irreducible", "sigma", "symbol_from_subscript",
              "word_degree", "word_weight"),
    "rewrite": ("OverlapReport", "RuleApplication", "apply_rule",
                "check_overlap", "enumerate_overlaps", "measure_decreases",
                "normal_form", "rule_application"),
    "report": ("Report",),
    "series": ("TruncSeries", "appendixA_series", "check_gf_relations",
               "check_prop41_decompositions", "exact_divide", "gf"),
    "central": ("check_central", "check_dolan_grady",
                "check_matrix_factorization", "ddown_transform", "delta_n",
                "down_transform", "recover_generators", "subst_ST", "z_bar",
                "z_n", "z_series"),
    "dims": ("check_dim_identity", "enumerate_irreducible", "hilbert_Aq",
             "hilbert_Oq", "partitions_count"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
