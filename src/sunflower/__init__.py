"""Sunflower-free set systems: detection, bounds, reductions, and exact search.

A sunflower here is three distinct members whose pairwise intersections all
equal the common intersection; for vectors, three distinct vectors whose every
coordinate is all-equal or all-distinct.  The package detects such structures,
evaluates the classical and modern size bounds with explicit exactness tags,
runs the constructive reduction pipeline from families to rank vectors, and
computes exact maximum sunflower-free families at desk scale.

Every public name loads its home module on first use (PEP 562): a bare
``import sunflower`` loads no submodule and costs about a millisecond,
and building a search instance loads only ``errors``, ``model``,
``detect`` and ``search``.  ``_EXPORTS`` is the one list of public names,
grouped by home module; ``__all__`` is derived from it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "ApproxValue", "Factorization", "JMinimizationResult", "balanced_bound", "c_d",
        "compare_bounds", "corollary_bound", "eg_vector_bound", "erdos_rado_threshold",
        "factorize", "generalized_ns_bound", "j_constant", "kostochka_value", "main_bound",
        "ns_subset_bound", "ns_vector_bound",
    ),
    "conjectures": (
        "CSV_HEADER", "ConjectureReport", "conjecture_scan", "cover_count", "max_union",
        "scan_to_csv",
    ),
    "detect": (
        "coordinate_classes", "find_ap_triple", "find_sunflower_sets",
        "find_sunflower_sets_fast", "find_sunflower_vectors", "is_ap_triple",
        "is_sunflower_sets", "is_sunflower_vectors", "kernel_of", "witness_holds",
    ),
    "errors": (
        "ArityMismatch", "BadArity", "DomainError", "DuplicateMember", "EmptySet",
        "InputHasSunflower", "NotPartite", "NotPrimePower", "OutOfRange", "SunflowerError",
        "TooLarge", "UsageError",
    ),
    "model": (
        "EXACT_INT", "EXACT_RATIONAL", "FLOAT_APPROX", "BoundReport", "ModulusVector",
        "PartiteStructure", "SetFamily", "SunflowerWitness", "VectorFamily",
        "as_modulus_vector", "dump_json", "parse_set_family", "parse_vector_family",
        "union_size",
    ),
    "reduce": (
        "PipelineTrace", "crt_map", "ek_guarantee", "ek_partition", "embed_vectors_as_sets",
        "extract_gl", "pipeline", "psi_inverse", "psi_map", "strip_common_elements",
    ),
    "rng": ("SplitMix64",),
    "search": (
        "CnfInstance", "SearchResult", "UniformInstance", "VectorInstance",
        "cnf_satisfiable", "export_cnf", "greedy_lower_bound", "max_sunflower_free_uniform",
        "max_sunflower_free_vectors", "verify_family", "verify_family_points",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
