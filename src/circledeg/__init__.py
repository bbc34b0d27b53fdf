"""Exact arithmetic for mapping degree sets of oriented circle bundles.

The package computes, in exact integer arithmetic, which mapping degrees
can occur between oriented circle bundles: scalar equations in finitely
generated abelian groups (Euler class comparisons), the degree-set
algebra of finite sets and arithmetic progressions, closed-form rules
for vertical, fiber-preserving and same-base bundle maps, and
certificate-producing constructions that realize any finite set of
degrees containing 0, together with an independent verifier for those
certificates.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it; a module is imported on
# the first use of one of its names (PEP 562), so that a request that needs
# only ``abelian`` does not pay for ``bundles`` and ``realize``
_EXPORTS = {
    "errors": (
        "InputError",
        "GroupMismatchError",
        "HypothesisError",
        "ResourceCapError",
    ),
    "abelian": (
        "IntegerMatrix",
        "FgAbelianGroup",
        "GroupElement",
        "smith_normal_form",
        "canonicalize_group",
        "is_torsion",
        "solve_scalar",
        "lattice_compatible",
        "apply_matrix",
        "unimodular_rational_eigen_check",
    ),
    "degsets": (
        "DegreeSet",
        "SequenceB",
        "subsequence_sums",
        "SearchLimits",
        "DecompositionCertificate",
        "decompose",
        "verify_decomposition",
    ),
    "bundles": (
        "BaseManifold",
        "CircleBundle",
        "SphereProduct",
        "ConnectedSum",
        "Stabilized",
        "SymbolicRepeat",
        "MapModel",
        "MapCatalogue",
        "vertical_degree_set",
        "torsion_consistency",
        "fiber_preserving_degree_set",
        "promote_to_full_degree_set",
        "same_base_pair_degree_set",
        "degree_bound",
        "finiteness_verdict",
        "builtin_registry",
        "load_registry",
        "registry_from_env",
    ),
    "realize": (
        "RealizationCertificate",
        "VerificationReport",
        "build_construction",
        "choose_primes",
        "stabilize",
        "verify_certificate",
        "render_certificate",
    ),
    "schema": (
        "schema_for",
        "schema_names",
        "validate_payload",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_frozen", "abelian", "bundles", "cli", "degsets", "errors", "realize", "schema")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str) -> object:
    """A public name or a submodule, imported on first use and kept.  The
    import goes through ``__import__``, as an import statement does, so
    that ``python -X importtime`` still lists the module."""
    if name in _MODULE_OF:
        value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=(name,)), name)
    elif name in _SUBMODULES:
        value = __import__(f"{__name__}.{name}", fromlist=("__name__",))
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
