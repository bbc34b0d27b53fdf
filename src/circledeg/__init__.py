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

from .abelian import (
    FgAbelianGroup,
    GroupElement,
    IntegerMatrix,
    apply_matrix,
    canonicalize_group,
    in_cyclic_subgroup,
    is_torsion,
    lattice_compatible,
    smith_normal_form,
    solve_scalar,
    unimodular_rational_eigen_check,
)
from .bundles import (
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    MapCatalogue,
    MapModel,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    builtin_registry,
    degree_bound,
    fiber_preserving_degree_set,
    finiteness_verdict,
    load_registry,
    promote_to_full_degree_set,
    registry_from_env,
    same_base_pair_degree_set,
    torsion_consistency,
    vertical_degree_set,
)
from .degsets import (
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
    SequenceB,
    decompose,
    subsequence_sums,
    verify_decomposition,
)
from .errors import (
    GroupMismatchError,
    HypothesisError,
    InputError,
    ResourceCapError,
)
from .realize import (
    RealizationCertificate,
    VerificationReport,
    build_construction,
    choose_primes,
    render_certificate,
    stabilize,
    verify_certificate,
)
from .schema import schema_for, schema_names, validate_payload

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InputError",
    "GroupMismatchError",
    "HypothesisError",
    "ResourceCapError",
    # abelian groups
    "IntegerMatrix",
    "FgAbelianGroup",
    "GroupElement",
    "smith_normal_form",
    "canonicalize_group",
    "is_torsion",
    "solve_scalar",
    "in_cyclic_subgroup",
    "lattice_compatible",
    "apply_matrix",
    "unimodular_rational_eigen_check",
    # degree sets
    "DegreeSet",
    "SequenceB",
    "subsequence_sums",
    "SearchLimits",
    "DecompositionCertificate",
    "decompose",
    "verify_decomposition",
    # bundles
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
    # realization
    "RealizationCertificate",
    "VerificationReport",
    "build_construction",
    "choose_primes",
    "stabilize",
    "verify_certificate",
    "render_certificate",
    # schemas
    "schema_for",
    "schema_names",
    "validate_payload",
]
