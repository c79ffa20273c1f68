"""Mordell-Weil groups and lattices of maximal rational fibrations.

Exact-arithmetic models of genus-g fibrations on rational surfaces with
Picard number 4g + 6: Neron-Severi intersection theory, reducible-fibre
dual graphs, Mordell-Weil group and lattice computation, and symbolic
verification of the defining-equation constructions (pencil
discriminant, double cover, singular-germ classification).
"""

from __future__ import annotations

from .ade import GermClassification, classify_ade_germ, default_step_budget
from .boxenum import box_short_vectors, enumeration_backend, set_backend
from .catalog import CatalogEntry, build_catalog, catalog_entry
from .errors import (
    ConfigurationError,
    FormError,
    InputFormatError,
    InternalConsistencyError,
    MWLatticeError,
)
from .fibers import (
    DualGraph,
    FiberShape,
    classify_shape,
    dual_graph,
    fiber_multiplicities,
    to_dot,
)
from .lattice import AbelianGroupInvariants, cokernel_invariants, dual_gram
from .mw import (
    EquivalenceReport,
    LatticeIdentification,
    MWLReport,
    equivalence_check,
    identify_dn_plus,
    mw_group,
    mw_rank_by_formula,
    mwl,
)
from .pencil import (
    BranchDecomposition,
    DoubleCoverCoefficients,
    PencilCoefficients,
    branch_decomposition,
    contact_order_at_origin,
    discriminant_in_x,
    double_cover_branch_germ,
    double_cover_equation,
    pencil_equation,
    pencil_to_double_cover,
    random_pencil,
)
from .poly import SparsePoly
from .scenarios import (
    BasisIsometry,
    ReducibleFiber,
    Scenario,
    ValidationReport,
    elementary_transformation,
    scenario_all_irreducible,
    scenario_from_json,
    scenario_to_json,
    scenario_trivial_mw,
    transform_scenario,
    validate_scenario,
)
from .surface import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    class_from_coeffs,
    fiber_class,
    intersect,
)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupInvariants",
    "BasisIsometry",
    "BranchDecomposition",
    "CatalogEntry",
    "ConfigurationError",
    "DivisorClass",
    "DoubleCoverCoefficients",
    "DualGraph",
    "EquivalenceReport",
    "FiberShape",
    "FormError",
    "GermClassification",
    "InputFormatError",
    "InternalConsistencyError",
    "LatticeIdentification",
    "MWLReport",
    "MWLatticeError",
    "PencilCoefficients",
    "ReducibleFiber",
    "Scenario",
    "SparsePoly",
    "SurfaceModel",
    "ValidationReport",
    "box_short_vectors",
    "branch_decomposition",
    "build_catalog",
    "canonical_class",
    "catalog_entry",
    "class_from_coeffs",
    "classify_ade_germ",
    "classify_shape",
    "cokernel_invariants",
    "contact_order_at_origin",
    "default_step_budget",
    "discriminant_in_x",
    "double_cover_branch_germ",
    "double_cover_equation",
    "dual_gram",
    "dual_graph",
    "elementary_transformation",
    "enumeration_backend",
    "equivalence_check",
    "fiber_class",
    "fiber_multiplicities",
    "identify_dn_plus",
    "intersect",
    "mw_group",
    "mw_rank_by_formula",
    "mwl",
    "pencil_equation",
    "pencil_to_double_cover",
    "random_pencil",
    "run_all",
    "scenario_all_irreducible",
    "scenario_from_json",
    "scenario_to_json",
    "scenario_trivial_mw",
    "set_backend",
    "to_dot",
    "transform_scenario",
    "validate_scenario",
]
