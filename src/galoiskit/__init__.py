"""galois-kit: exact-arithmetic Galois theory over the rationals.

Splitting fields, Galois groups as permutation groups, the Galois
correspondence, radical chains with their normalization to nested normal
radical towers, and the necessary condition for solvability by radicals.

Every exported name is imported from its home module on first use (PEP 562),
so ``import galoiskit`` loads no engine layer.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": ("ChainFormatError", "DegreeCapError", "EngineLimitError", "FieldMismatchError",
               "GaloisKitError", "GroupOrderLimitError", "ParseError", "PrimitiveSearchError",
               "SoundnessError"),
    "poly": ("Polynomial", "poly_compose_power", "poly_gcd", "poly_squarefree_decomposition",
             "poly_squarefree_part", "render_poly"),
    "qfactor": ("Factorization", "factor_mod_p", "factor_over_Q", "is_irreducible_over_Q"),
    "scalars": ("QQ", "PrimeField", "PrimeFieldElement", "Rational"),
    "numfield": ("AbsoluteField", "ExtElement", "ExtensionField", "FieldTower", "element_sort_key",
                 "factor_over_number_field", "minimal_polynomial", "roots_in_field"),
    "splitting": ("SplittingField", "splitting_degree", "splitting_field"),
    "galois": ("Automorphism", "GaloisGroup", "IntermediateField", "fixed_field", "galois_group",
               "intermediate_field", "orbit", "orbit_min_poly", "restriction_homomorphism",
               "subgroup_fixing"),
    "permgroup": ("CyclicGroupZ", "DirectSumZ", "PermGroup", "Permutation", "UnitGroup",
                  "aut_cyclic", "closure", "derived_subgroup", "find_embedding", "is_abelian",
                  "is_normal", "is_solvable", "solvable_via_abelian_chain", "unit_group"),
    "radical": ("NormalRadicalTower", "RadicalChain", "abelian_layer_embeddings",
                "associated_group_chain", "necessary_condition_verdict", "normalize_chain",
                "quintic_group_witness", "realize_chain", "verify_nested_normal_radical"),
    "parsing": ("evaluate_in_field", "parse_poly"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # an unknown name raises, so ``from galoiskit import numfield`` falls back to the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
