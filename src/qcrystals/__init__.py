"""Crystals of semistandard tableaux and their descent-class structure.

The package is organized around plain immutable values: partitions and
compositions are tuples, tableaux are tuples of row tuples, words are tuples
of letters. Every operation is a pure function, so everything here is safe
to call concurrently.

Names load on first use (PEP 562): `from qcrystals import X` imports the
module that defines X the first time X is asked for, so a caller pays only
for the modules it uses. Importing the package itself loads only `rsk` and
the `tableaux` and `errors` modules it needs.
"""

# bound now: importing the submodule qcrystals.rsk later would bind the module here
from .rsk import rsk

# each exported name, listed under the module that defines it
_EXPORTS_BY_MODULE = {
    "errors": """
        DegreeMismatch EmptyExpansion EmptyInput EntryOutOfRange InternalError
        InvalidPair InvalidParameters NotSymmetric QCrystalsError""",
    "tableaux": """
        HorizontalBandParsing
        check_composition check_partition compositions_of count_bm
        count_ssyt_formula descent_composition destandardize enumerate_ssyt
        enumerate_syt highest_weight_tableau hook_length_count is_semistandard
        is_standard kostka minimal_parsing partitions_of reading_word refines
        sources_of_type standardize_tableau standardize_word weight_of
        word_descent_composition""",
    "crystal": """
        CrystalGraph ParenReduction
        e_tableau e_word f_tableau f_word generate_crystal paren_reduce
        word_crystal_component""",
    "rsk": """
        RskPair SkewTableau
        evacuate jdt_rectify rot_word rotate180_complement rsk rsk_inverse
        rsk_of_rot skew_from_rows""",
    "decomposition": """
        QuasicrystalClass Subcomponent
        canonical_quasicrystal decompose subcomponent_sink
        verify_subcomponent_iso weight_multiplicity_in_subcomponent""",
    "skeleton": """
        DualEquivalenceGraph SkeletonGraph
        build_skeleton check_descent_composition_conditions
        check_dual_equivalence_conjecture check_evac_duality
        check_reordering_conjecture check_skeleton_strata classify_subgraph
        dual_equivalence_graph dual_equivalence_involution
        induced_by_descent_count skeleton_stable""",
    "symfunc": """
        FExpansion SchurExpansion
        f_to_monomials format_f_expansion format_schur_expansion
        is_schur_positive leading_support parse_f_expansion
        parse_schur_expansion plethysm_monomial_count schur_to_f schurify""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS_BY_MODULE.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
