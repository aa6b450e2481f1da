"""The names the package exports, pinned so that a move cannot drop one."""

import types

import qcrystals

EXPORTS = frozenset({
    'CrystalGraph', 'DegreeMismatch', 'DualEquivalenceGraph',
    'EmptyExpansion', 'EmptyInput', 'EntryOutOfRange', 'FExpansion',
    'HorizontalBandParsing', 'InternalError', 'InvalidPair',
    'InvalidParameters', 'NotSymmetric', 'ParenReduction', 'QCrystalsError',
    'QuasicrystalClass', 'RskPair', 'SchurExpansion', 'SkeletonGraph',
    'SkewTableau', 'Subcomponent', 'build_skeleton', 'canonical_quasicrystal',
    'check_composition', 'check_descent_composition_conditions',
    'check_dual_equivalence_conjecture', 'check_evac_duality',
    'check_partition', 'check_reordering_conjecture', 'check_skeleton_strata',
    'classify_subgraph', 'compositions_of', 'count_bm', 'count_ssyt_formula',
    'decompose', 'descent_composition', 'destandardize',
    'dual_equivalence_graph', 'dual_equivalence_involution', 'e_tableau',
    'e_word', 'enumerate_ssyt', 'enumerate_syt', 'evacuate', 'f_tableau',
    'f_to_monomials', 'f_word', 'format_f_expansion',
    'format_schur_expansion', 'generate_crystal', 'highest_weight_tableau',
    'hook_length_count', 'induced_by_descent_count', 'is_schur_positive',
    'is_semistandard', 'is_standard', 'jdt_rectify', 'kostka',
    'leading_support', 'minimal_parsing', 'paren_reduce', 'parse_f_expansion',
    'parse_schur_expansion', 'partitions_of', 'plethysm_monomial_count',
    'reading_word', 'refines', 'rot_word', 'rotate180_complement', 'rsk',
    'rsk_inverse', 'rsk_of_rot', 'schur_to_f', 'schurify', 'skeleton_stable',
    'skew_from_rows', 'sources_of_type', 'standardize_tableau',
    'standardize_word', 'subcomponent_sink', 'verify_subcomponent_iso',
    'weight_multiplicity_in_subcomponent', 'weight_of',
    'word_crystal_component', 'word_descent_composition',
})


def test_package_exports_exactly_the_pinned_names():
    # submodules become attributes of the package once imported; they are
    # not exports
    public = {name for name, value in vars(qcrystals).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(EXPORTS) == 84
    assert public == EXPORTS


def test_every_export_is_importable_from_the_package():
    # what `from qcrystals import name` looks up, also through a module
    # __getattr__ if the package comes to load its names lazily
    for name in sorted(EXPORTS):
        assert getattr(qcrystals, name) is not None
