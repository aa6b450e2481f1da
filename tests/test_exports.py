"""The names the package exports, pinned so that a move cannot drop one."""

import os
import subprocess
import sys
import types
from pathlib import Path

import qcrystals

SRC = Path(__file__).resolve().parents[1] / "src"

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
    assert set(qcrystals.__all__) == EXPORTS
    assert len(EXPORTS) == 84
    # the package binds most names on first use, so look each one up before
    # reading its namespace
    for name in EXPORTS:
        getattr(qcrystals, name)
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


def test_rsk_stays_the_function_after_its_submodule_loads():
    # qcrystals.rsk names both a submodule and an exported function; importing
    # the submodule after the package, as skeleton and the CLI do, must leave
    # the function bound, and no export may come out as a module
    code = """if True:
        import importlib, sys, types
        import qcrystals.skeleton, qcrystals.cli
        assert qcrystals.cli.main(["rsk", "--word", "312"]) == 0
        from qcrystals import rsk
        assert callable(rsk)
        print(qcrystals.rsk((3, 1, 2)))
        for module in ("errors", "tableaux", "crystal", "rsk", "decomposition",
                       "skeleton", "symfunc", "render", "verify"):
            importlib.import_module("qcrystals." + module)
        for name in sys.argv[1:]:
            value = getattr(qcrystals, name)
            assert not isinstance(value, types.ModuleType), name
            assert value is getattr(importlib.import_module(value.__module__), name), name
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code, *sorted(EXPORTS)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        '{"P": [[1, 2], [3]], "Q": [[1, 3], [2]]}',
        "RskPair(P=((1, 2), (3,)), Q=((1, 3), (2,)))",
    ]
