from collections import Counter
from dataclasses import replace

import pytest

from qcrystals import skeleton, symfunc, verify
from qcrystals.errors import InvalidParameters
from qcrystals.skeleton import check_reordering_conjecture


class TestTheoremSuites:
    def test_all_pass_at_small_scale(self):
        for name, _ in verify.THEOREM_SUITES:
            report = verify.run_theorem_suite(name, 4)
            assert report.passed, report

    def test_report_shape(self):
        report = verify.counting_suite(max_size=3, alphabet=3)
        assert report.passed
        assert dict(report.details)["failures"] == ()
        assert report.wall_time >= 0
        assert "pass" in report.summary()


class TestSchurifySuite:
    def test_the_suite_catches_a_table_that_still_round_trips(self, monkeypatch):
        assert verify.schurify_suite(samples=5, max_degree=4).passed
        # dropping the least term of every table keeps each leading term, so
        # schurify still inverts schur_to_f; only the listing comparison sees it
        right = symfunc._schur_to_f_terms
        monkeypatch.setattr(symfunc, "_schur_to_f_terms",
                            lambda shape: dict(list(right(shape).items())[1:]) or right(shape))
        failures = dict(verify.schurify_suite(samples=5, max_degree=4).details)["failures"]
        assert ("expansion vs standard-tableau listing", (2, 1)) in failures
        assert {f[0] for f in failures} == {"expansion vs standard-tableau listing"}


class TestKostkaSuite:
    def test_both_sides_are_checked(self, monkeypatch):
        right = verify.kostka
        monkeypatch.setattr(verify, "kostka",
                            lambda shape, mu: right(shape, mu) + (shape == (2, 1)))
        failures = dict(verify.kostka_suite(max_size=3).details)["failures"]
        assert ("kostka mismatch", (2, 1), (1, 1, 1)) in failures
        assert ("kostka vs refinement sum", (2, 1), (1, 1, 1)) in failures
        assert {f[1] for f in failures} == {(2, 1)}


class TestRskSuite:
    """rsk_suite reads its primitives through per-run lookup tables; a fault
    planted in one of them is still reported for every word that meets it,
    in the order of the suite without tables (the lists below)."""

    def test_a_wrong_evacuation_is_reported_for_every_word(self, monkeypatch):
        right = verify.evacuate
        monkeypatch.setattr(verify, "evacuate", lambda T, n=None: (
            ((9,),) if T == ((1, 1, 1), (2,), (3,)) else right(T, n)))
        failures = dict(verify.rsk_suite().details)["failures"]
        assert failures == tuple(("rotated insertion pair", w) for w in (
            (1, 1, 3, 2, 1), (1, 3, 1, 2, 1), (1, 3, 2, 1, 1), (3, 1, 1, 2, 1),
            (3, 1, 2, 1, 1), (3, 2, 1, 1, 1), (1, 1, 3, 2, 1)))

    def test_a_wrong_operator_image_is_reported_for_every_word(self, monkeypatch):
        right = verify.f_tableau
        monkeypatch.setattr(verify, "f_tableau", lambda T, i: (
            None if (T, i) == (((1, 1, 2), (2, 3)), 2) else right(T, i)))
        failures = dict(verify.rsk_suite().details)["failures"]
        assert failures == tuple(("insertion commutes with operators", w, 2) for w in (
            (1, 2, 1, 3, 2), (1, 2, 3, 1, 2), (2, 1, 1, 3, 2), (2, 1, 3, 1, 2),
            (2, 3, 1, 1, 2), (2, 1, 3, 1, 2)))

    def test_each_evacuation_is_computed_once(self, monkeypatch):
        right, calls = verify.evacuate, Counter()

        def counted(T, n=None):
            calls[T, n] += 1
            return right(T, n)
        monkeypatch.setattr(verify, "evacuate", counted)
        assert verify.rsk_suite().passed
        assert len(calls) == 601 and set(calls.values()) == {1}


class TestEvacuationSuite:
    def test_insertion_is_compared_with_jeu_de_taquin(self, monkeypatch):
        right = verify.evacuate
        monkeypatch.setattr(verify, "evacuate",
                            lambda T, n: T if T == ((1, 1), (2,)) else right(T, n))
        failures = dict(verify.evacuation_suite(max_size=3, alphabet=2).details)["failures"]
        assert ("insertion vs jeu de taquin", ((1, 1), (2,)), 2) in failures

    def test_class_duality_keeps_its_own_evacuation(self, monkeypatch):
        # the duality check evacuates by rsk_of_rot, not through the patched
        # evacuate, so only the suite's own identities fail
        right = verify.evacuate
        monkeypatch.setattr(verify, "evacuate",
                            lambda T, n: T if T == ((1, 1), (2,)) else right(T, n))
        failures = dict(verify.evacuation_suite(max_size=3, alphabet=2).details)["failures"]
        assert failures == (
            ("insertion vs jeu de taquin", ((1, 1), (2,)), 2),
            ("descent reversal", ((1, 1), (2,)), 2),
            ("anti-automorphism", ((1, 1), (2,)), 1, 2),
            ("not an involution", ((1, 2), (2,)), 2),
            ("source to sink", (2, 1), 2))

    def test_each_crystal_is_built_once(self, monkeypatch):
        right, calls = verify.generate_crystal, Counter()

        def counted(shape, n):
            calls[shape, n] += 1
            return right(shape, n)

        def refuse(shape, n):
            raise AssertionError("the duality check built its own crystal")
        monkeypatch.setattr(verify, "generate_crystal", counted)
        monkeypatch.setattr(skeleton, "generate_crystal", refuse)
        assert verify.evacuation_suite(max_size=4).passed
        pairs = {(shape, n) for m in range(1, 5) for shape in verify.partitions_of(m)
                 for n in range(len(shape), 5)}
        assert set(calls) == pairs and set(calls.values()) == {1}


class TestDualEquivalenceSuite:
    def test_word_graph_is_compared_with_the_involutions(self, monkeypatch):
        right = skeleton.dual_equivalence_graph

        def one_edge_short(shape):
            g = right(shape)
            return replace(g, edges=g.edges - {min(g.edges)}) if shape == (2, 2, 1) else g
        monkeypatch.setattr(skeleton, "dual_equivalence_graph", one_edge_short)
        failures = dict(verify.dual_equivalence_suite(max_size=5).details)["failures"]
        assert failures == (("graph vs involutions", (2, 2, 1)),)


class TestConjectureSuites:
    def test_all_consistent_at_small_scale(self):
        for name in verify.CONJECTURE_SUITES:
            reports = verify.run_conjecture_suite(name, 4)
            assert reports and all(r.passed for r in reports)
            assert all(r.wall_time > 0 for r in reports)

    def test_new_territory_is_reported_not_asserted(self):
        # size 7 is beyond the verified envelope: the checker must return a
        # structured report either way, never raise
        report = check_reordering_conjecture(7)
        assert isinstance(report.passed, bool)
        details = dict(report.details)
        assert details["compositions_checked"] == 64
        assert isinstance(details["missing"], tuple)

    def test_unknown_suite_rejected(self):
        try:
            verify.run_conjecture_suite("nope", 3)
        except ValueError:
            return
        raise AssertionError("unknown suite accepted")


class TestRunners:
    def test_unknown_names_rejected(self):
        with pytest.raises(InvalidParameters):
            verify.run_theorem_suite("nope", 3)
        with pytest.raises(InvalidParameters):
            verify.run_conjecture_suite("nope", 3)

    def test_runners_time_every_report(self):
        # the runners are where suites are timed; a direct call is untimed
        for name, _ in verify.THEOREM_SUITES:
            assert verify.run_theorem_suite(name, 3).wall_time > 0, name
        for name in verify.CONJECTURE_SUITES:
            reports = verify.run_conjecture_suite(name, 3)
            assert reports and all(r.wall_time > 0 for r in reports), name
        assert verify.refinement_order_suite(max_size=3).wall_time == 0.0
