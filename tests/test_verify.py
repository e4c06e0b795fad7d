import itertools
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from fishburn import (
    REGISTRY,
    Matching,
    Poset,
    UnknownCheck,
    UnknownClass,
    UnknownPredicate,
    UnknownStatistic,
    matching_to_matrix,
    matching_to_table,
    matrix_to_matching_no_neighbor_crossing,
    poset_to_table,
    relabel_poset,
    run_all,
    run_check,
    table_to_matching,
    table_to_poset,
)
from fishburn import bijections, cli, enumeration, jsonio, objects, statistics, verify
from fishburn.enumeration import (
    MATCHING_RULES,
    gen_factorial_posets,
    gen_matrices,
    gen_permutations,
    generate,
)
from fishburn.objects import (
    TriangularMatrix,
    has_right_nesting,
    is_natural,
    is_two_plus_two_free,
    validate_permutation,
)
from fishburn.verify import _objects, _tally

from helpers import is_two_plus_two_free_by_inclusion, two_sweep_round_trip


class TestRegistry:
    def test_size(self):
        assert len(REGISTRY) >= 18

    def test_kinds(self):
        kinds = {kind for kind, _, _ in REGISTRY.values()}
        assert kinds == {"theorem", "proposition", "corollary", "conjecture"}

    def test_conjecture_prefix_matches_kind(self):
        for name, (kind, _, _) in REGISTRY.items():
            if name.startswith("conj"):
                assert kind == "conjecture"

    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            run_check("thm_flat_earth")

    @pytest.mark.parametrize("n_max", [-3, True, 2.0, "2"])
    def test_size_must_be_a_nonnegative_integer(self, n_max):
        with pytest.raises(ValueError):
            run_check("conj3_no_2_left_nestings", n_max)

    def test_run_all_refuses_a_negative_size(self):
        with pytest.raises(ValueError):
            run_all(-1)


class TestRunCheck:
    def test_counting_theorem(self):
        report = run_check("thm_no_left_nesting_count", 4)
        assert report.verdict == "pass"
        assert report.witness is None
        assert report.kind == "theorem"
        assert report.n_max == 4

    def test_default_n_max_used(self):
        report = run_check("conj3_no_2_left_nestings", 3)
        assert report.n_max == 3
        assert report.verdict == "pass"

    def test_orientation_detail(self):
        report = run_check("conj4_lne_second_order_eulerian", 3)
        assert report.verdict == "pass"
        assert report.detail == "orientation: reversed"

    def test_to_json_shape(self):
        report = run_check("thm_factorial_poset_count", 3)
        data = report.to_json()
        assert set(data) == {"check", "kind", "n_max", "verdict", "witness"}
        timed = report.to_json(timing=True)
        assert "elapsed_ms" in timed


class TestRunAll:
    def test_small_run_passes(self):
        reports = run_all(2)
        assert all(r.verdict == "pass" for r in reports)
        assert [r.check for r in reports] == list(REGISTRY)

    def test_vacuous_run(self):
        reports = run_all(0)
        assert all(r.verdict == "pass" for r in reports)

    def test_reports_deterministic(self):
        first = [r.to_json() for r in run_all(2)]
        second = [r.to_json() for r in run_all(2)]
        assert first == second


class TestEquidistributed:
    """The fact of the equidistribution rows: the first statistic tuple whose
    counts differ, or None."""

    def test_matching_distributions_pass(self):
        fact = verify._equidistributed(("factorial_posets", (), ("ip",)),
                                       ("permutations", (), ("inv",)))
        assert fact(3) is None

    def test_differing_distributions_fail_with_witness(self):
        fact = verify._equidistributed(("permutations", (), ("inv",)),
                                       ("permutations", (), ("des",)))
        assert fact(3) == {"n": 3, "tuple": [1], "counts": [2, 4]}

    def test_a_shift_moves_every_tuple_of_its_row(self):
        # inv + 1 tallies no permutation at 0, so the least tuple differs
        fact = verify._equidistributed(("permutations", (), ("inv",)),
                                       ("permutations", (), ("inv",), (1,)))
        assert fact(3) == {"n": 3, "tuple": [0], "counts": [1, 0]}


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


class TestGoldenReports:
    def test_default_reports_match_golden(self):
        # every check at its pinned default size prints the recorded line
        lines = json.loads(GOLDEN.read_text())["verify_default"]
        assert len(lines) == len(REGISTRY)
        for line in lines:
            expected = json.loads(line)
            report = run_check(expected["check"], expected["n_max"])
            assert json.dumps(report.to_json()) == line


class TestFailureWitnesses:
    def test_broken_nesting_scanners_give_recorded_witnesses(self, monkeypatch):
        # class filters go through PREDICATES, and matching classes are also
        # pruned by their rules, so breaking the two nesting scanners and
        # dropping the same two patterns from the rule table must break
        # exactly the checks that filter by them
        monkeypatch.setattr("fishburn.objects.has_right_nesting", lambda m: False)
        monkeypatch.setattr("fishburn.objects.has_nesting", lambda m: False)
        for name, rules in MATCHING_RULES.items():
            monkeypatch.setitem(MATCHING_RULES, name, rules - {"rne", "ne"})
        _objects.cache_clear()
        try:
            failures = {r.check: r.witness for r in run_all(4) if r.verdict == "fail"}
        finally:
            _objects.cache_clear()
        assert failures == {
            "thm_matrix_map_no_neighbor_nesting": {
                "n": 3, "counted": "matchings with no neighbor nesting",
                "expected": 5, "actual": 6},
            "cor_catalan_matrix_images": {
                "n": 4, "class": "matching",
                "object": {"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]},
                "image": {"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}},
            "prop_descent_correcting_fishburn": {"n": 3, "table": [0, 1, 0]},
            "prop_factorial_dually_factorial_catalan": {
                "n": 3, "class": "poset", "object": {"n": 3, "less": [[1, 2]]}},
            "cor_fishburn_class_agreement": {
                "n": 3, "counted": "no_neighbor_nesting_matchings",
                "expected": 5, "actual": 6},
            "cor_catalan_class_agreement": {
                "n": 2, "counted": "non_nesting_matchings", "expected": 2, "actual": 3},
        }

    @staticmethod
    def run_image_check(monkeypatch, forward, source, target):
        """``thm_matrix_map_surjective`` with its image fact taken over the
        given map and classes."""
        kind, n_max, _ = REGISTRY["thm_matrix_map_surjective"]
        monkeypatch.setitem(REGISTRY, "thm_matrix_map_surjective", (
            kind, n_max, verify._facts(verify._image(forward, source, target))))
        report = run_check("thm_matrix_map_surjective")
        assert report.verdict == "fail"
        return report.witness

    def test_stray_image_names_first_source_member(self, monkeypatch):
        # a broken interval map adds one to the top left entry of every
        # matching with a right-nesting: such an image has entry sum n + 1,
        # so it is no target
        def broken(m):
            rows = [list(row) for row in matching_to_matrix(m).rows]
            if has_right_nesting(m):
                rows[0][0] += 1
            return TriangularMatrix.from_rows(rows)

        witness = self.run_image_check(
            monkeypatch, broken, ("matchings", "no_left_nesting"), ("matrices",))
        assert witness == {"n": 3, "class": "matching",
                           "object": {"n": 3, "arcs": [[1, 3], [4, 5], [2, 6]]},
                           "image": {"k": 2, "rows": [[2, 1], [0, 1]]}}
        n, first = next((n, m) for n in range(6)
                        for m in generate("matchings", n, ["no_left_nesting"])
                        if has_right_nesting(m))
        m = jsonio.decode(witness["class"], witness["object"])
        assert (witness["n"], m) == (n, first)
        assert jsonio.decode("matrix", witness["image"]) == broken(m)

    def test_missing_target_names_first_matrix(self, monkeypatch):
        # the non-nesting matchings are Catalan-many, one short of the 15
        # matrices at n = 4
        witness = self.run_image_check(
            monkeypatch, matching_to_matrix, ("matchings", "no_nesting"), ("matrices",))
        assert witness == {"n": 4, "class": "matrix",
                           "object": {"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]},
                           "missing": True}
        image = {matching_to_matrix(m) for m in generate("matchings", 4, ["no_nesting"])}
        first = next(t for t in gen_matrices(4) if t not in image)
        assert jsonio.decode(witness["class"], witness["object"]) == first

    def test_two_plus_two_oracle_that_accepts_everything_is_caught(self, monkeypatch):
        # the direct search and the inclusion chain are checked against each
        # other along the down-set search, so a search that never finds a new
        # 2+2 must fail the proposition on the first natural poset holding one
        monkeypatch.setattr(verify, "_adds_two_plus_two", lambda pre: lambda s: False)
        report = run_check("prop_factorial_posets_two_plus_two_free", 4)
        assert report.verdict == "fail"
        assert report.witness == {"n": 4, "class": "poset",
                                  "object": {"n": 4, "less": [[1, 3], [2, 4]]},
                                  "disagreement": True}
        p = jsonio.decode("poset", report.witness["object"])
        assert is_natural(p) and not is_two_plus_two_free_by_inclusion(p)

    def test_broken_canonical_labeling_is_caught(self, monkeypatch):
        # a labeling that keeps every poset as given undoes no relabeling:
        # the first poset and relabeling it misses are the witness
        monkeypatch.setattr(verify, "canonical_labeling", lambda q: q)
        report = run_check("prop_unique_labeling", 4)
        assert report.verdict == "fail"
        assert report.witness == {"n": 2, "relabeling": [2, 1], "class": "poset",
                                  "object": {"n": 2, "less": [[1, 2]]}}

    def test_labeling_check_relabels_as_relabel_poset(self, monkeypatch):
        # every poset the check hands to canonical_labeling is relabel_poset
        # of a factorial poset meeting the neighbor rule, by the identity and
        # then by the reversal
        seen = []
        real = verify.canonical_labeling
        monkeypatch.setattr(verify, "canonical_labeling",
                            lambda q: seen.append(q) or real(q))
        assert run_check("prop_unique_labeling", 4).verdict == "pass"
        expected = [relabel_poset(p, sigma)
                    for n in range(5)
                    for p in generate("factorial_posets", n, ("condition_one",))
                    for sigma in (range(1, n + 1), range(n, 0, -1))]
        assert seen == expected

    def test_labeling_check_relabels_by_identity_and_reversal(self, monkeypatch):
        # two relabelings per poset at every n, each a permutation of [n]
        calls = []
        real = verify._relabel

        def recording(p, sigma):
            calls.append((p.n, tuple(sigma)))
            return real(p, sigma)

        monkeypatch.setattr(verify, "_relabel", recording)
        assert run_check("prop_unique_labeling", 6).verdict == "pass"
        expected = [(n, sigma) for n in range(7)
                    for _ in generate("factorial_posets", n, ("condition_one",))
                    for sigma in (tuple(range(1, n + 1)), tuple(range(n, 0, -1)))]
        assert calls == expected
        assert all(validate_permutation(sigma) == sigma for _, sigma in calls)

    def test_isomorphic_members_are_caught(self, monkeypatch):
        # an invariant that only counts elements calls the antichain and the
        # chain on [2] isomorphic: the later member and the earlier one are
        # the witness
        def size_only(x):
            return TriangularMatrix.from_rows([[x.n]] if x.n else [])

        monkeypatch.setattr(verify, "poset_to_matrix", size_only)
        monkeypatch.setattr(verify, "matching_to_matrix", size_only)
        report = run_check("prop_unique_labeling", 4)
        assert report.verdict == "fail"
        assert report.witness == {"n": 2, "class": "poset", "object": {"n": 2, "less": [[1, 2]]},
                                  "isomorphic_to": {"n": 2, "less": []}}

    def test_unlabeled_poset_with_no_member_is_caught(self, monkeypatch):
        # a class that drops its last member at n = 3 has no labeling of the
        # 3-chain, whose matrix is the last of the 5 at n = 3
        real = verify._objects

        def short(class_name, n, predicates):
            objects = real(class_name, n, predicates)
            return objects[:-1] if class_name == "factorial_posets" and n == 3 else objects

        monkeypatch.setattr(verify, "_objects", short)
        report = run_check("prop_unique_labeling", 4)
        assert report.verdict == "fail"
        assert report.witness == {"n": 3, "class": "matrix", "missing": True,
                                  "object": {"k": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
        chain = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert jsonio.decode("matrix", report.witness["object"]) == \
            bijections.poset_to_matrix(chain)

    def test_witness_is_minimal_and_serializable(self):
        # break a check by comparing against a deliberately wrong oracle
        from fishburn.verify import _first_difference
        from collections import Counter

        diff = _first_difference([Counter({(0,): 1, (2,): 3}), Counter({(0,): 1, (2,): 4})])
        assert diff == {"tuple": [2], "counts": [3, 4]}
        json.dumps(diff)


class TestTwoPlusTwoWalk:
    """The two incremental tests of the 2+2 agreement, read along the down-set
    search, against the whole-poset tests they stand for."""

    def test_verdicts_carried_down_the_search_equal_the_whole_poset_tests(self):
        # every node of the search to n = 7 is checked: every natural poset on
        # [k] for 1 <= k <= 7, from both verdicts to none
        checked = Counter()

        def expand(masks, verdicts):
            adds, fits = verify._adds_two_plus_two(masks), verify._keeps_inclusion_chain(masks)

            def step(s):
                p = Poset.from_pre_masks(masks + (s,))
                kept = (verdicts[0] and not adds(s), verdicts[1] and fits(s))
                assert kept == (is_two_plus_two_free(p), is_two_plus_two_free_by_inclusion(p)), \
                    p.pre_masks
                checked[p.n, kept] += 1
                return kept
            return step

        leaves = [masks for masks, _ in enumeration.down_set_walk(7, expand, (True, True))]
        assert leaves == [p.pre_masks for p in generate("natural_posets", 7)]
        assert [checked[n, (True, True)] + checked[n, (False, False)] for n in range(1, 8)] == \
            [1, 2, 7, 40, 357, 4824, 96428]
        assert checked[7, (True, True)] and checked[7, (False, False)]

    def test_only_disagreeing_leaves_leave_the_search(self, monkeypatch):
        # whole tests: no leaf on [1..6] leaves the search; a direct search that
        # finds no 2+2: exactly the natural posets holding one, in search order
        leaves = []
        real = enumeration.down_set_walk

        def recording(n, expand, root):
            walked = list(real(n, expand, root))
            leaves.extend(masks for masks, _ in walked)
            return iter(walked)

        monkeypatch.setattr(verify, "down_set_walk", recording)
        assert all(verify._two_plus_two_agreement(n) is None for n in range(1, 7))
        assert leaves == []
        monkeypatch.setattr(verify, "_adds_two_plus_two", lambda pre: lambda s: False)
        assert verify._two_plus_two_agreement(4) is not None
        assert leaves == [p.pre_masks for p in generate("natural_posets", 4)
                          if not is_two_plus_two_free(p)]

    def test_the_agreement_builds_no_poset_without_a_witness(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a poset was built")
        monkeypatch.setattr(Poset, "__init__", refused)
        monkeypatch.setattr(Poset, "from_pre_masks", refused)
        for n in range(7):
            assert verify._two_plus_two_agreement(n) is None


def _break_pass(monkeypatch, class_name, name, compute):
    """Compute the statistic ``name`` of the class by ``compute`` alone."""
    monkeypatch.setitem(statistics._PASS_OF[class_name], name, ((name,), compute))


def _set_step_test(rule, test):
    """Replace the step test of ``rule``."""
    return lambda mp: mp.setitem(enumeration.STEP_TESTS, rule, test)


def _set_prefix_reading(name, reading):
    """Replace the reading of ``name`` in the permutations' prefix walk."""
    return lambda mp: mp.setitem(enumeration.PREFIX_READINGS, name, reading)


# a fault in the step table, which the search and the merged counter share, in
# the table readings of the factorial-poset walk or in the readings of the
# prefix walk -> (the fault, every check it fails at n <= 5 with its witness)
STEP_FAULTS = {
    "rne inverted": (
        _set_step_test("rne", lambda p, o, c: 0 < p[c - 1] < o),      # the rcr test
        {"thm_matrix_map_no_neighbor_nesting": {
            "n": 2, "counted": "matchings with no neighbor nesting", "expected": 2, "actual": 1},
         "conj1_equidistribution": {"n": 2, "tuple": [0, 1, 2], "counts": [1, 1, 0]},
         "conj2_equidistribution": {"n": 2, "tuple": [0, 2, 0], "counts": [1, 1, 0]},
         "cor_fishburn_class_agreement": {
             "n": 2, "counted": "no_neighbor_nesting_matchings", "expected": 2, "actual": 1}}),
    "gap2 off": (
        _set_step_test("gap2", lambda p, o, c: False),
        {"conj3_no_2_left_nestings": {
            "n": 3, "counted": "matchings with no 2-left-nesting", "expected": 5, "actual": 6}}),
    "lne two back": (
        _set_step_test("lne", lambda p, o, c: o > 2 and not p[o - 2]),
        {"thm_no_left_nesting_count": {
            "n": 3, "counted": "matchings with no left-nesting", "expected": 6, "actual": 5},
         "thm_matrix_map_no_neighbor_nesting": {
             "n": 4, "counted": "matchings with no neighbor nesting", "expected": 15, "actual": 14},
         "thm_matrix_map_surjective": {
             "n": 4, "class": "matrix", "missing": True,
             "object": {"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}},
         "prop_zero_one_matrices": {
             "n": 3, "counted": "matchings with no left-nesting and no right-crossing",
             "expected": 2, "actual": 1},
         "conj1_equidistribution": {"n": 2, "tuple": [1, 1, 2], "counts": [0, 0, 1]},
         "conj2_equidistribution": {"n": 2, "tuple": [1, 2, 0], "counts": [0, 0, 1]},
         "conj3_no_2_left_nestings": {
             "n": 2, "counted": "matchings with no 2-left-nesting", "expected": 2, "actual": 3},
         "conj4_lne_second_order_eulerian": {"n": 2, "lne_counts": [3, 0], "row": [1, 2]},
         "cor_mahonian": {"n": 2, "tuple": [1], "counts": [1, 1, 2]},
         "cor_eulerian": {"n": 2, "tuple": [1], "counts": [1, 2, 1]},
         "cor_fishburn_class_agreement": {
             "n": 4, "counted": "no_neighbor_nesting_matchings", "expected": 15, "actual": 14}}),
    # conj4 alone cannot tell the two: the left-crossings of all matchings
    # have the same rows at n <= 5
    "lcr for lne": (
        _set_step_test("lne", enumeration.STEP_TESTS["lcr"]),
        {"thm_no_left_nesting_count": {
            "n": 2, "counted": "matchings with no left-nesting", "expected": 2, "actual": 1},
         "thm_matrix_map_no_neighbor_nesting": {
             "n": 2, "counted": "matchings with no neighbor nesting", "expected": 2, "actual": 1},
         "thm_matrix_map_surjective": {
             "n": 2, "class": "matrix", "missing": True, "object": {"k": 1, "rows": [[2]]}},
         "prop_zero_one_matrices": {
             "n": 3, "counted": "matchings with no left-nesting and no right-crossing",
             "expected": 2, "actual": 1},
         "conj1_equidistribution": {"n": 2, "tuple": [0, 1, 2], "counts": [1, 1, 0]},
         "conj2_equidistribution": {"n": 2, "tuple": [0, 2, 0], "counts": [1, 1, 0]},
         "cor_fishburn_class_agreement": {
             "n": 2, "counted": "no_neighbor_nesting_matchings", "expected": 2, "actual": 1}}),
    # every descent of the table read as an rne_poset, a later w_j = i or not
    "rne_poset any descent": (
        lambda mp: mp.setitem(enumeration.TABLE_READINGS["factorial_posets"], "rne_poset",
                              lambda n, i, w, seen, last: w > last),
        {"conj1_equidistribution": {"n": 3, "tuple": [0, 3, 1], "counts": [0, 1, 1]},
         "conj2_equidistribution": {"n": 3, "tuple": [0, 1, 2], "counts": [0, 1, 1]}}),
    # a p at every ascent a < v with a > 1, wherever a - 1 stands
    "p with a - 1 anywhere": (
        _set_prefix_reading("p", lambda used, a, v: 1 < a < v),
        {"conj1_equidistribution": {"n": 3, "tuple": [0, 3, 1], "counts": [1, 0, 1]},
         "conj2_equidistribution": {"n": 3, "tuple": [0, 3, 0], "counts": [1, 0, 1]}}),
    # a cut wherever the value placed is the number placed, whatever came before
    "comp by the last value": (
        _set_prefix_reading("comp", lambda used, a, v: v == used.bit_count() + 1),
        {"conj1_equidistribution": {"n": 2, "tuple": [0, 0, 2], "counts": [0, 1, 0]}}),
}


_insert, _preimage, _matching_to_poset, _poset_to_matrix, _matching_to_table = (
    bijections._insert, bijections._preimage, verify.matching_to_poset, verify.poset_to_matrix,
    verify.matching_to_table)


def _crossfree_poset_to_matching(p):
    return bijections.table_to_crossfree_matching(poset_to_table(p))


def _crossfree_matching_to_poset(m):
    return table_to_poset(bijections.crossfree_matching_to_table(m))


def _set_predicate(name, test):
    """Replace the membership test of the predicate ``name``."""
    return lambda mp: mp.setitem(enumeration.PREDICATES, name,
                                 (enumeration.PREDICATES[name][0], test))


# a fault in a map, predicate or oracle that a registry row looks up when it
# runs (a row holds the maps it was built with, so each fault is injected into
# a callee) -> (the fault, every check it fails at n <= 5 with its witness)
KERNEL_FAULTS = {
    "insertion always last": (
        lambda mp: mp.setattr(bijections, "_insert", lambda w, last: _insert(w, True)),
        {"thm_no_left_crossing_count": {
            "n": 2, "table": [0, 0], "class": "matching",
            "object": {"n": 2, "arcs": [[1, 3], [2, 4]]}},
         "prop_ascent_correcting_fishburn": {"n": 2, "table": [0, 0]}}),
    "crossing preimage nests": (        # (False, False) built as (True, True)
        lambda mp: mp.setattr(bijections, "_preimage", lambda t, openers_cross, closers_cross: (
            _preimage(t, openers_cross or not closers_cross, closers_cross or not openers_cross))),
        {"thm_matrix_map_no_neighbor_crossing": {
            "n": 2, "matrix": {"k": 1, "rows": [[2]]}, "class": "matching",
            "object": {"n": 2, "arcs": [[1, 3], [2, 4]]}}}),
    "matching_to_poset one less": (
        lambda mp: mp.setattr(verify, "matching_to_poset", lambda m: Poset.from_pre_masks(
            tuple(mask >> 1 for mask in _matching_to_poset(m).pre_masks))),
        {"thm_poset_matching_round_trip": {
            "n": 2, "class": "poset", "object": {"n": 2, "less": [[1, 2]]}}}),
    "poset_to_matching one less": (
        lambda mp: mp.setattr(verify, "poset_to_matching", lambda p: table_to_matching(
            [max(a - 1, 0) for a in poset_to_table(p)])),
        {"prop_factorial_dually_factorial_catalan": {
            "n": 3, "class": "poset", "object": {"n": 3, "less": [[1, 2]]}},
         "thm_poset_matching_round_trip": {
             "n": 2, "class": "poset", "object": {"n": 2, "less": [[1, 2]]}},
         "prop_nesting_criterion": {
             "n": 3, "class": "poset", "object": {"n": 3, "less": [[1, 2]]}, "arcs": [2, 3]},
         "prop_unique_labeling": {
             "n": 2, "class": "poset", "object": {"n": 2, "less": [[1, 2]]},
             "characteristic_rows": [[1, 0], [0, 1]]}}),
    "condition_one_var always": (
        lambda mp: mp.setattr(verify, "condition_one_var", lambda p: True),
        {"prop_condition_one_variant": {
            "n": 3, "class": "poset", "object": {"n": 3, "less": [[1, 2]]}}}),
    "ascent correcting as descent": (
        lambda mp: mp.setattr(verify, "is_ascent_correcting", objects.is_descent_correcting),
        {"prop_ascent_correcting_fishburn": {"n": 3, "table": [0, 0, 1]}}),
    "descent correcting as ascent": (
        lambda mp: mp.setattr(verify, "is_descent_correcting", objects.is_ascent_correcting),
        {"prop_descent_correcting_fishburn": {"n": 3, "table": [0, 0, 1]}}),
    "3+1 free as 2+2 free": (
        lambda mp: mp.setattr(verify, "is_three_plus_one_free", objects.is_two_plus_two_free),
        {"prop_three_plus_one_free_equivalence": {
            "n": 4, "class": "poset", "object": {"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}}}),
    # the two incremental tests of the 2+2 agreement walk
    "2+2 search finds none": (
        lambda mp: mp.setattr(verify, "_adds_two_plus_two", lambda pre: lambda s: False),
        {"prop_factorial_posets_two_plus_two_free": {
            "n": 4, "class": "poset", "object": {"n": 4, "less": [[1, 3], [2, 4]]},
            "disagreement": True}}),
    "inclusion chain takes every down set": (
        lambda mp: mp.setattr(verify, "_keeps_inclusion_chain", lambda pre: lambda s: True),
        {"prop_factorial_posets_two_plus_two_free": {
            "n": 4, "class": "poset", "object": {"n": 4, "less": [[1, 3], [2, 4]]},
            "disagreement": True}}),
    # the columns reversed: the successor chain read in ascending order
    "characteristic matrix successor chain ascending": (
        lambda mp: mp.setattr(verify, "poset_to_matrix", lambda p: TriangularMatrix(
            tuple(row[::-1] for row in _poset_to_matrix(p).rows))),
        {"prop_unique_labeling": {
            "n": 2, "class": "poset", "object": {"n": 2, "less": [[1, 2]]},
            "characteristic_rows": [[0, 1], [1, 0]]}}),
    "labeling keeps the poset": (
        lambda mp: mp.setattr(verify, "canonical_labeling", lambda q: q),
        {"prop_unique_labeling": {
            "n": 2, "relabeling": [2, 1], "class": "poset", "object": {"n": 2, "less": [[1, 2]]}}}),
    "condition_one pre nondecreasing": (
        _set_predicate("condition_one", lambda p: all(map(int.__le__, p.pre_vector,
                                                          p.pre_vector[1:]))),
        {"prop_condition_one_fishburn": {
            "n": 4, "counted": "factorial posets meeting the neighbor rule",
            "expected": 15, "actual": 14},
         "prop_unique_labeling": {
             "n": 4, "class": "matrix", "missing": True,
             "object": {"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}},
         "cor_fishburn_class_agreement": {
             "n": 4, "counted": "condition_one_factorial_posets", "expected": 15, "actual": 14}}),
    "factorial as natural": (
        _set_predicate("factorial", objects.is_natural),
        {"thm_factorial_poset_count": {
            "n": 3, "counted": "factorial posets", "expected": 6, "actual": 7},
         "prop_condition_one_fishburn": {
             "n": 3, "counted": "factorial posets meeting the neighbor rule",
             "expected": 5, "actual": 6},
         "prop_factorial_dually_factorial_catalan": {
             "n": 3, "counted": "factorial and dually factorial posets",
             "expected": 5, "actual": 6},
         "cor_fishburn_class_agreement": {
             "n": 3, "counted": "condition_one_factorial_posets", "expected": 5, "actual": 6},
         "cor_catalan_class_agreement": {
             "n": 3, "counted": "factorial_dually_factorial_posets", "expected": 5, "actual": 6}}),
    # a map that leaves its domain: each matching of a poset is crossing-free,
    # and matching_to_poset refuses the first one with a left-nesting
    "poset_to_matching crossing-free": (
        lambda mp: mp.setattr(verify, "poset_to_matching", _crossfree_poset_to_matching),
        {"prop_factorial_dually_factorial_catalan": {
            "n": 2, "class": "poset", "object": {"n": 2, "less": []}},
         "thm_poset_matching_round_trip": {
             "n": 2, "error": "HasLeftNesting: matching has a left-nesting: "
                              "arcs (1, 4) and (2, 3)"},
         "prop_nesting_criterion": {
             "n": 2, "class": "poset", "object": {"n": 2, "less": []}, "arcs": [1, 2]}}),
    # two maps that undo each other on every poset, through the matchings with
    # no left-crossing: the round trip reaches its matchings with no poset
    "consistent crossing-free pair": (
        lambda mp: (mp.setattr(verify, "poset_to_matching", _crossfree_poset_to_matching),
                    mp.setattr(verify, "matching_to_poset", _crossfree_matching_to_poset)),
        {"prop_factorial_dually_factorial_catalan": {
            "n": 2, "class": "poset", "object": {"n": 2, "less": []}},
         "thm_poset_matching_round_trip": {
             "n": 2, "error": "HasLeftCrossing: matching has a left-crossing: "
                              "arcs (1, 3) and (2, 4)"},
         "prop_nesting_criterion": {
             "n": 2, "class": "poset", "object": {"n": 2, "less": []}, "arcs": [1, 2]}}),
    # fails only where a matching is read back to its table, after its poset
    "matching_to_table reversed": (
        lambda mp: mp.setattr(verify, "matching_to_table", lambda m: _matching_to_table(m)[::-1]),
        {"thm_poset_matching_round_trip": {
            "n": 2, "class": "matching", "object": {"n": 2, "arcs": [[1, 2], [3, 4]]}}}),
    # a cut that is not hereditary over-prunes the natural-poset search
    "condition_one as a cut": (
        lambda mp: mp.setattr(enumeration, "POSET_CUTS",
                              enumeration.POSET_CUTS | {"condition_one"}),
        {"prop_condition_one_fishburn": {
            "n": 4, "counted": "factorial posets meeting the neighbor rule",
            "expected": 15, "actual": 14},
         "cor_fishburn_class_agreement": {
             "n": 4, "counted": "condition_one_factorial_posets", "expected": 15, "actual": 14}}),
    "nonnesting image as noncrossing": (
        _set_predicate("nonnesting_image", bijections.matrix_is_noncrossing_image),
        {"cor_catalan_matrix_images": {
            "n": 4, "class": "matching",
            "object": {"n": 4, "arcs": [[1, 3], [2, 5], [4, 7], [6, 8]]},
            "image": {"k": 3, "rows": [[1, 1, 0], [0, 0, 1], [0, 0, 1]]}}}),
}


def decode_witness(witness):
    """Decode every object a witness names; each ``image`` is a matrix."""
    if "object" in witness:
        jsonio.decode(witness["class"], witness["object"])
    for key, class_name in (("table", "inversion_table"), ("matrix", "matrix"),
                            ("image", "matrix")):
        if key in witness:
            jsonio.decode(class_name, witness[key])


def _step_fault(fault, check):
    """The step-table fault with the witness it gives for one check."""
    inject, failures = STEP_FAULTS[fault]
    return inject, failures[check]


# check -> (the fault, which makes it fail at n <= 5, and the witness it gives)
FAULTS = {
    "conj1_equidistribution": _step_fault("rne inverted", "conj1_equidistribution"),
    "conj2_equidistribution": (
        _set_prefix_reading("des", lambda used, a, v: 0 < a < v),       # counts ascents
        {"n": 2, "tuple": [0, 1, 0], "counts": [0, 1, 0]}),
    "conj3_no_2_left_nestings": _step_fault("gap2 off", "conj3_no_2_left_nestings"),
    "conj4_lne_second_order_eulerian": _step_fault(
        "lne two back", "conj4_lne_second_order_eulerian"),
    "cor_mahonian": (
        _set_prefix_reading("inv", lambda used, a, v: (used >> v - 1).bit_count()),  # and v - 1
        {"n": 2, "tuple": [0], "counts": [1, 0, 1]}),
    "cor_eulerian": (
        lambda mp: _break_pass(mp, "inversion_tables", "dent",           # misses the entry 0
                               lambda w: (len(set(w) - {0}),)),
        {"n": 1, "tuple": [0], "counts": [0, 0, 1]}),
    "prop_triple_statistics": (
        lambda mp: mp.setattr(verify, "_perm_quintuple", statistics.stat_tuple(
            "permutations", ("comp", "lmax", "last", "dent", "inv"))),  # lmax for lmin
        {"n": 2, "table": [0, 0], "poset_tuple": [1, 2, 0, 1, 1],
         "perm_tuple": [1, 1, 0, 1, 1], "matching_tuple": [1, 2, 0, 1, 1]}),
}


class TestInjectedFaults:
    """Each of these checks fails under one named fault in the statistic,
    kernel or engine rule it reads, with a pinned witness."""

    @pytest.fixture
    def clear_caches(self):
        # so nothing computed before the fault is read under it, or after it
        def clear():
            for cache in (_objects, _tally, enumeration._merged, statistics._compile):
                cache.cache_clear()
        yield clear
        clear()

    @pytest.mark.parametrize("check", sorted(FAULTS))
    def test_fault_fails_the_check_with_its_witness(self, monkeypatch, clear_caches, check):
        inject, witness = FAULTS[check]
        assert run_check(check, 5).verdict == "pass"
        clear_caches()
        inject(monkeypatch)
        report = run_check(check, 5)
        assert (report.verdict, report.witness) == ("fail", witness)
        assert json.loads(json.dumps(report.witness)) == witness
        if "table" in witness:          # the one witness that names an object
            jsonio.decode("inversion_table", witness["table"])

    @staticmethod
    def failures_under(monkeypatch, clear_caches, inject):
        """Every check that fails at n <= 5 under the fault, with its witness."""
        assert all(report.verdict == "pass" for report in run_all(5))
        clear_caches()
        inject(monkeypatch)
        failures = {report.check: report.witness for report in run_all(5)
                    if report.verdict == "fail"}
        for witness in failures.values():
            decode_witness(witness)
        return failures

    @pytest.mark.parametrize("fault", sorted(STEP_FAULTS))
    def test_step_fault_fails_exactly_these_checks(self, monkeypatch, clear_caches, fault):
        inject, failures = STEP_FAULTS[fault]
        assert self.failures_under(monkeypatch, clear_caches, inject) == failures

    @pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
    def test_kernel_fault_fails_exactly_these_checks(self, monkeypatch, clear_caches, fault):
        inject, failures = KERNEL_FAULTS[fault]
        assert self.failures_under(monkeypatch, clear_caches, inject) == failures

    @pytest.mark.parametrize("table, fault", [
        (None, None), *(("kernel", fault) for fault in sorted(KERNEL_FAULTS)),
        *(("step", fault) for fault in sorted(STEP_FAULTS)),
        *(("check", check) for check in sorted(FAULTS))])
    def test_the_round_trip_sweep_equals_its_two_sweeps(
            self, monkeypatch, clear_caches, table, fault):
        clear_caches()
        if table is not None:
            faults = {"kernel": KERNEL_FAULTS, "step": STEP_FAULTS, "check": FAULTS}[table]
            faults[fault][0](monkeypatch)
        fused = REGISTRY["thm_poset_matching_round_trip"][2](6)
        assert fused == two_sweep_round_trip(6)
        if table is None:
            assert fused == (True, None, None)

    @pytest.mark.parametrize("check, calls", [
        (REGISTRY["thm_poset_matching_round_trip"][2], (874, 874, 874)),
        (two_sweep_round_trip, (1748, 1748, 874))])
    def test_the_round_trip_runs_each_map_once_per_object(self, monkeypatch, check, calls):
        # 874 = 0! + 1! + ... + 6!, the posets or the matchings at n <= 6
        counts = Counter()

        def counted(name):
            kernel = getattr(verify, name)

            def call(x):
                counts[name] += 1
                return kernel(x)
            monkeypatch.setattr(verify, name, call)
        names = ("poset_to_matching", "matching_to_poset", "matching_to_table")
        for name in names:
            counted(name)
        assert check(6) == (True, None, None)
        assert tuple(counts[name] for name in names) == calls

    def test_every_check_fails_under_some_fault(self):
        swept = {**STEP_FAULTS, **KERNEL_FAULTS}.values()
        assert set(FAULTS).union(*(failures for _, failures in swept)) == set(REGISTRY)

    def test_a_domain_error_fails_its_check_and_the_run_goes_on(
            self, monkeypatch, clear_caches, capsys):
        clear_caches()
        monkeypatch.setattr(verify, "poset_to_matching", _crossfree_poset_to_matching)
        code = cli.main(["verify", "--all", "--json"])
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [report["check"] for report in reports] == list(REGISTRY)
        assert {report["check"] for report in reports if report["verdict"] == "fail"} == \
            set(KERNEL_FAULTS["poset_to_matching crossing-free"][1])

    @pytest.mark.parametrize("error", [UnknownCheck, UnknownClass, UnknownPredicate,
                                       UnknownStatistic])
    def test_a_lookup_error_propagates(self, error):
        def misnamed(n):
            raise error("misnamed")
        with pytest.raises(error):
            verify._facts(misnamed)(2)


class TestDataLayer:
    def test_cached_classes_equal_generated_streams(self, monkeypatch):
        # every (class, predicates) the registry reads
        read = set()
        cached = verify._objects

        def recording(class_name, n, predicates):
            read.add((class_name, predicates))
            return cached(class_name, n, predicates)

        monkeypatch.setattr(verify, "_objects", recording)
        _tally.cache_clear()                # so the tallied classes are read too
        run_all(2)
        monkeypatch.undo()
        assert "permutations" not in {class_name for class_name, _ in read}
        assert ("natural_posets", ("factorial", "condition_one")) in read
        assert ("natural_posets", ("factorial",)) in read
        assert ("matchings", ("no_left_nesting",)) in read
        for class_name, predicates in sorted(read):
            for n in range(6):
                assert _objects(class_name, n, predicates) == \
                    tuple(generate(class_name, n, predicates)), (class_name, predicates, n)

    def test_poset_counts_read_no_unfiltered_natural_posets(self, monkeypatch):
        # the classes come from the cut search, not filtered from every poset
        read = set()
        cached = verify._objects

        def recording(class_name, n, predicates):
            read.add((class_name, predicates))
            return cached(class_name, n, predicates)

        monkeypatch.setattr(verify, "_objects", recording)
        for check in ("thm_factorial_poset_count", "prop_condition_one_fishburn",
                      "prop_factorial_dually_factorial_catalan",
                      "cor_fishburn_class_agreement", "cor_catalan_class_agreement"):
            assert run_check(check, 5).verdict == "pass", check
        assert ("natural_posets", ("factorial",)) in read
        assert ("natural_posets", ()) not in read

    def test_permutation_tallies_equal_the_enumerated_ones(self):
        for names in [("p", "comp", "lmin"), ("p", "lmax", "des"), ("inv",), ("des",)]:
            for n in range(7):
                expected = Counter(map(statistics.stat_tuple("permutations", names),
                                       list(gen_permutations(n))))
                assert _tally("permutations", n, (), names) == expected, (names, n)

    def test_equidistributions_count_the_posets_and_enumerate_the_other_side(
            self, monkeypatch):
        # no factorial poset or permutation is built, and the inversion-table
        # walk is not read for the permutations, which the prefix walk counts;
        # nor is any class cached, as the tables of cor_eulerian stream
        # through ``tally``
        def unread(n):
            raise AssertionError("a poset or permutation stream was read")
            yield
        tabled = enumeration.table_tallies

        def refusing(class_name, names):
            if class_name == "permutations":
                raise AssertionError("the inversion-table walk was read")
            return tabled(class_name, names)
        monkeypatch.setitem(enumeration.GENERATORS, "factorial_posets", unread)
        monkeypatch.setitem(enumeration.GENERATORS, "permutations", unread)
        monkeypatch.setattr(enumeration, "table_tallies", refusing)
        read = set()
        cached = verify._objects

        def recording(class_name, n, predicates):
            read.add(class_name)
            return cached(class_name, n, predicates)
        monkeypatch.setattr(verify, "_objects", recording)
        _tally.cache_clear()
        try:
            for check in ("conj1_equidistribution", "conj2_equidistribution",
                          "cor_mahonian", "cor_eulerian"):
                assert run_check(check, 6).verdict == "pass", check
        finally:
            _tally.cache_clear()
        assert read == set()

    @pytest.mark.parametrize("class_name", sorted(enumeration.GENERATORS))
    def test_foreign_predicates_refused_as_by_generate(self, class_name):
        own = [name for name, (classes, _) in enumeration.PREDICATES.items()
               if class_name in classes]
        foreign = [name for name in enumeration.PREDICATES if name not in own]
        names = statistics.VOCABULARY.get(class_name, ())[-1:]
        assert foreign
        for name in foreign + ["no_such_predicate"]:
            # alone, and after a predicate of the class
            for predicates in [(name,)] + [(first, name) for first in own[:1]]:
                with pytest.raises(UnknownPredicate) as from_generate:
                    generate(class_name, 3, predicates)
                for refuse in (lambda: _objects(class_name, 3, predicates),
                               lambda: _tally(class_name, 3, predicates, names),
                               lambda: enumeration.tally(class_name, 3, predicates, names)):
                    with pytest.raises(UnknownPredicate) as refused:
                        refuse()
                    assert str(refused.value) == str(from_generate.value)

    def test_eulerian_tallies_each_table_once(self, monkeypatch):
        calls = Counter()
        stat_tuple = enumeration.stat_tuple

        def counting(class_name, names):
            tuple_of = stat_tuple(class_name, names)
            if class_name != "inversion_tables":
                return tuple_of

            def counted(w):
                calls[len(w)] += 1
                return tuple_of(w)
            return counted

        monkeypatch.setattr(enumeration, "stat_tuple", counting)
        _objects.cache_clear()
        _tally.cache_clear()
        try:
            report = run_check("cor_eulerian", 6)
        finally:
            _objects.cache_clear()
            _tally.cache_clear()
        assert report.verdict == "pass"
        assert calls == {n: math.factorial(n) for n in range(7)}

    def test_poset_relation_is_not_kept(self):
        p = table_to_poset((0, 1, 0, 2))
        assert p.less == frozenset({(1, 2), (1, 4), (2, 4)})
        assert not hasattr(p, "__dict__")
        assert "less" not in type(p).__slots__


def set_based_table_bijection(class_name, predicate, forward, backward, what, image_what):
    """The table-bijection fact as it was when it kept every image: the
    oracle for the witnesses of ``verify._bijection`` on tables."""
    test = enumeration.PREDICATES[predicate][1]
    singular = verify.jsonio.SINGULAR[class_name]

    def fact(n):
        filtered = verify._objects(class_name, n, (predicate,))
        expected = math.factorial(n)
        if len(filtered) != expected:
            return verify._count_witness(n, what, expected, len(filtered))
        images = []
        for w in verify._objects("inversion_tables", n, ()):
            x = forward(w)
            if not test(x) or backward(x) != w:
                return {"n": n, "table": list(w), **verify._obj(singular, x)}
            images.append(x)
        if len(set(images)) != expected or set(images) != set(filtered):
            return verify._count_witness(n, image_what, expected, len(set(images)))
    return fact


TABLE_BIJECTIONS = {
    "matchings": ("no_left_nesting", table_to_matching, matching_to_table),
    "natural_posets": ("factorial", table_to_poset, poset_to_table),
}


class TestTableBijectionWitnesses:
    """Faults put in by hand give the witness the set-based fact gave."""

    @staticmethod
    def witnesses(class_name, forward, backward):
        predicate = TABLE_BIJECTIONS[class_name][0]
        new = verify._bijection(("inversion_tables",), forward, backward, class_name,
                                predicate, "members", "images")
        old = set_based_table_bijection(class_name, predicate, forward, backward,
                                        "members", "images")
        return [new(n) for n in range(6)], [old(n) for n in range(6)]

    @pytest.mark.parametrize("class_name", sorted(TABLE_BIJECTIONS))
    def test_sound_bijection_has_no_witness(self, class_name):
        _, forward, backward = TABLE_BIJECTIONS[class_name]
        new, old = self.witnesses(class_name, forward, backward)
        assert new == old == [None] * 6

    @pytest.mark.parametrize("class_name", sorted(TABLE_BIJECTIONS))
    def test_two_tables_sent_to_one_image(self, class_name):
        # the all-zero table and the one ending in 1 share an image, and the
        # inverse answers with the table just mapped, so only the count
        # of distinct images can tell
        _, forward, _ = TABLE_BIJECTIONS[class_name]
        last = []

        def merging(w):
            last[:] = [w]
            return forward((0,) * len(w) if w[-1:] == (1,) and not any(w[:-1]) else w)

        new, old = self.witnesses(class_name, merging, lambda x: last[0])
        assert new == old
        assert new[2] == {"n": 2, "counted": "images", "expected": 2, "actual": 1}

    @pytest.mark.parametrize("replacement", ["duplicate", "stranger"])
    @pytest.mark.parametrize("class_name", sorted(TABLE_BIJECTIONS))
    def test_cached_class_missing_a_member(self, monkeypatch, class_name, replacement):
        # the cached class keeps its size but loses its last member, to a
        # second copy of its first or to an object outside the class
        predicate, forward, backward = TABLE_BIJECTIONS[class_name]
        cached = verify._objects
        strangers = {"matchings": Matching.from_pairs([(1, 4), (2, 3), (5, 6)]),
                     "natural_posets": Poset.from_relations(3, [(2, 3)])}

        def missing(name, n, predicates):
            objects = cached(name, n, predicates)
            if predicates != (predicate,) or n < 3:
                return objects
            stand_in = objects[0] if replacement == "duplicate" else strangers[name]
            return objects[:-1] + (stand_in,)

        monkeypatch.setattr(verify, "_objects", missing)
        new, old = self.witnesses(class_name, forward, backward)
        assert new == old
        assert new[:4] == [None, None, None,
                           {"n": 3, "counted": "images", "expected": 6, "actual": 6}]


class TestMatrixBijectionWitnesses:
    def test_witness_keeps_the_matrix_and_the_matching(self):
        # the no-neighbor-crossing preimage of [[2]] nests, so it lies
        # outside the class the fact is asked about
        fact = verify._bijection(("matrices",), matrix_to_matching_no_neighbor_crossing,
                                 matching_to_matrix, "matchings", "no_neighbor_nesting",
                                 "members", "images")
        assert [fact(n) for n in range(2)] == [None, None]
        witness = fact(2)
        assert witness == {"n": 2, "matrix": {"k": 1, "rows": [[2]]},
                           "class": "matching", "object": {"n": 2, "arcs": [[2, 3], [1, 4]]}}
        t = jsonio.decode("matrix", witness["matrix"])
        m = jsonio.decode("matching", witness["object"])
        assert t.rows == ((2,),) and matching_to_matrix(m) == t
        assert not enumeration.PREDICATES["no_neighbor_nesting"][1](m)
