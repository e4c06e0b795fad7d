import json
import math
from collections import Counter
from pathlib import Path

import pytest

from fishburn import (
    REGISTRY,
    UnknownCheck,
    check_equidistribution,
    run_all,
    run_check,
    table_to_poset,
)
from fishburn import enumeration, verify
from fishburn.enumeration import (
    MATCHING_RULES,
    gen_factorial_posets,
    gen_permutations,
    generate,
)
from fishburn.verify import _objects, _tally


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


class TestEquidistribution:
    def test_matching_distributions_pass(self):
        report = check_equidistribution([
            ("factorial_posets", gen_factorial_posets(3), ("ip",)),
            ("permutations", gen_permutations(3), ("inv",)),
        ])
        assert report.verdict == "pass"

    def test_differing_distributions_fail_with_witness(self):
        report = check_equidistribution([
            ("permutations", gen_permutations(3), ("inv",)),
            ("permutations", gen_permutations(3), ("des",)),
        ])
        assert report.verdict == "fail"
        assert report.witness == {"tuple": [1], "counts": [2, 4]}

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            check_equidistribution([
                ("permutations", gen_permutations(2), ("inv", "des")),
                ("permutations", gen_permutations(2), ("inv",)),
            ])

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            check_equidistribution([
                ("permutations", gen_permutations(2), ("inv",)),
            ])


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
            "cor_catalan_matrix_images": {"n": 4, "image_sets_match_predicates": False},
            "prop_descent_correcting_fishburn": {"n": 3, "table": [0, 1, 0]},
            "prop_factorial_dually_factorial_catalan": {
                "n": 3, "class": "poset", "object": {"n": 3, "less": [[1, 2]]}},
            "cor_fishburn_class_agreement": {
                "n": 3, "counted": "no_neighbor_nesting_matchings",
                "expected": 5, "actual": 6},
            "cor_catalan_class_agreement": {
                "n": 2, "counted": "non_nesting_matchings", "expected": 2, "actual": 3},
        }

    def test_witness_is_minimal_and_serializable(self):
        # break a check by comparing against a deliberately wrong oracle
        from fishburn.verify import _first_difference
        from collections import Counter

        diff = _first_difference([Counter({(0,): 1, (2,): 3}), Counter({(0,): 1, (2,): 4})])
        assert diff == {"tuple": [2], "counts": [3, 4]}
        json.dumps(diff)


class TestDataLayer:
    def test_cached_classes_equal_generated_streams(self, monkeypatch):
        # every (class, predicates) the registry reads, prefixes included
        read = set()
        cached = verify._objects

        def recording(class_name, n, predicates):
            read.add((class_name, predicates))
            return cached(class_name, n, predicates)

        monkeypatch.setattr(verify, "_objects", recording)
        _tally.cache_clear()                # so the tallied classes are read too
        run_all(2)
        monkeypatch.undo()
        assert ("permutations", ()) in read
        assert ("natural_posets", ("factorial", "condition_one")) in read
        assert ("natural_posets", ("factorial",)) in read
        assert ("matchings", ("no_left_nesting",)) in read
        for class_name, predicates in sorted(read):
            for n in range(6):
                assert _objects(class_name, n, predicates) == \
                    tuple(generate(class_name, n, predicates)), (class_name, predicates, n)

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
        assert "less" not in vars(p)
