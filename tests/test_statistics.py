from collections import Counter

import pytest

from fishburn import (
    VOCABULARY,
    NotFactorial,
    Poset,
    UnknownStatistic,
    count_pattern_p,
    matching_stats,
    perm_stats,
    poset_stats,
    stats_for,
    table_stats,
    table_to_matching,
    validate_matching,
)
from fishburn.enumeration import (
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_permutations,
)

# every class with statistics, with a generator of valid objects for it
STAT_CLASS_OBJECTS = {
    "matchings": gen_matchings,
    "permutations": gen_permutations,
    "factorial_posets": gen_factorial_posets,
    "natural_posets": gen_factorial_posets,
    "inversion_tables": gen_inversion_tables,
}

# the key order of each full record, as `fishburn stats` prints it
RECORD_KEYS = {
    "matchings": ("comp", "min", "last", "inter", "emb",
                  "ne", "cr", "lne", "rne", "lcr", "rcr"),
    "permutations": ("comp", "asc", "des", "inv", "lmin", "lmax", "rmin", "rmax",
                     "dent", "last", "p"),
    "factorial_posets": ("comp", "min", "pre_n", "lev", "ip", "rne_poset"),
    "natural_posets": ("comp", "min", "pre_n", "lev", "ip", "rne_poset"),
    "inversion_tables": ("dent",),
}


class TestPatternP:
    def test_six_letter_example(self):
        assert count_pattern_p((3, 5, 1, 4, 2, 6)) == 1

    def test_increasing(self):
        assert count_pattern_p((1, 2, 3, 4, 5)) == 0

    def test_avoiders_in_s3(self):
        avoiders = [pi for pi in gen_permutations(3) if count_pattern_p(pi) == 0]
        assert len(avoiders) == 5

    def test_empty(self):
        assert count_pattern_p(()) == 0


class TestPermStats:
    def test_identity(self):
        rec = perm_stats((1, 2, 3))
        assert rec["inv"] == 0
        assert rec["des"] == 0
        assert rec["comp"] == 3
        assert rec["dent"] == 3
        assert rec["p"] == 0

    def test_reverse(self):
        rec = perm_stats((3, 2, 1))
        assert rec["inv"] == 3
        assert rec["lmin"] == 3
        assert rec["comp"] == 1
        assert rec["dent"] == 1

    def test_last_is_position_of_top(self):
        assert perm_stats((2, 3, 1))["last"] == 1
        assert perm_stats((3, 1, 2))["last"] == 0

    def test_minmax_statistics(self):
        rec = perm_stats((2, 4, 1, 3))
        assert rec["lmin"] == 2     # 2, 1
        assert rec["lmax"] == 2     # 2, 4
        assert rec["rmin"] == 2     # 3, 1
        assert rec["rmax"] == 2     # 3, 4

    def test_empty(self):
        rec = perm_stats(())
        assert rec["comp"] == 0 and rec["last"] == 0 and rec["dent"] == 0


class TestPosetStats:
    def test_chain(self):
        p = Poset.from_relations(3, [(1, 2), (2, 3)])
        rec = poset_stats(p)
        assert (rec["comp"], rec["min"], rec["pre_n"], rec["lev"], rec["ip"]) \
            == (3, 1, 2, 3, 0)

    def test_antichain(self):
        p = Poset.from_relations(3, [])
        rec = poset_stats(p)
        assert (rec["comp"], rec["min"], rec["pre_n"], rec["lev"], rec["ip"]) \
            == (1, 3, 0, 1, 3)

    def test_single_relation(self):
        p = Poset.from_relations(3, [(1, 3)])
        rec = poset_stats(p)
        assert rec["ip"] == 2
        assert rec["lev"] == 2

    def test_requires_factorial(self):
        with pytest.raises(NotFactorial):
            poset_stats(Poset.from_relations(3, [(2, 3)]))

    def test_empty(self):
        rec = poset_stats(Poset.from_relations(0, []))
        assert rec == {"comp": 0, "min": 0, "pre_n": 0, "lev": 0, "ip": 0,
                       "rne_poset": 0}


class TestMatchingStats:
    def test_two_components(self):
        rec = matching_stats(validate_matching([(1, 2), (3, 5), (4, 6)]))
        assert rec["comp"] == 2
        assert rec["min"] == 1

    def test_embraced_closers(self):
        rec = matching_stats(validate_matching([(1, 4), (2, 5), (3, 6)]))
        assert rec["emb"] == 3

    def test_disjoint(self):
        rec = matching_stats(validate_matching([(1, 2), (3, 4), (5, 6)]))
        assert (rec["comp"], rec["inter"], rec["emb"], rec["last"]) == (3, 3, 0, 2)

    def test_empty(self):
        rec = matching_stats(validate_matching([]))
        assert rec["comp"] == 0 and rec["min"] == 0 and rec["inter"] == 0


class TestTripleEquality:
    @pytest.mark.parametrize("n", range(5))
    def test_quintuples_match(self, n):
        from fishburn import table_to_permutation, table_to_poset

        for w in gen_inversion_tables(n):
            ps = poset_stats(table_to_poset(w))
            pes = perm_stats(table_to_permutation(w))
            ms = matching_stats(table_to_matching(w))
            assert (ps["comp"], ps["min"], ps["pre_n"], ps["lev"], ps["ip"]) == \
                   (pes["comp"], pes["lmin"], pes["last"], pes["dent"], pes["inv"]) == \
                   (ms["comp"], ms["min"], ms["last"], ms["inter"], ms["emb"])
            assert ps["min"] == sum(1 for a in w if a == 0)
            assert ps["ip"] == n * (n - 1) // 2 - sum(w)


class TestDistributionFacts:
    def test_inversions_are_mahonian_at_3(self):
        dist = Counter(perm_stats(pi)["inv"] for pi in gen_permutations(3))
        assert dist == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_embraced_matches_inversions_at_3(self):
        dist = Counter(
            matching_stats(table_to_matching(w))["emb"]
            for w in gen_inversion_tables(3)
        )
        assert dist == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_levels_are_eulerian_at_3(self):
        from fishburn import table_to_poset

        dist = Counter(
            poset_stats(table_to_poset(w))["lev"] for w in gen_inversion_tables(3)
        )
        assert dist == {1: 1, 2: 4, 3: 1}


class TestStatsFor:
    def test_selection(self):
        assert stats_for("permutations", (3, 5, 1, 4, 2, 6), ["p"]) == {"p": 1}

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatistic):
            stats_for("permutations", (1, 2), ["lne"])
        with pytest.raises(UnknownStatistic):
            stats_for("widgets", (1, 2))

    def test_table_stats(self):
        assert table_stats((0, 1, 1)) == {"dent": 2}
        assert table_stats(()) == {"dent": 0}

    def test_vocabulary_is_the_record_key_order(self):
        assert VOCABULARY == RECORD_KEYS
        assert set(STAT_CLASS_OBJECTS) == set(VOCABULARY)

    @pytest.mark.parametrize("class_name", sorted(STAT_CLASS_OBJECTS))
    def test_single_names_agree_with_full_record(self, class_name):
        for n in range(6):
            for obj in STAT_CLASS_OBJECTS[class_name](n):
                record = stats_for(class_name, obj)
                assert tuple(record) == VOCABULARY[class_name]
                for name in VOCABULARY[class_name]:
                    assert stats_for(class_name, obj, [name]) == {name: record[name]}

    @pytest.mark.parametrize("class_name", sorted(STAT_CLASS_OBJECTS))
    def test_unknown_name_in_every_class(self, class_name):
        obj = next(iter(STAT_CLASS_OBJECTS[class_name](3)))
        with pytest.raises(UnknownStatistic):
            stats_for(class_name, obj, ["no_such_statistic"])

    @pytest.mark.parametrize("class_name", ["factorial_posets", "natural_posets"])
    def test_non_factorial_poset_raises_for_each_name(self, class_name):
        p = Poset.from_relations(3, [(2, 3)])
        for name in VOCABULARY[class_name]:
            with pytest.raises(NotFactorial):
                stats_for(class_name, p, [name])
        with pytest.raises(NotFactorial):
            stats_for(class_name, p, [])

    def test_requested_order_and_repeats(self):
        pi = (2, 4, 1, 3)
        assert list(stats_for("permutations", pi, ["rmax", "inv", "lmin"])) == \
            ["rmax", "inv", "lmin"]
        assert stats_for("permutations", pi, ["inv", "inv"]) == {"inv": 3}
