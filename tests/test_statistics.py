import random
from collections import Counter

import pytest

from fishburn import (
    VOCABULARY,
    Matching,
    NotFactorial,
    Poset,
    UnknownStatistic,
    count_pattern_p,
    distribution,
    matching_stats,
    perm_stats,
    poset_stats,
    relabel_poset,
    rne_poset,
    stat_tuple,
    stats_for,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
)
from fishburn.enumeration import (
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_natural_posets,
    gen_permutations,
    generate,
)
from fishburn.objects import is_factorial
from fishburn.statistics import PASSES
from helpers import (
    count_pattern_p_by_dict,
    is_factorial_by_counts,
    min_by_scan,
    naive_counts,
    opener_intervals_by_index,
    opener_positions,
    pairwise_asc_des,
    pairwise_incomparable,
    quadratic_emb,
    quadratic_inv,
    quadratic_neighbor_counts,
    random_tables,
    rne_poset_by_successors,
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

    def test_letter_above_n_raises(self):
        # the letters must be 1..n: positions are a list indexed by letter
        with pytest.raises(IndexError):
            count_pattern_p((3, 1))


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

    def test_letters_outside_one_to_n_are_not_a_domain(self):
        # unchecked input: a negative letter fails in the inv pass, a letter
        # above n in the p pass, a missing n in the last pass
        inv = stat_tuple("permutations", ("inv",))
        with pytest.raises(ValueError, match="negative shift count"):
            inv((-1, 2))
        with pytest.raises(ValueError, match="negative shift count"):
            perm_stats((-1, 2))
        with pytest.raises(IndexError):
            perm_stats((2, 5, 1))
        with pytest.raises(ValueError):
            perm_stats((0, 1))


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
        rec = matching_stats(Matching.from_pairs([(1, 2), (3, 5), (4, 6)]))
        assert rec["comp"] == 2
        assert rec["min"] == 1

    def test_embraced_closers(self):
        rec = matching_stats(Matching.from_pairs([(1, 4), (2, 5), (3, 6)]))
        assert rec["emb"] == 3

    def test_disjoint(self):
        rec = matching_stats(Matching.from_pairs([(1, 2), (3, 4), (5, 6)]))
        assert (rec["comp"], rec["inter"], rec["emb"], rec["last"]) == (3, 3, 0, 2)

    def test_empty(self):
        rec = matching_stats(Matching.from_pairs([]))
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
        assert stats_for("inversion_tables", (0, 1, 1)) == {"dent": 2}
        assert stats_for("inversion_tables", ()) == {"dent": 0}

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


def random_permutations(seed, count=25):
    """Seeded permutations of lengths 20 to 60."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pi = list(range(1, rng.randint(20, 60) + 1))
        rng.shuffle(pi)
        out.append(tuple(pi))
    return out


def random_matchings(seed, count=25):
    """Seeded matchings of [2n], n from 20 to 60: shuffled points paired off."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points = list(range(1, 2 * rng.randint(20, 60) + 1))
        rng.shuffle(points)
        out.append(Matching.from_pairs(zip(points[::2], points[1::2])))
    return out


def random_natural_posets(seed, count=25):
    """Seeded naturally labelled posets on [n], n from 20 to 60: the closure
    of random pairs i < j, sparse enough to leave neighbours with equal
    successor sets."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(20, 60)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 2 / n]
        out.append(Poset.from_relations(n, pairs))
    return out


def large_permutations(seed, count=10, n=200):
    """Seeded permutations of length 200."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]


def large_table_posets(seed, count=10, n=40):
    """Seeded factorial posets on 40 elements from their inversion tables,
    each followed by a seeded relabeling of it, which is rarely factorial."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = table_to_poset([rng.randint(0, i) for i in range(n)])
        out += [p, relabel_poset(p, rng.sample(range(1, n + 1), n))]
    return out


def assert_permutation_kernels(pi):
    assert stat_tuple("permutations", ("asc", "des"))(pi) == pairwise_asc_des(pi), pi
    assert stat_tuple("permutations", ("inv",))(pi) == (quadratic_inv(pi),), pi
    assert count_pattern_p(pi) == count_pattern_p_by_dict(pi), pi
    assert stat_tuple("permutations", ("p",))(pi) == (count_pattern_p_by_dict(pi),), pi


def assert_poset_kernels(p):
    """The factorial test and guard against the old formula; on a factorial
    poset, min, ip and rne_poset against their oracles."""
    factorial = is_factorial_by_counts(p)
    assert is_factorial(p) == factorial, p.pre_masks
    if not factorial:
        with pytest.raises(NotFactorial):
            stat_tuple("natural_posets", ("min",))(p)
        return
    assert stat_tuple("natural_posets", ("min", "ip", "rne_poset"))(p) == (
        min_by_scan(p), pairwise_incomparable(p), rne_poset_by_successors(p)), p.pre_masks


def matching_kernels(m):
    emb, lne, rne, lcr, rcr = stat_tuple("matchings", ("emb", "lne", "rne", "lcr", "rcr"))(m)
    return emb, (lne, rne, lcr, rcr)


class TestKernelsAgainstOracles:
    """The statistic kernels and the factorial test against the bodies they
    replaced, kept in helpers: exhaustively at small n (n = 0 and 1
    included), on the natural posets with n <= 6, and on seeded objects with
    n = 20-60, permutations with n = 200 and posets with n = 40."""

    def test_inv_on_every_small_permutation(self):
        inv = stat_tuple("permutations", ("inv",))
        for n in range(9):
            for pi in gen_permutations(n):
                assert inv(pi) == (quadratic_inv(pi),), pi

    def test_ascents_descents_and_inversions_in_one_pass(self):
        one_pass = stat_tuple("permutations", ("asc", "des", "inv"))
        for n in range(8):
            for pi in gen_permutations(n):
                assert one_pass(pi) == pairwise_asc_des(pi) + (quadratic_inv(pi),), pi

    def test_inv_on_random_permutations(self):
        inv = stat_tuple("permutations", ("inv",))
        for pi in random_permutations(20110):
            assert inv(pi) == (quadratic_inv(pi),), pi

    @pytest.mark.parametrize("n", range(7))
    def test_matching_kernels_on_every_small_matching(self, n):
        for m in gen_matchings(n):
            emb, neighbors = matching_kernels(m)
            assert emb == quadratic_emb(m.arcs), m.arcs
            assert neighbors == quadratic_neighbor_counts(m.arcs), m.arcs
            record = naive_counts(m.arcs)
            assert neighbors == tuple(record[k] for k in ("lne", "rne", "lcr", "rcr"))

    def test_matching_kernels_on_random_matchings(self):
        seen = Counter()
        for m in random_matchings(20111):
            emb, neighbors = matching_kernels(m)
            assert emb == quadratic_emb(m.arcs), m.arcs
            assert neighbors == quadratic_neighbor_counts(m.arcs), m.arcs
            seen.update(k for k, v in zip(("lne", "rne", "lcr", "rcr"), neighbors) if v)
        assert set(seen) == {"lne", "rne", "lcr", "rcr"}

    @pytest.mark.parametrize("n", range(7))
    def test_rne_poset_on_every_small_natural_poset(self, n):
        for p in gen_natural_posets(n):
            assert rne_poset(p) == rne_poset_by_successors(p), p.pre_masks

    def test_rne_poset_on_random_posets(self):
        posets = random_natural_posets(20112)
        posets += [table_to_poset(w) for w in random_tables(20113)]
        values = [rne_poset(p) for p in posets]
        assert values == [rne_poset_by_successors(p) for p in posets]
        assert any(values)

    def test_quintuples_match_on_random_tables(self):
        # prop_triple_statistics, object by object, beyond the exhaustive range
        poset_tuple = stat_tuple("factorial_posets", ("comp", "min", "pre_n", "lev", "ip"))
        perm_tuple = stat_tuple("permutations", ("comp", "lmin", "last", "dent", "inv"))
        matching_tuple = stat_tuple("matchings", ("comp", "min", "last", "inter", "emb"))
        for w in random_tables(20114):
            n = len(w)
            t = poset_tuple(table_to_poset(w))
            assert t == perm_tuple(table_to_permutation(w)) == \
                matching_tuple(table_to_matching(w)), w
            assert t[1] == w.count(0)
            assert t[4] == n * (n - 1) // 2 - sum(w)

    def test_permutation_kernels_on_every_small_permutation(self):
        for n in range(8):
            for pi in gen_permutations(n):
                assert_permutation_kernels(pi)

    def test_permutation_kernels_on_large_permutations(self):
        perms = large_permutations(20161)
        for pi in perms:
            assert_permutation_kernels(pi)
        assert all(count_pattern_p(pi) for pi in perms)

    def test_poset_kernels_on_every_small_factorial_poset(self):
        for n in range(8):
            for p in gen_factorial_posets(n):
                assert_poset_kernels(p)

    @pytest.mark.parametrize("n", range(7))
    def test_guard_on_every_small_natural_poset(self, n):
        posets = list(gen_natural_posets(n))
        for p in posets:
            assert_poset_kernels(p)
        # the factorial filter keeps exactly the posets of the old formula
        assert list(generate("natural_posets", n, ("factorial",))) == \
            [p for p in posets if is_factorial_by_counts(p)]

    def test_poset_kernels_on_large_posets(self):
        posets = large_table_posets(20162)
        for p in posets:
            assert_poset_kernels(p)
        assert {is_factorial(p) for p in posets} == {True, False}

    @pytest.mark.parametrize("n", range(7))
    def test_opener_intervals_on_every_small_matching(self, n):
        inter = stat_tuple("matchings", ("inter",))
        for m in gen_matchings(n):
            assert inter(m) == (opener_intervals_by_index(opener_positions(m)),), m.arcs

    def test_opener_intervals_on_table_and_random_matchings(self):
        inter = stat_tuple("matchings", ("inter",))
        matchings = [table_to_matching(w) for w in gen_inversion_tables(7)]
        for m in matchings + random_matchings(20163):
            assert inter(m) == (opener_intervals_by_index(opener_positions(m)),), m.arcs


class TestStatTuple:
    @pytest.mark.parametrize("class_name", sorted(STAT_CLASS_OBJECTS))
    def test_distribution_equals_tally_of_full_records(self, class_name):
        vocabulary = VOCABULARY[class_name]
        requests = [tuple(reversed(vocabulary)),
                    (vocabulary[-1], vocabulary[0], vocabulary[-1]),
                    (vocabulary[0],) * 2]
        requests += [(name,) for name in vocabulary]
        for n in range(6):
            records = [stats_for(class_name, obj) for obj in STAT_CLASS_OBJECTS[class_name](n)]
            for names in requests:
                table = distribution(STAT_CLASS_OBJECTS[class_name](n), class_name, names)
                assert table.stat_names == names
                assert table.rows == Counter(
                    tuple(record[name] for name in names) for record in records), names

    @pytest.mark.parametrize("class_name", sorted(STAT_CLASS_OBJECTS))
    def test_every_number_of_passes(self, class_name):
        # the first name of each of the first k passes, in pass order and
        # reversed, for each k: no pass, one pass returned itself, more
        # through the loop, with and without a reordering of the values
        firsts = [names[0] for names, _ in PASSES[class_name] if names]
        for k in range(len(firsts) + 1):
            for names in (tuple(firsts[:k]), tuple(reversed(firsts[:k]))):
                compiled = stat_tuple(class_name, names)
                for n in range(5):
                    for obj in STAT_CLASS_OBJECTS[class_name](n):
                        record = stats_for(class_name, obj)
                        assert compiled(obj) == tuple(record[name] for name in names)

    def test_compiled_once_per_class_and_names(self):
        assert stat_tuple("permutations", ["des", "inv"]) is \
            stat_tuple("permutations", ("des", "inv"))
        assert stat_tuple("permutations", ("inv", "des")) is not \
            stat_tuple("permutations", ("des", "inv"))

    def test_unknown_class_before_unknown_name(self):
        with pytest.raises(UnknownStatistic, match="no statistics defined"):
            stat_tuple("widgets", ("no_such_statistic",))
        with pytest.raises(UnknownStatistic, match="'lne' is not"):
            stat_tuple("permutations", ("inv", "lne", "bogus"))
        with pytest.raises(UnknownStatistic, match="'lne' is not"):
            distribution([], "permutations", ["lne"])

    def test_class_check_runs_with_no_names(self):
        with pytest.raises(NotFactorial):
            stat_tuple("factorial_posets", ())(Poset.from_relations(3, [(2, 3)]))
        assert stat_tuple("factorial_posets", ())(Poset.from_relations(3, [])) == ()
