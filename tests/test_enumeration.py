import functools
import itertools
import math
import random
from collections import Counter
from operator import itemgetter

import pytest

from fishburn import (
    UnknownClass,
    UnknownPredicate,
    UnknownStatistic,
    catalan,
    distribution,
    double_factorial,
    eulerian_triangle_row,
    filter_class,
    fishburn_numbers,
    gen_ascent_sequences,
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    gen_permutations,
    generate,
    matching_to_matrix,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    run_check,
    second_order_eulerian,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_poset,
    zero_one_matrix_to_matching,
)
from fishburn import enumeration, objects
from fishburn.enumeration import (
    GENERATORS,
    MATCHING_RULES,
    POSET_CUTS,
    PREDICATES,
    RULE_TESTS,
    STEP_TESTS,
    _closer_order,
    PREFIX_READINGS,
    merged_tallies,
    prefix_tallies,
    table_tallies,
    tally,
)
from fishburn.objects import Matching, Poset, TriangularMatrix, is_factorial
from fishburn.statistics import perm_stats, stat_tuple

from helpers import (
    CATALAN,
    COUNTED_NAMES,
    COUNTED_PERMUTATION_NAMES,
    ENUMERATED_NAMES,
    ENUMERATED_PERMUTATION_NAMES,
    FISHBURN,
    NATURAL_POSET_COUNTS,
    NO_LEFT_NESTING_N3,
    ODD_DOUBLE_FACTORIAL,
    PREFIX_PERMUTATION_NAMES,
    ROUTE_FILTERS,
    T3_ROWS,
    left_inversion_table,
    naive_counts,
    naive_matrices,
    naive_natural_posets_by_filter,
    naive_sorted_matchings,
    q_factorial,
    random_matrices,
    subset_scan_natural_posets,
)


def lne_tally(n, counter=None):
    """The tally of left-nestings over the matchings of [2n], by ``counter``
    (a ``merged_tallies((), ("lne",))``), else by a counter of its own."""
    counter = counter or merged_tallies((), ("lne",))
    return {lnes: count for (lnes,), count in counter(n).items()}


MATCHING_PREDICATES = [name for name, (classes, _) in PREDICATES.items()
                       if "matchings" in classes]
POSET_PREDICATES = [name for name, (classes, _) in PREDICATES.items()
                    if "natural_posets" in classes]


@pytest.fixture(scope="module")
def oracle():
    """naive_sorted_matchings(n), each n built once for the whole module."""
    return functools.lru_cache(maxsize=None)(naive_sorted_matchings)


class TestGenerators:
    @pytest.mark.parametrize("n", range(6))
    def test_matching_counts(self, n):
        ms = list(gen_matchings(n))
        assert len(ms) == ODD_DOUBLE_FACTORIAL[n]
        assert len(set(ms)) == len(ms)

    def test_matchings_sorted_lexicographically(self):
        arcs = [m.arcs for m in gen_matchings(4)]
        assert arcs == sorted(arcs)

    def test_empty_matching(self):
        assert [m.arcs for m in gen_matchings(0)] == [()]

    @pytest.mark.parametrize("n", range(6))
    def test_table_and_permutation_counts(self, n):
        assert sum(1 for _ in gen_inversion_tables(n)) == math.factorial(n)
        assert sum(1 for _ in gen_permutations(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(6))
    def test_factorial_posets(self, n):
        posets = list(gen_factorial_posets(n))
        assert len(posets) == math.factorial(n)
        assert len(set(posets)) == len(posets)
        assert all(is_factorial(p) for p in posets)

    @pytest.mark.parametrize("n", range(7))
    def test_natural_poset_counts(self, n):
        assert sum(1 for _ in gen_natural_posets(n)) == NATURAL_POSET_COUNTS[n]

    @pytest.mark.parametrize("n", range(8))
    def test_natural_posets_equal_the_subset_scan_in_order(self, n):
        # the carried down-set lists give the stream of the 2^k subset scan
        assert [p.pre_masks for p in gen_natural_posets(n)] == \
            [p.pre_masks for p in subset_scan_natural_posets(n)]

    @pytest.mark.parametrize("n", range(5))
    def test_natural_posets_against_filter_oracle(self, n):
        ours = {p.less for p in gen_natural_posets(n)}
        assert ours == set(naive_natural_posets_by_filter(n))

    @pytest.mark.parametrize("n", range(6))
    def test_matrix_counts_follow_fishburn(self, n):
        ts = list(gen_matrices(n))
        assert len(ts) == FISHBURN[n]
        assert len(set(ts)) == len(ts)

    @pytest.mark.parametrize("n", range(7))
    def test_matrices_match_rejection_oracle_in_order(self, n):
        assert [t.rows for t in gen_matrices(n)] == list(naive_matrices(n))

    @pytest.mark.parametrize("n", range(10))
    def test_pruned_matrix_counts_to_nine(self, n):
        assert sum(1 for _ in gen_matrices(n)) == FISHBURN[n]

    @pytest.mark.parametrize("n", range(8))
    def test_matrices_revalidate(self, n):
        for t in gen_matrices(n):
            assert TriangularMatrix.from_rows(t.rows) == t

    def test_t3_exactly(self):
        assert {t.rows for t in gen_matrices(3)} == T3_ROWS

    def test_matrix_structure(self):
        for t in gen_matrices(4):
            assert all(v == 0 for i, row in enumerate(t.rows)
                       for j, v in enumerate(row) if j < i)
            assert all(any(row) for row in t.rows)
            assert t.total == 4

    @pytest.mark.parametrize("n", range(8))
    def test_ascent_sequence_counts(self, n):
        assert sum(1 for _ in gen_ascent_sequences(n)) == FISHBURN[n]

    def test_ascent_sequences_n3(self):
        assert list(gen_ascent_sequences(3)) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_determinism(self):
        for name in ("matchings", "matrices", "natural_posets", "ascent_sequences"):
            assert list(generate(name, 4)) == list(generate(name, 4))

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            generate("widgets", 3)

    @pytest.mark.parametrize("name, n", [
        ("natural_posets", -1), ("permutations", -1), ("matchings", -2),
        ("inversion_tables", True), ("matrices", 2.0)])
    def test_size_must_be_a_nonnegative_integer(self, name, n):
        # refused when called, before any object is generated
        with pytest.raises(ValueError):
            generate(name, n)

    @pytest.mark.parametrize("gen, n", [
        (gen_permutations, -1), (gen_inversion_tables, -1),
        (gen_factorial_posets, -1), (gen_matchings, -2), (gen_matchings, True),
        (gen_natural_posets, -1), (gen_ascent_sequences, -1), (gen_matrices, -1),
        (merged_tallies((), ("lne",)), -1)])
    def test_generators_refuse_bad_sizes_when_called(self, gen, n):
        # these once yielded an empty object, ((1, 2),) for True, or died
        # in RecursionError
        with pytest.raises(ValueError):
            gen(n)


class TestCloserOrderSearch:
    @pytest.mark.parametrize("n", range(8))
    def test_rule_free_stream_equals_oracle_in_order(self, oracle, n):
        assert [m.arcs for m in gen_matchings(n)] == [m.arcs for m in oracle(n)]

    def test_rule_table_covers_the_matching_predicates(self):
        assert set(MATCHING_RULES) == set(MATCHING_PREDICATES)
        assert all(MATCHING_RULES.values())

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("name", MATCHING_PREDICATES)
    def test_pruned_stream_equals_filter_in_order(self, oracle, name, n):
        expected = [m.arcs for m in filter_class(oracle(n), name)]
        # the rules alone, and the stream that re-checks them by predicate
        assert [m.arcs for m in gen_matchings(n, MATCHING_RULES[name])] == expected
        assert [m.arcs for m in generate("matchings", n, [name])] == expected

    @pytest.mark.parametrize("name", ["no_left_nesting", "no_2_left_nesting"])
    def test_pruned_stream_equals_filter_in_order_n7(self, oracle, name):
        expected = [m.arcs for m in filter_class(oracle(7), name)]
        assert [m.arcs for m in gen_matchings(7, MATCHING_RULES[name])] == expected

    @pytest.mark.parametrize("n", range(6))
    def test_predicates_combine_like_filters(self, oracle, n):
        names = ["no_left_nesting", "no_right_crossing", "no_2_left_nesting"]
        expected = oracle(n)
        for name in names:
            expected = list(filter_class(expected, name))
        assert list(generate("matchings", n, names)) == expected

    @pytest.mark.parametrize("n", range(8))
    def test_left_nesting_tally_equals_naive_counts(self, oracle, n):
        assert lne_tally(n) == Counter(naive_counts(m.arcs)["lne"] for m in oracle(n))

    @pytest.mark.parametrize("n", range(21))
    def test_left_nesting_tally_sums_to_all_matchings(self, n):
        tally = lne_tally(n)
        assert sum(tally.values()) == double_factorial(2 * n - 1)
        assert 0 not in tally.values()

    def test_shared_memo_tallies_equal_separate_tallies(self):
        shared = merged_tallies((), ("lne",))
        assert [lne_tally(n, shared) for n in range(13)] == [lne_tally(n) for n in range(13)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_left_nesting_tally_of_at_most_one_arc(self, n):
        assert lne_tally(n) == {0: 1}

    def test_conj4_passes_at_twelve_reversed(self):
        report = run_check("conj4_lne_second_order_eulerian", 12)
        assert (report.verdict, report.detail) == ("pass", "orientation: reversed")

    @pytest.mark.parametrize("n", range(6))
    def test_prefilled_fields_equal_lazy_ones(self, n):
        for m in gen_matchings(n, MATCHING_RULES["no_left_nesting"] if n % 2 else ()):
            fresh = Matching(m.arcs)
            assert m == fresh and hash(m) == hash(fresh)
            assert (m.partner, m.arcs) == (fresh.partner, fresh.arcs)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            gen_matchings(3, {"lnee"})


def pairings(points):
    """Every perfect matching of the sorted ``points``, as (opener, closer) lists."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for sub in pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def naive_gap2(arcs):
    """Nesting pairs whose openers are exactly 2 apart, every pair tested."""
    return sum(1 for (o1, c1), (o2, c2) in itertools.combinations(sorted(arcs), 2)
               if o2 == o1 + 2 and c2 < c1)


# each matching class restated from raw pair counts, apart from the rule table
NAIVE_CLASSES = {
    "no_left_nesting": lambda k: k["lne"] == 0,
    "no_right_nesting": lambda k: k["rne"] == 0,
    "no_left_crossing": lambda k: k["lcr"] == 0,
    "no_right_crossing": lambda k: k["rcr"] == 0,
    "no_neighbor_nesting": lambda k: k["lne"] == k["rne"] == 0,
    "no_neighbor_crossing": lambda k: k["lcr"] == k["rcr"] == 0,
    "no_nesting": lambda k: k["ne"] == 0,
    "no_crossing": lambda k: k["cr"] == 0,
    "no_2_left_nesting": lambda k: k["lne"] == k["gap2"] == 0,
    "lne0_and_rcr0": lambda k: k["lne"] == k["rcr"] == 0,
}


@functools.lru_cache(maxsize=None)
def naive_pair_counts(n):
    """(matching, its raw pair counts with gap2) for every matching of [2n],
    in generation order."""
    return [(m, {**naive_counts(m.arcs), "gap2": naive_gap2(m.arcs)})
            for m in naive_sorted_matchings(n)]


class TestMergedTallies:
    """The merged-state counter against the closer-order search it merges."""

    @pytest.mark.parametrize("name", sorted(MATCHING_RULES))
    def test_counts_equal_the_search_for_every_class(self, name):
        tally = merged_tallies(MATCHING_RULES[name])
        for n in range(8):
            count = sum(1 for _ in gen_matchings(n, MATCHING_RULES[name]))
            assert tally(n) == {(): count}, n

    @pytest.mark.parametrize("n", range(9))
    def test_no_left_nesting_tally_equals_the_enumerated_distribution(self, n):
        names = ("rne", "comp", "min", "inter")
        expected = distribution(generate("matchings", n, ["no_left_nesting"]),
                                "matchings", names).rows
        assert merged_tallies(MATCHING_RULES["no_left_nesting"], names)(n) == expected

    @pytest.mark.parametrize("rules", [(), ("lne",), ("lne", "gap2"), ("rcr",),
                                       ("lne", "rne"), ("ne",), ("cr",)])
    def test_every_statistic_under_ordered_and_sorted_states(self, rules):
        # with rne the word keeps its order and its mark; without, lne and the
        # step statistics read runs sorted (unless a rule needs the order);
        # a repeated name is tallied twice
        for names in [("lne", "rne", "comp", "inter", "min", "emb"),
                      ("lne", "comp", "inter", "min", "emb"), ("min", "lne", "emb", "min")]:
            tally = merged_tallies(rules, names)
            for n in range(7):
                expected = distribution(gen_matchings(n, rules), "matchings", names).rows
                assert tally(n) == expected, (names, n)

    def test_conj3_class_follows_fishburn_to_fifteen(self):
        tally = merged_tallies(MATCHING_RULES["no_2_left_nesting"])
        assert [tally(n) for n in range(16)] == [{(): f} for f in fishburn_numbers(15)]

    @pytest.mark.parametrize("rules, names", [(("lnx",), ()), ((), ("last",)), ((), ("lcr",))])
    def test_unknown_rules_and_statistics_refused(self, rules, names):
        with pytest.raises(ValueError):
            merged_tallies(rules, names)

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_size_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError):
            merged_tallies({"lne"})(n)


# class -> every statistic the inversion-table walk reads for it
TABLE_ORDER = {"permutations": ("asc", "des", "inv", "lmin", "lmax"),
               "factorial_posets": ("comp", "min", "pre_n", "lev", "ip", "rne_poset")}
POSET_ORDER = TABLE_ORDER["factorial_posets"]


def permutation_facts(n, pi):
    """The statistics of TABLE_ORDER["permutations"], read from the left
    inversion table of pi."""
    d = left_inversion_table(pi)
    des = sum(a < b for a, b in zip(d, d[1:]))
    return (n - 1 - des if n else 0, des, sum(d),
            sum(x == i for i, x in enumerate(d)), d.count(0))


def poset_facts(n, w):
    """The statistics of POSET_ORDER, read from the inversion table w."""
    comp = sum(min(w[k:]) >= k for k in range(n))
    rne_poset = sum(w[i - 1] > w[i] and i not in w[i + 1:] for i in range(1, n))
    return (comp, w.count(0), w[-1] if w else 0, len(set(w)),
            n * (n - 1) // 2 - sum(w), rne_poset)


@pytest.mark.parametrize("class_name", sorted(TABLE_ORDER))
class TestTableTallies:
    """The inversion-table walk against the enumerated permutations and
    factorial posets, and the facts it reads from a table against the passes
    of the object."""

    @pytest.mark.parametrize("n", range(9))
    def test_every_name_tuple_equals_the_enumerated_tally(self, class_name, n):
        # each tuple's enumerated tally is a projection of the full records'
        order = TABLE_ORDER[class_name]
        records = Counter(map(stat_tuple(class_name, order), generate(class_name, n)))
        tuples = [t for k in range(4) for t in itertools.product(order, repeat=k)]
        for names in tuples + [order]:
            where = [order.index(name) for name in names]
            expected = Counter()
            for record, count in records.items():
                expected[tuple(record[i] for i in where)] += count
            got = table_tallies(class_name, names)(n)
            assert got == dict(expected), names
            assert sum(got.values()) == math.factorial(n), names

    def test_mahonian_and_eulerian_rows(self, class_name):
        # inversions and incomparable pairs are Mahonian; descents, and levels
        # less one, are Eulerian
        mahonian, eulerian, shift = (("inv",), ("des",), 0) if class_name == "permutations" \
            else (("ip",), ("lev",), 1)
        mahonian, eulerian = (table_tallies(class_name, x) for x in (mahonian, eulerian))
        for n in range(13):
            rows = mahonian(n)
            assert [rows[(k,)] for k in range(len(rows))] == q_factorial(n), n
            rows, low = eulerian(n), n and shift        # the empty poset has no level
            assert tuple(rows.get((k + low,), 0) for k in range(max(n, 1))) == (
                eulerian_triangle_row(n)), n

    @pytest.mark.parametrize("n", range(8))
    def test_tables_give_the_statistics(self, class_name, n):
        records = stat_tuple(class_name, TABLE_ORDER[class_name])
        if class_name == "factorial_posets":
            for w in gen_inversion_tables(n):
                assert poset_facts(n, w) == records(table_to_poset(w)), w
            return
        tables = []
        for pi in gen_permutations(n):
            tables.append(left_inversion_table(pi))
            assert permutation_facts(n, pi) == records(pi), pi
        # each table of 0 <= d_i <= i - 1 is one permutation's
        assert sorted(tables) == list(gen_inversion_tables(n))

    @pytest.mark.parametrize("names", [("p",), ("des", "lne"), ("rmax",), ("lev", "lne"),
                                       ("dent",), ("last",)])
    def test_unknown_names_refused(self, class_name, names):
        with pytest.raises(ValueError):
            table_tallies(class_name, names)

    def test_names_of_the_other_class_refused(self, class_name):
        other, = set(TABLE_ORDER) - {class_name}
        for name in TABLE_ORDER[other]:
            with pytest.raises(ValueError):
                table_tallies(class_name, (name,))

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_size_must_be_a_nonnegative_integer(self, class_name, n):
        with pytest.raises(ValueError):
            table_tallies(class_name, TABLE_ORDER[class_name][:1])(n)


@pytest.mark.parametrize("class_name, names", [
    ("matchings", ()), ("matchings", ("rne",)), ("inversion_tables", ("dent",)),
    ("natural_posets", ())])
def test_table_tallies_refuse_a_class_with_no_readings(class_name, names):
    with pytest.raises(ValueError):
        table_tallies(class_name, names)


# every statistic the prefix walk reads, and the permutation triples of conj1, conj2
PREFIX_ORDER = ("p", "comp", "lmin", "lmax", "des", "asc", "inv")
CONJECTURE_TRIPLES = [("p", "comp", "lmin"), ("p", "lmax", "des")]


class TestPrefixTallies:
    """The one-line prefix walk against the enumerated permutations."""

    @pytest.mark.parametrize("n", range(9))
    def test_every_name_tuple_equals_the_enumerated_tally(self, n):
        # each tuple's enumerated tally is a projection of the full records'
        records = Counter(map(stat_tuple("permutations", PREFIX_ORDER), gen_permutations(n)))
        tuples = [t for k in range(3) for t in itertools.product(PREFIX_ORDER, repeat=k)]
        for names in tuples + CONJECTURE_TRIPLES + [PREFIX_ORDER]:
            where = [PREFIX_ORDER.index(name) for name in names]
            expected = Counter()
            for record, count in records.items():
                expected[tuple(record[i] for i in where)] += count
            got = prefix_tallies(names)(n)
            assert got == dict(expected), names
            assert sum(got.values()) == math.factorial(n), names

    def test_readings_are_the_walk_names(self):
        assert set(PREFIX_READINGS) == set(PREFIX_ORDER)

    @pytest.mark.parametrize("names", [("last",), ("p", "lne"), ("rmin",), ("dent",), ("lev",)])
    def test_unknown_names_refused(self, names):
        with pytest.raises(ValueError):
            prefix_tallies(names)

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_size_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError):
            prefix_tallies(("p",))(n)


def route_only(monkeypatch, counted):
    """Make the route ``tally`` should not take raise: the merged counter, or
    the enumerated ``distribution``."""
    def refuse(*args):
        raise AssertionError("the other route was taken")
    monkeypatch.setattr(enumeration, "distribution" if counted else "_merged", refuse)


# (class, predicates, names) -> whether ``tally`` reads a counter for it:
# every class, with no predicate or one of its own, and with no names, a name
# that a counter reads or a name that none reads
ROUTES = {
    ("matchings", (), ()): True,
    ("matchings", (), ("rne",)): True,
    ("matchings", (), ("last",)): False,
    ("matchings", ("no_left_nesting",), ()): True,
    ("matchings", ("no_left_nesting",), ("rne",)): True,
    ("matchings", ("no_left_nesting",), ("last",)): False,
    ("permutations", (), ()): True,
    ("permutations", (), ("des",)): True,
    ("permutations", (), ("p",)): True,
    ("permutations", (), ("last",)): False,
    ("factorial_posets", (), ()): True,
    ("factorial_posets", (), ("lev",)): True,
    ("factorial_posets", ("condition_one",), ()): False,
    ("factorial_posets", ("condition_one",), ("lev",)): False,
    ("inversion_tables", (), ()): False,
    ("inversion_tables", (), ("dent",)): False,
    ("inversion_tables", ("descent_correcting",), ("dent",)): False,
    ("natural_posets", (), ()): False,
    ("natural_posets", ("factorial",), ()): False,
    ("natural_posets", ("factorial",), ("lev",)): False,
    ("matrices", (), ()): False,
    ("matrices", ("zero_one",), ()): False,
    ("ascent_sequences", (), ()): False,
}


class TestTallyRoute:
    """``tally`` reads the merged counter for a matching class tallied by its
    names, the inversion-table walk for the unfiltered permutations and
    factorial posets tallied by their readings, the prefix walk for the
    permutations tallied by its other names, and enumerates any other tally;
    every route equals ``distribution``."""

    @pytest.mark.parametrize("predicates", ROUTE_FILTERS)
    def test_matching_tallies_equal_the_enumerated_distribution(self, monkeypatch, predicates):
        for names in [(), *COUNTED_NAMES, *ENUMERATED_NAMES]:
            with monkeypatch.context() as patch:
                route_only(patch, counted=set(names) <= enumeration.MERGED_NAMES)
                got = [tally("matchings", n, predicates, names) for n in range(7)]
            for n, table in enumerate(got):
                stream = generate("matchings", n, predicates)
                if names:
                    expected = distribution(stream, "matchings", names).to_csv()
                    assert table.to_csv() == expected, (names, n)
                else:
                    assert table.rows == {(): sum(1 for _ in stream)}, n

    @pytest.mark.parametrize("class_name, predicates, names", sorted(ROUTES))
    def test_counter_decides_the_route(self, monkeypatch, class_name, predicates, names):
        counted = ROUTES[class_name, predicates, names]
        route, count = enumeration.counter(class_name, names, predicates)
        assert (route is not None) == (count is not None) == counted

        def refuse(*args):
            raise AssertionError("the other route was taken")

        def unread(*args):
            generate(*args)                 # still refuses what it refuses
            return map(refuse, [None])
        with monkeypatch.context() as patch:
            if counted:
                patch.setattr(enumeration, "generate", unread)
            else:
                patch.setattr(enumeration, "_merged", refuse)
                patch.setattr(enumeration, "table_tallies", refuse)
                patch.setattr(enumeration, "prefix_tallies", refuse)
            got = [tally(class_name, n, predicates, names).rows for n in range(6)]
        for n, rows in enumerate(got):
            stream = generate(class_name, n, predicates)
            assert rows == (distribution(stream, class_name, names).rows if names
                            else {(): sum(1 for _ in stream)}), n

    def test_permutation_tallies_by_its_names_read_no_permutation(self, monkeypatch):
        def unread(n):
            raise AssertionError("the permutation stream was read")
            yield
        monkeypatch.setitem(enumeration.GENERATORS, "permutations", unread)
        for names in [(), *COUNTED_PERMUTATION_NAMES, *PREFIX_PERMUTATION_NAMES]:
            for n in range(7):
                table = tally("permutations", n, (), names)
                assert table.total == math.factorial(n), (names, n)

    def test_counter_sends_p_to_the_prefix_walk_and_des_inv_to_the_table_walk(
            self, monkeypatch):
        # the CLI's ``distribution permutations 8 --stats des,inv`` stays on
        # the inversion-table walk; p, which it does not read, goes to the
        # prefix walk
        walks = []
        tabled, prefixed = enumeration.table_tallies, enumeration.prefix_tallies
        monkeypatch.setattr(enumeration, "table_tallies", lambda class_name, names: (
            walks.append(("table", names)) or tabled(class_name, names)))
        monkeypatch.setattr(enumeration, "prefix_tallies", lambda names: (
            walks.append(("prefix", names)) or prefixed(names)))
        for names in [("p",), ("des", "inv")]:
            assert tally("permutations", 8, (), names) == distribution(
                gen_permutations(8), "permutations", names), names
        assert walks == [("prefix", ("p",)), ("table", ("des", "inv"))]

    def test_other_permutation_names_enumerate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the counter was read")
        monkeypatch.setattr(enumeration, "table_tallies", refuse)
        monkeypatch.setattr(enumeration, "prefix_tallies", refuse)
        for names in ENUMERATED_PERMUTATION_NAMES:
            for n in range(7):
                assert tally("permutations", n, (), names) == distribution(
                    gen_permutations(n), "permutations", names), (names, n)

    @pytest.mark.parametrize("names", [(), *COUNTED_PERMUTATION_NAMES,
                                       *PREFIX_PERMUTATION_NAMES,
                                       *ENUMERATED_PERMUTATION_NAMES])
    def test_permutation_csv_equals_the_enumerated_distribution(self, names):
        for n in range(7):
            stream = generate("permutations", n)
            if names:
                expected = distribution(stream, "permutations", names).to_csv()
                assert tally("permutations", n, (), names).to_csv() == expected, n
            else:
                assert tally("permutations", n).rows == {(): sum(1 for _ in stream)}, n

    def test_factorial_poset_tallies_read_no_poset(self, monkeypatch):
        def unread(n):
            raise AssertionError("the poset stream was read")
            yield
        names = [(), POSET_ORDER, ("rne_poset", "comp", "min"), ("ip",), ("lev", "lev")]
        expected = {(n, x): distribution(gen_factorial_posets(n), "factorial_posets", x)
                    for n in range(7) for x in names if x}
        monkeypatch.setitem(enumeration.GENERATORS, "factorial_posets", unread)
        for x in names:
            for n in range(7):
                table = tally("factorial_posets", n, (), x)
                if x:
                    assert table.to_csv() == expected[n, x].to_csv(), (x, n)
                else:
                    assert table.rows == {(): math.factorial(n)}, n

    @pytest.mark.parametrize("class_name, predicates, names", [
        ("permutations", (), ("p", "des")),
        ("factorial_posets", ("condition_one",), ("rne_poset", "lev")),
        ("natural_posets", ("factorial",), ("lev", "comp")),
        ("inversion_tables", ("descent_correcting",), ("dent",)),
    ])
    def test_other_classes_tally_their_stream(self, class_name, predicates, names):
        for n in range(6):
            stream = generate(class_name, n, predicates)
            assert tally(class_name, n, predicates, names) == distribution(
                stream, class_name, names)

    @pytest.mark.parametrize("class_name, predicates", [
        ("natural_posets", ()), ("matrices", ("zero_one",)), ("ascent_sequences", ()),
        ("factorial_posets", ("dually_factorial",))])
    def test_a_count_runs_no_statistic_pass(self, class_name, predicates):
        # natural posets are counted though their statistics refuse most of them
        for n in range(6):
            count = sum(1 for _ in generate(class_name, n, predicates))
            assert tally(class_name, n, predicates).rows == {(): count}


class TestClassDefinitions:
    """The matching classes built from the rule table are the classes the
    raw pair counts define, and each rule's test is exact for its pattern."""

    def test_every_class_is_restated(self):
        assert set(NAIVE_CLASSES) == set(MATCHING_RULES)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("name", sorted(NAIVE_CLASSES))
    def test_class_equals_its_raw_definition(self, name, n):
        pairs = naive_pair_counts(n)
        expected = [m.arcs for m, k in pairs if NAIVE_CLASSES[name](k)]
        assert [m.arcs for m in filter_class([m for m, _ in pairs], name)] == expected

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("rule", list(RULE_TESTS))
    def test_rule_alone_prunes_to_its_test(self, rule, n):
        test = getattr(objects, RULE_TESTS[rule])
        pairs = naive_pair_counts(n)
        for m, k in pairs:
            assert test(m) == (k[rule] > 0), (rule, m.arcs)
        expected = [m.arcs for m, _ in pairs if not test(m)]
        assert [m.arcs for m in gen_matchings(n, {rule})] == expected

    def test_every_rule_has_a_step_test(self):
        assert list(STEP_TESTS) == list(RULE_TESTS)


class TestPredicateGate:
    """``generate`` refuses a predicate of another class before it generates
    anything, so the sizes here are far too large to enumerate."""

    @pytest.mark.parametrize("class_name", sorted(GENERATORS))
    def test_foreign_predicates_raise(self, class_name):
        foreign = [name for name, (classes, _) in PREDICATES.items()
                   if class_name not in classes]
        own = [name for name, (classes, _) in PREDICATES.items() if class_name in classes]
        assert foreign
        for name in foreign:
            for predicates in ([name], own[:1] + [name]):
                with pytest.raises(UnknownPredicate, match=(
                        f"predicate '{name}' applies to .*, not {class_name}$")):
                    generate(class_name, 40, predicates)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate, match="unknown predicate 'no_squiggles'"):
            generate("matchings", 40, ["no_squiggles"])


def completions(n, prefix):
    """Every matching of [2n] whose first arcs in closer order are ``prefix``."""
    used = {x for arc in prefix for x in arc}
    last = prefix[-1][1]
    for pairs in pairings([x for x in range(1, 2 * n + 1) if x not in used]):
        if all(c > last for _, c in pairs):
            yield Matching(prefix + tuple(sorted(pairs, key=itemgetter(1))))


def mirrored(m):
    """The matching read right to left: left patterns become right ones."""
    top = 2 * m.n + 1
    return Matching.from_pairs([(top - c, top - o) for o, c in m.arcs])


def dyck_matching(rng, n, first_open):
    """A random matching whose closers each take the earliest open opener
    (``first_open``: no nesting) or the latest one (no crossing)."""
    open_, arcs = [], []
    for x in range(1, 2 * n + 1):
        if len(open_) + len(arcs) < n and (not open_ or rng.random() < 0.5):
            open_.append(x)
        else:
            arcs.append((open_.pop(0) if first_open else open_.pop(), x))
    return Matching.from_pairs(arcs)


def random_class_members(seed):
    """Seeded matchings with n = 12 to 20, from builders whose images lie in
    known classes, so every matching predicate has members among them."""
    rng = random.Random(seed)
    pool = []
    for _ in range(8):
        n = rng.randint(12, 20)
        w = [rng.randint(0, i) for i in range(n)]
        for m in (table_to_matching(w), table_to_crossfree_matching(w)):
            pool += [m, mirrored(m)]
        pool += [dyck_matching(rng, n, True), dyck_matching(rng, n, False)]
        ends = rng.sample(range(1, 2 * n + 1), 2 * n)
        t = matching_to_matrix(Matching.from_pairs(zip(ends[::2], ends[1::2])))
        pool += [matrix_to_matching_no_neighbor_nesting(t),
                 matrix_to_matching_no_neighbor_crossing(t)]
    for rows in random_matrices(seed, count=40, zero_one=True):
        if 12 <= sum(map(sum, rows)) <= 20:
            pool.append(zero_one_matrix_to_matching(TriangularMatrix.from_rows(rows)))
    return pool


class TestCloserOrderPrefixes:
    """Sizes too large to enumerate: the search entered at a random node
    yields exactly the completions of that node that its class admits."""

    @pytest.mark.parametrize("name", MATCHING_PREDICATES)
    def test_random_prefixes_complete_to_the_filtered_class(self, name):
        test = PREDICATES[name][1]
        members = [m for m in random_class_members(20140) if test(m)]
        rng = random.Random(20141)
        for m in rng.sample(members, 4):
            # a prefix of a member breaks no rule, so the search visits it
            prefix = m.arcs[:m.n - rng.randint(2, 5)]
            expected = sorted(c.arcs for c in completions(m.n, prefix) if test(c))
            assert m.arcs in expected
            found = _closer_order(m.n, MATCHING_RULES[name], prefix)
            assert [Matching.from_partner(p).arcs for p in found] == expected


@functools.lru_cache(maxsize=None)
def natural_posets(n):
    """gen_natural_posets(n) as a tuple, each n built once for the module."""
    return tuple(gen_natural_posets(n))


class TestNaturalPosetCuts:
    """The predicates of ``POSET_CUTS`` hold of a poset's parent in the
    down-set search (its top label dropped) whenever they hold of it, so
    cutting the search by them loses no member of the filtered class."""

    @pytest.mark.parametrize("name", sorted(POSET_CUTS))
    def test_cut_holds_of_every_parent(self, name):
        test = PREDICATES[name][1]
        for n in range(1, 7):
            for p in filter(test, natural_posets(n)):
                assert test(Poset.from_pre_masks(p.pre_masks[:-1])), (name, p.pre_masks)

    @pytest.mark.parametrize("name", ["condition_one", "condition_one_var"])
    def test_neighbor_rules_are_no_cuts(self, name):
        # each holds of (0, 1, 0, 3) and fails on its parent (0, 1, 0)
        test = PREDICATES[name][1]
        assert test(Poset.from_pre_masks((0, 1, 0, 3)))
        assert not test(Poset.from_pre_masks((0, 1, 0)))
        assert name not in POSET_CUTS

    @pytest.mark.parametrize("predicates", [
        *itertools.combinations(POSET_PREDICATES, 1),
        *itertools.combinations(POSET_PREDICATES, 2)])
    def test_pruned_stream_equals_the_filtered_stream(self, predicates):
        for n in range(7):
            expected = [p for p in natural_posets(n)
                        if all(PREDICATES[name][1](p) for name in predicates)]
            assert list(generate("natural_posets", n, predicates)) == expected, n

    @pytest.mark.parametrize("name", POSET_PREDICATES)
    def test_pruned_stream_equals_the_filtered_stream_at_7(self, name):
        expected = list(filter(PREDICATES[name][1], natural_posets(7)))
        assert list(generate("natural_posets", 7, [name])) == expected

    @pytest.mark.parametrize("name", sorted(POSET_CUTS))
    def test_search_tests_no_node_below_a_refused_one(self, monkeypatch, name):
        classes, test = PREDICATES[name]
        tested = []

        def recording(p):
            tested.append(p)
            return test(p)
        monkeypatch.setitem(PREDICATES, name, (classes, recording))
        members = list(generate("natural_posets", 7, [name]))
        monkeypatch.undo()
        assert members == list(filter(test, natural_posets(7)))
        for p in tested:
            assert p.n == 1 or test(Poset.from_pre_masks(p.pre_masks[:-1])), p.pre_masks


class TestFilters:
    def test_no_left_nesting_n3(self):
        filtered = {
            frozenset(m.arcs)
            for m in filter_class(gen_matchings(3), "no_left_nesting")
        }
        assert filtered == NO_LEFT_NESTING_N3

    def test_catalan_filter(self):
        assert sum(1 for _ in filter_class(gen_matchings(3), "no_nesting")) == 5

    def test_dually_factorial_filter(self):
        count = sum(
            1 for _ in filter_class(gen_factorial_posets(3), "dually_factorial"))
        assert count == 5

    def test_order_preserved(self):
        everything = list(gen_matchings(3))
        filtered = list(filter_class(gen_matchings(3), "no_left_nesting"))
        positions = [everything.index(m) for m in filtered]
        assert positions == sorted(positions)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            list(filter_class(gen_matchings(2), "no_squiggles"))


class TestSequences:
    def test_fishburn_first_ten(self):
        assert fishburn_numbers(9) == FISHBURN

    def test_fishburn_zero(self):
        assert fishburn_numbers(0) == [1]

    @pytest.mark.parametrize("n", range(8))
    def test_fishburn_matches_ascent_sequences(self, n):
        assert fishburn_numbers(n)[n] == sum(1 for _ in gen_ascent_sequences(n))

    def test_catalan(self):
        assert [catalan(n) for n in range(8)] == CATALAN

    def test_double_factorial(self):
        assert double_factorial(5) == 15
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert [double_factorial(2 * n - 1) for n in range(8)] == ODD_DOUBLE_FACTORIAL

    def test_second_order_eulerian_rows(self):
        assert second_order_eulerian(1) == (1,)
        assert second_order_eulerian(2) == (1, 2)
        assert second_order_eulerian(3) == (1, 8, 6)
        assert second_order_eulerian(4) == (1, 22, 58, 24)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_second_order_row_sums(self, n):
        assert sum(second_order_eulerian(n)) == double_factorial(2 * n - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_eulerian_row_matches_descents(self, n):
        row = eulerian_triangle_row(n)
        if n == 0:
            assert row == (1,)
            return
        des = Counter(perm_stats(pi)["des"] for pi in gen_permutations(n))
        assert row == tuple(des.get(k, 0) for k in range(n))


class TestDistribution:
    def test_mahonian_table(self):
        table = distribution(gen_permutations(3), "permutations", ["inv"])
        assert table.rows == {(0,): 1, (1,): 2, (2,): 2, (3,): 1}
        assert table.total == 6

    def test_levels_table(self):
        table = distribution(gen_factorial_posets(3), "factorial_posets", ["lev"])
        assert table.rows == {(1,): 1, (2,): 4, (3,): 1}

    def test_csv_format(self):
        table = distribution(gen_permutations(3), "permutations", ["des", "inv"])
        lines = table.to_csv().splitlines()
        assert lines[0] == "des,inv,count"
        assert lines[1] == "0,0,1"
        assert lines == [lines[0]] + sorted(lines[1:], key=lambda s: tuple(
            int(x) for x in s.split(",")))

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatistic):
            distribution(gen_permutations(2), "permutations", ["lne"])
