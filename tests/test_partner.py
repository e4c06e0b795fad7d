"""A matching is its partner tuple.  Every constructor must give the tuple
that ``Matching(arcs)`` derives from the arcs, and every reader that scans
the tuple must agree with a pairwise or view-based definition."""

import random

import pytest

from fishburn import (
    Matching,
    TriangularMatrix,
    crossfree_matching_to_table,
    jsonio,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    table_to_crossfree_matching,
    table_to_matching,
    zero_one_matrix_to_matching,
)
from fishburn.enumeration import MATCHING_RULES, gen_inversion_tables, gen_matchings
from fishburn.errors import HasLeftCrossing, HasLeftNesting
from fishburn.objects import (
    has_gap2_nesting,
    has_left_crossing,
    has_left_nesting,
    has_right_crossing,
    has_right_nesting,
    neighbor_counts,
    nestings_and_crossings,
)
from fishburn.statistics import _matching_emb, _matching_sweep

from helpers import (
    first_neighbor_pair_by_arcs,
    has_gap2_nesting_by_pairs,
    inserted_arcs,
    naive_counts,
    naive_interval_matrix,
    naive_matchings,
    quadratic_emb,
    quadratic_matching_to_poset,
    raw_table,
    shape_by_views,
)

SMALL = range(7)                 # n = 0..6, every matching
LARGE = range(30, 51)            # seeded tables of these lengths


def by_closer(arcs):
    return tuple(sorted(arcs, key=lambda arc: arc[1]))


def derived(arcs):
    """The partner tuple that ``Matching(arcs)`` derives."""
    return Matching(by_closer(arcs)).partner


def seeded_tables(seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(0, i) for i in range(n)) for n in LARGE]


def breaks(arcs, rule):
    """Whether raw arcs hold the pattern of a search rule, pair by pair."""
    if rule == "gap2":
        return has_gap2_nesting_by_pairs(arcs)
    return naive_counts(arcs)[rule] > 0


def preimage_oracle(n):
    """(matrix rows, preimage) -> arcs of every matching of [2n] that the
    three restricted preimages must return, the matrix by position scanning
    and the class by pair counts."""
    out = {}
    for arcs in naive_matchings(n):
        rows, counts = naive_interval_matrix(tuple(arcs)), naive_counts(arcs)
        for name, rules in (("nesting", ("lne", "rne")), ("crossing", ("lcr", "rcr")),
                            ("zero_one", ("lne", "rcr"))):
            if not any(counts[rule] for rule in rules):
                assert (rows, name) not in out          # the preimage is unique
                out[rows, name] = arcs
    return out


PREIMAGES = {"nesting": matrix_to_matching_no_neighbor_nesting,
             "crossing": matrix_to_matching_no_neighbor_crossing,
             "zero_one": zero_one_matrix_to_matching}

NEIGHBOR_TESTS = {(True, True): ("lne", has_left_nesting), (True, False): ("lcr", has_left_crossing),
                  (False, True): ("rne", has_right_nesting), (False, False): ("rcr", has_right_crossing)}


def seeded_preimages(m):
    """(name, rules, matrix, preimage) for the three restricted preimages of
    the matrix of m; the zero-one preimage reads that matrix with every
    entry cut to 1, which keeps its shape."""
    t = matching_to_matrix(m)
    ones = TriangularMatrix.from_rows([[min(v, 1) for v in row] for row in t.rows])
    return [(name, rules, source, PREIMAGES[name](source))
            for name, rules, source in (("nesting", ("lne", "rne"), t),
                                        ("crossing", ("lcr", "rcr"), t),
                                        ("zero_one", ("lne", "rcr"), ones))]


def check_neighbor_readers(m, arcs):
    """The four neighbour tests and :func:`neighbor_counts` of m against the
    pair-by-pair oracles on its arcs; returns the oracle's counts."""
    counts = naive_counts(arcs)
    for rule, test in NEIGHBOR_TESTS.values():
        assert test(m) == (counts[rule] > 0), (arcs, rule)
    assert neighbor_counts(m) == tuple(counts[k] for k in ("lne", "rne", "lcr", "rcr")), arcs
    return counts


class TestConstructorsAgree:
    @pytest.mark.parametrize("n", SMALL)
    def test_from_pairs_in_any_order_and_orientation(self, n):
        rng = random.Random(20190 + n)
        for arcs in naive_matchings(n):
            pairs = [(c, o) if rng.random() < 0.5 else (o, c) for o, c in arcs]
            rng.shuffle(pairs)
            assert Matching.from_pairs(pairs).partner == derived(arcs)

    @pytest.mark.parametrize("n", SMALL)
    def test_insertions(self, n):
        for w in gen_inversion_tables(n):
            assert table_to_matching(w).partner == derived(inserted_arcs(w, last=True))
            assert table_to_crossfree_matching(w).partner == derived(inserted_arcs(w, last=False))

    @pytest.mark.parametrize("n", SMALL)
    @pytest.mark.parametrize("rules", [frozenset(), *sorted(set(MATCHING_RULES.values()), key=sorted)])
    def test_search_with_and_without_rules(self, n, rules):
        expected = sorted(by_closer(arcs) for arcs in naive_matchings(n)
                          if not any(breaks(arcs, rule) for rule in rules))
        assert [m.partner for m in gen_matchings(n, rules)] == list(map(derived, expected))

    @pytest.mark.parametrize("n", SMALL)
    def test_preimages(self, n):
        oracle = preimage_oracle(n)
        assert {rows for rows, name in oracle if name == "nesting"} == \
            {rows for rows, name in oracle if name == "crossing"}
        for (rows, name), arcs in oracle.items():
            assert PREIMAGES[name](TriangularMatrix.from_rows(rows)).partner == derived(arcs)

    def test_seeded_large_tables(self):
        for w in seeded_tables(20191):
            forward = table_to_matching(w)
            cross = table_to_crossfree_matching(w)
            assert forward.partner == derived(inserted_arcs(w, last=True))
            assert cross.partner == derived(inserted_arcs(w, last=False))
            for m in (forward, cross):
                shuffled = list(m.arcs)
                random.Random(len(w)).shuffle(shuffled)
                assert Matching.from_pairs(shuffled).partner == m.partner
                for name, rules, source, pre in seeded_preimages(m):
                    assert pre.partner == derived(pre.arcs)
                    assert matching_to_matrix(pre) == source
                    assert not any(naive_counts(pre.arcs)[rule] for rule in rules)


class TestPartnerScanReaders:
    """Every reader that scans the partner tuple, on every matching of
    [2n] for n <= 6, against raw pair counts or the arc, opener and closer
    views."""

    @pytest.fixture(scope="class", params=SMALL)
    def matchings(self, request):
        return [(Matching(by_closer(arcs)), by_closer(arcs))
                for arcs in naive_matchings(request.param)]

    def test_neighbor_tests_and_first_pairs(self, matchings):
        for m, arcs in matchings:
            check_neighbor_readers(m, arcs)

    def test_counts(self, matchings):
        for m, arcs in matchings:
            counts = naive_counts(arcs)
            assert nestings_and_crossings(m) == (counts["ne"], counts["cr"]), arcs
            assert has_gap2_nesting(m) == has_gap2_nesting_by_pairs(arcs), arcs

    def test_statistic_passes(self, matchings):
        for m, arcs in matchings:
            shape = _matching_sweep(m) + _matching_emb(m)
            assert shape == shape_by_views(m), arcs
            assert shape[4] == quadratic_emb(arcs), arcs

    def test_matrices_and_json(self, matchings):
        for m, arcs in matchings:
            assert matching_to_matrix(m).rows == naive_interval_matrix(arcs), arcs
            assert jsonio.encode("matching", m) == {"n": len(arcs), "arcs": list(map(list, arcs))}

    def test_tables_and_posets_or_the_first_left_pair(self, matchings):
        # the sweeps that read a table or a poset back raise at the first
        # left pair of the kind outside the insertion's image
        for m, arcs in matchings:
            for nesting, error, reads in (
                    (True, HasLeftNesting, (matching_to_table, matching_to_poset)),
                    (False, HasLeftCrossing, (crossfree_matching_to_table,))):
                bad = first_neighbor_pair_by_arcs(arcs, True, nesting)
                for read in reads:
                    if bad is None:
                        expected = (quadratic_matching_to_poset(m) if read is matching_to_poset
                                    else raw_table(arcs))
                        assert read(m) == expected, arcs
                    else:
                        with pytest.raises(error) as info:
                            read(m)
                        assert info.value.arcs == bad, arcs

    def test_views(self, matchings):
        for m, arcs in matchings:
            assert m.arcs == arcs and m.n == len(arcs)


class TestLargeNeighborReaders:
    def test_against_pair_oracles(self):
        # both insertions of seeded tables with n = 30..50 and the three
        # preimages of their matrices; every kind is met present and absent
        seen = set()
        for w in seeded_tables(20192):
            for m in (table_to_matching(w), table_to_crossfree_matching(w)):
                for q in (m, *(pre for *_, pre in seeded_preimages(m))):
                    counts = check_neighbor_readers(q, q.arcs)
                    seen |= {(rule, counts[rule] > 0) for rule in ("lne", "rne", "lcr", "rcr")}
        assert len(seen) == 8
