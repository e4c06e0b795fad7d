import itertools
import math
import random
from collections import deque

import pytest

from fishburn import (
    HasLeftCrossing,
    HasLeftNesting,
    NotAPermutation,
    NotFactorial,
    NotTwoPlusTwoFree,
    NotZeroOne,
    Poset,
    canonical_labeling,
    canonical_labels,
    crossfree_matching_to_table,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    permutation_to_table,
    poset_to_matching,
    poset_to_table,
    relabel_poset,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
    validate_matching,
    validate_matrix,
    zero_one_matrix_to_matching,
)
from fishburn.enumeration import (
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    gen_permutations,
    generate,
)
from fishburn.objects import (
    arc_statistics,
    condition_one,
    has_left_crossing,
    has_left_nesting,
    is_factorial,
    is_two_plus_two_free,
    is_zero_one,
)

from helpers import (
    PREIMAGE_FAMILY,
    naive_counts,
    naive_interval_matrix,
    naive_matchings,
    naive_matrices,
    random_matrices,
    random_tables,
)


def arcset(m):
    return frozenset(m.arcs)


class TestTableMatching:
    def test_worked_example(self):
        assert table_to_matching((0, 1, 0, 1)).arcs == ((1, 3), (4, 6), (2, 7), (5, 8))

    def test_all_crossing(self):
        assert arcset(table_to_matching((0, 0, 0))) == {(1, 4), (2, 5), (3, 6)}

    def test_disjoint(self):
        assert arcset(table_to_matching((0, 1, 2))) == {(1, 2), (3, 4), (5, 6)}

    def test_inverse_worked_example(self):
        m = validate_matching([(1, 3), (2, 7), (4, 6), (5, 8)])
        assert matching_to_table(m) == (0, 1, 0, 1)

    def test_empty(self):
        assert table_to_matching(()).n == 0
        assert matching_to_table(validate_matching([])) == ()

    def test_left_nesting_rejected(self):
        m = validate_matching([(2, 3), (1, 4)])
        with pytest.raises(HasLeftNesting) as info:
            matching_to_table(m)
        assert info.value.arcs == ((1, 4), (2, 3))

    @pytest.mark.parametrize("n", range(7))
    def test_round_trip_and_range(self, n):
        seen = set()
        for w in gen_inversion_tables(n):
            m = table_to_matching(w)
            assert not has_left_nesting(m)
            assert matching_to_table(m) == w
            seen.add(m)
        assert len(seen) == math.factorial(n)


class TestTableCrossfreeMatching:
    def test_fully_nested(self):
        assert table_to_crossfree_matching((0, 0, 0)).arcs == ((3, 4), (2, 5), (1, 6))

    def test_disjoint(self):
        assert arcset(table_to_crossfree_matching((0, 1, 2))) == {(1, 2), (3, 4), (5, 6)}

    def test_left_crossing_rejected(self):
        m = validate_matching([(1, 3), (2, 4)])
        with pytest.raises(HasLeftCrossing) as info:
            crossfree_matching_to_table(m)
        assert info.value.arcs == ((1, 3), (2, 4))

    @pytest.mark.parametrize("n", range(7))
    def test_round_trip_and_range(self, n):
        seen = set()
        for w in gen_inversion_tables(n):
            m = table_to_crossfree_matching(w)
            assert not has_left_crossing(m)
            assert crossfree_matching_to_table(m) == w
            seen.add(m)
        assert len(seen) == math.factorial(n)


class TestPosetTable:
    def test_chain(self):
        p = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert poset_to_table(p) == (0, 1, 2)
        assert table_to_poset((0, 1, 2)) == p

    def test_antichain(self):
        p = Poset.from_relations(3, [])
        assert poset_to_table(p) == (0, 0, 0)

    def test_two_relations(self):
        p = Poset.from_relations(4, [(1, 2), (1, 4)])
        assert poset_to_table(p) == (0, 1, 0, 1)
        assert table_to_poset((0, 1, 0, 1)) == p

    def test_single_relation(self):
        assert table_to_poset((0, 0, 1)).less == frozenset({(1, 3)})

    def test_not_factorial(self):
        with pytest.raises(NotFactorial):
            poset_to_table(Poset.from_relations(3, [(2, 3)]))

    @pytest.mark.parametrize("n", range(7))
    def test_round_trip(self, n):
        for w in gen_inversion_tables(n):
            p = table_to_poset(w)
            assert is_factorial(p)
            assert poset_to_table(p) == w


class TestPosetMatching:
    def test_composite_example(self):
        p = Poset.from_relations(4, [(1, 2), (1, 4)])
        assert poset_to_matching(p).arcs == ((1, 3), (4, 6), (2, 7), (5, 8))

    def test_antichain(self):
        p = Poset.from_relations(3, [])
        assert arcset(poset_to_matching(p)) == {(1, 4), (2, 5), (3, 6)}

    def test_inverse_chain(self):
        m = validate_matching([(1, 2), (3, 4), (5, 6)])
        assert matching_to_poset(m) == Poset.from_relations(3, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("n", range(6))
    def test_round_trip_both_ways(self, n):
        for w in gen_inversion_tables(n):
            p = table_to_poset(w)
            m = poset_to_matching(p)
            assert matching_to_poset(m) == p
        for m in gen_matchings(n):
            if has_left_nesting(m):
                continue
            p = matching_to_poset(m)
            assert p == table_to_poset(matching_to_table(m))
            assert poset_to_matching(p) == m


class TestPermutationTable:
    @pytest.mark.parametrize("pi,w", [
        ((2, 3, 1), (0, 0, 1)),
        ((3, 1, 2), (0, 1, 0)),
        ((1, 2, 3), (0, 1, 2)),
        ((), ()),
    ])
    def test_pairs(self, pi, w):
        assert permutation_to_table(pi) == w
        assert table_to_permutation(w) == pi

    @pytest.mark.parametrize("n", range(7))
    def test_round_trip(self, n):
        for pi in gen_permutations(n):
            assert table_to_permutation(permutation_to_table(pi)) == pi
        for w in gen_inversion_tables(n):
            assert permutation_to_table(table_to_permutation(w)) == w

    def test_inversions_complement_table_sum(self):
        for pi in gen_permutations(4):
            w = permutation_to_table(pi)
            inv = sum(1 for i, j in itertools.combinations(range(4), 2) if pi[i] > pi[j])
            assert inv == 6 - sum(w)


class TestIntervalMatrixMap:
    def test_worked_example(self):
        m = validate_matching([(1, 3), (2, 5), (4, 6)])
        assert matching_to_matrix(m).rows == ((1, 1), (0, 1))

    def test_identity_image(self):
        m = validate_matching([(1, 2), (3, 4), (5, 6)])
        assert matching_to_matrix(m).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_single_block(self):
        m = validate_matching([(1, 4), (2, 5), (3, 6)])
        assert matching_to_matrix(m).rows == ((3,),)

    def test_empty(self):
        assert matching_to_matrix(validate_matching([])).k == 0

    @pytest.mark.parametrize("n", range(6))
    def test_against_naive_oracle(self, n):
        for m in gen_matchings(n):
            assert matching_to_matrix(m).rows == naive_interval_matrix(m.arcs)

    def test_preimage_family(self):
        target = validate_matrix([[1, 1], [0, 1]])
        family = {
            arcset(m) for m in gen_matchings(3) if matching_to_matrix(m) == target
        }
        assert family == PREIMAGE_FAMILY


def repaired(arcs):
    """The arcs re-paired inside each maximal run of openers: closers, taken
    left to right, keep the run their opener is in but take its lowest
    opener still open."""
    openers = {o for o, _ in arcs}
    run_of, runs = {}, []
    for pos in range(1, 2 * len(arcs) + 1):
        if pos in openers:
            if pos - 1 not in openers:
                runs.append(deque())
            runs[-1].append(pos)
            run_of[pos] = runs[-1]
    return [(run_of[o].popleft(), c) for o, c in sorted(arcs, key=lambda arc: arc[1])]


class TestSurjectivityFromNoLeftNesting:
    """``thm_matrix_map_surjective`` reads only the matchings with no
    left-nesting: re-pairing inside opener runs maps every matching to one of
    them with the same matrix, so their image is the image of all."""

    @pytest.mark.parametrize("n", range(7))
    def test_images_equal_the_full_walk(self, n):
        every = {matching_to_matrix(m) for m in gen_matchings(n)}
        no_lne = generate("matchings", n, ("no_left_nesting",))
        no_lne = {matching_to_matrix(m) for m in no_lne}
        assert every == no_lne == set(gen_matrices(n))

    @staticmethod
    def check_repairing(m):
        r = validate_matching(repaired(m.arcs))
        assert naive_counts(r.arcs)["lne"] == 0 and not has_left_nesting(r)
        assert naive_interval_matrix(r.arcs) == naive_interval_matrix(m.arcs)
        assert matching_to_matrix(r) == matching_to_matrix(m)
        # matchings with no left-nesting are left as they are
        assert (r == m) == (naive_counts(m.arcs)["lne"] == 0)

    @pytest.mark.parametrize("n", range(7))
    def test_repairing_every_small_matching(self, n):
        for m in gen_matchings(n):
            self.check_repairing(m)

    def test_repairing_random_large_matchings(self):
        rng = random.Random(20121)
        for _ in range(40):
            points = list(range(1, 2 * rng.randint(20, 60) + 1))
            rng.shuffle(points)
            m = validate_matching(zip(points[::2], points[1::2]))
            assert naive_counts(m.arcs)["lne"] > 0
            self.check_repairing(m)


class TestMatrixPreimages:
    def test_no_neighbor_nesting_example(self):
        t = validate_matrix([[1, 1], [0, 1]])
        assert arcset(matrix_to_matching_no_neighbor_nesting(t)) == {(1, 3), (2, 5), (4, 6)}

    def test_no_neighbor_crossing_example(self):
        t = validate_matrix([[1, 1], [0, 1]])
        assert arcset(matrix_to_matching_no_neighbor_crossing(t)) == {(1, 6), (2, 3), (4, 5)}

    def test_zero_one_example(self):
        t = validate_matrix([[1, 1], [0, 1]])
        assert arcset(zero_one_matrix_to_matching(t)) == {(1, 3), (2, 6), (4, 5)}

    def test_identity_maps_to_disjoint(self):
        t = validate_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        expected = {(1, 2), (3, 4), (5, 6)}
        assert arcset(matrix_to_matching_no_neighbor_nesting(t)) == expected
        assert arcset(matrix_to_matching_no_neighbor_crossing(t)) == expected
        assert arcset(zero_one_matrix_to_matching(t)) == expected

    def test_single_block(self):
        t = validate_matrix([[3]])
        assert arcset(matrix_to_matching_no_neighbor_nesting(t)) == {(1, 4), (2, 5), (3, 6)}
        assert arcset(matrix_to_matching_no_neighbor_crossing(t)) == {(3, 4), (2, 5), (1, 6)}

    def test_zero_one_rejects_larger_entries(self):
        with pytest.raises(NotZeroOne):
            zero_one_matrix_to_matching(validate_matrix([[2]]))

    @pytest.mark.parametrize("n", range(5))
    def test_round_trips_over_all_matrices(self, n):
        for t in gen_matrices(n):
            m = matrix_to_matching_no_neighbor_nesting(t)
            rec = arc_statistics(m)
            assert rec.lne == 0 and rec.rne == 0
            assert matching_to_matrix(m) == t

            m = matrix_to_matching_no_neighbor_crossing(t)
            rec = arc_statistics(m)
            assert rec.lcr == 0 and rec.rcr == 0
            assert matching_to_matrix(m) == t

            if is_zero_one(t):
                m = zero_one_matrix_to_matching(t)
                rec = arc_statistics(m)
                assert rec.lne == 0 and rec.rcr == 0
                assert matching_to_matrix(m) == t


def raw_table(arcs):
    """a_i = closers left of the i-th arc's opener, arcs taken by closer."""
    closers = sorted(c for _, c in arcs)
    return tuple(sum(c < o for c in closers) for o, _ in sorted(arcs, key=lambda a: a[1]))


def first_raw_left_pair(arcs, kind):
    """First arc pair with adjacent openers of the given kind, by opener."""
    by_opener = sorted(arcs)
    for a, b in zip(by_opener, by_opener[1:]):
        if b[0] == a[0] + 1 and (a[1] > b[1]) == (kind == "nest"):
            return (a, b)
    return None


class TestAgainstRawArcOracles:
    """Pin which bijection each map is, from raw arcs and brute force."""

    @pytest.mark.parametrize("forward,count", [
        (table_to_matching, "lne"),
        (table_to_crossfree_matching, "lcr"),
    ])
    @pytest.mark.parametrize("n", range(7))
    def test_insertion_is_the_unique_table_preimage(self, forward, count, n):
        by_table = {}
        for arcs in naive_matchings(n):
            if naive_counts(arcs)[count] == 0:
                w = raw_table(arcs)
                assert w not in by_table
                by_table[w] = arcs
        assert len(by_table) == math.factorial(n)
        for w in gen_inversion_tables(n):
            assert arcset(forward(w)) == by_table[w]

    @pytest.mark.parametrize("inverse,error,kind", [
        (matching_to_table, HasLeftNesting, "nest"),
        (crossfree_matching_to_table, HasLeftCrossing, "cross"),
    ])
    @pytest.mark.parametrize("n", range(7))
    def test_rejection_names_first_pair_by_opener(self, inverse, error, kind, n):
        for arcs in naive_matchings(n):
            bad = first_raw_left_pair(arcs, kind)
            m = validate_matching(arcs)
            if bad is None:
                assert inverse(m) == raw_table(arcs)
            else:
                with pytest.raises(error) as info:
                    inverse(m)
                assert info.value.arcs == bad

    @pytest.mark.parametrize("preimage,counts", [
        (matrix_to_matching_no_neighbor_nesting, ("lne", "rne")),
        (matrix_to_matching_no_neighbor_crossing, ("lcr", "rcr")),
        (zero_one_matrix_to_matching, ("lne", "rcr")),
    ])
    @pytest.mark.parametrize("n", range(6))
    def test_preimage_is_the_unique_restricted_matching(self, preimage, counts, n):
        by_matrix = {}
        for arcs in naive_matchings(n):
            record = naive_counts(arcs)
            if all(record[name] == 0 for name in counts):
                by_matrix.setdefault(naive_interval_matrix(arcs), []).append(arcs)
        for rows in naive_matrices(n):
            t = validate_matrix(rows)
            if preimage is zero_one_matrix_to_matching and not is_zero_one(t):
                assert rows not in by_matrix
                with pytest.raises(NotZeroOne):
                    preimage(t)
            else:
                assert by_matrix[rows] == [arcset(preimage(t))]


class TestLargeRandomTables:
    """Sizes beyond exhaustion, judged object by object by the raw-arc oracles."""

    @pytest.mark.parametrize("forward,backward,count", [
        (table_to_matching, matching_to_table, "lne"),
        (table_to_crossfree_matching, crossfree_matching_to_table, "lcr"),
    ])
    def test_insertions_round_trip_into_their_class(self, forward, backward, count):
        for w in random_tables(20101):
            m = forward(w)
            assert naive_counts(m.arcs)[count] == 0
            assert raw_table(m.arcs) == w
            assert backward(m) == w

    @pytest.mark.parametrize("preimage,counts", [
        (matrix_to_matching_no_neighbor_nesting, ("lne", "rne")),
        (matrix_to_matching_no_neighbor_crossing, ("lcr", "rcr")),
    ])
    def test_interval_matrices_round_trip(self, preimage, counts):
        for w in random_tables(20102):
            for m in (table_to_matching(w), table_to_crossfree_matching(w)):
                t = matching_to_matrix(m)
                assert t.rows == naive_interval_matrix(m.arcs)
                back = preimage(t)
                record = naive_counts(back.arcs)
                assert all(record[name] == 0 for name in counts)
                assert matching_to_matrix(back) == t


class TestLargeRandomMatrices:
    """Matrices drawn cell by cell, judged by the raw-arc oracles."""

    PREIMAGES = [
        (matrix_to_matching_no_neighbor_nesting, ("lne", "rne")),
        (matrix_to_matching_no_neighbor_crossing, ("lcr", "rcr")),
    ]

    @staticmethod
    def round_trip(rows, preimage, counts):
        t = validate_matrix(rows)
        m = preimage(t)
        assert m.n == t.total
        record = naive_counts(m.arcs)
        assert all(record[name] == 0 for name in counts), (rows, preimage)
        assert naive_interval_matrix(m.arcs) == rows
        assert matching_to_matrix(m) == t

    @pytest.mark.parametrize("preimage,counts", PREIMAGES)
    def test_neighbour_preimages_round_trip(self, preimage, counts):
        for rows in random_matrices(20111):
            self.round_trip(rows, preimage, counts)

    def test_zero_one_matrices_round_trip_through_all_three(self):
        preimages = self.PREIMAGES + [(zero_one_matrix_to_matching, ("lne", "rcr"))]
        for rows in random_matrices(20112, zero_one=True):
            assert is_zero_one(validate_matrix(rows))
            for preimage, counts in preimages:
                self.round_trip(rows, preimage, counts)

    def test_draws_cover_sizes_and_shapes(self):
        drawn = random_matrices(20111) + random_matrices(20112, zero_one=True)
        totals = {sum(map(sum, rows)) for rows in drawn}
        assert min(totals) >= 10 and max(totals) <= 30 and len(totals) > 5
        assert len({len(rows) for rows in drawn}) > 5
        assert any(v > 1 for rows in drawn for row in rows for v in row)


class TestMatrixImagePredicates:
    def test_small_examples(self):
        assert matrix_is_nonnesting_image(validate_matrix([[1, 1], [0, 1]]))
        assert matrix_is_noncrossing_image(validate_matrix([[1, 1], [0, 1]]))
        assert matrix_is_nonnesting_image(validate_matrix([[3]]))
        assert matrix_is_noncrossing_image(validate_matrix([[3]]))
        # the identity is the image of the disjoint matching, which neither
        # nests nor crosses, so it satisfies both predicates
        ident = validate_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert matrix_is_nonnesting_image(ident)
        assert matrix_is_noncrossing_image(ident)

    def test_forbidden_patterns(self):
        assert not matrix_is_nonnesting_image(
            validate_matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
        assert not matrix_is_noncrossing_image(
            validate_matrix([[1, 1, 0], [0, 0, 1], [0, 0, 1]]))

    @pytest.mark.parametrize("n", range(5))
    def test_predicates_match_image_sets(self, n):
        matrices = list(gen_matrices(n))
        image_nonnesting = set()
        image_noncrossing = set()
        for m in gen_matchings(n):
            rec = arc_statistics(m)
            if rec.ne == 0:
                image_nonnesting.add(matching_to_matrix(m))
            if rec.cr == 0:
                image_noncrossing.add(matching_to_matrix(m))
        assert image_nonnesting == {t for t in matrices if matrix_is_nonnesting_image(t)}
        assert image_noncrossing == {t for t in matrices if matrix_is_noncrossing_image(t)}


class TestCanonicalLabeling:
    def six_element_poset(self):
        # elements a..f as 1..6: c covers a and b, d covers c and e, f isolated
        return Poset.from_relations(6, [(1, 3), (2, 3), (3, 4), (5, 4)])

    def test_six_element_example(self):
        assert canonical_labels(self.six_element_poset()) == (1, 2, 4, 6, 3, 5)

    def test_relabeled_poset_is_factorial_and_canonical(self):
        q = canonical_labeling(self.six_element_poset())
        assert is_factorial(q)
        assert condition_one(q)

    def test_antichain_and_chain_fixed(self):
        antichain = Poset.from_relations(3, [])
        assert canonical_labels(antichain) == (1, 2, 3)
        chain = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert canonical_labels(chain) == (1, 2, 3)

    def test_rejects_two_plus_two(self):
        with pytest.raises(NotTwoPlusTwoFree):
            canonical_labels(Poset.from_relations(4, [(1, 2), (3, 4)]))

    @pytest.mark.parametrize("n", range(5))
    def test_unique_labeling_recovered(self, n):
        from fishburn.enumeration import gen_factorial_posets

        targets = [p for p in gen_factorial_posets(n) if condition_one(p)]
        for p in targets:
            for sigma in itertools.permutations(range(1, n + 1)):
                assert canonical_labeling(relabel_poset(p, sigma)) == p

    @pytest.mark.parametrize("sigma", [[2, 2, 3], [1, 5, 2], [1, 2], [1, 2, 3, 4]])
    def test_relabel_rejects_non_permutations(self, sigma):
        # [2, 2, 3] used to give the reflexive pair (2, 2), and [1, 5, 2]
        # the pair (1, 5) on n = 3
        with pytest.raises(NotAPermutation):
            relabel_poset(Poset.from_relations(3, [(1, 2)]), sigma)

    @pytest.mark.parametrize("n", range(5))
    def test_domain_check_agrees_with_brute_force(self, n):
        for p in gen_natural_posets(n):
            for sigma in itertools.permutations(range(1, n + 1)):
                q = relabel_poset(p, sigma)
                if is_two_plus_two_free(q):
                    canonical_labels(q)
                else:
                    with pytest.raises(NotTwoPlusTwoFree):
                        canonical_labels(q)

    def test_random_large_relabelings_recovered(self):
        rng = random.Random(20100)
        for _ in range(40):
            n = rng.randint(30, 50)
            c = canonical_labeling(table_to_poset([rng.randint(0, i) for i in range(n)]))
            assert is_factorial(c) and condition_one(c)
            sigma = rng.sample(range(1, n + 1), n)
            assert canonical_labeling(relabel_poset(c, sigma)) == c
