import copy
import functools
import itertools
import os
import pickle
import random
import re
import subprocess
import sys

import pytest

import fishburn
from fishburn import (
    CheckReport,
    DistributionTable,
    DuplicateEndpoint,
    EndpointOutOfRange,
    EntryOutOfRange,
    InvalidMatrix,
    InvalidObject,
    Matching,
    NegativeEntry,
    NestCrossRecord,
    NotAPartialOrder,
    NotAPerfectMatching,
    NotUpperTriangular,
    Poset,
    TriangularMatrix,
    ZeroRowOrColumn,
    arc_statistics,
    count_gap_nestings,
    is_zero_one,
    relabel_poset,
    rne_poset,
    table_to_poset,
    validate_table,
)
from fishburn.objects import (
    condition_one,
    condition_one_var,
    has_crossing,
    has_left_crossing,
    has_left_nesting,
    has_nesting,
    has_right_crossing,
    has_right_nesting,
    is_ascent_correcting,
    is_descent_correcting,
    is_factorial,
    is_two_plus_two_free,
    neighbor_counts,
    nestings_and_crossings,
)
from fishburn.enumeration import (
    PREDICATES,
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_natural_posets,
)
from fishburn.jsonio import encode

from helpers import (
    condition_one_by_counts,
    is_two_plus_two_free_by_inclusion,
    naive_counts,
    naive_matchings,
    naive_natural_posets_by_filter,
    pre_count,
    quadratic_ascent_correcting,
    quadratic_descent_correcting,
    suc_count,
)


class TestValidateMatching:
    def test_canonical_order_by_closer(self):
        m = Matching.from_pairs([[1, 3], [2, 7], [4, 6], [5, 8]])
        assert m.arcs == ((1, 3), (4, 6), (2, 7), (5, 8))
        assert m.n == 4

    def test_pairs_reoriented(self):
        m = Matching.from_pairs([(4, 1), (3, 2)])
        assert m.arcs == ((2, 3), (1, 4))

    def test_empty(self):
        m = Matching.from_pairs([])
        assert m.n == 0 and m.arcs == ()

    def test_duplicate_endpoint(self):
        with pytest.raises(DuplicateEndpoint):
            Matching.from_pairs([[1, 2], [2, 3]])
        with pytest.raises(DuplicateEndpoint):
            Matching.from_pairs([[1, 1]])

    def test_out_of_range(self):
        with pytest.raises(EndpointOutOfRange):
            Matching.from_pairs([[0, 3], [1, 2]])
        with pytest.raises(EndpointOutOfRange):
            Matching.from_pairs([[1, 5]])

    def test_malformed(self):
        with pytest.raises(NotAPerfectMatching):
            Matching.from_pairs([[1, 2, 3]])
        with pytest.raises(NotAPerfectMatching):
            Matching.from_pairs([["a", "b"]])


class TestArcStatistics:
    def test_single_right_nesting(self):
        rec = arc_statistics(Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8)]))
        assert (rec.ne, rec.lne, rec.rne) == (1, 0, 1)

    def test_disjoint_arcs(self):
        rec = arc_statistics(Matching.from_pairs([(1, 2), (3, 4)]))
        assert rec == type(rec)(0, 0, 0, 0, 0, 0)

    def test_triple_crossing(self):
        rec = arc_statistics(Matching.from_pairs([(1, 4), (2, 5), (3, 6)]))
        assert (rec.cr, rec.ne, rec.lcr, rec.rcr) == (3, 0, 2, 2)

    @pytest.mark.parametrize("n", range(5))
    def test_against_naive_oracle(self, n):
        for arcs in naive_matchings(n):
            rec = arc_statistics(Matching.from_pairs(arcs))
            expected = naive_counts(arcs)
            assert (rec.ne, rec.cr, rec.lne, rec.rne, rec.lcr, rec.rcr) == (
                expected["ne"], expected["cr"], expected["lne"],
                expected["rne"], expected["lcr"], expected["rcr"])

    @pytest.mark.parametrize("n", range(6))
    def test_pair_classification_is_total(self, n):
        # nestings + crossings + alignments exhaust all arc pairs
        for m in gen_matchings(n):
            rec = arc_statistics(m)
            align = sum(
                1 for (o1, c1), (o2, c2) in itertools.combinations(sorted(m.arcs), 2)
                if c1 < o2
            )
            assert rec.ne + rec.cr + align == n * (n - 1) // 2


def random_matching(rng, n):
    """A matching of [2n]: a shuffle of the points, paired off in turn."""
    points = list(range(1, 2 * n + 1))
    rng.shuffle(points)
    return Matching.from_pairs(zip(points[::2], points[1::2]))


class TestNestingsAndCrossings:
    """The O(n log n) kernel and the neighbour scan against the pairwise
    naive_counts."""

    def check(self, m):
        rec = naive_counts(m.arcs)
        assert nestings_and_crossings(m) == (rec["ne"], rec["cr"]), m
        assert neighbor_counts(m) == (rec["lne"], rec["rne"], rec["lcr"], rec["rcr"]), m
        assert (has_nesting(m), has_crossing(m)) == (rec["ne"] > 0, rec["cr"] > 0)

    @pytest.mark.parametrize("n", range(7))
    def test_every_small_matching(self, n):
        for m in gen_matchings(n):
            self.check(m)

    def test_seeded_large_matchings(self):
        rng = random.Random(20110)
        for _ in range(40):
            self.check(random_matching(rng, rng.randint(20, 60)))

    @pytest.mark.parametrize("n", range(7))
    def test_early_exit_tests_agree_with_the_sweep(self, n):
        # has_nesting and has_crossing stop at the first closer out of order
        for m in gen_matchings(n):
            ne, cr = nestings_and_crossings(m)
            assert (has_nesting(m), has_crossing(m)) == (ne > 0, cr > 0), m


# One value of each value class, with the repr the dataclass it replaced gave.
VALUES = [
    (Matching.from_pairs([(1, 3), (2, 4)]), "Matching(arcs=((1, 3), (2, 4)))"),
    (Poset.from_relations(3, [(1, 2), (1, 3)]), "Poset(pre_masks=(0, 1, 1))"),
    (NestCrossRecord(1, 3, 0, 1, 2, 1),
     "NestCrossRecord(ne=1, cr=3, lne=0, rne=1, lcr=2, rcr=1)"),
    (TriangularMatrix(((1, 1), (0, 2))), "TriangularMatrix(rows=((1, 1), (0, 2)))"),
    (DistributionTable(("ne", "cr"), {(0, 1): 2, (1, 0): 1}),
     "DistributionTable(stat_names=('ne', 'cr'), rows={(0, 1): 2, (1, 0): 1})"),
    (CheckReport("thm", "theorem", 3, "fail", {"n": 2, "table": [0, 1]}, 0.25, "detail"),
     "CheckReport(check='thm', kind='theorem', n_max=3, verdict='fail', "
     "witness={'n': 2, 'table': [0, 1]}, elapsed=0.25, detail='detail')"),
    (CheckReport("c", "conjecture", None, "pass", None, 1.5),
     "CheckReport(check='c', kind='conjecture', n_max=None, verdict='pass', "
     "witness=None, elapsed=1.5, detail=None)"),
]
FROZEN = [obj for obj, _ in VALUES if not isinstance(obj, CheckReport)]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:                    # a report, or a table's dict
        return str(exc)


class TestSlottedMatching:
    """Built unchecked from closer-sorted arcs, a matching is the value the
    validating from_pairs gives, with every field filled and none writable.
    Every value class keeps the ``==``, hash, ``repr``, copies and
    immutability of the dataclass it replaced."""

    @pytest.mark.parametrize("n", range(6))
    def test_value_semantics(self, n):
        for arcs in naive_matchings(n):
            m = Matching(tuple(sorted(arcs, key=lambda arc: arc[1])))
            v = Matching.from_pairs(arcs)
            assert m == v and hash(m) == hash(v) and m.arcs == v.arcs
            assert repr(m) == f"Matching(arcs={m.arcs!r})"
            old_partner = {o: c for o, c in arcs} | {c: o for o, c in arcs}
            assert len(m.partner) == 2 * n + 2 and m.partner[0] == m.partner[-1] == 0
            assert all(m.partner[x] == y for x, y in old_partner.items())

    def test_partner_is_the_one_slot(self):
        assert Matching.__slots__ == Matching._fields == ("partner",)
        for n in range(6):
            for m in gen_matchings(n):
                assert not hasattr(m, "__dict__")
                assert Matching.from_partner(m.partner) == m
                assert repr(m) == f"Matching(arcs={m.arcs!r})"
                for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                    assert type(twin) is Matching and twin.partner == m.partner

    def test_fields_cannot_be_assigned(self):
        m = Matching.from_pairs([(1, 3), (2, 4)])
        for field in ("arcs", "openers", "closers", "partner", "other"):
            with pytest.raises(AttributeError):
                setattr(m, field, ())
            with pytest.raises(AttributeError):
                delattr(m, field)
        assert m.arcs == ((1, 3), (2, 4)) and not hasattr(m, "__dict__")

    def test_unequal_to_other_types(self):
        m = Matching.from_pairs([(1, 2)])
        assert m != ((1, 2),) and m != Poset(1, ())

    @pytest.mark.parametrize("obj", [obj for obj, _ in VALUES])
    def test_equal_field_by_field_and_unequal_to_other_types(self, obj):
        assert obj.__eq__(obj._values()) is NotImplemented and obj != obj._values()
        for other, _ in VALUES:
            assert (obj == other) == (other is obj) and (obj != other) == (other is not obj)
        for field in obj._fields:
            variant = copy.copy(obj)
            assert variant == obj and variant is not obj
            object.__setattr__(variant, field, "changed")
            assert variant != obj and not variant == obj

    @pytest.mark.parametrize("obj,text", VALUES)
    def test_repr_is_the_dataclass_repr(self, obj, text):
        assert repr(obj) == text

    def test_hash_is_the_field_tuple_hash(self):
        for m in gen_matchings(4):
            assert hash(m) == hash((m.partner,))
        for p in gen_natural_posets(4):
            assert hash(p) == hash((p.pre_masks,))
        for obj in FROZEN:
            assert hash_or_error(obj) == hash_or_error(obj._values())

    @pytest.mark.parametrize("obj", FROZEN)
    def test_frozen_fields_cannot_be_assigned(self, obj):
        before = repr(obj)
        for field in (*obj._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, field, ())
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert repr(obj) == before and not hasattr(obj, "__dict__")

    def test_reports_are_mutable_and_unhashable(self):
        report = CheckReport("c", "conjecture", 3, "pass", None, 1.5)
        report.verdict = "fail"
        assert report == CheckReport("c", "conjecture", 3, "fail", None, 1.5)
        with pytest.raises(TypeError):
            hash(report)

    @pytest.mark.parametrize("obj", [obj for obj, _ in VALUES])
    def test_copies_and_pickles_are_equal_values(self, obj):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and repr(twin) == repr(obj) and type(twin) is type(obj)
            assert hash_or_error(twin) == hash_or_error(obj)

    @pytest.mark.parametrize("cls", [Matching, Poset])
    def test_no_cached_properties(self, cls):
        assert not any(isinstance(attr, functools.cached_property)
                       for attr in vars(cls).values())


class TestNeighbourScanners:
    @pytest.mark.parametrize("n", range(7))
    def test_against_naive_oracle(self, n):
        scanners = {"lne": has_left_nesting, "lcr": has_left_crossing,
                    "rne": has_right_nesting, "rcr": has_right_crossing}
        for arcs in naive_matchings(n):
            m = Matching.from_pairs(arcs)
            expected = naive_counts(arcs)
            for name, scanner in scanners.items():
                assert scanner(m) == (expected[name] > 0), (arcs, name)


class TestGapNestings:
    def test_no_left_nesting_example(self):
        m = Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8)])
        assert count_gap_nestings(m, 1) == 0

    def test_gap_two(self):
        m = Matching.from_pairs([(1, 6), (3, 4), (2, 5)])
        assert count_gap_nestings(m, 2) == 3

    @pytest.mark.parametrize("n", range(7))
    def test_gap_one_is_lne_and_large_gap_is_ne(self, n):
        for m in gen_matchings(n):
            rec = arc_statistics(m)
            assert count_gap_nestings(m, 1) == rec.lne
            assert count_gap_nestings(m, 2 * n + 1) == rec.ne

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            count_gap_nestings(Matching(()), 0)


def table_predicate_values(w):
    """Every ``PREDICATES`` entry of inversion tables on w, by name."""
    return {name: test(w) for name, (classes, test) in PREDICATES.items()
            if "inversion_tables" in classes}


class TestInversionTables:
    def test_valid(self):
        assert validate_table([0, 1, 0, 1]) == (0, 1, 0, 1)
        assert validate_table([]) == ()

    def test_out_of_range(self):
        with pytest.raises(EntryOutOfRange):
            validate_table([0, 2])
        with pytest.raises(EntryOutOfRange):
            validate_table([1])
        with pytest.raises(EntryOutOfRange):
            validate_table([0, -1])

    def test_sequence_predicates(self):
        assert table_predicate_values((0, 1, 2)) == {
            "descent_correcting": True, "ascent_correcting": True}
        assert table_predicate_values((0, 1, 0))["descent_correcting"] is False
        assert table_predicate_values((0, 0, 1))["ascent_correcting"] is False
        assert table_predicate_values((0, 0, 0)) == {
            "descent_correcting": True, "ascent_correcting": True}

    @pytest.mark.parametrize("n", range(8))
    def test_correcting_rules_equal_quadratic_scans_on_tables(self, n):
        for w in gen_inversion_tables(n):
            assert is_descent_correcting(w) == quadratic_descent_correcting(w), w
            assert is_ascent_correcting(w) == quadratic_ascent_correcting(w), w

    def test_correcting_rules_equal_quadratic_scans_off_tables(self):
        # entries up to n + 1, so a_{i+1} = i + 1 occurs and the ascent
        # rule's exclusion clause fires
        rng = random.Random(23)
        fired = 0
        for _ in range(3000):
            n = rng.randint(0, 9)
            w = tuple(rng.randint(0, n + 1) for _ in range(n))
            fired += any(a < b == i + 1 for i, (a, b) in enumerate(zip(w, w[1:]), 1))
            assert is_descent_correcting(w) == quadratic_descent_correcting(w), w
            assert is_ascent_correcting(w) == quadratic_ascent_correcting(w), w
        assert fired


class TestPoset:
    def test_closure_computed(self):
        p = Poset.from_relations(4, [(1, 2), (2, 4)])
        assert p.less == frozenset({(1, 2), (2, 4), (1, 4)})

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            Poset.from_relations(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(NotAPartialOrder):
            Poset.from_relations(2, [(1, 1)])

    def test_pre_suc(self):
        p = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert p.pre_vector == (0, 1, 2)
        assert p.pre_masks == (0b000, 0b001, 0b011)
        assert p.suc_masks == (0b110, 0b100, 0b000)

    @pytest.mark.parametrize("n", range(4))
    def test_chain_masks_count_elements_1_to_n(self, n):
        # element j of the chain 1 < ... < n has j - 1 elements below it and
        # n - j above, read from the masks alone
        p = Poset.from_relations(n, [(i, i + 1) for i in range(1, n)])
        assert p.pre_vector == tuple(range(n))
        assert [pre_count(p, j) for j in range(1, n + 1)] == list(range(n))
        assert [suc_count(p, j) for j in range(1, n + 1)] == list(range(n - 1, -1, -1))
        assert [mask.bit_count() for mask in p.suc_masks] == list(range(n - 1, -1, -1))

    def test_predecessor_masks_are_the_one_slot(self):
        p = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert Poset.__slots__ == ("pre_masks",)
        assert not hasattr(p, "__dict__")
        assert p == Poset.from_pre_masks(p.pre_masks)
        with pytest.raises(AttributeError):
            p.pre_masks = ()

    @pytest.mark.parametrize("n,pairs,error,message", [
        ("three", [], InvalidObject, "poset size 'three' is not a nonnegative integer"),
        (True, [], InvalidObject, "poset size True is not a nonnegative integer"),
        (-3, [], InvalidObject, "poset size -3 is not a nonnegative integer"),
        (3, [(1.5, 2)], InvalidObject, "pair (1.5, 2) has a non-integer element"),
        (3, [(True, 2)], InvalidObject, "pair (True, 2) has a non-integer element"),
        (2, [(1, 1)], NotAPartialOrder, "reflexive pair (1, 1)"),
        (3, [(0, 2)], NotAPartialOrder, "element outside [1, 3] in (0, 2)"),
        (3, [(1, 4)], NotAPartialOrder, "element outside [1, 3] in (1, 4)"),
        (3, [(1, 2), (2, 3), (3, 1)], NotAPartialOrder, "cycle through element 1"),
        (2, [(1, 2), (2, 1)], NotAPartialOrder, "cycle through element 1"),
        (2, [(1,)], InvalidObject, "relation (1,) is not a pair"),
        (3, [5], InvalidObject, "relation 5 is not a pair"),
        (3, [(1, 2, 3)], InvalidObject, "relation (1, 2, 3) is not a pair"),
    ])
    def test_bad_relations_keep_their_errors(self, n, pairs, error, message):
        with pytest.raises(error) as info:
            Poset.from_relations(n, pairs)
        assert type(info.value) is error and str(info.value) == message


def _same_poset(p, less):
    """The mask-built ``p`` agrees with ``Poset(n, less)`` and with views
    computed from the relation ``less`` directly."""
    n = p.n
    q = Poset(n, less)
    assert p == q and hash(p) == hash(q)
    assert p.less == q.less == less
    succ = tuple(sum(1 << (j - 1) for i2, j in less if i2 == i) for i in range(1, n + 1))
    assert p.suc_masks == q.suc_masks == succ
    pairs = {"n": n, "less": [list(pair) for pair in sorted(less)]}
    assert encode("poset", p) == encode("poset", q) == pairs


class TestPosetMasks:
    @pytest.mark.parametrize("n", range(6))
    def test_natural_posets_agree_with_their_relations(self, n):
        relations = {Poset(n, rel): rel for rel in naive_natural_posets_by_filter(n)}
        seen = 0
        for p in gen_natural_posets(n):
            _same_poset(p, relations[p])
            seen += 1
        assert seen == len(relations)

    @pytest.mark.parametrize("n", range(7))
    def test_factorial_posets_agree_with_their_relations(self, n):
        for w in gen_inversion_tables(n):
            less = frozenset((i, k) for k, a in enumerate(w, start=1) for i in range(1, a + 1))
            _same_poset(table_to_poset(w), less)

    def test_from_pre_masks_equals_the_relation_built_poset(self):
        p = Poset.from_pre_masks((0, 1, 3))
        assert p.n == 3 and p == Poset.from_relations(3, [(1, 2), (2, 3)])
        assert Poset.from_pre_masks(()) == Poset(0, ()) and Poset(0, ()).n == 0


# Builds 4,000 posets of one n = 8 table, keeps their pre_vector and prints
# the small-object allocator's block table before and after.
_BLOCKS_CHILD = """
import sys
from fishburn.bijections import table_to_poset
sys._debugmallocstats()
posets = [table_to_poset(tuple(range(8))) for _ in range(4000)]
vectors = [p.pre_vector for p in posets]
sys._debugmallocstats()
"""


class TestExactTuples:
    def test_poset_tuples_take_blocks_of_their_size(self):
        # tuple(genexpr) starts at 10 slots and shrinks in place, so an
        # 8-tuple built that way keeps the block of a 10-tuple.  tracemalloc
        # and sys.getsizeof both report the shrunk size; the allocator's
        # block table shows the block each tuple holds.
        package_root = os.path.dirname(os.path.dirname(fishburn.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        for name in ("PYTHONMALLOC", "PYTHONDEVMODE"):
            env.pop(name, None)
        child = subprocess.run([sys.executable, "-c", _BLOCKS_CHILD],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        tables = child.stderr.split("Small block threshold")[1:]
        if len(tables) != 2:
            pytest.skip("this interpreter has no small-object allocator table")
        before, after = ({int(size): int(used) for size, used in re.findall(
            r"^\s*\d+\s+(\d+)\s+\d+\s+(\d+)\s+\d+\s*$", table, re.M)}
            for table in tables)
        exact, spare = (-(-sys.getsizeof(tuple(range(k))) // 16) * 16 for k in (8, 10))
        assert exact < spare
        # 8,000 tuples, the pre_masks and pre_vector of every poset
        assert after[exact] - before.get(exact, 0) > 6000
        assert after.get(spare, 0) - before.get(spare, 0) < 2000


def poset_predicate_values(p):
    """Every ``PREDICATES`` entry of posets on p, in table order, and rne_poset."""
    return {**{name: test(p) for name, (classes, test) in PREDICATES.items()
               if "natural_posets" in classes}, "rne_poset": rne_poset(p)}


class TestPosetPredicates:
    def test_chain(self):
        p = Poset.from_relations(3, [(1, 2), (2, 3)])
        record = poset_predicate_values(p)
        assert list(record.items()) == [
            ("natural", True),
            ("factorial", True),
            ("dually_factorial", True),
            ("two_plus_two_free", True),
            ("three_plus_one_free", True),
            ("condition_one", True),
            ("condition_one_var", True),
            ("rne_poset", 0),
        ]

    def test_not_dually_factorial(self):
        # single relation 1 below 2 with 3 isolated: 3 > 2 above 1 but 3 not above 1
        p = Poset.from_relations(3, [(1, 2)])
        record = poset_predicate_values(p)
        assert record["factorial"] is True
        assert record["dually_factorial"] is False
        assert record["condition_one"] is False
        assert record["rne_poset"] == 1

    def test_chain_plus_isolated_point(self):
        # chain 1 < 2 < 4 with 3 isolated: the smallest factorial poset that
        # meets the neighbor rule without being dually factorial
        p = Poset.from_relations(4, [(1, 2), (2, 4)])
        record = poset_predicate_values(p)
        assert record["factorial"] is True
        assert record["condition_one"] is True
        assert record["dually_factorial"] is False
        assert record["three_plus_one_free"] is False
        assert record["two_plus_two_free"] is True

    def test_two_plus_two(self):
        p = Poset.from_relations(4, [(1, 2), (3, 4)])
        assert is_two_plus_two_free(p) is False

    @pytest.mark.parametrize("n", range(6))
    def test_freeness_implementations_agree(self, n):
        for p in gen_natural_posets(n):
            assert is_two_plus_two_free(p) == is_two_plus_two_free_by_inclusion(p)

    @pytest.mark.parametrize("n", range(6))
    def test_factorial_posets_are_two_plus_two_free(self, n):
        for p in gen_factorial_posets(n):
            assert is_factorial(p)
            assert is_two_plus_two_free(p)

    @pytest.mark.parametrize("n", range(7))
    def test_condition_one_equivalent_to_variant(self, n):
        for p in gen_factorial_posets(n):
            assert condition_one(p) == condition_one_var(p)

    def test_successor_views_against_counts_and_relations(self):
        # condition_one against the body it replaced, and suc_masks against
        # successor masks rebuilt from less
        values = set()
        for n in range(7):
            for p in gen_natural_posets(n):
                suc = [0] * n
                for i, j in p.less:
                    suc[i - 1] |= 1 << (j - 1)
                assert p.suc_masks == tuple(suc), p.pre_masks
                values.add(condition_one(p))
                assert condition_one(p) == condition_one_by_counts(p), p.pre_masks
        assert values == {True, False}

    @pytest.mark.parametrize("n", range(6))
    def test_dual_closure_against_naive_oracle(self, n):
        from fishburn.objects import is_dually_factorial
        from helpers import naive_dually_factorial

        for p in gen_natural_posets(n):
            assert is_dually_factorial(p) == naive_dually_factorial(n, p.less)

    @pytest.mark.parametrize("n", range(6))
    def test_three_plus_one_against_naive_oracle(self, n):
        from fishburn.objects import is_three_plus_one_free
        from helpers import naive_has_three_plus_one

        for p in gen_natural_posets(n):
            assert is_three_plus_one_free(p) == (not naive_has_three_plus_one(n, p.less))

    @pytest.mark.parametrize("n", range(5))
    def test_mask_predicates_on_every_labelling(self, n):
        # every poset on [n] is a relabelling of a naturally labelled one
        from fishburn.objects import is_dually_factorial, is_natural, is_three_plus_one_free
        from helpers import naive_dually_factorial, naive_has_three_plus_one

        for p in gen_natural_posets(n):
            for sigma in itertools.permutations(range(1, n + 1)):
                q = relabel_poset(p, sigma)
                less = frozenset((sigma[i - 1], sigma[j - 1]) for i, j in p.less)
                assert q.less == less
                assert is_natural(q) == all(i < j for i, j in less)
                assert is_dually_factorial(q) == naive_dually_factorial(n, less)
                assert is_three_plus_one_free(q) == (not naive_has_three_plus_one(n, less))


class TestTriangularMatrix:
    def test_valid(self):
        t = TriangularMatrix.from_rows([[1, 1], [0, 1]])
        assert t.k == 2 and t.total == 3
        assert is_zero_one(t)

    def test_single_cell(self):
        t = TriangularMatrix.from_rows([[3]])
        assert t.total == 3
        assert not is_zero_one(t)

    def test_zero_column(self):
        with pytest.raises(ZeroRowOrColumn):
            TriangularMatrix.from_rows([[0, 1], [0, 1]])

    def test_zero_row(self):
        with pytest.raises(ZeroRowOrColumn):
            TriangularMatrix.from_rows([[1, 0], [0, 0]])

    def test_not_upper_triangular(self):
        with pytest.raises(NotUpperTriangular):
            TriangularMatrix.from_rows([[1, 0], [1, 1]])

    def test_negative(self):
        with pytest.raises(NegativeEntry):
            TriangularMatrix.from_rows([[1, -1], [0, 1]])

    def test_not_square(self):
        with pytest.raises(InvalidMatrix):
            TriangularMatrix.from_rows([[1, 1], [0]])
        with pytest.raises(InvalidMatrix):
            TriangularMatrix.from_rows([[1, "x"], [0, 1]])

    def test_empty(self):
        t = TriangularMatrix(())
        assert t.k == 0 and t.total == 0

    def test_entries_are_integers_but_not_booleans(self):
        with pytest.raises(InvalidMatrix, match=r"entry \(1,1\) = True not an integer"):
            TriangularMatrix.from_rows([[True]])
        with pytest.raises(InvalidMatrix, match=r"entry \(1,2\) = 1.0 not an integer"):
            TriangularMatrix.from_rows([[1, 1.0], [0, 1]])

        class Count(int):
            pass
        assert TriangularMatrix.from_rows([[Count(2)]]).total == 2

    def test_first_fault_in_reading_order(self):
        # entries in row-major order, then zero rows, then zero columns
        with pytest.raises(NegativeEntry, match=r"\(1,2\)"):
            TriangularMatrix.from_rows([[0, -1], [1, "x"]])
        with pytest.raises(ZeroRowOrColumn, match="row 2 is all zeros"):
            TriangularMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(ZeroRowOrColumn, match="column 2 is all zeros"):
            TriangularMatrix.from_rows([[1, 0, 1], [0, 0, 1], [0, 0, 1]])
