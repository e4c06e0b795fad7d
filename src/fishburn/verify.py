"""Named executable checks: every counting theorem, structural proposition,
corollary and conjectured identity covered by this library becomes one
registered check with a pass/fail verdict and a minimal witness on failure.

Every check is two-sided.  A bijection check asserts round-trips, range
membership and count equality; a count check compares filter-enumeration
against a formula or recurrence computed independently of the generators.
Checks are pure and deterministic, so reports are identical across runs; a
failing check reports the smallest counterexample in generation order,
serialized so it can be fed back through the CLI.

A check is a ``REGISTRY`` row of per-n *facts*, each mapping n to a witness
or to None when it holds; ``_facts`` runs n on the outside and the facts on
the inside.  Facts read their data through two caches, keyed by a class and
a tuple of named ``PREDICATES`` entries: ``_objects`` for its members and
``_tally`` for statistic tallies, which come from ``enumeration.tally``, so
its ``counter`` alone decides which are counted without building an object.  The
permutations are counted by ``prefix_tallies`` from the one-line notation, never
by the inversion-table walk, so each side of an equidistribution is its own walk.

Conjecture checks are flagged ``conjecture`` even when they pass: passing
at small n is evidence, not proof.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Sequence

from . import jsonio
from .bijections import (
    _relabel,
    canonical_labeling,
    crossfree_matching_to_table,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    poset_to_matching,
    poset_to_matrix,
    poset_to_table,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
    zero_one_matrix_to_matching,
)
from .enumeration import (
    catalan,
    class_predicate,
    double_factorial,
    down_set_walk,
    eulerian_triangle_row,
    fishburn_numbers,
    generate,
    prefix_tallies,
    second_order_eulerian,
    tally,
)
from .errors import (
    FishburnError,
    UnknownCheck,
    UnknownClass,
    UnknownPredicate,
    UnknownStatistic,
)
from .objects import (
    Poset,
    Value,
    condition_one,
    condition_one_var,
    is_ascent_correcting,
    is_descent_correcting,
    is_dually_factorial,
    is_three_plus_one_free,
    is_two_plus_two_free,
    validate_size,
)
from .statistics import stat_tuple


class CheckReport(Value):
    """Outcome of one registered check over n = 0..n_max: ``kind`` is theorem,
    proposition, corollary or conjecture, ``verdict`` "pass" or "fail",
    and ``elapsed`` in seconds."""

    __slots__ = _fields = ("check", "kind", "n_max", "verdict", "witness", "elapsed", "detail")

    def __init__(self, check: str, kind: str, n_max: int, verdict: str,
                 witness: object | None, elapsed: float, detail: str | None = None):
        self._init(check, kind, n_max, verdict, witness, elapsed, detail)

    def to_json(self, timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "kind": self.kind,
            "n_max": self.n_max,
            "verdict": self.verdict,
            "witness": self.witness,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        if timing:
            out["elapsed_ms"] = round(self.elapsed * 1000, 3)
        return out


# The two cached accessors, whose values everything downstream treats as immutable
@lru_cache(maxsize=None)
def _objects(class_name: str, n: int, predicates: tuple[str, ...]) -> tuple:
    return tuple(generate(class_name, n, predicates))


@lru_cache(maxsize=None)
def _tally(class_name: str, n: int, predicates: tuple[str, ...], names: tuple[str, ...]):
    """The tally of a statistic tuple over the class filtered by the predicates:
    by ``prefix_tallies`` for the permutations, so no two sides of a check are
    one walk, and by ``tally`` for every other class."""
    if class_name == "permutations":
        generate(class_name, n, predicates)     # refuses the predicates
        return prefix_tallies(names)(n)
    return tally(class_name, n, predicates, names).rows


def _obj(class_name: str, obj) -> dict:
    return {"class": class_name, "object": jsonio.encode(class_name, obj)}


def _count_witness(n: int, what: str, expected: int, actual: int) -> dict:
    return {"n": n, "counted": what, "expected": expected, "actual": actual}


def _table_witness(n: int, w) -> dict:
    return {"n": n, "table": list(w)}


def _fishburn(n: int) -> int:
    return fishburn_numbers(n)[n]


# ---------------------------------------------------------------------------
# The engine: facts and the builders that make them
# ---------------------------------------------------------------------------

def _facts(*facts, start: int = 0):
    """The registry function for a list of facts: n outside, facts inside.  A
    domain error raised by a fact fails it at that n; an ``Unknown*`` lookup
    error is a misnamed registry row, and propagates."""
    def check(n_max: int):
        for n in range(start, n_max + 1):
            for fact in facts:
                try:
                    witness = fact(n)
                except (UnknownCheck, UnknownClass, UnknownPredicate, UnknownStatistic):
                    raise
                except FishburnError as error:
                    witness = {"n": n, "error": f"{type(error).__name__}: {error}"}
                if witness is not None:
                    return False, witness, None
        return True, None, None
    return check


def _counts(expected_of: Callable[[int], int], *rows, count=lambda *c: len(_objects(*c))):
    """Each row (what, class, *predicate names) has expected_of(n) members."""
    def fact(n):
        expected = expected_of(n)
        for what, class_name, *predicates in rows:
            actual = count(class_name, n, tuple(predicates))
            if actual != expected:
                return _count_witness(n, what, expected, actual)
    return fact


def _every(class_name: str, ok: Callable[[object], bool], *predicates: str,
           witness: Callable[[int, object], dict] | None = None):
    """ok holds on every member of the class that meets the predicates."""
    singular = jsonio.SINGULAR[class_name]

    def fact(n):
        for x in _objects(class_name, n, predicates):
            if not ok(x):
                return witness(n, x) if witness else {"n": n, **_obj(singular, x)}
    return fact


def _bijection(target: tuple[str, ...], forward, backward, class_name: str,
               predicate: str, what: str, image_what: str):
    """As many members of the filtered class as targets (a class followed by
    its predicates), and forward/backward a two-sided bijection between them."""
    test = class_predicate(class_name, predicate)
    singular, target_singular = jsonio.SINGULAR[class_name], jsonio.SINGULAR[target[0]]
    key = {"inversion_tables": "table", "matrices": "matrix"}[target[0]]

    def fact(n):
        targets = _objects(target[0], n, target[1:])
        filtered = _objects(class_name, n, (predicate,))
        expected = len(targets)
        if len(filtered) != expected:
            return _count_witness(n, what, expected, len(filtered))
        # each image marks its member or is a stray, and is dropped; backward
        # undoes forward, so forward is one-to-one, onto the class exactly when
        # it marks every member, and then backward is its inverse
        index = {x: i for i, x in enumerate(filtered)}
        hit = bytearray(expected)
        strays = set()
        for t in targets:
            x = forward(t)
            if not test(x) or backward(x) != t:
                return {"n": n, key: jsonio.encode(target_singular, t), **_obj(singular, x)}
            i = index.get(x)
            if i is None:
                strays.add(x)
            else:
                hit[i] = 1
        if sum(hit) != expected:
            return _count_witness(n, image_what, expected, sum(hit) + len(strays))
    return fact


def _image(forward, source: tuple[str, ...], target: tuple[str, ...]):
    """forward maps the source class onto exactly the target class, each a
    class followed by its predicates.  The witness is the first source member
    whose image is no target, else the first target that is no image."""
    singular, target_singular = jsonio.SINGULAR[source[0]], jsonio.SINGULAR[target[0]]

    def fact(n):
        targets = _objects(target[0], n, target[1:])
        wanted, image = set(targets), set()
        for x in _objects(source[0], n, source[1:]):
            y = forward(x)
            if y not in wanted:
                return {"n": n, **_obj(singular, x), "image": jsonio.encode(target_singular, y)}
            image.add(y)
        for t in targets:
            if t not in image:
                return {"n": n, **_obj(target_singular, t), "missing": True}
    return fact


def _first_difference(counters: Sequence[dict]):
    keys = sorted(set().union(*counters))
    for key in keys:
        values = [c.get(key, 0) for c in counters]
        if len(set(values)) > 1:
            return {"tuple": list(key), "counts": values}
    return None


def _equidistributed(*rows):
    """Each row (class, predicates, names[, shift]) tallies alike, where a
    shift is added to every statistic tuple of its row."""
    def fact(n):
        counters = []
        for class_name, predicates, names, *shift in rows:
            tally = _tally(class_name, n, predicates, names)
            if shift:
                tally = {tuple(v + d for v, d in zip(key, shift[0])): count
                         for key, count in tally.items()}
            counters.append(tally)
        diff = _first_difference(counters)
        return diff and {"n": n, **diff}
    return fact


# ---------------------------------------------------------------------------
# Bespoke facts
# ---------------------------------------------------------------------------

def _unique_labeling(n: int):
    """One member per unlabeled 2+2-free poset: the characteristic matrices, a
    complete invariant, equal the matchings' and are each matrix of size n once;
    and each member is the canonical labeling of itself and of its reversal."""
    targets, seen = _objects("matrices", n, ()), {}
    wanted, sigmas = set(targets), (range(1, n + 1), range(n, 0, -1))
    for p in _objects("factorial_posets", n, ("condition_one",)):
        t = poset_to_matrix(p)
        if t != matching_to_matrix(poset_to_matching(p)):
            return {"n": n, **_obj("poset", p), "characteristic_rows": list(map(list, t.rows))}
        if t in seen:
            return {"n": n, **_obj("poset", p), "isomorphic_to": jsonio.encode("poset", seen[t])}
        if t not in wanted:
            return {"n": n, **_obj("poset", p), "image": jsonio.encode("matrix", t)}
        seen[t] = p
        for sigma in sigmas:
            if canonical_labeling(_relabel(p, sigma)) != p:
                return {"n": n, "relabeling": list(sigma), **_obj("poset", p)}
    for t in targets:
        if t not in seen:
            return {"n": n, **_obj("matrix", t), "missing": True}


def _adds_two_plus_two(pre: Sequence[int]):
    """Does a new top above exactly the down set s of the masks ``pre`` make an
    induced 2+2?  Searched for directly: c in s, and a < b outside s, pairwise
    incomparable."""
    above = [sum(1 << b for b, mask in enumerate(pre) if mask >> a & 1) for a in range(len(pre))]
    pairs = [(1 << a | 1 << b, ~(pre[a] | above[a] | pre[b] | above[b]))
             for b, mask in enumerate(pre) for a in range(b) if mask >> a & 1]
    return lambda s: any(not s & ends and s & free for ends, free in pairs)


def _keeps_inclusion_chain(pre: Sequence[int]):
    """Is a down set s comparable by inclusion with every mask of ``pre``?"""
    return lambda s: all(not m & ~s or not s & ~m for m in pre)


def _two_plus_two_agreement(n: int):
    """The direct search for an induced 2+2 and the inclusion chain agree on
    every natural poset on [n], both read along the down-set search: a poset keeps
    its parent's 2+2s and lost chain; a node that lost both, or a leaf that agrees, is cut."""
    def expand(masks, kept):
        adds = kept[0] and _adds_two_plus_two(masks)
        fits = kept[1] and _keeps_inclusion_chain(masks)
        keep = bool.__ne__ if len(masks) == n - 1 else bool.__or__
        return lambda s: both if keep(*(both := (adds and not adds(s), fits and fits(s)))) else ()

    for masks, (free, chain) in down_set_walk(n, expand, (True, True)):
        if free != chain:
            return {"n": n, **_obj("poset", Poset.from_pre_masks(masks)), "disagreement": True}


def _round_trip(n: int):
    """poset_to_matching and matching_to_poset undo each other on every factorial
    poset, and on every matching with no left-nesting, where matching_to_poset
    also agrees with the inversion table.  Both maps are pure, so a matching m
    met as the image of a poset p is not sent through them again: the poset
    sweep found matching_to_poset(m) == p and poset_to_matching(p) == m."""
    source = dict.fromkeys(_objects("matchings", n, ("no_left_nesting",)))
    for p in _objects("factorial_posets", n, ()):
        m = poset_to_matching(p)
        if matching_to_poset(m) != p:
            return {"n": n, **_obj("poset", p)}
        if m in source:
            source[m] = p
    for m, p in source.items():
        if p is None:
            ok = ((p := matching_to_poset(m)) == table_to_poset(matching_to_table(m))
                  and poset_to_matching(p) == m)
        else:
            ok = p == table_to_poset(matching_to_table(m))
        if not ok:
            return {"n": n, **_obj("matching", m)}


def _nesting_pair(p) -> list[int] | None:
    """The first arc pair i < j (by closer, 1-based) of the poset's matching
    whose nesting (o_j < o_i < c_i < c_j) disagrees with pre(i) > pre(j)."""
    arcs, pre = poset_to_matching(p).arcs, p.pre_vector
    return next(([i + 1, j + 1] for i in range(p.n) for j in range(i + 1, p.n)
                 if (arcs[j][0] < arcs[i][0]) != (pre[i] > pre[j])), None)


_poset_quintuple = stat_tuple("factorial_posets", ("comp", "min", "pre_n", "lev", "ip"))
_perm_quintuple = stat_tuple("permutations", ("comp", "lmin", "last", "dent", "inv"))
_matching_quintuple = stat_tuple("matchings", ("comp", "min", "last", "inter", "emb"))


def _triple_statistics(n: int):
    for w in _objects("inversion_tables", n, ()):
        t_poset = _poset_quintuple(table_to_poset(w))
        t_perm = _perm_quintuple(table_to_permutation(w))
        t_match = _matching_quintuple(table_to_matching(w))
        zeros = sum(1 for a in w if a == 0)
        co_inv = n * (n - 1) // 2 - sum(w)
        if not (t_poset == t_perm == t_match):
            return {"n": n, "table": list(w), "poset_tuple": list(t_poset),
                    "perm_tuple": list(t_perm), "matching_tuple": list(t_match)}
        if t_poset[1] != zeros or t_poset[4] != co_inv:
            return {"n": n, "table": list(w), "tuple": list(t_poset)}


def _eulerian_recurrence(n: int):
    if n == 0:
        return None
    dent = _tally("inversion_tables", n, (), ("dent",))
    des = _tally("permutations", n, (), ("des",))
    shifted = {(k + 1,): v for (k,), v in des.items()}
    if shifted != dent:
        return {"n": n, "descents_shifted": sorted(shifted.items()),
                "dent": sorted(dent.items())}
    row = eulerian_triangle_row(n)
    expected = {(k,): row[k - 1] for k in range(1, n + 1) if row[k - 1]}
    if expected != dent:
        return {"n": n, "recurrence_row": list(row), "dent": sorted(dent.items())}


def check_lne_second_order_eulerian(n_max: int):
    """Conjectured: the distribution of left-nestings over all matchings is
    the second-order Eulerian row, compared as multisets; row sums must be
    the odd double factorial.  The detected orientation is reported."""
    orientations = set()
    for n in range(n_max + 1):
        dist = _tally("matchings", n, (), ("lne",))
        row = second_order_eulerian(n)
        if sum(row) != double_factorial(2 * n - 1):
            return False, {"n": n, "row": list(row), "expected_sum":
                           double_factorial(2 * n - 1)}, None
        counts = [dist.get((k,), 0) for k in range(max(n, 1))]
        if sorted(counts) != sorted(row):
            return False, {"n": n, "lne_counts": counts, "row": list(row)}, None
        if n >= 2:
            if counts == list(reversed(row)):
                orientations.add("reversed")
            elif counts == list(row):
                orientations.add("forward")
            else:
                orientations.add("multiset-only")
    detail = "orientation: " + ",".join(sorted(orientations)) if orientations else None
    return True, None, detail


# ---------------------------------------------------------------------------
# Registry and runners
# ---------------------------------------------------------------------------

# name -> (kind, default n_max, function)
REGISTRY: dict[str, tuple[str, int, object]] = {
    # Matchings with no left-nesting are counted by n!, via a bijection with
    # inversion tables: count, range and round-trip all verified.
    "thm_no_left_nesting_count": ("theorem", 6, _facts(_bijection(
        ("inversion_tables",), table_to_matching, matching_to_table, "matchings",
        "no_left_nesting", "matchings with no left-nesting",
        "matchings with no left-nesting image"))),
    # Matchings with no left-crossing are counted by n!, two-sided.
    "thm_no_left_crossing_count": ("theorem", 6, _facts(_bijection(
        ("inversion_tables",), table_to_crossfree_matching, crossfree_matching_to_table,
        "matchings", "no_left_crossing", "matchings with no left-crossing",
        "matchings with no left-crossing image"))),
    # Factorial posets on [n] are counted by n!: filter-enumeration over all
    # naturally labeled posets (generated independently of the table
    # bijection) plus the two-sided bijection with inversion tables.
    "thm_factorial_poset_count": ("theorem", 6, _facts(_bijection(
        ("inversion_tables",), table_to_poset, poset_to_table, "natural_posets",
        "factorial", "factorial posets", "factorial poset image"))),
    # Every factorial poset is two-plus-two-free; the brute-force freeness
    # test and the predecessor-set inclusion-chain test agree everywhere.
    "prop_factorial_posets_two_plus_two_free": ("proposition", 6, _facts(
        _two_plus_two_agreement, _every("factorial_posets", is_two_plus_two_free))),
    # Factorial posets whose neighbors satisfy pre(i) <= pre(i+1) or
    # suc(i) > suc(i+1) are counted by the Fishburn numbers.
    "prop_condition_one_fishburn": ("proposition", 6, _facts(_counts(
        _fishburn, ("factorial posets meeting the neighbor rule",
                    "natural_posets", "factorial", "condition_one")))),
    # The neighbor rule and its order-theoretic reformulation (a covered jump
    # at i forces some element with exactly i predecessors) agree on every
    # factorial poset.
    "prop_condition_one_variant": ("proposition", 6, _facts(_every(
        "factorial_posets", lambda p: condition_one(p) == condition_one_var(p)))),
    # The factorial posets meeting the neighbor rule hold exactly one labeling
    # of each unlabeled 2+2-free poset, told apart by the characteristic matrix.
    "prop_unique_labeling": ("proposition", 6, _facts(_unique_labeling)),
    # The interval map restricted to matchings with no neighbor nestings is a
    # bijection onto the triangular matrices: identity both ways.
    "thm_matrix_map_no_neighbor_nesting": ("theorem", 5, _facts(_bijection(
        ("matrices",), matrix_to_matching_no_neighbor_nesting, matching_to_matrix,
        "matchings", "no_neighbor_nesting", "matchings with no neighbor nesting",
        "matchings with no neighbor nesting image"))),
    # Same bijection statement for matchings with no neighbor crossings.
    "thm_matrix_map_no_neighbor_crossing": ("theorem", 5, _facts(_bijection(
        ("matrices",), matrix_to_matching_no_neighbor_crossing, matching_to_matrix,
        "matchings", "no_neighbor_crossing", "matchings with no neighbor crossing",
        "matchings with no neighbor crossing image"))),
    # The interval map sends all matchings onto all triangular matrices; the n!
    # with no left-nesting already do, as re-pairing the closers of each opener
    # run, lowest opener first, removes every left-nesting but keeps the matrix.
    "thm_matrix_map_surjective": ("theorem", 5, _facts(_image(
        matching_to_matrix, ("matchings", "no_left_nesting"), ("matrices",)))),
    # The interval map restricted to matchings with no left-nesting and no
    # right-crossing is a bijection onto the 0-1 triangular matrices.
    "prop_zero_one_matrices": ("proposition", 5, _facts(_bijection(
        ("matrices", "zero_one"), zero_one_matrix_to_matching, matching_to_matrix,
        "matchings", "lne0_and_rcr0", "matchings with no left-nesting and no right-crossing",
        "matchings with no left-nesting and no right-crossing image"))),
    # The matrices reachable from non-nesting matchings, and those reachable
    # from non-crossing matchings, are cut out exactly by the two zero-pattern
    # predicates, and both families are counted by the Catalan numbers.
    "cor_catalan_matrix_images": ("corollary", 6, _facts(
        _counts(catalan,
                ("nonnesting-image matrices", "matrices", "nonnesting_image"),
                ("noncrossing-image matrices", "matrices", "noncrossing_image")),
        _image(matching_to_matrix, ("matchings", "no_nesting"),
               ("matrices", "nonnesting_image")),
        _image(matching_to_matrix, ("matchings", "no_crossing"),
               ("matrices", "noncrossing_image")))),
    # Descent correcting inversion tables are counted by the Fishburn numbers,
    # and correspond exactly to the matchings with no neighbor nesting under
    # the insertion bijection.
    "prop_descent_correcting_fishburn": ("proposition", 6, _facts(
        _every("inversion_tables",
               lambda w: is_descent_correcting(w)
               == class_predicate("matchings", "no_neighbor_nesting")(table_to_matching(w)),
               witness=_table_witness),
        _counts(_fishburn, ("descent correcting sequences", "inversion_tables",
                            "descent_correcting")))),
    # Ascent correcting inversion tables are counted by the Fishburn numbers,
    # and correspond exactly to the matchings with no neighbor crossing under
    # the crossing-free insertion bijection.
    "prop_ascent_correcting_fishburn": ("proposition", 6, _facts(
        _every("inversion_tables",
               lambda w: is_ascent_correcting(w) == class_predicate(
                   "matchings", "no_neighbor_crossing")(table_to_crossfree_matching(w)),
               witness=_table_witness),
        _counts(_fishburn, ("ascent correcting sequences", "inversion_tables",
                            "ascent_correcting")))),
    # Posets that are both factorial and dually factorial are counted by the
    # Catalan numbers, and the matching of a factorial poset is non-nesting
    # exactly when the poset is dually factorial.
    "prop_factorial_dually_factorial_catalan": ("proposition", 6, _facts(
        _counts(catalan, ("factorial and dually factorial posets", "natural_posets",
                          "factorial", "dually_factorial")),
        _every("factorial_posets",
               lambda p: is_dually_factorial(p)
               == class_predicate("matchings", "no_nesting")(poset_to_matching(p))))),
    # On factorial posets meeting the neighbor rule, dually factorial is the
    # same as three-plus-one-free.
    "prop_three_plus_one_free_equivalence": ("proposition", 6, _facts(_every(
        "factorial_posets", lambda p: is_dually_factorial(p) == is_three_plus_one_free(p),
        "condition_one"))),
    # The composite poset-to-matching map round-trips both ways, and its
    # direct inverse (closer of arc i precedes opener of arc j) agrees with
    # inverting through the inversion table.  One sweep of each class runs
    # each map once per object: at n = 9, as a CLI child on a 2-CPU host,
    # 8.4-9.0 s and 185 MB as two sweeps, 6.8-7.0 s and 206 MB as one.
    "thm_poset_matching_round_trip": ("theorem", 6, _facts(_round_trip)),
    # For the matching of a factorial poset, arcs i < j (by closer) nest
    # exactly when pre(i) > pre(j).
    "prop_nesting_criterion": ("proposition", 6, _facts(_every(
        "factorial_posets", lambda p: _nesting_pair(p) is None,
        witness=lambda n, p: {"n": n, **_obj("poset", p), "arcs": _nesting_pair(p)}))),
    # Exact object-by-object equality of the statistic quintuples along the
    # correspondence table -> (poset, permutation, matching): components,
    # minima, position of the top, levels and the inversion-like count; the
    # last two coordinates are also pinned to the number of zeros and to
    # C(n,2) minus the entry sum of the table.
    "prop_triple_statistics": ("proposition", 6, _facts(_triple_statistics)),
    # Incomparable pairs on factorial posets and embraced closers on matchings
    # with no left-nesting are both distributed like inversions on
    # permutations.
    "cor_mahonian": ("corollary", 7, _facts(_equidistributed(
        ("factorial_posets", (), ("ip",)),
        ("permutations", (), ("inv",)),
        ("matchings", ("no_left_nesting",), ("emb",))))),
    # Levels of factorial posets, opener intervals of matchings with no
    # left-nesting and distinct table entries are all Eulerian: their common
    # distribution matches descents (shifted by one) and the distinct-entry
    # recurrence.
    "cor_eulerian": ("corollary", 7, _facts(
        _equidistributed(
            ("factorial_posets", (), ("lev",)),
            ("matchings", ("no_left_nesting",), ("inter",)),
            ("inversion_tables", (), ("dent",))),
        _eulerian_recurrence)),
    # Conjectured: neighbor violations, components and minima on factorial
    # posets; pattern occurrences, components and left-to-right minima on
    # permutations; right-nestings, components and minima on matchings with
    # no left-nesting: all three triples equidistributed.
    "conj1_equidistribution": ("conjecture", 6, _facts(_equidistributed(
        ("factorial_posets", (), ("rne_poset", "comp", "min")),
        ("permutations", (), ("p", "comp", "lmin")),
        ("matchings", ("no_left_nesting",), ("rne", "comp", "min"))))),
    # Conjectured second triple: neighbor violations, minima and levels less
    # one; pattern occurrences, left-to-right maxima and descents;
    # right-nestings, minima and opener intervals less one (n >= 1).
    "conj2_equidistribution": ("conjecture", 6, _facts(_equidistributed(
        ("factorial_posets", (), ("rne_poset", "min", "lev"), (0, 0, -1)),
        ("permutations", (), ("p", "lmax", "des")),
        ("matchings", ("no_left_nesting",), ("rne", "min", "inter"),
         (0, 0, -1))), start=1)),
    # Conjectured: matchings with no nesting whose openers are 1 or 2 apart
    # are counted by the Fishburn numbers.
    "conj3_no_2_left_nestings": ("conjecture", 6, _facts(_counts(
        _fishburn, ("matchings with no 2-left-nesting", "matchings", "no_2_left_nesting"),
        count=lambda *c: sum(_tally(*c, ()).values())))),
    "conj4_lne_second_order_eulerian":
        ("conjecture", 6, check_lne_second_order_eulerian),
    # Seven class cardinalities agree with the series coefficients
    # 1, 1, 2, 5, 15, 53, 217, ...
    "cor_fishburn_class_agreement": ("corollary", 6, _facts(_counts(
        _fishburn,
        ("no_neighbor_nesting_matchings", "matchings", "no_neighbor_nesting"),
        ("no_neighbor_crossing_matchings", "matchings", "no_neighbor_crossing"),
        ("triangular_matrices", "matrices"),
        ("ascent_sequences", "ascent_sequences"),
        ("condition_one_factorial_posets", "natural_posets", "factorial", "condition_one"),
        ("descent_correcting_sequences", "inversion_tables", "descent_correcting"),
        ("ascent_correcting_sequences", "inversion_tables", "ascent_correcting")))),
    # Four class cardinalities agree with the Catalan numbers.
    "cor_catalan_class_agreement": ("corollary", 6, _facts(_counts(
        catalan,
        ("non_nesting_matchings", "matchings", "no_nesting"),
        ("factorial_dually_factorial_posets", "natural_posets", "factorial",
         "dually_factorial"),
        ("nonnesting_image_matrices", "matrices", "nonnesting_image"),
        ("noncrossing_image_matrices", "matrices", "noncrossing_image")))),
}


def run_check(name: str, n_max: int | None = None) -> CheckReport:
    """Execute one registered check for all n up to n_max (or its default);
    ValueError unless n_max is None or a nonnegative integer."""
    if name not in REGISTRY:
        raise UnknownCheck(f"unknown check {name!r}")
    kind, default_n, fn = REGISTRY[name]
    limit = validate_size(default_n if n_max is None else n_max)
    start = time.perf_counter()
    ok, witness, detail = fn(limit)
    return CheckReport(name, kind, limit, "pass" if ok else "fail", witness,
                       time.perf_counter() - start, detail)


def run_all(n_max: int | None = None) -> list[CheckReport]:
    """Run every registered check in registry order."""
    return [run_check(name, n_max) for name in REGISTRY]

