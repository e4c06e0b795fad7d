"""Named executable checks: every counting theorem, structural proposition,
corollary and conjectured identity covered by this library becomes one
registered check with a pass/fail verdict and a minimal witness on failure.

Every check is two-sided.  A bijection check asserts round-trips, range
membership and count equality; a count check compares filter-enumeration
against a formula or recurrence computed independently of the generators.
Checks are pure and deterministic, so reports are identical across runs; a
failing check reports the smallest counterexample in generation order,
serialized so it can be fed back through the CLI.

Conjecture checks are flagged ``conjecture`` even when they pass: passing
at small n is evidence, not proof.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from . import jsonio
from .bijections import (
    canonical_labeling,
    crossfree_matching_to_table,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    poset_to_matching,
    poset_to_table,
    relabel_poset,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
    zero_one_matrix_to_matching,
)
from .enumeration import (
    catalan,
    distribution,
    double_factorial,
    eulerian_triangle_row,
    fishburn_numbers,
    gen_ascent_sequences,
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    gen_permutations,
    second_order_eulerian,
)
from .errors import UnknownCheck
from .objects import (
    arc_statistics,
    condition_one,
    condition_one_var,
    count_gap_nestings,
    has_crossing,
    has_left_crossing,
    has_left_nesting,
    has_nesting,
    has_right_crossing,
    has_right_nesting,
    is_ascent_correcting,
    is_descent_correcting,
    is_dually_factorial,
    is_factorial,
    is_three_plus_one_free,
    is_two_plus_two_free,
    is_two_plus_two_free_by_inclusion,
    is_zero_one,
)
from .statistics import stats_for


@dataclass
class CheckReport:
    """Outcome of one registered check over n = 0..n_max."""

    check: str
    kind: str             # theorem | proposition | corollary | conjecture
    n_max: int | None     # None for ad hoc comparisons with external streams
    verdict: str          # "pass" | "fail"
    witness: object | None
    elapsed: float        # seconds
    detail: str | None = None

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


# cached object streams; everything downstream treats these as immutable
@lru_cache(maxsize=None)
def _matchings(n: int) -> tuple:
    return tuple(gen_matchings(n))


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple:
    return tuple(gen_inversion_tables(n))


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple:
    return tuple(gen_permutations(n))


@lru_cache(maxsize=None)
def _factorial_posets(n: int) -> tuple:
    return tuple(gen_factorial_posets(n))


@lru_cache(maxsize=None)
def _natural_posets(n: int) -> tuple:
    return tuple(gen_natural_posets(n))


@lru_cache(maxsize=None)
def _matrices(n: int) -> tuple:
    return tuple(gen_matrices(n))


def _obj(class_name: str, obj) -> dict:
    return {"class": class_name, "object": jsonio.encode(class_name, obj)}


def _count_witness(n: int, what: str, expected: int, actual: int) -> dict:
    return {"n": n, "counted": what, "expected": expected, "actual": actual}


def _no_neighbor_nesting(m) -> bool:
    return not (has_left_nesting(m) or has_right_nesting(m))


def _no_neighbor_crossing(m) -> bool:
    return not (has_left_crossing(m) or has_right_crossing(m))


# ---------------------------------------------------------------------------
# Counting theorems for the n! classes
# ---------------------------------------------------------------------------

def _insertion_bijection_check(n_max, image_filter, forward, backward, what):
    """Shared two-sided check for a table -> matching insertion bijection."""
    for n in range(n_max + 1):
        filtered = [m for m in _matchings(n) if image_filter(m)]
        expected = math.factorial(n)
        if len(filtered) != expected:
            return False, _count_witness(n, what, expected, len(filtered)), None
        images = []
        for w in _tables(n):
            m = forward(w)
            if not image_filter(m):
                return False, {"n": n, "table": list(w), **_obj("matching", m)}, None
            if backward(m) != w:
                return False, {"n": n, "table": list(w), **_obj("matching", m)}, None
            images.append(m)
        if len(set(images)) != expected or set(images) != set(filtered):
            return False, _count_witness(n, what + " image", expected, len(set(images))), None
    return True, None, None


def check_no_left_nesting_count(n_max: int):
    """Matchings with no left-nesting are counted by n!, via a bijection
    with inversion tables: count, range and round-trip all verified."""
    return _insertion_bijection_check(
        n_max,
        lambda m: not has_left_nesting(m),
        table_to_matching,
        matching_to_table,
        "matchings with no left-nesting",
    )


def check_no_left_crossing_count(n_max: int):
    """Matchings with no left-crossing are counted by n!, two-sided."""
    return _insertion_bijection_check(
        n_max,
        lambda m: not has_left_crossing(m),
        table_to_crossfree_matching,
        crossfree_matching_to_table,
        "matchings with no left-crossing",
    )


def check_factorial_poset_count(n_max: int):
    """Factorial posets on [n] are counted by n!.

    Filter-enumeration over all naturally labeled posets (generated
    independently of the table bijection) plus the two-sided bijection with
    inversion tables.
    """
    for n in range(n_max + 1):
        filtered = [p for p in _natural_posets(n) if is_factorial(p)]
        expected = math.factorial(n)
        if len(filtered) != expected:
            return False, _count_witness(n, "factorial posets", expected, len(filtered)), None
        images = []
        for w in _tables(n):
            p = table_to_poset(w)
            if not is_factorial(p) or poset_to_table(p) != w:
                return False, {"n": n, "table": list(w), **_obj("poset", p)}, None
            images.append(p)
        if len(set(images)) != expected or set(images) != set(filtered):
            return False, _count_witness(n, "factorial poset image", expected, len(set(images))), None
    return True, None, None


# ---------------------------------------------------------------------------
# Structural propositions about posets
# ---------------------------------------------------------------------------

def check_factorial_two_plus_two_free(n_max: int):
    """Every factorial poset is two-plus-two-free; the brute-force freeness
    test and the predecessor-set inclusion-chain test agree everywhere."""
    for n in range(n_max + 1):
        for p in _natural_posets(n):
            if is_two_plus_two_free(p) != is_two_plus_two_free_by_inclusion(p):
                return False, {"n": n, **_obj("poset", p), "disagreement": True}, None
        for p in _factorial_posets(n):
            if not is_two_plus_two_free(p):
                return False, {"n": n, **_obj("poset", p)}, None
    return True, None, None


def check_condition_one_fishburn(n_max: int):
    """Factorial posets whose neighbors satisfy pre(i) <= pre(i+1) or
    suc(i) > suc(i+1) are counted by the Fishburn numbers."""
    fish = fishburn_numbers(n_max)
    for n in range(n_max + 1):
        count = sum(
            1 for p in _natural_posets(n) if is_factorial(p) and condition_one(p)
        )
        if count != fish[n]:
            return False, _count_witness(n, "factorial posets meeting the neighbor rule",
                                         fish[n], count), None
    return True, None, None


def check_condition_one_variant(n_max: int):
    """The neighbor rule and its order-theoretic reformulation (a covered
    jump at i forces some element with exactly i predecessors) agree on
    every factorial poset."""
    for n in range(n_max + 1):
        for p in _factorial_posets(n):
            if condition_one(p) != condition_one_var(p):
                return False, {"n": n, **_obj("poset", p)}, None
    return True, None, None


def check_unique_labeling(n_max: int):
    """Relabeling a factorial poset that meets the neighbor rule and then
    recanonicalizing recovers the original poset: the labeling is unique.

    All n! relabelings are tried for n <= 4; for larger n a fixed,
    evenly spaced sample of 24 permutations keeps the check deterministic.
    """
    for n in range(n_max + 1):
        base = [p for p in _factorial_posets(n) if condition_one(p)]
        sigmas = list(permutations(range(1, n + 1)))
        if len(sigmas) > 24:
            step = len(sigmas) // 24
            sigmas = sigmas[::step][:24]
        for p in base:
            for sigma in sigmas:
                q = relabel_poset(p, sigma)
                if canonical_labeling(q) != p:
                    return False, {
                        "n": n,
                        "relabeling": list(sigma),
                        **_obj("poset", p),
                    }, None
    return True, None, None


# ---------------------------------------------------------------------------
# The interval map to matrices
# ---------------------------------------------------------------------------

def _matrix_bijection_check(n_max, class_filter, construct, matrices_of, what):
    """Shared two-sided check for a restricted inverse of the interval map."""
    for n in range(n_max + 1):
        targets = matrices_of(n)
        members = [m for m in _matchings(n) if class_filter(m)]
        if len(members) != len(targets):
            return False, _count_witness(n, what, len(targets), len(members)), None
        images = [matching_to_matrix(m) for m in members]
        if len(set(images)) != len(images) or set(images) != set(targets):
            return False, _count_witness(n, what + " image", len(targets), len(set(images))), None
        for m, t in zip(members, images):
            if construct(t) != m:
                return False, {"n": n, **_obj("matrix", t), **_obj("matching", m)}, None
        for t in targets:
            m = construct(t)
            if not class_filter(m) or matching_to_matrix(m) != t:
                return False, {"n": n, **_obj("matrix", t), **_obj("matching", m)}, None
    return True, None, None


def check_matrix_map_no_neighbor_nesting(n_max: int):
    """The interval map restricted to matchings with no neighbor nestings is
    a bijection onto the triangular matrices: identity both ways."""
    return _matrix_bijection_check(
        n_max, _no_neighbor_nesting, matrix_to_matching_no_neighbor_nesting,
        _matrices, "matchings with no neighbor nesting",
    )


def check_matrix_map_no_neighbor_crossing(n_max: int):
    """Same bijection statement for matchings with no neighbor crossings."""
    return _matrix_bijection_check(
        n_max, _no_neighbor_crossing, matrix_to_matching_no_neighbor_crossing,
        _matrices, "matchings with no neighbor crossing",
    )


def check_zero_one_matrices(n_max: int):
    """The interval map restricted to matchings with no left-nesting and no
    right-crossing is a bijection onto the 0-1 triangular matrices."""
    return _matrix_bijection_check(
        n_max,
        lambda m: not (has_left_nesting(m) or has_right_crossing(m)),
        zero_one_matrix_to_matching,
        lambda n: tuple(t for t in _matrices(n) if is_zero_one(t)),
        "matchings with no left-nesting and no right-crossing",
    )


def check_matrix_map_surjective(n_max: int):
    """The interval map sends the set of all matchings onto the full set of
    triangular matrices."""
    for n in range(n_max + 1):
        image = {matching_to_matrix(m) for m in _matchings(n)}
        targets = set(_matrices(n))
        if image != targets:
            missing = sorted(t.rows for t in targets - image)
            return False, {"n": n, "missing_rows": [list(map(list, r)) for r in missing[:1]]}, None
    return True, None, None


def check_catalan_matrix_images(n_max: int):
    """The matrices reachable from non-nesting matchings, and those reachable
    from non-crossing matchings, are cut out exactly by the two zero-pattern
    predicates, and both families are counted by the Catalan numbers."""
    for n in range(n_max + 1):
        targets = _matrices(n)
        pred_nn = {t for t in targets if matrix_is_nonnesting_image(t)}
        pred_nc = {t for t in targets if matrix_is_noncrossing_image(t)}
        expected = catalan(n)
        if len(pred_nn) != expected:
            return False, _count_witness(n, "nonnesting-image matrices", expected, len(pred_nn)), None
        if len(pred_nc) != expected:
            return False, _count_witness(n, "noncrossing-image matrices", expected, len(pred_nc)), None
        img_nn = {matching_to_matrix(m) for m in _matchings(n) if not has_nesting(m)}
        img_nc = {matching_to_matrix(m) for m in _matchings(n) if not has_crossing(m)}
        if img_nn != pred_nn or img_nc != pred_nc:
            return False, {"n": n, "image_sets_match_predicates": False}, None
    return True, None, None


# ---------------------------------------------------------------------------
# Correcting sequences
# ---------------------------------------------------------------------------

def check_descent_correcting(n_max: int):
    """Descent correcting inversion tables are counted by the Fishburn
    numbers, and correspond exactly to the matchings with no neighbor
    nesting under the insertion bijection."""
    fish = fishburn_numbers(n_max)
    for n in range(n_max + 1):
        count = 0
        for w in _tables(n):
            dc = is_descent_correcting(w)
            count += dc
            if dc != _no_neighbor_nesting(table_to_matching(w)):
                return False, {"n": n, "table": list(w)}, None
        if count != fish[n]:
            return False, _count_witness(n, "descent correcting sequences", fish[n], count), None
    return True, None, None


def check_ascent_correcting(n_max: int):
    """Ascent correcting inversion tables are counted by the Fishburn
    numbers, and correspond exactly to the matchings with no neighbor
    crossing under the crossing-free insertion bijection."""
    fish = fishburn_numbers(n_max)
    for n in range(n_max + 1):
        count = 0
        for w in _tables(n):
            ac = is_ascent_correcting(w)
            count += ac
            if ac != _no_neighbor_crossing(table_to_crossfree_matching(w)):
                return False, {"n": n, "table": list(w)}, None
        if count != fish[n]:
            return False, _count_witness(n, "ascent correcting sequences", fish[n], count), None
    return True, None, None


# ---------------------------------------------------------------------------
# Factorial and dually factorial
# ---------------------------------------------------------------------------

def check_factorial_dually_factorial_catalan(n_max: int):
    """Posets that are both factorial and dually factorial are counted by
    the Catalan numbers, and the matching of a factorial poset is
    non-nesting exactly when the poset is dually factorial."""
    for n in range(n_max + 1):
        count = sum(
            1 for p in _natural_posets(n)
            if is_factorial(p) and is_dually_factorial(p)
        )
        expected = catalan(n)
        if count != expected:
            return False, _count_witness(n, "factorial and dually factorial posets",
                                         expected, count), None
        for p in _factorial_posets(n):
            if is_dually_factorial(p) != (not has_nesting(poset_to_matching(p))):
                return False, {"n": n, **_obj("poset", p)}, None
    return True, None, None


def check_three_plus_one_free(n_max: int):
    """On factorial posets meeting the neighbor rule, dually factorial is
    the same as three-plus-one-free."""
    for n in range(n_max + 1):
        for p in _factorial_posets(n):
            if not condition_one(p):
                continue
            if is_dually_factorial(p) != is_three_plus_one_free(p):
                return False, {"n": n, **_obj("poset", p)}, None
    return True, None, None


# ---------------------------------------------------------------------------
# The composite poset <-> matching map
# ---------------------------------------------------------------------------

def check_poset_matching_round_trip(n_max: int):
    """The composite poset-to-matching map round-trips both ways, and its
    direct inverse (closer of arc i precedes opener of arc j) agrees with
    inverting through the inversion table."""
    for n in range(n_max + 1):
        for p in _factorial_posets(n):
            if matching_to_poset(poset_to_matching(p)) != p:
                return False, {"n": n, **_obj("poset", p)}, None
        for m in _matchings(n):
            if has_left_nesting(m):
                continue
            p = matching_to_poset(m)
            if p != table_to_poset(matching_to_table(m)):
                return False, {"n": n, **_obj("matching", m)}, None
            if poset_to_matching(p) != m:
                return False, {"n": n, **_obj("matching", m)}, None
    return True, None, None


def check_nesting_criterion(n_max: int):
    """For the matching of a factorial poset, arcs i < j (by closer) nest
    exactly when pre(i) > pre(j)."""
    for n in range(n_max + 1):
        for p in _factorial_posets(n):
            m = poset_to_matching(p)
            arcs = m.arcs
            pre = p.pre_vector
            for i in range(n):
                for j in range(i + 1, n):
                    nests = arcs[j][0] < arcs[i][0]   # o_j < o_i < c_i < c_j
                    if nests != (pre[i] > pre[j]):
                        return False, {"n": n, **_obj("poset", p), "arcs": [i + 1, j + 1]}, None
    return True, None, None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

_POSET_QUINTUPLE = ("comp", "min", "pre_n", "lev", "ip")
_PERM_QUINTUPLE = ("comp", "lmin", "last", "dent", "inv")
_MATCHING_QUINTUPLE = ("comp", "min", "last", "inter", "emb")


def check_triple_statistics(n_max: int):
    """Exact object-by-object equality of the statistic quintuples along the
    correspondence table -> (poset, permutation, matching): components,
    minima, position of the top, levels and the inversion-like count; the
    last two coordinates are also pinned to the number of zeros and to
    C(n,2) minus the entry sum of the table."""
    for n in range(n_max + 1):
        for w in _tables(n):
            p = table_to_poset(w)
            m = table_to_matching(w)
            pi = table_to_permutation(w)
            t_poset = tuple(stats_for("factorial_posets", p, _POSET_QUINTUPLE).values())
            t_perm = tuple(stats_for("permutations", pi, _PERM_QUINTUPLE).values())
            t_match = tuple(stats_for("matchings", m, _MATCHING_QUINTUPLE).values())
            zeros = sum(1 for a in w if a == 0)
            co_inv = n * (n - 1) // 2 - sum(w)
            if not (t_poset == t_perm == t_match):
                return False, {"n": n, "table": list(w),
                               "poset_tuple": list(t_poset),
                               "perm_tuple": list(t_perm),
                               "matching_tuple": list(t_match)}, None
            if t_poset[1] != zeros or t_poset[4] != co_inv:
                return False, {"n": n, "table": list(w), "tuple": list(t_poset)}, None
    return True, None, None


def _first_difference(counters: Sequence[dict]):
    keys = sorted(set().union(*counters))
    for key in keys:
        values = [c.get(key, 0) for c in counters]
        if len(set(values)) > 1:
            return {"tuple": list(key), "counts": values}
    return None


def check_mahonian(n_max: int):
    """Incomparable pairs on factorial posets and embraced closers on
    matchings with no left-nesting are both distributed like inversions on
    permutations."""
    for n in range(n_max + 1):
        counters = [
            distribution(_factorial_posets(n), "factorial_posets", ("ip",)).rows,
            distribution(_perms(n), "permutations", ("inv",)).rows,
            distribution(
                (table_to_matching(w) for w in _tables(n)), "matchings", ("emb",)).rows,
        ]
        diff = _first_difference(counters)
        if diff:
            return False, {"n": n, **diff}, None
    return True, None, None


def check_eulerian(n_max: int):
    """Levels of factorial posets, opener intervals of matchings with no
    left-nesting and distinct table entries are all Eulerian: their common
    distribution matches descents (shifted by one) and the distinct-entry
    recurrence."""
    for n in range(n_max + 1):
        lev = distribution(_factorial_posets(n), "factorial_posets", ("lev",)).rows
        inter = distribution(
            (table_to_matching(w) for w in _tables(n)), "matchings", ("inter",)).rows
        dent = distribution(_tables(n), "inversion_tables", ("dent",)).rows
        counters = [lev, inter, dent]
        diff = _first_difference(counters)
        if diff:
            return False, {"n": n, **diff}, None
        if n >= 1:
            des = distribution(_perms(n), "permutations", ("des",)).rows
            shifted = {(k + 1,): v for (k,), v in des.items()}
            if shifted != dent:
                return False, {"n": n, "descents_shifted": sorted(shifted.items()),
                               "dent": sorted(dent.items())}, None
            row = eulerian_triangle_row(n)
            expected = {(k,): row[k - 1] for k in range(1, n + 1) if row[k - 1]}
            if expected != dent:
                return False, {"n": n, "recurrence_row": list(row),
                               "dent": sorted(dent.items())}, None
    return True, None, None


# ---------------------------------------------------------------------------
# Conjectured equidistributions
# ---------------------------------------------------------------------------

def _shifted(rows: dict, shift) -> dict:
    return {tuple(v + d for v, d in zip(key, shift)): count for key, count in rows.items()}


def _conjecture_triples(n_max, poset_names, perm_names, matching_names,
                        poset_shift=(0, 0, 0), matching_shift=(0, 0, 0),
                        start=0):
    for n in range(start, n_max + 1):
        posets = distribution(_factorial_posets(n), "factorial_posets", poset_names).rows
        perms = distribution(_perms(n), "permutations", perm_names).rows
        matchings = distribution(
            (m for m in _matchings(n) if not has_left_nesting(m)), "matchings",
            matching_names).rows
        diff = _first_difference([_shifted(posets, poset_shift), perms,
                                  _shifted(matchings, matching_shift)])
        if diff:
            return False, {"n": n, **diff}, None
    return True, None, None


def check_conjecture_one(n_max: int):
    """Conjectured: neighbor violations, components and minima on factorial
    posets; pattern occurrences, components and left-to-right minima on
    permutations; right-nestings, components and minima on matchings with
    no left-nesting: all three triples equidistributed."""
    return _conjecture_triples(
        n_max,
        ("rne_poset", "comp", "min"),
        ("p", "comp", "lmin"),
        ("rne", "comp", "min"),
    )


def check_conjecture_two(n_max: int):
    """Conjectured second triple: neighbor violations, minima and levels
    less one; pattern occurrences, left-to-right maxima and descents;
    right-nestings, minima and opener intervals less one (n >= 1)."""
    return _conjecture_triples(
        n_max,
        ("rne_poset", "min", "lev"),
        ("p", "lmax", "des"),
        ("rne", "min", "inter"),
        poset_shift=(0, 0, -1),
        matching_shift=(0, 0, -1),
        start=1,
    )


def check_no_2_left_nestings(n_max: int):
    """Conjectured: matchings with no nesting whose openers are 1 or 2
    apart are counted by the Fishburn numbers."""
    fish = fishburn_numbers(n_max)
    for n in range(n_max + 1):
        count = sum(1 for m in _matchings(n) if count_gap_nestings(m, 2) == 0)
        if count != fish[n]:
            return False, _count_witness(n, "matchings with no 2-left-nesting",
                                         fish[n], count), None
    return True, None, None


def check_lne_second_order_eulerian(n_max: int):
    """Conjectured: the distribution of left-nestings over all matchings is
    the second-order Eulerian row, compared as multisets; row sums must be
    the odd double factorial.  The detected orientation is reported."""
    orientations = set()
    for n in range(n_max + 1):
        row = second_order_eulerian(n)
        if sum(row) != double_factorial(2 * n - 1):
            return False, {"n": n, "row": list(row), "expected_sum":
                           double_factorial(2 * n - 1)}, None
        dist = Counter(arc_statistics(m).lne for m in _matchings(n))
        counts = [dist.get(k, 0) for k in range(max(n, 1))]
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
# Aggregate class-count agreements
# ---------------------------------------------------------------------------

def check_fishburn_class_agreement(n_max: int):
    """Seven class cardinalities agree with the series coefficients
    1, 1, 2, 5, 15, 53, 217, ...: matchings with no neighbor nesting and
    with no neighbor crossing, triangular matrices, ascent sequences,
    factorial posets meeting the neighbor rule, and descent and ascent
    correcting sequences."""
    fish = fishburn_numbers(n_max)
    for n in range(n_max + 1):
        counts = {
            "no_neighbor_nesting_matchings":
                sum(1 for m in _matchings(n) if _no_neighbor_nesting(m)),
            "no_neighbor_crossing_matchings":
                sum(1 for m in _matchings(n) if _no_neighbor_crossing(m)),
            "triangular_matrices": len(_matrices(n)),
            "ascent_sequences": sum(1 for _ in gen_ascent_sequences(n)),
            "condition_one_factorial_posets":
                sum(1 for p in _natural_posets(n)
                    if is_factorial(p) and condition_one(p)),
            "descent_correcting_sequences":
                sum(1 for w in _tables(n) if is_descent_correcting(w)),
            "ascent_correcting_sequences":
                sum(1 for w in _tables(n) if is_ascent_correcting(w)),
        }
        for what, count in counts.items():
            if count != fish[n]:
                return False, _count_witness(n, what, fish[n], count), None
    return True, None, None


def check_catalan_class_agreement(n_max: int):
    """Four class cardinalities agree with the Catalan numbers: non-nesting
    matchings, posets both factorial and dually factorial, and the two
    zero-pattern matrix families."""
    for n in range(n_max + 1):
        expected = catalan(n)
        counts = {
            "non_nesting_matchings":
                sum(1 for m in _matchings(n) if not has_nesting(m)),
            "factorial_dually_factorial_posets":
                sum(1 for p in _natural_posets(n)
                    if is_factorial(p) and is_dually_factorial(p)),
            "nonnesting_image_matrices":
                sum(1 for t in _matrices(n) if matrix_is_nonnesting_image(t)),
            "noncrossing_image_matrices":
                sum(1 for t in _matrices(n) if matrix_is_noncrossing_image(t)),
        }
        for what, count in counts.items():
            if count != expected:
                return False, _count_witness(n, what, expected, count), None
    return True, None, None


# ---------------------------------------------------------------------------
# Registry and runners
# ---------------------------------------------------------------------------

# name -> (kind, default n_max, function)
REGISTRY: dict[str, tuple[str, int, object]] = {
    "thm_no_left_nesting_count": ("theorem", 6, check_no_left_nesting_count),
    "thm_no_left_crossing_count": ("theorem", 6, check_no_left_crossing_count),
    "thm_factorial_poset_count": ("theorem", 6, check_factorial_poset_count),
    "prop_factorial_posets_two_plus_two_free":
        ("proposition", 6, check_factorial_two_plus_two_free),
    "prop_condition_one_fishburn": ("proposition", 6, check_condition_one_fishburn),
    "prop_condition_one_variant": ("proposition", 6, check_condition_one_variant),
    "prop_unique_labeling": ("proposition", 6, check_unique_labeling),
    "thm_matrix_map_no_neighbor_nesting":
        ("theorem", 5, check_matrix_map_no_neighbor_nesting),
    "thm_matrix_map_no_neighbor_crossing":
        ("theorem", 5, check_matrix_map_no_neighbor_crossing),
    "thm_matrix_map_surjective": ("theorem", 5, check_matrix_map_surjective),
    "prop_zero_one_matrices": ("proposition", 5, check_zero_one_matrices),
    "cor_catalan_matrix_images": ("corollary", 6, check_catalan_matrix_images),
    "prop_descent_correcting_fishburn": ("proposition", 6, check_descent_correcting),
    "prop_ascent_correcting_fishburn": ("proposition", 6, check_ascent_correcting),
    "prop_factorial_dually_factorial_catalan":
        ("proposition", 6, check_factorial_dually_factorial_catalan),
    "prop_three_plus_one_free_equivalence": ("proposition", 6, check_three_plus_one_free),
    "thm_poset_matching_round_trip": ("theorem", 6, check_poset_matching_round_trip),
    "prop_nesting_criterion": ("proposition", 6, check_nesting_criterion),
    "prop_triple_statistics": ("proposition", 6, check_triple_statistics),
    "cor_mahonian": ("corollary", 7, check_mahonian),
    "cor_eulerian": ("corollary", 7, check_eulerian),
    "conj1_equidistribution": ("conjecture", 6, check_conjecture_one),
    "conj2_equidistribution": ("conjecture", 6, check_conjecture_two),
    "conj3_no_2_left_nestings": ("conjecture", 6, check_no_2_left_nestings),
    "conj4_lne_second_order_eulerian":
        ("conjecture", 6, check_lne_second_order_eulerian),
    "cor_fishburn_class_agreement": ("corollary", 6, check_fishburn_class_agreement),
    "cor_catalan_class_agreement": ("corollary", 6, check_catalan_class_agreement),
}


def run_check(name: str, n_max: int | None = None) -> CheckReport:
    """Execute one registered check for all n up to n_max (or its default)."""
    if name not in REGISTRY:
        raise UnknownCheck(f"unknown check {name!r}")
    kind, default_n, fn = REGISTRY[name]
    limit = default_n if n_max is None else n_max
    start = time.perf_counter()
    ok, witness, detail = fn(limit)
    elapsed = time.perf_counter() - start
    return CheckReport(
        check=name,
        kind=kind,
        n_max=limit,
        verdict="pass" if ok else "fail",
        witness=witness,
        elapsed=elapsed,
        detail=detail,
    )


def run_all(n_max: int | None = None) -> list[CheckReport]:
    """Run every registered check in registry order."""
    return [run_check(name, n_max) for name in REGISTRY]


def check_equidistribution(
    classes: Sequence[tuple[str, Iterable, Sequence[str]]],
) -> CheckReport:
    """Compare statistic-tuple distributions across two or more classes.

    ``classes`` holds (class_name, object stream, statistic names) triples;
    all tuples must have the same arity.  The witness on failure is the
    lexicographically smallest tuple whose counts differ.
    """
    if len(classes) < 2:
        raise ValueError("need at least two classes to compare")
    arities = {len(names) for _, _, names in classes}
    if len(arities) != 1:
        raise ValueError(f"statistic tuples have mixed arities: {sorted(arities)}")
    start = time.perf_counter()
    counters = [
        distribution(stream, class_name, names).rows
        for class_name, stream, names in classes
    ]
    diff = _first_difference(counters)
    elapsed = time.perf_counter() - start
    return CheckReport(
        check="equidistribution",
        kind="proposition",
        n_max=None,
        verdict="pass" if diff is None else "fail",
        witness=diff,
        elapsed=elapsed,
    )
