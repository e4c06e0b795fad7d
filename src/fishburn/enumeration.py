"""Exhaustive generators, class filters, and independent numeric sequences.

Generators are deterministic: two runs yield identical streams, and the
order is lexicographic on the canonical encoding of each object, so a
failure reported by index is reproducible.  Class membership is always
decided by predicates on fully generated objects; the counting sequences
(factorials, Catalan, the Fishburn series, the second-order Eulerian rows)
are computed by formula or recurrence, independent of the generators, so
count agreement is evidence rather than restatement.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import objects
from .bijections import (
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    table_to_poset,
)
from .errors import UnknownClass, UnknownPredicate, UnknownStatistic
from .objects import Matching, Poset, TriangularMatrix, is_zero_one
from .statistics import VOCABULARY, stats_for


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_matchings(n: int) -> Iterator[Matching]:
    """All perfect matchings of [2n] in lexicographic order of their
    canonical (closer-sorted) arc tuples.  There are 1*3*...*(2n-1) of them.
    """
    def pair_up(points):
        if not points:
            yield ()
            return
        first = points[0]
        for idx in range(1, len(points)):
            rest = points[1:idx] + points[idx + 1:]
            for sub in pair_up(rest):
                yield ((first, points[idx]),) + sub

    all_arcsets = []
    for arcset in pair_up(tuple(range(1, 2 * n + 1))):
        all_arcsets.append(tuple(sorted(arcset, key=lambda arc: arc[1])))
    all_arcsets.sort()
    for arcs in all_arcsets:
        yield Matching(arcs)


def gen_inversion_tables(n: int) -> Iterator[tuple[int, ...]]:
    """All inversion tables of length n, lexicographically; n! of them."""
    return itertools.product(*(range(i + 1) for i in range(n)))


def gen_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of 1..n in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


def gen_factorial_posets(n: int) -> Iterator[Poset]:
    """All factorial posets on [n], via the inversion-table encoding."""
    for w in gen_inversion_tables(n):
        yield table_to_poset(w)


def gen_natural_posets(n: int) -> Iterator[Poset]:
    """All naturally labeled posets on [n], independently of any bijection.

    Element k+1 is appended with its predecessor set ranging over the down
    sets of the poset built so far; this reaches every naturally labeled
    poset exactly once.  Counts run 1, 1, 2, 7, 40, 357, 4824, 96428.
    """
    def extend(masks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        k = len(masks)
        if k == n:
            yield masks
            return
        for s in range(1 << k):
            closed = True
            bits = s
            while bits:
                low = bits & -bits
                if masks[low.bit_length() - 1] & ~s:
                    closed = False
                    break
                bits ^= low
            if closed:
                yield from extend(masks + (s,))

    for masks in extend(()):
        rel = frozenset(
            (i, j)
            for j, mask in enumerate(masks, start=1)
            for i in range(1, j)
            if mask >> (i - 1) & 1
        )
        yield Poset(n, rel)


def gen_matrices(n: int) -> Iterator[TriangularMatrix]:
    """All upper triangular matrices with entry sum n and no zero row or
    column, by dimension then lexicographically by the upper cells.

    The upper cells are filled depth first in row-major order, each with its
    values in increasing order.  A branch is cut only when it cannot be
    completed: a row would end all zero, column j would still be zero after
    cell (j, j), or the sum left would be less than the number of rows still
    to fill.  Only dead branches are cut, so the stream is that of filling
    every composition of n and rejecting the bad ones, in the same order.

    >>> [sum(1 for _ in gen_matrices(n)) for n in range(8)]
    [1, 1, 2, 5, 15, 53, 217, 1014]
    """
    if n == 0:
        yield TriangularMatrix(())
        return
    for k in range(1, n + 1):
        rows = [[0] * k for _ in range(k)]
        row_sums = [0] * k
        col_sums = [0] * k

        def fill(i: int, j: int, left: int) -> Iterator[TriangularMatrix]:
            # the cells before (i, j) are set and ``left`` is still to place
            if i == k:
                yield TriangularMatrix(tuple(tuple(row) for row in rows))
                return
            must = (j == i and not col_sums[j]) or (j == k - 1 and not row_sums[i])
            low = 1 if must else 0
            high = left - (k - 1 - i)       # each later row needs an entry
            if i == j == k - 1:             # the last cell takes what is left
                low = max(low, left)
            nxt_i, nxt_j = (i, j + 1) if j + 1 < k else (i + 1, i + 1)
            for v in range(low, high + 1):
                rows[i][j] = v
                row_sums[i] += v
                col_sums[j] += v
                yield from fill(nxt_i, nxt_j, left - v)
                row_sums[i] -= v
                col_sums[j] -= v
            rows[i][j] = 0

        yield from fill(0, 0, n)


def gen_ascent_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All sequences with x_1 = 0 and 0 <= x_i <= 1 + #ascents so far."""
    if n == 0:
        yield ()
        return

    def extend(seq: tuple[int, ...], ascents: int) -> Iterator[tuple[int, ...]]:
        if len(seq) == n:
            yield seq
            return
        for v in range(0, ascents + 2):
            yield from extend(seq + (v,), ascents + (1 if v > seq[-1] else 0))

    yield from extend((0,), 0)


GENERATORS = {
    "matchings": gen_matchings,
    "inversion_tables": gen_inversion_tables,
    "permutations": gen_permutations,
    "factorial_posets": gen_factorial_posets,
    "natural_posets": gen_natural_posets,
    "matrices": gen_matrices,
    "ascent_sequences": gen_ascent_sequences,
}


def generate(class_name: str, n: int) -> Iterator:
    if class_name not in GENERATORS:
        raise UnknownClass(f"unknown object class {class_name!r}")
    return GENERATORS[class_name](n)


# ---------------------------------------------------------------------------
# Class filters
# ---------------------------------------------------------------------------

_MATCHINGS = ("matchings",)
_POSETS = ("factorial_posets", "natural_posets")

# predicate name -> (generator classes it applies to, membership test)
PREDICATES = {
    "no_left_nesting": (_MATCHINGS, lambda m: not objects.has_left_nesting(m)),
    "no_right_nesting": (_MATCHINGS, lambda m: not objects.has_right_nesting(m)),
    "no_left_crossing": (_MATCHINGS, lambda m: not objects.has_left_crossing(m)),
    "no_right_crossing": (_MATCHINGS, lambda m: not objects.has_right_crossing(m)),
    "no_neighbor_nesting": (
        _MATCHINGS,
        lambda m: not (objects.has_left_nesting(m) or objects.has_right_nesting(m)),
    ),
    "no_neighbor_crossing": (
        _MATCHINGS,
        lambda m: not (objects.has_left_crossing(m) or objects.has_right_crossing(m)),
    ),
    "no_nesting": (_MATCHINGS, lambda m: not objects.has_nesting(m)),
    "no_crossing": (_MATCHINGS, lambda m: not objects.has_crossing(m)),
    "no_2_left_nesting": (_MATCHINGS, lambda m: objects.count_gap_nestings(m, 2) == 0),
    "lne0_and_rcr0": (
        _MATCHINGS,
        lambda m: not (objects.has_left_nesting(m) or objects.has_right_crossing(m)),
    ),
    "natural": (_POSETS, objects.is_natural),
    "factorial": (_POSETS, objects.is_factorial),
    "dually_factorial": (_POSETS, objects.is_dually_factorial),
    "two_plus_two_free": (_POSETS, objects.is_two_plus_two_free),
    "three_plus_one_free": (_POSETS, objects.is_three_plus_one_free),
    "condition_one": (_POSETS, objects.condition_one),
    "condition_one_var": (_POSETS, objects.condition_one_var),
    "descent_correcting": (("inversion_tables",), objects.is_descent_correcting),
    "ascent_correcting": (("inversion_tables",), objects.is_ascent_correcting),
    "zero_one": (("matrices",), is_zero_one),
    "nonnesting_image": (("matrices",), matrix_is_nonnesting_image),
    "noncrossing_image": (("matrices",), matrix_is_noncrossing_image),
}


def filter_class(stream: Iterable, predicate_name: str) -> Iterator:
    """Filter a stream by a registered predicate, preserving order."""
    if predicate_name not in PREDICATES:
        raise UnknownPredicate(f"unknown predicate {predicate_name!r}")
    _, test = PREDICATES[predicate_name]
    return (obj for obj in stream if test(obj))


# ---------------------------------------------------------------------------
# Counting sequences
# ---------------------------------------------------------------------------

def fishburn_numbers(n_max: int) -> list[int]:
    """Coefficients of sum over m of prod_{i=1..m} (1 - (1-t)^i), truncated.

    Exact integer polynomial arithmetic throughout; the truncation degree is
    explicit.  The sequence starts 1, 1, 2, 5, 15, 53, 217, 1014, ...

    >>> fishburn_numbers(6)
    [1, 1, 2, 5, 15, 53, 217]
    """
    def multiply(p: list[int], q: list[int]) -> list[int]:
        out = [0] * min(len(p) + len(q) - 1, n_max + 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    if i + j <= n_max:
                        out[i + j] += a * b
        return out

    total = [1] + [0] * n_max          # the empty product contributes 1
    power = [1]                         # (1-t)^0
    running = [1]                       # prod over i <= m of (1 - (1-t)^i)
    for m in range(1, n_max + 1):
        power = multiply(power, [1, -1])
        factor = [1 - power[0]] + [-c for c in power[1:]]
        running = multiply(running, factor)
        for i, c in enumerate(running):
            total[i] += c
    return total


def catalan(n: int) -> int:
    """Central binomial over n+1; 1, 1, 2, 5, 14, 42, 132, ..."""
    return math.comb(2 * n, n) // (n + 1)


def double_factorial(k: int) -> int:
    """k!! (product of k, k-2, ...); 1 for k <= 0.  (2n-1)!! counts the
    matchings on [2n]."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def second_order_eulerian(n: int) -> tuple[int, ...]:
    """Row n of the second-order Eulerian triangle; row sums are (2n-1)!!.

    E(n, k) = (k+1) E(n-1, k) + (2n-1-k) E(n-1, k-1) with E(1, 0) = 1.

    >>> second_order_eulerian(3)
    (1, 8, 6)
    """
    if n == 0:
        return (1,)
    row = [1]
    for m in range(2, n + 1):
        prev = row
        row = [
            (k + 1) * (prev[k] if k < len(prev) else 0)
            + (2 * m - 1 - k) * (prev[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return tuple(row)


def eulerian_triangle_row(n: int) -> tuple[int, ...]:
    """Entry k counts length-n inversion tables with k+1 distinct entries.

    Built by the distinct-entry recurrence d(n, k) = k d(n-1, k) +
    (n-k+1) d(n-1, k-1); these are the Eulerian numbers.
    """
    if n == 0:
        return (1,)
    d = {(0, 0): 1}
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            d[m, k] = k * d.get((m - 1, k), 0) + (m - k + 1) * d.get((m - 1, k - 1), 0)
    return tuple(d[n, k] for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Distribution tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionTable:
    """Multiset tally of statistic tuples over one object class."""

    stat_names: tuple[str, ...]
    rows: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def to_csv(self) -> str:
        """Header of stat names plus count; rows sorted lexicographically."""
        lines = [",".join(self.stat_names + ("count",))]
        for key in sorted(self.rows):
            lines.append(",".join(str(v) for v in key + (self.rows[key],)))
        return "\n".join(lines) + "\n"


def distribution(stream: Iterable, class_name: str,
                 stat_names: Sequence[str]) -> DistributionTable:
    """Tally the named statistic tuple over every object in the stream."""
    names = tuple(stat_names)
    for name in names:
        if name not in VOCABULARY.get(class_name, ()):
            raise UnknownStatistic(f"{name!r} is not a {class_name} statistic")
    counter: Counter = Counter()
    for obj in stream:
        record = stats_for(class_name, obj, names)
        counter[tuple(record[name] for name in names)] += 1
    return DistributionTable(names, dict(counter))
