"""Bijections between inversion tables, matchings, posets, permutations and
upper triangular matrices.

The inversion-table side is the hub.  An inversion table (a_1, ..., a_n) has
0 <= a_i <= i - 1; there are n! of them.  The two matching constructions
insert arcs one at a time, always giving the new arc the largest closer:

* :func:`table_to_matching` puts the new opener immediately to the left of
  the (a_i + 1)st closer (or of its own closer when a_i = i - 1).  The image
  is exactly the matchings with no left-nesting.
* :func:`table_to_crossfree_matching` puts it immediately to the right of
  the a_i-th closer (extreme left when a_i = 0).  The image is exactly the
  matchings with no left-crossing.

Insertion works by index arithmetic on the endpoint sequence, with labels
recomputed afterwards; n stays small everywhere, so clarity wins.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Sequence

from .errors import (
    HasLeftCrossing,
    HasLeftNesting,
    NotFactorial,
    NotTwoPlusTwoFree,
    NotZeroOne,
)
from .objects import (
    Matching,
    Poset,
    TriangularMatrix,
    first_left_crossing,
    first_left_nesting,
    is_factorial,
    is_two_plus_two_free,
    is_zero_one,
)

_OPENER, _CLOSER = 0, 1


def _assemble(seq: list[tuple[int, int]], n: int) -> Matching:
    """Turn a sequence of (arc id, endpoint kind) marks into a Matching."""
    opener_pos = [0] * (n + 1)
    closer_pos = [0] * (n + 1)
    for pos, (arc, kind) in enumerate(seq, start=1):
        if kind == _CLOSER:
            closer_pos[arc] = pos
        else:
            opener_pos[arc] = pos
    # arcs were created in closer order, so this tuple is already canonical
    return Matching(tuple((opener_pos[i], closer_pos[i]) for i in range(1, n + 1)))


def _insert_before_closer(seq, arc, target):
    """Insert an opener mark immediately left of the target-th closer."""
    count = 0
    for pos, (_, kind) in enumerate(seq):
        if kind == _CLOSER:
            count += 1
            if count == target:
                seq.insert(pos, (arc, _OPENER))
                return
    raise AssertionError("closer index out of range")


def table_to_matching(w: Sequence[int]) -> Matching:
    """Build the matching with no left-nestings encoded by inversion table w.

    >>> table_to_matching((0, 1, 0, 1)).arcs
    ((1, 3), (4, 6), (2, 7), (5, 8))
    """
    seq: list[tuple[int, int]] = []
    for i, a in enumerate(w, start=1):
        if a == i - 1:
            seq.append((i, _OPENER))
        else:
            _insert_before_closer(seq, i, a + 1)
        seq.append((i, _CLOSER))
    return _assemble(seq, len(w))


def matching_to_table(m: Matching) -> tuple[int, ...]:
    """Inverse of :func:`table_to_matching`: a_i counts the closers to the
    left of the opener of the i-th arc (arcs ordered by closer).

    Raises HasLeftNesting if the matching is outside the bijection's range.
    """
    bad = first_left_nesting(m)
    if bad is not None:
        raise HasLeftNesting(bad)
    return _read_table(m)


def table_to_crossfree_matching(w: Sequence[int]) -> Matching:
    """Build the matching with no left-crossings encoded by inversion table w.

    >>> table_to_crossfree_matching((0, 0, 0)).arcs
    ((3, 4), (2, 5), (1, 6))
    """
    seq: list[tuple[int, int]] = []
    for i, a in enumerate(w, start=1):
        if a == 0:
            seq.insert(0, (i, _OPENER))
        else:
            count = 0
            for pos, (_, kind) in enumerate(seq):
                if kind == _CLOSER:
                    count += 1
                    if count == a:
                        seq.insert(pos + 1, (i, _OPENER))
                        break
        seq.append((i, _CLOSER))
    return _assemble(seq, len(w))


def crossfree_matching_to_table(m: Matching) -> tuple[int, ...]:
    """Inverse of :func:`table_to_crossfree_matching`; raises HasLeftCrossing."""
    bad = first_left_crossing(m)
    if bad is not None:
        raise HasLeftCrossing(bad)
    return _read_table(m)


def _read_table(m: Matching) -> tuple[int, ...]:
    closers = m.closers
    out = []
    for o, _ in m.arcs:
        count = 0
        for c in closers:
            if c > o:
                break
            count += 1
        out.append(count)
    return tuple(out)


# ---------------------------------------------------------------------------
# Factorial posets <-> inversion tables, and the composite to matchings
# ---------------------------------------------------------------------------

def poset_to_table(p: Poset) -> tuple[int, ...]:
    """(pre(1), ..., pre(n)) of a factorial poset; raises NotFactorial."""
    if not is_factorial(p):
        raise NotFactorial(f"poset on [{p.n}] is not factorial")
    return p.pre_vector


def table_to_poset(w: Sequence[int]) -> Poset:
    """Factorial poset with i below k exactly when 1 <= i <= a_k.

    The relation is already transitively closed because a_i <= i - 1.
    """
    n = len(w)
    rel = frozenset((i, k) for k, a in enumerate(w, start=1) for i in range(1, a + 1))
    return Poset(n, rel)


def poset_to_matching(p: Poset) -> Matching:
    """Composite map: factorial poset -> inversion table -> matching."""
    return table_to_matching(poset_to_table(p))


def matching_to_poset(m: Matching) -> Poset:
    """Direct inverse of :func:`poset_to_matching`: with arcs ordered by
    closer, i is below j exactly when arc i's closer precedes arc j's opener.

    This reads the matching as an interval representation of the poset.
    """
    bad = first_left_nesting(m)
    if bad is not None:
        raise HasLeftNesting(bad)
    arcs = m.arcs
    rel = frozenset(
        (i, j)
        for i, j in itertools.permutations(range(1, m.n + 1), 2)
        if arcs[i - 1][1] < arcs[j - 1][0]
    )
    return Poset(m.n, rel)


# ---------------------------------------------------------------------------
# Permutations <-> inversion tables
# ---------------------------------------------------------------------------

def permutation_to_table(pi: Sequence[int]) -> tuple[int, ...]:
    """Inversion table of a permutation, built right to left: the last entry
    is the position of n minus one, then recurse with n removed.

    Equivalently a_i counts the letters smaller than i to the left of i.

    >>> permutation_to_table((2, 3, 1))
    (0, 0, 1)
    """
    out = [0] * len(pi)
    seen: list[int] = []                 # letters read so far, sorted
    for v in pi:
        smaller = bisect_left(seen, v)
        out[v - 1] = smaller
        seen.insert(smaller, v)
    return tuple(out)


def table_to_permutation(w: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`permutation_to_table`.

    >>> table_to_permutation((0, 0, 1))
    (2, 3, 1)
    """
    out: list[int] = []
    for i, a in enumerate(w, start=1):
        out.insert(a, i)
    return tuple(out)


# ---------------------------------------------------------------------------
# The interval map to triangular matrices and its restricted inverses
# ---------------------------------------------------------------------------

def matching_to_matrix(m: Matching) -> TriangularMatrix:
    """Entry (i, j) counts the arcs from the i-th maximal opener interval to
    the j-th maximal closer interval.

    >>> matching_to_matrix(Matching.from_pairs([(1, 3), (2, 5), (4, 6)])).rows
    ((1, 1), (0, 1))
    """
    n = m.n
    if n == 0:
        return TriangularMatrix(())
    openers = set(m.openers)
    opener_block = {}
    closer_block = {}
    o_idx = c_idx = -1
    prev_kind = None
    for pos in range(1, 2 * n + 1):
        kind = pos in openers
        if kind != prev_kind:
            if kind:
                o_idx += 1
            else:
                c_idx += 1
            prev_kind = kind
        if kind:
            opener_block[pos] = o_idx
        else:
            closer_block[pos] = c_idx
    k = o_idx + 1
    t = [[0] * k for _ in range(k)]
    for o, c in m.arcs:
        t[opener_block[o]][closer_block[c]] += 1
    return TriangularMatrix.from_rows(t)


def _interval_layout(t: TriangularMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Opener and closer interval positions forced by the row/column sums.

    Layout is O_1, C_1, O_2, C_2, ... with |O_i| = row sum i and
    |C_i| = column sum i.
    """
    opener_ints, closer_ints = [], []
    pos = 1
    for r, c in zip(t.row_sums(), t.col_sums()):
        opener_ints.append(list(range(pos, pos + r)))
        pos += r
        closer_ints.append(list(range(pos, pos + c)))
        pos += c
    return opener_ints, closer_ints


def matrix_to_matching_no_neighbor_nesting(t: TriangularMatrix) -> Matching:
    """The unique preimage of ``t`` with no left- and no right-nestings.

    Arcs out of one opener interval must pairwise cross, and so must arcs
    into one closer interval; that forces which openers serve which columns
    (ascending), which closers serve which rows (ascending), and a parallel
    pairing inside each block.
    """
    k = t.k
    opener_ints, closer_ints = _interval_layout(t)
    arcs = []
    x_groups = _split(opener_ints, t, by_row=True, ascending=True)
    y_groups = _split(closer_ints, t, by_row=False, ascending=True)
    for i in range(k):
        for j in range(i, k):
            if t.rows[i][j]:
                arcs.extend(zip(x_groups[i][j], y_groups[i][j]))
    return Matching.from_pairs(arcs)


def matrix_to_matching_no_neighbor_crossing(t: TriangularMatrix) -> Matching:
    """The unique preimage of ``t`` with no left- and no right-crossings.

    Here arcs sharing an opener or closer interval must pairwise nest, which
    reverses the column order of openers, the row order of closers, and the
    pairing inside each block.
    """
    k = t.k
    opener_ints, closer_ints = _interval_layout(t)
    arcs = []
    x_groups = _split(opener_ints, t, by_row=True, ascending=False)
    y_groups = _split(closer_ints, t, by_row=False, ascending=False)
    for i in range(k):
        for j in range(i, k):
            if t.rows[i][j]:
                arcs.extend(zip(x_groups[i][j], reversed(y_groups[i][j])))
    return Matching.from_pairs(arcs)


def _split(intervals, t, by_row, ascending):
    """Partition each interval into consecutive per-block groups.

    For opener interval i the group sizes are row i of the matrix taken in
    ascending or descending column order; for closer interval j, column j in
    ascending or descending row order.  Returns groups[i][j] = positions.
    """
    k = t.k
    groups = [[None] * k for _ in range(k)]
    for a in range(k):
        if by_row:
            others = range(a, k) if ascending else range(k - 1, a - 1, -1)
        else:
            others = range(0, a + 1) if ascending else range(a, -1, -1)
        idx = 0
        for b in others:
            i, j = (a, b) if by_row else (b, a)
            size = t.rows[i][j]
            groups[i][j] = intervals[a][idx:idx + size]
            idx += size
    return groups


def zero_one_matrix_to_matching(t: TriangularMatrix) -> Matching:
    """The unique preimage of a 0-1 matrix with no left-nesting and no
    right-crossing.

    Each block holds at most one arc.  Openers of an interval serve their
    columns in ascending order (arcs from one opener interval must cross),
    closers serve their rows in descending order (arcs into one closer
    interval must nest).
    """
    if not is_zero_one(t):
        raise NotZeroOne(f"matrix has an entry larger than 1: {t.rows}")
    k = t.k
    opener_ints, closer_ints = _interval_layout(t)
    opener_of = {}
    closer_of = {}
    for i in range(k):
        cols = [j for j in range(i, k) if t.rows[i][j]]
        for pos, j in zip(opener_ints[i], cols):
            opener_of[i, j] = pos
    for j in range(k):
        rows = [i for i in range(j + 1) if t.rows[i][j]]
        for pos, i in zip(closer_ints[j], reversed(rows)):
            closer_of[i, j] = pos
    arcs = [
        (opener_of[i, j], closer_of[i, j])
        for i in range(k)
        for j in range(i, k)
        if t.rows[i][j]
    ]
    # the two assignment rules are forced independently; from_pairs verifies
    # they combine into a perfect matching (every position used exactly once)
    return Matching.from_pairs(arcs)


def matrix_is_nonnesting_image(t: TriangularMatrix) -> bool:
    """Is ``t`` the image of some matching with no nestings?

    Forbidden: two nonzero entries with the second strictly higher and
    strictly further right (rows i-x, columns j+y for x, y > 0).
    """
    nz = [(i, j) for i, row in enumerate(t.rows) for j, v in enumerate(row) if v]
    return not any(
        i2 < i1 and j2 > j1
        for (i1, j1), (i2, j2) in itertools.permutations(nz, 2)
    )


def matrix_is_noncrossing_image(t: TriangularMatrix) -> bool:
    """Is ``t`` the image of some matching with no crossings?

    Forbidden: nonzero entries at (i, j) and (i+x, j+y) with x, y > 0 and
    i + x <= j (1-based chain i < i+x <= j < j+y).
    """
    nz = [(i, j) for i, row in enumerate(t.rows) for j, v in enumerate(row) if v]
    return not any(
        i2 > i1 and j2 > j1 and i2 <= j1
        for (i1, j1), (i2, j2) in itertools.permutations(nz, 2)
    )


# ---------------------------------------------------------------------------
# The unique labeling of two-plus-two-free posets
# ---------------------------------------------------------------------------

def relabel_poset(p: Poset, sigma: Sequence[int]) -> Poset:
    """Apply a relabeling permutation: element x becomes sigma[x-1]."""
    return Poset(p.n, frozenset((sigma[i - 1], sigma[j - 1]) for i, j in p.less))


def canonical_labels(p: Poset) -> tuple[int, ...]:
    """New label of each element under the canonical relabeling.

    Elements are ordered by successor count descending, then predecessor
    count ascending; ties are broken by ascending input label, which is
    harmless because tied elements are indistinguishable.  Raises
    NotTwoPlusTwoFree outside the domain.
    """
    if not is_two_plus_two_free(p):
        raise NotTwoPlusTwoFree(f"poset on [{p.n}] contains an induced two-plus-two")
    order = sorted(range(1, p.n + 1), key=lambda x: (-p.suc(x), p.pre(x), x))
    sigma = [0] * p.n
    for new_label, x in enumerate(order, start=1):
        sigma[x - 1] = new_label
    return tuple(sigma)


def canonical_labeling(p: Poset) -> Poset:
    """Relabel a two-plus-two-free poset so that it becomes factorial and
    neighbors satisfy pre(i) <= pre(i+1) or suc(i) > suc(i+1)."""
    return relabel_poset(p, canonical_labels(p))
