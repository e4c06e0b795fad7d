"""Bijections between inversion tables, matchings, posets, permutations and
upper triangular matrices.

The inversion-table side is the hub.  An inversion table (a_1, ..., a_n) has
0 <= a_i <= i - 1; there are n! of them.  Both matching constructions insert
arcs one at a time by one rule: arc i gets the largest closer so far, and
its opener goes into the gap after the a_i-th closer (the gap before the
first closer when a_i = 0).

* :func:`table_to_matching` puts the opener last in that gap.  The image is
  exactly the matchings with no left-nesting.
* :func:`table_to_crossfree_matching` puts it first in that gap.  The image
  is exactly the matchings with no left-crossing.

Either way a_i counts the closers left of arc i's opener, so both inverses
read the table back the same way.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import itemgetter
from typing import Sequence

from .errors import (
    HasLeftCrossing,
    HasLeftNesting,
    NotAPermutation,
    NotFactorial,
    NotTwoPlusTwoFree,
    NotZeroOne,
)
from .objects import (
    Matching,
    Poset,
    TriangularMatrix,
    _bits,
    first_neighbor_pair,
    is_factorial,
    is_two_plus_two_free_by_inclusion,
    is_zero_one,
    validate_permutation,
)


def _insert(w: Sequence[int], last: bool) -> Matching:
    """Insert arcs 1..n by the table rule; opener last or first in its gap."""
    gaps: list[list[int]] = [[]]        # gaps[j]: openers between closers j, j+1
    for i, a in enumerate(w):
        gaps[a].append(i)               # arrival order; read reversed for "first"
        gaps.append([])
    openers = [0] * len(w)
    arcs = []
    pos = 0
    for i, gap in enumerate(gaps[:-1]):
        for arc in gap if last else reversed(gap):
            pos += 1
            openers[arc] = pos
        pos += 1
        # arc i's opener sits in gaps[a_i] with a_i <= i, so it is placed
        arcs.append((openers[i], pos))
    # arcs come in closer order, so the tuple is already canonical
    return Matching(tuple(arcs))


def _read_table(m: Matching) -> tuple[int, ...]:
    closers = m.closers
    return tuple(bisect_left(closers, o) for o, _ in m.arcs)


def table_to_matching(w: Sequence[int]) -> Matching:
    """Build the matching with no left-nestings encoded by inversion table w.

    >>> table_to_matching((0, 1, 0, 1)).arcs
    ((1, 3), (4, 6), (2, 7), (5, 8))
    """
    return _insert(w, last=True)


def matching_to_table(m: Matching) -> tuple[int, ...]:
    """Inverse of :func:`table_to_matching`: a_i counts the closers to the
    left of the opener of the i-th arc (arcs ordered by closer).

    Raises HasLeftNesting if the matching is outside the bijection's range.
    """
    bad = first_neighbor_pair(m, left=True, nesting=True)
    if bad is not None:
        raise HasLeftNesting(bad)
    return _read_table(m)


def table_to_crossfree_matching(w: Sequence[int]) -> Matching:
    """Build the matching with no left-crossings encoded by inversion table w.

    >>> table_to_crossfree_matching((0, 0, 0)).arcs
    ((3, 4), (2, 5), (1, 6))
    """
    return _insert(w, last=False)


def crossfree_matching_to_table(m: Matching) -> tuple[int, ...]:
    """Inverse of :func:`table_to_crossfree_matching`; raises HasLeftCrossing."""
    bad = first_neighbor_pair(m, left=True, nesting=False)
    if bad is not None:
        raise HasLeftCrossing(bad)
    return _read_table(m)


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
    return Poset.from_pre_masks(tuple((1 << a) - 1 for a in w))


def poset_to_matching(p: Poset) -> Matching:
    """Composite map: factorial poset -> inversion table -> matching."""
    return table_to_matching(poset_to_table(p))


def matching_to_poset(m: Matching) -> Poset:
    """Direct inverse of :func:`poset_to_matching`: with arcs ordered by
    closer, i is below j exactly when arc i's closer precedes arc j's opener.

    This reads the matching as an interval representation of the poset.
    """
    bad = first_neighbor_pair(m, left=True, nesting=True)
    if bad is not None:
        raise HasLeftNesting(bad)
    closers = m.closers
    return Poset.from_pre_masks(tuple(
        sum(1 << i for i, c in enumerate(closers) if c < o) for o, _ in m.arcs))


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


def _preimage(t: TriangularMatrix, openers_cross: bool, closers_cross: bool) -> Matching:
    """The unique preimage of ``t`` whose arcs with adjacent openers cross
    (``openers_cross``) or nest, and whose arcs with adjacent closers cross
    (``closers_cross``) or nest.

    The layout is O_1, C_1, O_2, C_2, ... with |O_i| = row sum i and
    |C_j| = column sum j.  Crossing openers serve their columns in ascending
    order and nesting openers in descending order; crossing closers serve
    their rows in ascending order and nesting closers in descending order.
    Inside a block the arcs pair crosswise when both rules cross and nested
    when both nest.  Under mixed rules a block holds at most one arc, so the
    matrix must be 0-1; raises NotZeroOne otherwise.
    """
    if openers_cross != closers_cross and not is_zero_one(t):
        raise NotZeroOne(f"matrix has an entry larger than 1: {t.rows}")
    k, rows = t.k, t.rows
    openers, closers = {}, {}
    pos = 1
    for a in range(k):
        for j in range(a, k) if openers_cross else range(k - 1, a - 1, -1):
            openers[a, j] = range(pos, pos + rows[a][j])
            pos += rows[a][j]
        for i in range(a + 1) if closers_cross else range(a, -1, -1):
            closers[i, a] = range(pos, pos + rows[i][a])
            pos += rows[i][a]
    arcs = [
        arc
        for block, xs in openers.items()
        for arc in zip(xs, closers[block] if openers_cross else reversed(closers[block]))
    ]
    return Matching(tuple(sorted(arcs, key=itemgetter(1))))


def matrix_to_matching_no_neighbor_nesting(t: TriangularMatrix) -> Matching:
    """The unique preimage of ``t`` with no left- and no right-nestings."""
    return _preimage(t, openers_cross=True, closers_cross=True)


def matrix_to_matching_no_neighbor_crossing(t: TriangularMatrix) -> Matching:
    """The unique preimage of ``t`` with no left- and no right-crossings."""
    return _preimage(t, openers_cross=False, closers_cross=False)


def zero_one_matrix_to_matching(t: TriangularMatrix) -> Matching:
    """The unique preimage of a 0-1 matrix with no left-nesting and no
    right-crossing; raises NotZeroOne on a larger entry."""
    return _preimage(t, openers_cross=True, closers_cross=False)


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
    """Apply a relabeling permutation: element x becomes sigma[x-1].

    Raises NotAPermutation unless sigma is a permutation of 1..n.
    """
    sigma = validate_permutation(sigma)
    if len(sigma) != p.n:
        raise NotAPermutation(f"relabeling of length {len(sigma)} for a poset on [{p.n}]")
    masks = [0] * p.n
    for j, mask in enumerate(p.pre_masks):
        new = 0
        for i in _bits(mask):
            new |= 1 << (sigma[i] - 1)
        masks[sigma[j] - 1] = new
    return Poset.from_pre_masks(tuple(masks))


def canonical_labels(p: Poset) -> tuple[int, ...]:
    """New label of each element under the canonical relabeling.

    Elements are ordered by successor count descending, then predecessor
    count ascending; ties are broken by ascending input label, which is
    harmless because tied elements are indistinguishable.  The domain is
    checked by the inclusion-chain criterion (a poset is two-plus-two-free
    exactly when its predecessor sets are linearly ordered by inclusion);
    raises NotTwoPlusTwoFree outside it.
    """
    if not is_two_plus_two_free_by_inclusion(p):
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
