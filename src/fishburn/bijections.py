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
read the table back the same way.  The maps run on every object of a class
are one pass each: the insertions fill the matching's partner tuple as they
place arcs, and the maps from a matching (:func:`matching_to_table`,
:func:`matching_to_poset`, :func:`matching_to_matrix`) sweep its positions
once, and the first two raise in that sweep at the first left pair of arcs
outside the image.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
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
    is_factorial,
    is_zero_one,
    validate_permutation,
)


def _insert(w: Sequence[int], last: bool) -> Matching:
    """Insert arcs 1..n by the table rule; opener last or first in its gap."""
    n = len(w)
    gaps: list[list[int]] = [[] for _ in range(n)]  # gaps[j]: openers between closers j, j+1
    for i, a in enumerate(w):
        gaps[a].append(i)               # arrival order; read reversed for "first"
    opener_of = [0] * n
    partner = [0] * (2 * n + 2)
    pos = 0
    for i, gap in enumerate(gaps):
        for arc in gap if last else reversed(gap):
            pos += 1
            opener_of[arc] = pos
        pos += 1
        # arc i's opener sits in gaps[a_i] with a_i <= i, so it is placed
        o = opener_of[i]
        partner[o], partner[pos] = pos, o
    return Matching.from_partner(tuple(partner))


def _read_table(m: Matching, nesting: bool) -> tuple[int, ...]:
    """a_i, the closers left of the opener of the i-th arc, in one sweep that
    raises at the first left pair that nests (or crosses, if not ``nesting``)."""
    p = m.partner
    before = [0] * len(p)               # before[o]: the closers left of opener o
    table: list[int] = []
    for x in range(1, len(p) - 1):
        o = p[x]
        if o > x:                       # does an arc opened at x - 1 nest, cross this one?
            if p[x - 1] > o if nesting else x - 1 < p[x - 1] < o:
                raise (HasLeftNesting if nesting else HasLeftCrossing)(((x - 1, p[x - 1]), (x, o)))
            before[x] = len(table)
        else:
            table.append(before[o])
    return tuple(table)


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
    return _read_table(m, nesting=True)


def table_to_crossfree_matching(w: Sequence[int]) -> Matching:
    """Build the matching with no left-crossings encoded by inversion table w.

    >>> table_to_crossfree_matching((0, 0, 0)).arcs
    ((3, 4), (2, 5), (1, 6))
    """
    return _insert(w, last=False)


def crossfree_matching_to_table(m: Matching) -> tuple[int, ...]:
    """Inverse of :func:`table_to_crossfree_matching`; raises HasLeftCrossing."""
    return _read_table(m, nesting=False)


# ---------------------------------------------------------------------------
# Factorial posets <-> inversion tables, and the composite to matchings
# ---------------------------------------------------------------------------

def poset_to_table(p: Poset) -> tuple[int, ...]:
    """(pre(1), ..., pre(n)) of a factorial poset; raises NotFactorial."""
    if not is_factorial(p):
        raise NotFactorial(f"poset on [{p.n}] is not factorial")
    return tuple([mask.bit_length() for mask in p.pre_masks])


def table_to_poset(w: Sequence[int]) -> Poset:
    """Factorial poset with i below k exactly when 1 <= i <= a_k.

    The relation is already transitively closed because a_i <= i - 1.
    """
    return Poset.from_pre_masks(tuple([(1 << a) - 1 for a in w]))


def poset_to_matching(p: Poset) -> Matching:
    """Composite map: factorial poset -> inversion table -> matching."""
    return table_to_matching(poset_to_table(p))


def matching_to_poset(m: Matching) -> Poset:
    """Direct inverse of :func:`poset_to_matching`: with arcs ordered by
    closer, i is below j exactly when arc i's closer precedes arc j's opener.

    This reads the matching as an interval representation of the poset, in
    one sweep that gives each opener the mask of the arcs closed so far.
    """
    p = m.partner
    given = [0] * len(p)                # given[o]: arcs closed before opener o
    closed, masks = 0, []
    for x in range(1, len(p) - 1):
        y = p[x]
        if y > x:                       # x opens an arc, nested in one opened at x - 1?
            if p[x - 1] > y:
                raise HasLeftNesting(((x - 1, p[x - 1]), (x, y)))
            given[x] = closed
        else:                           # x closes arc len(masks), bit len(masks)
            masks.append(given[y])
            closed = closed << 1 | 1
    return Poset.from_pre_masks(tuple(masks))


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
    p = m.partner                       # x is an opener exactly when p[x] > x
    block = [0] * len(p)                # block[o]: the index of opener o's run
    cells = []                          # (opener run, closer run) of each arc
    runs = -1                           # opener runs so far, less one
    closing = True                      # whether x - 1 is a closer, or x is 1
    for x in range(1, len(p) - 1):
        y = p[x]
        if y > x:
            if closing:
                runs += 1
                closing = False
            block[x] = runs
        else:
            cells.append((block[y], runs))   # runs alternate, openers first
            closing = True
    k = runs + 1
    t = [[0] * k for _ in range(k)]
    for i, j in cells:
        t[i][j] += 1
    return TriangularMatrix(tuple(map(tuple, t)))   # valid by construction


def poset_to_matrix(p: Poset) -> TriangularMatrix:
    """The characteristic matrix of a two-plus-two-free poset (Dukes and
    Parviainen): its distinct predecessor sets form a chain D_1 < ... < D_k,
    its distinct successor sets a chain U_1 > ... > U_k, and entry (i, j)
    counts the elements x with pre(x) = D_i and suc(x) = U_j.  Raises
    NotTwoPlusTwoFree when a chain breaks or the two differ in length.

    >>> poset_to_matrix(Poset(3, {(1, 3)})).rows
    ((1, 1), (0, 1))
    """
    pre, suc = p.pre_masks, p.suc_masks
    downs = sorted(set(pre), key=int.bit_count)
    ups = sorted(set(suc), key=int.bit_count, reverse=True)
    if len(downs) != len(ups) or any(a & ~b for c in (downs, ups[::-1]) for a, b in zip(c, c[1:])):
        raise NotTwoPlusTwoFree(f"poset on [{p.n}] contains an induced two-plus-two")
    t = [[0] * len(downs) for _ in downs]
    for d, u in zip(pre, suc):
        t[downs.index(d)][ups.index(u)] += 1
    return TriangularMatrix.from_rows(t)


def _preimage(t: TriangularMatrix, openers_cross: bool, closers_cross: bool) -> Matching:
    """The unique preimage of ``t`` whose arcs with adjacent openers cross
    (``openers_cross``) or nest, and whose arcs with adjacent closers cross
    (``closers_cross``) or nest.

    The layout is O_1, C_1, O_2, C_2, ... with |O_i| = row sum i and
    |C_j| = column sum j.  Crossing openers serve their columns in ascending
    order and nesting openers in descending order; crossing closers serve
    their rows in ascending order and nesting closers in descending order.
    Only nonzero blocks are laid out; each closer block pairs as it is placed.
    Inside a block the arcs pair crosswise when both rules cross and nested
    when both nest.  Under mixed rules a block holds at most one arc, so the
    matrix must be 0-1; raises NotZeroOne otherwise.
    """
    if openers_cross != closers_cross and not is_zero_one(t):
        raise NotZeroOne(f"matrix has an entry larger than 1: {t.rows}")
    k, rows = t.k, t.rows
    partner = [0] * (2 * t.total + 2)
    opened, pos = {}, 1                 # opened[i, j]: the first opener of block (i, j)
    for a, (row, col) in enumerate(zip(rows, zip(*rows))):
        js = list(itertools.compress(range(k), row))
        for j in js if openers_cross else reversed(js):
            opened[a, j] = pos
            pos += row[j]
        ids = list(itertools.compress(range(a + 1), col))
        for i in ids if closers_cross else reversed(ids):
            o, v = opened[i, a], col[i]
            for c in range(pos, pos + v) if openers_cross else range(pos + v - 1, pos - 1, -1):
                partner[o], partner[c] = c, o
                o += 1
            pos += v
    return Matching.from_partner(tuple(partner))


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

def _relabel(p: Poset, sigma: Sequence[int]) -> Poset:
    """:func:`relabel_poset` for a sigma known to permute 1..n, unchecked."""
    bit = [1 << (s - 1) for s in sigma]
    masks = [0] * len(sigma)
    for j, mask in enumerate(p.pre_masks):
        new = 0
        while mask:
            low = mask & -mask
            new |= bit[low.bit_length() - 1]
            mask ^= low
        masks[sigma[j] - 1] = new
    return Poset.from_pre_masks(tuple(masks))


def relabel_poset(p: Poset, sigma: Sequence[int]) -> Poset:
    """Apply a relabeling permutation: element x becomes sigma[x-1].

    Raises NotAPermutation unless sigma is a permutation of 1..n.
    """
    sigma = validate_permutation(sigma)
    if len(sigma) != p.n:
        raise NotAPermutation(f"relabeling of length {len(sigma)} for a poset on [{p.n}]")
    return _relabel(p, sigma)


def canonical_labels(p: Poset) -> tuple[int, ...]:
    """New label of each element under the canonical relabeling.

    Elements are ordered by successor count descending, then predecessor
    count ascending; ties are broken by ascending input label, which is
    harmless because tied elements are indistinguishable.  The domain is
    checked by the inclusion-chain criterion (a poset is two-plus-two-free
    exactly when its predecessor sets are linearly ordered by inclusion);
    raises NotTwoPlusTwoFree outside it.  The same walk counts successors.
    """
    masks = p.pre_masks
    n = len(masks)
    first, prev = [n] * n, 0  # suc(x) = n - first[x]: the sets from there on hold x
    for t, mask in enumerate(sorted(masks, key=int.bit_count)):
        if prev & ~mask:
            raise NotTwoPlusTwoFree(f"poset on [{n}] contains an induced two-plus-two")
        new = mask & ~prev
        while new:
            low = new & -new
            first[low.bit_length() - 1] = t
            new ^= low
        prev = mask
    # by (first[x], pre(x)), pre(x) < n; the stable sort keeps ties in label order
    keys = [t * n + mask.bit_count() for t, mask in zip(first, masks)]
    order = sorted(range(n), key=keys.__getitem__)
    sigma = [0] * n
    for new_label, x in enumerate(order, start=1):
        sigma[x] = new_label
    return tuple(sigma)


def canonical_labeling(p: Poset) -> Poset:
    """Relabel a two-plus-two-free poset so that it becomes factorial and
    neighbors satisfy pre(i) <= pre(i+1) or suc(i) > suc(i+1)."""
    return _relabel(p, canonical_labels(p))
