"""Core object classes: matchings, inversion tables, posets, triangular matrices.

A matching of {1, ..., 2n} is a partition into n pairs; drawn as arcs, the
smaller endpoint of each pair is its opener and the larger its closer.  Arcs
are kept sorted by closer, which is the canonical order used by every
arc-indexed statistic ("the last arc" is the arc whose closer is 2n).

All types are immutable value objects; every operation here is a pure
function, so objects can be shared and evaluated in parallel freely.
Matchings and posets are slotted, with no per-object ``__dict__``, and each
keeps one slot: a matching its ``partner`` tuple, indexed by position, and a
poset its predecessor masks.  Every other view of either (its arcs; the
relation, successor masks and counts) is built from that slot on each read,
and the kernels that run on every object scan the slot itself.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateEndpoint,
    EndpointOutOfRange,
    EntryOutOfRange,
    InvalidMatrix,
    InvalidObject,
    NegativeEntry,
    NotAPartialOrder,
    NotAPerfectMatching,
    NotAPermutation,
    NotUpperTriangular,
    ZeroRowOrColumn,
)

Arc = tuple[int, int]


def _is_int(x) -> bool:
    """True for integers; JSON booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def validate_size(n) -> int:
    """n itself when it is a nonnegative integer, else ValueError."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"size {n!r} is not a nonnegative integer")
    return n


_fill = object.__setattr__      # sets a slot of an immutable object


class Value:
    """A value whose ``_fields`` are compared by ``==`` within one class, shown
    by ``repr``, and passed back to the constructor by copies and pickles."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _fill(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenValue(Value):
    """An immutable value, hashed as the tuple of its fields; its slots are
    filled once, by ``_fill``, and nothing can be assigned or deleted."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

class Matching(FrozenValue):
    """Perfect matching of {1, ..., 2n}, stored as its partner tuple.

    ``partner[x]`` is the other end of the arc at x, and 0 at positions 0
    and 2n + 1; it is the one slot, compared and hashed.  The arcs sorted
    by closer are a view built from it on each read.

    >>> Matching.from_pairs([[1, 3], [2, 7], [4, 6], [5, 8]]).arcs
    ((1, 3), (4, 6), (2, 7), (5, 8))
    """

    __slots__ = _fields = ("partner",)

    def __init__(self, arcs: tuple[Arc, ...]):
        """The matching of an arc tuple already valid, in any order,
        unchecked; :meth:`from_pairs` validates raw pairs."""
        partner = [0] * (2 * len(arcs) + 2)
        for o, c in arcs:
            partner[o], partner[c] = c, o
        _fill(self, "partner", tuple(partner))

    @classmethod
    def from_partner(cls, partner: tuple[int, ...]) -> "Matching":
        """The matching of a partner tuple already valid, unchecked."""
        m = object.__new__(cls)
        _fill(m, "partner", partner)
        return m

    def __eq__(self, other):
        return (self.partner == other.partner if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.partner,))

    def __repr__(self) -> str:
        return f"Matching(arcs={self.arcs!r})"

    def __reduce__(self):
        return Matching.from_partner, (self.partner,)

    @property
    def n(self) -> int:
        return len(self.partner) // 2 - 1

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The (opener, closer) arcs sorted by closer, built on each read."""
        p = self.partner
        return tuple([(p[x], x) for x in range(1, len(p) - 1) if p[x] < x])

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "Matching":
        """Validate raw integer pairs, in any order and orientation, into a
        Matching.

        Raises DuplicateEndpoint, EndpointOutOfRange or NotAPerfectMatching.
        """
        arcs = []
        for pair in pairs:
            seq = tuple(pair)
            if len(seq) != 2 or not all(_is_int(x) for x in seq):
                raise NotAPerfectMatching(f"not an integer pair: {pair!r}")
            a, b = seq
            if a == b:
                raise DuplicateEndpoint(f"endpoint {a} used twice in one arc")
            arcs.append((a, b) if a < b else (b, a))
        top = 2 * len(arcs)
        partner = [0] * (top + 2)
        for a, b in arcs:
            for x in (a, b):
                if not 1 <= x <= top:
                    raise EndpointOutOfRange(f"endpoint {x} outside [1, {top}]")
                if partner[x]:
                    raise DuplicateEndpoint(f"endpoint {x} used twice")
            partner[a], partner[b] = b, a
        return cls.from_partner(tuple(partner))


class NestCrossRecord(FrozenValue):
    """Counts of nestings/crossings and their neighbor variants.

    A nesting is an arc pair (i, l), (j, k) with i < j < k < l; it is a
    left-nesting when j = i + 1 and a right-nesting when l = k + 1.  A
    crossing is a pair (i, k), (j, l) with i < j < k < l, with left/right
    variants defined the same way on adjacent openers/closers.
    """

    __slots__ = _fields = ("ne", "cr", "lne", "rne", "lcr", "rcr")

    def __init__(self, ne: int, cr: int, lne: int, rne: int, lcr: int, rcr: int):
        self._init(ne, cr, lne, rne, lcr, rcr)


def arc_statistics(m: Matching) -> NestCrossRecord:
    """The record of :func:`nestings_and_crossings` and :func:`neighbor_counts`.

    >>> arc_statistics(Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8)]))
    NestCrossRecord(ne=1, cr=3, lne=0, rne=1, lcr=2, rcr=1)
    """
    return NestCrossRecord(*nestings_and_crossings(m), *neighbor_counts(m))


def nestings_and_crossings(m: Matching) -> tuple[int, int]:
    """(ne, cr): the numbers of nesting and of crossing arc pairs, in one
    sweep by position.

    At each closer, the arcs still open that opened before its opener
    contain its arc, and those that opened after cross it; so each pair is
    counted once, at the first of its two closers.
    """
    p = m.partner
    open_: list[int] = []               # openers not yet closed, increasing
    ne = cr = 0
    for x in range(1, len(p) - 1):
        o = p[x]
        if o > x:
            open_.append(x)
        else:
            i = bisect_left(open_, o)
            ne += i
            cr += len(open_) - 1 - i
            del open_[i]
    return ne, cr


def count_gap_nestings(m: Matching, gap: int) -> int:
    """Number of nesting arc pairs whose openers are at most ``gap`` apart.

    gap=1 counts exactly the left-nestings; gap >= 2n counts all nestings.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    p = m.partner
    by_opener = [(o, p[o]) for o in range(1, len(p) - 1) if p[o] > o]
    count = 0
    for (o1, c1), (o2, c2) in itertools.combinations(by_opener, 2):
        if o2 < c2 < c1 and o2 - o1 <= gap:
            count += 1
    return count


def _neighbor_at(p: tuple[int, ...], left: bool, nesting: bool) -> int:
    """The first x at which the arcs at x and x + 1 of the partner tuple p
    are a neighbour pair of the given kind, or 0.

    With a = p[x] carried as b = p[x + 1] is read, the two are openers when
    x < a and x < b (b > x is b > x + 1: no position partners itself),
    closers when 0 < b < x and a < x; they nest when a > b, cross when a < b.
    The first pair, 0 and 0 at x = -1, is openers, and the strict a < b keeps
    it from crossing; any other pair holding an end 0 of p is neither.
    """
    a, x = 0, -1
    for b in p:
        if (x < a and x < b) if left else (a < x and 0 < b < x):
            if a > b if nesting else a < b:
                return x
        a = b
        x += 1
    return 0


def neighbor_counts(m: Matching) -> tuple[int, int, int, int]:
    """(lne, rne, lcr, rcr): the neighbour pairs of each kind, in one scan by
    position with the rule of :func:`_neighbor_at`."""
    p = m.partner
    lne = rne = lcr = rcr = 0
    for x in range(1, len(p) - 2):
        a, b = p[x], p[x + 1]
        if a > x:
            if b > x + 1:
                if a > b:
                    lne += 1
                else:
                    lcr += 1
        elif b < x:
            if a > b:
                rne += 1
            else:
                rcr += 1
    return (lne, rne, lcr, rcr)


def has_left_nesting(m: Matching) -> bool:
    return _neighbor_at(m.partner, True, True) > 0

def has_left_crossing(m: Matching) -> bool:
    return _neighbor_at(m.partner, True, False) > 0

def has_right_nesting(m: Matching) -> bool:
    return _neighbor_at(m.partner, False, True) > 0

def has_right_crossing(m: Matching) -> bool:
    return _neighbor_at(m.partner, False, False) > 0

def has_gap2_nesting(m: Matching) -> bool:
    """Whether two arcs with openers x and x + 2 nest (p[x] > p[x + 2] > x + 2)."""
    p = m.partner
    for x in range(1, len(p) - 3):
        if p[x] > p[x + 2] > x + 2:
            return True
    return False

def has_nesting(m: Matching) -> bool:
    return _closes_out_of_order(m.partner, 0)

def has_crossing(m: Matching) -> bool:
    return _closes_out_of_order(m.partner, -1)

def _closes_out_of_order(p: tuple[int, ...], end: int) -> bool:
    """Whether a closer's opener is not the earliest (``end`` 0) or the latest
    (-1) opener still open: arcs nest, or cross, exactly when one is not."""
    open_ = []
    for x in range(1, len(p) - 1):
        if p[x] > x:
            open_.append(x)
        elif open_.pop(end) != p[x]:
            return True
    return False


# ---------------------------------------------------------------------------
# Inversion tables and permutations (plain int tuples)
# ---------------------------------------------------------------------------

def validate_table(entries: Iterable[int]) -> tuple[int, ...]:
    """Validate an inversion table: 0 <= a_i <= i - 1 for every i.

    >>> validate_table([0, 1, 0, 1])
    (0, 1, 0, 1)
    """
    w = tuple(entries)
    for i, a in enumerate(w, start=1):
        if not _is_int(a) or not 0 <= a <= i - 1:
            raise EntryOutOfRange(f"entry a_{i} = {a!r} outside [0, {i - 1}]")
    return w


def validate_permutation(values: Iterable[int]) -> tuple[int, ...]:
    """Validate a permutation of 1..n in one-line notation."""
    pi = tuple(values)
    if not all(_is_int(v) for v in pi) or sorted(pi) != list(range(1, len(pi) + 1)):
        raise NotAPermutation(f"not a rearrangement of 1..{len(pi)}: {pi!r}")
    return pi


def _corrected(w: Sequence[int], flagged: Callable[[int, int, int], bool]) -> bool:
    """Every position i that ``flagged(a_i, a_{i+1}, i)`` picks has a later
    entry equal to i: one pass right to left, keeping the later entries."""
    later = set()
    for i in range(len(w) - 1, 0, -1):          # 1-based position i
        later.add(w[i])
        if flagged(w[i - 1], w[i], i) and i not in later:
            return False
    return True


def is_descent_correcting(w: Sequence[int]) -> bool:
    """Every descent position i (a_i > a_{i+1}) has a later entry equal to i."""
    return _corrected(w, lambda a, b, i: a > b)


def is_ascent_correcting(w: Sequence[int]) -> bool:
    """Every ascent position i with a_{i+1} != i+1 has a later entry equal to i.

    For valid inversion tables a_{i+1} <= i, so the exclusion clause never
    fires and the rule is simply "every ascent gets corrected".
    """
    return _corrected(w, lambda a, b, i: a < b != i + 1)


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

class Poset(FrozenValue):
    """Strict partial order on {1, ..., n}, stored as predecessor bitmasks.

    Bit i-1 of ``pre_masks[j-1]`` is set exactly when i is below j; the masks
    are transitively closed, and they are the one slot, compared and hashed.
    The relation ``less``, the successor masks and ``pre_vector`` are views
    built from them on each read.

    >>> Poset(3, {(1, 2), (2, 3), (1, 3)}).pre_masks
    (0, 1, 3)
    """

    __slots__ = _fields = ("pre_masks",)

    def __init__(self, n: int, less: Iterable[tuple[int, int]]):
        """The poset on [n] of a transitively closed relation, unchecked;
        :meth:`from_relations` validates and closes raw pairs."""
        masks = [0] * n
        for i, j in less:
            masks[j - 1] |= 1 << (i - 1)
        _fill(self, "pre_masks", tuple(masks))

    @classmethod
    def from_pre_masks(cls, masks: tuple[int, ...]) -> "Poset":
        """The poset of predecessor masks already closed and valid, unchecked."""
        p = object.__new__(cls)
        _fill(p, "pre_masks", masks)
        return p

    def __eq__(self, other):
        return (self.pre_masks == other.pre_masks if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.pre_masks,))

    def __reduce__(self):
        return Poset.from_pre_masks, (self.pre_masks,)

    @property
    def n(self) -> int:
        return len(self.pre_masks)

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Poset":
        """Build a poset from any generating relations (closure is computed).

        Raises InvalidObject when n or an element is not a nonnegative
        integer or a relation is not a pair, and NotAPartialOrder on
        reflexive pairs or cycles.
        """
        if not _is_int(n) or n < 0:
            raise InvalidObject(f"poset size {n!r} is not a nonnegative integer")
        below = [0] * (n + 1)                   # below[j]: bitmask of i <_P j
        for pair in pairs:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise InvalidObject(f"relation {pair!r} is not a pair") from None
            if not (_is_int(i) and _is_int(j)):
                raise InvalidObject(f"pair ({i!r}, {j!r}) has a non-integer element")
            if i == j:
                raise NotAPartialOrder(f"reflexive pair ({i}, {j})")
            if not (1 <= i <= n and 1 <= j <= n):
                raise NotAPartialOrder(f"element outside [1, {n}] in ({i}, {j})")
            below[j] |= 1 << (i - 1)
        # closure by iterating to a fixed point; n is tiny
        changed = True
        while changed:
            changed = False
            for j in range(1, n + 1):
                acc = below[j]
                for i in _bits(below[j]):
                    acc |= below[i + 1]
                if acc != below[j]:
                    below[j] = acc
                    changed = True
        for j in range(1, n + 1):
            if below[j] >> (j - 1) & 1:
                raise NotAPartialOrder(f"cycle through element {j}")
        return cls.from_pre_masks(tuple(below[1:]))

    @property
    def less(self) -> frozenset[tuple[int, int]]:
        """Every pair (i, j) with i below j, built afresh on each read."""
        return frozenset(
            (i + 1, j + 1) for j, mask in enumerate(self.pre_masks) for i in _bits(mask))

    @property
    def suc_masks(self) -> tuple[int, ...]:
        """Successor bitmask per element, built on each read; bit j-1 set
        iff j is above."""
        masks = [0] * self.n
        for j, mask in enumerate(self.pre_masks):
            bit = 1 << j
            while mask:
                low = mask & -mask
                masks[low.bit_length() - 1] |= bit
                mask ^= low
        return tuple(masks)

    @property
    def pre_vector(self) -> tuple[int, ...]:
        """(pre(1), ..., pre(n)), built on each read."""
        return tuple([mask.bit_count() for mask in self.pre_masks])


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_natural(p: Poset) -> bool:
    """Labels respect integer order: i below j implies i < j."""
    return all(mask >> j == 0 for j, mask in enumerate(p.pre_masks))


def is_factorial(p: Poset) -> bool:
    """Every predecessor set is an initial segment {1, ..., pre(k)}: a mask
    of low bits only, which adding 1 carries through to a disjoint mask.

    Equivalent to: naturally labeled and i < j below k implies i below k.
    """
    for mask in p.pre_masks:
        if mask & mask + 1:
            return False
    return True


def is_dually_factorial(p: Poset) -> bool:
    """i > j above k implies i above k (the mirrored closure condition).

    Equivalent to: every successor set is a final segment {m, ..., n}.
    """
    full = (1 << p.n) - 1
    return all(mask == full ^ full >> mask.bit_count() for mask in p.suc_masks)


def is_two_plus_two_free(p: Poset) -> bool:
    """No induced 2+2, searched for directly, not by the inclusion chain: a
    relation among the elements incomparable to both ends of some a < b."""
    pre = p.pre_masks
    comparable, relations = list(pre), []   # comparable[x]: elements above or below x
    for b, mask in enumerate(pre):
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            comparable[a] |= 1 << b
            relations.append((a, b))
            mask ^= low
    full = (1 << len(pre)) - 1
    for a, b in relations:
        free = full & ~(comparable[a] | comparable[b])
        rest = free
        while rest:
            low = rest & -rest
            if pre[low.bit_length() - 1] & free:
                return False
            rest ^= low
    return True


def is_three_plus_one_free(p: Poset) -> bool:
    """No induced 3-chain plus one element incomparable to all of it."""
    pre, suc = p.pre_masks, p.suc_masks
    full = (1 << p.n) - 1
    for x in range(p.n):
        free = full & ~(pre[x] | suc[x])        # incomparable to x
        for z in _bits(suc[x]):
            # some x < y < z, and a w incomparable to x and z, so to y too:
            # w < y would give w < z, and y < w would give x < w
            if suc[x] & pre[z] and free & ~(pre[z] | suc[z]):
                return False
    return True


def condition_one(p: Poset) -> bool:
    """For every i in [n-1]: pre(i) <= pre(i+1) or suc(i) > suc(i+1)."""
    pre = p.pre_vector
    suc = [mask.bit_count() for mask in p.suc_masks]
    return all(pre[i] <= pre[i + 1] or suc[i] > suc[i + 1] for i in range(p.n - 1))


def condition_one_var(p: Poset) -> bool:
    """For i in [n-1], k: i above k with i+1 not above k forces pre(l) = i somewhere."""
    pre_values = set(p.pre_vector)
    for i in range(1, p.n):
        below_i = p.pre_masks[i - 1]
        below_next = p.pre_masks[i]
        if below_i & ~below_next and i not in pre_values:
            return False
    return True


def rne_poset(p: Poset) -> int:
    """Count of x with pre(x) > pre(x+1) and equal successor sets.

    These are exactly the violations of the rule in :func:`condition_one`.
    Elements x and x + 1 have equal successor sets exactly when no
    predecessor mask differs in bits x - 1 and x, that is when bit x - 1 of
    the OR of every mask ^ mask >> 1 is 0.
    """
    masks = p.pre_masks
    differ = 0
    for mask in masks:
        differ |= mask ^ mask >> 1
    count = 0
    pre_x = masks[0].bit_count() if masks else 0
    for x in range(1, len(masks)):
        pre_next = masks[x].bit_count()
        if pre_x > pre_next and not differ >> (x - 1) & 1:
            count += 1
        pre_x = pre_next
    return count


# ---------------------------------------------------------------------------
# Upper triangular matrices
# ---------------------------------------------------------------------------

class TriangularMatrix(FrozenValue):
    """Upper triangular nonnegative integer matrix, no zero row or column.

    The total of the entries is the size n of the matchings it encodes.
    """

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self._init(rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "TriangularMatrix":
        """Validate raw rows; raises InvalidMatrix, NegativeEntry,
        NotUpperTriangular or ZeroRowOrColumn."""
        t = tuple(tuple(row) for row in rows)
        k = len(t)
        if any(len(row) != k for row in t):
            raise InvalidMatrix(f"rows do not form a {k}x{k} square")
        for i, row in enumerate(t):
            for j, v in enumerate(row):
                if v.__class__ is not int and not _is_int(v):
                    raise InvalidMatrix(f"entry ({i + 1},{j + 1}) = {v!r} not an integer")
                if v < 0:
                    raise NegativeEntry(f"entry ({i + 1},{j + 1}) = {v}")
                if v and j < i:
                    raise NotUpperTriangular(f"nonzero entry ({i + 1},{j + 1}) below diagonal")
        for i, row in enumerate(t):
            if k and not any(row):
                raise ZeroRowOrColumn(f"row {i + 1} is all zeros")
        for j, column in enumerate(zip(*t)):
            if not any(column):
                raise ZeroRowOrColumn(f"column {j + 1} is all zeros")
        return cls(t)


def is_zero_one(t: TriangularMatrix) -> bool:
    """True when every entry is 0 or 1."""
    return all(v <= 1 for row in t.rows for v in row)
