"""Exhaustive generators, class filters, and independent numeric sequences.

Generators are deterministic: two runs yield identical streams, and the
order is lexicographic on the canonical encoding of each object, so a
failure reported by index is reproducible.

Class membership is decided by the named predicates in ``PREDICATES``.  A
matching class forbids some neighbour patterns: ``MATCHING_RULES`` names its
rules, ``RULE_TESTS`` the test of a whole matching for each rule's pattern,
and its predicate is built from the two.  ``STEP_TESTS``, the one table of
local rules, tests each arc as it is placed in closer order: it prunes
``gen_matchings``, a depth-first search, to exactly the class, and
``merged_tallies`` counts the class by the same search with equivalent
states merged.  ``POSET_CUTS`` names the poset predicates that hold of a
natural poset's parent in the down-set search whenever they hold of it, and
they cut that search at every node before the last.  ``tally`` is the one
route for a count or a distribution of a class, and ``counter`` alone picks
its counter: that one for the matchings tallied by ``MERGED_NAMES``, and for
the unfiltered permutations and factorial posets ``table_tallies``, one walk
over inversion tables that builds no object and reads each statistic from a
table's entries by the class's ``TABLE_READINGS`` (a permutation's left
inversion table, the table of a poset); for the permutations by its other
names ``prefix_tallies``, a walk over the one-line notation; every other
tally enumerates.
``generate`` alone picks what prunes a search, and still runs the predicates
on every object it yields, so they post-check every pruned stream, and over
the unpruned stream they are the oracle the tests hold the step tests and
the cuts to.  The matching search keeps the partner list of the arcs placed
so far, and each matching it yields is that list as a tuple, the one slot of
a ``Matching``.

The counting sequences (factorials, Catalan, the Fishburn series, the
second-order Eulerian rows) are computed by formula or recurrence,
independent of the generators, so count agreement is evidence rather than
restatement.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from typing import Iterable, Iterator, Sequence

from . import objects
from .bijections import (
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    table_to_poset,
)
from .errors import UnknownClass, UnknownPredicate
from .objects import FrozenValue, Matching, Poset, TriangularMatrix, is_zero_one, validate_size
from .statistics import stat_tuple


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# rule -> the ``objects`` test of a whole matching for its pattern of two arcs
RULE_TESTS = {"lne": "has_left_nesting", "lcr": "has_left_crossing",
              "rne": "has_right_nesting", "rcr": "has_right_crossing",
              "gap2": "has_gap2_nesting", "ne": "has_nesting", "cr": "has_crossing"}

# rule -> its step test (p, o, c): does the arc (o, c), placed next in closer
# order, form the rule's pattern with an arc already placed?  p is the partner
# list of the arcs placed, so a position below c with p 0 is still open.
#   lne, lcr  openers x, x + 1 that nest, cross: o - 1, o + 1 is still open
#   rne, rcr  closers x, x + 1 that nest, cross: c - 1 closed an arc opened
#             after, before o
#   gap2      openers x, x + 2 that nest: o - 2 is still open
#   ne, cr    any nesting, crossing: an opener before o, between o and c is
#             still open, so only the earliest, latest open opener may close
STEP_TESTS = {"lne": lambda p, o, c: o > 1 and not p[o - 1],
              "lcr": lambda p, o, c: o + 1 < c and not p[o + 1],
              "rne": lambda p, o, c: o < p[c - 1] < c - 1,
              "rcr": lambda p, o, c: 0 < p[c - 1] < o,
              "gap2": lambda p, o, c: o > 2 and not p[o - 2],
              "ne": lambda p, o, c: not all(p[1:o]),
              "cr": lambda p, o, c: not all(p[o + 1:c])}

# matching predicate -> the rules that cut out its class
MATCHING_RULES = {
    "no_left_nesting": frozenset({"lne"}),
    "no_right_nesting": frozenset({"rne"}),
    "no_left_crossing": frozenset({"lcr"}),
    "no_right_crossing": frozenset({"rcr"}),
    "no_neighbor_nesting": frozenset({"lne", "rne"}),
    "no_neighbor_crossing": frozenset({"lcr", "rcr"}),
    "no_nesting": frozenset({"ne"}),
    "no_crossing": frozenset({"cr"}),
    "no_2_left_nesting": frozenset({"lne", "gap2"}),
    "lne0_and_rcr0": frozenset({"lne", "rcr"}),
}

# poset predicates that hold of a natural poset's parent in the search if they hold of it
POSET_CUTS = frozenset({"factorial", "dually_factorial", "two_plus_two_free",
                        "three_plus_one_free"})


def _sized(gen):
    """``gen`` with its size checked by ``validate_size`` when it is called,
    so a bad size raises ValueError before anything is generated."""
    @functools.wraps(gen)
    def checked(n, *args, **kwargs):
        return gen(validate_size(n), *args, **kwargs)
    return checked


def _closer_order(n: int, rules: frozenset, prefix: tuple = ()) -> Iterator[tuple]:
    """Depth-first search over the matchings of [2n] that break none of the
    rules, yielding the partner tuple of each (``Matching.partner``); a
    ``prefix`` of arcs in closer order starts the search at its node.

    Arc k takes the lexicographically next (opener, closer) pair whose
    closer follows the closer of arc k - 1; the unused positions below that
    closer are the openers still open.  At most n openers come before the
    k-th closer, so it is at most n + k, and without rules every branch
    within that bound completes; the matchings come in lexicographic order
    of their arc tuples, sorted by closer, with no sort.
    """
    if n <= 1:              # no two arcs, so no rule applies
        yield (0, 2, 1, 0) if n else (0, 0)
        return
    top = 2 * n
    total = top * (top + 1) // 2        # the sum of all positions
    p = [0] * (top + 2)                 # partner of each position, 0 if unused
    # the class's step tests, composed once
    tests = [test for rule, test in STEP_TESTS.items() if rule in rules]
    if len(tests) == 2:
        first, second = tests
        tests = [lambda p, o, c: first(p, o, c) or second(p, o, c)]
    breaks = tests[0] if len(tests) == 1 else lambda p, o, c: any(t(p, o, c) for t in tests)

    def place(k: int, last: int, used: int):
        # arcs 1..k-1 are placed, the last closing at ``last``; ``used`` is
        # the sum of their ends
        for o in range(1, n + k):
            if p[o]:
                continue
            for c in range(max(o, last) + 1, n + k + 1):
                if rules and breaks(p, o, c):
                    continue
                p[o] = c
                p[c] = o
                if k < n - 1:
                    yield from place(k + 1, c, used + o + c)
                else:
                    # arc n joins the one position left to top
                    u = total - used - o - c - top
                    if not (rules and breaks(p, u, top)):
                        p[u] = top
                        p[top] = u
                        yield tuple(p)
                        p[u] = p[top] = 0
                p[o] = p[c] = 0

    for o, c in prefix:                 # start at the node of a prefix of <= n - 2 arcs
        p[o], p[c] = c, o
    last = prefix[-1][1] if prefix else 0
    yield from place(len(prefix) + 1, last, sum(map(sum, prefix)))


@_sized
def gen_matchings(n: int, rules: Iterable[str] = ()) -> Iterator[Matching]:
    """All perfect matchings of [2n] in lexicographic order of their
    canonical (closer-sorted) arc tuples; there are 1*3*...*(2n-1) of them.
    With ``rules`` (keys of ``RULE_TESTS``), only the matchings that break
    none of them, in the same order.

    >>> [m.arcs for m in gen_matchings(2)]
    [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((2, 3), (1, 4))]
    >>> [m.arcs for m in gen_matchings(2, {"ne"})]
    [((1, 2), (3, 4)), ((1, 3), (2, 4))]
    """
    rules = frozenset(rules)
    if not rules <= RULE_TESTS.keys():
        raise ValueError(f"unknown matching rules {sorted(rules - RULE_TESTS.keys())}")
    return map(Matching.from_partner, _closer_order(n, rules))


def _rows(states: dict[int, int], shift: dict[str, int],
          names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """The distribution rows of packed states: each name's tally is the 16 bits
    at its shift."""
    out = {}
    for state, count in states.items():
        row = tuple(state >> shift[x] & 0xFFFF for x in names)
        out[row] = out.get(row, 0) + count
    return out


def _level_walk(level: dict[int, int], heads: int, steps) -> dict[int, int]:
    """The states after each step, which maps a head (bits ``heads``) to its moves."""
    for moves in steps:
        step, out = {}, {}
        for state, count in level.items():
            head = state & heads
            if head not in step:
                step[head] = moves(head)
            for move in step[head]:
                out[state + move] = out.get(state + move, 0) + count
        level = out
    return level


# the statistics ``merged_tallies`` counts
MERGED_NAMES = frozenset({"lne", "rne", "comp", "inter", "min", "emb"})


def merged_tallies(rules: Iterable[str] = (), names: Sequence[str] = ()):
    """The function from n to the tally of the statistics ``names`` (lne, rne,
    comp, inter, min, emb) over ``gen_matchings(n, rules)``, as distribution
    rows: the closer-order search with equivalent states merged, one memo for
    every n.  A state is the word of the positions up to the last closer ("O"
    an opener still open, "M" the last closer's opener, "X" any other) and the
    ``free`` positions above.  A step appends r new openers and closes an O:
    ``STEP_TESTS`` decide the rules and count lne and rne on the partner list
    of the word's shape (M's position for the last closer), comp counts steps
    leaving no O, inter those with r > 0, min is the first r, and emb adds the
    O's left open, which embrace the step's closer.  A state keeps what a test
    can see: no leading X, X runs of 1 (2 under gap2), M only if rne or rcr is
    read, its run cut to M (MX at the end) without gap2, and its O runs sorted
    unless rne, rcr, ne, cr or gap2 is read.

    >>> merged_tallies({"lne", "gap2"})(6), merged_tallies({"lne"}, ("rne",))(3)
    ({(): 217}, {(0,): 5, (1,): 1})
    """
    rules, names, per_step = frozenset(rules), tuple(names), ("comp", "inter", "min", "emb")
    if not rules <= STEP_TESTS.keys() or not set(names) <= MERGED_NAMES:
        raise ValueError(f"the merged search has no rules {sorted(rules)} or names {names}")
    shift = {name: 16 * place for place, name in enumerate(dict.fromkeys(names))}
    comp, inter, least, emb = (1 << shift[x] if x in shift else 0 for x in per_step)
    # the rules' tests with no bit, then the counted statistics' with theirs
    checks = [(STEP_TESTS[rule], 0) for rule in rules] + [
        (STEP_TESTS[x], 1 << shift[x]) for x in ("lne", "rne") if x in shift]
    mark = "M" if rules & {"rne", "rcr"} or "rne" in shift else "X"
    ordered = mark == "M" or rules & {"ne", "cr", "gap2"}
    # delete the closed letters no test can see
    cut = functools.partial(re.compile("(?<=XX)X+" if "gap2" in rules
                                       else "(?<=X)X+|X+(?=M)|(?<=M)X+(?=O)").sub, "")

    @functools.cache
    def future(word: str, free: int, start: bool) -> dict[int, int]:
        # statistics, 16 bits each -> the completions adding them
        if not free:
            return {0: 1}
        size, opens, steps, out = len(word), word.count("O"), {}, {}
        p = [0] + [letter != "O" for letter in word] + [0] * ((free - opens) // 2 + 1)
        if "M" in word:
            p[size] = word.index("M") + 1
        at, base = [x for x in range(1, size + 1) if not p[x]], word.replace("M", "X")
        for r in range((free - opens) // 2 + 1):        # each O needs a closer
            c, w, left = size + r + 1, base + "O" * r, opens + r - 1    # left open
            closed = mark if left else "X"              # no O is left to read M
            gain = (r and inter) + (start and least * r) + (not left and comp) + left * emb
            for o in at + [*range(size + 1, c)]:
                gained = gain
                for test, bit in checks:
                    if test(p, o, c):
                        if not bit:         # a rule, broken
                            break
                        gained += bit
                else:
                    after = cut(f"{w[:o - 1]}{closed}{w[o:]}X") if ordered else "X".join(
                        sorted(f"{w[:o - 1]}X{w[o:]}".split("X"))) + "X"
                    step = (after.lstrip("X"), free - r - 1, gained)
                    steps[step] = steps.get(step, 0) + 1
        for (after, free, gain), copies in steps.items():
            for key, count in future(after, free, False).items():
                key += gain
                out[key] = out.get(key, 0) + copies * count
        return out

    return _sized(lambda n: _rows(future("", 2 * n, True), shift, names))


# class -> statistic -> its reading at the entry w_i = w of an inversion table
# w of length n, from ``seen``, the mask of the values among w_{i+1..n} that a
# reading can still see, and ``last`` = w_{i+1} (n at i = n).  A permutation
# is read from its left inversion table d_i = #{j < i : pi_j > pi_i}: pi_i >
# pi_{i+1} iff d_i < d_{i+1}, and pi_i is a left-to-right maximum iff d_i = 0,
# a minimum iff d_i = i - 1.  The factorial poset of w has pre(k) = w_k, so a
# cut after k is a suffix w_{k+1..n} of entries >= k, and x, x + 1 have equal
# successor sets when no entry is x.
TABLE_READINGS = {
    "permutations": {
        "asc": lambda n, i, w, seen, last: i < n and w >= last,
        "des": lambda n, i, w, seen, last: i < n and w < last,
        "inv": lambda n, i, w, seen, last: w,
        "lmin": lambda n, i, w, seen, last: w == i - 1,
        "lmax": lambda n, i, w, seen, last: not w,
    },
    "factorial_posets": {
        "comp": lambda n, i, w, seen, last: not (seen | 1 << w) & ((1 << i - 1) - 1),
        "min": lambda n, i, w, seen, last: not w,
        "pre_n": lambda n, i, w, seen, last: w if i == n else 0,
        "lev": lambda n, i, w, seen, last: not seen >> w & 1,
        "ip": lambda n, i, w, seen, last: i - 1 - w,
        "rne_poset": lambda n, i, w, seen, last: w > last and not seen >> i & 1,
    },
}


def table_tallies(class_name: str, names: Sequence[str] = ()):
    """The function from n to the tally of the statistics ``names`` over the
    class of size n (a key of ``TABLE_READINGS``), as distribution rows, read
    from the inversion tables by the class's readings without building an
    object.  The walk places w_n, ..., w_1.  At w_i a state keeps the values
    placed that a later reading sees: those below i + 1 for rne_poset, below
    i for lev, else the least of them for comp, else none; then w_{i+1} if asc
    or des is read, or if rne_poset is read and i is no value placed; then the
    tallies, 16 bits each.

    >>> sorted(table_tallies("factorial_posets", ("rne_poset", "lev"))(3).items())
    [((0, 1), 1), ((0, 2), 3), ((0, 3), 1), ((1, 2), 1)]
    >>> sorted(table_tallies("permutations", ("des", "inv"))(3).items())
    [((0, 0), 1), ((1, 1), 2), ((1, 2), 2), ((2, 3), 1)]
    """
    readings, names = TABLE_READINGS.get(class_name), tuple(names)
    if readings is None or not set(names) <= readings.keys():
        raise ValueError(f"the inversion-table walk has no class {class_name!r} "
                         f"or names {names}")
    read = dict.fromkeys(names)
    rne, ordered = "rne_poset" in read, "asc" in read or "des" in read
    kept = rne or "lev" in read

    def rows(n: int) -> dict[tuple[int, ...], int]:
        last_at, tallies_at = n + 1, n + 1 + n.bit_length()    # seen takes bits 0..n
        shift = {x: tallies_at + 16 * place for place, x in enumerate(read)}
        bits = [(readings[x], 1 << shift[x]) for x in read]

        def moves(i: int, head: int) -> list[int]:
            # w_i = w for each w < i: the new head less the old, plus the gains
            seen, last = head & (1 << last_at) - 1, head >> last_at
            keep = (2 << i - 1 if rne else 1 << i - 1) - 1     # what w_{i-1} reads
            out = []
            for w in range(i):
                after = (seen | 1 << w) & keep
                if not kept:
                    after &= -after if "comp" in read else 0
                if ordered or rne and not after >> i - 1 & 1:   # else no rne_poset at i - 1
                    after |= w << last_at
                out.append(after - head + sum(bit * reading(n, i, w, seen, last)
                                              for reading, bit in bits))
            return out

        steps = (functools.partial(moves, i) for i in range(n, 0, -1))
        # last = n at the start: no descent at n
        return _rows(_level_walk({n << last_at: 1}, (1 << tallies_at) - 1, steps), shift, names)

    return _sized(rows)


# statistic -> its reading as v follows a (0 first), the values before v in used
PREFIX_READINGS = {
    "p": lambda used, a, v: 1 < a < v and not used >> a - 1 & 1,    # a - 1 comes later
    "comp": lambda used, a, v: not (u := used | 1 << v) & u + 2,    # u is {1..k}
    "lmin": lambda used, a, v: not used & (1 << v) - 1,
    "lmax": lambda used, a, v: not used >> v,
    "des": lambda used, a, v: a > v,
    "asc": lambda used, a, v: 0 < a < v,
    "inv": lambda used, a, v: (used >> v).bit_count(),
}


def prefix_tallies(names: Sequence[str] = ()):
    """The function from n to the tally of the permutation statistics
    ``names`` (keys of ``PREFIX_READINGS``), as distribution rows, read left to
    right from the one-line notation without building a permutation.  A state
    is the mask of the values placed, the last of them if p, des or asc is
    read, and the tallies, 16 bits each.

    >>> sorted(prefix_tallies(("p", "des"))(4).items())
    [((0, 0), 1), ((0, 1), 6), ((0, 2), 7), ((0, 3), 1), ((1, 1), 5), ((1, 2), 4)]
    """
    names = tuple(names)
    if not set(names) <= PREFIX_READINGS.keys():
        raise ValueError(f"the prefix walk has no names {names}")
    ordered = not {"p", "des", "asc"}.isdisjoint(names)

    def rows(n: int) -> dict[tuple[int, ...], int]:
        last_at, tallies_at = n + 1, n + 1 + ordered * n.bit_length()   # used takes bits 1..n
        shift = {x: tallies_at + 16 * place for place, x in enumerate(dict.fromkeys(names))}
        bits = [(PREFIX_READINGS[x], 1 << at) for x, at in shift.items()]

        def moves(head: int) -> list[int]:
            # each v not used placed next: the new head less the old, plus the gains
            used, a = head & (1 << last_at) - 1, head >> last_at
            return [(used | 1 << v | ordered * v << last_at) - head
                    + sum(bit * reading(used, a, v) for reading, bit in bits)
                    for v in range(1, n + 1) if not used >> v & 1]

        return _rows(_level_walk({0: 1}, (1 << tallies_at) - 1, [moves] * n), shift, names)

    return _sized(rows)


@_sized
def gen_inversion_tables(n: int) -> Iterator[tuple[int, ...]]:
    """All inversion tables of length n, lexicographically; n! of them."""
    return itertools.product(*(range(i + 1) for i in range(n)))


@_sized
def gen_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of 1..n in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


@_sized
def gen_factorial_posets(n: int) -> Iterator[Poset]:
    """All factorial posets on [n], via the inversion-table encoding."""
    for w in gen_inversion_tables(n):
        yield table_to_poset(w)


@_sized
def gen_natural_posets(n: int, cuts: Sequence = ()) -> Iterator[Poset]:
    """All naturally labeled posets on [n], independently of any bijection,
    less those above a node of the search that one of the ``cuts`` refuses.

    Element k+1 takes each down set s of the poset so far, in increasing
    order, as its predecessor set: each poset once, 1, 1, 2, 7, 40, 357, 4824,
    96428 of them.  Its down sets: the old d, then d | bit(k+1) if d & s == s.
    """
    def expand(masks: tuple[int, ...], _):
        last = len(masks) == n - 1
        return lambda s: last or all(cut(Poset.from_pre_masks(masks + (s,))) for cut in cuts)

    return (Poset.from_pre_masks(masks) for masks, _ in down_set_walk(n, expand, True))


def down_set_walk(n: int, expand, root) -> Iterator[tuple[tuple[int, ...], object]]:
    """Each leaf's masks and state, in the order of ``gen_natural_posets(n)``.
    At each node, the masks of a poset on [k < n] and its state, ``expand``
    gives the test of a child's down set s: the child's state, or a false one
    to cut the child and every poset above it."""
    def extend(state, masks: tuple[int, ...], downs: list[int]):
        step, bit = expand(masks, state), 1 << len(masks)
        for s in downs:
            child = step(s)
            if child and len(masks) == n - 1:   # the last element needs no down sets
                yield masks + (s,), child
            elif child:
                yield from extend(child, masks + (s,),
                                  downs + [d | bit for d in downs if d & s == s])

    return extend(root, (), [0]) if n else iter([((), root)])


@_sized
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


@_sized
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


def generate(class_name: str, n: int, predicates: Sequence[str] = ()) -> Iterator:
    """The class at size n, filtered by the named predicates, in generation
    order.  Two searches are also pruned by them: the matchings through their
    ``MATCHING_RULES``, and the natural posets at every node before the last
    by those of ``POSET_CUTS``; every object is still checked by every
    predicate.  Raises UnknownPredicate for a predicate of another class
    before the lazy stream yields anything, and ValueError unless n is a
    nonnegative integer."""
    if class_name not in GENERATORS:
        raise UnknownClass(f"unknown object class {class_name!r}")
    rules = frozenset().union(*(MATCHING_RULES.get(name, ()) for name in predicates))
    cuts = [PREDICATES[name][1] for name in predicates if name in POSET_CUTS]
    stream = (gen_matchings(n, rules) if class_name == "matchings"
              else gen_natural_posets(n, cuts) if class_name == "natural_posets"
              else GENERATORS[class_name](n))
    for name in predicates:
        stream = filter(class_predicate(class_name, name), stream)
    return stream


def prunes(class_name: str, predicates: Sequence[str]) -> bool:
    """Does ``generate`` cut its search by one of the predicates: the matchings
    by one of ``MATCHING_RULES``, or the natural posets by one of ``POSET_CUTS``?"""
    cuts = {"matchings": MATCHING_RULES, "natural_posets": POSET_CUTS}.get(class_name, ())
    return any(name in cuts for name in predicates)


# ---------------------------------------------------------------------------
# Class filters
# ---------------------------------------------------------------------------

_POSETS = ("factorial_posets", "natural_posets")


def _pattern_free(rules: frozenset):
    """The test for none of the patterns of ``rules`` (one or two), settled once
    per class; each test is read from ``objects`` when it runs."""
    tests = vars(objects)
    first, *rest = (test for rule, test in RULE_TESTS.items() if rule in rules)
    if not rest:
        return lambda m: not tests[first](m)
    (second,) = rest
    return lambda m: not (tests[first](m) or tests[second](m))


# predicate name -> (generator classes it applies to, membership test)
PREDICATES = {
    **{name: (("matchings",), _pattern_free(rules)) for name, rules in MATCHING_RULES.items()},
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


def class_predicate(class_name: str, predicate_name: str):
    """The membership test of a predicate of the class; UnknownPredicate for
    an unknown name or a predicate of another class."""
    if predicate_name not in PREDICATES:
        raise UnknownPredicate(f"unknown predicate {predicate_name!r}")
    classes, test = PREDICATES[predicate_name]
    if class_name not in classes:
        raise UnknownPredicate(f"predicate {predicate_name!r} applies to "
                               f"{' and '.join(classes)}, not {class_name}")
    return test


def filter_class(stream: Iterable, predicate_name: str) -> Iterator:
    """Filter a stream by a registered predicate, preserving order."""
    if predicate_name not in PREDICATES:
        raise UnknownPredicate(f"unknown predicate {predicate_name!r}")
    return filter(PREDICATES[predicate_name][1], stream)


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

class DistributionTable(FrozenValue):
    """Multiset tally of statistic tuples over one object class."""

    __slots__ = _fields = ("stat_names", "rows")

    def __init__(self, stat_names: tuple[str, ...], rows: dict[tuple[int, ...], int]):
        self._init(stat_names, rows)

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
    return DistributionTable(names, dict(Counter(map(stat_tuple(class_name, names), stream))))


_merged = functools.cache(merged_tallies)       # one memo for every n


def counter(class_name: str, names: Sequence[str], predicates: Sequence[str]):
    """The route of the tally of the class by the names under the predicates
    and the function from n to the distribution rows that ``tally`` reads:
    "merged", ``merged_tallies`` for a matching class tallied by names of
    ``MERGED_NAMES``; "table", ``table_tallies`` for a class of
    ``TABLE_READINGS`` with no predicates, tallied by its readings; "prefix",
    ``prefix_tallies`` for the permutations tallied by other names that
    ``PREFIX_READINGS`` has; or (None, None) when the tally enumerates.  The
    predicates must be the class's own, as ``generate`` checks."""
    names, wanted = tuple(names), set(names)
    if class_name == "matchings" and MERGED_NAMES >= wanted:
        return "merged", _merged(frozenset().union(*map(MATCHING_RULES.get, predicates)), names)
    if (class_name in TABLE_READINGS and not predicates
            and TABLE_READINGS[class_name].keys() >= wanted):
        return "table", table_tallies(class_name, names)
    if class_name == "permutations" and PREFIX_READINGS.keys() >= wanted:
        return "prefix", prefix_tallies(names)
    return None, None


def tally(class_name: str, n: int, predicates: Sequence[str] = (),
          names: Sequence[str] = ()) -> DistributionTable:
    """The tally of the statistics ``names`` over the class at size n filtered
    by the predicates; with no names, the count as the one row ().  The
    predicates, the class and n are refused as by ``generate``.  The rows come
    from the class's ``counter`` when it has one, without building an object,
    and else from ``generate``'s stream.

    >>> tally("matchings", 3, ["no_left_nesting"], ["rne"]).rows
    {(0,): 5, (1,): 1}
    """
    stream, names = generate(class_name, n, predicates), tuple(names)
    if count := counter(class_name, names, predicates)[1]:
        return DistributionTable(names, count(n))
    if not names:       # a count: no statistic pass, nor its class check
        return DistributionTable((), {(): sum(1 for _ in stream)})
    return distribution(stream, class_name, names)
