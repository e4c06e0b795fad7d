"""Statistics on factorial posets, permutations, matchings and tables.

Every statistic returns a nonnegative integer.  The vocabulary below is
closed and shared with the distribution and verification machinery so
tuples of statistics can be requested by name.

``comp`` is defined uniformly through the direct-sum decomposition of each
object kind; it is computed by a greedy left-to-right cut: cut after a
prefix that is closed under the relevant structure (poset: all earlier
elements below all later ones; permutation: prefix is {1..k}; matching:
prefix endpoints are {1..2k}).

``stat_tuple`` compiles a requested tuple once per (class, names) into one
function that runs the class check and each pass it needs once per object.
These passes are linear kernels; their pairwise definitions are test oracles:

- ``inv``: each letter counts the larger letters before it, a popcount of the
  mask of the letters seen so far; the same left-to-right pass counts the
  descents, so ``asc``, ``des`` and ``inv`` are one kernel.
- ``emb``: c_k - 2k arcs are open across the k-th closer c_k.
- neighbour counts: neighbour arcs sit at adjacent positions, so one scan.
- ``rne_poset``: one OR of every mask ^ mask >> 1 compares all successor sets.

Every matching pass scans ``Matching.partner`` by position and builds no
arc, opener or closer tuple.  Telling an opener from a closer costs a
comparison per position, so ``comp``, ``min``, ``last`` and ``inter`` come
from one sweep that tells them apart once; ``emb``, asked for alone by
``cor_mahonian``, is its own pass, a sum of the closers.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .bijections import permutation_to_table
from .errors import NotFactorial, UnknownStatistic
from .objects import (
    Matching, Poset, is_factorial, neighbor_counts, nestings_and_crossings, rne_poset,
)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def count_pattern_p(pi: Sequence[int]) -> int:
    """Occurrences of the vincular pattern: adjacent letters a_i < a_{i+1}
    with a_i - 1 appearing somewhere after position i+1.  The letters must
    be a permutation of 1..n, unchecked: a letter above n raises IndexError.

    >>> count_pattern_p((3, 5, 1, 4, 2, 6))
    1
    """
    n = len(pi)
    position = [0] * (n + 1)
    for idx, v in enumerate(pi):
        position[v] = idx
    count = 0
    for i in range(n - 1):
        a = pi[i]
        if a < pi[i + 1] and a > 1 and position[a - 1] > i + 1:
            count += 1
    return count


def _perm_comp(pi: Sequence[int]) -> tuple[int]:
    comp = 0
    running_max = 0
    for k, v in enumerate(pi, start=1):
        if v > running_max:
            running_max = v
        if running_max == k:
            comp += 1
    return (comp,)


def _perm_asc_des_inv(pi: Sequence[int]) -> tuple[int, int, int]:
    des = inv = seen = prev = 0     # seen: bit v for each letter v so far
    for v in pi:
        inv += (seen >> v).bit_count()
        seen |= 1 << v
        if prev > v:
            des += 1
        prev = v
    return (len(pi) - 1 - des if pi else 0, des, inv)


def _records(values: Iterable[int], n: int) -> tuple[int, int]:
    """Numbers of running minima and running maxima of a sequence over 1..n."""
    mins = maxs = 0
    lo, hi = n + 1, 0
    for v in values:
        if v < lo:
            mins += 1
            lo = v
        if v > hi:
            maxs += 1
            hi = v
    return (mins, maxs)


def _perm_left_records(pi: Sequence[int]) -> tuple[int, int]:
    return _records(pi, len(pi))


def _perm_right_records(pi: Sequence[int]) -> tuple[int, int]:
    return _records(reversed(pi), len(pi))


def _perm_dent(pi: Sequence[int]) -> tuple[int]:
    return (len(set(permutation_to_table(pi))),)


def _perm_last(pi: Sequence[int]) -> tuple[int]:
    n = len(pi)
    return (pi.index(n) if n else 0,)


def _perm_p(pi: Sequence[int]) -> tuple[int]:
    return (count_pattern_p(pi),)


def perm_stats(pi: Sequence[int]) -> dict[str, int]:
    """All permutation statistics.

    dent counts the distinct entries of the inversion table; last is the
    position of n minus one; comp is the direct-sum component count.  The
    letters must be a permutation of 1..n, as ``jsonio.decode`` and the
    generators give; they are not checked here, and the passes need not
    raise on other letters (``inv`` sets bit v for each letter v).
    """
    return stats_for("permutations", pi)


# ---------------------------------------------------------------------------
# Factorial posets
# ---------------------------------------------------------------------------

def _require_factorial(p: Poset) -> tuple[()]:
    if not is_factorial(p):
        raise NotFactorial(f"poset on [{p.n}] is not factorial")
    return ()


def _poset_comp(p: Poset) -> tuple[int]:
    # a cut after k when every element labelled above k has 1..k below it
    comp = 0
    common = -1                     # AND of the predecessor masks above k
    for k in range(p.n, 0, -1):
        head = (1 << k) - 1
        if common & head == head:
            comp += 1
        common &= p.pre_masks[k - 1]
    return (comp,)


def _poset_min(p: Poset) -> tuple[int]:
    return (p.pre_masks.count(0),)


def _poset_pre_n(p: Poset) -> tuple[int]:
    return (p.pre_masks[-1].bit_count() if p.pre_masks else 0,)


def _poset_lev(p: Poset) -> tuple[int]:
    return (len(set(p.pre_masks)),)


def _poset_ip(p: Poset) -> tuple[int]:
    return (p.n * (p.n - 1) // 2 - sum(map(int.bit_count, p.pre_masks)),)


def _poset_rne(p: Poset) -> tuple[int]:
    return (rne_poset(p),)


def poset_stats(p: Poset) -> dict[str, int]:
    """Statistics of a factorial poset; raises NotFactorial otherwise.

    lev counts distinct predecessor sets; ip counts incomparable pairs;
    pre_n is the predecessor count of the top label n.
    """
    return stats_for("factorial_posets", p)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def _matching_sweep(m: Matching) -> tuple[int, int, int, int]:
    """(comp, min, last, inter) in one sweep by position.

    Position x opens an arc when p[x] > x.  With k the closers up to x, the
    points 1..x are a union of arcs exactly when x is a closer and x = 2k;
    min is x - 1 at the first closer; last is k at the opener p[2n] of the
    last arc; and a run of openers starts at 1 and after each closer.
    """
    p = m.partner
    o_last = p[-2]
    comp = least = last = inter = twice_k = 0
    after_closer = True                 # whether x - 1 is a closer, or x is 1
    for x in range(1, len(p) - 1):
        if p[x] > x:
            if after_closer:
                inter += 1
                after_closer = False
            if x == o_last:
                last = twice_k >> 1
        else:
            if not twice_k:
                least = x - 1
            twice_k += 2
            if x == twice_k:
                comp += 1
            after_closer = True
    return (comp, least, last, inter)


def _matching_emb(m: Matching) -> tuple[int]:
    # before the k-th closer c_k lie c_k - k openers and k - 1 closers
    p = m.partner
    total = 0
    for x in range(1, len(p) - 1):
        if p[x] < x:
            total += x
    n = len(p) // 2 - 1
    return (total - n * (n + 1),)


def matching_stats(m: Matching) -> dict[str, int]:
    """All matching statistics, including the nesting/crossing record.

    min is the smallest closer minus one; last counts closers before the
    opener of the last arc; inter counts maximal opener intervals; emb
    counts pairs of a closer lying strictly inside another arc.
    """
    return stats_for("matchings", m)


# ---------------------------------------------------------------------------
# Inversion tables
# ---------------------------------------------------------------------------

def _table_dent(w: Sequence[int]) -> tuple[int]:
    return (len(set(w)) if w else 0,)


# ---------------------------------------------------------------------------
# Passes and the vocabulary
# ---------------------------------------------------------------------------

# A pass computes a fixed tuple of named statistics in one sweep over an
# object; per class, the passes in vocabulary order.  A pass that names no
# statistic is a check that every object must pass first: it returns () or
# raises.
_POSET_PASSES = (
    ((), _require_factorial),
    (("comp",), _poset_comp),
    (("min",), _poset_min),
    (("pre_n",), _poset_pre_n),
    (("lev",), _poset_lev),
    (("ip",), _poset_ip),
    (("rne_poset",), _poset_rne),
)

PASSES = {
    "matchings": (
        (("comp", "min", "last", "inter"), _matching_sweep),
        (("emb",), _matching_emb),
        (("ne", "cr"), nestings_and_crossings),
        (("lne", "rne", "lcr", "rcr"), neighbor_counts),
    ),
    "permutations": (
        (("comp",), _perm_comp),
        (("asc", "des", "inv"), _perm_asc_des_inv),
        (("lmin", "lmax"), _perm_left_records),
        (("rmin", "rmax"), _perm_right_records),
        (("dent",), _perm_dent),
        (("last",), _perm_last),
        (("p",), _perm_p),
    ),
    "factorial_posets": _POSET_PASSES,
    "natural_posets": _POSET_PASSES,
    "inversion_tables": ((("dent",), _table_dent),),
}

# class -> statistic names, in the key order of the full record
VOCABULARY = {
    class_name: tuple(name for names, _ in passes for name in names)
    for class_name, passes in PASSES.items()
}

# class -> statistic name -> the pass that computes it
_PASS_OF = {
    class_name: {name: (names, compute) for names, compute in passes for name in names}
    for class_name, passes in PASSES.items()
}


def stat_tuple(class_name: str, names: Sequence[str]) -> Callable[[object], tuple[int, ...]]:
    """The function from an object of the class to its tuple of the named
    statistics, in the order asked and with repeats, compiled once per
    (class, names).  Raises UnknownStatistic for an unknown class, else for
    the first unknown name.

    >>> stat_tuple("permutations", ("inv", "des", "inv"))((2, 4, 1, 3))
    (3, 1, 3)
    """
    return _compile(class_name, tuple(names))


@functools.cache
def _compile(class_name: str, names: tuple[str, ...]) -> Callable[[object], tuple[int, ...]]:
    if class_name not in PASSES:
        raise UnknownStatistic(f"no statistics defined for class {class_name!r}")
    pass_of = _PASS_OF[class_name]
    # the checks first, then the passes to run, by first request
    chosen = [check for check in PASSES[class_name] if not check[0]]
    for name in names:
        if name not in pass_of:
            raise UnknownStatistic(f"{name!r} is not a {class_name} statistic")
        if pass_of[name] not in chosen:
            chosen.append(pass_of[name])
    computed = tuple(name for pass_names, _ in chosen for name in pass_names)
    computes = tuple(compute for _, compute in chosen)

    def values(obj) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for compute in computes:
            out += compute(obj)
        return out

    if computed == names:
        return values
    where = tuple(map(computed.index, names))
    if len(where) == 1:
        pick = itemgetter(slice(where[0], where[0] + 1))
    else:
        pick = itemgetter(*where)
    return lambda obj: pick(values(obj))


def stats_for(class_name: str, obj, names: Sequence[str] | None = None) -> dict[str, int]:
    """Named statistics of one object, keyed in the order asked (a repeated
    name once); names default to the full vocabulary."""
    names = VOCABULARY.get(class_name, ()) if names is None else tuple(names)
    return dict(zip(names, stat_tuple(class_name, names)(obj)))
