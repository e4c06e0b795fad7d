"""Statistics on factorial posets, permutations, matchings and tables.

Every statistic returns a nonnegative integer.  The vocabulary below is
closed and shared with the distribution and verification machinery so
tuples of statistics can be requested by name.

``comp`` is defined uniformly through the direct-sum decomposition of each
object kind; it is computed by a greedy left-to-right cut: cut after a
prefix that is closed under the relevant structure (poset: all earlier
elements below all later ones; permutation: prefix is {1..k}; matching:
prefix endpoints are {1..2k}).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .bijections import permutation_to_table
from .errors import NotFactorial, UnknownStatistic
from .objects import Matching, Poset, arc_statistics, is_factorial, rne_poset


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def count_pattern_p(pi: Sequence[int]) -> int:
    """Occurrences of the vincular pattern: adjacent letters a_i < a_{i+1}
    with a_i - 1 appearing somewhere after position i+1.

    >>> count_pattern_p((3, 5, 1, 4, 2, 6))
    1
    """
    n = len(pi)
    position = {v: idx for idx, v in enumerate(pi)}
    count = 0
    for i in range(n - 1):
        if pi[i] < pi[i + 1] and pi[i] - 1 >= 1:
            if position[pi[i] - 1] > i + 1:
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


def _perm_asc_des(pi: Sequence[int]) -> tuple[int, int]:
    asc = sum(a < b for a, b in zip(pi, pi[1:]))
    return (asc, len(pi) - 1 - asc if pi else 0)


def _perm_inv(pi: Sequence[int]) -> tuple[int]:
    return (sum(a > b for i, a in enumerate(pi, start=1) for b in pi[i:]),)


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
    position of n minus one; comp is the direct-sum component count.
    """
    return stats_for("permutations", pi)


# ---------------------------------------------------------------------------
# Factorial posets
# ---------------------------------------------------------------------------

def _require_factorial(p: Poset) -> None:
    if not is_factorial(p):
        raise NotFactorial(f"poset on [{p.n}] is not factorial")


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
    return (sum(1 for mask in p.pre_masks if mask == 0),)


def _poset_pre_n(p: Poset) -> tuple[int]:
    return (p.pre(p.n) if p.n else 0,)


def _poset_lev(p: Poset) -> tuple[int]:
    return (len(set(p.pre_masks)),)


def _poset_ip(p: Poset) -> tuple[int]:
    return (p.n * (p.n - 1) // 2 - sum(p.pre_vector),)


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

def _matching_comp(m: Matching) -> tuple[int]:
    # points 1..2k are a union of arcs exactly when the k-th closer is 2k
    return (sum(1 for k, c in enumerate(m.closers, start=1) if c == 2 * k),)


def _matching_min(m: Matching) -> tuple[int]:
    return (m.closers[0] - 1 if m.n else 0,)


def _matching_last(m: Matching) -> tuple[int]:
    return (bisect_left(m.closers, m.arcs[-1][0]) if m.n else 0,)


def _matching_inter(m: Matching) -> tuple[int]:
    openers = m.openers
    return (sum(
        1
        for idx, o in enumerate(openers)
        if idx == 0 or openers[idx - 1] != o - 1
    ),)


def _matching_emb(m: Matching) -> tuple[int]:
    return (sum(1 for c in m.closers for o2, c2 in m.arcs if o2 < c < c2),)


def _matching_arcs(m: Matching) -> tuple[int, ...]:
    r = arc_statistics(m)
    return (r.ne, r.cr, r.lne, r.rne, r.lcr, r.rcr)


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


def table_stats(w: Sequence[int]) -> dict[str, int]:
    return stats_for("inversion_tables", w)


# ---------------------------------------------------------------------------
# Passes and the vocabulary
# ---------------------------------------------------------------------------

# A pass computes a fixed tuple of named statistics in one sweep over an
# object.  Per class: a check every object must pass first (or None), then
# the passes in vocabulary order.
_POSET_PASSES = (
    _require_factorial,
    (
        (("comp",), _poset_comp),
        (("min",), _poset_min),
        (("pre_n",), _poset_pre_n),
        (("lev",), _poset_lev),
        (("ip",), _poset_ip),
        (("rne_poset",), _poset_rne),
    ),
)

PASSES = {
    "matchings": (
        None,
        (
            (("comp",), _matching_comp),
            (("min",), _matching_min),
            (("last",), _matching_last),
            (("inter",), _matching_inter),
            (("emb",), _matching_emb),
            (("ne", "cr", "lne", "rne", "lcr", "rcr"), _matching_arcs),
        ),
    ),
    "permutations": (
        None,
        (
            (("comp",), _perm_comp),
            (("asc", "des"), _perm_asc_des),
            (("inv",), _perm_inv),
            (("lmin", "lmax"), _perm_left_records),
            (("rmin", "rmax"), _perm_right_records),
            (("dent",), _perm_dent),
            (("last",), _perm_last),
            (("p",), _perm_p),
        ),
    ),
    "factorial_posets": _POSET_PASSES,
    "natural_posets": _POSET_PASSES,
    "inversion_tables": (None, ((("dent",), _table_dent),)),
}

# class -> statistic names, in the key order of the full record
VOCABULARY = {
    class_name: tuple(name for names, _ in passes for name in names)
    for class_name, (_, passes) in PASSES.items()
}

# class -> statistic name -> the pass that computes it
_PASS_OF = {
    class_name: {name: (names, compute) for names, compute in passes for name in names}
    for class_name, (_, passes) in PASSES.items()
}


def stats_for(class_name: str, obj, names: Sequence[str] | None = None) -> dict[str, int]:
    """Named statistics of one object; names default to the full vocabulary.

    Only the passes that cover the requested names run, each once.
    """
    if class_name not in PASSES:
        raise UnknownStatistic(f"no statistics defined for class {class_name!r}")
    check, passes = PASSES[class_name]
    if check is not None:
        check(obj)
    if names is None:
        values: list[int] = []
        for _, compute in passes:
            values += compute(obj)
        return dict(zip(VOCABULARY[class_name], values))
    pass_of = _PASS_OF[class_name]
    record: dict[str, int] = {}
    for name in names:
        if name not in record:
            if name not in pass_of:
                raise UnknownStatistic(f"{name!r} is not a {class_name} statistic")
            pass_names, compute = pass_of[name]
            record.update(zip(pass_names, compute(obj)))
    return {name: record[name] for name in names}
