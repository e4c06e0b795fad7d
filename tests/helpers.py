"""Independent brute-force oracles and frozen reference values.

Nothing here reuses the library's pair classification, interval logic or
counting code; the oracles work on raw arc tuples so that agreement with
the package is evidence.  The statistic and predicate bodies the library
replaced by faster kernels stay here as their oracles, and so do the
earlier bodies of the one-pass bijection kernels.
"""

import itertools
import random

from fishburn import verify
from fishburn.enumeration import MATCHING_RULES
from fishburn.errors import NotTwoPlusTwoFree
from fishburn.objects import Matching, Poset

# first values of the counting sequences the classes must follow
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]
ODD_DOUBLE_FACTORIAL = [1, 1, 3, 15, 105, 945, 10395, 135135]   # (2n-1)!!
NATURAL_POSET_COUNTS = [1, 1, 2, 7, 40, 357, 4824, 96428]

# The filters and statistic names of the tally route tests: every matching
# class, all matchings, and one pair of predicates whose rules no class names;
# names of the merged counter (one repeated), then names it lacks
ROUTE_FILTERS = [(), *((name,) for name in sorted(MATCHING_RULES)),
                 ("no_left_crossing", "no_right_nesting")]
COUNTED_NAMES = [("lne", "rne", "comp", "inter", "min", "emb"), ("emb", "min"),
                 ("rne", "comp", "rne")]
ENUMERATED_NAMES = [("last",), ("rne", "ne"), ("lcr", "comp")]
# the same for the permutations: names of the inversion-table walk, of the
# prefix walk (the conjectures' triples among them), then names neither reads
COUNTED_PERMUTATION_NAMES = [("asc", "des", "inv", "lmin", "lmax"), ("des", "inv"),
                             ("lmax", "inv", "lmax")]
PREFIX_PERMUTATION_NAMES = [("p",), ("comp", "des"), ("p", "comp", "lmin"),
                            ("p", "lmax", "des")]
ENUMERATED_PERMUTATION_NAMES = [("last",), ("rmin", "des"), ("dent", "p")]


def naive_matchings(n):
    """All perfect matchings of [2n] as frozensets of (min, max) pairs."""
    points = list(range(1, 2 * n + 1))

    def rec(free):
        if not free:
            yield ()
            return
        first = free[0]
        for i in range(1, len(free)):
            rest = free[1:i] + free[i + 1:]
            for sub in rec(rest):
                yield ((first, free[i]),) + sub

    for arcs in rec(points):
        yield frozenset(arcs)


def naive_sorted_matchings(n):
    """Every matching of [2n] as a Matching, in lexicographic order of the
    canonical (closer-sorted) arc tuples: all of them are built first, then
    sorted.  This was the library's generator before its closer-order search."""
    arcsets = sorted(tuple(sorted(arcs, key=lambda arc: arc[1]))
                     for arcs in naive_matchings(n))
    return [Matching(arcs) for arcs in arcsets]


def classify_pair(a, b):
    """'nest', 'cross' or 'align' for two disjoint arcs."""
    (o1, c1), (o2, c2) = sorted([a, b])
    if o1 < o2 < c2 < c1:
        return "nest"
    if o1 < o2 < c1 < c2:
        return "cross"
    return "align"


def naive_counts(arcs):
    """Nesting/crossing record computed pair by pair from raw arcs."""
    ne = cr = lne = rne = lcr = rcr = 0
    for a, b in itertools.combinations(sorted(arcs), 2):
        (o1, c1), (o2, c2) = sorted([a, b])
        kind = classify_pair(a, b)
        if kind == "nest":
            ne += 1
            lne += o2 == o1 + 1
            rne += c1 == c2 + 1
        elif kind == "cross":
            cr += 1
            lcr += o2 == o1 + 1
            rcr += c2 == c1 + 1
    return {"ne": ne, "cr": cr, "lne": lne, "rne": rne, "lcr": lcr, "rcr": rcr}


def quadratic_inv(pi):
    """Inversions of a permutation, every pair of letters compared."""
    return sum(a > b for i, a in enumerate(pi, start=1) for b in pi[i:])


def left_inversion_table(pi):
    """d_i = #{j < i : pi_j > pi_i} for each position i, every earlier
    letter compared."""
    return tuple(sum(a > b for a in pi[:i]) for i, b in enumerate(pi))


def q_factorial(n):
    """Coefficients of prod_{i <= n} (1 + q + ... + q^(i - 1)), multiplied
    out one factor at a time."""
    coefficients = [1]
    for i in range(1, n + 1):
        product = [0] * (len(coefficients) + i - 1)
        for k, c in enumerate(coefficients):
            for j in range(i):
                product[k + j] += c
        coefficients = product
    return coefficients


def pairwise_asc_des(pi):
    """(asc, des) of a permutation, each adjacent pair compared in turn."""
    asc = sum(a < b for a, b in zip(pi, pi[1:]))
    return (asc, len(pi) - 1 - asc if pi else 0)


def count_pattern_p_by_dict(pi):
    """Occurrences of the vincular pattern of ``count_pattern_p``: adjacent
    a_i < a_{i+1} with a_i - 1 after position i + 1, positions in a dict."""
    position = {v: idx for idx, v in enumerate(pi)}
    return sum(1 for i in range(len(pi) - 1)
               if pi[i] < pi[i + 1] and pi[i] - 1 >= 1 and position[pi[i] - 1] > i + 1)


def min_by_scan(p):
    """Minimal elements of a poset: the predecessor masks equal to 0."""
    return sum(1 for mask in p.pre_masks if mask == 0)


def is_factorial_by_counts(p):
    """Every predecessor mask equals the mask of its first pre(k) bits."""
    return all(mask == (1 << mask.bit_count()) - 1 for mask in p.pre_masks)


def pre_count(p, j):
    """The number of elements below j, read from its predecessor mask."""
    return p.pre_masks[j - 1].bit_count()


def suc_count(p, j):
    """The number of predecessor masks that hold bit j - 1."""
    return sum(mask >> (j - 1) & 1 for mask in p.pre_masks)


def condition_one_by_counts(p):
    """The rule of condition_one read element by element: pre(i) <= pre(i+1)
    or suc(i) > suc(i+1) for every i in [n-1], four counts per i."""
    return all(
        pre_count(p, i) <= pre_count(p, i + 1) or suc_count(p, i) > suc_count(p, i + 1)
        for i in range(1, p.n)
    )


def pairwise_incomparable(p):
    """Pairs i < j of a poset related neither way, every pair tested."""
    less = p.less
    return sum(1 for i, j in itertools.combinations(range(1, p.n + 1), 2)
               if (i, j) not in less and (j, i) not in less)


def opener_positions(m):
    """The openers of a matching in increasing order, read from its partner tuple."""
    p = m.partner
    return tuple(x for x in range(1, len(p) - 1) if p[x] > x)


def closer_positions(m):
    """The closers of a matching in increasing order, read from its partner tuple."""
    p = m.partner
    return tuple(x for x in range(1, len(p) - 1) if p[x] < x)


def opener_intervals_by_index(openers):
    """Maximal runs of consecutive openers: each opener that does not follow
    the one before it starts a run."""
    return sum(1 for idx, o in enumerate(openers)
               if idx == 0 or openers[idx - 1] != o - 1)


def quadratic_emb(arcs):
    """Closers lying strictly inside another arc, every closer tested
    against every arc."""
    return sum(1 for _, c in arcs for o2, c2 in arcs if o2 < c < c2)


def quadratic_neighbor_counts(arcs):
    """(lne, rne, lcr, rcr): every pair of arcs, sorted by opener, sorted
    into nesting or crossing and tested for adjacent openers or closers."""
    lne = rne = lcr = rcr = 0
    for (o1, c1), (o2, c2) in itertools.combinations(sorted(arcs), 2):
        if o2 < c2 < c1:
            lne += o2 == o1 + 1
            rne += c1 == c2 + 1
        elif o2 < c1 < c2:
            lcr += o2 == o1 + 1
            rcr += c2 == c1 + 1
    return (lne, rne, lcr, rcr)


def rne_poset_by_successors(p):
    """Neighbours x, x + 1 with pre(x) > pre(x + 1) and the same successor
    mask, the masks compared whole."""
    return sum(1 for x in range(1, p.n)
               if pre_count(p, x) > pre_count(p, x + 1)
               and p.suc_masks[x - 1] == p.suc_masks[x])


def rebuilt(m):
    """The matching of ``m``'s arcs alone, its partner tuple derived afresh
    by ``Matching(arcs)``: the oracle of the maps that build the partner
    tuple as they place the arcs."""
    return Matching(m.arcs)


def same_fields(m, oracle):
    """Whether two matchings agree in their partner tuple and in the arcs
    built from it."""
    return (m.arcs, m.partner) == (oracle.arcs, oracle.partner)


def raw_table(arcs):
    """a_i = closers left of the i-th arc's opener, arcs taken by closer."""
    closers = sorted(c for _, c in arcs)
    return tuple(sum(c < o for c in closers) for o, _ in sorted(arcs, key=lambda a: a[1]))


def inserted_arcs(w, last):
    """The arcs that the table rule places, read off a word of tokens: for
    each i, arc i's opener goes into the gap after the a_i-th closer, last
    in it or first, and then its closer at the end of the word."""
    word = []                                   # ("o" or "c", arc index)
    for i, a in enumerate(w):
        closer_at = [k for k, (kind, _) in enumerate(word) if kind == "c"]
        start = closer_at[a - 1] + 1 if a else 0
        end = closer_at[a] if a < len(closer_at) else len(word)
        word.insert(end if last else start, ("o", i))
        word.append(("c", i))
    ends = {}
    for pos, token in enumerate(word, start=1):
        ends[token] = pos
    return tuple((ends["o", i], ends["c", i]) for i in range(len(w)))


def first_neighbor_pair_by_arcs(arcs, left, nesting):
    """First pair of arcs with adjacent openers (``left``) or closers, by
    the first position, that nests or crosses, every pair classified."""
    end = 0 if left else 1
    found = []
    for a, b in itertools.permutations(arcs, 2):
        if b[end] == a[end] + 1 and (classify_pair(a, b) == "nest") == nesting:
            found.append((a[end], a, b))
    return min(found)[1:] if found else None


def has_gap2_nesting_by_pairs(arcs):
    """Two arcs whose openers are exactly two apart nest, every pair tested."""
    return any(o2 == o1 + 2 and c2 < c1 for (o1, c1), (o2, c2) in itertools.permutations(arcs, 2))


def quadratic_descent_correcting(w):
    """Every descent position i (a_i > a_{i+1}) has a later entry equal to i,
    each later entry scanned anew."""
    n = len(w)
    for i in range(1, n):                       # 1-based position i
        if w[i - 1] > w[i]:
            if not any(w[l] == i for l in range(i, n)):
                return False
    return True


def quadratic_ascent_correcting(w):
    """Every ascent position i with a_{i+1} != i+1 has a later entry equal to
    i, each later entry scanned anew."""
    n = len(w)
    for i in range(1, n):
        if w[i - 1] < w[i] and w[i] != i + 1:
            if not any(w[l] == i for l in range(i, n)):
                return False
    return True


def shape_by_views(m):
    """(comp, min, last, inter, emb) from the arcs, openers and closers,
    one definition each, as the statistic passes read them before they
    scanned the partner tuple."""
    arcs, openers, closers, n = m.arcs, opener_positions(m), closer_positions(m), m.n
    comp = sum(1 for k, c in enumerate(closers, start=1) if c == 2 * k)
    least = closers[0] - 1 if n else 0
    last = sum(1 for c in closers if c < arcs[-1][0]) if n else 0
    return (comp, least, last, opener_intervals_by_index(openers),
            sum(closers) - n * (n + 1))


def quadratic_matching_to_poset(m):
    """The poset of a matching with no left-nesting by its definition: with
    arcs ordered by closer, i is below j when arc i's closer precedes arc j's
    opener, every pair of arcs compared."""
    closers = closer_positions(m)
    return Poset.from_pre_masks(tuple(
        sum(1 << i for i, c in enumerate(closers) if c < o) for o, _ in m.arcs))


def pairwise_two_plus_two_free(p):
    """No induced 2+2: every two relations a < b and c < d with four
    distinct elements, tested for the four incomparabilities."""
    less = p.less

    def incomparable(x, y):
        return (x, y) not in less and (y, x) not in less

    for (a, b), (c, d) in itertools.combinations(sorted(less), 2):
        if len({a, b, c, d}) == 4 and incomparable(a, c) and incomparable(a, d) \
                and incomparable(b, c) and incomparable(b, d):
            return False
    return True


def is_two_plus_two_free_by_inclusion(p):
    """Equivalent criterion: predecessor sets linearly ordered by inclusion."""
    masks = sorted(set(p.pre_masks), key=lambda m: m.bit_count())
    return all(a & ~b == 0 for a, b in zip(masks, masks[1:]))


def canonical_labels_by_counts(p):
    """The canonical labels sorted by (-suc(x), pre(x), x), each count read
    from the poset per key, on the domain checked by the inclusion chain."""
    if not is_two_plus_two_free_by_inclusion(p):
        raise NotTwoPlusTwoFree(f"poset on [{p.n}] contains an induced two-plus-two")
    order = sorted(range(1, p.n + 1), key=lambda x: (-suc_count(p, x), pre_count(p, x), x))
    sigma = [0] * p.n
    for new_label, x in enumerate(order, start=1):
        sigma[x - 1] = new_label
    return tuple(sigma)


def naive_characteristic_matrix(p):
    """Rows of the characteristic matrix by its definition, from the set of
    predecessors and of successors of each element: the distinct predecessor
    sets by size ascending, the distinct successor sets by size descending,
    each pair of either compared by inclusion; None when either is no chain
    or the two differ in length."""
    elements = range(1, p.n + 1)
    less = p.less
    pre = {x: frozenset(a for a in elements if (a, x) in less) for x in elements}
    suc = {x: frozenset(b for b in elements if (x, b) in less) for x in elements}
    downs = sorted(set(pre.values()), key=len)
    ups = sorted(set(suc.values()), key=len, reverse=True)
    if len(downs) != len(ups) or not all(a <= b or b <= a for sets in (downs, ups)
                                         for a, b in itertools.combinations(sets, 2)):
        return None
    return tuple(tuple(sum(1 for x in elements if pre[x] == d and suc[x] == u) for u in ups)
                 for d in downs)


def naive_closure(pairs):
    """The transitive closure of a relation, a set of pairs (i, j), by composing
    it with itself until no pair is new; a cycle closes to pairs (j, j)."""
    closed = set(map(tuple, pairs))
    while new := {(a, d) for a, b in closed for c, d in closed if b == c} - closed:
        closed |= new
    return frozenset(closed)


def random_natural_posets(seed, count=25):
    """Seeded naturally labeled posets on 20 to 60 elements, the transitive
    closure of a few random up-relations; most contain an induced 2+2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(20, 60)
        pairs = [sorted(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, n))]
        out.append(Poset.from_relations(n, pairs))
    return out


def random_tables(seed, count=25):
    """Seeded inversion tables of lengths 20 to 60."""
    rng = random.Random(seed)
    return [tuple(rng.randint(0, i) for i in range(rng.randint(20, 60)))
            for _ in range(count)]


def random_matrices(seed, count=25, zero_one=False):
    """Seeded rows of upper triangular matrices with entry sum n from 10 to
    30 and no zero row or column, drawn cell by cell rather than as the
    images of matchings; with ``zero_one``, every entry is 0 or 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(10, 30)
        k = rng.randint(1, n // 2)
        cells = [(i, j) for i in range(k) for j in range(i, k)]
        if zero_one and len(cells) < n:
            continue
        rows = [[0] * k for _ in range(k)]
        for i in range(k):                      # a nonzero entry in each row,
            rows[i][rng.randint(i, k - 1)] = 1
        for j in range(k):                      # then in each column
            if not any(rows[i][j] for i in range(j + 1)):
                rows[rng.randint(0, j)][j] = 1
        free = [(i, j) for i, j in cells if not (zero_one and rows[i][j])]
        for _ in range(n - sum(map(sum, rows))):
            i, j = free.pop(rng.randrange(len(free))) if zero_one else rng.choice(free)
            rows[i][j] += 1
        out.append(tuple(map(tuple, rows)))
    return out


def naive_interval_matrix(arcs):
    """The interval-decomposition matrix computed by position scanning."""
    n = len(arcs)
    if n == 0:
        return ()
    openers = {min(a) for a in arcs}
    block_of = {}
    o_idx = c_idx = -1
    prev = None
    for pos in range(1, 2 * n + 1):
        is_opener = pos in openers
        if is_opener != prev:
            if is_opener:
                o_idx += 1
            else:
                c_idx += 1
            prev = is_opener
        block_of[pos] = o_idx if is_opener else c_idx
    k = o_idx + 1
    t = [[0] * k for _ in range(k)]
    for arc in arcs:
        o, c = min(arc), max(arc)
        t[block_of[o]][block_of[c]] += 1
    return tuple(tuple(row) for row in t)


def naive_matrices(n):
    """Rows of every upper triangular matrix with entry sum n and no zero
    row or column: fill each composition of n into the upper cells, row by
    row, and reject the bad ones.  Dimension first, then lexicographic."""
    def compositions(total, cells):
        if cells == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, cells - 1):
                yield (first,) + rest

    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        cells = [(i, j) for i in range(k) for j in range(i, k)]
        for comp in compositions(n, len(cells)):
            rows = [[0] * k for _ in range(k)]
            for (i, j), v in zip(cells, comp):
                rows[i][j] = v
            if all(any(row) for row in rows) and \
                    all(any(row[j] for row in rows) for j in range(k)):
                yield tuple(tuple(row) for row in rows)


def naive_natural_posets_by_filter(n):
    """Naturally labeled posets via transitive filtering of all up-relations.

    Exponential in C(n, 2); only usable for n <= 4, which is exactly what
    makes it a fair cross-check of the incremental generator.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            out.append(frozenset(rel))
    return out


def naive_dually_factorial(n, less):
    """Direct quantifier scan of: i > j above k implies i above k."""
    for i in range(1, n + 1):
        for j in range(1, i):
            for k in range(1, n + 1):
                if (k, j) in less and (k, i) not in less:
                    return False
    return True


def naive_has_three_plus_one(n, less):
    """Scan all 4-element subsets for an induced 3-chain plus isolated point."""
    def related(a, b):
        return (a, b) in less or (b, a) in less

    for quad in itertools.combinations(range(1, n + 1), 4):
        for w in quad:
            rest = [x for x in quad if x != w]
            if any(related(w, x) for x in rest):
                continue
            for chain in itertools.permutations(rest):
                if (chain[0], chain[1]) in less and (chain[1], chain[2]) in less:
                    return True
    return False


# the four preimages of [[1,1],[0,1]] under the interval map, by class
PREIMAGE_FAMILY = {
    frozenset({(1, 3), (2, 5), (4, 6)}),   # no neighbor nesting
    frozenset({(1, 3), (2, 6), (4, 5)}),   # no left-nesting, no right-crossing
    frozenset({(1, 5), (2, 3), (4, 6)}),
    frozenset({(1, 6), (2, 3), (4, 5)}),   # no neighbor crossing
}

# the six matchings on [6] with no left-nesting
NO_LEFT_NESTING_N3 = {
    frozenset({(1, 2), (3, 4), (5, 6)}),
    frozenset({(1, 2), (3, 5), (4, 6)}),
    frozenset({(1, 3), (2, 4), (5, 6)}),
    frozenset({(1, 3), (2, 5), (4, 6)}),
    frozenset({(1, 3), (4, 5), (2, 6)}),
    frozenset({(1, 4), (2, 5), (3, 6)}),
}

# all of T_3
T3_ROWS = {
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0), (0, 2)),
    ((2, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((3,),),
}


def subset_scan_natural_posets(n):
    """The naturally labeled posets on [n] as ``gen_natural_posets`` yielded
    them before it carried the down-set lists: element k+1 takes each subset
    of the k earlier elements, in increasing order of its mask, that is
    closed downwards."""
    def extend(masks):
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
        yield Poset.from_pre_masks(masks)


# thm_poset_matching_round_trip as two sweeps, its form before the one sweep of
# each class: every map runs on every poset and again on every matching.  The
# maps are read from ``verify`` as the facts run, so a fault injected there
# reaches both forms.
two_sweep_round_trip = verify._facts(
    verify._every("factorial_posets",
                  lambda p: verify.matching_to_poset(verify.poset_to_matching(p)) == p),
    verify._every("matchings", lambda m: (p := verify.matching_to_poset(m))
                  == verify.table_to_poset(verify.matching_to_table(m))
                  and verify.poset_to_matching(p) == m, "no_left_nesting"))
