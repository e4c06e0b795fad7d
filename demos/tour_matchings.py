#!/usr/bin/env python3
"""A tour of matchings, their arc statistics, and the table bijections.

A matching of {1,...,2n} splits the points into n arcs.  Two arcs either
nest, cross, or stand apart; nestings and crossings whose openers (or
closers) are adjacent are the "neighbor" variants that drive everything
in this library.
"""

from fishburn import (
    Matching,
    arc_statistics,
    crossfree_matching_to_table,
    generate,
    matching_to_table,
    table_to_crossfree_matching,
    table_to_matching,
)


def draw(m):
    """One-line ASCII rendering: label each position opener/closer."""
    cells = []
    openers = {o for o, _ in m.arcs}
    for pos in range(1, 2 * m.n + 1):
        cells.append(f"{pos}{'(' if pos in openers else ')'}")
    return " ".join(cells)


m = Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8)])
print("matching:", m.arcs)
print("layout:  ", draw(m))
print("pair statistics:", arc_statistics(m))
print()

# The matching above has no left-nesting, so it corresponds to an
# inversion table: entry i counts the closers left of arc i's opener.
w = matching_to_table(m)
print("inversion table:", w)
print("round trip:     ", table_to_matching(w).arcs)
print()

# The same tables also encode matchings with no left-crossing, through a
# mirrored insertion rule.  (0,0,0) now gives fully nested arcs:
nested = table_to_crossfree_matching((0, 0, 0))
print("crossing-free image of (0,0,0):", nested.arcs)
print("read back:", crossfree_matching_to_table(nested))
print()

# Both images sweep out exactly n! matchings.  For n = 3:
no_lne = list(generate("matchings", 3, ("no_left_nesting",)))
print(f"matchings on [6] with no left-nesting: {len(no_lne)}")
for m in no_lne:
    print("  ", m.arcs)
