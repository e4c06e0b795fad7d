#!/usr/bin/env python3
"""The interval-decomposition map onto triangular matrices.

Grouping a matching's openers and closers into maximal intervals and
counting arcs between the groups gives an upper triangular matrix with no
zero row or column.  The map is onto; restricted to matchings with no
neighbor nesting, or no neighbor crossing, it becomes a bijection, and the
0-1 matrices correspond to matchings with no left-nesting and no
right-crossing.
"""

from fishburn import (
    TriangularMatrix,
    gen_matchings,
    gen_matrices,
    matching_to_matrix,
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    stats_for,
    zero_one_matrix_to_matching,
)

t = TriangularMatrix.from_rows([[1, 1], [0, 1]])
print("target matrix:", t.rows)
family = [m for m in gen_matchings(3) if matching_to_matrix(m) == t]
print(f"its {len(family)} preimages:")
for m in family:
    rec = stats_for("matchings", m, ("lne", "rne", "lcr", "rcr"))
    tags = []
    if rec["lne"] == 0 and rec["rne"] == 0:
        tags.append("no neighbor nesting")
    if rec["lcr"] == 0 and rec["rcr"] == 0:
        tags.append("no neighbor crossing")
    if rec["lne"] == 0 and rec["rcr"] == 0:
        tags.append("zero-one preimage")
    print(f"  {m.arcs}  {', '.join(tags) if tags else ''}")
print()

# The three restricted inverses reconstruct each class member directly.
print("nesting-free preimage: ", matrix_to_matching_no_neighbor_nesting(t).arcs)
print("crossing-free preimage:", matrix_to_matching_no_neighbor_crossing(t).arcs)
print("zero-one preimage:     ", zero_one_matrix_to_matching(t).arcs)
print()

# Non-nesting and non-crossing matchings land on Catalan-many matrices,
# recognized by simple zero patterns.
for n in (3, 4):
    ts = list(gen_matrices(n))
    nn = [x for x in ts if matrix_is_nonnesting_image(x)]
    nc = [x for x in ts if matrix_is_noncrossing_image(x)]
    print(f"n={n}: {len(ts)} matrices, {len(nn)} non-nesting images, "
          f"{len(nc)} non-crossing images")
