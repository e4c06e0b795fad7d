#!/usr/bin/env python3
"""Counting: the n!, Fishburn and Catalan families side by side.

Seven different-looking classes share the Fishburn numbers (the
coefficients of an exact power series), four share the Catalan numbers,
and the distribution of left-nestings over all matchings follows the
second-order Eulerian triangle.  Everything below recomputes both sides.
"""

from collections import Counter

from fishburn import (
    catalan,
    condition_one,
    double_factorial,
    fishburn_numbers,
    gen_ascent_sequences,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    generate,
    is_dually_factorial,
    is_factorial,
    second_order_eulerian,
    stat_tuple,
)

N = 5
fish = fishburn_numbers(N)
print("Fishburn series coefficients:", fish)
print()

header = ["n", "nn-free", "nc-free", "matrices", "ascents", "posets", "desc", "asc"]
print(" ".join(f"{h:>8}" for h in header))
for n in range(N + 1):
    row = [
        sum(1 for _ in generate("matchings", n, ("no_neighbor_nesting",))),
        sum(1 for _ in generate("matchings", n, ("no_neighbor_crossing",))),
        sum(1 for _ in gen_matrices(n)),
        sum(1 for _ in gen_ascent_sequences(n)),
        sum(1 for p in gen_natural_posets(n)
            if is_factorial(p) and condition_one(p)),
        sum(1 for _ in generate("inversion_tables", n, ("descent_correcting",))),
        sum(1 for _ in generate("inversion_tables", n, ("ascent_correcting",))),
    ]
    assert all(v == fish[n] for v in row)
    print(" ".join(f"{v:>8}" for v in [n] + row))
print("all rows match the series coefficients")
print()

print("Catalan classes:")
for n in range(N + 1):
    non_nesting = sum(1 for _ in generate("matchings", n, ("no_nesting",)))
    both = sum(1 for p in gen_natural_posets(n)
               if is_factorial(p) and is_dually_factorial(p))
    print(f"  n={n}: non-nesting matchings {non_nesting}, "
          f"factorial+dually factorial posets {both}, catalan {catalan(n)}")
    assert non_nesting == both == catalan(n)
print()

print("left-nesting distribution vs second-order Eulerian rows:")
lne = stat_tuple("matchings", ("lne",))
for n in range(1, N + 1):
    dist = Counter(k for (k,) in map(lne, gen_matchings(n)))
    counts = [dist[k] for k in range(n)]
    row = second_order_eulerian(n)
    print(f"  n={n}: counts {counts}  row {list(row)}  "
          f"(row sum {sum(row)} = {double_factorial(2 * n - 1)})")
    assert sorted(counts) == sorted(row)
