#!/usr/bin/env python3
"""Factorial posets, the unique labeling, and the interval view.

A naturally labeled poset is factorial when every predecessor set is an
initial segment {1,...,m}.  These posets are in bijection with inversion
tables (read off the predecessor counts) and hence with matchings; the
matching realizes the poset as intervals on a line.
"""

from fishburn import (
    Poset,
    canonical_labeling,
    canonical_labels,
    gen_factorial_posets,
    matching_to_poset,
    poset_to_matching,
    poset_to_table,
    relabel_poset,
    rne_poset,
    stats_for,
)
from fishburn.enumeration import PREDICATES

p = Poset.from_relations(4, [(1, 2), (1, 4)])
print("poset relations:", sorted(p.less))
print("predecessor counts:", poset_to_table(p))
print("as a matching:", poset_to_matching(p).arcs)
print("statistics:", stats_for("factorial_posets", p))
print()

# Predicates separate the interesting subfamilies; the poset ones are the
# PREDICATES entries that filter natural posets.
chain_plus_point = Poset.from_relations(4, [(1, 2), (2, 4)])
print("chain 1<2<4 with isolated 3:")
for name, (classes, test) in PREDICATES.items():
    if "natural_posets" in classes:
        print(f"  {name}: {test(chain_plus_point)}")
print(f"  rne_poset: {rne_poset(chain_plus_point)}")
print()

# A two-plus-two-free poset has exactly one labeling that is factorial and
# respects the neighbor rule.  Scramble a poset and recover it:
scrambled = relabel_poset(chain_plus_point, (3, 1, 4, 2))
print("scrambled relations:", sorted(scrambled.less))
print("canonical labels:", canonical_labels(scrambled))
recovered = canonical_labeling(scrambled)
print("recovered:", sorted(recovered.less), "==", sorted(chain_plus_point.less))
print()

# The interval view: each arc of the matching is the interval of its poset
# element, and element i precedes j exactly when arc i ends before arc j
# starts.
m = poset_to_matching(chain_plus_point)
print("intervals:", m.arcs)
print("read back:", sorted(matching_to_poset(m).less))
print()

# All factorial posets on [3]:
for p in gen_factorial_posets(3):
    print(f"table {poset_to_table(p)} -> relations {sorted(p.less)}")
