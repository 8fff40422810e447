#!/usr/bin/env python3
"""Which gate assignments satisfy the promise at all?

Sweeping every ordered assignment of a ten-gate library (whose Choi matrices
span the full space of qubit-unitary Choi matrices) to the four slots yields
460 promise-satisfying sets.  Grouping them by whether one basis change maps
one set onto another compresses the list to ~100 genuinely different ones.
"""
from collections import Counter

from switchlab import (SIGMA_STAR, enumerate_promise_sets, equivalence_classes,
                       gate_set_G, hadamard_m4, pauli, verify_classification)

m4 = hadamard_m4()
library = gate_set_G()
print("gate library:", ", ".join(g.name for g in library))

census, sets = enumerate_promise_sets(library, SIGMA_STAR, m4)
print(f"\npromise-satisfying assignments: {census.total}")
for y, count in enumerate(census.per_column):
    print(f"  column {y}: {count}")

print("\nfirst few finds:")
for s in sets[:5]:
    print("  ", s.names(), "-> column", s.claimed_y)

print("\n-- equivalence under a common change of basis --")
strict = equivalence_classes(sets, phase_sensitive=True)
verify_classification(strict, sets)
print("exact conjugation (phases matter):", strict.n_classes, "classes")
loose = equivalence_classes(sets, phase_sensitive=False)
verify_classification(loose, sets)
print("conjugation up to per-gate phases:", loose.n_classes, "classes")
print("(the looser relation is the one that matters when sets enter only")
print(" through their Choi projectors, e.g. in basis-averaged witnesses)")

sizes = Counter(len(c) for c in loose.classes)
print("class sizes:", dict(sorted(sizes.items())))

print("\n-- a smaller library for comparison: identity + the three axes --")
census_pauli, _ = enumerate_promise_sets([pauli(n) for n in "IZXY"], SIGMA_STAR, m4)
print(f"{census_pauli.total} assignments, per column {census_pauli.per_column}")
