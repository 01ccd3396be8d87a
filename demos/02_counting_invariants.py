"""
Conjugacy classes of the product group and the growth invariants they fix
=========================================================================

Counting degree-(d*|A|) fields with the product Galois structure is governed
by two constants: ``a`` (the minimal index over nontrivial classes; the count
grows like X^(1/a)) and ``b`` (the number of power-map orbits attaining the
minimum; the count carries (log X)^(b-1)).  This demo enumerates the classes
and extracts both, for the product group and for the abelian factor alone.
"""

from fractions import Fraction
from math import gcd

from sdxa.groups import (
    AbelianGroup,
    abelian_counting_constants,
    abelian_groups_up_to,
    conjugacy_classes_product,
    malle_invariants_product,
    regular_cycle_type,
)
from sdxa.perms import pair_index

# ---------------------------------------------------------------------------
# Every conjugacy class of S_3 x C2 is a (cycle type, element) pair.  Indices
# in the natural degree-6 action:
# ---------------------------------------------------------------------------
group = AbelianGroup.from_label("C2")
for g, h in conjugacy_classes_product(3, group):
    index = pair_index(g, regular_cycle_type(h))
    print(f"class {f'({g}, {h})':16s} index = {index}")
print()

# ---------------------------------------------------------------------------
# The minimum is |A| = 2, attained only by (transposition, identity), and it
# forms a single power-map orbit: a = 2, growth X^(1/2), b = 1.
# ---------------------------------------------------------------------------
invariants = malle_invariants_product(3, group)
print(f"a = {invariants.a}, exponent = {invariants.exponent}, b = {invariants.b}")

classes = conjugacy_classes_product(3, group)
minimal = [
    (g, h) for g, h in classes
    if pair_index(g, regular_cycle_type(h)) == invariants.a
]
# The power maps (g, h) -> (g^k, k*h), k prime to the exponent, keep g's cycle
# type, so an orbit is g with the multiples k*h.
units = [k for k in range(1, group.exponent + 1) if gcd(k, group.exponent) == 1]
orbits = {frozenset((g, h.scale(k)) for k in units) for g, h in minimal}
print(f"minimal classes: {[f'({g}, {h})' for g, h in minimal]}, "
      f"power-map orbits: {len(orbits)}")
print()

# ---------------------------------------------------------------------------
# The same invariants are (a, 1/a, 1) for every d in {3,4,5} and every
# nontrivial abelian group: the transposition never loses.
# ---------------------------------------------------------------------------
print(f"{'d':>2} {'group':>6} {'a':>3} {'exponent':>9} {'b':>2}")
for d in (3, 4, 5):
    for grp in abelian_groups_up_to(6):
        inv = malle_invariants_product(d, grp)
        print(f"{d:>2} {grp.label():>6} {inv.a:>3} {str(inv.exponent):>9} {inv.b:>2}")
print()

# ---------------------------------------------------------------------------
# Counting the abelian fields alone behaves differently: the constants come
# from the regular representation's order-p elements (p = smallest prime
# dividing |A|).  For C2 x C2 the three order-2 elements sit in three
# separate power-map orbits, so the log-power is b_A = 3 - 1 = 2.
# ---------------------------------------------------------------------------
for label in ("C2", "C3", "C4", "C2xC2", "C6", "C2xC4"):
    a_constant, orbit_excess = abelian_counting_constants(AbelianGroup.from_label(label))
    print(f"{label:>6}: a_A = {a_constant}, b_A = {orbit_excess}")
assert abelian_counting_constants(AbelianGroup.from_label("C2xC2")) == (Fraction(1, 2), 2)
