"""
Cycle types, index, and the pair index by three different routes
================================================================

The whole library is built on one combinatorial quantity: the index of a
permutation, ``ind(g) = degree - number of cycles``, and its extension to a
pair (g, h) acting on a product of two sets.  This demo computes the pair
index three independent ways and watches them agree.
"""

from sdxa.groups import AbelianGroup, regular_cycle_type, regular_permutation
from sdxa.indexcalc import delta, delta_closed_form
from sdxa.perms import CycleType, cycle_type, ind, pair_index, partitions, product_embed
from sdxa.splitting import SplittingPattern, remark_formula

# ---------------------------------------------------------------------------
# Cycle types are just partitions; ind is degree minus cycle count.
# ---------------------------------------------------------------------------
for ct in partitions(4):
    print(f"cycle type {str(ct):12s} ind = {ind(ct)}")
print()

# ---------------------------------------------------------------------------
# Take a 3-cycle in degree 3 and a generator of C2 in its regular action.
# ---------------------------------------------------------------------------
g = CycleType((3,))
group = AbelianGroup.from_label("C2")
h = group.element((1,))
h_reg = regular_cycle_type(h)
print(f"g = {g}, h acts regularly as {h_reg}")

# Route 1: the closed-form pair index |A|*d - sum of gcds of cycle lengths.
route_closed = pair_index(g, h_reg)

# Route 2: embed both permutations in the product action on 3*2 = 6 points,
# multiply them out, and read the index off the resulting cycles.
embedded = product_embed(g.representative(), regular_permutation(h))
route_embedded = ind(cycle_type(embedded))

# Route 3: the valuation formula for splitting patterns, specialized to one
# degree-1 factor per cycle: sum of f_i f_j gcd(e_i,e_j) (lcm(e_i,e_j) - 1).
unit = lambda ct: SplittingPattern(tuple((part, 1) for part in ct.parts))
route_patterns = remark_formula(unit(g), unit(h_reg))

print(f"pair index, closed form      : {route_closed}")
print(f"pair index, actual product   : {route_embedded}")
print(f"pair index, pattern formula  : {route_patterns}")
assert route_closed == route_embedded == route_patterns
print()

# ---------------------------------------------------------------------------
# The discrepancy delta measures how far the compositum valuation falls short
# of the naive sum |A|*ind(g) + d*ind(h_reg).  It too has a closed form.
# ---------------------------------------------------------------------------
discrepancy = delta(g, h)
print(f"delta(g, h)             = {discrepancy}")
print(f"delta, closed gcd form  = {delta_closed_form(g, h_reg)}")
print(f"naive sum minus pair idx = {group.order * ind(g) + 3 * ind(h_reg) - route_closed}")
