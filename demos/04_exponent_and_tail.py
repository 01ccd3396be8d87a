"""
Equality cases, the combined exponent beta, and the dyadic tail sum
===================================================================

The compositum count stays on its conjectured growth curve only if the
error from each dyadic range of the auxiliary count decays geometrically.
Everything is exact rational arithmetic until the final tail evaluation:
the per-class exponent theta, its maximum beta over classes with both
components nontrivial, and the margin certificate that beta < 0.
"""

from fractions import Fraction

from sdxa.groups import AbelianGroup
from sdxa.indexcalc import (
    beta,
    equality_cases,
    exponent_presets,
    hypothesis_b_margin,
    index_compare,
    tail_series,
    theta,
)
from sdxa.perms import CycleType

# ---------------------------------------------------------------------------
# The index lower bound |A|*ind(g) <= ind(g, h) is an equality exactly when
# ord(h) divides every cycle length of g.  The full catalogue of equality
# classes is tiny: it needs a cycle type with gcd of parts > 1.
# ---------------------------------------------------------------------------
for d, label in ((3, "C3"), (4, "C2"), (5, "C5")):
    group = AbelianGroup.from_label(label)
    cases = equality_cases(d, group)
    print(f"d = {d}, A = {label}: equality classes {[f'({g}, {h})' for g, h in cases]}")
cmp = index_compare(CycleType((2, 1)), AbelianGroup.from_label("C2").element((1,)))
print(f"strict example: lhs {cmp.lhs} < rhs {cmp.rhs} (deficit {cmp.rhs - cmp.lhs})")
print()

# ---------------------------------------------------------------------------
# beta = max over both-nontrivial classes of (d/|A|) theta(class) + r[g],
# with the stock exponent presets.  It is strictly negative, and the
# per-cycle-type margins certify the same maximum a second way.
# ---------------------------------------------------------------------------
d = 3
group = AbelianGroup.from_label("C2")
presets = exponent_presets(d)
result = beta(d, group, presets)
print(f"beta = {result.value}, attained on {[f'({g}, {h})' for g, h in result.attained]}")
for (g, h), value in result.per_class:
    print(f"  class {f'({g}, {h})':14s} theta = {str(theta(g, h)):>6s}"
          f"  contribution = {value}")
margins = hypothesis_b_margin(d, group, presets)
print(f"margins by cycle type: {[f'{g}: {m}' for g, m in margins.items()]}")
assert result.value == max(margins.values()) < 0
print()

# ---------------------------------------------------------------------------
# The tail of the dyadic series: sum of C(r+m-1, m-1) 2^((beta+eps) r) over
# r >= r0(Y), next to the closed-form comparator (log Y)^(m-1) Y^(beta+eps).
# The sum is what the counting argument actually uses; the comparator only
# bounds its order of magnitude: the ratio tends to a constant L(m, e), but
# only slowly, at rate 1/log2 Y, so it still moves at these cutoffs.
# ---------------------------------------------------------------------------
print(f"{'Y':>8} {'r0':>4} {'terms':>6} {'tail value':>12} {'comparator':>12} {'ratio':>8}")
for y in (2.0**4, 2.0**8, 2.0**16):
    estimate = tail_series(result.value, Fraction(1, 1000), 2, y)
    print(f"{y:>8.0f} {estimate.r_start:>4} {estimate.terms:>6} "
          f"{estimate.value:>12.6f} {estimate.comparator:>12.6f} "
          f"{estimate.value / estimate.comparator:>8.3f}")
