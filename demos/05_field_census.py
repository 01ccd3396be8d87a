"""
A field census: composing discriminants over a bundled record set
=================================================================

The package ships a fixture of all 324 non-cyclic cubic fields with
|disc| <= 2000 and all 61 quadratic fields with |disc| <= 100, each record
carrying its per-prime ramification data.  This demo composes pairs,
counts compositum discriminants below a cutoff, and measures how evenly
prescribed inertia classes are distributed.
"""

from fractions import Fraction

from sdxa.census import (
    UniformityBin,
    compose_disc,
    count_N,
    count_N_truncated,
    ingest,
    iter_census_pairs,
    measure_uniformity,
)
from sdxa.cli import bundled_fixture_path
from sdxa.groups import AbelianGroup
from sdxa.perms import CycleType

dataset = ingest(bundled_fixture_path())
group = AbelianGroup.from_label("C2")
print(f"records by group: {dataset.group_counts()}")
print(f"coverage assertions: {dataset.coverage}")
print()

# ---------------------------------------------------------------------------
# Compose one cubic with one quadratic.  Sharing a tame prime (here 23 is
# unramified in K, so there is no overlap) just multiplies valuations; a
# genuinely shared prime loses the discrepancy delta.
# ---------------------------------------------------------------------------
f_record = dataset.get("3.-23.1")
k_record = dataset.get("2.-4.1")
composed = compose_disc(f_record, k_record)
print(f"{f_record.label} x {k_record.label}:")
for entry in composed.breakdown:
    print(f"  p = {entry.prime:>3}: v_F = {entry.v_f}, v_K = {entry.v_k}, "
          f"delta = {entry.delta_p}, v_FK = {entry.v_fk}")
print(f"  |disc of compositum| = {composed.magnitude} (exact: {composed.exact})")
print()

# A pair with a shared wild prime stays unresolved without an override: the
# result is a bracket [lower bound, naive product], never a silent guess.
f_record = dataset.get("3.-104.1")
k_record = dataset.get("2.8.1")
composed = compose_disc(f_record, k_record)
print(f"{f_record.label} x {k_record.label}: unresolved at {composed.unresolved_primes}, "
      f"bracket [{composed.lower_bound}, {composed.naive_magnitude}]")
print()

# ---------------------------------------------------------------------------
# Count compositum discriminants below X.  Pairs whose wild bracket straddles
# X are flagged, not dropped: the true count lies in [count, count+flagged].
# The fit constant count / X^(1/|A|) should stabilize as X grows.
# ---------------------------------------------------------------------------
pairs = list(iter_census_pairs(dataset, 3, group))
print(f"linearly disjoint pairs available: {len(pairs)}")
print(f"{'X':>10} {'count':>6} {'flagged':>8} {'fit':>8}")
for x in (10**4, 10**5, 10**6):
    result = count_N(dataset, 3, group, x)
    print(f"{x:>10} {result.count:>6} {result.flagged_wild_pairs:>8} "
          f"{result.fit_constant:>8.4f}")
    for warning in result.warnings:
        print(f"  warning: {warning}")
print()

# Truncating the composition at a cutoff y (naive valuations above it) only
# ever overstates discriminants, so the truncated count approaches the full
# one from below as y grows.
full = count_N(dataset, 3, group, 10**6)
for y in (31, 100, 1000):
    truncated = count_N_truncated(dataset, 3, group, 10**6, y)
    print(f"y = {y:>5}: truncated count {truncated.count} (full {full.count})")
print()

# ---------------------------------------------------------------------------
# Dyadic uniformity: among cubics with |disc| < x, how many have their
# 3-cycle-inertia primes multiplying into [q, 2q)?  With an expected
# exponent, the last column reports count / (x * q^exponent).
# ---------------------------------------------------------------------------
bins = (UniformityBin(frozenset({CycleType((3,))}), 8, Fraction(-1, 2)),)
for row in measure_uniformity(dataset, 3, bins, (500, 1000, 2000)):
    print(f"x = {row.x:>5}: count {row.count:>3}, ratio {row.ratio}")
