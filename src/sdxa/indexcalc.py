"""Discrepancy and exponent calculus for product classes.

The central quantity is the discrepancy of a class pair (g, h): the amount by
which the naive valuation ``|A|*ind(g) + d*ind(h_reg)`` overshoots the true
compositum valuation ``pair_index(g, h_reg)``.  Everything downstream —
equality-case classification, the per-class exponent margins, the combined
exponent ``beta``, and the dyadic tail estimator — reduces to exact rational
arithmetic on these integers.  Sign decisions are the whole point, so nothing
in this module touches floating point except the final tail-series numerics,
which only ever feed magnitude comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegreeMismatchError,
    DivergentSeriesError,
    DomainError,
    MissingExponentError,
)
from .groups import (
    AbelianElement,
    AbelianGroup,
    ProductClass,
    conjugacy_classes_product,
    element_order,
    regular_cycle_type,
)
from .perms import CycleType, ind, pair_index, partitions


def delta(d: int, group: AbelianGroup, g: CycleType, h: AbelianElement) -> int:
    """Discrepancy of the pair (g, h) in the degree-(d*|A|) product action:

        |A| * ind(g) + d * ind(h_reg) - pair_index(g, h_reg)

    where ``h_reg`` is the regular cycle type of ``h``.  At a tame prime this
    is the valuation of ``Disc(F)^{|A|} * Disc(K)^d / Disc(FK)``.

    >>> from sdxa.groups import AbelianGroup
    >>> from sdxa.perms import CycleType
    >>> g3 = AbelianGroup.from_label("C3")
    >>> delta(3, g3, CycleType((3,)), g3.element((1,)))
    6
    """
    if g.degree != d:
        raise DegreeMismatchError(f"cycle type degree {g.degree} != d = {d}")
    if h.group != group:
        raise DomainError("element does not belong to the given group")
    h_reg = regular_cycle_type(h)
    return group.order * ind(g) + d * ind(h_reg) - pair_index(g, h_reg)


def delta_closed_form(g: CycleType, h: CycleType, m: int, n: int) -> int:
    """The same discrepancy evaluated directly from two cycle types of
    degrees m and n:

        n * sum(c_i - 1) + m * sum(d_j - 1) - (m*n - sum gcd(c_i, d_j))

    Must agree with :func:`delta` whenever ``h`` is a regular cycle type.

    >>> delta_closed_form(CycleType((2, 1, 1)), CycleType((2,)), 4, 2)
    2
    """
    if g.degree != m:
        raise DegreeMismatchError(f"first cycle type has degree {g.degree}, not {m}")
    if h.degree != n:
        raise DegreeMismatchError(f"second cycle type has degree {h.degree}, not {n}")
    return (
        n * sum(c - 1 for c in g.parts)
        + m * sum(c - 1 for c in h.parts)
        - (m * n - sum(math.gcd(a, b) for a in g.parts for b in h.parts))
    )


def delta_class(cls: ProductClass, d: int, group: AbelianGroup) -> int:
    """Discrepancy of a product class (convenience wrapper)."""
    return delta(d, group, cls.sd_part, cls.a_part)


@dataclass(frozen=True)
class IndexComparison:
    """Both sides of the fundamental index inequality for a pair (g, h).

    ``lhs`` is ``|A| * ind(g)`` (the h = identity value), ``rhs`` is the true
    pair index, ``equality`` records whether they agree, and
    ``divisibility_criterion`` is the independent predicate
    ``ord(h) | gcd(cycle lengths of g)`` that is supposed to characterize
    equality.  The two flags are computed by different routes on purpose.
    """

    lhs: int
    rhs: int
    equality: bool
    divisibility_criterion: bool


def index_compare(g: CycleType, h: AbelianElement) -> IndexComparison:
    """Compare ``|A|*ind(g)`` with the pair index of (g, h_reg).

    >>> from sdxa.groups import AbelianGroup
    >>> c2 = AbelianGroup.from_label("C2")
    >>> index_compare(CycleType((2, 1)), c2.element((1,))).equality
    False
    """
    order = h.group.order
    lhs = order * ind(g)
    rhs = pair_index(g, regular_cycle_type(h))
    return IndexComparison(
        lhs=lhs,
        rhs=rhs,
        equality=lhs == rhs,
        divisibility_criterion=g.gcd_of_parts() % element_order(h) == 0,
    )


def equality_cases(d: int, group: AbelianGroup) -> list[ProductClass]:
    """All classes (g, h) with h nontrivial where the index inequality is an
    equality, found by direct comparison (not by the divisibility shortcut).

    >>> from sdxa.groups import AbelianGroup
    >>> equality_cases(3, AbelianGroup.from_label("C2"))
    []
    """
    out: list[ProductClass] = []
    for cls in conjugacy_classes_product(d, group, nontrivial_only=True):
        if cls.a_part.is_identity:
            continue
        if index_compare(cls.sd_part, cls.a_part).equality:
            out.append(cls)
    return out


def theta(cls: ProductClass, d: int, group: AbelianGroup) -> Fraction:
    """Normalized per-class exponent contribution:

        delta(class) / d  -  ind(regular type of the abelian part)

    Always <= 0, with 0 exactly on equality cases and on classes with trivial
    abelian part.
    """
    return Fraction(delta_class(cls, d, group), d) - ind(
        regular_cycle_type(cls.a_part)
    )


@dataclass(frozen=True)
class TailParams:
    """Inputs for the combined-exponent computation.

    ``r`` maps every nontrivial cycle type of S_d to the exponent achieved by
    the corresponding dyadic-range count; ``epsilon`` is the slack added on
    top of ``beta`` by the tail estimator.
    """

    d: int
    group: AbelianGroup
    r: dict[CycleType, Fraction]
    epsilon: Fraction = Fraction(1, 1000)

    def exponent_for(self, g: CycleType) -> Fraction:
        try:
            return self.r[g]
        except KeyError:
            raise MissingExponentError(
                f"no exponent supplied for class {g}"
            ) from None


def exponent_presets(d: int, epsilon: Fraction = Fraction(1, 1000)) -> dict[CycleType, Fraction]:
    """The stock exponent vectors used by the verification suite.

    For d = 3 and 4 the exponent is ``epsilon`` on the minimal-index class
    set and ``-1 + epsilon`` on the rest; for d = 5 it is ``epsilon`` on the
    transposition class and ``-1/20 + epsilon`` on every other class.  These
    are presets taken as given, not derived here.
    """
    eps = Fraction(epsilon)
    if d == 3:
        return {
            CycleType((2, 1)): eps,
            CycleType((3,)): -1 + eps,
        }
    if d == 4:
        return {
            CycleType((2, 1, 1)): eps,
            CycleType((3, 1)): eps,
            CycleType((2, 2)): -1 + eps,
            CycleType((4,)): -1 + eps,
        }
    if d == 5:
        out = {ct: Fraction(-1, 20) + eps for ct in partitions(5) if not ct.is_identity()}
        out[CycleType((2, 1, 1, 1))] = eps
        return out
    raise DomainError("presets exist only for d in {3, 4, 5}")


@dataclass(frozen=True)
class BetaResult:
    """The combined exponent and its per-class breakdown.

    ``per_class`` lists every class with both components nontrivial together
    with its exact contribution; ``attained`` are the classes achieving the
    maximum.  Each contribution is computed through two different expressions
    (theta-based and delta-based) that must agree identically.
    """

    value: Fraction
    attained: tuple[ProductClass, ...]
    per_class: tuple[tuple[ProductClass, Fraction], ...] = field(repr=False)


def beta(params: TailParams) -> BetaResult:
    """Maximum of ``(d/|A|) * theta(class) + r[g]`` over the classes with both
    components nontrivial.

    Classes with trivial abelian part contribute no truncation error (their
    discrepancy is zero), and classes with trivial S_d part have no dyadic
    range attached; restricting the maximum to both-nontrivial classes is
    what makes the result the exact exponent of the tail.

    >>> from sdxa.groups import AbelianGroup
    >>> params = TailParams(3, AbelianGroup.from_label("C2"),
    ...                     exponent_presets(3, Fraction(1, 100)),
    ...                     epsilon=Fraction(1, 100))
    >>> beta(params).value
    Fraction(-49, 100)
    """
    d, group = params.d, params.group
    order = group.order
    contributions: list[tuple[ProductClass, Fraction]] = []
    for cls in conjugacy_classes_product(d, group, nontrivial_only=True):
        if not cls.both_nontrivial:
            continue
        r_g = params.exponent_for(cls.sd_part)
        via_theta = Fraction(d, order) * theta(cls, d, group) + r_g
        via_delta = (
            Fraction(delta_class(cls, d, group), order)
            - Fraction(d * ind(regular_cycle_type(cls.a_part)), order)
            + r_g
        )
        if via_theta != via_delta:
            raise AssertionError(
                f"internal identity violated at class {cls}: "
                f"{via_theta} != {via_delta}"
            )
        contributions.append((cls, via_theta))
    if not contributions:
        raise DomainError(
            "no classes with both components nontrivial (is the group trivial?)"
        )
    best = max(value for _, value in contributions)
    attained = tuple(cls for cls, value in contributions if value == best)
    return BetaResult(value=best, attained=attained, per_class=tuple(contributions))


def hypothesis_b_margin(
    d: int, group: AbelianGroup, r: dict[CycleType, Fraction]
) -> dict[CycleType, Fraction]:
    """For each nontrivial cycle type g of S_d, the worst (largest) value of

        r[g] + ind(g) - pair_index(g, h_reg) / |A|

    over nontrivial h in the group.  All margins strictly negative is the
    verifiable form of the counting hypothesis.
    """
    order = group.order
    margins: dict[CycleType, Fraction] = {}
    nontrivial_elements = [h for h in group.elements() if not h.is_identity]
    if not nontrivial_elements:
        raise DomainError("margins need a nontrivial group")
    for g in partitions(d):
        if g.is_identity():
            continue
        try:
            r_g = r[g]
        except KeyError:
            raise MissingExponentError(f"no exponent supplied for class {g}") from None
        margins[g] = max(
            r_g + ind(g) - Fraction(pair_index(g, regular_cycle_type(h)), order)
            for h in nontrivial_elements
        )
    return margins


@dataclass(frozen=True)
class TailEstimate:
    """Value of the dyadic tail series next to its closed-form comparator."""

    value: float
    comparator: float
    r_start: int
    terms: int


def tail_series(
    beta_value: Fraction | float,
    epsilon: Fraction | float,
    m: int,
    y: float,
    floor: float = 1e-15,
) -> TailEstimate:
    """Evaluate the dyadic tail sum

        sum_{r >= r0} C(r + m - 1, m - 1) * (2^(beta+epsilon))^r,
        r0 = max(0, ceil(log2(y) - m)),

    by direct summation until a term falls below ``floor`` times the running
    sum, alongside the closed-form comparator ``(log y)^(m-1) * y^(beta+eps)``.

    >>> est = tail_series(Fraction(-1), Fraction(0), 2, 16.0)
    >>> round(est.value, 12)
    2.0
    """
    exponent = Fraction(beta_value) + Fraction(epsilon)
    if exponent >= 0:
        raise DivergentSeriesError(
            f"series diverges: beta + epsilon = {exponent} >= 0"
        )
    if m < 1:
        raise DomainError("m must be >= 1")
    if not math.isfinite(y):
        raise DomainError(f"cutoff y must be finite, got {y}")
    if y <= 1:
        raise DomainError("cutoff y must exceed 1")
    r_start = max(0, math.ceil(math.log2(y) - m))
    x = 2.0 ** float(exponent)
    term = math.comb(r_start + m - 1, m - 1) * x**r_start
    total = 0.0
    r = r_start
    while term > total * floor or r < r_start + m:
        total += term
        r += 1
        term *= x * (r + m - 1) / r
        if r > r_start + 10_000_000:
            raise DomainError("series failed to converge within the iteration cap")
    comparator = math.log(y) ** (m - 1) * y ** float(exponent)
    return TailEstimate(
        value=total, comparator=comparator, r_start=r_start, terms=r - r_start
    )
