"""Discrepancy and exponent calculus for product classes.

The central quantity is the discrepancy of a class pair (g, h): the amount by
which the naive valuation ``|A|*ind(g) + d*ind(h_reg)`` overshoots the true
compositum valuation ``pair_index(g, h_reg)``.  Everything downstream —
equality-case classification, the per-class exponent margins, the combined
exponent ``beta``, and the dyadic tail estimator — reduces to exact rational
arithmetic on these integers.  Sign decisions are the whole point, so nothing
in this module touches floating point except the final tail-series numerics,
which only ever feed magnitude comparisons.

A function of one class takes ``(g, h)`` and reads d = ``g.degree`` and
A = ``h.group`` off it; a function over all classes takes ``(d, group[, r])``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivergentSeriesError,
    DomainError,
    Frozen,
    MissingExponentError,
)
from .groups import (
    AbelianElement,
    AbelianGroup,
    ClassPair,
    conjugacy_classes_product,
    element_order,
    regular_cycle_type,
)
from .perms import CycleType, ind, pair_index, partitions


@lru_cache(maxsize=1024)  # bounded: cli.main may run any number of times in one process
def delta(g: CycleType, h: AbelianElement) -> int:
    """Discrepancy of the pair (g, h) in the degree-(d*|A|) product action:

        |A| * ind(g) + d * ind(h_reg) - pair_index(g, h_reg)

    where ``h_reg`` is the regular cycle type of ``h``.  At a tame prime this
    is the valuation of ``Disc(F)^{|A|} * Disc(K)^d / Disc(FK)``.

    >>> from sdxa.groups import AbelianGroup
    >>> from sdxa.perms import CycleType
    >>> g3 = AbelianGroup.from_label("C3")
    >>> delta(CycleType((3,)), g3.element((1,)))
    6
    """
    h_reg = regular_cycle_type(h)
    return h.group.order * ind(g) + g.degree * ind(h_reg) - pair_index(g, h_reg)


def delta_closed_form(g: CycleType, h: CycleType) -> int:
    """The same discrepancy evaluated directly from two cycle types of
    degrees m and n:

        n * sum(c_i - 1) + m * sum(d_j - 1) - (m*n - sum gcd(c_i, d_j))

    Must agree with :func:`delta` whenever ``h`` is a regular cycle type.

    >>> delta_closed_form(CycleType((2, 1, 1)), CycleType((2,)))
    2
    """
    m, n = g.degree, h.degree
    return (
        n * sum(c - 1 for c in g.parts)
        + m * sum(c - 1 for c in h.parts)
        - (m * n - sum(math.gcd(a, b) for a in g.parts for b in h.parts))
    )


class IndexComparison(Frozen, namedtuple(
        "IndexComparison", "lhs rhs equality divisibility_criterion")):
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


def equality_cases(d: int, group: AbelianGroup) -> list[ClassPair]:
    """All classes (g, h) with h nontrivial where the index inequality is an
    equality, in the lemma's torsion form: the nonzero h in A[k], k the gcd of
    g's parts, whose residue mod each invariant factor n is a multiple of
    n / gcd(k, n).  ``verify-lemmas`` checks it against its index_compare scan.

    >>> from sdxa.groups import AbelianGroup
    >>> equality_cases(3, AbelianGroup.from_label("C2"))
    []
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    return [(g, group.element(residues)) for g in partitions(d)
            for residues in itertools.product(*(
                range(0, n, n // math.gcd(g.gcd_of_parts(), n)) for n in group.invariant_factors))
            if any(residues)]


def theta(g: CycleType, h: AbelianElement) -> Fraction:
    """Normalized per-class exponent contribution of the class (g, h):

        delta(g, h) / d  -  ind(h_reg)

    Always <= 0, with 0 exactly on equality cases and on classes with trivial
    abelian part.
    """
    return Fraction(delta(g, h), g.degree) - ind(regular_cycle_type(h))


def _exponent(r: dict[CycleType, Fraction], g: CycleType) -> Fraction:
    """``r[g]``, or MissingExponentError naming the class."""
    try:
        return r[g]
    except KeyError:
        raise MissingExponentError(f"no exponent supplied for class {g}") from None


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


class BetaResult(Frozen, namedtuple("BetaResult", "value attained per_class")):
    """The combined exponent and its per-class breakdown.

    ``per_class`` lists every class with both components nontrivial together
    with its exact contribution; ``attained`` are the classes achieving the
    maximum.  Each contribution is computed through two different routes
    that must agree identically: theta-based, ``(d/|A|) * theta + r[g]``, and
    pair_index-based, ``r[g] + ind(g) - pair_index(g, h_reg) / |A|``.
    """

    value: Fraction
    attained: tuple[ClassPair, ...]
    per_class: tuple[tuple[ClassPair, Fraction], ...]

    def __repr__(self) -> str:  # without per_class, one entry per class
        return f"{type(self).__name__}(value={self.value!r}, attained={self.attained!r})"


def beta(d: int, group: AbelianGroup, r: dict[CycleType, Fraction]) -> BetaResult:
    """Maximum of ``(d/|A|) * theta(class) + r[g]`` over the classes with both
    components nontrivial, where ``r`` maps every nontrivial cycle type of S_d
    to the exponent achieved by the corresponding dyadic-range count.

    Classes with trivial abelian part contribute no truncation error (their
    discrepancy is zero), and classes with trivial S_d part have no dyadic
    range attached; restricting the maximum to both-nontrivial classes is
    what makes the result the exact exponent of the tail.

    >>> from sdxa.groups import AbelianGroup
    >>> c2 = AbelianGroup.from_label("C2")
    >>> beta(3, c2, exponent_presets(3, Fraction(1, 100))).value
    Fraction(-49, 100)
    """
    order = group.order
    contributions: list[tuple[ClassPair, Fraction]] = []
    for g, h in conjugacy_classes_product(d, group):
        if g.is_identity() or h.is_identity:
            continue
        r_g = _exponent(r, g)
        via_theta = Fraction(d, order) * theta(g, h) + r_g
        via_pair_index = r_g + ind(g) - Fraction(pair_index(g, regular_cycle_type(h)), order)
        if via_theta != via_pair_index:
            raise AssertionError(
                f"internal identity violated at class ({g}, {h}): "
                f"{via_theta} != {via_pair_index}"
            )
        contributions.append(((g, h), via_theta))
    if not contributions:
        raise DomainError(
            "no classes with both components nontrivial (is the group trivial?)"
        )
    best = max(value for _, value in contributions)
    attained = tuple(pair for pair, value in contributions if value == best)
    return BetaResult(value=best, attained=attained, per_class=tuple(contributions))


def hypothesis_b_margin(
    d: int, group: AbelianGroup, r: dict[CycleType, Fraction]
) -> dict[CycleType, Fraction]:
    """For each nontrivial cycle type g of S_d, the worst (largest) value of

        r[g] + ind(g) - pair_index(g, h_reg) / |A|

    over nontrivial h in the group: the maximum of ``beta``'s per-class
    contributions with that g.  All margins strictly negative is the
    verifiable form of the counting hypothesis.
    """
    if group.order == 1:
        raise DomainError("margins need a nontrivial group")
    if len(partitions(d)) == 1:  # raises for d < 0; S_0 and S_1 have no nontrivial class
        return {}
    margins: dict[CycleType, Fraction] = {}
    for (g, _), value in beta(d, group, r).per_class:
        margins[g] = max(margins.get(g, value), value)
    return margins


class TailEstimate(Frozen, namedtuple("TailEstimate", "value comparator r_start terms")):
    """Value of the dyadic tail series next to its closed-form comparator."""

    value: float
    comparator: float
    r_start: int
    terms: int


def _exp_in_float_range(log_value: float, what: str, y: float) -> float:
    """``exp(log_value)``, or DomainError where it leaves the float range."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} overflows at y = {y:g}") from None
    if not value:
        raise DomainError(f"{what} underflows to 0 at y = {y:g}")
    return value


def tail_series(
    beta_value: Fraction | float, epsilon: Fraction | float, m: int, y: float
) -> TailEstimate:
    """The dyadic tail sum, with x = 2^(beta+epsilon), r0 = max(0, k - m) for
    the least integer k with 2^k >= y, and n = r0 + m - 1, in its finite form

        sum_{r >= r0} C(r + m - 1, m - 1) * x^r
            = (1 - x)^(-m) * P[Bin(n, x) >= r0]
            = sum_{k = r0}^{n} C(n, k) * x^k * (1 - x)^(n - k - m),

    next to the comparator ``(log y)^(m-1) * y^(beta+eps)``.  The m terms
    (so ``terms`` is m) are summed in log space with ``lgamma``, shifted by
    the largest, and 1 - x is ``-expm1(e * ln 2)``; the comparator is formed
    in log space too.  A value or comparator outside the float range, or an
    exponent below it, raises DomainError.

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
    a, b = y.as_integer_ratio()  # the least k with b * 2**k >= a: the bit-length gap or one more
    r_start = max(0, (k := a.bit_length() - b.bit_length()) + (b << k < a) - m)
    try:
        e = float(exponent)
    except OverflowError:  # e is below -1.8e308, so y^e is 0 for every y > 1
        raise DomainError(f"the comparator underflows to 0 at y = {y:g}") from None
    log_x = e * math.log(2)
    q = -math.expm1(log_x)
    if not q:  # x is 1.0 in floats, so (1 - x)^(-m) is past every float
        raise DomainError(f"the tail value overflows at y = {y:g}")
    comparator = _exp_in_float_range(
        (m - 1) * math.log(math.log(y)) + e * math.log(y), "the comparator", y
    )
    log_q = math.log(q)
    n = r_start + m - 1
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * log_x + (n - k - m) * log_q
        for k in range(r_start, n + 1)
    ]
    top = max(logs)
    log_value = top + math.log(math.fsum(math.exp(t - top) for t in logs))
    return TailEstimate(
        value=_exp_in_float_range(log_value, "the tail value", y),
        comparator=comparator,
        r_start=r_start,
        terms=m,
    )
