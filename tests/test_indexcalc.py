"""Unit tests for the discrepancy and exponent calculus.

The frozen anchor values in here were each recomputed by hand from the
defining formulas before the implementation existed; the dual-route checks
(direct vs. closed form, theta-route vs. margin-route) are kept strictly
separate so a bug cannot hide by cancelling itself.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdxa import indexcalc
from sdxa.errors import (
    DivergentSeriesError,
    DomainError,
    MissingExponentError,
)
from sdxa.groups import (
    AbelianGroup,
    abelian_groups_up_to,
    conjugacy_classes_product,
    element_order,
    regular_cycle_type,
)
from sdxa.indexcalc import (
    beta,
    delta,
    delta_closed_form,
    equality_cases,
    exponent_presets,
    hypothesis_b_margin,
    index_compare,
    tail_series,
    theta,
)
from sdxa.perms import CycleType, ind, pair_index, partitions


def geometric_tail_oracle(x: Fraction, m: int, r_start: int) -> Fraction:
    """Exact value of sum_{r >= r_start} C(r+m-1, m-1) x^r for rational x.

    Uses the binomial identity sum_{r>=0} C(r+m-1, m-1) x^r = (1-x)^(-m)
    and subtracts the finite head — a wholly independent route from the
    term-by-term float summation under test.
    """
    from math import comb

    total = (1 - x) ** -m
    head = sum(comb(r + m - 1, m - 1) * x**r for r in range(r_start))
    return total - head


def _exact_r_start(y: float, m: int) -> int:
    """max(0, k - m) for the least integer k with 2**k >= y, read off
    Fraction(y) = a/b: 2**k >= a/b exactly when 2**k >= ceil(a/b), and the
    least such k is the bit length of ceil(a/b) - 1 = (a - 1) // b."""
    exact = Fraction(y)
    return max(0, ((exact.numerator - 1) // exact.denominator).bit_length() - m)


def _loop_tail(exponent: Fraction, m: int, y: float, floor: float = 1e-15) -> float:
    """The dyadic tail summed term by term from r0 until a term falls below
    ``floor`` times the running sum: the float route that ``tail_series``
    replaced with its finite form, kept as a differential oracle."""
    r_start = _exact_r_start(y, m)
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
    return total


class TestDelta:
    def test_totally_ramified_cubic_pair(self):
        g3 = AbelianGroup.from_label("C3")
        assert delta(CycleType((3,)), g3.element((1,))) == 6

    def test_totally_ramified_quintic_pair(self):
        g5 = AbelianGroup.from_label("C5")
        assert delta(CycleType((5,)), g5.element((1,))) == 20

    def test_identity_element_gives_zero(self):
        for label in ["C2", "C3", "C2xC2", "C8"]:
            group = AbelianGroup.from_label(label)
            for d in (3, 4, 5):
                for g in partitions(d):
                    assert delta(g, group.identity()) == 0

    def test_closed_form_examples(self):
        assert delta_closed_form(CycleType((2, 1, 1)), CycleType((2,))) == 2
        assert delta_closed_form(CycleType((2, 2, 1)), CycleType((5,))) == 8
        assert delta_closed_form(CycleType((1, 1)), CycleType((1, 1))) == 0

    def test_delta_equals_closed_form_exhaustively(self):
        # d <= 6, every abelian group of order <= 8, every class pair.
        for group in [AbelianGroup(()), *abelian_groups_up_to(8)]:
            for d in range(1, 7):
                for g in partitions(d):
                    for h in group.elements():
                        assert delta(g, h) == delta_closed_form(g, regular_cycle_type(h))

    MEMO_GROUPS = ["C2", "C3", "C4", "C5", "C6", "C7", "C2xC2", "C2xC4", "C3xC3"]

    def test_memoised_delta_agrees_cold_and_cached(self):
        delta.cache_clear()
        for label in self.MEMO_GROUPS:
            group = AbelianGroup.from_label(label)
            for d in (3, 4, 5):
                for g in partitions(d):
                    for h in group.elements():
                        expected = delta_closed_form(g, regular_cycle_type(h))
                        before = delta.cache_info()
                        assert delta(g, h) == expected  # cold
                        assert delta(g, h) == expected  # cached
                        after = delta.cache_info()
                        assert (after.misses, after.hits) == (
                            before.misses + 1, before.hits + 1
                        )

    def test_element_of_order_is_stable_under_the_memo(self):
        # the closed form picks the element the walk over group.elements()
        # picked: the first of that order in residue order; orders below 1
        # are refused like any other order no element has
        for label in self.MEMO_GROUPS + ["C1", "C2xC6"]:
            group = AbelianGroup.from_label(label)
            orders = {element_order(h) for h in group.elements()}
            for order in range(-2, group.order + 1):
                if order in orders:
                    h = group.element_of_order(order)
                    assert h.group == group and element_order(h) == order
                    assert h == next(
                        e for e in group.elements() if element_order(e) == order
                    )
                    # a repeat call hands back the memoised object itself
                    assert group.element_of_order(order) is h
                else:
                    for _ in range(2):
                        with pytest.raises(DomainError, match=f"no element of order {order}$"):
                            group.element_of_order(order)

    def test_delta_bounds_and_attainment(self):
        # 0 <= delta <= d * ind(h_reg); the upper bound is attained exactly on
        # the equality cases, the lower bound at h = identity.
        for group in abelian_groups_up_to(8):
            for d in (3, 4, 5):
                equalities = {
                    (g.parts, h.residues)
                    for g, h in equality_cases(d, group)
                }
                for g in partitions(d):
                    for h in group.elements():
                        value = delta(g, h)
                        upper = d * ind(regular_cycle_type(h))
                        assert 0 <= value <= upper
                        if h.is_identity:
                            assert value == 0
                        elif not g.is_identity():
                            attained = (g.parts, h.residues) in equalities
                            assert (value == upper) == attained


class TestIndexCompare:
    def test_three_cycle_with_order_three_element(self):
        g3 = AbelianGroup.from_label("C3")
        result = index_compare(CycleType((3,)), g3.element((1,)))
        assert result.equality and result.divisibility_criterion

    def test_transposition_with_involution(self):
        g2 = AbelianGroup.from_label("C2")
        result = index_compare(CycleType((2, 1)), g2.element((1,)))
        assert not result.equality and not result.divisibility_criterion
        assert (result.lhs, result.rhs) == (2, 3)

    def test_identity_element_always_equal(self):
        g4 = AbelianGroup.from_label("C4")
        for g in partitions(5):
            result = index_compare(g, g4.identity())
            assert result.equality and result.divisibility_criterion

    def test_equality_iff_divisibility_exhaustive(self):
        # The computed equality flag and the independent divisibility
        # predicate must coincide for d <= 5, |A| <= 8.
        for group in [AbelianGroup(()), *abelian_groups_up_to(8)]:
            for d in range(1, 6):
                for g in partitions(d):
                    for h in group.elements():
                        result = index_compare(g, h)
                        assert result.equality == result.divisibility_criterion

    def test_strict_cases_have_unit_deficit(self):
        # Whenever the inequality is strict the gap is at least 1, i.e. at
        # least 1/|A| after normalizing by the group order.
        for group in abelian_groups_up_to(8):
            for d in range(1, 6):
                for g in partitions(d):
                    for h in group.elements():
                        result = index_compare(g, h)
                        if not result.equality:
                            assert result.rhs - result.lhs >= 1


def _scanned_equality_cases(d: int, group: AbelianGroup) -> list:
    """The equality classes by direct index comparison over every class, in
    enumeration order: the route ``verify-lemmas`` checks the catalogue by."""
    return [
        (g, h)
        for g, h in conjugacy_classes_product(d, group)
        if not h.is_identity and index_compare(g, h).equality
    ]


class TestEqualityCases:
    def test_cubic_with_even_group_is_empty(self):
        assert equality_cases(3, AbelianGroup.from_label("C2")) == []
        assert _scanned_equality_cases(3, AbelianGroup.from_label("C2")) == []

    def test_quartic_with_involution(self):
        g2 = AbelianGroup.from_label("C2")
        cases = equality_cases(4, g2)
        assert cases == _scanned_equality_cases(4, g2)
        assert {g.parts for g, _ in cases} == {(2, 2), (4,)}
        assert all(h.residues == (1,) for _, h in cases)

    def test_quintic_with_c6_is_empty(self):
        assert equality_cases(5, AbelianGroup.from_label("C6")) == []
        assert _scanned_equality_cases(5, AbelianGroup.from_label("C6")) == []

    def test_expected_catalogue(self):
        # d=3: the 3-cycle iff 3 | |A|; d=4: (2,2) and the 4-cycle iff
        # 2 | |A|; d=5: the 5-cycle iff 5 | |A|; the qualifying elements are
        # exactly those whose order divides the gcd of the cycle lengths.
        catalogue = {3: {(3,): 3}, 4: {(2, 2): 2, (4,): 2}, 5: {(5,): 5}}
        groups = [AbelianGroup.from_label(f"C{n}") for n in range(2, 13)]
        groups += [
            AbelianGroup.from_label(label) for label in ("C2xC2", "C2xC4", "C2xC6")
        ]
        for group in groups:
            for d, by_type in catalogue.items():
                cases = equality_cases(d, group)
                assert cases == _scanned_equality_cases(d, group)
                expected = set()
                for parts, modulus in by_type.items():
                    if group.order % modulus == 0:
                        gcd_parts = CycleType(parts).gcd_of_parts()
                        for h in group.elements():
                            if h.is_identity:
                                continue
                            if gcd_parts % element_order(h) == 0:
                                expected.add((parts, h.residues))
                assert {(g.parts, h.residues) for g, h in cases} == expected

    def test_torsion_form_matches_the_scan_in_order(self):
        # the k-torsion, walked residue by residue, in the scan's order, over
        # the trivial group, primes past every cycle length and ranks 2 to 4
        groups = [AbelianGroup(()), *abelian_groups_up_to(12)]
        groups += [AbelianGroup.from_label(label)
                   for label in ("C2xC2xC2xC2", "C3xC3xC3", "C2xC4xC8")]
        for group in groups:
            for d in range(1, 7):
                assert equality_cases(d, group) == _scanned_equality_cases(d, group)

    def test_degree_below_one_is_refused(self):
        for d in (0, -1):
            with pytest.raises(DomainError, match=r"^d must be >= 1$"):
                equality_cases(d, AbelianGroup.from_label("C2"))


class TestTheta:
    def test_trivial_abelian_part(self):
        g2 = AbelianGroup.from_label("C2")
        assert theta(CycleType((2, 1)), g2.identity()) == 0

    def test_equality_case_gives_zero(self):
        g3 = AbelianGroup.from_label("C3")
        assert theta(CycleType((3,)), g3.element((1,))) == 0

    def test_transposition_class_in_quintic_product(self):
        g5 = AbelianGroup.from_label("C5")
        assert theta(CycleType((2, 1, 1, 1)), g5.element((1,))) == Fraction(-16, 5)

    def test_theta_is_never_positive(self):
        for group in abelian_groups_up_to(8):
            for d in (3, 4, 5):
                for g, h in conjugacy_classes_product(d, group):
                    assert theta(g, h) <= 0


class TestBeta:
    def test_cubic_with_involution_anchor(self):
        eps = Fraction(1, 100)
        result = beta(3, AbelianGroup.from_label("C2"), exponent_presets(3, eps))
        assert result.value == Fraction(-1, 2) + eps
        # The maximum is attained at the transposition class (its exponent is
        # epsilon); the 3-cycle class sits a full unit lower.
        assert {g.parts for g, _ in result.attained} == {(2, 1)}
        by_type = {g.parts: value for (g, _), value in result.per_class}
        assert by_type[(3,)] == Fraction(-3, 2) + eps

    def test_zero_exponents_expose_equality_cases(self):
        zero = {ct: Fraction(0) for ct in partitions(4) if not ct.is_identity()}
        result = beta(4, AbelianGroup.from_label("C2"), zero)
        assert result.value == 0
        assert {g.parts for g, _ in result.attained} == {(2, 2), (4,)}
        # Without any equality case the maximum drops strictly below zero.
        zero3 = {ct: Fraction(0) for ct in partitions(3) if not ct.is_identity()}
        assert beta(3, AbelianGroup.from_label("C2"), zero3).value == Fraction(-1, 2)

    def test_missing_exponent_raises(self):
        with pytest.raises(MissingExponentError):
            beta(3, AbelianGroup.from_label("C2"), {})

    def test_a_wrong_delta_breaks_the_internal_identity(self, monkeypatch):
        # the theta route reads delta, the other route only pair_index
        true_delta = indexcalc.delta
        monkeypatch.setattr(indexcalc, "delta", lambda g, h: true_delta(g, h) + 1)
        with pytest.raises(AssertionError, match="internal identity violated"):
            beta(3, AbelianGroup.from_label("C2"), exponent_presets(3))

    def test_preset_negativity_for_all_small_groups(self):
        eps = Fraction(1, 1000)
        for group in abelian_groups_up_to(12):
            for d in (3, 4, 5):
                assert beta(d, group, exponent_presets(d, eps)).value < 0

    def test_beta_equals_margin_maximum(self):
        # The per-class maximum over h folded into hypothesis_b_margin must
        # reproduce beta exactly, class by class and in the maximum.
        eps = Fraction(1, 1000)
        for group in abelian_groups_up_to(12):
            for d in (3, 4, 5):
                r = exponent_presets(d, eps)
                result = beta(d, group, r)
                margins = hypothesis_b_margin(d, group, r)
                assert result.value == max(margins.values())
                per_type: dict[tuple[int, ...], Fraction] = {}
                for (g, _), value in result.per_class:
                    parts = g.parts
                    per_type[parts] = max(per_type.get(parts, value), value)
                for g, margin in margins.items():
                    assert per_type[g.parts] == margin


class TestHypothesisBMargin:
    def test_zero_exponent_transposition_margin(self):
        r = {ct: Fraction(0) for ct in partitions(3) if not ct.is_identity()}
        margins = hypothesis_b_margin(3, AbelianGroup.from_label("C2"), r)
        assert margins[CycleType((2, 1))] == Fraction(-1, 2)

    def test_very_negative_exponent_dominates(self):
        for d in (3, 4):
            r = {
                ct: Fraction(-ind(ct) - 1)
                for ct in partitions(d)
                if not ct.is_identity()
            }
            margins = hypothesis_b_margin(d, AbelianGroup.from_label("C6"), r)
            assert all(value < 0 for value in margins.values())

    def test_missing_class_raises(self):
        with pytest.raises(MissingExponentError):
            hypothesis_b_margin(
                3, AbelianGroup.from_label("C2"), {CycleType((3,)): Fraction(0)}
            )

    def test_degrees_without_a_nontrivial_class(self):
        c2 = AbelianGroup.from_label("C2")
        assert hypothesis_b_margin(0, c2, {}) == {}
        assert hypothesis_b_margin(1, c2, {}) == {}
        with pytest.raises(DomainError, match="^n must be non-negative$"):
            hypothesis_b_margin(-1, c2, {})

    def test_trivial_group_raises(self):
        for d in (-1, 3):
            with pytest.raises(DomainError, match="^margins need a nontrivial group$"):
                hypothesis_b_margin(d, AbelianGroup.from_label("C1"), exponent_presets(3))


class TestTailSeries:
    def test_geometric_case_matches_formula(self):
        # m=1, exponent -1, cutoff 2^10: start index 9, sum 2^-8.
        est = tail_series(Fraction(-1), Fraction(0), 1, 2.0**10)
        assert est.r_start == 9
        assert est.value == pytest.approx(2.0**-8, rel=1e-12)

    def test_weighted_case_exact_value(self):
        est = tail_series(Fraction(-1), Fraction(0), 2, 2.0**4)
        assert est.r_start == 2
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_against_closed_form_oracle(self):
        for m in (1, 2, 3, 4):
            for exponent in (Fraction(-1), Fraction(-2), Fraction(-3)):
                for y in (2.0**4, 2.0**8, 2.0**12):
                    est = tail_series(exponent, Fraction(0), m, y)
                    oracle = geometric_tail_oracle(
                        Fraction(2) ** exponent, m, est.r_start
                    )
                    assert est.value == pytest.approx(float(oracle), rel=1e-9)

    def test_monotone_decrease_in_cutoff(self):
        for m in (1, 2, 5):
            values = [
                tail_series(Fraction(-1, 2), Fraction(1, 1000), m, 2.0**k).value
                for k in (4, 8, 16, 24)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_divergent_input_rejected(self):
        with pytest.raises(DivergentSeriesError):
            tail_series(Fraction(-1, 100), Fraction(1, 10), 2, 16.0)
        with pytest.raises(DomainError):
            tail_series(Fraction(-1), Fraction(0), 2, 1.0)
        with pytest.raises(DomainError):
            tail_series(Fraction(-1), Fraction(0), 0, 16.0)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_rational_cases_match_oracle(self, m, log2_y, k):
        est = tail_series(Fraction(-k), Fraction(0), m, float(2**log2_y))
        oracle = geometric_tail_oracle(Fraction(1, 2**k), m, est.r_start)
        assert est.value == pytest.approx(float(oracle), rel=1e-9)

    @settings(deadline=None)
    @given(
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(-1, 1000)),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=2.0**4, max_value=2.0**64),
    )
    # the floats just above 2^4 and 2^60, which hypothesis does not draw: there
    # ceil(log2(y) - m) rounds log2(y) down onto the power and starts a term early
    @example(Fraction(-1, 4), 2, 16.000000000000004)
    @example(Fraction(-1, 4), 2, math.ldexp(1 + 2**-52, 60))
    def test_matches_term_by_term_loop(self, exponent, m, y):
        est = tail_series(exponent, Fraction(0), m, y)
        assert est.terms == m
        assert est.value == pytest.approx(_loop_tail(exponent, m, y), rel=1e-9)

    def test_r_start_is_exact_next_to_every_power_of_two(self):
        # y = 2^j * (1 + i * 2^-52): the floats at and beside 2^j, where
        # ceil(log2(y) - m) rounds log2(y) onto the integer j; j = 4 and 60
        # with i = 1 are 16.000000000000004 and 2^60 + 256, whose r_start at
        # m = 2 the float formula gave as 2 and 58, not 3 and 59
        for j in range(1, 1001):
            for i in range(-2, 3):
                y = math.ldexp(1 + i * 2.0**-52, j)
                k = j + (i > 0)
                assert 2 ** (k - 1) < Fraction(y) <= 2**k
                assert _exact_r_start(y, 0) == k
                for m in range(1, 9):
                    est = tail_series(Fraction(-1, 2), Fraction(0), m, y)
                    assert est.r_start == max(0, k - m)

    def test_exponent_near_zero_is_finite_and_fast(self):
        # At exponent -1e-6 the term-by-term loop ran into its 10^7-term
        # cap; the finite form has m = 2 terms.
        exponent = Fraction(-1, 10**6)
        start = time.perf_counter()
        est = tail_series(exponent, Fraction(0), 2, 16.0)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(est.value) and est.terms == 2
        # a rational x whose 1 - x is the float 1 - 2^exponent; rel 1e-12
        # fails if 1 - x is taken as 1 - exp(...), which is off by 6e-11
        x = 1 - Fraction(-math.expm1(float(exponent) * math.log(2)))
        oracle = geometric_tail_oracle(x, 2, est.r_start)
        assert est.value == pytest.approx(float(oracle), rel=1e-12)

    def test_tail_value_past_the_float_range_is_an_error(self):
        # (1 - x)^-m alone is about 10^366 here
        with pytest.raises(DomainError, match="the tail value overflows"):
            tail_series(Fraction(-1, 10**9), Fraction(0), 40, 16.0)
        # 1 - x is 0 in floats: (1 - x)^-m is past every float
        with pytest.raises(DomainError, match="the tail value overflows"):
            tail_series(Fraction(-1, 10**400), Fraction(0), 2, 16.0)


class TestExponentPresets:
    def test_cover_every_nontrivial_class(self):
        for d in (3, 4, 5):
            preset = exponent_presets(d)
            expected = {ct for ct in partitions(d) if not ct.is_identity()}
            assert set(preset) == expected

    def test_values(self):
        eps = Fraction(1, 1000)
        preset3 = exponent_presets(3, eps)
        assert preset3[CycleType((2, 1))] == eps
        assert preset3[CycleType((3,))] == -1 + eps
        preset4 = exponent_presets(4, eps)
        assert preset4[CycleType((3, 1))] == eps
        assert preset4[CycleType((2, 2))] == -1 + eps
        preset5 = exponent_presets(5, eps)
        assert preset5[CycleType((2, 1, 1, 1))] == eps
        assert preset5[CycleType((5,))] == Fraction(-1, 20) + eps

    def test_unknown_degree_rejected(self):
        with pytest.raises(DomainError):
            exponent_presets(6)
